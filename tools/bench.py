"""One layer of ``liftspectra``, timed on a parent and a change, as ``BENCH_<subject>.json``.

Usage, from the root of a checkout::

    python3 tools/bench.py SUBJECT [--parent REV] [--change REV] [--out FILE] \\
        [--ab-parent RUN ...] [--ab-change RUN ...]

``SUBJECT`` is one of ``compute_irreps``, ``lift_spectrum``,
``lift_eigenvectors``, ``cli_output`` and ``cli_process`` (see ``SUBJECTS``).
``REV`` is any git revision of this repository.  ``--parent`` defaults to
``HEAD``; ``--change`` defaults to the working tree's tracked files (``git
stash create``, or ``HEAD`` when nothing has changed), so a new file counts
only once ``git add`` has seen it.  Each side is a ``git archive`` copy in a
temporary directory, so neither reads this checkout's ``src/`` or bytecode.
``FILE`` defaults to ``BENCH_<SUBJECT>.json``.

Each side runs in fresh child processes that import ``liftspectra`` and
``perfbench/`` from its own copy, with one BLAS thread and no bytecode
written, in rounds that alternate which side goes first (``SUBJECTS``
gives each section's count).  An in-process child (:func:`time_calls`)
first calls every instance once, untimed, and hashes the answer; then it
times the whole calls with nothing wrapped, taking the page faults and the
system CPU time of those calls from ``resource.getrusage``; then it times
them again with the stages wrapped.  A stage is a set of ``liftspectra``
functions (``STAGES``), replaced by name in every loaded ``liftspectra``
module by a wrapper (:class:`Stages`) that books its own time, less that of
the wrapped calls inside it, so the stages and ``rest_ms`` (the rest of the
wrapped call) add up to ``wrapped_ms``.  An instance's stages come from the
wrapped call of it that was fastest.  A function that a side does not have
is skipped there, and its stage reads ``null``.  The two ``cli`` subjects
read documents made once, on the parent (:func:`documents_listing`).
``cli_process``'s child launches each call as ``python -m liftspectra.cli``,
for its wall time, peak RSS, faults and system time, and once more as a
probe process (:func:`probe`) that wraps the CLI's stages.

Each section of the file gives, per instance and side, the fastest value of
every ``*_ms`` field over the rounds and the largest of every ``*_mb``, the
median and quartiles of ``whole_ms`` over the rounds (``whole_ms_quartiles``);
``same_answer``, whether every round on both sides hashed the same answer;
and, per side, the sums of every time over the instances (``pass_ms``), the
whole pass of every round (``rounds_whole_ms``, with the number of rounds
the change was faster) and the faults and system time per pass of every
round (``rusage_per_pass``).  A pass is one call of every instance.

``--ab-parent`` and ``--ab-change`` take saved outputs of
``perfbench/run.py``; the file gets every run's value, and the median and
quartiles of every end-to-end metric, per workload and side.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import resource
import sys
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
# compute_irreps' groups: name -> (degree, generators).
GROUPS = {
    "S4": (4, ["(1 2 3 4)", "(1 2)"]),
    "A5": (5, ["(1 2 3 4 5)", "(1 2 3)"]),
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"]),
    "S5xC2": (7, ["(1 2)", "(1 2 3 4 5)", "(6 7)"]),
    "S6": (6, ["(1 2)", "(1 2 3 4 5 6)"]),
    "S5xC8": (13, ["(1 2)", "(1 2 3 4 5)", "(6 7 8 9 10 11 12 13)"]),
}
# The in-process ladder, name -> calls, and the groups called once per process.
LADDER = {"S4": 200, "A5": 100, "S5": 40, "S5xC2": 5, "S6": 1}
ONE_CALL = ("S6", "S5xC8")
SPECTRUM_SEED = 3
SPECTRUM_PASSES = 60
EIGVECS_SEED = 11
EIGVECS_PASSES = 15
CLI_SEED = 613
COMMANDS = {
    "spectrum": ["spectrum"],
    "eigvecs": ["eigvecs"],
    "lift": ["lift"],
    "lift-adjacency": ["lift", "--emit-adjacency"],
    "verify": ["verify"],
    "characters": ["characters"],
    "irreps": ["irreps"],
    "irreps-dump": ["irreps", "--dump"],
}
_COMMAND_NAMES = ("spectrum", "eigvecs", "lift", "verify", "characters", "irreps")
_HANDLERS = tuple(f"cli.cmd_{name}" for name in _COMMAND_NAMES)

# Subject -> stage -> the ``liftspectra`` functions it wraps, as ``module.name``.
STAGES = {
    "compute_irreps": {
        "seed_matrix": ("irreps._random_hermitian",),
        "averaging": ("irreps._average_conjugates",),
        "gather": ("irreps._shift_slice",),
        "catalog": ("irreps._catalog_slices",),
        "invariance_certificate": ("irreps._invariance_certificate",),
        # Residuals at the identity and the generators, for the certificate,
        # and at every element only where it fails.
        "invariance_residual": ("irreps._residual_norms", "irreps._slice_residual"),
        "sort": ("irreps._sort_irreps",),
        "validate": ("irreps._validate_irrep_set",),
    },
    "lift_spectrum": {
        "base_build": ("voltage.build_base_matrix",),
        # The ranks come from the pair's cached image source, checked once;
        # a side without that source reads them from ``subgroup_ranks``.
        "ranks": ("spectral._image_source", "irreps.subgroup_ranks"),
        "images": ("spectral.irrep_image",),
        "hermitian": ("spectral.is_hermitian",),
        "eigensolve": ("spectral.eig_dense",),
        "merge": ("spectral._merge_spectra",),
    },
    "lift_eigenvectors": {
        "images": ("spectral.irrep_image", "spectral.is_hermitian", "spectral.eig_dense"),
        "pull_back": ("spectral._pull_back",),
        "residual": ("spectral._check_residuals",),
        "zero_flags": ("spectral._zero_flags",),
        "peak_zero_flags": ("spectral._peak_zero_flags",),
    },
    # ``output`` is each command handler less the calls that make its result.
    "cli_output": {
        "load": ("cli.load_instance",),
        "produce": (
            "irreps.compute_irreps",
            "voltage.build_base_matrix",
            "voltage.build_lift",
            "voltage.randomize_voltages",
            "spectral.lift_spectrum",
            "spectral.lift_eigenvectors",
            "spectral.verify_against_oracle",
            "characters.regular_spectrum_via_characters",
        ),
        "output": _HANDLERS,
    },
    "cli_process": {"load": ("cli.load_instance",), "command": _HANDLERS},
}

# Subject -> (what it measures, section -> (child argument lists, rounds)).
SUBJECTS = {
    "compute_irreps": (
        "compute_irreps on a ladder of groups, whole call and the stages of "
        "_decompose_regular, sort and validation; and one S6 and one S5xC8 call, "
        "closing the group included, each in a fresh process",
        {
            "ladder": ([["compute_irreps"]], 4),
            # The fastest of two fresh calls could not resolve a 10 % change
            # in one; six give a median and quartiles beside the fastest.
            "one_call": ([["one_call", name] for name in ONE_CALL], 6),
        },
    ),
    "lift_spectrum": (
        "build_base_matrix and lift_spectrum on the spectrum_sweep pool, whole query and stages",
        {"pool": ([["lift_spectrum"]], 4)},
    ),
    "lift_eigenvectors": (
        "lift_eigenvectors on the eigvecs_sweep pool, whole call and stages",
        {"pool": ([["lift_eigenvectors"]], 6)},
    ),
    "cli_output": (
        "every CLI command through liftspectra.cli.main with stdout on os.devnull, on "
        "two generated documents and instances/*.json: the load, the calls that make "
        "the result, and the output step, with its tracemalloc peak",
        {"ladder": ([["cli_output"]], 3)},
    ),
    "cli_process": (
        "the cli_cold calls, each a whole python -m liftspectra.cli process: wall time "
        "and peak RSS, and the start, import, load, command and exit of a probe process",
        {"calls": ([["cli_process"]], 10)},
    ),
}


class Stages:
    """Wrappers that book each call to its stage, less the wrapped calls inside it."""

    def __init__(self, table):
        self.table = table
        self.present = set()
        self.spent = dict.fromkeys(table, 0.0)
        self.calls = dict.fromkeys(table, 0)
        self.inner = [0.0]

    def reset(self):
        """Zero the books, in place, since the wrappers hold them."""
        self.spent.update(dict.fromkeys(self.table, 0.0))
        self.calls.update(dict.fromkeys(self.table, 0))
        self.inner[:] = [0.0]

    def _clock(self, stage, fn):
        spent, inner = self.spent, self.inner

        def clocked(*args, **kwargs):
            inner.append(0.0)
            begun = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - begun
                spent[stage] += took - inner.pop()
                inner[-1] += took

        return clocked

    def _wrap(self, stage, fn):
        clocked = self._clock(stage, fn)

        def wrapped(*args, **kwargs):
            self.calls[stage] += 1
            result = clocked(*args, **kwargs)
            # A generator runs when it is stepped, so each step is booked.
            if isinstance(result, types.GeneratorType):
                return _stepped(self._clock(stage, result.__next__))
            return result

        return wrapped

    def install(self):
        """Wrap every stage's functions; return a callable that undoes it."""
        undos = []
        for stage, names in self.table.items():
            undo, found = rebind(names, functools.partial(self._wrap, stage))
            undos.append(undo)
            if found:
                self.present.add(stage)
        return lambda: [undo() for undo in reversed(undos)]

    def row(self, wrapped_s):
        """The stages of the last call, which took ``wrapped_s`` wrapped, in ms."""
        row = {
            f"{stage}_ms": 1e3 * spent if stage in self.present else None
            for stage, spent in self.spent.items()
        }
        row["rest_ms"] = 1e3 * (wrapped_s - sum(self.spent.values()))
        row["wrapped_ms"] = 1e3 * wrapped_s
        row["calls"] = dict(self.calls)
        return row


def _stepped(step):
    while True:
        try:
            item = step()
        except StopIteration:
            return
        yield item


def rebind(names, wrap):
    """Replace each ``liftspectra`` function named ``module.name`` by ``wrap(fn)``.

    The wrapper goes into every loaded ``liftspectra`` module that holds the
    function, since ``from .irreps import subgroup_ranks`` copies the binding
    into ``spectral``.  Returns an undo callable and whether any name was found.
    """
    targets = {}
    for name in names:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"liftspectra.{module}"), attr, None)
        if fn is not None:
            targets[id(fn)] = (fn, wrap(fn))
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "liftspectra":
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in targets and targets[id(value)][0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, targets[id(value)][1])

    def restore():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return restore, bool(targets)


def _each_call(rows, calls):
    """``(row, call, reps)`` for every call to make, a pass at a time."""
    for rep in range(max(reps for _, _, reps in calls)):
        for row, (_, call, reps) in zip(rows, calls):
            if rep < reps:
                yield row, call, reps


def time_calls(calls, table):
    """Time ``(label, call, reps)`` triples, ``reps`` calls each, whole and then staged.

    Returns one row per triple: the fastest whole call, the stages of the
    fastest wrapped call (:class:`Stages`), and the faults and system time
    per unwrapped call.  The caller makes the untimed first calls.
    """
    rows = [
        {"label": label, "whole_ms": float("inf"), "rusage": {"minflt": 0.0, "stime_ms": 0.0}}
        for label, _, _ in calls
    ]
    for row, call, reps in _each_call(rows, calls):
        before = resource.getrusage(resource.RUSAGE_SELF)
        begun = perf_counter()
        call()
        took = perf_counter() - begun
        after = resource.getrusage(resource.RUSAGE_SELF)
        row["whole_ms"] = min(row["whole_ms"], 1e3 * took)
        row["rusage"]["minflt"] += (after.ru_minflt - before.ru_minflt) / reps
        row["rusage"]["stime_ms"] += 1e3 * (after.ru_stime - before.ru_stime) / reps
    stages = Stages(table)
    undo = stages.install()
    try:
        for row, call, _ in _each_call(rows, calls):
            stages.reset()
            begun = perf_counter()
            call()
            took = perf_counter() - begun
            if took < row.get("wrapped_ms", float("inf")) / 1e3:
                row.update(stages.row(took))
    finally:
        undo()
    return rows


def _sha256(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _perfbench(tree):
    """The side's ``perfbench/instances.py`` and ``workloads.py``."""
    sys.path.insert(0, str(Path(tree) / "perfbench"))
    import instances
    import workloads

    return instances, workloads


def _group(ls, name):
    degree, gens = GROUPS[name]
    return ls.generate_group([ls.parse_permutation(g, degree) for g in gens])


def _catalog_sha256(irrep_set):
    return _sha256(*(irrep.matrices.tobytes() for irrep in irrep_set))


def compute_irreps_rows():
    import tracemalloc

    import liftspectra as ls

    calls = []
    digests = []
    for name, reps in LADDER.items():
        group = _group(ls, name)
        digests.append(_catalog_sha256(ls.compute_irreps(group, SEED)))
        calls.append((name, functools.partial(ls.compute_irreps, group, SEED), reps))
    rows = time_calls(calls, STAGES["compute_irreps"])
    for row, digest, (_, call, _) in zip(rows, digests, calls):
        tracemalloc.start()
        call()
        row["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        row["sha256"] = digest
    return rows


def one_call_rows(name):
    import liftspectra as ls

    begun = perf_counter()
    irrep_set = ls.compute_irreps(_group(ls, name), SEED)
    took = perf_counter() - begun
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return [
        {
            "label": name,
            "sha256": _catalog_sha256(irrep_set),
            "order": irrep_set.group.order,
            "whole_ms": 1e3 * took,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "rusage": {"minflt": usage.ru_minflt, "stime_ms": 1e3 * usage.ru_stime},
        }
    ]


def _pool(instances, composition, seed):
    catalogs, contexts = instances.setup(composition, seed)
    return instances.make_pool(composition, catalogs, contexts, seed)


def lift_spectrum_rows(instances, composition, passes=SPECTRUM_PASSES):
    from liftspectra import spectral, voltage

    def query(inst):
        # Read through the modules, so that the wrapped names are the ones called.
        base = voltage.build_base_matrix(inst.graph)
        return spectral.lift_spectrum(base, inst.irrep_set, inst.ctx)

    pool = _pool(instances, composition, SPECTRUM_SEED)
    digests = [
        _sha256([(e.value, e.count, e.provenance) for e in query(inst).entries]) for inst in pool
    ]
    calls = [(inst.case.label, functools.partial(query, inst), passes) for inst in pool]
    rows = time_calls(calls, STAGES["lift_spectrum"])
    for row, digest, inst in zip(rows, digests, pool):
        row.update(sha256=digest, kn=inst.case.k * inst.ctx.index_n)
    return rows


def lift_eigenvectors_rows(instances, composition, passes=EIGVECS_PASSES):
    from liftspectra import spectral, voltage

    pool = _pool(instances, composition, EIGVECS_SEED)
    bases = [voltage.build_base_matrix(inst.graph) for inst in pool]

    def query(n):
        return spectral.lift_eigenvectors(bases[n], pool[n].irrep_set, pool[n].ctx)

    digests = []
    for n in range(len(pool)):
        bundle = query(n)
        parts = [bundle.selected_basis]
        for b in bundle.blocks:
            parts += (b.pulled.tobytes(), b.zero.tobytes(), b.eigenvalues.tobytes(), b.picked)
        digests.append(_sha256(*parts))
    calls = [(inst.case.label, functools.partial(query, n), passes) for n, inst in enumerate(pool)]
    rows = time_calls(calls, STAGES["lift_eigenvectors"])
    for row, digest, base, inst in zip(rows, digests, bases, pool):
        row.update(
            sha256=digest,
            kn=base.k * inst.ctx.index_n,
            pulled_columns=base.k * inst.irrep_set.group.order,
        )
    return rows


class _Digest:
    """A stdout that keeps only the length and SHA-256 of what is written."""

    def __init__(self):
        self.size = 0
        self.sha = hashlib.sha256()

    def write(self, text):
        data = text.encode()
        self.size += len(data)
        self.sha.update(data)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def cli_output_rows(documents):
    import tracemalloc

    import liftspectra.cli as cli

    with open(os.devnull, "w", encoding="utf-8") as devnull:

        def run(argv, out):
            sys.stdout, sys.stderr = out, devnull
            try:
                code = cli.main(argv)
                out.flush()
                return code
            finally:
                sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__

        calls, first = [], []
        for label, path in documents["ladder"].items():
            for case, flags in COMMANDS.items():
                argv = [flags[0], path, *flags[1:]]
                digest = _Digest()
                code = run(argv, digest)
                first.append({"exit": code, "bytes": digest.size, "sha256": digest.sha.hexdigest()})
                reps = 3 if label.startswith("S5/mid") else 10
                calls.append((f"{label} {case}", functools.partial(run, argv, devnull), reps))
        rows = time_calls(calls, STAGES["cli_output"])

        # The output step's tracemalloc peak, above what was traced when the
        # last call that makes the result returned.
        marks = []

        def mark(fn):
            def marked(*args, **kwargs):
                result = fn(*args, **kwargs)
                marks.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                return result

            return marked

        table = STAGES["cli_output"]
        undo, _ = rebind(table["load"] + table["produce"], mark)
        try:
            for row, seen, (_, call, _) in zip(rows, first, calls):
                row.update(seen)
                if seen["exit"] == 0:
                    marks.clear()
                    tracemalloc.start()
                    call()
                    peak = tracemalloc.get_traced_memory()[1] - marks[-1]
                    row["output_tracemalloc_peak_mb"] = peak / 2**20
                    tracemalloc.stop()
        finally:
            undo()
    return rows


PROBE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import liftspectra.cli\n"
    "imported = time.perf_counter()\n"
    "import sys\n"
    "sys.path.insert(0, {tools!r})\n"
    "import bench\n"
    "bench.probe(started, imported)\n"
)


def probe(started, imported):
    """Run ``liftspectra.cli.entry()`` with ``cli_process``'s stages wrapped, and print them.

    Stdout and stderr go to ``os.devnull``; the stages go to the real stdout
    as one JSON line, with the clock at the start and the end.
    """
    import liftspectra.cli as cli

    stages = Stages(STAGES["cli_process"])
    stages.install()
    stdout, sys.stdout = sys.stdout, open(os.devnull, "w", encoding="utf-8")
    sys.stderr = sys.stdout
    try:
        cli.entry()
    except SystemExit:
        pass
    sys.stdout.flush()
    ended = perf_counter()
    row = {f"{stage}_ms": 1e3 * spent for stage, spent in stages.spent.items()}
    row["modules"] = sorted(m for m in sys.modules if m.split(".")[0] == "liftspectra")
    row.update(import_ms=1e3 * (imported - started), started=started, ended=ended)
    print(json.dumps(row), file=stdout, flush=True)


def cli_process_rows(documents):
    import subprocess

    rows = []
    for label, argv in documents["calls"].items():
        launched = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "liftspectra.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - launched
        proc.returncode = os.waitstatus_to_exitcode(status)
        launched = perf_counter()
        probed = subprocess.run(
            [sys.executable, "-c", PROBE.format(tools=str(ROOT / "tools")), *argv],
            capture_output=True,
            text=True,
            check=True,
        )
        reaped = perf_counter()
        stages = json.loads(probed.stdout)
        # perf_counter is the system-wide monotonic clock, so the probe's
        # stamps and this process's compare.
        rows.append(
            {
                "label": label,
                "sha256": _sha256(proc.returncode, out),
                "exit": proc.returncode,
                "whole_ms": 1e3 * wall,
                "peak_rss_mb": usage.ru_maxrss / 1024,
                "rusage": {"minflt": usage.ru_minflt, "stime_ms": 1e3 * usage.ru_stime},
                "start_ms": 1e3 * (stages.pop("started") - launched),
                "exit_ms": 1e3 * (reaped - stages.pop("ended")),
                **stages,
            }
        )
    return rows


def documents_listing(tree, work):
    """The cli subjects' documents: ``cli_output``'s ladder and the ``cli_cold`` calls.

    They are made once, on the parent, and both sides read them.  Two are
    generated into ``work`` at pool seed ``CLI_SEED``: the ``cli_cold``
    A5/stab/k=6 document and an S5/mid/k=12 one; the others are the
    parent's ``instances/*.json``.
    """
    instances, workloads = _perfbench(tree)

    def generate(composition, slot, name):
        inst = _pool(instances, composition, CLI_SEED)[slot]
        path = Path(work) / name
        path.write_text(json.dumps(instances.instance_json(inst, CLI_SEED)))
        return str(path)

    cold = [case for case, _ in workloads.CliCold.generated]
    generated = {
        case.label: generate(cold, slot, f"cold{slot}.json") for slot, case in enumerate(cold)
    }
    mid = instances.Case("S5", "mid", 12)
    ladder = {
        "A5/stab/k=6": generated["A5/stab/k=6"],
        mid.label: generate([mid], 0, "s5_mid_12.json"),
    }
    repo = Path(tree) / "instances"
    for path in sorted(repo.glob("*.json")):
        ladder[path.stem] = str(path)
    calls = {
        f"{name} {command}": [command, str(repo / name)]
        for name, command in workloads.CliCold.repo_calls
    }
    for case, commands in workloads.CliCold.generated:
        for command in commands:
            calls[f"{case.label} {command}"] = [command, generated[case.label]]
    return {"ladder": ladder, "calls": calls}


def _child(kind, tree, work, *args):
    """One child's rows, for the side whose copy is ``tree``."""
    documents = Path(work) / "documents.json"
    if kind == "documents":
        return documents_listing(tree, work)
    if kind == "compute_irreps":
        return compute_irreps_rows()
    if kind == "one_call":
        return one_call_rows(*args)
    if kind in ("lift_spectrum", "lift_eigenvectors"):
        instances, workloads = _perfbench(tree)
        workload = workloads.SpectrumSweep if kind == "lift_spectrum" else workloads.EigvecsSweep
        rows = lift_spectrum_rows if kind == "lift_spectrum" else lift_eigenvectors_rows
        return rows(instances, workload.composition)
    if kind == "cli_output":
        return cli_output_rows(json.loads(documents.read_text()))
    if kind == "cli_process":
        return cli_process_rows(json.loads(documents.read_text()))
    raise ValueError(f"unknown child {kind!r}")


def _env(tree):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(tree, work, kind, *args):
    import subprocess

    proc = subprocess.run(
        [sys.executable, __file__, "--child", kind, tree, work, *args],
        env=_env(tree),
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"child {kind} on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _fold(kept, row):
    """Keep the fastest ``*_ms`` and the largest ``*_mb`` of a row seen again."""
    for key, value in row.items():
        if value is not None and key.endswith("_ms"):
            kept[key] = min(kept[key], value)
        elif value is not None and key.endswith("_mb"):
            kept[key] = max(kept[key], value)


def _section(trees, work, child_args, rounds):
    """Run a section's children in alternating rounds; return it as the file holds it."""
    order = list(trees.items())
    runs = {side: [] for side in trees}
    for rnd in range(rounds):
        for side, tree in order if rnd % 2 == 0 else order[::-1]:
            runs[side].append([row for args in child_args for row in _run_child(tree, work, *args)])

    instances = {}
    wholes = {}
    for side, side_runs in runs.items():
        for rows in side_runs:
            for row in rows:
                entry = instances.setdefault(row["label"], {"hashes": set()})
                entry["hashes"].add(row["sha256"])
                wholes.setdefault((row["label"], side), []).append(row["whole_ms"])
                if side in entry:
                    _fold(entry[side], row)
                else:
                    entry[side] = {
                        k: v for k, v in row.items() if k not in ("label", "sha256", "rusage")
                    }
    for (label, side), values in wholes.items():
        instances[label][side]["whole_ms_quartiles"] = _quartiles(values)
    for entry in instances.values():
        entry["same_answer"] = len(entry.pop("hashes")) == 1

    def total(side, key):
        values = [entry[side][key] for entry in instances.values()]
        return None if None in values else sum(values)

    rounds_whole = {
        side: [sum(row["whole_ms"] for row in rows) for rows in side_runs]
        for side, side_runs in runs.items()
    }
    timed = [key for key in next(iter(instances.values()))["parent"] if key.endswith("_ms")]
    return {
        "same_answers": all(entry["same_answer"] for entry in instances.values()),
        "pass_ms": {side: {key: total(side, key) for key in timed} for side in trees},
        "rounds_whole_ms": rounds_whole,
        "rounds_change_faster": sum(
            c < p for p, c in zip(rounds_whole["parent"], rounds_whole["change"])
        ),
        "rusage_per_pass": {
            side: {
                key: [sum(row["rusage"][key] for row in rows) for rows in side_runs]
                for key in ("minflt", "stime_ms")
            }
            for side, side_runs in runs.items()
        },
        "instances": instances,
    }


def _git(*args):
    import subprocess

    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _export(rev, dest):
    """Extract ``git archive REV`` into ``dest``."""
    import io
    import tarfile

    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as archive:
        archive.extractall(dest, filter="data")


def _machine():
    import platform

    import numpy as np

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{config['name']} {config['version']}",
        "blas_threads": 1,
    }


def _quartiles(values):
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _ab_summary(paths):
    """Every saved ``perfbench/run.py`` output's metrics, pooled per workload."""
    runs = {}
    for path in paths:
        lines = Path(path).read_text().splitlines()
        detail = json.loads(lines[-2])["detail"]
        metrics = json.loads(lines[-1])["metrics"]
        seen = runs.setdefault(detail["workload"], {"seeds": set()})
        seen["seeds"].add(detail["seed"])
        for key, metric in metrics.items():
            seen.setdefault(key, []).append(metric["value"])
    summary = {}
    for workload, metrics in runs.items():
        summary[workload] = {"seeds": sorted(metrics.pop("seeds"))}
        for key, values in metrics.items():
            summary[workload][key] = {"runs": len(values), "values": values, **_quartiles(values)}
    return summary


def main(argv=None):
    import argparse
    import tempfile

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("subject", nargs="?", choices=SUBJECTS)
    p.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    p.add_argument("--change", help="git revision of the change (default: the working tree)")
    p.add_argument("--out", help="output file (default BENCH_<subject>.json)")
    p.add_argument("--ab-parent", nargs="*", default=[], metavar="RUN")
    p.add_argument("--ab-change", nargs="*", default=[], metavar="RUN")
    p.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(_child(*args.child)))
        return 0
    if not args.subject:
        p.error("a subject is required")
    change = args.change or _git("stash", "create").decode().strip() or "HEAD"
    revs = {"parent": args.parent, "change": change}
    what, sections = SUBJECTS[args.subject]
    doc = {
        "what": f"{what}; parent against change",
        "machine": _machine(),
        "commits": {side: _git("rev-parse", rev).decode().strip() for side, rev in revs.items()},
        "rounds": {name: rounds for name, (_, rounds) in sections.items()},
    }
    with tempfile.TemporaryDirectory() as work:
        trees = {}
        for side, rev in revs.items():
            trees[side] = str(Path(work) / side)
            _export(rev, trees[side])
        if args.subject.startswith("cli_"):
            listing = _run_child(trees["parent"], work, "documents")
            (Path(work) / "documents.json").write_text(json.dumps(listing))
        for name, (child_args, rounds) in sections.items():
            doc[name] = _section(trees, work, child_args, rounds)
    if args.ab_parent or args.ab_change:
        doc["perfbench_ab"] = {
            "parent": _ab_summary(args.ab_parent),
            "change": _ab_summary(args.ab_change),
        }
    Path(args.out or f"BENCH_{args.subject}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
