"""CLI output steps, or whole CLI processes, on a parent tree and this one, as JSON.

Usage, from the root of a checkout::

    python3 tools/bench_cli_output.py --parent PARENT [--subject output|process] \\
        [--out FILE] [--ab-parent RUN ...] [--ab-change RUN ...]

``PARENT`` is the root of a checkout of the parent commit; the checkout that
holds this script is the change.  ``FILE`` defaults to
``BENCH_cli_<subject>.json``.  Each tree runs in fresh child processes that
import ``liftspectra`` from its ``src/`` with one BLAS thread.

Subject ``output`` (the default) measures the output step.  The ladder is
the ``cli_cold`` A5/stab/k=6 document and an S5/mid/k=12 document, both
generated by ``perfbench/instances.py`` at pool seed ``SEED``, and the six
``instances/*.json``.  On each document a child runs every command through
``liftspectra.cli.main`` with stdout on ``os.devnull``.  The output step
starts when the last call that makes the command's result returns
(``load_instance``, a generator document's ``compute_irreps``, then the
library call, or the last ``verify_against_oracle``) and ends when ``main``
returns.  The child records its fastest time over the reps, and the
``tracemalloc`` peak of one more run, traced from the start of the output
step.  A first, untimed run counts the stdout bytes and hashes them, and the
file records whether both trees wrote the same bytes.  Children run in
``ROUNDS`` alternating rounds, and the fastest time is kept.

Each of the ten ``cli_cold`` calls (``perfbench/workloads.py`` ``CliCold``,
pool seed ``SEED``) is also launched alone, ``ROUNDS`` times per tree, from
a small launcher process, and the file keeps the largest and smallest peak
RSS of each.  A child's ``ru_maxrss`` starts from that of the process that
launched it, so a launcher that holds little leaves the CLI's own peak.

Subject ``process`` measures each of the ten ``cli_cold`` calls as a whole
process.  No child writes bytecode, so an import compiles its sources unless
a tree already holds a ``__pycache__`` (the file records which do).  In
``PROCESS_ROUNDS`` rounds that alternate the trees, every call is launched
as ``python -m liftspectra.cli``, the path a user's process takes, on one
tree and then the other, and its wall time from launch to exit is kept; the
file records in how many rounds the change was faster, and whether every run
of a call wrote the same stdout and exit code on both trees.  In the first
``ROUNDS`` rounds each call also runs once in a probe process (``PROBE``),
which goes through ``liftspectra.cli.entry`` as the CLI does, with stdout on
``os.devnull``.  It gives the median of each stage: the interpreter's start
(launch to the probe's first line), ``import liftspectra.cli``,
``load_instance``, the command handler, and the exit (``entry`` returned to
the process reaped); and it lists the ``liftspectra`` modules the call
loaded.

``--ab-parent`` and ``--ab-change`` take saved outputs of
``perfbench/run.py``, as for ``tools/bench_compute_irreps.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 613
ROUNDS = 3
PROCESS_ROUNDS = 10
# A probe's stages, in the order a call runs them.
STAGES = ("start_ms", "import_ms", "load_ms", "command_ms", "exit_ms")
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
# The calls whose return starts the output step.
PRODUCERS = (
    "load_instance",
    "compute_irreps",
    "lift_spectrum",
    "lift_eigenvectors",
    "build_lift",
    "verify_against_oracle",
    "regular_spectrum_via_characters",
)
LAUNCH = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen([sys.executable, '-m', 'liftspectra.cli', *sys.argv[1:]],"
    " stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)\n"
    "proc.stdout.read()\n"
    "print(os.wait4(proc.pid, 0)[2].ru_maxrss)\n"
)

PROBE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import liftspectra.cli as cli\n"
    "stages = {'started': started, 'import_ms': 1e3 * (time.perf_counter() - started)}\n"
    "import json, os, sys\n"
    "def timed(stage, fn):\n"
    "    def wrapped(*args, **kwargs):\n"
    "        begun = time.perf_counter()\n"
    "        try:\n"
    "            return fn(*args, **kwargs)\n"
    "        finally:\n"
    "            stages[stage] = 1e3 * (time.perf_counter() - begun)\n"
    "    return wrapped\n"
    "cli.load_instance = timed('load_ms', cli.load_instance)\n"
    "for name in [n for n in vars(cli) if n.startswith('cmd_')]:\n"
    "    setattr(cli, name, timed('command_ms', getattr(cli, name)))\n"
    "stdout, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
    "sys.stderr = sys.stdout\n"
    "try:\n"
    "    cli.entry()\n"
    "except SystemExit as exc:\n"
    "    stages['exit'] = exc.code\n"
    "sys.stdout.flush()\n"
    "stages['modules'] = sorted(m for m in sys.modules if m.startswith('liftspectra'))\n"
    "stages['ended'] = time.perf_counter()\n"
    "print(json.dumps(stages), file=stdout, flush=True)\n"
)

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]


class _Digest(io.TextIOBase):
    """A stdout that keeps only the length and SHA-256 of what is written."""

    def __init__(self):
        self.size = 0
        self.sha = hashlib.sha256()

    def write(self, text):
        data = text.encode()
        self.size += len(data)
        self.sha.update(data)
        return len(text)


def _child(path, reps):
    import liftspectra.cli as cli
    from liftspectra import characters, spectral, voltage

    started = [0.0]
    traced = [False]

    def producer(fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if traced[0]:
                tracemalloc.stop()
                tracemalloc.start()
            started[0] = time.perf_counter()
            return result

        return wrapped

    # A command may read a producer from ``cli`` or import it from its home
    # module when it runs, so the wrapper replaces it in both.
    owners = (cli, spectral, characters, voltage)
    for name in PRODUCERS:
        fn = next(getattr(owner, name) for owner in owners if hasattr(owner, name))
        wrapped = producer(fn)
        for owner in owners:
            if getattr(owner, name, None) is fn:
                setattr(owner, name, wrapped)

    def run(argv, stdout):
        sys.stdout = stdout
        try:
            code = cli.main(argv)
            stdout.flush()
            return code, time.perf_counter() - started[0]
        finally:
            sys.stdout = sys.__stdout__

    out = {}
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        for case, flags in COMMANDS.items():
            argv = [flags[0], path, *flags[1:]]
            digest = _Digest()
            code, _ = run(argv, digest)
            row = {"exit": code, "bytes": digest.size, "sha256": digest.sha.hexdigest()}
            if code == 0:
                row["output_ms"] = 1e3 * min(run(argv, devnull)[1] for _ in range(int(reps)))
                traced[0] = True
                tracemalloc.start()
                run(argv, devnull)
                row["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                traced[0] = False
            out[case] = row
    return out


def _alternating(trees):
    """``(side, tree)`` over ``ROUNDS`` rounds, the trees' order switched each round."""
    order = list(trees.items())
    for rnd in range(ROUNDS):
        yield from order if rnd % 2 == 0 else order[::-1]


def _env(tree):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _documents(work: Path):
    """The ladder's documents, by label, and the ``cli_cold`` calls' argument lists."""
    import instances
    from workloads import CliCold

    def generate(composition, slot, name):
        catalogs, contexts = instances.setup(composition, SEED)
        inst = instances.make_pool(composition, catalogs, contexts, SEED)[slot]
        path = work / name
        path.write_text(json.dumps(instances.instance_json(inst, SEED)))
        return str(path)

    cold = [case for case, _ in CliCold.generated]
    generated = {
        case.label: generate(cold, slot, f"cold{slot}.json") for slot, case in enumerate(cold)
    }
    mid = instances.Case("S5", "mid", 12)
    ladder = {
        "A5/stab/k=6": generated["A5/stab/k=6"],
        mid.label: generate([mid], 0, "s5_mid_12.json"),
    }
    for path in sorted((ROOT / "instances").glob("*.json")):
        ladder[path.stem] = str(path)
    calls = {
        f"{name} {command}": [command, str(ROOT / "instances" / name)]
        for name, command in CliCold.repo_calls
    }
    for case, commands in CliCold.generated:
        for command in commands:
            calls[f"{case.label} {command}"] = [command, generated[case.label]]
    return ladder, calls


def _ladder(trees, ladder):
    rows = {label: {} for label in ladder}
    for label, path in ladder.items():
        reps = 3 if label.startswith("S5/mid") else 10
        for side, tree in _alternating(trees):
            proc = subprocess.run(
                [sys.executable, __file__, "--child", path, str(reps)],
                env=_env(tree),
                capture_output=True,
                text=True,
                check=True,
            )
            for case, row in json.loads(proc.stdout.splitlines()[-1]).items():
                seen = rows[label].setdefault(case, {}).setdefault(side, row)
                if "output_ms" in row:
                    seen["output_ms"] = min(seen["output_ms"], row["output_ms"])
    for cases in rows.values():
        for case in cases.values():
            digests = {case[side].pop("sha256") for side in trees}
            sizes = {case[side].pop("bytes") for side in trees}
            case["same_bytes"] = len(digests) == 1 and len(sizes) == 1
            case["bytes"] = sizes.pop()
    return rows


def _peak_rss(trees, calls):
    peaks = {label: {side: [] for side in trees} for label in calls}
    for side, tree in _alternating(trees):
        for label, argv in calls.items():
            proc = subprocess.run(
                [sys.executable, "-c", LAUNCH, *argv],
                env=_env(tree),
                capture_output=True,
                text=True,
                check=True,
            )
            peaks[label][side].append(int(proc.stdout) / 1024)
    return {
        label: {side: {"max_mb": max(v), "min_mb": min(v)} for side, v in sides.items()}
        for label, sides in peaks.items()
    }


def _launch(tree, argv):
    """``(wall ms, exit code, stdout SHA-256)`` of one ``python -m liftspectra.cli`` process."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "liftspectra.cli", *argv],
        env=_env(tree),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    code = proc.wait()
    return 1e3 * (time.perf_counter() - started), code, hashlib.sha256(out).hexdigest()


def _spread(values):
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def _probe(tree, argv):
    """One call's stages in ms, from a probe process that runs ``entry()``."""
    launched = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=_env(tree),
        capture_output=True,
        text=True,
        check=True,
    )
    reaped = time.perf_counter()
    probe = json.loads(proc.stdout)
    # perf_counter is the system-wide monotonic clock, so the probe's stamps
    # and this process's compare.
    probe["start_ms"] = 1e3 * (probe.pop("started") - launched)
    probe["exit_ms"] = 1e3 * (reaped - probe.pop("ended"))
    return probe


def _processes(trees, calls):
    runs = {label: {side: [] for side in trees} for label in calls}
    probes = {label: {side: [] for side in trees} for label in calls}
    for rnd in range(PROCESS_ROUNDS):
        for label, argv in calls.items():
            for side, tree in list(trees.items())[:: 1 if rnd % 2 == 0 else -1]:
                runs[label][side].append(_launch(tree, argv))
                if rnd < ROUNDS:
                    probes[label][side].append(_probe(tree, argv))
    rows = {}
    for label in calls:
        row = rows[label] = {}
        outcomes = {(code, sha) for side in trees for _, code, sha in runs[label][side]}
        row["same_stdout_and_exit"] = len(outcomes) == 1
        pairs = zip(*(runs[label][side] for side in trees))
        row["rounds_change_faster"] = sum(change[0] < parent[0] for parent, change in pairs)
        for side in trees:
            seen = probes[label][side]
            row[side] = {
                "exit": runs[label][side][0][1],
                "wall_ms": {
                    **_spread([wall for wall, _, _ in runs[label][side]]),
                    "runs": [wall for wall, _, _ in runs[label][side]],
                },
                **{
                    key: statistics.median(probe.get(key, 0.0) for probe in seen)
                    for key in STAGES
                },
                "modules": seen[0]["modules"],
            }
    return {
        "bytecode_cached": {
            side: (Path(tree) / "src" / "liftspectra" / "__pycache__").is_dir()
            for side, tree in trees.items()
        },
        "import_cli_ms": {
            side: _spread([p["import_ms"] for row in probes.values() for p in row[side]])
            for side in trees
        },
        "pass_ms": {
            side: {
                stat: sum(rows[label][side]["wall_ms"][stat] for label in calls)
                for stat in ("min", "median")
            }
            for side in trees
        },
        "calls": rows,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="root of a checkout of the parent commit")
    p.add_argument("--subject", choices=("output", "process"), default="output")
    p.add_argument("--out", help="output file (default BENCH_cli_<subject>.json)")
    p.add_argument("--ab-parent", nargs="*", default=[], metavar="RUN")
    p.add_argument("--ab-change", nargs="*", default=[], metavar="RUN")
    p.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(_child(*args.child)))
        return 0
    if not args.parent:
        p.error("--parent is required")
    sys.path.insert(0, str(ROOT / "src"))
    from bench_compute_irreps import _ab_summary, _machine

    trees = {"parent": args.parent, "change": str(ROOT)}
    with tempfile.TemporaryDirectory() as work:
        ladder, calls = _documents(Path(work))
        if args.subject == "process":
            doc = {
                "what": "whole python -m liftspectra.cli processes of the cli_cold calls, "
                "parent against change",
                "machine": _machine(),
                "pool_seed": SEED,
                "timing": f"wall clock from launch to exit of each call, {PROCESS_ROUNDS} "
                f"alternating rounds; stages in-process, median of {ROUNDS} probe processes",
                **_processes(trees, calls),
            }
        else:
            doc = {
                "what": "output step of every CLI command, and the peak RSS of each "
                "cli_cold call, parent against change",
                "machine": _machine(),
                "pool_seed": SEED,
                "timing": f"in-process wall clock of the output step, fastest of the reps "
                f"in each of {ROUNDS} alternating children; tracemalloc peak of the "
                "output step",
                "ladder": _ladder(trees, ladder),
                "cli_cold_peak_rss": _peak_rss(trees, calls),
            }
    if args.ab_parent or args.ab_change:
        doc["perfbench_ab"] = {
            "parent": _ab_summary(args.ab_parent),
            "change": _ab_summary(args.ab_change),
        }
    Path(args.out or f"BENCH_cli_{args.subject}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
