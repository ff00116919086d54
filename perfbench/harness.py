"""Run one workload: set-up, timed passes, answer checks, metrics."""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import instances
from tracing import Recorder, install
from workloads import LIBRARY, NAMES, CliCall, CliCold, EigvecsSweep

import liftspectra as ls

# A run times at least SETUP_REPS set-ups and at least SETUP_SECONDS of
# them, so that the cheap set-ups (a few hundred milliseconds) still give a
# steady median.
SETUP_REPS = 3
SETUP_SECONDS = 3.0


def setup_count(first: float) -> int:
    """Set-ups a run times in all, given how long the first one took."""
    return max(SETUP_REPS, math.ceil(SETUP_SECONDS / max(first, 1e-9)))


RUN_PY = Path(__file__).resolve().parent / "run.py"
ROOT = RUN_PY.parent.parent

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("ok_frac", "1"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics read off the spans: name -> (statistic, span name).
# "_s" values are busy seconds per pass over the instance mix (per set-up
# for set-up work, per instance mix for reference work); "self" subtracts
# the time covered by child spans.
SPAN_METRICS = {
    "cli.import_s": ("incl", "cli.import"),
    "cli.load_instance_s": ("incl", "cli.load_instance"),
    "cli.command_s": ("incl", "cli.command"),
    "permgroup.generate_group_s": ("incl", "permgroup.generate_group"),
    "permgroup.right_cosets_s": ("incl", "permgroup.right_cosets"),
    "permgroup.conjugacy_classes_s": ("incl", "permgroup.conjugacy_classes"),
    "irreps.compute_irreps_s": ("incl", "irreps.compute_irreps"),
    "irreps.builtin_irreps_s": ("incl", "irreps.builtin_irreps"),
    "irreps.subgroup_sum_s": ("incl", "irreps.subgroup_sum"),
    "irreps.subgroup_sum_calls": ("calls", "irreps.subgroup_sum"),
    "voltage.build_base_matrix_s": ("incl", "voltage.build_base_matrix"),
    "voltage.base_matmul_s": ("incl", "voltage.base_matmul"),
    "voltage.ga_product_terms": ("count", "voltage.ga_mul"),
    "voltage.build_lift_s": ("incl", "voltage.build_lift"),
    "spectral.irrep_image_s": ("incl", "spectral.irrep_image"),
    "spectral.irrep_image_calls": ("calls", "spectral.irrep_image"),
    "spectral.eig_dense_s": ("incl", "spectral.eig_dense"),
    "spectral.lift_spectrum_self_s": ("self", "spectral.lift_spectrum"),
    "spectral.lift_eigenvectors_self_s": ("self", "spectral.lift_eigenvectors"),
    "spectral.coset_sum_matrix_s": ("incl", "spectral.build_coset_sum_matrix"),
    "spectral.eigenvector_blocks_s": ("incl", "spectral.build_eigenvector_blocks"),
    "characters.regular_spectrum_self_s": (
        "self",
        "characters.regular_spectrum_via_characters",
    ),
    "characters.power_sums_to_roots_s": ("incl", "characters.power_sums_to_roots"),
    "check.oracle_eig_s": ("incl", "bench.reference"),
}

# Every per-layer metric in print order; the ones not in SPAN_METRICS are
# computed from the instance mix or the run itself.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.load_instance_s", "s"),
    ("cli.command_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("permgroup.generate_group_s", "s"),
    ("permgroup.right_cosets_s", "s"),
    ("permgroup.conjugacy_classes_s", "s"),
    ("permgroup.table_bytes", "B_computed"),
    ("irreps.compute_irreps_s", "s"),
    ("irreps.builtin_irreps_s", "s"),
    ("irreps.catalog_bytes", "B_computed"),
    ("irreps.subgroup_sum_s", "s"),
    ("irreps.subgroup_sum_calls", "count"),
    ("voltage.build_base_matrix_s", "s"),
    ("voltage.base_matmul_s", "s"),
    ("voltage.ga_product_terms", "count_computed"),
    ("voltage.build_lift_s", "s"),
    ("spectral.irrep_image_s", "s"),
    ("spectral.irrep_image_calls", "count"),
    ("spectral.eig_dense_s", "s"),
    ("spectral.eig_flops", "flop_computed"),
    ("spectral.lift_spectrum_self_s", "s"),
    ("spectral.lift_eigenvectors_self_s", "s"),
    ("spectral.coset_sum_matrix_s", "s"),
    ("spectral.eigenvector_blocks_s", "s"),
    ("spectral.pulled_bytes", "B_computed"),
    ("spectral.useful_column_ratio", "1_computed"),
    ("characters.regular_spectrum_self_s", "s"),
    ("characters.power_sums_to_roots_s", "s"),
    ("characters.newton_degree_max", "count_computed"),
    ("characters.refused", "count"),
    ("characters.wrong", "count"),
    ("check.oracle_eig_s", "s"),
    ("spectral.blockwise_over_oracle", "1"),
    ("trace.overhead_frac", "1"),
    ("trace.accounted_frac", "1"),
)

def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Tally:
    """Latencies and answer keys of the counted (post-warm-up) queries.

    Verdicts are settled at the end of the run, from the :class:`Judge`.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_slot: dict[int, list[float]] = defaultdict(list)
        self.pass_seconds = {False: [], True: []}
        self.keys: list[tuple] = []
        self.refused = 0
        self.wrong = 0
        self.unexpected = 0
        self.char_refused = 0
        self.char_wrong = 0

    def add(self, slot: int, seconds: float, key, character_route: bool) -> None:
        self.latencies.append(seconds)
        self.by_slot[slot].append(seconds)
        self.keys.append((key, character_route))

    def settle(self, verdicts: dict) -> None:
        for key, character_route in self.keys:
            verdict = verdicts[key]
            if verdict == "ok":
                continue
            refused = verdict == "refused"
            self.refused += refused
            self.wrong += not refused
            self.unexpected += verdict != "wrong_known"
            self.char_refused += character_route and refused
            self.char_wrong += character_route and not refused

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    def typical(self) -> np.ndarray:
        """Each instance's fastest repeat in this run, one value per instance.

        Host load on the shared machine only ever adds time, and it comes in
        bursts of seconds to minutes: a pure-Python loop's median time per
        five-second window moved by a third while its minimum moved by a
        tenth.  The minimum over an instance's repeats is therefore the
        steadiest estimate of what the program itself costs; the median of
        the repeats tracked the host's load from run to run.
        """
        return np.array([min(v) for v in self.by_slot.values()])


def repeat_passes(run_pass, seconds: float, traced: bool, tally: Tally, setup, more: int) -> None:
    """Whole passes until the timed query time reaches ``seconds``.

    With tracing, passes alternate untraced and traced, so the tracing
    overhead is measured under the same conditions.  The ``more`` set-ups
    still to time run between passes, spread evenly over the timed phase:
    the host's load comes in phases of seconds to minutes, and set-ups timed
    back to back at the start of a run sampled only one of them.
    """
    kinds = (False, True) if traced else (False,)
    due = [seconds * (i + 1) / (more + 1) for i in range(more)]
    total = 0.0
    done = 0
    while total < seconds or done < len(kinds):
        kind = kinds[done % len(kinds)]
        spent = run_pass(kind)
        tally.pass_seconds[kind].append(spent)
        total += spent
        done += 1
        while due and total >= due[0]:
            due.pop(0)
            setup()
    for _ in due:
        setup()


def back_to_back(seconds: list[float]) -> list[int]:
    """Repeats per pass: instances cheaper than the mix's mean query run
    back to back up to that mean, so each pass at most doubles in length.

    An instance's fastest repeat is steady only when it has enough samples
    to meet a quiet moment of the host.  With one run per pass, a 20 ms
    instance next to a 1 s one got 15 samples in a run, and its fastest
    still moved by a third between runs.
    """
    mean = statistics.fmean(seconds)
    return [max(1, int(mean / max(s, 1e-9))) for s in seconds]


def aggregate(span_lists, divisors) -> tuple[dict, float, float]:
    """Per-name busy, self time, calls and counts, divided per phase unit.

    ``span_lists`` holds ``(spans, phase)`` pairs; ``phase`` names the phase
    root that the list's own roots belong to (child process spans), or is
    ``None`` when the roots are phase roots themselves.  Returns the table,
    the query time per pass and the part of it covered by layer spans.
    """
    table = defaultdict(lambda: {"incl": 0.0, "self": 0.0, "calls": 0.0, "count": 0.0})
    query_s = covered_s = 0.0
    for spans, attach in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        phase = [None] * len(spans)
        for i, (name, start, end, parent, count) in enumerate(spans):
            phase[i] = phase[parent] if parent >= 0 else (attach or name)
            div = divisors.get(phase[i])
            if not div:
                continue
            span = end - start
            row = table[name]
            row["incl"] += span / div
            row["self"] += (span - child[i]) / div
            row["calls"] += 1 / div
            row["count"] += count / div
            if name == "bench.query":
                query_s += span / div
            if phase[i] == "bench.query" and (
                (parent < 0 and attach) or (parent >= 0 and spans[parent][0] == "bench.query")
            ):
                covered_s += span / div
    return table, query_s, covered_s


def percentile_detail(tally: Tally, pct: int) -> dict:
    tail = float(np.percentile(tally.typical(), pct))
    lat = np.asarray(tally.latencies)
    return {
        "pct": pct,
        "samples": int(lat.size),
        "instances": len(tally.by_slot),
        "beyond": int(np.sum(lat > tail)),
    }


def end_to_end(setup_times, tally: Tally, pct: int, peak_kib: int) -> dict:
    typical = tally.typical()
    n = len(tally.latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": float(np.percentile(typical, 50)) * 1e3,
        "query_tail_ms": float(np.percentile(typical, pct)) * 1e3,
        # Every instance runs equally often, so this is the rate one
        # closed-loop caller sustains over the mix at each instance's
        # typical time.
        "throughput_qps": typical.size / float(typical.sum()),
        "ok_frac": (n - tally.failed) / n,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def per_layer(table, query_s, covered_s, tally: Tally, computed: dict) -> dict:
    values = dict(computed)
    for name, (stat, span) in SPAN_METRICS.items():
        values[name] = table[span][stat] if span in table else 0.0
    traced = statistics.fmean(tally.pass_seconds[True])
    untraced = statistics.fmean(tally.pass_seconds[False])
    values["trace.overhead_frac"] = traced / untraced - 1.0
    values["trace.accounted_frac"] = covered_s / query_s if query_s else 0.0
    return values


def result_json(values: dict, units, tally: Tally) -> dict:
    return {
        "correct": tally.unexpected == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units},
    }


def run(args, out_dir: Path):
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        if args.workload == CliCold.name:
            return run_cli(args, work, out_dir)
        return run_library(LIBRARY[args.workload], args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- library workloads -------------------------------------------------------


def write_references(args) -> None:
    """Reference process: the dense oracle for every instance of the mix.

    It runs apart from the workload process so that the oracle's dense
    matrices do not show up in the workload's peak resident memory.
    """
    wl = LIBRARY[args.workload]
    comp = wl.tiny if args.tiny else wl.composition
    catalogs, contexts = instances.setup(comp, args.seed)
    pool = instances.make_pool(comp, catalogs, contexts, args.seed)
    rec = Recorder() if args.spans else None
    if rec is not None:
        install(rec)
    arrays = {}
    seconds = []
    for slot, inst in enumerate(pool):
        root = rec.open("bench.reference") if rec else None
        start = perf_counter()
        values = wl.reference(inst)
        seconds.append(perf_counter() - start)
        if rec:
            rec.close(root)
        if values is not None:
            arrays[f"v{slot}"] = values
    np.savez(args.references, seconds=np.array(seconds), **arrays)
    if rec:
        rec.dump(args.spans)


class Judge:
    """Keeps each distinct answer per instance on disk and checks it later.

    Checking waits until the workload's peak memory has been read: the
    eigenvector check builds the dense lift and a rank-revealing SVD, which
    would otherwise count toward the program's own peak.  Answers are keyed
    by instance and exact answer bits, so each distinct answer is checked
    once; a refusal is keyed ``(slot, None)``.
    """

    def __init__(self, wl, pool, refs, store: Path) -> None:
        self.wl = wl
        self.pool = pool
        self.refs = refs
        self.store = store
        self.answers: dict[tuple, Path | None] = {}

    def record(self, slot: int, result) -> tuple:
        if result is None:
            key = (slot, None)
            self.answers[key] = None
            return key
        answer = self.wl.answer(result)
        parts = answer if isinstance(answer, tuple) else (answer,)
        key = (slot, checks.digest(*parts))
        if key not in self.answers:
            path = self.store / f"answer-{len(self.answers)}.pickle"
            with open(path, "wb") as handle:
                # Protocol 5 writes array buffers in place, without a copy.
                pickle.dump(answer, handle, protocol=5)
            self.answers[key] = path
        return key

    def verdicts(self) -> dict:
        """``ok``, ``refused``, ``wrong`` or ``wrong_known`` per key.

        ``wrong_known`` is the documented character-route defect; every
        other failure sets the run's ``correct`` to false.
        """
        out = {}
        for key, path in self.answers.items():
            inst = self.pool[key[0]]
            if path is None:
                out[key] = "refused"
                continue
            with open(path, "rb") as handle:
                answer = pickle.load(handle)
            if self.wl.is_right(inst, answer, self.refs[key[0]]):
                out[key] = "ok"
            else:
                out[key] = "wrong_known" if self.wl.known_wrong(inst) else "wrong"
        return out


def _query(wl, inst):
    try:
        return wl.query(inst)
    except ls.NumericalError:
        return None


def catalog_counts(catalogs) -> dict:
    """Group table and irrep catalog bytes (computed), one entry per build."""
    return {
        "permgroup.table_bytes": sum(8 * c.group.order**2 for c in catalogs),
        "irreps.catalog_bytes": sum(16 * c.group.order * r.dim**2 for c in catalogs for r in c),
    }


def library_counts(wl, catalogs, pool) -> dict:
    """Operation and byte counts computed from the instance mix (exact)."""
    out = {name: 0.0 for name, unit in PER_LAYER if unit.endswith("_computed")}
    out.update(catalog_counts(catalogs.values()))
    out["spectral.eig_flops"] = sum(wl.eig_flops(inst) for inst in pool)
    if isinstance(wl, EigvecsSweep):
        kn = sum(inst.case.k * inst.ctx.index_n for inst in pool)
        kg = sum(inst.case.k * inst.irrep_set.group.order for inst in pool)
        out["spectral.pulled_bytes"] = sum(
            16 * inst.case.k * inst.ctx.index_n * inst.case.k * inst.irrep_set.group.order
            for inst in pool
        )
        out["spectral.useful_column_ratio"] = kn / kg
    return out


def run_library(wl, args, work: Path, out_dir: Path):
    comp = wl.tiny if args.tiny else wl.composition
    traced = bool(args.trace)
    ref_file = work / "references.npz"
    ref_spans = work / "reference-spans.json"
    cmd = [sys.executable, str(RUN_PY), "--workload", wl.name, "--seed", str(args.seed)]
    cmd += ["--references", str(ref_file)] + (["--tiny"] if args.tiny else [])
    cmd += ["--spans", str(ref_spans)] if traced else []
    subprocess.run(cmd, check=True)
    with np.load(ref_file) as z:
        oracle_s = float(z["seconds"].sum())
        refs = [z[f"v{i}"] if f"v{i}" in z else None for i in range(len(comp))]

    rec = Recorder()
    setup_times: list[float] = []

    def timed_setup():
        undo = install(rec) if traced else None
        root = rec.open("bench.setup")
        start = perf_counter()
        try:
            return instances.setup(comp, args.seed)
        finally:
            setup_times.append(perf_counter() - start)
            rec.close(root)
            if undo:
                undo()

    catalogs, contexts = timed_setup()
    pool = instances.make_pool(comp, catalogs, contexts, args.seed)
    judge = Judge(wl, pool, refs, work)

    warm = []
    for slot, inst in enumerate(pool):  # warm-up; its answers are checked too
        start = perf_counter()
        result = _query(wl, inst)
        warm.append(perf_counter() - start)
        judge.record(slot, result)
    # Traced runs keep one query per instance and pass, so that per-layer
    # busy times stay per pass over the mix.
    reps = [1] * len(pool) if traced else back_to_back(warm)
    # Move everything alive now (set-up, instances, references, the harness)
    # out of the collector's reach: otherwise collections triggered by the
    # queries rescan the benchmark's own objects, which doubled the per-query
    # spread of the pure-Python character route when it ran in-process.
    gc.collect()
    gc.freeze()

    tally = Tally()

    def run_pass(with_trace: bool) -> float:
        undo = install(rec) if with_trace else None
        spent = 0.0
        for slot, inst in enumerate(pool):
            for _ in range(reps[slot]):
                root = rec.open("bench.query") if with_trace else None
                start = perf_counter()
                result = _query(wl, inst)
                seconds = perf_counter() - start
                if with_trace:
                    rec.close(root)
                spent += seconds
                tally.add(slot, seconds, judge.record(slot, result), False)
        if undo:
            undo()
        return spent

    more = setup_count(setup_times[0]) - 1
    repeat_passes(run_pass, args.seconds, traced, tally, timed_setup, more)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally.settle(judge.verdicts())
    detail = base_detail(wl.name, args, [c.label for c in comp], tally, setup_times)
    detail["tail"] = percentile_detail(tally, wl.tail_pct)
    detail["repeats_per_pass"] = reps
    if not traced:
        values = end_to_end(setup_times, tally, wl.tail_pct, peak_kib)
        return detail, result_json(values, END_TO_END, tally)

    reference_spans = json.loads(ref_spans.read_text())["spans"]
    passes = len(tally.pass_seconds[True])
    divisors = {"bench.setup": len(setup_times), "bench.query": passes, "bench.reference": 1}
    table, query_s, covered_s = aggregate(
        [(rec.spans, None), (reference_spans, None)], divisors
    )
    computed = library_counts(wl, catalogs, pool)
    computed["cli.stdout_bytes"] = 0.0
    n_passes = len(tally.pass_seconds[False]) + passes
    computed["characters.refused"] = tally.char_refused / n_passes
    computed["characters.wrong"] = tally.char_wrong / n_passes
    computed["spectral.blockwise_over_oracle"] = (
        statistics.fmean(tally.pass_seconds[False]) / oracle_s
    )
    values = per_layer(table, query_s, covered_s, tally, computed)
    write_trace(out_dir, args, {"spans": rec.spans, "reference_spans": reference_spans})
    return detail, result_json(values, PER_LAYER, tally)


def base_detail(name, args, comp_labels, tally: Tally, setup_times) -> dict:
    n = len(tally.latencies)
    return {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "setup_reps": len(setup_times),
        "passes": {
            "untraced": len(tally.pass_seconds[False]),
            "traced": len(tally.pass_seconds[True]),
        },
        "samples": n,
        "refused": tally.refused,
        "wrong": tally.wrong,
        "failed_outside_known_defects": tally.unexpected,
        "failed_frac": tally.failed / n,
        "mix": comp_labels,
        "typical_ms": [round(t * 1e3, 4) for t in tally.typical()],
    }


def write_trace(out_dir: Path, args, payload: dict) -> None:
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))


# -- cli_cold ----------------------------------------------------------------


def cli_calls(wl: CliCold, args, work: Path):
    """The fixed call list; generated documents are written before timing."""
    root = Path(wl.root)
    calls = []
    for name, command in wl.tiny_repo_calls if args.tiny else wl.repo_calls:
        path = root / "instances" / name
        inst, _ = instances.instance_from_json(path)
        regular = len(inst.ctx.subgroup_elements) == 1
        expect = 3 if command == "characters" and not regular else 0
        calls.append(CliCall(command, str(path), inst, expect))
    generated = wl.tiny_generated if args.tiny else wl.generated
    comp = [case for case, _ in generated]
    catalogs, contexts = instances.setup(comp, args.seed)
    pool = instances.make_pool(comp, catalogs, contexts, args.seed)
    for slot, ((case, commands), inst) in enumerate(zip(generated, pool)):
        path = work / f"gen{slot}-{case.group}-{case.subgroup}-k{case.k}.json"
        path.write_text(json.dumps(instances.instance_json(inst, args.seed)))
        calls.extend(CliCall(command, str(path), inst, 0) for command in commands)
    return calls


def run_cli(args, work: Path, out_dir: Path):
    wl = CliCold(ROOT, ROOT / "src")
    traced = bool(args.trace)
    setup_times: list[float] = []

    def timed_setup() -> None:
        start = perf_counter()
        wl.import_only()
        setup_times.append(perf_counter() - start)

    timed_setup()

    calls = cli_calls(wl, args, work)
    rec = Recorder()
    undo = install(rec) if traced else None
    refs = {}
    for call in calls:
        if call.path not in refs:
            root = rec.open("bench.reference")
            refs[call.path] = wl.reference(call)
            rec.close(root)
    if undo:
        undo()

    tally = Tally()
    judge = Judge(wl, calls, [refs[call.path] for call in calls], work)
    child_spans = []
    peak = [0]
    stdout_bytes = [0]

    def run_pass(with_trace: bool) -> float:
        spent = 0.0
        for i, call in enumerate(calls):
            spans_file = work / f"spans-{len(child_spans)}.json" if with_trace else None
            root = rec.open("bench.query") if with_trace else None
            start = perf_counter()
            code, out, rss = wl.launch(call, spans_file)
            seconds = perf_counter() - start
            if with_trace:
                rec.close(root)
                spans = json.loads(spans_file.read_text())["spans"]
                exit_from = max(span[2] for span in spans)
                spans.append(["cli.interpreter_exit", exit_from, rec.spans[root][2], -1, 0])
                child_spans.append(spans)
            spent += seconds
            peak[0] = max(peak[0], rss)
            stdout_bytes[0] += len(out)
            key = judge.record(i, out if code == call.expect_exit else None)
            tally.add(i, seconds, key, call.command == "characters")
        return spent

    more = setup_count(setup_times[0]) - 1
    repeat_passes(run_pass, args.seconds, traced, tally, timed_setup, more)
    tally.settle(judge.verdicts())
    labels = [f"{c.command} {Path(c.path).name}" for c in calls]
    detail = base_detail(wl.name, args, labels, tally, setup_times)
    detail["tail"] = percentile_detail(tally, wl.tail_pct)
    if not traced:
        values = end_to_end(setup_times, tally, wl.tail_pct, peak[0])
        return detail, result_json(values, END_TO_END, tally)

    passes = len(tally.pass_seconds[True])
    n_passes = passes + len(tally.pass_seconds[False])
    divisors = {"bench.query": passes, "bench.reference": 1}
    table, query_s, covered_s = aggregate(
        [(rec.spans, None)] + [(spans, "bench.query") for spans in child_spans], divisors
    )
    computed = {name: 0.0 for name, unit in PER_LAYER if unit.endswith("_computed")}
    # Every CLI process builds its own group and catalog.
    computed.update(catalog_counts([c.instance.irrep_set for c in calls]))
    computed["cli.stdout_bytes"] = stdout_bytes[0] / n_passes
    computed["characters.refused"] = tally.char_refused / n_passes
    computed["characters.wrong"] = tally.char_wrong / n_passes
    computed["characters.newton_degree_max"] = max(
        (
            r.dim * c.instance.graph.k
            for c in calls
            if c.command == "characters" and c.expect_exit == 0
            for r in c.instance.irrep_set
            if r.dim > 1
        ),
        default=0,
    )
    computed["spectral.blockwise_over_oracle"] = 0.0
    values = per_layer(table, query_s, covered_s, tally, computed)
    write_trace(out_dir, args, {"spans": rec.spans, "child_spans": child_spans})
    return detail, result_json(values, PER_LAYER, tally)
