"""Stage timings of ``compute_irreps`` on a parent tree and this one, as JSON.

Usage, from the root of a checkout::

    python3 tools/bench_compute_irreps.py --parent PARENT --out BENCH_compute_irreps.json \\
        [--ab-parent RUN ...] [--ab-change RUN ...]

``PARENT`` is the root of a checkout of the parent commit; the checkout that
holds this script is the change.  Each tree is measured in fresh child
processes that import ``liftspectra`` from its ``src/`` with one BLAS thread.
On each group of the ladder a child times:

- ``compute_irreps`` as a whole: the fastest of ``reps`` calls;
- each stage of ``_decompose_regular`` (and the sort and validation after
  it), from the staged copy of its body below, the fastest of ``reps``.
  Each group runs in ``rounds`` fresh children per tree, alternating which
  tree goes first, and the fastest over the rounds is kept.
  The shift, the ``sub`` einsum and the invariance residual take the tree's
  form: one pass over every group element ``g`` on the parent, slices of 32
  elements on the change.  Before timing, the child checks that the staged
  copy gives the same bytes as the tree's own ``_decompose_regular``;
- the ``tracemalloc`` peak of one more ``compute_irreps`` call.

Two more children per tree close S6, or S5 x C8, and call ``compute_irreps``
once; each reports the wall time of both steps and its peak RSS.  They run
in ``ONE_CALL_ROUNDS`` alternating rounds, and the file keeps the fastest
wall time and the largest peak RSS of each.  ``--ab-parent`` and
``--ab-change`` take saved outputs of ``perfbench/run.py``; the file gets
the median and quartiles of every end-to-end metric per workload and side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
# name: (degree, generators, reps, rounds)
LADDER = {
    "S4": (4, ["(1 2 3 4)", "(1 2)"], 200, 4),
    "A5": (5, ["(1 2 3 4 5)", "(1 2 3)"], 100, 4),
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"], 40, 4),
    "S5xC2": (7, ["(1 2)", "(1 2 3 4 5)", "(6 7)"], 5, 4),
    "S6": (6, ["(1 2)", "(1 2 3 4 5 6)"], 1, 1),
}
ONE_CALL = {
    "S6": (6, ["(1 2)", "(1 2 3 4 5 6)"]),
    "S5xC8": (13, ["(1 2)", "(1 2 3 4 5)", "(6 7 8 9 10 11 12 13)"]),
}
ONE_CALL_ROUNDS = 2
STAGES = (
    "seed_matrix",
    "averaging",
    "eigh",
    "class_characters",
    "shifted_gather",
    "sub_einsum",
    "invariance_residual",
    "sort",
    "validate",
)


def _sub_whole(np, basis, table, lap):
    shifted = basis[table.T]
    lap("shifted_gather")
    sub = np.einsum("ai,gab->gib", basis.conj(), shifted)
    lap("sub_einsum")
    lifted = basis @ sub
    lifted -= shifted
    residual = np.max(np.abs(lifted))
    lap("invariance_residual")
    return sub, residual


def _sub_sliced(np, basis, table, lap):
    n, d = basis.shape
    dual = basis.conj()
    sub = np.empty((n, d, d), dtype=complex)
    peaks = []
    lap("sub_einsum")
    for g0 in range(0, n, 32):
        shifted = basis[table.T[g0 : g0 + 32]]
        lap("shifted_gather")
        part = sub[g0 : g0 + 32]
        np.einsum("ai,gab->gib", dual, shifted, out=part)
        lap("sub_einsum")
        lifted = basis @ part
        lifted -= shifted
        peaks.append(np.max(np.abs(lifted)))
        lap("invariance_residual")
    residual = np.max(peaks)
    lap("invariance_residual")
    return sub, residual


FORMS = {"parent": _sub_whole, "change": _sub_sliced}


def _staged(np, irreps, group, classes, rng, form):
    """``_decompose_regular``, sort and validation, with a clock per stage."""
    build = FORMS[form]
    times = dict.fromkeys(STAGES, 0.0)
    mark = time.perf_counter()

    def lap(stage):
        nonlocal mark
        now = time.perf_counter()
        times[stage] += now - mark
        mark = now

    n = group.order
    table = group.mult_table
    seed_matrix = irreps._random_hermitian(rng, n)
    lap("seed_matrix")
    averaged = np.zeros((n, n), dtype=complex)
    rows = np.empty((32, n), dtype=complex)
    block = np.empty((32, n), dtype=complex)
    for lo in range(0, n, 32):
        acc = averaged[lo : lo + 32]
        hi = lo + len(acc)
        picked, term = rows[: len(acc)], block[: len(acc)]
        for g in range(n):
            col = table[:, g]
            np.take(seed_matrix, col[lo:hi], axis=0, out=picked, mode="wrap")
            np.take(picked, col, axis=1, out=term, mode="wrap")
            acc += term
    averaged /= n
    lap("averaging")
    eigenvalues, eigenvectors = np.linalg.eigh(averaged)
    lap("eigh")
    spans = irreps._cluster_spans(eigenvalues, 1e-10 * n)
    class_cols = table[:, [c.representative for c in classes]].T
    sizes = np.array([c.size for c in classes])
    found = []
    kept = np.zeros((0, len(classes)), dtype=complex)
    for lo, hi in spans:
        basis = eigenvectors[:, lo:hi]
        class_char = np.einsum("ai,cai->c", basis.conj(), basis[class_cols])
        norm = float(sizes @ np.abs(class_char) ** 2) / n
        if abs(norm - 1) > irreps.CHARACTER_TOL:
            raise RuntimeError("reducible cluster on attempt 0; pick another seed")
        if np.any(np.max(np.abs(kept - class_char), axis=1) <= irreps.CHARACTER_TOL):
            lap("class_characters")
            continue
        kept = np.vstack([kept, class_char])
        lap("class_characters")
        sub, residual = build(np, basis, table, lap)
        if not residual <= irreps.DEFAULT_VERIFY_TOL:
            raise RuntimeError("non-invariant cluster on attempt 0; pick another seed")
        found.append(sub)
    irrep_set = irreps.IrrepSet(group=group, irreps=irreps._sort_irreps(group, found, classes))
    lap("sort")
    irreps._validate_irrep_set(irrep_set)
    lap("validate")
    return found, times


def _group(liftspectra, degree, gens):
    return liftspectra.generate_group([liftspectra.parse_permutation(g, degree) for g in gens])


def _child_ladder(form, name):
    import numpy as np

    import liftspectra
    import liftspectra.irreps as irreps

    def attempt_rng():
        return np.random.default_rng(np.random.SeedSequence(entropy=SEED, spawn_key=(0,)))

    degree, gens, reps, _ = LADDER[name]
    group = _group(liftspectra, degree, gens)
    classes = liftspectra.conjugacy_classes(group)
    staged, _ = _staged(np, irreps, group, classes, attempt_rng(), form)
    own = irreps._decompose_regular(group, classes, attempt_rng())
    if [m.tobytes() for m in staged] != [m.tobytes() for m in own]:
        raise RuntimeError(f"{name}: the staged copy does not match _decompose_regular")
    whole = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        liftspectra.compute_irreps(group, SEED)
        whole = min(whole, time.perf_counter() - start)
    stages = dict.fromkeys(STAGES, float("inf"))
    for _ in range(reps):
        _, times = _staged(np, irreps, group, classes, attempt_rng(), form)
        stages = {k: min(stages[k], times[k]) for k in STAGES}
    tracemalloc.start()
    liftspectra.compute_irreps(group, SEED)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "order": group.order,
        "compute_irreps_s": whole,
        "stages_s": stages,
        "tracemalloc_peak_bytes": peak,
    }


def _ladder(trees):
    out = {side: {} for side in trees}
    for name, (_, _, reps, rounds) in LADDER.items():
        for r in range(rounds):
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                got = _run_child(trees[side], "ladder", side, name)
                kept = out[side].setdefault(name, dict(got, reps=reps, rounds=rounds))
                kept["compute_irreps_s"] = min(kept["compute_irreps_s"], got["compute_irreps_s"])
                kept["stages_s"] = {
                    k: min(v, got["stages_s"][k]) for k, v in kept["stages_s"].items()
                }
    return out


def _child_one_call(name):
    import resource

    import liftspectra

    degree, gens = ONE_CALL[name]
    start = time.perf_counter()
    group = _group(liftspectra, degree, gens)
    liftspectra.compute_irreps(group, SEED)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"order": group.order, "wall_s": wall, "peak_rss_mb": peak_kb / 1024}


def _one_call(trees):
    out = {side: {} for side in trees}
    for r in range(ONE_CALL_ROUNDS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            for name in ONE_CALL:
                got = _run_child(trees[side], "one", name)
                kept = out[side].setdefault(name, dict(got, rounds=ONE_CALL_ROUNDS))
                kept["wall_s"] = min(kept["wall_s"], got["wall_s"])
                kept["peak_rss_mb"] = max(kept["peak_rss_mb"], got["peak_rss_mb"])
    return out


def _run_child(tree, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, __file__, "--child", *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _ab_summary(paths):
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
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            summary[workload][key] = {
                "runs": len(values),
                "median": median,
                "q1": q1,
                "q3": q3,
            }
    return summary


def _machine():
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


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="root of a checkout of the parent commit")
    p.add_argument("--out", default="BENCH_compute_irreps.json")
    p.add_argument("--ab-parent", nargs="*", default=[], metavar="RUN")
    p.add_argument("--ab-change", nargs="*", default=[], metavar="RUN")
    p.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        kind, *rest = args.child
        result = _child_ladder(*rest) if kind == "ladder" else _child_one_call(*rest)
        print(json.dumps(result))
        return 0
    if not args.parent:
        p.error("--parent is required")
    trees = {"parent": args.parent, "change": str(ROOT)}
    doc = {
        "what": "compute_irreps and the stages of _decompose_regular, parent against change",
        "machine": _machine(),
        "seed": SEED,
        "timing": "in-process wall clock, fastest of reps calls in each of rounds children",
        "ladder": _ladder(trees),
        "one_call_fresh_process": _one_call(trees),
    }
    if args.ab_parent or args.ab_change:
        doc["perfbench_ab"] = {
            "parent": _ab_summary(args.ab_parent),
            "change": _ab_summary(args.ab_change),
        }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
