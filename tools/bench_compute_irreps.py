"""Stage timings of ``compute_irreps`` or ``lift_spectrum`` on a parent tree and this one, as JSON.

Usage, from the root of a checkout::

    python3 tools/bench_compute_irreps.py --parent PARENT [--subject SUBJECT] [--out FILE] \\
        [--ab-parent RUN ...] [--ab-change RUN ...]

``PARENT`` is the root of a checkout of the parent commit; the checkout that
holds this script is the change.  Each tree is measured in fresh child
processes that import ``liftspectra`` from its ``src/`` with one BLAS thread.
``SUBJECT`` is ``compute_irreps`` (the default) or ``lift_spectrum``, and
``FILE`` defaults to ``BENCH_<SUBJECT>.json``.

For ``compute_irreps``, on each group of the ladder a child times:

- ``compute_irreps`` as a whole: the fastest of ``reps`` calls;
- each stage of ``_decompose_regular`` (and the sort and validation after
  it), from the staged copy of its body below, the fastest of ``reps``.
  Each group runs in ``rounds`` fresh children per tree, alternating which
  tree goes first, and the fastest over the rounds is kept.
  The shift, the ``sub`` einsum and the invariance residual run over slices
  of 32 group elements, as ``_decompose_regular`` does: the shift is
  gathered as ``(g, b, a)``, as ``irreps._catalog_slices`` gathers it, and
  the einsum sums along contiguous memory.  Before timing, the child checks
  that the staged copy gives the same bytes as the tree's own
  ``_decompose_regular``, so a tree whose body differs is refused;
- the ``tracemalloc`` peak of one more ``compute_irreps`` call.

Two more children per tree close S6, or S5 x C8, and call ``compute_irreps``
once; each reports the wall time of both steps and its peak RSS.  They run
in ``ONE_CALL_ROUNDS`` alternating rounds, and the file keeps the fastest
wall time and the largest peak RSS of each.

For ``lift_spectrum``, the ladder is the ``spectrum_sweep`` mix of
``perfbench/`` at pool seed ``SPECTRUM_SEED``.  A child times, per instance,
the whole query (``build_base_matrix`` then ``lift_spectrum``) and each
stage of a staged copy of it (``SPECTRUM_STAGES``): the base build, the
ranks, the images, their Hermitian test, the eigensolve and the merge, each
the fastest of ``SPECTRUM_REPS`` passes over the mix.  The images are built
and solved as one stack per slice of consecutive irreps of one dimension
(``spectral.IMAGE_STACK_ENTRIES``), as ``lift_spectrum`` does.  The merge
is staged in the tree's own form: the value and count arrays of a report
that holds arrays, whose count check reads the counts, or the tuple of
``SpectrumEntry`` of a report that holds entries.  Before timing, the
child checks that the staged copy gives the same entries, bit for bit, as
the tree's own ``lift_spectrum``, so a tree whose body differs is refused.
Children run in ``SPECTRUM_ROUNDS`` alternating rounds, and the fastest is
kept.

``--ab-parent`` and ``--ab-change`` take saved outputs of
``perfbench/run.py``; the file gets every run's value and the median and
quartiles of every end-to-end metric per workload and side.
"""

from __future__ import annotations

import argparse
import itertools
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


def _sub_and_residual(np, basis, table, lap):
    """``sub`` and the residual with the shift held as ``(g, b, a)``, as
    ``irreps._catalog_slices`` gathers it."""
    n, d = basis.shape
    columns = basis.T.copy()
    dual = columns.conj()
    rows = np.arange(d)[:, None]
    sub = np.empty((n, d, d), dtype=complex)
    peaks = []
    lap("sub_einsum")
    for g0 in range(0, n, 32):
        elements = np.ascontiguousarray(table.T[g0 : g0 + 32])
        shifted = columns[rows, elements[:, None, :]]
        lap("shifted_gather")
        part = sub[g0 : g0 + 32]
        np.einsum("ia,gba->gib", dual, shifted, out=part)
        lap("sub_einsum")
        lifted = basis @ part
        lifted -= shifted.transpose(0, 2, 1)
        peaks.append(np.max(np.abs(lifted)))
        lap("invariance_residual")
    residual = np.max(peaks)
    lap("invariance_residual")
    return sub, residual


def _staged(np, irreps, group, classes, rng):
    """``_decompose_regular``, sort and validation, with a clock per stage."""
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
        if not abs(norm - 1) <= irreps.CHARACTER_TOL:
            raise RuntimeError("reducible cluster on attempt 0; pick another seed")
        if np.any(np.max(np.abs(kept - class_char), axis=1) <= irreps.CHARACTER_TOL):
            lap("class_characters")
            continue
        kept = np.vstack([kept, class_char])
        lap("class_characters")
        sub, residual = _sub_and_residual(np, basis, table, lap)
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


def _child_ladder(name):
    import numpy as np

    import liftspectra
    import liftspectra.irreps as irreps

    def attempt_rng():
        return np.random.default_rng(np.random.SeedSequence(entropy=SEED, spawn_key=(0,)))

    degree, gens, reps, _ = LADDER[name]
    group = _group(liftspectra, degree, gens)
    classes = liftspectra.conjugacy_classes(group)
    staged, _ = _staged(np, irreps, group, classes, attempt_rng())
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
        _, times = _staged(np, irreps, group, classes, attempt_rng())
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
                got = _run_child(trees[side], "ladder", name)
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


SPECTRUM_SEED = 3
SPECTRUM_REPS = 60
SPECTRUM_ROUNDS = 4
SPECTRUM_STAGES = ("base_build", "ranks", "images", "hermitian", "eigensolve", "merge")


def _staged_spectrum(np, ls, inst, lap):
    """``build_base_matrix`` and ``lift_spectrum``'s body, with a clock per stage."""
    spectral = ls.spectral
    irrep_set, ctx = inst.irrep_set, inst.ctx
    base = ls.build_base_matrix(inst.graph)
    lap("base_build")
    ranks = spectral.subgroup_ranks(irrep_set, ctx)
    lap("ranks")
    used = [idx for idx, rank in enumerate(ranks) if rank]
    spectra = []
    for d, run in itertools.groupby(used, lambda idx: irrep_set[idx].dim):
        run = list(run)
        size = max(1, spectral.IMAGE_STACK_ENTRIES // max(1, (d * base.k) ** 2))
        for start in range(0, len(run), size):
            part = run[start : start + size]
            images = ls.irrep_image(base, [irrep_set[idx] for idx in part]).matrix
            lap("images")
            if not np.all(spectral.is_hermitian(images)):
                raise RuntimeError(f"{inst.case.label}: an image is not Hermitian")
            lap("hermitian")
            values, _ = ls.eig_dense(images, hermitian_hint=True)
            spectra.extend(values)
            lap("eigensolve")
    tags = [(idx, irrep_set[idx].dim, ranks[idx]) for idx in used]
    merged = spectral._merge_spectra(spectra, tags, spectral.DEFAULT_MATCH_TOL)
    if _holds_entries(spectral):
        total = sum(e.count for e in merged)
    else:
        total = int(merged[1].sum())
    if total != base.k * ctx.index_n:
        raise RuntimeError(f"{inst.case.label}: the counts do not add up")
    lap("merge")
    return merged


def _holds_entries(spectral):
    """Whether the tree's ``SpectrumReport`` holds ``SpectrumEntry`` objects, not arrays."""
    return "entries" in spectral.SpectrumReport.__dataclass_fields__


def _merged_rows(spectral, merged):
    """``(value, count, provenance)`` per entry of a staged merge, in either form."""
    if _holds_entries(spectral):
        return [(e.value, e.count, e.provenance) for e in merged]
    values, counts, provenance = merged
    return list(zip(values.tolist(), counts.tolist(), provenance))


def _child_spectrum():
    import numpy as np

    import liftspectra as ls

    sys.path.insert(0, str(ROOT / "perfbench"))
    import instances
    import workloads

    mix = workloads.SpectrumSweep().composition
    catalogs, contexts = instances.setup(mix, irreps_seed=0)
    pool = instances.make_pool(mix, catalogs, contexts, SPECTRUM_SEED)

    def bits(rows):
        return [(v.real.hex(), v.imag.hex(), type(v), type(c), c, p) for v, c, p in rows]

    out = {}
    for inst in pool:
        own = ls.lift_spectrum(ls.build_base_matrix(inst.graph), inst.irrep_set, inst.ctx)
        staged = _merged_rows(ls.spectral, _staged_spectrum(np, ls, inst, lambda stage: None))
        if bits(staged) != bits((e.value, e.count, e.provenance) for e in own.entries):
            raise RuntimeError(f"{inst.case.label}: the staged copy does not match lift_spectrum")
        out[inst.case.label] = {
            "query_s": float("inf"),
            "stages_s": dict.fromkeys(SPECTRUM_STAGES, float("inf")),
        }

    # A stage that runs once per stack (images, hermitian, eigensolve) adds
    # up over its calls in one query.
    mark = 0.0
    spent = {}

    def lap(stage):
        nonlocal mark
        now = time.perf_counter()
        spent[stage] += now - mark
        mark = now

    for _ in range(SPECTRUM_REPS):
        for inst in pool:
            kept = out[inst.case.label]
            start = time.perf_counter()
            ls.lift_spectrum(ls.build_base_matrix(inst.graph), inst.irrep_set, inst.ctx)
            kept["query_s"] = min(kept["query_s"], time.perf_counter() - start)
            spent = dict.fromkeys(SPECTRUM_STAGES, 0.0)
            mark = time.perf_counter()
            _staged_spectrum(np, ls, inst, lap)
            kept["stages_s"] = {k: min(v, spent[k]) for k, v in kept["stages_s"].items()}
    return out


def _spectrum_ladder(trees):
    out = {side: {} for side in trees}
    for r in range(SPECTRUM_ROUNDS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            got = _run_child(trees[side], "spectrum")
            for label, row in got.items():
                kept = out[side].setdefault(label, row)
                kept["query_s"] = min(kept["query_s"], row["query_s"])
                kept["stages_s"] = {
                    k: min(v, row["stages_s"][k]) for k, v in kept["stages_s"].items()
                }
    summary = {}
    for side, rows in out.items():
        queries = sorted(row["query_s"] for row in rows.values())
        summary[side] = {
            "query_p50_ms": 1e3 * statistics.median(queries),
            "query_sum_ms": 1e3 * sum(queries),
            "stage_sum_ms": {
                stage: 1e3 * sum(row["stages_s"][stage] for row in rows.values())
                for stage in SPECTRUM_STAGES
            },
        }
    return {"summary": summary, "per_instance": out}


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
                "values": values,
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
    p.add_argument(
        "--subject", choices=("compute_irreps", "lift_spectrum"), default="compute_irreps"
    )
    p.add_argument("--out", help="output file (default: BENCH_<subject>.json)")
    p.add_argument("--ab-parent", nargs="*", default=[], metavar="RUN")
    p.add_argument("--ab-change", nargs="*", default=[], metavar="RUN")
    p.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        kind, *rest = args.child
        children = {"ladder": _child_ladder, "one": _child_one_call, "spectrum": _child_spectrum}
        print(json.dumps(children[kind](*rest)))
        return 0
    if not args.parent:
        p.error("--parent is required")
    trees = {"parent": args.parent, "change": str(ROOT)}
    if args.subject == "compute_irreps":
        doc = {
            "what": "compute_irreps and the stages of _decompose_regular, parent against change",
            "machine": _machine(),
            "seed": SEED,
            "timing": "in-process wall clock, fastest of reps calls in each of rounds children",
            "ladder": _ladder(trees),
            "one_call_fresh_process": _one_call(trees),
        }
    else:
        doc = {
            "what": "lift_spectrum queries of the spectrum_sweep mix and their stages, "
            "parent against change",
            "machine": _machine(),
            "pool_seed": SPECTRUM_SEED,
            "timing": f"in-process wall clock, per instance the fastest of {SPECTRUM_REPS} "
            f"passes in each of {SPECTRUM_ROUNDS} alternating children; sums and the "
            "median are over the 24 instances",
            "stages": list(SPECTRUM_STAGES),
            "ladder": _spectrum_ladder(trees),
        }
    if args.ab_parent or args.ab_change:
        doc["perfbench_ab"] = {
            "parent": _ab_summary(args.ab_parent),
            "change": _ab_summary(args.ab_change),
        }
    Path(args.out or f"BENCH_{args.subject}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
