"""``lift_eigenvectors`` on the ``eigvecs_sweep`` pool, parent against change, as JSON.

Usage, from the root of a checkout::

    python3 tools/bench_lift_eigenvectors.py [--parent REV] [--change REV] \\
        [--out FILE] [--ab-parent RUN ...] [--ab-change RUN ...]

``REV`` is any git revision of this repository.  ``--parent`` defaults to
``HEAD``; ``--change`` defaults to the working tree's tracked files (``git
stash create``, or ``HEAD`` when nothing has changed).  Each side is a
``git archive`` copy in a temporary directory, so neither reads this
checkout's ``src/`` or bytecode.  ``FILE`` defaults to
``BENCH_lift_eigenvectors.json``.

The pool is ``perfbench``'s ``eigvecs_sweep`` composition at pool and
catalog seed ``SEED``, built by each copy's own ``perfbench/instances.py``.
Children run in ``ROUNDS`` rounds that alternate which side goes first, each
a fresh process with one BLAS thread.  A child makes one untimed warm-up pass,
which builds the pull-back plans, then ``PASSES`` passes over the pool with
nothing wrapped, then ``PASSES`` passes with the stages wrapped.  The whole
call per instance is its fastest unwrapped time.  The stages come from the
wrapped pass in which the instance's call was fastest, from wrappers that
replace ``liftspectra.spectral`` functions by name, as
``perfbench/tracing.py`` does:

- ``images_ms``: ``irrep_image``, ``is_hermitian`` and ``eig_dense``;
- ``pull_back_ms``: ``_pull_back``;
- ``residual_ms``: ``_check_residuals``;
- ``flags_selection_ms``: the rest of the wrapped call, that is the zero
  flags, the selected basis and the call's own bookkeeping.  Where the tree
  has ``_zero_flags``, its time is also given as ``zero_flags_ms``.

Each side keeps, per instance, the fastest of its rounds.  A child also
hashes every bundle (blocks, flags, eigenvalues, picked rows, selected
basis), and counts the calls of ``_peak_zero_flags`` over all its passes
where the tree has it; the file records whether both sides gave the same
bytes.

``--ab-parent`` and ``--ab-change`` take saved outputs of
``perfbench/run.py``, as for ``tools/bench_compute_irreps.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
ROUNDS = 6
PASSES = 15
# Stage name -> the ``liftspectra.spectral`` functions it wraps.
STAGES = {
    "images_ms": ("irrep_image", "is_hermitian", "eig_dense"),
    "pull_back_ms": ("_pull_back",),
    "residual_ms": ("_check_residuals",),
    "zero_flags_ms": ("_zero_flags",),
}


def _child(tree, seed):
    seed = int(seed)
    import hashlib
    import time

    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import instances
    import liftspectra as ls
    from liftspectra import spectral
    from workloads import EigvecsSweep

    composition = EigvecsSweep.composition
    catalogs, contexts = instances.setup(composition, seed)
    pool = instances.make_pool(composition, catalogs, contexts, seed)
    bases = [ls.build_base_matrix(inst.graph) for inst in pool]

    def call(n):
        inst = pool[n]
        return spectral.lift_eigenvectors(bases[n], inst.irrep_set, inst.ctx)

    spent = dict.fromkeys(STAGES, 0.0)
    fallbacks = [0]

    def timed(stage, fn):
        def wrapped(*args, **kwargs):
            begun = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - begun

        return wrapped

    def counted(fn):
        def wrapped(*args, **kwargs):
            fallbacks[0] += 1
            return fn(*args, **kwargs)

        return wrapped

    has_fallback = hasattr(spectral, "_peak_zero_flags")
    if has_fallback:
        spectral._peak_zero_flags = counted(spectral._peak_zero_flags)
    digests = []
    for n in range(len(pool)):
        bundle = call(n)
        digest = hashlib.sha256()
        for block in bundle.blocks:
            for array in (block.pulled, block.zero, block.eigenvalues):
                digest.update(array.tobytes())
            digest.update(repr(block.picked).encode())
        digest.update(repr(bundle.selected_basis).encode())
        digests.append(digest.hexdigest())

    whole = [float("inf")] * len(pool)
    for _ in range(PASSES):
        for n in range(len(pool)):
            begun = time.perf_counter()
            call(n)
            whole[n] = min(whole[n], time.perf_counter() - begun)

    originals = {}
    for stage, names in STAGES.items():
        for name in names:
            if hasattr(spectral, name):
                originals[name] = getattr(spectral, name)
                setattr(spectral, name, timed(stage, originals[name]))
    staged = [None] * len(pool)
    for _ in range(PASSES):
        for n in range(len(pool)):
            for stage in spent:
                spent[stage] = 0.0
            begun = time.perf_counter()
            call(n)
            total = time.perf_counter() - begun
            if staged[n] is None or total < staged[n]["wrapped_ms"]:
                staged[n] = {"wrapped_ms": total, **spent}
    for name, fn in originals.items():
        setattr(spectral, name, fn)

    rows = []
    for n, inst in enumerate(pool):
        stages = staged[n]
        row = {
            "label": inst.case.label,
            "kn": bases[n].k * inst.ctx.index_n,
            "pulled_columns": bases[n].k * inst.irrep_set.group.order,
            "sha256": digests[n],
            "whole_ms": 1e3 * whole[n],
        }
        for stage in ("images_ms", "pull_back_ms", "residual_ms"):
            row[stage] = 1e3 * stages[stage]
        row["flags_selection_ms"] = 1e3 * (
            stages["wrapped_ms"]
            - stages["images_ms"]
            - stages["pull_back_ms"]
            - stages["residual_ms"]
        )
        row["zero_flags_ms"] = (
            1e3 * stages["zero_flags_ms"] if "_zero_flags" in originals else None
        )
        rows.append(row)
    return {"rows": rows, "fallback_calls": fallbacks[0] if has_fallback else None}


def _git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def _export(rev, dest):
    """Extract ``git archive REV`` into ``dest``."""
    data = _git("archive", "--format=tar", rev).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        archive.extractall(dest, filter="data")


def _env():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(trees):
    """Every round's child output, per side."""
    runs = {side: [] for side in trees}
    order = list(trees.items())
    for rnd in range(ROUNDS):
        for side, tree in order if rnd % 2 == 0 else order[::-1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", tree, str(SEED)],
                env=_env(),
                capture_output=True,
                text=True,
                check=True,
            )
            runs[side].append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


# Per-instance times; ``zero_flags_ms`` is None on a tree without ``_zero_flags``.
KEYS = (
    "whole_ms",
    "images_ms",
    "pull_back_ms",
    "residual_ms",
    "flags_selection_ms",
    "zero_flags_ms",
)


def _fastest(values):
    return None if None in values else min(values)


def _total(values):
    return None if None in values else sum(values)


def _summary(runs):
    sides = list(runs)
    instances = []
    for n, row in enumerate(runs[sides[0]][0]["rows"]):
        entry = {key: row[key] for key in ("label", "kn", "pulled_columns")}
        digests = {run["rows"][n]["sha256"] for side in sides for run in runs[side]}
        entry["same_bytes"] = len(digests) == 1
        for side in sides:
            seen = [run["rows"][n] for run in runs[side]]
            entry[side] = {key: _fastest([r[key] for r in seen]) for key in KEYS}
        instances.append(entry)
    per_pass = {
        side: {key: _total([entry[side][key] for entry in instances]) for key in KEYS}
        for side in sides
    }
    rounds = {
        side: [sum(row["whole_ms"] for row in run["rows"]) for run in runs[side]]
        for side in sides
    }
    return {
        "same_bytes": all(entry["same_bytes"] for entry in instances),
        "fallback_calls": {side: [run["fallback_calls"] for run in runs[side]] for side in sides},
        "pass_ms": per_pass,
        "rounds_pass_whole_ms": rounds,
        "rounds_change_faster": sum(c < p for p, c in zip(rounds["parent"], rounds["change"])),
        "instances": instances,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    p.add_argument("--change", help="git revision of the change (default: the working tree)")
    p.add_argument("--out", default="BENCH_lift_eigenvectors.json")
    p.add_argument("--ab-parent", nargs="*", default=[], metavar="RUN")
    p.add_argument("--ab-change", nargs="*", default=[], metavar="RUN")
    p.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(_child(*args.child)))
        return 0
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_compute_irreps import _ab_summary, _machine

    change = args.change or _git("stash", "create", text=True).stdout.strip() or "HEAD"
    revs = {"parent": args.parent, "change": change}
    commits = {side: _git("rev-parse", rev, text=True).stdout.strip() for side, rev in revs.items()}
    with tempfile.TemporaryDirectory() as work:
        trees = {}
        for side, rev in revs.items():
            trees[side] = str(Path(work) / side)
            _export(rev, trees[side])
        doc = {
            "what": "lift_eigenvectors on the eigvecs_sweep pool, whole call and stages, "
            "parent against change",
            "machine": _machine(),
            "commits": commits,
            "pool_seed": SEED,
            "timing": f"in-process wall clock, fastest of {PASSES} passes in each of {ROUNDS} "
            "alternating fresh processes per side; stages from the fastest wrapped pass",
            **_summary(_run(trees)),
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
