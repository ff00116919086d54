"""liftspectra benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: ``spectrum_sweep``, ``eigvecs_sweep`` and ``cli_cold`` (see
``workloads.py`` and ``README.md`` in this directory).  Each run is one
fresh process with BLAS threads capped at one less than the CPU count (at
least one) and a single closed-loop caller.  The seed draws the
inputs; the package only sees the generated instances.  A run times its
set-up once, makes one untimed warm-up pass over the instance mix (library
workloads), then repeats whole passes until the timed query time reaches
``--seconds``, timing further set-ups between passes until at least three
and at least three seconds of them are done.  Every answer
is checked against a reference outside the timed region, after the run's
peak memory has been read.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the details (sample
counts, tail percentile, refused and wrong counts, machine).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads: one CPU is left to the operating system and the harness.  On
# a 2-vCPU machine a second BLAS thread made lift_eigenvectors about 3x
# slower and doubled its per-query spread, because every product waited for
# whichever vCPU the host was busy with.  Must precede the first numpy
# import; every child process inherits it.
BLAS_THREADS = max(1, len(os.sched_getaffinity(0)) - 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny instance mix (self-test)")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--references", metavar="OUT", help=argparse.SUPPRESS)
    p.add_argument("--spans", metavar="OUT", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liftspectra" / "__init__.py").is_file():
        print(f"error: no liftspectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liftspectra

    if Path(liftspectra.__file__).resolve().parent != (SRC / "liftspectra").resolve():
        print("error: liftspectra imported from outside the checkout", file=sys.stderr)
        return 2

    import harness

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in harness.NAMES:
        print(f"error: --workload must be one of {harness.NAMES}", file=sys.stderr)
        return 2
    if args.references:
        harness.write_references(args)
        return 0
    OUT.mkdir(exist_ok=True)
    detail, result = harness.run(args, OUT)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
