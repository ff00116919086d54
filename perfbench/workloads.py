"""The three workloads: what they run, how each answer is checked, and why.

Library workloads call the package in-process; ``cli_cold`` runs one fresh
interpreter per query.  Every composition is fixed; the seed only draws
isomorphic copies of each slot's base graph (see :mod:`instances`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import liftspectra as ls
import checks
from instances import TOL_MATCH, TOL_RESIDUAL, Case


def _cases(spec) -> tuple[Case, ...]:
    return tuple(Case(group, sub, k) for group, sub, ks in spec for k in ks)


def subgroup_rank(irrep, ctx) -> int:
    """Multiplicity of the irrep in the coset module: (1/|H|) sum_h chi(h)."""
    members = sorted(ctx.subgroup_elements)
    return int(round(float(np.sum(irrep.character[members].real)) / len(members)))


class Library:
    """A workload of in-process library calls on a fixed instance mix."""

    name = ""
    composition: tuple[Case, ...] = ()
    tiny: tuple[Case, ...] = ()
    tail_pct = 90

    def query(self, inst):
        raise NotImplementedError

    def answer(self, result):
        """The part of a result the checker compares (outside the timer)."""
        return result

    def reference(self, inst):
        """Reference values for one instance, or ``None`` if the check needs none."""
        raise NotImplementedError

    def is_right(self, inst, answer, ref) -> bool:
        raise NotImplementedError

    def known_wrong(self, inst) -> bool:
        """Whether a wrong answer here is the documented character-route defect.

        No library workload calls the character route.
        """
        return False

    def eig_flops(self, inst) -> int:
        return 0


class SpectrumSweep(Library):
    name = "spectrum_sweep"
    # Trivial, stabilizer, intermediate and full subgroups of two computed
    # catalogs and one built-in one; k from 2 to 20.  Regular lifts of the
    # 240-element group stay at k <= 4 so the dense reference stays cheap.
    composition = _cases(
        [
            ("S5", "trivial", (2, 6)),
            ("S5", "stab", (6, 20)),
            ("S5", "mid", (4, 12)),
            ("S5", "full", (8, 20)),
            ("S5xC2", "trivial", (2, 4)),
            ("S5xC2", "stab", (6, 20)),
            ("S5xC2", "mid", (4, 12)),
            ("S5xC2", "full", (8, 20)),
            ("D10", "trivial", (4, 20)),
            ("D10", "stab", (6, 20)),
            ("D10", "mid", (6, 20)),
            ("D10", "full", (4, 20)),
        ]
    )
    tiny = _cases(
        [
            ("S4", "trivial", (2,)),
            ("S4", "stab", (3,)),
            ("D6", "mid", (3,)),
            ("D6", "full", (2,)),
        ]
    )
    tail_pct = 99

    def query(self, inst):
        base = ls.build_base_matrix(inst.graph)
        return ls.lift_spectrum(base, inst.irrep_set, inst.ctx)

    def answer(self, result):
        return result.expand()

    def reference(self, inst):
        return checks.dense_reference(inst.graph, inst.ctx)

    def is_right(self, inst, answer, ref):
        return checks.spectrum_is_right(answer, ref, TOL_MATCH)

    def eig_flops(self, inst):
        k = inst.case.k
        return sum(
            (r.dim * k) ** 3 for r in inst.irrep_set if subgroup_rank(r, inst.ctx) > 0
        )


class EigvecsSweep(Library):
    name = "eigvecs_sweep"
    # Regular lifts (every pulled column useful) next to stabilizer and
    # intermediate lifts (most pulled columns are zero and discarded).
    composition = _cases(
        [
            ("S4", "trivial", (4, 8)),
            ("S4", "stab", (12,)),
            ("S4", "mid", (12,)),
            ("A5", "trivial", (4, 6)),
            ("A5", "stab", (12,)),
            ("A5", "mid", (4,)),
            ("S5", "trivial", (4, 6)),
            ("S5", "stab", (12,)),
            ("S5", "mid", (4, 12)),
        ]
    )
    tiny = _cases(
        [
            ("S4", "trivial", (2,)),
            ("S4", "stab", (3,)),
            ("S4", "mid", (2,)),
        ]
    )
    # The highest percentile of the 13 instances with at least ten samples
    # beyond it: S5 at k = 4 and k = 6 run about nine times each per run.
    tail_pct = 90

    def query(self, inst):
        base = ls.build_base_matrix(inst.graph)
        return ls.lift_eigenvectors(base, inst.irrep_set, inst.ctx)

    def answer(self, result):
        return checks.eigvecs_answer(result)

    def reference(self, inst):
        # Nothing to compare against but the lift itself; the dense ``eigh``
        # is timed only as the oracle the blockwise route should beat.
        adjacency = ls.build_lift(inst.graph, inst.ctx).adjacency.astype(float)
        np.linalg.eigh(adjacency)
        return None

    def is_right(self, inst, answer, ref):
        vectors, values, kn = answer
        adjacency = ls.build_lift(inst.graph, inst.ctx).adjacency.astype(float)
        return checks.eigvecs_are_right(vectors, values, kn, adjacency, TOL_RESIDUAL)

    def eig_flops(self, inst):
        return sum((r.dim * inst.case.k) ** 3 for r in inst.irrep_set)


@dataclass(frozen=True)
class CliCall:
    command: str
    path: str
    instance: object
    expect_exit: int


class CliCold:
    """Sequential fresh ``python -m liftspectra.cli`` processes."""

    name = "cli_cold"
    # Every subcommand over the checked-in instances (``characters`` on a
    # non-trivial subgroup must exit 3), and generated instances with
    # generator-defined groups, so ``compute_irreps`` runs inside the call.
    # The list is short so that each call repeats several times in a run:
    # the fastest of one or two samples of a 0.5 s process still tracked
    # the host's load.
    repo_calls = (
        ("dumbbell.json", "spectrum"),
        ("dumbbell.json", "characters"),
        ("dumbbell_generators.json", "verify"),
        ("dumbbell_regular.json", "lift"),
        ("dumbbell_regular.json", "characters"),
        ("dumbbell_regular.json", "irreps"),
    )
    generated = (
        (Case("S4", "trivial", 3), ("characters",)),
        (Case("A5", "stab", 6), ("eigvecs",)),
        (Case("S5", "stab", 6), ("spectrum",)),
        (Case("S5", "trivial", 2), ("characters",)),
    )
    tiny_repo_calls = (
        ("dumbbell_regular.json", "spectrum"),
        ("dumbbell_regular.json", "characters"),
    )
    tiny_generated = ((Case("S4", "stab", 2), ("eigvecs",)),)
    # The other workloads' rule (see EigvecsSweep) gives p80 here, where the
    # top two calls give ten samples a run, but p80 spread by 0.27 of its
    # median over ten runs in one set (see README.md).
    tail_pct = 66

    def __init__(self, root, src):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def import_only(self) -> None:
        subprocess.run(
            [sys.executable, "-c", "import liftspectra.cli"], env=self.env, check=True
        )

    def launch(self, call: CliCall, traced_spans=None):
        """Run one CLI process; return ``(exit code, stdout, peak RSS in KiB)``."""
        argv = [sys.executable, "-m", "liftspectra.cli", call.command, call.path]
        if traced_spans is not None:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            argv[1:3] = [child, str(traced_spans), repr(perf_counter())]
        proc = subprocess.Popen(
            argv, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def answer(self, out: bytes) -> bytes:
        return out

    def reference(self, call: CliCall):
        inst = call.instance
        lift = ls.build_lift(inst.graph, inst.ctx).adjacency.astype(float)
        return lift, np.linalg.eigvalsh(lift).astype(complex)

    def is_right(self, call: CliCall, out: bytes, ref) -> bool:
        """Semantic check of one CLI answer; output that does not parse is wrong."""
        try:
            return self._semantics(call, out, ref)
        except (ValueError, KeyError, TypeError, IndexError):
            return False

    def _semantics(self, call: CliCall, out: bytes, ref) -> bool:
        adjacency, values = ref
        inst = call.instance
        if call.expect_exit != 0:
            return out == b""
        if call.command == "lift":
            labels = [f"{v}@{j}" for v in inst.graph.vertices for j in range(inst.ctx.index_n)]
            parsed = checks.lift_from_lines(out.decode(), labels)
            if not np.array_equal(parsed, parsed.T):
                return False
            return checks.spectrum_is_right(np.linalg.eigvalsh(parsed), values, TOL_MATCH)
        payload = json.loads(out)
        if call.command == "spectrum":
            return payload["kn"] == len(values) and checks.spectrum_is_right(
                checks.spectrum_from_json(payload), values, TOL_MATCH
            )
        if call.command == "eigvecs":
            vectors, vals, kn = checks.eigvecs_from_json(payload)
            return checks.eigvecs_are_right(vectors, vals, kn, adjacency, TOL_RESIDUAL)
        if call.command == "verify":
            return payload["passed"] is True and all(t["passed"] for t in payload["trials"])
        if call.command == "characters":
            spectrum = np.array([complex(re, im) for re, im in payload["spectrum"]])
            return payload["total"] == len(values) and checks.spectrum_is_right(
                spectrum, values, TOL_MATCH
            )
        if call.command == "irreps":
            order = inst.irrep_set.group.order
            dims = payload["dims"]
            return payload["group_order"] == order and sum(d * d for d in dims) == order
        raise ValueError(f"unknown command {call.command!r}")

    def known_wrong(self, call: CliCall) -> bool:
        return call.command == "characters" and max(call.instance.irrep_set.dims) > 1



LIBRARY = {w.name: w for w in (SpectrumSweep(), EigvecsSweep())}
NAMES = tuple(LIBRARY) + (CliCold.name,)
