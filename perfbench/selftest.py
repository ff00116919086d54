"""Self-test: every workload at tiny size, and every checker on a corrupted answer.

Run with ``python3 perfbench/run.py --self-test``.  It checks that each
workload prints every named metric with its unit in both trace modes, that
the metric lists agree with ``BENCHMARK.json``, and that each workload's
checker accepts a true answer and rejects the same answer corrupted (one
eigenvalue shifted by ten times ``tol_match``, or one eigenvector column
scaled off its eigenspace).
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

import harness
import instances
from instances import TOL_MATCH
from workloads import LIBRARY, NAMES, CliCall, CliCold


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"self-test failed: {message}")


def check_metric_lists() -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    for key, listed in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        expect(declared == list(listed), f"BENCHMARK.json {key} differs from the harness")
    expect([w["name"] for w in spec["workloads"]] == list(NAMES), "workload list differs")


def check_output(name: str, trace: int) -> None:
    cmd = [sys.executable, str(harness.RUN_PY), "--workload", name, "--seed", "0"]
    cmd += ["--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} result keys")
    expect(result["correct"] is True, f"{name} trace={trace} reported a wrong answer")
    expect(result["attempted"] >= 1, f"{name} attempted nothing")
    listed = harness.PER_LAYER if trace else harness.END_TO_END
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    expect(printed == list(listed), f"{name} trace={trace} metric names or units")
    for metric, entry in result["metrics"].items():
        expect(np.isfinite(entry["value"]), f"{name} {metric} is not finite")
    print(f"ok   {name} trace={trace}: {len(printed)} metrics")


def corrupted(answer):
    if isinstance(answer, tuple):
        vectors, values, kn = answer
        bent = vectors.copy()
        bent[:, 0] *= 1.0 + 0.5 * np.linspace(0.0, 1.0, bent.shape[0])
        return bent, values, kn
    shifted = np.array(answer, dtype=complex)
    shifted[0] += 10 * TOL_MATCH
    return shifted


def check_library_checker(wl) -> None:
    """Every tiny instance: the true answer passes and a corrupted one fails."""
    comp = list(wl.tiny)
    catalogs, contexts = instances.setup(comp, 0)
    for inst in instances.make_pool(comp, catalogs, contexts, 0):
        ref = wl.reference(inst)
        answer = wl.answer(wl.query(inst))
        label = f"{wl.name} {inst.case.label}"
        expect(wl.is_right(inst, answer, ref), f"{label}: rejected a true answer")
        expect(not wl.is_right(inst, corrupted(answer), ref), f"{label}: accepted a corrupted one")
    print(f"ok   {wl.name} checker rejects a corrupted answer on each of {len(comp)} instances")


def check_cli_checker() -> None:
    wl = CliCold(harness.ROOT, harness.ROOT / "src")
    path = harness.ROOT / "instances" / "dumbbell.json"
    inst, _ = instances.instance_from_json(path)
    call = CliCall("spectrum", str(path), inst, 0)
    code, out, _ = wl.launch(call)
    ref = wl.reference(call)
    expect(code == 0 and wl.is_right(call, out, ref), "cli_cold rejected a true answer")
    payload = json.loads(out)
    payload["eigenvalues"][0]["value"][0] += 10 * TOL_MATCH
    bad = json.dumps(payload).encode()
    expect(not wl.is_right(call, bad, ref), "cli_cold accepted a corrupted answer")
    print("ok   cli_cold checker rejects a corrupted answer")


def check_refusal_is_unexpected() -> None:
    tally = harness.Tally()
    tally.add(0, 0.1, (0, None), False)
    tally.settle({(0, None): "refused"})
    expect(tally.refused == 1 and tally.unexpected == 1, "a refusal left correct true")


def main() -> int:
    check_metric_lists()
    check_refusal_is_unexpected()
    for wl in LIBRARY.values():
        check_library_checker(wl)
    check_cli_checker()
    for name in NAMES:
        for trace in (0, 1):
            check_output(name, trace)
    print("self-test passed")
    return 0
