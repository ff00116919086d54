"""Byte-for-byte CLI output on every shipped instance.

``tests/golden/<instance>.<case>.out`` holds the stdout of ``main()`` for each
case below on each ``instances/*.json``, and ``tests/golden/exit_codes.json``
the exit codes.  Regenerate them only for an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from liftspectra.cli import main

from helpers import package_env

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

CASES = {
    "spectrum": ["spectrum"],
    "eigvecs": ["eigvecs"],
    "lift": ["lift"],
    "lift-adjacency": ["lift", "--emit-adjacency"],
    "verify": ["verify"],
    "verify-trials-3": ["verify", "--trials", "3"],
    "characters": ["characters"],
    "irreps": ["irreps"],
    "irreps-dump": ["irreps", "--dump"],
}
RUNS = [
    (path.stem, case)
    for path in sorted(INSTANCES.glob("*.json"))
    for case in CASES
]


def _argv(stem, case):
    command, *flags = CASES[case]
    return [command, str(INSTANCES / f"{stem}.json"), *flags]


def _golden(stem, case):
    return GOLDEN / f"{stem}.{case}.out"


@pytest.mark.parametrize("stem,case", RUNS, ids=[f"{s}.{c}" for s, c in RUNS])
def test_stdout_and_exit_code_match_golden(capsys, stem, case):
    code = main(_argv(stem, case))
    out = capsys.readouterr().out
    assert code == json.loads(EXIT_CODES.read_text())[f"{stem}.{case}"]
    assert out.encode() == _golden(stem, case).read_bytes()


# One case per command, and one refusal, run as ``python -m liftspectra.cli``:
# the process path, unlike ``main()``, goes through ``entry()``.
PROCESS_RUNS = [
    ("dumbbell", "spectrum"),
    ("dumbbell_generators", "eigvecs"),
    ("s4_stabilizer", "lift"),
    ("dumbbell", "verify"),
    ("dumbbell_regular", "characters"),
    ("s4_stabilizer", "irreps-dump"),
    ("s4_stabilizer", "characters"),
]


@pytest.mark.parametrize("stem,case", PROCESS_RUNS, ids=[f"{s}.{c}" for s, c in PROCESS_RUNS])
def test_a_cli_process_writes_the_golden_bytes(stem, case):
    result = subprocess.run(
        [sys.executable, "-m", "liftspectra.cli", *_argv(stem, case)],
        env=package_env(),
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == json.loads(EXIT_CODES.read_text())[f"{stem}.{case}"]
    assert result.stdout == _golden(stem, case).read_bytes()
    errors = result.stderr.decode().splitlines()
    assert errors == [] or (len(errors) == 1 and errors[0].startswith("error: "))
    assert bool(errors) == (result.returncode != 0)


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for stem, case in RUNS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            codes[f"{stem}.{case}"] = main(_argv(stem, case))
        _golden(stem, case).write_bytes(buffer.getvalue().encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
