"""``tools/bench.py``'s stage tables against this package, and its timing run in-process."""

import contextlib
import functools
import importlib
import importlib.util
import io
import sys
import types
from pathlib import Path

import pytest

from liftspectra import (
    build_base_matrix,
    cli,
    compute_irreps,
    generate_group,
    parse_permutation,
    spectral,
)

ROOT = Path(__file__).resolve().parent.parent


def _load(monkeypatch, name, path):
    """A module loaded from ``path`` as ``name``, without changing the checkout."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class body
    # runs, and workloads.py imports its siblings by their plain names.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    return _load(monkeypatch, "bench", ROOT / "tools" / "bench.py")


def test_every_wrapped_name_resolves_to_a_package_function(bench):
    assert set(bench.STAGES) == set(bench.SUBJECTS)
    for subject, stages in bench.STAGES.items():
        for stage, names in stages.items():
            assert names, (subject, stage)
            for name in names:
                module, attr = name.split(".")
                fn = getattr(importlib.import_module(f"liftspectra.{module}"), attr, None)
                assert isinstance(fn, types.FunctionType), (subject, stage, name)


def test_lift_eigenvectors_child_times_every_stage_of_the_tiny_mix(bench, monkeypatch):
    perfbench = ROOT / "perfbench"
    instances = _load(monkeypatch, "instances", perfbench / "instances.py")
    _load(monkeypatch, "checks", perfbench / "checks.py")
    tiny = _load(monkeypatch, "workloads", perfbench / "workloads.py").EigvecsSweep.tiny
    originals = dict(vars(spectral))

    rows = bench.lift_eigenvectors_rows(instances, tiny, passes=2)

    assert [row["label"] for row in rows] == [case.label for case in tiny]
    stages = bench.STAGES["lift_eigenvectors"]
    for row in rows:
        times = [row[f"{stage}_ms"] for stage in stages]
        assert all(isinstance(t, float) and t >= 0 for t in times), row
        assert sum(times) <= row["wrapped_ms"] + 1e-6
        assert row["whole_ms"] > 0
        assert all(row["calls"][stage] > 0 for stage in ("images", "pull_back", "residual"))
        assert len(row["sha256"]) == 64
    # Every wrapper is gone again.
    assert all(vars(spectral)[name] is value for name, value in originals.items())


def _silent_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_stages_book_generator_steps_and_nested_calls_once(bench):
    dumbbell = cli.load_instance(str(ROOT / "instances" / "dumbbell.json"))
    base = build_base_matrix(dumbbell.graph)
    # Read through the module, so that the wrapper is the one called.
    def spectrum():
        return spectral.lift_spectrum(base, dumbbell.irrep_set, dumbbell.ctx)

    nested = {"outer": ("spectral.lift_spectrum",), "inner": ("spectral.eig_dense",)}
    (row,) = bench.time_calls([("dumbbell", spectrum, 2)], nested)
    # Each call is booked once: the inner stage is taken out of the outer one.
    assert row["inner_ms"] > 0
    assert row["outer_ms"] + row["inner_ms"] <= row["wrapped_ms"] + 1e-6

    # ``_catalog_slices`` runs as it is stepped, after the wrapped call
    # returned: about a tenth of the call here, where making the five
    # generators alone takes a few microseconds.
    group = generate_group([parse_permutation(g, 4) for g in ("(1 2 3 4)", "(1 2)")])
    catalog = functools.partial(compute_irreps, group, 0)
    (row,) = bench.time_calls([("S4", catalog, 2)], {"catalog": ("irreps._catalog_slices",)})
    assert row["catalog_ms"] > 0.02 * row["wrapped_ms"]

    # The subjects' own tables, with stages inside others.
    argv = ["spectrum", str(ROOT / "instances" / "dumbbell.json")]
    command = functools.partial(_silent_main, argv)
    for call, subject in ((catalog, "compute_irreps"), (command, "cli_output")):
        (row,) = bench.time_calls([("case", call, 2)], bench.STAGES[subject])
        times = [row[f"{stage}_ms"] for stage in bench.STAGES[subject]]
        assert all(t >= 0 for t in times) and sum(times) <= row["wrapped_ms"] + 1e-6
        assert all(n > 0 for n in row["calls"].values()), row["calls"]
