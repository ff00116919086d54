"""The benchmark under ``perfbench/`` still reads the package the way it expects.

``perfbench/checks.py`` turns an eigenvector bundle into the answer it
checks, and ``perfbench/tracing.py`` wraps package functions by name.  Both
are imported here from the checkout, unchanged, so a change to the package
that would silently break the benchmark fails this test instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import liftspectra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class body runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.mark.parametrize("context", ["point_stabilizer_ctx", "trivial_ctx", "full_ctx"])
def test_eigvecs_answer_reads_the_bundle_arrays(
    checks, request, dumbbell_base, sym3_catalog, context
):
    ctx = request.getfixturevalue(context)
    bundle = liftspectra.lift_eigenvectors(dumbbell_base, sym3_catalog, ctx)
    vectors, values, kn = checks.eigvecs_answer(bundle)

    expected_vectors = np.hstack([b.pulled[:, b.selected] for b in bundle.blocks])
    expected_values = np.concatenate(
        [np.tile(b.eigenvalues, b.dim)[b.selected] for b in bundle.blocks]
    )
    assert kn == bundle.kn == vectors.shape[1]
    assert vectors.tobytes() == expected_vectors.tobytes()
    assert values.tobytes() == expected_values.tobytes()


def test_tracing_wraps_both_lift_routes_by_name(
    tracing, dumbbell_base, sym3_catalog, point_stabilizer_ctx
):
    spectral = liftspectra.spectral
    originals = (spectral.lift_eigenvectors, spectral.lift_spectrum)
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert spectral.lift_eigenvectors.__wrapped__ is originals[0]
        assert spectral.lift_spectrum.__wrapped__ is originals[1]
        spectral.lift_eigenvectors(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
        spectral.lift_spectrum(dumbbell_base, sym3_catalog, point_stabilizer_ctx)
    finally:
        undo()
    assert (spectral.lift_eigenvectors, spectral.lift_spectrum) == originals
    names = {span[0] for span in rec.spans}
    assert {"spectral.lift_eigenvectors", "spectral.lift_spectrum"} <= names


def test_tracing_sees_the_spectrum_layers(tracing, dumbbell, sym3_catalog, point_stabilizer_ctx):
    # perfbench reports voltage.build_base_matrix_s, spectral.irrep_image_s,
    # spectral.eig_dense_s and spectral.lift_spectrum_self_s from these spans;
    # the last is lift_spectrum's time minus its irrep_image and eig_dense
    # children, so those must still be called through their public names.
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        base = liftspectra.build_base_matrix(dumbbell)
        liftspectra.lift_spectrum(base, sym3_catalog, point_stabilizer_ctx)
    finally:
        undo()
    names = [span[0] for span in rec.spans]
    assert names[0] == "voltage.build_base_matrix"
    assert names[1] == "spectral.lift_spectrum"
    children = {name for name, _, _, parent, _ in rec.spans if parent == 1}
    assert children == {"spectral.irrep_image", "spectral.eig_dense"}


def test_tracing_sees_the_eigenvector_layers(tracing, dumbbell_base, sym3, sym3_catalog):
    # perfbench reports spectral.lift_eigenvectors_self_s as lift_eigenvectors'
    # time minus its irrep_image and eig_dense children.  The first call on a
    # fresh context builds the pair's image source and the second reuses it;
    # both must still call those two layers through their public names.
    ctx = liftspectra.right_cosets(sym3, liftspectra.stabilizer(sym3, 1))
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        for _ in range(2):
            liftspectra.lift_eigenvectors(dumbbell_base, sym3_catalog, ctx)
    finally:
        undo()
    roots = [idx for idx, span in enumerate(rec.spans) if span[3] == -1]
    assert [rec.spans[idx][0] for idx in roots] == ["spectral.lift_eigenvectors"] * 2
    for root in roots:
        children = {name for name, _, _, parent, _ in rec.spans if parent == root}
        assert children == {"spectral.irrep_image", "spectral.eig_dense"}


def test_tracing_sees_the_setup_layers(tracing):
    # perfbench reports permgroup.right_cosets_s and
    # permgroup.conjugacy_classes_s from these spans, so setup must still
    # reach both functions through their public names.
    instances = _load("instances")
    composition = [instances.Case("S4", subgroup, 2) for subgroup in ("trivial", "stab", "full")]
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        catalogs, contexts = instances.setup(composition, irreps_seed=0)
    finally:
        undo()
    assert len(catalogs) == 1 and len(contexts) == 3
    names = [span[0] for span in rec.spans]
    assert names.count("permgroup.right_cosets") == 3
    assert "permgroup.conjugacy_classes" in names
