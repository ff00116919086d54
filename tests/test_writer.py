"""The CLI writer: the bytes of ``json.dumps(to_json(), indent=2)``, written from the arrays."""

import contextlib
import io
import json
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import liftspectra
import liftspectra.cli as cli
from liftspectra import (
    CharacterSpectrum,
    EigenvectorBundle,
    IrrepColumns,
    LiftGraph,
    OracleReport,
    PowerSumProfile,
    SpectrumReport,
    build_base_matrix,
    lift_eigenvectors,
)
from liftspectra.cli import load_instance

from helpers import package_env

# Every float ``json`` writes in its own way, and a few ordinary ones.
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
COMPLEX = st.builds(complex, FLOATS, FLOATS)
INTS = st.integers(-(2**70), 2**70)
LABELS = st.text(st.characters(codec="utf-8"), max_size=4)


def complex_arrays(*shape):
    size = int(np.prod(shape))
    return st.lists(COMPLEX, min_size=size, max_size=size).map(
        lambda values: np.array(values, dtype=complex).reshape(shape)
    )


def _written(document) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(document)
    return out.getvalue()


@st.composite
def spectrum_reports(draw):
    size = draw(st.integers(0, 4))
    return SpectrumReport(
        values=draw(complex_arrays(size)),
        counts=np.array(
            draw(st.lists(st.integers(0, 2**62), min_size=size, max_size=size)), dtype=np.int64
        ),
        provenance=tuple(
            tuple(draw(st.lists(st.tuples(INTS, INTS, INTS), max_size=2))) for _ in range(size)
        ),
        total=draw(INTS),
    )


@st.composite
def eigenvector_bundles(draw):
    kn = draw(st.integers(0, 3))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(1, 2))
        dk = draw(st.integers(0, 2))
        zero = draw(st.lists(st.booleans(), min_size=d * dk, max_size=d * dk))
        blocks.append(
            IrrepColumns(
                dim=d,
                pulled=draw(complex_arrays(kn, d * dk)),
                eigenvalues=draw(complex_arrays(dk)),
                picked=tuple(draw(st.sets(st.integers(0, d - 1)))),
                zero=np.array(zero, dtype=bool),
            )
        )
    selected = tuple(draw(st.lists(st.integers(0, 20), max_size=4)))
    return EigenvectorBundle(blocks=tuple(blocks), selected_basis=selected, kn=kn)


@st.composite
def character_spectra(draw):
    profiles = []
    roots = []
    for irrep in range(draw(st.integers(0, 3))):
        profiles.append(
            PowerSumProfile(
                irrep=irrep,
                dim=draw(st.integers(1, 3)),
                power_sums=tuple(draw(st.lists(COMPLEX, max_size=3))),
            )
        )
        roots.append(draw(complex_arrays(draw(st.integers(0, 3)))))
    return CharacterSpectrum(
        profiles=tuple(profiles),
        roots_by_irrep=tuple(roots),
        spectrum=draw(complex_arrays(draw(st.integers(0, 4)))),
        total=draw(INTS),
    )


ORACLE_REPORTS = st.builds(OracleReport, st.booleans(), FLOATS, FLOATS, INTS, INTS)


@st.composite
def lift_graphs(draw):
    labels = draw(st.lists(st.tuples(LABELS, st.integers(0, 9)), max_size=4))
    n = len(labels)
    adjacency = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    return LiftGraph(
        vertex_labels=tuple(labels),
        adjacency=np.array(adjacency, dtype=np.int64).reshape(n, n),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        spectrum_reports(),
        eigenvector_bundles(),
        character_spectra(),
        ORACLE_REPORTS,
        lift_graphs(),
    )
)
def test_writer_bytes_equal_the_indented_json_of_to_json(result):
    assert _written(result._document()) == json.dumps(result.to_json(), indent=2) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lift_graphs())
def test_edge_lines_are_written_as_printed(lift):
    # One line each, and nothing for a lift without edges, as ``print`` per line wrote.
    doc = SimpleNamespace(graph=SimpleNamespace(directed=False), ctx=None)
    out = io.StringIO()
    with mock.patch.object(cli, "build_lift", lambda graph, ctx: lift):
        with contextlib.redirect_stdout(out):
            assert cli.cmd_lift(doc, SimpleNamespace(emit_adjacency=False)) == 0
    assert out.getvalue() == "".join(f"{line}\n" for line in lift.edge_lines())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(
        LABELS,
        st.one_of(complex_arrays(2, 2), complex_arrays(0, 3), complex_arrays(2, 0), COMPLEX),
        max_size=3,
    ),
    st.lists(ORACLE_REPORTS, max_size=2),
)
def test_command_documents_with_nested_arrays(matrices, reports):
    # The irreps --dump and verify documents are put together in the CLI.
    document = {
        "group_order": len(matrices),
        "irreps": [{"dim": 2, "matrices": matrices}],
        "trials": [{"label": "ü", **report._document()} for report in reports],
    }
    listed = liftspectra.voltage._json_value(document)
    assert _written(document) == json.dumps(listed, indent=2) + "\n"


def test_eigvecs_through_a_pipe(tmp_path):
    # The output (about 0.4 MB) passes the stdout buffer and the pipe many times over.
    doc = {
        "group": {"kind": "generators", "degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]},
        "subgroup": {"kind": "trivial"},
        "graph": {
            "directed": False,
            "vertices": ["a", "b", "c"],
            "edges": [
                {"from": "a", "to": "b", "voltage": "(1 2 3 4)"},
                {"from": "b", "to": "c", "voltage": "(1 2)"},
                {"from": "c", "to": "a", "voltage": "(2 3)"},
                {"from": "a", "to": "a", "voltage": "(1 3)(2 4)"},
            ],
        },
    }
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "liftspectra.cli", "eigvecs", str(path)],
        env=package_env(),
        capture_output=True,
        timeout=120,
        check=True,
    )
    loaded = load_instance(str(path))
    bundle = lift_eigenvectors(build_base_matrix(loaded.graph), loaded.irrep_set, loaded.ctx)
    want = json.dumps(bundle.to_json(), indent=2) + "\n"
    assert len(want) > 300_000
    assert result.stdout == want.encode()
