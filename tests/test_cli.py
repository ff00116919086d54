import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from liftspectra import NumericalError, build_lift
from liftspectra.cli import load_instance, main

from conftest import DUMBBELL_REGULAR, DUMBBELL_RELATIVE
from helpers import multiset_distance, package_env

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"
DUMBBELL = str(INSTANCES / "dumbbell.json")
DUMBBELL_TRIVIAL = str(INSTANCES / "dumbbell_regular.json")
DUMBBELL_GENERATORS = str(INSTANCES / "dumbbell_generators.json")


# Per instance: kn, then (count, provenance tags (irrep, dim, rank)) of each
# spectrum entry in output order.  Literals, so any change in how ranks are
# computed shows up here.
STABILIZER_SPECTRUM = (
    6,
    [(1, [(2, 2, 1)])] * 2
    + [(1, [(0, 1, 1)])]
    + [(1, [(2, 2, 1)])] * 2
    + [(1, [(0, 1, 1)])],
)
PINNED_SPECTRA = {
    "dumbbell.json": STABILIZER_SPECTRUM,
    "dumbbell_generators.json": STABILIZER_SPECTRUM,
    "dumbbell_regular.json": (
        12,
        [(1, [(1, 1, 1)])]
        + [(2, [(2, 2, 2)])] * 2
        + [(1, [(1, 1, 1)]), (1, [(0, 1, 1)])]
        + [(2, [(2, 2, 2)])] * 2
        + [(1, [(0, 1, 1)])],
    ),
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _dumbbell_doc():
    return {
        "group": {"kind": "named", "family": "sym3"},
        "subgroup": {"kind": "stabilizer", "point": 1},
        "graph": {
            "directed": False,
            "vertices": ["u", "v"],
            "edges": [
                {"from": "u", "to": "u", "voltage": "(2 3)"},
                {"from": "u", "to": "v", "voltage": "()"},
                {"from": "v", "to": "v", "voltage": "(1 2)"},
            ],
        },
        "options": {"seed": 0},
    }


class TestLoadInstance:
    def test_named_group_instance(self):
        doc = load_instance(DUMBBELL)
        assert doc.group.order == 6
        assert doc.ctx.index_n == 3
        assert doc.graph.k == 2

    def test_generators_group_instance(self):
        doc = load_instance(DUMBBELL_GENERATORS)
        assert doc.group.order == 6
        assert doc.irrep_set.dims == (1, 1, 2)

    def test_option_overrides(self):
        doc = load_instance(DUMBBELL, {"tol_match": 1e-5, "seed": None})
        assert doc.options.tol_match == 1e-5
        assert doc.options.seed == 0

    def test_catalog_is_built_only_by_the_commands_that_read_it(self, capsys, monkeypatch):
        import liftspectra.cli as cli_module

        def unreachable(*args, **kwargs):
            raise AssertionError("compute_irreps was called")

        monkeypatch.setattr(cli_module, "compute_irreps", unreachable)
        path = str(INSTANCES / "s4_stabilizer.json")
        code, out, err = _run(capsys, ["lift", path])
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / "s4_stabilizer.lift.out").read_bytes()
        code, out, err = _run(capsys, ["characters", path])
        assert (code, out) == (3, "")
        assert err == (
            "error: the character route computes regular-lift spectra; "
            "the subgroup must be trivial\n"
        )
        with pytest.raises(AssertionError, match="compute_irreps was called"):
            main(["spectrum", path])


class TestSpectrumCommand:
    def test_dumbbell_values(self, capsys):
        code, out, _ = _run(capsys, ["spectrum", DUMBBELL])
        assert code == 0
        payload = json.loads(out)
        assert payload["kn"] == 6
        values = [e["value"][0] for e in payload["eigenvalues"] for _ in range(e["count"])]
        assert multiset_distance(values, DUMBBELL_RELATIVE) < 1e-9
        assert all(e["value"][1] == 0.0 for e in payload["eigenvalues"])

    def test_provenance_in_payload(self, capsys):
        code, out, _ = _run(capsys, ["spectrum", DUMBBELL])
        payload = json.loads(out)
        top = max(payload["eigenvalues"], key=lambda e: e["value"][0])
        assert top["provenance"] == [{"irrep": 0, "dim": 1, "rank": 1}]

    def test_regular_instance(self, capsys):
        code, out, _ = _run(capsys, ["spectrum", DUMBBELL_TRIVIAL])
        assert code == 0
        payload = json.loads(out)
        assert payload["kn"] == 12
        values = [e["value"][0] for e in payload["eigenvalues"] for _ in range(e["count"])]
        assert multiset_distance(values, DUMBBELL_REGULAR) < 1e-9

    def test_generators_path_matches_named(self, capsys):
        code_a, out_a, _ = _run(capsys, ["spectrum", DUMBBELL])
        code_b, out_b, _ = _run(capsys, ["spectrum", DUMBBELL_GENERATORS])
        assert code_a == code_b == 0
        a = json.loads(out_a)
        b = json.loads(out_b)
        va = [e["value"][0] for e in a["eigenvalues"] for _ in range(e["count"])]
        vb = [e["value"][0] for e in b["eigenvalues"] for _ in range(e["count"])]
        assert multiset_distance(va, vb) < 1e-9

    def test_byte_identical_across_runs(self, capsys):
        _, out_a, _ = _run(capsys, ["spectrum", DUMBBELL])
        _, out_b, _ = _run(capsys, ["spectrum", DUMBBELL])
        assert out_a == out_b

    @pytest.mark.parametrize("name", sorted(PINNED_SPECTRA))
    def test_pinned_counts_and_provenance(self, capsys, name):
        code, out, _ = _run(capsys, ["spectrum", str(INSTANCES / name)])
        assert code == 0
        payload = json.loads(out)
        got = [
            (e["count"], [(p["irrep"], p["dim"], p["rank"]) for p in e["provenance"]])
            for e in payload["eigenvalues"]
        ]
        assert (payload["kn"], got) == PINNED_SPECTRA[name]

    def test_floats_roundtrip_losslessly(self, capsys):
        from liftspectra import build_base_matrix, lift_spectrum

        _, out, _ = _run(capsys, ["spectrum", DUMBBELL])
        payload = json.loads(out)
        parsed = sorted(e["value"][0] for e in payload["eigenvalues"])
        doc = load_instance(DUMBBELL)
        report = lift_spectrum(build_base_matrix(doc.graph), doc.irrep_set, doc.ctx)
        exact = sorted(e.value.real for e in report.entries)
        # Parsing the emitted text reproduces the binary doubles bit for bit.
        assert parsed == exact


class TestEigvecsCommand:
    def test_dumbbell_bundle(self, capsys):
        code, out, _ = _run(capsys, ["eigvecs", DUMBBELL])
        assert code == 0
        payload = json.loads(out)
        assert payload["kn"] == 6
        assert len(payload["selected"]) == 6
        assert len(payload["columns"]) == 12
        zero_cols = [c for c in payload["columns"] if c["zero"]]
        assert {c["irrep"] for c in zero_cols} == {1}
        for column in payload["columns"]:
            if column["selected"]:
                assert not column["zero"]
                assert len(column["vector"]) == 6


class TestLiftCommand:
    def test_edge_list_default(self, capsys):
        code, out, _ = _run(capsys, ["lift", DUMBBELL])
        assert code == 0
        lines = out.strip().splitlines()
        assert "u@0 u@0 2" in lines
        assert "u@0 v@0 1" in lines
        assert "u@1 u@2 2" in lines
        # Undirected: every line has its mirror.
        entries = {tuple(line.split()) for line in lines}
        for tail, head, mult in entries:
            assert (head, tail, mult) in entries

    def test_adjacency_json(self, capsys):
        code, out, _ = _run(capsys, ["lift", DUMBBELL, "--emit-adjacency"])
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == ["u@0", "u@1", "u@2", "v@0", "v@1", "v@2"]
        matrix = np.array(payload["adjacency"])
        assert matrix.shape == (6, 6)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(matrix.sum(axis=1) == 3)


class TestVerifyCommand:
    def test_instance_plus_trials(self, capsys):
        code, out, _ = _run(capsys, ["verify", DUMBBELL, "--trials", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        labels = [t["label"] for t in payload["trials"]]
        assert labels == ["instance", "random-0", "random-1"]
        for trial in payload["trials"]:
            assert trial["passed"] is True
            assert trial["spectral_distance"] < 1e-7
            assert trial["max_residual"] < 1e-8

    def test_zero_trials_checks_instance_only(self, capsys):
        code, out, _ = _run(capsys, ["verify", DUMBBELL, "--trials", "0"])
        assert code == 0
        payload = json.loads(out)
        assert [t["label"] for t in payload["trials"]] == ["instance"]

    def test_trials_deterministic_for_fixed_seed(self, capsys):
        _, out_a, _ = _run(capsys, ["verify", DUMBBELL, "--trials", "3"])
        _, out_b, _ = _run(capsys, ["verify", DUMBBELL, "--trials", "3"])
        assert out_a == out_b

    def test_negative_trials_rejected(self, capsys):
        code, _, err = _run(capsys, ["verify", DUMBBELL, "--trials", "-1"])
        assert code == 2
        assert "trials" in err

    def test_negative_trials_refused_before_the_document_is_loaded(self, capsys, monkeypatch):
        import liftspectra.cli as cli_module

        def unreachable(*args, **kwargs):
            raise AssertionError("load_instance was called")

        monkeypatch.setattr(cli_module, "load_instance", unreachable)
        code, out, err = _run(capsys, ["verify", DUMBBELL, "--trials", "-1"])
        assert (code, out, err) == (2, "", "error: --trials must be non-negative\n")


def _s4_cycle_doc(k):
    """S4 over its trivial subgroup on a k-cycle: a lift of 24k vertices."""
    vertices = [f"v{i}" for i in range(k)]
    edges = [
        {"from": vertices[i], "to": vertices[(i + 1) % k], "voltage": "(1 2 3 4)"}
        for i in range(k)
    ]
    return {
        "group": {"kind": "generators", "degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]},
        "subgroup": {"kind": "trivial"},
        "graph": {"directed": False, "vertices": vertices, "edges": edges},
    }


@pytest.mark.parametrize("command", ["lift", "verify"])
def test_lift_too_large_to_build_densely_exits_three(tmp_path, capsys, command):
    # 72,000 lift vertices: the dense adjacency alone would take 38.6 GiB.
    path = _write_instance(tmp_path, _s4_cycle_doc(3000))
    code, out, err = _run(capsys, [command, path])
    assert (code, out) == (3, "")
    assert err == (
        "error: build_lift: the lift has k*n = 3000*24 = 72000 vertices, above "
        "MAX_LIFT_VERTICES = 8192, the most built as a dense matrix\n"
    )


class TestCharactersCommand:
    def test_regular_dumbbell(self, capsys):
        code, out, _ = _run(capsys, ["characters", DUMBBELL_TRIVIAL])
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 12
        values = [complex(re, im) for re, im in payload["spectrum"]]
        assert multiset_distance(values, DUMBBELL_REGULAR) < 1e-7
        plane = payload["irreps"][2]
        sums = [round(re) for re, _ in plane["power_sums"]]
        assert sums == [0, 20, 0, 116]

    def test_nontrivial_subgroup_rejected(self, capsys):
        code, _, err = _run(capsys, ["characters", DUMBBELL])
        assert code == 3
        assert "trivial" in err

    def test_directed_instance_allowed(self, tmp_path, capsys):
        doc = {
            "group": {"kind": "named", "family": "cyclic", "param": 3},
            "subgroup": {"kind": "trivial"},
            "graph": {
                "directed": True,
                "vertices": ["a", "b"],
                "edges": [
                    {"from": "a", "to": "b", "voltage": "(1 2 3)"},
                    {"from": "b", "to": "a", "voltage": "()"},
                ],
            },
        }
        path = _write_instance(tmp_path, doc)
        code, out, _ = _run(capsys, ["characters", path])
        assert code == 0
        assert json.loads(out)["total"] == 6

    def test_degree_above_the_newton_cap_is_refused(self, tmp_path, capsys):
        # The dihedral plane irrep on a 17-vertex path needs 34 power sums.
        vertices = [f"v{i}" for i in range(17)]
        edges = [{"from": a, "to": b, "voltage": "()"} for a, b in zip(vertices, vertices[1:])]
        edges.append({"from": "v0", "to": "v0", "voltage": "(1 2 3)"})
        doc = {
            "group": {"kind": "named", "family": "dihedral", "param": 3},
            "subgroup": {"kind": "trivial"},
            "graph": {"vertices": vertices, "edges": edges},
        }
        code, out, err = _run(capsys, ["characters", _write_instance(tmp_path, doc)])
        assert code == 3
        assert out == ""
        assert err == (
            "error: character spectrum: irrep 2 (2-dimensional) needs dim*k = 34 power "
            "sums, above MAX_NEWTON_DEGREE = 32; use the blockwise spectral route\n"
        )


class TestIrrepsCommand:
    def test_summary(self, capsys):
        code, out, _ = _run(capsys, ["irreps", DUMBBELL])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"group_order": 6, "dims": [1, 1, 2]}

    def test_dump_roundtrips_homomorphism(self, capsys):
        code, out, _ = _run(capsys, ["irreps", DUMBBELL, "--dump"])
        assert code == 0
        payload = json.loads(out)
        plane = payload["irreps"][2]
        assert plane["dim"] == 2
        mats = {
            key: np.array([[complex(re, im) for re, im in row] for row in rows])
            for key, rows in plane["matrices"].items()
        }
        # Spot-check the homomorphism on the dumped matrices.
        product = mats["(2 3)"] @ mats["(1 2)"]
        assert np.max(np.abs(product - mats["(1 2 3)"])) < 1e-12


class TestExitCodes:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = _run(capsys, ["spectrum", str(path)])
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["spectrum", "/nonexistent/nowhere.json"])
        assert code == 2

    def test_bad_cycle_notation(self, tmp_path, capsys):
        doc = _dumbbell_doc()
        doc["graph"]["edges"][0]["voltage"] = "(1 2"
        code, _, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert code == 2
        assert "malformed" in err

    def test_missing_required_key(self, tmp_path, capsys):
        doc = _dumbbell_doc()
        del doc["graph"]
        code, _, _ = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert code == 2

    def test_unknown_family(self, tmp_path, capsys):
        doc = _dumbbell_doc()
        doc["group"] = {"kind": "named", "family": "sporadic"}
        code, _, _ = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert code == 2

    def test_voltage_outside_group(self, tmp_path, capsys):
        doc = _dumbbell_doc()
        doc["graph"]["edges"][0]["voltage"] = "(1 2 3 4)"
        code, _, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert code == 2
        assert "outside" in err or "malformed" in err

    def test_permutation_not_in_group(self, tmp_path, capsys):
        doc = _dumbbell_doc()
        doc["group"] = {
            "kind": "generators",
            "degree": 3,
            "generators": ["(1 2 3)"],
        }
        # (1 2) is a degree-3 permutation but not in the cyclic group.
        code, _, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert code == 3
        assert "not an element" in err

    def test_directed_rejected_outside_characters(self, tmp_path, capsys):
        doc = _dumbbell_doc()
        doc["subgroup"] = {"kind": "trivial"}
        doc["graph"]["directed"] = True
        for command in ("spectrum", "eigvecs", "lift", "verify"):
            code, _, err = _run(capsys, [command, _write_instance(tmp_path, doc)])
            assert code == 3
            assert "undirected" in err

    def test_tol_rank_flag_removed(self, capsys):
        # Ranks are exact projector traces, so there is no rank tolerance to set.
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", DUMBBELL, "--tol-rank", "1e-9"])
        assert exc.value.code == 2
        assert "--tol-rank" in capsys.readouterr().err

    def test_unknown_option_key(self, tmp_path, capsys):
        # A misspelt or retired option must not fall back to its default.
        doc = _dumbbell_doc()
        doc["options"] = {"seed": 0, "tol_rank": 1e-9}
        code, out, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert code == 2
        assert out == ""
        assert "tol_rank" in err

    @pytest.mark.parametrize("key", ["tol_match", "tol_residual"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_tolerance_that_disables_its_check_refused(self, tmp_path, capsys, key, value):
        # NaN never compares true and an infinite tolerance accepts anything:
        # both would run the command with its check switched off.
        doc = _dumbbell_doc()
        doc["options"] = {key: value}
        code, out, err = _run(capsys, ["eigvecs", _write_instance(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert key in err
        flag = "--" + key.replace("_", "-")
        code, out, err = _run(capsys, ["eigvecs", DUMBBELL, f"{flag}={value!r}"])
        assert (code, out) == (2, "")
        assert key in err

    @pytest.mark.parametrize("key", ["seed", "order_cap"])
    @pytest.mark.parametrize("value", [1.7, 1.0])
    def test_integer_option_must_be_json_integer(self, tmp_path, capsys, key, value):
        doc = _dumbbell_doc()
        doc["options"] = {key: value}
        code, out, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert f"options.{key} must be an integer" in err

    def test_negative_seed_refused(self, tmp_path, capsys):
        doc = _dumbbell_doc()
        doc["options"] = {"seed": -1}
        code, out, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert "seed" in err
        code, out, _ = _run(capsys, ["spectrum", DUMBBELL_GENERATORS, "--seed", "-1"])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("order_cap", [-5, 0])
    @pytest.mark.parametrize("generators", [[], ["(1 2)"]])
    def test_order_cap_below_one_refused(self, tmp_path, capsys, order_cap, generators):
        doc = _dumbbell_doc()
        doc["group"] = {"kind": "generators", "degree": 3, "generators": generators}
        doc["subgroup"] = {"kind": "trivial"}
        doc["graph"]["edges"] = [{"from": "u", "to": "v", "voltage": "()"}]
        doc["options"] = {"order_cap": order_cap}
        code, out, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == f"error: order_cap must be a positive integer, got {order_cap}\n"

    def test_order_cap_exceeded(self, tmp_path, capsys):
        doc = _dumbbell_doc()
        doc["group"] = {
            "kind": "generators",
            "degree": 3,
            "generators": ["(2 3)", "(1 2)"],
        }
        doc["options"] = {"seed": 0, "order_cap": 4}
        code, _, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
        assert code == 3
        assert "order_cap" in err

    @pytest.mark.parametrize(
        "options, named, unnamed",
        [
            ({}, "MAX_COMPUTED_ORDER", "order_cap"),
            ({"order_cap": 2000}, "MAX_COMPUTED_ORDER", "order_cap"),
            ({"order_cap": 500}, "order_cap", "MAX_COMPUTED_ORDER"),
        ],
    )
    def test_oversize_group_refused_during_closure(
        self, tmp_path, capsys, options, named, unnamed
    ):
        # S7 has order 5040, above compute_irreps' limit of 1000; its
        # multiplication table alone would take 203 MB.
        doc = _dumbbell_doc()
        doc["group"] = {
            "kind": "generators",
            "degree": 7,
            "generators": ["(1 2)", "(1 2 3 4 5 6 7)"],
        }
        doc["options"] = options
        path = _write_instance(tmp_path, doc)
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, ["spectrum", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert named in err and unnamed not in err
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("order_cap, code", [(150, 3), (200, 0)])
    def test_named_group_above_order_cap_refused_before_its_tables(
        self, tmp_path, capsys, order_cap, code
    ):
        # dihedral 100 has order 200.  Refused, it builds neither its group
        # table nor its catalog.
        doc = {
            "group": {"kind": "named", "family": "dihedral", "param": 100},
            "subgroup": {"kind": "trivial"},
            "graph": {"vertices": ["u"], "edges": [{"from": "u", "to": "u", "voltage": "()"}]},
            "options": {"order_cap": order_cap},
        }
        path = _write_instance(tmp_path, doc)
        tracemalloc.start()
        try:
            got, out, err = _run(capsys, ["irreps", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == code
        if code:
            assert out == ""
            assert err == (
                "error: named group dihedral 100 has order 200, above order_cap=150\n"
            )
            assert peak < 2**20
        else:
            assert json.loads(out)["group_order"] == 200

    def test_numerical_error_maps_to_four(self, tmp_path, capsys, monkeypatch):
        import liftspectra.cli as cli_module

        def boom(doc, args):
            raise NumericalError("synthetic numerical failure")

        monkeypatch.setattr(cli_module, "cmd_spectrum", boom)
        code, _, err = _run(capsys, ["spectrum", DUMBBELL])
        assert code == 4
        assert "synthetic" in err

    def test_verify_failure_exit_one(self, tmp_path, capsys, monkeypatch):
        # Force the oracle to report a mismatch so verify returns 1.
        import liftspectra.spectral as spectral_module
        from liftspectra import OracleReport

        def fake_oracle(graph, irrep_set, ctx, match_tol=1e-7, residual_tol=1e-8):
            return OracleReport(
                passed=False,
                spectral_distance=1.0,
                max_residual=0.0,
                kn=6,
                selected_count=6,
            )

        monkeypatch.setattr(spectral_module, "verify_against_oracle", fake_oracle)
        code, out, _ = _run(capsys, ["verify", DUMBBELL, "--trials", "0"])
        assert code == 1
        assert json.loads(out)["passed"] is False


def test_degree_above_the_cap_is_refused_before_any_permutation_is_parsed(tmp_path, capsys):
    # Each permutation would be parsed into a list of 10^9 points (8 GB).
    doc = _dumbbell_doc()
    doc["group"] = {"kind": "generators", "degree": 10**9, "generators": ["(1 2)", "(2 3)"]}
    code, out, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
    assert (code, out) == (3, "")
    assert err == (
        "error: group.degree 1000000000 is above MAX_DEGREE = 1000; "
        "a group whose irreps are computed acts faithfully on that many points\n"
    )


def test_degree_at_the_cap_is_accepted(tmp_path):
    doc = _dumbbell_doc()
    doc["group"] = {"kind": "generators", "degree": 1000, "generators": ["(1 2)", "(2 3)"]}
    loaded = load_instance(_write_instance(tmp_path, doc))
    assert (loaded.group.degree, loaded.group.order) == (1000, 6)


@pytest.mark.parametrize("command", ["spectrum", "eigvecs", "characters"])
def test_image_wider_than_the_cap_exits_three(tmp_path, capsys, command):
    # A 4097-vertex path over the trivial group: its one image is 4097 wide.
    k = 4097
    vertices = [f"v{i}" for i in range(k)]
    doc = {
        "group": {"kind": "named", "family": "cyclic", "param": 1},
        "subgroup": {"kind": "trivial"},
        "graph": {
            "vertices": vertices,
            "edges": [
                {"from": u, "to": v, "voltage": "()"} for u, v in zip(vertices, vertices[1:])
            ],
        },
    }
    code, out, err = _run(capsys, [command, _write_instance(tmp_path, doc)])
    assert (code, out) == (3, "")
    assert err == (
        "error: irrep image of a 1-dimensional irrep on k = 4097 base vertices is "
        "d*k = 4097 wide, above MAX_IMAGE_WIDTH = 4096\n"
    )


def _dumbbell_with(path, value):
    """The dumbbell document with the entry at ``path``, a tuple of keys, replaced."""
    if not path:
        return value
    doc = _dumbbell_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# (where, value, exit code, text the message must contain) for document
# paths that no other CLI test loads.
MALFORMED_DOCUMENTS = [
    ((), [1, 2], 2, "instance document must be a JSON object"),
    (("options",), [0], 2, "options must be a JSON object"),
    (("options",), {"seed": "0"}, 2, "options.seed must be a number"),
    (("group",), {"kind": "generators", "degree": True, "generators": []}, 2, "group.degree"),
    (("group",), {"kind": "generators", "degree": 0, "generators": []}, 2, "group.degree"),
    (("group",), {"kind": "generators", "degree": 3, "generators": [12]}, 2, "group.generators"),
    (("group",), {"kind": "named", "family": "cyclic", "param": 0}, 2, "group.param"),
    (("group",), {"kind": "named", "family": "cyclic", "param": "3"}, 2, "group.param"),
    (("group",), {"kind": "named", "family": "cyclic", "param": True}, 2, "group.param"),
    (("graph", "directed"), "yes", 2, "graph.directed"),
    (("graph", "vertices"), ["u", 2], 2, "graph.vertices"),
    (("subgroup",), {"kind": "coset"}, 2, "subgroup.kind"),
    (("subgroup",), {"kind": "generators", "generators": [3]}, 2, "subgroup.generators"),
]


@pytest.mark.parametrize(
    "where, value, code, text",
    MALFORMED_DOCUMENTS,
    ids=[f"{'.'.join(w) or 'document'}-{i}" for i, (w, *_) in enumerate(MALFORMED_DOCUMENTS)],
)
def test_malformed_document_names_its_key(tmp_path, capsys, where, value, code, text):
    path = _write_instance(tmp_path, _dumbbell_with(where, value))
    got, out, err = _run(capsys, ["spectrum", path])
    assert (got, out) == (code, "")
    assert text in err


def test_subgroup_generator_outside_the_group(tmp_path, capsys):
    doc = _dumbbell_doc()
    doc["group"] = {"kind": "named", "family": "cyclic", "param": 3}
    doc["subgroup"] = {"kind": "generators", "generators": ["(1 2)"]}
    code, out, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
    assert (code, out) == (3, "")
    assert err == "error: (1 2) is not an element of the group\n"


@pytest.mark.parametrize(
    "subgroup, index",
    [({"kind": "full"}, 1), ({"kind": "generators", "generators": ["(1 2 3)"]}, 2)],
    ids=["full", "generators"],
)
def test_spectrum_over_full_and_generated_subgroups(tmp_path, capsys, subgroup, index):
    doc = _dumbbell_doc()
    doc["subgroup"] = subgroup
    path = _write_instance(tmp_path, doc)
    code, out, _ = _run(capsys, ["spectrum", path])
    assert code == 0
    payload = json.loads(out)
    values = [e["value"][0] for e in payload["eigenvalues"] for _ in range(e["count"])]
    loaded = load_instance(path)
    assert loaded.ctx.index_n == index
    lift = build_lift(loaded.graph, loaded.ctx).adjacency.astype(float)
    assert payload["kn"] == 2 * index
    assert multiset_distance(values, np.linalg.eigvalsh(lift)) < 1e-9


def test_spectrum_of_the_named_cyclic_1000_cycle_graph(tmp_path, capsys):
    # One vertex with one undirected loop on the 1000-cycle lifts to the
    # cycle graph C_1000.  With unreduced phases its images failed the
    # Hermitian test, and the command exited 4.
    m = 1000
    doc = {
        "group": {"kind": "named", "family": "cyclic", "param": m},
        "subgroup": {"kind": "trivial"},
        "graph": {
            "directed": False,
            "vertices": ["a"],
            "edges": [
                {"from": "a", "to": "a", "voltage": f"({' '.join(map(str, range(1, m + 1)))})"}
            ],
        },
    }
    code, out, err = _run(capsys, ["spectrum", _write_instance(tmp_path, doc)])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    values = [e["value"][0] for e in payload["eigenvalues"] for _ in range(e["count"])]
    assert payload["kn"] == m
    assert multiset_distance(values, 2 * np.cos(2 * np.pi * np.arange(m) / m)) < 1e-12


def _fresh_modules(package: str) -> list[str]:
    """The modules of ``package`` that a fresh ``import liftspectra.cli`` loads."""
    probe = (
        "import sys, liftspectra.cli, json; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(result.stdout)


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is a test-only dependency; a fresh CLI process must not pay
        # for importing it.
        assert _fresh_modules("scipy") == []

    def test_cli_import_leaves_spectral_and_characters_unloaded(self):
        # The commands that run them import them; lift, irreps and refused
        # calls never pay for either.
        assert _fresh_modules("liftspectra") == [
            "liftspectra",
            "liftspectra.cli",
            "liftspectra.errors",
            "liftspectra.irreps",
            "liftspectra.permgroup",
            "liftspectra.voltage",
        ]

    def test_option_defaults_are_the_library_defaults(self):
        # ``cli`` spells the defaults as literals, since it must not import
        # ``spectral`` at start-up; they stay the library's own.
        from liftspectra import cli, permgroup, spectral

        assert cli.Options() == cli.Options(
            tol_match=spectral.DEFAULT_MATCH_TOL,
            tol_residual=spectral.DEFAULT_RESIDUAL_TOL,
            order_cap=permgroup.DEFAULT_ORDER_CAP,
        )
