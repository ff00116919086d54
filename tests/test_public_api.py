"""The package's public names and signatures, pinned so that any change shows in review."""

import inspect
import json
import subprocess
import sys

import liftspectra

from helpers import package_env

PUBLIC_NAMES = [
    "Arc",
    "BaseMatrix",
    "CharacterSpectrum",
    "ConjugacyClass",
    "ConsistencyError",
    "EigenvectorBundle",
    "EigenvectorColumn",
    "FiniteGroup",
    "GroupAlgebraElement",
    "Irrep",
    "IrrepColumns",
    "IrrepImage",
    "IrrepSet",
    "LiftGraph",
    "NumericalError",
    "OracleReport",
    "ParseError",
    "Permutation",
    "PowerSumProfile",
    "SpectrumEntry",
    "SpectrumReport",
    "SubgroupContext",
    "SubgroupSumImage",
    "VoltageGraph",
    "apply_character",
    "base_matrix_power",
    "build_base_matrix",
    "build_lift",
    "builtin_irreps",
    "compute_irreps",
    "conjugacy_classes",
    "eig_dense",
    "generate_group",
    "irrep_image",
    "is_normal",
    "is_regular_action",
    "is_transitive",
    "lift_eigenvectors",
    "lift_spectrum",
    "local_group_is_transitive",
    "parse_permutation",
    "power_sums_to_roots",
    "randomize_voltages",
    "regular_spectrum_via_characters",
    "right_cosets",
    "stabilizer",
    "subgroup_closure",
    "subgroup_sum",
    "verify_against_oracle",
    "verify_character_orthogonality",
    "verify_great_orthogonality",
    "verify_rank_identity",
]


def test_exports_match_the_pinned_list():
    assert sorted(liftspectra.__all__) == PUBLIC_NAMES


def test_every_export_resolves():
    for name in liftspectra.__all__:
        assert getattr(liftspectra, name) is not None


# Run in a fresh process, where nothing but the package itself is loaded yet.
LAZY_PROBE = """
import json, sys
import liftspectra

def loaded():
    return sorted(m for m in sys.modules if m.startswith("liftspectra."))

report = {"after_import": loaded()}
report["spectral_is_module"] = liftspectra.spectral is sys.modules["liftspectra.spectral"]
report["after_spectral"] = loaded()
namespace = {}
exec("from liftspectra import *", namespace)
report["star_binds_all"] = all(name in namespace for name in liftspectra.__all__)
report["same_objects"] = all(
    namespace[name] is getattr(liftspectra, name)
    and namespace[name] is getattr(sys.modules[namespace[name].__module__], name)
    for name in liftspectra.__all__
)
report["exports_in_dir"] = set(liftspectra.__all__) <= set(dir(liftspectra))
try:
    liftspectra.no_such_name
except AttributeError as exc:
    report["missing"] = str(exc)
print(json.dumps(report))
"""


def test_a_plain_import_loads_submodules_on_first_read():
    result = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE],
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(result.stdout) == {
        "after_import": [],
        "spectral_is_module": True,
        # spectral's own imports, and nothing of characters.
        "after_spectral": [
            "liftspectra.errors",
            "liftspectra.irreps",
            "liftspectra.permgroup",
            "liftspectra.spectral",
            "liftspectra.voltage",
        ],
        "star_binds_all": True,
        "same_objects": True,
        "exports_in_dir": True,
        "missing": "module 'liftspectra' has no attribute 'no_such_name'",
    }


# Parameter names and defaults of every exported function, and of every
# public method defined on an exported class, as ``_parameters`` writes them.
PUBLIC_SIGNATURES = {
    "BaseMatrix.entry": "self, u, v",
    "BaseMatrix.trace": "self",
    "CharacterSpectrum.to_json": "self",
    "EigenvectorBundle.matrix": "self",
    "EigenvectorBundle.to_json": "self",
    "FiniteGroup.index_of": "self, perm",
    "FiniteGroup.inv": "self, a",
    "FiniteGroup.mul": "self, a, b",
    "GroupAlgebraElement.coefficient": "self, index",
    "GroupAlgebraElement.from_element": "cls, group, index, coefficient=1.0",
    "GroupAlgebraElement.integer_coefficients": "self",
    "GroupAlgebraElement.zero": "cls, group",
    "LiftGraph.edge_lines": "self",
    "LiftGraph.label_strings": "self",
    "LiftGraph.to_json": "self",
    "OracleReport.to_json": "self",
    "Permutation.apply": "self, point",
    "Permutation.cycle_string": "self",
    "Permutation.cycles": "self",
    "Permutation.identity": "cls, degree",
    "Permutation.inverse": "self",
    "Permutation.is_identity": "self",
    "Permutation.sign": "self",
    "SpectrumReport.expand": "self",
    "SpectrumReport.to_json": "self",
    "VoltageGraph.build": "cls, group, vertices, edges, directed=False",
    "VoltageGraph.edge_triples": "self",
    "apply_character": "character, element",
    "base_matrix_power": "base, power",
    "build_base_matrix": "graph",
    "build_lift": "graph, ctx",
    "builtin_irreps": "name, param=1",
    "compute_irreps": "group, seed=0",
    "conjugacy_classes": "group",
    "eig_dense": "matrix, hermitian_hint=False",
    "generate_group": "generators, order_cap=10080, degree=None",
    "irrep_image": "base, irrep",
    "is_normal": "ctx",
    "is_regular_action": "group",
    "is_transitive": "group",
    "lift_eigenvectors": "base, irrep_set, ctx, residual_tol=1e-08",
    "lift_spectrum": "base, irrep_set, ctx, match_tol=1e-07",
    "local_group_is_transitive": "graph, group",
    "parse_permutation": "text, degree",
    "power_sums_to_roots": "sums",
    "randomize_voltages": "graph, rng",
    "regular_spectrum_via_characters": "base, irrep_set",
    "right_cosets": "group, subgroup_elements",
    "stabilizer": "group, point",
    "subgroup_closure": "group, gen_indices",
    "subgroup_sum": "irrep, ctx",
    "verify_against_oracle": "graph, irrep_set, ctx, match_tol=1e-07, residual_tol=1e-08",
    "verify_character_orthogonality": "irrep_set, tol=1e-08",
    "verify_great_orthogonality": "irrep_set, tol=1e-08",
    "verify_rank_identity": "irrep_set, ctx",
}


def _parameters(fn) -> str:
    parts = []
    for p in inspect.signature(fn).parameters.values():
        text = {p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "") + p.name
        if p.default is not p.empty:
            text += f"={p.default!r}"
        parts.append(text)
    return ", ".join(parts)


def _public_signatures() -> dict[str, str]:
    found = {}
    for name in liftspectra.__all__:
        obj = getattr(liftspectra, name)
        if inspect.isfunction(obj):
            found[name] = _parameters(obj)
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                if not attr.startswith("_") and inspect.isfunction(value):
                    found[f"{name}.{attr}"] = _parameters(value)
    return found


def test_signatures_match_the_pinned_map():
    assert _public_signatures() == PUBLIC_SIGNATURES
