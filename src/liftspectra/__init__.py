"""Spectra and eigenspace bases of voltage-graph lifts.

The package computes complete spectra and tagged eigenvector bases of graph
lifts defined by permutation voltage assignments, working blockwise through
the irreducible representations of the voltage group instead of building the
lift, plus a character-and-trace route for regular lifts that also covers
directed base graphs.  Everything is cross-checkable against explicitly
constructed lifts.
"""

import importlib

# The submodule that defines each public name.  A name is imported on its
# first read and then bound here (PEP 562), so a process loads only the
# submodules it uses: ``import liftspectra.cli`` loads neither ``spectral``
# nor ``characters``.
_HOME = {
    **dict.fromkeys(("ConsistencyError", "NumericalError", "ParseError"), "errors"),
    **dict.fromkeys(
        (
            "ConjugacyClass",
            "FiniteGroup",
            "Permutation",
            "SubgroupContext",
            "conjugacy_classes",
            "generate_group",
            "is_normal",
            "is_regular_action",
            "is_transitive",
            "parse_permutation",
            "right_cosets",
            "stabilizer",
            "subgroup_closure",
        ),
        "permgroup",
    ),
    **dict.fromkeys(
        (
            "Irrep",
            "IrrepSet",
            "SubgroupSumImage",
            "builtin_irreps",
            "compute_irreps",
            "subgroup_sum",
            "verify_character_orthogonality",
            "verify_great_orthogonality",
            "verify_rank_identity",
        ),
        "irreps",
    ),
    **dict.fromkeys(
        (
            "Arc",
            "BaseMatrix",
            "GroupAlgebraElement",
            "LiftGraph",
            "VoltageGraph",
            "base_matrix_power",
            "build_base_matrix",
            "build_lift",
            "local_group_is_transitive",
            "randomize_voltages",
        ),
        "voltage",
    ),
    **dict.fromkeys(
        (
            "EigenvectorBundle",
            "EigenvectorColumn",
            "IrrepColumns",
            "IrrepImage",
            "OracleReport",
            "SpectrumEntry",
            "SpectrumReport",
            "eig_dense",
            "irrep_image",
            "lift_eigenvectors",
            "lift_spectrum",
            "verify_against_oracle",
        ),
        "spectral",
    ),
    **dict.fromkeys(
        (
            "CharacterSpectrum",
            "PowerSumProfile",
            "apply_character",
            "power_sums_to_roots",
            "regular_spectrum_via_characters",
        ),
        "characters",
    ),
}
_SUBMODULES = frozenset(_HOME.values())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})


__version__ = "0.1.0"

__all__ = sorted(_HOME)
