"""The package's public names, pinned so that any export change shows in review."""

import liftspectra

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
