"""Regular-lift spectra from characters and base-matrix traces alone.

For a regular lift the eigenvalue multiset contributed by a ``d``-dimensional
irrep is determined by the power sums ``p_l = chi(tr(B^l))`` for ``l`` up to
``d * k``: Newton's identities convert them to a monic polynomial whose roots
are the block eigenvalues, each entering the lift ``d`` times.  This needs
only traces of base-matrix powers, never the irrep matrices, so it also
covers directed base graphs where the blockwise route does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, NumericalError
from .irreps import IrrepSet
from .spectral import _check_image_width, eig_dense, irrep_image, is_hermitian
from .voltage import BaseMatrix, GroupAlgebraElement, _json_value, _powers

MAX_NEWTON_DEGREE = 32
ROUNDTRIP_TOL = 1e-8


def apply_character(character, element: GroupAlgebraElement) -> complex:
    """Extend a character linearly to a group-algebra element.

    ``character`` is indexable by canonical element index (an irrep's
    ``character`` array works directly).
    """
    return complex(
        sum(c * complex(character[g]) for g, c in element.coefficients.items())
    )


def _kahan_sum(values) -> complex:
    total = 0j
    compensation = 0j
    for value in values:
        y = value - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    return total


def power_sums_to_roots(sums) -> np.ndarray:
    """Recover a root multiset of size ``degree = len(sums)`` from its power sums.

    Newton's identities (with compensated summation) turn the power sums into
    elementary symmetric polynomials, hence into a monic polynomial whose
    companion matrix is eigendecomposed.  The recovered roots are verified by
    reproducing every power sum within ``ROUNDTRIP_TOL * max(1, |p_l|)``.
    They come back sorted ascending by (real, imaginary), as
    :func:`eig_dense` returns them.

    Degrees above 32 are refused: the identities become too ill-conditioned,
    and the blockwise spectral route should be used instead.
    """
    sums = [complex(s) for s in sums]
    degree = len(sums)
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    if degree > MAX_NEWTON_DEGREE:
        raise ValueError(
            f"degree {degree} exceeds {MAX_NEWTON_DEGREE}; use the blockwise "
            "spectral route for large blocks"
        )

    elementary = [1.0 + 0j]
    for i in range(1, degree + 1):
        terms = (
            ((-1) ** (j - 1)) * elementary[i - j] * sums[j - 1] for j in range(1, i + 1)
        )
        elementary.append(_kahan_sum(terms) / i)

    if degree == 1:
        # A 1 x 1 companion holds -(-e1): a real e1 would gain imaginary part -0.0.
        roots = np.array([elementary[1]])
    else:
        # Monic coefficients: x^m - e1 x^(m-1) + e2 x^(m-2) - ...
        coeffs = np.array(
            [((-1) ** (degree - i)) * elementary[degree - i] for i in range(degree)]
        )
        companion = np.zeros((degree, degree), dtype=complex)
        companion[1:, :-1] = np.eye(degree - 1)
        companion[:, -1] = -coeffs
        roots, _ = eig_dense(companion)

    for ell in range(1, degree + 1):
        reproduced = _kahan_sum(r**ell for r in roots)
        if abs(reproduced - sums[ell - 1]) > ROUNDTRIP_TOL * max(
            1.0, abs(sums[ell - 1])
        ):
            raise NumericalError(
                f"power-sum roundtrip: failed at l={ell}: "
                f"{reproduced} vs {sums[ell - 1]}"
            )
    return roots


@dataclass(frozen=True)
class PowerSumProfile:
    """Character-transformed trace data for one irrep."""

    irrep: int
    dim: int
    power_sums: tuple[complex, ...]


@dataclass(frozen=True, eq=False)
class CharacterSpectrum:
    """Regular-lift spectrum assembled from per-irrep root multisets."""

    profiles: tuple[PowerSumProfile, ...]
    roots_by_irrep: tuple[np.ndarray, ...]
    spectrum: np.ndarray
    total: int

    def _document(self) -> dict:
        return {
            "total": self.total,
            "irreps": [
                {
                    "irrep": p.irrep,
                    "dim": p.dim,
                    "power_sums": np.array(p.power_sums, dtype=complex),
                    "roots": np.asarray(self.roots_by_irrep[i], dtype=complex),
                }
                for i, p in enumerate(self.profiles)
            ],
            "spectrum": np.asarray(self.spectrum, dtype=complex),
        }

    def to_json(self) -> dict:
        return _json_value(self._document())


def regular_spectrum_via_characters(
    base: BaseMatrix, irrep_set: IrrepSet
) -> CharacterSpectrum:
    """Regular-lift spectrum of a (possibly directed) base via characters.

    Every irrep of dimension ``d`` contributes the ``d * k`` roots recovered
    from its transformed trace power sums, repeated ``d`` times.  For
    one-dimensional irreps the roots are computed directly as eigenvalues of
    the base-matrix image, which is both cheaper and better conditioned.  An
    irrep of higher dimension with ``d * k > MAX_NEWTON_DEGREE``, and then
    any irrep whose image would be wider than ``MAX_IMAGE_WIDTH``, raises
    :class:`ConsistencyError` before any base-matrix power is formed.
    """
    if base.group is not irrep_set.group:
        raise ConsistencyError("base matrix and irreps belong to different groups")
    k = base.k
    for idx, irrep in enumerate(irrep_set):
        if irrep.dim > 1 and irrep.dim * k > MAX_NEWTON_DEGREE:
            raise ConsistencyError(
                f"character spectrum: irrep {idx} ({irrep.dim}-dimensional) needs "
                f"dim*k = {irrep.dim * k} power sums, above MAX_NEWTON_DEGREE = "
                f"{MAX_NEWTON_DEGREE}; use the blockwise spectral route"
            )
    # The 1-dimensional irreps are solved from their images, so an image too
    # wide to build is refused here, before the k powers of B, whose cost
    # grows as about k**3.
    for irrep in irrep_set:
        _check_image_width(irrep.dim, k)
    traces = [power.trace() for power in _powers(base, k * max(irrep_set.dims))]

    profiles = []
    roots_by_irrep = []
    assembled = []
    for idx, irrep in enumerate(irrep_set):
        m = irrep.dim * k
        sums = tuple(apply_character(irrep.character, traces[ell]) for ell in range(m))
        profiles.append(PowerSumProfile(irrep=idx, dim=irrep.dim, power_sums=sums))
        if irrep.dim == 1:
            image = irrep_image(base, irrep).matrix
            values, _ = eig_dense(image, hermitian_hint=is_hermitian(image))
            roots = np.asarray(values, dtype=complex)
        else:
            roots = power_sums_to_roots(sums)
        roots_by_irrep.append(roots)
        for _ in range(irrep.dim):
            assembled.extend(roots)
    spectrum = np.array(assembled, dtype=complex)
    order = np.lexsort((spectrum.imag, spectrum.real))
    spectrum = spectrum[order]
    total = k * irrep_set.group.order
    if spectrum.shape[0] != total:
        raise NumericalError(
            f"character spectrum: assembled {spectrum.shape[0]} eigenvalues, "
            f"expected {total}"
        )
    return CharacterSpectrum(
        profiles=tuple(profiles),
        roots_by_irrep=tuple(roots_by_irrep),
        spectrum=spectrum,
        total=total,
    )
