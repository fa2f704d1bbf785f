"""The conjugation-average action of a measure under a unitary representation.

For a measure mu and representation pi the map

    x -> sum_s mu({s}) pi(s) x pi(s)*

is an elementary operator; measure convolution turns into composition of
maps, so this is a homomorphism from the measure algebra into completely
bounded maps, contractive from total variation to cb norm.  For abelian
groups the map is a Schur multiplier in the joint eigenbasis, with symbol
``(j, k) -> mu_hat(chi_j * chi_k^-1)``, and its kernel is detected either by
the Fourier transform vanishing on the quotient set of the spectrum or by
the vanishing of the integrated tensor-conjugate representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elementary import ElementaryOperator, apply, choi_distance, conjugate_by, schur_op
from .elementary import slice_left
from .errors import TOL, GroupMismatchError, NumericalError
from .groups import SubgroupRestriction, difference_set
from .measures import Measure, fourier_on, fourier_symbol, reverse
from .representations import (
    DiagonalizedRep,
    Representation,
    diagonalize,
    integrate,
    restrict_representation,
)

__all__ = [
    "GammaImage",
    "gamma",
    "slice_identity_residual",
    "symbol_residual",
    "schur_form",
    "checked_symbol",
    "kernel_test_difference_set",
    "kernel_test_tensor_conjugate",
    "kernel_test_transfer",
    "restriction_spectrum_check",
    "RestrictionReport",
]

@dataclass(frozen=True, eq=False)
class GammaImage:
    """A measure realized as an elementary operator through a representation.

    One term ``(mu({s}) pi(s), pi(s)*)`` per support point, in element order;
    the term list records the provenance and is intentionally not pruned.
    """

    op: ElementaryOperator
    source: Measure
    rep: Representation

    def apply(self, x: np.ndarray) -> np.ndarray:
        return apply(self.op, x)


def gamma(pi: Representation, mu: Measure) -> GammaImage:
    """Realize ``mu`` as the elementary operator ``x -> sum mu({s}) pi(s) x pi(s)*``."""
    if not pi.group.is_same(mu.group):
        raise GroupMismatchError("representation and measure live on different groups")
    support = mu.support()
    left = mu.weights[support, None, None] * pi.matrices[support]
    right = pi.matrices[support].conj().transpose(0, 2, 1)
    return GammaImage(ElementaryOperator(pi.dim, left, right), mu, pi)


def slice_identity_residual(image: GammaImage, w: np.ndarray) -> float:
    """Residual of the left-slice identity: slicing the operator against
    ``omega(a) = trace(W* a)`` equals integrating the reversal of the measure
    reweighted by ``s -> omega(pi(s))``."""
    pi, mu = image.rep, image.source
    weighted = Measure(mu.group, mu.weights * np.einsum("sij,ij->s", pi.matrices, np.conj(w)))
    expected = integrate(pi, reverse(weighted))
    return float(np.linalg.norm(slice_left(image.op, w) - expected))


def symbol_residual(diag: DiagonalizedRep, mu: Measure, symbol: np.ndarray) -> float:
    """Deviation of the operator from acting as the symbol on the rotated
    matrix units, ``sqrt(sum_jk ||T(v_j v_k*) - S_jk v_j v_k*||_F^2)``: the
    distance of the rotated map from ``schur_op(symbol)``, taken from the
    terms by :func:`ehtp.elementary.choi_distance`.  The operator is read
    directly, so the residual does not depend on how ``symbol`` was computed."""
    rotated = conjugate_by(gamma(diag.rep, mu).op, diag.basis)
    return choi_distance(rotated, schur_op(symbol))


def schur_form(diag: DiagonalizedRep, mu: Measure) -> np.ndarray:
    """Symbol matrix of the map in the joint eigenbasis.

    Entry ``(j, k)`` is ``mu_hat(chi_j * chi_k^-1)``; verified against the
    operator by :func:`symbol_residual`, and raises :class:`NumericalError`
    when the gate of :func:`checked_symbol` fails.
    """
    symbol, resid, ok = checked_symbol(diag, mu)
    if not ok:
        raise NumericalError(f"symbol verification failed: residual {resid:.3e}")
    return symbol


def checked_symbol(diag: DiagonalizedRep, mu: Measure, tol: float = TOL) -> tuple[np.ndarray, float, bool]:
    """The symbol, its residual (:func:`symbol_residual`) and the verdict
    of the symbol gate: the residual is at most ``tol * ||mu||_1``."""
    if not diag.rep.group.is_same(mu.group):
        raise GroupMismatchError("representation and measure live on different groups")
    symbol = fourier_symbol(mu, diag.char_of_index)
    resid = symbol_residual(diag, mu, symbol)
    return symbol, resid, resid <= tol * mu.norm


def kernel_test_difference_set(diag: DiagonalizedRep, mu: Measure) -> bool:
    """True iff the Fourier-Stieltjes transform vanishes on every quotient
    ``sigma * tau^-1`` of spectrum characters, to ``TOL`` times the total
    variation norm of ``mu``."""
    if not diag.rep.group.is_same(mu.group):
        raise GroupMismatchError("representation and measure live on different groups")
    values = fourier_on(mu, difference_set(diag.spectrum))
    return bool(np.abs(values).max() <= TOL * mu.norm)


def kernel_test_transfer(image: GammaImage) -> bool:
    """True iff the transfer matrix of the realized operator vanishes, to
    ``TOL * d^2`` times the total variation norm of the measure.  Its
    Frobenius norm is the distance to the empty map, taken from the terms
    by :func:`ehtp.elementary.choi_distance` (no d^2 x d^2 matrix when
    2n < d^2 for n terms)."""
    empty = ElementaryOperator.from_terms(image.op.dim, [])
    return bool(choi_distance(image.op, empty) <= TOL * image.rep.dim**2 * image.source.norm)


def kernel_test_tensor_conjugate(pi: Representation, mu: Measure) -> bool:
    """True iff ``mu`` integrates to zero under ``pi (x) conj(pi)``, to
    ``TOL * d^2`` times the total variation norm of ``mu``.

    Since ``vec(pi(s) x pi(s)*) = (conj pi(s) (x) pi(s)) vec x``, this
    integral is the transfer matrix of ``gamma(pi, mu)`` up to a permutation
    of its entries, so the predicate is :func:`kernel_test_transfer` of that
    image, one number for both; :func:`kernel_test_difference_set` is the
    independent one."""
    return kernel_test_transfer(gamma(pi, mu))


@dataclass(frozen=True)
class RestrictionReport:
    """Outcome of restricting a representation to a subgroup."""

    expected_exponents: tuple[tuple[int, ...], ...]
    actual_exponents: tuple[tuple[int, ...], ...]
    symbol_residual: float
    symbol_ok: bool

    @property
    def match(self) -> bool:
        return self.expected_exponents == self.actual_exponents


def restriction_spectrum_check(
    pi: Representation,
    sub: SubgroupRestriction,
    seed: int = 0,
    tol: float = TOL,
) -> RestrictionReport:
    """Measure whether restricting the representation to a subgroup
    restricts its spectrum: the report carries the character set of ``pi``
    restricted to H and the spectrum of the restricted representation, as
    sorted exponent tuples, for ``ehtp.suites.restriction_check`` to
    compare.  It also carries the residual and the verdict of the symbol
    gate of :func:`checked_symbol` for the restricted data on a random
    measure ``kappa``, ``residual <= tol * ||kappa||_1``.
    """
    diag_g = diagonalize(pi)
    expected = sub.restrict_spectrum(diag_g.spectrum)

    restricted = restrict_representation(pi, sub)
    diag_h = diagonalize(restricted)

    expected_exps = tuple(sorted(expected.exponent_set()))
    actual_exps = tuple(sorted(diag_h.spectrum.exponent_set()))

    rng = np.random.default_rng(seed)
    h = sub.subgroup
    kappa = Measure(h, rng.standard_normal(h.order) + 1j * rng.standard_normal(h.order))
    _, resid, ok = checked_symbol(diag_h, kappa, tol)
    return RestrictionReport(expected_exps, actual_exps, resid, ok)
