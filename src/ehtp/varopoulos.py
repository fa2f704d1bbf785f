"""Functions on a character spectrum, positive definiteness, and the
equivalence of positivity notions for measure-induced Schur multipliers.

A measure acting through a diagonalized abelian representation is an
entrywise (Schur) multiplier with symbol ``u(sigma, tau) = mu_hat(sigma
tau^-1)`` on the spectrum.  Complete positivity of the map, positive
semidefiniteness of the symbol, and positivity on sampled states are all
equivalent; ``equivalence_suite`` measures all three plus the structure of
the Kraus family (which must land in the algebra diagonalized by the
eigenbasis), and ``ehtp.suites.cp_posdef_check`` gates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elementary import conjugate_by, positive_family, sampled_positivity, strongly_independent_kraus
from .elementary import vec
from .errors import TOL, GroupMismatchError, NotCompletelyPositiveError, NumericalError
from .gamma import gamma
from .groups import SpectrumSet
from .measures import Measure, fourier_symbol
from .representations import DiagonalizedRep

__all__ = [
    "VFunction",
    "from_measure",
    "is_positive_definite",
    "gram_factorize",
    "equivalence_suite",
    "EquivalenceReport",
]

@dataclass(frozen=True, eq=False)
class VFunction:
    """A kernel on a spectrum set: one complex value per character pair.

    ``scale`` bounds the Frobenius norm of the values, so every eigenvalue
    and the rounding noise in them; the positivity gates are taken at it.
    By default it is ``sum_j ||u_j||_2`` over the rows, the data scale that
    ``elementary.is_completely_positive`` reads on ``schur_op(values)``, so
    the kernel and its Schur multiplier get one verdict.
    :func:`from_measure` sets it to ``n ||mu||_1`` for n characters, the
    data scale of the realized map."""

    spectrum: SpectrumSet
    values: np.ndarray
    scale: float | None = None

    def __post_init__(self) -> None:
        n = len(self.spectrum)
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (n, n):
            raise ValueError(f"values must have shape ({n}, {n}), got {vals.shape}")
        object.__setattr__(self, "values", vals)
        self.values.flags.writeable = False
        if self.scale is None:
            object.__setattr__(self, "scale", float(np.linalg.norm(vals, axis=1).sum()))


def from_measure(diag: DiagonalizedRep, mu: Measure) -> VFunction:
    """The kernel ``(sigma, tau) -> mu_hat(sigma tau^-1)`` on the spectrum."""
    if not diag.rep.group.is_same(mu.group):
        raise GroupMismatchError("representation and measure live on different groups")
    return VFunction(diag.spectrum, fourier_symbol(mu, diag.spectrum.characters),
                     scale=len(diag.spectrum) * mu.norm)


def is_positive_definite(u: VFunction, tol: float = TOL) -> bool:
    """Numerically Hermitian positive semidefinite as a matrix on the
    spectrum, by :func:`ehtp.elementary.positive_family` at ``u.scale``,
    the rule of :func:`ehtp.elementary.is_completely_positive`."""
    return positive_family(u.values, u.scale, tol) is not None


def gram_factorize(u: VFunction) -> list[np.ndarray]:
    """Functions ``phi_i`` on the spectrum with ``u(s, t) = sum_i phi_i(s)
    conj(phi_i(t))``, from the eigendecomposition of
    :func:`ehtp.elementary.positive_family`, the rule
    ``elementary.strongly_independent_kraus`` reads: none when the largest
    eigenvalue is at most ``CUTOFF * u.scale``, otherwise eigenvalues up to
    ``CUTOFF`` times the largest are dropped.  Errors on a kernel that is
    not positive semidefinite at ``TOL``."""
    family = positive_family(u.values, u.scale, TOL)
    if family is None:
        raise NumericalError("kernel is not positive semidefinite")
    evals, evecs = family
    return [np.sqrt(lam) * v for lam, v in zip(evals, evecs.T)]


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdicts of the three positivity criteria plus Kraus structure data;
    the three Kraus measurements are None for a map with no Kraus element.
    The singular values are those of the stacked vectorized Kraus elements;
    ``gram_count`` is the size of a positive definite kernel's Gram family."""

    completely_positive: bool
    positive_definite: bool
    sampled_positive: bool
    kraus_count: int
    gram_count: int
    kraus_min_singular: float | None
    kraus_max_singular: float | None
    kraus_diagonality: float | None

    @property
    def consistent(self) -> bool:
        return self.completely_positive == self.positive_definite


def equivalence_suite(
    diag: DiagonalizedRep,
    mu: Measure,
    trials: int = 50,
    tol: float = TOL,
    seed: int = 0,
) -> EquivalenceReport:
    """Run all three positivity criteria on one (representation, measure)
    pair and measure the Kraus structure; the report holds the verdicts and
    the measurements, and ``ehtp.suites.cp_posdef_check`` gates them.

    One Choi decomposition of the operator gives its complete positivity
    and, on completely positive instances, the strongly independent Kraus
    family, whose elements should be diagonal in the joint eigenbasis:
    ``kraus_diagonality`` is the largest off-diagonal part of a rotated
    element relative to the largest Kraus norm.  One eigendecomposition of
    the kernel gives its positive semidefiniteness and the size of its Gram
    family, both criteria by :func:`ehtp.elementary.positive_family` at ``tol``.
    """
    op = gamma(diag.rep, mu).op
    try:
        kraus = strongly_independent_kraus(op, tol)
        cp = True
    except NotCompletelyPositiveError:
        kraus, cp = [], False
    kernel = from_measure(diag, mu)
    gram = positive_family(kernel.values, kernel.scale, tol)
    pd = gram is not None
    # the rotation is unitary, so the rotated map is completely positive iff op is
    sampled, _ = sampled_positivity(conjugate_by(op, diag.basis), trials=trials, tol=tol, seed=seed)

    min_singular = max_singular = diagonality = None
    if kraus:
        stacked = np.stack([vec(k) for k in kraus], axis=1)
        singular = np.linalg.svd(stacked, compute_uv=False)
        min_singular, max_singular = float(singular.min()), float(singular.max())
        vh = diag.basis.conj().T
        rots = [vh @ k @ diag.basis for k in kraus]
        top = max(float(np.linalg.norm(rot)) for rot in rots)
        off = max(float(np.linalg.norm(rot - np.diag(np.diag(rot)))) for rot in rots)
        diagonality = off / max(top, 1e-300)
    return EquivalenceReport(
        completely_positive=cp,
        positive_definite=pd,
        sampled_positive=sampled,
        kraus_count=len(kraus),
        gram_count=len(gram[0]) if pd else 0,
        kraus_min_singular=min_singular,
        kraus_max_singular=max_singular,
        kraus_diagonality=diagonality,
    )
