"""Functions on a character spectrum, positive definiteness, and the
equivalence of positivity notions for measure-induced Schur multipliers.

A measure acting through a diagonalized abelian representation is an
entrywise (Schur) multiplier with symbol ``u(sigma, tau) = mu_hat(sigma
tau^-1)`` on the spectrum.  Complete positivity of the map, positive
semidefiniteness of the symbol, and positivity on sampled states are all
equivalent; ``equivalence_suite`` exercises all three plus the structure of
the Kraus family (which must land in the algebra diagonalized by the
eigenbasis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elementary import conjugate_by, sampled_positivity, strongly_independent_kraus, vec
from .errors import CUTOFF, TOL, EquivalenceViolationError, GroupMismatchError, NumericalError
from .errors import NotCompletelyPositiveError
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
    :func:`from_measure` sets it to ``n ||mu||_1`` for n characters, which is
    the data scale of ``elementary.is_completely_positive`` on the realized
    map; by default it is the Frobenius norm of the values."""

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
            object.__setattr__(self, "scale", float(np.linalg.norm(vals)))

    @property
    def is_hermitian(self) -> bool:
        return bool(np.linalg.norm(self.values - self.values.conj().T) <= TOL * self.scale)


def from_measure(diag: DiagonalizedRep, mu: Measure) -> VFunction:
    """The kernel ``(sigma, tau) -> mu_hat(sigma tau^-1)`` on the spectrum."""
    if not diag.rep.group.is_same(mu.group):
        raise GroupMismatchError("representation and measure live on different groups")
    return VFunction(diag.spectrum, fourier_symbol(mu, diag.spectrum.characters),
                     scale=len(diag.spectrum) * mu.norm)


def _gram_family(u: VFunction, tol: float) -> list[np.ndarray] | None:
    """The Gram family of :func:`gram_factorize`, or None for a kernel that
    is not positive semidefinite at ``tol``, decided as
    :func:`is_positive_definite` does.  One eigendecomposition gives the
    verdict and the family."""
    if not u.is_hermitian:
        return None
    evals, evecs = np.linalg.eigh((u.values + u.values.conj().T) / 2)
    if evals.min(initial=0.0) < -tol * u.scale:
        return None
    top = float(evals.max(initial=0.0))
    if top <= CUTOFF * u.scale:
        return []
    keep = evals > CUTOFF * top
    return [np.sqrt(lam) * evecs[:, i] for i, lam in zip(np.nonzero(keep)[0], evals[keep])]


def is_positive_definite(u: VFunction, tol: float = TOL) -> bool:
    """Numerically Hermitian positive semidefinite as a matrix on the
    spectrum: smallest eigenvalue >= -tol * u.scale, the same threshold
    convention as :func:`ehtp.elementary.is_completely_positive`."""
    if not u.is_hermitian:
        return False
    evals = np.linalg.eigvalsh((u.values + u.values.conj().T) / 2)
    return bool(evals.size == 0 or evals[0] >= -tol * u.scale)


def gram_factorize(u: VFunction) -> list[np.ndarray]:
    """Functions ``phi_i`` on the spectrum with ``u(s, t) = sum_i phi_i(s)
    conj(phi_i(t))``, from the eigendecomposition: none when the largest
    eigenvalue is at most ``CUTOFF * u.scale``, otherwise eigenvalues up to
    ``CUTOFF`` times the largest are dropped, the rules of
    ``elementary.strongly_independent_kraus``.  Errors on a kernel that is not
    positive semidefinite at ``TOL``, decided as :func:`is_positive_definite`
    does."""
    family = _gram_family(u, TOL)
    if family is None:
        raise NumericalError("kernel is not positive semidefinite")
    return family


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
    pair and check their consistency.

    Asserts that complete positivity of the realized operator and positive
    semidefiniteness of the kernel agree, and that positivity on sampled
    states never contradicts them.  One Choi decomposition of the operator
    gives its complete positivity and, on completely positive instances, the
    strongly independent Kraus family, which must consist of
    matrices diagonal in the joint eigenbasis, to ``TOL`` times the largest
    Kraus norm (an element of a Choi eigenvalue near the cutoff is accurate
    only to that scale).  One eigendecomposition of the kernel gives its
    positive semidefiniteness at ``tol`` and its Gram family.

    Raises :class:`EquivalenceViolationError` on any disagreement; a raise
    here signals a bug, not a property of the input.
    """
    op = gamma(diag.rep, mu).op
    try:
        kraus = strongly_independent_kraus(op, tol)
        cp = True
    except NotCompletelyPositiveError:
        kraus, cp = [], False
    gram = _gram_family(from_measure(diag, mu), tol)
    pd = gram is not None
    # the rotation is unitary, so the rotated map is completely positive iff op is
    sampled, _ = sampled_positivity(conjugate_by(op, diag.basis), trials=trials, tol=tol, seed=seed)

    if cp != pd:
        raise EquivalenceViolationError(
            f"complete positivity ({cp}) disagrees with kernel positivity ({pd})"
        )
    if cp and not sampled:
        raise EquivalenceViolationError("sampled positivity contradicts complete positivity")

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
        if diagonality > TOL:
            raise EquivalenceViolationError(
                f"Kraus family is not diagonal in the eigenbasis: residual {diagonality:.3e}"
            )
    return EquivalenceReport(
        completely_positive=cp,
        positive_definite=pd,
        sampled_positive=sampled,
        kraus_count=len(kraus),
        gram_count=len(gram) if pd else 0,
        kraus_min_singular=min_singular,
        kraus_max_singular=max_singular,
        kraus_diagonality=diagonality,
    )