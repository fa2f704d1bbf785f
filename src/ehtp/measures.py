"""Complex measures on finite groups: the measure algebra under convolution.

A measure is a dense complex weight vector indexed by group elements.  The
Haar measure of a finite group is the *normalized* counting measure (total
mass 1), so densities convert via ``mu({s}) = f(s) / |G|``.

The Fourier-Stieltjes transform uses the plain (unconjugated) pairing
``mu_hat(sigma) = sum_s sigma(s) * mu({s})``.  On a list of characters
``chi_1, ..., chi_d`` the Fourier symbol ``mu_hat(chi_j chi_k^-1)`` is the
matrix ``X diag(mu) X*`` with ``X[j, s] = chi_j(s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TOL, GroupMismatchError, NumericalError
from .groups import Character, FiniteGroup, SpectrumSet, character_table, dual_group

__all__ = [
    "Measure",
    "dirac",
    "from_density",
    "convolve",
    "reverse",
    "reverse_conj",
    "fourier_stieltjes",
    "fourier_on",
    "fourier_symbol",
    "from_transform",
    "in_augmentation_ideal",
]

@dataclass(frozen=True, eq=False)
class Measure:
    """A complex measure on a finite group, as per-element weights."""

    group: FiniteGroup
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.complex128)
        if w.shape != (self.group.order,):
            raise ValueError(f"weights must have shape ({self.group.order},), got {w.shape}")
        norm = float(np.abs(w).sum())
        if not math.isfinite(norm):
            # NaN or infinite weights, or a norm that overflows: every gate
            # scaled by it would pass
            raise NumericalError(f"the total variation norm of the weights is {norm}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_norm", norm)
        self.weights.flags.writeable = False

    @property
    def norm(self) -> float:
        """Total variation norm, the l1 norm of the weights."""
        return self._norm

    @property
    def total_mass(self) -> complex:
        return complex(np.sum(self.weights))

    def support(self) -> np.ndarray:
        return np.nonzero(self.weights)[0]

    def __add__(self, other: "Measure") -> "Measure":
        _check_group(self, other)
        return Measure(self.group, self.weights + other.weights)

    def __sub__(self, other: "Measure") -> "Measure":
        _check_group(self, other)
        return Measure(self.group, self.weights - other.weights)

    def __mul__(self, scalar: complex) -> "Measure":
        return Measure(self.group, self.weights * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Measure":
        return Measure(self.group, -self.weights)


def _check_group(mu: Measure, nu: Measure) -> None:
    if not mu.group.is_same(nu.group):
        raise GroupMismatchError("measures live on different groups")


def dirac(group: FiniteGroup, element: int) -> Measure:
    w = np.zeros(group.order, dtype=np.complex128)
    w[element] = 1.0
    return Measure(group, w)


def from_density(group: FiniteGroup, f: Sequence[complex]) -> Measure:
    """Measure with density ``f`` against the normalized Haar measure."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (group.order,):
        raise ValueError("density must assign one value per group element")
    return Measure(group, f / group.order)


def convolve(mu: Measure, nu: Measure) -> Measure:
    """Convolution: ``(mu*nu)({t}) = sum_s mu({s}) nu({s^-1 t})``."""
    _check_group(mu, nu)
    g = mu.group
    # row s of this table holds s^-1 * t for all t
    shifted = nu.weights[g.cayley[g.inverse]]
    return Measure(g, mu.weights @ shifted)


def reverse(mu: Measure) -> Measure:
    """Pushforward under inversion: ``s -> mu({s^-1})``."""
    return Measure(mu.group, mu.weights[mu.group.inverse])


def conjugate(mu: Measure) -> Measure:
    """Pointwise complex conjugate."""
    return Measure(mu.group, np.conj(mu.weights))


def reverse_conj(mu: Measure) -> Measure:
    """The involution of the measure algebra: ``s -> conj(mu({s^-1}))``.

    Anti-multiplicative for convolution; composition of :func:`reverse`
    and :func:`conjugate`.
    """
    return conjugate(reverse(mu))


def fourier_stieltjes(mu: Measure, sigma: Character) -> complex:
    """``mu_hat(sigma) = sum_s sigma(s) mu({s})`` (no conjugate)."""
    return complex(sigma.values(mu.group) @ mu.weights)


def fourier_on(mu: Measure, e: SpectrumSet) -> np.ndarray:
    """Fourier-Stieltjes transform on each character of a spectrum set."""
    if not e.group.is_same(mu.group):
        raise GroupMismatchError("spectrum set lives on a different group")
    return e.table() @ mu.weights


def fourier_symbol(mu: Measure, characters: Sequence[Character]) -> np.ndarray:
    """The matrix ``mu_hat(chi_j * chi_k^-1)`` over a list of characters,
    repeats allowed, computed as ``X diag(mu) X*`` with ``X[j, s] = chi_j(s)``."""
    x = character_table(mu.group, characters)
    return (x * mu.weights) @ x.conj().T


def from_transform(group: FiniteGroup, coefficients: dict[tuple[int, ...], complex]) -> Measure:
    """The measure whose transform takes the given value at each character
    listed by exponents and vanishes at every other one; inverts
    :func:`fourier_on` on the dual group."""
    duals = dual_group(group)
    fhat = np.array([coefficients.get(c.exponents, 0.0) for c in duals], dtype=np.complex128)
    return Measure(group, np.conj(duals.table()).T @ fhat / group.order)


def in_augmentation_ideal(mu: Measure) -> bool:
    """True iff the total mass vanishes (kernel of the trivial character),
    to ``TOL`` times the total variation norm of ``mu``."""
    return bool(abs(mu.total_mass) <= TOL * mu.norm)
