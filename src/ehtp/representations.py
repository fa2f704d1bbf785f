"""Unitary representations of finite groups on C^d, and their diagonalization.

Abelian representations are simultaneously diagonalizable; ``diagonalize``
recovers a joint eigenbasis together with the exact character (exponent
tuple) attached to every basis vector.  The basis comes from the isotypic
projections ``P_chi = |G|^-1 sum_s conj(chi(s)) pi(s)``, all of them from one
FFT over the group, and one ``eigh`` of a combination of them; every
rotated element is then checked against its characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CUTOFF,
    TOL,
    DimensionMismatchError,
    GroupMismatchError,
    NonAbelianError,
    NumericalError,
)
from .groups import Character, FiniteGroup, SpectrumSet, SubgroupRestriction, character_table, spectrum
from .measures import Measure, fourier_on

__all__ = [
    "Representation",
    "DiagonalizedRep",
    "make_representation",
    "regular_rep",
    "character_rep",
    "integrate",
    "tensor_conjugate",
    "restrict_representation",
    "diagonalize",
    "gelfand",
    "cyclic_vector",
    "block_algebra_basis",
]


@dataclass(frozen=True, eq=False)
class Representation:
    """A unitary representation: one d x d matrix per group element."""

    group: FiniteGroup
    dim: int
    matrices: np.ndarray  # (order, d, d) complex

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.matrices, dtype=np.complex128)
        if m.shape != (self.group.order, self.dim, self.dim):
            raise DimensionMismatchError(
                f"matrices must have shape ({self.group.order}, {self.dim}, {self.dim}), got {m.shape}"
            )
        object.__setattr__(self, "matrices", m)
        self.matrices.flags.writeable = False

    def __repr__(self) -> str:
        return f"Representation(dim={self.dim}, group={self.group!r})"


def make_representation(group: FiniteGroup, matrices: np.ndarray) -> Representation:
    """Build a representation and verify unitarity plus the homomorphism law.

    Each check is exact at every order.  ``u = max_s ||pi(s)* pi(s) - I||_F`` and
    ``||pi(e) - I||_F`` are gated at ``TOL * d``.  With ``c = sqrt(1 + u) >= ||pi(s)||``,
    r the largest ``||pi(g) pi(y) - pi(g y)||_F`` over the generators g of
    ``generating_set`` and all y (|gens| n products) and L its bound on word
    length, every pair's residual is at most ``c^L (c ||pi(e) - I||_F + (1 + c) L r)``,
    gated at ``TOL * d``: for s = g s', ``e_k <= (1 + c) r + c e_{k-1}``, ``e_0 <= c ||pi(e) - I||_F``.

    Raises :class:`NumericalError` when the matrices fail to be a unitary
    representation: that is the signal the CLI maps to its numerical-failure
    exit code.
    """
    matrices = np.asarray(matrices, dtype=np.complex128)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise DimensionMismatchError("expected a stack of square matrices")
    pi = Representation(group, matrices.shape[1], matrices)
    d, eye = pi.dim, np.eye(pi.dim)
    # every guard below reads ``resid > bound``, which is False for NaN
    if not np.isfinite(pi.matrices).all():
        raise NumericalError("matrices have non-finite entries")
    gram = np.einsum("sji,sjk->sik", np.conj(pi.matrices), pi.matrices)
    unitarity = np.linalg.norm(gram - eye, axis=(1, 2)).max()
    if unitarity > TOL * d:
        raise NumericalError(f"matrices are not unitary: ||U*U - I||_F = {unitarity:.3e}")
    at_identity = np.linalg.norm(pi.matrices[pi.group.identity] - eye)
    if at_identity > TOL * d:
        raise NumericalError("identity element is not represented by the identity matrix")
    bound = _law_bound(pi, float(unitarity), float(at_identity))
    if bound > TOL * d:
        raise NumericalError(f"homomorphism law fails: a pair's residual may reach {bound:.3e}")
    return pi


def _law_bound(pi: Representation, unitarity: float, at_identity: float) -> float:
    """``make_representation``'s bound on every pair's residual, given u and ``||pi(e) - I||_F``."""
    gens, length = pi.group.generating_set
    r = max((np.linalg.norm(pi.matrices[g] @ pi.matrices - pi.matrices[pi.group.cayley[g]], axis=(1, 2)).max()
             for g in gens), default=0.0)
    c = np.sqrt(1 + unitarity)
    return float(c ** length * (c * at_identity + (1 + c) * length * r))


def regular_rep(group: FiniteGroup) -> Representation:
    """Left regular representation by permutation matrices: pi(s) e_t = e_{st}."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.complex128)
    for s in range(n):
        mats[s, group.cayley[s], np.arange(n)] = 1.0
    return Representation(group, n, mats)


def character_rep(group: FiniteGroup, chars: Sequence[Character]) -> Representation:
    """Diagonal representation with the given characters on the diagonal,
    with multiplicity as listed."""
    table = character_table(group, chars)  # (d, order)
    d = len(chars)
    mats = np.zeros((group.order, d, d), dtype=np.complex128)
    idx = np.arange(d)
    mats[:, idx, idx] = table.T
    return Representation(group, d, mats)


def integrate(pi: Representation, mu: Measure) -> np.ndarray:
    """``sum_s mu({s}) pi(s)``, the representation of the measure algebra."""
    if not pi.group.is_same(mu.group):
        raise GroupMismatchError("representation and measure live on different groups")
    return np.einsum("s,sij->ij", mu.weights, pi.matrices)


def tensor_conjugate(pi: Representation) -> Representation:
    """The representation ``s -> pi(s) (x) conj(pi(s))`` on C^(d^2)."""
    d = pi.dim
    mats = np.einsum("sij,skl->sikjl", pi.matrices, np.conj(pi.matrices))
    return Representation(pi.group, d * d, mats.reshape(pi.group.order, d * d, d * d))


def restrict_representation(pi: Representation, sub: SubgroupRestriction) -> Representation:
    """Restrict to a subgroup, re-indexed by the subgroup's own elements."""
    if not pi.group.is_same(sub.group):
        raise GroupMismatchError("representation and subgroup live on different groups")
    return Representation(sub.subgroup, pi.dim, pi.matrices[sub.embedding])


# ---------------------------------------------------------------------------
# Joint diagonalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalizedRep:
    """A representation together with a verified joint eigenbasis.

    ``basis`` has the joint eigenvectors as columns; ``char_of_index[j]``
    is the exact character such that ``pi(s) basis[:,j] = chi_j(s) basis[:,j]``
    for every s; ``spectrum`` is the duplicate-free sorted character set.
    """

    rep: Representation
    basis: np.ndarray
    char_of_index: tuple[Character, ...]
    spectrum: SpectrumSet

    def __post_init__(self) -> None:
        b = np.ascontiguousarray(self.basis, dtype=np.complex128)
        object.__setattr__(self, "basis", b)
        self.basis.flags.writeable = False


def diagonalize(pi: Representation, seed: int = 0) -> DiagonalizedRep:
    """Joint eigenbasis of an abelian representation with exact characters.

    One ``fftn`` over the group axes gives ``|G| P_chi`` for every character,
    ``P_chi = |G|^-1 sum_s conj(chi(s)) pi(s)`` the chi-isotypic projection;
    the multiplicities are the rounded traces.  One ``eigh`` of
    ``sum_j j P_{chi_j}``, over the characters present in exponent order,
    gives the basis, and each rounded eigenvalue names its vector's
    character.  ``seed`` is accepted and ignored: the path is deterministic.

    Raises :class:`NonAbelianError` without a cyclic-product presentation and
    :class:`NumericalError` when the input is not (numerically) a
    representation: some rotated element ``V* pi(s) V`` misses
    ``diag chi(s)`` by more than ``TOL`` in some entry.
    """
    shape = pi.group.abelian_shape
    if shape is None:
        raise NonAbelianError("diagonalization needs a cyclic-product group")

    d, mats = pi.dim, pi.matrices
    # numpy's exp(-2 pi i k.s / n) is conj(chi_k(s)), and k runs in dual_group order
    proj = np.fft.fftn(mats.reshape(*shape, d, d), axes=tuple(range(len(shape))))
    proj = proj.reshape(pi.group.order, d, d) / pi.group.order
    present = np.flatnonzero(np.rint(np.einsum("kii->k", proj).real))
    evals, v = np.linalg.eigh(np.einsum("j,jik->ik", np.arange(len(present), dtype=float), proj[present]))
    pos = np.rint(evals).astype(int)
    if np.any((pos < 0) | (pos >= len(present))):
        raise NumericalError("isotypic projections do not resolve a joint eigenbasis")
    exps = np.array(np.unravel_index(present, shape)).T
    chars = [Character(shape, tuple(exps[j])) for j in pos]

    rotated = v.conj().T @ mats @ v
    idx = np.arange(d)
    rotated[:, idx, idx] -= character_table(pi.group, chars).T
    resid = float(np.abs(rotated).max(initial=0.0))
    if resid > TOL:
        raise NumericalError(f"rotated representation misses its characters by {resid:.3e} > {TOL:.1e}")

    return DiagonalizedRep(pi, v, tuple(chars), spectrum(pi.group, chars, sort=True))


def gelfand(diag: DiagonalizedRep, mu: Measure) -> dict[Character, complex]:
    """Evaluate ``sigma -> mu_hat(sigma)`` on the spectrum and verify that the
    integrated measure is diagonal in the joint eigenbasis with exactly those
    entries, to ``TOL * ||mu||_1``."""
    rotated = diag.basis.conj().T @ integrate(diag.rep, mu) @ diag.basis
    values = dict(zip(diag.spectrum, fourier_on(mu, diag.spectrum)))
    expected = np.diag(np.array([values[c] for c in diag.char_of_index]))
    resid = float(np.abs(rotated - expected).max())
    if resid > TOL * mu.norm:
        raise NumericalError(f"integrated measure is not diagonal with transform values: residual {resid:.3e}")
    return values


# ---------------------------------------------------------------------------
# Cyclic vectors for block-diagonal algebras
# ---------------------------------------------------------------------------


def cyclic_vector(diag_dims: Sequence[int], vectors: Sequence[np.ndarray]) -> np.ndarray:
    """A single vector whose orbit under the block-diagonal algebra spans at
    least the span of the given vectors.

    ``diag_dims`` lists the block sizes of the algebra acting on C^d
    (all ones = the diagonal MASA).  The vector is assembled incrementally:
    each input contributes its components on the blocks it is the first to
    touch, which is an orthogonal-projection construction since the blocks
    are disjoint.  An empty input list yields the zero vector.
    """
    dims = [int(k) for k in diag_dims]
    if any(k < 1 for k in dims):
        raise ValueError("block sizes must be positive")
    d = sum(dims)
    starts = np.concatenate([[0], np.cumsum(dims)])
    xi = np.zeros(d, dtype=np.complex128)
    covered = [False] * len(dims)
    for vec in vectors:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (d,):
            raise DimensionMismatchError(f"vectors must have length {d}")
        scale = np.linalg.norm(vec)
        for k in range(len(dims)):
            blk = slice(starts[k], starts[k + 1])
            if covered[k] or np.linalg.norm(vec[blk]) <= CUTOFF * scale:
                continue
            xi[blk] = vec[blk]
            covered[k] = True
    return xi


def block_algebra_basis(diag_dims: Sequence[int]) -> list[np.ndarray]:
    """Matrix-unit basis of the block-diagonal algebra with the given sizes."""
    dims = [int(k) for k in diag_dims]
    units = np.eye(sum(dims), dtype=np.complex128)
    return [np.outer(units[start + i], units[start + j])
            for start, size in zip(np.cumsum([0] + dims), dims) for i in range(size) for j in range(size)]
