"""Elementary operators on M_d: finite sums x -> sum_i a_i x b_i.

This is the concrete form every map in this package takes.  The module
provides application, composition (term-wise product lists), the left
slice against a trace functional, the Choi matrix, the positivity rule
(shared with the kernels of ``varopoulos``), complete-positivity tests,
Kraus extraction with strong (linear) independence, and the
positivity-implies-complete-positivity check for bimodule maps over the
diagonal MASA.

Conventions, fixed once for the whole package:

* ``vec`` stacks columns: ``vec(m) = m.T.ravel()``, so
  ``vec(a x b) = (b^T (x) a) vec(x)`` and the transfer matrix of the map is
  ``sum_i b_i^T (x) a_i``.
* The Choi matrix has block ``(i, j)`` equal to ``T(E_ij)``; a single term
  ``a (x) b`` contributes ``vec(a) vec(b*)^``, so a Kraus term ``a (x) a*``
  contributes the rank-one ``vec(a) vec(a)^*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    CUTOFF,
    TOL,
    BimoduleError,
    DimensionMismatchError,
    NotCompletelyPositiveError,
    NumericalError,
)

__all__ = [
    "ElementaryOperator",
    "vec",
    "schur_op",
    "apply",
    "compose",
    "transfer_matrix",
    "composition_distance",
    "slice_left",
    "choi",
    "choi_distance",
    "positive_family",
    "is_completely_positive",
    "strongly_independent_kraus",
    "is_diagonal_bimodule",
    "positive_implies_cp_check",
    "sampled_positivity",
    "conjugate_by",
    "PositivityReport",
]

def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m).T.ravel()


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionMismatchError("vector length is not a perfect square")
    return v.reshape(d, d).T


@dataclass(frozen=True, eq=False)
class ElementaryOperator:
    """``x -> sum_i left[i] x right[i]`` on d x d matrices.

    Terms are kept as given; nothing is pruned, so the term list documents
    how the operator was assembled.
    """

    dim: int
    left: np.ndarray   # (n, d, d)
    right: np.ndarray  # (n, d, d)

    def __post_init__(self) -> None:
        l = np.ascontiguousarray(self.left, dtype=np.complex128)
        r = np.ascontiguousarray(self.right, dtype=np.complex128)
        d = self.dim
        if l.shape != r.shape or l.ndim != 3 or l.shape[1:] != (d, d):
            raise DimensionMismatchError(
                f"term stacks must both have shape (n, {d}, {d}); got {l.shape} and {r.shape}"
            )
        object.__setattr__(self, "left", l)
        object.__setattr__(self, "right", r)
        self.left.flags.writeable = False
        self.right.flags.writeable = False

    @classmethod
    def from_terms(cls, dim: int, terms: Iterable[tuple[np.ndarray, np.ndarray]]) -> "ElementaryOperator":
        pairs = [(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)) for a, b in terms]
        if pairs:
            left = np.stack([a for a, _ in pairs])
            right = np.stack([b for _, b in pairs])
        else:
            left = np.zeros((0, dim, dim), dtype=np.complex128)
            right = np.zeros((0, dim, dim), dtype=np.complex128)
        return cls(dim, left, right)

    @property
    def n_terms(self) -> int:
        return self.left.shape[0]

    def __repr__(self) -> str:
        return f"ElementaryOperator(dim={self.dim}, n_terms={self.n_terms})"


def schur_op(symbol: np.ndarray) -> ElementaryOperator:
    """Entrywise multiplication by ``symbol`` as an elementary operator,
    one term per row: ``x -> sum_j E_jj x diag(symbol[j])``."""
    symbol = np.asarray(symbol, dtype=np.complex128)
    d = symbol.shape[0]
    if symbol.shape != (d, d):
        raise DimensionMismatchError("symbol must be square")
    eye = np.eye(d)
    return ElementaryOperator(d, eye[:, :, None] * eye[:, None, :], symbol[:, None, :] * eye)


def _check_dim(t: ElementaryOperator, x: np.ndarray) -> None:
    if x.shape != (t.dim, t.dim):
        raise DimensionMismatchError(f"argument must be {t.dim} x {t.dim}, got {x.shape}")


def apply(t: ElementaryOperator, x: np.ndarray) -> np.ndarray:
    """``sum_i left_i x right_i`` as two products: the batched ``left_i x``,
    laid side by side as a ``(d, n d)`` block row, times the right terms
    stacked as a ``(n d, d)`` block column."""
    x = np.asarray(x, dtype=np.complex128)
    _check_dim(t, x)
    n, d = t.n_terms, t.dim
    if n == 0:
        return np.zeros((d, d), dtype=np.complex128)
    row = (t.left @ x).transpose(1, 0, 2).reshape(d, n * d)
    return row @ t.right.reshape(n * d, d)


def compose(s: ElementaryOperator, t: ElementaryOperator) -> ElementaryOperator:
    """``s`` after ``t``: term pairs ``(a_i c_j, d_j b_i)`` from
    ``s = sum a_i (x) b_i`` and ``t = sum c_j (x) d_j``."""
    if s.dim != t.dim:
        raise DimensionMismatchError("operators act on different dimensions")
    d = s.dim
    left = np.einsum("iab,jbc->ijac", s.left, t.left).reshape(-1, d, d)
    right = np.einsum("jab,ibc->ijac", t.right, s.right).reshape(-1, d, d)
    return ElementaryOperator(d, left, right)


def _choi_factors(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors of the Choi matrix ``V_L V_R`` of the terms
    ``(left_i, right_i)``: ``V_L`` (d^2 x n) has columns ``vec(left_i)``
    and ``V_R`` (n x d^2) rows ``right_i.ravel()``, both views."""
    n, d = left.shape[:2]
    return left.transpose(0, 2, 1).reshape(n, d * d).T, right.reshape(n, d * d)


def _vec_outer_sum(t: ElementaryOperator) -> np.ndarray:
    """``sum_i vec(left_i) right_i.ravel()^T`` as one ``(d^2, n) @ (n, d^2)``
    product.  Entry ``[(e, c), (b, a)]`` is ``sum_i left_i[c, e] right_i[b, a]``:
    the Choi matrix, and a realignment of the transfer matrix."""
    vl, vr = _choi_factors(t.left, t.right)
    return vl @ vr


def _transfer_columns(t: ElementaryOperator, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """The columns ``(b, e)`` with ``start <= b < stop`` of the transfer
    matrix ``sum_i right_i^T (x) left_i``, whose entry ``[(a, c), (b, e)]`` is
    ``sum_i right_i[b, a] left_i[c, e]``: the ``(w, n) @ (n, d)`` products
    ``right[:, start:stop, a].T @ left[:, c, :]``, broadcast over ``(a, c)``
    and written in place into ``out``, a C-contiguous ``(d, d, w, d)`` array
    for ``w = stop - start``.  Returns ``out`` as the ``(d^2, w d)`` block."""
    d = t.dim
    np.matmul(t.right[:, start:stop].transpose(2, 1, 0)[:, None], t.left.transpose(1, 0, 2)[None], out=out)
    return out.reshape(d * d, (stop - start) * d)


def transfer_matrix(t: ElementaryOperator) -> np.ndarray:
    """Matrix of the map on column-stacked vectors: ``sum_i right_i^T (x) left_i``,
    built as one block of all its columns by :func:`_transfer_columns`, so
    the result is the only d^4 array."""
    d = t.dim
    return _transfer_columns(t, 0, d, np.empty((d, d, d, d), dtype=np.complex128))


def composition_distance(s: ElementaryOperator, t: ElementaryOperator, u: ElementaryOperator) -> float:
    """``||T_s - T_t T_u||_F``: the Frobenius distance between ``s`` and
    ``t`` after ``u``, on transfer matrices.

    Only ``T_t`` is formed whole.  ``T_s`` and ``T_u`` are built a block of
    columns at a time by :func:`_transfer_columns`, in quarters from d = 16,
    where a transfer matrix takes 1 MiB, and in one block below that.  Each
    block of ``T_u`` is written into one buffer and multiplied into a second;
    the block of ``T_s`` then overwrites the first and is subtracted in
    place, and the squared norms are summed over the blocks.  The time stays
    one d^6 product; the memory is one d^4 array and two blocks."""
    if not s.dim == t.dim == u.dim:
        raise DimensionMismatchError("operators act on different dimensions")
    d = s.dim
    blocks = 4 if d >= 16 else 1
    edges = [d * k // blocks for k in range(blocks + 1)]
    size = d**3 * -(-d // blocks)
    buf, gap_buf = (np.empty(size, dtype=np.complex128) for _ in range(2))
    tt = transfer_matrix(t)
    sq = 0.0
    for start, stop in zip(edges, edges[1:]):
        n, shape = d**3 * (stop - start), (d, d, stop - start, d)
        gap = np.matmul(tt, _transfer_columns(u, start, stop, buf[:n].reshape(shape)),
                        out=gap_buf[:n].reshape(d * d, (stop - start) * d))
        gap -= _transfer_columns(s, start, stop, buf[:n].reshape(shape))
        flat = gap.ravel()
        # the sum np.linalg.norm takes, so that one block gives the dense
        # form's value to the last bit and reports stay byte-identical
        sq += flat.real.dot(flat.real) + flat.imag.dot(flat.imag)
    return float(np.sqrt(sq))


def slice_left(t: ElementaryOperator, w: np.ndarray) -> np.ndarray:
    """Left slice against the functional ``omega(a) = trace(W* a)``:
    ``sum_i omega(left_i) right_i``."""
    w = np.asarray(w, dtype=np.complex128)
    _check_dim(t, w)
    if t.n_terms == 0:
        return np.zeros((t.dim, t.dim), dtype=np.complex128)
    coeffs = np.einsum("nij,ij->n", t.left, np.conj(w))
    return np.einsum("n,nij->ij", coeffs, t.right)


def choi(t: ElementaryOperator) -> np.ndarray:
    """Choi matrix with block ``(i, j)`` equal to ``T(E_ij)``: the sum of
    ``vec(a_i) vec(b_i*)^*``, where ``conj(vec(b_i*)) = b_i.ravel()``."""
    return _vec_outer_sum(t)


def choi_distance(s: ElementaryOperator, t: ElementaryOperator) -> float:
    """``||Choi(s) - Choi(t)||_F`` from the factors, which is also the
    Frobenius distance of the transfer matrices (the same entries).

    The difference is ``[V_Ls, -V_Lt] [V_Rs; V_Rt]`` in the factors of
    :func:`_choi_factors`.  For k = n_s + n_t terms, when 2k < d^2 a thin QR of the
    d^2 x k left factor leaves its norm to the k x d^2 product ``R V_R``;
    otherwise the norm is taken of the one d^2 x d^2 product.  Nothing
    larger than d^2 x k is formed below that size, and the difference is
    summed term by term, not from Gram sums, which cancel at about
    ``sqrt(eps)`` relative."""
    if s.dim != t.dim:
        raise DimensionMismatchError("operators act on different dimensions")
    k, d = s.n_terms + t.n_terms, s.dim
    vl, vr = _choi_factors(np.concatenate([s.left, -t.left]), np.concatenate([s.right, t.right]))
    if 2 * k < d * d:
        vl = np.linalg.qr(vl, mode="r")
    return float(np.linalg.norm(vl @ vr))


def _data_scale(t: ElementaryOperator) -> float:
    """``sum_i ||a_i||_F ||b_i||_F``: a bound on the Frobenius norm of the
    Choi matrix, so on every Choi eigenvalue and on the rounding noise in
    them.  The complete-positivity gates and the Kraus cutoff are taken at
    this scale, so a map and its multiple by 1e-12 get the same verdicts.
    Raises :class:`NumericalError` when the scale overflows (entries past
    about 1e154), since ``x <= tol * inf`` would pass every gate."""
    scale = float(np.sum(np.linalg.norm(t.left, axis=(1, 2)) * np.linalg.norm(t.right, axis=(1, 2))))
    if not np.isfinite(scale):
        raise NumericalError(f"the data scale of the map is {scale}")
    return scale


def _choi_core(t: ElementaryOperator) -> tuple[np.ndarray, np.ndarray]:
    """The Choi matrix ``C = V_L V_R`` compressed to a core, from the factors
    of :func:`_choi_factors`.

    When 2n < d^2, a thin QR of ``[V_L, V_R*]`` gives orthonormal columns Q,
    k = 2n of them, whose span holds the ranges of C and C*, so
    ``C = Q core Q*`` with the k x k ``core = Q* V_L V_R Q``; otherwise
    Q = I, k = d^2 and the core is C itself, one product of the factors.
    Returns the core and Q: ``||core - core*||_F = ||C - C*||_F``, the
    eigenvectors of the Hermitian part of C are Q times those of the core's,
    and its other d^2 - k eigenvalues are exact zeros.  Nothing larger than
    d^2 x max(k, n) is formed."""
    d = t.dim
    vl, vr = _choi_factors(t.left, t.right)
    if 2 * t.n_terms >= d * d:
        return vl @ vr, np.eye(d * d)
    q, _ = np.linalg.qr(np.concatenate([vl, vr.conj().T], axis=1))
    return (q.conj().T @ vl) @ (vr @ q), q


def positive_family(m: np.ndarray, scale: float, tol: float = TOL) -> tuple[np.ndarray, np.ndarray] | None:
    """The positivity rule, one for the Choi matrix of a map and for the
    kernel of a measure on a spectrum, at the data scale ``scale``.

    ``m`` is positive semidefinite when its Hermitian residual
    ``||m - m*||_F`` is at most ``tol * scale`` and the smallest eigenvalue
    of its Hermitian part is at least ``-tol * scale``; otherwise the result
    is None.  A positive ``m`` gets its family from the one
    eigendecomposition: none when the largest eigenvalue is at most
    ``CUTOFF * scale`` (zero up to rounding), otherwise the eigenvalues
    above ``CUTOFF`` times the largest.  Returns the kept eigenvalues
    (ascending) and their eigenvectors as columns.  A NaN fails both
    tests."""
    if not np.linalg.norm(m - m.conj().T) <= tol * scale:
        return None
    evals, w = np.linalg.eigh((m + m.conj().T) / 2)
    if not evals.min(initial=0.0) >= -tol * scale:
        return None
    top = float(evals.max(initial=0.0))
    keep = evals > CUTOFF * top if top > CUTOFF * scale else np.zeros(evals.shape, dtype=bool)
    return evals[keep], w[:, keep]


def is_completely_positive(t: ElementaryOperator, tol: float = TOL) -> bool:
    """True iff the Choi matrix is (numerically) positive semidefinite by
    :func:`positive_family`, at the data scale
    ``scale = sum_i ||a_i||_F ||b_i||_F``.  A map that is zero up to
    cancellation noise is completely positive.  The rule reads the core of
    :func:`_choi_core`, of size min(d^2, 2n) for n terms (Choi: the Kraus
    rank is the rank of the Choi matrix), so no matrix larger than 2n x 2n
    is decomposed."""
    core, _ = _choi_core(t)
    return positive_family(core, _data_scale(t), tol) is not None


def strongly_independent_kraus(t: ElementaryOperator, tol: float = TOL) -> list[np.ndarray]:
    """Kraus decomposition ``T(x) = sum_i k_i x k_i*`` with linearly
    independent (strongly independent) Kraus elements.

    The family of :func:`positive_family` on the Choi core of
    :func:`_choi_core`, which also decides complete positivity as
    :func:`is_completely_positive` does; ``varopoulos.gram_factorize``
    applies the same rule to the symbol, so the Kraus and Gram families of
    one map have the same size.  The surviving vectorized elements are
    orthogonal with norms ``sqrt(lambda_i)``, so the family is
    automatically strongly independent.
    Raises for a map that is not completely positive before the
    reconstruction gate runs.  The gate is the Frobenius distance of the
    Choi matrices of the map and of the Kraus rewriting, taken from their
    factors by :func:`choi_distance` (no d^2 x d^2 matrix below 2(n + k) <
    d^2 for k elements), to ``tol`` times the data scale, the bound the
    verdict read; it bounds the deviation on every matrix unit.
    """
    scale = _data_scale(t)
    core, q = _choi_core(t)
    family = positive_family(core, scale, tol)
    del core        # d^4 entries when 2n >= d^2, not needed by the rebuild
    if family is None:
        raise NotCompletelyPositiveError("Kraus extraction needs a completely positive map")
    evals, w = family
    if not evals.size:
        return []
    kraus = [unvec(v) for v in (q @ (w * np.sqrt(evals))).T]
    recon = ElementaryOperator.from_terms(t.dim, [(k, k.conj().T) for k in kraus])
    resid = choi_distance(recon, t)
    if resid > tol * scale:
        raise NumericalError(f"Kraus reconstruction residual {resid:.3e}")
    return kraus


def _schur_symbol(t: ElementaryOperator) -> np.ndarray:
    """The symbol the map would have as a Schur multiplier: entry ``(j, k)``
    is the ``(j, k)`` entry of ``T(E_jk)``, ``sum_i a_i[j, j] b_i[k, k]``,
    one ``(d, n) @ (n, d)`` product of the term diagonals."""
    return np.diagonal(t.left, axis1=1, axis2=2).T @ np.diagonal(t.right, axis1=1, axis2=2)


def is_diagonal_bimodule(t: ElementaryOperator, tol: float = TOL) -> bool:
    """True iff the map commutes with left and right multiplication by
    diagonal matrices, that is, it is the Schur multiplier of its symbol S:
    the distance ``sqrt(sum_jk ||T(E_jk) - S_jk E_jk||_F^2)``, taken from the
    terms by :func:`choi_distance`, is at most ``tol`` times the data scale
    ``sum_i ||a_i||_F ||b_i||_F``."""
    return choi_distance(t, schur_op(_schur_symbol(t))) <= tol * _data_scale(t)


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of sampling positivity against the complete-positivity test."""

    sampled_positive: bool
    completely_positive: bool
    trials: int
    worst_eigenvalue_ratio: float


def _positive_samples(rng: np.random.Generator, d: int, trials: int) -> np.ndarray:
    """``(trials, d, d)`` stack of rank-one states ``w w*``, each complex normal
    w drawn as its real part, then its imaginary part."""
    z = rng.standard_normal((trials, 2, d))
    w = z[:, 0] + 1j * z[:, 1]
    return w[:, :, None] * w.conj()[:, None, :]


def sampled_positivity(t: ElementaryOperator, trials: int = 50, tol: float = TOL,
                       seed: int = 0) -> tuple[bool, float]:
    """Positivity on sampled states of a bimodule map over the diagonal MASA
    (precondition, checked by the gate of :func:`is_diagonal_bimodule`): the
    verdict, and the worst ratio of an image's smallest eigenvalue to its
    scale (``-inf`` for a non-Hermitian image).  The images are the Schur
    products ``S * x``, which that gate makes equal to ``T(x)``.

    The samples are rank-one states ``w w*``: they span the extreme rays of
    the PSD cone, so a map is positive iff it is positive on them.  For a
    Schur multiplier each image ``S * w w* = D_w S D_w*`` is congruent to S
    when no entry of w is zero, as for a normal sample almost surely, so by
    Sylvester's law of inertia a single sample sees every negative
    eigenvalue of S.  A full-rank state would not: its image is a sum of
    congruent copies of S, and ``S = [[1, 2], [2, 1]]`` maps
    ``[[a, c], [c*, b]]`` to a PSD matrix whenever ``4 |c|^2 <= a b``."""
    if not is_diagonal_bimodule(t, tol):
        raise BimoduleError("map is not a bimodule map over the diagonal MASA")
    x = _positive_samples(np.random.default_rng(seed), t.dim, trials)
    y = _schur_symbol(t) * x
    yh = y.conj().transpose(0, 2, 1)
    # normalize against input scale times term scale, not just ||y||: when
    # the map is numerically zero the output is pure float noise and would
    # otherwise register as an order-one violation
    scale = np.maximum(np.maximum(np.linalg.norm(y, axis=(1, 2)),
                                  np.linalg.norm(x, axis=(1, 2)) * _data_scale(t)), 1e-300)
    ratios = np.linalg.eigvalsh((y + yh) / 2)[:, 0] / scale
    # a non-Hermitian image: not even positivity-preserving
    ratios[np.linalg.norm(y - yh, axis=(1, 2)) > tol * scale] = -np.inf
    worst = float(ratios.min(initial=np.inf))
    return bool(worst >= -tol), worst


def positive_implies_cp_check(
    t: ElementaryOperator,
    trials: int = 50,
    tol: float = TOL,
    seed: int = 0,
) -> PositivityReport:
    """Compare sampled positivity (:func:`sampled_positivity`) with complete
    positivity for a map that is a bimodule map over the diagonal MASA
    (precondition, checked; for such maps the two must agree)."""
    sampled_positive, worst = sampled_positivity(t, trials, tol, seed)
    return PositivityReport(
        sampled_positive=sampled_positive,
        completely_positive=is_completely_positive(t, tol),
        trials=trials,
        worst_eigenvalue_ratio=worst,
    )


def conjugate_by(t: ElementaryOperator, v: np.ndarray) -> ElementaryOperator:
    """The unitarily rotated map ``x -> V* T(V x V*) V`` (term-wise)."""
    v = np.asarray(v, dtype=np.complex128)
    _check_dim(t, v)
    vh = v.conj().T
    return ElementaryOperator(t.dim, vh @ t.left @ v, vh @ t.right @ v)
