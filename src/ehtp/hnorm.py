"""Certified two-sided bounds for the completely bounded norm of an elementary operator.

``haagerup_norm_bounds`` takes one of two paths.

**Completely positive maps.**  Both bounds are the exact value ``||T(I)||``,
and the certificate is a Kraus rewriting of the map.

**Every other map.**  The cb norm of ``T = sum_i a_i (x) b_i`` equals the
Haagerup tensor norm of its terms (U. Haagerup, 1980): the infimum of
``||sum v_i v_i*||^(1/2) ||sum w_i* w_i||^(1/2)`` over every way of writing
the same map as ``x -> sum_i v_i x w_i``.  With linearly independent families
a_1..a_r and b_1..b_r from ``prune_terms``, every rewriting is a gauge P > 0
on the index space, and the infimum is the optimum of a semidefinite program
over r x r matrices,

    min t  s.t.  sum_ij P_ij a_i a_j* <= t I,  sum_ij Q_ij b_i* b_j <= t I,
                 [[P, I], [I, Q]] >= 0,

whose dual maximizes ``||R(rho)^(1/2) S(sigma)^(1/2)||_1`` over states rho
and sigma, with ``R(rho)_ji = tr(a_j* rho a_i)`` and
``S(sigma)_ji = tr(b_j sigma b_i*)``.  The size depends on the term rank r,
not on d^2: r = 1 for a single term, r <= d for character representations
and r = |G| for the regular representation.

A primal-dual interior-point method (HKM direction, Mehrotra
predictor-corrector; Vandenberghe and Boyd, SIAM Rev. 38, 1996) solves the
pair.  The corrector centers with ``sigma = min(1, mu_aff / mu)``
(Mehrotra, SIAM J. Optim. 2, 1992), and each step goes the fraction
``0.9 + 0.09 min(1, a_p, a_d)`` of the way to the boundary of the cones,
where a_p and a_d are the corrector's largest primal and dual steps (the
adaptive fraction of SDPT3, below).  In standard form the variable is the
states rho and sigma beside one 2r x 2r block W, of total size 2d + 2r, with
m = 2r^2 + 1 constraints ``tr rho + tr sigma = 1``, ``W_11 = R(rho)`` and
``W_22 = S(sigma)``, and the objective is ``-2 Re tr W_12``.  The
multipliers of the last two are P and Q.  The families are first balanced,
so that the raw gauge of the pruned terms is the identity and both of its
factors are 1.  The m x m Newton matrix is
assembled from products of the families with the blocks of X and Z^-1, its
W part from Kronecker products of the blocks of W and its Z^-1 block.
One iteration serves two forms, chosen once from the terms as given; the W
block is theirs in common, and a form lays out only the states.  Maps whose
terms are all exactly zero off the diagonal (Γ images of character
representations, ``schur_op``) are pruned on their diagonals and take the
**diagonal form**: their optimal states are diagonal, the dual being
Haagerup's ``max_{p,q} ||D_p^(1/2) S D_q^(1/2)||_1`` (V. Paulsen,
*Completely Bounded Maps and Operator Algebras*, CUP 2002, ch. 8), so rho
and sigma are one LP block beside the SDP block W, and the Newton assembly
costs r^4 d, not r^4 d^2.  Every other map takes the **factorization form**,
whose states are one stack of two d x d Hermitian blocks.  An LP block, an
SDP block and a stack of SDP blocks of one size are the cones of SDPT3 (Toh,
Todd and Tütüncü, Optim. Methods Softw. 11, 1999).  Both ends are certified:

* upper: the factorization value of the rewriting at the dual iterate's
  gauge P, or of the balanced raw gauge ``P = diag(||b_i||_F / ||a_i||_F)``
  on the terms as given, whichever is smaller; ``certificate_terms`` is the
  rewriting that attains it, and it must rebuild the map: the Frobenius
  distance of the two Choi matrices, taken from their factors by
  ``elementary.choi_distance`` (no d^2 x d^2 array for few terms), is at
  most ``TOL * upper``;
* lower: ``||(T (x) id_d)(X) eta||``, computed from the terms as given, for
  the partial isometry X that is the polar part of
  ``G = sum_i vec(b_i L_sigma) vec(a_i* L_rho)*`` and the unit vector
  ``eta = vec L_sigma``, where ``L L*`` is a state of the iterate and
  ``vec m = m.ravel()`` indexes the pairs ``(a, i)`` of the block form below.
  X is kept as its two d^2 x r factors and never multiplied out, so for n
  terms the value costs O(n d^2 r + n d^3).  As ``||X|| <= 1`` it is at most
  ``||T||_cb``; by Cauchy-Schwarz, with ``xi = vec L_rho``, it is at least
  ``<xi, (T (x) id_d)(X) eta> = ||R(rho)^(1/2) S(sigma)^(1/2)||_1``, the
  dual value of the states.  The states drop the eigenvalues of the iterate
  below ``sqrt(mu)``, which on the central path ``X Z = mu I`` are those
  that vanish at the optimum; a rank-one optimum, as for a single term, is
  then found in a step or two.

Before the terms are pruned, the lower end is taken at the maximally mixed
states ``rho = sigma = I/d`` by the chosen form on the terms as given (one
thin QR and one singular-value sum).  When it meets the raw gauge's value to
the stopping gap the bracket closes there, with the raw certificate and 0
iterations, and neither pruning nor the solve runs: for the regular
representation of any group both are ``||mu||_1`` (the representation is an
isometry: Ghahramani, Glasgow Math. J. 23, 1982; Neufang, Ruan and Spronk,
Trans. AMS 360, 2008).
Otherwise the solve starts from those states, ``rho = sigma = I/2d`` before
normalization, with that lower end as its first.  It stops at a certified
relative gap of 1e-12, or when a Cholesky factorization fails, and returns
the best certified pair; a Newton matrix that is singular to working
precision, as it can be near the optimum, gives its least-squares direction.
A crossed bracket (by more than ``TOL`` relative) or a certificate that does
not rebuild the map raises :class:`NumericalError`.

``T (x) id_d`` acts on d^2 x d^2 matrices in block form ``X[(a,i),(b,j)]``,
with T on the indices a and b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elementary import ElementaryOperator, apply, choi_distance, strongly_independent_kraus
from .errors import CUTOFF, TOL, NotCompletelyPositiveError, NumericalError

__all__ = ["NormInterval", "haagerup_norm_bounds", "prune_terms"]

# Solver settings, not gates: they decide when the interior-point solve
# stops, and both ends it returns are certified whatever they are.
_SDP_GAP = 1e-12           # stop at this certified relative gap
_SDP_ITERS = 100           # cap on interior-point iterations


@dataclass(frozen=True)
class NormInterval:
    """Certified bracket ``lower <= ||T||_cb <= upper``.

    ``certificate_terms`` is a rewriting of the map witnessing the upper
    bound: its factorization value is ``upper``, except on the completely
    positive fast path, where it is a Kraus rewriting and ``upper`` is the
    exact value ``||T(I)||`` (which positivity alone certifies).
    ``iterations`` counts interior-point iterations; 0 means the starting
    point already closed the bracket.  ``upper_trace`` logs the best upper
    bound after each iterate (non-increasing by construction).  Both ends
    are computed independently, so where they agree to rounding ``width``
    can be a few ulps below zero.
    """

    lower: float
    upper: float
    certificate_terms: tuple[tuple[np.ndarray, np.ndarray], ...]
    iterations: int
    upper_trace: tuple[float, ...]

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def report(self) -> dict:
        """The wire form of the bracket: ``{"lower":..,"upper":..,"iters":..}``."""
        return {"lower": float(self.lower), "upper": float(self.upper), "iters": int(self.iterations)}


def prune_terms(t: ElementaryOperator) -> ElementaryOperator:
    """Rewrite with linearly independent term families on both sides.

    A dependent left family is compressed through its SVD (folding the
    coefficients into the right family), then the same on the right.  The
    second pass keeps the left family independent because it mixes it through
    a matrix of orthonormal columns.  When every term is exactly diagonal only
    the diagonals are compressed, so the pruned terms are exactly diagonal.
    """
    left, right = _drop_zero_terms(t.left, t.right)
    n, d = left.shape[0], t.dim
    cols = slice(None, None, d + 1) if _is_diagonal(t) else slice(None)
    flat_l, flat_r = left.reshape(n, d * d)[:, cols], right.reshape(n, d * d)[:, cols]
    if n:
        flat_l, flat_r = _compress(flat_l, flat_r)
        flat_r, flat_l = _compress(flat_r, flat_l)
    out = np.zeros((2, flat_l.shape[0], d * d), dtype=np.complex128)
    out[:, :, cols] = flat_l, flat_r
    return ElementaryOperator(d, *out.reshape(2, -1, d, d))


def _is_diagonal(t: ElementaryOperator) -> bool:
    """True iff every left and right term has exact zeros off the diagonal."""
    off = ~np.eye(t.dim, dtype=bool)
    return not (t.left[:, off].any() or t.right[:, off].any())


def _drop_zero_terms(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms_l = np.linalg.norm(left, axis=(1, 2))
    norms_r = np.linalg.norm(right, axis=(1, 2))
    keep = (norms_l > 0) & (norms_r > 0)
    return left[keep], right[keep]


def _balanced(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rewriting at the diagonal gauge ``P = diag(||b_i||_F / ||a_i||_F)``,
    which gives both factors of each term one Frobenius norm."""
    gauge = np.sqrt(np.linalg.norm(right, axis=(1, 2)) / np.linalg.norm(left, axis=(1, 2)))
    return left * gauge[:, None, None], right / gauge[:, None, None]


def _compress(primary: np.ndarray, partner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Independent rows for the flattened terms ``primary``, folding the coefficients into ``partner``."""
    u, s, vh = np.linalg.svd(primary.T, full_matrices=False)
    rank = int(np.sum(s > CUTOFF * s[0])) if s.size else 0
    return (u[:, :rank] * s[:rank]).T, vh[:rank] @ partner


def _sqrt_pair(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, u = np.linalg.eigh((p + p.conj().T) / 2)
    w = np.clip(w, 1e-14 * max(float(w.max()), 1e-300), None)
    root = np.sqrt(w)
    return (u * root) @ u.conj().T, (u / root) @ u.conj().T


def _certificate(left: np.ndarray, right: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rewriting at gauge P: ``v_j = sum_i a_i (P^1/2)_ij`` and
    ``w_j = sum_i (P^-1/2)_ji b_i``, so that ``sum_j v_j x w_j = T(x)``."""
    r, d, _ = left.shape
    phalf, pneghalf = _sqrt_pair(p)
    return ((phalf.T @ left.reshape(r, d * d)).reshape(r, d, d),
            (pneghalf @ right.reshape(r, d * d)).reshape(r, d, d))


def _factorization_value(left: np.ndarray, right: np.ndarray) -> float:
    """``||sum a_i a_i*||^(1/2) ||sum b_i* b_i||^(1/2)``."""
    n, d, _ = left.shape
    row = left.transpose(1, 0, 2).reshape(d, n * d)
    col = right.reshape(n * d, d)
    lam_row = np.linalg.eigvalsh(row @ row.conj().T)[-1]
    lam_col = np.linalg.eigvalsh(col.conj().T @ col)[-1]
    return float(np.sqrt(max(lam_row, 0.0) * max(lam_col, 0.0)))


# The factorization SDP in standard form.  Both sides have the same shape once
# the right family is replaced by its adjoints, so the families are one stack
# F of shape (2, r, d, d) with F[0] = (a_i) and F[1] = (b_i*), and pairs of
# blocks, one per side, are stacked the same way.  Side s maps a state K to
# ``R_s(K)_ji = tr(F[s, j]* K F[s, i])``, with adjoint
# ``R_s*(E) = sum_ij E_ij F[s, i] F[s, j]*``.  The primal ``max <C, X>`` over
# X = [states, W], with ``C = -[[0, I], [I, 0]]`` on W, is constrained by
# ``A(X) = (tr rho + tr sigma, W_11 - R_0(rho), W_22 - R_1(sigma)) = (1, 0, 0)``;
# the dual is ``min y_0`` with slack ``Z = A*(y) - C >= 0``.  A multiplier
# vector y holds y_0, then P and Q row by row; A and A* are extended
# complex-linearly, and Hermitian P and Q are the real multipliers.
#
# X, Z and their steps are lists of blocks: an LP block (a real vector, the
# diagonal of a diagonal block), one Hermitian SDP block, or a stack of
# Hermitian SDP blocks of one size.

def _sym(block: np.ndarray) -> np.ndarray:
    return block if block.ndim == 1 else (block + block.conj().swapaxes(-1, -2)) / 2


def _sym_product(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return a * b * c if a.ndim == 1 else _sym(a @ b @ c)


def _step(x: list, alpha: float, dx: list) -> list:
    return [a + alpha * b for a, b in zip(x, dx)]


def _barrier(x: list, z: list) -> tuple[list, list]:
    """Per block, X and Z stacked (LP) or the inverses of their Cholesky factors
    (SDP), and ``G = Z^-1``; raises ``LinAlgError`` unless both are positive."""
    frames = [np.stack([a, b]) if a.ndim == 1 else np.linalg.inv(np.linalg.cholesky(np.stack([a, b])))
              for a, b in zip(x, z)]
    if not all(np.all(f > 0) for f in frames if f.ndim == 2):
        raise np.linalg.LinAlgError("an LP block left the positive orthant")
    return frames, [1 / f[1] if f.ndim == 2 else f[1].conj().swapaxes(-1, -2) @ f[1] for f in frames]


def _max_steps(frames: list, dx: list, dz: list) -> np.ndarray:
    """Largest alphas with ``X + alpha dX >= 0`` and ``Z + alpha dZ >= 0``: a ratio
    test on LP blocks, the lowest eigenvalue of the step in its frame on SDP blocks."""
    low = np.min([(np.stack([a, b]) / f if a.ndim == 1 else
                   np.linalg.eigvalsh(f @ np.stack([a, b]) @ f.conj().swapaxes(-1, -2))).reshape(2, -1).min(axis=1)
                  for f, a, b in zip(frames, dx, dz)], axis=0)
    return np.where(low >= 0, np.inf, -1.0 / np.minimum(low, -1e-300))


def _transposition(r: int) -> np.ndarray:
    """The index map t with ``y[t]`` holding y_0 and the transposes of P and
    Q, so that Hermitian P and Q have ``y[t] = conj(y)``."""
    swap = np.arange(r * r).reshape(r, r).T.ravel()
    return np.concatenate([[0], 1 + swap, 1 + r * r + swap])


def _newton_assembly(corner: float, column: np.ndarray, c: np.ndarray, xw, gw) -> np.ndarray:
    """The real Newton matrix ``Re M + Im M[:, t]`` (see ``_factorization_sdp``) of
    the complex matrix M with the forms' state part (corner, first column, r^2 x r^2
    diagonal blocks c) and the W part.  As the W blocks of X and G are Hermitian,
    the W part on the pair of blocks (s, u) is
    ``(X_su (x) conj(G_su) + G_su (x) conj(X_su)) / 2``; t swaps the pair of a
    column index (u, c, e) to (u, e, c)."""
    rr, r = c.shape[1], xw.shape[0] // 2
    m = np.empty((2 * rr + 1, 2 * rr + 1))
    m[0, 0] = corner
    m[1:, 0] = column.real + column.imag
    m[0, 1:] = column.real - column.imag.reshape(2, r, r).transpose(0, 2, 1).ravel()
    x4, g4 = xw.reshape(2, r, 2, r) / 2, gw.reshape(2, r, 2, r)
    w = x4[:, :, None, :, :, None] * g4.conj()[:, None, :, :, None, :]   # [s, a, b, u, c, e]
    w += g4[:, :, None, :, :, None] * x4.conj()[:, None, :, :, None, :]
    body = m[1:, 1:].reshape(2, r, r, 2, r, r)                          # a view of m
    np.add(w.real, w.imag.transpose(0, 1, 2, 3, 5, 4), out=body)
    for s in range(2):
        body[s, :, :, s] += c[s].real.reshape(r, r, r, r) + c[s].imag.reshape(r, r, r, r).transpose(0, 1, 3, 2)
    return m


def _kept_roots(w: np.ndarray, mu: float) -> np.ndarray:
    """Roots of the state weights w (a row per side) normalized to sum 1, without
    those below ``sqrt(mu)``, except the largest: on the central path
    ``X Z = mu I`` they are where X is smaller than Z, and vanish at the optimum."""
    w = np.where(w >= np.minimum(np.sqrt(mu), w.max(axis=1, keepdims=True)), w, 0.0)
    return np.sqrt(w / w.sum(axis=1, keepdims=True))


def _polar_core(vecs: np.ndarray):
    """QR factors of the families ``vec(a_i* L_0)`` and ``vec(b_i L_1)`` (the
    columns of ``vecs``) and the core ``C = R_b R_a*``, so that ``G = Q_b C Q_a*``.
    The trace norm of C is ``||R_0(rho)^1/2 R_1(sigma)^1/2||_1`` for
    ``rho = L_0 L_0*``, ``sigma = L_1 L_1*``, and never squares a state root."""
    q, tri = np.linalg.qr(vecs)
    return q[0], q[1], tri[1] @ tri[0].conj().T


def _polar_contraction(vecs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The trace norm of the core of ``vecs`` (see ``_polar_core``) and the
    factors ``(xa, xb)`` of the polar contraction ``X = xa xb*`` of G."""
    qa, qb, core = _polar_core(vecs)
    u, s, vh = np.linalg.svd(core)
    return float(s.sum()), qa @ vh.conj().T, qb @ u


class _Form:
    """X = [states, W]: rho and sigma in the block a form lays out, and one
    2r x 2r SDP block W, whose constraints, part ``diag(P, Q)`` of A*, objective C
    and part of the Newton matrix are written here.  A form supplies the states'
    identity ``unit``, R_s and R_s* on them (``_compressed``, ``_spread``), their
    blocks of the Newton matrix, the spreads and the state roots."""

    def __init__(self, fam: np.ndarray, unit: np.ndarray):
        _, self.r, self.d, _ = fam.shape
        self.unit = unit
        self.c = [np.zeros_like(unit), -np.eye(2 * self.r, k=self.r) - np.eye(2 * self.r, k=-self.r)]

    def values(self, x: list) -> np.ndarray:
        """``A(X)``."""
        w = x[1].reshape(2, self.r, 2, self.r)[[0, 1], :, [0, 1], :]  # W_11, W_22
        return np.concatenate([[np.vdot(self.unit, x[0])], (w - self._compressed(x[0])).ravel()])

    def adjoint(self, y: np.ndarray) -> list:
        """``A*(y) = [(y_0 I - R_0*(P), y_0 I - R_1*(Q)), diag(P, Q)]``."""
        r = self.r
        pq = y[1:].reshape(2, r, r)
        w = np.zeros((2 * r, 2 * r), dtype=np.complex128)
        w[:r, :r], w[r:, r:] = pq
        return [y[0].real * self.unit - self._spread(pq), w]

    def newton(self, x: list, g: list) -> np.ndarray:
        """The HKM Newton matrix ``E -> A(sym(X A*(E) G))`` with ``G = Z^-1``,
        in real coordinates (see ``_newton_assembly``).  Its first column is
        ``A(sym(X A*(e_0) G))``, which only the state blocks reach."""
        h = _sym_product(x[0], self.unit, g[0])
        return _newton_assembly(np.vdot(self.unit, h).real, -self._compressed(h).ravel(),
                                self._newton_blocks(x[0], g[0]), x[1], g[1])

    def dual_witness(self, roots: np.ndarray | None = None) -> tuple:
        """The dual value of the states ``L_s L_s*`` for the factors ``roots``,
        by default the maximally mixed states ``L = I / sqrt(d)``, and its
        lower-end witness ``(xa, xb, root)``."""
        roots = self.unit / np.sqrt(self.d) if roots is None else roots
        value, xa, xb = _polar_contraction(self.polar_vectors(roots))
        return value, self.witness(xa, xb, roots)


class _FactorizationForm(_Form):
    """The states as one stack of two d x d SDP blocks."""

    def __init__(self, fam: np.ndarray):
        super().__init__(fam, np.broadcast_to(np.eye(fam.shape[2]), (2,) + fam.shape[2:]))
        self.fam = fam

    def _compressed(self, k: np.ndarray) -> np.ndarray:
        """``R_s(K_s)`` for both sides, with entry ``[s, j, i] = tr(F[s, j]* K_s F[s, i])``."""
        fam, r = self.fam, self.r
        return np.conj(fam.reshape(2, r, -1)) @ (k[:, None] @ fam).reshape(2, r, -1).transpose(0, 2, 1)

    def _spread(self, e: np.ndarray) -> np.ndarray:
        """``R_s*(E_s) = sum_ij E_s[i, j] F[s, i] F[s, j]*`` for both sides."""
        fam, r, d = self.fam, self.r, self.d
        mixed = (e.transpose(0, 2, 1) @ fam.reshape(2, r, d * d)).reshape(2, r, d, d)  # [s, j] = sum_i E_s[i, j] F[s, i]
        cat = fam.transpose(0, 2, 1, 3).reshape(2, d, r * d)
        return mixed.transpose(0, 2, 1, 3).reshape(2, d, r * d) @ cat.conj().transpose(0, 2, 1)

    def _newton_blocks(self, xs: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """Without the symmetrization the (l,k),(i,j) entry of side s is
        ``tr(F[s,l]* X_s F[s,i] F[s,j]* G_s F[s,k])``: one
        ``(r^2, d^2) @ (d^2, r^2)`` product of the blocks ``F[s,l]* X_s F[s,i]``
        and ``F[s,j]* G_s F[s,k]``.  The other half, ``E -> A(G A*(E) X)``, is
        each block conjugated with its index pairs transposed."""
        fam, r, d = self.fam, self.r, self.d
        cat = fam.transpose(0, 2, 1, 3).reshape(2, d, r * d)
        cath = cat.conj().transpose(0, 2, 1)
        fx = (cath @ xs @ cat).reshape(2, r, d, r, d)        # [s, l, p, i, q]
        fg = (cath @ gs @ cat).reshape(2, r, d, r, d)        # [s, j, q, k, p]
        c = (fx.transpose(0, 1, 3, 2, 4).reshape(2, r * r, d * d)
             @ fg.transpose(0, 4, 2, 1, 3).reshape(2, d * d, r * r)).reshape(2, r, r, r, r)  # [s, l, i, j, k]
        c = c.transpose(0, 1, 4, 2, 3)                       # [s, l, k, i, j]
        return ((c + np.conj(c.transpose(0, 2, 1, 4, 3))) / 2).reshape(2, r * r, r * r)

    def spread_tops(self, e: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(self._spread(e))[:, -1]

    def state_roots(self, x: list, mu: float) -> np.ndarray:
        """Factors L_s, stacked, with ``L_s L_s*`` the kept states of X."""
        w, v = np.linalg.eigh(x[0])
        return v * _kept_roots(w, mu)[:, None, :]

    def polar_vectors(self, roots: np.ndarray) -> np.ndarray:
        """The d^2 x r families ``vec(a_i* L_0)`` and ``vec(b_i L_1)``, stacked."""
        fam, r, d = self.fam, self.r, self.d
        return (fam.conj().transpose(0, 1, 3, 2) @ roots[:, None]).reshape(2, r, d * d).transpose(0, 2, 1)

    def witness(self, xa: np.ndarray, xb: np.ndarray, roots: np.ndarray) -> tuple:
        return xa, xb, roots[1]


class _DiagonalForm(_Form):
    """The states as one LP block of length 2d, (diag(rho), diag(sigma)), for
    families ``F[s, i] = diag(f_si)``.  With ``K_s[(l, k), p] = conj(f_sl(p)) f_sk(p)``,
    ``R_s(p)`` raveled is ``K_s p``, the diagonal of ``R_s*(E)`` is ``K_s* vec(E)``
    and the state part of the Newton matrix is ``K_s diag(x_s / z_s) K_s*``.
    K is built on first use: the start point reads only the f_si."""

    def __init__(self, fam: np.ndarray):
        super().__init__(fam, np.ones(2 * fam.shape[2]))
        self.vecs = np.diagonal(fam, axis1=2, axis2=3)     # [s, i, p] = f_si(p)

    @cached_property
    def k(self) -> np.ndarray:
        return (self.vecs.conj()[:, :, None, :] * self.vecs[:, None, :, :]).reshape(2, self.r ** 2, self.d)

    def _compressed(self, p: np.ndarray) -> np.ndarray:
        return (self.k @ p.reshape(2, self.d, 1)).reshape(2, self.r, self.r)

    def _spread(self, e: np.ndarray) -> np.ndarray:
        """The diagonals of ``R_s*(E_s)``, laid out as the LP block."""
        return (e.conj().reshape(2, 1, -1) @ self.k).real.ravel()

    def _newton_blocks(self, xs: np.ndarray, gs: np.ndarray) -> np.ndarray:
        return (self.k * (xs * gs).reshape(2, 1, self.d)) @ self.k.conj().transpose(0, 2, 1)

    def spread_tops(self, e: np.ndarray) -> np.ndarray:
        return self._spread(e).reshape(2, self.d).max(axis=1)

    def state_roots(self, x: list, mu: float) -> np.ndarray:
        """The diagonals of the factors L_s, one row per side."""
        return _kept_roots(x[0].reshape(2, self.d), mu)

    def polar_vectors(self, roots: np.ndarray) -> np.ndarray:
        """The d nonzero rows (p, p) of ``vec(a_i* L_0)`` and ``vec(b_i L_1)``."""
        return (self.vecs.conj() * roots.reshape(2, 1, self.d)).transpose(0, 2, 1)

    def witness(self, xa: np.ndarray, xb: np.ndarray, roots: np.ndarray) -> tuple:
        """The witness in d^2 coordinates: row p of a factor is row (p, p)."""
        full = np.zeros((2, self.d ** 2, xa.shape[1]), dtype=np.complex128)
        full[:, ::self.d + 1] = xa, xb
        return full[0], full[1], np.diag(roots.reshape(2, self.d)[1])


def _lower_end(t: ElementaryOperator, xa: np.ndarray, xb: np.ndarray, root: np.ndarray) -> float:
    """``||(T (x) id_d)(X) eta||`` for ``X = xa xb*`` in block form
    ``X[(a,i),(b,j)]`` and the unit vector ``eta = root.ravel()``, from the
    terms as given.  A vector indexed by the pairs (a, i) is the d x d matrix
    of its reshape, on which ``L_n (x) I`` acts as ``M -> L_n M``; so the
    image is ``sum_n L_n unravel(X ravel(R_n root))``, and with X applied
    through its factors it costs O(n d^2 r + n d^3)."""
    n, d = t.n_terms, t.dim
    coeffs = (t.right @ root).reshape(n, d * d) @ xb.conj()      # xb* ravel(R_n root)
    images = (coeffs @ xa.T).reshape(n * d, d)                  # stacked unravel(xa c_n)
    return float(np.linalg.norm(t.left.transpose(1, 0, 2).reshape(d, n * d) @ images))


def _hkm_direction(form, x: list, g: list, newton: np.ndarray, rhs: np.ndarray, target: list, t):
    """Solve ``A(dX) = rp``, ``dZ = A*(dy)``, ``dX + sym(X dZ G) = target``
    in the real coordinates of the Newton matrix, given
    ``rhs = A(target) - rp``.  Near the optimum the Newton matrix can be
    singular to working precision, and its LU factorization can meet an exactly
    zero pivot; the direction is then the least-squares solution."""
    try:
        k = np.linalg.solve(newton, rhs.real + rhs.imag)
    except np.linalg.LinAlgError:
        k = np.linalg.lstsq(newton, rhs.real + rhs.imag)[0]
    dy = ((1 + 1j) * k + (1 - 1j) * k[t]) / 2
    dz = form.adjoint(dy)
    dx = [_sym(a - _sym_product(b, c, e)) for a, b, c, e in zip(target, x, dz, g)]
    return dx, dy, dz


def _factorization_sdp(left: np.ndarray, right: np.ndarray, cap: float, form, start: tuple):
    """Primal-dual interior-point solve of the factorization SDP for
    independent families in ``form`` (a form class), stopping once the
    certified gap, with ``cap`` as a second certified upper bound, is small.
    ``start`` is the dual value and witness at the maximally mixed states,
    taken on the terms as given (see ``haagerup_norm_bounds``); they are the
    states of the first iterate, so that iterate's lower end is not computed
    again.
    Returns the rewriting at the best gauge, the lower-end witness
    ``(xa, xb, root)`` of the best states (the factors of the polar
    contraction ``xa xb*`` and the root ``L_sigma``), the iteration count and
    the best upper value after each iterate.

    A real vector k stands for the multiplier ``((1+i) k + (1-i) k[t]) / 2``,
    and an output h of A is read back as ``Re h + Im h``; so the complex
    Newton matrix M becomes the real matrix ``Re M + Im M[:, t]``."""
    r, d, _ = left.shape
    left, right = _balanced(left, right)
    row = np.linalg.norm(left.transpose(1, 0, 2).reshape(d, r * d), 2)
    col = np.linalg.norm(right.reshape(r * d, d), 2)
    left, right = left / row, right / col
    form = form(np.stack([left, right.conj().transpose(0, 2, 1)]))
    scale, cap = row * col, cap / (row * col)
    # Z starts at [(3I - 2 R_0*(I), 3I - 2 R_1*(I)), [[2I, I], [I, 2I]]],
    # positive definite because ||R_0*(I)|| = ||R_1*(I)|| = 1 after scaling
    x = [form.unit / (2 * d), np.eye(2 * r, dtype=np.complex128) / (2 * d)]
    y = np.concatenate([[3.0], 2 * np.eye(r).ravel(), 2 * np.eye(r).ravel()]).astype(np.complex128)
    z = _step(form.adjoint(y), -1.0, form.c)
    n = 2 * d + 2 * r
    b = np.eye(1, len(y), dtype=np.complex128)[0]
    t = _transposition(r)
    upper, lower = np.inf, start[0] / scale
    p_best = roots_best = None
    trace: list[float] = []
    iterations = 0
    for _ in range(_SDP_ITERS):
        try:
            frames, g = _barrier(x, z)
        except np.linalg.LinAlgError:
            break
        mu = sum(np.vdot(u, v).real for u, v in zip(x, z)) / n
        p = y[1:r * r + 1].reshape(r, r)
        # the factorization value ||R_0*(P)||^(1/2) ||R_1*(P^-1)||^(1/2) of the
        # rewriting at gauge P (see ``_certificate``), without forming it
        top = form.spread_tops(np.stack([p, np.linalg.inv(p)]))
        value = float(np.sqrt(max(top[0], 0.0) * max(top[1], 0.0)))
        if value < upper:
            upper, p_best = value, p
        trace.append(upper)
        if iterations:
            roots = form.state_roots(x, mu)
            value = float(np.linalg.svd(_polar_core(form.polar_vectors(roots))[2], compute_uv=False).sum())
            if value > lower:
                lower, roots_best = value, roots
        if min(upper, cap) - lower <= _SDP_GAP * min(upper, cap):
            break
        iterations += 1
        try:
            newton = form.newton(x, g)
            rp = b - form.values(x)
            # predictor (target -X, so A(target) - rp = -b), then the
            # Mehrotra corrector with centering mu_aff / mu
            dx, _, dz = _hkm_direction(form, x, g, newton, -b, [-a for a in x], t)
            ap, ad = np.minimum(1.0, _max_steps(frames, dx, dz))
            mu_aff = sum(np.vdot(u, v).real for u, v in zip(_step(x, ap, dx), _step(z, ad, dz))) / n
            sigma = min(1.0, max(mu_aff / mu, 0.0))
            target = [sigma * mu * e - a - _sym_product(da, dc, e) for a, da, dc, e in zip(x, dx, dz, g)]
            dx, dy, dz = _hkm_direction(form, x, g, newton, form.values(target) - rp, target, t)
        except np.linalg.LinAlgError:
            break
        # step a fraction 0.9 + 0.09 min(1, a_p, a_d) of the way to the boundary
        steps = _max_steps(frames, dx, dz)
        ap, ad = np.minimum(1.0, (0.9 + 0.09 * min(1.0, *steps)) * steps)
        x = [_sym(a) for a in _step(x, ap, dx)]
        y = y + ad * dy
        z = _step(z, ad, dz)
    cert_left, cert_right = _certificate(left * row, right * col, p_best)
    witness = start[1] if roots_best is None else form.dual_witness(roots_best)[1]
    return cert_left, cert_right, witness, iterations, [scale * v for v in trace]


def haagerup_norm_bounds(t: ElementaryOperator, restarts: int = 0, seed: int = 0) -> NormInterval:
    """Bracket the cb norm of an elementary operator; see the module docstring.

    ``restarts`` and ``seed`` are ignored: the bracket is deterministic.  They
    stay so that callers written for a randomized lower bound keep working.
    """
    if t.n_terms == 0:
        raise ValueError("the term list is empty")
    d = t.dim

    try:
        kraus = strongly_independent_kraus(t)
    except NotCompletelyPositiveError:
        kraus = None
    if kraus is not None:
        t_of_one = apply(t, np.eye(d, dtype=np.complex128))
        value = float(np.linalg.eigvalsh((t_of_one + t_of_one.conj().T) / 2).max())
        value = max(value, 0.0)
        cert = tuple((k, k.conj().T) for k in kraus)
        return NormInterval(value, value, cert, 0, (value,))

    # one diagonal decision for the start and the solve: pruning keeps diagonal terms diagonal
    form = _DiagonalForm if _is_diagonal(t) else _FactorizationForm
    left, right = _drop_zero_terms(t.left, t.right)
    start = form(np.stack([left, right.conj().transpose(0, 2, 1)])).dual_witness()
    cert = _balanced(left, right)
    upper = _factorization_value(*cert)
    witness, iterations, trace = start[1], 0, [upper]
    # the maximally mixed states close the bracket for every regular
    # representation (and the zero map); otherwise prune and solve
    if upper - start[0] > _SDP_GAP * upper:
        pruned = prune_terms(t)
        if pruned.n_terms == 0:
            return NormInterval(0.0, 0.0, (), 0, (0.0,))
        *solved, witness, iterations, trace = _factorization_sdp(pruned.left, pruned.right, upper, form, start)
        trace = [min(upper, v) for v in trace]
        value = _factorization_value(*solved)
        if value <= upper:
            upper, cert = value, solved
    miss = choi_distance(ElementaryOperator(d, *cert), t)
    if miss > TOL * upper:
        raise NumericalError(f"certificate misses the map by {miss:.3e}")
    lower = _lower_end(t, *witness)
    if lower > upper * (1 + TOL):
        raise NumericalError(f"crossed cb-norm bracket: lower {lower!r} > upper {upper!r}")
    return NormInterval(lower, upper, tuple(zip(*cert)), iterations, tuple(trace))
