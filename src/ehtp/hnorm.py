"""Certified two-sided bounds for the completely bounded norm of an elementary operator.

``haagerup_norm_bounds`` closes the bracket on the first of four paths that
does, and ``NormInterval.path`` names it: ``"cp"``, ``"start"``,
``"weights"`` or ``"ipm"``.

**Completely positive maps** (``"cp"``).  Both bounds are the exact value
``||T(I)||``, and the certificate is a Kraus rewriting of the map.  The map
with no terms, which the zero measure realizes, is one, with no Kraus
terms and cb norm 0.

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

A primal-dual interior-point method (``"ipm"``; HKM direction, Mehrotra
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
The states are one stack of 2d/b Hermitian b x b blocks, rho and sigma
being block-diagonal, with the block size b chosen once from the terms as
given.  Maps whose terms are all exactly zero off the diagonal (Γ images of
character representations, ``schur_op``) take b = 1 and are pruned on
their diagonals: their optimal states are diagonal, the dual being
Haagerup's ``max_{p,q} ||D_p^(1/2) S D_q^(1/2)||_1`` (V. Paulsen,
*Completely Bounded Maps and Operator Algebras*, CUP 2002, ch. 8).  Every
other map takes b = d.  Every state operation is a contraction with the
Gram blocks ``F_kc F_lc*`` of the terms' b x b diagonal blocks F_c (see
``_Form``), so the Newton assembly costs r^4 d b: r^4 d for a Schur
multiplier, r^4 d^2 for a general map.  Every cone is thus a stack of PSD
blocks of one size, one of the
cones of SDPT3 (Toh, Todd and Tütüncü, Optim. Methods Softw. 11, 1999), and
one code path steps them all: the nonnegative orthant is a stack of 1 x 1
blocks, as a Lorentz cone is of 2 x 2 ones (F. Alizadeh and D. Goldfarb,
Math. Program. 95, 2003).  Both ends are certified:

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
  then found in a step or two.  An optimum can also hold weights that are
  tiny but not zero, which the truncation drops too, so where it drops one
  the lower end is also taken at all the states of the iterate, and the
  larger value is kept.

Before the terms are pruned, the lower end is taken at the maximally mixed
states ``rho = sigma = I/d`` in blocks of size b on the terms as given (one
thin QR and one singular-value sum).  When it meets the raw gauge's value to
the stopping gap the bracket closes there (``"start"``), with the raw
certificate and 0 iterations, and neither pruning nor the solve runs: for
the regular representation of any group both are ``||mu||_1`` (the
representation is an isometry: Ghahramani, Glasgow Math. J. 23, 1982;
Neufang, Ruan and Spronk, Trans. AMS 360, 2008).  A map with one nonzero
term ``a . b`` has cb norm ``||a|| ||b||``, the raw gauge's value, and the
start point then also tries the states ``u u*`` and ``v v*`` at the top left
singular vector u of a and the top right singular vector v of b (for b = 1
the basis vectors at the largest ``|a_jj|`` and ``|b_kk|``), which attain it.

Two weight paths run before the solve, both named ``"weights"``: Newton on
the state weights, the roots a and b of diagonal states when b = 1, and on
the state factors L when b = d.  The first runs on the terms as given, the
second on the pruned terms.

**The weights, b = 1.**  A map with b = 1 that the start
point leaves open is next tried, before pruning, by Newton ascent of
Haagerup's dual on its symbol S (``elementary.schur_symbol`` of the terms as
given): ``f(a, b) = ||D_a S D_b||_1`` over unit vectors a and b in R^d, the
state weights being ``p = a^2`` and ``q = b^2``, from ``a = b = d^-1/2``.
Each step takes the thin SVD ``M = D_a S D_b = U Sigma V*``, truncated at
``CUTOFF * sigma_1``, the gradient and the 2d x 2d Hessian, the latter from
one (2d, d, d) batch of directional derivatives of M and of its polar factor
``W = U V*``; it inverts the Hessian less ``f I`` on the tangent space of the
two spheres, each eigenvalue ``lambda`` replaced by ``-max(|lambda|, 1e-8 f)``,
and halves the step until f does not fall.  At a stationary point where
every weight is interior, ``X = D_a^-1 U Sigma^1/2`` and
``Y = D_b^-1 V Sigma^1/2`` factor ``S = X Y*``, and the rewriting with the
terms ``(diag X_k, diag conj Y_k)`` has the value
``max_i ||X_i|| max_j ||Y_j|| = f``.  That rewriting certifies the upper
end, and the lower end is the one above, at the states ``diag(p)`` and
``diag(q)``, through the certification that the start point and the solve
share: the raw rewriting where its value is smaller, the rebuild of the map
and the check that the bracket is not crossed.  The bracket is taken when
its certified gap is within the stopping gap.  Otherwise the solve runs as
it would without this path: when a weight falls to ``CUTOFF`` of the
largest (the optimum has a zero weight, where f is not smooth), when no
halving keeps f from falling, when 20 steps leave the gap open, or when
the certificate does not rebuild the map.  A step costs one
SVD of a d x d matrix, O(d^4) for the Hessian and one 2d x 2d ``eigh``, and
a full-rank symbol closes in 3 to 10 steps.

**The factors, b = d.**  A map with b = d that the start point leaves open
is pruned and then tried by Newton ascent of the dual
``f = tr (A^1/2 B A^1/2)^1/2`` (J. Watrous, Chicago J. Theor. Comput. Sci.
2013) over factors of the states, ``rho = L_0 L_0*`` and ``sigma = L_1 L_1*``
with ``L_s`` of size d x k and ``||L_s||_F = 1`` (S. Burer and R. Monteiro,
Math. Program. 95, 2003).  With the pruned, balanced families
``F_0 = (a_i)`` and ``F_1 = (b_i*)``, ``A = V_0* V_0`` and ``B = V_1* V_1``
are r x r, V_s having the columns ``vec(F_s,i* L_s)``, and f is the trace
norm of ``G = V_1 V_0*``, as for the lower end.  With the geometric mean
``P = A^-1 # B``, ``df = tr(P dA)/2 + tr(P^-1 dB)/2``: the gradient in L_s is
``K_s L_s`` with ``K_0 = sum_ij conj(P)_ij a_i a_j*`` and
``K_1 = sum_ij conj(P^-1)_ij b_i* b_j``.  The Hessian is the derivative of
that gradient through the polar factor W of G, whose derivative is that of
the weight path's polar factor, for all 4dk real directions in one batch.
The step rule is the weights': the Hessian less ``f I``, off the two factors
and off the directions ``L_s X`` (X anti-Hermitian) that leave the states
where they are, each eigenvalue replaced by ``-max(|lambda|, 1e-8 f)``,
then halvings.  k runs from ``ceil(r/d)``, the least rank that keeps A
nonsingular, up to d: the factors start as the top k eigenvectors of
``K_s`` at the maximally mixed states, over ``sqrt(k)``, after two
fixed-point steps ``L <- K L``, and where a step no longer raises f while
``K_s`` has an eigenvalue above f outside the range of ``L_s``, rank k + 1
starts again in the same way from the current factors.  At a stationary
point ``lambda_max(K_s) = f`` on both sides, so the rewriting
``_certificate`` at the gauge ``conj P`` (the conjugate: the gauge's index
convention transposes P) has the value f and certifies the upper end; the
lower end is the one above at the states ``L_s L_s*``, through the same
certification.  The path declines, and the solve runs, when the smallest
eigenvalue of A or B falls to ``CUTOFF ** 0.5`` of its largest (an optimum
with ``rank(rho) d < r``, where f is not smooth), when no halving keeps f
from falling, when 20 steps leave the gap open, or when the certificate does
not rebuild the map.  A step costs O(d^3 k^3 r) for the Hessian and one
4dk x 4dk ``eigh``; generic maps with d^2 terms close in 4 to 5 steps, at
d = 8 in 1 to 1.5 s.

The solve starts from the maximally mixed states, ``rho = sigma = I/2d``
before normalization, with the start point's lower end as its first.  It
stops at a certified relative gap of 1e-12, or when a Cholesky
factorization fails, and returns the best certified pair; a Newton matrix
that is singular to working precision, as it can be near the optimum, gives
its least-squares direction.  A crossed bracket (by more than ``TOL``
relative), on any path, raises :class:`NumericalError`, and so does a
certificate of the start point or the solve that does not rebuild the map;
on either weight path such a certificate sends the map to the solve.

``T (x) id_d`` acts on d^2 x d^2 matrices in block form ``X[(a,i),(b,j)]``,
with T on the indices a and b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elementary import ElementaryOperator, apply, choi_distance, schur_symbol, strongly_independent_kraus
from .errors import CUTOFF, TOL, NotCompletelyPositiveError, NumericalError

__all__ = ["NormInterval", "haagerup_norm_bounds", "prune_terms"]

# Solver settings, not gates: they decide when the interior-point solve and
# the Newton ascent on the weights stop, and both ends either returns are
# certified whatever they are.
_SDP_GAP = 1e-12           # stop at this certified relative gap
_SDP_ITERS = 100           # cap on interior-point iterations
_WEIGHT_ITERS = 20         # cap on Newton steps in the state weights
_WEIGHT_HALVINGS = 30      # cap on step halvings in one Newton step


@dataclass(frozen=True)
class NormInterval:
    """Certified bracket ``lower <= ||T||_cb <= upper``.

    ``certificate_terms`` is a rewriting of the map witnessing the upper
    bound: its factorization value is ``upper``, except on the completely
    positive fast path, where it is a Kraus rewriting and ``upper`` is the
    exact value ``||T(I)||`` (which positivity alone certifies).
    ``path`` names the path that closed the bracket (see the module
    docstring): ``"cp"`` for a completely positive map, ``"start"`` when
    the maximally mixed states, or for a single term the states at the top
    singular vectors of its factors, meet the raw gauge, ``"weights"`` for
    Newton on the state weights (the roots of diagonal states for a Schur
    multiplier, b = 1, and the factors L of ``rho = L L*`` for every other
    map, b = d), ``"ipm"`` for the interior-point solve.  ``iterations``
    counts that path's steps: Newton steps on ``"weights"``, interior-point
    iterations on ``"ipm"``, 0 on the other two.  ``upper_trace`` logs the
    best upper bound after each
    iterate; on every path it is a running minimum times a positive scale,
    so it never rises, not even by rounding.  ``report()`` leaves ``path``
    out.  Both ends are computed independently, so where they agree to
    rounding ``width`` can be a few ulps below zero.
    """

    lower: float
    upper: float
    certificate_terms: tuple[tuple[np.ndarray, np.ndarray], ...]
    iterations: int
    upper_trace: tuple[float, ...]
    path: str

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
    a matrix of orthonormal columns.  The terms are balanced first, so a scalar
    moved between a term's factors changes nothing.  Only the entries in the
    diagonal blocks of ``_block_size`` are compressed, so diagonal terms stay
    exactly diagonal.
    """
    left, right = _balanced(*_drop_zero_terms(t.left, t.right))
    n, d = left.shape[0], t.dim
    cols = _block_positions(d, _block_size(t))
    flat_l, flat_r = left.reshape(n, d * d)[:, cols], right.reshape(n, d * d)[:, cols]
    if n:
        flat_l, flat_r = _compress(flat_l, flat_r)
        flat_r, flat_l = _compress(flat_r, flat_l)
    out = np.zeros((2, flat_l.shape[0], d * d), dtype=np.complex128)
    out[:, :, cols] = flat_l, flat_r
    return ElementaryOperator(d, *out.reshape(2, -1, d, d))


def _block_size(t: ElementaryOperator) -> int:
    """1 when every left and right term has exact zeros off the diagonal, else d."""
    off = ~np.eye(t.dim, dtype=bool)
    return t.dim if t.left[:, off].any() or t.right[:, off].any() else 1


def _block_positions(d: int, b: int) -> np.ndarray:
    """The raveled positions of the entries of the b x b diagonal blocks of a
    d x d matrix, block by block, each block row by row."""
    n = d // b
    return np.arange(d * d).reshape(n, b, n, b).diagonal(axis1=0, axis2=2).transpose(2, 0, 1).ravel()


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
# blocks, one per side, are stacked the same way.  Side s maps a state X to
# ``R_s(X)_ji = tr(F[s, j]* X F[s, i])``, with adjoint
# ``R_s*(E) = sum_ij E_ij F[s, i] F[s, j]*``.  The primal ``max <C, X>`` over
# X = [states, W], with ``C = -[[0, I], [I, 0]]`` on W, is constrained by
# ``A(X) = (tr rho + tr sigma, W_11 - R_0(rho), W_22 - R_1(sigma)) = (1, 0, 0)``;
# the dual is ``min y_0`` with slack ``Z = A*(y) - C >= 0``.  A multiplier
# vector y holds y_0, then P and Q row by row; A and A* are extended
# complex-linearly, and Hermitian P and Q are the real multipliers.
#
# X, Z and their steps are lists of two blocks: the states, a (2, d/b, b, b)
# stack of Hermitian b x b blocks, and the 2r x 2r block W.

def _sym(block: np.ndarray) -> np.ndarray:
    return (block + block.conj().swapaxes(-1, -2)) / 2


def _sym_product(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return _sym(a @ b @ c)


def _step(x: list, alpha: float, dx: list) -> list:
    return [a + alpha * b for a, b in zip(x, dx)]


def _barrier(x: list, z: list) -> tuple[list, list]:
    """Per block, the inverses of the Cholesky factors of X and Z, stacked, and
    ``G = Z^-1``; raises ``LinAlgError`` unless both are positive definite."""
    frames = [np.linalg.inv(np.linalg.cholesky(np.stack([a, b]))) for a, b in zip(x, z)]
    return frames, [f[1].conj().swapaxes(-1, -2) @ f[1] for f in frames]


def _max_steps(frames: list, dx: list, dz: list) -> np.ndarray:
    """Largest alphas with ``X + alpha dX >= 0`` and ``Z + alpha dZ >= 0``: the
    lowest eigenvalue of the step in its frame, per block."""
    low = np.min([np.linalg.eigvalsh(f @ np.stack([a, b]) @ f.conj().swapaxes(-1, -2)).reshape(2, -1).min(axis=1)
                  for f, a, b in zip(frames, dx, dz)], axis=0)
    return np.where(low >= 0, np.inf, -1.0 / np.minimum(low, -1e-300))


def _transposition(r: int) -> np.ndarray:
    """The index map t with ``y[t]`` holding y_0 and the transposes of P and
    Q, so that Hermitian P and Q have ``y[t] = conj(y)``."""
    swap = np.arange(r * r).reshape(r, r).T.ravel()
    return np.concatenate([[0], 1 + swap, 1 + r * r + swap])


def _newton_assembly(corner: float, column: np.ndarray, c: np.ndarray, xw, gw) -> np.ndarray:
    """The real Newton matrix ``Re M + Im M[:, t]`` (see ``_factorization_sdp``) of
    the complex matrix M with the form's state part (corner, first column, r^2 x r^2
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
    ``X Z = mu I`` they are where X is smaller than Z, which is where the optimum
    has a zero weight or one below about ``sqrt(mu)``.  At ``mu = 0`` every
    weight is kept."""
    w = np.where(w >= np.minimum(np.sqrt(mu), w.max(axis=1, keepdims=True)), w, 0.0)
    return np.sqrt(w / w.sum(axis=1, keepdims=True))


def _polar_core(vecs: np.ndarray):
    """QR factors ``(Q_a, Q_b)`` and ``(R_a, R_b)``, stacked, of the families
    ``vec(a_i* L_0)`` and ``vec(b_i L_1)`` (the columns of ``vecs``) and the
    core ``C = R_b R_a*``, so that ``G = Q_b C Q_a*``.  The trace norm of C is
    ``||R_0(rho)^1/2 R_1(sigma)^1/2||_1`` for ``rho = L_0 L_0*``,
    ``sigma = L_1 L_1*``, and never squares a state root."""
    q, tri = np.linalg.qr(vecs)
    return q, tri, tri[1] @ tri[0].conj().T


def _polar_contraction(vecs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The trace norm of the core of ``vecs`` (see ``_polar_core``) and the
    factors ``(xa, xb)`` of the polar contraction ``X = xa xb*`` of G."""
    q, _, core = _polar_core(vecs)
    u, s, vh = np.linalg.svd(core)
    return float(s.sum()), q[0] @ vh.conj().T, q[1] @ u


class _Form:
    """X = [states, W]: rho and sigma as one (2, d/b, b, b) stack of PSD
    blocks, block-diagonal with blocks of size b, and one 2r x 2r SDP block W.
    Every state operation is a contraction with the Gram blocks
    ``K[s, (l, k), c] = F[s, k]_c F[s, l]_c*`` of the terms' b x b diagonal
    blocks ``F_c``: ``R_s(X)`` raveled is ``K_s vec(X^T)``, ``R_s*(E)`` is
    ``vec(E^T) K_s`` and the state part of the Newton matrix is
    ``sum_c (G_c K_c X_c + X_c K_c G_c) / 2 K_c*``.  b is 1 for families that
    are exactly diagonal and d otherwise (``_block_size``).  K is built on
    first use: the start point reads only the blocks F_c."""

    def __init__(self, fam: np.ndarray, b: int):
        _, self.r, self.d, _ = fam.shape
        self.b, n = b, self.d // b
        self.positions = _block_positions(self.d, b)
        self.blocks = fam.reshape(2, self.r, -1)[:, :, self.positions].reshape(2, self.r, n, b, b)
        self.unit = np.eye(b)[None, None].repeat(n, axis=1).repeat(2, axis=0)
        self.c = [np.zeros(self.unit.shape), -np.eye(2 * self.r, k=self.r) - np.eye(2 * self.r, k=-self.r)]

    @cached_property
    def k(self) -> np.ndarray:
        """The Gram blocks, shape (2, r^2, d/b, b, b)."""
        f = self.blocks
        return (f[:, None] @ f.conj().swapaxes(-1, -2)[:, :, None]).reshape(2, self.r ** 2, *f.shape[2:])

    def _compressed(self, x: np.ndarray) -> np.ndarray:
        """``R_s(X_s)`` for both sides, with entry ``[s, j, i] = tr(F[s, j]* X_s F[s, i])``."""
        return (self.k.reshape(2, self.r ** 2, -1) @ x.swapaxes(-1, -2).reshape(2, -1, 1)).reshape(2, self.r, self.r)

    def _spread(self, e: np.ndarray) -> np.ndarray:
        """``R_s*(E_s) = sum_ij E_s[i, j] F[s, i] F[s, j]*`` for both sides."""
        flat = e.swapaxes(-1, -2).reshape(2, 1, -1) @ self.k.reshape(2, self.r ** 2, -1)
        return flat.reshape(self.unit.shape)

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
        ``A(sym(X A*(e_0) G))``, which only the state blocks reach.  Without the
        symmetrization the (l,k),(i,j) entry of the state part of side s is
        ``sum_c tr(X_c K_c(j,i) G_c K_c(l,k)) = <K_c(i,j), G_c K_c(l,k) X_c>``;
        the other half, ``E -> A(G A*(E) X)``, swaps X and G."""
        r2, k = self.r ** 2, self.k
        xs, gs = x[0][:, None], g[0][:, None]
        h = _sym(x[0] @ g[0])
        mixed = ((gs @ k @ xs + xs @ k @ gs) / 2).reshape(2, r2, -1)
        blocks = mixed @ k.reshape(2, r2, -1).conj().swapaxes(-1, -2)
        return _newton_assembly(np.vdot(self.unit, h).real, -self._compressed(h).ravel(), blocks, x[1], g[1])

    def spread_tops(self, e: np.ndarray) -> np.ndarray:
        """The largest eigenvalue of ``R_s*(E_s)`` for both sides."""
        return np.linalg.eigvalsh(self._spread(e)).reshape(2, -1).max(axis=1)

    def state_roots(self, x: list, mu: float) -> list:
        """Factors L_s, stacked as the states, with ``L_s L_s*`` the kept states of
        X (see ``_kept_roots``); then, when that drops a weight, the factors of
        all the states of X."""
        w, v = np.linalg.eigh(x[0])
        kept = _kept_roots(w.reshape(2, -1), mu)
        roots = [kept] if kept.all() else [kept, _kept_roots(w.reshape(2, -1), 0.0)]
        return [v * root.reshape(w.shape)[..., None, :] for root in roots]

    def polar_vectors(self, roots: np.ndarray) -> np.ndarray:
        """The families ``vec(a_i* L_0)`` and ``vec(b_i L_1)``, stacked, on the
        positions of the blocks, the only rows that are not zero."""
        f = self.blocks
        return (f.conj().swapaxes(-1, -2) @ roots[:, None]).reshape(2, self.r, -1).swapaxes(1, 2)

    def witness(self, xa: np.ndarray, xb: np.ndarray, roots: np.ndarray) -> tuple:
        """The witness in d^2 coordinates, with the root ``L_1`` as a d x d matrix."""
        full = np.zeros((2, self.d ** 2, xa.shape[1]), dtype=np.complex128)
        full[:, self.positions] = xa, xb
        root = np.zeros(self.d ** 2, dtype=roots.dtype)
        root[self.positions] = roots[1].ravel()
        return full[0], full[1], root.reshape(self.d, self.d)

    def dual_witness(self, roots: np.ndarray | None = None) -> tuple:
        """The dual value of the states ``L_s L_s*`` for the factors ``roots``,
        by default the maximally mixed states ``L = I / sqrt(d)``, and its
        lower-end witness ``(xa, xb, root)``."""
        roots = self.unit / np.sqrt(self.d) if roots is None else roots
        value, xa, xb = _polar_contraction(self.polar_vectors(roots))
        return value, self.witness(xa, xb, roots)


def _top_roots(form: _Form) -> np.ndarray:
    """For a single term, the roots of the states ``u u*`` and ``v v*`` at
    the top left singular vectors of ``F_0 = a`` and ``F_1 = b*`` among the
    form's blocks: there ``R_0(rho) R_1(sigma) = ||a||^2 ||b||^2``, so the
    dual value is the cb norm ``||a|| ||b||``.  For b = 1 they are the basis
    vectors at the largest ``|a_jj|`` and ``|b_kk|``."""
    u, s, _ = np.linalg.svd(form.blocks[:, 0])
    top = s[..., 0].argmax(axis=1)
    roots = np.zeros(form.unit.shape, dtype=np.complex128)
    side = np.arange(2)
    roots[side, top, :, 0] = u[side, top, :, 0]
    return roots


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


# The weight path.  For a Schur multiplier with symbol S the dual is
# ``max ||D_a S D_b||_1`` over unit vectors a, b in R^d, the state weights
# being ``p = a^2`` and ``q = b^2``.  The objective f is smooth wherever no
# weight is zero, since ``M = D_a S D_b`` then keeps the rank of S, and it is
# homogeneous of degree one in a and in b, so at a stationary point its
# gradient is ``f (a, b)``.

def _weight_factors(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """The thin SVD ``M = u diag(sig) v*`` of ``M = D_a S D_b``, truncated at
    ``CUTOFF * sigma_1``."""
    u, sig, vh = np.linalg.svd(a[:, None] * s * b)
    k = int(np.sum(sig > CUTOFF * sig[0]))
    return u[:, :k], sig[:k], vh[:k].conj().T


def _weight_derivatives(s: np.ndarray, a: np.ndarray, b: np.ndarray, factors: tuple) -> tuple:
    """The gradient and the 2d x 2d Hessian of ``f(a, b) = ||D_a S D_b||_1`` in
    the coordinates ``(a, b)``, from the factors of M.

    With the polar factor ``W = U V*`` and ``G = S o conj(W)``, f changes by
    ``Re tr(W* dM)``, so the gradient is ``(Re G b, Re G^T a)``.  A Hessian
    column differentiates it along one coordinate: ``dM`` is a row of ``S D_b``
    or a column of ``D_a S``, and the polar factor moves by
    ``_polar_derivatives``."""
    u, sig, v = factors
    d = len(a)
    g = s * (u @ v.conj().T).conj()
    grad = np.concatenate([(g @ b).real, (a @ g).real])
    idx = np.arange(d)
    dm = np.zeros((2 * d, d, d), dtype=np.complex128)
    dm[idx, idx] = s * b
    dm[d + idx, :, idx] = (a[:, None] * s).T
    dg = s * _polar_derivatives(u, sig, v, dm).conj()
    h = np.concatenate([(dg @ b).real, (a @ dg).real], axis=1)    # row n: the gradient's change along n
    h[:d, d:] += g.real
    h[d:, :d] += g.real.T
    return grad, (h + h.T) / 2


def _polar_derivatives(u: np.ndarray, sig: np.ndarray, v: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """The derivatives of the polar factor ``W = U V*`` of ``M = U Sigma V*``
    (the thin SVD, of the rank of M) along each of the stacked directions dM:
    ``dW = U Omega V* + (I - UU*) dM V Sigma^-1 V* + U Sigma^-1 U* dM (I - VV*)``
    with ``Omega = (K - K*) / (sigma_i + sigma_j)`` and ``K = U* dM V``, the
    derivative on the matrices of the rank of M."""
    uh, vh = u.conj().T, v.conj().T
    dmv, udm = dm @ v, uh @ dm
    k = uh @ dmv
    omega = (k - k.conj().swapaxes(1, 2)) / (sig[:, None] + sig)
    return u @ (omega @ vh + (udm - k @ vh) / sig[:, None]) + ((dmv - u @ k) / sig) @ vh


def _ascent_step(normals: np.ndarray, grad: np.ndarray, hess: np.ndarray, f: float) -> np.ndarray:
    """The Newton step of a function of degree one on each half of its
    argument, over the product of the two unit spheres: the Hessian less
    ``f I`` on the complement of the orthonormal columns ``normals`` (the two
    halves of the point, and any directions along which f is constant), each
    eigenvalue ``lambda`` replaced by ``-max(|lambda|, 1e-8 f)`` so that the
    step ascends."""
    n = len(grad)
    tangent = np.eye(n) - normals @ normals.T
    lam, vec = np.linalg.eigh(tangent @ (hess - f * np.eye(n)) @ tangent)
    return tangent @ (vec @ ((vec.T @ (tangent @ grad)) / np.maximum(np.abs(lam), 1e-8 * f)))


def _weight_ascent(s: np.ndarray):
    """Newton ascent of ``||D_a S D_b||_1`` over unit vectors a and b, from
    ``a = b = d^-1/2``.  Returns ``(a, b, factors, steps, uppers)`` at the first
    iterate whose factorization ``X = D_a^-1 U Sigma^1/2``,
    ``Y = D_b^-1 V Sigma^1/2`` of S has value ``max_i ||X_i|| max_j ||Y_j||``
    within the stopping gap of f, with that value at each iterate in
    ``uppers``; or None when a weight falls to ``CUTOFF`` of the largest, a
    step finds no point where f does not fall, or the steps run out.

    Each step is ``_ascent_step``, halved until f does not fall by more than
    rounding.  ``X_i`` squared is
    ``(U Sigma U*)_ii / a_i^2``, which is f at a stationary point, and so is
    every ``Y_j`` squared: there the two ends meet."""
    d = s.shape[0]
    a = b = np.full(d, d ** -0.5)
    uppers = []
    for steps in range(_WEIGHT_ITERS + 1):
        factors = u, sig, v = _weight_factors(s, a, b)
        f = sig.sum()
        rows = (np.abs(u) ** 2 @ sig) / a ** 2, (np.abs(v) ** 2 @ sig) / b ** 2
        uppers.append(float(np.sqrt(rows[0].max() * rows[1].max())))
        if uppers[-1] - f <= _SDP_GAP * uppers[-1]:
            return a, b, factors, steps, uppers
        if steps == _WEIGHT_ITERS:
            break
        normals = np.zeros((2 * d, 2))
        normals[:d, 0], normals[d:, 1] = a, b
        step = _ascent_step(normals, *_weight_derivatives(s, a, b, factors), f)
        for halving in range(_WEIGHT_HALVINGS):
            # f does not see the signs of the weights' roots; keep them positive
            x = np.abs(np.concatenate([a, b]) + 0.5 ** halving * step)
            a_new, b_new = x[:d] / np.linalg.norm(x[:d]), x[d:] / np.linalg.norm(x[d:])
            if _weight_factors(s, a_new, b_new)[1].sum() >= f * (1 - 2 * d * np.finfo(float).eps):
                break
        else:
            break
        a, b = a_new, b_new
        if min(a.min() / a.max(), b.min() / b.max()) ** 2 <= CUTOFF:
            break
    return None


def _weight_certificate(t: ElementaryOperator, start_form: _Form, cap: float) -> tuple | None:
    """``_certified``'s arguments after ``cap`` from ``_weight_ascent`` on the
    symbol of a map with b = 1, or None when the ascent declines.  The
    rewriting has the terms ``(diag X_k, diag conj Y_k)``, since ``S = X Y*``,
    and the witness is that of the states ``diag(a^2)`` and ``diag(b^2)`` in
    ``start_form``, the form of the terms as given."""
    found = _weight_ascent(schur_symbol(t))
    if found is None:
        return None
    a, b, (u, sig, v), steps, uppers = found
    d, root = t.dim, np.sqrt(sig)
    cert = np.zeros((2, len(sig), d, d), dtype=np.complex128)
    idx = np.arange(d)
    cert[0][:, idx, idx] = (u * root / a[:, None]).T
    cert[1][:, idx, idx] = (v * root / b[:, None]).T.conj()
    witness = start_form.dual_witness(np.stack([a, b]).reshape(2, d, 1, 1))[1]
    return cert, witness, steps, np.minimum.accumulate([cap, *uppers]), "weights"


# The factor path.  For a map with b = d the dual is ``max f(L_0, L_1)`` over
# factors ``L_s`` (d x k, ``||L_s||_F = 1``) of the states ``rho = L_0 L_0*``
# and ``sigma = L_1 L_1*`` (S. Burer and R. Monteiro, Math. Program. 95, 2003):
# ``f = ||G||_1`` for ``G = V_1 V_0*``, where V_s holds the polar vectors
# ``vec(F_s,i* L_s)`` of the form's families.  G is linear in L_1 and
# conjugate-linear in L_0, so f is homogeneous of degree one in each, and
# smooth wherever ``A = V_0* V_0`` and ``B = V_1* V_1`` are nonsingular, where
# G keeps the rank r of the families.  A factor is a d x k array, stacked as
# ``(2, 1, d, k)``; its real coordinates are ``(Re L_0, Im L_0, Re L_1, Im L_1)``.

def _factor_state(form: _Form, roots: np.ndarray) -> tuple:
    """The polar vectors V of the factors, the thin SVD ``(U, s, V)`` of G,
    the gauges ``(conj P, conj P^-1)`` of the geometric mean ``P = A^-1 # B``
    and the least ratio of the eigenvalues of A and of B.  With the QR factors
    ``V_s = Q_s R_s`` and the core ``R_1 R_0* = u diag(s) vh``,
    ``P = M_1* diag(1/s) M_1`` for ``M_1 = u* R_1``, and
    ``P^-1 = M_0* diag(1/s) M_0`` for ``M_0 = vh R_0``: then ``P A P = B``."""
    vecs = form.polar_vectors(roots)
    q, tri, core = _polar_core(vecs)
    u, s, vh = np.linalg.svd(core)
    m = np.stack([vh @ tri[0], u.conj().T @ tri[1]])
    gauges = (m.conj().swapaxes(1, 2) @ (m / s[:, None])).conj()[::-1]
    sv = np.linalg.svd(tri, compute_uv=False)
    return vecs, (q[1] @ u, s, q[0] @ vh.conj().T), gauges, float((sv[:, -1] / sv[:, 0]).min() ** 2)


def _factor_derivatives(form: _Form, roots: np.ndarray, vecs: np.ndarray, factors: tuple) -> np.ndarray:
    """The Hessian of ``f = ||G||_1`` in the real coordinates of the factors.

    Along a direction of ``L_0`` G moves by ``V_1 dV_0*``, along one of
    ``L_1`` by ``dV_1 V_0*``, and the polar factor W of G by
    ``_polar_derivatives``, all directions in one batch.  The gradient is
    ``(K_0 L_0, K_1 L_1)`` with ``K_s = R_s*(conj P)`` and ``R_s*(conj P^-1)``,
    which equals ``sum_i F_s,i unvec(Y_s)_i`` for ``Y_0 = W* V_1`` and
    ``Y_1 = W V_0``; a Hessian row is the change of that sum along one
    direction, through W and, across the two sides, through V."""
    r, d, k = form.r, form.d, roots.shape[-1]
    n = 2 * d * k
    fam = form.blocks[:, :, 0]
    u, s, v = factors
    w = u @ v.conj().T
    # dV_s along the real coordinate (p, q) of L_s: the column q of F_s,i* E_pq
    dv = np.zeros((2, d, k, d, k, r), dtype=np.complex128)
    idx = np.arange(k)
    dv[:, :, idx, :, idx, :] = fam.conj().transpose(0, 2, 3, 1)
    dv = dv.reshape(2, n // 2, n // 2, r)
    dv = np.concatenate([dv, 1j * dv], axis=1)
    dw = _polar_derivatives(u, s, v, np.concatenate([vecs[1] @ dv[0].conj().swapaxes(1, 2),
                                                     dv[1] @ vecs[0].conj().T]))
    y = np.stack([dw.conj().swapaxes(1, 2) @ vecs[1], dw @ vecs[0]])
    y[0, n:] += w.conj().T @ dv[1]
    y[1, :n] += w @ dv[0]
    # sum_i F_s,i unvec(Y_i), rows (i, m) of the stacked unvec(Y_i)[m, q]
    stacked = y.reshape(2, 2 * n, d, k, r).transpose(0, 1, 4, 2, 3).reshape(2, 2 * n, r * d, k)
    change = fam.transpose(0, 2, 1, 3).reshape(2, 1, d, r * d) @ stacked
    h = np.concatenate([change.real.reshape(2, 2 * n, -1), change.imag.reshape(2, 2 * n, -1)], axis=2)
    h = h.transpose(1, 0, 2).reshape(2 * n, 2 * n)
    return (h + h.T) / 2


def _real(roots: np.ndarray) -> np.ndarray:
    """The real coordinates ``(Re L_0, Im L_0, Re L_1, Im L_1)`` of a stack of
    two sides, raveled; ``_complex`` inverts it."""
    return np.concatenate([roots.real.reshape(2, -1), roots.imag.reshape(2, -1)], axis=1).ravel()


def _complex(x: np.ndarray, shape: tuple) -> np.ndarray:
    x = x.reshape(2, 2, -1)
    return (x[:, 0] + 1j * x[:, 1]).reshape(shape)


def _vertical(roots: np.ndarray) -> np.ndarray:
    """Orthonormal real columns, one block per side, spanning the factor
    ``L_s`` and the directions ``L_s X`` for anti-Hermitian k x k X, along
    which the state ``L_s L_s*``, and so f, does not move to first order."""
    k = roots.shape[-1]
    j, l = np.triu_indices(k, 1)
    pairs = np.arange(len(j))
    gens = np.zeros((k * k, k, k), dtype=np.complex128)
    gens[np.arange(k), np.arange(k), np.arange(k)] = 1j
    gens[k + pairs, j, l], gens[k + pairs, l, j] = 1, -1
    gens[k + len(j) + pairs, j, l] = gens[k + len(j) + pairs, l, j] = 1j
    moves = np.concatenate([roots, roots @ gens], axis=1).reshape(2, k * k + 1, -1)
    q = np.linalg.qr(np.concatenate([moves.real, moves.imag], axis=2).swapaxes(1, 2))[0]
    normals = np.zeros((2, q.shape[1], 2, q.shape[2]))
    normals[[0, 1], :, [0, 1]] = q
    return normals.reshape(2 * q.shape[1], -1)


def _factor_ascent(form: _Form):
    """Newton ascent of ``f = ||G||_1`` over factors of rank k from
    ``ceil(r/d)`` up to d.  Returns ``(roots, gauge, steps, uppers)`` at the
    first iterate where the rewriting at ``gauge = conj P`` has value
    ``sqrt(lambda_max(K_0) lambda_max(K_1))`` within the stopping gap of f,
    with that value at each iterate in ``uppers``; or None when A or B turns
    singular (an eigenvalue below ``CUTOFF ** 0.5`` of the largest), when no
    halving keeps f from falling, or when the steps run out.

    The factors start from the maximally mixed states (``_factor_start``).
    Each Newton step is ``_ascent_step`` off the directions that leave the
    states where they are (``_vertical``), halved until f does not fall by
    more than rounding.  At a stationary point ``K_s L_s = f L_s``; where a
    step no longer raises f while k is below d and ``K_s`` has an
    eigenvalue above f outside the range of ``L_s``, the factors of rank
    ``k + 1`` start again from the current ones."""
    d = form.d
    roots = _factor_start(form, form.unit / np.sqrt(d), -(-form.r // d))
    state = _factor_state(form, roots)
    uppers = []
    eps = np.finfo(float).eps
    for steps in range(_WEIGHT_ITERS + 1):
        vecs, factors, gauges, ratio = state
        if ratio <= CUTOFF ** 0.5:
            break
        f = factors[1].sum()
        spread = form._spread(gauges)
        top = np.linalg.eigvalsh(spread)[:, 0, -1]
        uppers.append(float(np.sqrt(max(top[0], 0.0) * max(top[1], 0.0))))
        if uppers[-1] - f <= _SDP_GAP * uppers[-1]:
            return roots, gauges[0], steps, uppers
        if steps == _WEIGHT_ITERS:
            break
        x, shape = _real(roots), roots.shape
        hess = _factor_derivatives(form, roots, vecs, factors)
        step = _ascent_step(_vertical(roots), _real(spread @ roots), hess, f)
        for halving in range(_WEIGHT_HALVINGS):
            new = (x + 0.5 ** halving * step).reshape(2, -1)
            new = _complex(new / np.linalg.norm(new, axis=1, keepdims=True), shape)
            state = _factor_state(form, new)
            value = state[1][1].sum()
            if value >= f * (1 - 2 * x.size * eps):
                break
        else:
            break
        roots = new
        if value <= f * (1 + 2 * x.size * eps) and shape[-1] < d:
            # the rank-k ascent has stopped; an eigenvalue of K_s above f
            # outside the range of L_s calls for one more column
            q = np.linalg.qr(roots)[0]
            outside = np.eye(d) - q @ q.conj().swapaxes(-1, -2)
            if np.linalg.eigvalsh(outside @ spread @ outside)[..., -1].max() > f:
                roots = _factor_start(form, roots, shape[-1] + 1)
                state = _factor_state(form, roots)
    return None


def _factor_start(form: _Form, roots: np.ndarray, k: int) -> np.ndarray:
    """Factors of rank k from those given: the top k eigenvectors of ``K_s``
    at ``roots``, over ``sqrt(k)``, after two fixed-point steps ``L <- K L``,
    normalized."""
    for fixed in range(3):
        spread = form._spread(_factor_state(form, roots)[2])
        if fixed == 0:
            roots = np.linalg.eigh(spread)[1][..., -k:] / np.sqrt(k)
        else:
            roots = spread @ roots
            roots /= np.linalg.norm(roots, axis=(-2, -1), keepdims=True)
    return roots


def _factor_certificate(pruned: ElementaryOperator, start_form: _Form, cap: float) -> tuple | None:
    """``_certified``'s arguments after ``cap`` from ``_factor_ascent`` on the
    pruned terms of a map with b = d, or None when the ascent declines.  The
    rewriting is ``_certificate`` at ``conj P``, and the witness that of the
    states ``L_s L_s*`` in ``start_form``, the form of the terms as given."""
    left, right, row, col = _unit_families(pruned.left, pruned.right)
    found = _factor_ascent(_Form(np.stack([left, right.conj().transpose(0, 2, 1)]), pruned.dim))
    if found is None:
        return None
    roots, gauge, steps, uppers = found
    padded = np.zeros(start_form.unit.shape, dtype=np.complex128)
    padded[..., :roots.shape[-1]] = roots
    cert = _certificate(left * row, right * col, gauge)
    witness = start_form.dual_witness(padded)[1]
    return cert, witness, steps, np.minimum.accumulate([cap, *(row * col * np.array(uppers))]), "weights"


def _certified(t: ElementaryOperator, raw: tuple, cap: float, cert, witness: tuple, iterations: int,
               trace, path: str) -> NormInterval | None:
    """The bracket of a path: its upper end is the value of the rewriting
    ``cert``, or ``cap`` with the raw rewriting ``raw`` where that is smaller,
    and its lower end ``_lower_end`` at ``witness``.  None when the rewriting
    does not rebuild the map to ``TOL * upper``; a crossed bracket raises."""
    upper = cap if cert is raw else _factorization_value(*cert)
    if upper > cap:
        upper, cert = cap, raw
    if choi_distance(ElementaryOperator(t.dim, *cert), t) > TOL * upper:
        return None
    lower = _uncrossed(_lower_end(t, *witness), upper)
    return NormInterval(lower, upper, tuple(zip(*cert)), iterations, tuple(float(v) for v in trace), path)


def _closed(t: ElementaryOperator, raw: tuple, cap: float, found: tuple | None) -> NormInterval | None:
    """The certified bracket of a weight path's ``found`` when its gap is
    within the stopping gap; None when the path declined, its certificate
    misses the map or the gap is open."""
    bracket = found and _certified(t, raw, cap, *found)
    return bracket if bracket and bracket.width <= _SDP_GAP * bracket.upper else None


def _uncrossed(lower: float, upper: float) -> float:
    """``lower``, unless it exceeds ``upper`` by more than ``TOL`` relative: a
    crossed bracket is an error, not something to clamp away."""
    if lower > upper * (1 + TOL):
        raise NumericalError(f"crossed cb-norm bracket: lower {lower!r} > upper {upper!r}")
    return lower


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


def _unit_families(left: np.ndarray, right: np.ndarray) -> tuple:
    """The balanced families divided by ``row = ||sum a_i a_i*||^1/2`` and
    ``col = ||sum b_i* b_i||^1/2``, so that ``||R_0*(I)|| = ||R_1*(I)|| = 1``,
    and the two scales."""
    r, d, _ = left.shape
    left, right = _balanced(left, right)
    row = np.linalg.norm(left.transpose(1, 0, 2).reshape(d, r * d), 2)
    col = np.linalg.norm(right.reshape(r * d, d), 2)
    return left / row, right / col, row, col


def _factorization_sdp(left: np.ndarray, right: np.ndarray, cap: float, b: int, start: tuple):
    """Primal-dual interior-point solve of the factorization SDP for
    independent families, with states in blocks of size b, stopping once the
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
    left, right, row, col = _unit_families(left, right)
    form = _Form(np.stack([left, right.conj().transpose(0, 2, 1)]), b)
    scale, cap = row * col, cap / (row * col)
    # Z starts at [(3I - 2 R_0*(I), 3I - 2 R_1*(I)), [[2I, I], [I, 2I]]],
    # positive definite because ||R_0*(I)|| = ||R_1*(I)|| = 1 after scaling
    x = [form.unit / (2 * d), np.eye(2 * r, dtype=np.complex128) / (2 * d)]
    y = np.concatenate([[3.0], 2 * np.eye(r).ravel(), 2 * np.eye(r).ravel()]).astype(np.complex128)
    z = _step(form.adjoint(y), -1.0, form.c)
    n = 2 * d + 2 * r
    e0 = np.eye(1, len(y), dtype=np.complex128)[0]
    t = _transposition(r)
    upper, lower = np.inf, start[0] / scale
    # should the first iterate fail, the certificate is the pruned rewriting,
    # the identity gauge
    p_best, roots_best = np.eye(r), None
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
        for roots in form.state_roots(x, mu) if iterations else ():
            value = float(np.linalg.svd(_polar_core(form.polar_vectors(roots))[2], compute_uv=False).sum())
            if value > lower:
                lower, roots_best = value, roots
        if min(upper, cap) - lower <= _SDP_GAP * min(upper, cap):
            break
        iterations += 1
        try:
            newton = form.newton(x, g)
            rp = e0 - form.values(x)
            # predictor (target -X, so A(target) - rp = -e0), then the
            # Mehrotra corrector with centering mu_aff / mu
            dx, _, dz = _hkm_direction(form, x, g, newton, -e0, [-a for a in x], t)
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
        return NormInterval(value, value, cert, 0, (value,), "cp")

    # one block size for the start and the solve: pruning keeps diagonal terms diagonal
    b = _block_size(t)
    left, right = _drop_zero_terms(t.left, t.right)
    start_form = _Form(np.stack([left, right.conj().transpose(0, 2, 1)]), b)
    start = start_form.dual_witness()
    raw = _balanced(left, right)
    cap = _factorization_value(*raw)
    if len(left) == 1 and cap - start[0] > _SDP_GAP * cap:
        start = start_form.dual_witness(_top_roots(start_form))
    found = raw, start[1], 0, [cap], "start"
    # the maximally mixed states close the bracket for every regular
    # representation (and the zero map), and the top singular vectors for
    # every single term; otherwise try the weights (b = 1), prune, try the
    # factors (b = d) and solve
    if cap - start[0] > _SDP_GAP * cap:
        bracket = _closed(t, raw, cap, _weight_certificate(t, start_form, cap)) if b == 1 else None
        if bracket:
            return bracket
        pruned = prune_terms(t)
        bracket = None if b == 1 else _closed(t, raw, cap, _factor_certificate(pruned, start_form, cap))
        if bracket:
            return bracket
        *solved, witness, iterations, trace = _factorization_sdp(pruned.left, pruned.right, cap, b, start)
        found = solved, witness, iterations, [min(cap, v) for v in trace], "ipm"
    bracket = _certified(t, raw, cap, *found)
    if bracket is None:
        raise NumericalError("certificate misses the map")
    return bracket
