"""Certified two-sided bounds for the completely bounded norm of an elementary operator.

``haagerup_norm_bounds`` closes the bracket on the first of three paths
that does, and ``NormInterval.path`` names it: ``"cp"``, ``"start"`` or
``"weights"``.

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

The states are taken block-diagonal, with one block size b chosen from the
terms as given.  Maps whose terms are all exactly zero off the diagonal (Γ
images of character representations, ``schur_op``) take b = 1 and are
pruned on their diagonals: their optimal states are diagonal, the dual being
Haagerup's ``max_{p,q} ||D_p^(1/2) S D_q^(1/2)||_1`` (V. Paulsen,
*Completely Bounded Maps and Operator Algebras*, CUP 2002, ch. 8).  Every
other map takes b = d.  Both ends are certified:

* upper: the factorization value of the rewriting at a gauge P, or of the
  balanced raw gauge ``P = diag(||b_i||_F / ||a_i||_F)`` on the terms as
  given, whichever is smaller; ``certificate_terms`` is the
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
  dual value of the states.

Before the terms are pruned, the lower end is taken at the maximally mixed
states ``rho = sigma = I/d`` in blocks of size b on the terms as given (one
thin QR and one singular-value sum).  When it meets the raw gauge's value to
the stopping gap the bracket closes there (``"start"``), with the raw
certificate and 0 iterations, and neither pruning nor a Newton path runs: for
the regular representation of any group both are ``||mu||_1`` (the
representation is an isometry: Ghahramani, Glasgow Math. J. 23, 1982;
Neufang, Ruan and Spronk, Trans. AMS 360, 2008).  A map with one nonzero
term ``a . b`` has cb norm ``||a|| ||b||``, the raw gauge's value, and the
start point then also tries the states ``u u*`` and ``v v*`` at the top left
singular vector u of a and the top right singular vector v of b (for b = 1
the basis vectors at the largest ``|a_jj|`` and ``|b_kk|``), which attain it.

Otherwise the terms are pruned, and one Newton loop (``_ascent``) ascends
the dual on factors L of the states (``"weights"``), block-diagonal as the
states are.  It maximizes ``F = f + mu sum_s log det(L_s L_s*)`` over unit
factors (Y. Nesterov and A. Nemirovskii, *Interior-Point Polynomial
Algorithms in Convex Programming*, SIAM 1994), f the dual value below, with
mu = 0 until the plain ascent of f declines.

**The factors.**  The dual ``f = tr (A^1/2 B A^1/2)^1/2`` (J. Watrous,
Chicago J. Theor. Comput. Sci. 2013) over factors of the states,
``rho = L_0 L_0*`` and ``sigma = L_1 L_1*``, each a stack of d/b blocks of
size b x k with ``||L_s||_F = 1`` over all blocks (S. Burer and R. Monteiro,
Math. Program. 95, 2003).  A Schur multiplier (b = 1) has d blocks of 1 x 1
factors, the roots of its state weights ``p = |L_0|^2`` and
``q = |L_1|^2``, and f is Haagerup's ``||D_p^1/2 S D_q^1/2||_1``.  With the
pruned, balanced families ``F_0 = (a_i)`` and ``F_1 = (b_i*)``,
``A = V_0* V_0`` and ``B = V_1* V_1`` are r x r, V_s having the columns
``vec(F_s,i* L_s)`` (on the entries of the blocks), and f is the trace norm
of ``G = V_1 V_0*``, as for the lower end.  f is smooth wherever A and B are
nonsingular, also where a weight is zero: a rank-deficient symbol whose
optimal weights vanish closes without the barrier while its optimal states
keep A and B nonsingular.  With the geometric mean ``P = A^-1 # B``,
``df = tr(P dA)/2 + tr(P^-1 dB)/2``: the gradient in L_s is ``K_s L_s`` with
``K_0 = sum_ij conj(P)_ij a_i a_j*`` and ``K_1 = sum_ij conj(P^-1)_ij b_i* b_j``,
block-diagonal.  The Hessian is the derivative of that gradient through the
polar factor W of G, along a basis of the tangent directions of the loop
below, all in one batch.  k runs from ``ceil(r/d)``, the least rank that
keeps A nonsingular, up to b: the factors start as the top k eigenvectors of
each block of ``K_s`` at the maximally mixed states, over ``sqrt(k)``, after
two fixed-point steps ``L <- K L``, and where a step no longer raises f
while ``K_s`` has an eigenvalue above f outside the range of ``L_s``, rank
k + 1 starts again in the same way from the current factors.  With
``N = dk`` complex coordinates on a side and m tangent directions (below
``4N``), a step costs ``O(m N^2 r)`` for the Hessian and one m x m ``eigh``;
full-rank Schur multipliers close in 3 to 10 steps, and generic maps with
d^2 terms in 4 to 5.

**The loop.**  Each step inverts the Hessian of F less ``(f + 2 mu d) I``
(Euler's identity: F less its barrier is of degree one on each side) on the
tangent space of the two spheres, off the directions that turn one block by
``L_s,c X`` (X anti-Hermitian) and leave the states where they are
(``_tangent``), each eigenvalue ``lambda`` replaced by
``-max(|lambda|, 1e-8 f)``, and halves the step until F does not fall by
more than rounding.  The barrier adds ``2 mu L_s^-*`` to the gradient and
``-2 mu Re tr(L^-1 dL L^-1 dL)`` to the Hessian, block by block, which is
``-2 mu / |L_c|^2`` on the real direction of a real 1 x 1 block.  mu turns on
where the plain ascent declines, its optimum then lying on a face of the
state cone, where f is not smooth: A or B turns singular (an eigenvalue
below ``CUTOFF ** 0.5`` of the largest: an optimum whose states miss a
direction of the r terms, as where ``rank(rho) d < r``), no halving keeps f
from falling, or 20 steps leave the gap open.  mu starts there at the
certified gap over 2d and shrinks after each step, by 1e-3 for b = 1 and
1e-4 for b = d, but not below what the stopping gap needs.  At a stationary
point of F, ``K_s L_s + 2 mu L_s^-* = (f + 2 mu d) L_s``, so
``K_s = (f + 2 mu d) I - 2 mu rho_s^-1 <= (f + 2 mu d) I``, and the gauge
rewriting certifies a relative gap of at most ``2 mu d / f`` on any face.
No state on the central path has an eigenvalue below
``2 mu / (f + 2 mu d)``, and from the switch on each iterate's states are
raised to that floor, which a Newton step overshoots on a face; a rank-k
iterate is padded to rank b.  The loop stops at a certified relative gap of
1e-12, or after 100 steps on the barrier with its best certified pair.

**The certificate** is the rewriting ``_certificate`` of the pruned terms
at the gauge ``conj P`` (the conjugate: the gauge's index convention
transposes P), P the geometric mean of their form with block size b at the
states of an iterate.  Its value is ``sqrt(lambda_max(K_0) lambda_max(K_1))``
for ``K_s = R_s*(conj P)``, as above, over all blocks, which is f at a
maximizer of f, where ``K_s L_s = f L_s`` and no eigenvalue of K_s exceeds
f.  It certifies the upper end at the iterate with the least value, and the
lower end is the one above at the states of the iterate with the largest f,
both through the certification of the start point: the raw rewriting where
its value is smaller, the rebuild of the map and the check that the bracket
is not crossed.  For b = 1 the thin SVD ``U Sigma V*`` of ``D_a S D_b``, at
the roots a and b of the weights, also factors ``S = X Y*`` at
``X = D_a^-1 U Sigma^1/2``, ``Y = D_b^-1 V Sigma^1/2``, but that rewriting
divides the SVD's rounding by roots that fall to about sqrt(mu) on a face,
and misses the map where the gauge rewriting rebuilds it.

A crossed bracket (by more than ``TOL`` relative), on any path, raises
:class:`NumericalError`.  A Newton path's certificate that does not rebuild
the map leaves the start point's bracket, whose raw rewriting rebuilds it;
where even that one misses, the bracket raises :class:`NumericalError`.

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

# Solver settings, not gates: they decide when the Newton loop on the
# factors of the states stops and when it turns the barrier on, and both
# ends it returns are certified whatever they are.
_SDP_GAP = 1e-12           # stop at this certified relative gap
_SDP_ITERS = 100           # cap on Newton steps on the barrier
_WEIGHT_ITERS = 20         # cap on Newton steps before the barrier
_WEIGHT_HALVINGS = 30      # cap on step halvings in one Newton step
_BARRIER_SHRINK = 1e-3, 1e-4   # the factor on the barrier weight mu after each step, for b = 1 and b = d


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
    singular vectors of its factors, meet the raw gauge, or when a Newton
    path's certificate misses the map, and ``"weights"`` for Newton on the
    factors L of the states ``rho = L L*``: d blocks of 1 x 1 factors, the
    roots of the state weights, for a Schur multiplier (b = 1), one d x k
    block for every other map (b = d).
    ``iterations`` counts every Newton step that ``"weights"`` takes, with
    mu = 0 and on the barrier, a step that no halving keeps included, and
    is 0 on the other two.  ``upper_trace`` logs the best upper bound after
    each iterate; on every path it is a running minimum times a positive
    scale, so it never rises, not even by rounding.  ``report()`` leaves
    ``path`` out.  Both ends are computed independently, so where they agree
    to rounding ``width`` can be a few ulps below zero.
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
    """``(P^1/2, P^-1/2)`` for the Hermitian part of a gauge P.  Its
    eigenvalues are clipped at 1e-14 of the largest only to keep NaN out: no
    certificate's gauge comes near the clip, whose rewriting would be that
    of another gauge."""
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


class _Form:
    """The families ``F[0] = (a_i)`` and ``F[1] = (b_i*)`` on states rho and
    sigma held as one (2, d/b, b, b) stack of blocks, block-diagonal with
    blocks of size b, and their factors L stacked the same way.  Every state
    operation is a contraction with the Gram blocks
    ``K[s, (l, k), c] = F[s, k]_c F[s, l]_c*`` of the terms' b x b diagonal
    blocks ``F_c``: ``R_s*(E)`` is ``vec(E^T) K_s``.  b is 1 for families that
    are exactly diagonal and d otherwise (``_block_size``).  K is built on
    first use: the start point reads only the blocks F_c."""

    def __init__(self, fam: np.ndarray, b: int):
        _, self.r, self.d, _ = fam.shape
        self.b, n = b, self.d // b
        self.positions = _block_positions(self.d, b)
        self.blocks = fam.reshape(2, self.r, -1)[:, :, self.positions].reshape(2, self.r, n, b, b)
        self.unit = np.eye(b)[None, None].repeat(n, axis=1).repeat(2, axis=0)

    @cached_property
    def k(self) -> np.ndarray:
        """The Gram blocks, shape (2, r^2, d/b, b, b)."""
        f = self.blocks
        return (f[:, None] @ f.conj().swapaxes(-1, -2)[:, :, None]).reshape(2, self.r ** 2, *f.shape[2:])

    def _spread(self, e: np.ndarray) -> np.ndarray:
        """``R_s*(E_s) = sum_ij E_s[i, j] F[s, i] F[s, j]*`` for both sides."""
        flat = e.swapaxes(-1, -2).reshape(2, 1, -1) @ self.k.reshape(2, self.r ** 2, -1)
        return flat.reshape(self.unit.shape)

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
        _, (xb, s, xa), _, _ = _factor_state(self, roots)
        return float(s.sum()), self.witness(xa, xb, roots)


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


def _ascent_step(basis: np.ndarray, grad: np.ndarray, hess: np.ndarray, f: float) -> np.ndarray:
    """The Newton step of a function of degree one on each half of its
    argument, over the product of the two unit spheres: its Hessian ``hess``
    on the orthonormal columns ``basis`` (tangent to both spheres, and off any
    directions along which f is constant) less ``f I``, each eigenvalue
    ``lambda`` replaced by ``-max(|lambda|, 1e-8 f)`` so that the step
    ascends."""
    lam, vec = np.linalg.eigh(hess - f * np.eye(len(hess)))
    return basis @ (vec @ ((vec.T @ (basis.T @ grad)) / np.maximum(np.abs(lam), 1e-8 * f)))


def _ascent(form: _Form, x: np.ndarray):
    """Newton ascent of ``F = f + mu sum_s log det(L_s L_s*)`` over unit
    factors in the real coordinates x (see the module docstring), from
    ``mu = 0``, on the model of ``_factor_model``.  Returns ``(lower, upper,
    steps, uppers)``: the points with the largest f and with the least upper
    value, the count of Newton steps, and the upper value at each iterate.

    The step, the decline where mu turns on (``_barrier_start``) and the
    schedule of mu are the module docstring's "loop"."""
    eps, d, shape = np.finfo(float).eps, form.d, form.unit.shape
    mu, steps, last, stuck, uppers, low, top = 0.0, 0, _SDP_ITERS, False, [], None, None
    state = _factor_model(form, x)
    while True:
        f, smooth, rest = state
        # a point where f is not smooth has no upper value, and a point that
        # no halving left has been recorded
        if mu or smooth and not stuck:
            upper, derivatives = rest()
            uppers.append(upper)
            low = (f, x) if low is None or f > low[0] else low
            top = (upper, x) if top is None or upper < top[0] else top
            if top[0] - low[0] <= _SDP_GAP * top[0] or steps == last:
                return low[1], top[1], steps, uppers
        if not mu and (stuck or not smooth or steps == _WEIGHT_ITERS):
            # with no upper value yet (A singular at the start), a gap of f
            mu, last = _barrier_start(f, top[0] if top else 2 * f, d), steps + _SDP_ITERS
            x = _floored(form, x, 2 * mu / (f + 2 * mu * d))
            state = _factor_model(form, x)
            continue
        grad, hess, basis = derivatives()
        logdet = 0.0
        if mu:
            logdet, barrier_grad, barrier_hess = _factor_barrier(x, shape)
            grad, hess = grad + mu * barrier_grad, hess + mu * (basis.T @ barrier_hess @ basis)
        step = _ascent_step(basis, grad, hess, f + 2 * mu * d)
        steps += 1
        target = f * (1 - 2 * x.size * eps) + mu * logdet
        stuck = True
        for halving in range(_WEIGHT_HALVINGS):
            new = (x + 0.5 ** halving * step).reshape(2, -1)
            new = (new / np.linalg.norm(new, axis=1, keepdims=True)).ravel()
            trial = _factor_model(form, new)
            if trial[0] + (mu * _factor_barrier(new, shape)[0] if mu else 0.0) >= target:
                x, state, stuck = new, trial, False
                break
        if mu and not stuck:
            # a step overshoots the states' small eigenvalues, which the
            # central path keeps above tau
            x = _floored(form, x, 2 * mu / (f + 2 * mu * d))
            state = _factor_model(form, x)
        elif not stuck and state[0] <= f * (1 + 2 * x.size * eps):
            wider = _factor_widen(form, x, f)
            if wider is not None:
                x, state = wider, _factor_model(form, wider)
        mu = mu and max(mu * _BARRIER_SHRINK[form.b > 1], _SDP_GAP * f / (4 * d))


def _barrier_start(f: float, upper: float, d: int) -> float:
    """The first barrier weight mu where the plain ascent declines at f, with
    its least upper value: the certified gap over 2d."""
    return max(upper - f, _SDP_GAP * f) / (2 * d)


def _floored(form: _Form, x: np.ndarray, tau: float) -> np.ndarray:
    """The real coordinates of square factors of the states ``L L*`` of the
    factors with the coordinates x, every eigenvalue raised to at least tau
    and each side then normalized to trace 1: a rank-k factor is padded to
    full rank."""
    roots = _roots(form, x)
    w, v = np.linalg.eigh(roots @ roots.conj().swapaxes(-1, -2))
    w = np.maximum(w, tau)
    w /= w.reshape(2, -1).sum(axis=1).reshape(2, 1, 1)
    return _real(v * np.sqrt(w)[..., None, :])


# The factor path.  The dual is ``max f(L_0, L_1)`` over factors ``L_s`` of
# the states ``rho = L_0 L_0*`` and ``sigma = L_1 L_1*`` (S. Burer and
# R. Monteiro, Math. Program. 95, 2003), block-diagonal as the form's states
# are: d/b blocks of size b x k with ``||L_s||_F = 1`` over all blocks, so a
# Schur multiplier (b = 1) has d blocks of 1 x 1 factors, the roots of its
# weights.  ``f = ||G||_1`` for ``G = V_1 V_0*``, where V_s holds the polar
# vectors ``vec(F_s,i* L_s)`` of the form's families.  G is linear in L_1 and
# conjugate-linear in L_0, so f is homogeneous of degree one in each, and
# smooth wherever ``A = V_0* V_0`` and ``B = V_1* V_1`` are nonsingular, where
# G keeps the rank r of the families.  The factors are stacked as
# ``(2, d/b, b, k)``; their real coordinates are
# ``(Re L_0, Im L_0, Re L_1, Im L_1)``.

def _factor_state(form: _Form, roots: np.ndarray) -> tuple:
    """The polar vectors V of the factors, the thin SVD ``(U, s, V)`` of G,
    the gauges ``(conj P, conj P^-1)`` of the geometric mean ``P = A^-1 # B``
    and the QR factors R_s of ``V_s = Q_s R_s``, so ``A = R_0* R_0`` and
    ``B = R_1* R_1``.  ``G = Q_1 C Q_0*`` for the core ``C = R_1 R_0*``, whose
    trace norm ``||R_0(rho)^1/2 R_1(sigma)^1/2||_1`` never squares a state
    root; with ``C = u diag(s) vh``, ``U = Q_1 u`` and ``V = Q_0 vh*`` are the
    factors of the polar contraction ``X = V U*`` of the lower end, and
    ``P = M_1* diag(1/s) M_1`` for ``M_1 = u* R_1`` and
    ``P^-1 = M_0* diag(1/s) M_0`` for ``M_0 = vh R_0``: then ``P A P = B``."""
    vecs = form.polar_vectors(roots)
    q, tri = np.linalg.qr(vecs)
    u, s, vh = np.linalg.svd(tri[1] @ tri[0].conj().T)
    m = np.stack([vh @ tri[0], u.conj().T @ tri[1]])
    # the terms as given can leave the start point's core singular, where
    # there is no gauge; only the Newton path, on the pruned terms, reads it
    with np.errstate(divide="ignore", invalid="ignore"):
        gauges = (m.swapaxes(1, 2) @ (m / s[:, None]).conj())[::-1]
    return vecs, (q[1] @ u, s, q[0] @ vh.conj().T), gauges, tri


def _factor_derivatives(form: _Form, roots: np.ndarray, vecs: np.ndarray, factors: tuple,
                        sides: list) -> np.ndarray:
    """The Hessian of ``f = ||G||_1`` on the real directions ``sides[s]`` of
    the coordinates of each side (``_tangent``), side 0's first.

    Along a direction E of ``L_0`` G moves by ``V_1 dV_0*``, dV_0 holding the
    polar vectors ``vec(F_0,i* E)``, along one of ``L_1`` by ``dV_1 V_0*``,
    and the polar factor W of G by ``_polar_derivatives``, all directions in
    one batch.  The gradient is ``(K_0 L_0, K_1 L_1)`` with
    ``K_s = R_s*(conj P)`` and ``R_s*(conj P^-1)``, which equals
    ``sum_i F_s,i unvec(Y_s)_i`` for ``Y_0 = W* V_1`` and ``Y_1 = W V_0``,
    block by block; a Hessian row is the change of that sum along one
    direction, through W and, across the two sides, through V, read on the
    directions."""
    r, (_, nb, b, k) = form.r, roots.shape
    fam = form.blocks
    u, s, v = factors
    w = u @ v.conj().T
    half = nb * b * k
    # dV_s along each direction of side s: the polar vectors of the direction
    # taken as a factor
    dv = [(fam[side].conj().swapaxes(-1, -2) @ (e[:half] + 1j * e[half:]).T.reshape(-1, 1, nb, b, k)
           ).reshape(-1, r, half).swapaxes(1, 2) for side, e in enumerate(sides)]
    m0, m = len(dv[0]), len(dv[0]) + len(dv[1])
    dw = _polar_derivatives(u, s, v, np.concatenate([vecs[1] @ dv[0].conj().swapaxes(1, 2),
                                                     dv[1] @ vecs[0].conj().T]))
    y = np.stack([dw.conj().swapaxes(1, 2) @ vecs[1], dw @ vecs[0]])
    y[0, m0:] += w.conj().T @ dv[1]
    y[1, :m0] += w @ dv[0]
    # sum_i F_s,i,c unvec(Y_i)_c, rows (i, m) of the stacked unvec(Y_i)_c[m, q]
    stacked = y.reshape(2, m, nb, b, k, r).transpose(0, 1, 2, 5, 3, 4).reshape(2, m, nb, r * b, k)
    change = fam.transpose(0, 2, 3, 1, 4).reshape(2, 1, nb, b, r * b) @ stacked
    change = np.concatenate([change.real.reshape(2, m, -1), change.imag.reshape(2, m, -1)], axis=2)
    h = np.concatenate([change[0] @ sides[0], change[1] @ sides[1]], axis=1)
    return (h + h.T) / 2


def _real(roots: np.ndarray) -> np.ndarray:
    """The real coordinates ``(Re L_0, Im L_0, Re L_1, Im L_1)`` of a stack of
    two sides, raveled; ``_complex`` inverts it."""
    return np.concatenate([roots.real.reshape(2, -1), roots.imag.reshape(2, -1)], axis=1).ravel()


def _complex(x: np.ndarray, shape: tuple) -> np.ndarray:
    x = x.reshape(2, 2, -1)
    return (x[:, 0] + 1j * x[:, 1]).reshape(shape)


def _roots(form: _Form, x: np.ndarray) -> np.ndarray:
    """The factors, stacked as ``(2, d/b, b, k)``, with the real coordinates x."""
    return _complex(x, (*form.unit.shape[:-1], -1))


def _tangent(roots: np.ndarray) -> tuple:
    """For each side, orthonormal real columns spanning the directions of
    its coordinates orthogonal to the factor ``L_s`` and to the turns
    ``L_s,c X`` of each block, X anti-Hermitian k x k, along which the state
    ``L_s L_s*``, and so f, does not move to first order; a block whose
    factor is zero turns nowhere.  Returns the two sides' columns and both
    as the columns of one basis of the coordinates of the two sides."""
    _, nb, b, k = roots.shape
    j, l = np.triu_indices(k, 1)
    pairs = np.arange(len(j))
    gens = np.zeros((k * k, k, k), dtype=np.complex128)
    gens[np.arange(k), np.arange(k), np.arange(k)] = 1j
    gens[k + pairs, j, l], gens[k + pairs, l, j] = 1, -1
    gens[k + len(j) + pairs, j, l] = gens[k + len(j) + pairs, l, j] = 1j
    turns = np.zeros((2, nb, k * k, nb, b, k), dtype=np.complex128)
    c = np.arange(nb)
    turns[:, c, :, c] = (roots[:, :, None] @ gens).swapaxes(0, 1)
    moves = np.concatenate([roots.reshape(2, 1, -1), turns.reshape(2, nb * k * k, -1)], axis=1)
    sides = []
    for m in np.concatenate([moves.real, moves.imag], axis=2):
        m = m[m.any(axis=1)]
        sides.append(np.linalg.qr(m.T, mode="complete")[0][:, len(m):])
    basis = np.zeros((2, sides[0].shape[0], sides[0].shape[1] + sides[1].shape[1]))
    basis[0, :, :sides[0].shape[1]], basis[1, :, sides[0].shape[1]:] = sides
    return sides, basis.reshape(-1, basis.shape[2])


def _factor_model(form: _Form, x: np.ndarray):
    """``_ascent``'s model at the real coordinates x of factors of any rank:
    f, smooth while neither A nor B has an eigenvalue at ``CUTOFF ** 0.5`` of
    its largest, and the upper value ``sqrt(lambda_max(K_0) lambda_max(K_1))``
    over all blocks, the gradient ``(K_0 L_0, K_1 L_1)``, and the Hessian on
    the tangent basis of ``_tangent`` with that basis."""
    roots = _roots(form, x)
    vecs, factors, gauges, tri = _factor_state(form, roots)
    sv = np.linalg.svd(tri, compute_uv=False)

    def rest():
        spread = form._spread(gauges)
        top = np.linalg.eigvalsh(spread)[..., -1].max(axis=1)

        def derivatives():
            sides, basis = _tangent(roots)
            return _real(spread @ roots), _factor_derivatives(form, roots, vecs, factors, sides), basis
        return float(np.sqrt(max(top[0], 0.0) * max(top[1], 0.0))), derivatives
    return factors[1].sum(), (sv[:, -1] / sv[:, 0]).min() ** 2 > CUTOFF ** 0.5, rest


def _factor_barrier(x: np.ndarray, shape: tuple) -> tuple:
    """``sum_s log det(L_s L_s*)`` for square factors with the real
    coordinates x, stacked as ``shape``, its gradient ``2 L_s^-*`` and its
    Hessian, the form ``-2 Re tr(L^-1 dL L^-1 dL)``: on the directions E_pq
    and E_p'q' of one block it is ``-2 Re T`` for
    ``T = (L^-1)_qp' (L^-1)_q'p``, built for all pairs of every block in one
    batch, 0 across two blocks, and an imaginary direction multiplies T by i."""
    roots = _complex(x, shape)
    _, nb, b, _ = shape
    inv = np.linalg.inv(roots)
    t = np.zeros((2, nb, b * b, nb, b * b), dtype=np.complex128)
    c = np.arange(nb)
    t[:, c, :, c] = (inv[:, :, None, :, :, None] * inv.swapaxes(-1, -2)[:, :, :, None, None, :]
                     ).reshape(2, nb, b * b, b * b).swapaxes(0, 1)
    t = t.reshape(2, nb * b * b, nb * b * b)
    side = 2 * np.block([[-t.real, t.imag], [t.imag, t.real]])
    hess = np.zeros((2, side.shape[1], 2, side.shape[1]))
    hess[0, :, 0], hess[1, :, 1] = side
    logdet = 2 * np.linalg.slogdet(roots)[1].sum()
    return logdet, 2 * _real(inv.conj().swapaxes(-1, -2)), hess.reshape(2 * side.shape[1], -1)


def _factor_start(form: _Form, spread: np.ndarray, k: int) -> np.ndarray:
    """Factors of rank k: the top k eigenvectors of each block of ``K_s``,
    given as ``spread``, over ``sqrt(k)``, after two fixed-point steps
    ``L <- K L``, normalized over all blocks."""
    roots = np.linalg.eigh(spread)[1][..., -k:] / np.sqrt(k)
    for _ in range(2):
        roots = form._spread(_factor_state(form, roots)[2]) @ roots
        roots /= np.linalg.norm(roots.reshape(2, -1), axis=1).reshape(2, 1, 1, 1)
    return roots


def _factor_widen(form: _Form, x: np.ndarray, f: float) -> np.ndarray | None:
    """Where a step of the rank-k ascent no longer raises f at the real
    coordinates x: the coordinates of the factors of rank k + 1 that
    ``_factor_start`` takes from ``K_s`` there, when k is below b and ``K_s``
    has an eigenvalue above f outside the range of ``L_s``; else None."""
    roots = _roots(form, x)
    if roots.shape[-1] == form.b:
        return None
    spread = form._spread(_factor_state(form, roots)[2])
    q = np.linalg.qr(roots)[0]
    outside = np.eye(form.b) - q @ q.conj().swapaxes(-1, -2)
    if np.linalg.eigvalsh(outside @ spread @ outside)[..., -1].max() <= f:
        return None
    return _real(_factor_start(form, spread, roots.shape[-1] + 1))


def _factor_ascent(form: _Form):
    """``_ascent`` of ``f = ||G||_1`` over factors of rank k from
    ``ceil(r/d)`` up to b (``_factor_widen``), starting from the maximally
    mixed states (``_factor_start``).  Returns ``_ascent``'s result, the
    points as factors stacked as ``(2, d/b, b, k)``."""
    spread = form._spread(_factor_state(form, form.unit / np.sqrt(form.d))[2])
    *found, steps, uppers = _ascent(form, _real(_factor_start(form, spread, -(-form.r // form.d))))
    return *(_roots(form, x) for x in found), steps, uppers


def _ascent_certificate(pruned: ElementaryOperator, start_form: _Form, cap: float) -> tuple:
    """``_certified``'s arguments after ``cap`` from ``_factor_ascent`` on the
    pruned terms, in their form with the block size b of ``start_form``.  The
    rewriting is ``_certificate`` of the pruned terms at the gauge ``conj P``
    of the iterate with the least upper value, and the witness that of the
    states of the iterate with the largest f in ``start_form``, the form of
    the terms as given."""
    left, right, row, col = _unit_families(pruned.left, pruned.right)
    form = _Form(np.stack([left, right.conj().transpose(0, 2, 1)]), start_form.b)
    lower, upper, steps, uppers = _factor_ascent(form)
    padded = np.zeros(start_form.unit.shape, dtype=np.complex128)
    padded[..., :lower.shape[-1]] = lower
    cert = _certificate(left * row, right * col, _factor_state(form, upper)[2][0])
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


def _uncrossed(lower: float, upper: float) -> float:
    """``lower``, unless it exceeds ``upper`` by more than ``TOL`` relative: a
    crossed bracket is an error, not something to clamp away."""
    if lower > upper * (1 + TOL):
        raise NumericalError(f"crossed cb-norm bracket: lower {lower!r} > upper {upper!r}")
    return lower


def _unit_families(left: np.ndarray, right: np.ndarray) -> tuple:
    """The balanced families divided by ``row = ||sum a_i a_i*||^1/2`` and
    ``col = ||sum b_i* b_i||^1/2``, so that ``||R_0*(I)|| = ||R_1*(I)|| = 1``,
    and the two scales."""
    r, d, _ = left.shape
    left, right = _balanced(left, right)
    row = np.linalg.norm(left.transpose(1, 0, 2).reshape(d, r * d), 2)
    col = np.linalg.norm(right.reshape(r * d, d), 2)
    return left / row, right / col, row, col


def _start_point(t: ElementaryOperator) -> tuple:
    """For a map that is not completely positive, the form of its nonzero
    terms as given with the paths' block size b (pruning keeps diagonal terms
    diagonal), the raw rewriting and its value ``cap``, ``_Form.dual_witness``
    at the maximally mixed states, or for a single term at the top singular
    vectors of its factors, and whether its value meets ``cap`` to the gap."""
    left, right = _drop_zero_terms(t.left, t.right)
    start_form = _Form(np.stack([left, right.conj().transpose(0, 2, 1)]), _block_size(t))
    start = start_form.dual_witness()
    raw = _balanced(left, right)
    cap = _factorization_value(*raw)
    if len(left) == 1 and cap - start[0] > _SDP_GAP * cap:
        start = start_form.dual_witness(_top_roots(start_form))
    return start_form, raw, cap, start, cap - start[0] <= _SDP_GAP * cap


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

    start_form, raw, cap, start, closed = _start_point(t)
    # the maximally mixed states close the bracket for every regular
    # representation (and the zero map), and the top singular vectors for
    # every single term; otherwise prune and ascend on the factors of the
    # states
    bracket = None if closed else _certified(t, raw, cap, *_ascent_certificate(prune_terms(t), start_form, cap))
    # a certificate that misses the map leaves the start point's bracket
    bracket = bracket or _certified(t, raw, cap, raw, start[1], 0, [cap], "start")
    if bracket is None:
        raise NumericalError("certificate misses the map")
    return bracket
