"""Two-sided bounds for the completely bounded norm of an elementary operator.

The cb norm of ``T = sum_i a_i (x) b_i`` equals the factorization norm
``inf ||sum v_i v_i*||^(1/2) ||sum w_i* w_i||^(1/2)`` over all ways of
writing the same map, and the infimum is attained at finite dimension.  With
the term families stacked as ``A = [a_1 ... a_n]`` and ``B = [b_1; ...; b_n]``,
every minimal rewriting is a gauge ``P > 0`` on the index space, giving the
upper-bound objective

    f(P) = ||A (P (x) I) A*||^(1/2) * ||B* (P^-1 (x) I) B*||^(1/2).

``haagerup_norm_bounds`` minimizes f by gradient descent on log P
(multiplicative geodesic steps, backtracking line search, stop when the
relative decrease drops below 1e-8), reporting the minimum over all visited
gauges.  The balanced diagonal gauge ``P = diag(||b_i||_F / ||a_i||_F)`` on
the raw term list is always visited first; for operators assembled from a
measure and a unitary representation it already achieves the total variation
norm of the measure.

The lower bound sups ``||(T (x) id_d)(X)||`` over sampled contractions X,
each refined by an alternating local ascent that is exact in both half-steps
and therefore monotone.  For completely positive maps both bounds collapse
to the exact value ``||T(I)||``.

The ascent applies ``T (x) id_d`` and the map with the term families swapped
(``x -> sum_i b_i x a_i``) to d^2 x d^2 matrices in block form
``X[(a,i),(b,j)]``.  On the realignment ``X[(a,b),(i,j)]`` each is a single
matrix product with the d^2 x d^2 amplification kernel

    K[(u,v),(a,b)] = sum_n a_n[u,a] b_n[b,v],

built once per call for each of the two maps, so one step costs two d^2 x d^2
products and two SVDs whatever the number of terms.

This is a best-effort bound pair, not a certified global optimum; only
``lower <= cb norm <= upper`` is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elementary import ElementaryOperator, apply, is_completely_positive, strongly_independent_kraus
from .errors import CUTOFF

__all__ = ["NormInterval", "haagerup_norm_bounds", "prune_terms"]

# Solver settings, not gates: they decide when the descent and the ascent
# stop, and every bound they return is valid whatever they are.
RELATIVE_DECREASE = 1e-8   # stop the gauge descent below this relative decrease
MAX_ITERS = 500            # cap on gauge descent steps
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12
_ASCENT_ITERS = 60


@dataclass(frozen=True)
class NormInterval:
    """Certified bracket ``lower <= ||T||_cb <= upper``.

    ``certificate_terms`` is a rewriting of the map witnessing the upper
    bound: for gauge-optimized instances its factorization value equals
    ``upper``; on the completely positive fast path the Kraus rewriting is
    returned and ``upper`` is the exact value ``||T(I)||`` (which positivity
    alone certifies).  ``upper_trace`` logs the best upper bound after each
    optimizer iteration (non-increasing by construction).
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
    a matrix of orthonormal columns.
    """
    left, right = _drop_zero_terms(t.left, t.right)
    if left.shape[0]:
        left, right = _compress(left, right)
        right, left = _compress(right, left)
    return ElementaryOperator(t.dim, left, right)


def _drop_zero_terms(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms_l = np.linalg.norm(left, axis=(1, 2))
    norms_r = np.linalg.norm(right, axis=(1, 2))
    keep = (norms_l > 0) & (norms_r > 0)
    return left[keep], right[keep]


def _compress(primary: np.ndarray, partner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, d, _ = primary.shape
    mat = primary.reshape(n, d * d).T  # columns are the flattened terms
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > CUTOFF * s[0])) if s.size else 0
    new_primary = (u[:, :rank] * s[:rank]).T.reshape(rank, d, d)
    new_partner = np.einsum("ki,iab->kab", vh[:rank], partner)
    return new_primary, new_partner


def _sqrt_pair(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, u = np.linalg.eigh((p + p.conj().T) / 2)
    w = np.clip(w, 1e-14 * max(float(w.max()), 1e-300), None)
    root = np.sqrt(w)
    return (u * root) @ u.conj().T, (u / root) @ u.conj().T


def _gauge_value(left: np.ndarray, right: np.ndarray, p: np.ndarray):
    """Objective f(P) plus the top eigenpairs needed for the gradient."""
    phalf, pneghalf = _sqrt_pair(p)
    aprime = np.einsum("iab,ij->jab", left, phalf)
    x = np.einsum("jab,jcb->ac", aprime, np.conj(aprime))
    xw, xu = np.linalg.eigh((x + x.conj().T) / 2)
    bprime = np.einsum("ji,iab->jab", pneghalf, right)
    z = np.einsum("jba,jbc->ac", np.conj(bprime), bprime)
    zw, zu = np.linalg.eigh((z + z.conj().T) / 2)
    lam_x = max(float(xw[-1]), 0.0)
    lam_z = max(float(zw[-1]), 0.0)
    value = float(np.sqrt(lam_x * lam_z))
    return value, lam_x, lam_z, xu[:, -1], zu[:, -1], phalf


def _gauge_gradient(left: np.ndarray, right: np.ndarray, p: np.ndarray,
                    lam_x: float, lam_z: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gradient of ``log f`` at P, as the matrix G with dF = sum G_pq dP_pq."""
    y = np.einsum("iba,b->ia", np.conj(left), u)      # y_i = a_i^* u
    g_x = np.conj(y) @ y.T
    z = np.einsum("iab,b->ia", right, v)              # z_i = b_i v
    g_q = np.conj(z) @ z.T
    pinv_t = np.conj(np.linalg.inv((p + p.conj().T) / 2))
    g_z = -pinv_t @ g_q @ pinv_t
    return g_x / (2 * lam_x) + g_z / (2 * lam_z)


def _certificate(left: np.ndarray, right: np.ndarray, p: np.ndarray):
    phalf, pneghalf = _sqrt_pair(p)
    cert_left = np.einsum("iab,ij->jab", left, phalf)
    cert_right = np.einsum("ji,iab->jab", pneghalf, right)
    return tuple((cert_left[i], cert_right[i]) for i in range(cert_left.shape[0]))


def _amplification_kernel(lstack: np.ndarray, rstack: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 matrix ``K[(u,v),(a,b)] = sum_n L_n[u,a] R_n[b,v]`` of
    ``T (x) id_d``: one ``(d^2, n) @ (n, d^2)`` product, then a realignment."""
    n, d, _ = lstack.shape
    k = lstack.transpose(1, 2, 0).reshape(d * d, n) @ rstack.reshape(n, d * d)  # [(u,a),(b,v)]
    return k.reshape(d, d, d, d).transpose(0, 3, 1, 2).reshape(d * d, d * d)


def _amplified_apply(kernel: np.ndarray, x: np.ndarray, d: int) -> np.ndarray:
    """``(T (x) id_d)(X)`` for X in block form ``X[(a,i),(b,j)]``: one product
    of the kernel with the realignment ``X[(a,b),(i,j)]``."""
    xr = x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    out = (kernel @ xr).reshape(d, d, d, d)        # [u, v, i, j]
    return out.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _lower_bound(left: np.ndarray, right: np.ndarray, d: int, cap: float,
                 restarts: int, rng: np.random.Generator) -> float:
    """Best ``||(T (x) id)(X)||`` found by alternating ascent over
    contractions X: optimize the probing singular pair and the contraction in
    turn, each step exactly, so the objective never decreases."""
    d2 = d * d
    best = 0.0
    forward = _amplification_kernel(left, right)
    backward = _amplification_kernel(right, left)
    for _ in range(restarts):
        g = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
        x = g / np.linalg.svd(g, compute_uv=False)[0]
        prev = 0.0
        for _ in range(_ASCENT_ITERS):
            m = _amplified_apply(forward, x, d)
            mu, ms, mvh = np.linalg.svd(m)
            val = float(ms[0])
            if val <= prev * (1 + 1e-12) + 1e-300:
                break
            prev = val
            w = np.outer(mvh[0].conj(), np.conj(mu[:, 0]))
            k = _amplified_apply(backward, w, d)
            ku, _, kvh = np.linalg.svd(k)
            x = kvh.conj().T @ ku.conj().T
        best = max(best, prev)
        if best >= cap * (1 - 1e-12):
            break
    return best


def haagerup_norm_bounds(t: ElementaryOperator, restarts: int = 200, seed: int = 0) -> NormInterval:
    """Bracket the cb norm of an elementary operator; see the module docstring."""
    if t.n_terms == 0:
        raise ValueError("the term list is empty")
    d = t.dim

    if is_completely_positive(t):
        t_of_one = apply(t, np.eye(d, dtype=np.complex128))
        value = float(np.linalg.eigvalsh((t_of_one + t_of_one.conj().T) / 2).max())
        value = max(value, 0.0)
        cert = tuple((k, k.conj().T) for k in strongly_independent_kraus(t))
        return NormInterval(value, value, cert, 0, (value,))

    left, right = _drop_zero_terms(t.left, t.right)
    if left.shape[0] == 0:
        return NormInterval(0.0, 0.0, (), 0, (0.0,))

    # visited gauge 1: balanced diagonal on the raw terms
    scales = np.linalg.norm(right, axis=(1, 2)) / np.linalg.norm(left, axis=(1, 2))
    p_raw = np.diag(scales).astype(np.complex128)
    best, *_ = _gauge_value(left, right, p_raw)
    best_state = (left, right, p_raw)

    pruned = prune_terms(t)
    pl, pr = pruned.left, pruned.right
    p = np.diag(np.linalg.norm(pr, axis=(1, 2)) / np.linalg.norm(pl, axis=(1, 2))).astype(np.complex128)
    f_cur, lam_x, lam_z, u, v, phalf = _gauge_value(pl, pr, p)
    if f_cur < best:
        best, best_state = f_cur, (pl, pr, p)

    trace = [best]
    iterations = 0
    for _ in range(MAX_ITERS):
        grad = _gauge_gradient(pl, pr, p, max(lam_x, 1e-300), max(lam_z, 1e-300), u, v)
        direction = -(p @ np.conj(grad) @ p)
        slope = float(np.real(np.sum(grad * direction)))
        step_core = phalf @ np.conj(grad) @ phalf
        scale = float(np.linalg.norm(step_core))
        if scale < 1e-14 or slope >= 0:
            break
        iterations += 1
        eta = 1.0 / max(scale, 1.0)
        accepted = False
        log_f_cur = np.log(max(f_cur, 1e-300))
        sw, su = np.linalg.eigh((step_core + step_core.conj().T) / 2)
        while eta >= _MIN_STEP:
            expo = (su * np.exp(-eta * sw)) @ su.conj().T
            p_new = phalf @ expo @ phalf
            p_new = (p_new + p_new.conj().T) / 2
            p_new *= pl.shape[0] / max(float(np.real(np.trace(p_new))), 1e-300)
            f_new, lx_new, lz_new, u_new, v_new, phalf_new = _gauge_value(pl, pr, p_new)
            if np.log(max(f_new, 1e-300)) <= log_f_cur + _ARMIJO_C * eta * slope:
                accepted = True
                break
            eta /= 2
        if not accepted:
            trace.append(best)
            break
        f_prev = f_cur
        p, f_cur, lam_x, lam_z, u, v, phalf = p_new, f_new, lx_new, lz_new, u_new, v_new, phalf_new
        if f_cur < best:
            best, best_state = f_cur, (pl, pr, p)
        trace.append(best)
        if f_prev - f_cur < RELATIVE_DECREASE * max(f_prev, 1e-300):
            break

    cert = _certificate(*best_state)
    rng = np.random.default_rng(seed)
    lower = _lower_bound(t.left, t.right, d, best, restarts, rng)
    lower = min(lower, best)
    return NormInterval(lower, best, cert, iterations, tuple(trace))
