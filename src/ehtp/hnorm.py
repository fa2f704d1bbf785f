"""Two-sided bounds for the completely bounded norm of an elementary operator.

``haagerup_norm_bounds`` takes one of three paths.

**Completely positive maps.**  Both bounds are the exact value ``||T(I)||``,
and the certificate is a Kraus rewriting of the map.

**Schur multipliers.**  When every left and right term is diagonal, the map
multiplies entrywise by the symbol ``S = L^T R`` (``L[i, j] = a_i[j, j]``,
``R[i, k] = b_i[k, k]``); this covers the realizations of character
representations and ``schur_op``.  Its cb norm equals its norm, and by
Haagerup's theorem it is the optimum of a 2d x 2d semidefinite program,

    min t  s.t.  [[A, S], [S*, B]] >= 0,  diag A <= t,  diag B <= t,

whose dual is ``max ||D_xi S D_eta||_1`` over unit vectors xi, eta.  A
primal-dual interior-point method (HKM direction, Mehrotra predictor-corrector;
Vandenberghe and Boyd, SIAM Rev. 38, 1996) solves the pair on the symbol
scaled to ``max |S_jk| = 1``.  In standard form the variable is one
2d x 2d block with m = 2d(d-1) + 1 constraints: the off-diagonal entries of
both diagonal blocks vanish and the trace is 1.  The m x m Newton matrix is
formed from the entries of X and Z^-1 directly, never from m dense
constraint matrices; still, its m^2 floats make d = 32 take about 5 s and
250 MB, and d = 64 would need 0.5 GB for the matrix alone.  Both ends of the
bracket are certified:

* upper: the dual slack, with S written back exactly, is
  ``[[A, -S], [-S*, B]]``; its Cholesky factor gives 2d diagonal terms that
  rewrite the map, and their factorization value is ``sqrt(max diag A *
  max diag B)``.  ``upper`` is the smaller of this value and the balanced raw
  gauge below, and ``certificate_terms`` is the rewriting that attains it;
* lower: ``||T(X)||`` for the unitary X that is the polar part of
  ``D_xi S D_eta``, with xi and eta the square roots of the primal block
  diagonals.

The loop stops once the certified relative gap, between the better of the
two upper bounds and the lower bound, is at most 1e-9.  A bracket
that crosses by more than ``TOL`` relative, or a certificate that does not
rebuild the symbol to ``TOL``, raises :class:`NumericalError`.

**Every other map** gets a best-effort bracket; only
``lower <= cb norm <= upper`` is guaranteed.  The cb norm of
``T = sum_i a_i (x) b_i`` equals the factorization norm
``inf ||sum v_i v_i*||^(1/2) ||sum w_i* w_i||^(1/2)`` over all ways of
writing the same map, and the infimum is attained at finite dimension.  With
the term families stacked as ``A = [a_1 ... a_n]`` and ``B = [b_1; ...; b_n]``,
every minimal rewriting is a gauge ``P > 0`` on the index space, giving the
upper-bound objective

    f(P) = ||A (P (x) I) A*||^(1/2) * ||B* (P^-1 (x) I) B*||^(1/2).

The upper bound minimizes f by gradient descent on log P (multiplicative
geodesic steps, backtracking line search, stop when the relative decrease
drops below 1e-8), reporting the minimum over all visited gauges.  The
balanced diagonal gauge ``P = diag(||b_i||_F / ||a_i||_F)`` on the raw term
list is always visited first; for operators assembled from a measure and a
unitary representation it already achieves the total variation norm of the
measure.

The lower bound sups ``||(T (x) id_d)(X)||`` over sampled contractions X,
each refined by an alternating local ascent that is exact in both half-steps
and therefore monotone.  A restart ends once a step gains less than 1e-15
relative or the value reaches the upper bound to 1e-12.

The ascent applies ``T (x) id_d`` and the map with the term families swapped
(``x -> sum_i b_i x a_i``) to d^2 x d^2 matrices in block form
``X[(a,i),(b,j)]``.  On the realignment ``X[(a,b),(i,j)]`` each is a single
matrix product with the d^2 x d^2 amplification kernel

    K[(u,v),(a,b)] = sum_n a_n[u,a] b_n[b,v],

built once per call for each of the two maps, so one step costs two d^2 x d^2
products and two SVDs whatever the number of terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elementary import ElementaryOperator, apply, is_completely_positive, strongly_independent_kraus
from .errors import CUTOFF, TOL, NumericalError

__all__ = ["NormInterval", "haagerup_norm_bounds", "prune_terms"]

# Solver settings, not gates: they decide when the descent, the ascent and
# the Schur SDP stop, and every bound they return is valid whatever they are.
RELATIVE_DECREASE = 1e-8   # stop the gauge descent below this relative decrease
MAX_ITERS = 500            # cap on gauge descent steps
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12
_ASCENT_ITERS = 100
_ASCENT_GAIN = 1e-15       # a restart ends below this relative gain per step
_ASCENT_CAP = 1e-12        # ... or this close below the upper bound
_SDP_GAP = 1e-9            # the Schur SDP stops at this certified relative gap
_SDP_ITERS = 100           # cap on interior-point iterations
_SDP_STEP = 0.95           # fraction of the step to the boundary of the cone


@dataclass(frozen=True)
class NormInterval:
    """Certified bracket ``lower <= ||T||_cb <= upper``.

    ``certificate_terms`` is a rewriting of the map witnessing the upper
    bound: for gauge-optimized instances and on the Schur path its
    factorization value equals ``upper``; on the completely positive fast
    path the Kraus rewriting is returned and ``upper`` is the exact value
    ``||T(I)||`` (which positivity alone certifies).  ``iterations`` counts
    gauge descent steps, or interior-point iterations on the Schur path.
    ``upper_trace`` logs the best upper bound after each optimizer iteration
    (non-increasing by construction).  On the Schur path both ends are
    computed independently, so where they agree to rounding ``width`` can be
    a few ulps below zero.
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
    reach = cap * (1 - _ASCENT_CAP)
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
            if val <= prev * (1 + _ASCENT_GAIN) + 1e-300:
                break
            prev = val
            if prev >= reach:
                break
            w = np.outer(mvh[0].conj(), np.conj(mu[:, 0]))
            k = _amplified_apply(backward, w, d)
            ku, _, kvh = np.linalg.svd(k)
            x = kvh.conj().T @ ku.conj().T
        best = max(best, prev)
        if best >= reach:
            break
    return best


def _diagonal_symbol(left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
    """The symbol ``S = L^T R`` when every term is exactly diagonal, else None."""
    off = ~np.eye(left.shape[1], dtype=bool)
    if left[:, off].any() or right[:, off].any():
        return None
    return np.diagonal(left, axis1=1, axis2=2).T @ np.diagonal(right, axis1=1, axis2=2)


# The Schur SDP in standard form on Hermitian 2d x 2d matrices: the primal
# ``max <C, X>`` with ``C = [[0, S], [S*, 0]]`` is constrained by ``tr X = 1``
# and ``Re X_pq = Im X_pq = 0`` for every pair p < q inside a diagonal block;
# the dual is ``min y_0`` with slack ``Z = A*(y) - C >= 0``.  A multiplier
# vector y holds the trace first, then the real parts of the pairs, then the
# imaginary parts.

def _block_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the pairs p < q inside the two diagonal blocks."""
    rows, cols = np.triu_indices(d, 1)
    return np.concatenate([rows, rows + d]), np.concatenate([cols, cols + d])


def _constraint_values(k: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``A(K)`` for the Hermitian part of K: its trace, then the real and the
    imaginary parts of its (p, q) entries."""
    h = (k[p, q] + np.conj(k[q, p])) / 2
    return np.concatenate([[np.real(np.trace(k))], h.real, h.imag])


def _dual_matrix(y: np.ndarray, p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """``A*(y)``: y_0 on the diagonal and the pair multipliers on the (p, q)
    entries, so that ``<A*(y), X> = <y, A(X)>``."""
    k = p.size
    w = (y[1:k + 1] + 1j * y[k + 1:]) / 2
    z = np.zeros((n, n), dtype=np.complex128)
    z[p, q] = w
    z[q, p] = np.conj(w)
    np.fill_diagonal(z, y[0])
    return z


def _newton_matrix(x: np.ndarray, g: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The HKM Newton matrix ``M_ij = Re tr(A_i X A_j G)`` with ``G = Z^-1``.

    For pairs (p, q) and (r, s) the entry needs only ``X_pr G_sq``,
    ``X_ps G_rq``, ``X_qr G_sp`` and ``X_qs G_rp``, so the blocks are
    entrywise products of submatrices of X and G; the trace row and column
    are ``A(X G)``."""
    k = p.size
    a1 = x[np.ix_(p, p)] * g[np.ix_(q, q)].T
    a4 = x[np.ix_(q, q)] * g[np.ix_(p, p)].T
    a2 = x[np.ix_(p, q)] * g[np.ix_(p, q)].T
    a3 = x[np.ix_(q, p)] * g[np.ix_(q, p)].T
    same, cross = a1 + a4, a2 + a3
    m = np.empty((2 * k + 1, 2 * k + 1))
    m[1:k + 1, 1:k + 1] = np.real(same + cross) / 4
    m[k + 1:, k + 1:] = np.real(same - cross) / 4
    same, cross = a1 - a4, a2 - a3
    m[k + 1:, 1:k + 1] = np.imag(same + cross) / 4
    m[1:k + 1, k + 1:] = -np.imag(same - cross) / 4
    m[:, 0] = m[0, :] = _constraint_values(x @ g, p, q)
    return m


def _max_step(chol: np.ndarray, step: np.ndarray) -> float:
    """Largest alpha with ``chol chol* + alpha step >= 0``."""
    inv = np.linalg.inv(chol)
    low = float(np.linalg.eigvalsh(inv @ step @ inv.conj().T)[0])
    return np.inf if low >= 0 else -1.0 / low


def _hkm_direction(x: np.ndarray, g: np.ndarray, newton: np.ndarray, rp: np.ndarray,
                   target: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Solve ``A(dX) = rp``, ``dZ = A*(dy)``, ``dX + sym(X dZ G) = target``."""
    dy = np.linalg.solve(newton, _constraint_values(target, p, q) - rp)
    dz = _dual_matrix(dy, p, q, x.shape[0])
    k = x @ dz @ g
    dx = target - (k + k.conj().T) / 2
    return (dx + dx.conj().T) / 2, dy, dz


def _polar_witness(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The unitary W with ``sum_jk xi_j S_jk W_jk eta_k = ||D_xi S D_eta||_1``,
    xi and eta the normalized square roots of the primal block diagonals."""
    d = s.shape[0]
    diag = np.maximum(np.real(np.diag(x)), 0.0)
    xi = np.sqrt(diag[:d] / diag[:d].sum())
    eta = np.sqrt(diag[d:] / diag[d:].sum())
    u, _, vh = np.linalg.svd(xi[:, None] * s * eta)
    return np.conj(u @ vh)


def _schur_sdp(s: np.ndarray, cap: float):
    """Primal-dual interior-point solve of the Schur SDP for a symbol with
    ``max |S_jk| = 1``, stopping once the certified gap, with ``cap`` as a
    second certified upper bound, is small.  Returns the Cholesky factor of
    the best dual slack, the best polar witness, the iteration count and the
    best dual value after each iterate."""
    d = s.shape[0]
    n = 2 * d
    p, q = _block_pairs(d)
    c = np.zeros((n, n), dtype=np.complex128)
    c[:d, d:] = s
    c[d:, :d] = s.conj().T
    x = np.eye(n, dtype=np.complex128) / n
    y = np.zeros(2 * p.size + 1)
    y[0] = np.linalg.norm(s, 2) + 1.0
    b = np.zeros_like(y)
    b[0] = 1.0
    upper, lower = np.inf, 0.0
    chol_best = witness_best = None
    trace: list[float] = []
    iterations = 0
    for _ in range(_SDP_ITERS):
        z = _dual_matrix(y, p, q, n) - c
        try:
            lz = np.linalg.cholesky(z)
            lx = np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            break
        if y[0] < upper:
            upper, chol_best = float(y[0]), lz
        trace.append(upper)
        w = _polar_witness(s, x)
        value = float(np.linalg.norm(s * w, 2))
        if value > lower:
            lower, witness_best = value, w
        if min(upper, cap) - lower <= _SDP_GAP * min(upper, cap):
            break
        iterations += 1
        mu = float(np.real(np.trace(x @ z))) / n
        lzinv = np.linalg.inv(lz)
        g = lzinv.conj().T @ lzinv
        newton = _newton_matrix(x, g, p, q)
        rp = b - _constraint_values(x, p, q)
        # predictor, then the Mehrotra corrector with centering (mu_aff / mu)^3
        dx, _, dz = _hkm_direction(x, g, newton, rp, -x, p, q)
        ap = min(1.0, _max_step(lx, dx))
        ad = min(1.0, _max_step(lz, dz))
        mu_aff = float(np.real(np.trace((x + ap * dx) @ (z + ad * dz)))) / n
        sigma = min(1.0, max(mu_aff / mu, 0.0)) ** 3
        second = dx @ dz @ g
        target = sigma * mu * g - x - (second + second.conj().T) / 2
        dx, dy, dz = _hkm_direction(x, g, newton, rp, target, p, q)
        x = x + min(1.0, _SDP_STEP * _max_step(lx, dx)) * dx
        x = (x + x.conj().T) / 2
        y = y + min(1.0, _SDP_STEP * _max_step(lz, dz)) * dy
    return chol_best, witness_best, iterations, trace


def _schur_interval(t: ElementaryOperator, symbol: np.ndarray, raw: float, raw_state) -> NormInterval:
    """The certified bracket of a Schur multiplier; see the module docstring."""
    d = t.dim
    scale = float(np.abs(symbol).max())
    if scale == 0.0:
        return NormInterval(0.0, 0.0, (), 0, (0.0,))
    chol, witness, iterations, trace = _schur_sdp(symbol / scale, raw / scale)
    # [[A, S], [S*, B]] = V V* with V = diag(I, -I) chol, so S = V_1 V_2*
    root = np.sqrt(scale)
    v1, v2 = root * chol[:d], -root * chol[d:]
    miss = float(np.abs(v1 @ v2.conj().T - symbol).max())
    if miss > TOL * scale:
        raise NumericalError(f"Schur certificate misses the symbol by {miss:.3e}")
    upper = float(np.sqrt(np.max(np.sum(np.abs(v1) ** 2, axis=1))
                          * np.max(np.sum(np.abs(v2) ** 2, axis=1))))
    cert = tuple((np.diag(v1[:, i]), np.diag(np.conj(v2[:, i]))) for i in range(2 * d))
    if raw < upper:
        upper, cert = raw, _certificate(*raw_state)
    lower = float(np.linalg.norm(apply(t, witness), 2) / np.linalg.norm(witness, 2))
    if lower > upper * (1 + TOL):
        raise NumericalError(f"crossed cb-norm bracket: lower {lower!r} > upper {upper!r}")
    return NormInterval(lower, upper, cert, iterations, tuple(min(raw, scale * v) for v in trace))


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

    symbol = _diagonal_symbol(left, right)
    if symbol is not None:
        return _schur_interval(t, symbol, best, best_state)

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
