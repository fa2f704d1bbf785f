"""The interior-point solve of the factorization SDP: the oracle of both Newton
paths of ``ehtp.hnorm``, which shares none of their ascent.

The cb norm of ``T = sum_i a_i (x) b_i`` with independent families is the
optimum of

    min t  s.t.  sum_ij P_ij a_i a_j* <= t I,  sum_ij Q_ij b_i* b_j <= t I,
                 [[P, I], [I, Q]] >= 0,

over r x r gauges, whose dual maximizes ``||R(rho)^(1/2) S(sigma)^(1/2)||_1``
over states rho and sigma (see the ``hnorm`` module docstring).  A
primal-dual interior-point method (HKM direction, Mehrotra
predictor-corrector; Vandenberghe and Boyd, SIAM Rev. 38, 1996) solves the
pair.  The corrector centers with ``sigma = min(1, mu_aff / mu)``
(Mehrotra, SIAM J. Optim. 2, 1992), and each step goes the fraction
``0.9 + 0.09 min(1, a_p, a_d)`` of the way to the boundary of the cones,
where a_p and a_d are the corrector's largest primal and dual steps (the
adaptive fraction of SDPT3: Toh, Todd and Tütüncü, Optim. Methods Softw. 11,
1999).  In standard form the variable is the states rho and sigma beside one
2r x 2r block W, of total size 2d + 2r, with m = 2r^2 + 1 constraints
``tr rho + tr sigma = 1``, ``W_11 = R(rho)`` and ``W_22 = S(sigma)``, and the
objective is ``-2 Re tr W_12``.  The multipliers of the last two are P and
Q.  The families are first balanced and scaled by ``hnorm._unit_families``.
The m x m Newton matrix is assembled from products of the families with the
blocks of X and Z^-1, its W part from Kronecker products of the blocks of W
and its Z^-1 block.  The states are one stack of 2d/b Hermitian b x b
blocks, in the layout of ``hnorm._Form``, so the Newton assembly costs
r^4 d b.  Every cone is thus a stack of PSD blocks of one size, and one code
path steps them all: the nonnegative orthant is a stack of 1 x 1 blocks, as
a Lorentz cone is of 2 x 2 ones (F. Alizadeh and D. Goldfarb, Math.
Program. 95, 2003).

Both ends are certified through ``hnorm._certified``: the upper end by the
rewriting at the best gauge P of the dual iterates, the lower end at the
states of the best primal iterate, which drop the eigenvalues below
``sqrt(mu)`` (on the central path ``X Z = mu I`` those that vanish at the
optimum), and, where that drops one, at all its states too.  The solve
starts from the maximally mixed states and stops at a certified relative gap
of ``hnorm._SDP_GAP``, when a Cholesky factorization fails, or after
``_SDP_ITERS`` iterations; a Newton matrix that is singular to working
precision, as it can be near the optimum, gives its least-squares
direction.  :func:`bracket` is ``haagerup_norm_bounds`` with this solve in
place of the Newton loop.
"""

import numpy as np

from ehtp import hnorm
from ehtp.elementary import ElementaryOperator
from ehtp.errors import NumericalError
from ehtp.hnorm import NormInterval, prune_terms

_SDP_ITERS = 100           # cap on interior-point iterations


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


class _SdpForm(hnorm._Form):
    """``hnorm._Form`` with the SDP's constraint maps: X = [states, W], the
    states in the form's stack of b x b blocks and one 2r x 2r SDP block W.
    ``R_s(X)`` raveled is ``K_s vec(X^T)``, ``R_s*(E)`` is ``vec(E^T) K_s``
    (the form's ``_spread``) and the state part of the Newton matrix is
    ``sum_c (G_c K_c X_c + X_c K_c G_c) / 2 K_c*``, for the form's Gram
    blocks K."""

    def __init__(self, fam: np.ndarray, b: int):
        super().__init__(fam, b)
        self.c = [np.zeros(self.unit.shape), -np.eye(2 * self.r, k=self.r) - np.eye(2 * self.r, k=-self.r)]

    def _compressed(self, x: np.ndarray) -> np.ndarray:
        """``R_s(X_s)`` for both sides, with entry ``[s, j, i] = tr(F[s, j]* X_s F[s, i])``."""
        return (self.k.reshape(2, self.r ** 2, -1) @ x.swapaxes(-1, -2).reshape(2, -1, 1)).reshape(2, self.r, self.r)

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


def _factorization_sdp(left: np.ndarray, right: np.ndarray, cap: float, b: int, start: tuple):
    """Primal-dual interior-point solve of the factorization SDP for
    independent families, with states in blocks of size b, stopping once the
    certified gap, with ``cap`` as a second certified upper bound, is small.
    ``start`` is the dual value and witness at the maximally mixed states,
    taken on the terms as given; they are the states of the first iterate,
    so that iterate's lower end is not computed again.
    Returns the rewriting at the best gauge, the lower-end witness
    ``(xa, xb, root)`` of the best states (the factors of the polar
    contraction ``xa xb*`` and the root ``L_sigma``), the iteration count and
    the best upper value after each iterate.

    A real vector k stands for the multiplier ``((1+i) k + (1-i) k[t]) / 2``,
    and an output h of A is read back as ``Re h + Im h``; so the complex
    Newton matrix M becomes the real matrix ``Re M + Im M[:, t]``."""
    r, d, _ = left.shape
    left, right, row, col = hnorm._unit_families(left, right)
    form = _SdpForm(np.stack([left, right.conj().transpose(0, 2, 1)]), b)
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
        # rewriting at gauge P (see ``hnorm._certificate``), without forming it
        top = form.spread_tops(np.stack([p, np.linalg.inv(p)]))
        value = float(np.sqrt(max(top[0], 0.0) * max(top[1], 0.0)))
        if value < upper:
            upper, p_best = value, p
        trace.append(upper)
        for roots in form.state_roots(x, mu) if iterations else ():
            value = form.dual_witness(roots)[0]
            if value > lower:
                lower, roots_best = value, roots
        if min(upper, cap) - lower <= hnorm._SDP_GAP * min(upper, cap):
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
    cert_left, cert_right = hnorm._certificate(left * row, right * col, p_best)
    witness = start[1] if roots_best is None else form.dual_witness(roots_best)[1]
    return cert_left, cert_right, witness, iterations, [scale * v for v in trace]


def bracket(t: ElementaryOperator, b: int | None = None) -> NormInterval:
    """The bracket of ``haagerup_norm_bounds`` with the interior-point solve
    in place of the Newton loop, path ``"ipm"``: the start point as in the
    package, then the solve on the pruned terms with states in blocks of size
    b, by default the package's ``_block_size``.  The map must not be
    completely positive; a certificate that misses the map raises."""
    start_form, raw, cap, start, closed = hnorm._start_point(t)
    found = raw, start[1], 0, [cap], "start"
    if not closed:
        pruned = prune_terms(t)
        *solved, witness, iterations, trace = _factorization_sdp(pruned.left, pruned.right, cap,
                                                                 b or start_form.b, start)
        found = solved, witness, iterations, [min(cap, v) for v in trace], "ipm"
    result = hnorm._certified(t, raw, cap, *found)
    if result is None:
        raise NumericalError("certificate misses the map")
    return result
