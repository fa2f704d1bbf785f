"""Reference computations made apart from the ``ehtp`` package.

Nothing here imports ``ehtp``: every value is computed from plain numpy
arrays and Python integers, so a workload check stays independent of the
code path it checks.  Groups are cyclic products ``Z_{n_1} x ... x Z_{n_r}``
with row-major element indices; the character with exponents ``k`` sends the
element with coordinates ``s`` to ``exp(2 pi i sum_j k_j s_j / n_j)``, and the
transform of a measure uses the plain (unconjugated) pairing.
"""

from __future__ import annotations

import numpy as np


def transform(weights: np.ndarray, shape) -> np.ndarray:
    """``mu_hat(chi_k) = sum_s chi_k(s) w_s`` for every exponent tuple ``k``,
    as an array of ``shape`` indexed by the exponents (a numpy DFT)."""
    shape = tuple(int(n) for n in shape)
    w = np.asarray(weights, dtype=np.complex128).reshape(shape)
    return np.fft.ifftn(w) * w.size


def measure_from_transform(values: np.ndarray) -> np.ndarray:
    """Flat weights whose :func:`transform` is ``values`` (the inverse DFT)."""
    values = np.asarray(values, dtype=np.complex128)
    return (np.fft.fftn(values) / values.size).ravel()


def difference_exponents(spectrum, shape) -> set[tuple[int, ...]]:
    """All quotients ``k - l (mod shape)`` of the listed exponent tuples."""
    shape = tuple(int(n) for n in shape)
    return {tuple((a - b) % n for a, b, n in zip(k, l, shape)) for k in spectrum for l in spectrum}


def symbol(weights: np.ndarray, shape, exponents) -> np.ndarray:
    """Schur symbol ``S[j, k] = mu_hat(chi_j / chi_k)`` of the map realized
    through characters with the listed exponent tuples."""
    shape = tuple(int(n) for n in shape)
    f = transform(weights, shape)
    e = np.array([tuple(k) for k in exponents], dtype=np.int64).reshape(len(exponents), len(shape))
    quot = (e[:, None, :] - e[None, :, :]) % np.array(shape)
    return f[tuple(quot[..., axis] for axis in range(len(shape)))]


def is_psd(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """Hermitian and positive semidefinite, relative to the largest eigenvalue."""
    m = np.asarray(matrix, dtype=np.complex128)
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > tol * scale:
        return False
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(evals.min() >= -tol * max(1.0, float(np.abs(evals).max())))


# ---------------------------------------------------------------------------
# Regular representation of Z_n
# ---------------------------------------------------------------------------


def shift(n: int, s: int) -> np.ndarray:
    """Permutation matrix ``P_s e_t = e_{s+t mod n}``."""
    return np.roll(np.eye(n), s, axis=0)


def regular_transfer(weights: np.ndarray) -> np.ndarray:
    """Transfer matrix of ``x -> sum_s w_s P_s x P_s*`` on column-stacked
    vectors, as a sum of Kronecker products ``w_s P_s (x) P_s``."""
    n = len(weights)
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for s in range(n):
        p = shift(n, s)
        out += weights[s] * np.kron(p, p)
    return out


def regular_choi(weights: np.ndarray) -> np.ndarray:
    """Choi matrix whose block ``(i, j)`` is ``T(E_ij) = sum_s w_s E_{i+s, j+s}``."""
    n = len(weights)
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for s in range(n):
        out[i * n + (i + s) % n, j * n + (j + s) % n] += weights[s]
    return out


def circular_convolution(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """``(mu * nu)(t) = sum_s mu(s) nu(t - s)`` on Z_n, by a double loop."""
    n = len(mu)
    out = np.zeros(n, dtype=np.complex128)
    for t in range(n):
        for s in range(n):
            out[t] += mu[s] * nu[(t - s) % n]
    return out


def regular_cp(weights: np.ndarray, tol: float = 1e-9) -> bool:
    """Complete positivity on the regular representation: the symbol is the
    circulant of the transform, whose eigenvalues are the DFT of the
    transform; the map is CP iff they are real and nonnegative."""
    lam = np.fft.fft(transform(weights, (len(weights),)))
    scale = max(1.0, float(np.abs(lam).max()))
    return bool(np.abs(lam.imag).max() <= tol * scale and lam.real.min() >= -tol * scale)


# ---------------------------------------------------------------------------
# Norm targets and square pairs
# ---------------------------------------------------------------------------


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, from the eigenvalues of ``a* a``."""
    a = np.asarray(a, dtype=np.complex128)
    return float(np.sqrt(max(np.linalg.eigvalsh(a.conj().T @ a).max(), 0.0)))


def single_term_norm(a: np.ndarray, b: np.ndarray) -> float:
    """The cb norm of ``x -> a x b``: ``||a||_2 ||b||_2``."""
    return spectral_norm(a) * spectral_norm(b)


def norm_lower_target(left: np.ndarray, right: np.ndarray, probes: int = 8, seed: int = 0) -> float:
    """A certified lower bound on the cb norm of ``x -> sum_i a_i x b_i``:
    the largest ``||T(X)||`` over the identity, the matrix units and a few
    fixed random unitaries, each a contraction."""
    d = left.shape[1]

    def value(x: np.ndarray) -> float:
        return spectral_norm(sum(a @ x @ b for a, b in zip(left, right)))

    best = value(np.eye(d))
    for j in range(d):
        for k in range(d):
            unit = np.zeros((d, d))
            unit[j, k] = 1.0
            best = max(best, value(unit))
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        best = max(best, value(q))
    return best


def square_pairs(modulus: int, indices, k: int) -> list[list[int]]:
    """Pairs ``(n, m)`` of indices with ``(m^2 - n^2) mod N = k mod N``, by
    exhaustive integer arithmetic."""
    return sorted([n, m] for n in indices for m in indices
                  if (m * m - n * n) % modulus == k % modulus)


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


def subgroup_elements(shape, generators) -> list[tuple[int, ...]]:
    """Coordinates of every element of the subgroup generated by the given
    coordinate tuples, by closure under addition."""
    shape = tuple(int(n) for n in shape)
    seen = {(0,) * len(shape)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = tuple((a + b) % n for a, b, n in zip(x, g, shape))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def restricted_spectrum_size(shape, spectrum, elements) -> int:
    """Number of distinct restrictions of the listed characters to the given
    subgroup elements, compared through exact integer phases."""
    shape = tuple(int(n) for n in shape)
    big = int(np.lcm.reduce(np.array(shape, dtype=np.int64)))
    seen = set()
    for k in spectrum:
        seen.add(tuple(sum(kj * sj * (big // n) for kj, sj, n in zip(k, s, shape)) % big
                       for s in elements))
    return len(seen)


# ---------------------------------------------------------------------------
# The dihedral group D_n (order 2n) and its two-dimensional representation
# ---------------------------------------------------------------------------


def dihedral_table(n: int) -> list[list[int]]:
    """Cayley table with element ``f * n + r`` for rotation r and flip f:
    ``(r1, f1)(r2, f2) = (r1 + (-1)^f1 r2, f1 xor f2)``."""
    def mul(a: int, b: int) -> int:
        r1, f1 = a % n, a // n
        r2, f2 = b % n, b // n
        return (f1 ^ f2) * n + (r1 + (r2 if f1 == 0 else -r2)) % n

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def dihedral_matrices(n: int) -> np.ndarray:
    """Rotation by ``2 pi r / n`` times the flip ``diag(1, -1)`` if ``f``."""
    mats = np.zeros((2 * n, 2, 2))
    flip = np.diag([1.0, -1.0])
    for f in range(2):
        for r in range(n):
            c, s = np.cos(2 * np.pi * r / n), np.sin(2 * np.pi * r / n)
            rot = np.array([[c, -s], [s, c]])
            mats[f * n + r] = rot @ flip if f else rot
    return mats


def group_transfer(weights: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Transfer matrix of ``x -> sum_s w_s U_s x U_s*``: ``sum_s w_s conj(U_s) (x) U_s``."""
    d = mats.shape[1]
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for w, u in zip(weights, mats):
        out += w * np.kron(np.conj(u), u)
    return out


def table_convolution(mu: np.ndarray, nu: np.ndarray, table) -> np.ndarray:
    """``(mu * nu)(ab) += mu(a) nu(b)`` over all pairs, from a Cayley table."""
    out = np.zeros(len(mu), dtype=np.complex128)
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[ab] += mu[a] * nu[b]
    return out
