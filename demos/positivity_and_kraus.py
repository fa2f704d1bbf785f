"""Complete positivity of the map = positive definiteness of the symbol.

For a diagonalized abelian representation the Choi matrix of the
conjugation map and the symbol matrix have the same nonzero spectrum, so
checking the map (operator side) and checking the kernel u(j,k) =
mu^(chi_j chi_k^{-1}) (function side) must always agree. On the positive
side we extract a strongly independent Kraus family, diagonal in the
eigenbasis, and a Gram factorization of the kernel.
"""

import numpy as np

from ehtp import (
    Character,
    character_rep,
    choi,
    diagonalize,
    dirac,
    equivalence_suite,
    from_measure,
    gamma,
    gram_factorize,
    is_completely_positive,
    is_positive_definite,
    make_cyclic_product,
    strongly_independent_kraus,
)

group = make_cyclic_product([8])
pi = character_rep(group, [Character((8,), (e,)) for e in (0, 1, 3, 6)])
diag = diagonalize(pi)

# a positive combination of point masses is completely positive
mu = dirac(group, 1) * 0.7 + dirac(group, 5) * 0.3
image = gamma(pi, mu)

print("Choi eigenvalues:", np.round(np.linalg.eigvalsh(choi(image.op)), 6))
print("map completely positive:", is_completely_positive(image.op))
print("symbol positive definite:", is_positive_definite(from_measure(diag, mu)))

kraus = strongly_independent_kraus(image.op)
print("Kraus family size:", len(kraus))
stacked = np.stack([k.reshape(-1) for k in kraus], axis=0)
print("min singular value of stacked vectorizations:",
      float(np.linalg.svd(stacked, compute_uv=False).min()))

# signed measures lose both properties at once
signed = dirac(group, 1) - dirac(group, 0) * 0.5
report = equivalence_suite(diag, signed, trials=25, tol=1e-9, seed=0)
print("signed measure:", "cp =", report.completely_positive,
      "posdef =", report.positive_definite,
      "consistent =", report.consistent)

# the positive-definite kernel factors through a Gram matrix
factors = gram_factorize(from_measure(diag, mu))
v = from_measure(diag, mu)
rebuilt = sum(np.outer(f, f.conj()) for f in factors)
print("Gram factorization rebuilds the kernel:",
      np.allclose(rebuilt, v.values, atol=1e-9))
