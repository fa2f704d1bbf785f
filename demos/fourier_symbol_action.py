"""On abelian groups the map acts entrywise in the joint eigenbasis.

Diagonalize a representation of a finite abelian group, i.e. pick a unitary
V and characters chi_1..chi_d with pi(s) = V diag(chi_1(s)..chi_d(s)) V*.
In that basis the conjugation map multiplies the (j,k) entry by the Fourier
transform of mu at chi_j chi_k^{-1}: an entrywise (Schur) multiplier.

The classic instance: on Z_101 take the characters indexed by the squares
1, 4, 9, 16, 25, 36. The symbol entry at (n, m) is the transform at the
character indexed by n^2 - m^2 mod 101, so a point mass placed at the right
group element lights up exactly the pairs with m^2 - n^2 = k.
"""

import numpy as np

from ehtp import (
    Character,
    Measure,
    character_rep,
    diagonalize,
    dual_group,
    from_density,
    make_cyclic_product,
    schur_form,
)

group = make_cyclic_product([101])
squares = [(n * n) % 101 for n in range(1, 7)]
pi = character_rep(group, [Character((101,), (q,)) for q in squares])
diag = diagonalize(pi)

rng = np.random.default_rng(1)
mu = from_density(group, rng.standard_normal(101) + 1j * rng.standard_normal(101))

symbol = schur_form(diag, mu)
print("symbol matrix shape:", symbol.shape)

# cross-check one entry against the transform directly
chi = diag.char_of_index[0].mul(diag.char_of_index[1].inv())
fhat = complex(np.sum(mu.weights * chi.values(group)))
print("symbol[0,1] matches mu^(chi_0 chi_1^{-1}):",
      abs(symbol[0, 1] - fhat) < 1e-12)

# the eigenbasis may reorder the characters; recover each row's index n
index_of = {(n * n) % 101: n for n in range(1, 7)}
labels = [index_of[c.exponents[0]] for c in diag.char_of_index]
duals = dual_group(group)

# the measure whose transform is the indicator of the exponent-k character
# lights up exactly the pairs with m^2 - n^2 = k
for k in (5, 7, 9):
    fhat = np.array([1.0 if c.exponents == (k,) else 0.0 for c in duals])
    mu_k = Measure(group, np.conj(duals.table()).T @ fhat / group.order)
    symbol = schur_form(diag, mu_k)
    on = np.argwhere(np.abs(symbol) > 0.5)
    pairs = sorted({tuple(sorted((labels[j], labels[m]))) for j, m in on})
    print(f"k = {k}: active (n, m) pairs {pairs},",
          "entry value", abs(symbol[on[0][0], on[0][1]]))
