"""Restricting a representation restricts its spectrum, character by character.

Restrict a representation of a finite abelian group G to a subgroup H. The
characters appearing in the restriction are exactly the restrictions of the
characters appearing originally: no new frequencies, none lost (multiplicity
aside). We also build a vector whose orbit under the diagonal algebra spans
any requested family of vectors.
"""

import numpy as np

from ehtp import (
    Character,
    block_algebra_basis,
    character_rep,
    cyclic_vector,
    diagonalize,
    make_cyclic_product,
    restrict_representation,
    restriction_spectrum_check,
    subgroup_and_restriction,
)

group = make_cyclic_product([12])
sub = subgroup_and_restriction(group, [4])  # H = {0, 4, 8} = Z3 inside Z12
print("subgroup order:", sub.subgroup.order,
      " shape:", sub.subgroup.abelian_shape)

pi = character_rep(group, [Character((12,), (e,)) for e in (2, 3, 7, 10)])
rho = restrict_representation(pi, sub)
spec = diagonalize(rho).spectrum
print("restricted spectrum exponents:", sorted(spec.exponent_set()))
print("expected (original exponents taken mod 3):",
      sorted({(e % 3,) for e in (2, 3, 7, 10)}))

report = restriction_spectrum_check(pi, sub, seed=0, tol=1e-9)
print("character sets match:", report.match,
      " symbol residual on H:", report.symbol_residual)

# a cyclic vector for the diagonal algebra through two chosen vectors
dims = [1, 1, 1]
targets = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])]
xi = cyclic_vector(dims, targets)
print("cyclic vector:", xi)
orbit = np.stack([m @ xi for m in block_algebra_basis(dims)], axis=1)
joint = np.concatenate([orbit, np.stack(targets, axis=1)], axis=1)
print("orbit rank", np.linalg.matrix_rank(orbit),
      " joint rank", np.linalg.matrix_rank(joint),
      " (equal means the orbit covers the targets)")
