"""Three ways of saying "this measure acts as zero", and they agree.

A measure is killed by the conjugation construction exactly when its
Fourier transform vanishes on the difference set of the representation's
spectrum, and also exactly when the sibling tensor-conjugate
representation integrates it to zero. We build a measure whose transform
is supported off the difference set and watch all three predicates fire.
"""

import numpy as np

from ehtp import (
    Character,
    character_rep,
    diagonalize,
    difference_set,
    dual_group,
    gamma,
    kernel_test_difference_set,
    kernel_test_tensor_conjugate,
    kernel_test_transfer,
    make_cyclic_product,
    transfer_matrix,
)
from ehtp.measures import Measure

group = make_cyclic_product([7])
pi = character_rep(group, [Character((7,), (e,)) for e in (1, 3)])
diag = diagonalize(pi)

diff = difference_set(diag.spectrum).exponent_set()
print("spectrum exponents:", sorted(diag.spectrum.exponent_set()))
print("difference set:", sorted(diff))

# prescribe the transform: random values off the difference set, zero on it
rng = np.random.default_rng(2)
duals = dual_group(group)
fhat = np.array([0.0 if c.exponents in diff
                 else rng.standard_normal() + 1j * rng.standard_normal()
                 for c in duals])
weights = np.conj(duals.table()).T @ fhat / group.order
mu = Measure(group, weights)

image = gamma(pi, mu)
print("transfer matrix norm:", np.linalg.norm(transfer_matrix(image.op)))
print("zero transfer:       ", kernel_test_transfer(image))
print("difference-set test: ", kernel_test_difference_set(diag, mu))
print("tensor-conjugate test:", kernel_test_tensor_conjugate(pi, mu))

# perturb one on-set coefficient and every verdict flips together
fhat[2] = 1.0  # exponent (2,) lies in the difference set
mu2 = Measure(group, np.conj(duals.table()).T @ fhat / group.order)
image2 = gamma(pi, mu2)
print("after perturbing on the difference set:",
      kernel_test_transfer(image2),
      kernel_test_difference_set(diag, mu2),
      kernel_test_tensor_conjugate(pi, mu2))
