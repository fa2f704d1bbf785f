"""Bracketing the completely bounded norm from both sides.

A gauge P of the factorization sum a_i x b_i (mix the left factors by
P^{1/2} and the right factors by P^{-1/2}) is a rewriting of the map that
certifies an upper bound, and a pair of states gives a contraction X and a
unit vector eta, and ||(T (x) id)(X) eta|| certifies a lower bound.
Single-term maps a . b have cb norm exactly ||a|| ||b||, which the states
at the top singular vectors of a and b attain, so their interval closes at
the start point, before any solver step. Schur multipliers, such as the
images of character representations, take Newton ascent on the weights
of Haagerup's dual, which closes a d = 32 bracket in a few steps, and
every other map Newton ascent on factors of the states, which closes a
generic d = 6 map with 36 terms in a few steps. Where the optimum lies on
a face of the state cone, a weight or a direction of a state going to
zero, the ascent continues on a log barrier, whose stationary points the
gauge rewriting certifies to a relative gap of 2 mu d / f.
"""

import numpy as np

from ehtp import (
    Character,
    ElementaryOperator,
    Measure,
    character_rep,
    dirac,
    from_density,
    gamma,
    haagerup_norm_bounds,
    make_cyclic_product,
    regular_rep,
    schur_op,
)

rng = np.random.default_rng(3)

d = 5
a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
t = ElementaryOperator.from_terms(d, [(a, b)])

bounds = haagerup_norm_bounds(t)
target = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
print("single term  target ||a||||b|| =", target)
print(f"interval [{bounds.lower:.12f}, {bounds.upper:.12f}]"
      f"  width {bounds.width:.2e}  iterations {bounds.iterations}  path {bounds.path}")
print("upper-bound trace is monotone:",
      all(x >= y - 1e-15 for x, y in zip(bounds.upper_trace, bounds.upper_trace[1:])))

# conjugation by a measure: the cb norm is at most the total variation norm,
# with equality for the regular representation, where the bracket closes
# before any solver step; positive measures ride the fast path exactly
group = make_cyclic_product([6])
pi = regular_rep(group)

mu = from_density(group, rng.standard_normal(6) + 1j * rng.standard_normal(6))
bounds = haagerup_norm_bounds(gamma(pi, mu).op)
print("signed measure  ||mu||_TV =", mu.norm,
      " bracket =", (bounds.lower, bounds.upper), " iterations =", bounds.iterations)

pos = dirac(group, 1) * 0.25 + dirac(group, 4) * 0.75
bounds = haagerup_norm_bounds(gamma(pi, pos).op)
print("positive measure  mass =", float(pos.total_mass.real),
      " cb norm =", bounds.upper, " exact:", bounds.lower == bounds.upper)

# a Schur multiplier at the north star's size: 32 random characters of
# Z_97 and a generic measure
n, d = 97, 32
group = make_cyclic_product([n])
chars = [Character((n,), (int(k),)) for k in rng.choice(n, size=d, replace=False)]
mu = Measure(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))
bounds = haagerup_norm_bounds(gamma(character_rep(group, chars), mu).op)
print(f"Z_{n}, {d} characters  bracket [{bounds.lower:.12f}, {bounds.upper:.12f}]"
      f"  width {bounds.width:.2e}  iterations {bounds.iterations}  path {bounds.path}")

# a Schur multiplier whose optimum lies on a face: the first 8 of 32 rows
# and columns of its symbol times 0.2 take weights that go to zero, and the
# barrier closes the bracket
d = 32
symbol = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
symbol[:8] *= 0.2
symbol[:, :8] *= 0.2
bounds = haagerup_norm_bounds(schur_op(symbol))
print(f"face symbol, d = {d}  bracket [{bounds.lower:.12f}, {bounds.upper:.12f}]"
      f"  width {bounds.width:.2e}  steps {bounds.iterations}  path {bounds.path}")

# a generic map with d^2 terms, of term rank r = 36; Newton on the state
# factors works with 4 d^2 = 144 real unknowns
d = 6
left = rng.standard_normal((d * d, d, d)) + 1j * rng.standard_normal((d * d, d, d))
right = rng.standard_normal((d * d, d, d)) + 1j * rng.standard_normal((d * d, d, d))
bounds = haagerup_norm_bounds(ElementaryOperator(d, left, right))
print(f"generic d = {d}, {d * d} terms  bracket [{bounds.lower:.12f}, {bounds.upper:.12f}]"
      f"  width {bounds.width:.2e}  steps {bounds.iterations}  path {bounds.path}")
