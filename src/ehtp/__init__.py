"""Elementary-operator realizations of finite measure algebras.

Finite groups, complex measures on them, unitary representations, and the
map sending a measure ``mu`` to the two-sided multiplication operator
``x -> sum_s mu({s}) pi(s) x pi(s)*``.  The package provides the transfer
calculus for such operators (composition, Choi matrices, Kraus extraction,
complete positivity), certified cb-norm brackets from one factorization SDP,
Fourier symbols and Schur multiplier forms over joint eigenbases, kernel
tests, positive-definiteness equivalences, and subgroup restriction of
diagonalization spectra.  ``ehtp.cli`` exposes the scenario runner and the
randomized selftest; ``ehtp.suites`` holds the underlying invariant suites.

The public names are those of each module's ``__all__``, re-exported here;
``ehtp.gamma`` is the function, not its module.
"""

from . import errors, groups, measures, representations, elementary, hnorm, gamma, varopoulos

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, groups, measures, representations, elementary, hnorm, gamma, varopoulos):
    globals().update({name: getattr(_module, name) for name in _module.__all__})
    __all__ += _module.__all__
del _module
