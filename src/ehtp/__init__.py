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
"""

from .errors import (
    BimoduleError,
    DimensionMismatchError,
    EhtpError,
    GroupMismatchError,
    NonAbelianError,
    NotCompletelyPositiveError,
    NumericalError,
    ScenarioError,
)
from .groups import (
    Character,
    FiniteGroup,
    SpectrumSet,
    SubgroupRestriction,
    character_table,
    difference_set,
    dual_group,
    from_cayley,
    make_cyclic_product,
    spectrum,
    subgroup_and_restriction,
)
from .measures import (
    Measure,
    convolve,
    dirac,
    fourier_on,
    fourier_stieltjes,
    fourier_symbol,
    from_density,
    from_transform,
    in_augmentation_ideal,
    reverse,
    reverse_conj,
)
from .representations import (
    DiagonalizedRep,
    Representation,
    block_algebra_basis,
    character_rep,
    cyclic_vector,
    diagonalize,
    gelfand,
    integrate,
    make_representation,
    regular_rep,
    restrict_representation,
    tensor_conjugate,
)
from .elementary import (
    ElementaryOperator,
    PositivityReport,
    apply,
    choi,
    compose,
    conjugate_by,
    is_completely_positive,
    is_diagonal_bimodule,
    positive_implies_cp_check,
    sampled_positivity,
    schur_op,
    slice_left,
    strongly_independent_kraus,
    transfer_matrix,
    vec,
)
from .hnorm import NormInterval, haagerup_norm_bounds
from .gamma import (
    GammaImage,
    RestrictionReport,
    gamma,
    kernel_test_difference_set,
    kernel_test_tensor_conjugate,
    kernel_test_transfer,
    restriction_spectrum_check,
    schur_form,
    slice_identity_residual,
    symbol_residual,
)
from .varopoulos import (
    EquivalenceReport,
    VFunction,
    equivalence_suite,
    from_measure,
    gram_factorize,
    is_positive_definite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "EhtpError",
    "NonAbelianError",
    "GroupMismatchError",
    "DimensionMismatchError",
    "NumericalError",
    "NotCompletelyPositiveError",
    "BimoduleError",
    "ScenarioError",
    # groups
    "FiniteGroup",
    "Character",
    "SpectrumSet",
    "SubgroupRestriction",
    "make_cyclic_product",
    "from_cayley",
    "spectrum",
    "character_table",
    "dual_group",
    "difference_set",
    "subgroup_and_restriction",
    # measures
    "Measure",
    "dirac",
    "from_density",
    "convolve",
    "reverse",
    "reverse_conj",
    "fourier_stieltjes",
    "fourier_on",
    "fourier_symbol",
    "from_transform",
    "in_augmentation_ideal",
    # representations
    "Representation",
    "DiagonalizedRep",
    "make_representation",
    "regular_rep",
    "character_rep",
    "integrate",
    "tensor_conjugate",
    "restrict_representation",
    "diagonalize",
    "gelfand",
    "cyclic_vector",
    "block_algebra_basis",
    # elementary operators
    "ElementaryOperator",
    "PositivityReport",
    "vec",
    "schur_op",
    "apply",
    "compose",
    "transfer_matrix",
    "slice_left",
    "choi",
    "is_completely_positive",
    "strongly_independent_kraus",
    "is_diagonal_bimodule",
    "positive_implies_cp_check",
    "sampled_positivity",
    "conjugate_by",
    # norms
    "NormInterval",
    "haagerup_norm_bounds",
    # gamma
    "GammaImage",
    "RestrictionReport",
    "gamma",
    "schur_form",
    "symbol_residual",
    "slice_identity_residual",
    "kernel_test_transfer",
    "kernel_test_difference_set",
    "kernel_test_tensor_conjugate",
    "restriction_spectrum_check",
    # positive definiteness
    "VFunction",
    "EquivalenceReport",
    "from_measure",
    "is_positive_definite",
    "gram_factorize",
    "equivalence_suite",
]