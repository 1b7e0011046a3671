"""Twisted power partial isometries on finite-dimensional spaces.

Construction, verification and orthogonal decomposition of tuples of
power partial isometries satisfying twisted commutation relations, with
certified residuals throughout. See the README for the CLI.
"""

from .halmos_wallen import (
    DecompositionError,
    HWDecomposition,
    TruncatedBlock,
    assert_no_shift_parts,
    hw_decompose,
    multiplicity_space,
    stable_range_projection,
    truncated_block_projection,
)
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Subspace,
    Tolerance,
    kron,
    nullspace,
    op_norm,
    op_norm_diff,
    orthonormal_range,
    projection_onto,
    zero_subspace,
)
from .operators import (
    ModelSpec,
    TwistedTuple,
    build_model_tuple,
    build_twisted_shift_pair,
    clock_shift_unitaries,
    conjugate_tuple,
    diag_twist,
    direct_sum_tuples,
    haar_unitary,
    is_partial_isometry,
    is_power_partial_isometry,
    permute_tuple,
    power_isometry_residual,
    random_commuting_unitaries,
    random_model_spec,
    truncated_shift,
)
from .twisted import (
    CommutantTooLargeError,
    DecompositionLeaf,
    DecompositionTree,
    EquivalenceResult,
    PartitionReport,
    TwistReport,
    check_projection_commutation,
    classify_partition,
    commutant_dimension,
    decompose_tuple,
    equivalence_check,
    extract_twist_factor,
    is_irreducible,
    leaf_model_operator,
    verify_twisted,
)

__version__ = "0.1.0"
