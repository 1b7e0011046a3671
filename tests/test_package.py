"""The package's single homes: its public names come from each module's ``__all__``, and
the rounding model's constants are written in `linalg` alone."""

import inspect
import re
from pathlib import Path

import pytest

import partialiso
from partialiso import halmos_wallen, linalg, operators, twisted

PUBLIC_NAMES = {
    "CommutantTooLargeError", "DEFAULT_TOL", "DecompositionError", "DecompositionLeaf",
    "DecompositionTree", "DimensionMismatchError", "EquivalenceResult", "HWDecomposition",
    "ModelSpec", "PartitionReport", "Subspace", "Tolerance", "TruncatedBlock", "TwistReport",
    "TwistedTuple", "assert_no_shift_parts", "build_model_tuple", "build_twisted_shift_pair",
    "check_projection_commutation", "classify_partition", "clock_shift_unitaries",
    "commutant_dimension", "conjugate_tuple", "decompose_tuple", "diag_twist",
    "direct_sum_tuples", "equivalence_check", "extract_twist_factor", "haar_unitary",
    "hw_decompose", "is_irreducible", "is_partial_isometry", "is_power_partial_isometry", "kron",
    "leaf_model_operator", "multiplicity_space", "nullspace", "op_norm", "op_norm_diff",
    "orthonormal_range", "permute_tuple", "power_isometry_residual", "projection_onto",
    "random_commuting_unitaries", "random_model_spec", "stable_range_projection",
    "truncated_block_projection", "truncated_shift", "verify_twisted", "zero_subspace",
}

MODULES = (halmos_wallen, linalg, operators, twisted)


def test_the_package_namespace_is_the_public_names():
    names = {
        name
        for name in dir(partialiso)
        if not name.startswith("_") and not inspect.ismodule(getattr(partialiso, name))
    }
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_in_a_module_all_resolves_on_the_package(module):
    for name in module.__all__:
        assert getattr(partialiso, name) is getattr(module, name), name


@pytest.mark.parametrize("power", ["53", "1074", "900"])
def test_rounding_constants_are_written_in_linalg_only(power):
    literal = re.compile(rf"2\.0\s*\*\*\s*-{power}\b")
    source = Path(partialiso.__file__).parent
    holders = sorted(p.name for p in source.glob("*.py") if literal.search(p.read_text(encoding="utf-8")))
    assert holders == ["linalg.py"]
