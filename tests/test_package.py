"""The package's single homes: its public names come from each module's ``__all__``, the
rounding model's constants and the default eps are written in `linalg` alone, and the Sylvester
engine lives in `commutant` alone."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import partialiso
from partialiso import commutant, halmos_wallen, linalg, operators, twisted

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

MODULES = (commutant, halmos_wallen, linalg, operators, twisted)

SOURCE = Path(partialiso.__file__).parent

# The private names of the Sylvester engine: whatever builds, guards or solves such a system.
ENGINE_NAMES = (
    "_check_size", "_sylvester_rows", "_sylvester_stack", "_matrix_units", "_hermitian_units",
    "_uniform", "_gram_split", "_gram_count", "_eigenbasis_count", "_eigenbasis_step",
)


def _names_in(path: Path) -> set[str]:
    """Every name a module defines, imports, reads or reads as an attribute."""
    return {
        name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if isinstance(name, str)
    }


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
    holders = sorted(p.name for p in SOURCE.glob("*.py") if literal.search(p.read_text(encoding="utf-8")))
    assert holders == ["linalg.py"]


def test_the_default_eps_is_written_in_linalg_only():
    def holds(path: Path) -> bool:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return any(isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-9
                   for node in ast.walk(tree))

    assert sorted(p.name for p in SOURCE.glob("*.py") if holds(p)) == ["linalg.py"]


def test_the_sylvester_engine_is_private_to_commutant():
    tree = ast.parse(inspect.getsource(commutant))
    assert set(ENGINE_NAMES) <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    # the engine stands on the linear algebra alone
    assert {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level} == {"linalg"}
    for path in SOURCE.glob("*.py"):
        if path.name != "commutant.py":
            assert not _names_in(path) & set(ENGINE_NAMES), path.name
