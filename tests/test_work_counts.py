"""Work counts of the screened paths, independent of timing.

A counter on numpy's SVD (the one behind `op_norm` too) shows which
calls factorize and whether they ask for singular vectors.
"""

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

from partialiso import (
    ModelSpec,
    build_model_tuple,
    build_twisted_shift_pair,
    check_projection_commutation,
    commutant_dimension,
    conjugate_tuple,
    haar_unitary,
    is_power_partial_isometry,
)
from partialiso import halmos_wallen


@pytest.fixture
def svd_calls(monkeypatch):
    """Every numpy SVD made while the test runs, as (shape, compute_uv)."""
    calls = []
    original = np.linalg.svd

    def counting(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(a), compute_uv))
        return original(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np_linalg_impl, "svd", counting)
    return calls


def test_valid_operator_passes_the_power_check_without_an_svd(svd_calls):
    spec = ModelSpec(slot_kinds=[4, 4], aux_dim=4, twist_data={(1, 2): np.diag([1, 1j, -1, -1j])})
    t = build_model_tuple(spec)
    v = conjugate_tuple(t, haar_unitary(t.dim, 3)).ops[0]
    svd_calls.clear()
    assert v.shape == (64, 64)
    assert is_power_partial_isometry(v) == (True, None)
    assert svd_calls == []


def test_projection_check_builds_one_range_source_ladder(monkeypatch):
    built = []
    original_init = halmos_wallen.RangeSourceLadder.__init__

    def counting_init(self, v):
        original_init(self, v)
        built.append(self)

    monkeypatch.setattr(halmos_wallen.RangeSourceLadder, "__init__", counting_init)
    t = build_twisted_shift_pair(3, 1j)
    d = t.dim
    residuals = check_projection_commutation(t.ops[0], t.ops[1])
    assert "block_p=3" in residuals
    assert len(built) == 1
    # one product per power, up to the largest block order asked for
    assert len(built[0].ranges) == len(built[0].sources) == d + 1


def test_commutant_never_forms_singular_vectors(svd_calls):
    t = build_twisted_shift_pair(2, np.exp(0.7j))
    assert commutant_dimension(t.ops, include_adjoints=True) == 2
    assert svd_calls == [((4 * 64, 64), False)]


@pytest.mark.parametrize(
    "run",
    [
        lambda v, w: halmos_wallen.hw_decompose(v),
        lambda v, w: check_projection_commutation(v, w),
        lambda v, w: halmos_wallen.assert_no_shift_parts(v),
    ],
    ids=["hw_decompose", "check_projection_commutation", "assert_no_shift_parts"],
)
def test_p_and_q_take_one_power_walk_each(monkeypatch, run):
    walked = []
    original = halmos_wallen._power_walk

    def counting(v):
        walked.append(v)
        return original(v)

    monkeypatch.setattr(halmos_wallen, "_power_walk", counting)
    t = build_twisted_shift_pair(3, 1j)
    v, w = conjugate_tuple(t, haar_unitary(t.dim, 5)).ops
    run(v, w)
    assert len(walked) == 2
    assert np.array_equal(walked[0], v)
    assert np.array_equal(walked[1], v.conj().T)
