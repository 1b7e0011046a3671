"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its headline numbers (visible
with ``pytest -s`` or ``-rP``); a failure keeps the standard pytest
diagnostics. Criteria 1-3 share one batch of 1000 seeded single-operator
instances computed once per session.
"""

import json
import subprocess
import sys
import time
from math import prod

import numpy as np
import pytest

from partialiso import (
    DecompositionError,
    TwistedTuple,
    build_model_tuple,
    build_twisted_shift_pair,
    check_projection_commutation,
    conjugate_tuple,
    decompose_tuple,
    diag_twist,
    direct_sum_tuples,
    hw_decompose,
    is_power_partial_isometry,
    kron,
    op_norm,
    op_norm_diff,
    orthonormal_range,
    permute_tuple,
    projection_onto,
    random_commuting_unitaries,
    random_model_spec,
    stable_range_projection,
    truncated_block_projection,
    truncated_shift,
    verify_twisted,
)
from partialiso.documents import dumps_canonical, tuple_document
from partialiso.linalg import adjoint, identity
from partialiso.operators import ModelSpec
from conftest import (
    commutant_instances,
    leaf_key,
    non_power_partial_isometry_3d,
    random_decomposition_instance,
    random_hw_instance,
    random_scrambled_model,
)

N_HW_INSTANCES = 1000
N_MODEL_SPECS = 100
N_TWISTED_PAIRS = 100
N_DECOMP_INSTANCES = 200
N_COMMUTANT_INSTANCES = 200


@pytest.fixture(scope="module")
def hw_batch():
    """Criteria 1-3 data for 1000 seeded scrambled direct-sum instances."""
    rows = []
    started = time.perf_counter()
    for seed in range(N_HW_INSTANCES):
        v, u_dim, expected = random_hw_instance(seed)
        d = v.shape[0]
        eye = identity(d)
        hw = hw_decompose(v)
        w = hw.intertwiner
        reconstruction = op_norm(w @ hw.model_operator() @ adjoint(w) - v)

        p_mat, _ = stable_range_projection(v)
        q_mat, _ = stable_range_projection(adjoint(v))
        pq_comm = op_norm(p_mat @ q_mat - q_mat @ p_mat)

        projections = []
        dims_exact = True
        if hw.unitary_dim:
            projections.append(projection_onto(hw.unitary_basis))
        for block in hw.truncated_blocks:
            pi = truncated_block_projection(v, block.p)
            projections.append(pi)
            trace = float(pi.trace().real)
            if abs(trace - round(trace)) > 1e-6 or round(trace) != block.p * block.mult:
                dims_exact = False
        completeness = op_norm_diff(sum(projections), eye)
        orthogonality = max(
            (
                op_norm(projections[i] @ projections[j])
                for i in range(len(projections))
                for j in range(i + 1, len(projections))
            ),
            default=0.0,
        )
        reducing = max(
            max(op_norm((eye - pi) @ v @ pi), op_norm(pi @ v @ (eye - pi)))
            for pi in projections
        )
        shift_rank = orthonormal_range((eye - p_mat) @ q_mat).dim
        backshift_rank = orthonormal_range((eye - q_mat) @ p_mat).dim

        rows.append(
            {
                "recovered": hw.unitary_dim == u_dim and hw.block_multiset() == expected,
                "reconstruction": reconstruction,
                "pq_comm": pq_comm,
                "completeness": completeness,
                "orthogonality": orthogonality,
                "reducing": reducing,
                "dims_exact": dims_exact,
                "shift_rank": shift_rank,
                "backshift_rank": backshift_rank,
            }
        )
    elapsed = time.perf_counter() - started
    return rows, elapsed


def test_criterion_1_halmos_wallen_round_trip(hw_batch):
    rows, elapsed = hw_batch
    assert all(r["recovered"] for r in rows)
    worst = max(r["reconstruction"] for r in rows)
    assert worst <= 1e-9
    print(
        f"ACCEPTANCE 1 PASS: {len(rows)} round-trips recovered exactly, "
        f"worst residual {worst:.2e}, batch time {elapsed:.1f}s"
    )


def test_criterion_2_block_structure_invariants(hw_batch):
    rows, _ = hw_batch
    worst_pq = max(r["pq_comm"] for r in rows)
    worst_complete = max(r["completeness"] for r in rows)
    worst_orth = max(r["orthogonality"] for r in rows)
    worst_reducing = max(r["reducing"] for r in rows)
    assert worst_pq <= 1e-10
    assert worst_complete <= 1e-9
    assert worst_orth <= 1e-9
    assert worst_reducing <= 1e-9
    assert all(r["dims_exact"] for r in rows)
    print(
        "ACCEPTANCE 2 PASS: projection commutation "
        f"{worst_pq:.2e}, completeness {worst_complete:.2e}, "
        f"orthogonality {worst_orth:.2e}, reducing {worst_reducing:.2e}, "
        "block dimensions exact"
    )


def test_criterion_3_no_shift_parts_in_finite_dimension(hw_batch):
    rows, _ = hw_batch
    assert all(r["shift_rank"] == 0 and r["backshift_rank"] == 0 for r in rows)
    print(
        f"ACCEPTANCE 3 PASS: shift and backward-shift ranges are rank zero "
        f"on all {len(rows)} instances"
    )


def test_criterion_4_exactness_of_constructions():
    worst = 0.0
    for p in range(1, 5):
        for lam in (1.0, 1j, np.exp(2j * np.pi / 7)):
            report = verify_twisted(build_twisted_shift_pair(p, lam))
            worst = max(worst, report.max_residual)
    for seed in range(N_MODEL_SPECS):
        report = verify_twisted(build_model_tuple(random_model_spec(seed)))
        worst = max(worst, report.max_residual)
    assert worst <= 1e-12

    worst_identity = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        p_list = [int(rng.integers(1, 4)) for _ in range(m)]
        aux = int(rng.integers(1, 4))
        u, u_tilde = random_commuting_unitaries(aux, 2, seed)
        k_total = prod(p_list)
        i = int(rng.integers(1, m + 1))
        j = int(rng.integers(1, m + 1))
        d_i = diag_twist(p_list, i, u, aux)
        d_j = diag_twist(p_list, j, u_tilde, aux)
        # adjoint identity and commutation of twists with commuting symbols
        worst_identity = max(
            worst_identity,
            op_norm_diff(adjoint(d_i), diag_twist(p_list, i, adjoint(u), aux)),
            op_norm(d_i @ d_j - d_j @ d_i),
        )

        def shift_at(slot):
            pre = prod(p_list[:slot - 1])
            post = prod(p_list[slot:])
            return kron(kron(identity(pre), truncated_shift(p_list[slot - 1])),
                        identity(post * aux))

        if i != j:
            j_i = shift_at(i)
            worst_identity = max(worst_identity, op_norm(j_i @ d_j - d_j @ j_i))
        j_same = shift_at(i)
        lift = kron(identity(k_total), u)
        worst_identity = max(
            worst_identity,
            op_norm(adjoint(j_same) @ d_i - lift @ d_i @ adjoint(j_same)),
        )
    assert worst_identity <= 1e-12
    print(
        f"ACCEPTANCE 4 PASS: construction residual {worst:.2e}, "
        f"diagonal-twist identity residual {worst_identity:.2e}"
    )


def test_criterion_5_projection_commutation_and_reducing_blocks():
    worst_comm = 0.0
    worst_reducing = 0.0
    for seed in range(N_TWISTED_PAIRS):
        rng = np.random.default_rng(seed)
        n_ops = int(rng.integers(2, 5))
        t, _ = random_scrambled_model(seed, n_ops=n_ops)
        v = t.ops[0]
        d = t.dim
        eye = identity(d)
        for w in t.ops[1:]:
            residuals = check_projection_commutation(v, w)
            worst_comm = max(worst_comm, max(residuals.values()))
        p_mat, _ = stable_range_projection(v)
        q_mat, _ = stable_range_projection(adjoint(v))
        projections = [p_mat @ q_mat]
        for p in range(1, d + 1):
            pi = truncated_block_projection(v, p)
            if op_norm(pi) > 0.5:
                projections.append(pi)
        for pi in projections:
            for w in t.ops:
                worst_reducing = max(
                    worst_reducing,
                    op_norm((eye - pi) @ w @ pi),
                    op_norm(pi @ w @ (eye - pi)),
                )
    assert worst_comm <= 1e-10
    assert worst_reducing <= 1e-9
    print(
        f"ACCEPTANCE 5 PASS: {N_TWISTED_PAIRS} tuples, projection commutation "
        f"{worst_comm:.2e}, reducing residual {worst_reducing:.2e}"
    )


def test_criterion_6_tuple_decomposition_round_trip():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(N_DECOMP_INSTANCES):
        t, expected = random_decomposition_instance(seed)
        tree = decompose_tuple(t)
        got = sorted(
            ((leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves), key=leaf_key
        )
        assert got == expected, f"seed {seed}: {got} != {expected}"
        assert tree.residual <= 1e-9
        worst = max(worst, tree.residual)

        rng = np.random.default_rng(seed + 10**6)
        n = t.n_ops
        perm = list(rng.permutation(n) + 1)
        permuted_tree = decompose_tuple(permute_tuple(t, perm))
        assert len(permuted_tree.leaves) == len(tree.leaves)
        reindexed = sorted(
            (
                (
                    tuple(leaf.multiindex[perm.index(o)] for o in range(1, n + 1)),
                    leaf.mult_dim,
                )
                for leaf in permuted_tree.leaves
            ),
            key=leaf_key,
        )
        assert reindexed == got, f"seed {seed}: permutation changed the invariants"
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 6 PASS: {N_DECOMP_INSTANCES} decompositions plus permuted "
        f"reruns, worst residual {worst:.2e}, time {elapsed:.1f}s"
    )


def _commutant_dimension_oracle(mats, cutoff=1e-6):
    """Second, independently coded commutant dimension.

    Applies the commutator maps to every matrix unit, stacks the images as
    a dense Gram matrix, and counts its near-null eigenvalues; no
    Kronecker identities, no SVD. The cutoff sits well above the eigh
    noise floor of the squared system (about 1e-8 relative).
    """
    d = mats[0].shape[0]
    columns = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            images = [e @ a - a @ e for a in mats]
            columns.append(np.concatenate([im.ravel() for im in images]))
    big = np.column_stack(columns)
    gram = big.conj().T @ big
    eigenvalues = np.linalg.eigvalsh(gram)
    roots = np.sqrt(np.clip(eigenvalues, 0.0, None))
    scale = max(float(roots[-1]), 1.0)
    return int(np.sum(roots <= cutoff * scale))


def test_criterion_7_commutant_against_independent_oracle():
    from partialiso import commutant_dimension, is_irreducible

    families, skipped = commutant_instances(N_COMMUTANT_INSTANCES)
    for seed, mats in families:
        primary = commutant_dimension(mats)
        oracle = _commutant_dimension_oracle(mats)
        assert primary == oracle, f"instance {seed}: {primary} != {oracle}"
    checked = len(families)

    # irreducible single-leaf models with trivial multiplicity
    irreducible_models = [
        build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]})),
        build_model_tuple(ModelSpec(slot_kinds=[2, 3], aux_dim=1,
                                    twist_data={(1, 2): [[np.exp(2j * np.pi / 5)]]})),
        build_model_tuple(ModelSpec(slot_kinds=[3], aux_dim=1)),
    ]
    for t in irreducible_models:
        family = list(t.ops) + [adjoint(v) for v in t.ops]
        assert commutant_dimension(family) == 1
        assert is_irreducible(t)
        both = direct_sum_tuples(t, t)
        assert commutant_dimension(
            list(both.ops) + [adjoint(v) for v in both.ops]
        ) >= 2
    print(
        f"ACCEPTANCE 7 PASS: oracle agreement on {checked} instances "
        f"({skipped} ambiguous draws resampled), irreducible models give 1, "
        "direct sums give >= 2"
    )


def test_criterion_8_negative_controls():
    bad = non_power_partial_isometry_3d()
    ok, failing = is_power_partial_isometry(bad)
    assert not ok and failing == 2

    with pytest.raises(DecompositionError):
        hw_decompose(bad)

    t = build_twisted_shift_pair(2, 1j)
    flips = 0
    for k in range(t.n_ops):
        ops = [op.copy() for op in t.ops]
        ops[k][0, 0] += 1e-3
        report = verify_twisted(TwistedTuple(dim=t.dim, ops=ops, twists=t.twists))
        assert not report.passed
        flips += 1
    for key in t.pair_keys():
        twists = {k: v.copy() for k, v in t.twists.items()}
        twists[key][0, 0] += 1e-3
        report = verify_twisted(TwistedTuple(dim=t.dim, ops=t.ops, twists=twists))
        assert not report.passed
        flips += 1
    print(
        f"ACCEPTANCE 8 PASS: power check fails at 2, decomposition raises, "
        f"{flips} single-entry perturbations all flip verification to fail"
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "partialiso", *args], capture_output=True, text=True
    )


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    configurations = [
        ("--preset", "example43", "--p", "2", "--lambda", "0,1"),
        ("--preset", "example43", "--p", "3", "--lambda", "0,1", "--scramble", "--seed", "5"),
        ("--preset", "example43", "--p", "1", "--lambda", "1,0"),
    ]
    for idx, config in enumerate(configurations):
        generated = []
        for run in range(3):
            out = tmp_path / f"gen_{idx}_{run}.json"
            proc = _run_cli("generate", *config, "--output", str(out))
            assert proc.returncode == 0, proc.stderr
            generated.append(out.read_bytes())
        assert generated[0] == generated[1] == generated[2]
        source = tmp_path / f"gen_{idx}_0.json"
        for command in (("verify",), ("decompose",), ("hw", "--op", "V1")):
            reports = []
            for run in range(3):
                out = tmp_path / f"rep_{idx}_{command[0]}_{run}.json"
                proc = _run_cli(command[0], str(source), *command[1:], "--output", str(out))
                assert proc.returncode == 0, proc.stderr
                reports.append(out.read_bytes())
            assert reports[0] == reports[1] == reports[2]

    good = tmp_path / "good.json"
    assert _run_cli("generate", "--preset", "example43", "--output", str(good)).returncode == 0
    assert _run_cli("verify", str(good)).returncode == 0
    doc = json.loads(good.read_text())
    doc["operators"][0]["matrix"][0][0] = [0.7, 0.0]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert _run_cli("verify", str(broken)).returncode == 1
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"schema_version":"1","dim":2}')
    assert _run_cli("verify", str(malformed)).returncode == 2
    print(
        "ACCEPTANCE 9 PASS: byte-identical generate/verify/decompose/hw reports "
        "over 3 runs x 3 configurations; exit codes 0/1/2 verified"
    )
