import numpy as np
import pytest
from math import prod

from partialiso import (
    CommutantTooLargeError,
    DecompositionError,
    DimensionMismatchError,
    ModelSpec,
    TwistedTuple,
    build_model_tuple,
    build_twisted_shift_pair,
    check_projection_commutation,
    classify_partition,
    clock_shift_unitaries,
    commutant_dimension,
    conjugate_tuple,
    decompose_tuple,
    direct_sum_tuples,
    equivalence_check,
    extract_twist_factor,
    haar_unitary,
    hw_decompose,
    is_irreducible,
    kron,
    leaf_model_operator,
    nullspace,
    op_norm,
    op_norm_diff,
    permute_tuple,
    random_commuting_unitaries,
    random_model_spec,
    truncated_shift,
    verify_twisted,
)
from partialiso import twisted
from partialiso.linalg import adjoint
from partialiso.twisted import _factor_out_identity
from conftest import (
    commutant_instances,
    leaf_key,
    random_scrambled_model,
    single_op_tuple,
    sylvester_stack,
)


class TestVerifyTwisted:
    def test_shift_pair_passes(self):
        report = verify_twisted(build_twisted_shift_pair(2, 1j))
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_single_operator_only_runs_the_power_check(self):
        report = verify_twisted(single_op_tuple(truncated_shift(3)))
        assert report.passed
        assert set(k[0] for k in report.residuals) == {"ppi"}

    def test_adjointed_twist_fails_star_relations(self):
        t = build_twisted_shift_pair(2, 1j)
        corrupted = TwistedTuple(
            dim=t.dim, ops=t.ops, twists={(1, 2): t.twists[(1, 2)].conj().T}
        )
        report = verify_twisted(corrupted)
        assert not report.passed
        star = report.by_kind("star-cross")
        assert max(star.values()) > 1e-3

    def test_residual_key_order_for_three_operators(self):
        # the order fixes the row order of `verify` reports
        report = verify_twisted(build_model_tuple(random_model_spec(3, n_ops=3)))
        assert list(report.residuals) == [
            ("twist-unitary", 1, 2), ("twist-unitary", 1, 3), ("twist-unitary", 2, 3),
            ("twist-commuting-family", 1, 2, 1, 3),
            ("twist-commuting-family", 1, 2, 2, 3),
            ("twist-commuting-family", 1, 3, 2, 3),
            ("twist-commute", 1, 1, 2), ("twist-commute", 1, 1, 3), ("twist-commute", 1, 2, 3),
            ("twist-commute", 2, 1, 2), ("twist-commute", 2, 1, 3), ("twist-commute", 2, 2, 3),
            ("twist-commute", 3, 1, 2), ("twist-commute", 3, 1, 3), ("twist-commute", 3, 2, 3),
            ("star-cross", 1, 2), ("plain-cross", 1, 2),
            ("star-cross", 1, 3), ("plain-cross", 1, 3),
            ("star-cross", 2, 1), ("plain-cross", 2, 1),
            ("star-cross", 2, 3), ("plain-cross", 2, 3),
            ("star-cross", 3, 1), ("plain-cross", 3, 1),
            ("star-cross", 3, 2), ("plain-cross", 3, 2),
            ("ppi", 1), ("ppi", 2), ("ppi", 3),
        ]

    def test_worst_names_the_offender(self):
        t = build_twisted_shift_pair(2, 1j)
        bad_ops = [t.ops[0].copy(), t.ops[1]]
        bad_ops[0][0, 0] += 1e-3
        report = verify_twisted(TwistedTuple(dim=t.dim, ops=bad_ops, twists=t.twists))
        assert not report.passed
        key, value = report.worst()
        assert value == report.max_residual


class TestProjectionCommutation:
    def test_identity_partner_commutes_exactly(self):
        residuals = check_projection_commutation(truncated_shift(3), np.eye(3))
        assert max(residuals.values()) == 0.0

    def test_twisted_pair_commutes(self):
        t = build_twisted_shift_pair(2, 1j)
        residuals = check_projection_commutation(t.ops[0], t.ops[1])
        assert max(residuals.values()) <= 1e-12
        assert "block_p=2" in residuals

    def test_random_pair_reports_without_raising(self):
        rng = np.random.default_rng(0)
        v = truncated_shift(4)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        residuals = check_projection_commutation(v, w)
        assert all(np.isfinite(list(residuals.values())))

    def test_non_square_v_is_refused(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            check_projection_commutation(np.zeros((3, 4)), np.eye(3))

    def test_w_of_another_shape_is_refused(self):
        with pytest.raises(DimensionMismatchError, match=r"\(4, 4\).*\(3, 3\)"):
            check_projection_commutation(truncated_shift(3), np.eye(4))


class TestCommutant:
    def test_identity_has_full_commutant(self):
        assert commutant_dimension([np.eye(3)]) == 9

    def test_single_shift_without_adjoint(self):
        # commutant of J_2 alone is span{I, J_2}
        assert commutant_dimension([truncated_shift(2)]) == 2

    def test_single_shift_star_closed(self):
        assert commutant_dimension([truncated_shift(2)], include_adjoints=True) == 1

    def test_irreducible_twisted_model(self):
        spec = ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]})
        t = build_model_tuple(spec)
        assert commutant_dimension(t.ops, include_adjoints=True) == 1
        assert is_irreducible(t)

    def test_scalar_is_irreducible(self):
        assert is_irreducible(single_op_tuple(np.array([[np.exp(0.4j)]])))

    def test_direct_sum_is_reducible(self):
        t = build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]}))
        both = direct_sum_tuples(t, t)
        assert not is_irreducible(both)
        assert commutant_dimension(both.ops, include_adjoints=True) >= 2

    def test_invariant_under_conjugation(self):
        t = build_model_tuple(random_model_spec(5, n_ops=2))
        base = commutant_dimension(t.ops, include_adjoints=True)
        for seed in range(5):
            moved = conjugate_tuple(t, haar_unitary(t.dim, seed))
            assert commutant_dimension(moved.ops, include_adjoints=True) == base


    def test_values_only_dimension_matches_nullspace_on_criterion_7_families(self):
        families, _ = commutant_instances(200)
        for seed, mats in families:
            assert commutant_dimension(mats) == nullspace(sylvester_stack(mats)).dim, seed

    @pytest.mark.parametrize("p,seed", [(2, 1), (3, 1), (4, 1), (2, 7), (3, 7)])
    def test_values_only_dimension_matches_nullspace_on_example43(self, p, seed):
        # the benchmark's commutant rungs and CLI documents: d = 8, 18, 32
        rng = np.random.default_rng(seed)
        pair = build_twisted_shift_pair(p, np.exp(2j * np.pi * rng.uniform(0.05, 0.45)))
        t = conjugate_tuple(pair, haar_unitary(pair.dim, rng))
        family = list(t.ops) + [adjoint(v) for v in t.ops]
        dimension = commutant_dimension(t.ops, include_adjoints=True)
        assert dimension == nullspace(sylvester_stack(family)).dim == 2

    def test_oversized_system_is_refused_before_allocation(self, monkeypatch):
        def no_kron(*args):
            raise AssertionError("kron called before the size guard")

        monkeypatch.setattr(twisted, "kron", no_kron)
        # four 150 x 150 maps stack into 4 * 150^4 complex entries, about 30 GiB
        ops = [truncated_shift(150), np.eye(150, dtype=complex)]
        with pytest.raises(CommutantTooLargeError, match="30.2 GiB"):
            commutant_dimension(ops, include_adjoints=True)
        with pytest.raises(CommutantTooLargeError):
            is_irreducible(TwistedTuple(dim=150, ops=ops))

    def test_oversized_multiplicity_match_is_refused_before_allocation(self, monkeypatch):
        # two commuting unitaries at d = 77 decompose into one all-"u" leaf of
        # multiplicity 77; matching it stacks 4 * 77^4 complex entries
        t = TwistedTuple(dim=77, ops=random_commuting_unitaries(77, 2, 3))
        s = conjugate_tuple(t, haar_unitary(77, 4))

        def no_kron(*args):
            raise AssertionError("kron called before the size guard")

        monkeypatch.setattr(twisted, "kron", no_kron)
        with pytest.raises(CommutantTooLargeError, match="2.1 GiB"):
            equivalence_check(t, s)


class TestExtractTwistFactor:
    def test_constructed_block_pair(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = haar_unitary(3, rng)
        block = np.zeros((6, 6), dtype=complex)
        block[:3, :3] = a
        block[3:, 3:] = u @ a
        got_u, got_a = extract_twist_factor(block, 2, 3)
        assert op_norm_diff(got_a, a) <= 1e-12
        assert op_norm_diff(got_u, u) <= 1e-9

    def test_identity_input(self):
        u, v = extract_twist_factor(np.eye(6), 2, 3)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(v, np.eye(3), atol=1e-12)

    def test_model_slot_recovery(self):
        u12 = np.diag([1.0, -1.0]).astype(complex)
        u2 = np.diag([1j, -1j])
        spec = ModelSpec(slot_kinds=[2, "u"], aux_dim=2,
                         twist_data={(1, 2): u12}, slot_unitaries={2: u2})
        t = build_model_tuple(spec)
        got_u, got_v = extract_twist_factor(t.ops[1], 2, 2)
        assert op_norm_diff(got_u, u12) <= 1e-10
        assert op_norm_diff(got_v, u2) <= 1e-10

    def test_rank_deficient_needs_the_ambient_twist(self):
        # blocks B, uB with B singular: ratios cannot see the kernel direction
        u = np.diag([1j, -1j])
        b = np.diag([1.0, 0.0]).astype(complex)
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = b
        block[2:, 2:] = u @ b
        got_u, got_b = extract_twist_factor(block, 2, 2, ambient_twist=u)
        assert op_norm_diff(got_u, u) <= 1e-12
        assert op_norm_diff(got_b, b) <= 1e-12

    def test_off_block_mass_raises(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 2] = 0.5
        with pytest.raises(DecompositionError):
            extract_twist_factor(bad, 2, 2)

    def test_inconsistent_ratios_raise(self):
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = np.eye(2)
        block[2:, 2:] = np.diag([1.0, 2.0])  # not unitary times identity
        with pytest.raises(DecompositionError):
            extract_twist_factor(block, 2, 2)


class TestDecomposeTuple:
    def test_single_operator_matches_hw(self):
        v = np.zeros((3, 3), dtype=complex)
        v[1, 0] = 1.0
        v[2, 2] = np.exp(0.9j)
        tree = decompose_tuple(single_op_tuple(v))
        hw = hw_decompose(v)
        got = {leaf.multiindex: leaf.mult_dim for leaf in tree.leaves}
        expected = {(p,): m for p, m in hw.block_multiset()}
        if hw.unitary_dim:
            expected[("u",)] = hw.unitary_dim
        assert got == expected
        assert tree.residual <= 1e-12

    def test_two_shift_slots_round_trip(self):
        lam = np.exp(2j * np.pi / 7)
        spec = ModelSpec(slot_kinds=[2, 3], aux_dim=1, twist_data={(1, 2): [[lam]]})
        t = build_model_tuple(spec)
        scrambled = conjugate_tuple(t, haar_unitary(t.dim, 12))
        tree = decompose_tuple(scrambled)
        assert [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves] == [((2, 3), 1)]
        assert tree.residual <= 1e-9

    def test_direct_sum_of_distinct_models_gives_two_leaves(self):
        t1 = build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]}))
        t2 = build_model_tuple(ModelSpec(slot_kinds=[3, "u"], aux_dim=1,
                                         slot_unitaries={2: [[np.exp(0.8j)]]}))
        both = conjugate_tuple(direct_sum_tuples(t1, t2), haar_unitary(t1.dim + t2.dim, 3))
        tree = decompose_tuple(both)
        got = sorted(((leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves), key=leaf_key)
        assert got == [((2, 2), 1), ((3, "u"), 1)]
        assert tree.residual <= 1e-9

    def test_matching_summands_merge_multiplicities(self):
        spec = ModelSpec(slot_kinds=[2, "u"], aux_dim=2,
                         twist_data={(1, 2): np.diag([1.0, -1.0])},
                         slot_unitaries={2: np.diag([1j, -1j])})
        t = build_model_tuple(spec)
        both = conjugate_tuple(direct_sum_tuples(t, t), haar_unitary(2 * t.dim, 4))
        tree = decompose_tuple(both)
        assert [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves] == [((2, "u"), 4)]

    @pytest.mark.parametrize("seed", range(15))
    def test_scrambled_models_recover_generator_structure(self, seed):
        scrambled, spec = random_scrambled_model(seed, n_ops=3)
        tree = decompose_tuple(scrambled)
        assert [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves] == [
            (tuple(spec.slot_kinds), spec.aux_dim)
        ]
        assert tree.residual <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_leaf_subspaces_reduce_every_operator(self, seed):
        scrambled, _ = random_scrambled_model(seed, n_ops=2)
        tree = decompose_tuple(scrambled)
        for leaf in tree.leaves:
            pi = leaf.intertwiner @ leaf.intertwiner.conj().T
            eye = np.eye(scrambled.dim)
            for v in scrambled.ops:
                assert op_norm((eye - pi) @ v @ pi) <= 1e-9
                assert op_norm(pi @ v @ (eye - pi)) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_slot_twists_match_ambient_compressions(self, seed):
        scrambled, _ = random_scrambled_model(seed + 40, n_ops=3)
        tree = decompose_tuple(scrambled)
        for leaf in tree.leaves:
            k_total = prod(leaf.shift_dims())
            for (m, n), symbol in leaf.slot_twists.items():
                compressed = (
                    leaf.intertwiner.conj().T
                    @ scrambled.twist(m, n)
                    @ leaf.intertwiner
                )
                ambient = _factor_out_identity(
                    compressed, k_total, leaf.mult_dim, 1e-8, "test"
                )
                assert op_norm_diff(symbol, ambient) <= 1e-9

    def test_leaf_models_reproduce_operators(self):
        scrambled, spec = random_scrambled_model(9, n_ops=3)
        tree = decompose_tuple(scrambled)
        g = tree.global_intertwiner
        at = 0
        for leaf in tree.leaves:
            cols = g[:, at : at + leaf.leaf_dim]
            at += leaf.leaf_dim
            for n in range(1, scrambled.n_ops + 1):
                model = leaf_model_operator(leaf, n)
                restricted = cols.conj().T @ scrambled.ops[n - 1] @ cols
                assert op_norm_diff(model, restricted) <= 1e-9


class TestClassification:
    def test_pure_unitary_tuple(self):
        rng = np.random.default_rng(2)
        u1 = haar_unitary(3, rng)
        u2 = np.eye(3, dtype=complex)
        tree = decompose_tuple(TwistedTuple(dim=3, ops=[u1, u2]))
        partition = classify_partition(tree)
        assert partition.global_assignment == {1: "u", 2: "u"}
        assert partition.classes() == {"u": [1, 2]}

    def test_mixed_single_leaf(self):
        spec = ModelSpec(slot_kinds=[2, "u"], aux_dim=2,
                         twist_data={(1, 2): np.diag([1.0, -1.0])},
                         slot_unitaries={2: np.diag([1j, -1j])})
        tree = decompose_tuple(build_model_tuple(spec))
        partition = classify_partition(tree)
        assert partition.global_assignment == {1: 2, 2: "u"}
        assert partition.classes() == {"p=2": [1], "u": [2]}

    def test_single_shift(self):
        tree = decompose_tuple(single_op_tuple(truncated_shift(3)))
        assert classify_partition(tree).global_assignment == {1: 3}

    def test_disagreeing_leaves_have_no_global_assignment(self):
        t1 = single_op_tuple(truncated_shift(2))
        t2 = single_op_tuple(np.array([[np.exp(0.2j)]]))
        both = direct_sum_tuples(t1, t2)
        partition = decompose_tuple(both).partition
        assert partition.global_assignment is None
        assert len(partition.per_leaf) == 2

    def test_irreducible_tuple_has_single_leaf_filling_the_space(self):
        clock, shift, omega = clock_shift_unitaries(3)
        spec = ModelSpec(slot_kinds=[2, "u", "u"], aux_dim=3,
                         twist_data={(2, 3): np.conj(omega) * np.eye(3)},
                         slot_unitaries={2: clock, 3: shift})
        t = build_model_tuple(spec)
        assert is_irreducible(t)
        tree = decompose_tuple(t)
        assert len(tree.leaves) == 1
        leaf = tree.leaves[0]
        assert prod(leaf.shift_dims()) * leaf.mult_dim == t.dim


class TestEquivalence:
    def test_tuple_is_equivalent_to_its_scramble(self):
        t = build_model_tuple(random_model_spec(21, n_ops=2))
        moved = conjugate_tuple(t, haar_unitary(t.dim, 77))
        result = equivalence_check(t, moved)
        assert result.verdict == "EQUIVALENT"
        assert result.residual <= 1e-9
        u = result.intertwiner
        for a, b in zip(t.ops, moved.ops):
            assert op_norm(u @ a @ u.conj().T - b) <= 1e-9

    def test_different_shift_orders_are_not_equivalent(self):
        r = equivalence_check(
            single_op_tuple(truncated_shift(2)), single_op_tuple(truncated_shift(3))
        )
        assert r.verdict == "NOT_EQUIVALENT"

    def test_spectral_mismatch_in_unitary_part(self):
        a = single_op_tuple(np.diag([1.0, 1j]))
        b = single_op_tuple(np.diag([1.0, -1j]))
        r = equivalence_check(a, b)
        assert r.verdict == "NOT_EQUIVALENT"
        assert "spectra" in r.certificate

    def test_operator_count_mismatch(self):
        t = build_twisted_shift_pair(2, 1j)
        r = equivalence_check(t, single_op_tuple(truncated_shift(2)))
        assert r.verdict == "NOT_EQUIVALENT"

    def test_twisted_pair_equivalence_survives_scramble(self):
        t = build_twisted_shift_pair(3, np.exp(2j * np.pi / 5))
        moved = conjugate_tuple(t, haar_unitary(t.dim, 13))
        assert equivalence_check(t, moved).verdict == "EQUIVALENT"

    def test_equivalence_handles_mixed_leaf_entry_types(self):
        # leaf multiindices mixing ints and "u" at the same position
        t1 = build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1,
                                         twist_data={(1, 2): [[1j]]}))
        t2 = build_model_tuple(ModelSpec(slot_kinds=[2, "u"], aux_dim=1,
                                         slot_unitaries={2: [[np.exp(0.3j)]]}))
        both = direct_sum_tuples(t1, t2)
        moved = conjugate_tuple(both, haar_unitary(both.dim, 3))
        assert equivalence_check(both, moved).verdict == "EQUIVALENT"
        t3 = build_model_tuple(ModelSpec(slot_kinds=[3, "u"], aux_dim=1,
                                         slot_unitaries={2: [[np.exp(0.3j)]]}))
        other = direct_sum_tuples(t1, t3)
        assert equivalence_check(both, other).verdict == "NOT_EQUIVALENT"

    def test_matching_invariants_without_a_match_stay_inconclusive(self):
        # clock-shift pairs generating inequivalent relations share every
        # computed invariant; the verdict must not guess a negative
        clock, shift, omega = clock_shift_unitaries(3)
        t1 = build_model_tuple(
            ModelSpec(slot_kinds=["u", "u"], aux_dim=3,
                      twist_data={(1, 2): np.conj(omega) * np.eye(3)},
                      slot_unitaries={1: clock, 2: shift})
        )
        t2 = build_model_tuple(
            ModelSpec(slot_kinds=["u", "u"], aux_dim=3,
                      twist_data={(1, 2): np.conj(omega) ** 2 * np.eye(3)},
                      slot_unitaries={1: clock, 2: shift @ shift})
        )
        result = equivalence_check(t1, t2)
        assert result.verdict == "INCONCLUSIVE"


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_leaf_invariants_survive_permutation(self, seed):
        scrambled, _ = random_scrambled_model(seed + 60, n_ops=3)
        tree = decompose_tuple(scrambled)
        base = sorted(((leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves), key=leaf_key)
        rng = np.random.default_rng(seed)
        perm = list(rng.permutation(3) + 1)
        permuted_tree = decompose_tuple(permute_tuple(scrambled, perm))
        reindexed = sorted(
            (
                (
                    tuple(leaf.multiindex[perm.index(o)] for o in range(1, 4)),
                    leaf.mult_dim,
                )
                for leaf in permuted_tree.leaves
            ),
            key=leaf_key,
        )
        assert reindexed == base
        assert len(permuted_tree.leaves) == len(tree.leaves)
