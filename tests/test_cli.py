import json
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from partialiso import (
    DecompositionError,
    TwistedTuple,
    build_model_tuple,
    cli,
    commutant_dimension,
    documents,
    truncated_shift,
    verify_twisted,
)
from partialiso.documents import (
    dumps_canonical,
    matrix_to_json,
    model_spec_document,
    parse_tuple_document,
    tuple_document,
)
from partialiso.operators import ModelSpec, random_model_spec
from conftest import (
    non_power_partial_isometry_3d,
    perturbed_tuple,
    random_scrambled_model,
    single_op_tuple,
    unscreened_power_residuals,
)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "partialiso", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def run_json(*args):
    proc = run_cli(*args)
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout)


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "pair.json"
    proc = run_cli("generate", "--preset", "example43", "--p", "2",
                   "--lambda", "0,1", "--output", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.fixture(scope="module")
def scrambled_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "scrambled.json"
    proc = run_cli("generate", "--preset", "example43", "--p", "2",
                   "--lambda", "0,1", "--scramble", "--seed", "7",
                   "--output", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


class TestGenerate:
    def test_preset_document_verifies(self, pair_file):
        code, report = run_json("verify", str(pair_file))
        assert code == 0
        assert report["pass"] is True

    def test_preset_shape(self, pair_file):
        doc = json.loads(pair_file.read_text())
        assert doc["dim"] == 8
        assert len(doc["operators"]) == 2
        assert doc["metadata"]["preset"] == "example43"

    def test_order_one_preset_is_all_zero(self, tmp_path):
        path = tmp_path / "p1.json"
        proc = run_cli("generate", "--preset", "example43", "--p", "1",
                       "--lambda", "1,0", "--output", str(path))
        assert proc.returncode == 0
        doc = json.loads(path.read_text())
        for op in doc["operators"]:
            flat = np.array(op["matrix"], dtype=float)
            assert np.abs(flat).max() == 0.0

    def test_spec_file_generation(self, tmp_path):
        spec = random_model_spec(3, n_ops=2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(dumps_canonical(model_spec_document(spec)))
        out = tmp_path / "tuple.json"
        proc = run_cli("generate", "--spec", str(spec_path), "--scramble",
                       "--seed", "5", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        code, report = run_json("verify", str(out))
        assert code == 0 and report["pass"]

    def test_spec_file_reads_its_shape_once(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(dumps_canonical(model_spec_document(random_model_spec(3, n_ops=2))))
        shapes = []

        def counting(doc, original=documents._spec_shape):
            shapes.append(1)
            return original(doc)

        monkeypatch.setattr(cli, "_spec_shape", counting)
        monkeypatch.setattr(documents, "_spec_shape", counting)
        assert cli.main(["generate", "--spec", str(spec_path), "--output", str(tmp_path / "t.json")]) == 0
        assert len(shapes) == 1

    def test_relation_violation_exits_2(self, tmp_path):
        bad = ModelSpec(
            slot_kinds=[2, "u"],
            aux_dim=2,
            twist_data={(1, 2): np.diag([1.0, -1.0])},
            slot_unitaries={2: np.array([[0.0, 1.0], [1.0, 0.0]])},
        )
        spec_path = tmp_path / "bad_spec.json"
        spec_path.write_text(dumps_canonical(model_spec_document(bad)))
        proc = run_cli("generate", "--spec", str(spec_path))
        assert proc.returncode == 2
        assert "relation" in proc.stderr

    @pytest.mark.parametrize("lam, modulus", [("0.5,0", "0.5"), ("nan,0", "nan"), ("1,nan", "nan")])
    def test_non_unimodular_lambda_exits_2(self, lam, modulus):
        proc = run_cli("generate", "--preset", "example43", "--lambda", lam)
        assert proc.returncode == 2
        assert proc.stderr == f"error: lambda must be unimodular, got |lambda| = {modulus}\n"

    def test_unknown_preset_exits_2(self):
        proc = run_cli("generate", "--preset", "nope")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "route, size",
        [("preset", "2 operators at d = 320000 need 4577.6 GiB"),
         ("spec", "2 operators at d = 160000 need 1144.4 GiB")],
        ids=["preset", "spec"],
    )
    def test_oversized_tuple_exits_2_with_the_size(self, route, size, tmp_path,
                                                   monkeypatch, capsys):
        from partialiso import operators

        def no_build(*args, **kwargs):
            raise AssertionError("tuple built before the size guard")

        monkeypatch.setattr(operators, "kron", no_build)
        monkeypatch.setattr(operators, "_model_operator", no_build)
        if route == "preset":
            argv = ["generate", "--preset", "example43", "--p", "400"]
        else:
            spec_path = tmp_path / "big_spec.json"
            spec_path.write_text('{"schema_version":"1","slots":[400,400],"aux_dim":1}')
            argv = ["generate", "--spec", str(spec_path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert size in captured.err and "above the 2 GiB limit" in captured.err

    @pytest.mark.parametrize("route", ["preset", "spec"])
    def test_negative_scramble_seed_exits_2_naming_the_flag(self, route, tmp_path, capsys):
        if route == "preset":
            argv = ["generate", "--preset", "example43"]
        else:
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(dumps_canonical(model_spec_document(random_model_spec(3, n_ops=2))))
            argv = ["generate", "--spec", str(spec_path)]
        assert cli.main([*argv, "--scramble", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--seed" in captured.err


class TestVerify:
    def test_perturbed_twist_fails_with_named_residual(self, pair_file, tmp_path):
        doc = json.loads(pair_file.read_text())
        doc["twists"][0]["matrix"][0][0] = [2.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, report = run_json("verify", str(bad))
        assert code == 1
        assert report["pass"] is False
        assert report["worst"]["kind"] in {"twist-unitary", "star-cross", "plain-cross"}
        assert report["worst"]["value"] > 1e-3

    def test_empty_operator_list_is_schema_error(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text('{"schema_version":"1","dim":1,"operators":[]}')
        proc = run_cli("verify", str(bad))
        assert proc.returncode == 2

    @pytest.mark.parametrize("value", [None, 3, True, "twists", {}])
    def test_twists_that_are_not_a_list_exit_2(self, value, pair_file, tmp_path, capsys):
        doc = json.loads(pair_file.read_text())
        doc["twists"] = value
        bad = tmp_path / "bad_twists.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["verify", str(bad)]) == 2
        assert "document.twists: expected a list" in capsys.readouterr().err

    def test_jobs_flag_accepted(self, pair_file):
        code, report = run_json("verify", str(pair_file), "--jobs", "4")
        assert code == 0 and report["pass"]

    def test_loose_tolerance_accepts_perturbed_input(self, pair_file, tmp_path):
        doc = json.loads(pair_file.read_text())
        doc["operators"][0]["matrix"][0][0] = [1e-6, 0.0]
        noisy = tmp_path / "noisy.json"
        noisy.write_text(json.dumps(doc))
        assert run_cli("verify", str(noisy)).returncode == 1
        code, report = run_json("verify", str(noisy), "--tol", "1e-3")
        assert code == 0 and report["pass"]
        code, report = run_json("decompose", str(noisy), "--tol", "1e-3")
        assert code == 0
        assert report["residual"] <= 1e-3


@pytest.mark.filterwarnings("error")
class TestNonFiniteResiduals:
    """An entry of 1e200 overflows a relation, and no report can carry the value."""

    @staticmethod
    def _document(tmp_path, t):
        path = tmp_path / "overflow.json"
        path.write_text(dumps_canonical(tuple_document(t)))
        return str(path)

    @pytest.mark.parametrize("command", ["verify", "decompose", "equiv", "commutant"])
    def test_overflowing_power_exits_2_naming_the_relation(self, command, tmp_path, capsys):
        path = self._document(tmp_path, single_op_tuple(np.diag([1e200, 0.0])))
        inputs = [path, path] if command == "equiv" else [path]
        assert cli.main([command, *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: relation ppi [1] has a non-finite residual\n"

    @pytest.mark.parametrize("command", ["verify", "decompose", "equiv", "commutant"])
    def test_overflowing_twist_exits_2_naming_the_relation(self, command, tmp_path, capsys):
        from partialiso import TwistedTuple

        zero = np.zeros((2, 2))
        t = TwistedTuple(dim=2, ops=[zero, zero, zero], twists={(1, 3): np.diag([1e200, 1.0])})
        path = self._document(tmp_path, t)
        inputs = [path, path] if command == "equiv" else [path]
        assert cli.main([command, *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: relation twist-unitary [1, 3] has a non-finite residual\n"

    @pytest.mark.parametrize("command", ["verify", "decompose", "equiv", "commutant"])
    def test_overflowing_relation_product_exits_2_naming_the_relation(self, command, tmp_path, capsys):
        v = np.diag([1e200, 0.0])
        path = self._document(tmp_path, TwistedTuple(dim=2, ops=[v, v]))
        inputs = [path, path] if command == "equiv" else [path]
        assert cli.main([command, *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: relation star-cross [1, 2] has a non-finite residual\n"

    def test_hw_reports_the_first_power(self, tmp_path, capsys):
        path = self._document(tmp_path, single_op_tuple(np.diag([1e200, 0.0])))
        assert cli.main(["hw", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["first_failing_power"] == 1

    @pytest.mark.parametrize(
        "kind, relation",
        [("ppi", "ppi [1]"), ("twist", "twist-unitary [1, 3]")],
    )
    def test_a_process_prints_no_numpy_warning(self, kind, relation, tmp_path):
        from partialiso import TwistedTuple

        if kind == "ppi":
            t = single_op_tuple(np.diag([1e200, 0.0]))
        else:
            zero = np.zeros((2, 2))
            t = TwistedTuple(dim=2, ops=[zero, zero, zero], twists={(1, 3): np.diag([1e200, 1.0])})
        path = self._document(tmp_path, t)
        commands = [("verify", [path]), ("decompose", [path]), ("equiv", [path, path]),
                    ("commutant", [path])]
        for command, inputs in commands:
            proc = run_cli(command, *inputs)
            assert proc.returncode == 2, command
            assert proc.stderr == f"error: relation {relation} has a non-finite residual\n", command
        proc = run_cli("hw", path, "--op", "V1")
        assert proc.returncode == (1 if kind == "ppi" else 0)
        assert proc.stderr == ""


class TestHw:
    def test_shift_plus_fixed_point(self, tmp_path):
        from scipy.linalg import block_diag

        v = block_diag(truncated_shift(2), np.eye(1)).astype(complex)
        path = tmp_path / "jplus.json"
        path.write_text(dumps_canonical(tuple_document(single_op_tuple(v))))
        code, report = run_json("hw", str(path))
        assert code == 0
        assert report["unitary_dim"] == 1
        assert report["blocks"] == [{"p": 2, "mult": 1}]

    def test_unitary_document(self, tmp_path):
        v = np.diag(np.exp(1j * np.arange(3)))
        path = tmp_path / "u.json"
        path.write_text(dumps_canonical(tuple_document(single_op_tuple(v))))
        code, report = run_json("hw", str(path))
        assert code == 0
        assert report["unitary_dim"] == 3
        assert report["blocks"] == []

    def test_non_ppi_exits_1_with_first_failing_power(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            dumps_canonical(tuple_document(single_op_tuple(non_power_partial_isometry_3d())))
        )
        code, report = run_json("hw", str(path))
        assert code == 1
        assert report["first_failing_power"] == 2

    def test_op_selection(self, pair_file):
        code, report = run_json("hw", str(pair_file), "--op", "V2")
        assert code == 0
        assert report["operator"] == "V2"

    def test_missing_op_name_is_schema_error(self, pair_file):
        proc = run_cli("hw", str(pair_file), "--op", "nope")
        assert proc.returncode == 2

    def test_emit_intertwiner(self, pair_file):
        code, report = run_json("hw", str(pair_file), "--op", "V1", "--emit-intertwiner")
        assert code == 0
        assert len(report["intertwiner"]) == 8


class TestDecompose:
    def test_scrambled_preset(self, scrambled_file):
        code, report = run_json("decompose", str(scrambled_file))
        assert code == 0
        assert report["pass"] is True
        assert report["residual"] <= 1e-9
        assert [leaf["multiindex"] for leaf in report["leaves"]] == [[2, 2]]
        assert report["leaves"][0]["mult_dim"] == 2

    def test_single_operator_matches_hw(self, tmp_path):
        from scipy.linalg import block_diag

        v = block_diag(truncated_shift(2), np.eye(1)).astype(complex)
        path = tmp_path / "single.json"
        path.write_text(dumps_canonical(tuple_document(single_op_tuple(v))))
        _, hw_report = run_json("hw", str(path))
        _, dec_report = run_json("decompose", str(path))
        leaves = {tuple(l["multiindex"]): l["mult_dim"] for l in dec_report["leaves"]}
        expected = {(b["p"],): b["mult"] for b in hw_report["blocks"]}
        expected[("u",)] = hw_report["unitary_dim"]
        assert leaves == expected

    def test_partition_reported(self, scrambled_file):
        _, report = run_json("decompose", str(scrambled_file))
        assert report["partition"]["global"] == {"1": 2, "2": 2}
        assert report["partition"]["classes"] == {"p=2": [1, 2]}

    @pytest.mark.parametrize("command", ["decompose", "commutant"])
    def test_invalid_tuple_exits_1(self, command, pair_file, tmp_path):
        doc = json.loads(pair_file.read_text())
        doc["operators"][0]["matrix"][0][0] = [0.7, 0.0]
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        code, report = run_json(command, str(bad))
        assert (code, report["pass"], report["stage"]) == (1, False, "verify")
        assert report["worst"]["value"] > 1e-9
        assert "leaves" not in report and "dimension" not in report

    @pytest.mark.parametrize("command", ["decompose", "commutant"])
    def test_refused_decomposition_exits_1(self, command, pair_file, monkeypatch, capsys):
        def refuse(t, tol):
            raise DecompositionError("/p=2: refused")

        monkeypatch.setattr(cli, "decompose_tuple", refuse)
        assert cli.main([command, str(pair_file)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["pass"], report["stage"], report["error"]) == (False, "decompose", "/p=2: refused")
        assert "leaves" not in report and "dimension" not in report


class TestDirectSumReport:
    def test_two_leaves_with_per_leaf_partitions(self, tmp_path):
        from partialiso import conjugate_tuple, direct_sum_tuples, haar_unitary

        t1 = build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1,
                                         twist_data={(1, 2): [[1j]]}))
        t2 = build_model_tuple(ModelSpec(slot_kinds=["u", 3], aux_dim=1,
                                         slot_unitaries={1: [[np.exp(0.8j)]]}))
        both = conjugate_tuple(direct_sum_tuples(t1, t2),
                               haar_unitary(t1.dim + t2.dim, 2))
        path = tmp_path / "sum.json"
        path.write_text(dumps_canonical(tuple_document(both)))
        code, report = run_json("decompose", str(path))
        assert code == 0
        assert len(report["leaves"]) == 2
        assert report["partition"]["global"] is None
        assignments = report["partition"]["per_leaf"]
        assert {"1": 2, "2": 2} in assignments
        assert {"1": "u", "2": 3} in assignments


class TestPipelineClosure:
    @pytest.mark.parametrize("seed", range(100))
    def test_generate_verify_decompose_closes(self, seed, tmp_path):
        # in-process CLI calls: spec file -> generate -> verify -> decompose
        from partialiso.cli import main

        spec = random_model_spec(seed, max_p=3, max_aux=2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(dumps_canonical(model_spec_document(spec)))
        doc_path = tmp_path / "tuple.json"
        assert main(["generate", "--spec", str(spec_path), "--scramble",
                     "--seed", str(seed), "--output", str(doc_path)]) == 0
        verify_out = tmp_path / "verify.json"
        assert main(["verify", str(doc_path), "--output", str(verify_out)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["decompose", str(doc_path), "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert report["residual"] <= 1e-9


    def test_unitary_part_verify_rows_match_the_unscreened_walk(self, tmp_path):
        # d = 96 with a unitary slot: every ppi row is a walk over all 97 powers
        from partialiso.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(dumps_canonical(model_spec_document(random_model_spec(49, n_ops=4))))
        doc_path = tmp_path / "tuple.json"
        assert main(["generate", "--spec", str(spec_path), "--scramble",
                     "--seed", "3", "--output", str(doc_path)]) == 0
        verify_out = tmp_path / "verify.json"
        assert main(["verify", str(doc_path), "--output", str(verify_out)]) == 0
        t, _ = parse_tuple_document(json.loads(doc_path.read_text()))
        assert t.dim == 96
        rows = [row for row in json.loads(verify_out.read_text())["residuals"] if row["kind"] == "ppi"]
        assert [row["indices"] for row in rows] == [[1], [2], [3], [4]]
        for row, v in zip(rows, t.ops):
            assert row["value"] == max([0.0, *unscreened_power_residuals(v)])


class TestCommutantAndEquiv:
    def test_identity_document_commutant(self, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text(dumps_canonical(tuple_document(single_op_tuple(np.eye(3)))))
        code, report = run_json("commutant", str(path))
        assert code == 0
        assert report["dimension"] == 9
        assert report["irreducible"] is False

    def test_irreducible_model_document(self, tmp_path):
        spec = ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]})
        path = tmp_path / "irr.json"
        path.write_text(dumps_canonical(tuple_document(build_model_tuple(spec))))
        code, report = run_json("commutant", str(path))
        assert code == 0
        assert report["dimension"] == 1
        assert report["irreducible"] is True

    def test_large_shift_beside_the_identity_answers_from_its_leaf(self, tmp_path, capsys):
        # one leaf (150, "u") of multiplicity 1, where the dense system needs 30.2 GiB
        from partialiso import TwistedTuple

        t = TwistedTuple(dim=150, ops=[truncated_shift(150), np.eye(150)])
        path = tmp_path / "big.json"
        path.write_text(dumps_canonical(tuple_document(t)))
        assert cli.main(["commutant", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["dimension"], report["irreducible"]) == (1, True)

    def test_oversized_leaf_stack_exits_2_with_the_size(self, tmp_path, capsys):
        # two commuting unitaries at d = 77 are one all-"u" leaf of multiplicity
        # 77, whose star-closed stack of four 77 x 77 maps needs 2.1 GiB
        from partialiso import TwistedTuple
        from partialiso.operators import random_commuting_unitaries

        t = TwistedTuple(dim=77, ops=random_commuting_unitaries(77, 2, 3))
        path = tmp_path / "big.json"
        path.write_text(dumps_canonical(tuple_document(t)))
        assert cli.main(["commutant", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4 Sylvester maps at d = 77 need a 2.1 GiB" in captured.err

    def test_d50_example_answers_2(self, tmp_path):
        path = tmp_path / "d50.json"
        proc = run_cli("generate", "--preset", "example43", "--p", "5", "--lambda", "0.6,0.8",
                       "--scramble", "--seed", "3", "--output", str(path))
        assert proc.returncode == 0, proc.stderr
        code, report = run_json("commutant", str(path))
        assert (code, report["dimension"], report["irreducible"]) == (0, 2, False)

    @pytest.mark.parametrize("size", [1e-10, 3e-10])
    def test_verified_noisy_tuples_keep_the_noise_free_dimension(self, size, tmp_path, capsys):
        checked = 0
        for seed in range(30):
            scrambled, _ = random_scrambled_model(seed, max_dim=24)
            t = perturbed_tuple(scrambled, size, seed)
            if not verify_twisted(t).passed:
                continue
            path = tmp_path / f"noisy{seed}.json"
            path.write_text(dumps_canonical(tuple_document(t)))
            assert cli.main(["commutant", str(path)]) == 0, seed
            report = json.loads(capsys.readouterr().out)
            assert report["dimension"] == commutant_dimension(scrambled.ops, include_adjoints=True), seed
            checked += 1
        assert checked >= 10

    def test_oversized_equivalence_match_exits_2_with_the_size(self, tmp_path, capsys):
        from partialiso import TwistedTuple, conjugate_tuple, haar_unitary
        from partialiso.operators import random_commuting_unitaries

        t = TwistedTuple(dim=77, ops=random_commuting_unitaries(77, 2, 3))
        paths = []
        for k, tt in enumerate((t, conjugate_tuple(t, haar_unitary(77, 4)))):
            paths.append(tmp_path / f"big{k}.json")
            paths[-1].write_text(dumps_canonical(tuple_document(tt)))
        assert cli.main(["equiv", *map(str, paths)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2 Sylvester maps at d = 77 need a 3.7 GiB" in captured.err

    def test_tuple_equivalent_to_its_scramble(self, pair_file, scrambled_file):
        code, report = run_json("equiv", str(pair_file), str(scrambled_file))
        assert code == 0
        assert report["verdict"] == "EQUIVALENT"
        assert report["residual"] <= 1e-9

    def test_different_orders_not_equivalent(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(dumps_canonical(tuple_document(single_op_tuple(truncated_shift(2)))))
        b.write_text(dumps_canonical(tuple_document(single_op_tuple(truncated_shift(3)))))
        code, report = run_json("equiv", str(a), str(b))
        assert code == 0
        assert report["verdict"] == "NOT_EQUIVALENT"


class TestToleranceFlag:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command", ["verify", "hw", "decompose", "generate", "commutant", "equiv"]
    )
    def test_non_finite_tol_is_a_schema_error(self, command, value, pair_file, capsys):
        inputs = {
            "hw": [str(pair_file), "--op", "V1"],
            "generate": ["--preset", "example43"],
            "equiv": [str(pair_file), str(pair_file)],
        }.get(command, [str(pair_file)])
        assert cli.main([command, *inputs, "--tol", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol")


class TestDeterminismAndContract:
    def test_reports_byte_identical_across_runs(self, scrambled_file, tmp_path):
        outputs = []
        for k in range(3):
            out = tmp_path / f"run{k}.json"
            proc = run_cli("decompose", str(scrambled_file), "--output", str(out))
            assert proc.returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_generate_byte_identical(self, tmp_path):
        docs = []
        for k in range(3):
            out = tmp_path / f"gen{k}.json"
            proc = run_cli("generate", "--preset", "example43", "--p", "3",
                           "--lambda", "0,1", "--scramble", "--seed", "11",
                           "--output", str(out))
            assert proc.returncode == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1] == docs[2]

    def test_timing_flag_adds_a_number(self, pair_file):
        code, report = run_json("verify", str(pair_file), "--timing")
        assert code == 0
        assert isinstance(report["timing"], float)

    def test_default_report_has_null_timing(self, pair_file):
        _, report = run_json("verify", str(pair_file))
        assert report["timing"] is None

    @pytest.mark.parametrize("command, work", [
        ("verify", "verify_twisted"),
        ("hw", "hw_decompose"),
        ("decompose", "decompose_tuple"),
        ("commutant", "decompose_tuple"),
        ("equiv", "equivalence_check"),
    ])
    def test_timing_covers_the_work(self, command, work, pair_file, scrambled_file,
                                    tmp_path, monkeypatch):
        original = getattr(cli, work)

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, work, slow)
        argv = [command, str(pair_file)]
        if command == "hw":
            argv += ["--op", "V1"]
        if command == "equiv":
            argv.append(str(scrambled_file))
        out = tmp_path / "report.json"
        assert cli.main([*argv, "--timing", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["timing"] >= 0.05

    def test_import_leaves_scipy_optimize_unloaded(self):
        probe = "import sys, partialiso; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_exit_code_contract(self, pair_file, tmp_path):
        assert run_cli("verify", str(pair_file)).returncode == 0
        doc = json.loads(pair_file.read_text())
        doc["operators"][0]["matrix"][0][0] = [0.7, 0.0]
        bad_math = tmp_path / "bad_math.json"
        bad_math.write_text(json.dumps(doc))
        assert run_cli("verify", str(bad_math)).returncode == 1
        bad_schema = tmp_path / "bad_schema.json"
        bad_schema.write_text('{"schema_version":"1"}')
        assert run_cli("verify", str(bad_schema)).returncode == 2
        assert run_cli("verify", str(tmp_path / "missing.json")).returncode == 2

    @pytest.mark.parametrize("command", ["verify", "generate"])
    def test_unwritable_output_exits_2_with_one_error_line(self, command, pair_file, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        inputs = [str(pair_file)] if command == "verify" else ["--preset", "example43"]
        assert cli.main([command, *inputs, "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "decompose", "commutant"])
    def test_many_operators_are_refused_before_any_relation_row(self, command, tmp_path, capsys, monkeypatch):
        # 100 operators of size 1 x 1 would ask for 12.8 M relation rows
        doc = tuple_document(single_op_tuple(np.zeros((1, 1))))
        doc["operators"] = [dict(doc["operators"][0], name=f"V{k}") for k in range(1, 101)]
        path = tmp_path / "many.json"
        path.write_text(dumps_canonical(doc))

        def unreachable(*args):
            raise AssertionError("document parsed")

        monkeypatch.setattr(cli, "parse_tuple_document", unreachable)
        started = time.perf_counter()
        assert cli.main([command, str(path)]) == 2
        assert time.perf_counter() - started < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: 100 operators ask for 12768625 relation rows, above the {cli.MAX_RELATION_ROWS} limit\n"
        )

    def test_eight_operators_stay_within_the_row_budget(self, tmp_path, capsys):
        t = TwistedTuple(dim=1, ops=[np.zeros((1, 1))] * 8)
        path = tmp_path / "eight.json"
        path.write_text(dumps_canonical(tuple_document(t)))
        assert cli.main(["verify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["residuals"]) == cli._relation_rows(8) == 750

    def test_spec_with_many_slots_is_refused_before_it_is_built(self, tmp_path, capsys):
        spec = ModelSpec(slot_kinds=[1] * 30, aux_dim=1)
        path = tmp_path / "spec.json"
        path.write_text(dumps_canonical(model_spec_document(spec)))
        assert cli.main(["generate", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 30 operators ask for ") and captured.err.count("\n") == 1

    def test_spec_with_a_large_aux_dim_is_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        # 50 bytes whose one missing twist would be a 24 GiB identity on C^40000
        path = tmp_path / "spec.json"
        path.write_text('{"schema_version":"1","slots":[1,1],"aux_dim":40000}')

        def unreachable(*args):
            raise AssertionError("spec built")

        monkeypatch.setattr(cli, "_parse_model_spec", unreachable)
        assert cli.main(["generate", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 2 operators at d = 40000 need 71.5 GiB with their twists, above the 2 GiB limit\n"
        )

    @pytest.mark.parametrize("source", ["spec", "preset"])
    def test_a_size_beyond_the_float_range_is_refused_in_one_line(self, source, tmp_path, capsys):
        # the operators are 10^200 or 2 x 10^400 wide, so the size is an integer far past
        # the largest float, and a whole number of GiB
        if source == "spec":
            dim = 10**200
            path = tmp_path / "spec.json"
            path.write_text('{"schema_version":"1","slots":[%d,1],"aux_dim":1}' % dim)
            argv = ["--spec", str(path)]
        else:
            dim = 2 * 10**400
            argv = ["--preset", "example43", "--p", str(10**200)]
        assert cli.main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # two operators and their twist
        gib = 3 * dim * dim * 16 // 1024**3
        assert captured.err == (
            f"error: 2 operators at d = {dim} need {gib}.0 GiB with their twists, above the 2 GiB limit\n"
        )

    @pytest.mark.parametrize("source", ["spec", "preset"])
    def test_a_size_past_the_digit_limit_of_str_is_refused_in_one_line(self, source, tmp_path, capsys):
        # d has 2201 digits and the size in GiB 4393, past the 4300 digits str() writes of an int,
        # so both are written to four significant digits
        if source == "spec":
            dim = 10**2200
            path = tmp_path / "spec.json"
            path.write_text('{"schema_version":"1","slots":[%d,1],"aux_dim":1}' % dim)
            argv = ["--spec", str(path)]
        else:
            p = 3 * 10**1099 + 1
            dim = 2 * p * p
            argv = ["--preset", "example43", "--p", str(p)]
        assert cli.main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        gib = Decimal(3 * dim * dim * 16) / 1024**3
        assert captured.err == (
            f"error: 2 operators at d = {Decimal(dim):.3e} need {gib:.3e} GiB with their twists, "
            "above the 2 GiB limit\n"
        )

    @pytest.mark.parametrize("command", ["commutant", "equiv"])
    def test_commutant_command_loads_no_scipy(self, command, tmp_path):
        # the dense count and the spectral gate are numpy only, so neither starts slower than `verify`
        if command == "commutant":
            paths = [tmp_path / "d18.json"]
            assert cli.main(["generate", "--preset", "example43", "--p", "3", "--lambda", "0.6,0.8",
                             "--scramble", "--seed", "3", "--output", str(paths[0])]) == 0
        else:
            # slots [u, u, u, 3]: the equal leaves reach the spectral gate of their unitary part
            spec = tmp_path / "spec.json"
            spec.write_text(dumps_canonical(model_spec_document(random_model_spec(0))))
            paths = [tmp_path / "a.json", tmp_path / "b.json"]
            for path, scramble in zip(paths, ([], ["--scramble", "--seed", "3"])):
                assert cli.main(["generate", "--spec", str(spec), *scramble, "--output", str(path)]) == 0
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "partialiso", command, *map(str, paths)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        if command == "commutant":
            assert json.loads(proc.stdout)["dimension"] == 2
        else:
            assert json.loads(proc.stdout)["verdict"] == "EQUIVALENT"
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "partialiso.twisted" in imported
        assert not [name for name in imported if name.split(".")[0] == "scipy"]
        # nor numpy.random, which takes about 27 ms to import
        assert "numpy.random" not in imported

    @pytest.mark.parametrize("kind", ["not-utf8", "too-deep", "beyond-float", "oversized-dim"])
    def test_malformed_input_exits_2_with_one_error_line(self, kind, pair_file, tmp_path):
        path = tmp_path / "malformed.json"
        if kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        elif kind == "too-deep":
            path.write_text("[" * 100_000 + "]" * 100_000)
        elif kind == "oversized-dim":
            # 160 KB declaring a 24 GiB matrix: its rows are checked before it is allocated
            rows = [[]] * 40_000
            path.write_text(json.dumps({"schema_version": "1", "dim": 40_000,
                                        "operators": [{"name": "V1", "matrix": rows}]}))
        else:
            doc = json.loads(pair_file.read_text())
            doc["operators"][0]["matrix"][0][1] = [int("9" * 400), 0]
            path.write_text(json.dumps(doc))
        proc = run_cli("verify", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        if kind == "beyond-float":
            assert "matrix[0][1]: entry is beyond the float range" in proc.stderr
        if kind == "oversized-dim":
            assert proc.stderr == "error: document.operators[0].matrix[0]: expected 40000 entries\n"

    @pytest.mark.parametrize("source", ["tuple", "spec"])
    def test_an_integer_past_the_digit_limit_exits_2_naming_the_file(self, source, tmp_path, capsys):
        # json.load refuses an integer literal of more than 4300 digits with a plain ValueError
        path = tmp_path / "huge.json"
        if source == "tuple":
            path.write_text('{"schema_version":"1","dim":%s,"operators":[]}' % ("9" * 5000))
            argv = ["verify", str(path)]
        else:
            path.write_text('{"schema_version":"1","slots":[%s],"aux_dim":1}' % ("9" * 5000))
            argv = ["generate", "--spec", str(path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not valid JSON: ") and captured.err.count("\n") == 1

    def test_an_overflowing_slot_unitary_exits_2_without_a_warning(self, tmp_path, capsys):
        # U*U overflows: the unitarity gate refuses it without a numpy warning, so one line is written
        path = tmp_path / "spec.json"
        path.write_text('{"schema_version":"1","slots":["u",2],"aux_dim":1,'
                        '"slot_unitaries":[{"slot":1,"matrix":[[[1e308,0]]]}]}')
        assert cli.main(["generate", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spec violates the model relations: slot unitary 1 is not unitary at tolerance\n"


# Replacement values of the input corpus; HUGE stands for an integer of 5000 digits, which
# json.dumps cannot write
HUGE = "<5000 digits>"
POOL = [None, True, False, 0, -1, 1e308, -1e308, 1e-320, HUGE, "u", "", [], {}]


def _fields(node):
    """(container, key) of every value below ``node``, at any depth."""
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _fields(node[key])


def _mutants(doc, count: int, seed: int) -> list[str]:
    """``count`` seeded texts of ``doc``, each with 1-3 fields replaced from POOL (a field drawn
    uniformly from all values at any depth); about a tenth are also truncated."""
    rng = np.random.default_rng(seed)
    base = json.dumps(doc)
    texts = []
    for _ in range(count):
        mutant = json.loads(base)
        for _ in range(rng.integers(1, 4)):
            fields = list(_fields(mutant))
            parent, key = fields[rng.integers(len(fields))]
            # the pool's lists and dicts are empty, so no later field lies inside one
            parent[key] = POOL[rng.integers(len(POOL))]
        text = json.dumps(mutant).replace(json.dumps(HUGE), "9" * 5000)
        if rng.random() < 0.1:
            text = text[: rng.integers(len(text))]
        texts.append(text)
    return texts


class TestInputCorpus:
    """Mutated documents and specs keep the exit-code contract: 0, 1 or 2, and an exit 2 writes
    one `error:` line and no report. Nothing raises, a numpy warning included."""

    def test_mutated_inputs_keep_the_exit_code_contract(self, scrambled_file, tmp_path, capsys):
        original = str(scrambled_file)
        runs = []
        for k, text in enumerate(_mutants(json.loads(scrambled_file.read_text()), 160, seed=11)):
            path = tmp_path / f"doc{k}.json"
            path.write_text(text)
            runs += [["verify", str(path)], ["hw", str(path), "--op", "V1"], ["decompose", str(path)],
                     ["commutant", str(path)], ["equiv", str(path), original]]
        spec = model_spec_document(random_model_spec(3, n_ops=3))
        for k, text in enumerate(_mutants(spec, 300, seed=12)):
            path = tmp_path / f"spec{k}.json"
            path.write_text(text)
            runs.append(["generate", "--spec", str(path)])
        faults, codes = [], []
        for argv in runs:
            try:
                code = cli.main(argv)
            except Exception as exc:
                faults.append((argv, f"raised {type(exc).__name__}: {exc}"[:300]))
                capsys.readouterr()
                continue
            out, err = capsys.readouterr()
            codes.append(code)
            if code == 2:
                if out or not err.startswith("error: ") or err.count("\n") != 1:
                    faults.append((argv, f"exit 2 with stdout {out[:80]!r} and stderr {err[:300]!r}"))
            elif code not in (0, 1) or err:
                faults.append((argv, f"exit {code} with stderr {err[:300]!r}"))
        assert len(runs) >= 1000
        assert faults == [], f"{len(faults)} of {len(runs)} runs broke the contract; first: {faults[:3]}"
        # the corpus reaches every exit code
        assert {0, 1, 2} <= set(codes)


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "(2, 2) 2" in capsys.readouterr().out.splitlines()
