"""Self-test of the benchmark's ground-truth checker, tracer and definition.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spec  # noqa: E402

VALID_SINGLE = {"accept": True, "unitary_dim": 2, "blocks": [(1, 2), (3, 1)]}
VALID_TUPLE = {"verify": True, "leaves": [((2, "u"), 1), ((1, 1), 2)]}


def test_correct_outcomes_pass():
    assert checks.check_single(VALID_SINGLE, {"accept": True, "unitary_dim": 2, "blocks": [(3, 1), (1, 2)]}) == []
    assert checks.check_single({"accept": False}, {"accept": False}) == []
    assert checks.check_tuple(VALID_TUPLE, {"verify": True, "leaves": [((1, 1), 2), ((2, "u"), 1)]}) == []
    assert checks.check_tuple({"verify": False}, {"verify": False}) == []
    assert checks.check_cli({"exit": 1, "pass": False}, 1, {"pass": False, "timing": None}) == []


def test_wrong_block_multiset_fails():
    assert checks.check_single(VALID_SINGLE, {"accept": True, "unitary_dim": 2, "blocks": [(1, 2), (3, 2)]})
    assert checks.check_single(VALID_SINGLE, {"accept": True, "unitary_dim": 1, "blocks": [(1, 2), (3, 1)]})
    rung = {"verify": True, "leaves": [((2, 2), 2)], "hw": (0, [(2, 4)]), "projection_check": False,
            "commutant": None}
    good = {"verify": True, "leaves": [((2, 2), 2)], "hw": (0, [(2, 4)])}
    assert checks.check_rung(rung, good, 1e-9) == []
    assert checks.check_rung(rung, dict(good, hw=(0, [(2, 2), (1, 4)])), 1e-9)


def test_wrong_leaf_multiset_fails():
    assert checks.check_tuple(VALID_TUPLE, {"verify": True, "leaves": [((2, "u"), 2), ((1, 1), 1)]})
    assert checks.check_tuple(VALID_TUPLE, {"verify": True, "leaves": [((1, 1), 2)]})
    report = {"pass": True, "leaves": [{"multiindex": [2, 2], "mult_dim": 1}]}
    assert checks.check_cli({"exit": 0, "pass": True, "leaves": [((2, 2), 2)]}, 0, report)


def test_accepted_perturbed_input_fails():
    assert checks.check_single({"accept": False}, {"accept": True, "unitary_dim": 0, "blocks": []})
    assert checks.check_tuple({"verify": False}, {"verify": True, "leaves": []})


def test_wrong_cli_exit_code_fails():
    assert checks.check_cli({"exit": 1, "pass": False}, 0, {"pass": False})
    assert checks.check_cli({"exit": 0, "dimension": 2}, 2, None)


def test_other_wrong_answers_fail():
    assert checks.check_single(VALID_SINGLE, {"accept": False, "reason": "power 2"})
    assert checks.check_tuple(dict(VALID_TUPLE, verdicts=["EQUIVALENT", "NOT_EQUIVALENT"]),
                              dict(VALID_TUPLE, verdicts=["INCONCLUSIVE", "NOT_EQUIVALENT"]))
    rung = {"verify": True, "leaves": [((2, 2), 2)], "hw": (0, [(2, 4)]), "projection_check": True,
            "commutant": 2}
    good = {"verify": True, "leaves": [((2, 2), 2)], "hw": (0, [(2, 4)]), "projection_max": 1e-15,
            "commutant": 2}
    assert checks.check_rung(rung, good, 1e-9) == []
    assert checks.check_rung(rung, dict(good, commutant=4), 1e-9)
    assert checks.check_rung(rung, dict(good, projection_max=1e-3), 1e-9)
    assert checks.check_cli({"exit": 0, "verdict": "EQUIVALENT"}, 0, {"verdict": "INCONCLUSIVE"})


def test_generated_single_items_check_clean_and_catch_a_planted_error():
    import inputs
    import workloads

    stream = workloads.SingleStream(seed=5, out_dir=ROOT / ".perfbench_out")
    stream.items = inputs.single_stream(5)[:10]
    assert [stream.run_item(item) for item in stream.items] == [[]] * 10
    valid = next(item for item in stream.items if item.expected["accept"])
    valid.expected["blocks"] = valid.expected["blocks"] + [(9, 1)]
    assert stream.run_item(valid)
    invalid = next(item for item in stream.items if not item.expected["accept"])
    invalid.expected = VALID_SINGLE
    assert stream.run_item(invalid)


def test_tracer_records_spans_and_restores_the_program():
    import numpy as np

    import partialiso
    import partialiso.halmos_wallen as hw_module
    import spans

    original, original_svd = partialiso.hw_decompose, np.linalg.svd
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.item = 7
        partialiso.hw_decompose(partialiso.truncated_shift(3))
    finally:
        tracer.uninstall()
    assert partialiso.hw_decompose is original and hw_module.op_norm is partialiso.op_norm
    assert np.linalg.svd is original_svd
    stats = spans.summarize(tracer.spans, 0, len(tracer.spans))
    assert stats["halmos_wallen.hw_decompose"]["calls"] == 1
    assert stats["kernel.svd"]["calls"] >= stats["linalg.op_norm"]["calls"] > 0
    assert stats["kernel.svd"]["value"] > 0
    assert {span[spans.ITEM] for span in tracer.spans} == {7}
    roots = [span for span in tracer.spans if span[spans.PARENT] == -1]
    assert [span[spans.NAME] for span in roots] == ["halmos_wallen.hw_decompose"]


@pytest.mark.parametrize("shape, full, uv, expected", [
    ((4, 2), False, False, (12 * 4 * 4 - 4 * 8) // 3),
    ((4, 2), False, True, 14 * 4 * 4 + 8 * 8),
    ((2, 4), True, True, 4 * 16 * 2 + 8 * 4 * 4 + 9 * 8),
])
def test_svd_flops_follow_the_operand_shape(shape, full, uv, expected):
    import numpy as np

    import spans

    real = np.zeros(shape)
    assert spans.svd_flops((real,), {"full_matrices": full, "compute_uv": uv}, None) == expected
    assert spans.svd_flops((real.astype(complex), full, uv), {}, None) == 4 * expected


def test_benchmark_json_matches_the_definition():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark()
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in committed["end_to_end"])
               for m in committed["end_to_end"])
