import numpy as np
import pytest

from partialiso import build_twisted_shift_pair, op_norm_diff
from partialiso.documents import (
    SchemaError,
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
    model_spec_document,
    parse_model_spec_document,
    parse_tuple_document,
    tuple_document,
)
from partialiso.operators import ModelSpec, random_model_spec


class TestCanonicalJson:
    def test_float_has_17_significant_digits(self):
        assert dumps_canonical(0.1) == "0.10000000000000001"
        assert dumps_canonical(1.0) == "1"
        assert dumps_canonical(1e-9) == "1.0000000000000001e-09"

    def test_insertion_order_is_preserved(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_scalars(self):
        assert dumps_canonical(None) == "null"
        assert dumps_canonical(True) == "true"
        assert dumps_canonical([1, "x"]) == '[1,"x"]'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))

    def test_identical_across_calls(self):
        doc = tuple_document(build_twisted_shift_pair(2, 1j))
        assert dumps_canonical(doc) == dumps_canonical(doc)


class TestMatrixCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = matrix_from_json(matrix_to_json(m), 3, 3, "m")
        assert op_norm_diff(m, back) == 0.0

    @pytest.mark.parametrize("shape", [(0, 0), (1, 1), (3, 3), (50, 50), (3, 0), (2, 5)])
    def test_emits_the_entry_loop_floats(self, shape):
        # the reference is the entry-by-entry loop the array form replaced; signed zeros and
        # subnormals must come out as that loop wrote them
        rng = np.random.default_rng(1)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if m.size:
            m.flat[0], m.flat[-1] = complex(-0.0, 5e-324), complex(2.0**-1070, -0.0)
        loop = [[[float(entry.real), float(entry.imag)] for entry in row] for row in m]
        emitted = matrix_to_json(m)
        assert dumps_canonical(emitted) == dumps_canonical(loop)
        assert all(type(x) is float for row in emitted for entry in row for x in entry)

    def test_rejects_wrong_shape(self):
        with pytest.raises(SchemaError):
            matrix_from_json([[[1, 0]]], 2, 2, "m")

    def test_rejects_non_pairs(self):
        with pytest.raises(SchemaError):
            matrix_from_json([[[1]], [[2]]], 2, 1, "m")


class TestTupleDocument:
    def test_round_trip_preserves_everything(self):
        t = build_twisted_shift_pair(2, np.exp(0.4j))
        doc = tuple_document(t, metadata={"note": "round trip"})
        back, names = parse_tuple_document(doc)
        assert names == ["V1", "V2"]
        assert back.dim == t.dim
        for a, b in zip(t.ops, back.ops):
            assert op_norm_diff(a, b) == 0.0
        assert op_norm_diff(back.twists[(1, 2)], t.twists[(1, 2)]) == 0.0

    def test_missing_twists_default_to_identity(self):
        doc = {
            "schema_version": "1",
            "dim": 2,
            "operators": [{"name": "A", "matrix": matrix_to_json(np.eye(2))}],
        }
        t, _ = parse_tuple_document(doc)
        assert t.n_ops == 1

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("schema_version"), "schema_version"),
            (lambda d: d.update(schema_version="2"), "schema_version"),
            (lambda d: d.update(dim=0), "dim"),
            (lambda d: d.update(operators=[]), "operators"),
            (lambda d: d["operators"][0].pop("name"), "name"),
            (lambda d: d["operators"][0]["matrix"].pop(), "matrix"),
            (lambda d: d.update(twists=None), "twists: expected a list"),
            (lambda d: d.update(twists=3), "twists: expected a list"),
            (lambda d: d.update(twists=True), "twists: expected a list"),
            (lambda d: d.update(twists="twists"), "twists: expected a list"),
            (lambda d: d.update(twists={}), "twists: expected a list"),
        ],
    )
    def test_schema_errors_name_the_field(self, mutate, fragment):
        doc = tuple_document(build_twisted_shift_pair(2, 1j))
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            parse_tuple_document(doc)
        assert fragment in str(err.value)

    def test_duplicate_names_rejected(self):
        doc = tuple_document(build_twisted_shift_pair(2, 1j), names=["A", "A"])
        with pytest.raises(SchemaError):
            parse_tuple_document(doc)

    def test_duplicate_twist_pair_rejected(self):
        doc = tuple_document(build_twisted_shift_pair(2, 1j))
        doc["twists"].append(doc["twists"][0])
        with pytest.raises(SchemaError):
            parse_tuple_document(doc)

    def test_bad_twist_indices_rejected(self):
        doc = tuple_document(build_twisted_shift_pair(2, 1j))
        doc["twists"][0]["i"] = 2
        doc["twists"][0]["j"] = 1
        with pytest.raises(SchemaError):
            parse_tuple_document(doc)

    def test_non_finite_entries_rejected(self):
        doc = tuple_document(build_twisted_shift_pair(2, 1j))
        doc["operators"][0]["matrix"][0][0] = [float("inf"), 0.0]
        with pytest.raises(SchemaError):
            parse_tuple_document(doc)


class TestModelSpecDocument:
    def test_round_trip(self):
        spec = random_model_spec(4, n_ops=3)
        doc = model_spec_document(spec)
        back = parse_model_spec_document(doc)
        assert back.slot_kinds == spec.slot_kinds
        assert back.aux_dim == spec.aux_dim
        for key in spec.twist_data:
            assert op_norm_diff(back.twist_data[key], spec.twist_data[key]) == 0.0

    def test_missing_slot_unitary_rejected(self):
        doc = model_spec_document(
            ModelSpec(slot_kinds=[2, "u"], aux_dim=1, slot_unitaries={2: [[1.0]]})
        )
        doc["slot_unitaries"] = []
        with pytest.raises(SchemaError):
            parse_model_spec_document(doc)

    @pytest.mark.parametrize("field", ["twists", "slot_unitaries"])
    @pytest.mark.parametrize("value", [None, 3, True, "u", {}])
    def test_lists_that_are_not_lists_rejected(self, field, value):
        doc = model_spec_document(
            ModelSpec(slot_kinds=[2, "u"], aux_dim=1, slot_unitaries={2: [[1.0]]})
        )
        doc[field] = value
        with pytest.raises(SchemaError, match=f"spec.{field}: expected a list"):
            parse_model_spec_document(doc)

    def test_bad_slot_entry_rejected(self):
        with pytest.raises(SchemaError):
            parse_model_spec_document(
                {"schema_version": "1", "slots": ["b"], "aux_dim": 1}
            )


class TestBooleanIndices:
    """JSON true/false are not indices, though Python counts bool as int."""

    def _spec_doc(self):
        spec = ModelSpec(
            slot_kinds=["u", 2], aux_dim=1,
            twist_data={(1, 2): [[1j]]}, slot_unitaries={1: [[1.0]]},
        )
        return model_spec_document(spec)

    @pytest.mark.parametrize("field", ["i", "j"])
    def test_tuple_twist_index(self, field):
        doc = tuple_document(build_twisted_shift_pair(2, 1j))
        doc["twists"][0][field] = True
        with pytest.raises(SchemaError, match=f"twists\\[0\\].{field}: expected an integer"):
            parse_tuple_document(doc)

    @pytest.mark.parametrize("field", ["i", "j"])
    def test_spec_twist_index(self, field):
        doc = self._spec_doc()
        assert parse_model_spec_document(doc).twist_data[(1, 2)][0, 0] == 1j
        doc["twists"][0][field] = True
        with pytest.raises(SchemaError, match=f"twists\\[0\\].{field}: expected an integer"):
            parse_model_spec_document(doc)

    def test_spec_slot_number(self):
        doc = self._spec_doc()
        doc["slot_unitaries"][0]["slot"] = True
        with pytest.raises(SchemaError, match="slot: must name a unitary slot"):
            parse_model_spec_document(doc)
