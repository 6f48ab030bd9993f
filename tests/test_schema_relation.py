"""Tests for :mod:`repro.relational.schema`."""

import pytest

from repro.core.errors import SchemaError
from repro.relational.schema import Relation, Schema


class TestSchema:
    def test_attribute_order_is_preserved(self):
        schema = Schema(["b", "a", "c"])
        assert schema.attributes == ("b", "a", "c")
        assert list(schema) == ["b", "a", "c"]

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_index_of_bare_and_qualified(self):
        schema = Schema(["r.a", "r.b", "s.c"])
        assert schema.index_of("r.a") == 0
        assert schema.index_of("b") == 1
        assert schema.index_of("c") == 2

    def test_ambiguous_bare_name_raises(self):
        schema = Schema(["r.a", "s.a"])
        with pytest.raises(SchemaError):
            schema.index_of("a")
        assert schema.index_of("r.a") == 0

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).index_of("zzz")

    def test_has(self):
        schema = Schema(["r.a", "b"])
        assert schema.has("a")
        assert schema.has("r.a")
        assert not schema.has("nope")

    def test_qualify(self):
        schema = Schema(["a", "b"]).qualify("t")
        assert schema.attributes == ("t.a", "t.b")

    def test_concat(self):
        left = Schema(["r.a"])
        right = Schema(["s.b"])
        assert left.concat(right).attributes == ("r.a", "s.b")

    def test_equality_and_hash(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert Schema(["a"]) != Schema(["b"])
        assert hash(Schema(["a"])) == hash(Schema(["a"]))

    def test_bare_name(self):
        assert Schema.bare_name("table.column") == "column"
        assert Schema.bare_name("column") == "column"


class TestRelation:
    def test_add_and_multiplicity(self):
        relation = Relation(Schema(["a", "b"]))
        relation.add((1, 2))
        relation.add((1, 2), 2)
        assert relation.multiplicity((1, 2)) == 3
        assert len(relation) == 3
        assert relation.distinct_count() == 1

    def test_arity_mismatch_rejected(self):
        relation = Relation(Schema(["a"]))
        with pytest.raises(SchemaError):
            relation.add((1, 2))

    def test_negative_multiplicity_rejected(self):
        relation = Relation(Schema(["a"]))
        with pytest.raises(ValueError):
            relation.add((1,), -1)

    def test_zero_multiplicity_is_noop(self):
        relation = Relation(Schema(["a"]))
        relation.add((1,), 0)
        assert len(relation) == 0

    def test_remove(self):
        relation = Relation(Schema(["a"]), [(1,), (1,), (2,)])
        assert relation.remove((1,), 1) == 1
        assert relation.multiplicity((1,)) == 1
        assert relation.remove((1,), 5) == 1
        assert (1,) not in relation

    def test_rows_iterates_duplicates(self):
        relation = Relation(Schema(["a"]), {(1,): 2, (2,): 1})
        assert sorted(relation.rows()) == [(1,), (1,), (2,)]
        assert sorted(relation.distinct_rows()) == [(1,), (2,)]

    def test_union_adds_multiplicities(self):
        first = Relation(Schema(["a"]), {(1,): 1})
        second = Relation(Schema(["a"]), {(1,): 2, (2,): 1})
        combined = first.union(second)
        assert combined.multiplicity((1,)) == 3
        assert combined.multiplicity((2,)) == 1

    def test_difference_floors_at_zero(self):
        first = Relation(Schema(["a"]), {(1,): 1})
        second = Relation(Schema(["a"]), {(1,): 5})
        assert len(first.difference(second)) == 0

    def test_union_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Relation(Schema(["a"])).union(Relation(Schema(["a", "b"])))

    def test_equality(self):
        a = Relation(Schema(["x"]), {(1,): 2})
        b = Relation(Schema(["x"]), {(1,): 2})
        c = Relation(Schema(["x"]), {(1,): 1})
        assert a == b
        assert a != c

    def test_copy_is_independent(self):
        original = Relation(Schema(["x"]), {(1,): 1})
        clone = original.copy()
        clone.add((2,))
        assert (2,) not in original

    def test_to_sorted_list_handles_mixed_types(self):
        relation = Relation(Schema(["x"]), [(None,), ("z",), (1,)])
        assert relation.to_sorted_list() == [(None,), (1,), ("z",)]

    def test_relations_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Relation(Schema(["x"])))
