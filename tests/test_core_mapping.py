"""Tests for TaskMapping (paper eqs. 1-3)."""

import pickle

import pytest

from repro.core import InvalidMappingError, TaskMapping


class TestConstruction:
    def test_from_sequence(self):
        m = TaskMapping(["a", "b", "c"])
        assert m.nprocs == 3
        assert m.node_of(1) == "b"

    def test_from_dict(self):
        m = TaskMapping({1: "b", 0: "a"})
        assert m.as_tuple() == ("a", "b")

    def test_dict_must_be_contiguous(self):
        with pytest.raises(InvalidMappingError):
            TaskMapping({0: "a", 2: "b"})

    def test_from_pairs(self):
        m = TaskMapping.from_pairs([(0, "a"), (1, "b")])
        assert m.as_dict() == {0: "a", 1: "b"}

    def test_from_pairs_duplicate_rank(self):
        with pytest.raises(InvalidMappingError):
            TaskMapping.from_pairs([(0, "a"), (0, "b")])

    def test_empty_rejected(self):
        with pytest.raises(InvalidMappingError):
            TaskMapping([])

    def test_bad_node_ids_rejected(self):
        with pytest.raises(InvalidMappingError):
            TaskMapping(["a", ""])


class TestQueries:
    def test_node_of_bounds(self):
        m = TaskMapping(["a"])
        with pytest.raises(InvalidMappingError):
            m.node_of(1)

    def test_nodes_used_and_counts(self):
        m = TaskMapping(["a", "b", "a"])
        assert m.nodes_used() == frozenset({"a", "b"})
        assert m.procs_per_node() == {"a": 2, "b": 1}
        assert not m.is_one_per_node

    def test_one_per_node(self):
        assert TaskMapping(["a", "b"]).is_one_per_node

    def test_require_nodes(self):
        m = TaskMapping(["a", "b"])
        m.require_nodes(["a", "b", "c"])
        with pytest.raises(InvalidMappingError):
            m.require_nodes(["a"])

    def test_len_and_iter(self):
        m = TaskMapping(["a", "b"])
        assert len(m) == 2
        assert list(m) == ["a", "b"]


class TestDerivation:
    def test_with_assignment_immutability(self):
        m = TaskMapping(["a", "b"])
        m2 = m.with_assignment(0, "c")
        assert m.node_of(0) == "a"
        assert m2.node_of(0) == "c"

    def test_with_swap(self):
        m = TaskMapping(["a", "b", "c"]).with_swap(0, 2)
        assert m.as_tuple() == ("c", "b", "a")

    def test_swap_out_of_range(self):
        with pytest.raises(InvalidMappingError):
            TaskMapping(["a"]).with_swap(0, 5)

    def test_assignment_out_of_range(self):
        with pytest.raises(InvalidMappingError):
            TaskMapping(["a"]).with_assignment(3, "b")

    @pytest.mark.parametrize("node", ["", None, 3])
    def test_assignment_validates_the_incoming_node(self, node):
        with pytest.raises(InvalidMappingError):
            TaskMapping(["a", "b"]).with_assignment(0, node)

    def test_derived_mappings_equal_hash_and_pickle_like_built_ones(self):
        built = TaskMapping(["c", "b", "a"])
        for derived in (
            TaskMapping(["a", "b", "c"]).with_swap(0, 2),
            TaskMapping(["x", "b", "a"]).with_assignment(0, "c"),
        ):
            assert derived == built and hash(derived) == hash(built)
            assert pickle.loads(pickle.dumps(derived)) == built


class TestEqualityHashing:
    def test_equal_mappings_hash_equal(self):
        assert TaskMapping(["a", "b"]) == TaskMapping(["a", "b"])
        assert hash(TaskMapping(["a", "b"])) == hash(TaskMapping(["a", "b"]))

    def test_order_matters(self):
        assert TaskMapping(["a", "b"]) != TaskMapping(["b", "a"])

    def test_usable_in_sets(self):
        s = {TaskMapping(["a", "b"]), TaskMapping(["a", "b"]), TaskMapping(["b", "a"])}
        assert len(s) == 2
