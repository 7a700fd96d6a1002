"""Unit tests for repro.protocols.state.Configuration."""

import pytest

from repro.protocols.state import Configuration, MutableConfiguration


class TestConstruction:
    def test_from_iterable(self):
        config = Configuration(["a", "b", "a"])
        assert len(config) == 3
        assert config.states == ("a", "b", "a")

    def test_uniform(self):
        config = Configuration.uniform("x", 5)
        assert len(config) == 5
        assert all(state == "x" for state in config)

    def test_uniform_zero_agents(self):
        assert len(Configuration.uniform("x", 0)) == 0

    def test_uniform_negative_raises(self):
        with pytest.raises(ValueError):
            Configuration.uniform("x", -1)

    def test_from_counts(self):
        config = Configuration.from_counts({"a": 2, "b": 3})
        assert config.count("a") == 2
        assert config.count("b") == 3
        assert len(config) == 5

    def test_from_counts_negative_raises(self):
        with pytest.raises(ValueError):
            Configuration.from_counts({"a": -1})

    def test_from_counts_is_deterministic(self):
        first = Configuration.from_counts({"a": 2, "b": 1})
        second = Configuration.from_counts({"a": 2, "b": 1})
        assert first == second


class TestContainerProtocol:
    def test_indexing(self):
        config = Configuration(["a", "b", "c"])
        assert config[0] == "a"
        assert config[2] == "c"

    def test_iteration(self):
        config = Configuration([1, 2, 3])
        assert list(config) == [1, 2, 3]

    def test_equality_with_configuration(self):
        assert Configuration(["a", "b"]) == Configuration(["a", "b"])
        assert Configuration(["a", "b"]) != Configuration(["b", "a"])

    def test_equality_with_tuple(self):
        assert Configuration(["a", "b"]) == ("a", "b")

    def test_hashable(self):
        seen = {Configuration(["a", "b"]), Configuration(["a", "b"])}
        assert len(seen) == 1

    def test_hash_differs_for_different_configs(self):
        assert hash(Configuration(["a", "b"])) != hash(Configuration(["b", "a"]))

    def test_repr_contains_states(self):
        assert "a" in repr(Configuration(["a"]))


class TestViews:
    def test_multiset(self):
        config = Configuration(["a", "b", "a"])
        assert config.multiset() == {"a": 2, "b": 1}

    def test_count(self):
        config = Configuration(["a", "b", "a"])
        assert config.count("a") == 2
        assert config.count("z") == 0

    def test_count_if(self):
        config = Configuration([1, 2, 3, 4])
        assert config.count_if(lambda value: value % 2 == 0) == 2

    def test_histogram(self):
        config = Configuration(["a", "a", "b"])
        assert config.histogram() == {"a": 2, "b": 1}

    def test_same_multiset(self):
        assert Configuration(["a", "b"]).same_multiset(Configuration(["b", "a"]))
        assert not Configuration(["a", "a"]).same_multiset(Configuration(["a", "b"]))

    def test_mutating_returned_multiset_does_not_corrupt_cache(self):
        config = Configuration(["a", "b", "a"])
        first = config.multiset()
        first["a"] = 99
        del first["b"]
        assert config.multiset() == {"a": 2, "b": 1}
        assert config.count("a") == 2
        assert config.count("b") == 1
        assert config.histogram() == {"a": 2, "b": 1}

    def test_mutating_returned_histogram_does_not_corrupt_cache(self):
        config = Configuration(["a", "a", "b"])
        config.histogram()["a"] = 0
        assert config.histogram() == {"a": 2, "b": 1}
        assert config.count("a") == 2


class TestFunctionalUpdates:
    def test_replace(self):
        config = Configuration(["a", "b"])
        updated = config.replace(1, "c")
        assert updated == Configuration(["a", "c"])
        assert config == Configuration(["a", "b"]), "original must be unchanged"

    def test_replace_out_of_range(self):
        with pytest.raises(IndexError):
            Configuration(["a"]).replace(3, "b")

    def test_replace_many(self):
        config = Configuration(["a", "b", "c"])
        updated = config.replace_many({0: "x", 2: "z"})
        assert updated == Configuration(["x", "b", "z"])

    def test_replace_many_out_of_range(self):
        with pytest.raises(IndexError):
            Configuration(["a"]).replace_many({5: "x"})

    def test_apply_interaction(self):
        config = Configuration(["a", "b", "c"])
        updated = config.apply_interaction(0, 2, "a2", "c2")
        assert updated == Configuration(["a2", "b", "c2"])

    def test_apply_interaction_same_agent_raises(self):
        with pytest.raises(ValueError):
            Configuration(["a", "b"]).apply_interaction(1, 1, "x", "y")

    def test_project(self):
        config = Configuration([1, 2, 3])
        assert config.project(lambda value: value * 10) == Configuration([10, 20, 30])


class TestMutableConfiguration:
    def test_round_trip_through_freeze(self):
        config = Configuration(["a", "b", "c"])
        buffer = MutableConfiguration(config.states)
        assert len(buffer) == 3
        assert list(buffer) == ["a", "b", "c"]
        assert buffer.freeze() == config

    def test_apply_interaction_is_in_place(self):
        buffer = MutableConfiguration(["a", "b", "c"])
        buffer.apply_interaction(0, 2, "x", "y")
        assert buffer[0] == "x"
        assert buffer[2] == "y"
        assert buffer.freeze() == Configuration(["x", "b", "y"])

    def test_apply_interaction_same_agent_raises(self):
        with pytest.raises(ValueError):
            MutableConfiguration(["a", "b"]).apply_interaction(0, 0, "x", "y")

    def test_freeze_is_a_snapshot(self):
        buffer = MutableConfiguration(["a", "b"])
        frozen = buffer.freeze()
        buffer[0] = "z"
        assert frozen == Configuration(["a", "b"])
        assert buffer.freeze() == Configuration(["z", "b"])

    def test_read_api_mirrors_configuration(self):
        buffer = MutableConfiguration(["a", "b", "a"])
        assert buffer.count("a") == 2
        assert buffer.count_if(lambda s: s == "b") == 1
        assert buffer.multiset() == {"a": 2, "b": 1}
        assert buffer.histogram() == {"a": 2, "b": 1}
        assert buffer.project(str.upper) == Configuration(["A", "B", "A"])
        assert buffer.same_multiset(Configuration(["b", "a", "a"]))

    def test_equality_with_configuration_and_tuple(self):
        buffer = MutableConfiguration(["a", "b"])
        assert buffer == Configuration(["a", "b"])
        assert buffer == ("a", "b")
        assert buffer == MutableConfiguration(["a", "b"])
        assert buffer != MutableConfiguration(["b", "a"])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(MutableConfiguration(["a", "b"]))
