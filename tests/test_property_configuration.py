"""Property-based tests for Configuration (hypothesis)."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.state import Configuration

states = st.sampled_from(["a", "b", "c", "d"])
state_lists = st.lists(states, min_size=1, max_size=12)


class TestConfigurationProperties:
    @given(state_lists)
    def test_multiset_matches_counter(self, values):
        assert Configuration(values).multiset() == Counter(values)

    @given(state_lists)
    def test_count_sums_to_length(self, values):
        config = Configuration(values)
        assert sum(config.count(s) for s in set(values)) == len(config)

    @given(state_lists, st.integers(min_value=0, max_value=11), states)
    def test_replace_changes_exactly_one_position(self, values, index, new_state):
        config = Configuration(values)
        index = index % len(values)
        updated = config.replace(index, new_state)
        assert updated[index] == new_state
        assert all(updated[i] == config[i] for i in range(len(values)) if i != index)

    @given(state_lists)
    def test_equal_configurations_hash_equal(self, values):
        assert hash(Configuration(values)) == hash(Configuration(list(values)))

    @given(state_lists)
    def test_project_identity_is_noop(self, values):
        config = Configuration(values)
        assert config.project(lambda s: s) == config

    @given(state_lists)
    def test_from_counts_round_trip(self, values):
        config = Configuration(values)
        rebuilt = Configuration.from_counts(dict(config.multiset()))
        assert rebuilt.same_multiset(config)
