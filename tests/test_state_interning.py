"""State interning.

These are the numpy-free foundations of the array engine: the tests run on
every install (no ``repro[fast]`` extra required) and pin

* the :class:`~repro.protocols.state.StateInterner` round-trip properties
  (encode/decode bijection, deduplication, deterministic order, clear
  errors on unknown states);
* the ``state_order()`` export on every catalog protocol (a canonical
  permutation of the declared state set — the array engine's interning
  contract).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trivial import TrivialTwoWaySimulator
from repro.protocols.catalog import CATALOG
from repro.protocols.catalog.epidemic import OneWayEpidemicProtocol
from repro.protocols.protocol import ProtocolError, RuleBasedProtocol
from repro.protocols.state import Configuration, InterningError, StateInterner

# Hashable, repr-distinguishable states of the kinds the catalog uses.
state_values = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(min_size=1, max_size=3),
    st.tuples(st.integers(min_value=0, max_value=5), st.booleans()),
)


class TestStateInterner:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(state_values, min_size=1, max_size=20, unique=True))
    def test_round_trip_bijection(self, states):
        interner = StateInterner(states)
        assert len(interner) == len(states)
        for index, state in enumerate(states):
            assert interner.encode(state) == index
            assert interner.decode(index) == state
        assert interner.decode_all(interner.encode_all(states)) == states

    @settings(max_examples=50, deadline=None)
    @given(st.lists(state_values, min_size=1, max_size=30))
    def test_duplicates_collapse_to_first_occurrence(self, states):
        interner = StateInterner(states)
        unique_in_order = list(dict.fromkeys(states))
        assert list(interner.states) == unique_in_order
        for state in states:
            assert interner.decode(interner.encode(state)) == state

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(state_values, min_size=1, max_size=20, unique=True),
        st.lists(state_values, min_size=1, max_size=50),
    )
    def test_encode_all_round_trips_configurations(self, universe, draw):
        interner = StateInterner(universe)
        population = [universe[hash(d) % len(universe)] for d in range(len(draw))]
        codes = interner.encode_all(Configuration(population))
        assert interner.decode_all(codes) == population

    def test_unknown_state_raises_with_known_states_in_message(self):
        interner = StateInterner(["S", "I"])
        with pytest.raises(InterningError, match="'R'.*not in the interned"):
            interner.encode("R")
        with pytest.raises(InterningError):
            interner.encode_all(["S", "R"])

    def test_membership_and_empty_rejection(self):
        interner = StateInterner([0, 1])
        assert 0 in interner and 1 in interner and 2 not in interner
        with pytest.raises(ValueError):
            StateInterner([])


class TestCatalogStateOrder:
    """Every catalog protocol exports a canonical, complete interning order."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_state_order_is_a_permutation_of_the_state_set(self, name):
        protocol = CATALOG[name]()
        order = protocol.state_order()
        assert isinstance(order, tuple)
        assert len(order) == len(set(order)), "state_order must not repeat states"
        assert set(order) == set(protocol.states)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_state_order_is_deterministic(self, name):
        assert CATALOG[name]().state_order() == CATALOG[name]().state_order()

    def test_trivial_simulator_delegates_to_protocol(self):
        protocol = CATALOG["pairing"]()
        simulator = TrivialTwoWaySimulator(protocol)
        assert simulator.state_order() == protocol.state_order()

    def test_one_way_epidemic_exports_an_order(self):
        assert OneWayEpidemicProtocol().state_order() == ("S", "I")

    def test_generic_order_sorts_by_repr(self):
        protocol = RuleBasedProtocol({("x", "y"): ("y", "y")}, name="tiny")
        assert protocol.state_order() == tuple(sorted(protocol.states, key=repr))

    def test_unbounded_state_space_raises(self):
        from repro.core.skno import SKnOSimulator

        simulator = SKnOSimulator(CATALOG["pairing"](), omission_bound=1)
        with pytest.raises(ProtocolError, match="unbounded"):
            simulator.state_order()
