"""The O(distinct states) build paths equal their per-agent references.

``TrivialTwoWaySimulator.initial_configuration`` validates each distinct
state once and wraps the protocol configuration's own state tuple, and
``prepare_stable_output_predicate`` derives the expected stable output
from the initial configuration's cached state multiset.  Both used to be
per-agent scans; the references below are those scans, and every catalog
protocol must agree with them at every population and input split.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.fastpath import AgentCountPredicate
from repro.protocols.catalog import CATALOG, get_protocol
from repro.protocols.protocol import ProtocolError
from repro.protocols.registry import (
    default_initial_configuration,
    prepare_stable_output_predicate,
)
from repro.protocols.state import Configuration

PROTOCOL_NAMES = sorted(CATALOG)


@st.composite
def cells(draw):
    """A catalog protocol, a population n in 2..64 and an input split."""
    name = draw(st.sampled_from(PROTOCOL_NAMES))
    n = draw(st.integers(min_value=2, max_value=64))
    ones = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n)))
    protocol = get_protocol(name)
    return protocol, default_initial_configuration(protocol, n, ones=ones)


def per_agent_expected(protocol, initial: Configuration):
    """The expected stable output by a scan over every agent."""
    output = protocol.output
    name = protocol.name
    if name == "exact-majority":
        count_a = sum(1 for state in initial if output(state) == "A")
        return "A" if count_a * 2 > len(initial) else "B"
    if name.startswith("threshold"):
        return protocol.expected_output(sum(weight for weight, _ in initial))
    if name.startswith("mod-") or name == "parity":
        return protocol.expected_output(sum(residue for _, residue in initial))
    if hasattr(protocol, "expected_output"):
        try:
            return protocol.expected_output(
                sum(1 for state in initial if output(state)))
        except TypeError:
            return None
    return None


class TestTrivialInitialConfiguration:
    @settings(max_examples=150, deadline=None)
    @given(cells())
    def test_equals_the_per_agent_construction(self, cell):
        protocol, initial = cell
        simulator = TrivialTwoWaySimulator(protocol)
        reference = Configuration(simulator.initial_state(p) for p in initial)
        built = simulator.initial_configuration(initial)
        assert built == reference
        assert type(built) is Configuration
        assert built.states is initial.states
        assert simulator.initial_configuration(list(initial)) == reference
        assert simulator.initial_configuration(iter(initial)) == reference

    @settings(max_examples=150, deadline=None)
    @given(cells())
    def test_validates_each_distinct_state_once_in_order(self, cell):
        protocol, initial = cell
        simulator = TrivialTwoWaySimulator(protocol)
        seen = []
        validate = protocol.validate_initial_state

        def spy(state):
            seen.append(state)
            validate(state)

        protocol.validate_initial_state = spy
        simulator.initial_configuration(initial)
        assert seen == list(dict.fromkeys(initial.states))

    @settings(max_examples=150, deadline=None)
    @given(cells(), st.data())
    def test_first_invalid_state_raises_the_same_error(self, cell, data):
        protocol, initial = cell
        first, second = ("not-initial", 0), ("not-initial", 1)
        states = list(initial)
        i = data.draw(st.integers(min_value=0, max_value=len(states)))
        states.insert(i, first)
        j = data.draw(st.integers(min_value=i + 1, max_value=len(states)))
        states.insert(j, second)
        simulator = TrivialTwoWaySimulator(protocol)
        with pytest.raises(ProtocolError) as reference:
            Configuration(simulator.initial_state(p) for p in states)
        with pytest.raises(ProtocolError) as built:
            simulator.initial_configuration(Configuration(states))
        assert str(built.value) == str(reference.value)
        assert repr(first) in str(built.value)


class TestPreparedPredicate:
    @settings(max_examples=200, deadline=None)
    @given(cells())
    def test_carries_the_per_agent_expected_value_or_target(self, cell):
        protocol, initial = cell
        simulator = TrivialTwoWaySimulator(protocol)
        predicate = prepare_stable_output_predicate(simulator, protocol, initial)()
        name = protocol.name
        expected = per_agent_expected(protocol, initial)
        if not isinstance(predicate, AgentCountPredicate):
            # The averaging spread and unanimity fallbacks carry no
            # expected value.
            assert expected is None
            return
        satisfies, target = predicate.as_state_count()
        states = protocol.state_order()
        if name == "pairing":
            consumers = sum(1 for state in initial if state == "c")
            producers = sum(1 for state in initial if state == "p")
            assert target == min(consumers, producers)
        elif name == "leader-election":
            assert target == 1
        else:
            assert expected is not None and target is None
            assert [satisfies(state) for state in states] == [
                protocol.output(state) == expected for state in states]
