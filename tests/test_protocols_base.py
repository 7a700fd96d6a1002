"""Unit tests for the protocol abstractions (two-way and one-way)."""

import pytest

from repro.protocols.protocol import (
    OneWayProtocol,
    PopulationProtocol,
    ProtocolError,
    RuleBasedOneWayProtocol,
    RuleBasedProtocol,
)


@pytest.fixture
def toggle_protocol():
    """A tiny protocol: the starter flips the reactor's bit."""
    return RuleBasedProtocol(
        rules={(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 1), (1, 1): (1, 0)},
        initial_states=[0, 1],
        name="toggle",
    )


class TestRuleBasedProtocol:
    def test_rules_applied(self, toggle_protocol):
        assert toggle_protocol.delta(0, 0) == (0, 1)
        assert toggle_protocol.delta(1, 1) == (1, 0)

    def test_missing_rule_is_silent(self):
        protocol = RuleBasedProtocol(rules={("a", "b"): ("x", "y")})
        assert protocol.delta("b", "a") == ("b", "a")

    def test_states_inferred_from_rules(self):
        protocol = RuleBasedProtocol(rules={("a", "b"): ("x", "y")})
        assert protocol.states == frozenset({"a", "b", "x", "y"})

    def test_explicit_states_are_merged(self):
        protocol = RuleBasedProtocol(rules={("a", "b"): ("a", "a")}, states=["c"])
        assert "c" in protocol.states
        assert "a" in protocol.states

    def test_rules_property_returns_copy(self, toggle_protocol):
        rules = toggle_protocol.rules
        rules[(9, 9)] = (9, 9)
        assert (9, 9) not in toggle_protocol.rules

    def test_output_map(self):
        protocol = RuleBasedProtocol(rules={}, states=["a"], output_map={"a": True})
        assert protocol.output("a") is True
        assert protocol.output("missing") is None

    def test_initial_states_must_be_subset(self):
        with pytest.raises(ProtocolError):
            RuleBasedProtocol(rules={("a", "a"): ("a", "a")}, initial_states=["zzz"])


class TestPopulationProtocolHelpers:
    def test_fs_fr_components(self, toggle_protocol):
        assert toggle_protocol.fs(0, 1) == 0
        assert toggle_protocol.fr(0, 1) == 0

    def test_state_count(self, toggle_protocol):
        assert toggle_protocol.state_count() == 2

    def test_state_count_unbounded_raises(self):
        class Unbounded(PopulationProtocol):
            def delta(self, starter, reactor):
                return starter, reactor

        with pytest.raises(ProtocolError):
            Unbounded().state_count()

    def test_is_finite_state(self, toggle_protocol):
        assert toggle_protocol.is_finite_state

    def test_validate_initial_state(self, toggle_protocol):
        toggle_protocol.validate_initial_state(0)
        with pytest.raises(ProtocolError):
            toggle_protocol.validate_initial_state(7)

    def test_validate_initial_state_unrestricted(self):
        class AnyInitial(PopulationProtocol):
            def delta(self, starter, reactor):
                return starter, reactor

        AnyInitial().validate_initial_state("anything")

    def test_is_symmetric_on(self):
        symmetric = RuleBasedProtocol(
            rules={("c", "p"): ("cs", "bot"), ("p", "c"): ("bot", "cs")}
        )
        assert symmetric.is_symmetric_on("c", "p")
        asymmetric = RuleBasedProtocol(rules={("L", "L"): ("F", "L")})
        assert not asymmetric.is_symmetric_on("L", "L")

    def test_enumerate_transitions_covers_all_pairs(self, toggle_protocol):
        table = toggle_protocol.enumerate_transitions()
        assert len(table) == 4
        assert table[(0, 1)] == (0, 0)

    def test_is_closed(self, toggle_protocol):
        assert toggle_protocol.is_closed()

    def test_is_closed_detects_escape(self):
        class Escaping(PopulationProtocol):
            def delta(self, starter, reactor):
                return "outside", reactor

        protocol = Escaping(states=["a", "b"])
        assert not protocol.is_closed()

    def test_default_output_is_none(self, toggle_protocol):
        assert toggle_protocol.output(0) is None

    def test_repr_mentions_name(self, toggle_protocol):
        assert "toggle" in repr(toggle_protocol)


class TestOneWayProtocol:
    def test_default_g_is_identity(self):
        class Observe(OneWayProtocol):
            def f(self, starter, reactor):
                return starter

        protocol = Observe()
        assert protocol.g("state") == "state"

    def test_default_omission_handlers_are_identity(self):
        class Observe(OneWayProtocol):
            def f(self, starter, reactor):
                return starter

        protocol = Observe()
        assert protocol.on_starter_omission("x") == "x"
        assert protocol.on_reactor_omission("y") == "y"

    def test_f_is_abstract(self):
        protocol = OneWayProtocol()
        with pytest.raises(NotImplementedError):
            protocol.f("a", "b")

    def test_rule_based_one_way(self):
        protocol = RuleBasedOneWayProtocol(
            f_rules={("I", "S"): "I"},
            g_rules={"I": "I*"},
            name="epidemic-with-marking",
        )
        assert protocol.f("I", "S") == "I"
        assert protocol.f("S", "S") == "S"
        assert protocol.g("I") == "I*"
        assert protocol.g("S") == "S"

    def test_rule_based_one_way_infers_states(self):
        protocol = RuleBasedOneWayProtocol(f_rules={("I", "S"): "I"})
        assert protocol.states == frozenset({"I", "S"})

    def test_repr_mentions_name(self):
        protocol = RuleBasedOneWayProtocol(f_rules={}, states=["a"], name="one-way-x")
        assert "one-way-x" in repr(protocol)
