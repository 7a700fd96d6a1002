"""Unit tests for simulation events, matchings and derived runs (Definitions 3 and 4)."""

import pytest

from repro.core.events import (
    DerivedStep,
    Matching,
    REACTOR_ROLE,
    STARTER_ROLE,
    SimulationEvent,
    build_derived_run,
    replay_derived_run,
    replay_derived_run_anonymous,
    verify_matched_pair,
)
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.state import Configuration


@pytest.fixture
def protocol():
    return PairingProtocol()


def starter_event(agent, pre, post, partner_pre, step=0, key=None,
                  partner_agent=None):
    return SimulationEvent(
        step=step, agent=agent, role=STARTER_ROLE, pre_sim=pre, post_sim=post,
        partner_pre_sim=partner_pre, partner_agent=partner_agent, key=key)


def reactor_event(agent, pre, post, partner_pre, step=0, key=None,
                  partner_agent=None):
    return SimulationEvent(
        step=step, agent=agent, role=REACTOR_ROLE, pre_sim=pre, post_sim=post,
        partner_pre_sim=partner_pre, partner_agent=partner_agent, key=key)


class TestSimulationEvent:
    def test_changed_flag(self):
        assert starter_event(0, "c", "cs", "p").changed
        assert not starter_event(0, "c", "c", "c").changed


class TestVerifyMatchedPair:
    def test_valid_pair(self, protocol):
        s = starter_event(0, "c", "cs", "p")
        r = reactor_event(1, "p", "bot", "c")
        assert verify_matched_pair(protocol, s, r)

    def test_same_agent_rejected(self, protocol):
        s = starter_event(0, "c", "cs", "p")
        r = reactor_event(0, "p", "bot", "c")
        assert not verify_matched_pair(protocol, s, r)

    def test_wrong_post_state_rejected(self, protocol):
        s = starter_event(0, "c", "cs", "p")
        r = reactor_event(1, "p", "p", "c")  # reactor should have become 'bot'
        assert not verify_matched_pair(protocol, s, r)

    def test_silent_pair_is_valid(self, protocol):
        s = starter_event(0, "c", "c", "c")
        r = reactor_event(1, "c", "c", "c")
        assert verify_matched_pair(protocol, s, r)


class TestGreedyMatching:
    def test_pairs_matching_keys(self, protocol):
        events = [
            reactor_event(1, "c", "cs", "p", step=2, key=("p", "c")),
            starter_event(0, "p", "bot", "c", step=5, key=("p", "c")),
        ]
        matching = Matching.greedy(protocol, events)
        assert matching.pairs == [(1, 0)]
        assert matching.unmatched == []

    def test_events_without_keys_stay_unmatched(self, protocol):
        events = [reactor_event(1, "c", "cs", "p", key=None)]
        matching = Matching.greedy(protocol, events)
        assert matching.pairs == []
        assert matching.unmatched == [0]

    def test_incompatible_events_not_paired(self, protocol):
        events = [
            reactor_event(1, "c", "cs", "p", key="k"),
            starter_event(0, "c", "c", "c", key="k"),  # delta mismatch with the above
        ]
        matching = Matching.greedy(protocol, events)
        assert matching.pairs == []
        assert set(matching.unmatched) == {0, 1}

    def test_fifo_pairing_of_equal_keys(self, protocol):
        events = [
            reactor_event(1, "c", "cs", "p", step=1, key=("p", "c")),
            reactor_event(2, "c", "cs", "p", step=2, key=("p", "c")),
            starter_event(3, "p", "bot", "c", step=3, key=("p", "c")),
            starter_event(4, "p", "bot", "c", step=4, key=("p", "c")),
        ]
        matching = Matching.greedy(protocol, events)
        assert matching.pairs == [(2, 0), (3, 1)]
        assert matching.unmatched == []

    def test_changed_unmatched_events(self, protocol):
        events = [
            reactor_event(1, "c", "cs", "p", key="a"),
            reactor_event(2, "c", "c", "c", key="b"),
        ]
        matching = Matching.greedy(protocol, events)
        assert matching.changed_unmatched_events() == [0]

    def test_from_explicit_pairs(self, protocol):
        events = [
            starter_event(0, "c", "cs", "p"),
            reactor_event(1, "p", "bot", "c"),
            reactor_event(2, "c", "c", "c"),
        ]
        matching = Matching.from_explicit_pairs(events, [(0, 1)])
        assert matching.pairs == [(0, 1)]
        assert matching.unmatched == [2]
        assert matching.invalid_pairs(protocol) == []

    def test_by_partner_pairs_each_completion_with_the_latest_lock(self, protocol):
        events = [
            starter_event(0, "c", "cs", "p", partner_agent=1),
            starter_event(0, "c", "cs", "p", partner_agent=2),
            reactor_event(2, "p", "bot", "c", partner_agent=0),
            reactor_event(1, "p", "bot", "c", partner_agent=0),
            reactor_event(1, "p", "bot", "c", partner_agent=3),
        ]
        matching = Matching.by_partner(events)
        # The second lock by agent 0 supersedes the first, which stays
        # unmatched; a completion whose partner holds no pending lock (the
        # lock was consumed, or never taken) stays unmatched too.
        assert matching.pairs == [(1, 2)]
        assert matching.unmatched == [0, 3, 4]
        assert matching.invalid_pairs(protocol) == []

    def test_invalid_pairs_detected(self, protocol):
        events = [
            starter_event(0, "c", "cs", "p"),
            reactor_event(1, "p", "p", "c"),
        ]
        matching = Matching.from_explicit_pairs(events, [(0, 1)])
        assert matching.invalid_pairs(protocol) == [(0, 1)]


class TestDerivedRun:
    def _pairing_events(self):
        return [
            reactor_event(1, "c", "cs", "p", step=3, key=("p", "c")),
            starter_event(0, "p", "bot", "c", step=7, key=("p", "c")),
        ]

    def test_build_orders_by_earlier_event(self, protocol):
        events = self._pairing_events()
        derived = build_derived_run(events, [(1, 0)])
        assert len(derived) == 1
        step = derived[0]
        assert step.starter_agent == 0 and step.reactor_agent == 1
        assert step.order_key == (0, 1)

    def test_replay_consistent(self, protocol):
        events = self._pairing_events()
        derived = build_derived_run(events, [(1, 0)])
        report = replay_derived_run(protocol, Configuration(["p", "c"]), derived)
        assert report.consistent
        assert report.final_configuration == Configuration(["bot", "cs"])

    def test_replay_detects_wrong_pre_state(self, protocol):
        derived = [
            DerivedStep(
                starter_agent=0, reactor_agent=1,
                starter_pre="c", reactor_pre="p",
                starter_post="cs", reactor_post="bot",
                starter_event_index=0, reactor_event_index=1,
            )
        ]
        report = replay_derived_run(protocol, Configuration(["p", "c"]), derived)
        assert not report.consistent
        assert "expected pre-states" in report.errors[0]

    def test_replay_detects_delta_mismatch(self, protocol):
        derived = [
            DerivedStep(
                starter_agent=0, reactor_agent=1,
                starter_pre="p", reactor_pre="c",
                starter_post="p", reactor_post="c",  # should be (bot, cs)
                starter_event_index=0, reactor_event_index=1,
            )
        ]
        report = replay_derived_run(protocol, Configuration(["p", "c"]), derived)
        assert not report.consistent
        assert "delta_P" in report.errors[0]

    def test_anonymous_replay_accepts_any_agent_assignment(self, protocol):
        """The multiset replay does not care which producer was consumed."""
        derived = [
            DerivedStep(
                starter_agent=5, reactor_agent=9,       # indices are irrelevant here
                starter_pre="p", reactor_pre="c",
                starter_post="bot", reactor_post="cs",
                starter_event_index=0, reactor_event_index=1,
            )
        ]
        report = replay_derived_run_anonymous(
            protocol, Configuration(["p", "p", "c"]), derived
        )
        assert report.consistent
        assert report.final_configuration.multiset() == {"p": 1, "bot": 1, "cs": 1}

    def test_anonymous_replay_detects_missing_pre_state(self, protocol):
        derived = [
            DerivedStep(
                starter_agent=0, reactor_agent=1,
                starter_pre="p", reactor_pre="c",
                starter_post="bot", reactor_post="cs",
                starter_event_index=0, reactor_event_index=1,
            )
        ] * 2  # two pairings but only one producer available
        report = replay_derived_run_anonymous(protocol, Configuration(["p", "c", "c"]), derived)
        assert not report.consistent
        assert any("no agent in simulated state" in error for error in report.errors)

    def test_anonymous_replay_detects_delta_mismatch(self, protocol):
        derived = [
            DerivedStep(
                starter_agent=0, reactor_agent=1,
                starter_pre="p", reactor_pre="c",
                starter_post="p", reactor_post="c",
                starter_event_index=0, reactor_event_index=1,
            )
        ]
        report = replay_derived_run_anonymous(protocol, Configuration(["p", "c"]), derived)
        assert not report.consistent
