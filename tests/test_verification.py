"""Unit tests for the end-to-end simulation verifier."""

from dataclasses import replace

import pytest

from repro.core.naming import KnownSizeSimulator
from repro.core.sid import SIDSimulator
from repro.core.skno import SKnOSimulator
from repro.core.trivial import TrivialTwoWaySimulator
from repro.core.verification import verify_simulation
from repro.engine.engine import SimulationEngine
from repro.interaction.models import IO, TW, get_model
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.state import Configuration
from repro.scheduling.runs import Run
from repro.scheduling.scheduler import RandomScheduler


@pytest.fixture
def protocol():
    return PairingProtocol()


class TestReportFields:
    def test_empty_trace_is_ok_but_no_progress(self, protocol):
        simulator = SIDSimulator(protocol)
        config = simulator.initial_configuration(Configuration(["c", "p"]))
        engine = SimulationEngine(simulator, IO, RandomScheduler(2, seed=0))
        trace = engine.run(config, max_steps=0)
        report = verify_simulation(simulator, trace)
        assert report.ok
        assert report.matched_pairs == 0
        assert report.event_count == 0

    def test_summary_mentions_status(self, protocol):
        simulator = SIDSimulator(protocol)
        config = simulator.initial_configuration(Configuration(["c", "p"]))
        engine = SimulationEngine(simulator, IO, RandomScheduler(2, seed=0))
        report = verify_simulation(simulator, engine.run(config, max_steps=50))
        assert "OK" in report.summary() or "VIOLATION" in report.summary()
        assert report.protocol_name == "pairing"

    def test_counts_omissions(self, protocol):
        from repro.interaction.omissions import REACTOR_OMISSION
        from repro.scheduling.runs import Interaction

        simulator = SKnOSimulator(protocol, omission_bound=1)
        config = simulator.initial_configuration(Configuration(["c", "p"]))
        engine = SimulationEngine(simulator, get_model("I3"), scheduler=None)
        run = Run([Interaction(0, 1, omission=REACTOR_OMISSION), Interaction(1, 0)])
        trace = engine.replay(config, run)
        report = verify_simulation(simulator, trace)
        assert report.omissions == 1


class TestPositiveVerification:
    def test_sid_long_random_run_verifies(self, protocol):
        simulator = SIDSimulator(protocol)
        config = simulator.initial_configuration(Configuration(["c", "c", "p", "p", "p"]))
        engine = SimulationEngine(simulator, IO, RandomScheduler(5, seed=21))
        trace = engine.run(config, max_steps=4_000)
        report = verify_simulation(simulator, trace)
        assert report.ok
        assert report.matched_pairs > 0

    def test_skno_long_random_run_verifies(self, protocol):
        simulator = SKnOSimulator(protocol, omission_bound=1)
        config = simulator.initial_configuration(Configuration(["c", "c", "p", "p", "p"]))
        engine = SimulationEngine(simulator, get_model("I3"), RandomScheduler(5, seed=22))
        trace = engine.run(config, max_steps=6_000)
        report = verify_simulation(simulator, trace)
        assert report.ok
        assert report.matched_pairs > 0

    def test_trivial_simulator_verifies(self, protocol):
        simulator = TrivialTwoWaySimulator(protocol)
        config = simulator.initial_configuration(Configuration(["c", "p", "c"]))
        engine = SimulationEngine(simulator, TW, RandomScheduler(3, seed=2))
        report = verify_simulation(simulator, engine.run(config, max_steps=200))
        assert report.ok


class TestNegativeVerification:
    def test_broken_simulator_is_caught(self, protocol):
        """A simulator that mangles the starter-side transition must be flagged."""

        class BrokenSID(SIDSimulator):
            def _observe(self, starter, reactor):
                new_state, events = super()._observe(starter, reactor)
                broken_events = []
                for event in events:
                    if event.role == "starter" and event.changed:
                        # Claim a transition that delta_P does not produce.
                        event = type(event)(
                            step=event.step, agent=event.agent, role=event.role,
                            pre_sim=event.pre_sim, post_sim="cs",
                            partner_pre_sim=event.partner_pre_sim,
                            partner_agent=event.partner_agent, key=event.key)
                    broken_events.append(event)
                return new_state, broken_events

        simulator = BrokenSID(protocol)
        config = simulator.initial_configuration(Configuration(["c", "p"]))
        engine = SimulationEngine(simulator, IO, RandomScheduler(2, seed=5))
        trace = engine.run(config, max_steps=200)
        report = verify_simulation(simulator, trace)
        assert not report.ok
        assert report.invalid_pairs > 0 or report.errors

    def test_broken_known_size_simulator_is_caught(self, protocol):
        """``Nn`` runs the same partner-lock matching: a mangled starter side is flagged."""

        class BrokenNn(KnownSizeSimulator):
            def _observe(self, starter, reactor):
                new_state, events = super()._observe(starter, reactor)
                # Claim the starter side left its state unchanged.
                return new_state, [
                    replace(event, post_sim=event.pre_sim)
                    if event.role == "starter" and event.changed else event
                    for event in events
                ]

        simulator = BrokenNn(protocol, population_size=3)
        config = simulator.initial_configuration(Configuration(["c", "p", "p"]))
        engine = SimulationEngine(simulator, IO, RandomScheduler(3, seed=5))
        report = verify_simulation(simulator, engine.run(config, max_steps=400))
        assert not report.ok
        assert report.invalid_pairs > 0

    def test_naive_projection_cannot_pass_as_simulation(self, protocol):
        """Running only the reactor half of delta violates the derived-run check.

        This is the motivating negative example: without a simulator, a
        two-way protocol run on a one-way model double-fires transitions.
        """
        # The core fact the verifier relies on: the naive projection lets two
        # consumers turn critical off one producer, which no perfect matching
        # can explain (reactor-side events alone cannot be paired together).
        from repro.core.events import REACTOR_ROLE, Matching, SimulationEvent

        events = [
            SimulationEvent(step=0, agent=1, role=REACTOR_ROLE, pre_sim="c",
                            post_sim="cs", partner_pre_sim="p", key=("p", "c")),
            SimulationEvent(step=1, agent=2, role=REACTOR_ROLE, pre_sim="c",
                            post_sim="cs", partner_pre_sim="p", key=("p", "c")),
        ]
        matching = Matching.greedy(protocol, events)
        # Reactor-side events alone can never be matched with each other.
        assert matching.pairs == []
        assert len(matching.changed_unmatched_events()) == 2


class TestInFlightDeferral:
    """Matched pairs depending on in-flight events are deferred, not violations.

    Regression for a false positive found by hypothesis: a matched *silent*
    pair ``(bot, p) -> (bot, p)`` whose ``bot`` agent was produced by a
    still-in-flight ``(c, p) -> (cs, bot)`` interaction (the starter half
    never committed within the prefix) made the anonymous derived-run replay
    report "no agent in simulated state 'bot' is available".
    """

    def test_silent_pair_enabled_by_in_flight_event_is_deferred(self, protocol):
        from repro.scheduling.runs import Interaction

        simulator = SKnOSimulator(protocol, omission_bound=0)
        config = simulator.initial_configuration(Configuration(["c", "p", "p"]))
        run = Run([Interaction(s, r) for s, r in
                   [(0, 1), (1, 2), (1, 2), (2, 1), (2, 0), (0, 1)]])
        engine = SimulationEngine(simulator, get_model("I3"), scheduler=None)
        trace = engine.replay(config, run)
        report = verify_simulation(simulator, trace)
        assert report.ok, report.errors
        assert report.derived_consistent
        assert report.deferred_pairs == 1
        assert report.unmatched_changed_events == 1

    def test_exact_replay_unchanged_without_in_flight_events(self, protocol):
        # A clean complete run must still verify exactly, with no deferrals.
        simulator = SKnOSimulator(protocol, omission_bound=0)
        config = simulator.initial_configuration(Configuration(["c"] * 2 + ["p"] * 2))
        engine = SimulationEngine(simulator, get_model("I3"), RandomScheduler(4, seed=1))
        trace = engine.run(config, max_steps=2_000)
        report = verify_simulation(simulator, trace)
        assert report.ok
        if report.unmatched_changed_events == 0:
            assert report.deferred_pairs == 0

    def test_truly_unavailable_state_still_flagged(self, protocol):
        # The softening must not mask hard violations: a derived pair whose
        # pre-state exists in neither the multiset nor the in-flight pool is
        # still an error.
        from repro.core.events import DerivedStep, replay_derived_run_anonymous

        derived = [DerivedStep(
            starter_agent=0, reactor_agent=1,
            starter_pre="bot", reactor_pre="p",
            starter_post="bot", reactor_post="p",
            starter_event_index=0, reactor_event_index=1,
        )]
        report = replay_derived_run_anonymous(
            protocol, Configuration(["c", "p"]), derived, in_flight_events=())
        assert not report.consistent
        assert "no agent in simulated state 'bot'" in report.errors[0]
        assert report.deferred_pairs == 0

    def test_agent_cannot_supply_both_stale_pre_and_in_flight_post(self, protocol):
        # Soundness: consuming an in-flight post-state debits the agent's
        # pre-state from the multiset.  With a single 'p' agent whose
        # in-flight update is p -> bot, a pair needing BOTH a 'p' and a
        # 'bot' is unrealisable in any extension and must stay a violation.
        from repro.core.events import DerivedStep, replay_derived_run_anonymous

        derived = [DerivedStep(
            starter_agent=0, reactor_agent=1,
            starter_pre="bot", reactor_pre="p",
            starter_post="bot", reactor_post="p",
            starter_event_index=0, reactor_event_index=1,
        )]
        report = replay_derived_run_anonymous(
            protocol, Configuration(["p"]), derived, in_flight_events=[("p", "bot")])
        assert not report.consistent
        assert report.deferred_pairs == 0
        # With a second 'p' agent present the pair becomes realisable
        # (one agent completes p -> bot, the other supplies 'p') and is
        # deferred instead of flagged.
        report = replay_derived_run_anonymous(
            protocol, Configuration(["p", "p"]), derived, in_flight_events=[("p", "bot")])
        assert report.consistent
        assert report.deferred_pairs == 1
