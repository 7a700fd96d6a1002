"""Unit tests for the simulation engine."""

import textwrap

import pytest

import repro

from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.convergence import run_until_stable
from repro.engine.engine import EngineError, SimulationEngine
from repro.interaction.models import IO, TW, get_model
from repro.interaction.omissions import REACTOR_OMISSION
from repro.protocols.catalog.epidemic import (
    INFORMED,
    SUSCEPTIBLE,
    EpidemicProtocol,
    OneWayEpidemicProtocol,
)
from repro.protocols.catalog.leader_election import LEADER, LeaderElectionProtocol
from repro.protocols.state import Configuration
from repro.scheduling.runs import Interaction, Run
from repro.scheduling.scheduler import RandomScheduler, RoundRobinScheduler, ScriptedScheduler


@pytest.fixture
def tw_epidemic_engine():
    protocol = EpidemicProtocol()
    program = TrivialTwoWaySimulator(protocol)
    return SimulationEngine(program, TW, RoundRobinScheduler(3))


class TestExecuteInteraction:
    def test_two_way_interaction(self, tw_epidemic_engine):
        config = Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE])
        updated = tw_epidemic_engine.execute_interaction(config, Interaction(0, 1))
        assert updated == Configuration([INFORMED, INFORMED, SUSCEPTIBLE])

    def test_out_of_range_agent(self, tw_epidemic_engine):
        config = Configuration([INFORMED, SUSCEPTIBLE])
        with pytest.raises(EngineError):
            tw_epidemic_engine.execute_interaction(config, Interaction(0, 5))

    def test_one_way_interaction(self):
        engine = SimulationEngine(OneWayEpidemicProtocol(), IO, RoundRobinScheduler(2))
        config = Configuration([INFORMED, SUSCEPTIBLE])
        updated = engine.execute_interaction(config, Interaction(0, 1))
        assert updated == Configuration([INFORMED, INFORMED])


class TestRun:
    def test_run_records_every_interaction(self, tw_epidemic_engine):
        config = Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE])
        trace = tw_epidemic_engine.run(config, max_steps=10)
        assert len(trace) == 10
        assert trace.initial_configuration == config

    def test_epidemic_spreads_under_round_robin(self, tw_epidemic_engine):
        config = Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE])
        trace = tw_epidemic_engine.run(config, max_steps=12)
        assert all(state == INFORMED for state in trace.final_configuration)

    def test_stop_condition(self, tw_epidemic_engine):
        config = Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE])
        trace = tw_epidemic_engine.run(
            config,
            max_steps=100,
            stop_condition=lambda c: all(s == INFORMED for s in c),
        )
        assert len(trace) < 100
        assert all(state == INFORMED for state in trace.final_configuration)

    def test_zero_steps(self, tw_epidemic_engine):
        config = Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE])
        trace = tw_epidemic_engine.run(config, max_steps=0)
        assert len(trace) == 0
        assert trace.final_configuration == config

    def test_negative_steps_rejected(self, tw_epidemic_engine):
        with pytest.raises(EngineError):
            tw_epidemic_engine.run(Configuration([INFORMED, SUSCEPTIBLE]), max_steps=-1)

    def test_single_agent_population_rejected(self, tw_epidemic_engine):
        with pytest.raises(EngineError):
            tw_epidemic_engine.run(Configuration([INFORMED]), max_steps=5)

    def test_scripted_scheduler_ends_run_early(self):
        protocol = EpidemicProtocol()
        program = TrivialTwoWaySimulator(protocol)
        scheduler = ScriptedScheduler(Run.from_pairs([(0, 1), (1, 2)]))
        engine = SimulationEngine(program, TW, scheduler)
        trace = engine.run(Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE]), max_steps=50)
        assert len(trace) == 2

    def test_leader_election_reaches_single_leader(self):
        protocol = LeaderElectionProtocol()
        program = TrivialTwoWaySimulator(protocol)
        engine = SimulationEngine(program, TW, RandomScheduler(6, seed=2))
        trace = engine.run(
            Configuration([LEADER] * 6),
            max_steps=5_000,
            stop_condition=lambda c: c.count(LEADER) == 1,
        )
        assert trace.final_configuration.count(LEADER) == 1

    def test_determinism_given_seeded_scheduler(self):
        protocol = LeaderElectionProtocol()
        program = TrivialTwoWaySimulator(protocol)
        config = Configuration([LEADER] * 5)
        traces = []
        for _ in range(2):
            engine = SimulationEngine(program, TW, RandomScheduler(5, seed=77))
            traces.append(engine.run(config, max_steps=200))
        assert traces[0].final_configuration == traces[1].final_configuration
        assert traces[0].run() == traces[1].run()


class TestAdversaryIntegration:
    class OneShotAdversary:
        """Injects a single fixed omissive interaction before scheduled step 2."""

        def __init__(self):
            self.done = False

        def interactions_before(self, step, scheduled, n):
            if step == 2 and not self.done:
                self.done = True
                return [Interaction(0, 1, omission=REACTOR_OMISSION)]
            return []

    def test_adversary_injections_are_executed_and_counted(self):
        protocol = OneWayEpidemicProtocol()
        engine = SimulationEngine(
            protocol, get_model("I1"), RoundRobinScheduler(3), adversary=self.OneShotAdversary()
        )
        config = Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE])
        trace = engine.run(config, max_steps=20)
        assert trace.omission_count() == 1
        assert len(trace) == 20

    def test_injected_interactions_count_toward_max_steps(self):
        protocol = OneWayEpidemicProtocol()
        engine = SimulationEngine(
            protocol, get_model("I1"), RoundRobinScheduler(3), adversary=self.OneShotAdversary()
        )
        config = Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE])
        trace = engine.run(config, max_steps=3)
        assert len(trace) == 3


class TestReplay:
    def test_replay_executes_run_verbatim(self):
        protocol = OneWayEpidemicProtocol()
        engine = SimulationEngine(protocol, get_model("I1"), RoundRobinScheduler(2))
        run = Run(
            [
                Interaction(0, 1, omission=REACTOR_OMISSION),
                Interaction(0, 1),
            ]
        )
        trace = engine.replay(Configuration([INFORMED, SUSCEPTIBLE]), run)
        assert len(trace) == 2
        # The omissive observation does not inform agent 1; the second one does.
        assert list(trace.configurations())[1] == Configuration([INFORMED, SUSCEPTIBLE])
        assert trace.final_configuration == Configuration([INFORMED, INFORMED])


class FailingScheduler(RoundRobinScheduler):
    """Raises a real (non-exhaustion) error after ``fail_at`` draws."""

    def __init__(self, n, fail_at):
        super().__init__(n)
        self.fail_at = fail_at

    def next_interaction(self, step):
        if step >= self.fail_at:
            raise ValueError("scheduler backend exploded")
        return super().next_interaction(step)


class TestSchedulerErrorPropagation:
    """Real scheduler errors must not be swallowed or re-wrapped as exhaustion."""

    def test_run_propagates_scheduler_errors(self):
        engine = SimulationEngine(
            TrivialTwoWaySimulator(EpidemicProtocol()), TW, FailingScheduler(3, fail_at=2)
        )
        with pytest.raises(ValueError, match="scheduler backend exploded"):
            engine.run(Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE]), max_steps=10)


class TestBudgetSemantics:
    """max_steps accounting when the budget lands mid-injection-batch."""

    class FloodingAdversary:
        """Injects three omissive interactions before every scheduled one."""

        def interactions_before(self, step, scheduled, n):
            return [Interaction(0, 1, omission=REACTOR_OMISSION) for _ in range(3)]

    def test_trace_when_budget_lands_mid_injection_batch(self):
        # Budget 2, adversary wants 3 injections before the first scheduled
        # interaction: one injection survives (the scheduled interaction has
        # one budget unit reserved), then the scheduled interaction executes.
        engine = SimulationEngine(
            OneWayEpidemicProtocol(),
            get_model("I1"),
            RoundRobinScheduler(3),
            adversary=self.FloodingAdversary(),
        )
        trace = engine.run(Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE]), max_steps=2)
        assert len(trace) == 2
        interactions = [step.interaction for step in trace]
        assert interactions[0] == Interaction(0, 1, omission=REACTOR_OMISSION)
        assert interactions[1] == Interaction(0, 1)  # the scheduled round-robin pair
        assert trace.omission_count() == 1

    def test_drawn_scheduled_interaction_always_executes(self):
        # Whatever the adversary floods, the last executed interaction of a
        # budget-bounded run is never an injection that starved a drawn
        # scheduled interaction.
        engine = SimulationEngine(
            OneWayEpidemicProtocol(),
            get_model("I1"),
            RoundRobinScheduler(3),
            adversary=self.FloodingAdversary(),
        )
        for budget in (1, 2, 3, 4, 5):
            engine_fresh = SimulationEngine(
                OneWayEpidemicProtocol(),
                get_model("I1"),
                RoundRobinScheduler(3),
                adversary=self.FloodingAdversary(),
            )
            trace = engine_fresh.run(
                Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE]), max_steps=budget
            )
            assert len(trace) == budget
            assert not trace[-1].interaction.is_omissive


class TestTracePolicies:
    def test_counts_only_matches_full(self):
        def build_engine():
            return SimulationEngine(
                TrivialTwoWaySimulator(LeaderElectionProtocol()),
                TW,
                RandomScheduler(6, seed=9),
            )

        full = run_until_stable(build_engine(), Configuration([LEADER] * 6), None, max_steps=500)
        counts = run_until_stable(
            build_engine(), Configuration([LEADER] * 6), None, max_steps=500,
            trace_policy="counts-only"
        )
        assert counts.trace is None
        assert counts.steps_executed == full.steps_executed == len(full.trace)
        assert counts.omissions == full.omissions
        assert counts.final_configuration == full.final_configuration

    def test_ring_keeps_last_k_steps_with_global_indices(self):
        engine = SimulationEngine(
            TrivialTwoWaySimulator(LeaderElectionProtocol()),
            TW,
            RandomScheduler(5, seed=4),
        )
        result = run_until_stable(
            engine, Configuration([LEADER] * 5), None, max_steps=100, trace_policy="ring",
            ring_size=8
        )
        assert result.trace is None
        assert len(result.last_steps) == 8
        assert [step.index for step in result.last_steps] == list(range(92, 100))
        assert result.steps_executed == 100

    def test_unknown_policy_rejected(self):
        engine = SimulationEngine(
            TrivialTwoWaySimulator(LeaderElectionProtocol()),
            TW,
            RandomScheduler(5, seed=4),
        )
        with pytest.raises(ValueError):
            run_until_stable(engine, Configuration([LEADER] * 5), None, max_steps=10,
                             trace_policy="bogus")


class TestPackageQuickstart:
    def test_quickstart_runs_and_verifies(self, capsys):
        """The Quickstart in the package docstring runs ``engine.run`` and
        prints an ``[OK]`` verification summary."""
        code = textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1])
        exec(code, {})
        output = capsys.readouterr().out
        assert output.startswith("[OK] SKnO(o=1,I3) on exact-majority: steps=20000")
