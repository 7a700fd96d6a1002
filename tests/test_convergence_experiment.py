"""Unit tests for convergence detection and the batch experiment runner."""

import pytest

from repro.core.trivial import TrivialTwoWaySimulator
from repro.core.verification import verify_simulation
from repro.engine.convergence import run_until_stable, stable_output_condition
from repro.engine.engine import SimulationEngine
from repro.engine.experiment import repeat_experiment
from repro.engine.fastpath import AgentCountPredicate
from repro.interaction.models import TW
from repro.protocols.catalog.leader_election import LEADER, LeaderElectionProtocol
from repro.protocols.catalog.epidemic import INFORMED, SUSCEPTIBLE, EpidemicProtocol
from repro.protocols.registry import ExperimentSpec, build_cached
from repro.protocols.state import Configuration
from repro.scheduling.scheduler import RandomScheduler, ScriptedScheduler
from repro.scheduling.runs import Run


class TestStableOutputCondition:
    def test_without_projection(self):
        protocol = EpidemicProtocol()
        predicate = stable_output_condition(protocol, True)
        assert predicate(Configuration([INFORMED, INFORMED]))
        assert not predicate(Configuration([INFORMED, SUSCEPTIBLE]))

    def test_with_projection(self):
        protocol = EpidemicProtocol()
        predicate = stable_output_condition(protocol, True, projection=lambda s: s[0])
        assert predicate(Configuration([(INFORMED, "extra"), (INFORMED, "extra")]))


class TestRunUntilStable:
    def _leader_engine(self, n, seed=0):
        protocol = LeaderElectionProtocol()
        program = TrivialTwoWaySimulator(protocol)
        return protocol, SimulationEngine(program, TW, RandomScheduler(n, seed=seed))

    def test_converges_on_leader_election(self):
        protocol, engine = self._leader_engine(6, seed=1)
        result = run_until_stable(
            engine,
            Configuration([LEADER] * 6),
            predicate=lambda c: c.count(LEADER) == 1,
            max_steps=10_000,
        )
        assert result.converged
        assert result.steps_to_convergence is not None
        assert result.steps_to_convergence <= result.steps_executed
        assert result.final_configuration.count(LEADER) == 1

    def test_already_converged_initially(self):
        protocol, engine = self._leader_engine(3)
        result = run_until_stable(
            engine,
            Configuration([LEADER, "F", "F"]),
            predicate=lambda c: c.count(LEADER) == 1,
            max_steps=100,
        )
        assert result.converged
        assert result.steps_to_convergence == 0
        assert result.steps_executed == 0

    def test_stability_window_requires_persistence(self):
        protocol, engine = self._leader_engine(6, seed=3)
        result = run_until_stable(
            engine,
            Configuration([LEADER] * 6),
            predicate=lambda c: c.count(LEADER) == 1,
            max_steps=10_000,
            stability_window=50,
        )
        assert result.converged
        # The trace extends past the first satisfying configuration.
        assert result.steps_executed >= result.steps_to_convergence + 50

    def test_non_convergence_reported(self):
        protocol, engine = self._leader_engine(4, seed=5)
        result = run_until_stable(
            engine,
            Configuration([LEADER] * 4),
            predicate=lambda c: False,
            max_steps=200,
        )
        assert not result.converged
        assert result.steps_to_convergence is None
        assert result.steps_executed == 200

    def test_scheduler_exhaustion_ends_run(self):
        protocol = LeaderElectionProtocol()
        program = TrivialTwoWaySimulator(protocol)
        engine = SimulationEngine(program, TW, ScriptedScheduler(Run.from_pairs([(0, 1)])))
        result = run_until_stable(
            engine,
            Configuration([LEADER, LEADER, LEADER]),
            predicate=lambda c: False,
            max_steps=1_000,
        )
        assert result.steps_executed == 1
        assert not result.converged


def majority_spec(population: int) -> ExperimentSpec:
    """Exact majority on TW: ``population // 2 + 1`` A agents, the rest B;
    a run succeeds once every agent outputs A."""
    return ExperimentSpec(protocol="exact-majority", population=population)


class TestRepeatExperiment:
    def test_all_runs_converge_for_easy_workload(self):
        result = repeat_experiment(
            majority_spec(7),
            runs=5,
            max_steps=20_000,
            base_seed=10,
        )
        assert result.runs == 5
        assert result.all_succeeded
        assert result.success_rate == 1.0
        assert result.mean_convergence_steps is not None
        assert result.median_convergence_steps is not None
        assert result.max_convergence_steps >= result.median_convergence_steps
        assert "success=5/5" in result.summary()

    def test_failures_are_recorded(self):
        # One interaction cannot make 4 A + 2 B agents all output A.
        result = repeat_experiment(
            majority_spec(6),
            runs=2,
            max_steps=1,
        )
        assert result.successes == 0
        assert len(result.failures) == 2
        assert result.mean_convergence_steps is None
        assert not result.all_succeeded

    def test_validate_hook_can_fail_runs(self):
        result = repeat_experiment(
            majority_spec(6),
            runs=2,
            max_steps=20_000,
            validate=lambda outcome: "rejected by validator",
        )
        assert result.successes == 0
        assert all("rejected" in failure for failure in result.failures)

    def test_empty_experiment(self):
        result = repeat_experiment(majority_spec(4), runs=0)
        assert result.runs == 0
        assert result.success_rate == 0.0


class TestSchedulerErrorPropagation:
    class ExplodingScheduler(ScriptedScheduler):
        def __init__(self, run, fail_at):
            super().__init__(run)
            self.fail_at = fail_at

        def next_interaction(self, step):
            if step >= self.fail_at:
                raise ValueError("real scheduler bug")
            return super().next_interaction(step)

    def test_run_until_stable_propagates_real_scheduler_errors(self):
        # Regression: the seed loop caught bare Exception around the
        # scheduler draw; a ValueError must escape untouched, not be
        # swallowed as exhaustion or re-wrapped.
        protocol = LeaderElectionProtocol()
        engine = SimulationEngine(
            TrivialTwoWaySimulator(protocol),
            TW,
            self.ExplodingScheduler(Run.from_pairs([(0, 1), (1, 2)]), fail_at=1),
        )
        with pytest.raises(ValueError, match="real scheduler bug"):
            run_until_stable(
                engine,
                Configuration([LEADER] * 3),
                predicate=lambda c: False,
                max_steps=100,
            )


class TestRunUntilStableTracePolicies:
    def _engine(self, seed=11):
        protocol = LeaderElectionProtocol()
        return SimulationEngine(
            TrivialTwoWaySimulator(protocol), TW, RandomScheduler(6, seed=seed)
        )

    def test_counts_only_matches_full(self):
        full = run_until_stable(
            self._engine(),
            Configuration([LEADER] * 6),
            predicate=lambda c: c.count(LEADER) == 1,
            max_steps=10_000,
            stability_window=20,
        )
        counts = run_until_stable(
            self._engine(),
            Configuration([LEADER] * 6),
            predicate=lambda c: c.count(LEADER) == 1,
            max_steps=10_000,
            stability_window=20,
            trace_policy="counts-only",
        )
        assert counts.trace is None
        assert counts.converged == full.converged
        assert counts.steps_executed == full.steps_executed
        assert counts.steps_to_convergence == full.steps_to_convergence
        assert counts.final_configuration == full.final_configuration
        assert counts.omissions == full.omissions

    def test_incremental_predicate_matches_plain_predicate(self):
        plain = run_until_stable(
            self._engine(),
            Configuration([LEADER] * 6),
            predicate=lambda c: c.count(LEADER) == 1,
            max_steps=10_000,
            stability_window=10,
        )
        incremental = run_until_stable(
            self._engine(),
            Configuration([LEADER] * 6),
            predicate=AgentCountPredicate(lambda s: s == LEADER, target=1),
            max_steps=10_000,
            stability_window=10,
        )
        assert incremental.converged == plain.converged
        assert incremental.steps_executed == plain.steps_executed
        assert incremental.steps_to_convergence == plain.steps_to_convergence
        assert incremental.final_configuration == plain.final_configuration


class TestParallelRepeatExperiment:
    def _workload(self, jobs, runs=6):
        return repeat_experiment(
            majority_spec(7),
            runs=runs,
            max_steps=20_000,
            base_seed=42,
            jobs=jobs,
        )

    def test_parallel_merge_is_deterministic(self):
        sequential = self._workload(jobs=1)
        parallel = self._workload(jobs=4)
        assert parallel.runs == sequential.runs
        assert parallel.successes == sequential.successes
        assert parallel.convergence_steps == sequential.convergence_steps
        assert parallel.failures == sequential.failures

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            self._workload(jobs=0)

    @pytest.mark.parametrize("verdict", ["pass", "reject"])
    def test_full_trace_validation_over_processes_matches_sequential(
            self, verdict):
        """At ``jobs > 1`` each run's full trace is pickled back from a
        worker process and validated in the parent: the result equals the
        sequential one field for field, whether the validator accepts every
        run or rejects every run with a message computed from its trace."""
        spec = ExperimentSpec(protocol="pairing", population=6, model="I3",
                              simulator="skno", omission_bound=1, omissions=1)
        program = build_cached(spec).program

        def validate(outcome):
            report = verify_simulation(program, outcome.trace)
            if not report.ok:
                return f"simulation verification: {report.errors[:1]}"
            if verdict == "reject":
                return f"rejected after {len(outcome.trace)} traced steps"
            return None

        sequential, parallel = (
            repeat_experiment(spec, runs=4, max_steps=150_000,
                              stability_window=200, base_seed=1,
                              validate=validate, jobs=jobs, run_chunk=2)
            for jobs in (1, 2))
        assert parallel == sequential
        if verdict == "pass":
            assert sequential.all_succeeded
        else:
            assert sequential.successes == 0
            assert all("traced steps" in failure
                       for failure in sequential.failures)
