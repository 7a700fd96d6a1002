"""Batched scheduler draws and the registry-backed process fan-out.

Two contracts are pinned here:

* **Batched = per-step, bitwise.**  For every scheduler class, drawing
  through :meth:`Scheduler.next_columns` or its wrapper
  :meth:`Scheduler.next_interactions` (in any chunking) yields exactly the
  interactions that per-step :meth:`Scheduler.next_interaction` calls
  would, for the same seed — including omission flags and RNG
  consumption.  This is what lets the engine consume draws in chunks
  without changing any seeded experiment.

* **Process fan-out = sequential.**  A registry-described experiment
  merges to an identical :class:`ExperimentResult` sequentially and over
  the process fan-out, at every worker count and run chunk.
"""

import pickle

import pytest

from repro.adversary.omission import UOAdversary
from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.experiment import repeat_experiment, run_spec
from repro.interaction.models import TW, get_model
from repro.interaction.omissions import NO_OMISSION, REACTOR_OMISSION, STARTER_OMISSION
from repro.protocols.catalog.epidemic import (
    INFORMED,
    SUSCEPTIBLE,
    EpidemicProtocol,
    OneWayEpidemicProtocol,
)
from repro.protocols.catalog.leader_election import LEADER, LeaderElectionProtocol
from repro.protocols.registry import ExperimentSpec, build_cached
from repro.protocols.state import Configuration
from repro.scheduling.graph_scheduler import (
    complete_graph_scheduler,
    random_graph_scheduler,
    ring_scheduler,
    star_scheduler,
)
from repro.scheduling.runs import Interaction, Run, interactions_from_columns
from repro.scheduling.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    WeightedPairScheduler,
)


def scheduler_factories():
    """(name, factory) pairs covering every scheduler class, fresh per call."""
    omissive_run = Run([
        Interaction(0, 1),
        Interaction(1, 2, omission=STARTER_OMISSION),
        Interaction(2, 0),
        Interaction(0, 2, omission=REACTOR_OMISSION),
        Interaction(1, 0),
    ])
    return [
        ("random-n2", lambda: RandomScheduler(2, seed=11)),
        ("random-n3", lambda: RandomScheduler(3, seed=5)),
        ("random-n7", lambda: RandomScheduler(7, seed=123)),
        ("random-n100", lambda: RandomScheduler(100, seed=9)),
        ("weighted", lambda: WeightedPairScheduler(
            4, weights={(0, 1): 3.0, (1, 2): 1.0, (3, 0): 0.5}, seed=21)),
        ("round-robin", lambda: RoundRobinScheduler(4)),
        ("scripted", lambda: ScriptedScheduler(omissive_run)),
        ("scripted+continuation", lambda: ScriptedScheduler(
            omissive_run, continuation=RoundRobinScheduler(3))),
        ("graph-ring", lambda: ring_scheduler(6, seed=3)),
        ("graph-star", lambda: star_scheduler(5, seed=4)),
        ("graph-complete", lambda: complete_graph_scheduler(5, seed=7)),
        ("graph-random", lambda: random_graph_scheduler(6, 0.6, seed=2)),
    ]


def draw_per_step(scheduler, count):
    out = []
    for step in range(count):
        try:
            out.append(scheduler.next_interaction(step))
        except Exception:
            break
    return out


def draw_batch(scheduler, step, k, protocol):
    if protocol == "columns":
        return interactions_from_columns(*scheduler.next_columns(step, k))
    return scheduler.next_interactions(step, k)


def rng_state(scheduler):
    """The scheduler's RNG position (and its continuation's), if any."""
    rng = getattr(scheduler, "_rng", None)
    continuation = getattr(scheduler, "continuation", None)
    return (None if rng is None else rng.getstate(),
            None if continuation is None else rng_state(continuation))


def draw_chunked(scheduler, count, chunk, protocol="interactions"):
    out = []
    step = 0
    while step < count:
        k = min(chunk, count - step)
        batch = draw_batch(scheduler, step, k, protocol)
        out.extend(batch)
        step += len(batch)
        if len(batch) < k:
            break
    return out


class TestBatchedEqualsPerStep:
    @pytest.mark.parametrize("name,factory",
                             scheduler_factories(), ids=lambda x: x if isinstance(x, str) else "")
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("protocol", ["interactions", "columns"])
    def test_bitwise_identical_streams(self, name, factory, chunk, protocol):
        per_step = factory()
        reference = draw_per_step(per_step, 200)
        scheduler = factory()
        batched = draw_chunked(scheduler, 200, chunk, protocol)
        assert batched == reference
        # omission flags survive batching untouched
        assert [i.omission for i in batched] == [i.omission for i in reference]
        assert rng_state(scheduler) == rng_state(per_step)

    @pytest.mark.parametrize("name,factory",
                             scheduler_factories(), ids=lambda x: x if isinstance(x, str) else "")
    @pytest.mark.parametrize("protocol", ["interactions", "columns"])
    def test_interleaved_consumption(self, name, factory, protocol):
        """Mixing per-step and batched draws consumes one shared stream."""
        reference = draw_per_step(factory(), 60)

        scheduler = factory()
        mixed = []
        step = 0
        plan = [("step", 3), ("batch", 10), ("step", 5), ("batch", 1), ("batch", 41)]
        for kind, amount in plan:
            if kind == "step":
                got = draw_per_step_from(scheduler, step, amount)
            else:
                got = draw_batch(scheduler, step, amount, protocol)
            mixed.extend(got)
            step += len(got)
            if len(got) < amount:
                break
        assert mixed == reference[:len(mixed)]
        assert len(mixed) == len(reference)

    def test_zero_or_negative_k_is_a_noop(self):
        scheduler = RandomScheduler(5, seed=0)
        assert scheduler.next_interactions(0, 0) == []
        assert scheduler.next_interactions(0, -3) == []
        assert scheduler.next_columns(0, 0) == ([], [], None)
        assert scheduler.next_columns(0, -3) == ([], [], None)
        # the RNG stream was not consumed
        assert scheduler.next_interaction(0) == RandomScheduler(5, seed=0).next_interaction(0)

    def test_reset_restores_batched_stream(self):
        scheduler = RandomScheduler(6, seed=13)
        first = scheduler.next_interactions(0, 50)
        scheduler.reset()
        assert scheduler.next_interactions(0, 50) == first


def draw_per_step_from(scheduler, start, count):
    out = []
    for offset in range(count):
        try:
            out.append(scheduler.next_interaction(start + offset))
        except Exception:
            break
    return out


class TestBatchedExhaustion:
    def test_short_batch_signals_exhaustion(self):
        scheduler = ScriptedScheduler(Run.from_pairs([(0, 1), (1, 2), (2, 0)]))
        batch = scheduler.next_interactions(0, 10)
        assert [i.pair for i in batch] == [(0, 1), (1, 2), (2, 0)]

    def test_exhaustion_is_terminal_and_empty(self):
        scheduler = ScriptedScheduler(Run.from_pairs([(0, 1)]))
        assert len(scheduler.next_interactions(0, 5)) == 1
        assert scheduler.next_interactions(1, 5) == []
        assert scheduler.next_interactions(1, 5) == []

    def test_short_column_batch_signals_exhaustion(self):
        scheduler = ScriptedScheduler(Run([
            Interaction(0, 1), Interaction(1, 2, omission=REACTOR_OMISSION)]))
        starters, reactors, omissions = scheduler.next_columns(0, 10)
        assert (starters, reactors) == ([0, 1], [1, 2])
        assert omissions == [NO_OMISSION, REACTOR_OMISSION]
        assert scheduler.next_columns(2, 10) == ([], [], None)

    def test_omission_column_only_for_omissive_batches(self):
        scheduler = ScriptedScheduler(Run.from_pairs([(0, 1), (1, 2), (2, 0)]))
        assert scheduler.next_columns(0, 3) == ([0, 1, 2], [1, 2, 0], None)
        for name, factory in scheduler_factories():
            if not name.startswith("scripted"):
                assert factory().next_columns(0, 50)[2] is None

    def test_batch_crossing_continuation_boundary(self):
        scheduler = ScriptedScheduler(
            Run.from_pairs([(0, 1), (1, 2)]), continuation=RoundRobinScheduler(3))
        batch = scheduler.next_interactions(0, 5)
        assert [i.pair for i in batch] == [(0, 1), (1, 2), (0, 1), (0, 2), (1, 0)]


class TestEngineChunkIndependence:
    """The executed run is independent of the chunk size (including traces)."""

    def _engine(self, seed=3):
        program = TrivialTwoWaySimulator(EpidemicProtocol())
        return SimulationEngine(program, TW, RandomScheduler(30, seed=seed))

    def _initial(self):
        return Configuration([INFORMED] + [SUSCEPTIBLE] * 29)

    @pytest.mark.parametrize("chunk_size", [1, 2, 17, 256, 10_000])
    def test_full_trace_identical_across_chunk_sizes(self, chunk_size):
        reference = run_until_stable(self._engine(), self._initial(), None, 500,
                                     trace_policy="full")
        result = run_until_stable(
            self._engine(), self._initial(), None, 500, trace_policy="full",
            chunk_size=chunk_size)
        assert result.steps_executed == reference.steps_executed
        assert result.final_configuration == reference.final_configuration
        assert list(result.trace) == list(reference.trace)

    @pytest.mark.parametrize("chunk_size", [1, 7, 256])
    def test_stop_condition_identical_across_chunk_sizes(self, chunk_size):
        stop = lambda c: c.count(INFORMED) >= 10  # noqa: E731
        reference = run_until_stable(
            self._engine(), self._initial(), stop, 5_000, trace_policy="counts-only",
            chunk_size=1)
        result = run_until_stable(
            self._engine(), self._initial(), stop, 5_000, trace_policy="counts-only",
            chunk_size=chunk_size)
        assert result.steps_executed == reference.steps_executed
        assert result.converged == reference.converged
        assert result.final_configuration == reference.final_configuration

    def test_adversary_runs_unaffected_by_chunk_size(self):
        model = get_model("I3")

        def build():
            return SimulationEngine(
                OneWayEpidemicProtocol(), model, RandomScheduler(10, seed=5),
                adversary=UOAdversary(model, rate=0.5, max_per_gap=3, seed=5))

        initial = Configuration([INFORMED] + [SUSCEPTIBLE] * 9)
        reference = run_until_stable(build(), initial, None, 300, trace_policy="full",
                                     chunk_size=1)
        result = run_until_stable(build(), initial, None, 300, trace_policy="full",
                                  chunk_size=64)
        assert result.steps_executed == reference.steps_executed
        assert result.omissions == reference.omissions
        assert list(result.trace) == list(reference.trace)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_until_stable(self._engine(), self._initial(), None, 10, chunk_size=0)

    def test_convergence_identical_for_scripted_exhaustion(self):
        """SchedulerExhausted semantics survive batching inside run_until_stable."""
        run = Run.from_pairs([(0, 1), (1, 2), (2, 0), (0, 2)])

        def outcome():
            engine = SimulationEngine(
                TrivialTwoWaySimulator(LeaderElectionProtocol()), TW,
                ScriptedScheduler(run))
            return run_until_stable(
                engine, Configuration([LEADER] * 3),
                predicate=lambda c: False,  # never converges: must drain the script
                max_steps=1_000)

        first, second = outcome(), outcome()
        assert first.steps_executed == len(run)
        assert first.steps_executed == second.steps_executed
        assert first.final_configuration == second.final_configuration


class TestExperimentSpec:
    def test_spec_is_picklable_and_hashable(self):
        spec = ExperimentSpec(
            protocol="threshold", population=9,
            protocol_kwargs={"threshold": 4}, ones=5)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert spec.protocol_kwargs == (("threshold", 4),)

    def test_unknown_keys_fail_at_build(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            ExperimentSpec(protocol="nope", population=4).build()
        with pytest.raises(KeyError, match="unknown predicate"):
            ExperimentSpec(
                protocol="epidemic", population=4, predicate="nope").build()
        with pytest.raises(KeyError, match="unknown scheduler"):
            ExperimentSpec(
                protocol="epidemic", population=4, scheduler="nope").build()
        with pytest.raises(KeyError, match="unknown simulator"):
            ExperimentSpec(
                protocol="epidemic", population=4, simulator="nope").build()

    def test_omissions_require_an_omissive_model(self):
        with pytest.raises(ValueError, match="does not admit omissions"):
            ExperimentSpec(
                protocol="exact-majority", population=4, omissions=1).build()

    @pytest.mark.parametrize("ones", [-1, 5])
    def test_ones_must_lie_within_the_population(self, ones):
        with pytest.raises(ValueError,
                           match=f"ones={ones} with population=4"):
            ExperimentSpec(protocol="or", population=4, ones=ones)

    @pytest.mark.parametrize("ones", [0, 4])
    def test_ones_may_reach_either_end_of_the_population(self, ones):
        built = ExperimentSpec(protocol="or", population=4, ones=ones).build()
        assert len(built.initial_configuration) == 4

    def test_build_cache_returns_same_object(self):
        spec = ExperimentSpec(protocol="epidemic", population=5)
        assert build_cached(spec) is build_cached(spec)

    def test_run_spec_is_deterministic(self):
        spec = ExperimentSpec(protocol="leader-election", population=6)
        first = run_spec(spec, 0, 42, 20_000, 0, "counts-only")
        second = run_spec(spec, 0, 42, 20_000, 0, "counts-only")
        assert first.converged and second.converged
        assert first.steps_to_convergence == second.steps_to_convergence
        assert first.final_configuration == second.final_configuration


class TestProcessBackend:
    SPEC = ExperimentSpec(protocol="exact-majority", population=8)

    def _run(self, **kwargs):
        return repeat_experiment(
            spec=self.SPEC, runs=6, max_steps=20_000, base_seed=42, **kwargs)

    def test_process_merge_identical_to_sequential(self):
        sequential = self._run()
        three_workers = self._run(jobs=3)
        two_workers = self._run(jobs=2)
        for other in (three_workers, two_workers):
            assert other.runs == sequential.runs
            assert other.successes == sequential.successes
            assert other.convergence_steps == sequential.convergence_steps
            assert other.failures == sequential.failures

    def test_process_backend_with_adversary_spec(self):
        spec = ExperimentSpec(
            protocol="exact-majority", population=8, model="I3",
            simulator="skno", omission_bound=1, omissions=1)
        sequential = repeat_experiment(
            spec=spec, runs=4, max_steps=60_000, base_seed=7)
        processed = repeat_experiment(
            spec=spec, runs=4, max_steps=60_000, base_seed=7,
            jobs=2)
        assert processed.convergence_steps == sequential.convergence_steps
        assert processed.failures == sequential.failures

    @pytest.mark.parametrize("backend_kwargs", [
        {}, {"jobs": 2}, {"jobs": 2, "run_chunk": 2}])
    def test_ring_size_and_failure_dumps(self, backend_kwargs):
        """ring_size reaches the workers; failing runs surface their windows."""
        spec = ExperimentSpec(protocol="leader-election", population=6)
        result = repeat_experiment(
            spec=spec, runs=3, max_steps=30, stability_window=300,
            base_seed=0, trace_policy="ring", ring_size=4, **backend_kwargs)
        assert result.successes == 0
        assert len(result.failure_dumps) == 3
        assert [index for index, _steps in result.failure_dumps] == [0, 1, 2]
        assert all(len(steps) == 4 for _index, steps in result.failure_dumps)

    @pytest.mark.parametrize("backend_kwargs", [
        {"jobs": 3, "run_chunk": 2},
        {"jobs": 2, "run_chunk": 3},
        {"jobs": 2, "run_chunk": 100},  # > runs
    ])
    def test_run_chunking_merges_identically(self, backend_kwargs):
        """Shipping seeds in batches per executor task changes nothing."""
        reference = self._run()
        result = self._run(**backend_kwargs)
        assert result.runs == reference.runs
        assert result.successes == reference.successes
        assert result.convergence_steps == reference.convergence_steps
        assert result.failures == reference.failures

    def test_run_chunking_keeps_failure_dump_order(self):
        spec = ExperimentSpec(protocol="leader-election", population=6)
        result = repeat_experiment(
            spec=spec, runs=5, max_steps=30, stability_window=300,
            base_seed=0, trace_policy="ring", ring_size=4,
            jobs=2, run_chunk=2)
        assert result.successes == 0
        assert [index for index, _steps in result.failure_dumps] == [0, 1, 2]

    def test_invalid_run_chunk_rejected(self):
        with pytest.raises(ValueError, match="run_chunk"):
            self._run(run_chunk=0)

    @pytest.mark.parametrize("chunk_size", [1, 7, 1024])
    def test_spec_chunk_size_changes_no_result(self, chunk_size):
        reference = self._run()
        spec = ExperimentSpec(
            protocol="exact-majority", population=8, chunk_size=chunk_size)
        result = repeat_experiment(
            spec=spec, runs=6, max_steps=20_000, base_seed=42,
            jobs=2)
        assert result.successes == reference.successes
        assert result.convergence_steps == reference.convergence_steps

    def test_invalid_spec_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ExperimentSpec(protocol="epidemic", population=4, chunk_size=0)

    def test_seeded_final_configurations_identical_across_backends(self):
        """Acceptance pin: per-step draws, batched draws and the process
        backend all land on the same final configuration for a fixed seed."""
        spec = ExperimentSpec(protocol="leader-election", population=6)

        # batched (the default engine path), via the worker function
        batched = run_spec(spec, 0, 42, 20_000, 0, "counts-only")

        # per-step draws: identical system, chunk_size=1
        built = spec.build()
        engine = SimulationEngine(
            built.program, built.model, built.make_scheduler(42))
        per_step = run_until_stable(
            engine, built.initial_configuration, None, batched.steps_executed,
            trace_policy="counts-only", chunk_size=1)

        # process backend, single run
        processed = repeat_experiment(
            spec=spec, runs=2, max_steps=20_000, base_seed=42,
            jobs=2)

        assert per_step.final_configuration == batched.final_configuration
        assert processed.convergence_steps[0] == batched.steps_to_convergence
