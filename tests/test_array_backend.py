"""Equivalence suite for the columnar numpy array backend.

The array engine's contract (:mod:`repro.engine.backends.array_backend`)
has four legs, each pinned here:

1. **Internal determinism** — bitwise self-reproducibility for a given
   seed, and full independence from ``chunk_size`` (including the numpy
   ``Generator.integers`` stream-consumption property the draw kernels
   rely on).
2. **Exact semantic agreement** with the python backend on everything
   deterministic: budget exhaustion, immediate convergence, stop-at-streak
   semantics, and — on the deterministic round-robin scheduler, where both
   backends execute the *same* interaction sequence — bit-for-bit equality
   of final configurations, step counts and convergence points.
3. **Distributional agreement** on stochastic runs: the backends use
   different RNGs (``random.Random`` vs ``PCG64``), so convergence-step
   samples are compared with a rank-sum test (fixed seeds, deterministic).
4. **Clear refusal** of everything non-compilable: unbounded programs,
   unsupported schedulers, non-catalog adversary classes, non-count
   predicates, the full trace policy, arbitrary stop conditions.
   (Catalog adversaries and the ring trace policy compile since the
   injection-schedule lowering; their equivalence suite lives in
   ``tests/test_array_adversary_equivalence.py``.)

Plus the new experiment surface: ``--engine-backend`` through the CLI, and
``ExperimentSpec.backend`` through the thread and process fan-outs.
"""

from __future__ import annotations

import math
import pickle

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skno import SKnOSimulator
from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.backends import BackendCompileError
from repro.engine.convergence import run_until_stable
from repro.engine.engine import EngineError, SimulationEngine
from repro.engine.experiment import repeat_experiment
from repro.engine.fastpath import AgentCountPredicate
from repro.interaction.models import get_model
from repro.protocols.catalog.epidemic import EpidemicProtocol, OneWayEpidemicProtocol
from repro.protocols.catalog.leader_election import LeaderElectionProtocol
from repro.protocols.catalog.majority import ExactMajorityProtocol
from repro.protocols.registry import ExperimentSpec
from repro.protocols.state import Configuration
from repro.scheduling.array_draws import compile_scheduler
from repro.scheduling.graph_scheduler import ring_scheduler
from repro.scheduling.runs import Interaction, Run
from repro.scheduling.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    WeightedPairScheduler,
)

TW = get_model("TW")

# Every test runs under both chunk executors (see tests/conftest.py).
pytestmark = pytest.mark.usefixtures("array_executor")


def epidemic_system(n):
    program = TrivialTwoWaySimulator(EpidemicProtocol())
    initial = Configuration(["I"] + ["S"] * (n - 1))
    predicate = lambda: AgentCountPredicate(lambda s: s == "I")  # noqa: E731
    return program, initial, predicate


def leader_system(n):
    program = TrivialTwoWaySimulator(LeaderElectionProtocol())
    initial = Configuration(["L"] * n)
    predicate = lambda: AgentCountPredicate(lambda s: s == "L", target=1)  # noqa: E731
    return program, initial, predicate


def majority_system(n):
    program = TrivialTwoWaySimulator(ExactMajorityProtocol())
    count_a = n // 2 + 1
    initial = Configuration(["A"] * count_a + ["B"] * (n - count_a))
    output = ExactMajorityProtocol().output
    predicate = lambda: AgentCountPredicate(lambda s: output(s) == "A")  # noqa: E731
    return program, initial, predicate


SYSTEMS = {
    "epidemic": epidemic_system,
    "leader-election": leader_system,
    "exact-majority": majority_system,
}


def result_fingerprint(result):
    return (
        result.converged,
        result.steps_executed,
        result.steps_to_convergence,
        result.final_configuration.states,
        result.omissions,
    )


# ---------------------------------------------------------------------------
# 1. internal determinism
# ---------------------------------------------------------------------------


class TestInternalDeterminism:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_seed_reproducibility(self, system):
        fingerprints = set()
        for _ in range(2):
            program, initial, predicate = SYSTEMS[system](40)
            engine = SimulationEngine(
                program, TW, RandomScheduler(40, seed=11), backend="array")
            outcome = run_until_stable(
                engine, initial, predicate(), max_steps=30_000,
                stability_window=5, trace_policy="counts-only")
            fingerprints.add(result_fingerprint(outcome))
        assert len(fingerprints) == 1

    def test_engine_reuse_continues_the_draw_stream(self):
        # Like the python backend's random.Random state, the kernel stream
        # advances across runs on one engine: back-to-back runs must not
        # replay the same interaction sequence from the seed.
        program, initial, _ = SYSTEMS["leader-election"](40)
        engine = SimulationEngine(
            program, TW, RandomScheduler(40, seed=2), backend="array")
        first = engine.execute(initial, 400, trace_policy="counts-only")
        second = engine.execute(initial, 400, trace_policy="counts-only")
        assert (first.final_configuration.states
                != second.final_configuration.states)

    def test_scheduler_reset_replays_the_stream_from_the_seed(self):
        program, initial, _ = SYSTEMS["leader-election"](40)
        scheduler = RandomScheduler(40, seed=2)
        engine = SimulationEngine(program, TW, scheduler, backend="array")
        first = engine.execute(initial, 400, trace_policy="counts-only")
        scheduler.reset()
        replayed = engine.execute(initial, 400, trace_policy="counts-only")
        assert (first.final_configuration.states
                == replayed.final_configuration.states)

    def test_different_seeds_differ(self):
        finals = set()
        for seed in range(6):
            program, initial, _ = SYSTEMS["leader-election"](30)
            engine = SimulationEngine(
                program, TW, RandomScheduler(30, seed=seed), backend="array")
            outcome = engine.execute(initial, 5_000, trace_policy="counts-only")
            finals.add(outcome.final_configuration.states)
        assert len(finals) > 1, "seeds should produce different leaders"

    @settings(max_examples=20, deadline=None)
    @given(
        chunk=st.integers(min_value=1, max_value=700),
        seed=st.integers(min_value=0, max_value=50),
        system=st.sampled_from(sorted(SYSTEMS)),
    )
    def test_chunk_size_independence_random_scheduler(self, chunk, seed, system):
        def run(chunk_size):
            program, initial, predicate = SYSTEMS[system](25)
            engine = SimulationEngine(
                program, TW, RandomScheduler(25, seed=seed), backend="array")
            return result_fingerprint(run_until_stable(
                engine, initial, predicate(), max_steps=4_000,
                stability_window=3, trace_policy="counts-only",
                chunk_size=chunk_size))

        assert run(chunk) == run(None)

    @pytest.mark.parametrize("chunk", [1, 7, 256, 4096])
    def test_chunk_size_independence_graph_scheduler(self, chunk):
        def run(chunk_size):
            program, initial, predicate = SYSTEMS["epidemic"](24)
            engine = SimulationEngine(
                program, TW, ring_scheduler(24, seed=9), backend="array")
            return result_fingerprint(run_until_stable(
                engine, initial, predicate(), max_steps=8_000,
                stability_window=4, trace_policy="counts-only",
                chunk_size=chunk_size))

        assert run(chunk) == run(None)


# ---------------------------------------------------------------------------
# 2. exact agreement with the python backend
# ---------------------------------------------------------------------------


def run_both(system, scheduler_factory, n, max_steps, window, chunk=None):
    outcomes = []
    for backend in ("python", "array"):
        program, initial, predicate = SYSTEMS[system](n)
        engine = SimulationEngine(
            program, TW, scheduler_factory(), backend=backend)
        outcomes.append(run_until_stable(
            engine, initial, predicate(), max_steps=max_steps,
            stability_window=window, trace_policy="counts-only",
            chunk_size=chunk))
    return outcomes


class TestExactAgreement:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("window", [0, 3, 17])
    def test_round_robin_runs_agree_bit_for_bit(self, system, window):
        python, array = run_both(
            system, lambda: RoundRobinScheduler(18), 18,
            max_steps=6_000, window=window)
        assert result_fingerprint(python) == result_fingerprint(array)

    @pytest.mark.parametrize("max_steps", [0, 1, 37, 2_000])
    def test_round_robin_execute_agrees_at_every_budget(self, max_steps):
        finals = []
        for backend in ("python", "array"):
            program, initial, _ = SYSTEMS["exact-majority"](12)
            engine = SimulationEngine(
                program, TW, RoundRobinScheduler(12), backend=backend)
            outcome = engine.execute(
                initial, max_steps, trace_policy="counts-only")
            assert outcome.steps == max_steps
            finals.append(outcome.final_configuration.states)
        assert finals[0] == finals[1]

    def test_budget_exhaustion_is_exact(self):
        # Leader election among n=2 from a single leader can never converge
        # to... it already has 1 leader; use a predicate that never holds.
        program, initial, _ = SYSTEMS["epidemic"](20)
        impossible = AgentCountPredicate(lambda s: s == "I", target=21)
        engine = SimulationEngine(
            program, TW, RandomScheduler(20, seed=3), backend="array")
        outcome = run_until_stable(
            engine, initial, impossible, max_steps=1_234,
            trace_policy="counts-only")
        assert not outcome.converged
        assert outcome.steps_executed == 1_234
        assert outcome.steps_to_convergence is None

    def test_immediate_convergence_matches_python(self):
        for backend in ("python", "array"):
            program, initial, _ = SYSTEMS["epidemic"](10)
            all_susceptible_or_informed = AgentCountPredicate(
                lambda s: s in ("S", "I"))
            engine = SimulationEngine(
                program, TW, RandomScheduler(10, seed=0), backend=backend)
            outcome = run_until_stable(
                engine, initial, all_susceptible_or_informed,
                max_steps=100, trace_policy="counts-only")
            assert outcome.converged
            assert outcome.steps_executed == 0
            assert outcome.steps_to_convergence == 0
            assert outcome.final_configuration == initial

    def test_stop_is_at_the_first_streak_completion(self):
        # On round-robin the exact stop step is reproducible: re-running
        # with the stop step as the budget must land on the same final
        # configuration, and one step less must not yet have converged.
        python, array = run_both(
            "leader-election", lambda: RoundRobinScheduler(9), 9,
            max_steps=2_000, window=6)
        assert array.converged
        assert result_fingerprint(python) == result_fingerprint(array)
        program, initial, predicate = SYSTEMS["leader-election"](9)
        engine = SimulationEngine(
            program, TW, RoundRobinScheduler(9), backend="array")
        shorter = run_until_stable(
            engine, initial, predicate(),
            max_steps=array.steps_executed - 1,
            stability_window=6, trace_policy="counts-only")
        assert not shorter.converged

    def test_one_way_epidemic_on_io_model(self):
        # The array backend compiles one-way programs through their model
        # exactly like two-way ones.
        io_model = get_model("IO")
        for backend in ("python", "array"):
            engine = SimulationEngine(
                OneWayEpidemicProtocol(), io_model, RoundRobinScheduler(12),
                backend=backend)
            outcome = run_until_stable(
                engine, Configuration(["I"] + ["S"] * 11),
                AgentCountPredicate(lambda s: s == "I"),
                max_steps=2_000, trace_policy="counts-only")
            assert outcome.converged
            assert outcome.final_configuration == Configuration(["I"] * 12)


# ---------------------------------------------------------------------------
# 3. distributional agreement
# ---------------------------------------------------------------------------


def rank_sum_z(sample_a, sample_b):
    """Normal-approximation Mann-Whitney z statistic (midranks for ties)."""
    combined = sorted(
        [(value, 0) for value in sample_a] + [(value, 1) for value in sample_b])
    ranks = {}
    index = 0
    while index < len(combined):
        upper = index
        while upper < len(combined) and combined[upper][0] == combined[index][0]:
            upper += 1
        midrank = (index + upper + 1) / 2  # 1-based average rank of the tie group
        for position in range(index, upper):
            ranks.setdefault(position, midrank)
        index = upper
    rank_sum = sum(
        ranks[position] for position, (_, group) in enumerate(combined)
        if group == 0)
    size_a, size_b = len(sample_a), len(sample_b)
    mean = size_a * (size_a + size_b + 1) / 2
    variance = size_a * size_b * (size_a + size_b + 1) / 12
    return (rank_sum - mean) / math.sqrt(variance)


def convergence_sample(system, backend, n, seeds, max_steps):
    sample = []
    for seed in seeds:
        program, initial, predicate = SYSTEMS[system](n)
        engine = SimulationEngine(
            program, TW, RandomScheduler(n, seed=seed), backend=backend)
        outcome = run_until_stable(
            engine, initial, predicate(), max_steps=max_steps,
            stability_window=2, trace_policy="counts-only")
        assert outcome.converged, f"seed {seed} did not converge"
        sample.append(outcome.steps_to_convergence)
    return sample


class TestDistributionalAgreement:
    """Same convergence-step distribution despite different RNG families.

    Seeds are fixed, so these tests are deterministic; the |z| < 3.5 bound
    was chosen with ~40 samples per side, where a systematic distribution
    shift (e.g. an off-by-one in the reactor shift) produces |z| >> 10.
    """

    @pytest.mark.parametrize("system,n,max_steps", [
        ("epidemic", 150, 40_000),
        ("leader-election", 120, 60_000),
    ])
    def test_convergence_steps_distribution_matches(self, system, n, max_steps):
        seeds = range(40)
        python_sample = convergence_sample(system, "python", n, seeds, max_steps)
        array_sample = convergence_sample(system, "array", n, seeds, max_steps)
        z = rank_sum_z(python_sample, array_sample)
        assert abs(z) < 3.5, (
            f"convergence distributions diverge: z={z:.2f}, "
            f"python mean={sum(python_sample)/len(python_sample):.0f}, "
            f"array mean={sum(array_sample)/len(array_sample):.0f}")

    def test_graph_kernel_draws_only_graph_edges_both_orientations(self):
        scheduler = ring_scheduler(12, seed=4)
        kernel = compile_scheduler(scheduler)
        starters, reactors = kernel.draw(0, 4_000)
        admissible = set(scheduler.ordered_pairs())
        drawn = set(zip(starters.tolist(), reactors.tolist()))
        assert drawn <= admissible
        assert drawn == admissible, "4000 draws on 24 ordered pairs must cover all"

    def test_uniform_kernel_is_uniform_over_ordered_pairs(self):
        kernel = compile_scheduler(RandomScheduler(5, seed=8))
        starters, reactors = kernel.draw(0, 40_000)
        assert (starters != reactors).all()
        counts = np.bincount(starters * 5 + reactors, minlength=25)
        pair_counts = counts[counts > 0]
        assert len(pair_counts) == 20
        expected = 40_000 / 20
        assert (np.abs(pair_counts - expected) < 6 * math.sqrt(expected)).all()


# ---------------------------------------------------------------------------
# 4. refusal of non-compilable ingredients
# ---------------------------------------------------------------------------


class TestCompileErrors:
    def _engine(self, **kwargs):
        program, initial, predicate = SYSTEMS["epidemic"](10)
        defaults = dict(
            program=program, model=TW,
            scheduler=RandomScheduler(10, seed=0), adversary=None)
        defaults.update(kwargs)
        engine = SimulationEngine(
            defaults["program"], defaults["model"], defaults["scheduler"],
            adversary=defaults["adversary"], backend="array")
        return engine, initial, predicate()

    def test_unbounded_program_is_refused(self):
        simulator = SKnOSimulator(EpidemicProtocol(), omission_bound=1)
        engine = SimulationEngine(
            simulator, get_model("I3"), RandomScheduler(10, seed=0),
            backend="array")
        with pytest.raises(BackendCompileError, match="unbounded"):
            engine.execute(
                Configuration([simulator.initial_state("S")] * 10), 100,
                trace_policy="counts-only")

    @pytest.mark.parametrize("scheduler_factory", [
        lambda: ScriptedScheduler(Run([Interaction(0, 1)])),
        lambda: WeightedPairScheduler(10, {(0, 1): 1.0}),
    ])
    def test_unsupported_scheduler_is_refused(self, scheduler_factory):
        engine, initial, predicate = self._engine(scheduler=scheduler_factory())
        with pytest.raises(BackendCompileError, match="no array draw kernel"):
            engine.execute(initial, 100, trace_policy="counts-only")

    def test_subclassed_scheduler_is_refused(self):
        class TweakedScheduler(RandomScheduler):
            pass

        engine, initial, _ = self._engine(scheduler=TweakedScheduler(10, seed=0))
        with pytest.raises(BackendCompileError, match="no array draw kernel"):
            engine.execute(initial, 100, trace_policy="counts-only")

    def test_subclassed_adversary_is_refused(self):
        # The catalog adversaries compile via injection schedules; dispatch
        # is on the exact class, so a subclass (which may have overridden
        # the injection law) must be refused with the fixing flag named.
        from repro.adversary.omission import BoundedOmissionAdversary

        class TweakedAdversary(BoundedOmissionAdversary):
            pass

        adversary = TweakedAdversary(get_model("I3"), max_omissions=1, seed=0)
        engine = SimulationEngine(
            OneWayEpidemicProtocol(), get_model("I3"),
            RandomScheduler(10, seed=0), adversary=adversary, backend="array")
        with pytest.raises(BackendCompileError,
                           match="no array lowering.*--engine-backend python"):
            engine.execute(
                Configuration(["I"] + ["S"] * 9), 100,
                trace_policy="counts-only")

    def test_catalog_adversary_now_compiles(self):
        from repro.adversary.omission import BoundedOmissionAdversary

        adversary = BoundedOmissionAdversary(get_model("I3"), max_omissions=2, seed=0)
        engine = SimulationEngine(
            OneWayEpidemicProtocol(), get_model("I3"),
            RandomScheduler(10, seed=0), adversary=adversary, backend="array")
        outcome = engine.execute(
            Configuration(["I"] + ["S"] * 9), 500, trace_policy="counts-only")
        assert outcome.steps == 500
        assert outcome.omissions == 2

    def test_full_trace_policy_is_refused(self):
        engine, initial, _ = self._engine()
        with pytest.raises(BackendCompileError, match="counts-only"):
            engine.execute(initial, 100, trace_policy="full")

    def test_ring_trace_policy_now_compiles(self):
        engine, initial, _ = self._engine()
        outcome = engine.execute(
            initial, 100, trace_policy="ring", ring_size=8)
        assert outcome.policy == "ring"
        assert len(outcome.last_steps) == 8
        assert outcome.last_steps[-1].index == 99

    def test_stop_condition_is_refused(self):
        engine, initial, _ = self._engine()
        with pytest.raises(BackendCompileError, match="stop condition"):
            engine.execute(
                initial, 100, stop_condition=lambda c: False,
                trace_policy="counts-only")

    def test_plain_predicate_is_refused(self):
        engine, initial, _ = self._engine()
        with pytest.raises(BackendCompileError, match="state-count predicate"):
            run_until_stable(
                engine, initial, lambda c: True, max_steps=100,
                trace_policy="counts-only")

    def test_foreign_initial_state_is_refused(self):
        engine, _, _ = self._engine()
        with pytest.raises(BackendCompileError, match="initial configuration"):
            engine.execute(
                Configuration(["I", "S", "R", "S"]), 100,
                trace_policy="counts-only")

    def test_open_transition_table_is_refused(self):
        from repro.protocols.protocol import RuleBasedProtocol

        leaky = RuleBasedProtocol(
            {("a", "a"): ("a", "b")}, name="leaky")

        class LyingProtocol(RuleBasedProtocol):
            def state_order(self):
                return ("a",)  # hides "b" from the interner

        lying = LyingProtocol({("a", "a"): ("a", "b")}, name="lying")
        program = TrivialTwoWaySimulator(lying)
        engine = SimulationEngine(
            program, TW, RandomScheduler(4, seed=0), backend="array")
        with pytest.raises(BackendCompileError, match="leaves its declared"):
            engine.execute(
                Configuration(["a"] * 4), 10, trace_policy="counts-only")
        del leaky

    def test_invalid_chunk_size_raises_like_the_python_backend(self):
        # Regression: chunk_size=0 used to spin forever (k clipped to 0
        # every iteration) where the python backend raises.
        engine, initial, _ = self._engine()
        with pytest.raises(ValueError, match="chunk_size"):
            engine.execute(
                initial, 100, trace_policy="counts-only", chunk_size=0)

    def test_infinite_budget_is_refused(self):
        engine, initial, predicate = self._engine()
        with pytest.raises(BackendCompileError, match="finite"):
            run_until_stable(
                engine, initial, predicate, max_steps=float("inf"),
                trace_policy="counts-only")

    def test_negative_budget_is_an_engine_error(self):
        # An argument error on both entry points, as on the python
        # backend, not a compile error.
        engine, initial, predicate = self._engine()
        with pytest.raises(EngineError, match="non-negative"):
            engine.execute(initial, -1, trace_policy="counts-only")
        with pytest.raises(EngineError, match="non-negative"):
            run_until_stable(
                engine, initial, predicate, max_steps=-1,
                trace_policy="counts-only")


# ---------------------------------------------------------------------------
# experiment surface: spec, fan-out, CLI
# ---------------------------------------------------------------------------


def array_spec(**overrides):
    fields = dict(
        protocol="epidemic", population=60, backend="array",
        scheduler="random")
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestExperimentSurface:
    def test_spec_backend_round_trips_through_pickle(self):
        spec = array_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.backend == "array"
        assert hash(clone) == hash(spec)

    def test_backend_is_part_of_spec_identity(self):
        assert array_spec() != array_spec(backend="python")

    @pytest.mark.parametrize("jobs_backend", ["thread", "process"])
    def test_fanout_matches_sequential(self, jobs_backend):
        kwargs = dict(
            spec=array_spec(), runs=6, max_steps=20_000, stability_window=3,
            base_seed=7, trace_policy="counts-only")
        sequential = repeat_experiment(jobs=1, **kwargs)
        fanned = repeat_experiment(
            jobs=2, jobs_backend=jobs_backend, run_chunk=2, **kwargs)
        assert fanned.runs == sequential.runs == 6
        assert fanned.successes == sequential.successes == 6
        assert fanned.convergence_steps == sequential.convergence_steps

    def test_array_spec_runs_match_python_spec_distribution_loosely(self):
        # Not a statistical test — just that both backends converge the
        # same spec with the same run count (the distributional agreement
        # suite above does the heavy lifting).
        for backend in ("python", "array"):
            result = repeat_experiment(
                spec=array_spec(backend=backend), runs=3, max_steps=20_000,
                stability_window=2, base_seed=1, trace_policy="counts-only")
            assert result.all_succeeded

    def test_graph_scheduler_spec_on_array_backend(self):
        result = repeat_experiment(
            spec=array_spec(scheduler="ring-graph", population=24),
            runs=3, max_steps=30_000, stability_window=2, base_seed=2,
            trace_policy="counts-only")
        assert result.all_succeeded

    def test_compile_error_surfaces_through_repeat_experiment(self):
        spec = array_spec(scheduler="round-robin", omissions=2, model="I3",
                          simulator="skno", omission_bound=2)
        with pytest.raises(BackendCompileError):
            repeat_experiment(
                spec=spec, runs=2, max_steps=1_000,
                trace_policy="counts-only")


class TestArrayBackendCLI:
    def test_run_with_engine_backend_array(self, capsys):
        from repro.cli import main

        exit_code = main([
            "run", "--protocol", "epidemic", "--population", "500",
            "--engine-backend", "array", "--trace-policy", "counts-only",
            "--max-steps", "100000", "--seed", "4",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "converged" in output

    def test_runs_with_engine_backend_array_process(self, capsys):
        from repro.cli import main

        exit_code = main([
            "run", "--protocol", "leader-election", "--population", "40",
            "--engine-backend", "array", "--trace-policy", "counts-only",
            "--runs", "4", "--jobs", "2", "--backend", "process",
            "--max-steps", "50000", "--seed", "1",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "4/4" in output

    def test_full_trace_policy_fails_with_actionable_message(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="counts-only"):
            main([
                "run", "--protocol", "epidemic", "--population", "50",
                "--engine-backend", "array", "--max-steps", "1000",
            ])

    def test_compile_error_names_the_first_failing_component(self):
        # Adversaries compile now, so the first failing component of this
        # run is the SKnO program (unbounded state space) — the message
        # must name it, not a generic category.
        from repro.cli import main

        with pytest.raises(SystemExit,
                           match="SKnOSimulator.*unbounded.*--engine-backend python"):
            main([
                "run", "--protocol", "leader-election", "--model", "I3",
                "--simulator", "skno", "--omission-bound", "1",
                "--omissions", "1", "--population", "10",
                "--engine-backend", "array", "--trace-policy", "counts-only",
                "--max-steps", "1000",
            ])

    def test_non_compilable_simulator_fails_with_actionable_message(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unbounded"):
            main([
                "run", "--protocol", "epidemic", "--model", "IO",
                "--simulator", "sid", "--population", "10",
                "--engine-backend", "array", "--trace-policy", "counts-only",
                "--max-steps", "1000",
            ])
