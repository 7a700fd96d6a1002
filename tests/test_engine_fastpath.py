"""Property-based equivalence: fast-path core vs. a legacy reference executor.

The fast-path core (:mod:`repro.engine.fastpath`) mutates an array-backed
buffer in place and defers trace construction to the freeze boundary.  This
suite pins its semantics against an independent reference implementation
written the way the seed engine worked — an immutable
:class:`Configuration` threaded through :meth:`Trace.record`, one O(n) copy
per step — over random catalog protocols × interaction models × seeds,
including adversary-injected runs.

Final configurations, per-step trace contents, omission counts and
convergence step counts must all be identical.

A second suite pins the loop's inline state-count path against its
callback path (:meth:`IncrementalPredicate.update` once per step) on the
paper's simulators, across models, adversaries, schedulers and chunk sizes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.omission import (
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    UOAdversary,
)
from repro.core.naming import KnownSizeSimulator
from repro.core.sid import SIDSimulator
from repro.core.skno import SKnOSimulator
from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.fastpath import AgentCountPredicate
from repro.engine.trace import Trace
from repro.interaction.adapters import OneWayAsTwoWay
from repro.interaction.models import TW, get_model
from repro.protocols.catalog.epidemic import (
    INFORMED,
    SUSCEPTIBLE,
    EpidemicProtocol,
    OneWayEpidemicProtocol,
)
from repro.protocols.catalog.leader_election import LEADER, LeaderElectionProtocol
from repro.protocols.catalog.majority import A, ExactMajorityProtocol
from repro.protocols.state import Configuration
from repro.scheduling.graph_scheduler import ring_scheduler
from repro.scheduling.runs import Interaction, Run
from repro.scheduling.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    SchedulerExhausted,
    ScriptedScheduler,
    WeightedPairScheduler,
)


# ---------------------------------------------------------------------------
# reference implementation (seed-style: immutable configurations, Trace.record)
# ---------------------------------------------------------------------------


def legacy_execute(program, model, scheduler, adversary, initial, max_steps,
                   predicate=None, stability_window=0):
    """Seed-style executor: O(n) immutable configuration copy per step.

    Implements the documented budget semantics (a drawn scheduled
    interaction always executes; surplus injections are discarded) and the
    seed's convergence-streak accounting, entirely independently of
    ``repro.engine.fastpath``.
    """
    trace = Trace(initial)
    configuration = initial
    scheduler_step = 0
    executed = 0
    consecutive = 0
    first_of_streak = None
    target = stability_window + 1

    if predicate is not None and predicate(initial):
        consecutive = 1
        first_of_streak = 0

    while executed < max_steps and consecutive < target:
        try:
            scheduled = scheduler.next_interaction(scheduler_step)
        except SchedulerExhausted:
            break
        scheduler_step += 1

        batch = [scheduled]
        if adversary is not None:
            injected = adversary.interactions_before(
                step=scheduler_step - 1, scheduled=scheduled, n=len(configuration))
            batch = list(injected[: max_steps - executed - 1]) + [scheduled]

        for interaction in batch:
            starter_pre = configuration[interaction.starter]
            reactor_pre = configuration[interaction.reactor]
            starter_post, reactor_post = model.apply(
                program, starter_pre, reactor_pre, interaction.omission)
            trace.record(interaction, starter_post, reactor_post)
            configuration = trace.final_configuration
            executed += 1
            if predicate is not None:
                if predicate(configuration):
                    if consecutive == 0:
                        first_of_streak = executed
                    consecutive += 1
                    if consecutive >= target:
                        break
                else:
                    consecutive = 0
                    first_of_streak = None

    converged = consecutive >= target
    return {
        "trace": trace,
        "final": trace.final_configuration,
        "steps": executed,
        "omissions": trace.omission_count(),
        "converged": converged,
        "steps_to_convergence": first_of_streak if converged else None,
    }


# ---------------------------------------------------------------------------
# random system builders
# ---------------------------------------------------------------------------


def _tw_epidemic(n, seed):
    program = TrivialTwoWaySimulator(EpidemicProtocol())
    initial = Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))
    predicate = AgentCountPredicate(lambda s: s == INFORMED)
    return program, TW, initial, None, predicate


def _tw_leader(n, seed):
    program = TrivialTwoWaySimulator(LeaderElectionProtocol())
    initial = Configuration([LEADER] * n)
    predicate = AgentCountPredicate(lambda s: s == LEADER, target=1)
    return program, TW, initial, None, predicate


def _tw_majority(n, seed):
    protocol = ExactMajorityProtocol()
    program = TrivialTwoWaySimulator(protocol)
    count_a = n // 2 + 1
    initial = protocol.initial_configuration(count_a, n - count_a)
    predicate = AgentCountPredicate(lambda s: protocol.output(s) == A)
    return program, TW, initial, None, predicate


def _io_epidemic(n, seed):
    program = OneWayEpidemicProtocol()
    initial = Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))
    predicate = AgentCountPredicate(lambda s: s == INFORMED)
    return program, get_model("IO"), initial, None, predicate


def _i1_epidemic_bounded_adversary(n, seed):
    model = get_model("I1")
    program = OneWayEpidemicProtocol()
    initial = Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))
    adversary = lambda: BoundedOmissionAdversary(model, max_omissions=3, seed=seed)
    predicate = AgentCountPredicate(lambda s: s == INFORMED)
    return program, model, initial, adversary, predicate


def _i3_epidemic_flooding_adversary(n, seed):
    model = get_model("I3")
    program = OneWayEpidemicProtocol()
    initial = Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))
    adversary = lambda: UOAdversary(model, rate=0.6, max_per_gap=4, seed=seed)
    predicate = AgentCountPredicate(lambda s: s == INFORMED)
    return program, model, initial, adversary, predicate


SYSTEMS = [
    _tw_epidemic,
    _tw_leader,
    _tw_majority,
    _io_epidemic,
    _i1_epidemic_bounded_adversary,
    _i3_epidemic_flooding_adversary,
]


def _build(system_index, n, seed):
    program, model, initial, adversary_factory, predicate = SYSTEMS[system_index](n, seed)
    adversary = adversary_factory() if adversary_factory else None
    engine = SimulationEngine(program, model, RandomScheduler(n, seed=seed), adversary=adversary)
    return engine, initial, predicate


system_indices = st.integers(min_value=0, max_value=len(SYSTEMS) - 1)
populations = st.integers(min_value=3, max_value=9)
seeds = st.integers(min_value=0, max_value=10_000)
budgets = st.integers(min_value=0, max_value=400)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


class TestRunEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(system=system_indices, n=populations, seed=seeds, max_steps=budgets)
    def test_counts_only_matches_legacy_executor(self, system, n, seed, max_steps):
        engine, initial, _ = _build(system, n, seed)
        result = run_until_stable(engine, initial, None, max_steps,
                                  trace_policy="counts-only")

        reference_engine, reference_initial, _ = _build(system, n, seed)
        reference = legacy_execute(
            reference_engine.program, reference_engine.model, reference_engine.scheduler,
            reference_engine.adversary, reference_initial, max_steps)

        assert result.steps_executed == reference["steps"]
        assert result.omissions == reference["omissions"]
        assert result.final_configuration == reference["final"]

    @settings(max_examples=40, deadline=None)
    @given(system=system_indices, n=populations, seed=seeds, max_steps=budgets)
    def test_full_trace_matches_legacy_executor_step_by_step(self, system, n, seed, max_steps):
        engine, initial, _ = _build(system, n, seed)
        trace = engine.run(initial, max_steps)

        reference_engine, reference_initial, _ = _build(system, n, seed)
        reference = legacy_execute(
            reference_engine.program, reference_engine.model, reference_engine.scheduler,
            reference_engine.adversary, reference_initial, max_steps)

        assert len(trace) == reference["steps"]
        assert trace.final_configuration == reference["final"]
        assert trace.omission_count() == reference["omissions"]
        for fast_step, reference_step in zip(trace, reference["trace"]):
            assert fast_step == reference_step


class TestConvergenceEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(system=system_indices, n=populations, seed=seeds,
           window=st.integers(min_value=0, max_value=30),
           policy=st.sampled_from(["full", "counts-only"]))
    def test_run_until_stable_matches_legacy_executor(self, system, n, seed, window, policy):
        engine, initial, predicate = _build(system, n, seed)
        outcome = run_until_stable(
            engine, initial, predicate, max_steps=2_000,
            stability_window=window, trace_policy=policy)

        reference_engine, reference_initial, _ = _build(system, n, seed)
        # The reference predicate is a plain full-rescan callable, so this
        # also checks incremental predicates against rescanning semantics.
        informed_like = {
            0: lambda c: c.count(INFORMED) == len(c),
            1: lambda c: c.count(LEADER) == 1,
            3: lambda c: c.count(INFORMED) == len(c),
            4: lambda c: c.count(INFORMED) == len(c),
            5: lambda c: c.count(INFORMED) == len(c),
        }
        if system == 2:
            protocol = ExactMajorityProtocol()
            reference_predicate = lambda c: all(protocol.output(s) == A for s in c)
        else:
            reference_predicate = informed_like[system]
        reference = legacy_execute(
            reference_engine.program, reference_engine.model, reference_engine.scheduler,
            reference_engine.adversary, reference_initial, 2_000,
            predicate=reference_predicate, stability_window=window)

        assert outcome.converged == reference["converged"]
        assert outcome.steps_executed == reference["steps"]
        assert outcome.steps_to_convergence == reference["steps_to_convergence"]
        assert outcome.final_configuration == reference["final"]
        assert outcome.omissions == reference["omissions"]
        if policy == "full":
            assert outcome.trace.omission_count() == reference["omissions"]


# ---------------------------------------------------------------------------
# inline state-count path == callback path
# ---------------------------------------------------------------------------


class CallbackOnly(AgentCountPredicate):
    """The same state-count predicate without its count shape, so the loop
    must call :meth:`update` once per step instead of counting inline."""

    def as_state_count(self):
        return None


class InteractionsBeforeOnly:
    """Duck-typed adversary with only ``interactions_before``: injects the
    mirror of a third of the scheduled draws, with a random omissive kind."""

    def __init__(self, model, seed):
        self._rng = random.Random(seed)
        self._kinds = [kind for kind in model.admissible_omissions() if kind.is_omissive]

    def interactions_before(self, step, scheduled, n):
        if self._rng.random() < 1 / 3:
            return [Interaction(scheduled.reactor, scheduled.starter,
                                omission=self._rng.choice(self._kinds))]
        return []


MAJORITY = ExactMajorityProtocol()

EQUIVALENCE_MODELS = ("I3", "I4", "IO", "IT", "T3")

EQUIVALENCE_ADVERSARIES = {
    "none": lambda model, seed: None,
    "uo": lambda model, seed: UOAdversary(model, rate=0.3, max_per_gap=2, seed=seed),
    "bounded": lambda model, seed: BoundedOmissionAdversary(
        model, max_omissions=3, rate=0.4, seed=seed),
    "no": lambda model, seed: NOAdversary(
        model, active_steps=60, rate=0.4, max_per_gap=2, seed=seed),
    "no1": lambda model, seed: NO1Adversary(model, inject_at=seed % 40, seed=seed),
    "interactions-before-only": InteractionsBeforeOnly,
}


def _simulator(name, model, n):
    if name == "skno":
        variant = "I4" if model.name == "I4" else "I3"
        program = SKnOSimulator(MAJORITY, omission_bound=1, variant=variant)
    elif name == "sid":
        program = SIDSimulator(MAJORITY)
    else:
        program = KnownSizeSimulator(MAJORITY, population_size=n)
    return program


def _scheduler(name, model, n, seed):
    if name == "random":
        return RandomScheduler(n, seed=seed)
    if name == "graph":
        return ring_scheduler(n, seed=seed)
    if name == "weighted":
        return WeightedPairScheduler(
            n, {(i, (i + 1) % n): 1.0 + i for i in range(n)}, seed=seed)
    if name == "round-robin":
        return RoundRobinScheduler(n)
    # scripted: omissive steps where the model admits them, then either
    # exhaustion or a round-robin continuation
    rng = random.Random(seed)
    kinds = model.admissible_omissions()
    script = []
    for _ in range(rng.randrange(10, 120)):
        starter, reactor = rng.sample(range(n), 2)
        script.append(Interaction(starter, reactor, omission=rng.choice(kinds)))
    continuation = RoundRobinScheduler(n) if seed % 2 else None
    return ScriptedScheduler(Run(script), continuation=continuation)


def _scheduler_state(scheduler):
    rng = getattr(scheduler, "_rng", None)
    continuation = getattr(scheduler, "continuation", None)
    return (None if rng is None else rng.getstate(),
            None if continuation is None else _scheduler_state(continuation))


def _adversary_state(adversary):
    rng = getattr(adversary, "_rng", None)
    return (getattr(adversary, "total_injected", None),
            None if rng is None else rng.getstate())


def _count_path_run(simulator, model_name, adversary, scheduler, n, seed, window,
                    max_steps, chunk_size, policy, inline):
    model = get_model(model_name)
    program = _simulator(simulator, model, n)
    project = program.project

    def satisfies(state):
        return MAJORITY.output(project(state)) == A

    initial = program.initial_configuration(
        MAJORITY.initial_configuration(n // 2 + 1, n - n // 2 - 1))
    predicate = (AgentCountPredicate if inline else CallbackOnly)(satisfies)
    if not model.one_way:
        program = OneWayAsTwoWay(program)
    if not model.allows_omissions:
        adversary = "none"
    engine = SimulationEngine(
        program, model, _scheduler(scheduler, model, n, seed),
        adversary=EQUIVALENCE_ADVERSARIES[adversary](model, seed))
    result = run_until_stable(
        engine, initial, predicate, max_steps=max_steps,
        stability_window=window, trace_policy=policy, chunk_size=chunk_size)
    return (result.steps_executed, result.steps_to_convergence, result.converged,
            result.omissions, result.final_configuration,
            _scheduler_state(engine.scheduler), _adversary_state(engine.adversary))


class TestInlineCountPathEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(simulator=st.sampled_from(["skno", "sid", "nn"]),
           model=st.sampled_from(EQUIVALENCE_MODELS),
           adversary=st.sampled_from(sorted(EQUIVALENCE_ADVERSARIES)),
           scheduler=st.sampled_from(
               ["random", "graph", "weighted", "round-robin", "scripted"]),
           n=st.integers(min_value=3, max_value=6),
           seed=seeds,
           window=st.integers(min_value=0, max_value=40),
           max_steps=st.integers(min_value=0, max_value=600),
           chunk_size=st.sampled_from([1, 7, 256]),
           policy=st.sampled_from(["counts-only", "full", "ring"]))
    def test_inline_count_equals_update_callback(
            self, simulator, model, adversary, scheduler, n, seed, window,
            max_steps, chunk_size, policy):
        args = (simulator, model, adversary, scheduler, n, seed, window,
                max_steps, chunk_size, policy)
        assert (_count_path_run(*args, inline=True)
                == _count_path_run(*args, inline=False))


# ---------------------------------------------------------------------------
# satisfies runs once per replaced state object
# ---------------------------------------------------------------------------


def _counted_skno_run(adversary, policy, n=6, seed=3, max_steps=3000):
    """A counts-path SKnO run; returns its result and the number of
    ``satisfies`` calls it made."""
    model = get_model("I3")
    program = SKnOSimulator(MAJORITY, omission_bound=1)
    project = program.project
    calls = [0]

    def satisfies(state):
        calls[0] += 1
        return MAJORITY.output(project(state)) == A

    initial = program.initial_configuration(
        MAJORITY.initial_configuration(n // 2 + 1, n - n // 2 - 1))
    engine = SimulationEngine(
        program, model, RandomScheduler(n, seed=seed),
        adversary=EQUIVALENCE_ADVERSARIES[adversary](model, seed))
    result = run_until_stable(
        engine, initial, AgentCountPredicate(satisfies), max_steps=max_steps,
        stability_window=max_steps, trace_policy=policy)
    return result, calls[0]


class TestSatisfiesCallCount:
    @pytest.mark.parametrize("adversary", ["none", "uo"])
    def test_one_call_per_agent_and_per_replaced_state(self, adversary):
        traced, traced_calls = _counted_skno_run(adversary, "full")
        replaced = sum(
            (step.starter_post is not step.starter_pre)
            + (step.reactor_post is not step.reactor_pre)
            for step in traced.trace.steps)
        counted, counted_calls = _counted_skno_run(adversary, "counts-only")
        n = len(traced.final_configuration)
        assert counted.steps_executed == traced.steps_executed == 3000
        assert replaced > traced.steps_executed  # g replaces the starter on most steps
        assert traced_calls == counted_calls == n + replaced
