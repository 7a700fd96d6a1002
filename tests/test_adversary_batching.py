"""Batched adversary protocol (column schedules) == per-step interleaving.

Two layers of pins:

* **Protocol layer.**  For every adversary class, the column schedule the
  engine plans for a chunk (``plan_chunk_schedule_columns``, or the
  generic walk :func:`~repro.adversary.omission.plan_columns_per_step`
  for adversaries without one), merged into the chunk by position, is
  exactly the interaction sequence of the per-step interleaving —
  injections consulted once per scheduled draw via ``interactions_before``,
  truncated to the live budget with one unit reserved for the scheduled
  interaction — and leaves the adversary in the identical internal state
  (RNG position *and* omission budget, including budget consumed by
  injections the truncation discarded).  Checked property-based over
  random chunkings, budgets and seeds.  Every catalog column walk also
  equals the generic walk, ``consumed`` and ``discarded`` included.  No
  numpy needed: the array backend merges the same schedules.

* **Engine layer.**  With the single chunked ``run_core`` loop, the
  executed run is independent of ``chunk_size`` for every adversary class
  × scheduler class × trace policy — ``chunk_size=1`` being the per-step
  loop — including budget exhaustion mid-chunk, stop conditions firing
  mid-chunk, scripted-scheduler exhaustion mid-chunk and the
  omission-budget-exactly-consumed boundary.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adversary.omission import (
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    NoOmissionAdversary,
    UOAdversary,
    plan_columns_per_step,
)
from repro.engine.engine import SimulationEngine
from repro.engine.fastpath import merge_columns, plan_chunk
from repro.interaction.models import get_model
from repro.interaction.omissions import REACTOR_OMISSION
from repro.protocols.catalog.epidemic import (
    INFORMED,
    SUSCEPTIBLE,
    OneWayEpidemicProtocol,
)
from repro.protocols.state import Configuration
from repro.scheduling.graph_scheduler import random_graph_scheduler, ring_scheduler
from repro.scheduling.runs import Interaction, Run, interactions_from_columns
from repro.scheduling.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    WeightedPairScheduler,
)

MODEL = get_model("I3")  # one-way, admits omissions


class PerStepOnlyAdversary:
    """Duck-typed adversary speaking only the per-step protocol.

    Exercises the engine's generic walk (:func:`plan_columns_per_step`):
    floods ``flood`` omissive interactions before every scheduled one,
    deterministically.
    """

    def __init__(self, flood=2):
        self.flood = flood

    def interactions_before(self, step, scheduled, n):
        return [
            Interaction((step + i) % n, ((step + i) % n + 1) % n,
                        omission=REACTOR_OMISSION)
            for i in range(self.flood)
        ]


class ScheduledMirrorAdversary:
    """Duck-typed adversary that reads the scheduled draw it precedes.

    Before every scheduled interaction with an even starter it injects the
    mirrored pair, omissive; so the engine must hand the generic walk the
    real drawn chunk, not placeholders.
    """

    def interactions_before(self, step, scheduled, n):
        if scheduled.starter % 2:
            return []
        return [Interaction(scheduled.reactor, scheduled.starter,
                            omission=REACTOR_OMISSION)]


# (name, factory(seed)) covering every adversary class, fresh per call.
ADVERSARIES = [
    ("none", lambda seed: None),
    ("no-omission", lambda seed: NoOmissionAdversary()),
    ("uo", lambda seed: UOAdversary(MODEL, rate=0.6, max_per_gap=4, seed=seed)),
    ("no", lambda seed: NOAdversary(
        MODEL, active_steps=37, rate=0.7, max_per_gap=3, seed=seed)),
    ("bounded", lambda seed: BoundedOmissionAdversary(
        MODEL, max_omissions=5, rate=0.5, seed=seed)),
    ("no1", lambda seed: NO1Adversary(MODEL, inject_at=11, seed=seed)),
    ("duck-per-step", lambda seed: PerStepOnlyAdversary(flood=2)),
    ("duck-reads-scheduled", lambda seed: ScheduledMirrorAdversary()),
]

SCRIPT = Run([Interaction(i % 9, (i + 1 + i % 3) % 9) for i in range(150)])

# (name, factory()) covering every scheduler class, fresh per call.
SCHEDULERS = [
    ("random", lambda: RandomScheduler(10, seed=5)),
    ("round-robin", lambda: RoundRobinScheduler(10)),
    ("weighted", lambda: WeightedPairScheduler(
        10, weights={(0, 1): 3.0, (1, 2): 1.0, (3, 0): 0.5, (4, 5): 2.0}, seed=21)),
    ("scripted+continuation", lambda: ScriptedScheduler(
        SCRIPT, continuation=RoundRobinScheduler(9))),
    ("scripted-finite", lambda: ScriptedScheduler(SCRIPT)),
    ("graph-ring", lambda: ring_scheduler(10, seed=3)),
    ("graph-random", lambda: random_graph_scheduler(10, 0.4, seed=2)),
]

POLICIES = ("full", "counts-only", "ring")


def build_engine(adversary_factory, scheduler_factory, seed):
    return SimulationEngine(
        OneWayEpidemicProtocol(), MODEL, scheduler_factory(),
        adversary=adversary_factory(seed))


def initial(n=10):
    return Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))


def run_result_key(result):
    return (
        result.steps,
        result.omissions,
        result.final_configuration,
        result.stopped,
        None if result.trace is None else list(result.trace),
        result.last_steps,
    )


# ---------------------------------------------------------------------------
# engine layer: chunk independence over the full class product
# ---------------------------------------------------------------------------


class TestChunkIndependenceEveryClassProduct:
    @pytest.mark.parametrize("adversary_name,adversary_factory", ADVERSARIES,
                             ids=lambda x: x if isinstance(x, str) else "")
    @pytest.mark.parametrize("scheduler_name,scheduler_factory", SCHEDULERS,
                             ids=lambda x: x if isinstance(x, str) else "")
    @pytest.mark.parametrize("policy", POLICIES)
    def test_batched_equals_per_step(
        self, adversary_name, adversary_factory, scheduler_name,
        scheduler_factory, policy,
    ):
        reference = build_engine(adversary_factory, scheduler_factory, seed=9).execute(
            initial(), 300, trace_policy=policy, ring_size=16, chunk_size=1)
        for chunk_size in (2, 7, 64, 1024):
            result = build_engine(adversary_factory, scheduler_factory, seed=9).execute(
                initial(), 300, trace_policy=policy, ring_size=16,
                chunk_size=chunk_size)
            assert run_result_key(result) == run_result_key(reference), (
                f"chunk_size={chunk_size} diverged from per-step execution")

    @pytest.mark.parametrize("adversary_name,adversary_factory", ADVERSARIES,
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_adversary_end_state_matches_per_step(
        self, adversary_name, adversary_factory,
    ):
        """The adversary's own budget accounting is chunking-independent."""
        def total_injected(chunk_size):
            engine = build_engine(adversary_factory, SCHEDULERS[0][1], seed=4)
            engine.execute(initial(), 220, trace_policy="counts-only",
                           chunk_size=chunk_size)
            return getattr(engine.adversary, "total_injected", None)

        reference = total_injected(1)
        for chunk_size in (3, 64, 1024):
            assert total_injected(chunk_size) == reference


class TestStopConditionMidChunk:
    @pytest.mark.parametrize("adversary_name,adversary_factory", ADVERSARIES,
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_stop_condition_identical_across_chunk_sizes(
        self, adversary_name, adversary_factory,
    ):
        stop = lambda c: c.count(INFORMED) >= 5  # noqa: E731

        def run(chunk_size):
            return build_engine(adversary_factory, SCHEDULERS[0][1], seed=7).execute(
                initial(), 5_000, stop_condition=stop, trace_policy="full",
                chunk_size=chunk_size)

        reference = run(1)
        for chunk_size in (2, 64, 1024):
            assert run_result_key(run(chunk_size)) == run_result_key(reference)

    def test_stop_mid_chunk_adversary_lookahead_is_chunk_bounded(self):
        """The documented stop-condition contract: run results are
        chunking-independent, but the adversary plans the current chunk
        before the stop fires, so its internal state may sit up to one
        chunk ahead of the last executed interaction (the Definitions 1/2
        rewriter rewriting ahead of the execution prefix).  chunk_size=1
        reproduces the per-step state exactly."""
        def run(chunk_size):
            adversary = BoundedOmissionAdversary(
                MODEL, max_omissions=1000, rate=1.0, seed=3)
            engine = SimulationEngine(
                OneWayEpidemicProtocol(), MODEL, RoundRobinScheduler(10),
                adversary=adversary)
            seen = {"count": 0}

            def stop(_configuration):
                seen["count"] += 1
                return seen["count"] >= 3

            result = engine.execute(initial(), 10_000, stop_condition=stop,
                                    trace_policy="full", chunk_size=chunk_size)
            return result, adversary

        reference, per_step_adversary = run(1)
        assert reference.steps == 3
        # rate=1.0: [inject, scheduled, inject] executed; the per-step loop
        # consulted the adversary for exactly the two started gaps.
        assert per_step_adversary.total_injected == 2

        for chunk_size in (4, 64):
            result, adversary = run(chunk_size)
            # Run results never move...
            assert run_result_key(result) == run_result_key(reference)
            # ...but the whole chunk was planned before the stop fired:
            # one injection per gap, for min(chunk, budget-limited) gaps.
            assert adversary.total_injected == min(chunk_size, 5_000)


class TestBudgetExhaustionMidChunk:
    def test_injections_consume_budget_mid_chunk(self):
        """rate=1.0 bounded adversary: one injection per gap until the step
        budget starves one — which is discarded but still charged."""
        def run(chunk_size):
            adversary = BoundedOmissionAdversary(
                MODEL, max_omissions=100, rate=1.0, seed=3)
            engine = SimulationEngine(
                OneWayEpidemicProtocol(), MODEL, RoundRobinScheduler(10),
                adversary=adversary)
            result = engine.execute(
                initial(), 5, trace_policy="full", chunk_size=chunk_size)
            return result, adversary

        reference, reference_adversary = run(1)
        assert reference.steps == 5
        # Gaps 0 and 1 fit injection+scheduled (4 steps); gap 2 has 1 unit
        # of budget left: its injection is discarded, the scheduled one runs.
        assert reference.omissions == 2
        assert reference_adversary.total_injected == 3
        for chunk_size in (2, 3, 64):
            result, adversary = run(chunk_size)
            assert run_result_key(result) == run_result_key(reference)
            assert adversary.total_injected == reference_adversary.total_injected

    def test_flooding_duck_adversary_budget_semantics(self):
        """The documented seed semantics (pinned in test_engine.py) survive
        the unified chunked loop at every chunk size."""
        for chunk_size in (1, 2, 64):
            engine = SimulationEngine(
                OneWayEpidemicProtocol(), get_model("I1"), RoundRobinScheduler(3),
                adversary=PerStepOnlyAdversary(flood=3))
            trace = engine.execute(
                Configuration([INFORMED, SUSCEPTIBLE, SUSCEPTIBLE]), 2,
                trace_policy="full", chunk_size=chunk_size).trace
            steps = list(trace)
            assert len(steps) == 2
            assert steps[0].interaction.is_omissive
            assert not steps[1].interaction.is_omissive  # the scheduled one


class TestOmissionBudgetExactlyConsumed:
    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 64])
    def test_bounded_adversary_exact_exhaustion(self, chunk_size):
        """max_omissions hit exactly mid-run: injections stop, the run
        continues as pass-through, and the RNG is no longer consumed."""
        adversary = BoundedOmissionAdversary(MODEL, max_omissions=3, rate=1.0, seed=1)
        engine = SimulationEngine(
            OneWayEpidemicProtocol(), MODEL, RoundRobinScheduler(10),
            adversary=adversary)
        result = engine.execute(initial(), 100, trace_policy="full",
                                chunk_size=chunk_size)
        assert adversary.total_injected == 3
        assert result.omissions == 3
        # rate=1.0 injects at gaps 0,1,2: interactions 0,2,4 are omissive.
        omissive_positions = [
            index for index, step in enumerate(result.trace)
            if step.interaction.is_omissive]
        assert omissive_positions == [0, 2, 4]
        # After exhaustion the per-step protocol stops drawing the RNG; the
        # batched pass-through must too.
        state_after = adversary._rng.getstate()
        reference = BoundedOmissionAdversary(MODEL, max_omissions=3, rate=1.0, seed=1)
        for gap in range(5):
            reference.interactions_before(
                step=gap, scheduled=Interaction(0, 1), n=10)
        assert state_after == reference._rng.getstate()

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_no1_single_omission_pinned_step(self, chunk_size):
        adversary = NO1Adversary(MODEL, inject_at=11, pair=(2, 3), seed=0)
        engine = SimulationEngine(
            OneWayEpidemicProtocol(), MODEL, RoundRobinScheduler(10),
            adversary=adversary)
        result = engine.execute(initial(), 60, trace_policy="full",
                                chunk_size=chunk_size)
        assert adversary.total_injected == 1
        assert result.omissions == 1
        steps = list(result.trace)
        # 11 scheduled interactions precede the injection.
        assert steps[11].interaction.pair == (2, 3)
        assert steps[11].interaction.is_omissive


# ---------------------------------------------------------------------------
# protocol layer: merged column schedules == per-step interleaving
# ---------------------------------------------------------------------------


def per_step_interleaving(adversary, start_step, scheduled, n, budget):
    """Independent reference: the per-step loop's interleaving for a chunk."""
    out = []
    consumed = 0
    executed = 0
    for offset, scheduled_interaction in enumerate(scheduled):
        if budget is not None and budget - executed < 1:
            break
        injected = adversary.interactions_before(
            step=start_step + offset, scheduled=scheduled_interaction, n=n)
        if budget is not None:
            room = budget - executed - 1
            injected = injected[:room]
        out.extend(injected)
        out.append(scheduled_interaction)
        executed += len(injected) + 1
        consumed += 1
    return out, consumed


def adversary_state(adversary):
    rng = getattr(adversary, "_rng", None)
    return (
        getattr(adversary, "total_injected", None),
        None if rng is None else rng.getstate(),
    )


PLANFUL = [name for name, _ in ADVERSARIES if name != "none"]
CATALOG = ["no-omission", "uo", "no", "bounded", "no1"]
seeds = st.integers(min_value=0, max_value=10_000)
populations = st.integers(min_value=3, max_value=12)
chunkings = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8)
budgets = st.one_of(st.none(), st.integers(min_value=0, max_value=250))


def make_adversary(name, seed):
    return dict(ADVERSARIES)[name](seed)


# The catalog walk test's adversary settings: (model, rate, max_per_gap,
# NO's active_steps).  I3 admits one omissive kind and T3 three, so the
# kind draw's rejection sampling runs only under T3.  Rate 50 floods
# nearly every gap to max_per_gap, so a budget just below the budget-free
# threshold really truncates.
WALK_MODELS = {"I3": MODEL, "T3": get_model("T3")}
walk_settings = st.tuples(
    st.sampled_from(sorted(WALK_MODELS)),
    st.sampled_from((0.0, 0.25, 0.6, 50.0)),
    st.sampled_from((0, 1, 3, 4)), st.integers(min_value=0, max_value=130))


def make_walk_adversary(name, seed, walk):
    """A catalog adversary with the drawn walk settings, where it takes them."""
    model_name, rate, max_per_gap, active_steps = walk
    model = WALK_MODELS[model_name]
    if name == "uo":
        return UOAdversary(model, rate=rate, max_per_gap=max_per_gap, seed=seed)
    if name == "no":
        return NOAdversary(model, active_steps=active_steps, rate=rate,
                           max_per_gap=max_per_gap, seed=seed)
    if name == "bounded":
        return BoundedOmissionAdversary(model, max_omissions=5, rate=rate, seed=seed)
    if name == "no1":
        return NO1Adversary(model, inject_at=11, seed=seed)
    return make_adversary(name, seed)


class TestColumnProtocolEquivalence:
    @pytest.mark.parametrize("name", PLANFUL)
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=populations, chunking=chunkings, budget=budgets)
    def test_merged_columns_equal_per_step_interleaving(
        self, name, seed, n, chunking, budget,
    ):
        """Emulates the engine's chunk loop against the per-step reference
        in lockstep: identical interaction sequences AND identical
        adversary end state, whatever the chunking and wherever the budget
        lands."""
        batched = make_adversary(name, seed)
        reference = make_adversary(name, seed)
        planner = plan_chunk(batched)
        stream = RandomScheduler(n, seed=seed + 1)
        step = 0
        remaining = budget
        for chunk_length in chunking:
            if remaining is not None:
                chunk_length = min(chunk_length, remaining)
            if chunk_length == 0:
                break
            columns = stream.next_columns(step, chunk_length)
            chunk = interactions_from_columns(*columns)
            plan = interactions_from_columns(*planner(step, *columns, n, remaining))
            expected, _ = per_step_interleaving(
                reference, step, chunk, n, remaining)
            assert plan == expected
            assert adversary_state(batched) == adversary_state(reference)
            step += len(chunk)
            if remaining is not None:
                remaining -= len(plan)
        assert adversary_state(batched) == adversary_state(reference)

    @pytest.mark.parametrize("name", CATALOG)
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(min_value=2, max_value=12),
           start=st.integers(min_value=0, max_value=60),
           length=st.integers(min_value=0, max_value=60), budget=budgets,
           walk=walk_settings,
           straddle=st.one_of(st.none(), st.integers(min_value=-2, max_value=2)))
    @example(seed=3, n=2, start=10, length=50, budget=None,
             walk=("T3", 0.6, 4, 30), straddle=None)
    @example(seed=4, n=5, start=0, length=40, budget=None,
             walk=("T3", 50.0, 3, 25), straddle=0)
    @example(seed=5, n=5, start=0, length=40, budget=None,
             walk=("I3", 50.0, 3, 25), straddle=-1)
    def test_catalog_walk_equals_generic_walk(
        self, name, seed, n, start, length, budget, walk, straddle,
    ):
        """Every catalog column walk equals the generic walk over its
        ``interactions_before``: columns, consumed, discarded and the
        adversary's end state.  ``straddle`` puts the budget within two
        steps of ``(1 + max_per_gap) * length``, where the UO walk switches
        between its budget-free and its checked loop."""
        max_per_gap = walk[2]
        if straddle is not None:
            budget = max(0, (1 + max_per_gap) * length + straddle)
        catalog = make_walk_adversary(name, seed, walk)
        generic = make_walk_adversary(name, seed, walk)
        chunk = RandomScheduler(n, seed=seed + 2).next_interactions(0, length)
        got = catalog.plan_chunk_schedule_columns(start, length, n, budget)
        expected = plan_columns_per_step(
            generic, start, chunk, n, budget,
            getattr(generic, "_omissive_kinds", ()))
        assert got == expected
        assert adversary_state(catalog) == adversary_state(generic)

    def test_discarded_injections_still_charge_the_omission_budget(self):
        adversary = BoundedOmissionAdversary(MODEL, max_omissions=10, rate=1.0, seed=0)
        # Budget 5: gaps 0 and 1 keep their injections (4 executed), gap 2
        # has 1 unit left — injection discarded, scheduled kept; gap 3 is
        # not consumed at all.
        schedule = adversary.plan_chunk_schedule_columns(0, 4, 6, 5)
        assert schedule.consumed == 3
        assert schedule.discarded == 1
        assert schedule.positions == [0, 1]
        assert len(schedule.starters) + schedule.consumed == 5
        assert adversary.total_injected == 3  # the discarded one still counted

    def test_plan_on_empty_chunk_is_empty_and_free(self):
        for name in PLANFUL:
            adversary = make_adversary(name, 3)
            before = adversary_state(adversary)
            assert plan_chunk(adversary)(0, [], [], None, 5, 100) == ([], [], None)
            assert adversary_state(adversary) == before

    def test_zero_budget_consumes_nothing(self):
        for name in PLANFUL:
            adversary = make_adversary(name, 3)
            columns = RoundRobinScheduler(5).next_columns(0, 4)
            before = adversary_state(adversary)
            assert plan_chunk(adversary)(0, *columns, 5, 0) == ([], [], None)
            assert adversary_state(adversary) == before


class TestRingWindowIsTheFullTraceTail:
    @pytest.mark.parametrize("chunk_size", [1, 7, 256])
    @pytest.mark.parametrize("name", CATALOG)
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, max_steps=st.integers(min_value=0, max_value=600),
           ring_size=st.integers(min_value=1, max_value=40))
    def test_ring_window_is_the_full_trace_tail(
        self, name, chunk_size, seed, max_steps, ring_size,
    ):
        """A ``ring`` run keeps exactly the last ``ring_size`` steps of the
        same seeded ``full`` run, with their global indices."""
        def run(policy):
            engine = SimulationEngine(
                OneWayEpidemicProtocol(), MODEL, RandomScheduler(10, seed=seed),
                adversary=make_adversary(name, seed))
            return engine.execute(initial(), max_steps, trace_policy=policy,
                                  ring_size=ring_size, chunk_size=chunk_size)

        full, ring = run("full"), run("ring")
        tail = full.trace.steps[-ring_size:]
        assert ring.last_steps == tail
        assert [step.index for step in ring.last_steps] == list(
            range(len(full.trace) - len(tail), len(full.trace)))


class TestNOPassThroughFastPath:
    def test_past_active_steps_consumes_no_rng(self):
        adversary = NOAdversary(MODEL, active_steps=10, rate=0.9, seed=1)
        state = random.Random(1).getstate()
        assert adversary._rng.getstate() == state
        schedule = adversary.plan_chunk_schedule_columns(10, 30, 8, None)
        assert schedule.consumed == 30
        assert schedule.starters == [] and schedule.discarded == 0
        assert adversary._rng.getstate() == state  # untouched

    def test_active_boundary_inside_chunk(self):
        """A chunk straddling active_steps: geometric walk for the head,
        pure pass-through for the tail — equal to the per-step reference."""
        batched = NOAdversary(MODEL, active_steps=5, rate=0.8, max_per_gap=3, seed=2)
        reference = NOAdversary(MODEL, active_steps=5, rate=0.8, max_per_gap=3, seed=2)
        columns = RoundRobinScheduler(8).next_columns(0, 20)
        chunk = interactions_from_columns(*columns)
        schedule = batched.plan_chunk_schedule_columns(0, 20, 8, None)
        assert schedule.consumed == 20
        assert schedule.positions and max(schedule.positions) < 5
        expected, consumed = per_step_interleaving(reference, 0, chunk, 8, None)
        assert consumed == 20
        merged = merge_columns(*columns, schedule, batched._omissive_kinds)
        assert interactions_from_columns(*merged) == expected
        assert adversary_state(batched) == adversary_state(reference)


class TestThirdPartyAdversarySeesScheduledDraws:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_runs_identical_across_chunk_sizes(self, policy):
        def run(chunk_size):
            engine = SimulationEngine(
                OneWayEpidemicProtocol(), MODEL, RandomScheduler(10, seed=5),
                adversary=ScheduledMirrorAdversary())
            return engine.execute(initial(), 400, trace_policy=policy,
                                  ring_size=16, chunk_size=chunk_size)

        assert run_result_key(run(256)) == run_result_key(run(1))

    def test_injections_mirror_the_scheduled_draw_they_precede(self):
        engine = SimulationEngine(
            OneWayEpidemicProtocol(), MODEL, RandomScheduler(10, seed=5),
            adversary=ScheduledMirrorAdversary())
        steps = [step.interaction for step in
                 engine.execute(initial(), 400, trace_policy="full").trace]
        injected = [index for index, interaction in enumerate(steps)
                    if interaction.is_omissive]
        assert injected, "even starters occur, so injections must too"
        for index in injected:
            scheduled = steps[index + 1]
            assert not scheduled.is_omissive
            assert scheduled.starter % 2 == 0
            assert steps[index].pair == (scheduled.reactor, scheduled.starter)
        # Every scheduled draw with an even starter got its mirror (the
        # last step's may have been discarded for budget).
        for index, interaction in enumerate(steps[:-1]):
            if not interaction.is_omissive and interaction.starter % 2 == 0:
                assert index > 0 and steps[index - 1].is_omissive
