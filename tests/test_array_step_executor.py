"""Equivalence suite for the array backend's two chunk executors.

``_run_columnar`` executes every merged chunk with one of two executors:
the step executor walks it one step at a time over list copies of the
compiled tables (populations up to ``STEP_EXECUTOR_MAX_POPULATION``), the
wave executor runs it level by level as dependency waves (larger
populations).  The choice is a pure performance decision, so every
observable of a run must be identical under both: each
``ConvergenceResult``/``RunResult`` field, the decoded ring window, and
the adversary's RNG state and injection total.  Each grid test forces the
executor by patching the population limit; the property tests at the end
drive the wave executor directly on random merged chunks against a plain
per-step loop over the same tables, and the chunk prologue's merge of an
adversary schedule against an ``np.insert`` reference.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.adversary.omission import ColumnSchedule
from repro.engine.backends import array_backend
from repro.engine.backends.array_backend import (
    CompiledAdversary,
    CompiledProgram,
    _ChunkDependencies,
    _CountStreakTracker,
    _WaveExecutor,
    _merge_injections,
)
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.fastpath import AgentCountPredicate
from repro.engine.trace import ROW_FIELDS, StepLog
from repro.obs.recorder import MetricsRecorder, recording
from repro.protocols.registry import ExperimentSpec, build_cached
from repro.protocols.state import Configuration, StateInterner

EXECUTORS = ("step", "wave")

PROTOCOLS = ("epidemic", "leader-election", "parity", "or", "pairing", "threshold")


def force_executor(monkeypatch, executor: str) -> None:
    limit = 2 ** 62 if executor == "step" else 0
    monkeypatch.setattr(array_backend, "STEP_EXECUTOR_MAX_POPULATION", limit)


def build(protocol: str, model: str, n: int, adversary: str, scheduler: str,
          seed: int, **adversary_kwargs):
    """A fresh engine, initial configuration and predicate for one run."""
    spec = ExperimentSpec(
        protocol=protocol, population=n, model=model,
        omissions=0 if adversary == "none" else 2,
        adversary="bounded" if adversary == "none" else adversary,
        adversary_kwargs=adversary_kwargs, scheduler=scheduler)
    built = build_cached(spec)
    engine = SimulationEngine(
        built.program, built.model, built.make_scheduler(seed),
        adversary=built.make_adversary(seed + 1), backend="array")
    return engine, built.initial_configuration, built.make_predicate()


def observe(engine, result):
    """Every observable of a finished run, field by field."""
    observed = {field.name: getattr(result, field.name)
                for field in dataclasses.fields(result)}
    adversary = engine.adversary
    if adversary is not None:
        observed["adversary_rng"] = adversary._rng.getstate()
        observed["adversary_total_injected"] = adversary.total_injected
    return observed


def converge(monkeypatch, executor, *, protocol="epidemic", model="I3", n=6,
             adversary="none", scheduler="random", seed=0, max_steps=300,
             window=3, chunk=None, policy="counts-only"):
    force_executor(monkeypatch, executor)
    engine, initial, predicate = build(
        protocol, model, n, adversary, scheduler, seed)
    result = run_until_stable(
        engine, initial, predicate, max_steps=max_steps,
        stability_window=window, trace_policy=policy, ring_size=5,
        chunk_size=chunk)
    return observe(engine, result)


def execute(monkeypatch, executor, *, protocol="epidemic", model="I3", n=6,
            adversary="none", scheduler="random", seed=0, max_steps=300,
            chunk=None, policy="counts-only"):
    force_executor(monkeypatch, executor)
    engine, initial, _ = build(protocol, model, n, adversary, scheduler, seed)
    result = engine.execute(initial, max_steps, trace_policy=policy,
                            ring_size=5, chunk_size=chunk)
    return observe(engine, result)


def assert_same(run, monkeypatch, **kwargs):
    """``run`` under both executors; every observable must agree."""
    step, wave = (run(monkeypatch, executor, **kwargs)
                  for executor in EXECUTORS)
    assert step.keys() == wave.keys()
    for name in step:
        assert step[name] == wave[name], name
    return step


# ---------------------------------------------------------------------------
# grids over the catalog protocols, models and adversaries
# ---------------------------------------------------------------------------


MODEL_ADVERSARIES = (
    [("TW", "none"), ("IO", "none")]
    + [("I3", adversary) for adversary in ("none", "bounded", "no", "no1", "uo")])


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("model,adversary", MODEL_ADVERSARIES)
def test_run_until_stable_grid(monkeypatch, protocol, model, adversary):
    for n, window, chunk, policy in itertools.product(
            (6, 11), (0, 3), (1, 7, 4096), ("counts-only", "ring")):
        assert_same(converge, monkeypatch, protocol=protocol, model=model, adversary=adversary,
                    n=n, window=window, chunk=chunk, policy=policy, seed=n,
                    max_steps=120)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("model,adversary", MODEL_ADVERSARIES)
def test_execute_grid(monkeypatch, protocol, model, adversary):
    for n, chunk, policy in itertools.product(
            (6, 11), (1, 7, 4096), ("counts-only", "ring")):
        assert_same(execute, monkeypatch, protocol=protocol, model=model, adversary=adversary,
                    n=n, chunk=chunk, policy=policy, seed=n, max_steps=97)


# ---------------------------------------------------------------------------
# stop points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("adversary", ("none", "uo"))
def test_stop_mid_chunk(monkeypatch, adversary):
    result = assert_same(converge, monkeypatch, protocol="epidemic",
                         model="I3", n=11, adversary=adversary, window=4,
                         chunk=4096, max_steps=5_000)
    assert result["converged"]
    assert 0 < result["steps_executed"] < 4096


def test_stop_on_first_step_of_a_chunk(monkeypatch):
    # Round-robin and no adversary: the completing step does not depend on
    # the chunk size, so a chunk of one step less puts it first in chunk 2.
    kwargs = dict(protocol="epidemic", model="TW", n=11,
                  scheduler="round-robin", window=0, max_steps=5_000)
    reference = assert_same(converge, monkeypatch, **kwargs)
    completing = reference["steps_executed"]
    assert reference["converged"] and completing >= 3
    result = assert_same(converge, monkeypatch, chunk=completing - 1,
                         **kwargs)
    assert result["steps_executed"] == completing


@pytest.mark.parametrize("window", (0, 3))
def test_stop_on_an_already_converged_run(monkeypatch, window):
    """All agents informed from the start: window 0 stops before any step,
    a window of 3 after the third (inert) step."""
    def run(executor):
        force_executor(monkeypatch, executor)
        engine, _, predicate = build("epidemic", "I3", 6, "uo", "random", 5)
        informed = Configuration(["I"] * 6)
        return observe(engine, run_until_stable(
            engine, informed, predicate, max_steps=100,
            stability_window=window, trace_policy="ring", ring_size=5))

    step, wave = run("step"), run("wave")
    assert step == wave
    assert step["converged"] and step["steps_executed"] == window


def test_budget_runs_out_while_injections_are_discarded(monkeypatch):
    """Rule 2 of the column-schedule protocol: the budget ends inside the
    chunk, the adversary still plans (and pays RNG for) the injections that
    would leave no room for their scheduled interaction, and the executed
    chunk holds exactly the budget."""
    discarded = []

    def run(executor, max_steps):
        force_executor(monkeypatch, executor)
        engine, initial, _ = build("epidemic", "I3", 6, "uo", "random", 3,
                                   rate=0.9)
        plan = engine.adversary.plan_chunk_schedule_columns

        def spy(*args):
            schedule = plan(*args)
            discarded.append(schedule.discarded)
            return schedule

        engine.adversary.plan_chunk_schedule_columns = spy
        never = AgentCountPredicate(lambda state: False, target=1)
        return observe(engine, run_until_stable(
            engine, initial, never, max_steps=max_steps, trace_policy="ring",
            ring_size=5, chunk_size=40))

    for max_steps in range(20, 30):
        step, wave = run("step", max_steps), run("wave", max_steps)
        assert step == wave
        assert step["steps_executed"] == max_steps and not step["converged"]
    assert any(discarded), "the budget must truncate a planned schedule"


# ---------------------------------------------------------------------------
# executor selection and telemetry
# ---------------------------------------------------------------------------


def telemetry(n: int):
    engine, initial, predicate = build(
        "epidemic", "TW", n, "none", "random", 1)
    metrics = MetricsRecorder()
    with recording(metrics):
        run_until_stable(engine, initial, predicate, max_steps=20_000,
                         trace_policy="counts-only")
    return metrics.snapshot()


def test_small_population_runs_on_the_step_executor():
    snapshot = telemetry(6)
    assert snapshot["counters"].get("engine.array.step_runs") == 1
    assert "engine.array.segments" not in snapshot["counters"]
    assert "engine.array.segment_size" not in snapshot["timers"]


def test_large_population_runs_on_the_wave_executor():
    snapshot = telemetry(100_000)
    assert snapshot["counters"]["engine.array.segments"] > 0
    assert snapshot["timers"]["engine.array.segment_size"]["count"] == 1
    assert "engine.array.step_runs" not in snapshot["counters"]
    # The metrics keep their segment names but count waves: one per level
    # per chunk, and the 20,000 steps spread over them.
    waves = snapshot["counters"]["engine.array.segments"]
    chunks = -(-20_000 // array_backend.DEFAULT_ARRAY_CHUNK)
    assert chunks < waves < 5 * chunks
    mean_wave = snapshot["timers"]["engine.array.segment_size"]["total"]
    assert mean_wave == 20_000 / waves


# ---------------------------------------------------------------------------
# the wave executor on random merged chunks
# ---------------------------------------------------------------------------


@st.composite
def merged_chunks(draw):
    """A random merged chunk over 2..64 agents with its compiled tables.

    Agents repeat freely within the chunk; with table rows beyond the
    omission-free one, ``kinds`` picks a row per step (or is ``None``, a
    pass-through chunk).
    """
    n = draw(st.integers(2, 64))
    size = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 3))
    k = draw(st.integers(1, 120))
    starters = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    shifts = draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k))
    reactors = [(a + shift) % n for a, shift in zip(starters, shifts)]
    cells = rows * size * size
    tables = [draw(st.lists(st.integers(0, size - 1), min_size=cells,
                            max_size=cells)) for _ in range(2)]
    kinds = None
    if rows > 1 and draw(st.booleans()):
        kinds = draw(st.lists(st.integers(0, rows - 1), min_size=k,
                              max_size=k))
    codes = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
    return dict(n=n, size=size, rows=rows, starters=starters,
                reactors=reactors, tables=tables, kinds=kinds, codes=codes)


def levels_by_definition(starters, reactors):
    """1 + the larger level of the steps that last touched either agent."""
    last_level = {}
    levels = []
    for a, b in zip(starters, reactors):
        level = 1 + max(last_level.get(a, -1), last_level.get(b, -1))
        last_level[a] = last_level[b] = level
        levels.append(level)
    return levels


def wave_levels(chunk, k):
    levels = [0] * k
    for level, wave in enumerate(chunk.waves, start=1):
        for step in wave.tolist():
            levels[step] = level
    return levels


def reference_walk(chunk, mask, target, streak_target, count, consecutive):
    """A plain per-step loop over the same tables; stops like the engine."""
    values = list(chunk["codes"])
    size = chunk["size"]
    starter_table, reactor_table = chunk["tables"]
    kinds = chunk["kinds"] or [0] * len(chunk["starters"])
    rows = []
    stop = None
    for t, (a, b, row) in enumerate(zip(chunk["starters"],
                                        chunk["reactors"], kinds)):
        a_pre, b_pre = values[a], values[b]
        flat = row * size * size + a_pre * size + b_pre
        a_post = values[a] = starter_table[flat]
        b_post = values[b] = reactor_table[flat]
        rows.append([a, b, row, a_pre, b_pre, a_post, b_post])
        count += mask[a_post] - mask[a_pre] + mask[b_post] - mask[b_pre]
        consecutive = consecutive + 1 if count == target else 0
        if consecutive >= streak_target:
            stop = t + 1
            break
    return values, stop, count, consecutive, rows


def log_rows(log):
    """A step log's rows, one list per step."""
    return [log.rows[offset:offset + ROW_FIELDS]
            for offset in range(0, len(log.rows), ROW_FIELDS)]


def run_waves(chunk, tracker, log):
    """One ``_WaveExecutor.run`` over ``chunk``; returns (codes, stop)."""
    size = chunk["size"]
    interner = StateInterner(tuple(range(size)))
    starter_table, reactor_table = (np.asarray(table, dtype=np.int32)
                                    for table in chunk["tables"])
    compiled = CompiledProgram(interner, starter_table[:size * size],
                               reactor_table[:size * size])
    adversary = None
    if chunk["rows"] > 1:
        adversary = CompiledAdversary(
            None, {}, (), starter_table.reshape(chunk["rows"], -1),
            reactor_table.reshape(chunk["rows"], -1))
    codes = np.asarray(chunk["codes"], dtype=np.int32)
    executor = _WaveExecutor(codes, compiled, tracker, adversary, log)
    kinds = chunk["kinds"]
    if kinds is not None:
        kinds = np.asarray(kinds, dtype=np.int64)
    stop = executor.run(np.asarray(chunk["starters"], dtype=np.int64),
                        np.asarray(chunk["reactors"], dtype=np.int64), kinds)
    return codes.tolist(), stop


@settings(max_examples=100, deadline=None)
@given(chunk=merged_chunks())
def test_wave_levels_are_agent_disjoint_and_increasing(chunk):
    starters, reactors = chunk["starters"], chunk["reactors"]
    levels = wave_levels(
        _ChunkDependencies(np.asarray(starters, dtype=np.int64),
                           np.asarray(reactors, dtype=np.int64)),
        len(starters))
    assert levels == levels_by_definition(starters, reactors)
    by_level = {}
    for level, a, b in zip(levels, starters, reactors):
        by_level.setdefault(level, []).extend((a, b))
    for agents in by_level.values():
        assert len(agents) == len(set(agents))
    agent_levels = {}
    for level, a, b in zip(levels, starters, reactors):
        for agent in (a, b):
            assert agent_levels.get(agent, -1) < level
            agent_levels[agent] = level


@settings(max_examples=100, deadline=None)
@given(chunk=merged_chunks(), data=st.data())
def test_wave_execution_equals_a_per_step_loop(chunk, data):
    size, n = chunk["size"], chunk["n"]
    mask = data.draw(st.lists(st.integers(0, 1), min_size=size,
                              max_size=size))
    target = data.draw(st.integers(0, n))
    streak_target = data.draw(st.integers(1, 3))
    count = sum(mask[code] for code in chunk["codes"])
    consecutive = data.draw(st.integers(0, streak_target - 1))
    tracker = _CountStreakTracker(np.asarray(mask, dtype=np.int64), target,
                                  streak_target, count, consecutive)
    log = StepLog(128)
    codes, stop = run_waves(chunk, tracker, log)
    expected = reference_walk(chunk, mask, target, streak_target, count,
                              consecutive)
    assert (codes, stop, tracker.count, tracker.consecutive) == expected[:4]
    assert log_rows(log) == expected[4]


@settings(max_examples=100, deadline=None)
@given(chunk=merged_chunks(), data=st.data())
def test_stop_inside_a_non_final_level(chunk, data):
    """A stop after step ``t`` whose level is not the chunk's last: the
    executor has computed later levels' steps, but the codes and the ring
    hold exactly the first ``t + 1`` steps."""
    starters, reactors = chunk["starters"], chunk["reactors"]
    levels = levels_by_definition(starters, reactors)
    candidates = [t for t, level in enumerate(levels) if level < max(levels)]
    assume(candidates)
    t = data.draw(st.sampled_from(candidates))
    # An all-zero mask holds a zero target after every step, so a streak
    # of t + 1 completes exactly after step t.
    tracker = _CountStreakTracker(np.zeros(chunk["size"], dtype=np.int64),
                                  0, t + 1, 0, 0)
    log = StepLog(128)
    codes, stop = run_waves(chunk, tracker, log)
    expected_codes, expected_stop, _, _, rows = reference_walk(
        chunk, [0] * chunk["size"], 0, t + 1, 0, 0)
    assert stop == expected_stop == t + 1
    assert codes == expected_codes
    assert log_rows(log) == rows


# ---------------------------------------------------------------------------
# the chunk prologue's merge of an adversary schedule
# ---------------------------------------------------------------------------


@st.composite
def scheduled_chunks(draw):
    """A drawn chunk (int64 index arrays) and a column schedule for it.

    ``consumed`` may fall short of the drawn chunk, as when the step budget
    ends inside it; positions are non-decreasing gap indices below
    ``consumed`` and repeat freely; the schedule may inject nothing.
    """
    k = draw(st.integers(1, 40))
    consumed = draw(st.integers(1, k))
    starters = draw(st.lists(st.integers(0, 99), min_size=k, max_size=k))
    reactors = draw(st.lists(st.integers(0, 99), min_size=k, max_size=k))
    injected = draw(st.integers(0, 3 * consumed))
    column = st.lists(st.integers(0, 99), min_size=injected, max_size=injected)
    positions = sorted(draw(st.lists(st.integers(0, consumed - 1),
                                     min_size=injected, max_size=injected)))
    kinds = draw(st.lists(st.integers(0, 2), min_size=injected,
                          max_size=injected))
    schedule = ColumnSchedule(positions, draw(column), draw(column), kinds,
                              consumed, 0)
    return (schedule, np.asarray(starters, dtype=np.int64),
            np.asarray(reactors, dtype=np.int64))


def merge_by_insert(schedule, starters, reactors):
    """The reference merge: ``np.insert`` inserts repeated positions in order."""
    consumed = schedule.consumed
    positions = schedule.positions
    kinds = np.asarray(schedule.kinds, dtype=np.int64) + 1
    return (np.insert(starters[:consumed], positions, schedule.starters),
            np.insert(reactors[:consumed], positions, schedule.reactors),
            np.insert(np.zeros(consumed, dtype=np.int64), positions, kinds))


@settings(max_examples=200, deadline=None)
@given(case=scheduled_chunks())
@example(case=(ColumnSchedule([0, 0, 3, 3], [5, 6, 7, 8], [9, 10, 11, 12],
                              [0, 2, 1, 0], 4, 0),
               np.arange(6, dtype=np.int64), np.arange(6, dtype=np.int64) + 20))
@example(case=(ColumnSchedule([], [], [], [], 3, 0),
               np.arange(5, dtype=np.int64), np.arange(5, dtype=np.int64)))
def test_merge_equals_insert_reference(case):
    """Each injection lands before its gap, in list order, and the kinds
    column holds its table-stack row; a schedule that injects nothing
    passes the consumed prefix through with ``kinds`` ``None``."""
    schedule, starters, reactors = case
    merged_starters, merged_reactors, kinds = _merge_injections(
        schedule, starters, reactors)
    consumed = schedule.consumed
    if not schedule.starters:
        assert kinds is None
        assert merged_starters.tolist() == starters[:consumed].tolist()
        assert merged_reactors.tolist() == reactors[:consumed].tolist()
        return
    expected = merge_by_insert(schedule, starters, reactors)
    for merged, reference in zip((merged_starters, merged_reactors, kinds),
                                 expected):
        assert merged.dtype == np.int64
        assert merged.tolist() == reference.tolist()
