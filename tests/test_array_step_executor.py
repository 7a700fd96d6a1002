"""Equivalence suite for the array backend's two chunk executors.

``_run_columnar`` executes every merged chunk with one of two executors:
the step executor walks it one step at a time over list copies of the
compiled tables (populations up to ``STEP_EXECUTOR_MAX_POPULATION``), the
segment executor splits it into collision-free segments (larger
populations).  The choice is a pure performance decision, so every
observable of a run must be identical under both: each
``ConvergenceResult``/``RunResult`` field, the decoded ring window, and
the adversary's RNG state and injection total.  Each test forces the
executor by patching the population limit.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

np = pytest.importorskip("numpy")

from repro.engine.backends import array_backend
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.fastpath import AgentCountPredicate
from repro.obs.recorder import MetricsRecorder, recording
from repro.protocols.registry import ExperimentSpec, build_cached
from repro.protocols.state import Configuration

EXECUTORS = ("step", "segment")

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
    step, segment = (run(monkeypatch, executor, **kwargs)
                     for executor in EXECUTORS)
    assert step.keys() == segment.keys()
    for name in step:
        assert step[name] == segment[name], name
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

    step, segment = run("step"), run("segment")
    assert step == segment
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
        step, segment = run("step", max_steps), run("segment", max_steps)
        assert step == segment
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


def test_large_population_runs_on_the_segment_executor():
    snapshot = telemetry(100_000)
    assert snapshot["counters"]["engine.array.segments"] > 0
    assert snapshot["timers"]["engine.array.segment_size"]["count"] == 1
    assert "engine.array.step_runs" not in snapshot["counters"]
