"""Batch experiment runner.

Most of the benchmark harness follows the same pattern: run the same system
(program, model, adversary) with many random-scheduler seeds, check a
per-run success criterion, and aggregate convergence statistics.  This
module factors that pattern out so benchmarks and integration tests stay
declarative.

A system is described by one picklable
:class:`~repro.protocols.registry.ExperimentSpec` (protocol × simulator ×
model × omission adversary × scheduler, by registry key); a spec plus a
seed fixes a run, and :func:`run_spec` executes it.  Runs are sequential
unless ``jobs > 1`` and ``runs > 1``; then they fan out over a
:class:`~concurrent.futures.ProcessPoolExecutor` running batches of
:func:`run_encoded_batch`, each worker resolving the spec against its own
imported registries.  The processes sidestep the interpreter lock at the
cost of shipping every result back.  A caller that runs many experiments
(the campaign drain, one per cell) forks one pool with
:func:`start_process_pool` and passes it to every call as ``pool=``;
without one, each call forks and joins a pool of its own.

For short runs that shipping dominates: ``run_chunk=K`` ships seeds in
batches of ``K`` consecutive run indices per executor task, amortizing
task submission and result transfer over the whole batch — one future,
one pickled descriptor, instead of ``K`` of each.  Batches are merged
per-batch in submission order, so the aggregate stays deterministic.
Each batch crosses the process boundary through
:mod:`repro.engine.transport`: its counts-only results come back as
fixed-width int64 rows inside the pickled descriptor, with an overflow
dict for traces and ring dumps.

Whatever the chunking, results merge in run-index order, so for a given
spec and seed the aggregate :class:`ExperimentResult` is identical across
sequential and process execution, across every ``run_chunk``, and on an
own or a shared process pool.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.engine.convergence import ConvergenceResult, run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.transport import EncodedBatch, decode_batch, encode_batch
from repro.obs.recorder import NULL_RECORDER, Recorder, get_recorder, set_recorder
from repro.protocols.registry import ExperimentSpec, build_cached, resolved_spec

#: Trailing windows kept per aggregate result under the ``ring`` policy
#: (memory bound: windows are ring-size-bounded, but runs are not).
MAX_FAILURE_DUMPS = 3


@dataclass
class ExperimentResult:
    """Aggregate outcome of repeated runs of the same system."""

    runs: int
    successes: int
    convergence_steps: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Under the ``ring`` trace policy: ``(run_index, last_steps)`` for the
    #: first :data:`MAX_FAILURE_DUMPS` failed runs, so callers (the CLI crash
    #: dump) can show what the run was doing when it failed to converge.
    failure_dumps: List[tuple] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        """Fraction of runs that satisfied the success criterion."""
        if self.runs == 0:
            return 0.0
        return self.successes / self.runs

    @property
    def all_succeeded(self) -> bool:
        return self.runs > 0 and self.successes == self.runs

    @property
    def mean_convergence_steps(self) -> Optional[float]:
        """Mean number of interactions to convergence over successful runs."""
        if not self.convergence_steps:
            return None
        return statistics.fmean(self.convergence_steps)

    @property
    def median_convergence_steps(self) -> Optional[float]:
        if not self.convergence_steps:
            return None
        return statistics.median(self.convergence_steps)

    @property
    def max_convergence_steps(self) -> Optional[int]:
        if not self.convergence_steps:
            return None
        return max(self.convergence_steps)

    def summary(self) -> str:
        """One-line human-readable summary."""
        mean = self.mean_convergence_steps
        mean_text = f"{mean:.0f}" if mean is not None else "-"
        return (
            f"runs={self.runs} success={self.successes}/{self.runs} "
            f"mean-steps={mean_text}"
        )

    def to_dict(self) -> dict:
        """Plain-data form for persistence (the campaign result store).

        ``failure_dumps`` is deliberately dropped: trailing
        :class:`~repro.engine.trace.TraceStep` windows are live objects, and
        stores hold only JSON-serialisable data.
        """
        return {
            "runs": self.runs,
            "successes": self.successes,
            "convergence_steps": list(self.convergence_steps),
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result persisted by :meth:`to_dict`."""
        return cls(
            runs=data["runs"],
            successes=data["successes"],
            convergence_steps=list(data.get("convergence_steps", ())),
            failures=list(data.get("failures", ())),
        )


def run_spec(
    spec: ExperimentSpec,
    run_index: int,
    base_seed: int,
    max_steps: int,
    stability_window: int,
    trace_policy: str,
    ring_size: Optional[int] = None,
    materialize_final: bool = True,
) -> ConvergenceResult:
    """Execute one seeded run of ``spec``: the one run path.

    :func:`repeat_experiment` (directly, or through
    :func:`run_spec_batch` on the process fan-out) and ``repro run``
    execute their runs here.  Top-level by design: the process fan-out
    ships the batch worker by qualified name plus its picklable
    arguments.  The spec build
    (protocol, simulator, initial configuration, prepared predicate) and
    the array backend's compiled tables are memoised per process, and
    resolving an ``auto`` spec already fills both memos under the
    resolved spec.  So a planned
    cell's runs reuse the planner's objects, in this process and in
    workers forked after planning; a worker that does not inherit them
    builds them once, at O(distinct states) Python calls.

    The scheduler, adversary and predicate, by contrast, are built fresh
    here for *every* run.  For the adversary this is load-bearing, not just
    hygiene: a stop condition ending a run mid-chunk leaves the adversary's
    internal state (RNG position, omission-budget counters) planned up to
    one chunk ahead of the last executed interaction (see
    :mod:`repro.engine.fastpath`), so an instance carried over from such a
    run would start the next run from a drifted position.  Pinned by
    ``tests/test_experiment_fresh_state.py``.

    A spec still carrying ``backend="auto"`` is resolved here as a last
    line of defence (the CLI and campaign planner resolve earlier, before
    any hashing); resolution is deterministic in the spec and trace policy,
    so every worker pins the same concrete backend.
    """
    spec, _ = resolved_spec(spec, trace_policy)
    built = build_cached(spec)
    seed = base_seed + run_index
    engine = SimulationEngine(
        built.program,
        built.model,
        built.make_scheduler(seed),
        adversary=built.make_adversary(seed),
        backend=spec.backend,
    )
    return run_until_stable(
        engine,
        built.initial_configuration,
        built.make_predicate(),
        max_steps=max_steps,
        stability_window=stability_window,
        trace_policy=trace_policy,
        ring_size=ring_size,
        chunk_size=spec.chunk_size,
        materialize_final=materialize_final,
    )


def run_spec_batch(
    spec: ExperimentSpec,
    start_index: int,
    count: int,
    base_seed: int,
    max_steps: int,
    stability_window: int,
    trace_policy: str,
    ring_size: Optional[int] = None,
    materialize_final: bool = True,
) -> List[ConvergenceResult]:
    """Execute ``count`` consecutive seeded runs of ``spec`` in one worker task.

    One process fan-out task (:func:`run_encoded_batch` encodes the list
    this returns) covers run indices ``start_index .. start_index +
    count - 1``, amortizing the per-run dispatch overhead that dominates
    short runs.  Results come back in run-index order.
    """
    return [
        run_spec(
            spec, start_index + offset, base_seed, max_steps, stability_window,
            trace_policy, ring_size, materialize_final)
        for offset in range(count)
    ]


def run_encoded_batch(
    spec: ExperimentSpec,
    start_index: int,
    count: int,
    base_seed: int,
    max_steps: int,
    stability_window: int,
    trace_policy: str,
    ring_size: Optional[int] = None,
) -> EncodedBatch:
    """:func:`run_spec_batch` through the columnar encoder.

    The process fan-out's one worker function: the batch's
    columnar-eligible results come back as int64 rows on the returned
    descriptor, everything else on its overflow dict
    (:func:`~repro.engine.transport.encode_batch`).  The parent never
    reads ``result.final`` of a shipped result, so no run materialises it.
    """
    return encode_batch(run_spec_batch(
        spec, start_index, count, base_seed, max_steps, stability_window,
        trace_policy, ring_size, False))


def check_fanout(jobs: int, run_chunk: int) -> None:
    """Reject invalid fan-out settings with a :class:`ValueError`.

    Checks only the settings, so callers can run it before any work
    starts.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if run_chunk < 1:
        raise ValueError("run_chunk must be at least 1")


def start_process_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of ``workers`` run workers, forked now, on this thread.

    Under the ``fork`` start method the pool forks all of its workers at
    its first submit, so a no-op submit here fixes *when* and *from which
    thread* they are forked: a caller that starts the pool before it
    starts its own threads forks before any of them can hold a lock the
    workers would copy.  Each worker installs the
    ``NULL_RECORDER``: a forked worker would otherwise inherit the
    parent's recorder, whose lock another parent thread may hold at fork
    time (see :mod:`repro.obs.recorder`).
    """
    pool = ProcessPoolExecutor(max_workers=workers,
                               initializer=_install_null_recorder)
    # Its result carries nothing: a worker that fails to start breaks the
    # pool, and the first real batch raises BrokenProcessPool.
    pool.submit(_install_null_recorder)
    return pool


def repeat_experiment(
    spec: ExperimentSpec,
    runs: int = 10,
    max_steps: int = 100_000,
    stability_window: int = 0,
    base_seed: int = 0,
    validate: Optional[Callable[[ConvergenceResult], Optional[str]]] = None,
    jobs: int = 1,
    trace_policy: Optional[str] = None,
    ring_size: Optional[int] = None,
    run_chunk: int = 1,
    *,
    pool: Optional[Executor] = None,
) -> ExperimentResult:
    """Run ``spec`` ``runs`` times, run ``i`` with scheduler seed ``base_seed + i``.

    A run "succeeds" when the spec's predicate stabilises within
    ``max_steps`` interactions.  Every run builds fresh schedulers,
    adversaries and predicates from the spec (:func:`run_spec`), so runs
    share nothing mutable.  Invalid fan-out settings raise
    :class:`ValueError` (:func:`check_fanout`).

    Parameters
    ----------
    validate:
        Optional extra per-run validation executed on the
        :class:`ConvergenceResult`; it returns ``None`` when the run is
        acceptable, or an error string which marks the run as failed (used
        e.g. to verify the simulation matching on top of convergence).
        Always runs in the parent process, so under the full trace each
        fanned-out run's trace is pickled back before it is checked.
    jobs:
        Number of worker processes for the per-seed fan-out; ``jobs > 1``
        with ``runs > 1`` runs on a process pool, anything else runs
        sequentially.  Runs are merged back in run-index order, so the
        aggregate result is deterministic and identical to the sequential
        one.
    trace_policy:
        Trace policy forwarded to :func:`run_until_stable`.  Defaults to
        ``"counts-only"`` (the fast path — the aggregate only needs counts)
        unless ``validate`` is given, in which case the full trace is
        recorded so validators can inspect it.
    ring_size:
        Window size forwarded to :func:`run_until_stable` under the
        ``ring`` trace policy; the trailing windows of the first few
        failed runs surface on ``ExperimentResult.failure_dumps``.
    run_chunk:
        Consecutive run indices shipped per executor task (default 1).
        Larger chunks amortize per-run task submission and result
        pickling, which dominate short runs, at the cost of coarser load
        balancing.
        Purely a throughput knob: results are identical for every value.
    pool:
        A running process pool (:func:`start_process_pool`) to submit
        the process fan-out's batches to, instead of forking and joining
        one for this call; the caller owns it and shuts it down.  Batches
        are windowed and merged exactly as on an own pool, so the
        aggregate is identical.
    """
    check_fanout(jobs, run_chunk)
    if validate is not None and trace_policy not in (None, "full"):
        raise ValueError(
            "validate inspects the full trace; it cannot be combined with "
            f"trace_policy={trace_policy!r}"
        )
    policy = trace_policy if trace_policy is not None else (
        "full" if validate is not None else "counts-only"
    )
    fanout = jobs > 1 and runs > 1
    # Resolve once up front (against the run's actual trace policy) so
    # sequential and process runs, at any run_chunk, execute the same
    # concrete backend.
    spec, _ = resolved_spec(spec, policy)

    result = ExperimentResult(runs=0, successes=0)

    def merge(run_index: int, outcome: ConvergenceResult) -> None:
        result.runs += 1
        failure: Optional[str] = None
        if not outcome.converged:
            failure = f"run {run_index}: did not converge within {max_steps} steps"
        elif validate is not None:
            error = validate(outcome)
            if error is not None:
                failure = f"run {run_index}: {error}"
        if failure is None:
            result.successes += 1
            if outcome.steps_to_convergence is not None:
                result.convergence_steps.append(outcome.steps_to_convergence)
        else:
            result.failures.append(failure)
            if outcome.window and len(result.failure_dumps) < MAX_FAILURE_DUMPS:
                result.failure_dumps.append((run_index, outcome.last_steps))

    obs = get_recorder()
    if fanout:
        workers = min(jobs, runs)
        if obs is not NULL_RECORDER:
            obs.counter("fanout.backend.process")
            obs.gauge("fanout.workers", workers)
        context: Any = nullcontext(pool) if pool is not None \
            else start_process_pool(workers)
        with context as executor:
            submit = lambda start, count: executor.submit(  # noqa: E731
                run_encoded_batch, spec, start, count, base_seed, max_steps,
                stability_window, policy, ring_size)
            if obs is not NULL_RECORDER:
                # What the parent can see of a process batch: its latency.
                submit = _timed_submit(obs, submit)
            _merge_windowed(submit, runs, run_chunk, workers, merge)
    else:
        if obs is not NULL_RECORDER:
            obs.counter("fanout.backend.sequential")
        # ``merge`` never reads ``final``, so no run materialises it.
        for run_index in range(runs):
            merge(run_index, run_spec(
                spec, run_index, base_seed, max_steps, stability_window,
                policy, ring_size, False))
    return result


def _install_null_recorder() -> None:
    """Process-pool initializer: the worker records nothing."""
    set_recorder(NULL_RECORDER)


def _timed_submit(obs: Recorder, submit: Callable) -> Callable:
    """Wrap a batch ``submit`` to observe submit-to-completion latency.

    The sample covers queue wait plus worker execution (what a batch
    actually costs the fan-out); the done-callback runs on the process
    pool's management thread (on the submitting thread if the batch has
    already finished), which the metric recorders are safe against.
    """
    def timed(start: int, count: int) -> Any:
        begin = time.perf_counter()
        future = submit(start, count)
        future.add_done_callback(
            lambda _future: obs.observe(
                "fanout.batch_seconds", time.perf_counter() - begin))
        return future
    return timed


def _merge_windowed(submit, runs: int, run_chunk: int, workers: int,
                    merge) -> None:
    """Submit batch futures, merging in submission order as they stream in.

    ``submit(start, count)`` must return a future resolving to the
    :class:`~repro.engine.transport.EncodedBatch` of run indices
    ``start .. start + count - 1``; runs are carved into batches of
    ``run_chunk`` consecutive indices.  Keeps at most ``2 * workers``
    batches outstanding: with full traces, materialising every result (or
    letting completed futures pile up behind a slow early batch) would
    hold up to ``runs x max_steps`` steps in memory.  Merging strictly in
    submission order is what makes the fan-out deterministic for every
    chunking.  When a worker or the merge raises mid-stream, every queued
    batch is cancelled.
    """
    window = 2 * workers
    pending: deque = deque()
    merged = 0

    def drain_one() -> None:
        nonlocal merged
        for outcome in decode_batch(pending.popleft().result()):
            merge(merged, outcome)
            merged += 1

    try:
        for start in range(0, runs, run_chunk):
            pending.append(submit(start, min(run_chunk, runs - start)))
            if len(pending) >= window:
                drain_one()
        while pending:
            drain_one()
    finally:
        # Empty unless the fan-out failed.  A shared pool outlives this
        # call: its workers must not go on to run the queued batches.
        for future in pending:
            future.cancel()
