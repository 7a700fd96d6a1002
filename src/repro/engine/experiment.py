"""Batch experiment runner.

Most of the benchmark harness follows the same pattern: run the same system
(program, model, adversary) with many random-scheduler seeds, check a
per-run success criterion, and aggregate convergence statistics.  This
module factors that pattern out so benchmarks and integration tests stay
declarative.

A system is described by one picklable
:class:`~repro.protocols.registry.ExperimentSpec` (protocol × simulator ×
model × omission adversary × scheduler, by registry key); a spec plus a
seed fixes a run, and :func:`run_spec` executes it.  Sequential runs call
it directly; for ``jobs > 1`` both fan-out pools submit the same batch
worker, :func:`run_spec_batch` (:func:`run_spec_batch_shm` under shm):

``thread`` (default)
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap to start,
    but pure-Python protocols are CPU-bound, so threads serialize on the
    interpreter lock.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`: each worker
    resolves the spec against its own imported registries.  This
    sidesteps the GIL at the cost of per-run result pickling.  A caller
    that runs many experiments (the campaign drain, one per cell) forks
    one pool with :func:`start_process_pool` and passes it to every call
    as ``pool=``; without one, each call forks and joins a pool of its
    own.

For short runs that pickling dominates: ``run_chunk=K`` ships seeds in
batches of ``K`` consecutive run indices per executor task, amortizing
task submission and result transfer over the whole batch — one future,
one pickled list, instead of ``K`` of each.  Batches are merged
per-batch in submission order, so the aggregate stays deterministic.

On top of chunking, ``result_transport`` selects *how* a batch's results
cross the process boundary: ``pickle`` (the seed path — one pickled
result list per batch) or ``shm`` (:mod:`repro.engine.transport` — the
batch's counts-only results come back as fixed-width int64 rows in a
shared-memory arena, with a pickle overflow lane for traces and ring
dumps), with ``auto`` picking shm exactly when the fan-out crosses
processes, the trace policy is counts-only and shared memory is usable.
Purely a mechanism knob: the merged aggregate is identical for every
transport.

Whatever the backend and chunking, results merge in run-index order, so
for a given spec and seed the aggregate :class:`ExperimentResult` is
identical across sequential, thread and process execution, across every
``run_chunk``, and on an own or a shared process pool.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.engine.convergence import ConvergenceResult, run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.transport import (
    ShmBatch,
    check_transport,
    decode_batch,
    dispose_batch,
    encode_batch,
    resolve_transport,
)
from repro.obs.recorder import NULL_RECORDER, Recorder, get_recorder, set_recorder
from repro.protocols.registry import ExperimentSpec, build_cached, resolved_spec

#: The selectable fan-out backends for ``repeat_experiment(jobs > 1)``.
JOBS_BACKENDS = ("thread", "process")


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

    :func:`repeat_experiment` (every fan-out mode, through
    :func:`run_spec_batch`) and ``repro run`` execute their runs here.
    Top-level by design: process backends ship the batch worker by
    qualified name plus its picklable arguments.  The spec build
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

    The fan-out worker of both pools: one submitted task —
    and, on the process backend, one pickled argument tuple and one
    pickled result list — covers run indices ``start_index ..
    start_index + count - 1``, amortizing the per-run dispatch overhead
    that dominates short runs.  Results come back in run-index order.
    """
    return [
        run_spec(
            spec, start_index + offset, base_seed, max_steps, stability_window,
            trace_policy, ring_size, materialize_final)
        for offset in range(count)
    ]


def run_spec_batch_shm(
    spec: ExperimentSpec,
    start_index: int,
    count: int,
    base_seed: int,
    max_steps: int,
    stability_window: int,
    trace_policy: str,
    ring_size: Optional[int] = None,
) -> ShmBatch:
    """:func:`run_spec_batch` through the shared-memory encoder.

    The shm-transport worker function: the batch's columnar-eligible
    results come back as one shared-memory arena named by the returned
    descriptor, everything else on the descriptor's pickle overflow lane.
    The arena's ownership passes to the parent with the descriptor
    (:func:`~repro.engine.transport.decode_batch` unlinks it); a worker
    failing mid-encode unlinks before propagating, so crashes leak
    nothing.

    When the run configuration guarantees every result is columnar-eligible
    (``counts-only`` policy, no ring buffer — so no traces, no failure
    dumps), the runs skip materialising ``result.final`` entirely
    (``materialize_final=False``): backends with a counts export then never
    decode the final configuration into python objects, which is the
    "columnar export without the python-object detour" half of the
    transport's win.
    """
    materialize_final = not (trace_policy == "counts-only" and ring_size is None)
    return encode_batch(run_spec_batch(
        spec, start_index, count, base_seed, max_steps, stability_window,
        trace_policy, ring_size, materialize_final))


def check_fanout(jobs: int, jobs_backend: str, run_chunk: int,
                 result_transport: str) -> None:
    """Reject invalid fan-out settings with a :class:`ValueError`.

    Checks only the settings, so callers can run it before any work
    starts; host state (is shared memory usable?) is checked when the
    fan-out resolves its transport.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if run_chunk < 1:
        raise ValueError("run_chunk must be at least 1")
    if jobs_backend not in JOBS_BACKENDS:
        raise ValueError(
            f"unknown jobs_backend {jobs_backend!r}; expected one of {JOBS_BACKENDS}")
    check_transport(result_transport, jobs_backend)


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
    jobs_backend: str = "thread",
    ring_size: Optional[int] = None,
    run_chunk: int = 1,
    result_transport: str = "pickle",
    *,
    pool: Optional[Executor] = None,
) -> ExperimentResult:
    """Run ``spec`` ``runs`` times, run ``i`` with scheduler seed ``base_seed + i``.

    A run "succeeds" when the spec's predicate stabilises within
    ``max_steps`` interactions.  Every run builds fresh schedulers,
    adversaries and predicates from the spec (:func:`run_spec`), so runs
    share nothing mutable on any backend.  Invalid fan-out settings raise
    :class:`ValueError` (:func:`check_fanout`).

    Parameters
    ----------
    validate:
        Optional extra per-run validation executed on the
        :class:`ConvergenceResult`; it returns ``None`` when the run is
        acceptable, or an error string which marks the run as failed (used
        e.g. to verify the simulation matching on top of convergence).
        Always runs in the parent process, whatever the backend.
    jobs:
        Number of workers for the per-seed fan-out.  Runs are dispatched to
        the selected backend and merged back in run-index order, so the
        aggregate result is deterministic and identical to the sequential
        one.
    jobs_backend:
        ``"thread"`` (default) or ``"process"``.
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
        Larger chunks amortize per-run task submission — and, on the
        process backend, per-run argument/result pickling, which
        dominates short runs — at the cost of coarser load balancing.
        Purely a throughput knob: results are identical for every value.
    result_transport:
        How process-backend batches ship results back: ``"pickle"``
        (default — one pickled result list per batch), ``"shm"`` (the
        zero-copy shared-memory transport of
        :mod:`repro.engine.transport`; requires
        ``jobs_backend="process"`` and raises
        :class:`~repro.engine.transport.TransportError` when shared
        memory is unusable), or ``"auto"`` (shm exactly when the process
        fan-out runs under a counts-only policy and shared memory works,
        warning and falling back to pickle otherwise).  Like
        ``run_chunk``, purely a mechanism knob: the merged aggregate is
        identical for every transport.
    pool:
        A running process pool (:func:`start_process_pool`) to submit
        the process fan-out's batches to, instead of forking and joining
        one for this call; the caller owns it and shuts it down.  Only
        ``jobs_backend="process"`` takes one.  Batches are windowed and
        merged exactly as on an own pool, so the aggregate is identical.
    """
    check_fanout(jobs, jobs_backend, run_chunk, result_transport)
    if pool is not None and jobs_backend != "process":
        raise ValueError("pool= carries the process fan-out; "
                         f"jobs_backend={jobs_backend!r} takes none")
    if validate is not None and trace_policy not in (None, "full"):
        raise ValueError(
            "validate inspects the full trace; it cannot be combined with "
            f"trace_policy={trace_policy!r}"
        )
    policy = trace_policy if trace_policy is not None else (
        "full" if validate is not None else "counts-only"
    )
    transport = resolve_transport(
        result_transport, jobs_backend=jobs_backend, trace_policy=policy,
        process_fanout=(jobs > 1 and runs > 1 and jobs_backend == "process"))
    # Resolve once up front (against the run's actual trace policy) so
    # every fan-out mode — sequential, thread, process, any run_chunk —
    # executes the same concrete backend.
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
            if outcome.last_steps and len(result.failure_dumps) < MAX_FAILURE_DUMPS:
                result.failure_dumps.append((run_index, outcome.last_steps))

    obs = get_recorder()
    if jobs > 1 and runs > 1:
        workers = min(jobs, runs)
        if obs is not NULL_RECORDER:
            obs.counter(f"fanout.backend.{jobs_backend}")
            obs.counter(f"fanout.transport.{transport}")
            obs.gauge("fanout.workers", workers)
        if transport == "shm":
            worker, receive, dispose = run_spec_batch_shm, decode_batch, dispose_batch
        else:
            worker, receive, dispose = run_spec_batch, None, None
        context: Any
        if pool is not None:
            context = nullcontext(pool)
        elif jobs_backend == "process":
            context = start_process_pool(workers)
        else:
            context = ThreadPoolExecutor(max_workers=workers)
        with context as executor:
            submit = lambda start, count: executor.submit(  # noqa: E731
                worker, spec, start, count, base_seed, max_steps,
                stability_window, policy, ring_size)
            if obs is not NULL_RECORDER:
                submit = _timed_submit(obs, submit)
                if jobs_backend == "process":
                    # What the parent can see of a process batch — its
                    # latency and the transport lane it actually rode.
                    receive = _counted_receive(obs, receive)
            _merge_windowed(submit, runs, run_chunk, workers, merge,
                            receive=receive, dispose=dispose)
    else:
        if obs is not NULL_RECORDER:
            obs.counter("fanout.backend.sequential")
        for run_index in range(runs):
            merge(run_index, run_spec(
                spec, run_index, base_seed, max_steps, stability_window,
                policy, ring_size))
    return result


def _install_null_recorder() -> None:
    """Process-pool initializer: the worker records nothing."""
    set_recorder(NULL_RECORDER)


def _timed_submit(obs: Recorder, submit: Callable) -> Callable:
    """Wrap a batch ``submit`` to observe submit-to-completion latency.

    The sample covers queue wait plus worker execution (what a batch
    actually costs the fan-out); the done-callback runs on executor
    threads, which the metric recorders are safe against.
    """
    def timed(start: int, count: int) -> Any:
        begin = time.perf_counter()
        future = submit(start, count)
        future.add_done_callback(
            lambda _future: obs.observe(
                "fanout.batch_seconds", time.perf_counter() - begin))
        return future
    return timed


def _counted_receive(obs: Recorder, receive: Optional[Callable]) -> Callable:
    """Wrap the fan-out ``receive`` hook to count transport lane usage.

    Shm batches record their columnar row count, arena bytes and pickle
    overflow; plain pickled batches record batch/result counts — so a
    sink shows exactly how results crossed the process boundary.
    """
    def counted(payload: Any) -> List[ConvergenceResult]:
        results = receive(payload) if receive is not None else payload
        if isinstance(payload, ShmBatch):
            columnar = payload.count - len(payload.overflow)
            obs.counter("transport.shm.batches")
            obs.counter("transport.shm.rows", columnar)
            obs.counter("transport.shm.overflow_results", len(payload.overflow))
            obs.counter("transport.shm.bytes",
                        columnar * (4 + len(payload.states)) * 8)
        else:
            obs.counter("transport.pickle.batches")
            obs.counter("transport.pickle.results", len(results))
        return results
    return counted


def _merge_windowed(submit, runs: int, run_chunk: int, workers: int, merge,
                    receive=None, dispose=None) -> None:
    """Submit batch futures, merging in submission order as they stream in.

    ``submit(start, count)`` must return a future resolving to the batch
    payload for run indices ``start .. start + count - 1``; runs are
    carved into batches of ``run_chunk`` consecutive indices.  Keeps at
    most ``2 * workers`` batches outstanding: with full traces,
    materialising every result (or letting completed futures pile up
    behind a slow early batch) would hold up to ``runs x max_steps``
    steps in memory.  Merging strictly in submission order is what makes
    the fan-out deterministic for every backend and chunking.

    ``receive`` maps a future's payload to its
    :class:`ConvergenceResult` list (the shm transport's
    decode-and-unlink hook; identity when ``None`` — the payload already
    is the list).  When a worker or the merge raises mid-stream, the
    cleanup path cancels every queued batch; ``dispose`` then releases
    each payload that will never be received: it waits out the batches
    already in flight and disposes each delivered payload — so no
    shared-memory arena outlives a failed or interrupted fan-out.
    """
    window = 2 * workers
    pending: deque = deque()
    merged = 0

    def drain_one() -> None:
        nonlocal merged
        payload = pending.popleft().result()
        for outcome in (receive(payload) if receive is not None else payload):
            merge(merged, outcome)
            merged += 1

    completed = False
    try:
        for start in range(0, runs, run_chunk):
            pending.append(submit(start, min(run_chunk, runs - start)))
            if len(pending) >= window:
                drain_one()
        while pending:
            drain_one()
        completed = True
    finally:
        if not completed:
            # A shared pool outlives this call: its workers must not go on
            # to run the queued batches of a fan-out that has failed.
            for future in pending:
                future.cancel()
            for future in pending if dispose is not None else ():
                # exception() waits for in-flight batches (they cannot be
                # stopped mid-run) and returns rather than raises, so one
                # crashed worker cannot mask the disposal of the others.
                if not future.cancelled() and future.exception() is None:
                    dispose(future.result())
