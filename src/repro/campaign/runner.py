"""Campaign execution: build cell records and stream them to the store.

A campaign's cells run through
:func:`~repro.engine.experiment.repeat_experiment` — each cell fans its
``runs`` seeds out over the existing sequential/thread/process backends
(``jobs``/``jobs_backend``/``run_chunk``/``result_transport`` are
forwarded untouched), so a campaign inherits all the determinism
guarantees those backends pin: a cell's result is a pure function of its
resolved spec and seed block, whatever the fan-out.
:func:`build_cell_record` is that per-cell computation, with no store
access.

:func:`run_campaign` drains a one-entry
:class:`~repro.campaign.executor.CampaignQueue`, the one campaign
scheduler: it skips every cell the store already holds, computes the
first ``max_cells`` pending cells in plan order — inline at
``cell_jobs=1``, across a worker pool otherwise — and persists the
records in group commits: each drain wake's records go out as one
``os.write`` of complete lines and one ``fsync``, and a cell's progress
line is printed only after that ``fsync``.  Killing the run loses at
most the cells in flight and the records of the unflushed group — never
a cell whose progress line was printed (inline, nothing is unflushed
while a cell computes).  A ``KeyboardInterrupt`` is caught, the open
group is flushed, and the store is left resumable; ``repro campaign
resume`` is the same drain again, and the finished store folds to a
report byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.campaign.planner import CampaignPlan, PlannedCell
from repro.campaign.store import CELL_KIND, ResultStore
from repro.engine.backends import BackendError
from repro.engine.experiment import repeat_experiment
from repro.obs.recorder import NULL_RECORDER, Recorder, get_recorder


@dataclass
class CampaignRunStatus:
    """Where a campaign stands after a runner pass (or a status query)."""

    total: int
    done: int = 0
    na: int = 0
    errors: int = 0
    executed_now: int = 0
    interrupted: bool = False
    #: ``True`` only when a KeyboardInterrupt (not a ``max_cells`` cap)
    #: stopped the walk — the CLI maps it to the conventional exit code 130.
    keyboard_interrupt: bool = False
    pending_cells: List[PlannedCell] = field(default_factory=list)

    @property
    def pending(self) -> int:
        return len(self.pending_cells)

    @property
    def complete(self) -> bool:
        """Every cell is accounted for (result, ``n/a`` verdict, or error)."""
        return self.pending == 0

    def summary(self) -> str:
        parts = [f"{self.done}/{self.total} cells done"]
        if self.na:
            parts.append(f"{self.na} n/a")
        if self.errors:
            parts.append(f"{self.errors} failed")
        if self.pending:
            parts.append(f"{self.pending} pending")
        return ", ".join(parts)


def _tally(status: CampaignRunStatus, record: dict) -> None:
    cell_status = record.get("status")
    if cell_status == "na":
        status.na += 1
        status.done += 1
    elif cell_status == "error":
        status.errors += 1
        status.done += 1
    else:
        status.done += 1


def status_of_records(plan: CampaignPlan, records: dict) -> CampaignRunStatus:
    """Fold cell records (by cell id) against the plan — the one tally used
    by the runner, ``campaign status`` and the report header alike."""
    status = CampaignRunStatus(total=plan.total)
    for cell in plan.cells:
        record = records.get(cell.cell_id)
        if record is None:
            status.pending_cells.append(cell)
        else:
            _tally(status, record)
    return status


def campaign_status(plan: CampaignPlan, store: ResultStore) -> CampaignRunStatus:
    """Fold the store against the plan without executing anything."""
    return status_of_records(plan, store.cell_records)


#: Fallback reasons shown in full by :func:`backend_summary` before it
#: collapses the rest into a count (keeps the preamble bounded on big grids).
MAX_BACKEND_REASONS = 3


def _backend_resolution(plan: CampaignPlan) -> Tuple[dict, List[str]]:
    """Per-backend cell tally and distinct fallback reasons, in plan order."""
    counts: dict = {}
    reasons: List[str] = []
    seen_reasons: set = set()
    for cell in plan.cells:
        if cell.skip_reason is not None:
            continue
        backend = dict(cell.fields).get("backend", "python")
        counts[backend] = counts.get(backend, 0) + 1
        if cell.backend_reason and cell.backend_reason not in seen_reasons:
            seen_reasons.add(cell.backend_reason)
            reasons.append(cell.backend_reason)
    return counts, reasons


def backend_summary(plan: CampaignPlan) -> List[str]:
    """Human-readable lines describing the plan's backend resolution.

    One line tallying executable cells per concrete engine backend, then —
    when ``auto`` cells fell back to the python backend — the first few
    distinct reasons.  Empty when nothing resolved to the array backend and
    no fallback happened (an all-python campaign has no selection story to
    tell); the CLI prints these before running so slow-path cells are
    visible up front.
    """
    counts, reasons = _backend_resolution(plan)
    if not reasons and set(counts) <= {"python"}:
        return []
    tally = ", ".join(f"{count} on {backend}"
                      for backend, count in sorted(counts.items()))
    lines = [f"engine backends: {tally}"]
    for reason in reasons[:MAX_BACKEND_REASONS]:
        lines.append(f"  python fallback: {reason}")
    if len(reasons) > MAX_BACKEND_REASONS:
        lines.append(
            f"  ... and {len(reasons) - MAX_BACKEND_REASONS} more fallback reasons")
    return lines


def _cell_record_header(cell: PlannedCell) -> dict:
    """The fields every persisted cell record shares, whatever its status."""
    return {
        "kind": CELL_KIND,
        "cell_id": cell.cell_id,
        "index": cell.index,
        "coordinates": dict(cell.coordinates),
    }


def _execute_cell(cell: PlannedCell, plan: CampaignPlan, *, jobs: int,
                  jobs_backend: str, run_chunk: int,
                  result_transport: str, pool: Optional[Executor]) -> dict:
    """Run one feasible cell and shape its persistent record."""
    campaign = plan.campaign
    record = _cell_record_header(cell)
    try:
        spec = cell.build_spec()
        result = repeat_experiment(
            spec=spec,
            runs=campaign.runs,
            max_steps=campaign.max_steps,
            stability_window=campaign.stability_window,
            base_seed=campaign.base_seed,
            jobs=jobs,
            jobs_backend=jobs_backend,
            run_chunk=run_chunk,
            trace_policy="counts-only",
            result_transport=result_transport,
            pool=pool,
        )
    except (BackendError, KeyError, TypeError, ValueError) as error:
        # Per-cell verdicts, not campaign aborts: backend compilation /
        # availability failures, and registry keys or parameters that only
        # fail at build time (the planner validates what it can up front,
        # but e.g. kwargs contents and worker-side registries are only
        # checked by the factories themselves) — record and keep sweeping.
        # KeyError carries its message in args.
        message = error.args[0] if isinstance(error, KeyError) and error.args \
            else str(error)
        record["status"] = "error"
        record["error"] = str(message)
        return record
    record["status"] = "ok"
    record["result"] = result.to_dict()
    return record


def build_cell_record(cell: PlannedCell, plan: CampaignPlan, *, jobs: int = 1,
                      jobs_backend: str = "thread", run_chunk: int = 1,
                      result_transport: str = "pickle",
                      pool: Optional[Executor] = None) -> dict:
    """The persistent record for one planned cell: ``n/a`` or executed.

    A pure function of (cell, seed block, fan-out knobs) with no store
    access — which is what lets the campaign scheduler
    (:mod:`repro.campaign.executor`) call it from worker threads while a
    single writer owns the store.
    ``result_transport`` rides along with the other fan-out knobs
    (mechanism only — records are byte-identical for every transport);
    even under the shm transport the record returned here is plain data,
    so the main thread stays the store's only appender.  ``pool`` is the
    drain's process pool, which a process fan-out submits its batches to
    (:func:`~repro.engine.experiment.repeat_experiment`'s ``pool=``).

    This is also the one per-cell observability seam: the scheduler
    funnels every computed cell through here, inline or on a pool thread,
    so per-cell wall time and verdicts are recorded exactly once per
    computed cell.  Telemetry is write-only: the returned record never
    carries it.
    """
    obs = get_recorder()
    if obs is NULL_RECORDER:
        return _build_record(cell, plan, jobs, jobs_backend, run_chunk,
                             result_transport, pool)
    begin = time.perf_counter()
    record = _build_record(cell, plan, jobs, jobs_backend, run_chunk,
                           result_transport, pool)
    seconds = time.perf_counter() - begin
    status = record["status"]
    obs.counter(f"campaign.cells.{status}")
    obs.observe("campaign.cell_seconds", seconds)
    obs.event("campaign.cell", cell_id=cell.cell_id, index=cell.index,
              status=status, seconds=round(seconds, 6),
              backend=dict(cell.fields).get("backend", "python"))
    return record


def _build_record(cell: PlannedCell, plan: CampaignPlan, jobs: int,
                  jobs_backend: str, run_chunk: int,
                  result_transport: str, pool: Optional[Executor]) -> dict:
    """The uninstrumented record build behind :func:`build_cell_record`."""
    if cell.skip_reason is not None:
        record = _cell_record_header(cell)
        record["status"] = "na"
        record["reason"] = cell.skip_reason
        return record
    return _execute_cell(cell, plan, jobs=jobs, jobs_backend=jobs_backend,
                         run_chunk=run_chunk, result_transport=result_transport,
                         pool=pool)


def progress_line(cell: PlannedCell, total: int, record: dict) -> str:
    """The one-line progress message for a finished cell (all executors)."""
    labels = " ".join(f"{axis}={label}" for axis, label in cell.coordinates)
    prefix = f"cell {cell.index + 1}/{total} [{labels}]"
    if record["status"] == "na":
        return f"{prefix} n/a: {record['reason']}"
    if record["status"] == "error":
        return f"{prefix} ERROR: {record['error']}"
    result = record["result"]
    return f"{prefix} {result['successes']}/{result['runs']} runs converged"


INTERRUPT_MESSAGE = ("interrupted — every finished cell is persisted; "
                     "run `repro campaign resume` to continue")


def run_campaign(
    plan: CampaignPlan,
    store: ResultStore,
    *,
    jobs: int = 1,
    jobs_backend: str = "thread",
    run_chunk: int = 1,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    cell_jobs: int = 1,
    result_transport: str = "pickle",
) -> CampaignRunStatus:
    """Execute every pending cell of ``plan``, streaming records to ``store``.

    ``max_cells`` caps the number of cells *newly executed* by this call
    (``None`` = no cap); the return value reports ``interrupted=True`` when
    the cap stopped the run early.  ``progress`` (e.g. ``print``) receives
    one line per cell.  ``cell_jobs > 1`` overlaps independent cells across
    a worker pool; the executed cell *set* and the folded results are
    identical for every value.
    """
    # Deferred: the scheduler imports this module's per-cell seam.
    from repro.campaign.executor import CampaignQueue

    queue = CampaignQueue()
    queue.submit(plan, store, jobs=jobs, jobs_backend=jobs_backend,
                 run_chunk=run_chunk, result_transport=result_transport)
    obs = get_recorder()
    begin = 0.0 if obs is NULL_RECORDER else time.perf_counter()
    if obs is not NULL_RECORDER:
        record_campaign_planned(obs, plan)
    status, = queue.drain(cell_jobs=cell_jobs, max_cells=max_cells,
                          progress=progress)
    if obs is not NULL_RECORDER:
        _record_campaign_done(obs, plan, status,
                              time.perf_counter() - begin)
    return status


def record_campaign_planned(obs: Recorder, plan: CampaignPlan) -> None:
    """Emit the campaign-start event plus the plan's backend resolution.

    The fallback reasons :func:`backend_summary` prints once also land in
    the event sink here (one structured event per distinct reason), so
    "why did these cells run on python?" survives past the terminal.
    """
    obs.event("campaign.start", name=plan.campaign.name, total=plan.total)
    counts, reasons = _backend_resolution(plan)
    if counts:
        obs.event("campaign.backends",
                  **{backend: count for backend, count in sorted(counts.items())})
    for reason in reasons:
        obs.event("campaign.backend_fallback", backend="python", reason=reason)


def _record_campaign_done(obs: Recorder, plan: CampaignPlan,
                          status: CampaignRunStatus, seconds: float) -> None:
    """Fold one runner pass's outcome into metrics plus the end event."""
    store_hits = status.done - status.executed_now
    obs.counter("campaign.cells.skipped", store_hits)
    obs.observe("campaign.seconds", seconds)
    if seconds > 0:
        obs.gauge("campaign.cells_per_s", status.executed_now / seconds)
    obs.event("campaign.end", name=plan.campaign.name, total=plan.total,
              done=status.done, executed=status.executed_now,
              skipped=store_hits, errors=status.errors, na=status.na,
              interrupted=status.interrupted, seconds=round(seconds, 6))

