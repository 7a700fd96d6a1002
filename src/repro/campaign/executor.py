"""The campaign scheduler: one prioritised cell queue behind every run.

Every campaign execution goes through :meth:`CampaignQueue.drain`;
:func:`~repro.campaign.runner.run_campaign` is a one-entry queue.
Several submitted campaigns merge their pending cells into one work
list ordered by ``(-priority, submission order, plan index)``.  Each
cell is computed by :func:`~repro.campaign.runner.build_cell_record`,
whose cell-internal fan-out (``jobs``/``run_chunk``) composes
underneath, so ``--cell-jobs 4 --jobs 2`` keeps four cells in
flight over one process pool of ``jobs × width`` workers, forked once
per drain.

* **Which cells run** is deterministic: the first ``max_cells`` pending
  items in schedule order — for one campaign, the first ``max_cells``
  pending cells in plan order — whatever the pool width.
* **What each cell produces** is deterministic: ``build_cell_record``
  touches neither the store nor the other cells.
* **Append order is not**: a pool persists records in completion order.
  Stores and reports fold the record *set*, so reports are
  byte-identical for every ``cell_jobs`` (fold-equivalence, pinned by
  ``tests/test_campaign_executor.py``).

The pool width is ``min(cell_jobs, cells to compute)``.  At width 1 the
cells run inline on the draining thread — the serial reference, and what
keeps a per-thread profiler seeing the simulators; only a wider pool
uses threads.  Either way workers return records and the draining
thread is every store's only appender.

The drain owns the run fan-out's process pool.  It starts one only when
a selected, executable cell's campaign fans its runs out (``jobs > 1``,
``runs > 1``), sized ``max(jobs) × width`` so ``width`` such cells keep
their own ``jobs`` workers busy, and shuts it down when the drain ends.  The workers are
forked on the draining thread before any cell thread starts, so no cell
thread can hold a lock at fork time.  Every cell's process fan-out
submits its batches to this pool, through the ``pool=`` argument of
:func:`~repro.engine.experiment.repeat_experiment`.  Resume drains and
``n/a``-only drains fork nothing.

Appends are **group-committed**, one group per drain wake: records go to
their stores inside :meth:`~repro.campaign.store._BaseStore.group_commit`
blocks, and closing the group writes each store's records with one
``os.write`` and one ``fsync``.  Inline, a group holds every record
delivered since the last executable cell started and is flushed before
the next one starts, so ``n/a`` verdicts share the ``fsync`` of the cell
before them and nothing is unflushed while a cell computes.  Pooled, a
group holds every record the workers had finished when the drain thread
woke, and is flushed once the drain has delivered all of them.  A
record's progress line is printed only after its group's ``fsync``, so a
crash loses only cells no line has reported.

Content addressing makes the queue deduplicating: overlapping campaigns
share cell ids, so each distinct cell executes once, and a cell already
persisted in *any* submitted store is delivered instead of recomputed —
re-headed with each plan's own index/coordinates, so every store is
record-identical to its campaign run alone.  Campaigns sharing one store
must be submitted with the *same* store object.

On ``KeyboardInterrupt`` queued cells are cancelled, in-flight cells run
to completion, and every finished record is persisted (the open group is
flushed before the drain returns) — the stores are always resumable.
The process pool is shut down last, on every exit path, with its queued
batches cancelled, so no worker outlives the drain.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Iterator, List, Optional, Tuple

from repro.campaign.planner import CampaignPlan, PlannedCell
from repro.campaign.runner import (
    INTERRUPT_MESSAGE,
    CampaignRunStatus,
    _cell_record_header,
    _tally,
    build_cell_record,
    progress_line,
)
from repro.campaign.store import _BaseStore
from repro.engine.experiment import check_fanout, start_process_pool
from repro.obs.recorder import NULL_RECORDER, get_recorder


def _completed_in_order(futures: List[Future]) -> Iterator[Future]:
    """Yield cell futures as they complete — the one nondeterministic seam.

    Module-level so the concurrency tests can monkeypatch it with a
    deterministic permutation (wait for everything, yield in a fixed
    shuffled order) and prove the fold's order-independence is a
    property, not an accident of thread timing.
    """
    return as_completed(futures)


@dataclass
class QueuedCampaign:
    """One submitted campaign: its plan, store, priority and fan-out knobs."""

    plan: CampaignPlan
    store: _BaseStore
    priority: int
    order: int
    jobs: int
    run_chunk: int
    status: CampaignRunStatus


@dataclass
class _WorkItem:
    """One distinct cell to produce, with every campaign that wants it."""

    cell_id: str
    #: ``(-priority, submission order, plan index)`` of the best subscriber
    #: — the deterministic schedule key (smaller starts first).
    sort_key: Tuple[int, int, int]
    #: That best subscriber: the ``(campaign, planned cell)`` that computes it.
    owner: Tuple[QueuedCampaign, PlannedCell]
    #: ``(campaign, its planned cell)`` pairs, in submission order.
    subscribers: List[Tuple[QueuedCampaign, PlannedCell]] = field(
        default_factory=list)


def _reheaded(record: dict, cell: PlannedCell) -> dict:
    """``record``'s outcome under ``cell``'s own header fields.

    Cell records carry the owning plan's ``index``/``coordinates``; the
    outcome fields (``status``/``result``/``reason``/``error``) are pure
    functions of the content-addressed cell, so re-heading a record for
    another plan's view of the same cell reproduces exactly what that
    plan would have computed itself.
    """
    fresh = _cell_record_header(cell)
    for key, value in record.items():
        if key not in fresh:
            fresh[key] = value
    return fresh


def _build(item: _WorkItem, pool: Optional[ProcessPoolExecutor]) -> dict:
    """Compute one item under its owner's fan-out knobs.

    A fanned-out cell submits its batches to the drain's ``pool``.
    ``build_cell_record`` is looked up as a module global on every call,
    so a rebinding (a test's counter, a tracer's span wrapper) applies.
    """
    entry, cell = item.owner
    return build_cell_record(
        cell, entry.plan, jobs=entry.jobs, run_chunk=entry.run_chunk,
        pool=pool)


def _fanout_pool(items: List[_WorkItem], width: int,
                 ) -> Optional[ProcessPoolExecutor]:
    """The drain's process pool: ``max(jobs) × width`` workers, or ``None``.

    Only an executable item whose campaign fans its runs out
    (``jobs > 1``, ``runs > 1``) needs one, so resume drains and
    ``n/a``-only drains fork nothing.  The size keeps the peak parallelism of ``width`` such cells each
    running its own ``jobs`` workers.
    """
    jobs = [entry.jobs for entry, cell in (item.owner for item in items)
            if cell.skip_reason is None and entry.jobs > 1
            and entry.plan.campaign.runs > 1]
    if not jobs:
        return None
    workers = max(jobs) * width
    obs = get_recorder()
    if obs is not NULL_RECORDER:
        obs.counter("fanout.pools")
        obs.gauge("fanout.pool_workers", workers)
    return start_process_pool(workers)


class _GroupCommit:
    """The records of one drain wake, made durable together.

    Each record goes to its store inside that store's ``group_commit``
    block, opened on the store's first record of the group, and its
    progress line waits here.  :meth:`flush` closes every open block —
    one ``os.write`` and one ``fsync`` per store — and only then prints
    the waiting lines.
    """

    def __init__(self, emit: Callable[[str], None]) -> None:
        self._emit = emit
        self._blocks = ExitStack()
        self._stores: set = set()
        self._records = 0
        self._lines: List[str] = []

    def append(self, store: _BaseStore, record: dict) -> None:
        if store not in self._stores:
            self._blocks.enter_context(store.group_commit())
            self._stores.add(store)
        store.append_cell(record)
        self._records += 1

    def progress(self, line: str) -> None:
        self._lines.append(line)

    def flush(self) -> None:
        """Write and fsync every buffered record, then print their lines.

        The group is emptied first, so a flush that fails (a torn write)
        leaves nothing behind for the next one to retry.
        """
        blocks, self._blocks = self._blocks, ExitStack()
        records, self._records = self._records, 0
        lines, self._lines = self._lines, []
        self._stores = set()
        obs = get_recorder()
        if obs is NULL_RECORDER or not records:
            blocks.close()
        else:
            begin = time.perf_counter()
            blocks.close()
            obs.observe("store.fsync_seconds", time.perf_counter() - begin)
            obs.observe("store.group_records", records)
        for line in lines:
            self._emit(line)


def _computed(items: List[_WorkItem], width: int,
              submitted: Dict[Future, _WorkItem], flush: Callable[[], None],
              pool: Optional[ProcessPoolExecutor],
              ) -> Generator[Tuple[_WorkItem, dict], None, None]:
    """Yield ``(item, record)`` for every item, over ``width`` threads,
    calling ``flush`` wherever a drain group ends; every cell's process
    fan-out shares ``pool``.

    Width 1 computes inline, in schedule order, and flushes before each
    executable cell starts (``n/a`` verdicts join the open group).  A
    wider pool records each future in ``submitted``, yields in completion
    order, and flushes once it has yielded every cell its workers have
    finished — when the next record is not ready yet.  Closing the
    generator (or an error inside it) cancels the queued cells, and the
    pool's shutdown waits for the in-flight ones.
    """
    if width <= 1:
        for item in items:
            if item.owner[1].skip_reason is None:
                flush()
            yield item, _build(item, pool)
        return
    # Counted by the worker before its future resolves, never after (a
    # done-callback runs after the future's waiters wake): the drain may
    # wait a moment for a record about to arrive, but never flushes a
    # group while a finished record is still to come.
    finished: List[_WorkItem] = []

    def build(item: _WorkItem) -> dict:
        try:
            return _build(item, pool)
        finally:
            finished.append(item)

    with ThreadPoolExecutor(max_workers=width) as cells:
        for item in items:
            submitted[cells.submit(build, item)] = item
        try:
            yielded = 0
            for future in _completed_in_order(list(submitted)):
                yield submitted[future], future.result()
                yielded += 1
                if yielded >= len(finished):
                    flush()
        finally:
            for future in submitted:
                future.cancel()


class CampaignQueue:
    """Accumulate pending campaigns; drain them through one scheduler."""

    def __init__(self) -> None:
        self._entries: List[QueuedCampaign] = []

    def submit(self, plan: CampaignPlan, store: _BaseStore, *,
               priority: Optional[int] = None, jobs: int = 1,
               run_chunk: int = 1) -> QueuedCampaign:
        """Enqueue a campaign.  ``priority`` defaults to the spec's own
        ``priority`` field; larger values drain first.

        Invalid fan-out settings raise :class:`ValueError` here, before
        any cell runs, instead of being persisted as per-cell ``error``
        verdicts (:func:`~repro.engine.experiment.check_fanout`)."""
        check_fanout(jobs, run_chunk)
        entry = QueuedCampaign(
            plan=plan,
            store=store,
            priority=plan.campaign.priority if priority is None else priority,
            order=len(self._entries),
            jobs=jobs,
            run_chunk=run_chunk,
            status=CampaignRunStatus(total=plan.total),
        )
        self._entries.append(entry)
        return entry

    def drain(self, *, cell_jobs: int = 1, max_cells: Optional[int] = None,
              progress: Optional[Callable[[str], None]] = None,
              ) -> List[CampaignRunStatus]:
        """Run the pending cells of every submitted campaign.

        ``max_cells`` caps how many cells this drain computes (the first
        ones in schedule order); a status whose campaign still has pending
        cells afterwards reports ``interrupted=True``.  ``progress``
        receives one line per delivered cell, prefixed ``[name] `` when the
        queue holds more than one campaign.  Returns the per-campaign
        statuses in submission order.
        """
        if cell_jobs < 1:
            raise ValueError("cell_jobs must be at least 1")
        if max_cells is not None and max_cells < 1:
            raise ValueError("max_cells must be at least 1")
        emit = progress if progress is not None else (lambda _message: None)
        for entry in self._entries:
            entry.status = CampaignRunStatus(total=entry.plan.total)
        group = _GroupCommit(emit)

        queue = sorted(self._collect_items().values(),
                       key=lambda item: item.sort_key)
        # Satisfy from any submitted store's cache before computing anything:
        # a record persisted by one campaign serves every other subscriber.
        to_run: List[_WorkItem] = []
        for item in queue:
            cached = self._cached_record(item)
            if cached is not None:
                self._deliver(item, cached, group, executed=False)
            else:
                to_run.append(item)
        selected = to_run if max_cells is None else to_run[:max_cells]
        width = min(cell_jobs, len(selected))
        obs = get_recorder()
        if obs is not NULL_RECORDER:
            obs.gauge("campaign.pool_width", width)
            obs.gauge("queue.campaigns", len(self._entries))
            obs.gauge("queue.depth", len(queue))
            obs.counter("queue.cache_hits", len(queue) - len(to_run))
            obs.counter("queue.executed", len(selected))

        submitted: Dict[Future, _WorkItem] = {}
        keyboard_interrupt = False
        # Forked here, before any cell thread starts, and shut down last.
        pool = _fanout_pool(selected, width)
        try:
            # Leaving the block closes the generator: queued cells are
            # cancelled and in-flight ones finish before the handler runs.
            with closing(_computed(selected, width, submitted,
                                   group.flush, pool)) as records:
                for item, record in records:
                    self._deliver(item, record, group, executed=True)
        except KeyboardInterrupt:
            keyboard_interrupt = True
            for future, item in submitted.items():
                entry, cell = item.owner
                if future.done() and not future.cancelled() \
                        and future.exception() is None \
                        and entry.store.record_for(cell.cell_id) is None:
                    self._deliver(item, future.result(), group, executed=True)
        finally:
            try:
                group.flush()
            finally:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
        if keyboard_interrupt:
            for entry in self._entries:
                entry.status.interrupted = True
                entry.status.keyboard_interrupt = True
            emit(INTERRUPT_MESSAGE)
        for entry in self._entries:
            entry.status.pending_cells = [
                cell for cell in entry.plan.cells
                if entry.store.record_for(cell.cell_id) is None]
            if entry.status.pending_cells:
                entry.status.interrupted = True
        return [entry.status for entry in self._entries]

    # -- drain internals --------------------------------------------------------

    def _collect_items(self) -> Dict[str, _WorkItem]:
        """Pending cells of every campaign, merged by content address."""
        items: Dict[str, _WorkItem] = {}
        for entry in self._entries:
            for cell in entry.plan.cells:
                existing = entry.store.record_for(cell.cell_id)
                if existing is not None:
                    _tally(entry.status, existing)
                    continue
                key = (-entry.priority, entry.order, cell.index)
                item = items.get(cell.cell_id)
                if item is None:
                    item = items[cell.cell_id] = _WorkItem(
                        cell.cell_id, key, (entry, cell))
                elif key < item.sort_key:
                    item.sort_key, item.owner = key, (entry, cell)
                item.subscribers.append((entry, cell))
        return items

    def _cached_record(self, item: _WorkItem) -> Optional[dict]:
        """A finished record for this cell in any submitted store, if one
        exists (scanned in submission order, so the source is deterministic)."""
        for entry in self._entries:
            record = entry.store.record_for(item.cell_id)
            if record is not None:
                return record
        return None

    def _deliver(self, item: _WorkItem, record: dict, group: _GroupCommit,
                 *, executed: bool) -> None:
        """Hand one finished record to every subscriber lacking it, in
        ``group``; the progress lines wait for the group's flush."""
        owner_entry, _ = item.owner
        named = len(self._entries) > 1
        for entry, cell in item.subscribers:
            delivered = entry.store.record_for(cell.cell_id)
            if delivered is None:
                delivered = _reheaded(record, cell)
                group.append(entry.store, delivered)
                # Per delivered record, not per step: the NullRecorder call
                # is a single no-op method dispatch when telemetry is off.
                get_recorder().counter("queue.delivered")
                if executed and entry is owner_entry:
                    entry.status.executed_now += 1
            _tally(entry.status, delivered)
            line = progress_line(cell, entry.plan.total, delivered)
            group.progress(
                f"[{entry.plan.campaign.name}] {line}" if named else line)
