"""The campaign drain: one plan's pending cells into one store.

Every campaign execution goes through :func:`drain`, which
:func:`~repro.campaign.runner.run_campaign` calls once it has validated
its arguments.  Each cell is computed by
:func:`~repro.campaign.runner.build_cell_record`, whose cell-internal
fan-out (``jobs``/``run_chunk``) composes underneath, so ``--cell-jobs 4
--jobs 2`` keeps four cells in flight over one process pool of ``jobs ×
width`` workers, forked once per drain.

* **Which cells run** is deterministic: cells the store already holds
  are skipped (a shared pool computes a cell once, whichever campaign
  asks first), and the first ``max_cells`` pending cells in plan order
  run, whatever the pool width.
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
thread is the store's only appender.

The drain owns the run fan-out's process pool.  It starts one only when
a selected cell is executable and the campaign fans its runs out
(``jobs > 1``, ``runs > 1``), sized ``jobs × width`` so ``width`` such
cells keep their own ``jobs`` workers busy, and shuts it down when the
drain ends.  The workers are forked on the draining thread before any
cell thread starts, so no cell thread can hold a lock at fork time.
Every cell's process fan-out submits its batches to this pool, through
the ``pool=`` argument of
:func:`~repro.engine.experiment.repeat_experiment`.  Resume drains and
``n/a``-only drains fork nothing.

Appends are **group-committed**, one group per drain wake: records go to
the store inside a :meth:`~repro.campaign.store._BaseStore.group_commit`
block, and closing the group writes its records with one ``os.write``
and one ``fsync``.  Inline, a group holds every record finished since
the last executable cell started and is flushed before the next one
starts, so ``n/a`` verdicts share the ``fsync`` of the cell before them
and nothing is unflushed while a cell computes.  Pooled, a group holds
every record the workers had finished when the drain thread woke, and is
flushed once the drain has appended all of them.  A record's progress
line is printed only after its group's ``fsync``, so a crash loses only
cells no line has reported.

On ``KeyboardInterrupt`` queued cells are cancelled, in-flight cells run
to completion, and every finished record is persisted (the open group is
flushed before the drain returns) — the store is always resumable.
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
from typing import Callable, Dict, Generator, Iterator, List, Optional, Tuple

from repro.campaign.planner import CampaignPlan, PlannedCell
from repro.campaign.runner import (
    INTERRUPT_MESSAGE,
    CampaignRunStatus,
    _tally,
    build_cell_record,
    progress_line,
)
from repro.campaign.store import _BaseStore
from repro.engine.experiment import start_process_pool
from repro.obs.recorder import NULL_RECORDER, get_recorder


def _completed_in_order(futures: List[Future]) -> Iterator[Future]:
    """Yield cell futures as they complete — the one nondeterministic seam.

    Module-level so the concurrency tests can monkeypatch it with a
    deterministic permutation (wait for everything, yield in a fixed
    shuffled order) and prove the fold's order-independence is a
    property, not an accident of thread timing.
    """
    return as_completed(futures)


def _fanout_pool(plan: CampaignPlan, cells: List[PlannedCell], jobs: int,
                 width: int) -> Optional[ProcessPoolExecutor]:
    """The drain's process pool: ``jobs × width`` workers, or ``None``.

    Only an executable cell of a campaign that fans its runs out
    (``jobs > 1``, ``runs > 1``) needs one, so resume drains and
    ``n/a``-only drains fork nothing.  The size keeps the peak
    parallelism of ``width`` such cells each running its own ``jobs``
    workers.
    """
    if jobs <= 1 or plan.campaign.runs <= 1 or all(
            cell.skip_reason is not None for cell in cells):
        return None
    workers = jobs * width
    obs = get_recorder()
    if obs is not NULL_RECORDER:
        obs.counter("fanout.pools")
        obs.gauge("fanout.pool_workers", workers)
    return start_process_pool(workers)


class _GroupCommit:
    """The records of one drain wake, made durable together.

    The group's first record opens the store's ``group_commit`` block,
    and each record's progress line waits here.  :meth:`flush` closes the
    block — one ``os.write`` and one ``fsync`` — and only then prints the
    waiting lines.
    """

    def __init__(self, store: _BaseStore, emit: Callable[[str], None]) -> None:
        self._store = store
        self._emit = emit
        self._block: Optional[ExitStack] = None
        self._lines: List[str] = []

    def append(self, record: dict, line: str) -> None:
        if self._block is None:
            self._block = ExitStack()
            self._block.enter_context(self._store.group_commit())
        self._store.append_cell(record)
        self._lines.append(line)

    def flush(self) -> None:
        """Write and fsync every buffered record, then print their lines.

        The group is emptied first, so a flush that fails (a torn write)
        leaves nothing behind for the next one to retry.
        """
        block, self._block = self._block, None
        lines, self._lines = self._lines, []
        if block is None:
            return
        obs = get_recorder()
        if obs is NULL_RECORDER or not lines:
            block.close()
        else:
            begin = time.perf_counter()
            block.close()
            obs.observe("store.fsync_seconds", time.perf_counter() - begin)
            obs.observe("store.group_records", len(lines))
        for line in lines:
            self._emit(line)


def _computed(cells: List[PlannedCell], width: int,
              build: Callable[[PlannedCell], dict],
              submitted: Dict[Future, PlannedCell], flush: Callable[[], None],
              ) -> Generator[Tuple[PlannedCell, dict], None, None]:
    """Yield ``(cell, build(cell))`` for every cell, over ``width``
    threads, calling ``flush`` wherever a drain group ends.

    Width 1 computes inline, in plan order, and flushes before each
    executable cell starts (``n/a`` verdicts join the open group).  A
    wider pool records each future in ``submitted``, yields in completion
    order, and flushes once it has yielded every cell its workers have
    finished — when the next record is not ready yet.  Closing the
    generator (or an error inside it) cancels the queued cells, and the
    pool's shutdown waits for the in-flight ones.
    """
    if width <= 1:
        for cell in cells:
            if cell.skip_reason is None:
                flush()
            yield cell, build(cell)
        return
    # Counted by the worker before its future resolves, never after (a
    # done-callback runs after the future's waiters wake): the drain may
    # wait a moment for a record about to arrive, but never flushes a
    # group while a finished record is still to come.
    finished: List[PlannedCell] = []

    def counted(cell: PlannedCell) -> dict:
        try:
            return build(cell)
        finally:
            finished.append(cell)

    with ThreadPoolExecutor(max_workers=width) as threads:
        for cell in cells:
            submitted[threads.submit(counted, cell)] = cell
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


def drain(plan: CampaignPlan, store: _BaseStore, *, jobs: int,
          run_chunk: int, cell_jobs: int, max_cells: Optional[int],
          progress: Optional[Callable[[str], None]]) -> CampaignRunStatus:
    """Compute ``plan``'s pending cells into ``store``; return its status.

    ``max_cells`` caps how many cells this drain computes (the first
    pending ones in plan order); the status reports ``interrupted=True``
    while cells stay pending.  ``progress`` receives one line per
    computed cell, after its record's ``fsync``.  The arguments are
    already validated (:func:`~repro.campaign.runner.run_campaign`).
    """
    emit = progress if progress is not None else (lambda _message: None)
    status = CampaignRunStatus(total=plan.total)
    pending: List[PlannedCell] = []
    for cell in plan.cells:
        existing = store.record_for(cell.cell_id)
        if existing is None:
            pending.append(cell)
        else:
            _tally(status, existing)
    selected = pending if max_cells is None else pending[:max_cells]
    width = min(cell_jobs, len(selected))
    obs = get_recorder()
    if obs is not NULL_RECORDER:
        obs.gauge("campaign.pool_width", width)
    group = _GroupCommit(store, emit)

    def deliver(cell: PlannedCell, record: dict) -> None:
        group.append(record, progress_line(cell, plan.total, record))
        status.executed_now += 1
        _tally(status, record)

    def build(cell: PlannedCell) -> dict:
        # ``build_cell_record`` is looked up as a module global on every
        # call, so a rebinding (a test's counter, a tracer's span) applies.
        return build_cell_record(cell, plan, jobs=jobs, run_chunk=run_chunk,
                                 pool=pool)

    submitted: Dict[Future, PlannedCell] = {}
    keyboard_interrupt = False
    # Forked here, before any cell thread starts (``build`` reads it), and
    # shut down last.
    pool = _fanout_pool(plan, selected, jobs, width)
    try:
        # Leaving the block closes the generator: queued cells are
        # cancelled and in-flight ones finish before the handler runs.
        with closing(_computed(selected, width, build, submitted,
                               group.flush)) as records:
            for cell, record in records:
                deliver(cell, record)
    except KeyboardInterrupt:
        keyboard_interrupt = True
        for future, cell in submitted.items():
            if future.done() and not future.cancelled() \
                    and future.exception() is None \
                    and store.record_for(cell.cell_id) is None:
                deliver(cell, future.result())
    finally:
        try:
            group.flush()
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    if keyboard_interrupt:
        status.keyboard_interrupt = True
        emit(INTERRUPT_MESSAGE)
    status.pending_cells = [cell for cell in pending
                            if store.record_for(cell.cell_id) is None]
    status.interrupted = keyboard_interrupt or bool(status.pending_cells)
    return status
