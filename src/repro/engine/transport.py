"""Zero-copy shared-memory result transport for the process fan-out.

The process backend's remaining hot-path tax is serialization: every
:class:`~repro.engine.convergence.ConvergenceResult` coming back from a
worker is pickled — and under ``counts-only`` the dominant payload is the
``final`` configuration, one python object per agent, so the cost grows
with the population even though the aggregate layer only ever consumes a
handful of scalars per run.  This module replaces that channel with a
**columnar fast lane**: workers encode a batch's results as fixed-width
int64 rows inside one :mod:`multiprocessing.shared_memory` arena, and the
parent reads scalars straight out of the mapped buffer — no pickling, no
intermediate copies, and a per-batch payload of ``O(states)`` instead of
``O(population)``.

Two lanes, one contract
-----------------------

* **Columnar lane.**  A result is columnar-eligible when it carries no
  per-step payload (``trace is None``, no ``last_steps`` ring dump) and
  its final configuration is expressible as state counts — every
  ``counts-only`` run, on both engine backends.  Eligible results become
  rows ``[converged, steps_executed, steps_to_convergence + 1 (0 encodes
  None), omissions, count_0 .. count_{k-1}]`` over the batch's state
  column set; decoded results carry the counts on
  :attr:`~repro.engine.convergence.ConvergenceResult.final_counts` and
  ``final=None`` (the aggregate layer never consumes ``final``, so the
  merge-identity contract is unaffected).
* **Overflow lane.**  Everything else — full traces, ring failure dumps,
  results without a counts export — rides the descriptor's ordinary
  pickle channel untouched, so the fast path is allocation-free on
  receive and the slow path is never wrong.

Arena lifecycle
---------------

Workers create, write and close an arena per encoded batch; ownership
passes to the parent with the returned :class:`ShmBatch` descriptor, and
:func:`decode_batch` unlinks the arena the moment its rows are read.  An
encoding failure unlinks before propagating
(:func:`encode_batch`); a batch that will never be decoded — a worker or
merge error mid-stream, an interrupt — is released via
:func:`dispose_batch` by the fan-out's cleanup path
(:func:`repro.engine.experiment._merge_windowed`).  Both sides register
with the stdlib resource tracker, so even a crashed parent cannot leak a
segment past process exit.

This module deliberately holds **no store write path**: transports hand
decoded results back to the experiment merge, and campaign records reach
disk only through the sanctioned single-writer appenders in
:mod:`repro.campaign.store` (lint rule RPL004 scopes this module in).
"""

from __future__ import annotations

import os
import warnings
from array import array
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

from repro.engine.convergence import ConvergenceResult
from repro.obs.recorder import get_recorder
from repro.protocols.state import State

#: The selectable result transports for ``repeat_experiment``.  ``pickle``
#: is the chunked-pickle seed path; ``shm`` is the shared-memory columnar
#: transport (process fan-out only); ``auto`` picks ``shm`` exactly when
#: the fan-out crosses processes, the trace policy is ``counts-only``
#: (every result fits the columnar lane) and shared memory is usable.
RESULT_TRANSPORTS = ("pickle", "shm", "auto")

#: int64 header columns preceding the per-state count columns of each row:
#: converged flag, steps_executed, steps_to_convergence + 1 (0 = None),
#: omissions.
_HEADER_WIDTH = 4

#: Bytes per int64 cell.
_CELL_BYTES = 8


def _hold_tracker_lock() -> None:
    resource_tracker._resource_tracker._lock.acquire()


def _release_tracker_lock() -> None:
    resource_tracker._resource_tracker._lock.release()


# Every shm create, attach and unlink registers with the stdlib resource
# tracker under its process-wide lock.  A process-pool worker forked by one
# campaign cell thread while another thread holds that lock inherits it
# held, and blocks forever on its first arena.  Holding the lock across
# every fork hands the child a released one.  (The tracker launches itself
# through ``fork_exec``, which runs no fork handlers, so this never waits on
# its own holder.)
os.register_at_fork(before=_hold_tracker_lock,
                    after_in_parent=_release_tracker_lock,
                    after_in_child=_release_tracker_lock)


class TransportError(RuntimeError):
    """The shm transport was explicitly requested but cannot be used."""


@dataclass(frozen=True)
class ShmBatch:
    """Picklable descriptor of one encoded result batch.

    ``name`` is the shared-memory arena holding the columnar rows
    (``None`` when every result overflowed); ``states`` is the batch's
    count-column order; ``overflow`` maps run offsets to the results that
    ride the pickle lane.  Offsets not in ``overflow`` are columnar, in
    arena row order.
    """

    count: int
    name: Optional[str]
    states: Tuple[State, ...]
    overflow: Dict[int, ConvergenceResult] = field(default_factory=dict)


_probe_done = False
_probe_reason: Optional[str] = None


def shm_unavailable_reason() -> Optional[str]:
    """Why shared memory is unusable here, or ``None`` when it works.

    One create/close/unlink probe of a minimal segment, memoized for the
    process lifetime — ``/dev/shm`` being absent, full, or unwritable all
    surface as the OS error text callers put in warnings and errors.
    """
    global _probe_done, _probe_reason
    if not _probe_done:
        try:
            segment = shared_memory.SharedMemory(create=True, size=_CELL_BYTES)
        except OSError as error:
            _probe_reason = str(error) or type(error).__name__
        else:
            segment.close()
            # repro-lint: disable=RPL004 reason=SharedMemory.unlink releases the probe's shm segment, not a store file
            segment.unlink()
        _probe_done = True
    return _probe_reason


def check_transport(transport: str, jobs_backend: str) -> None:
    """Reject an unknown transport, or ``shm`` off the process backend."""
    if transport not in RESULT_TRANSPORTS:
        raise ValueError(
            f"unknown result_transport {transport!r}; "
            f"expected one of {RESULT_TRANSPORTS}")
    if transport == "shm" and jobs_backend != "process":
        raise ValueError(
            "result_transport 'shm' crosses process boundaries; it "
            "requires the process fan-out backend "
            "(jobs_backend='process' / --backend process)")


def resolve_transport(transport: str, *, jobs_backend: str, trace_policy: str,
                      process_fanout: bool) -> str:
    """Pin a ``result_transport`` request to the concrete lane to use.

    ``shm`` is validated strictly: it crosses process boundaries, so any
    other fan-out backend is a :class:`ValueError`, and an unusable
    shared-memory subsystem is a :class:`TransportError` naming the
    fallback flag.  ``auto`` degrades gracefully instead — it picks
    ``shm`` only when the process fan-out will actually run
    (``process_fanout``), the trace policy is ``counts-only`` (the
    resolved backend produces columnar results) and shared memory is
    usable, warning once and falling back to ``pickle`` when only the
    last condition fails.
    """
    check_transport(transport, jobs_backend)
    if transport == "shm":
        reason = shm_unavailable_reason()
        if reason is not None:
            raise TransportError(
                f"shared-memory result transport unavailable: {reason}; "
                "rerun with --result-transport pickle")
        return "shm"
    if transport == "auto" and process_fanout and jobs_backend == "process" \
            and trace_policy == "counts-only":
        reason = shm_unavailable_reason()
        if reason is None:
            return "shm"
        warnings.warn(
            f"result_transport 'auto': shared memory unavailable ({reason}); "
            "falling back to the pickle transport",
            RuntimeWarning, stacklevel=2)
        # The same degradation as a structured event, so it is inspectable
        # in the metrics sink after the run, not just printed once.
        get_recorder().event(
            "transport.degraded", requested="auto", fallback="pickle",
            reason=reason)
    return "pickle"


def _columnar_counts(result: ConvergenceResult) -> Optional[Dict[State, int]]:
    """The count vector of a columnar-eligible result, ``None`` to overflow.

    Eligibility is exactly "no per-step payload and a counts export":
    results carrying a trace or a ring dump must survive byte-identically
    and take the pickle lane; ``final_counts`` (the array backend's
    columnar export) is preferred over rebuilding a histogram from the
    frozen configuration.
    """
    if result.trace is not None or result.last_steps:
        return None
    if result.final_counts is not None:
        return dict(result.final_counts)
    if result.final is not None:
        return result.final.histogram()
    return None


def encode_batch(results: List[ConvergenceResult]) -> ShmBatch:
    """Encode a batch into an arena + descriptor (the worker side).

    Columnar-eligible results become fixed-width int64 rows over the
    union of their state sets (first-occurrence order across the batch,
    shipped once on the descriptor); the rest land in the descriptor's
    overflow dict.  The arena is created here and handed to the parent by
    name; if anything fails after creation, the arena is unlinked before
    the error propagates, so a crashing worker leaks nothing.
    """
    columnar: Dict[int, Dict[State, int]] = {}
    overflow: Dict[int, ConvergenceResult] = {}
    column_of: Dict[State, int] = {}
    states: List[State] = []
    for offset, result in enumerate(results):
        counts = _columnar_counts(result)
        if counts is None:
            overflow[offset] = result
            continue
        columnar[offset] = counts
        for state in counts:
            if state not in column_of:
                column_of[state] = len(states)
                states.append(state)
    if not columnar:
        return ShmBatch(count=len(results), name=None, states=(),
                        overflow=overflow)

    width = _HEADER_WIDTH + len(states)
    cells = array("q")
    for offset in sorted(columnar):
        result = results[offset]
        row = [0] * width
        row[0] = 1 if result.converged else 0
        row[1] = result.steps_executed
        row[2] = 0 if result.steps_to_convergence is None \
            else result.steps_to_convergence + 1
        row[3] = result.omissions
        for state, count in columnar[offset].items():
            row[_HEADER_WIDTH + column_of[state]] = count
        cells.extend(row)
    payload = cells.tobytes()

    segment = shared_memory.SharedMemory(create=True, size=len(payload))
    written = False
    try:
        segment.buf[:len(payload)] = payload
        written = True
    finally:
        name = segment.name
        segment.close()
        if not written:
            # repro-lint: disable=RPL004 reason=SharedMemory.unlink reclaims a half-written arena, not a store file
            segment.unlink()
    return ShmBatch(count=len(results), name=name, states=tuple(states),
                    overflow=overflow)


def decode_batch(batch: ShmBatch) -> List[ConvergenceResult]:
    """Decode a batch descriptor and unlink its arena (the parent side).

    The columnar rows are read as scalars straight out of the mapped
    buffer (one ``memoryview.cast`` — no pickling, no intermediate byte
    copies); decoded results carry ``final_counts`` (zero counts dropped,
    column order) and ``final=None``.  Results are returned in run-index
    order with the overflow lane interleaved back in place.  The arena is
    unlinked before returning, success or not, so a decoded batch can
    never leak its segment.
    """
    decoded: Dict[int, ConvergenceResult] = dict(batch.overflow)
    if batch.name is not None:
        width = _HEADER_WIDTH + len(batch.states)
        columnar_offsets = [offset for offset in range(batch.count)
                            if offset not in batch.overflow]
        segment = shared_memory.SharedMemory(name=batch.name)
        try:
            cells = segment.buf.cast("q")
            try:
                for row, offset in enumerate(columnar_offsets):
                    base = row * width
                    raw_steps_to = cells[base + 2]
                    counts = tuple(
                        (state, cells[base + _HEADER_WIDTH + column])
                        for column, state in enumerate(batch.states)
                        if cells[base + _HEADER_WIDTH + column])
                    decoded[offset] = ConvergenceResult(
                        converged=bool(cells[base]),
                        steps_executed=cells[base + 1],
                        steps_to_convergence=(None if raw_steps_to == 0
                                              else raw_steps_to - 1),
                        trace=None,
                        final=None,
                        omissions=cells[base + 3],
                        last_steps=(),
                        final_counts=counts,
                    )
            finally:
                # The cast view must be released before close(): a live
                # export keeps the mmap open and close() would raise.
                cells.release()
        finally:
            segment.close()
            # repro-lint: disable=RPL004 reason=SharedMemory.unlink frees the decoded arena, not a store file
            segment.unlink()
    return [decoded[offset] for offset in range(batch.count)]


def dispose_batch(batch: ShmBatch) -> None:
    """Unlink a batch's arena without decoding it (error/interrupt cleanup).

    Used by the fan-out's failure path for descriptors that will never be
    decoded.  An already-unlinked (or never-created) arena is fine — the
    point is that no path out of the fan-out leaves a segment behind.
    """
    if batch.name is None:
        return
    try:
        segment = shared_memory.SharedMemory(name=batch.name)
    except FileNotFoundError:
        return
    segment.close()
    # repro-lint: disable=RPL004 reason=SharedMemory.unlink frees an undecoded arena on the failure path, not a store file
    segment.unlink()
