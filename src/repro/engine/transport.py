"""Columnar result transport for the process fan-out.

Every :class:`~repro.engine.convergence.ConvergenceResult` a worker
returns would otherwise be pickled whole, and under ``counts-only`` the
dominant payload is the ``final`` configuration: one python object per
agent, so the cost grows with the population even though the aggregate
layer only ever consumes a handful of scalars per run.  Each process batch
therefore goes through one encoder instead: the worker packs the batch's
results as fixed-width int64 rows into a ``bytes`` payload carried on the
picklable batch descriptor, and the parent reads the scalars back through
one ``memoryview.cast`` — a per-batch payload of ``O(states)`` instead of
``O(population)``.

Two lanes in one descriptor
---------------------------

* **Columnar rows.**  A result is columnar-eligible when it carries no
  per-step payload (``trace is None``, no ``window`` ring dump) and
  its final configuration is expressible as state counts — every
  ``counts-only`` run, on both engine backends.  Eligible results become
  rows ``[converged, steps_executed, steps_to_convergence + 1 (0 encodes
  None), omissions, count_0 .. count_{k-1}]`` over the batch's state
  column set; decoded results carry the counts on
  :attr:`~repro.engine.convergence.ConvergenceResult.final_counts` and
  ``final=None`` (the aggregate layer never consumes ``final``, so the
  merge-identity contract is unaffected).
* **Overflow.**  Everything else — full traces, ring failure dumps,
  results without a counts export — rides the descriptor's overflow dict
  and is pickled untouched, so the slow path is never wrong.

This module deliberately holds **no store write path**: it hands decoded
results back to the experiment merge, and campaign records reach disk
only through the sanctioned single-writer appenders in
:mod:`repro.campaign.store` (lint rule RPL004 scopes this module in).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.convergence import ConvergenceResult
from repro.obs.recorder import NULL_RECORDER, get_recorder
from repro.protocols.state import State

#: int64 header columns preceding the per-state count columns of each row:
#: converged flag, steps_executed, steps_to_convergence + 1 (0 = None),
#: omissions.
_HEADER_WIDTH = 4


@dataclass(frozen=True)
class EncodedBatch:
    """Picklable descriptor of one encoded result batch.

    ``rows`` holds the columnar results as native int64 cells, in run
    order; ``states`` is the batch's count-column order; ``overflow`` maps
    run offsets to the results that are pickled whole.  Offsets not in
    ``overflow`` are columnar, in row order.
    """

    count: int
    rows: bytes
    states: Tuple[State, ...]
    overflow: Dict[int, ConvergenceResult] = field(default_factory=dict)


def _columnar_counts(result: ConvergenceResult) -> Optional[Dict[State, int]]:
    """The count vector of a columnar-eligible result, ``None`` to overflow.

    Eligibility is exactly "no per-step payload and a counts export":
    results carrying a trace or a ring dump must survive byte-identically
    and overflow; ``final_counts`` (the array backend's columnar export)
    is preferred over rebuilding a histogram from the frozen
    configuration.
    """
    if result.trace is not None or result.window:
        return None
    if result.final_counts is not None:
        return dict(result.final_counts)
    if result.final is not None:
        return result.final.histogram()
    return None


def encode_batch(results: List[ConvergenceResult]) -> EncodedBatch:
    """Encode a batch into its descriptor (the worker side).

    Columnar-eligible results become fixed-width int64 rows over the
    union of their state sets (first-occurrence order across the batch,
    shipped once on the descriptor); the rest land in the descriptor's
    overflow dict.
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

    width = _HEADER_WIDTH + len(states)
    cells = array("q")
    for offset, counts in columnar.items():
        result = results[offset]
        row = [0] * width
        row[0] = 1 if result.converged else 0
        row[1] = result.steps_executed
        row[2] = 0 if result.steps_to_convergence is None \
            else result.steps_to_convergence + 1
        row[3] = result.omissions
        for state, count in counts.items():
            row[_HEADER_WIDTH + column_of[state]] = count
        cells.extend(row)
    return EncodedBatch(count=len(results), rows=cells.tobytes(),
                        states=tuple(states), overflow=overflow)


def decode_batch(batch: EncodedBatch) -> List[ConvergenceResult]:
    """Decode a batch descriptor (the parent side).

    The columnar rows are read as scalars through one ``memoryview.cast``
    of the shipped bytes; decoded results carry ``final_counts`` (zero
    counts dropped, column order) and ``final=None``.  Results are
    returned in run-index order with the overflow interleaved back in
    place.  Under a live recorder each batch counts its columnar rows,
    row bytes and overflow results (the ``transport.shm.*`` names).
    """
    decoded: Dict[int, ConvergenceResult] = dict(batch.overflow)
    width = _HEADER_WIDTH + len(batch.states)
    columnar_offsets = [offset for offset in range(batch.count)
                        if offset not in batch.overflow]
    cells = memoryview(batch.rows).cast("q")
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
            final_counts=counts,
        )
    obs = get_recorder()
    if obs is not NULL_RECORDER:
        obs.counter("transport.shm.batches")
        obs.counter("transport.shm.rows", len(columnar_offsets))
        obs.counter("transport.shm.overflow_results", len(batch.overflow))
        obs.counter("transport.shm.bytes", len(batch.rows))
    return [decoded[offset] for offset in range(batch.count)]
