"""The ``Recorder`` protocol: counters, gauges, timers and structured events.

Observability in this repo is **write-only telemetry**: hot paths hand
measurements to whatever recorder is installed, and nothing ever flows
back — no store record, cell id, or report byte may depend on a recorder
(lint rule RPL007 enforces the direction, ``docs/observability.md``
documents the boundary).

The default recorder is :data:`NULL_RECORDER`, a stateless no-op.  Hot
paths guard their instrumentation with one identity check::

    obs = get_recorder()
    if obs is not NULL_RECORDER:
        ...measure and record...

so with observability off the entire layer costs a module-global read
and a pointer comparison per *run* (never per step) — the "zero
overhead" the subsystem is named for, CI-guarded at ≤3% by
``benchmarks/bench_engine_throughput.py --obs``.

Recorders compose: :class:`MetricsRecorder` aggregates metrics in memory
and streams events to a :class:`~repro.obs.sink.JsonlSink`;
:class:`~repro.obs.progress.ProgressReporter` turns campaign events into
a live stderr line; :class:`MultiRecorder` fans one instrumentation
stream out to several of them.  All recorder methods are thread-safe
where the implementation has state — campaign cell workers and fan-out
drain threads record concurrently.

Process boundaries are not crossed: the fan-out's process pool
(:func:`repro.engine.experiment.repeat_experiment`) installs
:data:`NULL_RECORDER` in every worker through its initializer, so
engine-level metrics of a process fan-out are recorded parent-side only
(per-batch latency and transport rows), never smuggled through
pickled results.  A worker forked without it would inherit the parent's
recorder and its lock, and block forever on a lock some parent thread
held at fork time.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Version of the sink record schema (the ``meta`` line's ``schema`` field
#: and the shape of ``event``/``counter``/``gauge``/``timer`` records).
SCHEMA_VERSION = 1


class Recorder:
    """Base recorder: the full instrumentation surface, as no-ops.

    Subclasses override what they consume; unhandled instruments fall
    through to these no-ops, so a recorder reacting only to events (the
    progress reporter) needs no counter/gauge plumbing.
    """

    def counter(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the monotonically increasing counter ``name``."""

    def gauge(self, name: str, value: float) -> None:
        """Set the point-in-time gauge ``name`` to ``value``."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the distribution/timer ``name``."""

    def event(self, name: str, /, **fields: object) -> None:
        """Record a structured event (``fields`` must be JSON-serialisable).

        The event name is positional-only so field keys are unrestricted
        (``campaign.start`` carries a ``name=...`` field, for instance).
        """

    def timer(self, name: str) -> "_Timer":
        """Context manager observing its wall-clock duration under ``name``."""
        return _Timer(self, name)

    def close(self) -> None:
        """Flush and release whatever the recorder holds (idempotent)."""


class _Timer:
    """``with recorder.timer(name):`` — observes the block's duration."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._recorder.observe(self._name, time.perf_counter() - self._start)


class _NullTimer:
    """The shared timer of :class:`NullRecorder`: no clock reads, no state."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


class NullRecorder(Recorder):
    """The default recorder: stateless, allocation-free no-ops throughout."""

    def timer(self, name: str) -> "_NullTimer":  # type: ignore[override]
        return _NULL_TIMER


#: The process-wide default.  Hot paths compare against this identity to
#: skip measurement work entirely when observability is off.
NULL_RECORDER = NullRecorder()


class MetricsRecorder(Recorder):
    """In-memory metric aggregation plus event streaming to a sink.

    Counters accumulate, gauges keep their last value, ``observe``
    samples fold into ``(count, total, min, max)`` summaries.  Events
    stream to ``sink`` (a :class:`~repro.obs.sink.JsonlSink`) as they
    happen; :meth:`close` appends one summary record per metric and
    closes the sink.  All methods take one lock, so recording from
    campaign cell workers and fan-out threads is safe.
    """

    def __init__(self, sink: Optional[object] = None) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._observations: Dict[str, List[float]] = {}
        self._closed = False

    def counter(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            samples = self._observations.get(name)
            if samples is None:
                # (count, total, min, max) folded incrementally.
                self._observations[name] = [1.0, value, value, value]
            else:
                samples[0] += 1.0
                samples[1] += value
                samples[2] = min(samples[2], value)
                samples[3] = max(samples[3], value)

    def event(self, name: str, /, **fields: object) -> None:
        if self._sink is None:
            return
        record: Dict[str, object] = {"kind": "event", "event": name}
        record.update(fields)
        with self._lock:
            if not self._closed:
                self._sink.write(record)  # type: ignore[attr-defined]

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time copy of the aggregated metrics (tests, summaries)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: {"count": int(samples[0]), "total": samples[1],
                           "min": samples[2], "max": samples[3]}
                    for name, samples in self._observations.items()
                },
            }

    def close(self) -> None:
        """Flush metric summary records to the sink and close it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sink = self._sink
            if sink is None:
                return
            for name in sorted(self._counters):
                sink.write({"kind": "counter", "name": name,  # type: ignore[attr-defined]
                            "value": self._counters[name]})
            for name in sorted(self._gauges):
                sink.write({"kind": "gauge", "name": name,  # type: ignore[attr-defined]
                            "value": self._gauges[name]})
            for name in sorted(self._observations):
                count, total, low, high = self._observations[name]
                sink.write({"kind": "timer", "name": name,  # type: ignore[attr-defined]
                            "count": int(count), "total": total,
                            "min": low, "max": high})
            sink.close()  # type: ignore[attr-defined]


class MultiRecorder(Recorder):
    """Fan one instrumentation stream out to several recorders."""

    def __init__(self, recorders: Sequence[Recorder]) -> None:
        self._recorders: Tuple[Recorder, ...] = tuple(recorders)

    def counter(self, name: str, value: int = 1) -> None:
        for recorder in self._recorders:
            recorder.counter(name, value)

    def gauge(self, name: str, value: float) -> None:
        for recorder in self._recorders:
            recorder.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        for recorder in self._recorders:
            recorder.observe(name, value)

    def event(self, name: str, /, **fields: object) -> None:
        for recorder in self._recorders:
            recorder.event(name, **fields)

    def close(self) -> None:
        for recorder in self._recorders:
            recorder.close()


_current: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The currently installed recorder (:data:`NULL_RECORDER` by default)."""
    return _current


def set_recorder(recorder: Recorder) -> Recorder:
    """Install ``recorder`` process-wide; returns the previous one."""
    global _current
    previous = _current
    _current = recorder
    return previous


@contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` for the block, restore and close on exit."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
        recorder.close()
