"""Write-only observability: metrics, timers, event sinks, live progress.

The subsystem has one direction — instrumented layers (engine backends,
the fan-out, the campaign runner and its drain) *write* to the
installed :class:`Recorder`; nothing in the hashed/fold layers (campaign
planner/report/store, analysis) may import it or consume its values
(lint rule RPL007).  The default :data:`NULL_RECORDER` makes every
instrument a no-op, so hot paths pay one identity check per run.

See ``docs/observability.md`` for the recorder protocol, the sink
format, the CLI flags and the determinism boundary.
"""

from repro.obs.progress import ProgressReporter
from repro.obs.recorder import (
    NULL_RECORDER,
    SCHEMA_VERSION,
    MetricsRecorder,
    MultiRecorder,
    NullRecorder,
    Recorder,
    get_recorder,
    recording,
    set_recorder,
)
from repro.obs.sink import JsonlSink, SinkError, read_sink
from repro.obs.summary import summarize_records

__all__ = [
    "NULL_RECORDER",
    "SCHEMA_VERSION",
    "JsonlSink",
    "MetricsRecorder",
    "MultiRecorder",
    "NullRecorder",
    "ProgressReporter",
    "Recorder",
    "SinkError",
    "get_recorder",
    "read_sink",
    "recording",
    "set_recorder",
    "summarize_records",
]
