"""Observability-layer tests: recorder semantics, the JSONL sink, the
injection seams (engine, fan-out, campaign), and the determinism pin —
campaign stores and rendered reports are **byte-identical** with
observability on or off, across the serial walk, the parallel executor,
and the process+shm fan-out.  Telemetry is write-only (RPL007); these
tests are the runtime half of that contract."""

from __future__ import annotations

import io
import json

import pytest

from repro.campaign.executor import CampaignQueue
from repro.campaign.planner import plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import build_cell_record, run_campaign
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import ResultStore
from repro.adversary.omission import UOAdversary
from repro.cli import main
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.experiment import repeat_experiment
from repro.engine.fastpath import AgentCountPredicate
from repro.engine.transport import shm_unavailable_reason
from repro.obs import (
    NULL_RECORDER,
    SCHEMA_VERSION,
    JsonlSink,
    MetricsRecorder,
    MultiRecorder,
    NullRecorder,
    ProgressReporter,
    Recorder,
    SinkError,
    get_recorder,
    read_sink,
    recording,
    set_recorder,
    summarize_records,
)
from repro.interaction.models import get_model
from repro.protocols.catalog.epidemic import INFORMED, SUSCEPTIBLE, EpidemicProtocol
from repro.protocols.registry import ExperimentSpec
from repro.protocols.state import Configuration
from repro.scheduling.scheduler import RandomScheduler


def small_campaign(name: str = "obs-grid") -> dict:
    """A fast four-cell campaign for the byte-identity pins."""
    return {
        "name": name,
        "base": {"protocol": "epidemic", "backend": "python"},
        "axes": {
            "scheduler": ["random", "round-robin"],
            "population": [4, 6],
        },
        "runs": 2,
        "base_seed": 3,
        "max_steps": 20_000,
        "stability_window": 8,
    }


def store_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# NullRecorder — the zero-overhead default
# ---------------------------------------------------------------------------


class TestNullRecorder:
    def test_default_recorder_is_the_null_singleton(self):
        assert get_recorder() is NULL_RECORDER
        assert isinstance(NULL_RECORDER, NullRecorder)

    def test_all_instruments_are_noops(self):
        assert NULL_RECORDER.counter("x") is None
        assert NULL_RECORDER.counter("x", 5) is None
        assert NULL_RECORDER.gauge("x", 1.0) is None
        assert NULL_RECORDER.observe("x", 1.0) is None
        assert NULL_RECORDER.event("x", detail="y") is None
        assert NULL_RECORDER.close() is None

    def test_null_timer_is_shared_and_stateless(self):
        first = NULL_RECORDER.timer("a")
        second = NULL_RECORDER.timer("b")
        assert first is second  # no per-call allocation
        with first:
            pass  # no clock reads, no observations

    def test_null_recorder_holds_no_state(self):
        assert not vars(NULL_RECORDER)

    def test_set_recorder_returns_previous(self):
        replacement = MetricsRecorder()
        previous = set_recorder(replacement)
        try:
            assert previous is NULL_RECORDER
            assert get_recorder() is replacement
        finally:
            set_recorder(previous)

    def test_recording_restores_and_closes(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "s.jsonl"))
        recorder = MetricsRecorder(sink=sink)
        with recording(recorder) as active:
            assert active is recorder
            assert get_recorder() is recorder
        assert get_recorder() is NULL_RECORDER
        # close() ran: the sink no longer accepts writes.
        before = store_bytes(tmp_path / "s.jsonl")
        sink.write({"kind": "event", "event": "late"})
        assert store_bytes(tmp_path / "s.jsonl") == before

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with recording(MetricsRecorder()):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER


# ---------------------------------------------------------------------------
# MetricsRecorder — aggregation, events, thread-safe folding
# ---------------------------------------------------------------------------


class TestMetricsRecorder:
    def test_counters_accumulate_and_gauges_overwrite(self):
        recorder = MetricsRecorder()
        recorder.counter("runs")
        recorder.counter("runs", 4)
        recorder.gauge("width", 2.0)
        recorder.gauge("width", 8.0)
        snapshot = recorder.snapshot()
        assert snapshot["counters"] == {"runs": 5}
        assert snapshot["gauges"] == {"width": 8.0}

    def test_observations_fold_into_count_total_min_max(self):
        recorder = MetricsRecorder()
        for value in (3.0, 1.0, 2.0):
            recorder.observe("latency", value)
        timers = recorder.snapshot()["timers"]
        assert timers["latency"] == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0}

    def test_timer_context_manager_observes(self):
        recorder = MetricsRecorder()
        with recorder.timer("block"):
            pass
        timers = recorder.snapshot()["timers"]
        assert timers["block"]["count"] == 1
        assert timers["block"]["total"] >= 0.0

    def test_event_name_field_does_not_collide(self, tmp_path):
        # Regression: campaign.start carries a name=... field, so the
        # event-name parameter must be positional-only on every recorder.
        sink = JsonlSink(str(tmp_path / "s.jsonl"))
        recorder = MultiRecorder([MetricsRecorder(sink=sink),
                                  ProgressReporter(stream=io.StringIO())])
        recorder.event("campaign.start", name="grid", total=4)
        recorder.close()
        events = [r for r in read_sink(str(tmp_path / "s.jsonl"))
                  if r["kind"] == "event"]
        assert events == [{"kind": "event", "event": "campaign.start",
                           "name": "grid", "total": 4}]

    def test_close_writes_sorted_summaries_and_is_idempotent(self, tmp_path):
        path = tmp_path / "s.jsonl"
        recorder = MetricsRecorder(sink=JsonlSink(str(path)))
        recorder.counter("b.counter")
        recorder.counter("a.counter", 2)
        recorder.gauge("g", 1.5)
        recorder.observe("t", 0.25)
        recorder.close()
        recorder.close()  # idempotent
        records = read_sink(str(path))
        kinds = [record["kind"] for record in records]
        assert kinds == ["meta", "counter", "counter", "gauge", "timer"]
        assert [r["name"] for r in records if r["kind"] == "counter"] == [
            "a.counter", "b.counter"]

    def test_multi_recorder_fans_out(self):
        first, second = MetricsRecorder(), MetricsRecorder()
        multi = MultiRecorder([first, second])
        multi.counter("x", 3)
        multi.gauge("g", 1.0)
        multi.observe("o", 2.0)
        assert first.snapshot() == second.snapshot()
        assert first.snapshot()["counters"] == {"x": 3}


# ---------------------------------------------------------------------------
# JSONL sink — schema, round-trip, validation
# ---------------------------------------------------------------------------


class TestJsonlSink:
    def test_round_trip_with_meta_line_and_sorted_keys(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlSink(str(path))
        sink.write({"kind": "event", "event": "z", "beta": 1, "alpha": 2})
        sink.close()
        lines = store_bytes(path).decode().splitlines()
        assert json.loads(lines[0]) == {"kind": "meta",
                                        "schema": SCHEMA_VERSION}
        # Keys are sorted so sink bytes are deterministic given the records.
        assert lines[1] == ('{"alpha": 2, "beta": 1, "event": "z", '
                            '"kind": "event"}')
        records = read_sink(str(path))
        assert len(records) == 2

    def test_read_sink_rejects_missing_file(self, tmp_path):
        with pytest.raises(SinkError, match="cannot read"):
            read_sink(str(tmp_path / "absent.jsonl"))

    def test_read_sink_rejects_non_json_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "meta", "schema": 1}\nnot json\n')
        with pytest.raises(SinkError, match="not a JSON record"):
            read_sink(str(path))

    def test_read_sink_rejects_records_without_kind(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "meta", "schema": 1}\n{"event": "x"}\n')
        with pytest.raises(SinkError, match="'kind' field"):
            read_sink(str(path))

    def test_read_sink_requires_leading_meta(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "counter", "name": "x", "value": 1}\n')
        with pytest.raises(SinkError, match="meta"):
            read_sink(str(path))

    def test_read_sink_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "meta", "schema": 999}\n')
        with pytest.raises(SinkError, match="schema 999"):
            read_sink(str(path))


# ---------------------------------------------------------------------------
# Injection seams — engine, fan-out, campaign
# ---------------------------------------------------------------------------


def _spec(**overrides) -> ExperimentSpec:
    fields = {"protocol": "epidemic", "population": 8}
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestEngineSeam:
    def test_engine_counters_recorded_per_run(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            repeat_experiment(spec=_spec(), runs=3, max_steps=5_000,
                              base_seed=1, trace_policy="counts-only")
        counters = recorder.snapshot()["counters"]
        assert counters["engine.runs"] == 3
        assert counters["engine.backend.python"] == 3
        assert counters["engine.converged"] == 3
        assert counters["engine.steps"] > 0
        assert counters["engine.chunks"] >= 3
        timers = recorder.snapshot()["timers"]
        assert timers["engine.run_seconds"]["count"] == 3

    def test_chunks_counter_is_ceil_of_steps_over_chunk_size(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            repeat_experiment(spec=_spec(chunk_size=7), runs=1,
                              max_steps=5_000, base_seed=1,
                              trace_policy="counts-only")
        counters = recorder.snapshot()["counters"]
        assert counters["engine.chunks"] == -(-counters["engine.steps"] // 7)

    def test_chunks_counter_counts_scheduler_draws_not_injections(self):
        """Injected steps share a chunk's budget with its draws, so
        ``ceil(steps / chunk_size)`` would overcount: UO at rate 1.0 on T3
        runs 1000 steps in 9 draws of up to 64, not 16."""
        model = get_model("T3")
        scheduler = RandomScheduler(8, seed=1)
        draws = []
        draw = scheduler.next_columns
        scheduler.next_columns = lambda step, k: draws.append(k) or draw(step, k)
        engine = SimulationEngine(EpidemicProtocol(), model, scheduler,
                                  adversary=UOAdversary(model, rate=1.0, seed=1))
        recorder = MetricsRecorder()
        with recording(recorder):
            result = run_until_stable(
                engine, Configuration([INFORMED] + [SUSCEPTIBLE] * 7),
                lambda configuration: False, max_steps=1_000,
                trace_policy="counts-only", chunk_size=64)
        assert result.steps_executed == 1_000
        assert len(draws) == 9
        assert recorder.snapshot()["counters"]["engine.chunks"] == 9

    def test_array_chunks_counter_counts_scheduler_draws_not_injections(self):
        """The array twin: the columnar loop reports its own draw count."""
        pytest.importorskip("numpy")
        model = get_model("T3")
        engine = SimulationEngine(EpidemicProtocol(), model,
                                  RandomScheduler(8, seed=1),
                                  adversary=UOAdversary(model, rate=1.0, seed=1),
                                  backend="array")
        recorder = MetricsRecorder()
        with recording(recorder):
            result = run_until_stable(
                engine, Configuration([INFORMED] + [SUSCEPTIBLE] * 7),
                AgentCountPredicate(lambda state: False), max_steps=1_000,
                trace_policy="counts-only", chunk_size=64)
        assert result.steps_executed == 1_000
        assert recorder.snapshot()["counters"]["engine.chunks"] == 9


class TestFanoutSeam:
    def test_thread_fanout_records_backend_and_batch_latency(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            repeat_experiment(spec=_spec(), runs=4, max_steps=5_000,
                              base_seed=1, jobs=2, jobs_backend="thread",
                              trace_policy="counts-only")
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["fanout.backend.thread"] == 1
        assert snapshot["gauges"]["fanout.workers"] == 2
        assert snapshot["timers"]["fanout.batch_seconds"]["count"] == 4

    def test_sequential_path_records_its_backend(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            repeat_experiment(spec=_spec(), runs=2, max_steps=5_000,
                              base_seed=1, trace_policy="counts-only")
        assert recorder.snapshot()["counters"]["fanout.backend.sequential"] == 1

    @pytest.mark.skipif(shm_unavailable_reason() is not None,
                        reason="shared memory unavailable")
    def test_process_shm_fanout_records_transport_lanes(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            result = repeat_experiment(
                spec=_spec(), runs=4, max_steps=5_000, base_seed=1,
                jobs=2, jobs_backend="process", run_chunk=2,
                trace_policy="counts-only", result_transport="shm")
        counters = recorder.snapshot()["counters"]
        assert result.runs == 4
        assert counters["fanout.backend.process"] == 1
        assert counters["fanout.transport.shm"] == 1
        assert counters["transport.shm.batches"] >= 1
        assert counters["transport.shm.rows"] == 4
        assert counters["transport.shm.bytes"] > 0
        # Worker processes start with the NullRecorder, so engine counters
        # of a process fan-out are parent-side only — none leak through.
        assert "engine.runs" not in counters


class TestCampaignSeam:
    def _plan(self):
        return plan_campaign(campaign_from_dict(small_campaign()))

    def test_build_cell_record_emits_cell_event_and_metrics(self, tmp_path):
        plan = self._plan()
        sink = JsonlSink(str(tmp_path / "s.jsonl"))
        recorder = MetricsRecorder(sink=sink)
        with recording(recorder):
            record = build_cell_record(plan.cells[0], plan)
        assert record["status"] == "ok"
        counters = recorder.snapshot()["counters"]
        assert counters["campaign.cells.ok"] == 1
        recorder.close()
        events = [r for r in read_sink(str(tmp_path / "s.jsonl"))
                  if r.get("event") == "campaign.cell"]
        assert len(events) == 1
        assert events[0]["cell_id"] == plan.cells[0].cell_id
        assert events[0]["status"] == "ok"
        assert events[0]["backend"] == "python"

    def test_record_is_identical_with_and_without_recorder(self, tmp_path):
        plan = self._plan()
        bare = build_cell_record(plan.cells[0], plan)
        with recording(MetricsRecorder(sink=JsonlSink(str(tmp_path / "s.jsonl")))):
            observed = build_cell_record(plan.cells[0], plan)
        assert bare == observed  # telemetry never reaches the record

    def test_run_campaign_emits_start_end_and_skip_counters(self, tmp_path):
        plan = self._plan()
        store = ResultStore.create(str(tmp_path / "store.jsonl"),
                                   plan.campaign.name, plan.campaign_hash)
        run_campaign(plan, store)  # warm the store without telemetry
        sink_path = tmp_path / "s.jsonl"
        recorder = MetricsRecorder(sink=JsonlSink(str(sink_path)))
        with recording(recorder):
            run_campaign(plan, store)  # every cell is now a store hit
        counters = recorder.snapshot()["counters"]
        assert counters["campaign.cells.skipped"] == plan.total
        recorder.close()
        events = {r["event"] for r in read_sink(str(sink_path))
                  if r["kind"] == "event"}
        assert {"campaign.start", "campaign.end"} <= events

    def test_queue_records_depth_and_cache_hits(self, tmp_path):
        plan = self._plan()
        store = ResultStore.create(str(tmp_path / "store.jsonl"),
                                   plan.campaign.name, plan.campaign_hash)
        run_campaign(plan, store)
        queue = CampaignQueue()
        queue.submit(plan, store)
        recorder = MetricsRecorder()
        with recording(recorder):
            queue.drain()
        # Everything was already persisted: nothing enqueued, no cache
        # deliveries needed — the gauges still record the drain's shape.
        assert recorder.snapshot()["gauges"]["queue.campaigns"] == 1
        assert recorder.snapshot()["gauges"]["queue.depth"] == 0

    def test_run_campaign_records_the_scheduler_metrics(self, tmp_path):
        plan = self._plan()
        store = ResultStore.create(str(tmp_path / "store.jsonl"),
                                   plan.campaign.name, plan.campaign_hash)
        recorder = MetricsRecorder()
        with recording(recorder):
            status = run_campaign(plan, store, cell_jobs=2)
        snapshot = recorder.snapshot()
        assert snapshot["gauges"]["campaign.pool_width"] == 2
        assert snapshot["gauges"]["queue.campaigns"] == 1
        assert snapshot["gauges"]["queue.depth"] == plan.total
        assert snapshot["counters"]["queue.executed"] == status.executed_now
        assert snapshot["counters"]["queue.delivered"] == status.executed_now
        assert snapshot["counters"]["queue.cache_hits"] == 0
        assert "campaign.cells.submitted" not in snapshot["counters"]


# ---------------------------------------------------------------------------
# Progress reporter — stderr line, never stdout
# ---------------------------------------------------------------------------


class TestProgressReporter:
    def test_renders_done_total_rate_and_backend_tally(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        reporter.event("campaign.start", name="grid", total=2)
        reporter.event("campaign.cell", status="ok", backend="python")
        reporter.event("campaign.cell", status="ok", backend="array")
        reporter.event("campaign.end")
        text = stream.getvalue()
        assert "2/2 cells" in text
        assert "cells/s" in text
        assert "array:1 python:1" in text
        assert text.endswith("\n")

    def test_unrelated_events_are_ignored(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        reporter.event("transport.degraded", reason="x")
        assert stream.getvalue() == ""

    def test_gone_stream_ends_the_display_not_the_run(self):
        stream = io.StringIO()
        stream.close()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        reporter.event("campaign.start", total=1)  # must not raise
        reporter.close()


# ---------------------------------------------------------------------------
# Summary fold
# ---------------------------------------------------------------------------


class TestSummary:
    def test_sections_render_for_each_record_kind(self):
        records = [
            {"kind": "meta", "schema": SCHEMA_VERSION},
            {"kind": "event", "event": "campaign.cell"},
            {"kind": "event", "event": "campaign.cell"},
            {"kind": "counter", "name": "engine.runs", "value": 4},
            {"kind": "gauge", "name": "fanout.workers", "value": 2},
            {"kind": "timer", "name": "engine.run_seconds",
             "count": 2, "total": 0.5, "min": 0.2, "max": 0.3},
        ]
        text = summarize_records(records)
        assert "counters" in text and "engine.runs" in text
        assert "gauges" in text and "fanout.workers" in text
        assert "timers (seconds)" in text and "0.2500" in text
        assert "events" in text and "campaign.cell" in text

    def test_meta_only_sink_summarises_to_a_notice(self):
        text = summarize_records([{"kind": "meta", "schema": SCHEMA_VERSION}])
        assert "no records" in text


# ---------------------------------------------------------------------------
# Byte-identity pin — store and report with metrics on vs off
# ---------------------------------------------------------------------------


class TestByteIdentity:
    def _execute(self, tmp_path, label: str, *, metrics: bool, **cli_flags):
        spec_path = tmp_path / "grid.json"
        if not spec_path.exists():
            spec_path.write_text(json.dumps(small_campaign()),
                                 encoding="utf-8")
        store_path = tmp_path / f"{label}.results.jsonl"
        argv = ["campaign", "run", str(spec_path),
                "--store", str(store_path), "--quiet"]
        for flag, value in cli_flags.items():
            argv += [f"--{flag}", str(value)]
        if metrics:
            argv += ["--metrics", str(tmp_path / f"{label}.metrics.jsonl")]
        assert main(argv) == 0
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = ResultStore.open(str(store_path), plan.campaign.name,
                                 plan.campaign_hash)
        return store_bytes(store_path), render_report(plan, store.cell_records)

    def test_sequential_store_and_report_bytes_match(self, tmp_path):
        bare = self._execute(tmp_path, "bare", metrics=False)
        observed = self._execute(tmp_path, "observed", metrics=True)
        assert bare == observed
        assert read_sink(str(tmp_path / "observed.metrics.jsonl"))

    def test_parallel_executor_report_bytes_match(self, tmp_path):
        bare = self._execute(tmp_path, "bare", metrics=False)
        _, observed_report = self._execute(
            tmp_path, "observed", metrics=True, **{"cell-jobs": 2})
        # Parallel appends permute the file; the report fold is the pin.
        assert observed_report == bare[1]

    @pytest.mark.skipif(shm_unavailable_reason() is not None,
                        reason="shared memory unavailable")
    def test_process_shm_report_bytes_match(self, tmp_path):
        bare = self._execute(tmp_path, "bare", metrics=False)
        _, observed_report = self._execute(
            tmp_path, "observed", metrics=True,
            **{"jobs": 2, "backend": "process", "run-chunk": 2,
               "result-transport": "shm"})
        assert observed_report == bare[1]

    def test_progress_flag_keeps_stdout_byte_identical(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(small_campaign()), encoding="utf-8")
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(tmp_path / "a.results.jsonl"),
                     "--quiet"]) == 0
        plain = capsys.readouterr()
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(tmp_path / "b.results.jsonl"),
                     "--quiet", "--progress",
                     "--metrics", str(tmp_path / "b.metrics.jsonl")]) == 0
        observed = capsys.readouterr()
        assert observed.out.replace("b.results", "a.results") == plain.out
        assert "cells/s" in observed.err  # the live line went to stderr
        assert "cells/s" not in plain.err


# ---------------------------------------------------------------------------
# CLI surfaces — repro run --metrics, repro campaign metrics
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_metrics_writes_a_valid_sink(self, tmp_path, capsys):
        sink_path = tmp_path / "run.metrics.jsonl"
        code = main(["run", "--protocol", "epidemic", "--population", "8",
                     "--trace-policy", "counts-only", "--runs", "2",
                     "--metrics", str(sink_path)])
        assert code == 0
        records = read_sink(str(sink_path))
        names = {r.get("name") for r in records if r["kind"] == "counter"}
        assert "engine.runs" in names
        # stdout carries the usual table, untouched by telemetry.
        assert "successes" in capsys.readouterr().out

    def test_campaign_metrics_renders_the_summary(self, tmp_path, capsys):
        sink = JsonlSink(str(tmp_path / "s.jsonl"))
        sink.write({"kind": "counter", "name": "engine.runs", "value": 7})
        sink.close()
        assert main(["campaign", "metrics", str(tmp_path / "s.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "engine.runs" in out and "7" in out

    def test_campaign_metrics_rejects_a_non_sink(self, tmp_path):
        path = tmp_path / "not-a-sink.jsonl"
        path.write_text("{}\n")
        with pytest.raises(SystemExit):
            main(["campaign", "metrics", str(path)])

    def test_campaign_metrics_rejects_a_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "metrics", str(tmp_path / "absent.jsonl")])


# ---------------------------------------------------------------------------
# Degradation events — satellite: warnings also land in the sink
# ---------------------------------------------------------------------------


class TestDegradationEvents:
    def test_auto_degradation_warning_is_mirrored_as_an_event(
            self, tmp_path, monkeypatch):
        from repro.engine import transport

        monkeypatch.setattr(transport, "shm_unavailable_reason",
                            lambda: "no /dev/shm")
        sink_path = tmp_path / "s.jsonl"
        recorder = MetricsRecorder(sink=JsonlSink(str(sink_path)))
        with recording(recorder):
            with pytest.warns(RuntimeWarning, match="falling back"):
                resolved = transport.resolve_transport(
                    "auto", jobs_backend="process",
                    trace_policy="counts-only", process_fanout=True)
        assert resolved == "pickle"
        recorder.close()
        events = [r for r in read_sink(str(sink_path))
                  if r.get("event") == "transport.degraded"]
        assert events == [{
            "kind": "event", "event": "transport.degraded",
            "requested": "auto", "fallback": "pickle",
            "reason": "no /dev/shm"}]

    def test_backend_fallback_reasons_land_in_the_sink(self, tmp_path):
        spec = small_campaign()
        spec["base"] = {"protocol": "epidemic", "backend": "auto",
                        "simulator": "skno", "omission_bound": 1,
                        "model": "I3"}
        spec["axes"] = {"population": [4]}
        plan = plan_campaign(campaign_from_dict(spec))
        store = ResultStore.create(str(tmp_path / "store.jsonl"),
                                   plan.campaign.name, plan.campaign_hash)
        sink_path = tmp_path / "s.jsonl"
        recorder = MetricsRecorder(sink=JsonlSink(str(sink_path)))
        with recording(recorder):
            run_campaign(plan, store)
        recorder.close()
        fallbacks = [r for r in read_sink(str(sink_path))
                     if r.get("event") == "campaign.backend_fallback"]
        assert fallbacks and all(r["backend"] == "python" for r in fallbacks)
        assert all(r["reason"] for r in fallbacks)


class TestRecorderProtocol:
    def test_base_recorder_methods_are_noops_for_subclasses(self):
        class EventsOnly(Recorder):
            def __init__(self) -> None:
                self.seen = []

            def event(self, name: str, /, **fields: object) -> None:
                self.seen.append(name)

        recorder = EventsOnly()
        recorder.counter("x")
        recorder.gauge("x", 1.0)
        recorder.observe("x", 1.0)
        with recorder.timer("t"):
            pass
        recorder.event("only-this")
        assert recorder.seen == ["only-this"]
