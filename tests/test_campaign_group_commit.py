"""Group-committed store appends: one ``fsync`` per drain wake.

The campaign drain buffers the records of one wake inside the store's
``group_commit`` block and makes them durable together.  These tests pin
what that may and may not change:

* the gain — an inline drain fsyncs once per executable cell (``n/a``
  verdicts ride along), a pooled drain once per wake;
* durability — no progress line before its record's ``fsync``, no cell
  computing while an earlier record is unflushed, and the interrupt path
  flushing before it returns;
* crash recovery — a group torn inside a line, and a process killed
  mid-drain, both resume to the uninterrupted report byte for byte.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from concurrent.futures import wait

import pytest

import repro.campaign.executor as executor_module
import repro.campaign.store as store_module
from repro.campaign.planner import plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import INTERRUPT_MESSAGE, run_campaign
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import ResultStore, SharedResultStore, StoreError
from repro.obs import MetricsRecorder, recording

from test_campaign_shared_store import arm_torn_write

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def mixed_campaign() -> dict:
    """Six cells in plan order: executable, n/a, n/a, executable, n/a, n/a
    (omissions on TW are infeasible)."""
    return {
        "name": "mixed-grid",
        "base": {"protocol": "epidemic", "model": "TW", "omission_bound": 2},
        "axes": {"population": [4, 6], "omissions": [0, 1, 2]},
        "runs": 2,
        "base_seed": 3,
        "max_steps": 20_000,
        "stability_window": 8,
    }


def plan_of(data: dict):
    return plan_campaign(campaign_from_dict(data))


def fresh_store(tmp_path, plan, name="store.jsonl"):
    return ResultStore.create(str(tmp_path / name), plan.campaign.name,
                              plan.campaign_hash)


def uninterrupted_report(tmp_path, plan) -> str:
    store = fresh_store(tmp_path, plan, name="reference.jsonl")
    assert run_campaign(plan, store).complete
    return render_report(plan, store.cell_records)


def count_store_fsyncs(monkeypatch) -> list:
    """Record every ``os.fsync`` the store module makes, by store path.

    ``os`` is one module object, so the patch is process-wide; counting
    only calls made from ``repro.campaign.store`` frames keeps other
    writers (telemetry sinks, say) out of the tally.
    """
    real = os.fsync
    calls = []

    def counted(fd):
        caller = sys._getframe(1)
        if caller.f_globals.get("__name__") == store_module.__name__:
            calls.append(caller.f_locals.get("path"))
        return real(fd)

    monkeypatch.setattr(store_module.os, "fsync", counted)
    return calls


def completed_then(order):
    """A ``_completed_in_order`` stand-in: wait until every cell has
    completed, then yield the futures in the fixed permutation ``order``."""

    def completed(futures):
        wait(futures)
        indices = [index for index in order if index < len(futures)]
        assert len(indices) == len(futures)
        return iter([futures[index] for index in indices])

    return completed


# ---------------------------------------------------------------------------
# the store primitive
# ---------------------------------------------------------------------------


def cell_record(cell_id: str) -> dict:
    return {"kind": "cell", "cell_id": cell_id, "index": 0,
            "coordinates": {}, "status": "na", "reason": "test"}


class TestGroupCommitPrimitive:
    def test_a_group_is_one_write_and_one_fsync_on_close(self, tmp_path,
                                                         monkeypatch):
        store = ResultStore.create(str(tmp_path / "s.jsonl"), "c", "h")
        size = os.path.getsize(store.path)
        writes = []
        real_write = os.write

        def logged(fd, data):
            writes.append(data)
            return real_write(fd, data)

        fsyncs = count_store_fsyncs(monkeypatch)
        monkeypatch.setattr(store_module.os, "write", logged)
        with store.group_commit():
            for cell_id in ("aaa", "bbb", "ccc"):
                store.append_cell(cell_record(cell_id))
            # Buffered: nothing on disk yet, but visible to readers.
            assert os.path.getsize(store.path) == size
            assert store.record_for("bbb") is not None
            assert writes == [] and fsyncs == []
        assert len(writes) == 1 and len(fsyncs) == 1
        assert writes[0].count(b"\n") == 3
        reopened = ResultStore.open(store.path, "c", "h")
        assert sorted(reopened.completed_ids()) == ["aaa", "bbb", "ccc"]

    def test_outside_a_group_every_append_is_fsynced(self, tmp_path,
                                                     monkeypatch):
        store = ResultStore.create(str(tmp_path / "s.jsonl"), "c", "h")
        fsyncs = count_store_fsyncs(monkeypatch)
        store.append_cell(cell_record("aaa"))
        store.append_cell(cell_record("bbb"))
        assert len(fsyncs) == 2

    def test_an_empty_group_writes_nothing(self, tmp_path, monkeypatch):
        store = ResultStore.create(str(tmp_path / "s.jsonl"), "c", "h")
        fsyncs = count_store_fsyncs(monkeypatch)
        with store.group_commit():
            pass
        assert fsyncs == []

    def test_groups_do_not_nest(self, tmp_path):
        store = ResultStore.create(str(tmp_path / "s.jsonl"), "c", "h")
        with store.group_commit():
            with pytest.raises(StoreError, match="do not nest"):
                with store.group_commit():
                    pass
        # The failed inner block left the outer one usable and closed it.
        store.append_cell(cell_record("aaa"))
        assert ResultStore.open(store.path, "c", "h").completed_ids() == {"aaa"}

    def test_a_group_left_by_an_exception_still_persists(self, tmp_path):
        store = ResultStore.create(str(tmp_path / "s.jsonl"), "c", "h")
        with pytest.raises(RuntimeError):
            with store.group_commit():
                store.append_cell(cell_record("aaa"))
                raise RuntimeError("abort")
        assert ResultStore.open(store.path, "c", "h").completed_ids() == {"aaa"}


# ---------------------------------------------------------------------------
# the gain: fsyncs per drain
# ---------------------------------------------------------------------------


class TestFsyncsPerDrain:
    def test_inline_drain_fsyncs_at_most_once_per_executable_cell_plus_one(
            self, tmp_path, monkeypatch):
        plan = plan_of(mixed_campaign())
        executable = sum(cell.skip_reason is None for cell in plan.cells)
        na = plan.total - executable
        assert (executable, na) == (2, 4)
        store = fresh_store(tmp_path, plan)
        fsyncs = count_store_fsyncs(monkeypatch)
        assert run_campaign(plan, store, cell_jobs=1).complete
        # One fsync per record would be executable + na = 6.
        assert len(fsyncs) <= executable + 1

    def test_pooled_drain_fsyncs_once_when_every_cell_finished_first(
            self, tmp_path, monkeypatch):
        plan = plan_of(mixed_campaign())
        monkeypatch.setattr(executor_module, "_completed_in_order",
                            completed_then([5, 2, 0, 4, 1, 3]))
        store = fresh_store(tmp_path, plan)
        fsyncs = count_store_fsyncs(monkeypatch)
        assert run_campaign(plan, store, cell_jobs=2).complete
        assert len(fsyncs) == 1
        assert uninterrupted_report(tmp_path, plan) \
            == render_report(plan, store.cell_records)

    def test_a_drain_into_a_shared_pool_fsyncs_once(self, tmp_path,
                                                    monkeypatch):
        plan = plan_of(mixed_campaign())
        monkeypatch.setattr(executor_module, "_completed_in_order",
                            completed_then([0, 1, 2, 3, 4, 5]))
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        pool.register_campaign(plan.campaign.name, plan.campaign_hash,
                               plan.cell_ids())
        fsyncs = count_store_fsyncs(monkeypatch)
        assert run_campaign(plan, pool, cell_jobs=2).complete
        assert fsyncs == [pool.path]
        assert uninterrupted_report(tmp_path, plan) \
            == render_report(plan, pool.cell_records)


# ---------------------------------------------------------------------------
# durability: lines after fsyncs, no cell computing over unflushed records
# ---------------------------------------------------------------------------


def record_events(monkeypatch) -> list:
    """Log appends, fsyncs, cell starts and progress lines, in order."""
    events = []
    real_append = ResultStore.append_cell
    real_fsync = os.fsync
    real_build = executor_module.build_cell_record

    def append(store, record):
        events.append(("append", record["cell_id"]))
        return real_append(store, record)

    def fsync(fd):
        events.append(("fsync", None))
        return real_fsync(fd)

    def build(cell, plan_, **kwargs):
        if cell.skip_reason is None:
            events.append(("compute", cell.cell_id))
        return real_build(cell, plan_, **kwargs)

    monkeypatch.setattr(ResultStore, "append_cell", append)
    monkeypatch.setattr(store_module.os, "fsync", fsync)
    monkeypatch.setattr(executor_module, "build_cell_record", build)
    return events


def check_durability(events, plan, *, inline: bool) -> None:
    by_index = {f"cell {cell.index + 1}/{plan.total} ": cell.cell_id
                for cell in plan.cells}
    unflushed, durable = set(), set()
    for kind, value in events:
        if kind == "append":
            unflushed.add(value)
        elif kind == "fsync":
            durable |= unflushed
            unflushed = set()
        elif kind == "compute" and inline:
            assert not unflushed, f"cell computed over unflushed {unflushed}"
        elif kind == "line" and value != INTERRUPT_MESSAGE:
            prefix = value[:value.index("[")]
            assert by_index[prefix] in durable, f"line before fsync: {value}"
    assert not unflushed


class TestDurabilityOrder:
    @pytest.mark.parametrize("cell_jobs", [1, 2])
    def test_lines_follow_fsyncs_and_cells_follow_flushes(
            self, tmp_path, monkeypatch, cell_jobs):
        plan = plan_of(mixed_campaign())
        store = fresh_store(tmp_path, plan)
        events = record_events(monkeypatch)
        run_campaign(plan, store, cell_jobs=cell_jobs,
                     progress=lambda line: events.append(("line", line)))
        assert sum(kind == "line" for kind, _ in events) == plan.total
        check_durability(events, plan, inline=cell_jobs == 1)

    def test_keyboard_interrupt_flushes_before_it_returns(self, tmp_path,
                                                          monkeypatch):
        """Pooled: every other cell finished before the interrupted one is
        yielded, so its group holds records when the interrupt lands."""
        plan = plan_of(mixed_campaign())
        events = record_events(monkeypatch)
        logged = executor_module.build_cell_record

        def interrupting(cell, plan_, **kwargs):
            if cell.index == 3:
                raise KeyboardInterrupt
            return logged(cell, plan_, **kwargs)

        monkeypatch.setattr(executor_module, "build_cell_record", interrupting)
        monkeypatch.setattr(executor_module, "_completed_in_order",
                            completed_then([0, 1, 3, 2, 4, 5]))
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store, cell_jobs=2,
                              progress=lambda line: events.append(("line", line)))
        assert status.keyboard_interrupt
        check_durability(events, plan, inline=False)
        lines = [value for kind, value in events if kind == "line"]
        assert lines[-1] == INTERRUPT_MESSAGE and len(lines) == plan.total
        reopened = ResultStore.open(store.path, plan.campaign.name,
                                    plan.campaign_hash)
        assert reopened.completed_ids() == {
            cell.cell_id for cell in plan.cells if cell.index != 3}


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------


def counting_build(monkeypatch) -> list:
    real = executor_module.build_cell_record
    executed = []

    def counted(cell, plan, **kwargs):
        executed.append(cell.cell_id)
        return real(cell, plan, **kwargs)

    monkeypatch.setattr(executor_module, "build_cell_record", counted)
    return executed


class TestTornGroup:
    def test_a_group_torn_in_its_second_line_resumes_to_the_same_report(
            self, tmp_path, monkeypatch):
        plan = plan_of(mixed_campaign())
        expected = uninterrupted_report(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        manifest_size = os.path.getsize(store.path)
        first = store_module._record_line(
            dict(executor_module.build_cell_record(plan.cells[0], plan)))
        # The first group is cells 0-2 (executable, n/a, n/a), flushed
        # before cell 3 computes; cut it ten bytes into its second line.
        arm_torn_write(monkeypatch, len(first) + 10)
        with pytest.raises(OSError, match="simulated crash"):
            run_campaign(plan, store)
        assert os.path.getsize(store.path) == manifest_size + len(first) + 10

        monkeypatch.undo()
        reopened = ResultStore.open(store.path, plan.campaign.name,
                                    plan.campaign_hash)
        assert reopened.completed_ids() == {plan.cells[0].cell_id}
        assert os.path.getsize(store.path) == manifest_size + len(first)

        executed = counting_build(monkeypatch)
        assert run_campaign(plan, reopened).complete
        assert executed == [cell.cell_id for cell in plan.cells[1:]]
        assert render_report(plan, reopened.cell_records) == expected


def killable_campaign() -> dict:
    """Twelve cells of about 50 ms each (a stability window as long as the
    step budget keeps every run going to ``max_steps``), so a kill after
    the third progress line lands mid-drain."""
    return {
        "name": "killable",
        "base": {"protocol": "epidemic", "model": "TW"},
        "axes": {"population": [10, 12, 14, 16, 18, 20],
                 "scheduler": ["random", "round-robin"]},
        "runs": 2,
        "base_seed": 5,
        "max_steps": 20_000,
        "stability_window": 20_000,
    }


class TestProcessKill:
    def test_sigkill_after_a_progress_line_loses_no_printed_cell(self,
                                                                 tmp_path):
        from repro.cli import main

        data = killable_campaign()
        plan = plan_of(data)
        spec = tmp_path / "killable.json"
        spec.write_text(json.dumps(data), encoding="utf-8")
        store = str(tmp_path / "killed.jsonl")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run", str(spec),
             "--store", store, "--cell-jobs", "2", "--engine-backend", "python"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        printed = []
        try:
            for line in child.stdout:
                if line.startswith("cell "):
                    printed.append(line.split(" ", 2)[1])
                    if len(printed) == 3:
                        child.send_signal(signal.SIGKILL)
                        break
        finally:
            child.stdout.close()
            child.wait()
        assert child.returncode == -signal.SIGKILL
        assert len(printed) == 3

        reopened = ResultStore.open(store, plan.campaign.name,
                                    plan.campaign_hash)
        for position in printed:
            index = int(position.split("/")[0]) - 1
            assert plan.cells[index].cell_id in reopened.completed_ids()

        assert main(["campaign", "resume", str(spec), "--store", store,
                     "--cell-jobs", "2", "--engine-backend", "python",
                     "--quiet"]) == 0
        resumed = ResultStore.open(store, plan.campaign.name,
                                   plan.campaign_hash)
        assert render_report(plan, resumed.cell_records) \
            == uninterrupted_report(tmp_path, plan)


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


class TestGroupTelemetry:
    @pytest.mark.parametrize("cell_jobs", [1, 2])
    def test_each_flush_records_its_size_and_fsync_time(self, tmp_path,
                                                        monkeypatch,
                                                        cell_jobs):
        plan = plan_of(mixed_campaign())
        store = fresh_store(tmp_path, plan)
        fsyncs = count_store_fsyncs(monkeypatch)
        recorder = MetricsRecorder()
        with recording(recorder):
            run_campaign(plan, store, cell_jobs=cell_jobs)
        timers = recorder.snapshot()["timers"]
        sizes = timers["store.group_records"]
        assert sizes["total"] == plan.total
        assert sizes["count"] == len(fsyncs)
        assert timers["store.fsync_seconds"]["count"] == len(fsyncs)
        assert timers["store.fsync_seconds"]["min"] >= 0.0
