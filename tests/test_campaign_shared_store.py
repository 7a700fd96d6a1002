"""Shared multi-campaign store tests: cross-campaign dedup, crash/torn-write
fault injection on the append path, and compaction semantics.

The fault injection goes through a monkeypatched ``os.write`` that tears
the append mid-record (writes a prefix, then "crashes"), exactly the
failure the store's single-``write``-per-line discipline is designed to
survive: recovery must keep every complete record, and compaction must be
idempotent (``compact(compact(s)) == compact(s)`` byte for byte) and
invisible to reports.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.planner import plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import run_campaign
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import (
    ResultStore,
    SharedResultStore,
    StoreError,
    compact_store,
    store_kind,
)
from repro.cli import main


def small_campaign(name: str = "first", populations=(4, 6)) -> dict:
    return {
        "name": name,
        "base": {"protocol": "epidemic"},
        "axes": {
            "scheduler": ["random", "round-robin"],
            "population": list(populations),
        },
        "runs": 2,
        "base_seed": 3,
        "max_steps": 20_000,
        "stability_window": 8,
    }


def overlapping_plans():
    """Two campaigns sharing four cells; the second has two more."""
    return (plan_campaign(campaign_from_dict(small_campaign("first"))),
            plan_campaign(campaign_from_dict(
                small_campaign("second", populations=(4, 6, 8)))))


def run_into_pool(plan, pool, **kwargs):
    pool.register_campaign(plan.campaign.name, plan.campaign_hash,
                           plan.cell_ids())
    return run_campaign(plan, pool, **kwargs)


def store_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def cell_record(cell_id: str, status: str = "na") -> dict:
    return {"kind": "cell", "cell_id": cell_id, "index": 0,
            "coordinates": {}, "status": status, "reason": "synthetic"}


# ---------------------------------------------------------------------------
# store kinds and opening discipline
# ---------------------------------------------------------------------------


class TestStoreKinds:
    def test_store_kind_dispatches_on_the_manifest(self, tmp_path):
        exclusive = str(tmp_path / "exclusive.jsonl")
        ResultStore.create(exclusive, "camp", "hash")
        shared = str(tmp_path / "shared.jsonl")
        SharedResultStore.create(shared)
        assert store_kind(exclusive) == "exclusive"
        assert store_kind(shared) == "shared"

    def test_store_kind_rejects_foreign_files(self, tmp_path):
        foreign = tmp_path / "notes.txt"
        foreign.write_text("just some text\n", encoding="utf-8")
        with pytest.raises(StoreError, match="manifest"):
            store_kind(str(foreign))
        with pytest.raises(StoreError, match="no result store"):
            store_kind(str(tmp_path / "missing.jsonl"))

    def test_exclusive_open_rejects_a_shared_pool(self, tmp_path):
        path = str(tmp_path / "pool.jsonl")
        SharedResultStore.create(path)
        with pytest.raises(StoreError, match="shared multi-campaign store"):
            ResultStore.open(path, "camp", "hash")

    def test_shared_open_rejects_an_exclusive_store(self, tmp_path):
        path = str(tmp_path / "solo.jsonl")
        ResultStore.create(path, "camp", "hash")
        with pytest.raises(StoreError, match="exclusive single-campaign"):
            SharedResultStore.open(path)

    def test_registration_supersede_and_orphans(self, tmp_path):
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        pool.append_cell(cell_record("aaa"))
        pool.append_cell(cell_record("bbb"))
        assert pool.register_campaign("camp", "h1", ["aaa", "bbb"])
        # Identical re-registration is a no-op append.
        assert not pool.register_campaign("camp", "h1", ["bbb", "aaa"])
        # A changed grid supersedes; the dropped cell becomes an orphan.
        assert pool.register_campaign("camp", "h2", ["aaa"])
        assert pool.completed_ids() - pool.referenced_ids() == {"bbb"}
        reopened = SharedResultStore.open(pool.path)
        assert reopened.completed_ids() - reopened.referenced_ids() == {"bbb"}
        # The reopened pool holds the h2 registration: repeating it is a no-op.
        assert not reopened.register_campaign("camp", "h2", ["aaa"])


# ---------------------------------------------------------------------------
# cross-campaign dedup
# ---------------------------------------------------------------------------


def counting_runner(monkeypatch):
    """Count the cells the campaign scheduler actually executes."""
    import repro.campaign.executor as executor_module
    real = executor_module.build_cell_record
    executed = []

    def counted(cell, plan, **kwargs):
        executed.append(cell.cell_id)
        return real(cell, plan, **kwargs)

    monkeypatch.setattr(executor_module, "build_cell_record", counted)
    return executed


class TestCrossCampaignDedup:
    def test_second_campaign_executes_only_the_set_difference(
            self, tmp_path, monkeypatch):
        plan_a, plan_b = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        run_into_pool(plan_a, pool)

        executed = counting_runner(monkeypatch)
        status = run_into_pool(plan_b, pool)
        assert status.complete
        fresh = sorted(set(plan_b.cell_ids()) - set(plan_a.cell_ids()))
        assert sorted(executed) == fresh
        assert status.executed_now == len(fresh) == 2

        # A third pass over either campaign recomputes nothing.
        executed.clear()
        assert run_into_pool(plan_a, pool).executed_now == 0
        assert run_into_pool(plan_b, pool).executed_now == 0
        assert executed == []

    def test_shared_reports_byte_match_isolated_stores(self, tmp_path):
        plan_a, plan_b = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        run_into_pool(plan_a, pool)
        run_into_pool(plan_b, pool)

        for plan in (plan_a, plan_b):
            isolated = ResultStore.create(
                str(tmp_path / f"isolated-{plan.campaign.name}.jsonl"),
                plan.campaign.name, plan.campaign_hash)
            run_campaign(plan, isolated)
            assert render_report(plan, pool.cell_records) == render_report(
                plan, isolated.cell_records)

    def test_parallel_execution_into_the_pool(self, tmp_path):
        plan_a, plan_b = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        run_into_pool(plan_a, pool, cell_jobs=4)
        status = run_into_pool(plan_b, pool, cell_jobs=4)
        assert status.complete and status.executed_now == 2


# ---------------------------------------------------------------------------
# crash / torn-write fault injection
# ---------------------------------------------------------------------------


def arm_torn_write(monkeypatch, cut: int):
    """Make the next cell-record append crash after ``cut`` bytes.

    Patches ``os.write`` (the store's one write syscall) with a wrapper
    that recognises the cell-record payload, writes only a prefix, and
    raises — everything else passes through untouched.
    """
    real = os.write
    state = {"armed": True}

    def torn(fd, data):
        if state["armed"] and isinstance(data, bytes) \
                and data.startswith(b'{"cell_id"'):
            state["armed"] = False
            real(fd, data[:cut])
            raise OSError("simulated crash mid-append")
        return real(fd, data)

    monkeypatch.setattr("repro.campaign.store.os.write", torn)
    return state


class TestTornWriteRecovery:
    @pytest.mark.parametrize("cut", [0, 1, 17, 40])
    def test_recovery_keeps_every_complete_record(self, tmp_path,
                                                  monkeypatch, cut):
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        pool.append_cell(cell_record("aaa"))
        pool.append_cell(cell_record("bbb"))
        arm_torn_write(monkeypatch, cut)
        with pytest.raises(OSError, match="simulated crash"):
            pool.append_cell(cell_record("ccc"))

        recovered = SharedResultStore.open(str(tmp_path / "pool.jsonl"))
        assert recovered.completed_ids() == {"aaa", "bbb"}
        # Recovery truncated the torn tail, so the next append lands on a
        # clean line boundary and the store stays parseable.
        recovered.append_cell(cell_record("ccc"))
        final = SharedResultStore.open(str(tmp_path / "pool.jsonl"))
        assert final.completed_ids() == {"aaa", "bbb", "ccc"}

    def test_torn_append_interleaved_with_a_concurrent_appender(
            self, tmp_path, monkeypatch):
        # Two store handles on one pool file model two appender processes:
        # O_APPEND + one write per record means a crash in one appender
        # never corrupts records the other one wrote.
        path = str(tmp_path / "pool.jsonl")
        first = SharedResultStore.create(path)
        second = SharedResultStore.open(path)
        first.append_cell(cell_record("aaa"))
        second.append_cell(cell_record("bbb"))
        arm_torn_write(monkeypatch, 23)
        with pytest.raises(OSError, match="simulated crash"):
            first.append_cell(cell_record("ccc"))
        second.append_cell(cell_record("ddd"))

        # The torn prefix has no newline, so the next appender's record
        # merged onto the same line.  Recovery truncates back to the last
        # clean boundary: every record written before the crash survives,
        # and the merged-away record is recomputable by content address —
        # exactly the replay-safe semantics resume relies on.
        recovered = SharedResultStore.open(path)
        assert recovered.completed_ids() == {"aaa", "bbb"}
        recovered.append_cell(cell_record("ccc"))
        recovered.append_cell(cell_record("ddd"))
        assert SharedResultStore.open(path).completed_ids() == {
            "aaa", "bbb", "ccc", "ddd"}

    def test_torn_tail_recovery_in_a_campaign_run(self, tmp_path,
                                                  monkeypatch):
        plan, _ = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        arm_torn_write(monkeypatch, 31)
        with pytest.raises(OSError, match="simulated crash"):
            run_into_pool(plan, pool)

        recovered = SharedResultStore.open(str(tmp_path / "pool.jsonl"))
        resumed = run_into_pool(plan, recovered)
        assert resumed.complete

        isolated = ResultStore.create(str(tmp_path / "isolated.jsonl"),
                                      plan.campaign.name, plan.campaign_hash)
        run_campaign(plan, isolated)
        assert render_report(plan, recovered.cell_records) == render_report(
            plan, isolated.cell_records)

    def test_exclusive_store_torn_tail_recovery_still_holds(self, tmp_path,
                                                            monkeypatch):
        path = str(tmp_path / "solo.jsonl")
        store = ResultStore.create(path, "camp", "hash")
        store.append_cell(cell_record("aaa"))
        arm_torn_write(monkeypatch, 12)
        with pytest.raises(OSError, match="simulated crash"):
            store.append_cell(cell_record("bbb"))
        recovered = ResultStore.open(path, "camp", "hash")
        assert recovered.completed_ids() == {"aaa"}


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------


class TestCompaction:
    def populated_pool(self, tmp_path) -> str:
        """A pool with duplicates, a superseded registration and an orphan."""
        path = str(tmp_path / "pool.jsonl")
        pool = SharedResultStore.create(path)
        pool.append_cell(cell_record("bbb"))
        pool.append_cell(cell_record("aaa"))
        pool.append_cell(cell_record("orphan"))
        # A duplicate append of a live cell (a second handle, as a resumed
        # process would be, replaying a cell lost from its in-memory view).
        SharedResultStore.open(path).append_cell(cell_record("aaa"))
        pool.register_campaign("camp", "h1", ["aaa", "bbb", "orphan"])
        pool.register_campaign("camp", "h2", ["aaa", "bbb"])
        return path

    def test_compaction_drops_dead_records_and_is_idempotent(self, tmp_path):
        path = self.populated_pool(tmp_path)
        stats = compact_store(path)
        assert stats.kind == "shared"
        assert stats.cells_kept == 2
        assert stats.duplicates_dropped == 1
        assert stats.orphans_dropped == 1
        assert stats.registrations_dropped == 1
        assert stats.bytes_after < stats.bytes_before

        once = store_bytes(path)
        again = compact_store(path)
        assert store_bytes(path) == once  # compact(compact(s)) == compact(s)
        assert again.duplicates_dropped == again.orphans_dropped == 0
        assert "dropped" not in again.summary()

        reopened = SharedResultStore.open(path)
        assert reopened.completed_ids() == {"aaa", "bbb"}
        assert reopened.referenced_ids() == {"aaa", "bbb"}
        assert not reopened.register_campaign("camp", "h2", ["aaa", "bbb"])

    def test_compaction_output_is_canonically_ordered(self, tmp_path):
        path = self.populated_pool(tmp_path)
        compact_store(path)
        lines = [json.loads(line)
                 for line in store_bytes(path).decode("utf-8").splitlines()]
        kinds = [line["kind"] for line in lines]
        assert kinds == ["shared-store-manifest", "campaign", "cell", "cell"]
        assert [line["cell_id"] for line in lines[2:]] == ["aaa", "bbb"]

    def test_compaction_preserves_reports_byte_for_byte(self, tmp_path):
        plan_a, plan_b = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        run_into_pool(plan_a, pool)
        run_into_pool(plan_b, pool)
        before = {plan.campaign.name: render_report(plan, pool.cell_records)
                  for plan in (plan_a, plan_b)}
        compact_store(pool.path)
        reopened = SharedResultStore.open(pool.path)
        for plan in (plan_a, plan_b):
            assert render_report(plan, reopened.cell_records) == \
                before[plan.campaign.name]

    def test_compaction_reclaims_cells_of_a_superseded_grid(self, tmp_path):
        plan_a, plan_b = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        run_into_pool(plan_b, pool)  # six cells under the name "second"
        # Re-register "second" down to the smaller grid: the two extra
        # cells are now orphans (no other campaign references them).
        pool.register_campaign("second", plan_a.campaign_hash,
                               plan_a.cell_ids())
        stats = compact_store(pool.path)
        assert stats.orphans_dropped == 2
        assert SharedResultStore.open(pool.path).completed_ids() == set(
            plan_a.cell_ids())

    def test_exclusive_store_compaction(self, tmp_path):
        path = str(tmp_path / "solo.jsonl")
        store = ResultStore.create(path, "camp", "hash")
        store.append_cell(cell_record("bbb"))
        store.append_cell(cell_record("aaa"))
        ResultStore.open(path, "camp", "hash").append_cell(cell_record("bbb"))
        stats = compact_store(path)
        assert stats.kind == "exclusive"
        assert stats.cells_kept == 2 and stats.duplicates_dropped == 1
        once = store_bytes(path)
        compact_store(path)
        assert store_bytes(path) == once
        reopened = ResultStore.open(path, "camp", "hash")
        assert list(reopened.cell_records) == ["aaa", "bbb"]

    def test_compaction_drops_a_torn_tail(self, tmp_path, monkeypatch):
        path = str(tmp_path / "pool.jsonl")
        pool = SharedResultStore.create(path)
        pool.append_cell(cell_record("aaa"))
        pool.register_campaign("camp", "h1", ["aaa"])
        arm_torn_write(monkeypatch, 19)
        with pytest.raises(OSError, match="simulated crash"):
            pool.append_cell(cell_record("bbb"))
        stats = compact_store(path)
        assert stats.cells_kept == 1
        assert SharedResultStore.open(path).completed_ids() == {"aaa"}

    def test_compaction_rejects_foreign_files(self, tmp_path):
        foreign = tmp_path / "notes.txt"
        foreign.write_text("hello\n", encoding="utf-8")
        with pytest.raises(StoreError):
            compact_store(str(foreign))


# ---------------------------------------------------------------------------
# CLI flows
# ---------------------------------------------------------------------------


class TestSharedStoreCLI:
    def write_spec(self, tmp_path, data, name):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def test_shared_run_dedups_across_campaigns(self, tmp_path, monkeypatch,
                                                capsys):
        first = self.write_spec(tmp_path, small_campaign("first"),
                                "first.json")
        second = self.write_spec(
            tmp_path, small_campaign("second", populations=(4, 6, 8)),
            "second.json")
        pool = str(tmp_path / "pool.jsonl")

        assert main(["campaign", "run", first, "--shared", "--store", pool,
                     "--quiet"]) == 0
        executed = counting_runner(monkeypatch)
        # The pool is auto-detected: no --shared needed the second time.
        assert main(["campaign", "run", second, "--store", pool,
                     "--quiet"]) == 0
        assert len(executed) == 2

        capsys.readouterr()
        assert main(["campaign", "status", first, "--store", pool]) == 0
        assert "| done      | 4" in capsys.readouterr().out
        assert main(["campaign", "status", second, "--store", pool]) == 0
        assert "| done      | 6" in capsys.readouterr().out

        # Both campaigns are registered in the pool: running either again
        # appends no registration (and no cell).
        before = store_bytes(pool)
        for spec in (first, second):
            assert main(["campaign", "run", spec, "--store", pool,
                         "--quiet"]) == 0
        assert store_bytes(pool) == before

    def test_shared_flag_on_an_exclusive_store_fails_loudly(self, tmp_path):
        spec = self.write_spec(tmp_path, small_campaign(), "grid.json")
        assert main(["campaign", "run", spec, "--quiet"]) == 0
        store = str(tmp_path / "grid.results.jsonl")
        with pytest.raises(SystemExit, match="exclusive single-campaign"):
            main(["campaign", "run", spec, "--shared", "--store", store])

    def test_cli_compact_prints_the_stats(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, small_campaign(), "grid.json")
        pool = str(tmp_path / "pool.jsonl")
        assert main(["campaign", "run", spec, "--shared", "--store", pool,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "compact", spec, "--store", pool]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "(shared)" in out and "cells kept" in out

    def test_cli_report_on_the_pool_matches_isolated(self, tmp_path, capsys):
        spec_data = small_campaign()
        spec = self.write_spec(tmp_path, spec_data, "grid.json")
        pool = str(tmp_path / "pool.jsonl")
        assert main(["campaign", "run", spec, "--shared", "--store", pool,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", spec, "--store", pool]) == 0
        shared_report = capsys.readouterr().out

        assert main(["campaign", "run", spec, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", spec]) == 0
        assert capsys.readouterr().out == shared_report

    def test_cli_cell_jobs_validation(self, tmp_path):
        spec = self.write_spec(tmp_path, small_campaign(), "grid.json")
        with pytest.raises(SystemExit, match="--cell-jobs"):
            main(["campaign", "run", spec, "--cell-jobs", "0"])
