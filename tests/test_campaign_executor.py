"""Concurrency-equivalence tests for the campaign drain.

The pin under test is **fold-equivalence**: ``report(records)`` is a pure
function of the record *set* — identical across the serial runner and the
cell-level parallel executor, any ``cell_jobs``, any interrupt point, any
cell-internal fan-out backend, and both engine backends.  Completion
order is the one nondeterministic seam (``_completed_in_order``), so the
suite also *injects* deterministic permutations through it — no
wall-clock, no randomness — to prove order-independence is a property of
the folds, not an accident of thread timing.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.campaign.planner import plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import campaign_status, run_campaign
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import ResultStore, SharedResultStore
from repro.cli import main


def small_campaign(backend: str = "python", name: str = "small-grid") -> dict:
    """The fast four-cell campaign the determinism tests sweep."""
    return {
        "name": name,
        "base": {"protocol": "epidemic", "backend": backend},
        "axes": {
            "scheduler": ["random", "round-robin"],
            "population": [4, 6],
        },
        "runs": 2,
        "base_seed": 3,
        "max_steps": 20_000,
        "stability_window": 8,
    }


def fresh_store(tmp_path, plan, name="store.jsonl"):
    return ResultStore.create(str(tmp_path / name), plan.campaign.name,
                              plan.campaign_hash)


def canonical_records(store):
    return sorted(json.dumps(record, sort_keys=True)
                  for record in store.cell_records.values())


def serial_reference(tmp_path, plan):
    """The serial run every parallel execution must fold-match."""
    store = fresh_store(tmp_path, plan, name="serial-reference.jsonl")
    run_campaign(plan, store)
    return canonical_records(store), render_report(plan, store.cell_records)


# ---------------------------------------------------------------------------
# executor vs serial: full runs
# ---------------------------------------------------------------------------


class TestParallelEquivalence:
    @pytest.mark.parametrize("cell_jobs", [1, 2, 4])
    @pytest.mark.parametrize("jobs, run_chunk", [
        (1, 1),       # sequential inside each cell
        (2, 1),       # cell-level pool composed with process fan-out
    ])
    def test_parallel_run_folds_identically_to_serial(
            self, tmp_path, cell_jobs, jobs, run_chunk):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        store = fresh_store(tmp_path, plan)
        status = run_campaign(
            plan, store, cell_jobs=cell_jobs, jobs=jobs, run_chunk=run_chunk)
        assert status.complete and status.executed_now == plan.total
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report

    def test_parallel_run_composes_with_process_fanout(self, tmp_path):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, cell_jobs=2, jobs=2, run_chunk=2)
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report

    def test_run_campaign_delegates_on_cell_jobs(self, tmp_path):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store, cell_jobs=4)
        assert status.complete
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report

    @pytest.mark.parametrize("interrupt_after", [1, 2, 3])
    def test_array_backend_parallel_matches_serial(self, tmp_path,
                                                   interrupt_after):
        pytest.importorskip("numpy")
        plan = plan_campaign(campaign_from_dict(small_campaign(backend="array")))
        expected_records, expected_report = serial_reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, cell_jobs=2,
                     max_cells=interrupt_after)
        run_campaign(plan, store, cell_jobs=2)
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report


# ---------------------------------------------------------------------------
# interrupt after any prefix, resume with any executor
# ---------------------------------------------------------------------------


class TestInterruptResumeEquivalence:
    @pytest.mark.parametrize("interrupt_after", [1, 2, 3])
    @pytest.mark.parametrize("cell_jobs", [1, 2, 4])
    def test_interrupted_parallel_run_resumes_to_the_serial_fold(
            self, tmp_path, interrupt_after, cell_jobs):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        store = fresh_store(tmp_path, plan)
        partial = run_campaign(
            plan, store, cell_jobs=cell_jobs, max_cells=interrupt_after)
        assert partial.interrupted and not partial.keyboard_interrupt
        assert partial.executed_now == interrupt_after
        # The interrupt point is deterministic whatever the pool width:
        # exactly the first `interrupt_after` cells in plan order ran.
        assert sorted(store.completed_ids()) == sorted(
            cell.cell_id for cell in plan.cells[:interrupt_after])

        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        status = run_campaign(plan, resumed, cell_jobs=cell_jobs)
        assert status.complete
        assert status.executed_now == plan.total - interrupt_after
        assert canonical_records(resumed) == expected_records
        assert render_report(plan, resumed.cell_records) == expected_report

    @pytest.mark.parametrize("first, second", [
        ("serial", "parallel"), ("parallel", "serial")])
    def test_executors_can_resume_each_other(self, tmp_path, first, second):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        def step(executor: str, store, **kwargs):
            if executor == "serial":
                return run_campaign(plan, store, **kwargs)
            return run_campaign(plan, store, cell_jobs=4, **kwargs)

        store = fresh_store(tmp_path, plan)
        step(first, store, max_cells=2)
        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        status = step(second, resumed)
        assert status.complete
        assert canonical_records(resumed) == expected_records
        assert render_report(plan, resumed.cell_records) == expected_report

    def test_keyboard_interrupt_mid_pool_leaves_a_resumable_store(
            self, tmp_path, monkeypatch):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)

        import repro.campaign.executor as executor_module
        real = executor_module.build_cell_record
        calls = {"n": 0}

        def interrupting(cell, plan_, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return real(cell, plan_, **kwargs)

        monkeypatch.setattr(executor_module, "build_cell_record", interrupting)
        status = run_campaign(plan, store, cell_jobs=1)
        assert status.interrupted and status.keyboard_interrupt
        assert 0 < status.done < plan.total

        monkeypatch.setattr(executor_module, "build_cell_record", real)
        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        final = run_campaign(plan, resumed, cell_jobs=4)
        assert final.complete
        assert canonical_records(resumed) == expected_records
        assert render_report(plan, resumed.cell_records) == expected_report


# ---------------------------------------------------------------------------
# injected completion-order permutations
# ---------------------------------------------------------------------------


#: Deterministic permutations of a four-element completion sequence (no
#: randomness per RPL001, no wall-clock per RPL002): the identity, the full
#: reversal, and an interleave.  Prefixes apply when fewer cells run.
PERMUTATIONS = {
    "identity": [0, 1, 2, 3],
    "reversed": [3, 2, 1, 0],
    "interleaved": [2, 0, 3, 1],
}


def permuting(order):
    """A ``_completed_in_order`` stand-in yielding a fixed permutation."""

    def completed(futures):
        indices = [index for index in order if index < len(futures)]
        assert len(indices) == len(futures)
        return iter([futures[index] for index in indices])

    return completed


class TestInjectedCompletionOrder:
    @pytest.mark.parametrize("permutation", sorted(PERMUTATIONS))
    def test_any_completion_order_folds_identically(self, tmp_path,
                                                    monkeypatch, permutation):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        import repro.campaign.executor as executor_module
        monkeypatch.setattr(executor_module, "_completed_in_order",
                            permuting(PERMUTATIONS[permutation]))
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store, cell_jobs=4)
        assert status.complete
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report

    def test_the_injected_shuffle_really_permutes_the_file(self, tmp_path,
                                                           monkeypatch):
        """Guard against the permutation seam silently not applying: under
        the reversal the on-disk append order must differ from plan order
        while the folds (previous test) stay identical."""
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        import repro.campaign.executor as executor_module
        monkeypatch.setattr(executor_module, "_completed_in_order",
                            permuting(PERMUTATIONS["reversed"]))
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, cell_jobs=4)
        with open(store.path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        on_disk = [record["cell_id"] for record in lines
                   if record.get("kind") == "cell"]
        assert on_disk == [cell.cell_id for cell in reversed(plan.cells)]

    @pytest.mark.parametrize("permutation", ["reversed", "interleaved"])
    def test_interrupt_under_a_shuffle_still_resumes_to_the_serial_fold(
            self, tmp_path, monkeypatch, permutation):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        import repro.campaign.executor as executor_module
        monkeypatch.setattr(executor_module, "_completed_in_order",
                            permuting(PERMUTATIONS[permutation]))
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, cell_jobs=4, max_cells=2)
        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        run_campaign(plan, resumed, cell_jobs=4)
        assert canonical_records(resumed) == expected_records
        assert render_report(plan, resumed.cell_records) == expected_report


# ---------------------------------------------------------------------------
# status folds the record set, not the append order
# ---------------------------------------------------------------------------


class TestStatusOrderIndependence:
    def test_status_counts_are_append_order_independent(self, tmp_path,
                                                        monkeypatch):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        import repro.campaign.executor as executor_module
        monkeypatch.setattr(executor_module, "_completed_in_order",
                            permuting(PERMUTATIONS["reversed"]))
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, cell_jobs=4, max_cells=3)

        reopened = ResultStore.open(store.path, plan.campaign.name,
                                    plan.campaign_hash, recover=False)
        status = campaign_status(plan, reopened)
        assert (status.done, status.pending) == (3, 1)
        # The pending cell is identified by id, not by position.
        assert [cell.cell_id for cell in status.pending_cells] == [
            plan.cells[3].cell_id]

    def test_cli_status_after_a_shuffled_parallel_run(self, tmp_path,
                                                      monkeypatch, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(small_campaign()), encoding="utf-8")
        plan = plan_campaign(campaign_from_dict(small_campaign()))

        import repro.campaign.executor as executor_module
        monkeypatch.setattr(executor_module, "_completed_in_order",
                            permuting(PERMUTATIONS["interleaved"]))
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, cell_jobs=4)

        code = main(["campaign", "status", str(spec_path),
                     "--store", store.path])
        out = capsys.readouterr().out
        assert code == 0
        assert "| done      | 4" in out
        assert "| pending   | 0" in out


# ---------------------------------------------------------------------------
# the drain: arguments, fan-out knobs, max_cells, width-1 dispatch, progress
# ---------------------------------------------------------------------------


def counting_build(monkeypatch):
    """Count (and order) the cells the drain actually computes."""
    import repro.campaign.executor as executor_module
    real = executor_module.build_cell_record
    executed = []

    def counted(cell, plan, **kwargs):
        executed.append(cell.cell_id)
        return real(cell, plan, **kwargs)

    monkeypatch.setattr(executor_module, "build_cell_record", counted)
    return executed


def recording_build(monkeypatch):
    """Record the kwargs and calling thread of every computed cell."""
    import repro.campaign.executor as executor_module
    real = executor_module.build_cell_record
    calls = []

    def recorded(cell, plan, **kwargs):
        calls.append((cell.cell_id, kwargs, threading.get_ident()))
        return real(cell, plan, **kwargs)

    monkeypatch.setattr(executor_module, "build_cell_record", recorded)
    return calls


def six_cell_plan(name: str = "six-cells"):
    """``small_campaign()`` widened to three populations: six cells."""
    data = small_campaign(name=name)
    data["axes"]["population"] = [4, 6, 8]
    return plan_campaign(campaign_from_dict(data))


def overlapping_plans():
    """Two campaigns sharing four cells; the second has two more."""
    return (plan_campaign(campaign_from_dict(small_campaign(name="first"))),
            six_cell_plan(name="second"))


def drain_into_pool(plan, pool, **kwargs):
    """One drain of ``plan`` into the shared pool ``pool``."""
    pool.register_campaign(plan.campaign.name, plan.campaign_hash,
                           plan.cell_ids())
    return run_campaign(plan, pool, **kwargs)


class TestArguments:
    @pytest.mark.parametrize("arguments, message", [
        ({"jobs": 0}, "jobs must be at least 1"),
        ({"run_chunk": 0}, "run_chunk must be at least 1"),
        ({"cell_jobs": 0}, "cell_jobs must be at least 1"),
        ({"max_cells": 0}, "max_cells must be at least 1"),
    ])
    def test_invalid_settings_are_rejected_before_any_cell_runs(
            self, tmp_path, monkeypatch, arguments, message):
        """A bad setting is the caller's error, not a cell's: it must never
        be persisted as a sticky ``error`` verdict that every later resume
        would skip."""
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        executed = counting_build(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_campaign(plan, store, **arguments)
        assert executed == []
        assert store.cell_records == {}
        reopened = ResultStore.open(str(tmp_path / "store.jsonl"),
                                    plan.campaign.name, plan.campaign_hash)
        assert reopened.cell_records == {}

    @pytest.mark.parametrize("jobs, jobs_backend, message", [
        (1, "fibers", "unknown jobs_backend"),
        (2, "thread", "jobs > 1 runs on processes"),
    ])
    def test_run_campaign_rejects_a_jobs_backend_before_any_cell_runs(
            self, tmp_path, monkeypatch, jobs, jobs_backend, message):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        executed = counting_build(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_campaign(plan, store, jobs=jobs, jobs_backend=jobs_backend)
        assert executed == []
        assert store.cell_records == {}

    @pytest.mark.parametrize("jobs, jobs_backend", [
        (1, "thread"), (1, "process"), (2, "process")])
    def test_run_campaign_accepts_a_jobs_backend_that_selects_nothing(
            self, tmp_path, jobs, jobs_backend):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store, jobs=jobs, jobs_backend=jobs_backend)
        assert status.complete and status.executed_now == plan.total
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report

    def test_run_campaign_rejects_an_unknown_result_transport(
            self, tmp_path, monkeypatch):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        executed = counting_build(monkeypatch)
        with pytest.raises(ValueError, match="unknown result_transport"):
            run_campaign(plan, store, jobs=2, result_transport="zeromq")
        assert executed == []
        assert store.cell_records == {}

    @pytest.mark.parametrize("result_transport", ["pickle", "shm", "auto"])
    def test_run_campaign_accepts_a_result_transport_that_selects_nothing(
            self, tmp_path, monkeypatch, result_transport):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        calls = recording_build(monkeypatch)
        status = run_campaign(plan, store, jobs=2, run_chunk=2,
                              result_transport=result_transport)
        assert status.complete and status.executed_now == plan.total
        assert all("result_transport" not in kwargs
                   for _cell_id, kwargs, _thread in calls)
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report


#: ``run_campaign(plan, store, progress=lines.append)`` for
#: ``small_campaign()``, recorded before the schedulers were unified.
SMALL_CAMPAIGN_PROGRESS = [
    "cell 1/4 [scheduler=random population=4] 2/2 runs converged",
    "cell 2/4 [scheduler=random population=6] 2/2 runs converged",
    "cell 3/4 [scheduler=round-robin population=4] 2/2 runs converged",
    "cell 4/4 [scheduler=round-robin population=6] 2/2 runs converged",
]


class TestDrain:
    def test_fanout_knobs_reach_every_cell(self, tmp_path, monkeypatch):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        calls = recording_build(monkeypatch)
        status = run_campaign(plan, fresh_store(tmp_path, plan), run_chunk=3)
        assert status.complete
        assert len(calls) == plan.total
        assert all(kwargs == {"jobs": 1, "run_chunk": 3, "pool": None}
                   for _cell_id, kwargs, _thread in calls)

    @pytest.mark.parametrize("max_cells", [1, 3, 5])
    @pytest.mark.parametrize("cell_jobs", [1, 2])
    def test_max_cells_computes_the_plan_order_prefix(
            self, tmp_path, monkeypatch, max_cells, cell_jobs):
        plan = six_cell_plan()
        store = fresh_store(tmp_path, plan)
        calls = recording_build(monkeypatch)
        partial = run_campaign(plan, store, cell_jobs=cell_jobs,
                               max_cells=max_cells)
        assert sorted(cell_id for cell_id, _kwargs, _thread in calls) == \
            sorted(cell.cell_id for cell in plan.cells[:max_cells])
        assert partial.executed_now == max_cells
        assert partial.interrupted and not partial.keyboard_interrupt
        assert partial.pending_cells == plan.cells[max_cells:]

        monkeypatch.undo()
        final = run_campaign(plan, store, cell_jobs=cell_jobs)
        assert final.complete and not final.interrupted
        assert final.executed_now == plan.total - max_cells
        isolated = fresh_store(tmp_path, plan, name="isolated.jsonl")
        run_campaign(plan, isolated)
        assert canonical_records(store) == canonical_records(isolated)

    def test_width_one_runs_every_cell_on_the_calling_thread(
            self, tmp_path, monkeypatch):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        calls = recording_build(monkeypatch)
        run_campaign(plan, fresh_store(tmp_path, plan), cell_jobs=1)
        assert len(calls) == plan.total
        assert {thread for _cell_id, _kwargs, thread in calls} == {
            threading.get_ident()}

    def test_a_single_pending_cell_runs_inline_whatever_cell_jobs(
            self, tmp_path, monkeypatch):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, max_cells=plan.total - 1)
        calls = recording_build(monkeypatch)
        status = run_campaign(plan, store, cell_jobs=4)
        assert status.complete and status.executed_now == 1
        assert [(cell_id, thread) for cell_id, _kwargs, thread in calls] == [
            (plan.cells[-1].cell_id, threading.get_ident())]

    def test_progress_lines_are_pinned(self, tmp_path):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        lines = []
        run_campaign(plan, fresh_store(tmp_path, plan), progress=lines.append)
        assert lines == SMALL_CAMPAIGN_PROGRESS

        pooled = []
        run_campaign(plan, fresh_store(tmp_path, plan, name="pooled.jsonl"),
                     cell_jobs=2, progress=pooled.append)
        assert sorted(pooled) == sorted(SMALL_CAMPAIGN_PROGRESS)

    def test_drain_is_idempotent(self, tmp_path, monkeypatch):
        plan = six_cell_plan()
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, cell_jobs=2)
        before = canonical_records(store)
        executed = counting_build(monkeypatch)
        lines = []
        status = run_campaign(plan, store, cell_jobs=2, progress=lines.append)
        assert executed == [] and lines == []
        assert status.complete and status.executed_now == 0
        assert canonical_records(store) == before


# ---------------------------------------------------------------------------
# one drain per campaign, several campaigns on one shared pool
# ---------------------------------------------------------------------------


class TestDrainsOnASharedPool:
    def test_overlapping_campaigns_compute_each_cell_once(self, tmp_path,
                                                          monkeypatch):
        plan_a, plan_b = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        executed = counting_build(monkeypatch)
        statuses = [drain_into_pool(plan, pool, cell_jobs=2)
                    for plan in (plan_a, plan_b)]
        assert all(status.complete for status in statuses)
        union = set(plan_a.cell_ids()) | set(plan_b.cell_ids())
        assert len(set(plan_a.cell_ids()) & set(plan_b.cell_ids())) == 4
        assert sorted(executed) == sorted(union)

        # Each campaign reports as if it had run alone.
        monkeypatch.undo()
        for plan in (plan_a, plan_b):
            isolated = fresh_store(tmp_path, plan,
                                   name=f"isolated-{plan.campaign.name}.jsonl")
            run_campaign(plan, isolated)
            assert render_report(plan, pool.cell_records) == render_report(
                plan, isolated.cell_records)

    def test_one_shared_store_appends_each_cell_once(self, tmp_path):
        plan_a, plan_b = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        for plan in (plan_a, plan_b):
            assert drain_into_pool(plan, pool, cell_jobs=2).complete
        union = set(plan_a.cell_ids()) | set(plan_b.cell_ids())
        assert pool.completed_ids() == union
        with open(pool.path, "r", encoding="utf-8") as handle:
            cell_lines = [line for line in handle if '"kind": "cell"' in line]
        assert len(cell_lines) == len(union)

    def test_process_drain_of_overlapping_campaigns_matches_serial(
            self, tmp_path):
        plan_a, plan_b = overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        for plan in (plan_a, plan_b):
            assert drain_into_pool(plan, pool, jobs=2, cell_jobs=2).complete
        for plan in (plan_a, plan_b):
            isolated = fresh_store(tmp_path, plan,
                                   name=f"isolated-{plan.campaign.name}.jsonl")
            run_campaign(plan, isolated)
            assert render_report(plan, pool.cell_records) == render_report(
                plan, isolated.cell_records)

    def test_progress_lines_carry_no_campaign_name(self, tmp_path):
        plan_a, plan_b = overlapping_plans()
        isolated = []
        run_campaign(plan_b, fresh_store(tmp_path, plan_b),
                     progress=isolated.append)
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        drain_into_pool(plan_a, pool)
        lines = []
        drain_into_pool(plan_b, pool, progress=lines.append)
        # Only the two cells the first campaign lacked are computed, and
        # their lines are the isolated run's, unprefixed.
        assert lines == [line for line in isolated
                         if "population=8" in line]
        assert len(lines) == 2
