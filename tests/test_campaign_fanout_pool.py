"""One process pool per campaign drain.

The campaign drain (``repro.campaign.executor.drain``, behind
``run_campaign``) forks the run fan-out's workers once, on the draining
thread and before any cell thread starts, and every cell's process
fan-out submits its batches to that pool.  These tests pin:

* fork discipline — ``jobs × width`` forks per drain that runs
  process cells, all on the draining thread, and none for resume or
  ``n/a``-only drains (counted with ``os.register_at_fork``);
* records — identical to the serial, sequential reference;
* cleanup — no worker outlives a drain, whether it succeeds, is
  interrupted, or loses a worker;
* no shared memory — a fan-out or a drain opens no shared-memory segment
  and starts no resource tracker;
* fault injection — a worker killed mid-cell aborts the drain as before,
  keeps every record finished before the kill, and resumes to the
  fault-free report byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional

import pytest

import repro
import repro.campaign.executor as executor_module
import repro.engine.experiment as experiment_module
from repro.campaign.planner import plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import run_campaign
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import ResultStore
from repro.engine.experiment import repeat_experiment, start_process_pool
from repro.obs import MetricsRecorder, recording
from repro.protocols.registry import ExperimentSpec

from test_campaign_executor import canonical_records, small_campaign

#: Thread idents of the forks made while a test holds the ``forks``
#: fixture; ``None`` otherwise.  ``register_at_fork`` hooks cannot be
#: removed, so the one hook below stays installed and records only when
#: a test arms it.
_FORKS: Optional[List[int]] = None


def _count_fork() -> None:
    if _FORKS is not None:
        _FORKS.append(threading.get_ident())


os.register_at_fork(before=_count_fork)


@pytest.fixture
def forks():
    global _FORKS
    _FORKS = []
    try:
        yield _FORKS
    finally:
        _FORKS = None


def na_only_campaign() -> dict:
    """Two cells, both ``n/a``: TW admits no omissions."""
    return {
        "name": "na-only",
        "base": {"protocol": "epidemic", "model": "TW", "omission_bound": 2},
        "axes": {"omissions": [1, 2]},
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


def reopened(store, plan):
    return ResultStore.open(store.path, plan.campaign.name, plan.campaign_hash)


def reference(tmp_path, plan):
    """Records and report of the serial, sequential run."""
    store = fresh_store(tmp_path, plan, name="reference.jsonl")
    assert run_campaign(plan, store).complete
    return canonical_records(store), render_report(plan, store.cell_records)


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def recorded_pools(monkeypatch) -> list:
    """Keep every pool the drain starts, with its worker pids."""
    pools = []

    def start(workers):
        pool = start_process_pool(workers)
        pools.append((pool, list(pool._processes)))
        return pool

    monkeypatch.setattr(executor_module, "start_process_pool", start)
    return pools


def assert_no_worker_alive(pools) -> None:
    """Every worker has exited and been reaped (a zombie still answers)."""
    for _pool, pids in pools:
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# ---------------------------------------------------------------------------
# fork discipline
# ---------------------------------------------------------------------------


class TestForkDiscipline:
    def test_a_process_campaign_forks_jobs_workers_once(self, tmp_path,
                                                         monkeypatch, forks):
        plan = plan_of(small_campaign())
        expected_records, expected_report = reference(tmp_path, plan)
        assert forks == []
        pools = recorded_pools(monkeypatch)
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store, jobs=2)
        assert status.complete and status.executed_now == plan.total == 4
        # One pool of two, not two workers for each of the four cells.
        assert len(forks) == 2 and len(pools) == 1
        assert_no_worker_alive(pools)
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report

    def test_every_fork_happens_on_the_draining_thread(self, tmp_path, forks):
        plan = plan_of(small_campaign())
        expected_records, _ = reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, cell_jobs=2, jobs=2, run_chunk=1)
        # jobs × width workers keep the peak parallelism of two cells
        # running two workers each.
        assert len(forks) == 4
        assert set(forks) == {threading.get_ident()}
        assert canonical_records(store) == expected_records

    @pytest.mark.parametrize("cell_jobs", [1, 2])
    def test_resume_and_na_only_drains_fork_nothing(self, tmp_path, forks,
                                                    cell_jobs):
        plan = plan_of(small_campaign())
        store = fresh_store(tmp_path, plan)
        assert run_campaign(plan, store).complete
        assert forks == []
        resumed = run_campaign(plan, reopened(store, plan),
                               cell_jobs=cell_jobs, jobs=2)
        assert resumed.complete and resumed.executed_now == 0
        na_plan = plan_of(na_only_campaign())
        status = run_campaign(na_plan, fresh_store(tmp_path, na_plan,
                                                   name="na.jsonl"),
                              cell_jobs=cell_jobs, jobs=2)
        assert status.complete and status.na == na_plan.total
        assert forks == []

    def test_single_job_cells_fork_nothing(self, tmp_path, forks):
        plan = plan_of(small_campaign())
        run_campaign(plan, fresh_store(tmp_path, plan), cell_jobs=2, jobs=1)
        run_campaign(plan, fresh_store(tmp_path, plan, name="one.jsonl"),
                     jobs=1, jobs_backend="process")
        run_campaign(plan, fresh_store(tmp_path, plan, name="thread.jsonl"),
                     cell_jobs=2, jobs=1, jobs_backend="thread")
        assert forks == []

    @pytest.mark.parametrize("cell_jobs", [1, 2])
    def test_keyboard_interrupt_leaves_no_child_alive(self, tmp_path,
                                                      monkeypatch, forks,
                                                      cell_jobs):
        """The interrupt lands in a cell's merge, with batches in flight."""
        plan = plan_of(small_campaign())
        pools = recorded_pools(monkeypatch)
        real = experiment_module._merge_windowed
        calls = []

        def interrupting(submit, runs, run_chunk, workers, merge, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                def interrupt(_run_index, _outcome):
                    raise KeyboardInterrupt
                return real(submit, runs, run_chunk, workers, interrupt,
                            **kwargs)
            return real(submit, runs, run_chunk, workers, merge, **kwargs)

        monkeypatch.setattr(experiment_module, "_merge_windowed", interrupting)
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store, cell_jobs=cell_jobs, jobs=2)
        assert status.keyboard_interrupt and not status.complete
        assert len(pools) == 1 and len(forks) == 2 * cell_jobs
        assert_no_worker_alive(pools)


# ---------------------------------------------------------------------------
# the pool argument of repeat_experiment
# ---------------------------------------------------------------------------


class TestSharedPoolFanout:
    SPEC = ExperimentSpec(protocol="epidemic", population=6)

    def test_a_given_pool_merges_identically_and_forks_nothing(self, forks):
        sequential = repeat_experiment(self.SPEC, runs=5, base_seed=2)
        own = repeat_experiment(self.SPEC, runs=5, base_seed=2, jobs=2,
                                run_chunk=2)
        assert len(forks) == 2
        pool = start_process_pool(3)
        try:
            del forks[:]
            shared = [repeat_experiment(self.SPEC, runs=5, base_seed=2,
                                        jobs=2, run_chunk=chunk, pool=pool)
                      for chunk in (1, 2, 5)]
        finally:
            pool.shutdown()
        assert forks == []
        for result in [own] + shared:
            assert result.to_dict() == sequential.to_dict()


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


class TestPoolTelemetry:
    def test_the_drain_records_one_pool_and_its_workers(self, tmp_path):
        plan = plan_of(small_campaign())
        store = fresh_store(tmp_path, plan)
        with recording(MetricsRecorder()) as recorder:
            run_campaign(plan, store, cell_jobs=2, jobs=2)
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["fanout.pools"] == 1
        assert snapshot["gauges"]["fanout.pool_workers"] == 4

        with recording(MetricsRecorder()) as resumed:
            run_campaign(plan, reopened(store, plan), cell_jobs=2, jobs=2)
        assert "fanout.pools" not in resumed.snapshot()["counters"]


# ---------------------------------------------------------------------------
# fault injection: a worker dies mid-cell
# ---------------------------------------------------------------------------


_REAL_BATCH = experiment_module.run_spec_batch


def _dying_batch(spec, *args, **kwargs):
    """``run_spec_batch`` whose worker dies on the third cell's runs."""
    if spec.scheduler == "round-robin" and spec.population == 4:
        os._exit(1)
    return _REAL_BATCH(spec, *args, **kwargs)


class TestDeadWorker:
    def test_a_killed_worker_aborts_the_drain_and_resumes_cleanly(
            self, tmp_path, monkeypatch):
        plan = plan_of(small_campaign())
        _, expected_report = reference(tmp_path, plan)
        segments = shm_segments()
        pools = recorded_pools(monkeypatch)
        # Patched before the drain forks, so the workers inherit it; the
        # fan-out worker looks run_spec_batch up as a module global.
        monkeypatch.setattr(experiment_module, "run_spec_batch", _dying_batch)
        store = fresh_store(tmp_path, plan)
        with pytest.raises(BrokenProcessPool):
            run_campaign(plan, store, jobs=2)
        monkeypatch.undo()

        assert len(pools) == 1
        assert_no_worker_alive(pools)
        assert shm_segments() <= segments
        kept = reopened(store, plan)
        # Inline cells run in plan order and each record is flushed
        # before the next cell starts: the two cells before the kill.
        assert kept.completed_ids() == {cell.cell_id
                                        for cell in plan.cells[:2]}

        status = run_campaign(plan, kept, jobs=2)
        assert status.complete and status.executed_now == 2
        assert render_report(plan, kept.cell_records) == expected_report
        assert shm_segments() <= segments


# ---------------------------------------------------------------------------
# no shared memory, no resource tracker
# ---------------------------------------------------------------------------


#: Run in a fresh interpreter: a counts-only ``repro run --jobs 2`` and a
#: ``--cell-jobs 2 --jobs 2`` campaign drain, with every ``shm_open`` (in
#: the parent or in a forked worker) logged to the file ``argv[1]``.
_NO_SHM_SCRIPT = """
import _posixshmem, json, sys
from multiprocessing import resource_tracker

log, spec, store = sys.argv[1:]
real_open = _posixshmem.shm_open


def logged_open(name, *args, **kwargs):
    with open(log, "a") as handle:
        handle.write(name + "\\n")
    return real_open(name, *args, **kwargs)


_posixshmem.shm_open = logged_open

from repro.cli import main

assert main(["run", "--protocol", "epidemic", "-n", "8", "--runs", "4",
             "--jobs", "2", "--run-chunk", "2",
             "--trace-policy", "counts-only"]) == 0
assert main(["campaign", "run", spec, "--store", store, "--cell-jobs", "2",
             "--jobs", "2", "--quiet"]) == 0
print(json.dumps({
    "tracker_pid": resource_tracker._resource_tracker._pid,
    "shared_memory_imported": "multiprocessing.shared_memory" in sys.modules,
}))
"""


def test_process_fanouts_use_no_shared_memory_and_no_resource_tracker(
        tmp_path):
    """Batches cross the process boundary inside the pickled descriptor:
    no fan-out or drain opens a shared-memory segment, and none starts
    the stdlib resource tracker (a process of its own, which warns about
    "leaked" segments at shutdown).  The tracker is process-wide state,
    so only a fresh interpreter can show that nothing started it."""
    spec = tmp_path / "small.json"
    spec.write_text(json.dumps(small_campaign()))
    log = tmp_path / "shm_open.log"
    segments = shm_segments()
    src = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", _NO_SHM_SCRIPT, str(log), str(spec),
         str(tmp_path / "store.jsonl")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert completed.returncode == 0, completed.stderr
    state = json.loads(completed.stdout.splitlines()[-1])
    assert state == {"tracker_pid": None, "shared_memory_imported": False}
    assert not log.exists()
    assert shm_segments() <= segments
    assert "resource_tracker" not in completed.stderr
