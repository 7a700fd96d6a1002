"""The shared-memory result transport: lanes, identity, lifecycle, fallback.

Four pins:

* **Round-trip fidelity** — the columnar lane reproduces every scalar and
  the anonymous count multiset; the overflow lane (traces, ring failure
  dumps) survives byte-identically.
* **Merge identity** — ``repeat_experiment`` folds to the same aggregate
  for sequential, process+pickle, process+shm and process+auto,
  across ``run_chunk`` values and both engine backends; a campaign over
  the shm transport folds byte-identically to the serial pickle walk,
  including through a ``max_cells`` interrupt + resume.
* **Arena lifecycle** — no ``/dev/shm`` segment survives decode, a merge
  failure, a crashed worker, or an interrupted campaign.
* **Graceful degradation** — ``auto`` falls back to pickle with a single
  warning naming the reason; explicit ``shm`` fails loudly naming the
  fallback flag, in the library and in the CLI alike.
"""

from __future__ import annotations

import json
import os
import pickle
import re
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.planner import plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import run_campaign
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import ResultStore
from repro.engine import transport
from repro.engine.convergence import ConvergenceResult
from repro.engine.experiment import _merge_windowed, repeat_experiment
from repro.engine.trace import Trace, TraceStep
from repro.engine.transport import (
    ShmBatch,
    TransportError,
    decode_batch,
    dispose_batch,
    encode_batch,
    resolve_transport,
)
from repro.protocols.registry import ExperimentSpec
from repro.scheduling.runs import Interaction


def counts_result(counts, converged=True, steps=7, to_convergence=3,
                  omissions=0) -> ConvergenceResult:
    """A columnar-eligible result carrying an explicit counts export."""
    return ConvergenceResult(
        converged=converged, steps_executed=steps,
        steps_to_convergence=to_convergence, trace=None, final=None,
        omissions=omissions, final_counts=tuple(counts.items()))


def ring_result() -> ConvergenceResult:
    """An overflow-lane result: a non-converged run with a ring dump."""
    step = TraceStep(
        index=0, interaction=Interaction(starter=0, reactor=1),
        starter_pre="I", starter_post="I", reactor_pre="S", reactor_post="I")
    return ConvergenceResult(
        converged=False, steps_executed=5, steps_to_convergence=None,
        trace=None, final=None, last_steps=(step,))


def segment_exists(name) -> bool:
    if name is None:
        return False
    return os.path.exists(os.path.join("/dev/shm", name))


# ---------------------------------------------------------------------------
# encode/decode round-trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_columnar_scalars_and_counts_round_trip(self):
        results = [
            counts_result({"I": 3, "S": 2}),
            counts_result({"S": 5}, converged=False, steps=11,
                          to_convergence=None, omissions=4),
            counts_result({"I": 1, "L": 9}, to_convergence=0),
        ]
        batch = encode_batch(results)
        assert batch.name is not None and not batch.overflow
        decoded = decode_batch(batch)
        assert len(decoded) == len(results)
        for original, copy in zip(results, decoded):
            assert copy.converged == original.converged
            assert copy.steps_executed == original.steps_executed
            assert copy.steps_to_convergence == original.steps_to_convergence
            assert copy.omissions == original.omissions
            assert copy.trace is None and copy.final is None
            assert dict(copy.final_counts) == dict(original.final_counts)
        assert not segment_exists(batch.name)

    def test_counts_fall_back_to_final_histogram(self):
        # Python-backend results export no final_counts; the encoder
        # rebuilds the multiset from the frozen configuration.
        from repro.protocols.state import Configuration
        result = ConvergenceResult(
            converged=True, steps_executed=3, steps_to_convergence=1,
            trace=None, final=Configuration(["I", "S", "I"]))
        decoded = decode_batch(encode_batch([result]))[0]
        assert dict(decoded.final_counts) == {"I": 2, "S": 1}

    def test_overflow_lane_is_byte_identical(self):
        trace = Trace(__import__("repro.protocols.state", fromlist=["x"])
                      .Configuration(["I", "S"]))
        traced = ConvergenceResult(
            converged=True, steps_executed=0, steps_to_convergence=0,
            trace=trace)
        mixed = [counts_result({"I": 2}), ring_result(), traced]
        batch = encode_batch(mixed)
        assert set(batch.overflow) == {1, 2}
        decoded = decode_batch(batch)
        assert pickle.dumps(decoded[1]) == pickle.dumps(mixed[1])
        assert pickle.dumps(decoded[2]) == pickle.dumps(mixed[2])
        assert dict(decoded[0].final_counts) == {"I": 2}

    def test_all_overflow_batch_has_no_arena(self):
        batch = encode_batch([ring_result(), ring_result()])
        assert batch.name is None
        assert len(decode_batch(batch)) == 2

    def test_empty_batch(self):
        batch = encode_batch([])
        assert batch.name is None and batch.count == 0
        assert decode_batch(batch) == []

    def test_dispose_releases_and_tolerates_double_release(self):
        batch = encode_batch([counts_result({"I": 1})])
        assert segment_exists(batch.name)
        dispose_batch(batch)
        assert not segment_exists(batch.name)
        dispose_batch(batch)  # already unlinked: a no-op, not an error
        dispose_batch(ShmBatch(count=0, name=None, states=()))


# ---------------------------------------------------------------------------
# merge identity across transports
# ---------------------------------------------------------------------------


def fold(backend: str, jobs: int, run_chunk: int, transport_name: str, population: int = 24, runs: int = 5,
         trace_policy: str = "counts-only", ring_size=None,
         max_steps: int = 4_000) -> dict:
    spec = ExperimentSpec(protocol="epidemic", population=population,
                          model="TW", backend=backend)
    return repeat_experiment(
        spec=spec, runs=runs, max_steps=max_steps, stability_window=2,
        base_seed=11, jobs=jobs, run_chunk=run_chunk, trace_policy=trace_policy, ring_size=ring_size,
        result_transport=transport_name).to_dict()


class TestMergeIdentity:
    @settings(max_examples=8, deadline=None)
    @given(runs=st.integers(min_value=2, max_value=7),
           run_chunk=st.integers(min_value=1, max_value=4),
           population=st.integers(min_value=4, max_value=40))
    def test_every_transport_folds_identically(self, runs, run_chunk,
                                               population):
        reference = fold("python", 1, 1, "pickle",
                         population=population, runs=runs)
        for transport_name in ("pickle", "shm", "auto"):
            assert fold("python", 2, run_chunk, transport_name,
                        population=population, runs=runs) == reference

    @pytest.mark.parametrize("run_chunk", [1, 3])
    def test_array_backend_folds_identically(self, run_chunk):
        pytest.importorskip("numpy")
        reference = fold("array", 1, 1, "pickle")
        for transport_name in ("pickle", "shm", "auto"):
            assert fold("array", 2, run_chunk, transport_name) == reference

    def test_ring_failure_dumps_survive_the_overflow_lane(self):
        # max_steps far below convergence: every run fails and carries a
        # ring dump, so under shm every result takes the pickle lane.
        kwargs = dict(population=16, runs=4, trace_policy="ring",
                      ring_size=4, max_steps=3)
        spec = ExperimentSpec(protocol="epidemic", population=16, model="TW")

        def run(jobs, transport_name):
            return repeat_experiment(
                spec=spec, runs=4, max_steps=3, base_seed=0, jobs=jobs,
                run_chunk=2, trace_policy="ring", ring_size=4,
                result_transport=transport_name)

        reference = run(1, "pickle")
        assert reference.failures and reference.failure_dumps
        outcomes = {}
        for transport_name in ("pickle", "shm"):
            parallel = run(2, transport_name)
            assert parallel.to_dict() == reference.to_dict()
            # TraceStep is a frozen dataclass: deep structural equality.
            assert parallel.failure_dumps == reference.failure_dumps
            outcomes[transport_name] = parallel
        # Between the two process transports the overflow lane is the same
        # pickle channel, so the dumps are byte-identical too.
        assert pickle.dumps(outcomes["shm"].failure_dumps) == \
            pickle.dumps(outcomes["pickle"].failure_dumps)


# ---------------------------------------------------------------------------
# arena lifecycle under failure
# ---------------------------------------------------------------------------


class TestArenaCleanup:
    def make_ready(self, payload):
        future = Future()
        future.set_result(payload)
        return future

    def test_merge_failure_disposes_undrained_batches(self):
        batches = [encode_batch([counts_result({"I": 1}),
                                 counts_result({"S": 2})])
                   for _ in range(3)]
        assert all(segment_exists(batch.name) for batch in batches)
        futures = [self.make_ready(batch) for batch in batches]
        submitted = []

        def submit(start, count):
            future = futures[start // 2]
            submitted.append(batches[start // 2])
            return future

        def merge(run_index, outcome):
            raise RuntimeError("merge exploded")

        with pytest.raises(RuntimeError, match="merge exploded"):
            _merge_windowed(submit, 6, 2, 1, merge,
                            receive=decode_batch, dispose=dispose_batch)
        # Every batch a worker actually produced is released — the first by
        # its (failed) decode-and-merge, the rest by the disposal sweep.
        assert len(submitted) == 2  # merge failed before the third submit
        assert not any(segment_exists(batch.name) for batch in submitted)
        dispose_batch(batches[2])  # never submitted: ours to clean up

    def test_worker_failure_disposes_the_other_batches(self):
        good = [encode_batch([counts_result({"I": 1})]) for _ in range(2)]
        crashed = Future()
        crashed.set_exception(RuntimeError("worker died"))
        futures = [self.make_ready(good[0]), crashed, self.make_ready(good[1])]

        def submit(start, count):
            return futures[start]

        merged = []
        with pytest.raises(RuntimeError, match="worker died"):
            _merge_windowed(submit, 3, 1, 1, lambda i, r: merged.append(i),
                            receive=decode_batch, dispose=dispose_batch)
        assert merged == [0]  # the batch before the crash merged normally
        assert not any(segment_exists(batch.name) for batch in good)

    def test_interrupted_campaign_leaks_no_segments(self, tmp_path):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm to observe")
        data = {
            "name": "shm-interrupt",
            "base": {"protocol": "epidemic"},
            "axes": {"population": [4, 6], "scheduler": ["random",
                                                         "round-robin"]},
            "runs": 2, "base_seed": 3, "max_steps": 20_000,
            "stability_window": 8,
        }
        plan = plan_campaign(campaign_from_dict(data))

        serial = ResultStore.create(str(tmp_path / "serial.jsonl"),
                                    plan.campaign.name, plan.campaign_hash)
        run_campaign(plan, serial)
        reference = render_report(plan, serial.cell_records)

        before = {entry for entry in os.listdir("/dev/shm")
                  if entry.startswith("psm_")}
        store = ResultStore.create(str(tmp_path / "shm.jsonl"),
                                   plan.campaign.name, plan.campaign_hash)
        status = run_campaign(plan, store, jobs=2, run_chunk=2, max_cells=1,
                              result_transport="shm")
        assert status.interrupted and status.executed_now == 1
        status = run_campaign(plan, store, jobs=2, run_chunk=2,
                              result_transport="shm")
        assert status.complete
        after = {entry for entry in os.listdir("/dev/shm")
                 if entry.startswith("psm_")}
        assert after <= before
        assert render_report(plan, store.cell_records) == reference


# ---------------------------------------------------------------------------
# resolution, degradation, CLI validation
# ---------------------------------------------------------------------------


class TestResolutionAndFallback:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown result_transport"):
            resolve_transport("zeromq", trace_policy="counts-only",
                              process_fanout=True)

    def test_auto_resolution_matrix(self):
        assert resolve_transport(
            "auto", trace_policy="counts-only", process_fanout=True) == "shm"
        # No process fan-out, or a non-columnar policy: quietly pickle.
        assert resolve_transport(
            "auto", trace_policy="counts-only", process_fanout=False) == "pickle"
        assert resolve_transport(
            "auto", trace_policy="full", process_fanout=True) == "pickle"

    def test_auto_degrades_with_one_warning(self, monkeypatch):
        monkeypatch.setattr(transport, "shm_unavailable_reason",
                            lambda: "no /dev/shm (test)")
        with pytest.warns(RuntimeWarning,
                          match=r"no /dev/shm \(test\).*falling back"):
            picked = resolve_transport(
                "auto", trace_policy="counts-only", process_fanout=True)
        assert picked == "pickle"
        # The degraded fan-out still runs and folds identically.
        with pytest.warns(RuntimeWarning):
            degraded = fold("python", 2, 2, "auto")
        assert degraded == fold("python", 2, 2, "pickle")

    def test_explicit_shm_fails_loudly_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(transport, "shm_unavailable_reason",
                            lambda: "no /dev/shm (test)")
        with pytest.raises(TransportError,
                           match="rerun with --result-transport pickle"):
            fold("python", 2, 2, "shm")

    def test_cli_accepts_shm_on_a_sequential_run(self, capsys):
        # At --jobs 1 nothing crosses a process boundary: shm selects
        # nothing, and the runs are sequential.
        from repro.cli import main
        assert main(["run", "--protocol", "epidemic", "-n", "6", "--runs", "2",
                     "--result-transport", "shm"]) == 0
        assert re.search(r"backend\s+\|\s+sequential", capsys.readouterr().out)

    def test_cli_names_fallback_flag_when_shm_unavailable(self, monkeypatch):
        from repro.cli import main
        monkeypatch.setattr(transport, "shm_unavailable_reason",
                            lambda: "no /dev/shm (test)")
        with pytest.raises(SystemExit,
                           match="rerun with --result-transport pickle"):
            main(["run", "--protocol", "epidemic", "-n", "6", "--runs", "2",
                  "--jobs", "2", "--result-transport", "shm"])

    def test_cli_campaign_names_fallback_flag_when_shm_unavailable(
            self, tmp_path, monkeypatch):
        # The campaign command probes shared memory up front, before any
        # cell runs, so a cell never records a transport failure.
        from repro import cli
        monkeypatch.setattr(cli, "shm_unavailable_reason",
                            lambda: "no /dev/shm (test)")
        campaign = {
            "name": "cli-shm", "base": {"protocol": "epidemic"},
            "axes": {"population": [4]}, "runs": 1, "max_steps": 1000,
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(campaign), encoding="utf-8")
        with pytest.raises(SystemExit,
                           match="rerun with --result-transport pickle"):
            cli.main(["campaign", "run", str(path), "--store",
                      str(tmp_path / "s.jsonl"), "--jobs", "2",
                      "--result-transport", "shm"])


def test_a_fork_never_inherits_a_held_resource_tracker_lock():
    """A process-pool worker forked by one cell thread while another thread
    held the resource tracker's lock used to hang on its first arena: the
    child must always find the lock free."""
    from multiprocessing import resource_tracker
    import threading

    lock = resource_tracker._resource_tracker._lock
    held, release = threading.Event(), threading.Event()

    def hold():
        with lock:
            held.set()
            release.wait()

    holder = threading.Thread(target=hold)
    holder.start()
    held.wait()
    # The fork below waits for the holder, which lets go once this fires.
    releaser = threading.Timer(0.2, release.set)
    releaser.start()
    pid = os.fork()
    if pid == 0:
        os._exit(0 if lock.acquire(timeout=5) else 1)
    _, status = os.waitpid(pid, 0)
    holder.join()
    releaser.join()
    assert os.waitstatus_to_exitcode(status) == 0
