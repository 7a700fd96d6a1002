"""The columnar result transport: round trip, merge identity, failure path.

Three pins:

* **Round-trip fidelity** — the columnar rows reproduce every scalar and
  the anonymous count multiset; the overflow (traces, ring failure dumps)
  survives byte-identically; the descriptor itself survives pickling.
* **Merge identity** — ``repeat_experiment`` folds to the same aggregate
  sequentially and over processes, for every ``run_chunk`` and trace
  policy (counts-only, ring, full) and both engine backends, and batches
  that mix columnar rows with ring dumps merge in run order; a process
  campaign folds byte-identically to the serial walk, including through a
  ``max_cells`` interrupt + resume.
* **Failure path** — a merge or worker failure mid-stream cancels every
  queued batch.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.planner import plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import run_campaign
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import ResultStore
from repro.engine.convergence import ConvergenceResult
from repro.engine.experiment import (
    _merge_windowed,
    repeat_experiment,
    run_encoded_batch,
)
from repro.engine.trace import Trace, TraceStep
from repro.engine.transport import decode_batch, encode_batch
from repro.protocols.registry import ExperimentSpec
from repro.protocols.state import Configuration
from repro.scheduling.runs import Interaction


def counts_result(counts, converged=True, steps=7, to_convergence=3,
                  omissions=0) -> ConvergenceResult:
    """A columnar-eligible result carrying an explicit counts export."""
    return ConvergenceResult(
        converged=converged, steps_executed=steps,
        steps_to_convergence=to_convergence, trace=None, final=None,
        omissions=omissions, final_counts=tuple(counts.items()))


def ring_result() -> ConvergenceResult:
    """An overflow result: a non-converged run with a ring dump."""
    step = TraceStep(
        index=0, interaction=Interaction(starter=0, reactor=1),
        starter_pre="I", starter_post="I", reactor_pre="S", reactor_post="I")
    return ConvergenceResult(
        converged=False, steps_executed=5, steps_to_convergence=None,
        trace=None, final=None, last_steps=(step,))


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
        assert not batch.overflow
        # Three rows of 4 header cells plus the I, S, L count columns.
        assert len(batch.rows) == 3 * (4 + 3) * 8
        decoded = decode_batch(batch)
        assert len(decoded) == len(results)
        for original, copy in zip(results, decoded):
            assert copy.converged == original.converged
            assert copy.steps_executed == original.steps_executed
            assert copy.steps_to_convergence == original.steps_to_convergence
            assert copy.omissions == original.omissions
            assert copy.trace is None and copy.final is None
            assert dict(copy.final_counts) == dict(original.final_counts)

    def test_descriptor_survives_pickling(self):
        # The descriptor is what crosses the process boundary.
        batch = encode_batch([counts_result({"I": 2}), ring_result()])
        shipped = pickle.loads(pickle.dumps(batch))
        assert shipped == batch
        assert pickle.dumps(decode_batch(shipped)) == \
            pickle.dumps(decode_batch(batch))

    def test_counts_fall_back_to_final_histogram(self):
        # Python-backend results export no final_counts; the encoder
        # rebuilds the multiset from the frozen configuration.
        result = ConvergenceResult(
            converged=True, steps_executed=3, steps_to_convergence=1,
            trace=None, final=Configuration(["I", "S", "I"]))
        decoded = decode_batch(encode_batch([result]))[0]
        assert dict(decoded.final_counts) == {"I": 2, "S": 1}

    def test_overflow_is_byte_identical(self):
        traced = ConvergenceResult(
            converged=True, steps_executed=0, steps_to_convergence=0,
            trace=Trace(Configuration(["I", "S"])))
        mixed = [counts_result({"I": 2}), ring_result(), traced]
        batch = encode_batch(mixed)
        assert set(batch.overflow) == {1, 2}
        decoded = decode_batch(batch)
        assert pickle.dumps(decoded[1]) == pickle.dumps(mixed[1])
        assert pickle.dumps(decoded[2]) == pickle.dumps(mixed[2])
        assert dict(decoded[0].final_counts) == {"I": 2}

    def test_all_overflow_batch_has_no_rows(self):
        batch = encode_batch([ring_result(), ring_result()])
        assert batch.rows == b"" and batch.states == ()
        assert len(decode_batch(batch)) == 2

    def test_empty_batch(self):
        batch = encode_batch([])
        assert batch.rows == b"" and batch.count == 0
        assert decode_batch(batch) == []


# ---------------------------------------------------------------------------
# merge identity: sequential vs process
# ---------------------------------------------------------------------------


#: Epidemic at n = 8 with 40 steps: seeds 11..20 mix converged and failed
#: runs, in every batch of two or more.
MIXED = dict(population=8, runs=10, max_steps=40)


def run_fold(backend: str = "python", jobs: int = 1, run_chunk: int = 1,
             population: int = 24, runs: int = 5,
             trace_policy: str = "counts-only", ring_size=None,
             max_steps: int = 4_000):
    spec = ExperimentSpec(protocol="epidemic", population=population,
                          model="TW", backend=backend)
    return repeat_experiment(
        spec=spec, runs=runs, max_steps=max_steps, stability_window=2,
        base_seed=11, jobs=jobs, run_chunk=run_chunk,
        trace_policy=trace_policy, ring_size=ring_size)


class TestMergeIdentity:
    @pytest.mark.parametrize("trace_policy, ring_size", [
        ("counts-only", None), ("ring", 4), ("full", None)])
    @pytest.mark.parametrize("run_chunk", [1, 2, 5])
    def test_process_folds_like_sequential(self, run_chunk, trace_policy,
                                           ring_size):
        reference = run_fold(trace_policy=trace_policy, ring_size=ring_size,
                             **MIXED)
        assert reference.failures and reference.successes
        parallel = run_fold(jobs=2, run_chunk=run_chunk,
                            trace_policy=trace_policy, ring_size=ring_size,
                            **MIXED)
        assert parallel.to_dict() == reference.to_dict()
        # TraceStep is a frozen dataclass: deep structural equality.
        assert parallel.failure_dumps == reference.failure_dumps
        if trace_policy == "ring":
            assert parallel.failure_dumps

    def test_ring_runs_ride_the_overflow(self):
        # The ring policy keeps its window only on runs that did not
        # converge: those overflow with their dumps intact, and the
        # converged runs are rows.
        spec = ExperimentSpec(protocol="epidemic", population=8, model="TW")
        batch = run_encoded_batch(spec, 0, 5, 11, 40, 2, "ring", 4)
        assert sorted(batch.overflow) == [0, 2, 3]
        assert all(not result.converged and len(result.last_steps) == 4
                   for result in batch.overflow.values())
        decoded = decode_batch(batch)
        # Results decoded from rows carry counts, not a configuration.
        assert [index for index, result in enumerate(decoded)
                if result.final is None] == [1, 4]
        assert all(decoded[index].converged and decoded[index].last_steps == ()
                   for index in (1, 4))

    @pytest.mark.parametrize("run_chunk", [1, 2, 5])
    def test_rows_and_ring_dumps_in_one_batch_merge_in_run_order(
            self, run_chunk):
        results = [ring_result() if index % 3 == 1 else
                   counts_result({"I": index + 1, "S": index % 2},
                                 steps=10 + index, to_convergence=index)
                   for index in range(10)]
        batches = [encode_batch(results[start:start + run_chunk])
                   for start in range(0, 10, run_chunk)]
        if run_chunk > 1:
            assert any(batch.rows and batch.overflow for batch in batches)
        merged = []
        _merge_windowed(lambda start, count: ready(batches[start // run_chunk]),
                        10, run_chunk, 1,
                        lambda index, outcome: merged.append((index, outcome)))
        assert [index for index, _ in merged] == list(range(10))
        for (_, outcome), original in zip(merged, results):
            assert outcome.converged == original.converged
            assert outcome.steps_executed == original.steps_executed
            assert outcome.steps_to_convergence == \
                original.steps_to_convergence
            assert outcome.last_steps == original.last_steps
            if original.final_counts is not None:
                assert dict(outcome.final_counts) == {
                    state: count for state, count in original.final_counts
                    if count}

    def test_counts_only_batches_skip_the_final_configuration(self):
        # Every counts-only result is a row; the final configuration is
        # never materialised, so nothing rides the overflow.
        spec = ExperimentSpec(protocol="epidemic", population=8, model="TW")
        batch = run_encoded_batch(spec, 0, 5, 11, 40, 2, "counts-only")
        assert batch.overflow == {}
        assert len(batch.rows) == 5 * (4 + len(batch.states)) * 8

    @settings(max_examples=8, deadline=None)
    @given(runs=st.integers(min_value=2, max_value=7),
           run_chunk=st.integers(min_value=1, max_value=4),
           population=st.integers(min_value=4, max_value=40))
    def test_every_shape_folds_identically(self, runs, run_chunk, population):
        reference = run_fold(population=population, runs=runs)
        assert run_fold(jobs=2, run_chunk=run_chunk, population=population,
                        runs=runs).to_dict() == reference.to_dict()

    @pytest.mark.parametrize("run_chunk", [1, 3])
    def test_array_backend_folds_identically(self, run_chunk):
        pytest.importorskip("numpy")
        reference = run_fold("array")
        assert run_fold("array", jobs=2, run_chunk=run_chunk).to_dict() == \
            reference.to_dict()

    def test_interrupted_process_campaign_resumes_to_the_serial_report(
            self, tmp_path):
        data = {
            "name": "process-interrupt",
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

        store = ResultStore.create(str(tmp_path / "process.jsonl"),
                                   plan.campaign.name, plan.campaign_hash)
        status = run_campaign(plan, store, jobs=2, run_chunk=2, max_cells=1)
        assert status.interrupted and status.executed_now == 1
        status = run_campaign(plan, store, jobs=2, run_chunk=2)
        assert status.complete
        assert render_report(plan, store.cell_records) == reference


# ---------------------------------------------------------------------------
# failure path
# ---------------------------------------------------------------------------


def ready(payload) -> Future:
    future: Future = Future()
    future.set_result(payload)
    return future


class TestFailurePath:
    def test_merge_failure_cancels_the_queued_batches(self):
        queued = [Future() for _ in range(3)]
        futures = [ready(encode_batch([counts_result({"I": 1})]))] + queued

        def merge(run_index, outcome):
            raise RuntimeError("merge exploded")

        with pytest.raises(RuntimeError, match="merge exploded"):
            _merge_windowed(lambda start, count: futures[start], 4, 1, 2,
                            merge)
        assert all(future.cancelled() for future in queued)

    def test_worker_failure_propagates_and_cancels_the_rest(self):
        crashed: Future = Future()
        crashed.set_exception(RuntimeError("worker died"))
        queued: Future = Future()
        futures = [ready(encode_batch([counts_result({"I": 1})])), crashed,
                   queued]
        merged = []
        with pytest.raises(RuntimeError, match="worker died"):
            _merge_windowed(lambda start, count: futures[start], 3, 1, 1,
                            lambda run_index, outcome: merged.append(run_index))
        assert merged == [0]  # the batch before the crash merged normally
        assert queued.cancelled()
