"""Campaign subsystem tests: spec parsing, planning, the store, and the
resume-determinism acceptance property (interrupt after any prefix of
cells, resume, and the final store + rendered report are identical to an
uninterrupted run — across fan-out backends and engine backends)."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.planner import infeasible_reason, plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import campaign_status, run_campaign
from repro.campaign.spec import (
    CampaignError,
    campaign_from_dict,
    campaign_from_file,
)
from repro.campaign.store import ResultStore, StoreError
from repro.cli import main
from repro.engine.experiment import ExperimentResult
from repro.protocols.registry import ADVERSARIES, ExperimentSpec
from repro.adversary.omission import (
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    UOAdversary,
)

EXAMPLE_SPEC = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "figure4_omission_sweep.json")


def small_campaign(backend: str = "python") -> dict:
    """A fast four-cell campaign used by the determinism tests."""
    return {
        "name": "small-grid",
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


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


class TestCampaignSpec:
    def test_scalar_and_dict_axis_points(self):
        campaign = campaign_from_dict(small_campaign())
        assert campaign.axis_names == ["scheduler", "population"]
        scheduler_points = dict(campaign.axes)["scheduler"]
        assert [point.label for point in scheduler_points] == ["random", "round-robin"]
        assert scheduler_points[0].as_dict() == {"scheduler": "random"}

    def test_dict_points_carry_labels_and_overrides(self):
        campaign = campaign_from_dict({
            "name": "x",
            "axes": {"assumption": [
                {"label": "skno", "simulator": "skno", "model": "I3"},
                {"simulator": "sid", "model": "IO"},
            ]},
            "base": {"protocol": "pairing", "population": 4},
        })
        points = dict(campaign.axes)["assumption"]
        assert points[0].label == "skno"
        assert points[0].as_dict() == {"simulator": "skno", "model": "I3"}
        # Unlabelled dict points get a deterministic derived label.
        assert points[1].label == "model=IO,simulator=sid"

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.update(axes={}), "axes"),
        (lambda d: d.update(runs=0), "runs"),
        (lambda d: d.update(unknown_key=1), "unknown campaign key"),
        (lambda d: d.update(priority=3), "unknown campaign key"),
        (lambda d: d["axes"].update(bogus_field=[1, 2]), "unknown experiment field"),
        (lambda d: d["axes"].update(scheduler=["random", "random"]), "duplicate"),
        (lambda d: d.update(report={"rows": "not-an-axis"}), "not an axis"),
        (lambda d: d["base"].update(no_such_field=1), "unknown experiment field"),
    ])
    def test_malformed_specs_are_rejected(self, mutate, message):
        data = small_campaign()
        mutate(data)
        with pytest.raises(CampaignError, match=message):
            campaign_from_dict(data)

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            campaign_from_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CampaignError, match="not valid JSON"):
            campaign_from_file(str(bad))

    def test_report_axes_default_to_first_two(self):
        campaign = campaign_from_dict(small_campaign())
        assert campaign.report_axes() == ("scheduler", "population")

    def test_partial_report_section_never_collapses_two_axes(self):
        # Setting only rows (or only cols) to an axis the other side would
        # default to must not produce a rows == cols one-dimensional grid.
        rows_only = small_campaign()
        rows_only["report"] = {"rows": "population"}
        assert campaign_from_dict(rows_only).report_axes() == (
            "population", "scheduler")
        cols_only = small_campaign()
        cols_only["report"] = {"cols": "scheduler"}
        assert campaign_from_dict(cols_only).report_axes() == (
            "population", "scheduler")


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_grid_expansion_order_and_coordinates(self):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        assert plan.total == 4
        assert [cell.labels for cell in plan.cells] == [
            {"scheduler": "random", "population": "4"},
            {"scheduler": "random", "population": "6"},
            {"scheduler": "round-robin", "population": "4"},
            {"scheduler": "round-robin", "population": "6"},
        ]
        assert [cell.index for cell in plan.cells] == [0, 1, 2, 3]

    def test_cell_ids_are_content_addressed(self):
        base = plan_campaign(campaign_from_dict(small_campaign()))
        # Renaming an axis label changes coordinates but not content.
        relabelled_data = small_campaign()
        relabelled_data["axes"]["scheduler"] = [
            {"label": "uniform", "scheduler": "random"},
            {"label": "rr", "scheduler": "round-robin"},
        ]
        relabelled = plan_campaign(campaign_from_dict(relabelled_data))
        assert [c.cell_id for c in relabelled.cells] == [c.cell_id for c in base.cells]
        # Changing the seed block re-addresses every cell.
        reseeded_data = small_campaign()
        reseeded_data["runs"] = 3
        reseeded = plan_campaign(campaign_from_dict(reseeded_data))
        assert not set(c.cell_id for c in reseeded.cells) & set(
            c.cell_id for c in base.cells)

    def test_campaign_hash_tracks_the_grid(self):
        base = plan_campaign(campaign_from_dict(small_campaign()))
        changed_data = small_campaign()
        changed_data["axes"]["population"] = [4, 8]
        changed = plan_campaign(campaign_from_dict(changed_data))
        assert base.campaign_hash != changed.campaign_hash

    def test_axis_reorder_keeps_the_store_valid(self):
        base = plan_campaign(campaign_from_dict(small_campaign()))
        reordered_data = small_campaign()
        reordered_data["axes"] = {
            "population": [4, 6],
            "scheduler": ["random", "round-robin"],
        }
        reordered = plan_campaign(campaign_from_dict(reordered_data))
        # Same cells, different walk order: the grid fingerprint must match
        # so finished results stay resumable after an axis reorder.
        assert {c.cell_id for c in reordered.cells} == {c.cell_id for c in base.cells}
        assert reordered.campaign_hash == base.campaign_hash

    def test_spelling_out_a_default_is_a_hashing_noop(self):
        base = plan_campaign(campaign_from_dict(small_campaign()))
        explicit_data = small_campaign()
        explicit_data["base"].update(model="TW", simulator="none",
                                     adversary="bounded", omissions=0)
        explicit = plan_campaign(campaign_from_dict(explicit_data))
        assert [c.cell_id for c in explicit.cells] == [c.cell_id for c in base.cells]
        assert explicit.campaign_hash == base.campaign_hash

    def test_duplicate_cells_are_rejected(self):
        data = small_campaign()
        data["axes"]["scheduler"] = [
            {"label": "a", "scheduler": "random"},
            {"label": "b", "scheduler": "random"},
        ]
        with pytest.raises(CampaignError, match="same experiment"):
            plan_campaign(campaign_from_dict(data))

    def test_invalid_cell_spec_fails_at_plan_time(self):
        data = small_campaign()
        data["axes"]["population"] = [4, 1]  # population 1 cannot interact
        with pytest.raises(CampaignError, match="invalid experiment spec"):
            plan_campaign(campaign_from_dict(data))

    def test_ones_outside_the_population_fails_at_plan_time(self):
        data = small_campaign()
        data["base"] = {"protocol": "or"}
        data["axes"]["ones"] = [1, 6]  # six ones cannot fit in four agents
        with pytest.raises(CampaignError,
                           match="invalid experiment spec: ones must lie in "
                                 "0..population, got ones=6 with population=4"):
            plan_campaign(campaign_from_dict(data))

    def test_unknown_registry_keys_fail_at_plan_time(self):
        for field_name, bad in [("protocol", "no-such-protocol"),
                                ("scheduler", "no-such-scheduler"),
                                ("simulator", "no-such-simulator"),
                                ("predicate", "no-such-predicate"),
                                ("adversary", "no-such-adversary")]:
            data = {
                "name": "bad-key",
                "base": {"protocol": "epidemic", field_name: bad},
                "axes": {"population": [4, 6]},
                "runs": 1,
            }
            with pytest.raises(CampaignError, match=f"unknown {field_name}"):
                plan_campaign(campaign_from_dict(data))

    def test_unknown_model_fails_at_plan_time(self):
        data = small_campaign()
        data["base"]["model"] = "I9"
        with pytest.raises(CampaignError, match="unknown model"):
            plan_campaign(campaign_from_dict(data))

    def test_infeasible_reasons(self):
        assert infeasible_reason(
            {"simulator": "known-n", "scheduler": "ring-graph"}) is not None
        assert infeasible_reason(
            {"model": "IO", "omissions": 1}) is not None
        assert infeasible_reason(
            {"model": "I3", "omissions": 1, "simulator": "skno"}) is None
        assert infeasible_reason(
            {"simulator": "known-n", "scheduler": "random"}) is None

    def test_example_campaign_plans_with_documented_na_cells(self):
        plan = plan_campaign(campaign_from_file(EXAMPLE_SPEC))
        assert plan.total == 12
        na = {cell.labels["assumption"] + "/" + cell.labels["topology"]
              + "/" + cell.labels["omissions"]: cell.skip_reason
              for cell in plan.cells if cell.skip_reason}
        # The documented knowledge-of-n ring cells are n/a ...
        for budget in ("0", "1", "2"):
            assert "deadlocks" in na[f"knowledge-of-n/ring/{budget}"]
        # ... and so are omission budgets on the non-omissive IO model.
        for budget in ("1", "2"):
            assert "does not admit omissions" in na[f"knowledge-of-n/complete/{budget}"]
        assert len(na) == 5
        feasible = [cell for cell in plan.cells if cell.skip_reason is None]
        assert len(feasible) == 7


# ---------------------------------------------------------------------------
# the result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_create_then_open_round_trips_records(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = ResultStore.create(path, "c", "hash1")
        record = {"kind": "cell", "cell_id": "abc", "status": "ok",
                  "result": {"runs": 1, "successes": 1}}
        store.append_cell(record)
        reopened = ResultStore.open(path, "c", "hash1")
        assert reopened.completed_ids() == {"abc"}
        assert reopened.record_for("abc") == record

    def test_create_refuses_an_existing_file(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        ResultStore.create(path, "c", "hash1")
        with pytest.raises(FileExistsError):
            ResultStore.create(path, "c", "hash1")

    def test_open_missing_store_errors(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore.open(str(tmp_path / "nope.jsonl"), "c", "hash1")

    def test_grid_hash_mismatch_is_loud(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        ResultStore.create(path, "c", "hash1")
        with pytest.raises(StoreError, match="spec changed"):
            ResultStore.open(path, "c", "hash2")

    def test_cell_records_are_ordered_by_id_not_append_order(self, tmp_path):
        # Parallel executors append in completion order; every fold keys
        # off cell id, so the store normalises iteration order itself.
        path = str(tmp_path / "s.jsonl")
        store = ResultStore.create(path, "c", "hash1")
        for cell_id in ("zz", "aa", "mm"):
            store.append_cell({"kind": "cell", "cell_id": cell_id,
                               "status": "na"})
        assert list(store.cell_records) == ["aa", "mm", "zz"]
        reopened = ResultStore.open(path, "c", "hash1")
        assert list(reopened.cell_records) == ["aa", "mm", "zz"]

    def test_torn_tail_is_recovered(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = ResultStore.create(path, "c", "hash1")
        store.append_cell({"kind": "cell", "cell_id": "good", "status": "na"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "cell_id": "torn", "stat')  # cut mid-write
        reopened = ResultStore.open(path, "c", "hash1")
        assert reopened.completed_ids() == {"good"}
        # Recovery truncates, so the next append starts on a clean boundary.
        reopened.append_cell({"kind": "cell", "cell_id": "next", "status": "na"})
        assert ResultStore.open(path, "c", "hash1").completed_ids() == {"good", "next"}

    def test_complete_json_without_newline_is_torn(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = ResultStore.create(path, "c", "hash1")
        store.append_cell({"kind": "cell", "cell_id": "good", "status": "na"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "cell", "cell_id": "cut", "status": "na"}))
        assert ResultStore.open(path, "c", "hash1").completed_ids() == {"good"}

    def test_torn_manifest_is_reinitialised(self, tmp_path):
        # A crash during create() can tear the manifest line itself; nothing
        # was persisted yet, so open() re-initialises the store in place.
        path = str(tmp_path / "s.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"campaign": "c", "campaign_hash": "hash1", "ki')
        store = ResultStore.open(path, "c", "hash1")
        assert store.completed_ids() == set()
        store.append_cell({"kind": "cell", "cell_id": "a", "status": "na"})
        assert ResultStore.open(path, "c", "hash1").completed_ids() == {"a"}

    def test_empty_file_is_reinitialised(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        open(path, "w").close()
        assert ResultStore.open(path, "c", "hash1").completed_ids() == set()

    def test_foreign_file_is_not_overwritten(self, tmp_path):
        path = str(tmp_path / "notes.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("my precious notes, no trailing newline")
        with pytest.raises(StoreError, match="no campaign manifest"):
            ResultStore.open(path, "c", "hash1")
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "my precious notes, no trailing newline"

    def test_readonly_open_does_not_mutate_the_file(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = ResultStore.create(path, "c", "hash1")
        store.append_cell({"kind": "cell", "cell_id": "good", "status": "na"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "torn')
        before = open(path, "rb").read()
        # status/report open read-only: the torn tail is tolerated but the
        # file is left byte-identical.
        readonly = ResultStore.open(path, "c", "hash1", recover=False)
        assert readonly.completed_ids() == {"good"}
        assert open(path, "rb").read() == before
        # An empty file is not claimed by a read-only open either.
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        with pytest.raises(StoreError, match="no campaign manifest"):
            ResultStore.open(empty, "c", "hash1", recover=False)
        assert open(empty, "rb").read() == b""

    def test_mid_file_corruption_is_not_recovered(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = ResultStore.create(path, "c", "hash1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
            handle.write(json.dumps({"kind": "cell", "cell_id": "after"}) + "\n")
        with pytest.raises(StoreError, match="corrupt"):
            ResultStore.open(path, "c", "hash1")


# ---------------------------------------------------------------------------
# running, resuming, determinism
# ---------------------------------------------------------------------------


def _records_as_canonical(store: ResultStore):
    return sorted(json.dumps(record, sort_keys=True)
                  for record in store.cell_records.values())


class TestRunAndResume:
    def test_full_run_completes_and_reports(self, tmp_path):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store)
        assert status.complete and not status.interrupted
        assert status.executed_now == 4 and status.errors == 0
        report = render_report(plan, store.cell_records)
        assert report.count("YES (2/2)") >= 4

    def test_rerun_is_idempotent(self, tmp_path):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store)
        first = _records_as_canonical(store)
        again = run_campaign(plan, store)
        assert again.executed_now == 0 and again.complete
        assert _records_as_canonical(store) == first

    @pytest.mark.parametrize("interrupt_after", [1, 2, 3])
    @pytest.mark.parametrize("jobs, run_chunk", [
        (1, 1),       # sequential (jobs=1 never spawns workers)
        (2, 1),
        (2, 2),
    ])
    def test_resume_matches_uninterrupted_run_byte_for_byte(
            self, tmp_path, interrupt_after, jobs, run_chunk):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        fanout = dict(jobs=jobs, run_chunk=run_chunk)

        uninterrupted = fresh_store(tmp_path, plan, "full.jsonl")
        run_campaign(plan, uninterrupted, **fanout)
        expected_report = render_report(plan, uninterrupted.cell_records)

        interrupted = fresh_store(tmp_path, plan, "partial.jsonl")
        status = run_campaign(plan, interrupted, max_cells=interrupt_after, **fanout)
        assert status.interrupted and status.pending == 4 - interrupt_after
        # Reopen (as `repro campaign resume` does) and finish the grid.
        resumed = ResultStore.open(interrupted.path, plan.campaign.name,
                                   plan.campaign_hash)
        status = run_campaign(plan, resumed, **fanout)
        assert status.complete
        assert status.executed_now == 4 - interrupt_after

        assert _records_as_canonical(resumed) == _records_as_canonical(uninterrupted)
        assert render_report(plan, resumed.cell_records) == expected_report

    @pytest.mark.parametrize("interrupt_after", [1, 3])
    def test_resume_determinism_on_the_array_backend(self, tmp_path, interrupt_after):
        pytest.importorskip("numpy")
        plan = plan_campaign(campaign_from_dict(small_campaign(backend="array")))
        uninterrupted = fresh_store(tmp_path, plan, "full.jsonl")
        run_campaign(plan, uninterrupted)
        assert campaign_status(plan, uninterrupted).errors == 0

        interrupted = fresh_store(tmp_path, plan, "partial.jsonl")
        run_campaign(plan, interrupted, max_cells=interrupt_after)
        resumed = ResultStore.open(interrupted.path, plan.campaign.name,
                                   plan.campaign_hash)
        run_campaign(plan, resumed)
        assert _records_as_canonical(resumed) == _records_as_canonical(uninterrupted)
        assert render_report(plan, resumed.cell_records) == render_report(
            plan, uninterrupted.cell_records)

    def test_python_and_array_backends_agree_on_verdicts(self, tmp_path):
        pytest.importorskip("numpy")
        reports = {}
        for backend in ("python", "array"):
            plan = plan_campaign(campaign_from_dict(small_campaign(backend=backend)))
            store = fresh_store(tmp_path, plan, f"{backend}.jsonl")
            run_campaign(plan, store)
            reports[backend] = [
                record["result"]["successes"] == record["result"]["runs"]
                for record in sorted(store.cell_records.values(),
                                     key=lambda r: r["index"])
            ]
        assert reports["python"] == reports["array"] == [True] * 4

    def test_keyboard_interrupt_leaves_a_resumable_store(self, tmp_path, monkeypatch):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        import repro.campaign.runner as runner_module
        real = runner_module.repeat_experiment
        calls = {"n": 0}

        def interrupting(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "repeat_experiment", interrupting)
        status = run_campaign(plan, store)
        assert status.interrupted and status.keyboard_interrupt
        assert status.done == 2
        monkeypatch.setattr(runner_module, "repeat_experiment", real)

        resumed = ResultStore.open(store.path, plan.campaign.name, plan.campaign_hash)
        assert run_campaign(plan, resumed).complete
        fresh = fresh_store(tmp_path, plan, "fresh.jsonl")
        run_campaign(plan, fresh)
        assert _records_as_canonical(resumed) == _records_as_canonical(fresh)

    def test_backend_errors_become_error_cells_not_aborts(self, tmp_path):
        pytest.importorskip("numpy")
        # The array backend cannot compile adversaries: such a cell must be
        # recorded as a deterministic per-cell error, not abort the sweep.
        data = {
            "name": "error-cells",
            "base": {"protocol": "pairing", "population": 6, "simulator": "skno",
                     "model": "I3", "omission_bound": 1, "backend": "array"},
            "axes": {"omissions": [0, 1]},
            "runs": 1,
            "max_steps": 20_000,
        }
        plan = plan_campaign(campaign_from_dict(data))
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store)
        assert status.complete
        by_label = {cell.labels["omissions"]: store.record_for(cell.cell_id)
                    for cell in plan.cells}
        assert by_label["1"]["status"] == "error"
        report = render_report(plan, store.cell_records)
        assert "ERR" in report

    def test_bad_factory_kwargs_become_error_cells(self, tmp_path):
        # kwargs *contents* are only validated by the factories at build
        # time; a typo'd name must be a per-cell error, not a sweep abort.
        data = {
            "name": "bad-kwargs",
            "base": {"protocol": "pairing", "population": 6, "simulator": "skno",
                     "model": "I3", "omission_bound": 1, "omissions": 1,
                     "adversary_kwargs": {"rates": 0.5}},
            "axes": {"population": [6, 8]},
            "runs": 1,
            "max_steps": 20_000,
        }
        plan = plan_campaign(campaign_from_dict(data))
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store)
        assert status.complete and status.errors == 2
        record = store.record_for(plan.cells[0].cell_id)
        assert record["status"] == "error"
        assert "rates" in record["error"]

    def test_out_of_range_no1_pair_becomes_an_error_cell(self, tmp_path):
        # NO1's pinned pair is checked against n only when its omission is
        # planned: agent 9 does not exist at n=6 but does at n=12.  The bad
        # cell is a per-cell error; the sweep completes the other one.
        data = {
            "name": "no1-pair",
            "base": {"protocol": "pairing", "simulator": "skno", "model": "I3",
                     "omission_bound": 1, "omissions": 1, "adversary": "no1",
                     "adversary_kwargs": {"pair": [0, 9]}},
            "axes": {"population": [6, 12]},
            "runs": 1,
            "max_steps": 20_000,
        }
        plan = plan_campaign(campaign_from_dict(data))
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store)
        assert status.complete and status.errors == 1
        by_population = {cell.labels["population"]: store.record_for(cell.cell_id)
                         for cell in plan.cells}
        assert by_population["6"]["status"] == "error"
        assert "pair" in by_population["6"]["error"]
        assert "n=6" in by_population["6"]["error"]
        assert by_population["12"]["status"] == "ok"

    def test_build_time_failures_become_error_cells(self, tmp_path, monkeypatch):
        # A key that passes plan-time validation but fails at build time
        # (e.g. registry drift) is a per-cell error, not a campaign abort.
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        import repro.protocols.registry as registry
        monkeypatch.delitem(registry.PROTOCOLS, "epidemic")
        registry._BUILD_CACHE.clear()
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store)
        assert status.complete and status.errors == plan.total
        record = store.record_for(plan.cells[0].cell_id)
        assert record["status"] == "error"
        assert "epidemic" in record["error"]

    def test_two_way_model_cells_run_one_way_simulators(self, tmp_path):
        # The registry presents SKnO one-way-as-two-way under T3, so the T3
        # cell runs like the I3 one instead of aborting the sweep.
        data = {
            "name": "skno-i3-t3",
            "base": {"protocol": "pairing", "population": 5, "simulator": "skno",
                     "omission_bound": 1, "omissions": 1},
            "axes": {"model": ["I3", "T3"]},
            "runs": 2,
            "max_steps": 150_000,
            "stability_window": 200,
        }
        plan = plan_campaign(campaign_from_dict(data))
        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store)
        assert status.complete and status.executed_now == 2 and status.errors == 0
        for cell in plan.cells:
            record = store.record_for(cell.cell_id)
            assert record["status"] == "ok"
            assert record["result"]["successes"] == 2

    def test_single_axis_campaign_reports_a_verdict_column(self, tmp_path):
        data = {
            "name": "one-axis",
            "base": {"protocol": "epidemic"},
            "axes": {"population": [4, 6]},
            "runs": 1,
            "max_steps": 20_000,
        }
        plan = plan_campaign(campaign_from_dict(data))
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store)
        report = render_report(plan, store.cell_records)
        assert "| population | verdict" in report
        # One verdict per point — no fabricated n x n cross product.
        grid_lines = [line for line in report.splitlines()
                      if line.startswith("| 4 ") or line.startswith("| 6 ")]
        assert len(grid_lines) == 2
        assert all(line.count("YES") == 1 for line in grid_lines)

    def test_status_folds_the_store_without_running(self, tmp_path):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, max_cells=2)
        status = campaign_status(plan, store)
        assert (status.done, status.pending) == (2, 2)
        assert not status.complete


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCampaignCli:
    def _spec_file(self, tmp_path) -> str:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(small_campaign()))
        return str(path)

    def test_run_status_resume_report_flow(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        store = str(tmp_path / "grid.results.jsonl")
        assert main(["campaign", "run", spec, "--store", store,
                     "--max-cells", "2", "--quiet"]) == 0
        assert "2/4 cells done" in capsys.readouterr().out
        assert main(["campaign", "status", spec, "--store", store]) == 1
        assert "pending" in capsys.readouterr().out
        assert main(["campaign", "resume", spec, "--store", store, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", spec, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "YES (2/2)" in out and "per-cell details" in out

    def test_default_store_path_derives_from_spec(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        assert main(["campaign", "run", spec, "--quiet"]) == 0
        assert os.path.exists(str(tmp_path / "grid.results.jsonl"))
        capsys.readouterr()

    def test_resume_without_a_store_errors(self, tmp_path):
        spec = self._spec_file(tmp_path)
        with pytest.raises(SystemExit, match="no result store"):
            main(["campaign", "resume", spec])

    def test_changed_spec_cannot_reuse_the_store(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        store = str(tmp_path / "grid.results.jsonl")
        assert main(["campaign", "run", spec, "--store", store, "--quiet",
                     "--max-cells", "1"]) == 0
        capsys.readouterr()
        data = small_campaign()
        data["runs"] = 7
        (tmp_path / "grid.json").write_text(json.dumps(data))
        with pytest.raises(SystemExit, match="spec changed"):
            main(["campaign", "run", spec, "--store", store, "--quiet"])

    def test_keyboard_interrupt_exits_130_not_success(self, tmp_path, capsys,
                                                      monkeypatch):
        spec = self._spec_file(tmp_path)
        store = str(tmp_path / "grid.results.jsonl")
        import repro.campaign.runner as runner_module
        real = runner_module.repeat_experiment

        def interrupting(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_module, "repeat_experiment", interrupting)
        assert main(["campaign", "run", spec, "--store", store, "--quiet"]) == 130
        monkeypatch.setattr(runner_module, "repeat_experiment", real)
        capsys.readouterr()
        # A --max-cells cap, by contrast, is a clean (exit 0) early stop.
        assert main(["campaign", "resume", spec, "--store", store, "--quiet",
                     "--max-cells", "1"]) == 0
        capsys.readouterr()

    def test_bad_fanout_arguments_are_clean_errors(self, tmp_path):
        spec = self._spec_file(tmp_path)
        with pytest.raises(SystemExit, match="--max-cells"):
            main(["campaign", "run", spec, "--max-cells", "0"])
        with pytest.raises(SystemExit, match="--jobs"):
            main(["campaign", "run", spec, "--jobs", "0"])
        with pytest.raises(SystemExit, match="--run-chunk"):
            main(["campaign", "run", spec, "--run-chunk", "0"])

    def test_malformed_spec_is_a_clean_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="campaign spec"):
            main(["campaign", "run", str(path)])


class TestListCommand:
    def test_lists_every_registry_and_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("exact-majority", "skno", "stable-output", "ring-graph",
                    "bounded", "no1", "python", "array"):
            assert key in out
        # One fan-out lane leaves nothing to choose between.
        assert "fan-out" not in out

    def test_surfaces_entry_point_errors(self, capsys, monkeypatch):
        import repro.protocols.registry as registry
        monkeypatch.setitem(
            registry.ENTRY_POINT_ERRORS, "broken-dist",
            "ImportError: no module named nope")
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "FAILED to load" in out
        assert "broken-dist: ImportError: no module named nope" in out


# ---------------------------------------------------------------------------
# satellite seams: result serialisation + the adversary registry
# ---------------------------------------------------------------------------


class TestExperimentResultSerialisation:
    def test_round_trip(self):
        result = ExperimentResult(
            runs=3, successes=2, convergence_steps=[10, 20],
            failures=["run 2: did not converge within 5 steps"])
        clone = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == ExperimentResult(
            runs=3, successes=2, convergence_steps=[10, 20],
            failures=result.failures)
        assert clone.success_rate == result.success_rate


class TestAdversaryRegistry:
    @pytest.mark.parametrize("key, expected_class", [
        ("bounded", BoundedOmissionAdversary),
        ("no1", NO1Adversary),
        ("uo", UOAdversary),
        ("no", NOAdversary),
    ])
    def test_spec_builds_each_adversary_class(self, key, expected_class):
        spec = ExperimentSpec(protocol="pairing", population=6, simulator="skno",
                              model="I3", omission_bound=2, omissions=2,
                              adversary=key)
        adversary = spec.build().make_adversary(seed=1)
        assert type(adversary) is expected_class

    def test_bounded_budget_follows_the_spec(self):
        spec = ExperimentSpec(protocol="pairing", population=6, simulator="skno",
                              model="I3", omission_bound=3, omissions=3)
        adversary = spec.build().make_adversary(seed=0)
        assert adversary.max_omissions == 3

    def test_no_omissions_means_no_adversary(self):
        spec = ExperimentSpec(protocol="pairing", population=6, simulator="skno",
                              model="I3", adversary="uo")
        assert spec.build().make_adversary(seed=0) is None

    def test_unknown_adversary_key_is_rejected_at_build(self):
        spec = ExperimentSpec(protocol="pairing", population=6, simulator="skno",
                              model="I3", omissions=1, adversary="nonsense")
        with pytest.raises(KeyError, match="known adversaries"):
            spec.build()

    def test_registered_factories_are_listed(self):
        assert set(ADVERSARIES) >= {"bounded", "no1", "uo", "no"}

    def test_cli_run_accepts_an_adversary_class(self, capsys):
        exit_code = main([
            "run", "--protocol", "leader-election", "--model", "I3",
            "--simulator", "skno", "--omission-bound", "1", "--omissions", "1",
            "--adversary", "no1", "--population", "6", "--seed", "2",
            "--max-steps", "150000",
        ])
        assert exit_code == 0
        assert "converged" in capsys.readouterr().out
