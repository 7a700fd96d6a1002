"""A planned cell is built, prepared and compiled once per process.

``resolve_backend`` files the experiment it built for its ``auto`` probe
under the resolved spec, and the probe compiles through the array
backend's compile cache.  So the runs that follow reuse the planner's
objects, and so does every process worker forked after planning.  The
paper's simulators, which the array backend can never compile, are
rejected before numpy is imported, with the same reason text.
"""

from __future__ import annotations

import multiprocessing
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.engine.backends import array_backend
from repro.engine.experiment import repeat_experiment, run_spec
from repro.obs.recorder import MetricsRecorder, recording
from repro.protocols import registry
from repro.protocols.registry import ExperimentSpec, build_cached, resolved_spec

#: An ``auto`` spec that resolves to the array backend, large enough for
#: the build to be worth sharing.
AUTO_SPEC = ExperimentSpec(protocol="epidemic", population=2000, backend="auto")

RUN_KWARGS = dict(runs=4, max_steps=40_000, base_seed=5)


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty per-process caches, restored after the test."""
    monkeypatch.setattr(registry, "_BUILD_CACHE", {})
    monkeypatch.setattr(registry, "_RESOLUTION_CACHE", {})
    monkeypatch.setattr(array_backend, "_COMPILE_CACHE", {})


def forbid_setup(monkeypatch):
    """Make any further build or compile raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a planned cell was built or compiled again")

    monkeypatch.setattr(ExperimentSpec, "build", refuse)
    monkeypatch.setattr(array_backend, "compile_program", refuse)


def fields(result):
    return result.to_dict(), result.failure_dumps


class TestPlannedCellIsBuiltOnce:
    def test_resolved_spec_reuses_the_probe_build(self, fresh_caches):
        resolved, reason = resolved_spec(AUTO_SPEC)
        assert (resolved.backend, reason) == ("array", None)
        assert build_cached(resolved) is build_cached(AUTO_SPEC)

    def test_runs_hit_the_probe_compile(self, fresh_caches):
        resolved, _ = resolved_spec(AUTO_SPEC)
        with recording(MetricsRecorder()) as recorder:
            run_spec(resolved, 0, base_seed=5, max_steps=40_000,
                     stability_window=0, trace_policy="counts-only")
        counters = recorder.snapshot()["counters"]
        assert counters.get("engine.array.compile_cache.hit") == 1
        assert "engine.array.compile_cache.miss" not in counters

    def test_sequential_runs_build_nothing_after_planning(
            self, fresh_caches, monkeypatch):
        resolved, _ = resolved_spec(AUTO_SPEC)
        forbid_setup(monkeypatch)
        result = repeat_experiment(spec=resolved, **RUN_KWARGS)
        assert result.runs == RUN_KWARGS["runs"]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the planner's caches only when forked")
    def test_forked_workers_build_nothing(self, fresh_caches, monkeypatch):
        resolved, _ = resolved_spec(AUTO_SPEC)
        forbid_setup(monkeypatch)
        forked = repeat_experiment(
            spec=resolved, jobs=2, **RUN_KWARGS)
        sequential = repeat_experiment(spec=resolved, **RUN_KWARGS)
        assert fields(forked) == fields(sequential)


class TestSimulatorsRejectedWithoutNumpy:
    """Resolution of an uncompilable simulator never imports numpy."""

    SCRIPT = (
        "import sys\n"
        "{prelude}"
        "from repro.protocols.registry import ExperimentSpec, resolve_backend\n"
        "spec = ExperimentSpec(protocol='pairing', population=6, model='I3',\n"
        "                      simulator='skno', omission_bound=1, backend='auto')\n"
        "resolution = resolve_backend(spec)\n"
        "assert resolution.backend == 'python', resolution\n"
        "print(resolution.reason)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )

    def resolve(self, prelude: str = "") -> list:
        # A fresh interpreter: this one has numpy imported already.
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(prelude=prelude)],
            check=True, capture_output=True, text=True, timeout=120)
        return completed.stdout.splitlines()

    def test_skno_reason_without_importing_numpy(self):
        reason, imported = self.resolve()
        assert imported == "[]"
        assert reason.startswith(
            "program SKnOSimulator cannot be compiled for the array backend: ")
        assert reason.endswith(
            "(simulators with unbounded composite state spaces need "
            "--engine-backend python)")

    def test_missing_numpy_keeps_its_reason(self):
        reason, _ = self.resolve(prelude="sys.modules['numpy'] = None\n")
        assert "repro[fast]" in reason
