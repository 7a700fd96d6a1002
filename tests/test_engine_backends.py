"""Backend registry surface that must work on installs *without* numpy.

Everything here runs on the core install: backend-name validation on the
engine and the spec, the lazy resolution contract (``import repro`` never
touches numpy), the actionable error when the array backend is requested
without the ``repro[fast]`` extra, and the new CLI flags.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro.cli import build_parser
from repro.engine.backends import (
    ENGINE_BACKENDS,
    BackendUnavailableError,
    validate_backend,
)
from repro.engine.convergence import run_until_stable
from repro.engine.engine import EngineError, SimulationEngine
from repro.engine.fastpath import AgentCountPredicate
from repro.interaction.models import get_model
from repro.protocols.catalog.epidemic import EpidemicProtocol
from repro.protocols.registry import ExperimentSpec
from repro.protocols.state import Configuration
from repro.scheduling.scheduler import RandomScheduler


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


class TestBackendRegistry:
    def test_known_backends(self):
        assert ENGINE_BACKENDS == ("python", "array")
        for name in ENGINE_BACKENDS:
            assert validate_backend(name) == name

    def test_unknown_backend_rejected_everywhere(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            validate_backend("gpu")
        with pytest.raises(ValueError, match="unknown engine backend"):
            SimulationEngine(
                EpidemicProtocol(), get_model("TW"),
                RandomScheduler(4, seed=0), backend="gpu")
        with pytest.raises(ValueError, match="unknown engine backend"):
            ExperimentSpec(protocol="epidemic", population=4, backend="gpu")

    def test_engine_defaults_to_python(self):
        engine = SimulationEngine(
            EpidemicProtocol(), get_model("TW"), RandomScheduler(4, seed=0))
        assert engine.backend == "python"
        assert ExperimentSpec(protocol="epidemic", population=4).backend == "python"

    def test_importing_repro_does_not_import_numpy(self):
        # The lazy-resolution contract behind the dependency-free core
        # install: no repro module may pull numpy in at import time.  A
        # fresh interpreter is the only reliable observer (this process
        # already has everything imported).
        import subprocess

        script = (
            "import sys; "
            "import repro, repro.cli, repro.engine.backends, "
            "repro.protocols.registry; "
            "leaked = [m for m in sys.modules if m.split('.')[0] == 'numpy']; "
            "assert not leaked, leaked"
        )
        subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=120)

    @pytest.mark.skipif(
        _numpy_available(), reason="exercises the install without repro[fast]")
    def test_array_backend_unavailable_error_is_actionable(self):
        # Both engine entry points, on an engine that validated "array"
        # without importing anything.
        engine = SimulationEngine(
            EpidemicProtocol(), get_model("TW"),
            RandomScheduler(4, seed=0), backend="array")
        initial = Configuration(["I", "S", "S", "S"])
        with pytest.raises(BackendUnavailableError, match=r"repro\[fast\]"):
            run_until_stable(engine, initial, None, 10, trace_policy="counts-only")
        with pytest.raises(BackendUnavailableError, match=r"repro\[fast\]"):
            run_until_stable(
                engine, initial, AgentCountPredicate(lambda state: state == "I"),
                max_steps=10, trace_policy="counts-only")


class TestStepBudget:
    def test_negative_budget_raises_on_both_entry_points(self):
        engine = SimulationEngine(
            EpidemicProtocol(), get_model("TW"), RandomScheduler(4, seed=0))
        initial = Configuration(["I", "S", "S", "S"])
        with pytest.raises(EngineError, match="non-negative"):
            run_until_stable(engine, initial, None, -1)
        with pytest.raises(EngineError, match="non-negative"):
            run_until_stable(
                engine, initial, AgentCountPredicate(lambda state: state == "I"),
                max_steps=-1)


    @pytest.mark.parametrize("backend", ENGINE_BACKENDS)
    def test_negative_stability_window_raises_on_both_backends(self, backend):
        # Checked by the one entry point before dispatch: no numpy needed.
        engine = SimulationEngine(
            EpidemicProtocol(), get_model("TW"), RandomScheduler(4, seed=0),
            backend=backend)
        with pytest.raises(EngineError, match="stability_window"):
            run_until_stable(
                engine, Configuration(["I", "S", "S", "S"]),
                AgentCountPredicate(lambda state: state == "I"), max_steps=10,
                stability_window=-1, trace_policy="counts-only")

    @pytest.mark.parametrize("backend", ENGINE_BACKENDS)
    def test_one_agent_population_raises_on_both_backends(self, backend):
        engine = SimulationEngine(
            EpidemicProtocol(), get_model("TW"), RandomScheduler(4, seed=0),
            backend=backend)
        with pytest.raises(EngineError, match="fewer than two agents"):
            run_until_stable(
                engine, Configuration(["I"]),
                AgentCountPredicate(lambda state: state == "I"), max_steps=10,
                trace_policy="counts-only")


class TestSpecBackendField:
    def test_backend_survives_pickling(self):
        spec = ExperimentSpec(protocol="epidemic", population=4, backend="array")
        assert pickle.loads(pickle.dumps(spec)).backend == "array"

    def test_backend_participates_in_identity(self):
        python_spec = ExperimentSpec(protocol="epidemic", population=4)
        array_spec = ExperimentSpec(
            protocol="epidemic", population=4, backend="array")
        assert python_spec != array_spec
        assert hash(python_spec) != hash(array_spec)


class TestCLIFlags:
    def test_engine_backend_flag(self):
        args = build_parser().parse_args(["run"])
        assert args.engine_backend == "python"
        args = build_parser().parse_args(["run", "--engine-backend", "array"])
        assert args.engine_backend == "array"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine-backend", "gpu"])

    def test_scheduler_flag(self):
        args = build_parser().parse_args(["run"])
        assert args.scheduler == "random"
        args = build_parser().parse_args(["run", "--scheduler", "ring-graph"])
        assert args.scheduler == "ring-graph"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "torus"])

    def test_graph_scheduler_single_run(self, capsys):
        from repro.cli import main

        exit_code = main([
            "run", "--protocol", "epidemic", "--population", "16",
            "--scheduler", "ring-graph", "--trace-policy", "counts-only",
            "--max-steps", "20000", "--seed", "5",
        ])
        assert exit_code == 0
        assert "converged" in capsys.readouterr().out

    def test_graph_scheduler_repeated_runs_through_spec(self, capsys):
        from repro.cli import main

        exit_code = main([
            "run", "--protocol", "epidemic", "--population", "12",
            "--scheduler", "star-graph", "--trace-policy", "counts-only",
            "--runs", "3", "--max-steps", "20000", "--seed", "5",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "3/3" in output
