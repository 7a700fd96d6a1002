"""Equivalence suite for the adversary/array compile gap closed by the
column-schedule lowering.

Three legs (the schedules themselves are pinned to the per-step
definition in ``tests/test_adversary_batching.py``, without numpy):

1. **Engine bit-identity**: on the deterministic round-robin scheduler the
   array and python backends execute the same interaction sequence, so
   final configurations, step counts and omission counts must agree
   bit for bit — for every adversary class, including budget exhaustion
   mid-chunk and a stop condition firing mid-chunk.
2. **Ring dumps**: under ``--trace-policy ring`` the array backend's
   decoded crash window equals the python backend's interaction tail,
   injected omissive steps included.
3. **Auto-resolution determinism**: ``backend="auto"`` resolves at plan
   time as a pure function of the spec, so campaign cell ids are identical
   across repeated plannings and experiment results are identical across
   fan-out modes.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.adversary.omission import (
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    NoOmissionAdversary,
    UOAdversary,
)
from repro.campaign.planner import plan_campaign
from repro.campaign.spec import campaign_from_dict
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.experiment import repeat_experiment
from repro.engine.fastpath import AgentCountPredicate
from repro.protocols.state import Configuration
from repro.interaction.models import get_model
from repro.protocols.catalog.epidemic import (
    INFORMED,
    SUSCEPTIBLE,
    OneWayEpidemicProtocol,
)
from repro.protocols.registry import ExperimentSpec, resolve_backend
from repro.scheduling.scheduler import RoundRobinScheduler

I3 = get_model("I3")

# Every test runs under both chunk executors (see tests/conftest.py).
pytestmark = pytest.mark.usefixtures("array_executor")

ADVERSARY_KINDS = ("none", "bounded", "no", "no1", "uo")


def make_adversary(kind: str, seed: int):
    """One instance per catalog class, parameters chosen so every code path
    (budget spend, active-prefix end, pinned gap, geometric flood) is hit
    within a few hundred steps."""
    if kind == "bounded":
        return BoundedOmissionAdversary(I3, max_omissions=9, rate=0.4, seed=seed)
    if kind == "no":
        return NOAdversary(I3, active_steps=120, rate=0.3, max_per_gap=2, seed=seed)
    if kind == "no1":
        return NO1Adversary(I3, inject_at=37, seed=seed)
    if kind == "uo":
        return UOAdversary(I3, rate=0.25, max_per_gap=3, seed=seed)
    return NoOmissionAdversary()


# ---------------------------------------------------------------------------
# 1. engine bit-identity on round-robin, per class × budget/stop mid-chunk
# ---------------------------------------------------------------------------


def run_both(kind: str, *, max_steps: int, stop: bool, chunk_size=None,
             trace_policy: str = "counts-only", ring_size=None, n: int = 24):
    outcomes = {}
    for backend in ("python", "array"):
        engine = SimulationEngine(
            OneWayEpidemicProtocol(), I3, RoundRobinScheduler(n),
            adversary=make_adversary(kind, 3), backend=backend)
        initial = Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))
        if stop:
            outcomes[backend] = run_until_stable(
                engine, initial, AgentCountPredicate(lambda s: s == INFORMED),
                max_steps, stability_window=2, trace_policy=trace_policy,
                ring_size=ring_size, chunk_size=chunk_size)
        else:
            outcomes[backend] = run_until_stable(
                engine, initial, None, max_steps, trace_policy=trace_policy,
                ring_size=ring_size, chunk_size=chunk_size)
    return outcomes["python"], outcomes["array"]


class TestEngineBitIdentity:
    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_budget_exhaustion_mid_chunk(self, kind):
        """An odd budget with an odd chunk size: the run ends inside a
        chunk, with injections charged against the remaining budget."""
        python, array = run_both(kind, max_steps=97, stop=False, chunk_size=7)
        assert array.steps_executed == python.steps_executed == 97
        assert array.omissions == python.omissions
        assert tuple(array.final_configuration) == tuple(python.final_configuration)

    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_stop_condition_mid_chunk(self, kind):
        """A count predicate firing inside a large chunk: both backends must
        stop after the identical completing step."""
        python, array = run_both(kind, max_steps=50_000, stop=True,
                                 chunk_size=4096)
        assert python.converged and array.converged
        assert python.steps_executed < 50_000, "predicate must fire mid-run"
        assert array.steps_executed == python.steps_executed
        assert array.steps_to_convergence == python.steps_to_convergence
        assert array.omissions == python.omissions
        assert tuple(array.final_configuration) == tuple(python.final_configuration)


    @pytest.mark.parametrize("backend", ("python", "array"))
    def test_out_of_range_no1_pair_is_a_value_error(self, backend):
        """Agent 9 does not exist at n=6: a ValueError (a per-cell verdict
        in campaigns), not an IndexError deep in the merge."""
        engine = SimulationEngine(
            OneWayEpidemicProtocol(), I3, RoundRobinScheduler(6),
            adversary=NO1Adversary(I3, inject_at=3, pair=(0, 9), seed=0),
            backend=backend)
        initial = Configuration([INFORMED] + [SUSCEPTIBLE] * 5)
        with pytest.raises(ValueError, match=r"pair=\(0, 9\).*n=6"):
            run_until_stable(engine, initial, None, 100, trace_policy="counts-only")


# ---------------------------------------------------------------------------
# 2. ring dumps: decoded array window == python interaction tail
# ---------------------------------------------------------------------------


class TestRingDumpEquality:
    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_ring_window_matches_python_tail(self, kind):
        python, array = run_both(kind, max_steps=500, stop=False,
                                 trace_policy="ring", ring_size=16)
        assert len(array.last_steps) == 16
        assert array.last_steps == python.last_steps

    def test_ring_window_contains_injected_omissions(self):
        """The decoded window must include omissive TraceSteps, not only
        scheduled ones (UO floods enough to guarantee one in any window)."""
        _, array = run_both("uo", max_steps=500, stop=False,
                            trace_policy="ring", ring_size=32)
        assert any(step.interaction.omission.is_omissive
                   for step in array.last_steps
                   if step.interaction.omission is not None)


# ---------------------------------------------------------------------------
# 3. auto-resolution determinism
# ---------------------------------------------------------------------------


def auto_campaign() -> dict:
    return {
        "name": "auto-grid",
        "base": {"protocol": "epidemic", "backend": "auto", "model": "I3",
                 "omissions": 2},
        "axes": {"population": [6, 8]},
        "runs": 2,
        "base_seed": 5,
        "max_steps": 10_000,
        "stability_window": 4,
    }


class TestAutoResolutionDeterminism:
    def test_resolution_is_a_pure_function_of_the_spec(self):
        spec = ExperimentSpec(protocol="epidemic", population=8, model="I3",
                              omissions=2, backend="auto")
        first = resolve_backend(spec)
        second = resolve_backend(spec)
        assert first == second
        assert first.backend == "array"

    def test_cell_ids_stable_across_plannings(self):
        baseline = plan_campaign(campaign_from_dict(auto_campaign()))
        replanned = plan_campaign(campaign_from_dict(auto_campaign()))
        assert baseline.cell_ids() == replanned.cell_ids()
        assert baseline.campaign_hash == replanned.campaign_hash
        # The cells genuinely resolved (identity pins the concrete backend).
        for cell in baseline.cells:
            assert dict(cell.fields)["backend"] == "array"

    def test_results_identical_across_fanout_modes(self):
        spec = ExperimentSpec(protocol="epidemic", population=8, model="I3",
                              omissions=2, backend="auto")
        results = [
            repeat_experiment(spec=spec, runs=3, max_steps=5_000,
                              stability_window=4, base_seed=1,
                              jobs=jobs, run_chunk=run_chunk).to_dict()
            for jobs, run_chunk in ((1, 1), (2, 1), (2, 2))
        ]
        assert results[0] == results[1] == results[2]
