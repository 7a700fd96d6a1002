"""Unit tests for the omission adversaries (Definitions 1 and 2)."""

import pytest

from repro.adversary.omission import (
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    NoOmissionAdversary,
    UOAdversary,
)
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.interaction.models import I1, I3, IO, T3, TW
from repro.protocols.catalog.epidemic import (
    INFORMED,
    SUSCEPTIBLE,
    OneWayEpidemicProtocol,
)
from repro.protocols.state import Configuration
from repro.scheduling.runs import Interaction
from repro.scheduling.scheduler import RoundRobinScheduler


SCHEDULED = Interaction(0, 1)


def count_injected(adversary, steps, n=4):
    total = 0
    for step in range(steps):
        injected = adversary.interactions_before(step=step, scheduled=SCHEDULED, n=n)
        for interaction in injected:
            assert interaction.is_omissive, "adversaries may only inject omissive interactions"
            assert 0 <= interaction.starter < n
            assert 0 <= interaction.reactor < n
        total += len(injected)
    return total


class TestNoOmissionAdversary:
    def test_never_injects(self):
        assert count_injected(NoOmissionAdversary(), 100) == 0


class TestUOAdversary:
    def test_requires_omissive_model(self):
        with pytest.raises(ValueError):
            UOAdversary(TW)
        with pytest.raises(ValueError):
            UOAdversary(IO)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            UOAdversary(I3, rate=-0.1)

    def test_injects_roughly_at_rate(self):
        adversary = UOAdversary(I3, rate=0.5, seed=0)
        injected = count_injected(adversary, 2_000)
        assert 600 < injected < 1_500
        assert adversary.total_injected == injected

    def test_zero_rate_never_injects(self):
        assert count_injected(UOAdversary(I3, rate=0.0, seed=0), 500) == 0

    def test_max_per_gap_is_respected(self):
        adversary = UOAdversary(I3, rate=10.0, max_per_gap=2, seed=1)
        for step in range(200):
            injected = adversary.interactions_before(step=step, scheduled=SCHEDULED, n=4)
            assert len(injected) <= 2

    def test_keeps_injecting_forever(self):
        """Unlike NO, the UO adversary still injects late in the execution."""
        adversary = UOAdversary(I3, rate=0.5, seed=3)
        count_injected(adversary, 1_000)
        late = sum(
            len(adversary.interactions_before(step=step, scheduled=SCHEDULED, n=4))
            for step in range(10_000, 10_500)
        )
        assert late > 0

    def test_one_way_model_omissions_are_reactor_side(self):
        adversary = UOAdversary(I1, rate=5.0, seed=2)
        for step in range(100):
            for interaction in adversary.interactions_before(step, SCHEDULED, 4):
                assert interaction.omission.reactor_lost
                assert not interaction.omission.starter_lost

    def test_two_way_model_can_hit_either_side(self):
        adversary = UOAdversary(T3, rate=5.0, seed=4)
        kinds = set()
        for step in range(300):
            for interaction in adversary.interactions_before(step, SCHEDULED, 4):
                kinds.add((interaction.omission.starter_lost, interaction.omission.reactor_lost))
        assert len(kinds) >= 2

    def test_reset(self):
        adversary = UOAdversary(I3, rate=0.5, seed=9)
        first = count_injected(adversary, 200)
        adversary.reset()
        second = count_injected(adversary, 200)
        assert first == second


class TestNOAdversary:
    def test_stops_after_active_steps(self):
        adversary = NOAdversary(I3, active_steps=50, rate=1.0, seed=0)
        early = count_injected(adversary, 50)
        late = sum(
            len(adversary.interactions_before(step=step, scheduled=SCHEDULED, n=4))
            for step in range(50, 500)
        )
        assert early > 0
        assert late == 0

    def test_rejects_negative_active_steps(self):
        with pytest.raises(ValueError):
            NOAdversary(I3, active_steps=-1)


class TestRateValidation:
    """Rates reach the adversaries from campaign ``adversary_kwargs``; a
    negative one must be rejected at construction, not fail mid-run or
    silently inject nothing."""

    @pytest.mark.parametrize("make", [
        lambda: UOAdversary(I3, max_per_gap=-1),
        lambda: NOAdversary(I3, rate=-1.0),
        lambda: NOAdversary(I3, max_per_gap=-2),
        lambda: BoundedOmissionAdversary(I3, max_omissions=3, rate=-0.5),
    ], ids=["uo-max-per-gap", "no-rate", "no-max-per-gap", "bounded-rate"])
    def test_negative_rates_rejected(self, make):
        with pytest.raises(ValueError, match="must be non-negative"):
            make()

    def test_zero_rates_accepted(self):
        assert count_injected(NOAdversary(I3, rate=0.0, seed=0), 100) == 0
        assert count_injected(NOAdversary(I3, max_per_gap=0, seed=0), 100) == 0
        assert count_injected(
            BoundedOmissionAdversary(I3, max_omissions=3, rate=0.0, seed=0), 100) == 0


class TestBoundedAdversary:
    def test_budget_is_hard_cap(self):
        adversary = BoundedOmissionAdversary(I3, max_omissions=3, rate=1.0, seed=0)
        assert count_injected(adversary, 1_000) == 3
        assert adversary.total_injected == 3

    def test_zero_budget(self):
        adversary = BoundedOmissionAdversary(I3, max_omissions=0, seed=0)
        assert count_injected(adversary, 100) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BoundedOmissionAdversary(I3, max_omissions=-1)

    def test_reset_restores_budget(self):
        adversary = BoundedOmissionAdversary(I3, max_omissions=2, rate=1.0, seed=0)
        count_injected(adversary, 100)
        adversary.reset()
        assert adversary.total_injected == 0
        assert count_injected(adversary, 100) == 2


class TestNO1Adversary:
    def test_exactly_one_omission(self):
        adversary = NO1Adversary(I3, inject_at=0, seed=0)
        assert count_injected(adversary, 500) == 1

    def test_injection_at_chosen_step(self):
        adversary = NO1Adversary(I3, inject_at=7, seed=0)
        for step in range(7):
            assert adversary.interactions_before(step, SCHEDULED, 4) == []
        assert len(adversary.interactions_before(7, SCHEDULED, 4)) == 1
        assert adversary.interactions_before(8, SCHEDULED, 4) == []

    def test_pinned_pair(self):
        adversary = NO1Adversary(I3, inject_at=0, pair=(2, 3), seed=0)
        injected = adversary.interactions_before(0, SCHEDULED, 4)
        assert injected[0].pair == (2, 3)
        assert injected[0].is_omissive

    @pytest.mark.parametrize("pair", [(0, 9), (9, 0), (-1, 2), (3, 3)])
    def test_out_of_range_pair_rejected_when_planned(self, pair):
        # The per-step definition and the batched protocol both refuse it.
        with pytest.raises(ValueError, match=r"pair=.*n=6"):
            NO1Adversary(I3, pair=pair).interactions_before(0, SCHEDULED, 6)
        with pytest.raises(ValueError, match=r"pair=.*n=6"):
            NO1Adversary(I3, pair=pair).plan_chunk_schedule_columns(0, 4, 6, None)

    def test_out_of_range_pair_fails_the_run_with_value_error(self):
        engine = SimulationEngine(
            OneWayEpidemicProtocol(), I3, RoundRobinScheduler(6),
            adversary=NO1Adversary(I3, inject_at=3, pair=(0, 9), seed=0))
        initial = Configuration([INFORMED] + [SUSCEPTIBLE] * 5)
        for chunk_size in (1, 256):
            with pytest.raises(ValueError, match=r"pair=\(0, 9\).*n=6"):
                run_until_stable(engine, initial, None, 100, chunk_size=chunk_size)
