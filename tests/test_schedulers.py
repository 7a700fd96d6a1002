"""Unit tests for the schedulers."""

import tracemalloc

import pytest

from repro.interaction.omissions import REACTOR_OMISSION
from repro.scheduling.runs import Interaction, Run
from repro.scheduling.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    SchedulerExhausted,
    WeightedPairScheduler,
)


class TestRandomScheduler:
    def test_requires_two_agents(self):
        with pytest.raises(ValueError):
            RandomScheduler(1)

    def test_generates_valid_interactions(self):
        scheduler = RandomScheduler(5, seed=0)
        for step in range(200):
            interaction = scheduler.next_interaction(step)
            assert 0 <= interaction.starter < 5
            assert 0 <= interaction.reactor < 5
            assert interaction.starter != interaction.reactor
            assert not interaction.is_omissive

    def test_deterministic_with_seed(self):
        first = [RandomScheduler(4, seed=42).next_interaction(i) for i in range(50)]
        second = [RandomScheduler(4, seed=42).next_interaction(i) for i in range(50)]
        assert first == second

    def test_different_seeds_differ(self):
        first = [RandomScheduler(4, seed=1).next_interaction(i) for i in range(50)]
        second = [RandomScheduler(4, seed=2).next_interaction(i) for i in range(50)]
        assert first != second

    def test_reset_restores_sequence(self):
        scheduler = RandomScheduler(4, seed=7)
        first = [scheduler.next_interaction(i) for i in range(20)]
        scheduler.reset()
        second = [scheduler.next_interaction(i) for i in range(20)]
        assert first == second

    def test_covers_all_ordered_pairs_eventually(self):
        scheduler = RandomScheduler(3, seed=3)
        seen = {scheduler.next_interaction(i).pair for i in range(500)}
        assert seen == {(s, r) for s in range(3) for r in range(3) if s != r}

    def test_roughly_uniform(self):
        scheduler = RandomScheduler(3, seed=11)
        counts = {}
        total = 6000
        for step in range(total):
            pair = scheduler.next_interaction(step).pair
            counts[pair] = counts.get(pair, 0) + 1
        expected = total / 6
        for pair, count in counts.items():
            assert abs(count - expected) < expected * 0.3, f"pair {pair} far from uniform"


class TestScriptedScheduler:
    def test_replays_run_in_order(self):
        run = Run.from_pairs([(0, 1), (1, 2), (2, 0)])
        scheduler = ScriptedScheduler(run)
        assert [scheduler.next_interaction(i).pair for i in range(3)] == [
            (0, 1), (1, 2), (2, 0)]

    def test_exhaustion(self):
        scheduler = ScriptedScheduler(Run.from_pairs([(0, 1)]))
        scheduler.next_interaction(0)
        with pytest.raises(SchedulerExhausted):
            scheduler.next_interaction(1)

    def test_continuation(self):
        scheduler = ScriptedScheduler(
            Run.from_pairs([(0, 1)]), continuation=RoundRobinScheduler(3)
        )
        assert scheduler.next_interaction(0).pair == (0, 1)
        assert scheduler.next_interaction(1).pair == (0, 1)  # round-robin's first pair
        assert scheduler.next_interaction(2).pair == (0, 2)

    def test_replays_omissions(self):
        run = Run([Interaction(0, 1, omission=REACTOR_OMISSION), Interaction(1, 0)])
        scheduler = ScriptedScheduler(run)
        assert [scheduler.next_interaction(i) for i in range(2)] == list(run)
        assert scheduler.next_interaction(0).omission is REACTOR_OMISSION

    def test_iteration_stops_at_exhaustion(self):
        scheduler = ScriptedScheduler(Run.from_pairs([(0, 1), (1, 0)]))
        assert len(list(scheduler)) == 2


class TestWeightedScheduler:
    def test_zero_weight_pairs_never_chosen(self):
        scheduler = WeightedPairScheduler(
            3, weights={(0, 1): 1.0, (1, 2): 0.0}, seed=0)
        pairs = {scheduler.next_interaction(i).pair for i in range(200)}
        assert pairs == {(0, 1)}

    def test_rejects_self_pairs(self):
        with pytest.raises(ValueError):
            WeightedPairScheduler(3, weights={(1, 1): 1.0})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedPairScheduler(3, weights={(0, 9): 1.0})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WeightedPairScheduler(3, weights={(0, 1): -1.0})

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            WeightedPairScheduler(3, weights={(0, 1): 0.0})

    def test_respects_relative_weights(self):
        scheduler = WeightedPairScheduler(
            3, weights={(0, 1): 3.0, (1, 2): 1.0}, seed=5)
        counts = {(0, 1): 0, (1, 2): 0}
        for step in range(4000):
            counts[scheduler.next_interaction(step).pair] += 1
        ratio = counts[(0, 1)] / counts[(1, 2)]
        assert 2.0 < ratio < 4.5

    def test_reset(self):
        scheduler = WeightedPairScheduler(3, weights={(0, 1): 1.0, (1, 2): 1.0}, seed=9)
        first = [scheduler.next_interaction(i).pair for i in range(30)]
        scheduler.reset()
        second = [scheduler.next_interaction(i).pair for i in range(30)]
        assert first == second


class TestRoundRobinScheduler:
    def test_cycles_through_all_pairs(self):
        scheduler = RoundRobinScheduler(3)
        pairs = [scheduler.next_interaction(i).pair for i in range(6)]
        assert pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_wraps_around(self):
        scheduler = RoundRobinScheduler(3)
        assert scheduler.next_interaction(6).pair == (0, 1)

    def test_requires_two_agents(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(1)

    @staticmethod
    def lexicographic(n, cycles):
        pairs = [(s, r) for s in range(n) for r in range(n) if s != r]
        return pairs * cycles

    @pytest.mark.parametrize("n", range(2, 8))
    def test_draws_are_the_lexicographic_cycle(self, n):
        scheduler = RoundRobinScheduler(n)
        draws = [scheduler.next_interaction(i).pair for i in range(3 * n * (n - 1))]
        assert draws == self.lexicographic(n, 3)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_array_kernel_draws_the_lexicographic_cycle(self, n):
        pytest.importorskip("numpy")
        from repro.scheduling.array_draws import compile_scheduler

        kernel = compile_scheduler(RoundRobinScheduler(n))
        total, step, draws = 3 * n * (n - 1), 0, []
        for k in (1, 5, 2, total):  # chunk boundaries must not matter
            starters, reactors = kernel.draw(step, min(k, total - step))
            draws.extend(zip(starters.tolist(), reactors.tolist()))
            step = len(draws)
        assert draws == self.lexicographic(n, 3)

    def test_construction_allocates_no_pair_table(self):
        tracemalloc.start()
        try:
            scheduler = RoundRobinScheduler(50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert scheduler.next_interaction(50_000 * 49_999 - 1).pair == (49_999, 49_998)
