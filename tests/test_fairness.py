"""Unit tests for the fairness / coverage diagnostics."""

from repro.interaction.omissions import REACTOR_OMISSION
from repro.scheduling.fairness import fairness_report, interaction_counts, pair_coverage
from repro.scheduling.runs import Interaction, Run
from repro.scheduling.scheduler import RandomScheduler, RoundRobinScheduler


class TestInteractionCounts:
    def test_counts_ordered_pairs(self):
        run = Run.from_pairs([(0, 1), (0, 1), (1, 0)])
        counts = interaction_counts(run)
        assert counts[(0, 1)] == 2
        assert counts[(1, 0)] == 1


class TestPairCoverage:
    def test_full_coverage(self):
        run = Run.from_pairs([(s, r) for s in range(3) for r in range(3) if s != r])
        assert pair_coverage(run, 3) == 1.0

    def test_partial_coverage(self):
        run = Run.from_pairs([(0, 1)])
        assert pair_coverage(run, 3) == 1 / 6

    def test_single_agent(self):
        assert pair_coverage(Run(), 1) == 1.0


class TestFairnessReport:
    def test_round_robin_prefix_is_fully_covered(self):
        scheduler = RoundRobinScheduler(4)
        run = Run(scheduler.next_interaction(i) for i in range(12))
        report = fairness_report(run, 4)
        assert report.full_pair_coverage
        assert report.no_agent_starved
        assert report.min_pair_count == 1
        assert report.max_pair_count == 1

    def test_random_scheduler_long_run_covers_everything(self):
        scheduler = RandomScheduler(4, seed=0)
        run = Run(scheduler.next_interaction(i) for i in range(600))
        report = fairness_report(run, 4)
        assert report.full_pair_coverage
        assert report.no_agent_starved

    def test_starved_agent_detected(self):
        run = Run.from_pairs([(0, 1), (1, 0)])
        report = fairness_report(run, 3)
        assert not report.no_agent_starved
        assert not report.full_pair_coverage

    def test_omissions_counted(self):
        run = Run([Interaction(0, 1, omission=REACTOR_OMISSION), Interaction(1, 0)])
        report = fairness_report(run, 2)
        assert report.omissions == 1

    def test_summary_is_a_string(self):
        report = fairness_report(Run.from_pairs([(0, 1)]), 2)
        assert "pairs=" in report.summary()

    def test_empty_run(self):
        report = fairness_report(Run(), 3)
        assert report.steps == 0
        assert report.ordered_pairs_covered == 0
        assert not report.no_agent_starved
