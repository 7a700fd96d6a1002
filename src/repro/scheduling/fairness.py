"""Fairness diagnostics for finite execution prefixes.

Global fairness (Section 2.1) is a property of *infinite* executions, so it
cannot be checked on the finite prefixes an experiment actually runs.  What
can be measured — and what this module measures — are the statistics that
make a finite prefix "look like" the prefix of a globally fair run:

* every ordered pair of agents interacts (pair coverage);
* interaction counts per ordered pair are reasonably balanced;
* no agent is starved.

These diagnostics are used by the engine's experiment reports and by tests
that want to assert a scheduler behaves fairly enough for stabilisation
results to be meaningful.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.scheduling.runs import Interaction, Run


@dataclass
class CoverageReport:
    """Summary statistics of how evenly a run covered the population."""

    n: int
    steps: int
    ordered_pairs_covered: int
    ordered_pairs_total: int
    min_pair_count: int
    max_pair_count: int
    min_agent_count: int
    max_agent_count: int
    omissions: int

    @property
    def full_pair_coverage(self) -> bool:
        """Whether every ordered pair of distinct agents interacted at least once."""
        return self.ordered_pairs_covered == self.ordered_pairs_total

    @property
    def no_agent_starved(self) -> bool:
        """Whether every agent participated in at least one interaction."""
        return self.min_agent_count > 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"n={self.n} steps={self.steps} "
            f"pairs={self.ordered_pairs_covered}/{self.ordered_pairs_total} "
            f"pair-count=[{self.min_pair_count},{self.max_pair_count}] "
            f"agent-count=[{self.min_agent_count},{self.max_agent_count}] "
            f"omissions={self.omissions}"
        )


def interaction_counts(run: Iterable[Interaction]) -> Counter:
    """Count of each ordered (starter, reactor) pair in the run."""
    return Counter(interaction.pair for interaction in run)


def pair_coverage(run: Iterable[Interaction], n: int) -> float:
    """Fraction of the ``n*(n-1)`` ordered pairs that appear in the run."""
    if n < 2:
        return 1.0
    covered = {interaction.pair for interaction in run}
    return len(covered) / (n * (n - 1))


def fairness_report(run: Run, n: int) -> CoverageReport:
    """Compute coverage diagnostics for a finite run over ``n`` agents."""
    counts = interaction_counts(run)
    agent_counts = Counter()
    omissions = 0
    for interaction in run:
        agent_counts[interaction.starter] += 1
        agent_counts[interaction.reactor] += 1
        if interaction.is_omissive:
            omissions += 1
    total_pairs = n * (n - 1) if n >= 2 else 0
    pair_values = [counts.get((s, r), 0) for s in range(n) for r in range(n) if s != r]
    agent_values = [agent_counts.get(a, 0) for a in range(n)]
    return CoverageReport(
        n=n,
        steps=len(run),
        ordered_pairs_covered=sum(1 for v in pair_values if v > 0),
        ordered_pairs_total=total_pairs,
        min_pair_count=min(pair_values) if pair_values else 0,
        max_pair_count=max(pair_values) if pair_values else 0,
        min_agent_count=min(agent_values) if agent_values else 0,
        max_agent_count=max(agent_values) if agent_values else 0,
        omissions=omissions,
    )
