"""Exhaustive reachability analysis for small populations.

Stabilisation results about population protocols are statements over *all*
globally fair executions, so sampling random schedules — however many — can
only ever falsify them.  For small populations the reachable configuration
space is small enough to enumerate exhaustively, which turns three useful
checks into decision procedures:

* :func:`explore` — breadth-first enumeration of every configuration
  reachable from an initial one under a model (optionally with a budget of
  omissive interactions, matching the "at most ``o`` omissions" assumption);
* :func:`check_invariant` — does a safety invariant hold in *every* reachable
  configuration, under *every* schedule and omission placement?
* :func:`check_stabilisation` — global-fairness stabilisation: is a target
  set of configurations reachable from every reachable configuration, and
  closed once entered?  Under global fairness this implies the execution
  eventually stays in the target set, which is exactly how "the protocol
  stably computes X" is established.

These checks complement the statistical experiments: benchmarks use random
schedules at realistic sizes, tests use exhaustive exploration at small sizes
where it constitutes a proof.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.interaction.models import InteractionModel
from repro.interaction.omissions import NO_OMISSION, Omission
from repro.protocols.state import Configuration


class ReachabilityLimitError(Exception):
    """Raised when the exploration exceeds its configuration budget."""


@dataclass
class ReachabilityResult:
    """Outcome of an exhaustive exploration."""

    initial: Configuration
    configurations: Set[Configuration]
    transitions: int
    omission_budget: int
    truncated: bool

    @property
    def configuration_count(self) -> int:
        return len(self.configurations)


def _successors(
    program: Any,
    model: InteractionModel,
    configuration: Configuration,
    allow_omission: bool,
) -> Iterator[Tuple[Configuration, bool]]:
    """All configurations reachable in one interaction, tagged with omission use."""
    n = len(configuration)
    omissions = model.admissible_omissions() if allow_omission else [NO_OMISSION]
    step = model.bind(program)
    for starter in range(n):
        for reactor in range(n):
            if starter == reactor:
                continue
            starter_pre = configuration[starter]
            reactor_pre = configuration[reactor]
            for omission in omissions:
                starter_post, reactor_post = step(starter_pre, reactor_pre, omission)
                successor = configuration.apply_interaction(
                    starter, reactor, starter_post, reactor_post)
                yield successor, omission.is_omissive


def explore(
    program: Any,
    model: InteractionModel,
    initial_configuration: Configuration,
    omission_budget: int = 0,
    max_configurations: int = 200_000,
    on_error: str = "raise",
) -> ReachabilityResult:
    """Enumerate every configuration reachable under the model.

    ``omission_budget`` bounds the total number of omissive interactions along
    any path (0 disables them entirely); the search state is therefore a
    (configuration, omissions-used) pair, and a configuration counts as
    reachable if it is reachable with *any* admissible number of omissions.

    ``on_error`` is ``"raise"`` (default) or ``"truncate"``; the latter stops
    the search at ``max_configurations`` and marks the result as truncated.
    """
    if omission_budget > 0 and not model.allows_omissions:
        raise ValueError(f"model {model.name} does not admit omissive interactions")

    # Track, per configuration, the minimum number of omissions used to reach
    # it: revisiting with fewer omissions may unlock further omissive branches.
    best_omissions: Dict[Configuration, int] = {initial_configuration: 0}
    queue = deque([(initial_configuration, 0)])
    transitions = 0
    truncated = False

    while queue:
        configuration, used = queue.popleft()
        allow_omission = used < omission_budget
        for successor, was_omissive in _successors(program, model, configuration, allow_omission):
            transitions += 1
            new_used = used + (1 if was_omissive else 0)
            previous = best_omissions.get(successor)
            if previous is not None and previous <= new_used:
                continue
            if previous is None and len(best_omissions) >= max_configurations:
                if on_error == "raise":
                    raise ReachabilityLimitError(
                        f"more than {max_configurations} reachable configurations")
                truncated = True
                continue
            best_omissions[successor] = new_used
            queue.append((successor, new_used))

    return ReachabilityResult(
        initial=initial_configuration,
        configurations=set(best_omissions),
        transitions=transitions,
        omission_budget=omission_budget,
        truncated=truncated,
    )


@dataclass
class InvariantReport:
    """Outcome of an exhaustive invariant check."""

    holds: bool
    configurations_checked: int
    counterexamples: List[Configuration] = field(default_factory=list)
    truncated: bool = False


def check_invariant(
    program: Any,
    model: InteractionModel,
    initial_configuration: Configuration,
    invariant: Callable[[Configuration], bool],
    omission_budget: int = 0,
    max_configurations: int = 200_000,
    projection: Optional[Callable] = None,
    max_counterexamples: int = 5,
) -> InvariantReport:
    """Check that ``invariant`` holds in every reachable configuration.

    ``projection`` (e.g. a simulator's ``project``) is applied to each
    configuration before evaluating the invariant, so the same predicate can
    be used for plain protocols and for simulated ones.
    """
    result = explore(
        program, model, initial_configuration,
        omission_budget=omission_budget,
        max_configurations=max_configurations,
        on_error="truncate",
    )
    counterexamples = []
    for configuration in result.configurations:
        view = configuration.project(projection) if projection else configuration
        if not invariant(view):
            counterexamples.append(configuration)
            if len(counterexamples) >= max_counterexamples:
                break
    return InvariantReport(
        holds=not counterexamples,
        configurations_checked=result.configuration_count,
        counterexamples=counterexamples,
        truncated=result.truncated,
    )


@dataclass
class StabilisationReport:
    """Outcome of an exhaustive stabilisation check under global fairness."""

    stabilises: bool
    configurations_checked: int
    unreachable_from: List[Configuration] = field(default_factory=list)
    escapes_from: List[Configuration] = field(default_factory=list)
    truncated: bool = False

    @property
    def target_always_reachable(self) -> bool:
        return not self.unreachable_from

    @property
    def target_closed(self) -> bool:
        return not self.escapes_from


def check_stabilisation(
    program: Any,
    model: InteractionModel,
    initial_configuration: Configuration,
    target: Callable[[Configuration], bool],
    max_configurations: int = 200_000,
    projection: Optional[Callable] = None,
    max_counterexamples: int = 5,
) -> StabilisationReport:
    """Check stabilisation to ``target`` under global fairness (no omissions).

    The check establishes the two facts that, combined with global fairness,
    imply every fair execution eventually remains in the target set:

    1. from every reachable configuration, some target configuration is
       reachable (the target set is "always reachable");
    2. every successor of a target configuration is again a target
       configuration (the target set is closed).
    """
    result = explore(
        program, model, initial_configuration,
        omission_budget=0,
        max_configurations=max_configurations,
        on_error="truncate",
    )

    def satisfies(configuration: Configuration) -> bool:
        view = configuration.project(projection) if projection else configuration
        return bool(target(view))

    reachable = result.configurations
    # Backward closure: the set of configurations from which a target
    # configuration is reachable, computed by reverse BFS over the successor
    # relation restricted to the reachable set.
    successors_of: Dict[Configuration, Set[Configuration]] = {c: set() for c in reachable}
    predecessors_of: Dict[Configuration, Set[Configuration]] = {c: set() for c in reachable}
    for configuration in reachable:
        for successor, _ in _successors(program, model, configuration, allow_omission=False):
            if successor in successors_of:
                successors_of[configuration].add(successor)
                predecessors_of[successor].add(configuration)

    target_configs = {c for c in reachable if satisfies(c)}
    can_reach_target: Set[Configuration] = set(target_configs)
    frontier = deque(target_configs)
    while frontier:
        configuration = frontier.popleft()
        for predecessor in predecessors_of[configuration]:
            if predecessor not in can_reach_target:
                can_reach_target.add(predecessor)
                frontier.append(predecessor)

    unreachable_from = [c for c in reachable if c not in can_reach_target]
    escapes_from = [
        c for c in target_configs
        if any(successor not in target_configs for successor in successors_of[c])
    ]

    return StabilisationReport(
        stabilises=not unreachable_from and not escapes_from and bool(target_configs),
        configurations_checked=len(reachable),
        unreachable_from=unreachable_from[:max_counterexamples],
        escapes_from=escapes_from[:max_counterexamples],
        truncated=result.truncated,
    )
