"""Transition Time and Fastest Transition Time (Definitions 6 and 7).

For a simulator ``S``, a simulated protocol ``P`` and a two-agent initial
configuration ``C0``, the Transition Time of an execution is the first
instant at which *both* agents' simulated states have reached
``delta_P(pi_P(C0[0]), pi_P(C0[1]))``; the Fastest Transition Time (FTT) is
the minimum Transition Time over all omission-free runs.  FTT is the
"maximum speed" of a simulator and — this is the point of Lemma 1 — also the
number of omissions that suffices to fool it.

FTT is computed here by breadth-first search over two-agent configurations:
from each configuration the only two possible non-omissive interactions are
``(0, 1)`` and ``(1, 0)``, so the search is a binary-branching BFS whose
depth is the FTT.  The search also returns a witness run achieving it, which
is the run ``I`` that the Lemma 1 construction starts from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.interaction.models import InteractionModel
from repro.interaction.omissions import NO_OMISSION
from repro.protocols.state import Configuration, State
from repro.scheduling.runs import Interaction, Run


class FTTSearchError(Exception):
    """Raised when the FTT search cannot complete (e.g. depth limit reached)."""


@dataclass
class FTTResult:
    """Outcome of a Fastest Transition Time search."""

    ftt: int
    witness: Run
    initial_configuration: Configuration
    target: Tuple[State, State]
    explored_configurations: int

    def __str__(self) -> str:
        return f"FTT={self.ftt} (explored {self.explored_configurations} configurations)"


def _project_pair(simulator: Any, configuration: Configuration) -> Tuple[State, State]:
    project = getattr(simulator, "project", None)
    if project is None:
        return configuration[0], configuration[1]
    return project(configuration[0]), project(configuration[1])


def transition_time(
    simulator: Any,
    model: InteractionModel,
    initial_configuration: Configuration,
    run: Run,
) -> Optional[int]:
    """The Transition Time of a specific two-agent run (``None`` if it never transitions).

    ``simulator`` must expose ``project`` and ``protocol`` (all simulators
    of :mod:`repro.core` do); the run is executed verbatim, omissive
    interactions included.
    """
    if len(initial_configuration) != 2:
        raise ValueError("transition time is defined for two-agent systems")
    protocol = simulator.protocol
    q0, q1 = _project_pair(simulator, initial_configuration)
    target = protocol.delta(q0, q1)

    configuration = initial_configuration
    if _project_pair(simulator, configuration) == target:
        return 0
    step = model.bind(simulator)
    for index, interaction in enumerate(run):
        starter_pre = configuration[interaction.starter]
        reactor_pre = configuration[interaction.reactor]
        starter_post, reactor_post = step(starter_pre, reactor_pre, interaction.omission)
        configuration = configuration.apply_interaction(
            interaction.starter, interaction.reactor, starter_post, reactor_post
        )
        if _project_pair(simulator, configuration) == target:
            return index + 1
    return None


def fastest_transition_time(
    simulator: Any,
    model: InteractionModel,
    initial_configuration: Configuration,
    max_depth: int = 64,
) -> FTTResult:
    """Compute the FTT of ``(S, P, C0)`` by BFS over omission-free two-agent runs.

    Raises :class:`FTTSearchError` when no omission-free run of length at
    most ``max_depth`` completes a simulated interaction — for a correct
    simulator this only happens when ``max_depth`` is set too low (or when
    the simulated pair of states is silent, in which case the FTT is 0 and
    is returned immediately).
    """
    if len(initial_configuration) != 2:
        raise ValueError("FTT is defined for two-agent systems")
    protocol = simulator.protocol
    q0, q1 = _project_pair(simulator, initial_configuration)
    target = protocol.delta(q0, q1)

    if _project_pair(simulator, initial_configuration) == target:
        return FTTResult(
            ftt=0,
            witness=Run(),
            initial_configuration=initial_configuration,
            target=target,
            explored_configurations=1,
        )

    moves = (Interaction(0, 1, NO_OMISSION), Interaction(1, 0, NO_OMISSION))
    step = model.bind(simulator)
    queue = deque([(initial_configuration, ())])
    visited = {initial_configuration}
    explored = 1

    while queue:
        configuration, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for interaction in moves:
            starter_pre = configuration[interaction.starter]
            reactor_pre = configuration[interaction.reactor]
            starter_post, reactor_post = step(starter_pre, reactor_pre, interaction.omission)
            successor = configuration.apply_interaction(
                interaction.starter, interaction.reactor, starter_post, reactor_post
            )
            if successor in visited:
                continue
            visited.add(successor)
            explored += 1
            new_path = path + (interaction,)
            if _project_pair(simulator, successor) == target:
                return FTTResult(
                    ftt=len(new_path),
                    witness=Run(new_path),
                    initial_configuration=initial_configuration,
                    target=target,
                    explored_configurations=explored,
                )
            queue.append((successor, new_path))

    raise FTTSearchError(
        f"no omission-free run of length <= {max_depth} completes a simulated "
        f"two-way interaction from projections ({q0!r}, {q1!r})"
    )
