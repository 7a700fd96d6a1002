"""Execution traces.

A :class:`Trace` records an execution ``Gamma_I(C0)`` of a program under an
interaction model: the initial configuration plus, for every executed
interaction, the pre- and post-states of the two participants.  Storing
per-step deltas (rather than full configurations) keeps memory linear in the
number of steps and independent of the population size, while still allowing
full configurations to be reconstructed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from repro.protocols.state import Configuration, State
from repro.scheduling.runs import Interaction, Run


@dataclass(frozen=True)
class TraceStep:
    """One executed interaction and the state changes it caused."""

    index: int
    interaction: Interaction
    starter_pre: State
    starter_post: State
    reactor_pre: State
    reactor_post: State

    @property
    def changed_agents(self) -> tuple:
        """Indices of the agents whose state actually changed at this step."""
        changed = []
        if self.starter_pre != self.starter_post:
            changed.append(self.interaction.starter)
        if self.reactor_pre != self.reactor_post:
            changed.append(self.interaction.reactor)
        return tuple(changed)

    @property
    def is_silent(self) -> bool:
        """Whether the interaction left both agents unchanged."""
        return not self.changed_agents


class Trace:
    """The execution of a program: initial configuration plus per-step deltas."""

    def __init__(self, initial: Configuration) -> None:
        self._initial = initial
        self._steps: List[TraceStep] = []
        self._current = initial

    @classmethod
    def from_steps(
        cls,
        initial: Configuration,
        steps: Sequence[TraceStep],
        final: Configuration,
    ) -> "Trace":
        """Build a trace from already-recorded steps without replaying them.

        This is the freeze boundary of the fast-path execution core
        (:mod:`repro.engine.fastpath`): the core records
        :class:`TraceStep` deltas while mutating an array-backed buffer in
        place, then hands the step list and the frozen final configuration
        over in one O(T) call instead of paying an O(n) configuration copy
        per recorded step.  ``final`` must be the configuration reached by
        applying ``steps`` to ``initial`` in order.
        """
        trace = cls(initial)
        trace._steps = list(steps)
        trace._current = final
        return trace

    # -- construction (used by the engine) ----------------------------------------------

    def record(
        self,
        interaction: Interaction,
        starter_post: State,
        reactor_post: State,
    ) -> TraceStep:
        """Record one executed interaction; returns the recorded step."""
        starter_pre = self._current[interaction.starter]
        reactor_pre = self._current[interaction.reactor]
        step = TraceStep(
            index=len(self._steps),
            interaction=interaction,
            starter_pre=starter_pre,
            starter_post=starter_post,
            reactor_pre=reactor_pre,
            reactor_post=reactor_post,
        )
        self._steps.append(step)
        self._current = self._current.apply_interaction(
            interaction.starter, interaction.reactor, starter_post, reactor_post
        )
        return step

    # -- basic accessors -------------------------------------------------------------------

    @property
    def initial_configuration(self) -> Configuration:
        """The configuration ``C0`` the execution started from."""
        return self._initial

    @property
    def final_configuration(self) -> Configuration:
        """The configuration after the last recorded step."""
        return self._current

    @property
    def steps(self) -> Sequence[TraceStep]:
        """All recorded steps, in execution order."""
        return tuple(self._steps)

    @property
    def n(self) -> int:
        """Population size."""
        return len(self._initial)

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self._steps)

    def __getitem__(self, index: int) -> TraceStep:
        return self._steps[index]

    # -- derived data ------------------------------------------------------------------------

    def run(self) -> Run:
        """The run (sequence of interactions) that produced this trace."""
        return Run(step.interaction for step in self._steps)

    def omission_count(self) -> int:
        """``O(I)``: number of omissive interactions executed."""
        return sum(1 for step in self._steps if step.interaction.is_omissive)

    def configurations(self) -> Iterator[Configuration]:
        """Yield the configuration sequence ``C0, C1, ..., C_T`` (T+1 items)."""
        config = self._initial
        yield config
        for step in self._steps:
            config = config.apply_interaction(
                step.interaction.starter,
                step.interaction.reactor,
                step.starter_post,
                step.reactor_post,
            )
            yield config

    def configuration_at(self, index: int) -> Configuration:
        """The configuration reached after ``index`` steps (``index = 0`` is ``C0``)."""
        if index < 0 or index > len(self._steps):
            raise IndexError(f"configuration index {index} out of range")
        config = self._initial
        for step in self._steps[:index]:
            config = config.apply_interaction(
                step.interaction.starter,
                step.interaction.reactor,
                step.starter_post,
                step.reactor_post,
            )
        return config

    def projected_configurations(
        self, projection: Callable[[State], State]
    ) -> Iterator[Configuration]:
        """Yield ``pi(C0), pi(C1), ...`` for a state projection ``pi`` (e.g. ``pi_P``)."""
        for config in self.configurations():
            yield config.project(projection)

    def final_projected(self, projection: Callable[[State], State]) -> Configuration:
        """The projection of the final configuration."""
        return self._current.project(projection)

    def steps_involving(self, agent: int) -> List[TraceStep]:
        """All steps in which ``agent`` participated."""
        return [step for step in self._steps if step.interaction.involves(agent)]

    def __repr__(self) -> str:
        return (
            f"Trace(n={self.n}, steps={len(self._steps)}, "
            f"omissions={self.omission_count()})"
        )
