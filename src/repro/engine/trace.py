"""Execution traces.

A :class:`Trace` records an execution ``Gamma_I(C0)`` of a program under an
interaction model: the initial configuration plus, for every executed
interaction, the pre- and post-states of the two participants.  Storing
per-step deltas (rather than full configurations) keeps memory linear in the
number of steps and independent of the population size, while still allowing
full configurations to be reconstructed on demand.

The step loops record into a :class:`StepLog`: one flat row of plain
fields per step, so a traced run allocates no per-step object for the
garbage collector to walk.  :class:`TraceStep` objects are built by
:meth:`StepLog.decode` only when a trace or a ring window is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.interaction.omissions import Omission
from repro.protocols.state import Configuration, State, StateInterner
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


#: Fields of one :class:`StepLog` row: starter, reactor, omission, starter
#: pre, reactor pre, starter post, reactor post.
ROW_FIELDS = 7


class StepLog:
    """Executed steps as flat rows, decoded into :class:`TraceStep` objects on read.

    The step loops of both backends append each executed step to ``rows``
    as one row of :data:`ROW_FIELDS` fields and build no objects.  Without a
    ``window`` the log keeps every step (the ``full`` policy); with one it
    is a ring (the ``ring`` policy): the loops call :meth:`trim` once per
    chunk, and ``start`` is the global index of the first kept step.

    The python backend logs states and omissions as they are.
    The array backend logs codes and passes its ``interner`` and its
    kind-row ``omissions`` to turn them back.
    """

    __slots__ = ("rows", "window", "start", "interner", "omissions")

    def __init__(self, window: Optional[int] = None,
                 interner: Optional[StateInterner] = None,
                 omissions: Optional[Sequence[Omission]] = None) -> None:
        if window is not None and window < 1:
            raise ValueError("ring_size must be at least 1")
        self.rows: List[Any] = []
        self.window = window
        self.start = 0
        self.interner = interner
        self.omissions = omissions

    def __len__(self) -> int:
        return len(self.rows) // ROW_FIELDS

    def __eq__(self, other: object) -> bool:
        """Logs are equal when they decode to the same steps."""
        if not isinstance(other, StepLog):
            return NotImplemented
        return self.decode() == other.decode()

    def trim(self) -> None:
        """Drop all but the last ``window`` steps (no-op without a window)."""
        if self.window is None:
            return
        excess = len(self.rows) // ROW_FIELDS - self.window
        if excess > 0:
            del self.rows[:excess * ROW_FIELDS]
            self.start += excess

    def extend_columns(self, columns: Sequence[Any]) -> None:
        """Log steps given as :data:`ROW_FIELDS` equal-length int64 arrays,
        one per field.  Under a window only the last ``window`` steps are
        read."""
        length = len(columns[0])
        skip = 0
        if self.window is not None and length > self.window:
            skip = length - self.window
            self.start += skip
        rows = self.rows
        for row in zip(*[column[skip:].tolist() for column in columns]):
            rows.extend(row)

    def decode(self) -> Tuple[TraceStep, ...]:
        """The logged steps as :class:`TraceStep` objects, oldest first."""
        rows = self.rows
        columns = [rows[field::ROW_FIELDS] for field in range(ROW_FIELDS)]
        if self.interner is not None:
            states = self.interner.states
            for field in range(3, ROW_FIELDS):
                columns[field] = [states[code] for code in columns[field]]
        if self.omissions is not None:
            omissions = self.omissions
            columns[2] = [omissions[kind] for kind in columns[2]]
        return tuple(
            TraceStep(index, Interaction(starter, reactor, omission),
                      starter_pre, starter_post, reactor_pre, reactor_post)
            for index, starter, reactor, omission, starter_pre, reactor_pre,
            starter_post, reactor_post in zip(count(self.start), *columns))


class Trace:
    """The execution of a program: initial configuration plus per-step deltas.

    The engine builds a trace over the run's :class:`StepLog` and its final
    configuration; the steps are decoded the first time they are read.
    """

    def __init__(self, initial: Configuration, log: Optional[StepLog] = None,
                 final: Optional[Configuration] = None) -> None:
        self._initial = initial
        self._log = log
        self._decoded: List[TraceStep] = []
        self._current = initial if final is None else final

    @property
    def _steps(self) -> List[TraceStep]:
        """The decoded steps; the log is decoded (and dropped) on first use."""
        if self._log is not None:
            self._decoded = list(self._log.decode())
            self._log = None
        return self._decoded

    # -- construction, one step at a time (engine runs log rows instead) --------------

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
        return len(self._decoded) if self._log is None else len(self._log)

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
