"""Interactions and runs (Section 2.1).

An interaction is an ordered pair ``(starter, reactor)`` of distinct agent
indices, optionally carrying an omission specification (Section 2.3).  A run
is a (conceptually infinite, here finite-prefix) sequence of interactions.
Runs are the common currency between schedulers, adversaries (which rewrite
runs by inserting omissive interactions) and the engine (which executes
them).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.interaction.omissions import NO_OMISSION, Omission


@dataclass(frozen=True)
class Interaction:
    """One ordered interaction ``(starter, reactor)`` with its omission status."""

    starter: int
    reactor: int
    omission: Omission = NO_OMISSION

    def __post_init__(self) -> None:
        if self.starter < 0 or self.reactor < 0:
            raise ValueError("agent indices must be non-negative")
        if self.starter == self.reactor:
            raise ValueError("an agent cannot interact with itself")

    @property
    def is_omissive(self) -> bool:
        """Whether this interaction carries an omission."""
        return self.omission.is_omissive

    @property
    def pair(self) -> Tuple[int, int]:
        """The ordered (starter, reactor) pair."""
        return self.starter, self.reactor

    def involves(self, agent: int) -> bool:
        """Whether ``agent`` participates in this interaction."""
        return agent in (self.starter, self.reactor)

    def relabel(self, mapping: dict) -> "Interaction":
        """A copy with agent indices remapped through ``mapping`` (identity if absent)."""
        return Interaction(
            starter=mapping.get(self.starter, self.starter),
            reactor=mapping.get(self.reactor, self.reactor),
            omission=self.omission,
        )

    def __str__(self) -> str:
        suffix = f" [{self.omission}]" if self.is_omissive else ""
        return f"({self.starter} -> {self.reactor}){suffix}"


def interactions_from_columns(
    starters: Sequence[int], reactors: Sequence[int],
    omissions: Optional[Iterable[Omission]] = None,
) -> List[Interaction]:
    """The :class:`Interaction` objects of a batch of index columns.

    ``omissions`` ``None`` means every interaction is ``NO_OMISSION``
    (the column form schedulers draw in, see
    :meth:`repro.scheduling.scheduler.Scheduler.next_columns`).
    """
    if omissions is None:
        omissions = repeat(NO_OMISSION)
    return [Interaction(starter, reactor, omission)
            for starter, reactor, omission in zip(starters, reactors, omissions)]


class Run:
    """A finite prefix of a run: a sequence of interactions.

    Runs are immutable; all "editing" operations return new runs.  The
    adversaries of :mod:`repro.adversary` are functions from runs to runs
    (Definitions 1 and 2), and the scripted constructions of Lemma 1 /
    Theorem 3.2 are built directly as :class:`Run` values.
    """

    __slots__ = ("_interactions",)

    def __init__(self, interactions: Iterable[Interaction] = ()) -> None:
        self._interactions: Tuple[Interaction, ...] = tuple(interactions)

    # -- container protocol --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._interactions)

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self._interactions)

    def __getitem__(self, index) -> "Run | Interaction":
        if isinstance(index, slice):
            return Run(self._interactions[index])
        return self._interactions[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Run):
            return self._interactions == other._interactions
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._interactions)

    def __repr__(self) -> str:
        return f"Run(len={len(self)}, omissions={self.omission_count()})"

    # -- derived data ---------------------------------------------------------------------

    @property
    def interactions(self) -> Tuple[Interaction, ...]:
        """The underlying tuple of interactions."""
        return self._interactions

    def omission_count(self) -> int:
        """``O(I)``: the number of omissive interactions in the run."""
        return sum(1 for interaction in self._interactions if interaction.is_omissive)

    def agents(self) -> Tuple[int, ...]:
        """Sorted tuple of agent indices appearing in the run."""
        seen = set()
        for interaction in self._interactions:
            seen.add(interaction.starter)
            seen.add(interaction.reactor)
        return tuple(sorted(seen))

    # -- editing ---------------------------------------------------------------------------

    def append(self, interaction: Interaction) -> "Run":
        """A new run with ``interaction`` appended."""
        return Run(self._interactions + (interaction,))

    def extend(self, interactions: Iterable[Interaction]) -> "Run":
        """A new run with ``interactions`` appended."""
        return Run(self._interactions + tuple(interactions))

    def concatenate(self, other: "Run") -> "Run":
        """The concatenation of two runs."""
        return Run(self._interactions + other._interactions)

    def insert(self, index: int, interactions: Iterable[Interaction]) -> "Run":
        """A new run with ``interactions`` inserted before position ``index``."""
        prefix = self._interactions[:index]
        suffix = self._interactions[index:]
        return Run(prefix + tuple(interactions) + suffix)

    def relabel(self, mapping: dict) -> "Run":
        """A new run with every interaction's agent indices remapped."""
        return Run(interaction.relabel(mapping) for interaction in self._interactions)

    # -- constructors -----------------------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, int]]) -> "Run":
        """Build a run from plain ``(starter, reactor)`` pairs (no omissions)."""
        return cls(Interaction(s, r) for s, r in pairs)
