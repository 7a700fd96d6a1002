"""Configurations of population-protocol systems.

A configuration ``C`` of a system ``(P, n)`` is the n-tuple of the local
states of the agents (Section 2.1).  Agents are anonymous, so most of the
semantics of a protocol only depends on the *multiset* of states; the
:class:`Configuration` class therefore exposes both the indexed view (needed
to apply interactions, which are ordered pairs of agent indices) and the
multiset view (needed for closed-set / fairness reasoning and for comparing
configurations up to agent permutation).  An input made of a few constant
blocks, as every catalog input is, is held run-length
(:meth:`Configuration.from_runs`) until an indexed view is asked for.

Configurations are immutable and hashable so that they can be used as keys
in reachability searches (e.g. the FTT breadth-first search of
``repro.adversary.ftt``) and deduplicated inside execution traces.

For the columnar array engine (:mod:`repro.engine.backends.array_backend`)
this module additionally provides the dense state encoding,
:class:`StateInterner`: a bijection between a finite state set and the
codes ``0 .. k-1``, fixed in a deterministic order so the same protocol
compiles to the same encoding in every process.  It is plain Python, which
keeps ``import repro`` working on installs without the ``repro[fast]``
extra.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

State = Hashable


class Configuration:
    """An immutable n-tuple of agent states, held in one of two forms.

    ``Configuration(states)`` holds the per-agent tuple.
    :meth:`from_runs` holds the run-length form ``((state, count), ...)``
    in agent order, so a configuration of a few constant blocks (every
    catalog input) costs O(runs) memory instead of O(n).  ``len``,
    :meth:`count`, :meth:`count_if`, :meth:`histogram` and
    :meth:`multiset` are answered from the runs; the per-agent tuple is
    built, once, and kept only when :attr:`states`, iteration, indexing,
    ``repr``, ``hash``, ``==`` (other than between equal runs) or a
    per-agent update needs it.

    The two forms are one value: they compare, hash, ``repr`` and pickle
    round-trip exactly as the per-agent tuple of the same states does.

    Parameters
    ----------
    states:
        The local state of each agent, indexed by agent identifier
        ``0 .. n-1``.
    """

    __slots__ = ("_states", "_runs", "_len", "_hash", "_multiset")

    def __init__(self, states: Iterable[State]) -> None:
        self._states: Optional[Tuple[State, ...]] = tuple(states)
        self._runs: Optional[Tuple[Tuple[State, int], ...]] = None
        self._len = len(self._states)
        self._hash: Optional[int] = None
        self._multiset: Optional[Counter] = None

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[State, int]]) -> "Configuration":
        """The configuration of ``count`` agents in ``state`` per run, in order.

        Empty runs are dropped; a negative count raises ``ValueError``.
        """
        kept = []
        for state, count in runs:
            if count < 0:
                raise ValueError(f"negative multiplicity for state {state!r}")
            if count:
                kept.append((state, count))
        configuration = cls.__new__(cls)
        configuration._states = None
        configuration._runs = tuple(kept)
        configuration._len = sum(count for _, count in kept)
        configuration._hash = None
        configuration._multiset = None
        return configuration

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __getitem__(self, index: int) -> State:
        return self.states[index]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Configuration):
            if self._runs is not None and self._runs == other._runs:
                return True
            return self._len == other._len and self.states == other.states
        if isinstance(other, tuple):
            return self._len == len(other) and self.states == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.states)
        return self._hash

    def __repr__(self) -> str:
        return f"Configuration({list(self)!r})"

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        if self._runs is not None:
            return type(self).from_runs, (self._runs,)
        return type(self), (self._states,)

    # -- views ---------------------------------------------------------------------

    @property
    def states(self) -> Tuple[State, ...]:
        """The per-agent tuple of states (built once from the runs)."""
        if self._states is None:
            self._states = tuple(chain.from_iterable(
                repeat(state, count) for state, count in self._runs))
        return self._states

    def runs(self) -> Optional[Tuple[Tuple[State, int], ...]]:
        """The ``((state, count), ...)`` runs in agent order of the run
        form, or ``None`` for a configuration held per agent."""
        return self._runs

    def _cached_multiset(self) -> Counter:
        """The lazily built state Counter; callers must not mutate it."""
        if self._multiset is None:
            if self._runs is None:
                self._multiset = Counter(self._states)
            else:
                self._multiset = Counter()
                for state, count in self._runs:
                    self._multiset[state] += count
        return self._multiset

    def multiset(self) -> Counter:
        """The multiset of states (anonymous view of the configuration).

        The Counter is built once per configuration and cached (configurations
        are immutable); each call returns a fresh copy, so mutating the result
        cannot corrupt the cache.
        """
        return Counter(self._cached_multiset())

    def count(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        return self._cached_multiset()[state]

    def count_if(self, predicate: Callable[[State], bool]) -> int:
        """Number of agents whose state satisfies ``predicate``."""
        if self._runs is not None:
            return sum(count for state, count in self._runs if predicate(state))
        return sum(1 for s in self._states if predicate(s))

    def histogram(self) -> Dict[State, int]:
        """A plain ``dict`` mapping each present state to its multiplicity."""
        return dict(self._cached_multiset())

    # -- functional updates ----------------------------------------------------------

    def replace(self, index: int, new_state: State) -> "Configuration":
        """Return a new configuration with agent ``index`` set to ``new_state``."""
        if not 0 <= index < self._len:
            raise IndexError(f"agent index {index} out of range for n={len(self)}")
        states = list(self)
        states[index] = new_state
        return Configuration(states)

    def replace_many(self, updates: Dict[int, State]) -> "Configuration":
        """Return a new configuration applying several indexed updates at once."""
        states = list(self)
        for index, new_state in updates.items():
            if not 0 <= index < len(states):
                raise IndexError(f"agent index {index} out of range for n={len(self)}")
            states[index] = new_state
        return Configuration(states)

    def apply_interaction(
        self, starter: int, reactor: int, new_starter: State, new_reactor: State
    ) -> "Configuration":
        """Apply the outcome of an interaction ``(starter, reactor)``."""
        if starter == reactor:
            raise ValueError("an agent cannot interact with itself")
        return self.replace_many({starter: new_starter, reactor: new_reactor})

    def project(self, projection: Callable[[State], State]) -> "Configuration":
        """Apply ``projection`` to every agent state (e.g. ``pi_P`` of Section 2.4)."""
        return Configuration(projection(s) for s in self)

    def same_multiset(self, other: "Configuration") -> bool:
        """``True`` when the two configurations are equal up to agent permutation."""
        return self._cached_multiset() == other._cached_multiset()

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def uniform(cls, state: State, n: int) -> "Configuration":
        """A configuration of ``n`` agents, all in ``state``."""
        if n < 0:
            raise ValueError("population size must be non-negative")
        return cls.from_runs(((state, n),))

    @classmethod
    def from_counts(cls, counts: Dict[State, int]) -> "Configuration":
        """Build a configuration from a ``state -> multiplicity`` mapping.

        Agents are laid out in the iteration order of ``counts``; because
        agents are anonymous this ordering is semantically irrelevant, but it
        is deterministic, which keeps experiments reproducible.
        """
        return cls.from_runs(counts.items())


class MutableConfiguration:
    """An array-backed, mutable run buffer over agent states.

    The immutable :class:`Configuration` pays an O(n) tuple copy per applied
    interaction, which makes a T-step run O(n·T).  The execution core of
    :mod:`repro.engine.fastpath` instead threads a single
    ``MutableConfiguration`` through the whole run: applying an interaction
    is two O(1) in-place list writes, and an immutable :class:`Configuration`
    is only materialised at explicit freeze points (trace construction,
    convergence records, hashing for reachability).

    The read API mirrors :class:`Configuration` (``len``, iteration,
    indexing, ``count``, ``multiset``, ``project``, ...) so configuration
    predicates written against the immutable class also accept the live
    buffer.  Unlike :class:`Configuration`, instances are unhashable and any
    view of the buffer is only valid until the next mutation.
    """

    __slots__ = ("_states",)

    def __init__(self, states: Iterable[State]) -> None:
        self._states: list = list(states)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[State]:
        return iter(self._states)

    def __getitem__(self, index: int) -> State:
        return self._states[index]

    def __setitem__(self, index: int, new_state: State) -> None:
        self._states[index] = new_state

    __hash__ = None  # mutable buffers must not be used as dict keys

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, MutableConfiguration):
            return self._states == other._states
        if isinstance(other, Configuration):
            return tuple(self._states) == other.states
        if isinstance(other, tuple):
            return tuple(self._states) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"MutableConfiguration({self._states!r})"

    # -- mutation -----------------------------------------------------------

    def apply_interaction(
        self, starter: int, reactor: int, new_starter: State, new_reactor: State
    ) -> None:
        """Apply the outcome of an interaction in place (O(1))."""
        if starter == reactor:
            raise ValueError("an agent cannot interact with itself")
        states = self._states
        states[starter] = new_starter
        states[reactor] = new_reactor

    # -- freeze boundary ----------------------------------------------------

    def freeze(self) -> Configuration:
        """An immutable snapshot of the current buffer contents."""
        return Configuration(self._states)

    # -- read API mirroring Configuration ------------------------------------

    @property
    def states(self) -> Tuple[State, ...]:
        """A tuple snapshot of the current states."""
        return tuple(self._states)

    def _cached_multiset(self) -> Counter:
        # No caching is possible on a mutable buffer; the method only exists
        # so Configuration.same_multiset accepts either class.
        return Counter(self._states)

    def multiset(self) -> Counter:
        """The multiset of states currently in the buffer."""
        return Counter(self._states)

    def count(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        return sum(1 for s in self._states if s == state)

    def count_if(self, predicate: Callable[[State], bool]) -> int:
        """Number of agents whose state satisfies ``predicate``."""
        return sum(1 for s in self._states if predicate(s))

    def histogram(self) -> Dict[State, int]:
        """A plain ``dict`` mapping each present state to its multiplicity."""
        return dict(Counter(self._states))

    def project(self, projection: Callable[[State], State]) -> Configuration:
        """An immutable snapshot with ``projection`` applied to every state."""
        return Configuration(projection(s) for s in self._states)

    def same_multiset(self, other: Any) -> bool:
        """``True`` when equal to ``other`` up to agent permutation."""
        return Counter(self._states) == other._cached_multiset()


class InterningError(KeyError):
    """Raised when a state cannot be interned (not part of the finite set)."""


class StateInterner:
    """A dense ``state <-> int`` bijection over a finite state set.

    The array engine executes protocols over columnar integer arrays, so
    every finite state space must first be *interned*: state ``i`` of the
    construction order receives code ``i``.  The order is fixed by the
    caller (protocols export a canonical order through ``state_order()``),
    which makes the encoding deterministic across processes — unlike the
    iteration order of a ``frozenset`` of strings, which varies with hash
    randomisation.

    Interners are immutable once built; duplicate states in the input are
    collapsed to their first occurrence, preserving order.
    """

    __slots__ = ("_states", "_codes")

    def __init__(self, states: Iterable[State]) -> None:
        ordered: List[State] = []
        codes: Dict[State, int] = {}
        for state in states:
            if state not in codes:
                codes[state] = len(ordered)
                ordered.append(state)
        if not ordered:
            raise ValueError("cannot intern an empty state set")
        self._states: Tuple[State, ...] = tuple(ordered)
        self._codes = codes

    # -- introspection -------------------------------------------------------

    @property
    def states(self) -> Tuple[State, ...]:
        """The interned states, indexed by their code."""
        return self._states

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: State) -> bool:
        return state in self._codes

    def __repr__(self) -> str:
        return f"StateInterner({list(self._states)!r})"

    # -- encoding ------------------------------------------------------------

    def encode(self, state: State) -> int:
        """The code of ``state``; raises :class:`InterningError` when unknown."""
        try:
            return self._codes[state]
        except KeyError:
            known = ", ".join(repr(s) for s in self._states[:8])
            suffix = ", ..." if len(self._states) > 8 else ""
            raise InterningError(
                f"state {state!r} is not in the interned state set "
                f"[{known}{suffix}]"
            ) from None

    def encode_all(self, states: Iterable[State]) -> List[int]:
        """Encode a sequence of states (e.g. a configuration) to codes."""
        codes = self._codes
        try:
            return [codes[state] for state in states]
        except KeyError as error:
            raise self._unknown(error.args[0])

    def _unknown(self, state: State) -> "InterningError":
        try:
            self.encode(state)
        except InterningError as error:
            return error
        raise AssertionError("state was interned after all")  # pragma: no cover

    # -- decoding ------------------------------------------------------------

    def decode(self, code: int) -> State:
        """The state carrying ``code``."""
        return self._states[code]
