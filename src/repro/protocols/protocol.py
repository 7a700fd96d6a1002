"""Abstract population protocols (two-way and one-way).

Section 2.1 of the paper defines a protocol ``P`` by a set of local states
``Q_P``, a set of initial states ``Q'_P`` and a transition function
``delta_P : Q_P x Q_P -> Q_P x Q_P`` applied to ordered (starter, reactor)
pairs.  Section 2.2 restricts the shape of ``delta_P`` for the one-way
models: Immediate Transmission requires ``delta(a_s, a_r) = (g(a_s),
f(a_s, a_r))`` and Immediate Observation further forces ``g`` to be the
identity.

This module provides:

* :class:`PopulationProtocol` — the abstract two-way protocol, with helpers
  for enumerating transitions, checking symmetry and evaluating outputs.
* :class:`RuleBasedProtocol` — a concrete two-way protocol built from a
  transition table (missing entries default to "no change").
* :class:`OneWayProtocol` — the abstract native one-way protocol, defined by
  the pair ``(g, f)``; IO protocols simply leave ``g`` as the identity.
* :class:`RuleBasedOneWayProtocol` — table-driven one-way protocol.

All protocol states must be hashable; protocols themselves are stateless and
may be shared freely between agents, engines and processes.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.protocols.state import State


class ProtocolError(Exception):
    """Raised when a protocol definition or invocation is invalid."""


def _canonical_state_order(
    states: Optional[FrozenSet[State]], name: str
) -> Tuple[State, ...]:
    """The default canonical ordering of a finite state set.

    Shared by the two protocol base classes so their ``state_order()``
    contracts cannot drift apart: the array engine interns states in this
    order, which must be stable across processes.  Sorting by ``repr``
    provides that stability (``frozenset`` iteration order depends on hash
    randomisation); protocols may override ``state_order()`` with the
    order in which the paper lists their states.
    """
    if states is None:
        raise ProtocolError(
            f"protocol {name!r} has an unbounded state space; "
            "the array engine needs a finite state_order()"
        )
    return tuple(sorted(states, key=repr))


class PopulationProtocol:
    """A two-way population protocol (the standard model, ``TW``).

    Subclasses must implement :meth:`delta`.  ``states`` may be ``None`` for
    protocols with an unbounded state space (e.g. simulators wrapped as
    protocols); finite protocols should enumerate their states so that
    analyses (memory accounting, reachability) can use them.
    """

    #: Human-readable protocol name (used by the catalog and reports).
    name: str = "protocol"

    def __init__(
        self,
        states: Optional[Iterable[State]] = None,
        initial_states: Optional[Iterable[State]] = None,
        name: Optional[str] = None,
    ) -> None:
        self._states: Optional[FrozenSet[State]] = (
            frozenset(states) if states is not None else None
        )
        self._initial_states: Optional[FrozenSet[State]] = (
            frozenset(initial_states) if initial_states is not None else None
        )
        if name is not None:
            self.name = name
        if (
            self._states is not None
            and self._initial_states is not None
            and not self._initial_states <= self._states
        ):
            raise ProtocolError("initial states must be a subset of the state set")

    # -- core interface ------------------------------------------------------------

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        """The transition function ``delta_P(a_s, a_r)``.

        Returns the pair ``(new_starter_state, new_reactor_state)``.
        """
        raise NotImplementedError

    def output(self, state: State) -> Any:
        """The output associated with ``state`` (``None`` when not applicable).

        Predicate-computing protocols override this to map states to the
        boolean (or other) value the population is computing.
        """
        return None

    # -- metadata -------------------------------------------------------------------

    @property
    def states(self) -> Optional[FrozenSet[State]]:
        """The set of local states ``Q_P`` (``None`` when unbounded)."""
        return self._states

    @property
    def initial_states(self) -> Optional[FrozenSet[State]]:
        """The set of initial states ``Q'_P`` (``None`` when unrestricted)."""
        return self._initial_states

    @property
    def is_finite_state(self) -> bool:
        """Whether ``Q_P`` is a known finite set."""
        return self._states is not None

    def state_count(self) -> int:
        """``|Q_P|``; raises :class:`ProtocolError` for unbounded protocols."""
        if self._states is None:
            raise ProtocolError(f"protocol {self.name!r} has an unbounded state space")
        return len(self._states)

    def state_order(self) -> Tuple[State, ...]:
        """A deterministic canonical ordering of ``Q_P``.

        This is the interning order used by the array engine
        (:mod:`repro.engine.backends`): state ``i`` of the returned tuple
        is encoded as code ``i``.  See :func:`_canonical_state_order` for
        the default; raises :class:`ProtocolError` for unbounded protocols.
        """
        return _canonical_state_order(self._states, self.name)

    def validate_initial_state(self, state: State) -> None:
        """Raise :class:`ProtocolError` if ``state`` is not a legal initial state."""
        if self._initial_states is not None and state not in self._initial_states:
            raise ProtocolError(
                f"{state!r} is not an initial state of protocol {self.name!r}"
            )

    # -- derived helpers --------------------------------------------------------------

    def fs(self, starter: State, reactor: State) -> State:
        """The starter-side component ``f_s`` of the transition function."""
        return self.delta(starter, reactor)[0]

    def fr(self, starter: State, reactor: State) -> State:
        """The reactor-side component ``f_r`` of the transition function."""
        return self.delta(starter, reactor)[1]

    def is_symmetric_on(self, q0: State, q1: State) -> bool:
        """Whether ``delta`` is symmetric on the unordered pair ``{q0, q1}``.

        Formally: ``delta(q0, q1) = (q0', q1')`` and ``delta(q1, q0) =
        (q1', q0')``.  Lemma 1 requires the simulated protocol to be
        symmetric on the pair of initial states used in the construction.
        """
        a, b = self.delta(q0, q1)
        c, d = self.delta(q1, q0)
        return (a, b) == (d, c)

    def enumerate_transitions(self) -> Dict[Tuple[State, State], Tuple[State, State]]:
        """The full transition table (finite-state protocols only)."""
        if self._states is None:
            raise ProtocolError(
                f"cannot enumerate transitions of unbounded protocol {self.name!r}"
            )
        return {
            (s, r): self.delta(s, r) for s in self._states for r in self._states
        }

    def is_closed(self) -> bool:
        """Whether ``delta`` maps ``Q_P x Q_P`` into ``Q_P x Q_P``.

        Unbounded protocols are assumed closed.
        """
        if self._states is None:
            return True
        for (s, r), (s2, r2) in self.enumerate_transitions().items():
            if s2 not in self._states or r2 not in self._states:
                return False
        return True

    def __repr__(self) -> str:
        size = "inf" if self._states is None else str(len(self._states))
        return f"<{type(self).__name__} {self.name!r} |Q|={size}>"


class RuleBasedProtocol(PopulationProtocol):
    """A two-way protocol defined by an explicit transition table.

    Pairs absent from ``rules`` are *silent*: both agents keep their state.
    This matches how protocols are usually written in the PP literature,
    where only the "non-trivial transition rules" are listed (e.g. the
    Pairing protocol of the paper lists only ``(c, p) -> (cs, bot)`` and
    ``(p, c) -> (bot, cs)``).
    """

    def __init__(
        self,
        rules: Mapping[Tuple[State, State], Tuple[State, State]],
        states: Optional[Iterable[State]] = None,
        initial_states: Optional[Iterable[State]] = None,
        name: str = "rule-based",
        output_map: Optional[Mapping[State, Any]] = None,
    ) -> None:
        inferred_states = set()
        for (s, r), (s2, r2) in rules.items():
            inferred_states.update((s, r, s2, r2))
        if states is None:
            states = inferred_states
        else:
            states = set(states) | inferred_states
        super().__init__(states=states, initial_states=initial_states, name=name)
        self._rules: Dict[Tuple[State, State], Tuple[State, State]] = dict(rules)
        self._output_map: Dict[State, Any] = dict(output_map or {})

    @property
    def rules(self) -> Dict[Tuple[State, State], Tuple[State, State]]:
        """A copy of the explicit (non-silent) transition rules."""
        return dict(self._rules)

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        return self._rules.get((starter, reactor), (starter, reactor))

    def output(self, state: State) -> Any:
        return self._output_map.get(state)


class OneWayProtocol:
    """A native one-way protocol, defined by ``(g, f)`` (Section 2.2).

    Under Immediate Transmission the starter applies ``g`` to its own state
    (detecting the proximity of the reactor, but not reading its state) and
    the reactor applies ``f`` to the pair.  Under Immediate Observation the
    starter is oblivious to the interaction, i.e. ``g`` is the identity.

    One-way protocols are what actually executes on the weak models; the
    simulators of ``repro.core`` are one-way protocols whose states embed a
    simulated two-way state.
    """

    name: str = "one-way-protocol"

    def __init__(
        self,
        states: Optional[Iterable[State]] = None,
        initial_states: Optional[Iterable[State]] = None,
        name: Optional[str] = None,
    ) -> None:
        self._states: Optional[FrozenSet[State]] = (
            frozenset(states) if states is not None else None
        )
        self._initial_states: Optional[FrozenSet[State]] = (
            frozenset(initial_states) if initial_states is not None else None
        )
        if name is not None:
            self.name = name

    # -- core one-way interface -------------------------------------------------------

    def g(self, starter: State) -> State:
        """Starter update on a (non-omissive) interaction; identity for IO."""
        return starter

    def f(self, starter: State, reactor: State) -> State:
        """Reactor update given the observed starter state."""
        raise NotImplementedError

    # -- omission handlers (Section 2.3) ------------------------------------------------

    def on_starter_omission(self, starter: State) -> State:
        """The function ``o`` applied starter-side on a *detected* omission.

        Only invoked by models that grant starter-side omission detection
        (``I4``, ``T2``/``T3`` starter side).  Defaults to the identity, i.e.
        "detected but ignored".
        """
        return starter

    def on_reactor_omission(self, reactor: State) -> State:
        """The function ``h`` applied reactor-side on a *detected* omission.

        Only invoked by models that grant reactor-side omission detection
        (``I3``, ``T3``).  Defaults to the identity.
        """
        return reactor

    # -- metadata ------------------------------------------------------------------------

    @property
    def states(self) -> Optional[FrozenSet[State]]:
        return self._states

    @property
    def initial_states(self) -> Optional[FrozenSet[State]]:
        return self._initial_states

    @property
    def is_finite_state(self) -> bool:
        return self._states is not None

    def state_order(self) -> Tuple[State, ...]:
        """A deterministic canonical ordering of the state set.

        Same contract as :meth:`PopulationProtocol.state_order` (the
        shared :func:`_canonical_state_order` default); raises
        :class:`ProtocolError` when the state space is unbounded (e.g.
        every simulator of :mod:`repro.core` except the trivial one).
        """
        return _canonical_state_order(self._states, self.name)

    def __repr__(self) -> str:
        size = "inf" if self._states is None else str(len(self._states))
        return f"<{type(self).__name__} {self.name!r} |Q|={size}>"


class RuleBasedOneWayProtocol(OneWayProtocol):
    """A one-way protocol defined by explicit ``g`` and ``f`` tables / callables."""

    def __init__(
        self,
        f_rules: Mapping[Tuple[State, State], State],
        g_rules: Optional[Mapping[State, State]] = None,
        states: Optional[Iterable[State]] = None,
        initial_states: Optional[Iterable[State]] = None,
        name: str = "rule-based-one-way",
    ) -> None:
        inferred = set()
        for (s, r), r2 in f_rules.items():
            inferred.update((s, r, r2))
        for s, s2 in (g_rules or {}).items():
            inferred.update((s, s2))
        if states is None:
            states = inferred
        else:
            states = set(states) | inferred
        super().__init__(states=states, initial_states=initial_states, name=name)
        self._f_rules = dict(f_rules)
        self._g_rules = dict(g_rules or {})

    def g(self, starter: State) -> State:
        return self._g_rules.get(starter, starter)

    def f(self, starter: State, reactor: State) -> State:
        return self._f_rules.get((starter, reactor), reactor)
