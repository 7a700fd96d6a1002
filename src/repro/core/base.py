"""Base class for two-way protocol simulators (Section 2.4).

A simulator ``S(P)`` is, operationally, just a protocol for a weaker model
whose local states are pairs of a *simulated* state (a state of ``P``) and
some simulator bookkeeping.  The base class below fixes the interface every
simulator in this library implements:

* it *is* a :class:`repro.protocols.OneWayProtocol`, so the engine can run
  it directly under any of the one-way models (and, via
  :func:`repro.interaction.adapters.one_way_as_two_way`, under the two-way
  omissive models used by the impossibility constructions);
* it knows how to build initial composite states from initial states of
  ``P`` plus whatever knowledge it assumes (unique IDs, population size,
  omission bound);
* it can project composite states back onto ``Q_P`` (the function ``pi_P``);
* it extracts the *simulation events* of a trace (updates of simulated
  states) and their perfect matching (Definition 3) through one seam: the
  per-step hook ``step_events``, one trace walk ``extract_events``, and the
  flag ``anonymous_matching``, which picks the matching and the replay.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.events import Matching, SimulationEvent
from repro.engine.trace import Trace, TraceStep
from repro.protocols.protocol import OneWayProtocol, PopulationProtocol
from repro.protocols.state import Configuration, State


class SimulatorError(Exception):
    """Raised on invalid simulator construction or use."""


class TwoWaySimulator(OneWayProtocol):
    """Abstract simulator of two-way protocols on weaker interaction models."""

    #: Names of the interaction models this simulator is designed for.
    compatible_models: Tuple[str, ...] = ()

    #: Whether events carry no partner identity (``SKnO``'s tokens name no
    #: agent).  Selects the greedy key matching and the multiset-level
    #: derived replay; otherwise matching is by partner lock and the replay
    #: is agent-indexed.
    anonymous_matching = False

    def __init__(self, protocol: PopulationProtocol, name: Optional[str] = None) -> None:
        if not isinstance(protocol, PopulationProtocol):
            raise SimulatorError(
                "a simulator wraps a two-way PopulationProtocol; got "
                f"{type(protocol).__name__}"
            )
        super().__init__(states=None, initial_states=None, name=name or type(self).__name__)
        self._protocol = protocol

    # -- simulated protocol ------------------------------------------------------------------

    @property
    def protocol(self) -> PopulationProtocol:
        """The simulated two-way protocol ``P``."""
        return self._protocol

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        """Shorthand for the simulated protocol's transition function."""
        return self._protocol.delta(starter, reactor)

    # -- state construction and projection ------------------------------------------------------

    def initial_state(self, p_state: State, **knowledge: Any) -> State:
        """The composite initial state of an agent whose ``P``-state is ``p_state``.

        ``knowledge`` carries whatever the concrete simulator assumes
        (``agent_id=...`` for :class:`SIDSimulator`, nothing for
        :class:`SKnOSimulator`, ...).
        """
        raise NotImplementedError

    def initial_configuration(
        self, p_configuration: Configuration, **knowledge: Any
    ) -> Configuration:
        """Composite initial configuration for a whole population.

        The default builds each agent's state with :meth:`initial_state`,
        forwarding per-agent knowledge when ``knowledge`` contains sequences
        (e.g. ``ids=[...]``); concrete simulators override this when they
        need something richer.
        """
        return Configuration(
            self.initial_state(p_state) for p_state in p_configuration
        )

    def project(self, state: State) -> State:
        """The projection ``pi_P`` onto the simulated protocol's state."""
        raise NotImplementedError

    def project_configuration(self, configuration: Configuration) -> Configuration:
        """Apply ``pi_P`` to every agent of a configuration."""
        return configuration.project(self.project)

    # -- observation and event extraction (Definitions 3 and 4) ------------------------------------

    def f(self, starter: State, reactor: State) -> State:
        """The reactor update: :meth:`_observe` without its events."""
        return self._observe(starter, reactor)[0]

    def _observe(self, starter: Any, reactor: Any) -> Tuple[Any, Sequence[SimulationEvent]]:
        """The reactor update of one observation, with the simulation events it caused."""
        raise NotImplementedError

    def step_events(self, step: TraceStep) -> Sequence[SimulationEvent]:
        """The simulation events of one trace step: the per-step hook.

        The default replays :meth:`_observe` on the recorded pre-states of
        every non-omissive step; a simulator without omission handlers
        (``g`` and ``h`` the identity) updates no simulated state on an
        omissive one.  Only the reactor's simulated state can change in a
        step, and the events carry ``step=-1`` and ``agent=-1``.
        """
        if step.interaction.is_omissive:
            return ()
        return self._observe(step.starter_pre, step.reactor_pre)[1]

    def extract_events(self, trace: Trace) -> List[SimulationEvent]:
        """The sequence of simulation events of an execution trace.

        One walk over ``trace.steps`` asks :meth:`step_events` for each
        step's events and stamps them with the step index, the reactor as
        ``agent`` and, unless :attr:`anonymous_matching`, the starter as
        ``partner_agent``.  Replaying the deterministic transition from the
        recorded pre-states reproduces exactly the events of the run.
        """
        anonymous = self.anonymous_matching
        step_events = self.step_events
        events: List[SimulationEvent] = []
        for step in trace.steps:
            found = step_events(step)
            if not found:
                continue
            interaction = step.interaction
            partner = None if anonymous else interaction.starter
            for event in found:
                events.append(SimulationEvent(
                    step=step.index,
                    agent=interaction.reactor,
                    role=event.role,
                    pre_sim=event.pre_sim,
                    post_sim=event.post_sim,
                    partner_pre_sim=event.partner_pre_sim,
                    partner_agent=partner,
                    key=event.key,
                ))
        return events

    def extract_matching(self, trace: Trace) -> Matching:
        """Events plus the perfect-matching pairs for an execution trace.

        Anonymous simulators pair starter- and reactor-role events greedily
        by matching key (:meth:`Matching.greedy`); the others pair each
        completion with its partner's latest lock
        (:meth:`Matching.by_partner`).
        """
        events = self.extract_events(trace)
        if self.anonymous_matching:
            return Matching.greedy(self._protocol, events)
        return Matching.by_partner(events)

    # -- misc -----------------------------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} protocol={self._protocol.name!r}>"
