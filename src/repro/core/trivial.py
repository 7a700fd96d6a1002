"""The trivial (identity) simulator for the two-way model.

Running a two-way protocol on the ``TW`` model needs no simulation at all;
this wrapper exists so that benchmarks and examples can treat "no simulator"
uniformly with the real simulators: it exposes the same projection / event
extraction / matching interface, its states *are* the protocol states, and
every non-silent interaction yields one already-matched pair of events.

It is the baseline against which the interaction overhead and memory
overhead of ``SKnO``, ``SID`` and ``Nn+SID`` are measured.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.base import TwoWaySimulator
from repro.core.events import REACTOR_ROLE, STARTER_ROLE, SimulationEvent
from repro.engine.trace import Trace
from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State


class TrivialTwoWaySimulator(TwoWaySimulator):
    """Identity wrapper: composite state equals simulated state, ``TW`` only."""

    compatible_models = ("TW",)

    def __init__(self, protocol: PopulationProtocol, name: Optional[str] = None) -> None:
        super().__init__(protocol, name=name or "TW-baseline")

    # -- states --------------------------------------------------------------------------------

    def initial_state(self, p_state: State, **knowledge) -> State:
        self.protocol.validate_initial_state(p_state)
        return p_state

    def initial_configuration(self, p_configuration: Configuration, **knowledge) -> Configuration:
        """Validate each distinct state once and return the configuration itself.

        Composite states are the protocol states, so the protocol
        configuration (in either form) is the composite one.  Validation
        walks the distinct states in first-occurrence order, so the first
        invalid agent state raises, as a per-agent scan would.
        """
        if not isinstance(p_configuration, Configuration):
            p_configuration = Configuration(p_configuration)
        for state in p_configuration.histogram():
            self.initial_state(state)
        return p_configuration

    def project(self, state: State) -> State:
        return state

    def state_order(self) -> Tuple[State, ...]:
        """Composite states are the protocol states, in the protocol's order.

        This is what lets the array engine compile ``TW`` runs of finite
        catalog protocols: the identity wrapper inherits the wrapped
        protocol's canonical interning order verbatim.
        """
        return self.protocol.state_order()

    # -- two-way program interface (used by the TW model) -----------------------------------------

    def fs(self, starter: State, reactor: State) -> State:
        return self.delta(starter, reactor)[0]

    def fr(self, starter: State, reactor: State) -> State:
        return self.delta(starter, reactor)[1]

    # One-way interface for API uniformity; note that running a two-way
    # protocol's reactor half alone on a one-way model is *not* a correct
    # simulation (that is the point of the paper) — this is provided only so
    # that the object satisfies the OneWayProtocol interface.
    def f(self, starter: State, reactor: State) -> State:
        return self.fr(starter, reactor)

    # -- events ---------------------------------------------------------------------------------

    def extract_events(self, trace: Trace) -> List[SimulationEvent]:
        """Each executed two-way interaction is, directly, one simulated interaction."""
        events: List[SimulationEvent] = []
        for step in trace.steps:
            interaction = step.interaction
            events.append(
                SimulationEvent(
                    step=step.index,
                    agent=interaction.starter,
                    role=STARTER_ROLE,
                    pre_sim=step.starter_pre,
                    post_sim=step.starter_post,
                    partner_pre_sim=step.reactor_pre,
                    partner_agent=interaction.reactor,
                    key=step.index,
                )
            )
            events.append(
                SimulationEvent(
                    step=step.index,
                    agent=interaction.reactor,
                    role=REACTOR_ROLE,
                    pre_sim=step.reactor_pre,
                    post_sim=step.reactor_post,
                    partner_pre_sim=step.starter_pre,
                    partner_agent=interaction.starter,
                    key=step.index,
                )
            )
        return events
