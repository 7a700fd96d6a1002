"""One-way epidemic (rumour spreading) protocol.

The simplest possible information-dissemination workload: an *informed*
agent infects any *susceptible* agent it interacts with.  Unlike the other
catalog entries this protocol is natively expressible in the one-way models
(only the reactor needs to change state), so it doubles as a sanity workload
for running native IO/IT protocols directly on the weak models without any
simulator, and as the information-propagation primitive referenced by the
counting and predicate protocols.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.protocol import OneWayProtocol, PopulationProtocol
from repro.protocols.state import Configuration, State

SUSCEPTIBLE = "S"
INFORMED = "I"


class EpidemicProtocol(PopulationProtocol):
    """Two-way formulation: ``(I, S) -> (I, I)``, everything else silent."""

    def __init__(self) -> None:
        super().__init__(
            states=[SUSCEPTIBLE, INFORMED],
            initial_states=[SUSCEPTIBLE, INFORMED],
            name="epidemic",
        )

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        if starter == INFORMED and reactor == SUSCEPTIBLE:
            return INFORMED, INFORMED
        return starter, reactor

    def output(self, state: State) -> bool:
        return state == INFORMED

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine."""
        return (SUSCEPTIBLE, INFORMED)

    @staticmethod
    def initial_configuration(informed: int, susceptible: int) -> Configuration:
        return Configuration.from_runs(((INFORMED, informed), (SUSCEPTIBLE, susceptible)))

    @staticmethod
    def expected_output(informed: int) -> bool:
        """The stable output: any initially informed agent informs everyone.

        Giving the epidemic the standard ``expected_output`` hook lets the
        registry derive its stable-output criterion as a state-count
        predicate (all agents output this value) instead of the
        non-compilable unanimity fallback.
        """
        return informed > 0

    @staticmethod
    def informed_count(configuration: Configuration) -> int:
        return configuration.count(INFORMED)

    @staticmethod
    def all_informed(configuration: Configuration) -> bool:
        return all(s == INFORMED for s in configuration)


class OneWayEpidemicProtocol(OneWayProtocol):
    """Native one-way (IO-compatible) epidemic: ``f(I, S) = I``, ``g = id``."""

    def __init__(self) -> None:
        super().__init__(
            states=[SUSCEPTIBLE, INFORMED],
            initial_states=[SUSCEPTIBLE, INFORMED],
            name="one-way-epidemic",
        )

    def f(self, starter: State, reactor: State) -> State:
        if starter == INFORMED:
            return INFORMED
        return reactor

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine."""
        return (SUSCEPTIBLE, INFORMED)
