"""Boolean predicate protocols: OR, AND and parity (XOR).

These tiny protocols compute boolean functions of the agents' input bits and
are useful as fast-converging simulation workloads: OR/AND converge after a
single epidemic, parity needs collector merging.  They also provide easily
verifiable end-to-end outputs for the simulator integration tests.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.catalog.counting import ModuloCountingProtocol
from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State


class OrProtocol(PopulationProtocol):
    """Compute the OR of the input bits: state 1 spreads epidemically."""

    def __init__(self) -> None:
        super().__init__(states=[0, 1], initial_states=[0, 1], name="or")

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        if starter == 1 and reactor == 0:
            return 1, 1
        return starter, reactor

    def output(self, state: State) -> bool:
        return bool(state)

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine."""
        return (0, 1)

    @staticmethod
    def initial_configuration(ones: int, zeros: int) -> Configuration:
        return Configuration.from_runs(((1, ones), (0, zeros)))

    @staticmethod
    def expected_output(ones: int) -> bool:
        return ones > 0


class AndProtocol(PopulationProtocol):
    """Compute the AND of the input bits: state 0 spreads epidemically."""

    def __init__(self) -> None:
        super().__init__(states=[0, 1], initial_states=[0, 1], name="and")

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        if starter == 0 and reactor == 1:
            return 0, 0
        return starter, reactor

    def output(self, state: State) -> bool:
        return bool(state)

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine."""
        return (0, 1)

    @staticmethod
    def initial_configuration(ones: int, zeros: int) -> Configuration:
        return Configuration.from_runs(((1, ones), (0, zeros)))

    @staticmethod
    def expected_output(ones: int, zeros: int) -> bool:
        return zeros == 0


class ParityProtocol(ModuloCountingProtocol):
    """Compute the parity (XOR) of the input bits.

    This is exactly modulo-2 counting with target residue 1: collectors
    carrying input bits merge pairwise, accumulating the sum modulo 2, and
    followers learn the surviving collector's residue.  The population
    stabilises with every agent outputting ``True`` iff the number of 1
    inputs is odd.
    """

    def __init__(self) -> None:
        super().__init__(modulus=2, target=1)
        self.name = "parity"

    @staticmethod
    def expected_output(ones: int) -> bool:
        return ones % 2 == 1
