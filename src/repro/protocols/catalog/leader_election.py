"""Classic leader-election population protocol.

All agents start as leader candidates ``L``; whenever two candidates meet,
the reactor survives and the starter is demoted to follower ``F``.  Under
global fairness exactly one leader eventually remains.  This is one of the
standard workloads of the PP literature and is used here to exercise the
simulators on a protocol that is *not* symmetric in the Pairing sense (the
outcome of ``(L, L)`` depends on the roles).
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State

LEADER = "L"
FOLLOWER = "F"


class LeaderElectionProtocol(PopulationProtocol):
    """Two-way leader election: ``(L, L) -> (F, L)``; everything else silent."""

    def __init__(self) -> None:
        super().__init__(
            states=[LEADER, FOLLOWER],
            initial_states=[LEADER],
            name="leader-election",
        )

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        if starter == LEADER and reactor == LEADER:
            return FOLLOWER, LEADER
        return starter, reactor

    def output(self, state: State) -> bool:
        """Output ``True`` for the leader, ``False`` for followers."""
        return state == LEADER

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine."""
        return (LEADER, FOLLOWER)

    @staticmethod
    def initial_configuration(n: int) -> Configuration:
        """All ``n`` agents start as leader candidates."""
        return Configuration.uniform(LEADER, n)

    @staticmethod
    def has_converged(configuration: Configuration) -> bool:
        """A configuration is stable for leader election iff exactly one leader remains."""
        return configuration.count(LEADER) == 1
