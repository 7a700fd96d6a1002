"""Counting protocols: threshold ("flock of birds") and modulo counting.

The threshold protocol is the canonical motivating example of the PP model
(a passively mobile sensor network monitoring how many birds in a flock have
an elevated temperature): the population must decide whether the number of
agents whose input bit is 1 is at least a threshold ``k``.  The modulo
protocol decides whether that count is congruent to ``r`` modulo ``m``.
Together with boolean combinations, these generate all semilinear predicates
(reference [5] of the paper).

States carry bounded counters so both protocols are finite-state, which
keeps them usable as simulation workloads with exhaustively checkable
transition tables.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.protocol import PopulationProtocol, ProtocolError
from repro.protocols.state import Configuration, State


class ThresholdProtocol(PopulationProtocol):
    """Decide whether at least ``threshold`` agents started with input 1.

    States are integers ``0 .. threshold`` (the amount of "weight" carried by
    the agent, saturating at ``threshold``) tagged with an output flag.  We
    encode a state as the tuple ``(weight, seen_threshold)``:

    * When two agents meet, the starter transfers its whole weight to the
      reactor, saturating at ``threshold``.
    * The flag ``seen_threshold`` is set on any agent that ever carries the
      saturated weight and is propagated epidemically to all other agents.
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ProtocolError("threshold must be at least 1")
        self.threshold = threshold
        states = [
            (weight, flag)
            for weight in range(threshold + 1)
            for flag in (False, True)
        ]
        initial = [(0, False), (1, False)] if threshold > 1 else [(0, False), (1, True)]
        super().__init__(states=states, initial_states=initial, name=f"threshold-{threshold}")

    def _saturate(self, weight: int) -> int:
        return min(weight, self.threshold)

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        s_weight, s_flag = starter
        r_weight, r_flag = reactor
        total = self._saturate(s_weight + r_weight)
        reached = total >= self.threshold
        flag = s_flag or r_flag or reached
        # The starter hands its weight to the reactor and keeps only the flag.
        new_starter = (0, flag)
        new_reactor = (total, flag)
        return new_starter, new_reactor

    def output(self, state: State) -> bool:
        """``True`` when the agent believes the threshold has been reached."""
        weight, flag = state
        return bool(flag or weight >= self.threshold)

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine: by weight, then flag."""
        return tuple(
            (weight, flag)
            for weight in range(self.threshold + 1)
            for flag in (False, True)
        )

    def initial_state(self, input_bit: int) -> State:
        """Initial state for an agent whose input bit is 0 or 1."""
        if input_bit not in (0, 1):
            raise ProtocolError("input bit must be 0 or 1")
        weight = input_bit
        return (weight, weight >= self.threshold)

    def initial_configuration(self, ones: int, zeros: int) -> Configuration:
        """Initial configuration with ``ones`` agents holding 1 and ``zeros`` holding 0."""
        return Configuration.from_runs(
            ((self.initial_state(1), ones), (self.initial_state(0), zeros)))

    def expected_output(self, ones: int) -> bool:
        """The predicate value the population should stabilise to."""
        return ones >= self.threshold


class ModuloCountingProtocol(PopulationProtocol):
    """Decide whether the number of agents with input 1 is ``target (mod modulus)``.

    States are tuples ``(residue, is_collector)``: a single "collector token"
    accumulates residues modulo ``modulus`` while non-collectors remember the
    last residue they observed from a collector.  For robustness under the
    simple pairwise dynamics we use the standard construction in which every
    agent starts as a collector carrying its own input and collectors merge
    pairwise (one keeps the sum, the other becomes a follower that copies the
    surviving collector's residue).
    """

    def __init__(self, modulus: int = 3, target: int = 0) -> None:
        if modulus < 2:
            raise ProtocolError("modulus must be at least 2")
        if not 0 <= target < modulus:
            raise ProtocolError("target must lie in [0, modulus)")
        self.modulus = modulus
        self.target = target
        states = []
        for residue in range(modulus):
            states.append(("collector", residue))
            states.append(("follower", residue))
        super().__init__(
            states=states,
            initial_states=[("collector", 0), ("collector", 1 % modulus)],
            name=f"mod-{modulus}-eq-{target}",
        )

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        s_kind, s_res = starter
        r_kind, r_res = reactor
        if s_kind == "collector" and r_kind == "collector":
            merged = (s_res + r_res) % self.modulus
            return ("follower", merged), ("collector", merged)
        if s_kind == "collector" and r_kind == "follower":
            return starter, ("follower", s_res)
        # Follower-to-follower and follower-to-collector interactions are
        # silent: followers only ever learn residues from collectors, so once
        # a single collector holding the final residue remains, follower
        # residues converge to it and never change again (stability under GF).
        return starter, reactor

    def output(self, state: State) -> bool:
        """``True`` when the agent's current residue equals the target."""
        _, residue = state
        return residue == self.target

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine: by residue, then kind."""
        return tuple(
            (kind, residue)
            for residue in range(self.modulus)
            for kind in ("collector", "follower")
        )

    def initial_state(self, input_bit: int) -> State:
        if input_bit not in (0, 1):
            raise ProtocolError("input bit must be 0 or 1")
        return ("collector", input_bit % self.modulus)

    def initial_configuration(self, ones: int, zeros: int) -> Configuration:
        return Configuration.from_runs(
            ((self.initial_state(1), ones), (self.initial_state(0), zeros)))

    def expected_output(self, ones: int) -> bool:
        return ones % self.modulus == self.target
