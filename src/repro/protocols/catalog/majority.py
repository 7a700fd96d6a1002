"""Majority population protocols.

Two classic constructions are provided:

* :class:`ApproximateMajorityProtocol` — the three-state approximate
  majority protocol (Angluin, Aspnes, Eisenstat 2008, reference [6] of the
  paper): states ``A``, ``B`` and the undecided blank ``U``; a decided agent
  converts an undecided one, and two opposite decided agents produce an
  undecided reactor.
* :class:`ExactMajorityProtocol` — the four-state exact majority protocol
  with strong/weak opinions (``A``/``B`` strong, ``a``/``b`` weak): strong
  opposite opinions cancel into weak ones, strong opinions overwrite
  opposite weak ones, so the initial majority (when counts differ) wins in
  every globally fair execution.

Both are standard simulation workloads with outputs, convergence predicates
and easily checkable correctness conditions, making them good end-to-end
tests for the simulators.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State

# Approximate majority states.
A = "A"
B = "B"
UNDECIDED = "U"

# Exact majority weak opinions.
WEAK_A = "a"
WEAK_B = "b"


class ApproximateMajorityProtocol(PopulationProtocol):
    """Three-state approximate majority.

    Non-silent rules (both orientations):

    * ``(A, B) -> (A, U)`` and ``(B, A) -> (B, U)``: a decided starter
      "undecides" an opposite reactor.
    * ``(A, U) -> (A, A)`` and ``(B, U) -> (B, B)``: a decided starter
      recruits an undecided reactor.
    """

    def __init__(self) -> None:
        super().__init__(
            states=[A, B, UNDECIDED],
            initial_states=[A, B, UNDECIDED],
            name="approximate-majority",
        )

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        if starter == A and reactor == B:
            return A, UNDECIDED
        if starter == B and reactor == A:
            return B, UNDECIDED
        if starter == A and reactor == UNDECIDED:
            return A, A
        if starter == B and reactor == UNDECIDED:
            return B, B
        return starter, reactor

    def output(self, state: State) -> Optional[State]:
        """Output the opinion letter, or ``None`` for undecided agents."""
        if state in (A, B):
            return state
        return None

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine."""
        return (A, B, UNDECIDED)

    @staticmethod
    def initial_configuration(count_a: int, count_b: int, undecided: int = 0) -> Configuration:
        """Initial configuration with the given opinion counts."""
        return Configuration.from_runs(((A, count_a), (B, count_b), (UNDECIDED, undecided)))

    @staticmethod
    def is_consensus(configuration: Configuration) -> bool:
        """Whether every agent currently holds the same decided opinion."""
        states = set(configuration.states)
        return states == {A} or states == {B}

    @staticmethod
    def consensus_value(configuration: Configuration) -> Optional[State]:
        """The consensus opinion, or ``None`` if the population has not converged."""
        states = set(configuration.states)
        if states == {A}:
            return A
        if states == {B}:
            return B
        return None


class ExactMajorityProtocol(PopulationProtocol):
    """Four-state exact majority with strong (``A``/``B``) and weak (``a``/``b``) opinions.

    Non-silent rules (applied in both orientations by symmetry of the rule
    table below):

    * ``(A, B) -> (a, b)``: strong opposite opinions cancel.
    * ``(A, b) -> (A, a)`` and ``(B, a) -> (B, b)``: a strong opinion
      converts an opposite weak one.

    Weak-weak interactions are silent.  When the initial counts differ, the
    minority's strong opinions are all cancelled, the surviving majority
    strong agents convert every opposite weak agent, and the population
    stabilises with all agents outputting the initial majority.
    """

    def __init__(self) -> None:
        super().__init__(
            states=[A, B, WEAK_A, WEAK_B],
            initial_states=[A, B],
            name="exact-majority",
        )

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        pair = (starter, reactor)
        if pair == (A, B):
            return WEAK_A, WEAK_B
        if pair == (B, A):
            return WEAK_B, WEAK_A
        if pair == (A, WEAK_B):
            return A, WEAK_A
        if pair == (WEAK_B, A):
            return WEAK_A, A
        if pair == (B, WEAK_A):
            return B, WEAK_B
        if pair == (WEAK_A, B):
            return WEAK_B, B
        return starter, reactor

    def output(self, state: State) -> State:
        """Output the opinion (upper-case letter) currently held by the agent."""
        if state in (A, WEAK_A):
            return A
        return B

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine: strong then weak."""
        return (A, B, WEAK_A, WEAK_B)

    @staticmethod
    def initial_configuration(count_a: int, count_b: int) -> Configuration:
        """Initial configuration with ``count_a`` strong-A and ``count_b`` strong-B agents."""
        return Configuration.from_runs(((A, count_a), (B, count_b)))

    @staticmethod
    def majority_opinion(count_a: int, count_b: int) -> Optional[State]:
        """The expected stable output: the initial strict majority, or ``None`` on a tie."""
        if count_a > count_b:
            return A
        if count_b > count_a:
            return B
        return None

    def has_converged_to(self, configuration: Configuration, opinion: State) -> bool:
        """Whether every agent currently outputs ``opinion``."""
        return all(self.output(s) == opinion for s in configuration)
