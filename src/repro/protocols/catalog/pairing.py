"""The Pairing protocol ``PIP`` (Definition 5 and the paragraph below it).

The Pairing Problem partitions the population into *consumers* (initial
state ``c``) and *producers* (initial state ``p``) and asks that eventually
exactly ``min(|Ac|, |Ap|)`` consumers acquire the irrevocable *critical*
state ``cs``, never exceeding ``|Ap|`` at any time (safety) and never
leaving ``cs`` once entered (irrevocability).

The paper's simple two-way solution has the non-trivial rules::

    (c, p) -> (cs, bot)
    (p, c) -> (bot, cs)

Every impossibility proof in Section 3 uses this protocol as the
counterexample: any omission-tolerant simulator can be fooled into creating
more critical consumers than producers, violating safety.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State

#: Consumer initial state.
CONSUMER = "c"
#: Producer initial state.
PRODUCER = "p"
#: Irrevocable critical state reachable only by consumers.
CRITICAL = "cs"
#: Spent producer.
BOTTOM = "bot"


class PairingProtocol(PopulationProtocol):
    """Two-way protocol solving the Pairing Problem (paper, Section 3).

    The protocol is symmetric on the pair ``(c, p)``: whichever of the two
    agents acts as starter, the consumer becomes critical and the producer
    becomes spent.  This symmetry is precisely what Lemma 1 requires of its
    counterexample protocol.
    """

    def __init__(self) -> None:
        super().__init__(
            states=[CONSUMER, PRODUCER, CRITICAL, BOTTOM],
            initial_states=[CONSUMER, PRODUCER],
            name="pairing",
        )

    def delta(self, starter: State, reactor: State) -> Tuple[State, State]:
        if (starter, reactor) == (CONSUMER, PRODUCER):
            return CRITICAL, BOTTOM
        if (starter, reactor) == (PRODUCER, CONSUMER):
            return BOTTOM, CRITICAL
        return starter, reactor

    def output(self, state: State) -> bool:
        """Output ``True`` exactly for the critical state."""
        return state == CRITICAL

    def state_order(self) -> Tuple[State, ...]:
        """Canonical interning order for the array engine: Definition 5's listing."""
        return (CONSUMER, PRODUCER, CRITICAL, BOTTOM)

    # -- convenience constructors and checks -------------------------------------------

    @staticmethod
    def initial_configuration(consumers: int, producers: int) -> Configuration:
        """An initial configuration with the given number of consumers and producers."""
        if consumers < 0 or producers < 0:
            raise ValueError("population counts must be non-negative")
        return Configuration.from_runs(((CONSUMER, consumers), (PRODUCER, producers)))

    @staticmethod
    def critical_count(configuration: Configuration) -> int:
        """Number of agents currently in the critical state ``cs``."""
        return configuration.count(CRITICAL)

    @staticmethod
    def expected_stable_critical(consumers: int, producers: int) -> int:
        """The liveness target ``min(|Ac|, |Ap|)`` of Definition 5."""
        return min(consumers, producers)
