"""Core contribution: two-way protocol simulators for weak interaction models.

A *simulator* ``S(P)`` (Section 2.4) is a wrapper protocol that runs on a
weak interaction model (one-way and/or omissive) and gives an arbitrary
two-way protocol ``P`` the illusion of running on the standard two-way
model: its composite states live in ``Q_P x Q_S``, and its executions admit
a sequence of events with a perfect matching whose derived execution is a
globally fair execution of ``P``.

This package provides the three simulators constructed in Section 4 of the
paper, the event/matching machinery of Definitions 3 and 4, an end-to-end
verification pass, and memory accounting backing the stated space bounds:

* :class:`SKnOSimulator` — Theorem 4.1: models ``I3``/``I4`` (and ``IT``
  with ``o = 0``, Corollary 1) given an upper bound ``o`` on omissions.
* :class:`SIDSimulator` — Theorem 4.5: model ``IO`` given unique IDs.
* :class:`KnownSizeSimulator` — Theorem 4.6: model ``IO`` given knowledge of
  the population size ``n`` (naming protocol ``Nn`` composed with ``SID``).
* :class:`TrivialTwoWaySimulator` — the identity wrapper for the ``TW``
  model, used as the overhead baseline.
"""

from repro.core.base import TwoWaySimulator, SimulatorError
from repro.core.events import (
    SimulationEvent,
    Matching,
    DerivedStep,
    verify_matched_pair,
    build_derived_run,
    replay_derived_run,
)
from repro.core.skno import SKnOSimulator, SKnOState
from repro.core.sid import SIDSimulator, SIDState
from repro.core.naming import NamingState, KnownSizeSimulator, KnownSizeState
from repro.core.trivial import TrivialTwoWaySimulator
from repro.core.verification import SimulationReport, verify_simulation
from repro.core.memory import (
    state_bits,
    max_bits_per_agent,
    skno_state_bound_bits,
)

__all__ = [
    "TwoWaySimulator",
    "SimulatorError",
    "SimulationEvent",
    "Matching",
    "DerivedStep",
    "verify_matched_pair",
    "build_derived_run",
    "replay_derived_run",
    "SKnOSimulator",
    "SKnOState",
    "SIDSimulator",
    "SIDState",
    "NamingState",
    "KnownSizeSimulator",
    "KnownSizeState",
    "TrivialTwoWaySimulator",
    "SimulationReport",
    "verify_simulation",
    "state_bits",
    "max_bits_per_agent",
    "skno_state_bound_bits",
]
