"""End-to-end simulation verification (Definition 4, finite-prefix version).

Given a trace of a simulator ``S(P)``, this module checks the chain of
conditions that Definition 4 imposes on correct simulations:

1. extract the sequence of simulation events ``E(Gamma)``;
2. build a matching and verify every matched pair against ``delta_P``
   (Definition 3);
3. order the pairs into the derived run and replay it from ``pi_P(C0)``,
   checking it is a legal execution prefix of ``P``;
4. report the events that remain unmatched in the finite prefix (for a
   correct simulator these are only in-flight simulated interactions whose
   second half has not completed yet).

The report deliberately separates *hard violations* (invalid pairs,
inconsistent derived run) from *soft observations* (unmatched events,
zero progress), because the former falsify the simulation while the latter
only bound what a finite prefix can establish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.base import TwoWaySimulator
from repro.core.events import (
    DerivedStep,
    Matching,
    build_derived_run,
    replay_derived_run,
    replay_derived_run_anonymous,
)
from repro.engine.trace import Trace
from repro.protocols.state import Configuration


@dataclass
class SimulationReport:
    """Outcome of verifying one simulator trace."""

    simulator_name: str
    protocol_name: str
    trace_steps: int
    omissions: int
    event_count: int
    matched_pairs: int
    invalid_pairs: int
    unmatched_changed_events: int
    derived_consistent: bool
    derived_steps: int
    errors: List[str] = field(default_factory=list)
    final_simulated_configuration: Optional[Configuration] = None
    #: Matched pairs that could not be ordered within the finite prefix
    #: because a pre-state is only produced by a still-in-flight event (a
    #: soft, prefix-bounded observation — not a violation).
    deferred_pairs: int = 0

    @property
    def ok(self) -> bool:
        """No hard violation was found in this (finite) execution prefix."""
        return self.invalid_pairs == 0 and self.derived_consistent and not self.errors

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "OK" if self.ok else "VIOLATION"
        return (
            f"[{status}] {self.simulator_name} on {self.protocol_name}: "
            f"steps={self.trace_steps} omissions={self.omissions} "
            f"pairs={self.matched_pairs} invalid={self.invalid_pairs} "
            f"pending-events={self.unmatched_changed_events}"
        )


def verify_simulation(simulator: TwoWaySimulator, trace: Trace) -> SimulationReport:
    """Verify that ``trace`` is (a prefix of) a correct simulation of ``simulator.protocol``."""
    protocol = simulator.protocol
    matching: Matching = simulator.extract_matching(trace)
    invalid = matching.invalid_pairs(protocol)
    derived: List[DerivedStep] = build_derived_run(matching.events, matching.pairs)
    initial_p = simulator.project_configuration(trace.initial_configuration)
    # Anonymous simulators (SKnO) are verified at the multiset level; those
    # that know partner identities get the stronger agent-indexed replay.
    if simulator.anonymous_matching:
        # In-flight (unmatched, changed) updates: a matched pair may depend
        # on their post-states, in which case it is deferred rather than
        # flagged — it orders after the in-flight interaction completes in
        # an extension of this finite prefix.
        in_flight_events = [
            (matching.events[i].pre_sim, matching.events[i].post_sim)
            for i in matching.changed_unmatched_events()
        ]
        replay = replay_derived_run_anonymous(
            protocol, initial_p, derived, in_flight_events=in_flight_events
        )
    else:
        replay = replay_derived_run(protocol, initial_p, derived)

    errors: List[str] = []
    for starter_index, reactor_index in invalid:
        starter_event = matching.events[starter_index]
        reactor_event = matching.events[reactor_index]
        errors.append(
            "invalid matched pair: "
            f"agents ({starter_event.agent}, {reactor_event.agent}) "
            f"pre=({starter_event.pre_sim!r}, {reactor_event.pre_sim!r}) "
            f"post=({starter_event.post_sim!r}, {reactor_event.post_sim!r})"
        )
    errors.extend(replay.errors)

    # Cross-check: the simulated configuration reached by the trace must agree
    # with the one reached by replaying the derived run, up to the simulated
    # interactions that are still in flight (unmatched events).  When there
    # are no unmatched *changed* events, the two must coincide as multisets.
    unmatched_changed = matching.changed_unmatched_events()
    if replay.consistent and not unmatched_changed and replay.final_configuration is not None:
        traced_final = simulator.project_configuration(trace.final_configuration)
        if traced_final.multiset() != replay.final_configuration.multiset():
            errors.append(
                "final simulated configuration disagrees with the derived execution: "
                f"trace={dict(traced_final.multiset())!r} "
                f"derived={dict(replay.final_configuration.multiset())!r}"
            )

    return SimulationReport(
        simulator_name=simulator.name,
        protocol_name=protocol.name,
        trace_steps=len(trace),
        omissions=trace.omission_count(),
        event_count=len(matching.events),
        matched_pairs=len(matching.pairs),
        invalid_pairs=len(invalid),
        unmatched_changed_events=len(unmatched_changed),
        derived_consistent=replay.consistent,
        derived_steps=replay.steps_replayed,
        errors=errors,
        final_simulated_configuration=replay.final_configuration,
        deferred_pairs=replay.deferred_pairs,
    )
