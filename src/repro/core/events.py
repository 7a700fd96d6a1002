"""Simulation events, perfect matchings and derived runs (Definitions 3 and 4).

The correctness notion for a simulator is *not* that its configurations look
like configurations of the simulated protocol ``P`` at every instant — it is
that the updates of simulated states can be paired up into two-way
interactions of ``P``:

* an **event** (Definition of ``E(Gamma)`` in Section 2.4) is the update of
  one agent's simulated state, caused by some interaction of the simulator's
  execution;
* a **perfect matching** (Definition 3) pairs events of distinct agents so
  that each pair, read as (starter update, reactor update), agrees with
  ``delta_P`` applied to the two agents' simulated pre-states;
* the **derived run** (Definition 4) orders the matched pairs by the index
  of their earlier event and replays them as a run of ``P``; the simulator
  is correct when that derived execution is a (globally fair) execution of
  ``P``.

This module implements the finite-prefix versions of these notions: events
carry matching hints provided by the concrete simulators; matchings are
built greedily by key (:meth:`Matching.greedy`, for anonymous simulators)
or exactly by partner lock (:meth:`Matching.by_partner`, for simulators
that know partner identities); each matched pair is checked against
``delta_P``; and the derived run is replayed from ``pi_P(C0)`` to check
consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State

#: Role labels for events: which side of the simulated two-way interaction
#: the agent's update corresponds to.
STARTER_ROLE = "starter"
REACTOR_ROLE = "reactor"


@dataclass(frozen=True)
class SimulationEvent:
    """One update of an agent's simulated state.

    Attributes
    ----------
    step:
        Index of the trace step (interaction) that caused the update.
    agent:
        Index of the agent whose simulated state was updated.
    role:
        ``"starter"`` or ``"reactor"``: the agent's role in the simulated
        two-way interaction this event belongs to (not necessarily its role
        in the physical interaction that caused the update).
    pre_sim / post_sim:
        The agent's simulated state before and after the update.
    partner_pre_sim:
        The simulated pre-state of the partner in the simulated two-way
        interaction, as known to the simulator at update time.
    partner_agent:
        The partner's index when the simulator knows it (``SID`` does,
        ``SKnO`` does not — agents are anonymous there).
    key:
        A hashable matching hint: two events that belong to the same
        simulated interaction carry equal keys.
    """

    step: int
    agent: int
    role: str
    pre_sim: State
    post_sim: State
    partner_pre_sim: Optional[State] = None
    partner_agent: Optional[int] = None
    key: Optional[Hashable] = None

    @property
    def changed(self) -> bool:
        """Whether the simulated state actually changed (events may be no-ops)."""
        return self.pre_sim != self.post_sim


@dataclass(frozen=True)
class DerivedStep:
    """One interaction of the derived run of ``P`` (Definition 4)."""

    starter_agent: int
    reactor_agent: int
    starter_pre: State
    reactor_pre: State
    starter_post: State
    reactor_post: State
    starter_event_index: int
    reactor_event_index: int

    @property
    def order_key(self) -> Tuple[int, int]:
        """Pairs are ordered by the index of their earlier event, then the later one."""
        lo = min(self.starter_event_index, self.reactor_event_index)
        hi = max(self.starter_event_index, self.reactor_event_index)
        return (lo, hi)


def verify_matched_pair(
    protocol: PopulationProtocol,
    starter_event: SimulationEvent,
    reactor_event: SimulationEvent,
) -> bool:
    """Check Definition 3 for one pair: the two updates agree with ``delta_P``."""
    if starter_event.agent == reactor_event.agent:
        return False
    expected = protocol.delta(starter_event.pre_sim, reactor_event.pre_sim)
    return expected == (starter_event.post_sim, reactor_event.post_sim)


@dataclass
class Matching:
    """A (partial) perfect matching over a sequence of simulation events.

    ``pairs`` holds ``(starter_event_index, reactor_event_index)`` pairs into
    ``events``.  ``unmatched`` lists the indices of events that could not be
    paired within the finite trace prefix: for a correct simulator these are
    events whose partner update simply has not happened yet (e.g. a pending
    ``SKnO`` agent whose state-change tokens are still in flight), so they
    are reported but are not, by themselves, a correctness violation.
    """

    events: List[SimulationEvent]
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    unmatched: List[int] = field(default_factory=list)

    # -- constructors -------------------------------------------------------------------------

    @classmethod
    def greedy(cls, protocol: PopulationProtocol, events: Sequence[SimulationEvent]) -> "Matching":
        """Greedy key-based matching.

        Starter-role and reactor-role events are paired when they carry equal
        keys, involve distinct agents, and satisfy Definition 3; each event is
        used at most once, and candidates are consumed in trace order.
        """
        events = list(events)
        matching = cls(events=events)
        unpaired_by_key: Dict[Hashable, Dict[str, List[int]]] = {}

        for index, event in enumerate(events):
            if event.key is None:
                matching.unmatched.append(index)
                continue
            bucket = unpaired_by_key.setdefault(event.key, {STARTER_ROLE: [], REACTOR_ROLE: []})
            other_role = REACTOR_ROLE if event.role == STARTER_ROLE else STARTER_ROLE
            paired = False
            for position, candidate_index in enumerate(bucket[other_role]):
                candidate = events[candidate_index]
                starter_event = event if event.role == STARTER_ROLE else candidate
                reactor_event = candidate if event.role == STARTER_ROLE else event
                if verify_matched_pair(protocol, starter_event, reactor_event):
                    starter_index = index if event.role == STARTER_ROLE else candidate_index
                    reactor_index = candidate_index if event.role == STARTER_ROLE else index
                    matching.pairs.append((starter_index, reactor_index))
                    bucket[other_role].pop(position)
                    paired = True
                    break
            if not paired:
                bucket[event.role].append(index)

        for bucket in unpaired_by_key.values():
            matching.unmatched.extend(bucket[STARTER_ROLE])
            matching.unmatched.extend(bucket[REACTOR_ROLE])
        matching.unmatched.sort()
        return matching

    @classmethod
    def by_partner(cls, events: Sequence[SimulationEvent]) -> "Matching":
        """Exact partner-lock matching, for simulators that know partner identities.

        A starter-role event is agent ``s`` *locking* on a simulated
        interaction; a later reactor-role event whose ``partner_agent`` is
        ``s`` completes it and pairs with ``s``'s latest lock.  A second lock
        by the same agent supersedes the first, which stays unmatched; a
        reactor event with no pending lock stays unmatched.
        """
        locks: Dict[Optional[int], int] = {}
        pairs: List[Tuple[int, int]] = []
        for index, event in enumerate(events):
            if event.role == STARTER_ROLE:
                locks[event.agent] = index
            else:
                lock_index = locks.pop(event.partner_agent, None)
                if lock_index is not None:
                    pairs.append((lock_index, index))
        return cls.from_explicit_pairs(events, pairs)

    @classmethod
    def from_explicit_pairs(
        cls,
        events: Sequence[SimulationEvent],
        pairs: Sequence[Tuple[int, int]],
    ) -> "Matching":
        """Build a matching from explicit pairs (used by simulators that know partners)."""
        events = list(events)
        used = set()
        for starter_index, reactor_index in pairs:
            used.add(starter_index)
            used.add(reactor_index)
        unmatched = [i for i in range(len(events)) if i not in used]
        return cls(events=events, pairs=list(pairs), unmatched=unmatched)

    # -- checks --------------------------------------------------------------------------------

    def invalid_pairs(self, protocol: PopulationProtocol) -> List[Tuple[int, int]]:
        """Pairs that violate Definition 3 (empty for a correct matching)."""
        invalid = []
        for starter_index, reactor_index in self.pairs:
            if not verify_matched_pair(
                protocol, self.events[starter_index], self.events[reactor_index]
            ):
                invalid.append((starter_index, reactor_index))
        return invalid

    def changed_unmatched_events(self) -> List[int]:
        """Unmatched events that actually changed a simulated state.

        These are the interesting ones: unmatched no-op events are always
        harmless, while a *changed* unmatched event either awaits its partner
        in a longer execution or indicates a simulator bug.
        """
        return [i for i in self.unmatched if self.events[i].changed]


def build_derived_run(
    events: Sequence[SimulationEvent], pairs: Sequence[Tuple[int, int]]
) -> List[DerivedStep]:
    """Order matched pairs into the derived run of Definition 4."""
    steps = []
    for starter_index, reactor_index in pairs:
        starter_event = events[starter_index]
        reactor_event = events[reactor_index]
        steps.append(
            DerivedStep(
                starter_agent=starter_event.agent,
                reactor_agent=reactor_event.agent,
                starter_pre=starter_event.pre_sim,
                reactor_pre=reactor_event.pre_sim,
                starter_post=starter_event.post_sim,
                reactor_post=reactor_event.post_sim,
                starter_event_index=starter_index,
                reactor_event_index=reactor_index,
            )
        )
    steps.sort(key=lambda step: step.order_key)
    return steps


@dataclass
class DerivedRunReport:
    """Outcome of replaying a derived run against the simulated protocol."""

    consistent: bool
    steps_replayed: int
    final_configuration: Optional[Configuration]
    errors: List[str] = field(default_factory=list)
    #: Matched pairs whose pre-states were only reachable through an
    #: in-flight (unmatched, changed) event: they are realisable in an
    #: extension of the prefix but cannot be ordered within it yet.
    deferred_pairs: int = 0


def replay_derived_run_anonymous(
    protocol: PopulationProtocol,
    initial_p_configuration: Configuration,
    derived: Sequence[DerivedStep],
    in_flight_events: Optional[Sequence[Tuple[State, State]]] = None,
) -> DerivedRunReport:
    """Replay a derived run at the multiset level (anonymous agents).

    Simulators whose bookkeeping is fully anonymous (``SKnO``: tokens carry
    no agent identity) cannot attribute each simulated interaction to a
    specific partner agent, so their extracted matching only determines the
    *multiset* of simulated interactions.  Because population-protocol agents
    are themselves anonymous, a derived run is realisable as an execution of
    ``P`` on ``n`` agents if and only if, at each derived step, the current
    multiset of simulated states contains the two required pre-states: one
    can then always pick a consistent assignment of events to (interchangeable)
    agents.  This function checks exactly that.

    ``in_flight_events`` lists the ``(pre_sim, post_sim)`` updates of
    *unmatched changed* events: simulated updates whose partner half has not
    completed within the finite prefix.  A matched pair may legitimately
    depend on such a post-state (e.g. a silent ``(bot, p)`` interaction
    whose ``bot`` agent was produced by a still-in-flight
    ``(c, p) -> (cs, bot)`` interaction); ordering it inside the prefix is
    impossible, but it is realisable in an extension where the in-flight
    interaction completes.  Such pairs are counted as ``deferred_pairs``
    instead of being flagged as hard violations.  Consuming an in-flight
    post-state also consumes the agent behind it: the event's pre-state is
    debited from the present multiset (one agent can never supply both its
    stale pre-state and its in-flight post-state), and a deferred pair's
    own post-states join the pool as equally pending effects.  With no
    in-flight events the replay is exact, as before.
    """
    counts = dict(initial_p_configuration.multiset())
    # Each pool entry is [pre_or_None, post]; a ``None`` pre means the state
    # needs no further debit (it is the pending effect of a deferred pair
    # whose pre-states were already consumed).
    pool: List[list] = [[pre, post] for pre, post in (in_flight_events or ())]
    errors: List[str] = []
    deferred = 0

    def take(state: State) -> bool:
        if counts.get(state, 0) <= 0:
            return False
        counts[state] -= 1
        return True

    def put(state: State) -> None:
        counts[state] = counts.get(state, 0) + 1

    def take_in_flight(state: State) -> Optional[list]:
        """Consume a pool entry with post-state ``state``; returns it or None."""
        for position, entry in enumerate(pool):
            pre, post = entry
            if post != state:
                continue
            if pre is None or take(pre):
                return pool.pop(position)
        return None

    def restore(entry) -> None:
        if entry[0] is not None:
            put(entry[0])
        pool.append(entry)

    for index, step in enumerate(derived):
        expected_post = protocol.delta(step.starter_pre, step.reactor_pre)
        if expected_post != (step.starter_post, step.reactor_post):
            errors.append(
                f"derived step {index}: delta_P{(step.starter_pre, step.reactor_pre)!r} = "
                f"{expected_post!r} but events recorded "
                f"{(step.starter_post, step.reactor_post)!r}"
            )
            continue
        # Take each pre-state from the present multiset if possible, falling
        # back to the in-flight pool (which marks the pair as deferred).
        starter_entry = None
        if not take(step.starter_pre):
            starter_entry = take_in_flight(step.starter_pre)
            if starter_entry is None:
                errors.append(
                    f"derived step {index}: no agent in simulated state "
                    f"{step.starter_pre!r} is available"
                )
                continue
        reactor_entry = None
        if not take(step.reactor_pre):
            reactor_entry = take_in_flight(step.reactor_pre)
            if reactor_entry is None:
                if starter_entry is not None:
                    restore(starter_entry)
                else:
                    put(step.starter_pre)
                errors.append(
                    f"derived step {index}: no agent in simulated state "
                    f"{step.reactor_pre!r} is available"
                )
                continue
        if starter_entry is not None or reactor_entry is not None:
            deferred += 1
            pool.append([None, step.starter_post])
            pool.append([None, step.reactor_post])
        else:
            put(step.starter_post)
            put(step.reactor_post)

    final = Configuration.from_counts({state: c for state, c in counts.items() if c > 0})
    return DerivedRunReport(
        consistent=not errors,
        steps_replayed=len(derived),
        final_configuration=final if not errors else None,
        errors=errors,
        deferred_pairs=deferred,
    )


def replay_derived_run(
    protocol: PopulationProtocol,
    initial_p_configuration: Configuration,
    derived: Sequence[DerivedStep],
) -> DerivedRunReport:
    """Replay a derived run from ``pi_P(C0)`` and check it is an execution of ``P``.

    Each derived step must find the two agents in exactly the simulated
    pre-states recorded by its events, and must move them to exactly the
    recorded post-states via ``delta_P``; any mismatch is reported.
    """
    configuration = initial_p_configuration
    errors: List[str] = []
    for index, step in enumerate(derived):
        actual_starter = configuration[step.starter_agent]
        actual_reactor = configuration[step.reactor_agent]
        if actual_starter != step.starter_pre or actual_reactor != step.reactor_pre:
            errors.append(
                f"derived step {index}: expected pre-states "
                f"({step.starter_pre!r}, {step.reactor_pre!r}) for agents "
                f"({step.starter_agent}, {step.reactor_agent}), found "
                f"({actual_starter!r}, {actual_reactor!r})"
            )
            continue
        expected_post = protocol.delta(step.starter_pre, step.reactor_pre)
        if expected_post != (step.starter_post, step.reactor_post):
            errors.append(
                f"derived step {index}: delta_P{(step.starter_pre, step.reactor_pre)!r} = "
                f"{expected_post!r} but events recorded "
                f"{(step.starter_post, step.reactor_post)!r}"
            )
            continue
        configuration = configuration.apply_interaction(
            step.starter_agent, step.reactor_agent, step.starter_post, step.reactor_post
        )
    return DerivedRunReport(
        consistent=not errors,
        steps_replayed=len(derived),
        final_configuration=configuration if not errors else None,
        errors=errors,
    )
