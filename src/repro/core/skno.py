"""The ``SKnO`` simulator (Section 4.1, Theorem 4.1, Corollary 1).

``SKnO`` simulates an arbitrary two-way protocol ``P`` on the one-way
omissive models ``I3`` and ``I4``, assuming a known upper bound ``o`` on the
total number of omissions in the execution.  Plugging ``o = 0`` gives a
simulator for the non-omissive Immediate Transmission model ``IT``
(Corollary 1).

The construction is token-based ("reminiscent of the card game Rummy", as
the paper puts it):

* each simulated state ``q`` is represented by a *run* of ``o + 1`` numbered
  state tokens ``<q, 1> ... <q, o+1>``;
* an available agent that acts as a starter with an empty queue becomes
  *pending* and enqueues the full run for its own simulated state; every
  time it acts as a starter it transmits (and discards) the front token of
  its queue;
* a reactor enqueues every token it receives; when an omission is detected a
  *joker* token is enqueued instead (jokers are wildcards that may stand in
  for any missing token, and at most ``o`` of them ever exist);
* an *available* reactor that can assemble a complete run for some state
  ``q`` (using jokers for missing tokens) consumes it, performs the
  reactor side of the simulated interaction (``stateP = delta(q, stateP)[1]``)
  and emits a run of *state-change tokens* recording the simulated
  interaction;
* a *pending* reactor that can assemble a complete run of state-change
  tokens matching its own state consumes it, performs the starter side
  (``stateP = delta(stateP, q')[0]``) and becomes available again;
* a *pending* reactor that sees its own (unconsumed) state run come back
  retracts it and becomes available (the "preliminary check");
* joker bookkeeping: whenever a joker stands in for a token ``<q, i>``, the
  agent remembers ``<q, i>``; if the real ``<q, i>`` arrives later it is
  converted back into a joker, so the global number of (tokens + jokers) per
  run is conserved.

Two deliberate, documented deviations from the paper's prose (both
correctness-preserving; see DESIGN.md):

1. State-change tokens carry the pair ``(q, r_old)`` where ``r_old`` is the
   reactor's simulated state *before* its update (the paper's prose writes
   the updated state); the pending starter needs ``r_old`` to compute
   ``delta(q, r_old)[0]``, which is what Definition 3 requires of the
   matching.
2. For model ``I4`` (where the *starter* detects the omission and the
   reactor applies ``g``), the joker is generated by the starter instead of
   the reactor — the symmetric counterpart of the ``I3`` behaviour, which is
   what the paper's "correctness follows from symmetry considerations"
   refers to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.base import SimulatorError, TwoWaySimulator
from repro.core.events import REACTOR_ROLE, STARTER_ROLE, SimulationEvent
from repro.engine.trace import TraceStep
from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import State

#: Simulator phases.
AVAILABLE = "available"
PENDING = "pending"

#: Supported variants (which one-way omissive model the instance targets).
VARIANT_I3 = "I3"
VARIANT_I4 = "I4"


# ---------------------------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------------------------
#
# The ``repr`` of tokens and states is part of the determinism contract: it
# breaks ties between candidate runs and orders the ``owed`` multiset (see
# docs/invariants.md), so no representation change may alter it.


@dataclass(frozen=True)
class StateToken:
    """Token ``<q, i>``: the ``i``-th piece of the run representing state ``q``."""

    state: State
    index: int


@dataclass(frozen=True)
class ChangeToken:
    """State-change token ``<(q, r_old), i>`` recording a simulated interaction.

    ``q`` is the pending starter's simulated state, ``r_old`` the reactor's
    simulated state before it performed its half of the interaction.
    """

    starter_state: State
    reactor_old_state: State
    index: int


@dataclass(frozen=True)
class JokerToken:
    """The wildcard token generated when an omission is detected.

    All jokers are equal, so the simulator enqueues the shared :data:`JOKER`
    instance; tokens are recognised by exact type, never by identity.
    """


JOKER = JokerToken()

#: Positions in a sending queue of the first token of each index of one run.
RunIndex = Dict[int, int]


# ---------------------------------------------------------------------------------------------
# Agent state
# ---------------------------------------------------------------------------------------------


class SKnOState(NamedTuple):
    """Composite state of one agent running ``SKnO``: a tuple record.

    Equal to, and hashing like, the plain tuple ``(sim, phase, sending,
    owed)``; its ``repr`` names the fields.  The ordering it inherits from
    ``tuple`` is not part of its contract: nothing orders states by value
    (``docs/invariants.md``).

    Attributes
    ----------
    sim:
        The simulated protocol state (``stateP``).
    phase:
        ``"available"`` or ``"pending"``.
    sending:
        The queue of tokens to be sent (front at index 0).
    owed:
        The ``Jokers`` multiset of the paper: tokens that jokers stood in
        for, kept so that late-arriving originals can be converted back into
        jokers (stored as a repr-sorted tuple for hashability).
    """

    sim: State
    phase: str = AVAILABLE
    sending: Tuple = ()
    owed: Tuple = ()


_new = tuple.__new__


def _state(sim: State, phase: str, sending: Tuple, owed: Tuple) -> SKnOState:
    """``SKnOState(sim, phase, sending, owed)`` without the keyword-binding ``__new__``."""
    return _new(SKnOState, (sim, phase, sending, owed))


def _without(queue: Tuple, positions: Sequence[int]) -> Tuple:
    """``queue`` with the tokens at ``positions`` removed."""
    result: Tuple = ()
    start = 0
    for position in sorted(positions):
        result += queue[start:position]
        start = position + 1
    return result + queue[start:]


# ---------------------------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------------------------


class SKnOSimulator(TwoWaySimulator):
    """Token-based simulator for ``I3``/``I4`` with a known omission bound (Theorem 4.1)."""

    #: Tokens name no agent, so matching is by key and the derived replay is
    #: multiset-level (equivalent, as population-protocol agents are anonymous).
    anonymous_matching = True

    def __init__(
        self,
        protocol: PopulationProtocol,
        omission_bound: int = 0,
        variant: str = VARIANT_I3,
        name: Optional[str] = None,
    ) -> None:
        if omission_bound < 0:
            raise SimulatorError("the omission bound must be non-negative")
        if variant not in (VARIANT_I3, VARIANT_I4):
            raise SimulatorError(f"unknown SKnO variant {variant!r}; use 'I3' or 'I4'")
        super().__init__(protocol, name=name or f"SKnO(o={omission_bound},{variant})")
        self.omission_bound = omission_bound
        self.variant = variant
        if variant == VARIANT_I3:
            self.compatible_models = ("I3", "IT") if omission_bound == 0 else ("I3",)
        else:
            self.compatible_models = ("I4", "IT") if omission_bound == 0 else ("I4",)
        self._run_indices = tuple(range(1, omission_bound + 2))
        self._run_length = omission_bound + 1
        # Runs are immutable and there is one per simulated state (or state
        # pair), so each is built once per simulator.
        self._state_runs: Dict[State, Tuple[StateToken, ...]] = {}
        self._change_runs: Dict[Tuple[State, State], Tuple[ChangeToken, ...]] = {}

    # -- basic quantities ---------------------------------------------------------------------

    def _state_run(self, q: State) -> Tuple[StateToken, ...]:
        run = self._state_runs.get(q)
        if run is None:
            run = tuple(StateToken(q, i) for i in self._run_indices)
            self._state_runs[q] = run
        return run

    def _change_run(self, q: State, r_old: State) -> Tuple[ChangeToken, ...]:
        run = self._change_runs.get((q, r_old))
        if run is None:
            run = tuple(ChangeToken(q, r_old, i) for i in self._run_indices)
            self._change_runs[(q, r_old)] = run
        return run

    # -- initial states -----------------------------------------------------------------------

    def initial_state(self, p_state: State, **knowledge) -> SKnOState:
        """Composite initial state: available, empty queue, no jokers owed."""
        self.protocol.validate_initial_state(p_state)
        return _state(p_state, AVAILABLE, (), ())

    def project(self, state: SKnOState) -> State:
        return state.sim

    # -- starter behaviour (function g) ----------------------------------------------------------
    #
    # An available starter with an empty queue first goes pending and
    # enqueues its state run; then (in any case) the front token of the
    # queue, if any, is transmitted and removed.

    def outgoing_token(self, state: SKnOState) -> Optional[object]:
        """The token a starter in ``state`` would transmit (``None`` if nothing to send)."""
        if state.sending:
            return state.sending[0]
        if state.phase == AVAILABLE:
            return self._state_run(state.sim)[0]
        return None

    def g(self, starter: SKnOState) -> SKnOState:
        queue = starter.sending
        if queue:
            return _state(starter.sim, starter.phase, queue[1:], starter.owed)
        if starter.phase == AVAILABLE:
            return _state(starter.sim, PENDING, self._state_run(starter.sim)[1:], starter.owed)
        return starter

    # -- reactor behaviour (function f) -------------------------------------------------------------

    def f(self, starter: SKnOState, reactor: SKnOState) -> SKnOState:
        # outgoing_token, inlined: f runs on nearly every step.
        queue = starter.sending
        if queue:
            token = queue[0]
        elif starter.phase == AVAILABLE:
            token = self._state_run(starter.sim)[0]
        else:
            token = None
        return self._receive(reactor, token)

    # -- omission handlers -------------------------------------------------------------------------

    def on_reactor_omission(self, reactor: SKnOState) -> SKnOState:
        """``h`` for the ``I3`` variant: enqueue a joker, then run the usual checks."""
        if self.variant != VARIANT_I3:
            return reactor
        return self._receive(reactor, JOKER)

    def on_starter_omission(self, starter: SKnOState) -> SKnOState:
        """``o`` for the ``I4`` variant: keep the queue intact and enqueue a joker."""
        if self.variant != VARIANT_I4:
            return starter
        return _state(starter.sim, starter.phase, starter.sending + (JOKER,), starter.owed)

    # -- token reception and consumption ----------------------------------------------------------------

    def _receive(
        self,
        reactor: SKnOState,
        token: Optional[object],
        events: Optional[List[SimulationEvent]] = None,
    ) -> SKnOState:
        """Process a received token (or joker, or nothing) and run the check pipeline.

        The pipeline is: enqueue the token (with the joker bookkeeping of
        the paper), then the preliminary check of a pending agent, then the
        core check.  Returns the new state, and appends the simulation
        event of a consumed run to ``events`` when a list is given, so the
        same code path serves both execution and post-hoc event
        extraction.  The event objects carry ``step=-1`` and ``agent=-1``;
        the trace-level extractor fills those fields in.
        """
        sim = reactor.sim
        phase = reactor.phase
        queue = reactor.sending
        owed = reactor.owed
        if token is not None:
            if owed and type(token) is not JokerToken and token in owed:
                # A real token arrives for a slot that a joker already
                # filled: the original is converted back into a joker so
                # the global token count per run stays (o + 1).
                remaining = list(owed)
                remaining.remove(token)
                owed = tuple(remaining)
                token = JOKER
            queue = queue + (token,)

        # Early exit.  A run completes only when the tokens that could
        # belong to it, plus the jokers, number at least o + 1: state tokens
        # for an available agent; its own state tokens and the change tokens
        # it started for a pending one.  Short of that neither check can
        # fire, so most receives (which only enqueue) stop here.
        needed = self._run_length
        relevant = 0
        if len(queue) >= needed:
            if phase == AVAILABLE:
                for queued in queue:
                    if type(queued) is not ChangeToken:
                        relevant += 1
            else:
                for queued in queue:
                    kind = type(queued)
                    if (kind is JokerToken
                            or (kind is StateToken and queued.state == sim)
                            or (kind is ChangeToken and queued.starter_state == sim)):
                        relevant += 1
        if relevant < needed:
            if token is None:
                return reactor
            return _state(sim, phase, queue, owed)

        state_runs, change_runs, jokers = self._index(queue, sim)

        if phase == PENDING:
            # Preliminary check: a pending agent that sees its own
            # un-consumed state run retracts it.
            present = state_runs.get(sim, {})
            missing = [i for i in self._run_indices if i not in present]
            if len(missing) <= len(jokers):
                queue, owed = self._consume(
                    queue, owed, present, jokers, missing, self._state_run(sim)
                )
                phase = AVAILABLE
                state_runs, change_runs, jokers = self._index(queue, sim)

        # Core check.  When several runs could complete, the one needing the
        # fewest jokers (ties broken by repr) is consumed, so executions
        # stay deterministic.  ``partner`` is the simulated state of the
        # other side of the interaction: the starter's ``q`` for a reactor,
        # the reactor's old state for a pending starter.
        if phase == AVAILABLE:
            best = self._best_run(state_runs, len(jokers))
            if best is not None:
                partner, present, missing = best
                queue, owed = self._consume(
                    queue, owed, present, jokers, missing, self._state_run(partner)
                )
                queue += self._change_run(partner, sim)
                role, key, post_sim = REACTOR_ROLE, (partner, sim), self.delta(partner, sim)[1]
        else:
            best = self._best_run(change_runs, len(jokers))
            if best is not None:
                partner, present, missing = best
                queue, owed = self._consume(
                    queue, owed, present, jokers, missing, self._change_run(sim, partner)
                )
                phase = AVAILABLE
                role, key, post_sim = STARTER_ROLE, (sim, partner), self.delta(sim, partner)[0]
        if best is not None:
            if events is not None:
                events.append(SimulationEvent(
                    step=-1, agent=-1, role=role, pre_sim=sim, post_sim=post_sim,
                    partner_pre_sim=partner, key=key))
            sim = post_sim

        if token is None and best is None and phase == reactor.phase:
            return reactor  # nothing received, nothing consumed
        return _state(sim, phase, queue, owed)

    # .. run-completion search ..................................................................

    def _index(
        self, queue: Tuple, sim: State
    ) -> Tuple[Dict[State, RunIndex], Dict[State, RunIndex], List[int]]:
        """Index ``queue`` in one pass.

        Returns ``(state_runs, change_runs, jokers)``: ``state_runs[q]`` maps
        each index ``i`` to the position of the first ``<q, i>``;
        ``change_runs[r_old]`` does the same for the change tokens
        ``<(sim, r_old), i>`` whose starter state is ``sim``; ``jokers``
        lists the joker positions in queue order.
        """
        state_runs: Dict[State, RunIndex] = {}
        change_runs: Dict[State, RunIndex] = {}
        jokers: List[int] = []
        for position, token in enumerate(queue):
            kind = type(token)
            if kind is StateToken:
                present = state_runs.get(token.state)
                if present is None:
                    state_runs[token.state] = {token.index: position}
                elif token.index not in present:
                    present[token.index] = position
            elif kind is JokerToken:
                jokers.append(position)
            elif kind is ChangeToken and token.starter_state == sim:
                present = change_runs.get(token.reactor_old_state)
                if present is None:
                    change_runs[token.reactor_old_state] = {token.index: position}
                elif token.index not in present:
                    present[token.index] = position
        return state_runs, change_runs, jokers

    def _best_run(
        self, runs: Dict[State, RunIndex], available_jokers: int
    ) -> Optional[Tuple[State, RunIndex, List[int]]]:
        """The run that completes with the fewest jokers, ties broken by repr of its key.

        Returns ``(key, present, missing)``, where ``missing`` lists the run
        indices the jokers must fill, or ``None`` when no run can complete.
        """
        best: Optional[Tuple[State, RunIndex, List[int]]] = None
        indices = self._run_indices
        for key, present in runs.items():
            missing = [i for i in indices if i not in present]
            if len(missing) > available_jokers:
                continue
            if (
                best is None
                or len(missing) < len(best[2])
                or (len(missing) == len(best[2]) and repr(key) < repr(best[0]))
            ):
                best = (key, present, missing)
        return best

    @staticmethod
    def _consume(
        queue: Tuple,
        owed: Tuple,
        present: RunIndex,
        jokers: List[int],
        missing: List[int],
        run: Tuple,
    ) -> Tuple[Tuple, Tuple]:
        """Remove a completed ``run`` from ``queue`` and record joker substitutions.

        The run's present tokens and the first ``len(missing)`` jokers leave
        the queue; the slots the jokers filled join ``owed``, which stays
        repr-sorted.
        """
        queue = _without(queue, list(present.values()) + jokers[: len(missing)])
        if missing:
            owed = tuple(sorted(owed + tuple(run[i - 1] for i in missing), key=repr))
        return queue, owed

    # -- event extraction ----------------------------------------------------------------------------

    def step_events(self, step: TraceStep) -> Sequence[SimulationEvent]:
        """Replay the reactor-side pipeline of one trace step.

        ``g`` and the omission handlers never touch ``sim``, so only the
        reactor's :meth:`_receive` of the starter's outgoing token (or, on
        an ``I3`` omission, of the joker) can produce events.
        """
        if not step.interaction.is_omissive:
            token = self.outgoing_token(step.starter_pre)
        elif self.variant == VARIANT_I3:
            token = JOKER
        else:
            return ()
        events: List[SimulationEvent] = []
        self._receive(step.reactor_pre, token, events)
        return events
