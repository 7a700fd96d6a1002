"""The fast-path execution core shared by every engine entry point.

The seed engine threaded an immutable :class:`~repro.protocols.state.Configuration`
through the run — an O(n) tuple copy per interaction — and
``run_until_stable`` carried a hand-copied duplicate of the step loop that
had already drifted from :meth:`SimulationEngine.run`.  This module is now
the single implementation of the loop

    scheduler draw -> adversary injection -> model apply -> budget accounting

operating on an O(1) in-place :class:`~repro.protocols.state.MutableConfiguration`
buffer.  The engine's one run entry point,
:func:`repro.engine.convergence.run_until_stable`, drives it on the
python backend (through
:func:`~repro.engine.convergence.run_until_stable_core`).

Since the execution-backend split (:mod:`repro.engine.backends`) this loop
is, precisely, the **python backend**: the reference implementation of the
run semantics every other backend (currently the columnar numpy array
engine) must reproduce.  The budget/stop/truncation contract below is
therefore backend-independent; only the data representation and the RNG
streams differ across backends.

Three trace policies control what the run records:

``full``
    Every executed interaction is one row of a
    :class:`~repro.engine.trace.StepLog`; the result carries a complete
    :class:`Trace` over it, whose :class:`TraceStep` objects are built
    when it is first read.
``counts-only``
    No per-step allocation at all: only the step count, the omission count
    and the frozen final configuration survive.  This is the benchmark
    fast path.
``ring``
    The same rows, trimmed to the last ``ring_size`` steps once per chunk
    (a crash-dump style window); counts and the final configuration are
    exact.

Budget semantics (the seed had two subtly different accountings):

* a scheduled interaction is drawn from the scheduler only while at least
  one step of budget remains, and a drawn scheduled interaction is always
  executed — the scheduler never advances past an interaction that is then
  silently dropped;
* adversary injections execute *before* their scheduled interaction and
  count towards the budget; injections that would leave no budget for the
  scheduled interaction are discarded (the adversary's own omission budget
  is still consumed, exactly as a finite execution prefix truncates the
  rewritten run of Definitions 1 and 2);
* a stop condition may end the run mid-batch, in which case the remaining
  interactions of the batch (possibly including the scheduled one) are not
  executed.

Batched draws — one chunked loop for every run:

All runs consume the scheduler through the column draw
(:meth:`~repro.scheduling.scheduler.Scheduler.next_columns`), drawing up
to :data:`DEFAULT_CHUNK_SIZE` interactions per call as ``starters`` and
``reactors`` index columns, plus an omission column only for scripted
runs.  Because batched draws are bitwise identical to per-step draws (the
scheduler contract), chunking changes no executed interaction, count or
final configuration — only the Python-level overhead per step.

The loop itself makes as few Python calls per step as the run allows.
On a one-way model every ``NO_OMISSION`` step calls the program's
``(g, f)`` pair directly (``step.no_omission``, see
:meth:`~repro.interaction.models.InteractionModel.bind`); other steps go
through the model's validating step.  Omissions are counted per chunk,
and only the ``full`` and ``ring`` policies append a row per step to
their step log.  A convergence predicate with a
state-count shape (:meth:`IncrementalPredicate.as_state_count`) is
tracked inline by a :class:`Watch`, so a counts-only run of one calls
nothing per step but the transition and ``satisfies`` once per changed
state.

Runs with an adversary plan each drawn chunk through the adversary's one
batched protocol, ``plan_chunk_schedule_columns`` (see
:mod:`repro.adversary.omission`), given the remaining step budget: the
adversary returns a :class:`~repro.adversary.omission.ColumnSchedule` —
the kept injections as index columns, each tagged with the gap it executes
before, already truncated to the budget, with discarded injections still
charged against the adversary's own omission budget — and
:func:`merge_columns` merges them into the drawn columns by position.
The result is provably identical to consulting the per-step
:meth:`~repro.adversary.omission.OmissionAdversary.interactions_before`
at every scheduled draw (the contract pinned by
``tests/test_adversary_batching.py``).  Adversaries without a columns walk
of their own — duck-typed objects and registered third-party classes that
only implement ``interactions_before`` — go through the generic walk
(:func:`~repro.adversary.omission.plan_columns_per_step`) with the real
drawn chunk, so they still see the scheduled interaction they precede.

Chunks are clipped to the remaining budget (one scheduled draw consumes at
least one unit), so an adversary-free run that exhausts its budget never
over-draws.  Two events can end a run mid-chunk and leave the scheduler
advanced to the end of the current chunk: a *stop condition* firing, and
adversary injections consuming the budget before the chunk's last
scheduled interaction (the per-step loop would not have drawn those last
interactions at all).  Results — executed interactions, counts, traces,
final configurations — are unaffected in both cases because abandoned
draws and planned-but-unexecuted injections never execute.  On *budget
exhaustion* the adversary's plan walk stops consuming exactly where the
per-step loop would, so its end state is chunking-independent too.  On a
*stop condition*, however, the chunk was already planned when the stop
fired, so the adversary — like the scheduler — may have advanced its
internal state (RNG position, omission-budget counters such as
``total_injected``) up to the end of the current chunk.  That lookahead
is faithful to the paper's model — the run rewriters of Definitions 1
and 2 rewrite the run ahead of wherever a finite execution prefix stops —
and is observable only by inspecting or reusing (without ``reset()``) an
adversary object after an early-stopped run, which nothing in this
repository does: ``repeat_experiment``, the CLI and the registry's
``make_adversary`` all build fresh adversaries per run.  The contract is
pinned by ``tests/test_adversary_batching.py``
(``test_stop_mid_chunk_adversary_lookahead_is_chunk_bounded``).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.trace import StepLog
from repro.interaction.models import InteractionModel
from repro.interaction.omissions import NO_OMISSION, Omission
from repro.protocols.state import MutableConfiguration, State, StateInterner
from repro.scheduling.runs import interactions_from_columns
from repro.scheduling.scheduler import Columns, Scheduler

#: The selectable trace policies, in decreasing order of detail.
TRACE_POLICIES = ("full", "counts-only", "ring")

#: Scheduled interactions drawn per batched scheduler call.  Large enough to
#: amortize the per-chunk call overhead, small enough that a chunk's columns
#: stay cache-friendly.
DEFAULT_CHUNK_SIZE = 256

#: Deltas handed to incremental predicates: ``(agent, old_state, new_state)``
#: for every agent whose state actually changed at the step (0, 1 or 2 items).
StepDeltas = Tuple[Tuple[int, State, State], ...]

#: Step callback of a :class:`Watch`: ``(starter, reactor, starter_pre,
#: starter_post, reactor_pre, reactor_post) -> holds?`` after one executed
#: interaction.
StepCallback = Callable[[int, int, State, State, State, State], bool]


# ---------------------------------------------------------------------------
# step logs
# ---------------------------------------------------------------------------


def make_step_log(trace_policy: str, ring_size: Optional[int] = None,
                  interner: Optional[StateInterner] = None,
                  omissions: Optional[Sequence[Omission]] = None) -> Optional[StepLog]:
    """The :class:`StepLog` a run under ``trace_policy`` records into.

    ``full`` logs every step, ``ring`` the last ``ring_size`` (default
    64, on both backends), and ``counts-only`` logs nothing (``None``).
    ``interner`` and ``omissions`` are the array backend's decode tables
    (see :class:`StepLog`).
    """
    if trace_policy == "full":
        return StepLog(None, interner, omissions)
    if trace_policy == "counts-only":
        return None
    if trace_policy == "ring":
        return StepLog(64 if ring_size is None else ring_size, interner, omissions)
    raise ValueError(
        f"unknown trace policy {trace_policy!r}; expected one of {TRACE_POLICIES}"
    )


# ---------------------------------------------------------------------------
# incremental convergence predicates
# ---------------------------------------------------------------------------


class IncrementalPredicate:
    """A convergence predicate that consumes per-step deltas.

    A plain configuration predicate forces the convergence loop to rescan
    all n agents after every interaction, turning convergence detection into
    an O(n·T) scan.  Implementations of this protocol are primed once with
    the full initial configuration (:meth:`reset`) and then fold each step's
    ``(agent, old_state, new_state)`` deltas into their internal summary
    (:meth:`update`), making the per-step predicate check O(1).

    Both methods return whether the predicate currently holds.
    """

    #: Whether :meth:`update` actually reads its deltas.  The convergence
    #: loop skips building the delta tuple for implementations that set this
    #: to ``False`` (e.g. :class:`PredicateAdapter`, which rescans the live
    #: buffer instead), saving per-step allocations on the hot path.
    consumes_deltas = True

    def reset(self, configuration: Any) -> bool:
        """Prime the predicate from a full configuration (buffer or frozen)."""
        raise NotImplementedError

    def update(self, deltas: StepDeltas) -> bool:
        """Fold one step's state changes; called once per executed interaction."""
        raise NotImplementedError

    def as_state_count(self) -> Optional[Tuple[Callable[[State], bool], Optional[int]]]:
        """The predicate as a ``(satisfies, target)`` state-count shape, if any.

        Predicates of the form "the number of agents whose state satisfies
        ``satisfies`` equals ``target`` (``None``: all agents)" are
        *compilable*: the array backend
        (:mod:`repro.engine.backends.array_backend`) evaluates ``satisfies``
        once per interned state and tracks the count columnarly, and the
        python backend's loop (:func:`run_core`) updates the count inline
        instead of calling :meth:`update`.  Returning ``None`` (the
        default) marks the predicate as non-compilable; such predicates
        run only on the python backend, through :meth:`update`.

        ``satisfies`` must be a pure function of the state's *value*: equal
        states give equal answers, and calling it has no effect.  Both
        backends rely on that.  The array backend calls it once per
        interned state; the python loop skips it for a state object an
        interaction left unchanged, and counts a state replaced by an
        equal but distinct object as a zero delta.
        """
        return None


class AgentCountPredicate(IncrementalPredicate):
    """Holds when the number of agents satisfying ``satisfies`` equals ``target``.

    ``target=None`` means "all agents" (the usual stabilisation criterion:
    every agent outputs the expected value).  The per-agent test is
    evaluated n times at :meth:`reset` and then at most twice per step.
    """

    def __init__(self, satisfies: Callable[[State], bool], target: Optional[int] = None) -> None:
        self._satisfies = satisfies
        self._target = target
        self._count = 0
        self._n = 0

    def reset(self, configuration: Any) -> bool:
        satisfies = self._satisfies
        self._n = len(configuration)
        self._count = sum(1 for state in configuration if satisfies(state))
        return self._holds()

    def update(self, deltas: StepDeltas) -> bool:
        satisfies = self._satisfies
        for _agent, old_state, new_state in deltas:
            self._count += satisfies(new_state) - satisfies(old_state)
        return self._holds()

    def as_state_count(self) -> Optional[Tuple[Callable[[State], bool], Optional[int]]]:
        """State-count predicates are compilable by construction."""
        return self._satisfies, self._target

    def _holds(self) -> bool:
        target = self._n if self._target is None else self._target
        return self._count == target


class HistogramPredicate(IncrementalPredicate):
    """Holds when ``test`` accepts the histogram of ``key(state)`` over the agents.

    For criteria over the values the agents hold taken together — "every
    output is the same", "the values spread by at most one" — which no
    per-state test expresses.  The histogram (``{key: agents}``) is built
    at :meth:`reset` and moved by the step deltas; ``test`` runs only on
    steps that move a key, so a step costs O(1) plus, when a key moves,
    one ``test`` over the distinct keys.  ``key`` must be a pure function
    of the state's value with hashable results.  Not a state count, so
    the array backend rejects it.
    """

    def __init__(self, key: Callable[[State], Any],
                 test: Callable[[Dict[Any, int]], bool]) -> None:
        self._key = key
        self._test = test
        self._counts: Dict[Any, int] = {}
        self._holding = False

    def reset(self, configuration: Any) -> bool:
        counts: Dict[Any, int] = {}
        for value in map(self._key, configuration):
            counts[value] = counts.get(value, 0) + 1
        self._counts = counts
        self._holding = self._test(counts)
        return self._holding

    def update(self, deltas: StepDeltas) -> bool:
        key = self._key
        counts = self._counts
        moved = False
        for _agent, old_state, new_state in deltas:
            old, new = key(old_state), key(new_state)
            if old != new:
                counts[new] = counts.get(new, 0) + 1
                if counts[old] == 1:
                    del counts[old]
                else:
                    counts[old] -= 1
                moved = True
        if moved:
            self._holding = self._test(counts)
        return self._holding


def incremental_stable_output(
    program: Any, expected_output: Any, projection: Optional[Callable] = None
) -> AgentCountPredicate:
    """Incremental counterpart of :func:`repro.engine.convergence.stable_output_condition`.

    Holds when every agent's (optionally projected) output equals
    ``expected_output``, tracked as a running count instead of a full rescan.
    """
    output = program.output
    if projection is None:
        return AgentCountPredicate(lambda state: output(state) == expected_output)
    return AgentCountPredicate(
        lambda state: output(projection(state)) == expected_output
    )


class PredicateAdapter(IncrementalPredicate):
    """Wraps a plain configuration predicate in the incremental protocol.

    The wrapped predicate is re-evaluated against the live run buffer on
    every step, preserving the semantics (and the O(n) per-step cost) of
    predicates written against full configurations.
    """

    consumes_deltas = False

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        self._predicate = predicate
        self._view: Any = None

    def reset(self, configuration: Any) -> bool:
        self._view = configuration
        return self._predicate(configuration)

    def update(self, deltas: StepDeltas) -> bool:
        return self._predicate(self._view)


def as_incremental(predicate: Any) -> IncrementalPredicate:
    """Coerce a predicate to the incremental protocol (no-op when it already is)."""
    if isinstance(predicate, IncrementalPredicate):
        return predicate
    return PredicateAdapter(predicate)


# ---------------------------------------------------------------------------
# the shared step loop
# ---------------------------------------------------------------------------


class Watch:
    """The stop test :func:`run_core` applies after every executed interaction.

    The run stops once the watched predicate has held on ``needed``
    consecutive configurations.  ``streak`` is the length of the current
    run of satisfying configurations (the initial configuration counts
    when it satisfies) and ``first`` the step index that began it,
    meaningful while ``streak`` is positive.

    A *state-count* watch (:meth:`state_count`) holds when ``count``, the
    number of agents whose state satisfies ``satisfies``, equals
    ``target``.  It keeps one satisfies bit per agent in ``bits`` (so
    ``count`` is their sum); the loop updates both inline and calls
    ``satisfies`` once per state object an interaction replaced.  Any
    other watch calls its ``holds`` callback (a :data:`StepCallback`) once
    per interaction.
    """

    __slots__ = ("needed", "streak", "first", "holds", "satisfies", "bits", "count",
                 "target")

    def __init__(self, needed: int, holding: bool,
                 holds: Optional[StepCallback] = None,
                 satisfies: Optional[Callable[[State], Any]] = None,
                 bits: Optional[List[int]] = None, target: int = 0) -> None:
        self.needed = needed
        self.streak = 1 if holding else 0
        self.first: Optional[int] = 0 if holding else None
        self.holds = holds
        self.satisfies = satisfies
        self.bits = bits
        self.count = 0 if bits is None else sum(bits)
        self.target = target

    @classmethod
    def state_count(cls, satisfies: Callable[[State], Any], target: Optional[int],
                    configuration: Any, needed: int) -> "Watch":
        """Watch "``target`` agents (``None``: all) satisfy ``satisfies``".

        ``configuration`` is the run's initial configuration, in buffer
        order: ``bits[i]`` belongs to agent ``i``.
        """
        bits = [1 if satisfies(state) else 0 for state in configuration]
        target = len(configuration) if target is None else target
        return cls(needed, sum(bits) == target, satisfies=satisfies, bits=bits,
                   target=target)

    @property
    def met(self) -> bool:
        """Whether the predicate has held long enough to stop the run."""
        return self.streak >= self.needed


def merge_columns(
    starters: List[int], reactors: List[int], omissions: Optional[List[Omission]],
    schedule: Any, kinds: Sequence[Omission],
) -> Columns:
    """Execution order of a drawn chunk with ``schedule``'s injections merged in.

    The chunk is the columns ``starters``/``reactors``/``omissions`` of a
    scheduler draw (see
    :meth:`~repro.scheduling.scheduler.Scheduler.next_columns`).  Each kept
    injection runs before the scheduled interaction at its position, in
    schedule order, with omission ``kinds[kind]``; only the first
    ``schedule.consumed`` scheduled interactions run.  A chunk without
    injections is returned as is (or sliced); a chunk with injections
    always gets an omission column.
    """
    consumed = schedule.consumed
    if not schedule.positions:
        if consumed == len(starters):
            return starters, reactors, omissions
        return (starters[:consumed], reactors[:consumed],
                None if omissions is None else omissions[:consumed])
    merged_starters: List[int] = []
    merged_reactors: List[int] = []
    merged_omissions: List[Omission] = []
    cursor = 0

    def scheduled_until(position: int) -> None:
        merged_starters.extend(starters[cursor:position])
        merged_reactors.extend(reactors[cursor:position])
        if omissions is None:
            merged_omissions.extend(repeat(NO_OMISSION, position - cursor))
        else:
            merged_omissions.extend(omissions[cursor:position])

    for position, starter, reactor, kind in zip(
            schedule.positions, schedule.starters, schedule.reactors,
            schedule.kinds):
        if position > cursor:
            scheduled_until(position)
            cursor = position
        merged_starters.append(starter)
        merged_reactors.append(reactor)
        merged_omissions.append(kinds[kind])
    scheduled_until(consumed)
    return merged_starters, merged_reactors, merged_omissions


def plan_chunk(adversary: Any) -> Callable[..., Columns]:
    """The planner ``(step, starters, reactors, omissions, n, budget) ->
    columns`` that :func:`run_core` runs ``adversary`` through, once per
    drawn chunk.

    Adversaries with ``plan_chunk_schedule_columns`` (every catalog class)
    are asked for the chunk's ``len(starters)`` gaps — a finite scheduler
    may return a short chunk — with kinds indexing their
    ``_omissive_kinds``.  Any other adversary is walked through
    :func:`~repro.adversary.omission.plan_columns_per_step` over the real
    chunk as :class:`Interaction` objects, with
    :data:`~repro.adversary.omission.OMISSIONS` as its kinds.  Either
    schedule goes through :func:`merge_columns`.
    """
    # Imported lazily because the adversary package sits above the engine
    # in the layer map (its constructions import engine.py).
    from repro.adversary.omission import OMISSIONS, plan_columns_per_step

    columns = getattr(adversary, "plan_chunk_schedule_columns", None)
    kinds = OMISSIONS if columns is None else getattr(adversary, "_omissive_kinds", ())

    def planner(step: int, starters: List[int], reactors: List[int],
                omissions: Optional[List[Omission]], n: int,
                budget: Optional[int]) -> Columns:
        if columns is None:
            schedule = plan_columns_per_step(
                adversary, step,
                interactions_from_columns(starters, reactors, omissions),
                n, budget, kinds)
        else:
            schedule = columns(step, len(starters), n, budget)
        return merge_columns(starters, reactors, omissions, schedule, kinds)
    return planner


def run_core(
    program: Any,
    model: InteractionModel,
    scheduler: Scheduler,
    adversary: Optional[Any],
    buffer: MutableConfiguration,
    log: Optional[StepLog],
    max_steps: float,
    watch: Optional[Watch] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Tuple[int, bool, int, int]:
    """Execute up to ``max_steps`` interactions against ``buffer`` in place.

    This is the single step loop behind every public entry point: one
    chunked loop for adversary-present and adversary-free runs alike.
    Each chunk of up to ``chunk_size`` scheduled interactions is drawn as
    index columns; with an ``adversary`` it goes through :func:`plan_chunk`
    (its exact execution order, budget truncation applied).  Every
    executed interaction writes two buffer slots, dispatched as the module
    docstring describes, and appends one row to ``log`` (``None`` under
    ``counts-only``), which is trimmed once per chunk.

    With a ``watch``, the predicate is tested after every interaction and
    the run stops once it has held ``watch.needed`` times in a row; the
    watch's ``streak``/``first``/``count`` are left where the run ended.
    A state-count watch on a run that records no steps takes the inner
    loop that calls nothing per step but the transition and
    ``satisfies`` once per changed state; a state counts as changed when
    its object did (``post is not pre``), and the watch's ``bits`` hold
    the value of each agent's current state.

    Chunking never changes results — batched draws and column schedules
    are bitwise identical to their per-step counterparts — so
    ``chunk_size`` is purely a performance knob (``1`` reproduces the
    per-step loop exactly, including scheduler and adversary advancement
    on early stops; after a stop at larger chunk sizes, the scheduler's
    and adversary's *internal* positions may sit past the last executed
    interaction).  See the module docstring for the exact budget,
    batching, stop and exhaustion semantics.

    Returns ``(executed, stopped, chunks, omissions)``: the number of
    executed interactions, whether the watch stopped the run, the number
    of chunks drawn (scheduler calls) and the number of omissive
    interactions executed.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    # The program is resolved against the model once per run (see
    # InteractionModel.bind), not once per interaction.
    step = model.bind(program)
    g, f = getattr(step, "no_omission", (None, None))
    rows = None if log is None else log.rows
    # The raw list behind the buffer: indexing MutableConfiguration goes
    # through Python-level dunders, four calls per step that this loop is
    # hot enough to care about.  Predicates holding a reference to `buffer`
    # still observe every write (same list).
    states = buffer._states
    n = len(states)
    next_columns = scheduler.next_columns
    planner = None if adversary is None else plan_chunk(adversary)
    needed = streak = count = target = 0
    first: Optional[int] = None
    satisfies: Any = None
    bits: Any = None
    holds: Any = None
    if watch is not None:
        needed, streak, first = watch.needed, watch.streak, watch.first
        satisfies, count, target = watch.satisfies, watch.count, watch.target
        bits, holds = watch.bits, watch.holds
    counting_only = satisfies is not None and rows is None and g is not None

    executed = scheduler_step = chunks = omission_count = 0
    stopped = False
    infinite = max_steps == float("inf")
    while executed < max_steps:
        budget = max_steps - executed
        k = chunk_size if budget > chunk_size else int(budget)
        starters, reactors, omissions = next_columns(scheduler_step, k)
        drawn = len(starters)
        if planner is not None:
            starters, reactors, omissions = planner(
                scheduler_step, starters, reactors, omissions, n,
                None if infinite else int(budget))
        scheduler_step += drawn
        chunks += 1
        chunk_start = executed
        if counting_only and omissions is None:
            for starter, reactor in zip(starters, reactors):
                starter_pre = states[starter]
                reactor_pre = states[reactor]
                starter_post = g(starter_pre)
                reactor_post = f(starter_pre, reactor_pre)
                states[starter] = starter_post
                states[reactor] = reactor_post
                executed += 1
                if starter_post is not starter_pre:
                    bit = satisfies(starter_post)
                    count += bit - bits[starter]
                    bits[starter] = bit
                if reactor_post is not reactor_pre:
                    bit = satisfies(reactor_post)
                    count += bit - bits[reactor]
                    bits[reactor] = bit
                if count == target:
                    if not streak:
                        first = executed
                    streak += 1
                    if streak >= needed:
                        stopped = True
                        break
                else:
                    streak = 0
        else:
            for index in range(len(starters)):
                starter = starters[index]
                reactor = reactors[index]
                starter_pre = states[starter]
                reactor_pre = states[reactor]
                omission = NO_OMISSION if omissions is None else omissions[index]
                if omission is NO_OMISSION and g is not None:
                    starter_post = g(starter_pre)
                    reactor_post = f(starter_pre, reactor_pre)
                else:
                    starter_post, reactor_post = step(starter_pre, reactor_pre, omission)
                states[starter] = starter_post
                states[reactor] = reactor_post
                executed += 1
                if rows is not None:
                    rows += (starter, reactor, omission, starter_pre, reactor_pre,
                             starter_post, reactor_post)
                if watch is None:
                    continue
                if satisfies is not None:
                    if starter_post is not starter_pre:
                        bit = satisfies(starter_post)
                        count += bit - bits[starter]
                        bits[starter] = bit
                    if reactor_post is not reactor_pre:
                        bit = satisfies(reactor_post)
                        count += bit - bits[reactor]
                        bits[reactor] = bit
                    holding = count == target
                else:
                    holding = holds(starter, reactor, starter_pre, starter_post,
                                    reactor_pre, reactor_post)
                if holding:
                    if not streak:
                        first = executed
                    streak += 1
                    if streak >= needed:
                        stopped = True
                        break
                else:
                    streak = 0
            if log is not None:
                log.trim()
        if omissions is not None:
            omission_count += sum(
                1 for omission in omissions[:executed - chunk_start]
                if omission.is_omissive)
        if stopped or drawn < k:
            break  # a stop, or exhaustion mid-chunk (terminal by the scheduler contract)
    if watch is not None:
        watch.streak, watch.first, watch.count = streak, first, count
    return executed, stopped, chunks, omission_count
