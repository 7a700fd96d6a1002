"""The fast-path execution core shared by every engine entry point.

The seed engine threaded an immutable :class:`~repro.protocols.state.Configuration`
through the run — an O(n) tuple copy per interaction — and
``run_until_stable`` carried a hand-copied duplicate of the step loop that
had already drifted from :meth:`SimulationEngine.run`.  This module is now
the single implementation of the loop

    scheduler draw -> adversary injection -> model apply -> budget accounting

operating on an O(1) in-place :class:`~repro.protocols.state.MutableConfiguration`
buffer.  :meth:`SimulationEngine.run`, :meth:`SimulationEngine.replay` and
:func:`repro.engine.convergence.run_until_stable` are thin wrappers over
:func:`run_core`.

Since the execution-backend split (:mod:`repro.engine.backends`) this loop
is, precisely, the **python backend**: the reference implementation of the
run semantics every other backend (currently the columnar numpy array
engine) must reproduce.  The budget/stop/truncation contract below is
therefore backend-independent; only the data representation and the RNG
streams differ across backends.

Three trace policies control what the run records:

``full``
    Every executed interaction becomes a :class:`TraceStep`; the result
    carries a complete :class:`Trace` (the seed behaviour, but without the
    per-step configuration copies).
``counts-only``
    No per-step allocation at all: only the step count, the omission count
    and the frozen final configuration survive.  This is the benchmark
    fast path.
``ring``
    Only the last ``ring_size`` steps are kept (a crash-dump style window);
    counts and the final configuration are exact.

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

All runs consume the scheduler through the batched protocol
(:meth:`~repro.scheduling.scheduler.Scheduler.next_interactions`), drawing
up to :data:`DEFAULT_CHUNK_SIZE` interactions per call.  Because batched
draws are bitwise identical to per-step draws (the scheduler contract),
chunking changes no executed interaction, count or final configuration —
only the Python-level overhead per step.

Runs with an adversary feed each drawn chunk, together with the remaining
step budget, to the adversary's budget-aware batched protocol
(:meth:`~repro.adversary.omission.OmissionAdversary.plan_interactions`):
the adversary returns the chunk's exact execution order — injections
interleaved before their scheduled interaction, already truncated to the
budget, with discarded injections still charged against the adversary's
own omission budget — provably identical to consulting the per-step
:meth:`~repro.adversary.omission.OmissionAdversary.interactions_before`
at every scheduled draw (the contract pinned by
``tests/test_adversary_batching.py``).  Duck-typed adversaries that only
implement ``interactions_before`` are wrapped in the reference walk
(:func:`~repro.adversary.omission.plan_interactions_per_step`)
automatically.

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

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.engine.trace import Trace, TraceStep
from repro.interaction.models import InteractionModel
from repro.protocols.state import Configuration, MutableConfiguration, State
from repro.scheduling.runs import Interaction
from repro.scheduling.scheduler import Scheduler

if TYPE_CHECKING:  # the adversary layer sits above the engine; import for types only
    from repro.adversary.omission import ChunkPlan

#: The selectable trace policies, in decreasing order of detail.
TRACE_POLICIES = ("full", "counts-only", "ring")

#: Scheduled interactions drawn per batched scheduler call on adversary-free
#: runs.  Large enough to amortize the per-chunk call overhead, small enough
#: that a chunk of pending :class:`Interaction` objects stays cache-friendly.
DEFAULT_CHUNK_SIZE = 256

#: Deltas handed to incremental predicates: ``(agent, old_state, new_state)``
#: for every agent whose state actually changed at the step (0, 1 or 2 items).
StepDeltas = Tuple[Tuple[int, State, State], ...]

#: Step callback: ``(interaction, starter_pre, starter_post, reactor_pre,
#: reactor_post) -> stop?``.  Returning ``True`` ends the run.
StepCallback = Callable[[Interaction, State, State, State, State], bool]


# ---------------------------------------------------------------------------
# trace recorders
# ---------------------------------------------------------------------------


class FullRecorder:
    """Records every step; builds a complete :class:`Trace` at freeze time."""

    policy = "full"
    __slots__ = ("steps", "omissions")

    def __init__(self) -> None:
        self.steps: List[TraceStep] = []
        self.omissions = 0

    def record(
        self,
        interaction: Interaction,
        starter_pre: State,
        starter_post: State,
        reactor_pre: State,
        reactor_post: State,
    ) -> None:
        # interaction.omission.is_omissive, not the is_omissive property:
        # record() runs once per step and the descriptor call is measurable.
        if interaction.omission.is_omissive:
            self.omissions += 1
        self.steps.append(
            TraceStep(
                index=len(self.steps),
                interaction=interaction,
                starter_pre=starter_pre,
                starter_post=starter_post,
                reactor_pre=reactor_pre,
                reactor_post=reactor_post,
            )
        )

    def build_trace(self, initial: Configuration, final: Configuration) -> Optional[Trace]:
        return Trace.from_steps(initial, self.steps, final)

    def last_steps(self) -> Tuple[TraceStep, ...]:
        # The full step list is already reachable through the built trace;
        # duplicating it here would be an O(T) copy nobody consumes.
        return ()


class CountsOnlyRecorder:
    """Tracks only the omission count; allocates nothing per step."""

    policy = "counts-only"
    __slots__ = ("omissions",)

    def __init__(self) -> None:
        self.omissions = 0

    def record(self, interaction, starter_pre, starter_post, reactor_pre, reactor_post) -> None:
        if interaction.omission.is_omissive:
            self.omissions += 1

    def build_trace(self, initial: Configuration, final: Configuration) -> Optional[Trace]:
        return None

    def last_steps(self) -> Tuple[TraceStep, ...]:
        return ()


class RingRecorder:
    """Keeps the last ``ring_size`` steps; counts stay exact for the whole run.

    ``TraceStep.index`` is the global step index, so the window reports where
    in the run its steps occurred even after older steps were evicted.
    """

    policy = "ring"
    __slots__ = ("omissions", "_ring", "_count")

    def __init__(self, ring_size: int) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be at least 1")
        self.omissions = 0
        self._ring: deque = deque(maxlen=ring_size)
        self._count = 0

    def record(self, interaction, starter_pre, starter_post, reactor_pre, reactor_post) -> None:
        if interaction.omission.is_omissive:
            self.omissions += 1
        self._ring.append(
            TraceStep(
                index=self._count,
                interaction=interaction,
                starter_pre=starter_pre,
                starter_post=starter_post,
                reactor_pre=reactor_pre,
                reactor_post=reactor_post,
            )
        )
        self._count += 1

    def build_trace(self, initial: Configuration, final: Configuration) -> Optional[Trace]:
        return None  # the evicted prefix cannot be reconstructed

    def last_steps(self) -> Tuple[TraceStep, ...]:
        return tuple(self._ring)


def make_recorder(trace_policy: str, ring_size: Optional[int] = None) -> "FullRecorder | CountsOnlyRecorder | RingRecorder":
    """Build the recorder for ``trace_policy`` (one of :data:`TRACE_POLICIES`)."""
    if trace_policy == "full":
        return FullRecorder()
    if trace_policy == "counts-only":
        return CountsOnlyRecorder()
    if trace_policy == "ring":
        return RingRecorder(ring_size if ring_size is not None else 64)
    raise ValueError(
        f"unknown trace policy {trace_policy!r}; expected one of {TRACE_POLICIES}"
    )


# ---------------------------------------------------------------------------
# run result
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Outcome of a fast-path run under any trace policy."""

    policy: str
    steps: int
    omissions: int
    final_configuration: Configuration
    trace: Optional[Trace] = None
    last_steps: Tuple[TraceStep, ...] = ()
    stopped: bool = False


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
        once per interned state and tracks the count columnarly.  Returning
        ``None`` (the default) marks the predicate as non-compilable; such
        predicates run only on the python backend.
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


def run_core(
    program: Any,
    model: InteractionModel,
    scheduler: Scheduler,
    adversary: Optional[Any],
    buffer: MutableConfiguration,
    recorder: Any,
    max_steps: float,
    on_step: Optional[StepCallback] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Tuple[int, bool]:
    """Execute up to ``max_steps`` interactions against ``buffer`` in place.

    This is the single step loop behind every public entry point: one
    chunked loop for adversary-present and adversary-free runs alike.
    Scheduled interactions are drawn in chunks of up to ``chunk_size``
    through the batched scheduler protocol; with an ``adversary``, each
    chunk (plus the remaining budget) goes through the budget-aware
    injection protocol, which returns the chunk's exact execution order —
    injections before their scheduled interaction, budget truncation
    already applied.  Every executed interaction is applied through
    ``model`` with two O(1) buffer writes, its deltas are fed to
    ``recorder``, and ``on_step`` (when given) may end the run by
    returning ``True``.  Chunking never changes results — batched draws
    and chunk plans are bitwise identical to their per-step counterparts —
    so ``chunk_size`` is purely a performance knob (``1`` reproduces the
    per-step loop exactly, including scheduler and adversary advancement
    on early stops; after a stop-condition end at larger chunk sizes, the
    scheduler's and adversary's *internal* positions may sit past the
    last executed interaction).  See the module docstring for the exact
    budget, batching, stop and exhaustion semantics.

    Returns ``(executed, stopped)``: the number of executed interactions and
    whether ``on_step`` requested the stop.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    executed = 0
    scheduler_step = 0
    # The program is resolved against the model once per run (see
    # InteractionModel.bind), not once per interaction.
    step = model.bind(program)
    record = recorder.record
    # The raw list behind the buffer: indexing MutableConfiguration goes
    # through Python-level dunders, four calls per step that this loop is
    # hot enough to care about.  Predicates holding a reference to `buffer`
    # still observe every write (same list).
    states = buffer._states
    n = len(states)
    next_interactions = scheduler.next_interactions

    plan_chunk = None
    if adversary is not None:
        plan_chunk = getattr(adversary, "plan_interactions", None)
        if plan_chunk is None:
            # Duck-typed adversary speaking only the per-step protocol:
            # wrap it in the reference walk.  Imported lazily because the
            # adversary package sits above the engine in the layer map
            # (its constructions import engine.py).
            from repro.adversary.omission import plan_interactions_per_step

            def plan_chunk(step, chunk, n, budget, _adversary=adversary) -> "ChunkPlan":
                return plan_interactions_per_step(_adversary, step, chunk, n, budget)

    infinite = max_steps == float("inf")
    while executed < max_steps:
        budget = max_steps - executed
        k = chunk_size if budget > chunk_size else int(budget)
        chunk = next_interactions(scheduler_step, k)
        if plan_chunk is None:
            plan = chunk
        else:
            plan, _consumed, _discarded = plan_chunk(
                scheduler_step, chunk, n, None if infinite else int(budget)
            )
        scheduler_step += len(chunk)
        if on_step is None:
            for interaction in plan:
                starter = interaction.starter
                reactor = interaction.reactor
                starter_pre = states[starter]
                reactor_pre = states[reactor]
                starter_post, reactor_post = step(
                    starter_pre, reactor_pre, interaction.omission
                )
                states[starter] = starter_post
                states[reactor] = reactor_post
                record(interaction, starter_pre, starter_post, reactor_pre, reactor_post)
            executed += len(plan)
        else:
            for interaction in plan:
                starter = interaction.starter
                reactor = interaction.reactor
                starter_pre = states[starter]
                reactor_pre = states[reactor]
                starter_post, reactor_post = step(
                    starter_pre, reactor_pre, interaction.omission
                )
                states[starter] = starter_post
                states[reactor] = reactor_post
                record(interaction, starter_pre, starter_post, reactor_pre, reactor_post)
                executed += 1
                if on_step(
                    interaction, starter_pre, starter_post, reactor_pre, reactor_post
                ):
                    return executed, True
        if len(chunk) < k:
            break  # exhausted mid-chunk; terminal by the scheduler contract
    return executed, False
