"""The columnar numpy execution backend ("array engine").

Per-object Python execution tops out well below what n = 10^5..10^7
populations need: even the batched fast path pays an interpreted loop per
interaction.  This backend removes the per-step interpreter entirely for
the compilable subset of experiments:

* **Interning** — the program's finite state space is interned to dense
  codes ``0 .. k-1`` in the protocol's canonical ``state_order()``
  (:class:`~repro.protocols.state.StateInterner`), and the population
  becomes one columnar int array of codes.
* **Compilation** — the transition function is evaluated once per ordered
  state pair through the interaction model, producing two flat
  ``(k*k,)`` lookup tables (starter- and reactor-post codes).  After
  compilation, the protocol and model are never called again.
* **Chunked vectorized draws** — scheduler pairs arrive as whole index
  arrays from the numpy draw kernels (:mod:`repro.scheduling.array_draws`),
  one ``Generator.integers`` call per component per chunk.
* **Collision-free segments** — a chunk is split at the first step that
  reuses an agent already touched earlier in the segment; within a segment
  all agents are distinct, so gather → table lookup → scatter is *exactly*
  sequential execution.  Segment boundaries are found vectorially (one
  stable argsort of the chunk's agent indices); the expected segment length
  is Θ(√n), so the per-segment Python overhead vanishes as populations
  grow.
* **Incremental counts** — convergence predicates compile to a per-state
  membership mask; per-step satisfaction counts are a cumulative sum over
  the segment's mask deltas, and the stability-window streak is scanned
  vectorially.  Counts-only runs materialise no per-step objects at all.
* **Compiled adversary schedules** — the catalog omission adversaries
  (Bounded, NO, NO1, UO) speak the content-free columnar
  :meth:`~repro.adversary.omission.OmissionAdversary.plan_chunk_schedule_columns`
  protocol: per chunk they return gap positions plus kept injections as
  raw index lists, which one vectorized ``np.insert`` merges into the
  scheduler's index arrays.  Omissive transitions come from per-omission-kind table stacks
  tabulated at compile time, so injected interactions ride the same
  gather/scatter as scheduled ones.  The adversary's RNG and budget
  consumption is bit-identical to the python backend's plan walk.
* **Columnar ring traces** — under ``--trace-policy ring`` a rolling
  int64 buffer keeps the last ``K`` steps as code rows (agents, omission
  kind, pre/post codes), recorded per segment with two fancy-indexed
  writes and decoded through the :class:`StateInterner` only at dump
  time — crash forensics at n = 10^6 without per-step objects.

Equivalence contract (pinned by ``tests/test_array_backend.py`` and
``tests/test_array_adversary_equivalence.py``):

* the backend draws scheduler pairs from its own seeded ``PCG64`` streams —
  bitwise parity with the python backend's ``random.Random`` scheduler
  streams is out of scope — but adversary injections replay the *same*
  seeded ``random.Random`` walk as the python backend, so adversary RNG
  and budget end states match bit for bit;
* runs are bitwise self-reproducible (same seed, same result) and
  chunk-size independent (``chunk_size`` is purely a performance knob);
* budget, stop-condition and stability-window semantics are *exactly* the
  python backend's: a run stops after the first step whose configuration
  completes the required streak, and otherwise executes exactly
  ``max_steps`` interactions;
* on deterministic schedulers (round-robin) results — final
  configurations, step counts, omission counts, decoded ring windows —
  agree with the python backend bit for bit; on random schedulers they
  agree distributionally.

Everything non-compilable — unbounded state spaces, scripted/weighted
schedulers, adversaries outside the catalog classes, arbitrary
stop conditions and predicates, the ``full`` trace policy — raises
:class:`~repro.engine.backends.base.BackendCompileError` naming the first
failing ingredient and the flag that avoids it, so callers can fall back
to the python backend.  :func:`probe_compile` runs the same checks
without executing anything, returning the would-be error message — the
``auto`` backend resolution (:func:`repro.protocols.registry.resolve_backend`)
and ``repro list``'s array-compilable column are built on it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adversary.omission import (
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    NoOmissionAdversary,
    UOAdversary,
)
from repro.engine.backends.base import BackendCompileError, ExecutionBackend
from repro.engine.convergence import ConvergenceResult
from repro.engine.fastpath import RunResult
from repro.engine.trace import TraceStep
from repro.interaction.omissions import NO_OMISSION, Omission
from repro.obs.recorder import NULL_RECORDER, get_recorder
from repro.protocols.protocol import ProtocolError
from repro.protocols.state import (
    ArrayConfiguration,
    Configuration,
    InterningError,
    State,
    StateInterner,
)
from repro.scheduling.array_draws import ArrayDrawKernel, compile_scheduler
from repro.scheduling.runs import Interaction

#: Scheduler pairs drawn per chunk.  Larger than the python backend's chunk:
#: a chunk only bounds working-set size here, the real batching unit is the
#: collision-free segment (expected length Θ(√n)) inside it.
DEFAULT_ARRAY_CHUNK = 4096

#: Hard cap on interned state spaces: compilation evaluates k^2 transitions
#: and the flat tables hold 2·k^2 int32 entries, so "small finite state
#: space" is enforced rather than assumed.
MAX_INTERNED_STATES = 1024


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


class CompiledProgram:
    """A program × model pair compiled to flat transition lookup tables.

    ``delta_starter[s * k + r]`` / ``delta_reactor[s * k + r]`` are the
    post-interaction codes of an omission-free ``(s, r)`` interaction.
    """

    __slots__ = ("interner", "size", "delta_starter", "delta_reactor")

    def __init__(self, interner: StateInterner, delta_starter, delta_reactor) -> None:
        self.interner = interner
        self.size = len(interner)
        self.delta_starter = delta_starter
        self.delta_reactor = delta_reactor


def compile_program(program: Any, model: Any) -> CompiledProgram:
    """Intern the program's states and tabulate its transitions under ``model``.

    Raises :class:`BackendCompileError` when the program has no finite
    canonical state order, the state space exceeds
    :data:`MAX_INTERNED_STATES`, or a transition leaves the declared state
    space.
    """
    order = getattr(program, "state_order", None)
    if order is None:
        raise BackendCompileError(
            f"program {type(program).__name__} exposes no state_order(); the "
            "array backend only runs programs with a finite, canonically "
            "ordered state space (all catalog protocols and the trivial "
            "TW simulator qualify); run it with --engine-backend python"
        )
    try:
        states = tuple(order())
    except ProtocolError as error:
        raise BackendCompileError(
            f"program {type(program).__name__} cannot be compiled for the "
            f"array backend: {error} (simulators with unbounded composite "
            "state spaces need --engine-backend python)"
        ) from None
    if len(states) > MAX_INTERNED_STATES:
        raise BackendCompileError(
            f"program {type(program).__name__} has {len(states)} states; the "
            f"array backend tabulates k^2 transitions and caps k at "
            f"{MAX_INTERNED_STATES}; run it with --engine-backend python"
        )
    interner = StateInterner(states)
    size = len(interner)
    delta_starter = np.empty(size * size, dtype=np.int32)
    delta_reactor = np.empty(size * size, dtype=np.int32)
    step = model.bind(program)
    encode = interner.encode
    for i, starter in enumerate(interner.states):
        base = i * size
        for j, reactor in enumerate(interner.states):
            starter_post, reactor_post = step(starter, reactor, NO_OMISSION)
            try:
                delta_starter[base + j] = encode(starter_post)
                delta_reactor[base + j] = encode(reactor_post)
            except InterningError:
                raise BackendCompileError(
                    f"transition ({starter!r}, {reactor!r}) -> "
                    f"({starter_post!r}, {reactor_post!r}) of program "
                    f"{type(program).__name__} leaves its declared state "
                    "space; the array backend requires a closed transition "
                    "table"
                ) from None
    return CompiledProgram(interner, delta_starter, delta_reactor)


def _compile_predicate(
    predicate: Any, interner: StateInterner, population: int
) -> Tuple[np.ndarray, int]:
    """Compile a convergence predicate to ``(per-state mask, target count)``.

    Only state-count predicates compile (the
    :meth:`~repro.engine.fastpath.IncrementalPredicate.as_state_count`
    protocol): satisfaction is then a running count over the mask, updated
    per segment with a cumulative sum.
    """
    as_state_count = getattr(predicate, "as_state_count", None)
    shape = as_state_count() if callable(as_state_count) else None
    if shape is None:
        raise BackendCompileError(
            f"predicate {type(predicate).__name__} cannot be compiled for "
            "the array backend; express it as a state-count predicate "
            "(repro.engine.fastpath.AgentCountPredicate) or run it with "
            "--engine-backend python"
        )
    satisfies, target = shape
    mask = np.fromiter(
        (1 if satisfies(state) else 0 for state in interner.states),
        dtype=np.int64,
        count=len(interner),
    )
    return mask, (population if target is None else int(target))


#: The adversary classes with an array lowering.  Exact types, not
#: ``isinstance``: a subclass may override the per-step protocol in ways
#: the schedule protocol does not mirror, so unknown subclasses fall back
#: to the python backend instead of silently diverging.
ARRAY_COMPILED_ADVERSARIES: Tuple[type, ...] = (
    NoOmissionAdversary,
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    UOAdversary,
)


class CompiledAdversary:
    """An omission adversary lowered to per-kind transition table stacks.

    ``starter_stack[row]`` / ``reactor_stack[row]`` are flat ``(k*k,)``
    post-code tables: row 0 is the omission-free table (shared with the
    :class:`CompiledProgram`), row ``kind_row[omission]`` the table of that
    omissive kind.  A merged chunk executes with one 2-D gather
    ``stack[kinds, flat]``; pass-through chunks keep the 1-D hot path.
    The live ``adversary`` object supplies the per-chunk
    :class:`~repro.adversary.omission.ColumnSchedule` (its RNG/budget
    state advances exactly as on the python backend).
    """

    __slots__ = ("adversary", "kind_row", "kind_omissions", "starter_stack", "reactor_stack")

    def __init__(self, adversary: Any, kind_row: Dict[Omission, int],
                 kind_omissions: Tuple[Omission, ...],
                 starter_stack: np.ndarray, reactor_stack: np.ndarray) -> None:
        self.adversary = adversary
        self.kind_row = kind_row
        self.kind_omissions = kind_omissions
        self.starter_stack = starter_stack
        self.reactor_stack = reactor_stack


def compile_adversary(
    adversary: Optional[Any], program: Any, model: Any, compiled: CompiledProgram
) -> Optional[CompiledAdversary]:
    """Lower ``adversary`` to per-omission-kind table stacks (``None``: no-op).

    Raises :class:`BackendCompileError` for adversary classes without an
    array lowering and for omissive transitions that leave the declared
    state space.
    """
    if adversary is None or type(adversary) is NoOmissionAdversary:
        return None
    if type(adversary) not in ARRAY_COMPILED_ADVERSARIES:
        raise BackendCompileError(
            f"adversary {type(adversary).__name__} has no array lowering "
            "(the array backend compiles the catalog adversaries: "
            "NoOmission, Bounded, NO, NO1, UO); run it with "
            "--engine-backend python"
        )
    kinds = tuple(adversary._omissive_kinds)
    size = compiled.size
    starter_stack = np.empty((1 + len(kinds), size * size), dtype=np.int32)
    reactor_stack = np.empty((1 + len(kinds), size * size), dtype=np.int32)
    starter_stack[0] = compiled.delta_starter
    reactor_stack[0] = compiled.delta_reactor
    step = model.bind(program)
    encode = compiled.interner.encode
    states = compiled.interner.states
    for row, omission in enumerate(kinds, start=1):
        for i, starter in enumerate(states):
            base = i * size
            for j, reactor in enumerate(states):
                starter_post, reactor_post = step(starter, reactor, omission)
                try:
                    starter_stack[row, base + j] = encode(starter_post)
                    reactor_stack[row, base + j] = encode(reactor_post)
                except InterningError:
                    raise BackendCompileError(
                        f"omissive transition ({starter!r}, {reactor!r}) "
                        f"under {omission} of program "
                        f"{type(program).__name__} leaves its declared "
                        "state space; the array backend requires closed "
                        "omissive transition tables (run it with "
                        "--engine-backend python)"
                    ) from None
    kind_row = {omission: row for row, omission in enumerate(kinds, start=1)}
    return CompiledAdversary(
        adversary, kind_row, (NO_OMISSION,) + kinds, starter_stack, reactor_stack
    )


#: Default crash-dump window under ``--trace-policy ring`` (the python
#: backend's :func:`~repro.engine.fastpath.make_recorder` default).
DEFAULT_RING_SIZE = 64

#: Columns of the ring buffer's code rows.
_RING_COLUMNS = 7  # starter agent, reactor agent, kind row, s_pre, r_pre, s_post, r_post


class _RingBuffer:
    """Rolling columnar window over the last ``capacity`` executed steps.

    Rows are int64 code septuples (agents, omission-kind row, pre/post
    codes for both participants) written per collision-free segment with
    two fancy-indexed assignments; nothing is decoded until
    :meth:`last_steps` renders the window as the python backend's
    :class:`~repro.engine.trace.TraceStep` tuple (bit-identical on
    deterministic schedulers).
    """

    __slots__ = ("capacity", "buffer", "count")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ring_size must be at least 1")
        self.capacity = capacity
        self.buffer = np.empty((capacity, _RING_COLUMNS), dtype=np.int64)
        self.count = 0

    def record(
        self,
        starter_idx: np.ndarray,
        reactor_idx: np.ndarray,
        kinds: Optional[np.ndarray],
        starter_pre: np.ndarray,
        reactor_pre: np.ndarray,
        starter_post: np.ndarray,
        reactor_post: np.ndarray,
    ) -> None:
        """Append one executed segment (only its last ``capacity`` steps land)."""
        length = len(starter_idx)
        if length == 0:
            return
        capacity = self.capacity
        offset = length - capacity if length > capacity else 0
        rows = (self.count + np.arange(offset, length, dtype=np.int64)) % capacity
        buffer = self.buffer
        buffer[rows, 0] = starter_idx[offset:]
        buffer[rows, 1] = reactor_idx[offset:]
        buffer[rows, 2] = 0 if kinds is None else kinds[offset:]
        buffer[rows, 3] = starter_pre[offset:]
        buffer[rows, 4] = reactor_pre[offset:]
        buffer[rows, 5] = starter_post[offset:]
        buffer[rows, 6] = reactor_post[offset:]
        self.count += length

    def last_steps(
        self, interner: StateInterner, kind_omissions: Tuple[Omission, ...]
    ) -> Tuple[TraceStep, ...]:
        """Decode the window, oldest first, through the interner."""
        used = self.count if self.count < self.capacity else self.capacity
        if used == 0:
            return ()
        first = self.count - used
        rows = (first + np.arange(used, dtype=np.int64)) % self.capacity
        data = self.buffer[rows]
        states = interner.states
        steps = []
        for offset in range(used):
            starter, reactor, kind, s_pre, r_pre, s_post, r_post = (
                int(value) for value in data[offset]
            )
            steps.append(TraceStep(
                index=first + offset,
                interaction=Interaction(
                    starter, reactor, omission=kind_omissions[kind]),
                starter_pre=states[s_pre],
                starter_post=states[s_post],
                reactor_pre=states[r_pre],
                reactor_post=states[r_post],
            ))
        return tuple(steps)


def _check_run_request(trace_policy: str, max_steps: float) -> int:
    """Validate the backend-independent run ingredients; returns the budget."""
    if trace_policy not in ("counts-only", "ring"):
        raise BackendCompileError(
            f"trace policy {trace_policy!r} is not supported by the array "
            "backend (full per-step records would defeat columnar "
            "execution); use --trace-policy counts-only (or ring for crash "
            "dumps) or --engine-backend python"
        )
    if not math.isfinite(max_steps) or max_steps < 0:
        raise BackendCompileError(
            "the array backend needs a finite, non-negative step budget"
        )
    return int(max_steps)


# ---------------------------------------------------------------------------
# the columnar step loop
# ---------------------------------------------------------------------------


def _per_step_collision_horizon(starters: np.ndarray, reactors: np.ndarray) -> np.ndarray:
    """For each step of a chunk, the latest earlier step sharing an agent.

    ``horizon[t] == p`` means step ``t`` touches an agent last touched at
    step ``p`` of the same chunk (``-1``: none).  A slice ``[u, v)`` is
    collision-free — safe to execute as one vectorized gather/scatter —
    iff ``horizon[t] < u`` for all ``t`` in it.

    Computed with one value sort of ``(agent << shift) | position``
    composite keys over the chunk's interleaved agent indices: sorting
    brings equal agents together ordered by position, and the low bits
    recover each occurrence's predecessor.  A composite ``np.sort`` is
    ~5x faster than the equivalent stable ``np.argsort`` + gathers, and
    this function is the dominant fixed cost of the columnar loop.
    """
    k = len(starters)
    two_k = 2 * k
    shift = two_k.bit_length()
    agents = np.empty(two_k, dtype=np.int64)
    agents[0::2] = starters
    agents[1::2] = reactors
    keys = (agents << shift) | np.arange(two_k, dtype=np.int64)
    keys.sort()
    position = keys & ((1 << shift) - 1)
    same = (keys[1:] >> shift) == (keys[:-1] >> shift)
    previous = np.full(two_k, -1, dtype=np.int64)
    previous[position[1:][same]] = position[:-1][same]
    previous //= 2  # interleaved position -> step index (-1 stays -1)
    return np.maximum(previous[0::2], previous[1::2])


class _CountStreakTracker:
    """Running predicate count + consecutive-hold streak across segments.

    Mirrors the python backend's convergence loop state: ``count`` is the
    number of agents currently satisfying the predicate, ``consecutive``
    the number of consecutive configurations (including the initial one)
    for which ``count == target_count`` has held.
    """

    __slots__ = ("mask", "target_count", "streak_target", "count", "consecutive")

    def __init__(self, mask, target_count: int, streak_target: int,
                 count: int, consecutive: int) -> None:
        self.mask = mask
        self.target_count = target_count
        self.streak_target = streak_target
        self.count = count
        self.consecutive = consecutive

    def scan(self, starter_pre, reactor_pre, starter_post, reactor_post) -> Optional[int]:
        """Fold one collision-free segment; returns the stop offset, if any.

        The returned offset ``t`` is the first step of the segment after
        which the streak reaches ``streak_target`` (the python loop's stop
        point); ``None`` means the segment completes without converging and
        the running count/streak were advanced past it.
        """
        mask = self.mask
        deltas = (
            mask[starter_post] - mask[starter_pre]
            + mask[reactor_post] - mask[reactor_pre]
        )
        counts = self.count + np.cumsum(deltas)
        holds = counts == self.target_count
        length = len(holds)
        indices = np.arange(length, dtype=np.int64)
        last_miss = np.maximum.accumulate(np.where(holds, -1, indices))
        streaks = np.where(
            last_miss < 0, indices + 1 + self.consecutive, indices - last_miss
        )
        hits = np.nonzero(streaks >= self.streak_target)[0]
        if hits.size:
            return int(hits[0])
        if length:
            self.count = int(counts[-1])
            self.consecutive = int(streaks[-1])
        return None


def _merge_injections(
    schedule: Any,
    starters: np.ndarray,
    reactors: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Merge a :class:`ColumnSchedule` into a chunk's index arrays.

    ``np.insert`` with repeated positions inserts values in order at each
    position, which is exactly the schedule's contract (injections execute
    before their scheduled gap, in production order).  The schedule's kind
    indices follow the adversary's omissive-kind tuple — the same order
    :func:`compile_adversary` stacked the tables in — so table-stack row is
    kind index + 1.  Returns the merged ``(starters, reactors, kinds)``
    with ``kinds[t]`` the table-stack row of step ``t`` (0 =
    scheduled/omission-free); ``kinds`` is ``None`` for pass-through
    chunks so the caller keeps the 1-D gather hot path.
    """
    consumed = schedule.consumed
    if consumed < len(starters):
        starters = starters[:consumed]
        reactors = reactors[:consumed]
    if not schedule.starters:
        return starters, reactors, None
    positions = np.asarray(schedule.positions, dtype=np.int64)
    inj_starters = np.asarray(schedule.starters, dtype=np.int64)
    inj_reactors = np.asarray(schedule.reactors, dtype=np.int64)
    inj_kinds = np.asarray(schedule.kinds, dtype=np.int64) + 1
    merged_starters = np.insert(np.asarray(starters, dtype=np.int64),
                                positions, inj_starters)
    merged_reactors = np.insert(np.asarray(reactors, dtype=np.int64),
                                positions, inj_reactors)
    kinds = np.insert(np.zeros(consumed, dtype=np.int64), positions, inj_kinds)
    return merged_starters, merged_reactors, kinds


def _run_columnar(
    codes: np.ndarray,
    kernel: ArrayDrawKernel,
    compiled: CompiledProgram,
    max_steps: int,
    chunk_size: int,
    tracker: Optional[_CountStreakTracker] = None,
    adversary: Optional[CompiledAdversary] = None,
    ring: Optional[_RingBuffer] = None,
) -> Tuple[int, int, bool]:
    """Execute up to ``max_steps`` interactions against ``codes`` in place.

    Returns ``(executed, omissions, stopped)`` with the exact semantics of
    :func:`repro.engine.fastpath.run_core`: chunks are clipped to the
    remaining budget, adversary injections (planned per chunk through the
    content-free schedule protocol) execute before their scheduled
    interaction and count towards the budget, and a streak hit stops the
    run immediately after the completing step (later draws of the chunk
    are discarded unexecuted).  The scheduler stream advances by *drawn*
    interactions — one chunk of ``k`` draws per iteration — matching the
    python loop's ``scheduler_step`` accounting under injections.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    size = compiled.size
    delta_starter = compiled.delta_starter
    delta_reactor = compiled.delta_reactor
    n = len(codes)
    executed = 0
    scheduler_step = 0
    omissions = 0
    # Segment telemetry is folded locally (two int adds per segment, which
    # already costs several numpy kernels) and recorded once per run, so
    # the NullRecorder path pays one identity check per run here.
    obs = get_recorder()
    segments = 0
    segment_steps = 0
    while executed < max_steps:
        remaining = max_steps - executed
        k = chunk_size if remaining > chunk_size else remaining
        starters, reactors = kernel.draw(scheduler_step, k)
        scheduler_step += k
        kinds = None
        injected = 0
        if adversary is not None:
            schedule = adversary.adversary.plan_chunk_schedule_columns(
                scheduler_step - k, k, n, remaining)
            injected = len(schedule.starters)
            starters, reactors, kinds = _merge_injections(
                schedule, starters, reactors)
        total = len(starters)
        horizon = _per_step_collision_horizon(starters, reactors)
        start = 0
        while start < total:
            conflicts = np.nonzero(horizon[start:] >= start)[0]
            end = start + int(conflicts[0]) if conflicts.size else total
            segments += 1
            segment_steps += end - start
            starter_idx = starters[start:end]
            reactor_idx = reactors[start:end]
            seg_kinds = kinds[start:end] if kinds is not None else None
            starter_pre = codes[starter_idx]
            reactor_pre = codes[reactor_idx]
            flat = starter_pre * size + reactor_pre
            if seg_kinds is None:
                starter_post = delta_starter[flat]
                reactor_post = delta_reactor[flat]
            else:
                starter_post = adversary.starter_stack[seg_kinds, flat]
                reactor_post = adversary.reactor_stack[seg_kinds, flat]
            if tracker is not None:
                stop_at = tracker.scan(
                    starter_pre, reactor_pre, starter_post, reactor_post
                )
                if stop_at is not None:
                    keep = stop_at + 1
                    codes[starter_idx[:keep]] = starter_post[:keep]
                    codes[reactor_idx[:keep]] = reactor_post[:keep]
                    if ring is not None:
                        ring.record(
                            starter_idx[:keep], reactor_idx[:keep],
                            None if seg_kinds is None else seg_kinds[:keep],
                            starter_pre[:keep], reactor_pre[:keep],
                            starter_post[:keep], reactor_post[:keep])
                    if kinds is not None:
                        omissions += int((kinds[:start + keep] != 0).sum())
                    if obs is not NULL_RECORDER:
                        _record_segments(obs, segments, segment_steps)
                    return executed + start + keep, omissions, True
            codes[starter_idx] = starter_post
            codes[reactor_idx] = reactor_post
            if ring is not None:
                ring.record(starter_idx, reactor_idx, seg_kinds,
                            starter_pre, reactor_pre,
                            starter_post, reactor_post)
            start = end
        omissions += injected
        executed += total
    if obs is not NULL_RECORDER:
        _record_segments(obs, segments, segment_steps)
    return executed, omissions, False


def _record_segments(obs: Any, segments: int, segment_steps: int) -> None:
    """Fold one columnar run's collision-free-segment telemetry."""
    obs.counter("engine.array.segments", segments)
    if segments:
        obs.observe("engine.array.segment_size", segment_steps / segments)


# ---------------------------------------------------------------------------
# the backend object
# ---------------------------------------------------------------------------


#: Per-process memo of compiled programs and encoded initial configurations,
#: keyed by object identity with ``is``-verification on lookup (entries hold
#: strong references to their key objects, so a cached id can never be
#: recycled while its entry is live).  Program, model and initial
#: configuration are shared across the runs of one built experiment (see
#: ``repro.protocols.registry.build_cached``), so a worker executing many
#: runs of the same spec tabulates transitions and interns the O(n) initial
#: configuration once instead of per run — on short runs at large n those
#: were the dominant per-run cost.  Lifetime mirrors ``_BUILD_CACHE``: one
#: entry per built experiment per process.
_COMPILE_CACHE: "Dict[int, Tuple[Any, Any, CompiledProgram]]" = {}
_INITIAL_CODES_CACHE: "Dict[int, Tuple[Any, CompiledProgram, np.ndarray]]" = {}


class ArrayBackend(ExecutionBackend):
    """Columnar numpy execution for small-finite-state protocols."""

    name = "array"

    # -- shared setup --------------------------------------------------------

    def _compile_run(self, program, model, scheduler, initial_configuration) -> "Tuple[CompiledProgram, ArrayDrawKernel, np.ndarray]":
        obs = get_recorder()
        cached = _COMPILE_CACHE.get(id(program))
        if cached is not None and cached[0] is program and cached[1] is model:
            compiled = cached[2]
            if obs is not NULL_RECORDER:
                obs.counter("engine.array.compile_cache.hit")
        else:
            compiled = compile_program(program, model)
            _COMPILE_CACHE[id(program)] = (program, model, compiled)
            if obs is not NULL_RECORDER:
                obs.counter("engine.array.compile_cache.miss")
        # The kernel carries the scheduler's draw-stream position, so it
        # must live exactly as long as the scheduler: repeated runs on one
        # engine continue the stream (as the python backend's random.Random
        # state does) instead of replaying it from the seed.  Stored on the
        # scheduler instance; Scheduler.reset() drops it, restoring the
        # replay-from-step-0 semantics reset() has on the python backend.
        kernel = getattr(scheduler, "_array_kernel", None)
        if kernel is None:
            kernel = compile_scheduler(scheduler)
            scheduler._array_kernel = kernel
        entry = _INITIAL_CODES_CACHE.get(id(initial_configuration))
        if entry is not None and entry[0] is initial_configuration \
                and entry[1] is compiled:
            pristine = entry[2]
        else:
            try:
                pristine = np.asarray(
                    compiled.interner.encode_all(initial_configuration),
                    dtype=np.int32,
                )
            except InterningError as error:
                raise BackendCompileError(
                    f"initial configuration cannot be interned for the array "
                    f"backend: {error}; run it with --engine-backend python"
                ) from None
            _INITIAL_CODES_CACHE[id(initial_configuration)] = (
                initial_configuration, compiled, pristine)
        # Runs mutate their code array in place; every run gets its own copy
        # of the pristine encoding.
        return compiled, kernel, pristine.copy()

    @staticmethod
    def _freeze(codes: np.ndarray, interner: StateInterner) -> Configuration:
        # Equivalent to ArrayConfiguration(codes, interner).freeze(), but
        # decoding through an object-dtype take is much faster at n >= 10^6.
        lookup = np.empty(len(interner), dtype=object)
        for code, state in enumerate(interner.states):
            lookup[code] = state
        return Configuration(lookup[codes].tolist())

    @staticmethod
    def _count_export(codes: np.ndarray,
                      interner: StateInterner) -> Tuple[Tuple[State, int], ...]:
        # The columnar count export consumed by the shm result transport
        # (repro.engine.transport): one bincount over the code array, no
        # detour through the frozen python-object configuration.  Zero
        # counts are dropped so the export is an anonymous multiset view,
        # identical to Configuration.histogram() up to ordering.
        counts = np.bincount(codes, minlength=len(interner))
        return tuple(
            (state, int(counts[code]))
            for code, state in enumerate(interner.states)
            if counts[code])

    def view(self, codes: np.ndarray, interner: StateInterner) -> ArrayConfiguration:
        """A live read-only view over a run's code array (for diagnostics)."""
        return ArrayConfiguration(codes, interner)

    # -- entry points --------------------------------------------------------

    def execute(
        self,
        program: Any,
        model: Any,
        scheduler: Any,
        adversary: Optional[Any],
        initial_configuration: Configuration,
        max_steps: int,
        stop_condition: Optional[Callable[[Any], bool]] = None,
        *,
        trace_policy: str = "counts-only",
        ring_size: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> RunResult:
        budget = _check_run_request(trace_policy, max_steps)
        if stop_condition is not None:
            raise BackendCompileError(
                "arbitrary stop conditions cannot be compiled for the array "
                "backend; use run_until_stable with a state-count predicate "
                "or --engine-backend python"
            )
        compiled, kernel, codes = self._compile_run(
            program, model, scheduler, initial_configuration
        )
        compiled_adversary = compile_adversary(adversary, program, model, compiled)
        ring = None
        if trace_policy == "ring":
            ring = _RingBuffer(ring_size if ring_size is not None else DEFAULT_RING_SIZE)
        executed, omissions, _stopped = _run_columnar(
            codes, kernel, compiled, budget,
            chunk_size if chunk_size is not None else DEFAULT_ARRAY_CHUNK,
            adversary=compiled_adversary,
            ring=ring,
        )
        return RunResult(
            policy=trace_policy,
            steps=executed,
            omissions=omissions,
            final_configuration=self._freeze(codes, compiled.interner),
            trace=None,
            last_steps=self._dump_ring(ring, compiled, compiled_adversary),
            stopped=False,
        )

    @staticmethod
    def _dump_ring(
        ring: Optional[_RingBuffer],
        compiled: CompiledProgram,
        compiled_adversary: Optional[CompiledAdversary],
    ) -> Tuple[TraceStep, ...]:
        if ring is None:
            return ()
        kind_omissions = (
            (NO_OMISSION,) if compiled_adversary is None
            else compiled_adversary.kind_omissions
        )
        return ring.last_steps(compiled.interner, kind_omissions)

    def run_until_stable(
        self,
        program: Any,
        model: Any,
        scheduler: Any,
        adversary: Optional[Any],
        initial_configuration: Configuration,
        predicate: Any,
        max_steps: int = 100_000,
        stability_window: int = 0,
        *,
        trace_policy: str = "counts-only",
        ring_size: Optional[int] = None,
        chunk_size: Optional[int] = None,
        materialize_final: bool = True,
    ) -> ConvergenceResult:
        budget = _check_run_request(trace_policy, max_steps)
        compiled, kernel, codes = self._compile_run(
            program, model, scheduler, initial_configuration
        )
        compiled_adversary = compile_adversary(adversary, program, model, compiled)
        mask, target_count = _compile_predicate(
            predicate, compiled.interner, len(codes)
        )
        streak_target = stability_window + 1

        count = int(mask[codes].sum())
        consecutive = 1 if count == target_count else 0
        if consecutive >= streak_target:
            return ConvergenceResult(
                converged=True,
                steps_executed=0,
                steps_to_convergence=0,
                trace=None,
                final=initial_configuration,
                omissions=0,
                last_steps=(),
                final_counts=self._count_export(codes, compiled.interner),
            )

        ring = None
        if trace_policy == "ring":
            ring = _RingBuffer(ring_size if ring_size is not None else DEFAULT_RING_SIZE)
        tracker = _CountStreakTracker(
            mask, target_count, streak_target, count, consecutive
        )
        executed, omissions, stopped = _run_columnar(
            codes, kernel, compiled, budget,
            chunk_size if chunk_size is not None else DEFAULT_ARRAY_CHUNK,
            tracker=tracker,
            adversary=compiled_adversary,
            ring=ring,
        )
        # The loop stops at the exact step whose configuration completes the
        # streak, so the first configuration of the stable streak is fixed
        # by arithmetic — the same value the python loop tracks imperatively.
        converged = stopped
        # ``materialize_final=False`` (the shared-memory transport's no-detour
        # export): the anonymous ``final_counts`` below carry everything the
        # caller reads, so the O(n) decode of codes into a python
        # Configuration — the dominant per-run cost on short runs — is skipped.
        return ConvergenceResult(
            converged=converged,
            steps_executed=executed,
            steps_to_convergence=executed - streak_target + 1 if converged else None,
            trace=None,
            final=self._freeze(codes, compiled.interner) if materialize_final else None,
            omissions=omissions,
            last_steps=self._dump_ring(ring, compiled, compiled_adversary),
            final_counts=self._count_export(codes, compiled.interner),
        )


# ---------------------------------------------------------------------------
# compile probing (auto backend selection, `repro list` coverage column)
# ---------------------------------------------------------------------------


def probe_compile(
    program: Any,
    model: Any,
    *,
    scheduler: Optional[Any] = None,
    adversary: Optional[Any] = None,
    predicate: Any = None,
    population: int = 2,
    trace_policy: str = "counts-only",
) -> Optional[str]:
    """Would this experiment compile for the array backend?

    Runs the same compilation passes as a real run — program tables,
    scheduler draw kernel, adversary lowering, predicate mask, trace
    policy — without executing anything, and returns ``None`` (compiles)
    or the first :class:`BackendCompileError` message (the exact error a
    run would raise, naming the failing ingredient and the fixing flag).
    Ingredients passed as ``None`` are skipped, so callers can probe a
    single registry entry in isolation.
    """
    try:
        compiled = compile_program(program, model)
        if scheduler is not None:
            compile_scheduler(scheduler)
        if adversary is not None:
            compile_adversary(adversary, program, model, compiled)
        if predicate is not None:
            _compile_predicate(predicate, compiled.interner, population)
        _check_run_request(trace_policy, 0)
    except BackendCompileError as error:
        return str(error)
    return None
