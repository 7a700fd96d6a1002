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
* **Two chunk executors** — every chunk shares one prologue (draw,
  adversary schedule, merge) and is then executed by one of two
  executors with bit-identical results.  Above
  :data:`STEP_EXECUTOR_MAX_POPULATION` agents the *wave executor* gives
  each step a level: 1 + the level of the latest earlier step of the
  chunk that touched its starter or its reactor (0 if none did).  Steps
  of one level touch disjoint agents and each agent's levels strictly
  increase, so gather → table lookup → scatter level by level is
  *exactly* sequential execution.  The predecessors come from one
  composite-key ``np.sort`` of the chunk's agent indices; steps without
  one (92% of a 4096-step chunk at n = 10^5) run as one level-0 group,
  and only the dependent steps are swept level by level (3.4 levels per
  chunk on average at n = 10^5).  At or below the constant a
  chunk has too many levels to amortise their numpy cost, and the *step
  executor* walks the chunk one step at a time over list copies of the
  codes and tables instead.
* **Incremental counts** — convergence predicates compile to a per-state
  membership mask; the satisfaction count and the stability-window streak
  are a cumulative sum and one vectorized scan over each chunk's per-step
  count deltas (looked up from a per-run table of each transition's mask
  change), or updated inline per step by the step executor.  Counts-only
  runs materialise no per-step objects at all.
* **Compiled adversary schedules** — the catalog omission adversaries
  (Bounded, NO, NO1, UO) speak the one batched adversary protocol,
  ``plan_chunk_schedule_columns`` (see :mod:`repro.adversary.omission`):
  per chunk they return gap positions plus kept injections as raw index
  lists (a :class:`~repro.adversary.omission.ColumnSchedule`), which one
  vectorized scatter merges into the scheduler's index arrays.
  Omissive transitions come from per-omission-kind table stacks tabulated
  at compile time, so injected interactions ride the same gather/scatter
  as scheduled ones.  The adversary's RNG and budget
  consumption is bit-identical to the python backend's, which merges the
  same schedules.
* **Ring traces** — under ``--trace-policy ring`` both executors append
  each executed step to the run's :class:`~repro.engine.trace.StepLog` as
  one code row (agents, omission kind row, pre/post codes), the wave
  executor only the last ``K`` of a chunk; the log is trimmed to ``K``
  steps once per chunk and decoded through the :class:`StateInterner`
  only when the window is read — crash forensics at n = 10^6 without
  per-step objects.

Equivalence contract (pinned by ``tests/test_array_backend.py``,
``tests/test_array_adversary_equivalence.py`` and, for the schedules
themselves, ``tests/test_adversary_batching.py``):

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

The backend's entry points are the module functions :func:`execute` and
:func:`run_until_stable`, which the engine's two dispatch points call
(:meth:`repro.engine.engine.SimulationEngine.execute` and
:func:`repro.engine.convergence.run_until_stable`) through
:func:`repro.engine.backends.load_array_backend`.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adversary.omission import (
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    NoOmissionAdversary,
    UOAdversary,
)
from repro.engine.backends.base import BackendCompileError, unbounded_state_space_error
from repro.engine.convergence import ConvergenceResult, failure_window
from repro.engine.fastpath import RunResult, make_step_log
from repro.engine.trace import StepLog
from repro.interaction.omissions import NO_OMISSION, Omission
from repro.obs.recorder import NULL_RECORDER, get_recorder
from repro.protocols.protocol import ProtocolError
from repro.protocols.state import Configuration, InterningError, State, StateInterner
from repro.scheduling.array_draws import ArrayDrawKernel, compile_scheduler

#: Scheduler pairs drawn per chunk.  Larger than the python backend's chunk:
#: a chunk only bounds working-set size here; on large populations the wave
#: executor runs most of it as one vectorized level.
DEFAULT_ARRAY_CHUNK = 4096

#: Hard cap on interned state spaces: compilation evaluates k^2 transitions
#: and the flat tables hold 2·k^2 int32 entries, so "small finite state
#: space" is enforced rather than assumed.
MAX_INTERNED_STATES = 1024

#: Populations up to this size execute each chunk step by step over list
#: copies of the compiled tables (:class:`_StepExecutor`); larger ones run
#: it as dependency waves (:class:`_WaveExecutor`).  Both give bit-identical
#: results, so this is a pure performance knob: the measured crossover,
#: where a chunk has few enough levels to amortise their fixed numpy cost.
STEP_EXECUTOR_MAX_POPULATION = 2 ** 12


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
        raise unbounded_state_space_error(program, error) from None
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
    per chunk with a cumulative sum of per-step deltas (wave executor) or
    inline per step (step executor).
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
#: ``isinstance``: a subclass may override the per-step definition in ways
#: its inherited column walk does not mirror, so unknown subclasses fall back
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


class _ChunkDependencies:
    """The agent dependencies of one merged chunk, as dependency waves.

    Everything is indexed by the chunk's *occurrences*: for a chunk of
    ``k`` steps, occurrence ``t`` is the starter of step ``t`` and
    ``k + t`` its reactor.

    * ``agents[i]`` — the agent of occurrence ``i``;
    * ``source[i]`` — where occurrence ``i`` reads its pre code: the latest
      earlier occurrence of the same agent (whose post code it is), or
      ``2k + i`` when the chunk has not touched the agent before (its
      chunk-start code);
    * ``repeats`` — the occurrences that have such a predecessor, with
      ``repeats_step`` their steps and ``repeats_next_step`` the step of
      the agent's next occurrence (``k``: none);
    * ``waves[l - 1]`` — the steps of level ``l >= 1``, in chunk order.

    A step's *level* is 1 + the larger level of the steps that last
    touched its starter and its reactor earlier in the chunk (0 if neither
    was touched).  Steps of one level touch disjoint agents, and each
    agent's steps have strictly increasing levels, so executing the chunk
    level by level, each level as one gather → table lookup → scatter, is
    exactly sequential execution.
    """

    __slots__ = ("agents", "source", "repeats", "repeats_step",
                 "repeats_next_step", "waves")

    def __init__(self, starters: np.ndarray, reactors: np.ndarray) -> None:
        # The predecessors come from one value sort of ``(agent << shift) |
        # position`` composite keys, where position ``2t`` is step ``t``'s
        # starter and ``2t + 1`` its reactor: sorting brings equal agents
        # together in step order, and the low bits recover each position.
        # A composite ``np.sort`` is over ten times faster than a stable
        # ``np.argsort`` of the agents.
        k = len(starters)
        two_k = 2 * k
        shift = two_k.bit_length()
        agents = np.concatenate((starters, reactors), dtype=np.int64)
        keys = agents << shift
        even = np.arange(0, two_k, 2, dtype=np.int64)
        keys[:k] |= even
        keys[k:] |= even + 1
        keys.sort()
        low = (1 << shift) - 1
        pairs = np.flatnonzero((keys[1:] ^ keys[:-1]) <= low)
        earlier = keys[pairs] & low
        later = keys[pairs + 1] & low
        repeats_step = later >> 1
        repeats = repeats_step + (later & 1) * k
        source = np.arange(two_k, 2 * two_k, dtype=np.int64)
        source[repeats] = (earlier >> 1) + (earlier & 1) * k
        # The pairs are sorted by agent, so an agent's next pair starts
        # where its previous one ended.
        repeats_next_step = np.full(len(later), k, dtype=np.int64)
        chained = earlier[1:] == later[:-1]
        repeats_next_step[:-1][chained] = repeats_step[1:][chained]
        self.agents = agents
        self.source = source
        self.repeats = repeats
        self.repeats_step = repeats_step
        self.repeats_next_step = repeats_next_step
        self.waves = self._sweep(k, source, repeats_step)

    @staticmethod
    def _sweep(k: int, source: np.ndarray,
               repeats_step: np.ndarray) -> List[np.ndarray]:
        """Group the steps with a predecessor into levels 1, 2, ….

        A frontier sweep over those steps only (a few percent of a chunk
        on large populations); all the other steps are level 0.
        """
        dependent = np.zeros(k, dtype=bool)
        dependent[repeats_step] = True
        pending = np.flatnonzero(dependent)
        waves: List[np.ndarray] = []
        if not pending.size:
            return waves
        # done[i]: occurrence i has executed; sources of 2k and above are
        # chunk-start codes, which are always there.
        done = np.ones(2 * len(source), dtype=bool)
        done[pending] = False
        done[pending + k] = False
        before_starter = source[pending]
        before_reactor = source[pending + k]
        while True:
            ready = done[before_starter] & done[before_reactor]
            wave = pending[ready]
            waves.append(wave)
            if len(wave) == len(pending):
                return waves
            done[wave] = True
            done[wave + k] = True
            waiting = ~ready
            pending = pending[waiting]
            before_starter = before_starter[waiting]
            before_reactor = before_reactor[waiting]


class _CountStreakTracker:
    """Running predicate count + consecutive-hold streak across chunks.

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

    def scan(self, deltas: np.ndarray) -> Optional[int]:
        """Fold one chunk's per-step count deltas; returns the stop offset.

        The returned offset ``t`` is the first step of the chunk after
        which the streak reaches ``streak_target`` (the python loop's stop
        point); ``None`` means the chunk completes without converging.
        Either way the running count/streak advance to the last step
        folded.
        """
        counts = self.count + np.cumsum(deltas, dtype=np.int64)
        holds = counts == self.target_count
        length = len(holds)
        if length and not holds.any():
            # The common case: no configuration of the chunk holds.
            self.count = int(counts[-1])
            self.consecutive = 0
            return None
        indices = np.arange(length, dtype=np.int64)
        last_miss = np.maximum.accumulate(np.where(holds, -1, indices))
        streaks = np.where(
            last_miss < 0, indices + 1 + self.consecutive, indices - last_miss
        )
        hits = np.nonzero(streaks >= self.streak_target)[0]
        stop = int(hits[0]) if hits.size else None
        if length:
            last = length - 1 if stop is None else stop
            self.count = int(counts[last])
            self.consecutive = int(streaks[last])
        return stop


def _merge_injections(
    schedule: Any,
    starters: np.ndarray,
    reactors: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Merge a :class:`ColumnSchedule` into a chunk's index arrays.

    Injection ``i`` executes before scheduled gap ``positions[i]``, after
    the ``i`` injections listed before it (positions never decrease), so
    it lands at merged slot ``positions[i] + i``; the scheduled
    interactions fill the remaining slots in order.  The schedule's kind
    indices follow the adversary's omissive-kind tuple — the same order
    :func:`compile_adversary` stacked the tables in — so table-stack row is
    kind index + 1.  Returns the merged ``(starters, reactors, kinds)``
    (int64) with ``kinds[t]`` the table-stack row of step ``t`` (0 =
    scheduled/omission-free); ``kinds`` is ``None`` for pass-through
    chunks so the caller keeps the 1-D gather hot path.
    """
    consumed = schedule.consumed
    if consumed < len(starters):
        starters = starters[:consumed]
        reactors = reactors[:consumed]
    injected = len(schedule.starters)
    if not injected:
        return starters, reactors, None
    total = consumed + injected
    slots = np.asarray(schedule.positions, dtype=np.int64)
    slots += np.arange(injected, dtype=np.int64)
    kinds = np.zeros(total, dtype=np.int64)
    kinds[slots] = np.asarray(schedule.kinds, dtype=np.int64) + 1
    scheduled = kinds == 0
    merged_starters = np.empty(total, dtype=np.int64)
    merged_starters[scheduled] = starters
    merged_starters[slots] = schedule.starters
    merged_reactors = np.empty(total, dtype=np.int64)
    merged_reactors[scheduled] = reactors
    merged_reactors[slots] = schedule.reactors
    return merged_starters, merged_reactors, kinds


class _WaveExecutor:
    """Execute merged chunks as dependency waves (large populations).

    A chunk costs one :class:`_ChunkDependencies` sort, one gather → table
    lookup over all its steps (level 0, from the chunk-start codes), about
    twenty numpy operations per further level (its sweep and its lookups)
    over that level's steps only, one count scan and one scatter of the
    final codes.  A chunk of 4096 steps has 3.4 levels on average at
    n = 10^5 but about 13 at n = 4096, so the fixed numpy cost is
    amortised only on large populations.

    The codes array is not touched until the chunk's end: ``values[:2k]``
    holds each occurrence's post code and ``values[2k:]`` its agent's
    chunk-start code, so an occurrence's pre code is ``values[source]``.
    A stop after step ``t`` writes back each agent's code after its last
    step up to ``t`` and nothing of the steps after it.
    """

    __slots__ = ("codes", "size", "row_size", "starter_table",
                 "reactor_table", "delta_table", "tracker", "log",
                 "wave_count", "wave_steps")

    def __init__(self, codes: np.ndarray, compiled: CompiledProgram,
                 tracker: Optional[_CountStreakTracker],
                 adversary: Optional[CompiledAdversary],
                 log: Optional[StepLog]) -> None:
        self.codes = codes
        self.size = compiled.size
        # Flat table stacks, as in :class:`_StepExecutor`: table-stack row
        # ``r`` starts at ``r * row_size``, so every lookup is 1-D.
        self.row_size = compiled.size * compiled.size
        if adversary is None:
            self.starter_table = compiled.delta_starter
            self.reactor_table = compiled.delta_reactor
        else:
            self.starter_table = adversary.starter_stack.ravel()
            self.reactor_table = adversary.reactor_stack.ravel()
        self.delta_table = None
        if tracker is not None:
            # The predicate count change of each table entry's step.
            mask = tracker.mask
            within = np.arange(len(self.starter_table)) % self.row_size
            self.delta_table = (
                mask[self.starter_table] + mask[self.reactor_table]
                - mask[within // self.size] - mask[within % self.size]
            ).astype(np.int8)
        self.tracker = tracker
        self.log = log
        self.wave_count = 0
        self.wave_steps = 0

    def run(self, starters: np.ndarray, reactors: np.ndarray,
            kinds: Optional[np.ndarray]) -> Optional[int]:
        """Execute one merged chunk; returns the steps executed if it stopped.

        ``None`` means the whole chunk executed without completing the
        streak.
        """
        codes = self.codes
        size = self.size
        starter_table = self.starter_table
        reactor_table = self.reactor_table
        k = len(starters)
        chunk = _ChunkDependencies(starters, reactors)
        source = chunk.source
        self.wave_count += 1 + len(chunk.waves)
        self.wave_steps += k
        offsets = None if kinds is None else kinds * self.row_size
        values = np.empty(4 * k, dtype=codes.dtype)
        codes.take(chunk.agents, out=values[2 * k:])
        # Level 0 runs every step from the chunk-start codes; each wave
        # then reruns its steps from their predecessors' post codes.
        flat = values[2 * k:3 * k] * size + values[3 * k:]
        if offsets is not None:
            flat += offsets
        starter_table.take(flat, out=values[:k])
        reactor_table.take(flat, out=values[k:2 * k])
        for wave in chunk.waves:
            wave_flat = (values.take(source.take(wave)) * size
                         + values.take(source.take(wave + k)))
            if offsets is not None:
                wave_flat += offsets.take(wave)
            flat[wave] = wave_flat
            values[wave] = starter_table.take(wave_flat)
            values[wave + k] = reactor_table.take(wave_flat)
        stop = None
        if self.tracker is not None:
            stop = self.tracker.scan(self.delta_table.take(flat))
        executed = k if stop is None else stop + 1
        codes[starters[:executed]] = values[:executed]
        codes[reactors[:executed]] = values[k:k + executed]
        # An agent touched more than once got one of its post codes above,
        # in unspecified order; rewrite its last one.
        last = chunk.repeats[(chunk.repeats_step < executed)
                             & (chunk.repeats_next_step >= executed)]
        codes[chunk.agents.take(last)] = values.take(last)
        if self.log is not None:
            self.log.extend_columns((
                starters[:executed], reactors[:executed],
                np.zeros(executed, dtype=np.int64) if kinds is None
                else kinds[:executed],
                values.take(source[:executed]),
                values.take(source[k:k + executed]),
                values[:executed], values[k:k + executed]))
        return None if stop is None else executed

    def finish(self, obs: Any) -> None:
        """Fold the run's wave telemetry (``codes`` is already current).

        The metric names predate the waves (they counted collision-free
        segments); the campaign benchmark reads them under these names.
        """
        if obs is not NULL_RECORDER:
            obs.counter("engine.array.segments", self.wave_count)
            if self.wave_count:
                obs.observe("engine.array.segment_size",
                            self.wave_steps / self.wave_count)


class _StepExecutor:
    """Execute merged chunks one step at a time (small populations).

    At small populations almost every step of a chunk depends on an
    earlier one: a 4096-step chunk has about 1500 levels of under three
    steps at n = 14, each costing the wave executor twenty numpy
    operations.  This executor instead walks each chunk in Python: the
    codes, the transition tables and the predicate mask become lists once
    per run, a chunk's columns once per chunk, and the predicate count and
    streak update inline with the python loop's rule.  The codes array is
    written back once, by :meth:`finish`; under a step log each executed
    step appends its row inline.
    """

    __slots__ = ("codes", "values", "size", "row_size", "starter_table",
                 "reactor_table", "tracker", "mask", "log")

    def __init__(self, codes: np.ndarray, compiled: CompiledProgram,
                 tracker: Optional[_CountStreakTracker],
                 adversary: Optional[CompiledAdversary],
                 log: Optional[StepLog]) -> None:
        self.codes = codes
        self.values = codes.tolist()
        self.size = compiled.size
        # One flat list per participant; table-stack row ``r`` starts at
        # ``r * row_size``, so a step's lookup is one subscript.
        self.row_size = compiled.size * compiled.size
        if adversary is None:
            self.starter_table = compiled.delta_starter.tolist()
            self.reactor_table = compiled.delta_reactor.tolist()
        else:
            self.starter_table = adversary.starter_stack.ravel().tolist()
            self.reactor_table = adversary.reactor_stack.ravel().tolist()
        self.tracker = tracker
        self.mask = None if tracker is None else tracker.mask.tolist()
        self.log = log

    def run(self, starters: np.ndarray, reactors: np.ndarray,
            kinds: Optional[np.ndarray]) -> Optional[int]:
        """Execute one merged chunk; returns the steps executed if it stopped.

        ``None`` means the whole chunk executed without completing the
        streak.
        """
        total = len(starters)
        offsets = (repeat(0, total) if kinds is None
                   else (kinds * self.row_size).tolist())
        columns = zip(starters.tolist(), reactors.tolist(), offsets)
        rows = None if self.log is None else self.log.rows
        if self.tracker is None:
            self._walk(columns, rows)
            return None
        return self._walk_tracked(columns, rows)

    def _walk(self, columns: Any, rows: Optional[List[int]]) -> None:
        """Execute every ``(starter, reactor, table offset)`` step (runs
        without a predicate, which need no count), appending each step's
        row (its kind row is its table offset over ``row_size``) to
        ``rows`` if given."""
        values = self.values
        size = self.size
        row_size = self.row_size
        starter_table = self.starter_table
        reactor_table = self.reactor_table
        for a, b, offset in columns:
            a_pre = values[a]
            b_pre = values[b]
            flat = offset + a_pre * size + b_pre
            a_post = values[a] = starter_table[flat]
            b_post = values[b] = reactor_table[flat]
            if rows is not None:
                rows += (a, b, offset // row_size, a_pre, b_pre, a_post, b_post)

    def _walk_tracked(self, columns: Any, rows: Optional[List[int]]) -> Optional[int]:
        """:meth:`_walk`, stopping after the step that completes the streak."""
        values = self.values
        size = self.size
        row_size = self.row_size
        starter_table = self.starter_table
        reactor_table = self.reactor_table
        mask = self.mask
        tracker = self.tracker
        target_count = tracker.target_count
        streak_target = tracker.streak_target
        count = tracker.count
        consecutive = tracker.consecutive
        stop = None
        for t, (a, b, offset) in enumerate(columns):
            a_pre = values[a]
            b_pre = values[b]
            flat = offset + a_pre * size + b_pre
            a_post = values[a] = starter_table[flat]
            b_post = values[b] = reactor_table[flat]
            if rows is not None:
                rows += (a, b, offset // row_size, a_pre, b_pre, a_post, b_post)
            # Null interactions, the common case, leave the count as it is.
            if a_post != a_pre or b_post != b_pre:
                count += mask[a_post] - mask[a_pre] + mask[b_post] - mask[b_pre]
            if count == target_count:
                consecutive += 1
                if consecutive >= streak_target:
                    stop = t + 1
                    break
            else:
                consecutive = 0
        tracker.count = count
        tracker.consecutive = consecutive
        return stop

    def finish(self, obs: Any) -> None:
        """Write the codes back and count the run as a step-executor run."""
        self.codes[:] = self.values
        if obs is not NULL_RECORDER:
            obs.counter("engine.array.step_runs")


def _run_columnar(
    codes: np.ndarray,
    kernel: ArrayDrawKernel,
    compiled: CompiledProgram,
    max_steps: int,
    chunk_size: int,
    tracker: Optional[_CountStreakTracker] = None,
    adversary: Optional[CompiledAdversary] = None,
    log: Optional[StepLog] = None,
) -> Tuple[int, int, bool, int]:
    """Execute up to ``max_steps`` interactions against ``codes`` in place.

    Returns ``(executed, omissions, stopped, chunks)`` with the exact
    semantics of :func:`repro.engine.fastpath.run_core`, ``chunks`` being
    the number of scheduler draws: chunks are clipped to the
    remaining budget, adversary injections (planned per chunk through the
    column-schedule protocol) execute before their scheduled
    interaction and count towards the budget, and a streak hit stops the
    run immediately after the completing step (later draws of the chunk
    are discarded unexecuted).  The scheduler stream advances by *drawn*
    interactions — one chunk of ``k`` draws per iteration — matching the
    python loop's ``scheduler_step`` accounting under injections.

    Every chunk goes through one prologue (draw, adversary schedule,
    merge); populations of at most :data:`STEP_EXECUTOR_MAX_POPULATION`
    agents then execute it with :class:`_StepExecutor`, larger ones with
    :class:`_WaveExecutor`.  Both give bit-identical results, and both
    append each executed step to ``log``, which is trimmed once per chunk.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    n = len(codes)
    executor_type = (
        _StepExecutor if n <= STEP_EXECUTOR_MAX_POPULATION else _WaveExecutor)
    executor = executor_type(codes, compiled, tracker, adversary, log)
    executed = 0
    scheduler_step = 0
    omissions = 0
    chunks = 0
    # Executor telemetry is folded locally and recorded once per run, so
    # the NullRecorder path pays one identity check per run here.
    obs = get_recorder()
    while executed < max_steps:
        remaining = max_steps - executed
        k = chunk_size if remaining > chunk_size else remaining
        starters, reactors = kernel.draw(scheduler_step, k)
        scheduler_step += k
        chunks += 1
        kinds = None
        injected = 0
        if adversary is not None:
            schedule = adversary.adversary.plan_chunk_schedule_columns(
                scheduler_step - k, k, n, remaining)
            injected = len(schedule.starters)
            starters, reactors, kinds = _merge_injections(
                schedule, starters, reactors)
        stop = executor.run(starters, reactors, kinds)
        if log is not None:
            log.trim()
        if stop is not None:
            if kinds is not None:
                omissions += int((kinds[:stop] != 0).sum())
            executor.finish(obs)
            return executed + stop, omissions, True, chunks
        omissions += injected
        executed += len(starters)
    executor.finish(obs)
    return executed, omissions, False, chunks


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


#: Per-process memo of compiled programs and encoded initial configurations,
#: keyed by object identity with ``is``-verification on lookup (entries hold
#: strong references to their key objects, so a cached id can never be
#: recycled while its entry is live).  Program, model and initial
#: configuration are shared across the runs of one built experiment (see
#: ``repro.protocols.registry.build_cached``), so a process executing many
#: runs of the same spec tabulates transitions and interns the O(n) initial
#: configuration once instead of per run — on short runs at large n those
#: were the dominant per-run cost.  :func:`probe_compile` compiles through
#: the same memo, so the ``auto`` planner's compile is the one the runs of
#: the cell use, here and in every process forked after planning.  One
#: entry per compiled program (or encoded configuration) per process.
_COMPILE_CACHE: "Dict[int, Tuple[Any, Any, CompiledProgram]]" = {}
_INITIAL_CODES_CACHE: "Dict[int, Tuple[Any, CompiledProgram, np.ndarray]]" = {}


def _compile_cached(program: Any, model: Any) -> CompiledProgram:
    """:func:`compile_program` memoised in :data:`_COMPILE_CACHE`."""
    obs = get_recorder()
    cached = _COMPILE_CACHE.get(id(program))
    if cached is not None and cached[0] is program and cached[1] is model:
        if obs is not NULL_RECORDER:
            obs.counter("engine.array.compile_cache.hit")
        return cached[2]
    compiled = compile_program(program, model)
    _COMPILE_CACHE[id(program)] = (program, model, compiled)
    if obs is not NULL_RECORDER:
        obs.counter("engine.array.compile_cache.miss")
    return compiled


def _set_up_run(
    program: Any,
    model: Any,
    scheduler: Any,
    adversary: Optional[Any],
    initial_configuration: Configuration,
    max_steps: float,
    trace_policy: str,
    ring_size: Optional[int],
) -> Tuple[int, CompiledProgram, ArrayDrawKernel, np.ndarray,
           Optional[CompiledAdversary], Optional[StepLog]]:
    """The set-up both entry points share.

    Checks the request, compiles the program, scheduler, initial
    configuration and adversary, and creates the step log under the
    ``ring`` trace policy.  Returns ``(budget, compiled, kernel, codes,
    compiled_adversary, log)``; ``codes`` is the run's own copy of the
    encoded initial configuration, which the run mutates in place.
    """
    budget = _check_run_request(trace_policy, max_steps)
    compiled = _compile_cached(program, model)
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
    compiled_adversary = compile_adversary(adversary, program, model, compiled)
    log = make_step_log(
        trace_policy, ring_size, interner=compiled.interner,
        omissions=(NO_OMISSION,) if compiled_adversary is None
        else compiled_adversary.kind_omissions)
    # Runs mutate their code array in place; every run gets its own copy
    # of the pristine encoding.
    return budget, compiled, kernel, pristine.copy(), compiled_adversary, log


def _freeze(codes: np.ndarray, interner: StateInterner) -> Configuration:
    """Decode a code array to a :class:`Configuration` (one object-dtype
    take, much faster than a per-agent decode at n >= 10^6)."""
    lookup = np.empty(len(interner), dtype=object)
    for code, state in enumerate(interner.states):
        lookup[code] = state
    return Configuration(lookup[codes].tolist())


def _count_export(codes: np.ndarray,
                  interner: StateInterner) -> Tuple[Tuple[State, int], ...]:
    """The columnar count export consumed by the process fan-out's result
    transport (:mod:`repro.engine.transport`).

    One bincount over the code array, no detour through the frozen
    python-object configuration.  Zero counts are dropped so the export is
    an anonymous multiset view, identical to
    :meth:`Configuration.histogram` up to ordering.
    """
    counts = np.bincount(codes, minlength=len(interner))
    return tuple(
        (state, int(counts[code]))
        for code, state in enumerate(interner.states)
        if counts[code])


def execute(
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
    """The array backend's :meth:`~repro.engine.engine.SimulationEngine.execute`."""
    if stop_condition is not None:
        raise BackendCompileError(
            "arbitrary stop conditions cannot be compiled for the array "
            "backend; use run_until_stable with a state-count predicate "
            "or --engine-backend python"
        )
    budget, compiled, kernel, codes, compiled_adversary, log = _set_up_run(
        program, model, scheduler, adversary, initial_configuration,
        max_steps, trace_policy, ring_size)
    executed, omissions, _stopped, _chunks = _run_columnar(
        codes, kernel, compiled, budget,
        chunk_size if chunk_size is not None else DEFAULT_ARRAY_CHUNK,
        adversary=compiled_adversary,
        log=log,
    )
    return RunResult(
        policy=trace_policy,
        steps=executed,
        omissions=omissions,
        final_configuration=_freeze(codes, compiled.interner),
        trace=None,
        stopped=False,
        window=log,
    )


def run_until_stable(
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
) -> Tuple[ConvergenceResult, int]:
    """The array backend's :func:`~repro.engine.convergence.run_until_stable`.

    Returns the result plus the run's chunk count (scheduler draws), like
    :func:`~repro.engine.convergence.run_until_stable_core`.
    """
    budget, compiled, kernel, codes, compiled_adversary, log = _set_up_run(
        program, model, scheduler, adversary, initial_configuration,
        max_steps, trace_policy, ring_size)
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
            final_counts=_count_export(codes, compiled.interner),
        ), 0

    tracker = _CountStreakTracker(
        mask, target_count, streak_target, count, consecutive
    )
    executed, omissions, converged, chunks = _run_columnar(
        codes, kernel, compiled, budget,
        chunk_size if chunk_size is not None else DEFAULT_ARRAY_CHUNK,
        tracker=tracker,
        adversary=compiled_adversary,
        log=log,
    )
    # The loop stops at the exact step whose configuration completes the
    # streak, so the first configuration of the stable streak is fixed
    # by arithmetic — the same value the python loop tracks imperatively.
    # ``materialize_final=False`` (the result transport's no-detour
    # export): the anonymous ``final_counts`` below carry everything the
    # caller reads, so the O(n) decode of codes into a python
    # Configuration — the dominant per-run cost on short runs — is skipped.
    return ConvergenceResult(
        converged=converged,
        steps_executed=executed,
        steps_to_convergence=executed - streak_target + 1 if converged else None,
        trace=None,
        final=_freeze(codes, compiled.interner) if materialize_final else None,
        omissions=omissions,
        last_steps=failure_window(log, converged),
        final_counts=_count_export(codes, compiled.interner),
    ), chunks


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
        compiled = _compile_cached(program, model)
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
