"""Schedulers: generators of interaction sequences.

The PP model leaves the interaction sequence to an external entity subject
only to the global-fairness condition.  The workhorse here is the uniform
random scheduler, which selects each ordered pair of distinct agents with
equal probability at every step; its infinite runs are globally fair with
probability 1, which is the standard way fair runs are realised in practice
(cf. reference [13] of the paper on probabilistic schedulers).

A scripted scheduler replays a fixed :class:`~repro.scheduling.runs.Run`
(used for the Lemma 1 / Theorem 3.2 attack constructions and for the FTT
search), a weighted scheduler biases pair selection (useful to stress
fairness-sensitive behaviour), and a round-robin scheduler provides a
deterministic fair-ish baseline.

Batched draws
-------------

Every scheduler supports two draw protocols:

* :meth:`Scheduler.next_interaction` — the per-step protocol: one
  interaction per call, :class:`SchedulerExhausted` when none remain.
* :meth:`Scheduler.next_columns` — the batched protocol: up to ``k``
  interactions per call, as index columns ``(starters, reactors,
  omissions)``.  ``omissions`` is ``None`` when every drawn interaction is
  the :data:`~repro.interaction.omissions.NO_OMISSION` singleton, which
  only scripted runs ever break.  The batched stream is **bitwise
  identical** to the per-step stream for the same scheduler state (same
  seed, same position): drawing ``[next_interaction(step + i) for i in
  range(k)]`` and ``next_columns(step, k)`` yields the same interactions
  and leaves the scheduler in the same state.  This contract is pinned by
  ``tests/test_batched_scheduling.py`` and is what allows the engine's
  fast path (:mod:`repro.engine.fastpath`) to consume draws in chunks
  without changing any seeded experiment.

:meth:`Scheduler.next_interactions` is the same batch as
:class:`~repro.scheduling.runs.Interaction` objects, a base-class wrapper
over :meth:`~Scheduler.next_columns`.

Exhaustion semantics under batching: a batch *shorter than requested* means
the scheduler ran out mid-batch — the same terminal condition that
:meth:`next_interaction` reports by raising :class:`SchedulerExhausted`.
Exhaustion is terminal: once a scheduler has produced a short batch (or
raised), every later draw yields nothing.  Infinite schedulers (random,
weighted, round-robin, graph) always return exactly ``k`` interactions.

The base class provides a per-step fallback implementation of
:meth:`~Scheduler.next_columns`, so subclasses only override it when a
vectorized draw is profitable (:class:`RandomScheduler`,
:class:`WeightedPairScheduler`,
:class:`~repro.scheduling.graph_scheduler.GraphScheduler`).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.interaction.omissions import NO_OMISSION, Omission
from repro.scheduling.runs import Interaction, Run, interactions_from_columns

#: One batched draw: ``(starters, reactors, omissions)``, where
#: ``omissions`` is ``None`` when every interaction is ``NO_OMISSION``.
Columns = Tuple[List[int], List[int], Optional[List[Omission]]]


class SchedulerExhausted(Exception):
    """Raised by finite schedulers (e.g. scripted) when no interactions remain.

    Exhaustion is terminal: after raising, a scheduler never produces
    further interactions (until :meth:`Scheduler.reset`).  Under the batched
    protocol the same condition surfaces as a batch shorter than requested
    instead of an exception.
    """


class Scheduler:
    """Base class: produces ordered pairs of distinct agent indices.

    Subclasses must implement :meth:`next_interaction`; they may override
    :meth:`next_columns` with a vectorized draw provided the batched
    stream stays bitwise identical to the per-step stream.
    """

    @property
    def seed(self) -> Optional[int]:
        """The seed a randomized scheduler was built with.

        ``None`` for OS-entropy seeding *and* for deterministic schedulers
        (which have no ``_seed`` at all).  Exposed on the base class so the
        array engine can seed its own ``PCG64`` draw stream from the same
        value for any kernel-compilable family
        (:mod:`repro.scheduling.array_draws`).
        """
        return getattr(self, "_seed", None)

    def next_interaction(self, step: int) -> Interaction:
        """Return the interaction to execute at ``step`` (0-based).

        Raises :class:`SchedulerExhausted` when the schedule is over; the
        condition is terminal (see the class docstring).
        """
        raise NotImplementedError

    def next_columns(self, step: int, k: int) -> Columns:
        """Return the interactions for steps ``step .. step + k - 1`` as columns.

        This is the batched counterpart of :meth:`next_interaction` and
        draws from the same stream: for any split of a run into batches, the
        concatenated batches equal the per-step sequence exactly (same RNG
        consumption, same interactions).  The result is ``(starters,
        reactors, omissions)``; ``omissions`` is ``None`` when every
        interaction of the batch carries the ``NO_OMISSION`` singleton.

        A batch shorter than ``k`` (possibly empty) signals exhaustion at
        step ``step + len(starters)`` — the batched equivalent of
        :class:`SchedulerExhausted` — and is terminal.  ``k <= 0`` returns
        empty columns without touching the scheduler.

        The default implementation is the per-step fallback: it calls
        :meth:`next_interaction` ``k`` times and truncates at exhaustion,
        which is correct (if not vectorized) for every scheduler.
        """
        starters: List[int] = []
        reactors: List[int] = []
        omissions: List[Omission] = []
        next_interaction = self.next_interaction
        for offset in range(k):
            try:
                interaction = next_interaction(step + offset)
            except SchedulerExhausted:
                break
            starters.append(interaction.starter)
            reactors.append(interaction.reactor)
            omissions.append(interaction.omission)
        if all(omission is NO_OMISSION for omission in omissions):
            return starters, reactors, None
        return starters, reactors, omissions

    def next_interactions(self, step: int, k: int) -> List[Interaction]:
        """The batch of :meth:`next_columns` as :class:`Interaction` objects."""
        return interactions_from_columns(*self.next_columns(step, k))

    def reset(self) -> None:
        """Reset any internal state so the scheduler can be reused from step 0."""

    def _drop_array_kernel(self) -> None:
        """Forget the cached array-engine draw kernel, if one was compiled.

        The array backend caches its draw kernel — which carries the
        stream position — on the scheduler instance; resettable randomized
        schedulers call this from :meth:`reset` so that, like the
        ``random.Random`` stream, the kernel stream replays from the seed
        after a reset.
        """
        self.__dict__.pop("_array_kernel", None)

    def __iter__(self) -> Iterator[Interaction]:
        """Iterate the per-step stream until exhaustion (forever when infinite)."""
        step = 0
        while True:
            try:
                yield self.next_interaction(step)
            except SchedulerExhausted:
                return
            step += 1


class RandomScheduler(Scheduler):
    """Uniform random scheduler over ordered pairs of distinct agents.

    Globally fair with probability 1 over infinite runs: every finite
    interaction pattern enabled infinitely often occurs infinitely often
    almost surely.

    The per-step draw order (starter via ``randrange(n)``, then reactor over
    the remaining ``n - 1`` slots) is part of the seeded-stream contract
    relied on by experiments and must not change.  The batched draw
    (:meth:`next_columns`) consumes the identical RNG stream and is the
    fast path of the engine's loop.
    """

    def __init__(self, n: int, seed: Optional[int] = None) -> None:
        if n < 2:
            raise ValueError("a population needs at least two agents to interact")
        self.n = n
        self._seed = seed
        self._rng = random.Random(seed)
        # Accept-reject bit widths for the inlined batched draw (below):
        # randrange(m) draws getrandbits(m.bit_length()) until < m.
        self._starter_bits = n.bit_length()
        self._reactor_bits = (n - 1).bit_length()
        self._bind_rng()

    def _bind_rng(self) -> None:
        # The scheduler draw is the hottest non-protocol code on the
        # counts-only fast path; binding the RNG methods once avoids two
        # attribute lookups per interaction.
        self._randrange = self._rng.randrange
        self._getrandbits = self._rng.getrandbits

    def next_interaction(self, step: int) -> Interaction:
        """Draw one uniform ordered pair; never exhausts."""
        randrange = self._randrange
        starter = randrange(self.n)
        reactor = randrange(self.n - 1)
        if reactor >= starter:
            reactor += 1
        return Interaction(starter, reactor)

    def next_columns(self, step: int, k: int) -> Columns:
        """Draw ``k`` uniform ordered pairs in one call (never short).

        Bitwise identical to ``k`` calls of :meth:`next_interaction`: the
        loop below inlines ``Random.randrange``'s accept-reject sampling
        (``getrandbits(bits)`` redrawn while ``>= bound``), so it consumes
        exactly the same underlying bit stream — pinned by the batched
        equivalence tests, which fail loudly if a Python release ever
        changes ``randrange``'s draw discipline.
        """
        getrandbits = self._getrandbits
        n = self.n
        starter_bits = self._starter_bits
        reactor_bound = n - 1
        reactor_bits = self._reactor_bits
        starters: List[int] = []
        reactors: List[int] = []
        add_starter = starters.append
        add_reactor = reactors.append
        for _ in range(k):
            starter = getrandbits(starter_bits)
            while starter >= n:
                starter = getrandbits(starter_bits)
            reactor = getrandbits(reactor_bits)
            while reactor >= reactor_bound:
                reactor = getrandbits(reactor_bits)
            if reactor >= starter:
                reactor += 1
            add_starter(starter)
            add_reactor(reactor)
        return starters, reactors, None

    def reset(self) -> None:
        """Restore the seeded stream to step 0."""
        self._rng = random.Random(self._seed)
        self._bind_rng()
        self._drop_array_kernel()


class ScriptedScheduler(Scheduler):
    """Replays a fixed run, then raises :class:`SchedulerExhausted`.

    Optionally falls back to another scheduler once the script is exhausted
    (used to extend a scripted attack prefix into a fair continuation, as
    Definition 4 requires of simulator executions).

    Batched draws use the inherited per-step fallback: a batch that crosses
    the script/continuation boundary (or the end of the script) is simply
    shorter or assembled step by step, with the documented exhaustion
    semantics.  It is the only scheduler whose batches can carry an
    omission column.
    """

    def __init__(self, run: Run, continuation: Optional[Scheduler] = None) -> None:
        self.run = run
        self.continuation = continuation

    def next_interaction(self, step: int) -> Interaction:
        """Replay step ``step`` of the script, then delegate to the continuation."""
        if step < len(self.run):
            return self.run[step]
        if self.continuation is not None:
            return self.continuation.next_interaction(step - len(self.run))
        raise SchedulerExhausted(
            f"scripted run of length {len(self.run)} exhausted at step {step}"
        )

    def reset(self) -> None:
        if self.continuation is not None:
            self.continuation.reset()


class WeightedPairScheduler(Scheduler):
    """Random scheduler with per-ordered-pair weights.

    Pairs with zero weight never occur; all pairs present in ``weights``
    must involve distinct agents.  This scheduler is *not* fair in general
    and is used to stress protocols and simulators under skewed interaction
    patterns.
    """

    def __init__(
        self,
        n: int,
        weights: Dict[Tuple[int, int], float],
        seed: Optional[int] = None,
    ) -> None:
        if n < 2:
            raise ValueError("a population needs at least two agents to interact")
        self.n = n
        cleaned = {}
        for (starter, reactor), weight in weights.items():
            if starter == reactor:
                raise ValueError("weights must be over pairs of distinct agents")
            if not (0 <= starter < n and 0 <= reactor < n):
                raise ValueError("pair indices out of range")
            if weight < 0:
                raise ValueError("weights must be non-negative")
            if weight > 0:
                cleaned[(starter, reactor)] = float(weight)
        if not cleaned:
            raise ValueError("at least one pair must have positive weight")
        self._pairs = list(cleaned.keys())
        self._weights = [cleaned[p] for p in self._pairs]
        self._seed = seed
        self._rng = random.Random(seed)

    def next_interaction(self, step: int) -> Interaction:
        """Draw one pair with probability proportional to its weight; never exhausts."""
        starter, reactor = self._rng.choices(self._pairs, weights=self._weights, k=1)[0]
        return Interaction(starter, reactor)

    def next_columns(self, step: int, k: int) -> Columns:
        """Draw ``k`` weighted pairs in one call (never short).

        ``random.choices`` consumes one ``random()`` per drawn element
        regardless of ``k``, so a single ``k``-element call is bitwise
        identical to ``k`` single-element calls while amortizing the O(W)
        cumulative-weight construction over the whole batch.
        """
        if k <= 0:
            return [], [], None
        pairs = self._rng.choices(self._pairs, weights=self._weights, k=k)
        return [pair[0] for pair in pairs], [pair[1] for pair in pairs], None

    def reset(self) -> None:
        """Restore the seeded stream to step 0."""
        self._rng = random.Random(self._seed)


class RoundRobinScheduler(Scheduler):
    """Deterministic scheduler cycling through all ordered pairs in lexicographic order.

    Every ordered pair occurs once every ``n*(n-1)`` steps, so every finite
    execution prefix of length at least ``n*(n-1)`` covers all pairs; this is
    a convenient deterministic stand-in for fairness in unit tests.

    Draws are a pure function of ``step``, computed in O(1) time and
    memory, so the inherited per-step batched fallback is already exact; it
    never exhausts.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("a population needs at least two agents to interact")
        self.n = n

    def next_interaction(self, step: int) -> Interaction:
        """Return the ``step``-th pair of the lexicographic cycle; never exhausts.

        Position ``i`` of the cycle has starter ``i // (n - 1)``; its
        reactor is ``i % (n - 1)``, shifted past the starter.
        """
        others = self.n - 1
        starter, reactor = divmod(step % (self.n * others), others)
        return Interaction(starter, reactor + (reactor >= starter))
