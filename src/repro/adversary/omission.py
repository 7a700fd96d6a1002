"""Online omission adversaries (Definitions 1 and 2).

The paper's adversaries are run rewriters: they take a run ``I`` and output
a new run obtained by inserting finite sequences of *omissive* interactions
between consecutive interactions of ``I``.  The crucial point is that the
original interactions are untouched — the adversary can only add omissive
noise, not suppress the fair schedule.

Here the adversaries are implemented *online*: before each scheduled
interaction, the engine asks the adversary for the (possibly empty) list of
omissive interactions to inject.  This is exactly the rewriting of
Definitions 1 and 2, applied lazily to whatever run the scheduler is
producing.

* :class:`UOAdversary` — the Unfair Omissive adversary: may keep inserting
  omissions forever.
* :class:`NOAdversary` — the Eventually Non-Omissive adversary: inserts
  omissions only before finitely many scheduled interactions.
* :class:`NO1Adversary` — inserts at most one omissive interaction in the
  entire execution.
* :class:`BoundedOmissionAdversary` — inserts at most ``o`` omissive
  interactions; this realises the "known upper bound on the number of
  omissions" assumption of Theorem 4.1.

One per-step definition, one batched protocol
---------------------------------------------

:meth:`OmissionAdversary.interactions_before` is the definition: the
injections for one scheduled interaction, asked once per scheduled draw.
The engine truncates them to the remaining step budget, reserving one unit
for the scheduled interaction itself.

``plan_chunk_schedule_columns(step, count, n, budget)`` is the batched
protocol both engines execute.  For the ``count`` scheduled gaps starting
at ``step`` it returns a :class:`ColumnSchedule`: the kept injections as
raw index columns plus the gap each one executes before.  It reads no
scheduled draws, because no catalog adversary looks at the interaction it
injects before; its decisions depend only on the step index, its own RNG
and its budgets.  The python engine merges the columns into its drawn
chunk by position; the array engine scatters them into its index arrays,
injection ``i`` at slot ``positions[i] + i``.

A schedule is the per-step interleaving, bit for bit, under three rules:

1. injections execute *before* their scheduled interaction, in the order
   the adversary produced them;
2. an injection that would leave no budget for its scheduled interaction
   is **discarded but still consumes the adversary's own omission budget
   and RNG stream** — exactly as a finite execution prefix truncates the
   rewritten run of Definitions 1 and 2 without changing the rewriter;
3. a scheduled gap is consumed only while at least one unit of budget
   remains; the walk stops (``ColumnSchedule.consumed`` short) the moment
   the budget cannot cover another scheduled interaction, leaving the
   adversary exactly where the per-step loop would have left it.

:func:`plan_columns_per_step` states those rules once, in terms of
``interactions_before``.  It is the engine's path for adversaries without
a columns walk of their own, and the reference the tests compare the
catalog walks against.  The catalog walks draw the *identical* entropy
(``getrandbits`` with the same rejection sampling CPython's
``Random._randbelow`` performs for ``randrange`` and ``choice``) straight
into flat lists, so the RNG end state stays bit-for-bit that of the
per-step definition, and they skip RNG work entirely where no injection is
possible (``NOAdversary`` past ``active_steps``,
``BoundedOmissionAdversary`` with a spent budget, ``NO1Adversary`` away
from ``inject_at``).
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.interaction.models import InteractionModel
from repro.interaction.omissions import (
    FULL_OMISSION,
    NO_OMISSION,
    REACTOR_OMISSION,
    STARTER_OMISSION,
    Omission,
)
from repro.scheduling.runs import Interaction


class ColumnSchedule(NamedTuple):
    """The injections an adversary plans for one chunk of scheduled gaps.

    ``starters[i]``/``reactors[i]`` are the agent indices of kept injection
    ``i`` and ``kinds[i]`` the index of its omission kind in a kind tuple
    fixed by the producer: the adversary's admissible omissive kinds (the
    order of ``model.admissible_omissions()`` restricted to omissive kinds —
    the same order the array backend's transition-table stack rows follow)
    for the catalog walks, the ``kinds`` argument for
    :func:`plan_columns_per_step`.  ``positions[i]`` is the chunk-local gap
    index (``< consumed``) whose scheduled interaction injection ``i``
    executes *before*; repeated positions keep their list order.  Only kept
    injections are listed — ``discarded`` counts the ones budget truncation
    dropped (rule 2 of the protocol) — so the executed chunk has exactly
    ``len(starters) + consumed`` interactions, never more than the step
    budget.
    """

    positions: List[int]
    starters: List[int]
    reactors: List[int]
    kinds: List[int]
    consumed: int
    discarded: int


#: Every omission kind, the omission-free one included: the kind tuple of
#: the engine's generic walk, so a third-party adversary may inject any
#: :class:`~repro.interaction.omissions.Omission`.
OMISSIONS: Tuple[Omission, ...] = (
    NO_OMISSION, STARTER_OMISSION, REACTOR_OMISSION, FULL_OMISSION)

#: The scheduled-interaction stand-in fed to ``interactions_before`` by
#: walks that plan without the scheduled draws (see
#: :meth:`NO1Adversary.plan_chunk_schedule_columns`).
_SCHEDULE_PLACEHOLDER = Interaction(0, 1)


def plan_columns_per_step(
    adversary, step: int, scheduled: Iterable[Interaction], n: int,
    budget: Optional[int], kinds: Sequence[Omission],
) -> ColumnSchedule:
    """The batched protocol in terms of the per-step definition.

    Consults ``adversary.interactions_before`` once per gap of ``scheduled``
    (advancing the adversary exactly as the per-step loop would), truncates
    the injections to the remaining ``budget`` (``None``: unlimited) with
    one unit reserved for the scheduled interaction, and stops consuming
    gaps once the budget cannot cover another one.  The returned schedule's
    ``kinds`` index ``kinds``, which must hold every omission the adversary
    injects.  Correct for **any** object implementing
    ``interactions_before``.
    """
    kind_index = {kind: index for index, kind in enumerate(kinds)}
    positions: List[int] = []
    starters: List[int] = []
    reactors: List[int] = []
    kind_column: List[int] = []
    consumed = discarded = 0
    remaining = budget
    for scheduled_interaction in scheduled:
        if remaining is not None and remaining < 1:
            break
        injected = adversary.interactions_before(
            step=step + consumed, scheduled=scheduled_interaction, n=n)
        kept = len(injected)
        if remaining is not None:
            if kept >= remaining:
                kept = remaining - 1
                discarded += len(injected) - kept
            remaining -= kept + 1
        for interaction in injected[:kept]:
            positions.append(consumed)
            starters.append(interaction.starter)
            reactors.append(interaction.reactor)
            kind_column.append(kind_index[interaction.omission])
        consumed += 1
    return ColumnSchedule(positions, starters, reactors, kind_column,
                          consumed, discarded)


class OmissionAdversary:
    """Base class: decides which omissive interactions to inject before each scheduled one.

    A subclass need only define :meth:`interactions_before`; the engine
    walks it through :func:`plan_columns_per_step` with the real scheduled
    draws.  A subclass whose decisions never read ``scheduled`` may also
    define ``plan_chunk_schedule_columns`` (the catalog classes all do),
    which both engines then call instead.
    """

    def interactions_before(
        self, step: int, scheduled: Interaction, n: int
    ) -> List[Interaction]:
        """The omissive interactions to execute just before the ``step``-th scheduled one."""
        raise NotImplementedError

    def reset(self) -> None:
        """Reset internal state (budgets, RNG) so the adversary can be reused."""

    @staticmethod
    def _pass_through_columns(count: int, budget: Optional[int]) -> ColumnSchedule:
        """A schedule that injects nothing: ``count`` gaps, clipped to ``budget``."""
        if budget is not None and budget < count:
            count = budget
        return ColumnSchedule([], [], [], [], count, 0)


class NoOmissionAdversary(OmissionAdversary):
    """The trivial adversary that never injects anything."""

    def interactions_before(
        self, step: int, scheduled: Interaction, n: int
    ) -> List[Interaction]:
        return []

    def plan_chunk_schedule_columns(
        self, step: int, count: int, n: int, budget: Optional[int] = None,
    ) -> ColumnSchedule:
        return self._pass_through_columns(count, budget)


class _RandomOmissionMixin:
    """Shared machinery: choose random pairs and random admissible omission kinds.

    Also validates the rate parameters every random adversary takes from
    campaign ``adversary_kwargs``: ``rate`` and, where the class has one,
    ``max_per_gap`` must be non-negative.
    """

    def __init__(
        self,
        model: InteractionModel,
        seed: Optional[int] = None,
        rate: float = 0.0,
        max_per_gap: Optional[int] = None,
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if max_per_gap is not None:
            if max_per_gap < 0:
                raise ValueError("max_per_gap must be non-negative")
            self.max_per_gap = max_per_gap
        self.rate = rate
        self.model = model
        omissive = [o for o in model.admissible_omissions() if o.is_omissive]
        if not omissive:
            raise ValueError(
                f"model {model.name} does not admit omissive interactions; "
                "an omission adversary cannot operate on it"
            )
        self._omissive_kinds: Sequence[Omission] = tuple(omissive)
        self._seed = seed
        self._rng = random.Random(seed)
        self.total_injected = 0

    def _make_omissive_interaction(self, n: int) -> Interaction:
        rng = self._rng
        starter = rng.randrange(n)
        reactor = rng.randrange(n - 1)
        if reactor >= starter:
            reactor += 1
        return Interaction(starter, reactor, omission=rng.choice(self._omissive_kinds))

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self.total_injected = 0


class UOAdversary(_RandomOmissionMixin, OmissionAdversary):
    """Unfair Omissive adversary: injects omissions forever (Definition 1).

    Before every scheduled interaction it injects a geometrically distributed
    number of omissive interactions with mean ``rate`` (so ``rate = 0.5``
    averages one omission every two scheduled interactions), between random
    pairs and with a random admissible omission kind for the model.
    """

    def __init__(
        self,
        model: InteractionModel,
        rate: float = 0.25,
        max_per_gap: int = 3,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(model=model, seed=seed, rate=rate, max_per_gap=max_per_gap)

    def interactions_before(
        self, step: int, scheduled: Interaction, n: int
    ) -> List[Interaction]:
        injected: List[Interaction] = []
        probability = self.rate / (1.0 + self.rate)
        while len(injected) < self.max_per_gap and self._rng.random() < probability:
            injected.append(self._make_omissive_interaction(n))
        self.total_injected += len(injected)
        return injected

    def plan_chunk_schedule_columns(
        self, step: int, count: int, n: int, budget: Optional[int] = None,
    ) -> ColumnSchedule:
        """The per-gap geometric injection walk (UO, and NO's active prefix).

        Consumes the entropy of repeated :meth:`interactions_before` calls:
        one ``random()`` per attempted injection, then per constructed
        injection (constructed even when budget truncation then discards
        it, rule 2 of the protocol) the exact ``getrandbits`` rejection
        sampling that CPython's ``Random._randbelow`` performs for
        ``randrange(n)``, ``randrange(n - 1)`` and ``choice(kinds)`` — so
        the RNG end state is bit-for-bit the per-step one, without the
        ``randrange``/``choice`` wrapper frames and the
        :class:`~repro.scheduling.runs.Interaction` allocations (which
        dominate the array backend's injection throughput).

        When ``budget`` is ``None`` or covers ``count`` gaps of one
        scheduled interaction plus ``max_per_gap`` injections each
        (``budget >= (1 + max_per_gap) * count``), nothing can be
        truncated, so the whole chunk runs a loop without budget checks:
        one ``random()`` per gap, and on a hit injections drawn until
        ``max_per_gap`` or a miss.  Every other chunk (the last few of a
        step budget, and ``max_per_gap == 0``, which draws no entropy at
        all) runs the checked loop.
        """
        probability = self.rate / (1.0 + self.rate)
        max_per_gap = self.max_per_gap
        rng = self._rng
        rng_random = rng.random
        getrandbits = rng.getrandbits
        n_bits = n.bit_length()
        shifted = n - 1
        shifted_bits = shifted.bit_length()
        kind_count = len(self._omissive_kinds)
        kind_bits = kind_count.bit_length()
        positions: List[int] = []
        starters: List[int] = []
        reactors: List[int] = []
        kinds: List[int] = []
        if max_per_gap and (budget is None or budget >= (1 + max_per_gap) * count):
            add_position = positions.append
            add_starter = starters.append
            add_reactor = reactors.append
            add_kind = kinds.append
            for consumed in range(count):
                if rng_random() >= probability:
                    continue
                drawn = 0
                while True:
                    starter = getrandbits(n_bits)
                    while starter >= n:
                        starter = getrandbits(n_bits)
                    reactor = getrandbits(shifted_bits)
                    while reactor >= shifted:
                        reactor = getrandbits(shifted_bits)
                    if reactor >= starter:
                        reactor += 1
                    kind = getrandbits(kind_bits)
                    while kind >= kind_count:
                        kind = getrandbits(kind_bits)
                    add_position(consumed)
                    add_starter(starter)
                    add_reactor(reactor)
                    add_kind(kind)
                    drawn += 1
                    if drawn == max_per_gap or rng_random() >= probability:
                        break
            self.total_injected += len(starters)
            return ColumnSchedule(positions, starters, reactors, kinds, count, 0)
        remaining = budget
        consumed = discarded = injected = 0
        while consumed < count:
            if remaining is not None and remaining < 1:
                break
            drawn = 0
            while drawn < max_per_gap and rng_random() < probability:
                drawn += 1
                starter = getrandbits(n_bits)
                while starter >= n:
                    starter = getrandbits(n_bits)
                reactor = getrandbits(shifted_bits)
                while reactor >= shifted:
                    reactor = getrandbits(shifted_bits)
                if reactor >= starter:
                    reactor += 1
                kind = getrandbits(kind_bits)
                while kind >= kind_count:
                    kind = getrandbits(kind_bits)
                if remaining is None or drawn < remaining:
                    positions.append(consumed)
                    starters.append(starter)
                    reactors.append(reactor)
                    kinds.append(kind)
            if remaining is not None:
                kept = drawn if drawn < remaining else remaining - 1
                discarded += drawn - kept
                remaining -= kept + 1
            injected += drawn
            consumed += 1
        self.total_injected += injected
        return ColumnSchedule(positions, starters, reactors, kinds,
                              consumed, discarded)


class NOAdversary(UOAdversary):
    """Eventually Non-Omissive adversary (Definition 2).

    Behaves like :class:`UOAdversary` during the first ``active_steps``
    scheduled interactions, then stops injecting forever.
    """

    def __init__(
        self,
        model: InteractionModel,
        active_steps: int = 100,
        rate: float = 0.25,
        max_per_gap: int = 3,
        seed: Optional[int] = None,
    ) -> None:
        if active_steps < 0:
            raise ValueError("active_steps must be non-negative")
        super().__init__(model=model, rate=rate, max_per_gap=max_per_gap, seed=seed)
        self.active_steps = active_steps

    def interactions_before(
        self, step: int, scheduled: Interaction, n: int
    ) -> List[Interaction]:
        if step >= self.active_steps:
            return []
        return super().interactions_before(step, scheduled, n)

    def plan_chunk_schedule_columns(
        self, step: int, count: int, n: int, budget: Optional[int] = None,
    ) -> ColumnSchedule:
        active = self.active_steps - step
        if active <= 0:
            # Past the active prefix: no injections, no RNG — the whole
            # chunk is a pass-through (this is where NO runs regain the
            # full adversary-free batching speed).
            return self._pass_through_columns(count, budget)
        if active >= count:
            return super().plan_chunk_schedule_columns(step, count, n, budget)
        # The UO walk for the active head, a pass-through for the tail.
        head = super().plan_chunk_schedule_columns(step, active, n, budget)
        if budget is not None:
            budget -= len(head.starters) + head.consumed
        tail = self._pass_through_columns(count - active, budget)
        return head._replace(consumed=head.consumed + tail.consumed)


class BoundedOmissionAdversary(_RandomOmissionMixin, OmissionAdversary):
    """Adversary with a hard budget of at most ``max_omissions`` injected omissions.

    This is the adversary against which ``SKnO`` is designed: the simulator
    is told an upper bound ``o`` on the number of omissions, and this
    adversary guarantees the bound holds.  The omissions are spread over the
    first part of the execution (one per gap with probability ``rate`` until
    the budget runs out).
    """

    def __init__(
        self,
        model: InteractionModel,
        max_omissions: int,
        rate: float = 0.5,
        seed: Optional[int] = None,
    ) -> None:
        if max_omissions < 0:
            raise ValueError("max_omissions must be non-negative")
        super().__init__(model=model, seed=seed, rate=rate)
        self.max_omissions = max_omissions

    def interactions_before(
        self, step: int, scheduled: Interaction, n: int
    ) -> List[Interaction]:
        if self.total_injected >= self.max_omissions:
            return []
        if self._rng.random() >= self.rate:
            return []
        self.total_injected += 1
        return [self._make_omissive_interaction(n)]

    def plan_chunk_schedule_columns(
        self, step: int, count: int, n: int, budget: Optional[int] = None,
    ) -> ColumnSchedule:
        total = self.total_injected
        max_omissions = self.max_omissions
        if total >= max_omissions:
            # Omission budget spent: the rest of the run is a pass-through
            # with no RNG consumption (matches the per-step early return).
            return self._pass_through_columns(count, budget)
        # The entropy of interactions_before, as in the UO walk:
        # one random() per gap, then _randbelow's getrandbits rejection
        # sampling for the pair and the kind of each constructed injection.
        rate = self.rate
        rng = self._rng
        rng_random = rng.random
        getrandbits = rng.getrandbits
        n_bits = n.bit_length()
        shifted = n - 1
        shifted_bits = shifted.bit_length()
        kind_count = len(self._omissive_kinds)
        kind_bits = kind_count.bit_length()
        positions: List[int] = []
        starters: List[int] = []
        reactors: List[int] = []
        kinds: List[int] = []
        remaining = budget
        consumed = discarded = 0
        while consumed < count and total < max_omissions:
            if remaining is not None and remaining < 1:
                break
            if rng_random() < rate:
                total += 1
                starter = getrandbits(n_bits)
                while starter >= n:
                    starter = getrandbits(n_bits)
                reactor = getrandbits(shifted_bits)
                while reactor >= shifted:
                    reactor = getrandbits(shifted_bits)
                if reactor >= starter:
                    reactor += 1
                kind = getrandbits(kind_bits)
                while kind >= kind_count:
                    kind = getrandbits(kind_bits)
                if remaining is None or remaining >= 2:
                    positions.append(consumed)
                    starters.append(starter)
                    reactors.append(reactor)
                    kinds.append(kind)
                    if remaining is not None:
                        remaining -= 1
                else:
                    discarded += 1
            consumed += 1
            if remaining is not None:
                remaining -= 1
        self.total_injected = total
        if consumed < count:
            consumed += self._pass_through_columns(count - consumed, remaining).consumed
        return ColumnSchedule(positions, starters, reactors, kinds,
                              consumed, discarded)


class NO1Adversary(BoundedOmissionAdversary):
    """The NO1 adversary: at most one omission in the entire execution (Definition 2).

    ``inject_at`` pins the scheduled step before which the single omission is
    injected (useful for deterministic attack demonstrations); by default the
    omission is injected before the first scheduled interaction.  ``pair``
    pins its ``(starter, reactor)``; it must name two distinct agents of
    the run's population, which is checked when the omission is planned.
    """

    def __init__(
        self,
        model: InteractionModel,
        inject_at: int = 0,
        pair: Optional[Tuple[int, int]] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(model=model, max_omissions=1, rate=1.0, seed=seed)
        self.inject_at = inject_at
        self.pair = pair

    def interactions_before(
        self, step: int, scheduled: Interaction, n: int
    ) -> List[Interaction]:
        if self.total_injected >= 1 or step != self.inject_at:
            return []
        if self.pair is not None:
            starter, reactor = self.pair
            if not (0 <= starter < n and 0 <= reactor < n and starter != reactor):
                raise ValueError(
                    f"NO1Adversary pair={tuple(self.pair)!r} is not two distinct "
                    f"agents of a population of n={n}")
            self.total_injected += 1
            omission = self._rng.choice(self._omissive_kinds)
            return [Interaction(starter, reactor, omission=omission)]
        self.total_injected += 1
        return [self._make_omissive_interaction(n)]

    def plan_chunk_schedule_columns(
        self, step: int, count: int, n: int, budget: Optional[int] = None,
    ) -> ColumnSchedule:
        if self.total_injected >= 1 or not (
            step <= self.inject_at < step + count
        ):
            # The single omission is spent or pinned outside this chunk:
            # pure pass-through, no RNG.  (inject_at < step can only mean
            # "spent or unreachable" since scheduled steps never rewind.)
            return self._pass_through_columns(count, budget)
        # interactions_before never reads its scheduled argument, so the
        # generic walk over placeholder draws is exactly NO1's semantics
        # (and pays its per-gap method call on at most one chunk per run).
        return plan_columns_per_step(
            self, step, repeat(_SCHEDULE_PLACEHOLDER, count), n, budget,
            self._omissive_kinds)
