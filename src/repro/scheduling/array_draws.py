"""Numpy draw kernels: whole-chunk scheduler draws for the array engine.

The batched protocol of :mod:`repro.scheduling.scheduler` amortizes Python
overhead but still builds one :class:`~repro.scheduling.runs.Interaction`
object per step.  The array engine (:mod:`repro.engine.backends.array_backend`)
never materialises interactions at all: it consumes *draw kernels*, which
return whole chunks of (starter, reactor) index arrays with one
``Generator.integers`` call per component.

Equivalence contract (the array side of the backend contract):

* **Own stream.** Kernels draw from a seeded ``PCG64`` generator, not from
  the scheduler's ``random.Random``.  Bitwise parity with the per-step
  scheduler stream is explicitly out of scope; the kernel draws from the
  *same distribution* (uniform ordered pairs, uniform oriented graph edges,
  the lexicographic round-robin cycle), which the equivalence suite checks
  distributionally.
* **Chunk-size independence.** Each drawn component (starter, reactor,
  edge, orientation) consumes its own generator, spawned deterministically
  from one ``SeedSequence(seed)``.  Because a bounded ``integers`` draw
  consumes its stream per element — independent of batch size — the
  concatenation of any chunking of draws is identical: a kernel's stream
  depends only on ``(seed, number of pairs drawn so far)``.
* **Determinism.** Same seed, same draw positions, same pairs; a ``None``
  seed draws fresh OS entropy, exactly like ``random.Random(None)``.

Deterministic schedulers (round-robin) are pure functions of the step index
and need no RNG; they are the anchor for the *exact* (not distributional)
backend-agreement tests.

:func:`compile_scheduler` maps a live scheduler instance to its kernel and
raises :class:`~repro.engine.backends.base.BackendCompileError` for families
without one (scripted and weighted schedulers, and any subclass that may
have overridden the draw law).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.engine.backends.base import BackendCompileError
from repro.scheduling.graph_scheduler import GraphScheduler
from repro.scheduling.scheduler import RandomScheduler, RoundRobinScheduler, Scheduler


def _spawn_generators(seed: Optional[int], count: int) -> "list[np.random.Generator]":
    """``count`` independent PCG64 generators, deterministic in ``seed``.

    Spawning children of one ``SeedSequence`` keeps the per-component
    streams independent of each other *and* of chunk boundaries — the
    chunk-size-independence leg of the kernel contract.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


class ArrayDrawKernel:
    """Base class: produces chunks of (starter, reactor) index arrays."""

    def draw(self, step: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs for steps ``step .. step + k - 1`` as two int arrays.

        ``step`` is the number of pairs drawn so far; random kernels ignore
        it (their position is carried by their generators), deterministic
        kernels are pure functions of it.  Kernels never exhaust.
        """
        raise NotImplementedError


class UniformPairKernel(ArrayDrawKernel):
    """Uniform ordered pairs of distinct agents (the ``RandomScheduler`` law).

    Starter uniform over ``0..n-1``; reactor uniform over the remaining
    ``n - 1`` slots, shifted past the starter — the same two-draw scheme as
    :meth:`RandomScheduler.next_interaction`, one ``integers`` call per
    component per chunk.
    """

    def __init__(self, n: int, seed: Optional[int]) -> None:
        if n < 2:
            raise ValueError("a population needs at least two agents to interact")
        self.n = n
        self._starter_rng, self._reactor_rng = _spawn_generators(seed, 2)

    def draw(self, step: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        starters = self._starter_rng.integers(0, self.n, size=k)
        reactors = self._reactor_rng.integers(0, self.n - 1, size=k)
        reactors += reactors >= starters
        return starters, reactors


class GraphPairKernel(ArrayDrawKernel):
    """Uniform edge, then uniform orientation (the ``GraphScheduler`` law)."""

    def __init__(self, edges, seed: Optional[int]) -> None:
        if not edges:
            raise ValueError("an interaction graph needs at least one edge")
        edge_array = np.asarray(edges, dtype=np.int64)
        self._first = edge_array[:, 0].copy()
        self._second = edge_array[:, 1].copy()
        self._edge_rng, self._orientation_rng = _spawn_generators(seed, 2)

    def draw(self, step: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        edges = self._edge_rng.integers(0, len(self._first), size=k)
        forward = self._orientation_rng.integers(0, 2, size=k).astype(bool)
        first = self._first[edges]
        second = self._second[edges]
        starters = np.where(forward, first, second)
        reactors = np.where(forward, second, first)
        return starters, reactors


class RoundRobinKernel(ArrayDrawKernel):
    """The lexicographic ordered-pair cycle, as a pure function of the step.

    Deterministic and identical to :class:`RoundRobinScheduler` pair for
    pair, so runs through this kernel are the *exact*-agreement anchor of
    the backend equivalence suite.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("a population needs at least two agents to interact")
        self.n = n

    def draw(self, step: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        others = self.n - 1
        indices = np.arange(step, step + k, dtype=np.int64) % (self.n * others)
        starters, reactors = np.divmod(indices, others)
        reactors += reactors >= starters
        return starters, reactors


def compile_scheduler(scheduler: Scheduler) -> ArrayDrawKernel:
    """Compile a live scheduler into its numpy draw kernel.

    Dispatch is on the *exact* class: a subclass may have overridden the
    draw law, and silently compiling the base-class kernel would change the
    experiment.  Supported families: :class:`RandomScheduler`,
    :class:`GraphScheduler` (ring/star/complete/random-graph constructors
    all return it) and :class:`RoundRobinScheduler`.
    """
    kind = type(scheduler)
    if kind is RandomScheduler:
        return UniformPairKernel(scheduler.n, scheduler.seed)
    if kind is GraphScheduler:
        return GraphPairKernel(scheduler._edges, scheduler.seed)
    if kind is RoundRobinScheduler:
        return RoundRobinKernel(scheduler.n)
    raise BackendCompileError(
        f"scheduler {kind.__name__} has no array draw kernel; the array "
        "backend supports RandomScheduler, the GraphScheduler family and "
        "RoundRobinScheduler (run it with --engine-backend python otherwise)"
    )
