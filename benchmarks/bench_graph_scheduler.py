"""Graph-restricted scheduling: vectorized batched draws vs the per-step path.

``GraphScheduler`` was the last scheduler left on the per-step batched-draw
fallback; this benchmark pins what its vectorized
:meth:`~repro.scheduling.graph_scheduler.GraphScheduler.next_columns`
buys, on the draw itself and end to end.

Two tables:

* **draw rate** — interactions drawn per second, batched (chunks of 256)
  vs the per-step fallback inherited from ``Scheduler``, across the
  standard topologies (ring, star, complete, connected G(n, p)).  Both
  paths produce bitwise-identical streams (pinned by
  ``tests/test_batched_scheduling.py``), so the ratio is pure overhead.
* **engine throughput** — counts-only epidemic runs on a ring topology,
  batched vs ``chunk_size=1`` + per-step fallback, with and without a
  ``BoundedOmissionAdversary`` (the budget-aware batched injection
  protocol on a graph workload).

Usage::

    PYTHONPATH=src python benchmarks/bench_graph_scheduler.py
    PYTHONPATH=src python benchmarks/bench_graph_scheduler.py --quick

Headline guard: batched draws on the largest ring topology must be at
least 1.3x the per-step fallback (typically ~3x; the guard is loose so
shared-CI noise cannot fail an unrelated change), as the median ratio of
``paired_guard.PAIRS`` alternating pairs; the other rows are one pair.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from paired_guard import Measurement, gate, throughput
from repro.adversary.omission import BoundedOmissionAdversary
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.interaction.models import get_model
from repro.protocols.catalog.epidemic import INFORMED, SUSCEPTIBLE, OneWayEpidemicProtocol
from repro.protocols.state import Configuration
from repro.scheduling.graph_scheduler import (
    complete_graph_scheduler,
    random_graph_scheduler,
    ring_scheduler,
    star_scheduler,
)
from repro.scheduling.scheduler import Scheduler

CHUNK = 256

#: Batched draws on the largest ring must be at least this multiple of the
#: per-step fallback.
GUARD_FACTOR = 1.3


def topologies(sizes):
    for n in sizes:
        yield f"ring(n={n})", lambda n=n: ring_scheduler(n, seed=1)
        yield f"star(n={n})", lambda n=n: star_scheduler(n, seed=1)
    n = min(sizes)
    yield f"complete(n={n})", lambda n=n: complete_graph_scheduler(n, seed=1)
    yield f"gnp(n={n}, p=0.1)", lambda n=n: random_graph_scheduler(n, 0.1, seed=1)


def per_step(scheduler):
    """Shadow the vectorized draw with the base per-step fallback, so the
    scheduler draws per step as the pre-vectorization engine did."""
    scheduler.next_columns = Scheduler.next_columns.__get__(scheduler)
    return scheduler


def draw_rate(factory, draws: int, batched: bool) -> Measurement:
    def measure() -> float:
        scheduler = factory() if batched else per_step(factory())

        def work() -> int:
            for step in range(0, draws, CHUNK):
                scheduler.next_columns(step, CHUNK)
            return draws
        return throughput(work)
    return measure


def engine_rate(n: int, steps: int, batched: bool, with_adversary: bool) -> Measurement:
    def measure() -> float:
        model = get_model("I3")
        scheduler = ring_scheduler(n, seed=1)
        if not batched:
            per_step(scheduler)
        adversary = None
        if with_adversary:
            adversary = BoundedOmissionAdversary(model, max_omissions=64, rate=0.5, seed=1)
        engine = SimulationEngine(OneWayEpidemicProtocol(), model, scheduler,
                                  adversary=adversary)
        initial = Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))
        return throughput(lambda: run_until_stable(
            engine, initial, None, steps, trace_policy="counts-only",
            chunk_size=None if batched else 1).steps_executed)
    return measure


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes and draw counts (CI smoke test)")
    parser.add_argument("--draws", type=int, default=None,
                        help="draws per measurement (default: 200000, quick: 20000)")
    args = parser.parse_args(argv)

    sizes = [100, 1000] if args.quick else [1000, 10_000]
    draws = args.draws or (20_000 if args.quick else 200_000)

    guard_ring = f"ring(n={max(sizes)})"
    draws_status = gate(
        (([name], draw_rate(factory, draws, batched=False),
          draw_rate(factory, draws, batched=True),
          (guard_ring, f"GraphScheduler batched draws vs the per-step fallback "
                       f"on {guard_ring}", GUARD_FACTOR, {})
          if name == guard_ring else None)
         for name, factory in topologies(sizes)),
        ["topology", "per-step draws/s", "batched draws/s", "speedup"])

    n = min(sizes)
    steps = 5_000 if args.quick else 50_000
    print()
    gate((([f"ring(n={n})", "yes" if with_adversary else "no", steps],
           engine_rate(n, steps, False, with_adversary),
           engine_rate(n, steps, True, with_adversary), None)
          for with_adversary in (False, True)),
         ["workload", "adversary", "steps", "per-step it/s", "batched it/s",
          "speedup"])
    return draws_status


if __name__ == "__main__":
    sys.exit(main())
