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
shared-CI noise cannot fail an unrelated change).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.adversary.omission import BoundedOmissionAdversary
from repro.analysis.reporting import format_table
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


def topologies(sizes):
    for n in sizes:
        yield f"ring(n={n})", lambda n=n: ring_scheduler(n, seed=1)
        yield f"star(n={n})", lambda n=n: star_scheduler(n, seed=1)
    n = min(sizes)
    yield f"complete(n={n})", lambda n=n: complete_graph_scheduler(n, seed=1)
    yield f"gnp(n={n}, p=0.1)", lambda n=n: random_graph_scheduler(n, 0.1, seed=1)


def draw_rate(scheduler, draws: int, batched: bool) -> float:
    if not batched:
        # Shadow the vectorized draw with the base per-step fallback so this
        # measures true per-step draws, as the pre-vectorization engine did.
        scheduler.next_columns = Scheduler.next_columns.__get__(scheduler)
    start = time.perf_counter()
    for step in range(0, draws, CHUNK):
        scheduler.next_columns(step, CHUNK)
    return draws / (time.perf_counter() - start)


def engine_rate(n: int, steps: int, batched: bool, with_adversary: bool) -> float:
    model = get_model("I3")
    scheduler = ring_scheduler(n, seed=1)
    chunk_size = None
    if not batched:
        scheduler.next_columns = Scheduler.next_columns.__get__(scheduler)
        chunk_size = 1
    adversary = None
    if with_adversary:
        adversary = BoundedOmissionAdversary(model, max_omissions=64, rate=0.5, seed=1)
    engine = SimulationEngine(OneWayEpidemicProtocol(), model, scheduler,
                              adversary=adversary)
    initial = Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))
    start = time.perf_counter()
    engine.execute(initial, steps, trace_policy="counts-only", chunk_size=chunk_size)
    return steps / (time.perf_counter() - start)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes and draw counts (CI smoke test)")
    parser.add_argument("--draws", type=int, default=None,
                        help="draws per measurement (default: 200000, quick: 20000)")
    args = parser.parse_args(argv)

    sizes = [100, 1000] if args.quick else [1000, 10_000]
    draws = args.draws or (20_000 if args.quick else 200_000)

    draw_rows = []
    headline: Optional[float] = None
    for name, factory in topologies(sizes):
        batched = draw_rate(factory(), draws, batched=True)
        per_step = draw_rate(factory(), draws, batched=False)
        speedup = batched / per_step
        if name == f"ring(n={max(sizes)})":
            headline = speedup
        draw_rows.append([name, f"{batched:,.0f}", f"{per_step:,.0f}",
                          f"{speedup:.1f}x"])
    print(format_table(
        ["topology", "batched draws/s", "per-step draws/s", "speedup"], draw_rows))

    n = min(sizes)
    steps = 5_000 if args.quick else 50_000
    engine_rows = []
    for with_adversary in (False, True):
        batched = engine_rate(n, steps, batched=True, with_adversary=with_adversary)
        per_step = engine_rate(n, steps, batched=False, with_adversary=with_adversary)
        engine_rows.append([
            f"ring(n={n})", "yes" if with_adversary else "no", steps,
            f"{batched:,.0f}", f"{per_step:,.0f}", f"{batched / per_step:.1f}x"])
    print()
    print(format_table(
        ["workload", "adversary", "steps", "batched it/s", "per-step it/s",
         "speedup"], engine_rows))

    print()
    print(f"headline: GraphScheduler batched draws are {headline:.1f}x the "
          f"per-step fallback on ring(n={max(sizes)})")
    if headline < 1.3:
        print("FAIL: expected batched graph draws to be at least 1.3x the "
              "per-step fallback", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
