"""Engine throughput: fast-path trace policies vs. the seed execution path.

Measures interactions/second for populations n in {10^2, 10^3, 10^4} under
the TW, I3 and IO interaction models, with and without an omission adversary
(only I3 admits omissions among the three), across four execution paths:

``legacy``
    The seed engine loop: an immutable :class:`Configuration` threaded
    through :meth:`Trace.record`, paying an O(n) tuple copy per interaction.
``full``
    The fast-path core recording a complete trace (per-step
    :class:`TraceStep` allocation, O(1) buffer writes, one freeze at the end).
``counts-only``
    The fast-path core recording nothing per step, consuming the scheduler
    through batched draws (the default chunk size) — with an adversary,
    through the budget-aware batched injection protocol on top.  This is
    the headline fast path.
``counts-only/step``
    The same loop forced to ``chunk_size=1`` with the scheduler's batched
    draw overridden by the per-step fallback (``next_interaction`` per
    step, as the pre-batching engine drew) — isolates the batched-draw
    speedup, since batched and per-step execution are bitwise identical.
    On adversary rows this is the per-step injection interleaving, so the
    same column doubles as the batched-adversary control.
``ring``
    The fast-path core keeping only the last 64 steps.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --quick
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --adversary bounded
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --backend array
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --obs

``--adversary`` picks the adversary class attached to the omission-model
rows: ``uo`` (the flooding UOAdversary, the historical default) or
``bounded`` (a ``BoundedOmissionAdversary`` with a 64-omission budget — the
Theorem 4.1 assumption, and what the CI smoke exercises so the batched
pass-through after budget exhaustion stays on the radar).

``--backend array`` switches to the execution-backend comparison: the
columnar numpy array engine (``repro[fast]`` extra) versus the python fast
path, counts-only, on two catalog protocols at n = 10^4 and 10^5.  Its
guard: at n = 10^5 the array backend must be **≥ 5x** the python backend on
*both* protocols (typically 8-13x; run in the CI numpy job).

Combining both flags — ``--backend array --adversary bounded`` (or ``uo``)
— runs the **adversary-on-array** comparison instead: the compiled
injection-schedule pipeline versus the python batched adversary protocol,
counts-only, one-way epidemic under I3 at n = 10^4 and 10^5.  Its guard:
at n = 10^5 the array backend must be **≥ 3x** the python backend (looser
than the adversary-free guard because the schedule walk itself stays in
python).  ``--json PATH`` appends the measured cell to a JSON file
(read-update-merge keyed by adversary class, so the separate ``bounded``
and ``uo`` CI invocations accumulate into one ``BENCH_array_adversary.json``
artifact).

``--obs`` runs the **observability-overhead** guard instead: the shipped
:func:`run_until_stable` — whose per-run telemetry seam costs one global
recorder read plus one identity check when observability is off (the
default ``NullRecorder``) — versus a control calling
:func:`run_until_stable_core` directly, bypassing the seam entirely.
Counts-only epidemic under TW at n = 10^4 and 10^5, interleaved repeats,
best-of per path.  Its guard: at n = 10^5 the shipped path must keep
**≥ 97%** of the control's throughput (a ≤ 3% NullRecorder tax; typically
indistinguishable from noise).  ``--json PATH`` merges the guarded cell
under the ``"obs-overhead"`` key (e.g. ``BENCH_engine_throughput.json``).

``--transport`` runs the **result-transport** comparison instead: process
fan-out (``jobs=2``, chunked workers) returning results over the
shared-memory columnar transport versus the chunked-pickle baseline, on
short counts-only epidemic runs (array engine backend) at n = 10^4 and
10^5 — the regime where shipping a 10^5-state final configuration through
the pickle pipe dominates the actual simulation.  Both transports must
fold to the identical aggregate (checked every invocation).  Its guard: at
n = 10^5 the shm transport must be **≥ 1.5x** chunked-pickle throughput
(typically 2-4x; run in the CI numpy job).  ``--json PATH`` merges the
guarded cell under the ``"transport"`` key (e.g. ``BENCH_transport.json``).

Headline guards at n=10^4 in the default mode, failing the benchmark when
they regress: ``counts-only`` must be ≥ 5x ``legacy`` and batched draws
≥ 1.3x per-step draws (both TW, no adversary; typically ~2x), and the
batched adversary pipeline must be ≥ 1.3x its per-step control (I3,
adversary attached; typically ~2x).  The guards are deliberately loose so
shared-CI noise cannot fail an unrelated change.  ``--json PATH`` merges
the default mode's headline cells under the ``"engine-throughput"`` key
(e.g. ``BENCH_engine_throughput.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from repro.adversary.omission import BoundedOmissionAdversary, UOAdversary
from repro.analysis.reporting import format_table
from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.engine import SimulationEngine
from repro.engine.trace import Trace
from repro.interaction.models import get_model
from repro.protocols.catalog.epidemic import (
    INFORMED,
    SUSCEPTIBLE,
    EpidemicProtocol,
    OneWayEpidemicProtocol,
)
from repro.protocols.catalog.leader_election import LEADER, LeaderElectionProtocol
from repro.protocols.state import Configuration
from repro.scheduling.scheduler import RandomScheduler, Scheduler, SchedulerExhausted

MODELS = ("TW", "I3", "IO")
POLICIES = ("legacy", "full", "counts-only", "counts-only/step", "ring")

#: Catalog workloads of the ``--backend array`` comparison; the ≥5x guard
#: must hold on every one of them.
ARRAY_WORKLOADS = (
    ("epidemic",
     lambda: TrivialTwoWaySimulator(EpidemicProtocol()),
     lambda n: Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))),
    ("leader-election",
     lambda: TrivialTwoWaySimulator(LeaderElectionProtocol()),
     lambda n: Configuration([LEADER] * n)),
)

#: The array guard's population and factor (acceptance criterion: ≥5x the
#: python fast path at n=10^5 on at least two catalog protocols).
ARRAY_GUARD_POPULATION = 100_000
ARRAY_GUARD_FACTOR = 5.0

#: The adversary-on-array guard: ≥3x at n=10^5 for bounded and uo alike.
#: Looser than the adversary-free guard because the injection-schedule walk
#: itself runs in python (only the merge and execution are columnar).
ADVERSARY_GUARD_FACTOR = 3.0

#: The result-transport guard: at n=10^5, process fan-out over the
#: shared-memory columnar transport must be ≥1.5x the chunked-pickle
#: baseline on short counts-only runs.  Loose relative to the typical 2-4x
#: so shared-CI noise cannot fail an unrelated change.
TRANSPORT_GUARD_POPULATION = 100_000
TRANSPORT_GUARD_FACTOR = 1.5
TRANSPORT_SIZES = (10_000, 100_000)

#: The observability-overhead guard: with the default ``NullRecorder``
#: installed, the shipped ``run_until_stable`` must keep ≥97% of the
#: throughput of a control that bypasses the telemetry seam entirely —
#: i.e. observability-off costs at most 3%.  The seam is per run (one
#: global read, one identity check), so the real tax is noise-level; the
#: guard exists to catch a regression that sneaks recording into a hot
#: loop.
OBS_GUARD_POPULATION = 100_000
OBS_GUARD_RATIO = 0.97
OBS_SIZES = (10_000, 100_000)
OBS_REPEATS = 5


def build_adversary(kind: str, model, seed: int):
    """The benchmark's canonical adversary instances, shared by every mode."""
    if kind == "bounded":
        return BoundedOmissionAdversary(model, max_omissions=64, rate=0.5, seed=seed)
    return UOAdversary(model, rate=0.25, max_per_gap=3, seed=seed)


def build_engine(model_name: str, n: int, seed: int, with_adversary: bool,
                 adversary_kind: str = "uo") -> SimulationEngine:
    model = get_model(model_name)
    if model.one_way:
        program = OneWayEpidemicProtocol()
    else:
        program = TrivialTwoWaySimulator(EpidemicProtocol())
    adversary = None
    if with_adversary:
        adversary = build_adversary(adversary_kind, model, seed)
    return SimulationEngine(program, model, RandomScheduler(n, seed=seed), adversary=adversary)


def initial_configuration(n: int) -> Configuration:
    return Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))


def run_legacy(engine: SimulationEngine, initial: Configuration, steps: int) -> float:
    """The seed execution path, reproduced verbatim: O(n) copy per step."""
    trace = Trace(initial)
    configuration = initial
    scheduler_step = 0
    executed = 0
    start = time.perf_counter()
    while executed < steps:
        try:
            scheduled = engine.scheduler.next_interaction(scheduler_step)
        except SchedulerExhausted:
            break
        scheduler_step += 1
        batch = [scheduled]
        if engine.adversary is not None:
            injected = engine.adversary.interactions_before(
                step=scheduler_step - 1, scheduled=scheduled, n=len(configuration))
            batch = list(injected) + [scheduled]
        for interaction in batch:
            if executed >= steps:
                break
            starter_pre = configuration[interaction.starter]
            reactor_pre = configuration[interaction.reactor]
            starter_post, reactor_post = engine.model.apply(
                engine.program, starter_pre, reactor_pre, interaction.omission)
            trace.record(interaction, starter_post, reactor_post)
            configuration = trace.final_configuration
            executed += 1
    return time.perf_counter() - start


def run_fastpath(engine: SimulationEngine, initial: Configuration, steps: int,
                 policy: str, chunk_size: Optional[int] = None) -> float:
    start = time.perf_counter()
    engine.execute(initial, steps, trace_policy=policy, ring_size=64,
                   chunk_size=chunk_size)
    return time.perf_counter() - start


def measure(model_name: str, n: int, steps: int, with_adversary: bool, seed: int = 0,
            adversary_kind: str = "uo"):
    """One benchmark cell: interactions/sec per execution path."""
    rates = {}
    for policy in POLICIES:
        engine = build_engine(model_name, n, seed, with_adversary, adversary_kind)
        initial = initial_configuration(n)
        if policy == "legacy":
            elapsed = run_legacy(engine, initial, steps)
        elif policy == "counts-only/step":
            # Shadow the vectorized batched draw with the base per-step
            # fallback so this cell measures true per-step draws
            # (next_interaction per step), not k=1 vectorized calls.
            engine.scheduler.next_columns = (
                Scheduler.next_columns.__get__(engine.scheduler))
            elapsed = run_fastpath(engine, initial, steps, "counts-only", chunk_size=1)
        else:
            elapsed = run_fastpath(engine, initial, steps, policy)
        rates[policy] = steps / elapsed if elapsed > 0 else float("inf")
    return rates


def run_backend_comparison(args) -> int:
    """``--backend array``: columnar engine vs. python fast path, counts-only.

    Both backends execute pure budget runs (``SimulationEngine.execute``,
    no predicate) from the same seed; the array backend gets a longer
    budget because measuring 10^6+ it/s over a python-sized budget would
    be all fixed cost.
    """
    sizes = args.sizes or [10_000, ARRAY_GUARD_POPULATION]
    if ARRAY_GUARD_POPULATION not in sizes:
        sizes = sorted(sizes + [ARRAY_GUARD_POPULATION])
    python_steps = args.steps or (50_000 if args.quick else 200_000)
    array_steps = python_steps * 5

    rows = []
    guarded_speedups = []
    for protocol_name, make_program, make_initial in ARRAY_WORKLOADS:
        for n in sizes:
            rates = {}
            for backend, steps in (("python", python_steps), ("array", array_steps)):
                engine = SimulationEngine(
                    make_program(), get_model("TW"),
                    RandomScheduler(n, seed=0), backend=backend)
                initial = make_initial(n)
                start = time.perf_counter()
                engine.execute(initial, steps, trace_policy="counts-only")
                elapsed = time.perf_counter() - start
                rates[backend] = steps / elapsed if elapsed > 0 else float("inf")
            speedup = rates["array"] / rates["python"]
            if n == ARRAY_GUARD_POPULATION:
                guarded_speedups.append((protocol_name, speedup))
            rows.append([
                protocol_name, n,
                f"{rates['python']:,.0f}", f"{rates['array']:,.0f}",
                f"{speedup:.1f}x",
            ])

    print(format_table(
        ["protocol", "n", "python counts-only it/s", "array counts-only it/s",
         "array vs python"],
        rows,
    ))
    print()
    failed = False
    for protocol_name, speedup in guarded_speedups:
        print(f"headline: array backend is {speedup:.1f}x the python fast path "
              f"at n={ARRAY_GUARD_POPULATION:,} ({protocol_name})")
        if speedup < ARRAY_GUARD_FACTOR:
            print(f"FAIL: expected at least {ARRAY_GUARD_FACTOR:.0f}x at "
                  f"n={ARRAY_GUARD_POPULATION:,} on {protocol_name}",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _merge_bench_json(path: str, key: str, payload: dict) -> None:
    """Read-update-merge ``payload`` under ``key`` into ``path``.

    Separate CI invocations (one per adversary class, one per benchmark
    mode) accumulate into a single artifact; a corrupt or missing file
    starts over rather than failing the benchmark.
    """
    data: dict = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                data = loaded
        except (OSError, ValueError):
            data = {}
    data[key] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} [{key}]")


def run_adversary_backend_comparison(args) -> int:
    """``--backend array --adversary <kind>``: compiled injection schedules
    vs. the python batched adversary protocol, counts-only.

    One workload — one-way epidemic under I3 (the omission-admitting model
    the equivalence suite anchors on) with the chosen adversary attached to
    both backends from the same seed.  Pure budget runs, so both backends
    execute exactly ``steps`` interactions (injections count toward the
    budget) and it/s is directly comparable.
    """
    sizes = args.sizes or [10_000, ARRAY_GUARD_POPULATION]
    if ARRAY_GUARD_POPULATION not in sizes:
        sizes = sorted(sizes + [ARRAY_GUARD_POPULATION])
    python_steps = args.steps or (50_000 if args.quick else 200_000)
    array_steps = python_steps * 5

    model = get_model("I3")
    rows = []
    guard_cell: Optional[dict] = None
    for n in sizes:
        rates = {}
        for backend, steps in (("python", python_steps), ("array", array_steps)):
            engine = SimulationEngine(
                OneWayEpidemicProtocol(), model,
                RandomScheduler(n, seed=0),
                adversary=build_adversary(args.adversary, model, seed=0),
                backend=backend)
            initial = initial_configuration(n)
            start = time.perf_counter()
            outcome = engine.execute(initial, steps, trace_policy="counts-only")
            elapsed = time.perf_counter() - start
            rates[backend] = outcome.steps / elapsed if elapsed > 0 else float("inf")
        speedup = rates["array"] / rates["python"]
        if n == ARRAY_GUARD_POPULATION:
            guard_cell = {
                "adversary": args.adversary,
                "model": "I3",
                "protocol": "one-way-epidemic",
                "n": n,
                "python_steps": python_steps,
                "array_steps": array_steps,
                "python_its": round(rates["python"], 1),
                "array_its": round(rates["array"], 1),
                "speedup": round(speedup, 2),
                "guard_factor": ADVERSARY_GUARD_FACTOR,
            }
        rows.append([
            args.adversary, n,
            f"{rates['python']:,.0f}", f"{rates['array']:,.0f}",
            f"{speedup:.1f}x",
        ])

    print(format_table(
        ["adversary", "n", "python counts-only it/s", "array counts-only it/s",
         "array vs python"],
        rows,
    ))
    print()
    assert guard_cell is not None
    print(f"headline: array backend with the {args.adversary} adversary is "
          f"{guard_cell['speedup']:.1f}x the python batched protocol at "
          f"n={ARRAY_GUARD_POPULATION:,} (I3, one-way epidemic)")
    if args.json:
        _merge_bench_json(args.json, args.adversary, guard_cell)
    if guard_cell["speedup"] < ADVERSARY_GUARD_FACTOR:
        print(f"FAIL: expected at least {ADVERSARY_GUARD_FACTOR:.0f}x at "
              f"n={ARRAY_GUARD_POPULATION:,} with the {args.adversary} adversary",
              file=sys.stderr)
        return 1
    return 0


def run_obs_overhead_comparison(args) -> int:
    """``--obs``: the NullRecorder tax of the per-run observability seam.

    Both paths execute the identical python-backend convergence loop on
    a counts-only epidemic run under TW from the same seed, driven by a
    never-satisfied O(1) incremental predicate so the full step budget is
    spent in the step loop (a plain-callable predicate would rescan all n
    agents per step and drown the seam in predicate cost):

    * ``control`` calls :func:`run_until_stable_core` directly — the raw
      loop, no telemetry seam at all;
    * ``shipped`` calls :func:`run_until_stable` with the process-wide
      default recorder (the ``NullRecorder``) — paying the seam's one
      global read and one identity check per run.

    Repeats are interleaved (control, shipped, control, ...) so clock
    drift hits both paths alike, and each path keeps its best rate.
    """
    from repro.engine.convergence import run_until_stable, run_until_stable_core
    from repro.engine.fastpath import IncrementalPredicate
    from repro.obs.recorder import NULL_RECORDER, get_recorder

    class _NeverStable(IncrementalPredicate):
        """O(1) predicate that never fires: the run spends its full budget."""

        consumes_deltas = False

        def reset(self, configuration) -> bool:
            return False

        def update(self, deltas) -> bool:
            return False

    if get_recorder() is not NULL_RECORDER:
        print("FAIL: the --obs guard measures the observability-off path "
              "and needs the NullRecorder installed", file=sys.stderr)
        return 1

    sizes = args.sizes or list(OBS_SIZES)
    if OBS_GUARD_POPULATION not in sizes:
        sizes = sorted(sizes + [OBS_GUARD_POPULATION])
    steps = args.steps or (20_000 if args.quick else 100_000)

    def measure_once(n: int, shipped: bool) -> float:
        engine = build_engine("TW", n, seed=0, with_adversary=False)
        initial = initial_configuration(n)
        predicate = _NeverStable()
        start = time.perf_counter()
        if shipped:
            result = run_until_stable(engine, initial, predicate,
                                      max_steps=steps, trace_policy="counts-only")
        else:
            result, _chunks = run_until_stable_core(
                engine.program, engine.model, engine.scheduler, engine.adversary,
                initial, predicate, max_steps=steps, trace_policy="counts-only")
        elapsed = time.perf_counter() - start
        assert result.steps_executed == steps
        return steps / elapsed if elapsed > 0 else float("inf")

    rows = []
    guard_cell: Optional[dict] = None
    for n in sizes:
        best = {"control": 0.0, "shipped": 0.0}
        for _ in range(OBS_REPEATS):
            best["control"] = max(best["control"], measure_once(n, shipped=False))
            best["shipped"] = max(best["shipped"], measure_once(n, shipped=True))
        ratio = best["shipped"] / best["control"]
        if n == OBS_GUARD_POPULATION:
            guard_cell = {
                "protocol": "epidemic",
                "model": "TW",
                "n": n,
                "steps": steps,
                "repeats": OBS_REPEATS,
                "control_its": round(best["control"], 1),
                "shipped_its": round(best["shipped"], 1),
                "ratio": round(ratio, 4),
                "guard_ratio": OBS_GUARD_RATIO,
            }
        rows.append([
            n, steps,
            f"{best['control']:,.0f}", f"{best['shipped']:,.0f}",
            f"{ratio:.3f}",
        ])

    print(format_table(
        ["n", "steps", "control it/s (no seam)", "shipped it/s (NullRecorder)",
         "shipped/control"],
        rows,
    ))
    print()
    assert guard_cell is not None
    print(f"headline: with observability off, run_until_stable keeps "
          f"{guard_cell['ratio'] * 100:.1f}% of the seamless control's "
          f"throughput at n={OBS_GUARD_POPULATION:,} (TW, counts-only)")
    if args.json:
        _merge_bench_json(args.json, "obs-overhead", guard_cell)
    if guard_cell["ratio"] < OBS_GUARD_RATIO:
        print(f"FAIL: expected the NullRecorder seam to keep at least "
              f"{OBS_GUARD_RATIO * 100:.0f}% of control throughput at "
              f"n={OBS_GUARD_POPULATION:,}", file=sys.stderr)
        return 1
    return 0


def run_transport_comparison(args) -> int:
    """``--transport``: shared-memory result transport vs. chunked pickle.

    Process fan-out (``jobs=2``, ``run_chunk=8``) of short counts-only
    epidemic runs on the array engine backend — the workload the transport
    was built for: each run's payload is dominated by its final
    configuration, which the pickle baseline ships as a 10^4-10^5-state
    python object per run while the shm transport ships one fixed-width
    int64 row per run in a per-batch arena (and, with
    ``materialize_final=False`` riding along, never even materialises the
    python object in the worker).  Both transports must fold to the same
    aggregate; the guard holds at n=10^5 where the object detour is
    largest.
    """
    try:
        import numpy  # noqa: F401 - availability probe
    except ImportError:
        print("the --transport comparison runs its workload on the array "
              "engine backend and needs numpy; install the fast extra "
              "(pip install 'repro[fast]')", file=sys.stderr)
        return 1
    from repro.engine.experiment import repeat_experiment
    from repro.protocols.registry import ExperimentSpec

    sizes = args.sizes or list(TRANSPORT_SIZES)
    if TRANSPORT_GUARD_POPULATION not in sizes:
        sizes = sorted(sizes + [TRANSPORT_GUARD_POPULATION])
    runs = 32 if args.quick else 96
    max_steps = args.steps or 200
    jobs, run_chunk = 2, 8

    rows = []
    guard_cell: Optional[dict] = None
    for n in sizes:
        spec = ExperimentSpec(
            protocol="epidemic", population=n, model="TW", backend="array")
        rates = {}
        folded = {}
        for transport in ("pickle", "shm"):
            start = time.perf_counter()
            result = repeat_experiment(
                spec=spec, runs=runs, max_steps=max_steps, base_seed=0,
                jobs=jobs, jobs_backend="process", run_chunk=run_chunk,
                trace_policy="counts-only", result_transport=transport)
            elapsed = time.perf_counter() - start
            rates[transport] = runs / elapsed if elapsed > 0 else float("inf")
            folded[transport] = result.to_dict()
        if folded["pickle"] != folded["shm"]:
            print(f"FAIL: shm and pickle transports folded to different "
                  f"aggregates at n={n:,}", file=sys.stderr)
            return 1
        speedup = rates["shm"] / rates["pickle"]
        if n == TRANSPORT_GUARD_POPULATION:
            guard_cell = {
                "protocol": "epidemic",
                "model": "TW",
                "engine_backend": "array",
                "n": n,
                "runs": runs,
                "max_steps": max_steps,
                "jobs": jobs,
                "run_chunk": run_chunk,
                "pickle_runs_per_s": round(rates["pickle"], 1),
                "shm_runs_per_s": round(rates["shm"], 1),
                "speedup": round(speedup, 2),
                "guard_factor": TRANSPORT_GUARD_FACTOR,
            }
        rows.append([
            n, runs, max_steps,
            f"{rates['pickle']:,.1f}", f"{rates['shm']:,.1f}",
            f"{speedup:.2f}x",
        ])

    print(format_table(
        ["n", "runs", "max_steps", "pickle runs/s", "shm runs/s",
         "shm vs pickle"],
        rows,
    ))
    print()
    assert guard_cell is not None
    print(f"headline: the shm result transport is {guard_cell['speedup']:.2f}x "
          f"chunked pickle at n={TRANSPORT_GUARD_POPULATION:,} "
          f"(process fan-out, counts-only, array backend)")
    if args.json:
        _merge_bench_json(args.json, "transport", guard_cell)
    if guard_cell["speedup"] < TRANSPORT_GUARD_FACTOR:
        print(f"FAIL: expected the shm transport to be at least "
              f"{TRANSPORT_GUARD_FACTOR:.1f}x chunked pickle at "
              f"n={TRANSPORT_GUARD_POPULATION:,}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small populations and step counts (CI smoke test)")
    parser.add_argument("--steps", type=int, default=None,
                        help="interactions per measurement (default: scaled to n)")
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help="population sizes (default: 100 1000 10000)")
    parser.add_argument("--adversary", choices=("uo", "bounded"), default=None,
                        help="adversary class for the adversary-present rows "
                             "(default uo); with --backend array, switches to "
                             "the adversary-on-array comparison and its ≥3x "
                             "guard at n=100,000")
    parser.add_argument("--backend", choices=("python", "array"), default="python",
                        help="python: the historical trace-policy comparison; "
                             "array: the execution-backend comparison with its "
                             "≥5x guard at n=100,000 (needs numpy)")
    parser.add_argument("--transport", action="store_true",
                        help="run the result-transport comparison instead: "
                             "process fan-out over the shared-memory columnar "
                             "transport vs chunked pickle, with its ≥1.5x "
                             "guard at n=100,000 (needs numpy)")
    parser.add_argument("--obs", action="store_true",
                        help="run the observability-overhead guard instead: "
                             "the shipped run_until_stable (NullRecorder "
                             "installed) must keep ≥97%% of the throughput "
                             "of a control bypassing the telemetry seam, "
                             "at n=100,000")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge the mode's guarded measurement into this "
                             "JSON artifact (e.g. BENCH_transport.json, "
                             "BENCH_array_adversary.json, "
                             "BENCH_engine_throughput.json)")
    args = parser.parse_args(argv)

    if args.obs:
        return run_obs_overhead_comparison(args)
    if args.transport:
        return run_transport_comparison(args)
    if args.backend == "array":
        if args.adversary is not None:
            return run_adversary_backend_comparison(args)
        return run_backend_comparison(args)
    if args.adversary is None:
        args.adversary = "uo"

    if args.quick:
        sizes = args.sizes or [100, 1000]
    else:
        sizes = args.sizes or [100, 1000, 10_000]

    rows = []
    headline: Optional[float] = None
    batch_headline: Optional[float] = None
    adversary_batch_headline: Optional[float] = None
    for model_name in MODELS:
        adversary_options = [False]
        if get_model(model_name).allows_omissions:
            adversary_options.append(True)
        for with_adversary in adversary_options:
            for n in sizes:
                if args.steps is not None:
                    steps = args.steps
                elif args.quick:
                    steps = 2_000
                else:
                    steps = 20_000 if n >= 10_000 else 50_000
                rates = measure(model_name, n, steps, with_adversary,
                                adversary_kind=args.adversary)
                speedup = rates["counts-only"] / rates["legacy"]
                batch_speedup = rates["counts-only"] / rates["counts-only/step"]
                if n == 10_000 and model_name == "TW" and not with_adversary:
                    headline = speedup
                    batch_headline = batch_speedup
                if n == 10_000 and model_name == "I3" and with_adversary:
                    adversary_batch_headline = batch_speedup
                rows.append([
                    model_name,
                    "yes" if with_adversary else "no",
                    n,
                    steps,
                    f"{rates['legacy']:,.0f}",
                    f"{rates['full']:,.0f}",
                    f"{rates['counts-only']:,.0f}",
                    f"{rates['counts-only/step']:,.0f}",
                    f"{rates['ring']:,.0f}",
                    f"{speedup:.1f}x",
                    f"{batch_speedup:.1f}x",
                ])

    print(format_table(
        ["model", "adversary", "n", "steps", "legacy it/s", "full it/s",
         "counts-only it/s", "counts-only/step it/s", "ring it/s",
         "counts-only vs legacy", "batched vs per-step"],
        rows,
    ))
    failed = False
    if headline is not None:
        print()
        print(f"headline: counts-only is {headline:.1f}x the seed path at n=10,000 (TW)")
        if headline < 5.0:
            print("FAIL: expected at least a 5x speedup at n=10,000", file=sys.stderr)
            failed = True
    if batch_headline is not None:
        print(f"headline: batched draws are {batch_headline:.1f}x per-step draws "
              "at n=10,000 (TW, counts-only)")
        if batch_headline < 1.3:
            print("FAIL: expected batched draws to be at least 1.3x per-step draws "
                  "at n=10,000", file=sys.stderr)
            failed = True
    if adversary_batch_headline is not None:
        print(f"headline: the batched adversary pipeline is "
              f"{adversary_batch_headline:.1f}x its per-step control at n=10,000 "
              f"(I3, {args.adversary} adversary, counts-only)")
        if adversary_batch_headline < 1.3:
            print("FAIL: expected the batched adversary pipeline to be at least "
                  "1.3x per-step execution at n=10,000", file=sys.stderr)
            failed = True
    if args.json and headline is not None:
        _merge_bench_json(args.json, "engine-throughput", {
            "n": 10_000,
            "model": "TW",
            "adversary": args.adversary,
            "counts_only_vs_legacy": round(headline, 2),
            "batched_vs_per_step": (
                round(batch_headline, 2) if batch_headline is not None else None),
            "adversary_batched_vs_per_step": (
                round(adversary_batch_headline, 2)
                if adversary_batch_headline is not None else None),
            "guard_factors": {"counts_only_vs_legacy": 5.0,
                              "batched_vs_per_step": 1.3,
                              "adversary_batched_vs_per_step": 1.3},
        })
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
