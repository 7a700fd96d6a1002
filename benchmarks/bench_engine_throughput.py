"""Engine throughput: fast-path trace policies vs. the seed execution path.

Measures interactions/second for populations n in {10^2, 10^3, 10^4} under
the TW, I3 and IO interaction models, with and without an omission adversary
(only I3 admits omissions among the three), across five execution paths:

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
Theorem 4.1 assumption).

Every guard measures :data:`paired_guard.PAIRS` alternating
control/treatment pairs and fails when the median per-pair
treatment/control ratio at its population is below its floor
(``paired_guard.py``); table rows that feed no guard are one pair.
``--json PATH`` merges each guarded cell, with its interquartile spread
and the Python/numpy/CPU environment, into a JSON artifact
(read-update-merge, so separate invocations accumulate).  The modes and
their guards:

default
    At n = 10^4: ``counts-only`` ≥ **5x** ``legacy`` and batched draws
    ≥ **1.3x** per-step draws (TW, no adversary), and the batched
    adversary pipeline ≥ **1.3x** its per-step control (I3, adversary
    attached).  ``--quick`` stops at n = 10^3, below the guards.
``--backend array``
    The columnar numpy array engine (``repro[fast]`` extra) versus the
    python fast path, counts-only budget runs on two catalog protocols
    at n = 10^4 and 10^5: **≥ 5x** on both at n = 10^5.
``--backend array --adversary bounded|uo``
    The compiled injection-schedule pipeline versus the python batched
    adversary protocol, one-way epidemic under I3: **≥ 3x** at n = 10^5
    (looser, because the schedule walk itself stays in python).  Run it
    without ``--quick``: short runs under-amortise the array setup.
``--obs``
    The shipped :func:`run_until_stable`, whose per-run telemetry seam
    costs one global recorder read and one identity check with the
    default ``NullRecorder``, versus :func:`run_until_stable_core`
    called directly: **≥ 97%** of the control's throughput at n = 10^5.
``--transport``
    Process fan-out (``jobs=2``, chunked workers) of short counts-only
    array-engine runs returning as columnar rows (``repeat_experiment``)
    versus the same batches shipped as whole result lists: **≥ 1.5x** at
    n = 10^5, where pickling a 10^5-state final configuration per run
    dominates.  Every measured fold of both sides must be identical.

The array, transport and adversary guards need numpy.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from paired_guard import Measurement, gate, paired, throughput, verdict
from repro.adversary.omission import BoundedOmissionAdversary, UOAdversary
from repro.analysis.reporting import format_table
from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.convergence import run_until_stable
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

#: The default mode's guards at n = 10^4.
POLICY_GUARD_POPULATION = 10_000
LEGACY_GUARD_FACTOR = 5.0
BATCH_GUARD_FACTOR = 1.3

#: The array guard's population and factor: ≥5x the python fast path at
#: n=10^5 on both catalog workloads.
ARRAY_GUARD_POPULATION = 100_000
ARRAY_GUARD_FACTOR = 5.0

#: The adversary-on-array guard: ≥3x at n=10^5 for bounded and uo alike.
ADVERSARY_GUARD_FACTOR = 3.0

#: The result-transport guard: columnar rows ≥1.5x whole result lists at
#: n=10^5.
TRANSPORT_GUARD_POPULATION = 100_000
TRANSPORT_GUARD_FACTOR = 1.5
TRANSPORT_SIZES = (10_000, 100_000)

#: The observability-overhead guard: with the default ``NullRecorder``
#: installed, the shipped ``run_until_stable`` must keep ≥97% of the
#: throughput of a control that bypasses the telemetry seam entirely.  The
#: seam is per run, so the real tax is noise-level; the guard exists to
#: catch a regression that sneaks recording into a hot loop.
OBS_GUARD_POPULATION = 100_000
OBS_GUARD_RATIO = 0.97
OBS_SIZES = (10_000, 100_000)


def initial_configuration(n: int) -> Configuration:
    return Configuration([INFORMED] + [SUSCEPTIBLE] * (n - 1))


#: Workloads of the ``--backend array`` comparisons: (name, model, program
#: factory, initial configuration).  The adversary-free guard holds on
#: every entry of ``ARRAY_WORKLOADS``.
ARRAY_WORKLOADS = (
    ("epidemic", "TW",
     lambda: TrivialTwoWaySimulator(EpidemicProtocol()), initial_configuration),
    ("leader-election", "TW",
     lambda: TrivialTwoWaySimulator(LeaderElectionProtocol()),
     lambda n: Configuration([LEADER] * n)),
)
ADVERSARY_WORKLOAD = ("one-way-epidemic", "I3", OneWayEpidemicProtocol,
                      initial_configuration)


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


def run_legacy(engine: SimulationEngine, initial: Configuration, steps: int) -> int:
    """The seed execution path, reproduced verbatim: O(n) copy per step."""
    trace = Trace(initial)
    configuration = initial
    scheduler_step = 0
    executed = 0
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
    return executed


def policy_rate(model_name: str, n: int, steps: int, with_adversary: bool,
                adversary_kind: str, policy: str) -> Measurement:
    """One execution path of one default-mode cell, as a fresh-engine rate."""
    def measure() -> float:
        engine = build_engine(model_name, n, 0, with_adversary, adversary_kind)
        initial = initial_configuration(n)
        if policy == "legacy":
            return throughput(lambda: run_legacy(engine, initial, steps))
        chunk_size = None
        trace_policy = policy
        if policy == "counts-only/step":
            # Shadow the vectorized batched draw with the base per-step
            # fallback so this measures true per-step draws
            # (next_interaction per step), not k=1 vectorized calls.
            engine.scheduler.next_columns = (
                Scheduler.next_columns.__get__(engine.scheduler))
            chunk_size, trace_policy = 1, "counts-only"
        return throughput(lambda: run_until_stable(
            engine, initial, None, steps, trace_policy=trace_policy, ring_size=64,
            chunk_size=chunk_size).steps_executed)
    return measure


def with_guard_population(sizes, guard_population: int) -> list:
    sizes = list(sizes)
    return sizes if guard_population in sizes else sorted(sizes + [guard_population])


def run_policy_comparison(args) -> int:
    """The default mode: every trace policy against ``counts-only``."""
    kind = args.adversary or "uo"
    if args.quick:
        sizes = args.sizes or [100, 1000]
    else:
        sizes = args.sizes or [100, 1000, 10_000]

    rows, guards = [], []
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
                rate = functools.partial(policy_rate, model_name, n, steps,
                                         with_adversary, kind)
                at_guard = n == POLICY_GUARD_POPULATION
                legacy_guarded = at_guard and model_name == "TW" and not with_adversary
                step_guarded = legacy_guarded or (
                    at_guard and model_name == "I3" and with_adversary)
                vs_legacy = paired(rate("legacy"), rate("counts-only"), legacy_guarded)
                vs_step = paired(rate("counts-only/step"), rate("counts-only"),
                                 step_guarded)
                full = paired(rate("counts-only"), rate("full"), guarded=False)
                ring = paired(rate("counts-only"), rate("ring"), guarded=False)
                rows.append([
                    model_name, "yes" if with_adversary else "no", n, steps,
                    f"{vs_legacy.control:,.0f}", f"{full.treatment:,.0f}",
                    f"{vs_legacy.treatment:,.0f}", f"{vs_step.control:,.0f}",
                    f"{ring.treatment:,.0f}", f"{vs_legacy.ratio:.1f}x",
                    f"{vs_step.ratio:.1f}x",
                ])
                cell = {"model": model_name, "n": n, "steps": steps,
                        "adversary": kind if with_adversary else None,
                        "treatment": "counts-only"}
                if legacy_guarded:
                    guards.append((
                        "counts-only-vs-legacy",
                        f"counts-only vs the seed path at n={n:,} (TW)",
                        vs_legacy, LEGACY_GUARD_FACTOR, dict(cell, control="legacy")))
                if step_guarded:
                    what = (f"batched adversary pipeline vs its per-step control at "
                            f"n={n:,} (I3, {kind} adversary, counts-only)"
                            if with_adversary else
                            f"batched vs per-step draws at n={n:,} (TW, counts-only)")
                    guards.append((
                        "adversary-batched-vs-per-step" if with_adversary
                        else "batched-vs-per-step",
                        what, vs_step, BATCH_GUARD_FACTOR,
                        dict(cell, control="counts-only/step")))

    print(format_table(
        ["model", "adversary", "n", "steps", "legacy it/s", "full it/s",
         "counts-only it/s", "counts-only/step it/s", "ring it/s",
         "counts-only vs legacy", "batched vs per-step"],
        rows,
    ))
    return verdict(guards, args.json)


def run_array_comparison(args) -> int:
    """``--backend array [--adversary KIND]``: the array engine vs. the
    python fast path, counts-only budget runs from the same seed.

    Without ``--adversary`` it runs ``ARRAY_WORKLOADS`` under TW; with one,
    ``ADVERSARY_WORKLOAD`` under I3 with that adversary attached to both
    backends.  Budget runs execute exactly ``steps`` interactions
    (injections count toward the budget), so it/s is directly comparable;
    the array backend gets a 5x longer budget because measuring 10^6+
    it/s over a python-sized budget would be all fixed cost.
    """
    kind = args.adversary
    sizes = with_guard_population(args.sizes or [10_000], ARRAY_GUARD_POPULATION)
    python_steps = args.steps or (50_000 if args.quick else 200_000)
    array_steps = python_steps * 5
    workloads = ARRAY_WORKLOADS if kind is None else (ADVERSARY_WORKLOAD,)
    floor = ARRAY_GUARD_FACTOR if kind is None else ADVERSARY_GUARD_FACTOR

    def backend_rate(workload, n: int, backend: str, steps: int) -> Measurement:
        _name, model_name, make_program, make_initial = workload

        def measure() -> float:
            model = get_model(model_name)
            adversary = None if kind is None else build_adversary(kind, model, seed=0)
            engine = SimulationEngine(make_program(), model, RandomScheduler(n, seed=0),
                                      adversary=adversary, backend=backend)
            initial = make_initial(n)
            return throughput(lambda: run_until_stable(
                engine, initial, None, steps, trace_policy="counts-only").steps_executed)
        return measure

    def cases():
        for workload in workloads:
            name, model_name = workload[:2]
            for n in sizes:
                guard = None
                if n == ARRAY_GUARD_POPULATION:
                    adversary = "" if kind is None else f", {kind} adversary"
                    guard = (kind or name,
                             f"array backend vs the python fast path at n={n:,} "
                             f"({model_name}, {name}{adversary})",
                             floor,
                             {"protocol": name, "model": model_name, "adversary": kind,
                              "n": n, "python_steps": python_steps,
                              "array_steps": array_steps,
                              "control": "python", "treatment": "array"})
                yield ([name, kind or "none", n],
                       backend_rate(workload, n, "python", python_steps),
                       backend_rate(workload, n, "array", array_steps), guard)

    return gate(cases(), ["protocol", "adversary", "n", "python counts-only it/s",
                          "array counts-only it/s", "array vs python"], args.json)


def run_obs_overhead_comparison(args) -> int:
    """``--obs``: the NullRecorder tax of the per-run observability seam.

    Both paths execute the identical python-backend convergence loop on
    a counts-only epidemic run under TW from the same seed, driven by a
    never-satisfied O(1) incremental predicate so the full step budget is
    spent in the step loop (a plain-callable predicate would rescan all n
    agents per step and drown the seam in predicate cost).  The control
    calls :func:`run_until_stable_core` directly; the shipped path calls
    :func:`run_until_stable` with the process-wide default recorder.
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

    sizes = with_guard_population(args.sizes or OBS_SIZES, OBS_GUARD_POPULATION)
    steps = args.steps or (20_000 if args.quick else 100_000)

    def path_rate(n: int, shipped: bool) -> Measurement:
        def measure() -> float:
            engine = build_engine("TW", n, seed=0, with_adversary=False)
            initial = initial_configuration(n)
            predicate = _NeverStable()

            def work() -> int:
                if shipped:
                    result = run_until_stable(engine, initial, predicate,
                                              max_steps=steps, trace_policy="counts-only")
                else:
                    result, _chunks = run_until_stable_core(
                        engine.program, engine.model, engine.scheduler,
                        engine.adversary, initial, predicate, max_steps=steps,
                        trace_policy="counts-only")
                return result.steps_executed
            return throughput(work)
        return measure

    def cases():
        for n in sizes:
            guard = None
            if n == OBS_GUARD_POPULATION:
                guard = ("obs-overhead",
                         f"run_until_stable with observability off vs the seamless "
                         f"control at n={n:,} (TW, counts-only)",
                         OBS_GUARD_RATIO,
                         {"protocol": "epidemic", "model": "TW", "n": n, "steps": steps,
                          "control": "run_until_stable_core",
                          "treatment": "run_until_stable"})
            yield [n, steps], path_rate(n, shipped=False), path_rate(n, shipped=True), guard

    return gate(cases(), ["n", "steps", "control it/s (no seam)",
                          "shipped it/s (NullRecorder)", "shipped vs control"],
                args.json)


def run_transport_comparison(args) -> int:
    """``--transport``: columnar result rows vs. whole result lists.

    Process fan-out (``jobs=2``, ``run_chunk=8``) of short counts-only
    epidemic runs on the array engine backend, whose payload is dominated
    by the final configuration.  The treatment is ``repeat_experiment``,
    whose workers ship one int64 row per run and never build the final
    configuration; the control submits the same ``run_spec_batch``
    batches to a pool of its own and ships each run's whole result,
    final configuration included, as a 10^4-10^5-state python object.
    Every measured repeat of both sides must fold to one aggregate.
    """
    try:
        import numpy  # noqa: F401 - availability probe
    except ImportError:
        print("the --transport comparison runs its workload on the array "
              "engine backend and needs numpy; install the fast extra "
              "(pip install 'repro[fast]')", file=sys.stderr)
        return 1
    from repro.engine.experiment import (
        ExperimentResult,
        repeat_experiment,
        run_spec_batch,
        start_process_pool,
    )
    from repro.protocols.registry import ExperimentSpec

    sizes = with_guard_population(args.sizes or TRANSPORT_SIZES,
                                  TRANSPORT_GUARD_POPULATION)
    runs = 32 if args.quick else 96
    max_steps = args.steps or 200
    jobs, run_chunk = 2, 8

    folds: dict = {}

    def result_lists(spec: ExperimentSpec) -> dict:
        """The control: whole result lists, folded as repeat_experiment folds."""
        with start_process_pool(jobs) as pool:
            futures = [pool.submit(run_spec_batch, spec, start,
                                   min(run_chunk, runs - start), 0, max_steps,
                                   0, "counts-only")
                       for start in range(0, runs, run_chunk)]
            results = [result for future in futures for result in future.result()]
        folded = ExperimentResult(runs=len(results), successes=0)
        for index, result in enumerate(results):
            if result.converged:
                folded.successes += 1
                if result.steps_to_convergence is not None:
                    folded.convergence_steps.append(result.steps_to_convergence)
            else:
                folded.failures.append(
                    f"run {index}: did not converge within {max_steps} steps")
        return folded.to_dict()

    def transport_rate(n: int, columnar: bool) -> Measurement:
        spec = ExperimentSpec(
            protocol="epidemic", population=n, model="TW", backend="array")

        def work() -> int:
            if columnar:
                fold = repeat_experiment(
                    spec=spec, runs=runs, max_steps=max_steps, base_seed=0,
                    jobs=jobs, run_chunk=run_chunk,
                    trace_policy="counts-only").to_dict()
            else:
                fold = result_lists(spec)
            folds.setdefault(n, []).append(fold)
            return runs
        return lambda: throughput(work)

    def cases():
        for n in sizes:
            guard = None
            if n == TRANSPORT_GUARD_POPULATION:
                guard = ("transport",
                         f"columnar result rows vs whole result lists at "
                         f"n={n:,} (process fan-out, counts-only, array "
                         f"backend)",
                         TRANSPORT_GUARD_FACTOR,
                         {"protocol": "epidemic", "model": "TW",
                          "engine_backend": "array", "n": n, "runs": runs,
                          "max_steps": max_steps, "jobs": jobs,
                          "run_chunk": run_chunk, "control": "result lists",
                          "treatment": "columnar rows"})
            yield ([n, runs, max_steps], transport_rate(n, columnar=False),
                   transport_rate(n, columnar=True), guard)

    status = gate(cases(), ["n", "runs", "max_steps", "result lists runs/s",
                            "columnar runs/s", "columnar vs lists"], args.json)
    for n, folded in folds.items():
        if any(fold != folded[0] for fold in folded):
            print(f"FAIL: columnar rows and result lists folded to different "
                  f"aggregates at n={n:,}", file=sys.stderr)
            status = 1
    return status


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small populations and step counts (CI smoke test)")
    parser.add_argument("--steps", type=int, default=None,
                        help="interactions per measurement (default: scaled to n)")
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help="population sizes (default: 100 1000 10000)")
    parser.add_argument("--adversary", choices=("uo", "bounded"), default=None,
                        help="adversary class of the adversary rows (default "
                             "uo); with --backend array, the adversary-on-array "
                             "comparison (≥3x guard)")
    parser.add_argument("--backend", choices=("python", "array"), default="python",
                        help="array: the array-vs-python backend comparison "
                             "(≥5x guard; needs numpy)")
    parser.add_argument("--transport", action="store_true",
                        help="the columnar-rows-vs-result-lists transport "
                             "comparison (≥1.5x guard; needs numpy)")
    parser.add_argument("--obs", action="store_true",
                        help="the observability-off overhead guard (≥97%% of "
                             "a control bypassing the telemetry seam)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge the mode's guarded cells into this JSON "
                             "artifact (e.g. BENCH_engine_throughput.json)")
    args = parser.parse_args(argv)

    if args.obs:
        return run_obs_overhead_comparison(args)
    if args.transport:
        return run_transport_comparison(args)
    if args.backend == "array":
        return run_array_comparison(args)
    return run_policy_comparison(args)


if __name__ == "__main__":
    sys.exit(main())
