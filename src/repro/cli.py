"""Command-line interface.

The CLI exposes the library's main workflows without writing any Python:

``repro run``
    Run a catalog protocol under an interaction model, optionally through a
    simulator and under an omission adversary, and report convergence plus
    the Definition 3/4 verification.

``repro attack``
    Execute the Lemma 1 construction (Theorem 3.1) or the NO1 single-omission
    attack (Theorem 3.2) against ``SKnO`` and report the violation.

``repro campaign``
    Declarative, resumable parameter-sweep campaigns
    (:mod:`repro.campaign`): ``run`` a JSON campaign spec over a grid of
    experiments with a persistent JSONL result store (``--cell-jobs K``
    overlaps independent cells across a worker pool; ``--shared`` pools
    cells across campaigns so overlapping grids are never recomputed),
    ``status`` it, ``resume`` an interrupted sweep (completed cells are
    skipped), render a Figure-4-style ``report``, and ``compact`` the
    store (drop superseded/orphaned records; reports are unchanged).

``repro list``
    Print every registered protocol, simulator, predicate, scheduler and
    adversary, the available engine/fan-out backends, and any third-party
    entry points that failed to load.

``repro lint``
    Run the determinism-contracts static-analysis pass
    (:mod:`repro.lint`) over the package sources (or given paths); the
    repo self-hosts it with zero findings and CI enforces that.

``repro map``
    Print the Figure 4 map of results.

``repro hierarchy``
    Print the Figure 1 hierarchy of interaction models.

Examples::

    repro run --protocol exact-majority --model I3 --simulator skno \
              --population 10 --omission-bound 2 --omissions 2 --seed 1
    repro run --protocol exact-majority --runs 16 --jobs 4 \
              --trace-policy counts-only
    repro run --protocol leader-election --trace-policy ring --max-steps 500
    repro run --protocol epidemic --scheduler ring-graph --population 64 \
              --trace-policy counts-only
    repro run --protocol epidemic --population 100000 --engine-backend array \
              --trace-policy counts-only --max-steps 2000000
    repro campaign run examples/figure4_omission_sweep.json
    repro campaign run examples/figure4_omission_sweep.json --cell-jobs 4
    repro campaign run examples/figure4_omission_sweep.json \
          --shared --store pool.results.jsonl
    repro campaign run examples/figure4_omission_sweep.json \
          --metrics sweep.metrics.jsonl --progress
    repro campaign metrics sweep.metrics.jsonl
    repro campaign resume examples/figure4_omission_sweep.json
    repro campaign report examples/figure4_omission_sweep.json
    repro campaign compact examples/figure4_omission_sweep.json
    repro lint --format json
    repro list
    repro attack lemma1 --omission-bound 1
    repro attack no1 --model I1
    repro map
    repro hierarchy
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple, Union

from repro.analysis.reporting import format_table
from repro.analysis.results_map import format_results_map
from repro.campaign.planner import CampaignPlan, plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import backend_summary, campaign_status, run_campaign
from repro.campaign.spec import CampaignError, campaign_from_file
from repro.campaign.store import (
    ResultStore,
    SharedResultStore,
    StoreError,
    compact_store,
    open_store,
)
from repro.core.verification import verify_simulation
from repro.engine.backends import (
    BACKEND_CHOICES,
    BackendError,
    BackendUnavailableError,
    ENGINE_BACKENDS,
    load_array_backend,
)
from repro.engine.experiment import repeat_experiment, run_spec
from repro.interaction.hierarchy import HIERARCHY_EDGES, topological_order
from repro.interaction.models import MODELS_BY_NAME, get_model
from repro.obs import (
    JsonlSink,
    MetricsRecorder,
    MultiRecorder,
    ProgressReporter,
    Recorder,
    SinkError,
    read_sink,
    recording,
    summarize_records,
)
from repro.protocols.catalog import CATALOG, get_protocol
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.registry import (
    ADVERSARIES,
    ENTRY_POINT_ERRORS,
    PREDICATES,
    SCHEDULERS,
    SIMULATORS,
    ExperimentSpec,
    build_cached,
    build_simulator,
    default_initial_configuration,
    resolve_backend,
)
from repro.protocols.state import Configuration

SIMULATOR_CHOICES = ("none", "skno", "sid", "known-n")


def _experiment_spec(args) -> ExperimentSpec:
    """The registry spec for ``repro run``'s arguments, built and backend pinned.

    The one build of the invocation happens here, so an invalid spec is a
    one-line CLI error.  ``--engine-backend auto`` is resolved against the
    run's actual trace policy, so what is probed is what will execute, and
    the choice is announced once, before any run starts.
    """
    protocol_kwargs = {}
    if args.protocol == "threshold" and args.threshold is not None:
        protocol_kwargs["threshold"] = args.threshold
    try:
        spec = ExperimentSpec(
            protocol=args.protocol,
            protocol_kwargs=protocol_kwargs,
            population=args.population,
            model=args.model,
            simulator=args.simulator,
            omission_bound=args.omission_bound,
            omissions=args.omissions,
            adversary=args.adversary,
            ones=args.ones,
            predicate="stable-output",
            scheduler=args.scheduler,
            chunk_size=args.chunk_size,
            backend=args.engine_backend,
        )
        build_cached(spec)
    except (KeyError, TypeError, ValueError) as error:
        # KeyError repr-quotes str(error); unwrap to keep the message clean.
        raise SystemExit(error.args[0] if isinstance(error, KeyError) else str(error))
    if spec.backend != "auto":
        return spec
    try:
        resolution = resolve_backend(spec, trace_policy=args.trace_policy)
    except (BackendError, KeyError, TypeError, ValueError) as error:
        raise SystemExit(f"--engine-backend auto: {error}")
    line = f"engine backend: auto -> {resolution.backend}"
    if resolution.reason:
        line += f" ({resolution.reason})"
    print(line)
    return dataclasses.replace(spec, backend=resolution.backend)


@contextmanager
def _observability(args) -> Iterator[None]:
    """Activate the recorder stack a command's flags ask for.

    Telemetry is strictly sidecar output: ``--metrics PATH`` streams the
    JSONL event sink (plus a folded summary on close) to its own file,
    ``--progress`` redraws a live line on *stderr* — stdout (tables,
    reports) and the result store are never touched, so command output is
    byte-identical with observability on or off.
    """
    recorders: List[Recorder] = []
    if getattr(args, "metrics", None):
        recorders.append(MetricsRecorder(sink=JsonlSink(args.metrics)))
    if getattr(args, "progress", False):
        recorders.append(ProgressReporter())
    if not recorders:
        yield
        return
    stack = recorders[0] if len(recorders) == 1 else MultiRecorder(recorders)
    with recording(stack):
        yield


def _command_run(args) -> int:
    with _observability(args):
        return _run_command(args)


def _run_command(args) -> int:
    if args.simulator == "none" and args.model != "TW":
        raise SystemExit(
            "running a two-way protocol without a simulator requires --model TW; "
            "pick --simulator skno/sid/known-n for weaker models")
    if args.runs < 1:
        raise SystemExit("--runs must be at least 1")
    _check_fanout_flags(args)
    if args.chunk_size is not None and args.chunk_size < 1:
        raise SystemExit("--chunk-size must be at least 1")
    if args.max_steps < 0:
        raise SystemExit("--max-steps must be non-negative")
    if args.stability_window < 0:
        raise SystemExit("--stability-window must be non-negative")
    if args.ring_size < 1:
        raise SystemExit("--ring-size must be at least 1")

    spec = _experiment_spec(args)
    if args.runs > 1:
        return _run_repeated(args, spec)

    try:
        outcome = run_spec(spec, 0, args.seed, args.max_steps,
                           args.stability_window, args.trace_policy,
                           args.ring_size)
    except BackendError as error:
        raise SystemExit(f"--engine-backend {args.engine_backend}: {error}")

    built = build_cached(spec)
    report = None
    if args.trace_policy == "full":
        report = verify_simulation(built.program, outcome.trace)

    rows = [
        ["protocol", built.protocol.name],
        ["model", built.model.name],
        ["simulator", built.program.name],
        ["population", args.population],
        ["converged", outcome.converged],
        ["interactions to stabilise", outcome.steps_to_convergence],
        ["interactions executed", outcome.steps_executed],
        ["omissions", outcome.omissions],
        ["simulated pairs", report.matched_pairs if report else "-"],
        ["verification", ("OK" if report.ok else "VIOLATION") if report
         else f"skipped ({args.trace_policy} trace)"],
    ]
    print(format_table(["quantity", "value"], rows))
    if report and report.errors:
        print()
        for error in report.errors[:5]:
            print("  !", error)
    if outcome.window:
        _print_ring_dump(outcome.last_steps)
    verified = report.ok if report else True
    return 0 if (outcome.converged and verified) else 1


def _print_ring_dump(last_steps, run_label: str = "run") -> None:
    """Crash-dump the trailing window kept by the ``ring`` trace policy."""
    print()
    print(f"{run_label} did not converge — last {len(last_steps)} interactions "
          "(ring trace policy crash dump):")
    rows = [
        [step.index, str(step.interaction),
         f"{step.starter_pre!r} -> {step.starter_post!r}",
         f"{step.reactor_pre!r} -> {step.reactor_post!r}"]
        for step in last_steps
    ]
    print(format_table(["step", "interaction", "starter", "reactor"], rows))


def _check_fanout_flags(args) -> None:
    """Validate the run fan-out flags up front, before any work runs.

    Checking here (rather than letting ``repeat_experiment`` raise
    mid-campaign) keeps fan-out misconfiguration a CLI error, never a
    per-cell error verdict.
    """
    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    if args.run_chunk < 1:
        raise SystemExit("--run-chunk must be at least 1")


def _run_repeated(args, spec) -> int:
    """``repro run --runs N [--jobs J]``: the batch-experiment path.

    Every run is :func:`run_spec` of the same registry spec, so sequential
    and process-fanned runs are byte-identical and merge the same way.
    """
    built = build_cached(spec)
    validate = None
    if args.trace_policy == "full":
        def validate(outcome) -> Optional[str]:
            report = verify_simulation(built.program, outcome.trace)
            if not report.ok:
                return f"simulation verification: {report.errors[0]}" if report.errors \
                    else "simulation verification violation"
            return None

    try:
        result = repeat_experiment(
            spec=spec,
            runs=args.runs,
            max_steps=args.max_steps,
            stability_window=args.stability_window,
            base_seed=args.seed,
            validate=validate,
            jobs=args.jobs,
            trace_policy=args.trace_policy,
            ring_size=args.ring_size,
            run_chunk=args.run_chunk,
        )
    except BackendError as error:
        raise SystemExit(f"--engine-backend {args.engine_backend}: {error}")

    mean = result.mean_convergence_steps
    median = result.median_convergence_steps
    rows = [
        ["protocol", built.protocol.name],
        ["model", built.model.name],
        ["simulator", built.program.name],
        ["population", args.population],
        ["runs", result.runs],
        ["jobs", args.jobs],
        ["backend", "process" if args.jobs > 1 and args.runs > 1
         else "sequential"],
        ["successes", f"{result.successes}/{result.runs}"],
        ["success rate", f"{result.success_rate:.2f}"],
        ["mean interactions to stabilise", f"{mean:.0f}" if mean is not None else "-"],
        ["median interactions to stabilise", f"{median:.0f}" if median is not None else "-"],
        ["max interactions to stabilise", result.max_convergence_steps
         if result.max_convergence_steps is not None else "-"],
        ["verification", "per-run" if validate else f"skipped ({args.trace_policy} trace)"],
    ]
    print(format_table(["quantity", "value"], rows))
    if result.failures:
        print()
        for failure in result.failures[:5]:
            print("  !", failure)
    if args.trace_policy == "ring":
        for run_index, last_steps in result.failure_dumps:
            _print_ring_dump(last_steps, run_label=f"run {run_index}")
    return 0 if result.all_succeeded else 1


def _command_attack(args) -> int:
    from repro.adversary.constructions import Lemma1Construction, no1_liveness_attack

    # The target is SKnO as the registry builds it for the attacked model:
    # the I3/I4 variant, wrapped one-way-as-two-way under T1-T3.
    protocol = PairingProtocol()
    if args.kind == "lemma1":
        simulator = build_simulator("skno", protocol, 2, args.omission_bound, "T3")
        construction = Lemma1Construction(simulator, get_model("T3"), q0="p", q1="c")
        result = construction.execute()
        rows = [
            ["target simulator", f"SKnO(o={args.omission_bound}) via T3"],
            ["FTT", result.ftt],
            ["population", result.population],
            ["omissions used", result.omissions_used],
            ["critical transitions", result.q1_to_q1_prime_transitions],
            ["safety bound (producers)", result.safety_bound],
            ["safety violated", result.safety_violated],
        ]
        print(format_table(["quantity", "value"], rows))
        return 0 if result.safety_violated else 1

    result = no1_liveness_attack(
        build_simulator("skno", protocol, 2, 1, args.model), args.model,
        target_state="cs", expected_committed=1,
        initial_p_configuration=Configuration(["p", "c"]), safety_bound=1,
        max_steps=args.max_steps, seed=args.seed)
    print(result.summary())
    return 0 if (result.liveness_violated or result.safety_violated) else 1


def _command_lint(args) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args, prog="repro lint")


def _default_store_path(spec_path: str) -> str:
    """Store path derived from the spec path: ``<spec stem>.results.jsonl``."""
    stem, _ = os.path.splitext(spec_path)
    return stem + ".results.jsonl"


def _load_campaign(args) -> Tuple[CampaignPlan, str]:
    """Parse the campaign spec, expand the plan, resolve the store path.

    The engine backend layering (every action, so cell ids stay consistent
    between run/status/resume/report): an explicit ``--engine-backend``
    flag overrides the spec's ``base.backend``; otherwise the spec value
    applies; otherwise campaigns default to ``auto`` — the planner then
    pins each cell to the fastest backend that compiles, before hashing.
    """
    try:
        campaign = campaign_from_file(args.spec)
        engine_backend = getattr(args, "engine_backend", None)
        if engine_backend is not None:
            campaign.base["backend"] = engine_backend
        else:
            campaign.base.setdefault("backend", "auto")
        plan = plan_campaign(campaign)
    except CampaignError as error:
        raise SystemExit(f"campaign spec {args.spec}: {error}")
    store_path = args.store if args.store else _default_store_path(args.spec)
    return plan, store_path


def _open_campaign_store(args, plan: CampaignPlan,
                         store_path: str) -> Union[ResultStore,
                                                   SharedResultStore]:
    """Open (or create, for ``run``) the right store kind for the action.

    Existing stores are opened as whatever their manifest says they are —
    ``--shared`` only decides what ``run`` *creates* (and rejects an
    exclusive store when sharing was asked for).  status/report opens are
    strictly read-only; only run/resume may repair torn tails or
    re-initialise a torn manifest.
    """
    campaign = plan.campaign
    writable = args.action in ("run", "resume")
    if args.action == "run" and not os.path.exists(store_path):
        if args.shared:
            return SharedResultStore.create(store_path)
        return ResultStore.create(store_path, campaign.name, plan.campaign_hash)
    return open_store(store_path, campaign.name, plan.campaign_hash,
                      recover=writable, shared=args.shared)


def _command_campaign_metrics(path: str) -> int:
    """``repro campaign metrics PATH``: summarise a recorded metrics sink."""
    try:
        records = read_sink(path)
    except OSError as error:
        raise SystemExit(f"cannot read metrics sink {path!r}: {error}")
    except SinkError as error:
        raise SystemExit(str(error))
    print(summarize_records(records), end="")
    return 0


def _command_campaign(args) -> int:
    if args.action == "metrics":
        # The positional argument is the sink path here, not a campaign
        # spec — summarising telemetry needs no plan and no store.
        return _command_campaign_metrics(args.spec)
    with _observability(args):
        return _campaign_action(args)


def _campaign_action(args) -> int:
    if args.action in ("run", "resume"):
        if args.max_cells is not None and args.max_cells < 1:
            raise SystemExit("--max-cells must be at least 1")
        if args.cell_jobs < 1:
            raise SystemExit("--cell-jobs must be at least 1")
        _check_fanout_flags(args)
    plan, store_path = _load_campaign(args)
    campaign = plan.campaign

    if args.action == "compact":
        try:
            stats = compact_store(store_path)
        except StoreError as error:
            raise SystemExit(str(error))
        print(f"compacted {store_path} ({stats.kind}): {stats.summary()}")
        return 0

    try:
        store = _open_campaign_store(args, plan, store_path)
    except StoreError as error:
        raise SystemExit(str(error))

    if args.action in ("run", "resume"):
        if isinstance(store, SharedResultStore):
            # Bind this campaign's membership to the pool up front so
            # orphan accounting (and compaction) knows the cell set even
            # if this invocation is interrupted.
            store.register_campaign(
                campaign.name, plan.campaign_hash, plan.cell_ids())
        if not args.quiet:
            for line in backend_summary(plan):
                print(line)
        progress = None if args.quiet else print
        status = run_campaign(
            plan, store,
            jobs=args.jobs,
            run_chunk=args.run_chunk,
            max_cells=args.max_cells,
            progress=progress,
            cell_jobs=args.cell_jobs,
        )
        print(f"campaign {campaign.name}: {status.summary()}  (store: {store_path})")
        if status.pending:
            print(f"resume with: repro campaign resume {args.spec} "
                  f"--store {store_path}")
        if status.keyboard_interrupt:
            # A signal interruption is not a completed run (a --max-cells
            # cap is): use the conventional SIGINT exit code so wrappers
            # don't treat the partial sweep as success.
            return 130
        return 1 if status.errors else 0

    status = campaign_status(plan, store)
    if args.action == "status":
        rows = [
            ["campaign", campaign.name],
            ["grid hash", plan.campaign_hash],
            ["store", store_path],
            ["cells", plan.total],
            ["done", status.done],
            ["n/a", status.na],
            ["failed", status.errors],
            ["pending", status.pending],
        ]
        print(format_table(["quantity", "value"], rows))
        return 0 if status.complete and not status.errors else 1

    # action == "report"
    print(render_report(plan, store.cell_records), end="")
    return 0 if status.complete and not status.errors else 1


def _array_support() -> Optional[dict]:
    """Which registered keys compile for the array backend, per registry.

    ``None`` when numpy is unavailable.  Each key is probed with a small
    representative experiment (the epidemic protocol, model I3 where an
    omissive model is needed), so simulator/predicate verdicts read "can
    compile", not "compiles for every protocol" — e.g. ``stable-output``
    compiles wherever it reduces to a state-count predicate.
    """
    try:
        array_backend = load_array_backend()
    except BackendUnavailableError:
        return None
    from repro.core.trivial import TrivialTwoWaySimulator
    from repro.interaction.models import get_model as _get_model
    from repro.scheduling.array_draws import compile_scheduler

    probe_errors = (BackendError, KeyError, TypeError, ValueError)
    support: dict = {}

    def probed(keys, check) -> List[str]:
        compilable = []
        for key in keys:
            try:
                if check(key):
                    compilable.append(key)
            except probe_errors:
                continue
        return compilable

    epidemic = get_protocol("epidemic")
    omissive = _get_model("I3")
    trivial_tw = _get_model("TW")

    def protocol_compiles(name: str) -> bool:
        array_backend.compile_program(TrivialTwoWaySimulator(get_protocol(name)), trivial_tw)
        return True

    def simulator_compiles(name: str) -> bool:
        array_backend.compile_program(build_simulator(name, epidemic, 8, 1, "I3"), omissive)
        return True

    trivial_epidemic = TrivialTwoWaySimulator(epidemic)
    epidemic_initial = default_initial_configuration(epidemic, 8)

    def predicate_compiles(name: str) -> bool:
        predicate = PREDICATES[name](trivial_epidemic, epidemic, epidemic_initial)
        return array_backend.probe_compile(
            trivial_epidemic, trivial_tw, predicate=predicate, population=8) is None

    def scheduler_compiles(name: str) -> bool:
        compile_scheduler(SCHEDULERS[name](4, seed=0))
        return True

    def adversary_compiles(name: str) -> bool:
        return type(ADVERSARIES[name](omissive, 1, seed=0)) \
            in array_backend.ARRAY_COMPILED_ADVERSARIES

    support["protocols"] = probed(sorted(CATALOG), protocol_compiles)
    support["simulators"] = probed(sorted(SIMULATORS), simulator_compiles)
    support["predicates"] = probed(sorted(PREDICATES), predicate_compiles)
    support["schedulers"] = probed(sorted(SCHEDULERS), scheduler_compiles)
    support["adversaries"] = probed(sorted(ADVERSARIES), adversary_compiles)
    return support


def _command_list(_args) -> int:
    sections = [
        ("protocols", sorted(CATALOG)),
        ("simulators", sorted(SIMULATORS)),
        ("predicates", sorted(PREDICATES)),
        ("schedulers", sorted(SCHEDULERS)),
        ("adversaries", sorted(ADVERSARIES)),
        ("engine backends", list(ENGINE_BACKENDS)),
    ]
    support = _array_support()
    rows = []
    for kind, names in sections:
        if support is None or kind not in support:
            compilable = "-"
        else:
            supported = set(support[kind])
            compilable = ", ".join(
                name for name in names if name in supported) or "(none)"
        rows.append([kind, ", ".join(names), compilable])
    print(format_table(["registry", "registered keys", "array-compilable"], rows))
    if support is None:
        print()
        print("array-compilable column unavailable: numpy is not installed "
              "(pip install 'repro[fast]')")
    if ENTRY_POINT_ERRORS:
        print()
        print("entry points that FAILED to load (repro.protocols group):")
        for name in sorted(ENTRY_POINT_ERRORS):
            print(f"  ! {name}: {ENTRY_POINT_ERRORS[name]}")
    else:
        print()
        print("all repro.protocols entry points loaded cleanly")
    return 0


def _command_map(_args) -> int:
    print(format_results_map())
    print()
    print("YES = simulation possible, NO = impossible, ? = open, TW = trivially possible;")
    print("'*' marks cells re-checked empirically by benchmarks/bench_figure_4_results_map.py")
    return 0


def _command_hierarchy(_args) -> int:
    rows = [[f"{source} -> {destination}", justification]
            for source, destination, justification in HIERARCHY_EDGES]
    print(format_table(["edge (weaker -> stronger)", "justification"], rows))
    print()
    print("weakest to strongest:", " -> ".join(topological_order()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant simulation of population protocols (ICDCS 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a protocol, optionally through a simulator")
    run_parser.add_argument("--protocol", choices=sorted(CATALOG), default="exact-majority")
    run_parser.add_argument("--model", choices=sorted(MODELS_BY_NAME), default="TW")
    run_parser.add_argument("--simulator", choices=SIMULATOR_CHOICES, default="none")
    run_parser.add_argument("--population", "-n", type=int, default=10)
    run_parser.add_argument("--omission-bound", type=int, default=0,
                            help="bound o announced to SKnO")
    run_parser.add_argument("--omissions", type=int, default=0,
                            help="omissions actually injected by the adversary")
    run_parser.add_argument("--adversary", choices=sorted(ADVERSARIES), default="bounded",
                            help="adversary class injecting the omissions (active "
                                 "when --omissions > 0): bounded (hard budget of "
                                 "--omissions), no1 (single pinned omission), uo "
                                 "(injects forever), no (stops after its active "
                                 "window)")
    run_parser.add_argument("--ones", type=int, default=None,
                            help="number of agents with input 1 (threshold/OR/AND/parity)")
    run_parser.add_argument("--threshold", type=int, default=None)
    run_parser.add_argument("--max-steps", type=int, default=300_000)
    run_parser.add_argument("--stability-window", type=int, default=300)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--runs", type=int, default=1,
                            help="repeat the run with seeds seed..seed+runs-1 "
                                 "and report aggregate convergence statistics")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for --runs > 1 (deterministic "
                                 "merge; 1 runs sequentially)")
    run_parser.add_argument("--run-chunk", type=int, default=1,
                            help="consecutive seeds shipped per executor task for "
                                 "--runs > 1; larger chunks amortize the per-run "
                                 "pickling that dominates short runs (results are "
                                 "identical for every value)")
    run_parser.add_argument("--chunk-size", type=int, default=None,
                            help="scheduled draws per batched scheduler call inside "
                                 "the engine (default 256; 1 reproduces the per-step "
                                 "loop; results are identical for every value)")
    run_parser.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="random",
                            help="interaction scheduler: random (uniform pairs, the "
                                 "default), round-robin (deterministic lexicographic "
                                 "cycle), or a graph family restricting interactions "
                                 "to a topology (ring-graph, star-graph, "
                                 "complete-graph)")
    run_parser.add_argument("--engine-backend", choices=BACKEND_CHOICES, default="python",
                            help="execution backend: python (default, supports "
                                 "everything), array (columnar numpy engine for "
                                 "huge populations; needs the repro[fast] extra, "
                                 "a finite-state protocol, counts-only or ring "
                                 "traces, and catalog adversaries/schedulers — "
                                 "anything else fails with an explanation), or "
                                 "auto (probe what compiles and pick the fastest "
                                 "backend, announcing the choice)")
    run_parser.add_argument("--trace-policy", choices=("full", "counts-only", "ring"),
                            default="full",
                            help="full: record every step and verify the simulation; "
                                 "counts-only: fast path, skips verification; "
                                 "ring: keep only the last steps and crash-dump them "
                                 "on non-convergence")
    run_parser.add_argument("--ring-size", type=int, default=64,
                            help="trailing window size for --trace-policy ring")
    run_parser.add_argument("--metrics", metavar="PATH", default=None,
                            help="stream engine/fan-out telemetry to a JSONL "
                                 "event sink at PATH (sidecar file; results "
                                 "and printed tables are byte-identical with "
                                 "or without it); summarise later with "
                                 "'repro campaign metrics PATH'")
    run_parser.set_defaults(handler=_command_run)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="declarative, resumable parameter-sweep campaigns over a result store")
    campaign_parser.add_argument(
        "action",
        choices=("run", "status", "resume", "report", "compact", "metrics"),
        help="run: execute pending cells (creates the store); resume: continue "
             "an interrupted campaign (requires the store); status: progress "
             "summary; report: render the verdict grids and per-cell table; "
             "compact: rewrite the store in canonical order, dropping "
             "superseded and orphaned records (reports are byte-identical "
             "before and after); metrics: summarise a telemetry sink "
             "recorded by --metrics (the positional argument is the sink "
             "path, not a spec)")
    campaign_parser.add_argument(
        "spec", help="path to the campaign spec (JSON); for the metrics "
                     "action, the path of the recorded sink")
    campaign_parser.add_argument(
        "--store", default=None,
        help="result store path (default: <spec stem>.results.jsonl next to the spec)")
    campaign_parser.add_argument(
        "--shared", action="store_true",
        help="use a shared multi-campaign cell pool at the store path: "
             "campaigns with overlapping grids reuse each other's cells "
             "instead of recomputing (auto-detected for existing stores)")
    campaign_parser.add_argument(
        "--cell-jobs", type=int, default=1,
        help="independent cells to keep in flight (cell-level worker pool; "
             "composes with the per-cell --jobs fan-out)")
    campaign_parser.add_argument("--jobs", type=int, default=1,
                                 help="worker processes for each cell's per-seed "
                                      "fan-out (1 runs sequentially)")
    campaign_parser.add_argument("--run-chunk", type=int, default=1,
                                 help="consecutive seeds per executor task "
                                      "(see repro run --run-chunk)")
    campaign_parser.add_argument(
        "--engine-backend", choices=BACKEND_CHOICES, default=None,
        help="engine backend for every cell, overriding the spec's "
             "base.backend (default: the spec's value, else auto — each "
             "cell is pinned to the fastest backend that compiles at plan "
             "time, before cell hashing, so content addresses and resumes "
             "stay stable); pass the same flag to status/report so they "
             "address the same cells")
    campaign_parser.add_argument("--max-cells", type=int, default=None,
                                 help="stop after executing this many new cells "
                                      "(deterministic interruption; resume later)")
    campaign_parser.add_argument("--quiet", action="store_true",
                                 help="suppress per-cell progress lines")
    campaign_parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="stream campaign/engine telemetry to a JSONL event sink at "
             "PATH (sidecar file; the store and the rendered report are "
             "byte-identical with or without it); summarise later with "
             "'repro campaign metrics PATH'")
    campaign_parser.add_argument(
        "--progress", action="store_true",
        help="redraw a live progress line on stderr while the campaign "
             "runs (cells done/total, cells/s, ETA, per-backend tally)")
    campaign_parser.set_defaults(handler=_command_campaign)

    list_parser = subparsers.add_parser(
        "list", help="list registered protocols, simulators, predicates, "
                     "schedulers, adversaries and backends")
    list_parser.set_defaults(handler=_command_list)

    # ``repro lint`` hands its arguments to the linter's own parser, so
    # other commands never import the linter: no option prefix here.
    lint_parser = subparsers.add_parser(
        "lint", add_help=False, prefix_chars="\0",
        help="run the determinism-contracts static-analysis pass "
             "(RPL001-RPL007) over the package sources")
    lint_parser.add_argument("lint_args", nargs="*")
    lint_parser.set_defaults(handler=_command_lint)

    attack_parser = subparsers.add_parser("attack", help="execute an impossibility construction")
    attack_parser.add_argument("kind", choices=("lemma1", "no1"))
    attack_parser.add_argument("--omission-bound", type=int, default=1,
                               help="lemma1: the bound announced to the victim SKnO")
    attack_parser.add_argument("--model", default="I1",
                               help="no1: the weak model to attack (I1, I2 or T1)")
    attack_parser.add_argument("--max-steps", type=int, default=30_000)
    attack_parser.add_argument("--seed", type=int, default=0)
    attack_parser.set_defaults(handler=_command_attack)

    map_parser = subparsers.add_parser("map", help="print the Figure 4 map of results")
    map_parser.set_defaults(handler=_command_map)

    hierarchy_parser = subparsers.add_parser("hierarchy", help="print the Figure 1 hierarchy")
    hierarchy_parser.set_defaults(handler=_command_hierarchy)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
