"""Picklable experiment registry: the one way to describe a run.

``ProcessPoolExecutor`` workers cannot receive live closures:
convergence predicates close over simulators, adversaries hold models,
and none of it pickles.  This module is the seam that makes process
fan-out possible — every ingredient of an experiment is addressed by a
**string key** into a module-level registry, and a whole experiment is
described by the picklable, hashable :class:`ExperimentSpec`.  Workers
receive a spec plus a seed, resolve the keys against their own imported
registries, and rebuild the live objects locally; nothing but plain data
crosses the process boundary.

Registries
----------

* :data:`PROTOCOLS` — catalog protocol constructors (re-exported from
  :data:`repro.protocols.catalog.CATALOG`).
* :data:`SIMULATORS` — simulator factories by CLI name
  (``none``/``skno``/``sid``/``known-n``).
* :data:`PREDICATES` — convergence-predicate factories; each is called as
  ``factory(simulator, protocol, initial_projected)`` inside the worker
  and returns a fresh predicate per run (so stateful incremental
  predicates are safe under any backend).
* :data:`SCHEDULERS` — scheduler factories ``factory(n, seed)``.
* :data:`ADVERSARIES` — omission-adversary factories
  ``factory(model, omissions, seed, **kwargs)`` by class name
  (``bounded``/``no1``/``uo``/``no``); built fresh per run because
  adversaries are stateful.

Extending: call :func:`register_protocol` / :func:`register_predicate` /
:func:`register_scheduler` / :func:`register_simulator` /
:func:`register_adversary` at import time of your own module.  Keys resolve *inside each worker process*, so the
registering module must be imported there too — register at module top
level, not inside functions.

Third-party packages do not even need an explicit import: any installed
distribution may advertise ``repro.protocols`` entry points
(:data:`ENTRY_POINT_GROUP`), which this module discovers through
``importlib.metadata`` at import time and loads into the registries — see
:func:`load_entry_points`.  Because discovery runs wherever this module is
imported, entry-point-registered keys resolve in process-pool workers too.
"""

from __future__ import annotations

import importlib.metadata
import importlib.util
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.adversary.omission import (
    BoundedOmissionAdversary,
    NO1Adversary,
    NOAdversary,
    UOAdversary,
)
from repro.core.naming import KnownSizeSimulator
from repro.engine.backends import BackendUnavailableError, load_array_backend, validate_backend
from repro.engine.backends.base import unbounded_state_space_error
from repro.engine.fastpath import AgentCountPredicate, HistogramPredicate
from repro.core.sid import SIDSimulator
from repro.core.skno import SKnOSimulator
from repro.core.trivial import TrivialTwoWaySimulator
from repro.interaction.adapters import one_way_as_two_way
from repro.interaction.models import get_model
from repro.protocols.catalog import CATALOG, get_protocol
from repro.protocols.protocol import ProtocolError
from repro.protocols.state import Configuration
from repro.scheduling.graph_scheduler import (
    complete_graph_scheduler,
    ring_scheduler,
    star_scheduler,
)
from repro.scheduling.scheduler import RandomScheduler, RoundRobinScheduler

#: Protocol constructors by catalog name (the catalog registry, re-exported
#: so every registry an :class:`ExperimentSpec` key can hit lives here).
PROTOCOLS: Dict[str, Callable[..., Any]] = CATALOG


def register_protocol(key: str, factory: Callable[..., Any]) -> None:
    """Register a protocol constructor under ``key`` (import-time only)."""
    PROTOCOLS[key] = factory


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------


def _build_none(protocol, population, omission_bound, model_name) -> TrivialTwoWaySimulator:
    return TrivialTwoWaySimulator(protocol)


def _build_skno(protocol, population, omission_bound, model_name) -> SKnOSimulator:
    variant = "I4" if model_name.upper() == "I4" else "I3"
    return SKnOSimulator(protocol, omission_bound=omission_bound, variant=variant)


def _build_sid(protocol, population, omission_bound, model_name) -> SIDSimulator:
    return SIDSimulator(protocol)


def _build_known_n(protocol, population, omission_bound, model_name) -> KnownSizeSimulator:
    return KnownSizeSimulator(protocol, population_size=population)


#: Simulator factories ``factory(protocol, population, omission_bound,
#: model_name) -> simulator`` by CLI simulator name.
SIMULATORS: Dict[str, Callable[..., Any]] = {
    "none": _build_none,
    "skno": _build_skno,
    "sid": _build_sid,
    "known-n": _build_known_n,
}


def register_simulator(key: str, factory: Callable[..., Any]) -> None:
    """Register a simulator factory under ``key`` (import-time only)."""
    SIMULATORS[key] = factory


def build_simulator(kind: str, protocol, population: int, omission_bound: int,
                    model_name: str) -> Any:
    """Instantiate the simulator registered under ``kind`` as a program for ``model_name``.

    A one-way simulator (no ``fs``/``fr``) under a two-way model (``TW``,
    ``T1``-``T3``) comes back wrapped in
    :func:`~repro.interaction.adapters.one_way_as_two_way`, the Figure 1
    "special case" edge.  The rule depends on the model only, so every
    spec, campaign cell and CLI run pairs any simulator with any model.
    """
    try:
        factory = SIMULATORS[kind]
    except KeyError:
        known = ", ".join(sorted(SIMULATORS))
        raise KeyError(f"unknown simulator {kind!r}; known simulators: {known}") from None
    simulator = factory(protocol, population, omission_bound, model_name)
    if not hasattr(simulator, "fs") and not get_model(model_name).one_way:
        return one_way_as_two_way(simulator)
    return simulator


# ---------------------------------------------------------------------------
# initial configurations
# ---------------------------------------------------------------------------


def default_initial_configuration(protocol, population: int,
                                  ones: Optional[int] = None) -> Configuration:
    """A sensible default initial configuration for each catalog protocol.

    ``ones`` overrides the number of agents with input 1 for the
    threshold/modulo/OR/AND/parity families; the other protocols ignore it.
    Every input is a few constant blocks, held in run form
    (:meth:`Configuration.from_runs`), except averaging's per-agent values.
    """
    name = protocol.name
    majority_a = population // 2 + 1
    if name == "pairing":
        consumers = population // 2
        return Configuration.from_runs((("c", consumers), ("p", population - consumers)))
    if name == "leader-election":
        return Configuration.uniform("L", population)
    if name in ("exact-majority", "approximate-majority"):
        return protocol.initial_configuration(majority_a, population - majority_a)
    if name.startswith("threshold") or name.startswith("mod-") or name == "parity":
        count = ones if ones is not None else majority_a
        return protocol.initial_configuration(count, population - count)
    if name in ("or", "and"):
        count = ones if ones is not None else 1
        return protocol.initial_configuration(count, population - count)
    if name.startswith("averaging"):
        return Configuration([(i * 3) % (protocol.max_value + 1) for i in range(population)])
    if name == "epidemic":
        return Configuration.from_runs((("I", 1), ("S", population - 1)))
    raise KeyError(f"no default initial configuration for protocol {name!r}")


# ---------------------------------------------------------------------------
# convergence predicates
# ---------------------------------------------------------------------------


def prepare_stable_output_predicate(
        simulator, protocol, initial_projected: Configuration) -> Callable[[], Any]:
    """Hoist the pure part of :func:`stable_output_predicate` out of the run.

    Deriving the expected stable output is pure in (protocol, initial
    configuration), yet it used to run once *per run*, where it dwarfed the
    actual simulation on short runs at large n (the regime the columnar
    result transport targets).  This preparer derives it
    once, from the initial configuration's cached state multiset (one
    ``output()`` call per distinct state, weighted by its count), and
    returns a zero-arg maker; each maker call still constructs a **fresh**
    predicate instance, so the statefulness contract of incremental
    predicates (reset counts per run) is untouched.
    """
    project = simulator.project
    output = protocol.output

    def all_output(expected) -> Callable[[], AgentCountPredicate]:
        return lambda: AgentCountPredicate(
            lambda s: output(project(s)) == expected)

    def total(weight: Callable[[Any], int]) -> int:
        # Sum of weight(state) over the agents, one call per distinct state.
        return sum(weight(state) * count
                   for state, count in initial_projected.histogram().items())

    name = protocol.name
    if name == "pairing":
        expected_critical = min(initial_projected.count("c"),
                                initial_projected.count("p"))
        return lambda: AgentCountPredicate(
            lambda s: project(s) == "cs", target=expected_critical)
    if name == "leader-election":
        return lambda: AgentCountPredicate(lambda s: project(s) == "L", target=1)
    if name == "exact-majority":
        count_a = total(lambda state: output(state) == "A")
        expected = "A" if count_a * 2 > len(initial_projected) else "B"
        return all_output(expected)
    if name.startswith("averaging"):
        return lambda: HistogramPredicate(project, _spread_at_most_one)
    if name.startswith("threshold"):
        ones = total(lambda state: state[0])
        return all_output(protocol.expected_output(ones))
    if name.startswith("mod-") or name == "parity":
        ones = total(lambda state: state[1])
        return all_output(protocol.expected_output(ones))
    # Generic boolean predicates: the stable output is determined by the
    # protocol's own expected_output when available.
    expected = None
    if hasattr(protocol, "expected_output"):
        ones = total(lambda state: bool(output(state)))
        try:
            expected = protocol.expected_output(ones)
        except TypeError:
            expected = None
    if expected is not None:
        return all_output(expected)

    def projected_output(state: Any) -> Any:
        return output(project(state))
    return lambda: HistogramPredicate(projected_output, _unanimous)


def _spread_at_most_one(values: Dict[Any, int]) -> bool:
    """The averaging criterion: the held values differ by at most one."""
    return max(values) - min(values) <= 1


def _unanimous(outputs: Dict[Any, int]) -> bool:
    """The fallback criterion: every agent outputs the same value."""
    return len(outputs) == 1


def stable_output_predicate(simulator, protocol, initial_projected: Configuration) -> "AgentCountPredicate | HistogramPredicate":
    """Predicate: every agent's simulated output equals the final stable output.

    The expected stable output is derived from the initial configuration
    where possible (majority opinion, OR/AND value, threshold verdict);
    protocols without a natural scalar output fall back to "outputs stopped
    changing", approximated by unanimity of outputs.  This is the default
    predicate of ``repro run`` for every catalog protocol.

    Wherever the criterion is a *state count* ("``k`` agents satisfy this
    per-state test"), the returned predicate is an
    :class:`~repro.engine.fastpath.AgentCountPredicate`: O(1) per step on
    the python backend (delta-driven instead of an O(n) rescan) and
    compilable by the array backend.  The averaging spread criterion and
    the unanimity fallback are not state counts: each is a
    :class:`~repro.engine.fastpath.HistogramPredicate` over the agents'
    values or outputs, also delta-driven on the python backend, which the
    array backend rejects with an actionable error.
    """
    return prepare_stable_output_predicate(simulator, protocol, initial_projected)()


#: Predicate factories ``factory(simulator, protocol, initial_projected) ->
#: predicate`` by name; called once per run, so returning stateful
#: incremental predicates is safe.
PREDICATES: Dict[str, Callable[..., Any]] = {
    "stable-output": stable_output_predicate,
}

#: Optional two-stage twins of :data:`PREDICATES` entries:
#: ``prepare(simulator, protocol, initial_projected)`` runs the pure,
#: possibly O(n) part once per built experiment and returns a zero-arg
#: maker producing a fresh predicate per run.  Factories without an entry
#: here are simply called once per run, as before.
PREDICATE_PREPARERS: Dict[str, Callable[..., Callable[[], Any]]] = {
    "stable-output": prepare_stable_output_predicate,
}


def register_predicate(key: str, factory: Callable[..., Any],
                       prepare: Optional[Callable[..., Callable[[], Any]]] = None) -> None:
    """Register a convergence-predicate factory under ``key`` (import-time only).

    ``prepare``, when given, registers a two-stage twin (see
    :data:`PREDICATE_PREPARERS`) that lets repeated runs of one spec skip
    the factory's per-run setup cost.
    """
    PREDICATES[key] = factory
    if prepare is not None:
        PREDICATE_PREPARERS[key] = prepare
    else:
        PREDICATE_PREPARERS.pop(key, None)


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------


def _random_scheduler(n, seed=None) -> RandomScheduler:
    return RandomScheduler(n, seed=seed)


def _round_robin_scheduler(n, seed=None) -> RoundRobinScheduler:
    return RoundRobinScheduler(n)


#: Scheduler factories ``factory(n, seed) -> scheduler`` by name.
SCHEDULERS: Dict[str, Callable[..., Any]] = {
    "random": _random_scheduler,
    "round-robin": _round_robin_scheduler,
    "ring-graph": ring_scheduler,
    "star-graph": star_scheduler,
    "complete-graph": complete_graph_scheduler,
}


def register_scheduler(key: str, factory: Callable[..., Any]) -> None:
    """Register a scheduler factory under ``key`` (import-time only)."""
    SCHEDULERS[key] = factory


# ---------------------------------------------------------------------------
# adversaries
# ---------------------------------------------------------------------------


def _bounded_adversary(model, omissions, seed=None, **kwargs) -> BoundedOmissionAdversary:
    return BoundedOmissionAdversary(model, max_omissions=omissions, seed=seed, **kwargs)


def _no1_adversary(model, omissions, seed=None, **kwargs) -> NO1Adversary:
    return NO1Adversary(model, seed=seed, **kwargs)


def _uo_adversary(model, omissions, seed=None, **kwargs) -> UOAdversary:
    return UOAdversary(model, seed=seed, **kwargs)


def _no_adversary(model, omissions, seed=None, **kwargs) -> NOAdversary:
    return NOAdversary(model, seed=seed, **kwargs)


#: Adversary factories ``factory(model, omissions, seed, **kwargs) ->
#: adversary`` by name.  ``omissions`` is the spec's omission budget: it is
#: the hard budget for ``bounded``, fixed at one for ``no1``, and for the
#: budgetless classes (``uo`` injects forever, ``no`` stops after its
#: ``active_steps``) any positive value merely activates the adversary.
ADVERSARIES: Dict[str, Callable[..., Any]] = {
    "bounded": _bounded_adversary,
    "no1": _no1_adversary,
    "uo": _uo_adversary,
    "no": _no_adversary,
}


def register_adversary(key: str, factory: Callable[..., Any]) -> None:
    """Register an adversary factory under ``key`` (import-time only)."""
    ADVERSARIES[key] = factory


# ---------------------------------------------------------------------------
# the picklable experiment description
# ---------------------------------------------------------------------------


def _frozen(value: Any) -> Any:
    """``value`` with JSON arrays (lists) as tuples, so it hashes."""
    if isinstance(value, list):
        return tuple(_frozen(item) for item in value)
    return value


def _as_items(kwargs) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a kwargs mapping to a sorted, hashable tuple of pairs."""
    if kwargs is None:
        return ()
    if isinstance(kwargs, dict):
        kwargs = kwargs.items()
    return tuple(sorted((key, _frozen(value)) for key, value in kwargs))


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully picklable, hashable description of one experiment family.

    Every field is plain data; live objects (protocol, simulator, model,
    predicate, scheduler, adversary) are rebuilt from the registries via
    :meth:`build` — in the parent for sequential runs, in each worker for
    the process fan-out.  Equal specs build behaviourally identical
    systems, which is why a spec plus a seed fully determines a run and
    the process fan-out merges deterministically.

    ``protocol_kwargs``/``scheduler_kwargs`` accept dicts for convenience
    and are normalised to sorted tuples of pairs so specs stay hashable
    (the per-process build cache keys on the spec itself).

    ``chunk_size`` is the engine's batched-draw chunk (``None`` = the
    engine default).  It is carried on the spec so the CLI and the
    process fan-out can carry it to every worker, but it is purely a
    performance knob: results are chunking-independent by the batched
    protocols' equivalence contracts.

    ``backend`` selects the execution backend
    (:data:`repro.engine.backends.ENGINE_BACKENDS`) each run's engine is
    built with.  Like every other field it is plain data, so it pickles
    across the process fan-out and workers resolve the backend — including
    its numpy dependency for ``"array"`` — locally.  The pseudo-backend
    ``"auto"`` is accepted as spec data but must be pinned to a concrete
    backend via :func:`resolve_backend` / :func:`resolved_spec` before the
    spec reaches an engine — the experiment runner and campaign planner do
    this up front (before cell hashing), so content addresses and resumes
    never depend on which machine resolved the spec.
    """

    protocol: str
    population: int
    protocol_kwargs: Tuple[Tuple[str, Any], ...] = ()
    model: str = "TW"
    simulator: str = "none"
    omission_bound: int = 0
    omissions: int = 0
    ones: Optional[int] = None
    predicate: str = "stable-output"
    scheduler: str = "random"
    scheduler_kwargs: Tuple[Tuple[str, Any], ...] = ()
    adversary: str = "bounded"
    adversary_kwargs: Tuple[Tuple[str, Any], ...] = ()
    chunk_size: Optional[int] = None
    backend: str = "python"

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol_kwargs", _as_items(self.protocol_kwargs))
        object.__setattr__(self, "scheduler_kwargs", _as_items(self.scheduler_kwargs))
        object.__setattr__(self, "adversary_kwargs", _as_items(self.adversary_kwargs))
        if self.population < 2:
            raise ValueError("a population needs at least two agents to interact")
        if self.omissions < 0 or self.omission_bound < 0:
            raise ValueError("omission counts must be non-negative")
        if self.ones is not None and not 0 <= self.ones <= self.population:
            raise ValueError(
                f"ones must lie in 0..population, got ones={self.ones} "
                f"with population={self.population}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        validate_backend(self.backend)

    def build(self) -> "BuiltExperiment":
        """Resolve every key and construct the live per-experiment objects."""
        protocol = get_protocol(self.protocol, **dict(self.protocol_kwargs))
        model = get_model(self.model)
        if self.omissions > 0 and not model.allows_omissions:
            raise ValueError(f"model {model.name} does not admit omissions")
        initial_projected = default_initial_configuration(
            protocol, self.population, ones=self.ones)
        simulator = build_simulator(
            self.simulator, protocol, self.population, self.omission_bound, self.model)
        initial_configuration = simulator.initial_configuration(initial_projected)
        if self.predicate not in PREDICATES:
            known = ", ".join(sorted(PREDICATES))
            raise KeyError(
                f"unknown predicate {self.predicate!r}; known predicates: {known}")
        if self.scheduler not in SCHEDULERS:
            known = ", ".join(sorted(SCHEDULERS))
            raise KeyError(
                f"unknown scheduler {self.scheduler!r}; known schedulers: {known}")
        if self.adversary not in ADVERSARIES:
            known = ", ".join(sorted(ADVERSARIES))
            raise KeyError(
                f"unknown adversary {self.adversary!r}; known adversaries: {known}")
        return BuiltExperiment(
            spec=self,
            protocol=protocol,
            model=model,
            program=simulator,
            initial_projected=initial_projected,
            initial_configuration=initial_configuration,
        )


@dataclass
class BuiltExperiment:
    """The live (non-picklable) objects resolved from an :class:`ExperimentSpec`.

    ``program`` and ``model`` are stateless and shared across the runs of a
    worker; predicates, schedulers and adversaries are stateful and built
    fresh per run through the ``make_*`` factories.
    """

    spec: ExperimentSpec
    protocol: Any
    model: Any
    program: Any
    initial_projected: Configuration
    initial_configuration: Configuration
    #: Lazily cached zero-arg predicate maker (see
    #: :data:`PREDICATE_PREPARERS`): the pure preparation scan runs once
    #: per built experiment, while every :meth:`make_predicate` call still
    #: returns a fresh (possibly stateful) predicate instance.
    _predicate_maker: Optional[Callable[[], Any]] = field(
        default=None, init=False, repr=False, compare=False)

    def make_predicate(self) -> Any:
        """A fresh convergence predicate for one run."""
        maker = self._predicate_maker
        if maker is None:
            prepare = PREDICATE_PREPARERS.get(self.spec.predicate)
            if prepare is not None:
                maker = prepare(self.program, self.protocol, self.initial_projected)
            else:
                factory = PREDICATES[self.spec.predicate]
                maker = lambda: factory(
                    self.program, self.protocol, self.initial_projected)
            self._predicate_maker = maker
        return maker()

    def make_scheduler(self, seed: Optional[int]) -> Any:
        """A fresh scheduler for one run."""
        return SCHEDULERS[self.spec.scheduler](
            len(self.initial_configuration), seed=seed,
            **dict(self.spec.scheduler_kwargs))

    def make_adversary(self, seed: Optional[int]) -> Optional[Any]:
        """A fresh omission adversary for one run (``None`` when ``omissions == 0``)."""
        if self.spec.omissions <= 0:
            return None
        return ADVERSARIES[self.spec.adversary](
            self.model, self.spec.omissions, seed=seed,
            **dict(self.spec.adversary_kwargs))


#: Per-process cache of built experiments.  The build (protocol + simulator
#: + initial configuration) is pure, so one build serves every run of a spec
#: in this process.  :func:`resolve_backend` also files the build it probed
#: under the resolved spec, so the planner's build is the one the runs use.
#: Process workers forked after planning inherit those entries; that saves a
#: rebuild per worker, but nothing depends on it, since a build is cheap
#: (O(distinct states) Python calls for the identity simulator).
_BUILD_CACHE: Dict[ExperimentSpec, BuiltExperiment] = {}


def build_cached(spec: ExperimentSpec) -> BuiltExperiment:
    """Build ``spec`` once per process and memoise the result."""
    built = _BUILD_CACHE.get(spec)
    if built is None:
        built = _BUILD_CACHE[spec] = spec.build()
    return built


# ---------------------------------------------------------------------------
# automatic backend selection
# ---------------------------------------------------------------------------


class BackendResolution(NamedTuple):
    """Outcome of resolving a spec's ``"auto"`` backend to a concrete one.

    ``backend`` is a member of
    :data:`repro.engine.backends.ENGINE_BACKENDS`; ``reason`` is ``None``
    when the fastest backend compiled, else the human-readable
    :class:`~repro.engine.backends.base.BackendCompileError` (or
    numpy-unavailability) message explaining the fallback to ``python``.
    Callers surface the reason instead of discarding it — auto selection
    must never silently hide *why* a run is on the slow path.
    """

    backend: str
    reason: Optional[str]


#: Memoised resolutions: probing compiles the spec's program tables, so a
#: campaign planning hundreds of cells over the same few specs should probe
#: each distinct (spec, trace_policy) once.
_RESOLUTION_CACHE: Dict[Tuple[ExperimentSpec, str], BackendResolution] = {}


def resolve_backend(
    spec: ExperimentSpec, trace_policy: str = "counts-only"
) -> BackendResolution:
    """Pin ``spec.backend == "auto"`` to the fastest backend that compiles.

    Probes every ingredient of the experiment (program, scheduler,
    adversary, predicate, trace policy) against the array backend's compile
    checks (:func:`repro.engine.backends.array_backend.probe_compile`) and
    returns ``array`` when everything compiles, else ``python`` with the
    first compile error as the ``reason``.  A missing numpy installation is
    itself a recorded reason, never an exception.  A program without a
    finite state order (the paper's simulators) is rejected with the
    compile error's text before numpy is imported.

    Non-``auto`` specs pass through unchanged (reason ``None``), so callers
    may resolve unconditionally.  Resolution is deterministic in the spec
    and trace policy — it never consults timings or machine load — which is
    what keeps campaign cell hashes and resumes stable across machines with
    the same install profile.

    May raise the spec's own build errors (unknown keys, invalid models).
    The probe's build, prepared predicate and compiled tables are cached
    under the resolved spec (see :data:`_BUILD_CACHE`), so the runs that
    follow, and process workers forked after planning, reuse them.
    """
    if spec.backend != "auto":
        return BackendResolution(spec.backend, None)
    key = (spec, trace_policy)
    cached = _RESOLUTION_CACHE.get(key)
    if cached is not None:
        return cached
    # A build made before resolving (``repro run`` builds to validate) is
    # filed under the resolved spec too, with or without numpy.
    built: Optional[BuiltExperiment] = _BUILD_CACHE.get(spec)
    reason: Optional[str] = None
    if importlib.util.find_spec("numpy") is not None:
        # Reject the paper's simulators before paying numpy's import.
        built = build_cached(spec)
        reason = _unbounded_state_space_reason(built.program)
    if reason is None:
        try:
            array_backend = load_array_backend()
        except BackendUnavailableError as error:
            reason = str(error)
    if reason is None:
        built = build_cached(spec)
        reason = array_backend.probe_compile(
            built.program,
            built.model,
            scheduler=built.make_scheduler(seed=0),
            adversary=built.make_adversary(seed=0),
            predicate=built.make_predicate(),
            population=len(built.initial_configuration),
            trace_policy=trace_policy,
        )
    resolution = BackendResolution("python" if reason else "array", reason)
    _RESOLUTION_CACHE[key] = resolution
    if built is not None:
        _BUILD_CACHE.setdefault(replace(spec, backend=resolution.backend), built)
    return resolution


def _unbounded_state_space_reason(program: Any) -> Optional[str]:
    """The compile error of a program whose ``state_order()`` raises, numpy-free."""
    order = getattr(program, "state_order", None)
    if order is None:
        return None
    try:
        order()
    except ProtocolError as error:
        return str(unbounded_state_space_error(program, error))
    return None


def resolved_spec(
    spec: ExperimentSpec, trace_policy: str = "counts-only"
) -> Tuple[ExperimentSpec, Optional[str]]:
    """Return ``spec`` with ``"auto"`` replaced by its resolved backend.

    Convenience wrapper over :func:`resolve_backend`: returns the (possibly
    unchanged) spec plus the fallback reason, ``None`` when no fallback
    happened.  The returned spec is safe to hand to engines, workers and
    cell hashing.
    """
    if spec.backend != "auto":
        return spec, None
    resolution = resolve_backend(spec, trace_policy)
    return replace(spec, backend=resolution.backend), resolution.reason


# ---------------------------------------------------------------------------
# entry-point discovery
# ---------------------------------------------------------------------------

#: The ``importlib.metadata`` entry-point group third-party distributions
#: use to extend the registries without being imported explicitly.
ENTRY_POINT_GROUP = "repro.protocols"

#: Entry points already loaded (``(name, value)`` pairs), so repeated
#: discovery — e.g. a test calling :func:`load_entry_points` after the
#: import-time pass — stays idempotent.
_LOADED_ENTRY_POINTS: set = set()

#: Entry points that failed to load at import time, by name.  One broken
#: third-party distribution must not break ``import repro``; failures are
#: recorded here instead of raised (and re-raised only when
#: :func:`load_entry_points` is called with ``strict=True``).
ENTRY_POINT_ERRORS: Dict[str, str] = {}


def load_entry_points(
    entries: Optional[Iterable[Any]] = None, *, strict: bool = False
) -> List[str]:
    """Discover and load ``repro.protocols`` entry points into the registries.

    Each entry point's value is loaded with ``EntryPoint.load()``.  A
    loaded *callable* is invoked with no arguments — the conventional shape
    is a ``register()`` function calling :func:`register_protocol` /
    :func:`register_predicate` / :func:`register_scheduler` /
    :func:`register_simulator`.  Any other loaded object (typically a
    module) is assumed to have registered itself as an import side effect,
    which is exactly the contract the ``register_*`` hooks already demand.

    ``entries`` overrides discovery (used by tests to inject stub entry
    points); by default the installed distributions are scanned via
    ``importlib.metadata.entry_points``.  Returns the names loaded by this
    call; entries seen before are skipped.  Load failures are recorded in
    :data:`ENTRY_POINT_ERRORS` (or raised when ``strict``).
    """
    if entries is None:
        entries = importlib.metadata.entry_points(group=ENTRY_POINT_GROUP)
    loaded: List[str] = []
    for entry_point in entries:
        key = (entry_point.name, entry_point.value)
        if key in _LOADED_ENTRY_POINTS:
            continue
        try:
            target = entry_point.load()
            if callable(target):
                target()
        # repro-lint: disable=RPL003 reason=entry-point isolation must survive arbitrarily broken third-party dists; failures are recorded in ENTRY_POINT_ERRORS and surfaced by `repro list`
        except Exception as error:
            if strict:
                raise
            ENTRY_POINT_ERRORS[entry_point.name] = f"{type(error).__name__}: {error}"
            continue
        _LOADED_ENTRY_POINTS.add(key)
        loaded.append(entry_point.name)
    return loaded


# Import-time discovery: runs in every process that imports the registry,
# so entry-point keys resolve inside process-pool workers too.
load_entry_points()
