"""The simulation engine.

:class:`SimulationEngine` executes a program under an interaction model,
drawing interactions from a scheduler and (optionally) letting an omission
adversary inject omissive interactions between scheduled ones, exactly as
the adversaries of Definitions 1 and 2 rewrite runs.

The engine is deliberately small: all protocol semantics live in the
interaction model (:mod:`repro.interaction.models`), all policy lives in
the scheduler/adversary, and the step loop itself lives in the selected
execution backend (:mod:`repro.engine.backends`) — by default the shared
fast-path core (:mod:`repro.engine.fastpath`), or the columnar numpy
array engine for huge populations of small-finite-state protocols.
:meth:`SimulationEngine.run` and :meth:`SimulationEngine.replay` are thin
wrappers, as is :func:`repro.engine.convergence.run_until_stable`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.engine.backends import load_array_backend, validate_backend
from repro.engine.fastpath import DEFAULT_CHUNK_SIZE, RunResult, Watch, make_step_log, run_core
from repro.engine.trace import Trace
from repro.interaction.models import InteractionModel
from repro.protocols.state import Configuration, MutableConfiguration
from repro.scheduling.runs import Interaction, Run
from repro.scheduling.scheduler import Scheduler, ScriptedScheduler


class EngineError(Exception):
    """Raised on invalid engine configuration or execution errors."""


def check_max_steps(max_steps: float) -> None:
    """The step-budget check both engine entry points apply on every backend."""
    if max_steps < 0:
        raise EngineError("max_steps must be non-negative")


class SimulationEngine:
    """Executes a program on a population under a given interaction model.

    Parameters
    ----------
    program:
        The protocol to execute: a two-way protocol for two-way models, a
        one-way protocol or simulator for one-way models.
    model:
        The interaction model (one of the ten models of Figure 1).
    scheduler:
        Source of the scheduled (non-omissive) interactions.
    adversary:
        Optional omission adversary; consulted before every scheduled
        interaction and allowed to inject omissive interactions
        (Definitions 1 and 2).  ``None`` means no omissions beyond those
        already carried by the scheduled interactions themselves.
    backend:
        Execution backend name (:data:`repro.engine.backends.ENGINE_BACKENDS`).
        ``"python"`` (default) runs the interpreted fast path and supports
        everything; ``"array"`` opts into columnar numpy execution for
        programs with small finite state spaces (requires the
        ``repro[fast]`` extra) and raises
        :class:`~repro.engine.backends.base.BackendCompileError` for
        ingredients it cannot compile.  The name is validated here; the
        backend itself (and its numpy dependency) is resolved per run.
        The pseudo-backend ``"auto"`` is rejected: the engine cannot know
        the run's trace policy or predicate up front, so ``"auto"`` must be
        resolved to a concrete backend first
        (:func:`repro.protocols.registry.resolve_backend`).
    """

    def __init__(
        self,
        program: Any,
        model: InteractionModel,
        scheduler: Scheduler,
        adversary: Optional[Any] = None,
        backend: str = "python",
    ) -> None:
        self.program = program
        self.model = model
        self.scheduler = scheduler
        self.adversary = adversary
        if backend == "auto":
            raise EngineError(
                "SimulationEngine does not accept backend='auto': resolution "
                "depends on the run's trace policy and predicate, which the "
                "engine cannot know at construction time; resolve the spec "
                "first with repro.protocols.registry.resolve_backend (the "
                "CLI and campaign planner do this automatically)"
            )
        self.backend = validate_backend(backend)

    # -- single-interaction execution -------------------------------------------------------

    def execute_interaction(
        self, configuration: Configuration, interaction: Interaction
    ) -> Configuration:
        """Apply one interaction to a configuration and return the new configuration."""
        n = len(configuration)
        if interaction.starter >= n or interaction.reactor >= n:
            raise EngineError(
                f"interaction {interaction} references agents outside the population "
                f"of size {n}"
            )
        starter_pre = configuration[interaction.starter]
        reactor_pre = configuration[interaction.reactor]
        starter_post, reactor_post = self.model.apply(
            self.program, starter_pre, reactor_pre, interaction.omission
        )
        return configuration.apply_interaction(
            interaction.starter, interaction.reactor, starter_post, reactor_post
        )

    # -- full runs ----------------------------------------------------------------------------

    def execute(
        self,
        initial_configuration: Configuration,
        max_steps: int,
        stop_condition: Optional[Callable[[Any], bool]] = None,
        *,
        trace_policy: str = "full",
        ring_size: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> RunResult:
        """Execute up to ``max_steps`` interactions under a selectable trace policy.

        This is the general fast-path entry point; :meth:`run` is the
        backwards-compatible wrapper that always records a full trace.

        ``stop_condition`` is evaluated on the live run buffer (a
        :class:`~repro.protocols.state.MutableConfiguration` mirroring the
        :class:`Configuration` read API — it is not hashable and is aliased
        across steps, so freeze it before storing) after every executed
        interaction; when it returns ``True`` the run stops early.  Every
        executed interaction (scheduled or adversary-injected) counts
        towards ``max_steps``.

        Budget semantics: a scheduled interaction is consumed only while
        budget remains and, once consumed, always executes; adversary
        injections that would leave it no budget are discarded (still
        charging the adversary's own omission budget).  A stop condition
        firing mid-batch skips the rest of that batch.

        Every run consumes the scheduler in chunks of up to ``chunk_size``
        batched draws (default
        :data:`~repro.engine.fastpath.DEFAULT_CHUNK_SIZE`); with an
        adversary, each chunk goes through the adversary's column-schedule
        protocol (``plan_chunk_schedule_columns``, or the generic walk
        :func:`~repro.adversary.omission.plan_columns_per_step` for
        adversaries that only define ``interactions_before``).  Batched
        draws and column schedules are bitwise identical to their
        per-step counterparts, so the result is independent of
        ``chunk_size`` (``1`` reproduces the per-step loop).  See
        :mod:`repro.engine.fastpath` for the full contract.

        The run executes on the engine's configured backend; on the
        ``array`` backend only the compilable subset is accepted (catalog
        adversaries compile via column schedules, ``counts-only`` and
        ``ring`` trace policies are supported, stop conditions must be
        count-expressible predicates) and anything else raises
        :class:`~repro.engine.backends.base.BackendCompileError`.
        """
        check_max_steps(max_steps)
        if len(initial_configuration) < 2 and max_steps > 0:
            raise EngineError("a population of fewer than two agents cannot interact")

        ingredients = (self.program, self.model, self.scheduler, self.adversary,
                       initial_configuration, max_steps, stop_condition)
        if self.backend == "array":
            return load_array_backend().execute(
                *ingredients, trace_policy=trace_policy, ring_size=ring_size,
                chunk_size=chunk_size)
        return _execute_python(
            *ingredients, trace_policy=trace_policy, ring_size=ring_size,
            chunk_size=chunk_size)

    def run(
        self,
        initial_configuration: Configuration,
        max_steps: int,
        stop_condition: Optional[Callable[[Any], bool]] = None,
    ) -> Trace:
        """Execute up to ``max_steps`` interactions and return the full trace.

        Equivalent to ``execute(..., trace_policy="full").trace``; see
        :meth:`execute` for the stop-condition and budget semantics.  Note
        that ``stop_condition`` receives the *live run buffer* (a
        :class:`~repro.protocols.state.MutableConfiguration` mirroring the
        ``Configuration`` read API), valid only for the duration of the
        call — freeze it before storing.
        """
        return self.execute(
            initial_configuration, max_steps, stop_condition, trace_policy="full"
        ).trace

    def replay(self, initial_configuration: Configuration, run: Iterable[Interaction]) -> Trace:
        """Execute an explicit run (sequence of interactions) and return the trace.

        The scheduler and adversary are bypassed: the given interactions,
        including their omission flags, are executed verbatim.  This is how
        the scripted attack constructions of Section 3 are evaluated.
        Replays always run on the python fast path, whatever the engine's
        backend: scripted runs carry per-interaction omission flags, which
        the compiled tables of the array backend do not model.
        """
        interactions = run if isinstance(run, Run) else Run(run)
        return _execute_python(
            self.program,
            self.model,
            ScriptedScheduler(interactions),
            None,
            initial_configuration,
            len(interactions),
            stop_condition=None,
            trace_policy="full",
            ring_size=None,
            chunk_size=None,
        ).trace


def _execute_python(
    program: Any,
    model: InteractionModel,
    scheduler: Scheduler,
    adversary: Optional[Any],
    initial_configuration: Configuration,
    max_steps: int,
    stop_condition: Optional[Callable[[Any], bool]],
    trace_policy: str,
    ring_size: Optional[int],
    chunk_size: Optional[int],
) -> RunResult:
    """The python backend's :meth:`SimulationEngine.execute` body.

    Argument validation stays in the callers: :meth:`~SimulationEngine.execute`
    checks the budget and population for every backend, and
    :meth:`~SimulationEngine.replay` needs neither check.
    """
    log = make_step_log(trace_policy, ring_size)
    buffer = MutableConfiguration(initial_configuration)
    watch = None
    if stop_condition is not None:
        watch = Watch(1, False, lambda *_step: stop_condition(buffer))

    executed, stopped, _chunks, omissions = run_core(
        program,
        model,
        scheduler,
        adversary,
        buffer,
        log,
        max_steps,
        watch,
        chunk_size=chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE,
    )
    final = buffer.freeze()
    return RunResult(
        policy=trace_policy,
        steps=executed,
        omissions=omissions,
        final_configuration=final,
        trace=Trace(initial_configuration, log, final) if trace_policy == "full" else None,
        stopped=stopped,
        window=log if trace_policy == "ring" else None,
    )
