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
array engine for huge populations of small-finite-state protocols.  An
engine is the ingredients of a run; the run itself is
:func:`repro.engine.convergence.run_until_stable`, the one entry point
that dispatches on the backend.  :meth:`SimulationEngine.run` and
:meth:`SimulationEngine.replay` are the paper-facing trace API over it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.engine.backends import validate_backend
from repro.engine.trace import Trace
from repro.interaction.models import InteractionModel
from repro.protocols.state import Configuration
from repro.scheduling.runs import Interaction, Run
from repro.scheduling.scheduler import Scheduler, ScriptedScheduler


class EngineError(Exception):
    """Raised on invalid engine configuration or execution errors."""


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

    def run(
        self,
        initial_configuration: Configuration,
        max_steps: int,
        stop_condition: Optional[Callable[[Any], bool]] = None,
    ) -> Trace:
        """Execute up to ``max_steps`` interactions and return the full trace.

        ``run_until_stable(self, initial_configuration, stop_condition,
        max_steps).trace``: the stop condition is a predicate with a
        stability window of 0, tested on the initial configuration and
        after every executed interaction, and the run stops at the first
        configuration that satisfies it.  It receives the *live run
        buffer* (a :class:`~repro.protocols.state.MutableConfiguration`
        mirroring the ``Configuration`` read API), valid only for the
        duration of the call — freeze it before storing.  See
        :func:`~repro.engine.convergence.run_until_stable` for the budget
        semantics.
        """
        # Imported here: the run entry point imports this module.
        from repro.engine.convergence import run_until_stable
        return run_until_stable(self, initial_configuration, stop_condition, max_steps).trace

    def replay(self, initial_configuration: Configuration, run: Iterable[Interaction]) -> Trace:
        """Execute an explicit run (sequence of interactions) and return the trace.

        The scheduler and adversary are bypassed: the given interactions,
        including their omission flags, are executed verbatim.  This is how
        the scripted attack constructions of Section 3 are evaluated.
        Replays always run on the python fast path, whatever the engine's
        backend: scripted runs carry per-interaction omission flags, which
        the compiled tables of the array backend do not model.
        """
        from repro.engine.convergence import run_until_stable
        interactions = run if isinstance(run, Run) else Run(run)
        scripted = SimulationEngine(self.program, self.model, ScriptedScheduler(interactions))
        return run_until_stable(scripted, initial_configuration, None, len(interactions)).trace
