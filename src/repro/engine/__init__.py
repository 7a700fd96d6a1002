"""Discrete-event execution engine for population protocols.

The engine ties together a *program* (a two-way protocol, a one-way
protocol, or a simulator from :mod:`repro.core`), an *interaction model*
(from :mod:`repro.interaction`), a *scheduler* (from
:mod:`repro.scheduling`) and optionally an *omission adversary* (from
:mod:`repro.adversary`), and produces an execution :class:`Trace` that
records every interaction together with the state changes it caused.

A run has one entry point, :func:`run_until_stable`: it checks the
request, dispatches on the engine's backend and returns a
:class:`ConvergenceResult`.  Without a predicate it runs to its budget;
:meth:`SimulationEngine.run` and :meth:`SimulationEngine.replay` are
one-line calls into it.  On the python backend it drives the shared
fast-path step loop in :mod:`repro.engine.fastpath`, which mutates an
array-backed run buffer in place and supports selectable trace policies
(``full``, ``counts-only``, ``ring``) plus incremental convergence
predicates.

Traces are the raw material of all analyses in the library: simulation
verification (events / matchings / derived runs), problem checkers
(safety/liveness) and the benchmark harness.

Batches of runs (:mod:`repro.engine.experiment`) build their programs
through :mod:`repro.protocols.registry`, which sits above this package, so
they are imported by module path and never re-exported here.
"""

from repro.engine.trace import StepLog, Trace, TraceStep
from repro.engine.engine import SimulationEngine, EngineError
from repro.engine.fastpath import (
    TRACE_POLICIES,
    AgentCountPredicate,
    HistogramPredicate,
    IncrementalPredicate,
    PredicateAdapter,
    as_incremental,
    incremental_stable_output,
    make_step_log,
    run_core,
)
from repro.engine.convergence import (
    ConvergenceResult,
    run_until_stable,
    stable_output_condition,
)

__all__ = [
    "StepLog",
    "Trace",
    "TraceStep",
    "SimulationEngine",
    "EngineError",
    "TRACE_POLICIES",
    "AgentCountPredicate",
    "HistogramPredicate",
    "IncrementalPredicate",
    "PredicateAdapter",
    "as_incremental",
    "incremental_stable_output",
    "make_step_log",
    "run_core",
    "ConvergenceResult",
    "run_until_stable",
    "stable_output_condition",
]
