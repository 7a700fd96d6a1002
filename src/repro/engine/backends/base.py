"""Error types shared by the execution backends.

The engine runs on one of two backends (see :mod:`repro.engine.backends`),
each a complete implementation of the engine's run semantics — the budget,
stop-condition and trace-policy contract documented in
:mod:`repro.engine.fastpath` — over its own data representation:

``python`` (:func:`repro.engine.fastpath.run_core`)
    The default: the interpreted fast path over a
    :class:`~repro.protocols.state.MutableConfiguration` buffer.  Supports
    every program, scheduler, adversary, predicate and trace policy, and
    needs no third-party packages.

``array`` (:mod:`repro.engine.backends.array_backend`)
    Opt-in columnar execution over numpy arrays of interned state codes for
    protocols with small finite state spaces.  Much faster for huge
    populations — including adversary runs (the catalog adversaries compile
    to injection schedules) and ``ring`` crash dumps (a columnar rolling
    buffer) — but only for the *compilable* subset of experiments; a
    request outside that subset raises :class:`BackendCompileError` naming
    the first offending ingredient and the flag that avoids it.  The same
    compile checks back ``probe_compile``, which
    :func:`repro.protocols.registry.resolve_backend` uses to resolve the
    ``"auto"`` pseudo-backend to the fastest backend that compiles.

The array backend's module functions ``execute`` and ``run_until_stable``
mirror :meth:`~repro.engine.engine.SimulationEngine.execute` and
:func:`~repro.engine.convergence.run_until_stable` but take the run's
ingredients explicitly (the engine passes them), so the backend never
imports the engine layer above it.

This module is deliberately import-light (no engine, scheduling or numpy
imports): lower layers such as :mod:`repro.scheduling.array_draws` raise
its error types without creating import cycles.
"""

from __future__ import annotations

from typing import Any


class BackendError(Exception):
    """Base class for execution-backend errors."""


class BackendUnavailableError(BackendError):
    """Raised when a backend's third-party dependency is not installed."""


class BackendCompileError(BackendError):
    """Raised when an experiment ingredient cannot be compiled for a backend.

    The message names the ingredient (program, scheduler, adversary,
    predicate, trace policy) and, where one exists, the supported
    alternative — callers surface it verbatim, so it must be actionable.
    """


def unbounded_state_space_error(program: Any, error: Exception) -> BackendCompileError:
    """The array backend's compile error for a program whose ``state_order()``
    raised ``error`` (the paper's simulators: unbounded composite states).

    Lives here, away from numpy, so ``auto`` resolution can reject such a
    program before importing the array backend and still record the exact
    message :func:`~repro.engine.backends.array_backend.compile_program`
    raises.
    """
    return BackendCompileError(
        f"program {type(program).__name__} cannot be compiled for the "
        f"array backend: {error} (simulators with unbounded composite "
        "state spaces need --engine-backend python)"
    )
