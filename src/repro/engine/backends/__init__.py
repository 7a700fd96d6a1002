"""Pluggable execution backends.

The engine's run semantics (budget, stop conditions, trace policies — see
:mod:`repro.engine.fastpath`) are implemented by two interchangeable
*backends*:

========  ==================================================================
name      implementation
========  ==================================================================
python    the default interpreted fast path; supports everything, no
          third-party dependencies (:func:`repro.engine.fastpath.run_core`)
array     opt-in columnar numpy execution for protocols with small finite
          state spaces — interned states, compiled transition tables,
          whole-chunk vectorized draws (:mod:`.array_backend`); requires
          the ``repro[fast]`` extra
========  ==================================================================

Selection points: ``SimulationEngine(backend=...)``,
``ExperimentSpec.backend`` (pickles across the process fan-out) and
``repro run --engine-backend``.  The engine dispatches on the name in
exactly one place, the run entry point
:func:`~repro.engine.convergence.run_until_stable`; it calls the python
backend's :func:`~repro.engine.convergence.run_until_stable_core` or the
module function of the same name in :mod:`.array_backend`.  That module
is imported lazily through
:func:`load_array_backend`, so ``import repro`` never touches numpy and
installs without the extra keep working until ``array`` is actually
requested.

Specs (but not engines) additionally accept the pseudo-backend ``"auto"``:
:func:`repro.protocols.registry.resolve_backend` probes whether every
ingredient of the experiment compiles for the array backend
(:func:`repro.engine.backends.array_backend.probe_compile`) and pins the
fastest concrete backend *before* the spec reaches an engine or a campaign
cell hash.  ``"auto"`` therefore never appears in :data:`ENGINE_BACKENDS`.
"""

from __future__ import annotations

from types import ModuleType

from repro.engine.backends.base import (
    BackendCompileError,
    BackendError,
    BackendUnavailableError,
)

#: The selectable execution backends.
ENGINE_BACKENDS = ("python", "array")

#: What a spec/CLI flag may say: the concrete backends plus ``"auto"``,
#: which :func:`repro.protocols.registry.resolve_backend` replaces with a
#: concrete name before execution.
BACKEND_CHOICES = ENGINE_BACKENDS + ("auto",)


def validate_backend(name: str) -> str:
    """Check ``name`` against :data:`BACKEND_CHOICES` without importing it.

    Cheap enough for spec/engine constructors: availability of the array
    backend's numpy dependency is only checked when a run needs it
    (:func:`load_array_backend`).  ``"auto"`` validates (specs may carry
    it); resolution to a concrete backend happens in
    :func:`repro.protocols.registry.resolve_backend`.
    """
    if name not in BACKEND_CHOICES:
        known = ", ".join(BACKEND_CHOICES)
        raise ValueError(f"unknown engine backend {name!r}; known backends: {known}")
    return name


def load_array_backend() -> ModuleType:
    """Import :mod:`.array_backend`, or raise :class:`BackendUnavailableError`
    when numpy is not installed."""
    try:
        import numpy  # noqa: F401 - availability probe
    except ImportError:
        raise BackendUnavailableError(
            "the array engine backend requires numpy; install the fast "
            "extra (pip install 'repro[fast]') or numpy itself, or use "
            "the default python backend"
        ) from None
    from repro.engine.backends import array_backend

    return array_backend


__all__ = [
    "BACKEND_CHOICES",
    "BackendCompileError",
    "BackendError",
    "BackendUnavailableError",
    "ENGINE_BACKENDS",
    "load_array_backend",
    "validate_backend",
]
