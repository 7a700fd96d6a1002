"""The default execution backend: the interpreted fast path.

This backend is a thin object wrapper around the pieces that predate the
backend abstraction — :func:`repro.engine.fastpath.run_core` for bounded
runs and :func:`repro.engine.convergence.run_until_stable_core` for
convergence experiments.  It supports every program, model, scheduler,
adversary, predicate, stop condition and trace policy, and is the semantic
reference the array backend is tested against.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine.backends.base import ExecutionBackend
from repro.engine.convergence import ConvergenceResult, run_until_stable_core
from repro.engine.fastpath import DEFAULT_CHUNK_SIZE, RunResult, Watch, make_recorder, run_core
from repro.protocols.state import Configuration, MutableConfiguration


class PythonBackend(ExecutionBackend):
    """Pure-Python execution over a :class:`MutableConfiguration` buffer."""

    name = "python"

    def execute(
        self,
        program: Any,
        model: Any,
        scheduler: Any,
        adversary: Optional[Any],
        initial_configuration: Configuration,
        max_steps: int,
        stop_condition: Optional[Callable[[Any], bool]] = None,
        *,
        trace_policy: str = "full",
        ring_size: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> RunResult:
        """The body of :meth:`SimulationEngine.execute` (see its docstring).

        Argument validation (non-negative budget, population of at least
        two) stays in the engine wrapper, shared by every backend.
        """
        recorder = make_recorder(trace_policy, ring_size)
        buffer = MutableConfiguration(initial_configuration)
        watch = None
        if stop_condition is not None:
            watch = Watch(1, False, lambda *_step: stop_condition(buffer))

        executed, stopped, _chunks = run_core(
            program,
            model,
            scheduler,
            adversary,
            buffer,
            recorder,
            max_steps,
            watch,
            chunk_size=chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE,
        )
        final = buffer.freeze()
        return RunResult(
            policy=recorder.policy,
            steps=executed,
            omissions=recorder.omissions,
            final_configuration=final,
            trace=recorder.build_trace(initial_configuration, final),
            last_steps=recorder.last_steps(),
            stopped=stopped,
        )

    def run_until_stable(
        self,
        program: Any,
        model: Any,
        scheduler: Any,
        adversary: Optional[Any],
        initial_configuration: Configuration,
        predicate: Any,
        max_steps: int = 100_000,
        stability_window: int = 0,
        *,
        trace_policy: str = "full",
        ring_size: Optional[int] = None,
        chunk_size: Optional[int] = None,
        materialize_final: bool = True,
    ) -> ConvergenceResult:
        # ``materialize_final`` is advisory (see the base class): this
        # backend exports no ``final_counts``, so it always materialises.
        return run_until_stable_core(
            program,
            model,
            scheduler,
            adversary,
            initial_configuration,
            predicate,
            max_steps=max_steps,
            stability_window=stability_window,
            trace_policy=trace_policy,
            ring_size=ring_size,
            chunk_size=chunk_size,
        )
