"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` file regenerates one figure or theorem of the paper
and prints the corresponding table, so the textual output of
``pytest benchmarks/bench_*.py -s`` reads like the paper's results section.
The files must be named explicitly: pytest does not collect ``bench_*``
files from ``pytest benchmarks/``.  The simulator checks describe each
run as an :class:`~repro.protocols.registry.ExperimentSpec` plus a seed,
run it through :func:`~repro.engine.experiment.run_spec` with the full
trace, and verify it with
:func:`~repro.core.verification.verify_simulation` against
``build_cached(spec).program``.  The timing numbers collected by
pytest-benchmark measure the cost of regenerating each artifact; with
``--benchmark-disable`` only the checks run, which is how CI gates them::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q --benchmark-disable
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis.reporting import format_table


def emit(title: str, headers, rows) -> None:
    """Print a titled table to stdout (shown with ``pytest -s``)."""
    print()
    print(f"== {title} ==")
    print(format_table(headers, rows))
    sys.stdout.flush()


@pytest.fixture
def table_printer():
    """Fixture exposing :func:`emit` to benchmark functions."""
    return emit
