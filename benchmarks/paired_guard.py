"""Paired throughput measurement and the one record writer of every guard.

Each throughput guard in ``benchmarks/`` compares a *treatment* path with
a *control* path on the same workload and fails when the treatment's
throughput falls below ``floor`` times the control's.  Both halves go
through this module:

:func:`paired`
    runs :data:`PAIRS` control/treatment pairs, alternating which side
    runs first, and reduces them to the median per-pair ratio
    ``treatment / control`` and its interquartile spread.  Pairing puts
    both sides of one ratio under the same machine load, and the median
    ignores the odd pair a neighbour's burst lands on, so the gate
    statistic is stable where a single shot or a best-of is not.
:func:`record`
    prints the guard's headline, applies its floor, and (given a path)
    merges the guard's cell, with environment metadata, into a
    ``BENCH_*.json`` artifact.

A measurement is a zero-argument callable returning a rate (work units
per second); :func:`throughput` times the part of it that counts, so the
callable can build its engine, scheduler and initial configuration
untimed first.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Callable, Iterable, Optional, Tuple

from repro.analysis.reporting import format_table

#: Control/treatment pairs behind every guard's ratio.  Even, so each side
#: runs first equally often; no more than four, because every guard's run
#: time scales with it and the CI guard steps have a time budget
#: (docs/performance.md, "Paired guards").
PAIRS = 4

Measurement = Callable[[], float]


def throughput(work: Callable[[], float]) -> float:
    """Run ``work`` once and return the units it reports per second."""
    start = time.perf_counter()
    units = work()
    elapsed = time.perf_counter() - start
    return units / elapsed if elapsed > 0 else float("inf")


@dataclass(frozen=True)
class Paired:
    """The :data:`PAIRS` measurements of one control/treatment comparison."""

    controls: Tuple[float, ...]
    treatments: Tuple[float, ...]

    @property
    def ratios(self) -> Tuple[float, ...]:
        return tuple(t / c for c, t in zip(self.controls, self.treatments))

    @property
    def ratio(self) -> float:
        """Median per-pair treatment/control ratio: the gate statistic."""
        return statistics.median(self.ratios)

    @property
    def iqr(self) -> float:
        """Interquartile range of the per-pair ratios (inclusive quartiles)."""
        if len(self.ratios) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.ratios, n=4, method="inclusive")
        return q3 - q1

    @property
    def control(self) -> float:
        return statistics.median(self.controls)

    @property
    def treatment(self) -> float:
        return statistics.median(self.treatments)


def paired(control: Measurement, treatment: Measurement,
           guarded: bool = True) -> Paired:
    """Measure :data:`PAIRS` pairs; even pairs run the control first, odd
    pairs the treatment, so a drift in machine speed hits both sides alike.

    A table row that feeds no guard (``guarded=False``) is one pair: it
    gives context, not a gate, and keeps the benchmark's run time down.
    """
    pairs = PAIRS if guarded else 1
    controls, treatments = [], []
    for index in range(pairs):
        if index % 2 == 0:
            controls.append(control())
            treatments.append(treatment())
        else:
            treatments.append(treatment())
            controls.append(control())
    return Paired(tuple(controls), tuple(treatments))


def environment() -> dict:
    """What a guard's numbers were measured on."""
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "cpus": os.cpu_count()}


def record(key: str, headline: str, result: Paired, floor: float,
           cell: dict, json_path: Optional[str] = None) -> bool:
    """Print the guard's headline, merge its cell into ``json_path`` (if
    given) under ``key``, and return whether the median ratio holds the
    floor (printing ``FAIL`` to stderr when it does not).

    The JSON merge is read-update-write, so separate invocations (one per
    adversary class, one per benchmark mode) accumulate into one artifact;
    a corrupt or missing file starts over rather than failing the guard.
    """
    held = result.ratio >= floor
    print(f"headline: {headline}: {result.ratio:.3f}x, median of "
          f"{len(result.ratios)} pairs (IQR {result.iqr:.3f}); floor {floor}x")
    if not held:
        print(f"FAIL: {headline}: median {result.ratio:.3f}x is below the "
              f"{floor}x floor", file=sys.stderr)
    if json_path:
        data: dict = {}
        try:
            with open(json_path, encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                data = loaded
        except (OSError, ValueError):
            pass
        data[key] = {
            **cell,
            "control_rate": round(result.control, 1),
            "treatment_rate": round(result.treatment, 1),
            "ratio": round(result.ratio, 4),
            "iqr": round(result.iqr, 4),
            "pairs": len(result.ratios),
            "floor": floor,
            "env": environment(),
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path} [{key}]")
    return held


def verdict(guards: list, json_path: Optional[str] = None) -> int:
    """:func:`record` every ``(key, headline, result, floor, cell)`` guard,
    all of them even after a miss; exit status 1 on any miss."""
    if guards:
        print()
    held = [record(*guard, json_path=json_path) for guard in guards]
    return 0 if all(held) else 1


def gate(cases: Iterable, headers: list, json_path: Optional[str] = None) -> int:
    """Measure a comparison table, print it, and :func:`verdict` its guards.

    ``cases`` yields ``(row, control, treatment, guard)``: the row's leading
    cells, the two measurements, and ``None`` or the ``(key, headline,
    floor, cell)`` of the guard the row carries.  ``headers`` name the
    leading cells, then the control rate, the treatment rate and the ratio.
    """
    rows, guards = [], []
    for row, control, treatment, guard in cases:
        result = paired(control, treatment, guarded=guard is not None)
        rows.append([*row, f"{result.control:,.0f}", f"{result.treatment:,.0f}",
                     f"{result.ratio:.2f}x"])
        if guard is not None:
            key, headline, floor, cell = guard
            guards.append((key, headline, result, floor, cell))
    print(format_table(headers, rows))
    return verdict(guards, json_path)
