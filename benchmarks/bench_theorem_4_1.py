"""THM-4.1: SKnO simulates every TW protocol on I3/I4 given an omission bound.

The benchmark sweeps the population size ``n`` and the omission bound ``o``,
runs the exact-majority workload through ``SKnO`` under a bounded omission
adversary, verifies the simulation (Definitions 3 and 4), and reports:

* interactions until the simulated output stabilises,
* physical interactions per completed simulated two-way interaction (the
  simulation overhead — expected to grow roughly linearly with ``o + 1``),
* the maximum per-agent memory observed, against the Theta(log n |Q_P| (o+1))
  bound.
"""

from __future__ import annotations

import pytest

from repro.core.memory import max_bits_per_agent, skno_state_bound_bits
from repro.core.verification import verify_simulation
from repro.engine.experiment import run_spec
from repro.protocols.registry import ExperimentSpec, build_cached

MAX_STEPS = 400_000
WINDOW = 200


def run_skno_workload(n: int, omission_bound: int, variant: str = "I3", seed: int = 0):
    # The registry picks SKnO's variant from the model (I3 or I4).
    spec = ExperimentSpec(
        protocol="exact-majority", population=n, model=variant, simulator="skno",
        omission_bound=omission_bound, omissions=omission_bound)
    outcome = run_spec(spec, 0, seed, MAX_STEPS, WINDOW, "full")
    built = build_cached(spec)
    report = verify_simulation(built.program, outcome.trace)
    return {
        "n": n,
        "o": omission_bound,
        "variant": variant,
        "converged": outcome.converged,
        "steps": outcome.steps_to_convergence,
        "omissions": outcome.omissions,
        "pairs": report.matched_pairs,
        "overhead": (outcome.steps_executed / report.matched_pairs
                     if report.matched_pairs else float("inf")),
        "verified": report.ok,
        "memory_bits": max_bits_per_agent([outcome.final_configuration]),
        "memory_bound": skno_state_bound_bits(built.protocol, n, omission_bound),
    }


@pytest.mark.parametrize("omission_bound", [0, 1, 2])
def test_theorem_4_1_i3_omission_sweep(benchmark, table_printer, omission_bound):
    row = benchmark.pedantic(
        run_skno_workload, args=(8, omission_bound), kwargs={"seed": omission_bound},
        rounds=1, iterations=1)
    table_printer(
        f"Theorem 4.1 — SKnO on I3, n=8, o={omission_bound} (exact majority)",
        ["n", "o", "converged", "steps", "omissions", "simulated pairs",
         "interactions per pair", "verified"],
        [[row["n"], row["o"], row["converged"], row["steps"], row["omissions"],
          row["pairs"], f"{row['overhead']:.1f}", row["verified"]]],
    )
    assert row["converged"]
    assert row["verified"]
    assert row["omissions"] <= omission_bound


@pytest.mark.parametrize("n", [4, 8, 16])
def test_theorem_4_1_i3_population_sweep(benchmark, table_printer, n):
    row = benchmark.pedantic(
        run_skno_workload, args=(n, 1), kwargs={"seed": n}, rounds=1, iterations=1)
    table_printer(
        f"Theorem 4.1 — SKnO on I3, o=1, n={n} (exact majority)",
        ["n", "o", "converged", "steps", "simulated pairs", "interactions per pair",
         "memory bits/agent", "Theta bound"],
        [[row["n"], row["o"], row["converged"], row["steps"], row["pairs"],
          f"{row['overhead']:.1f}", row["memory_bits"], row["memory_bound"]]],
    )
    assert row["converged"]
    assert row["verified"]


def test_theorem_4_1_i4_variant(benchmark, table_printer):
    row = benchmark.pedantic(
        run_skno_workload, args=(8, 2), kwargs={"variant": "I4", "seed": 3},
        rounds=1, iterations=1)
    table_printer(
        "Theorem 4.1 — SKnO symmetric variant on I4, n=8, o=2 (exact majority)",
        ["n", "o", "model", "converged", "steps", "omissions", "verified"],
        [[row["n"], row["o"], row["variant"], row["converged"], row["steps"],
          row["omissions"], row["verified"]]],
    )
    assert row["converged"]
    assert row["verified"]


def test_theorem_4_1_overhead_grows_with_omission_bound(benchmark, table_printer):
    """Shape check: the per-pair interaction overhead grows with o (token runs lengthen)."""

    def sweep():
        return [run_skno_workload(6, o, seed=10 + o) for o in (0, 1, 2, 3)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "Theorem 4.1 — simulation overhead versus omission bound (n=6, exact majority)",
        ["o", "steps to stabilise", "simulated pairs", "interactions per pair",
         "memory bits/agent", "Theta bound"],
        [[row["o"], row["steps"], row["pairs"], f"{row['overhead']:.1f}",
          row["memory_bits"], row["memory_bound"]] for row in rows],
    )
    assert all(row["converged"] and row["verified"] for row in rows)
    overheads = [row["overhead"] for row in rows]
    # Each extra tolerated omission lengthens every token run by one, so the
    # cost per simulated interaction must increase monotonically (the factor
    # is roughly (o+1), we only pin the direction).
    assert overheads[0] < overheads[-1]
    bounds = [row["memory_bound"] for row in rows]
    assert bounds == sorted(bounds)
