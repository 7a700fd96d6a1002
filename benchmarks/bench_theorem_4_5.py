"""THM-4.5: SID simulates every TW protocol on IO given unique IDs.

The benchmark sweeps the population size and two workloads (exact majority
and leader election), runs them through ``SID`` on Immediate Observation,
verifies the simulation and reports the interaction overhead (physical
observations per completed simulated two-way interaction — expected to be a
small constant independent of ``n`` under a fair scheduler) and the
per-agent memory (Theta(log n), from the two stored ids).
"""

from __future__ import annotations

import pytest

from repro.core.memory import max_bits_per_agent, sid_state_bound_bits
from repro.core.verification import verify_simulation
from repro.engine.experiment import run_spec
from repro.protocols.registry import ExperimentSpec, build_cached

MAX_STEPS = 400_000
WINDOW = 200

#: Catalog protocol of each workload.
WORKLOADS = {"majority": "exact-majority", "leader": "leader-election"}


def run_sid_workload(workload: str, n: int, seed: int = 0):
    spec = ExperimentSpec(protocol=WORKLOADS[workload], population=n, model="IO",
                          simulator="sid")
    outcome = run_spec(spec, 0, seed, MAX_STEPS, WINDOW, "full")
    built = build_cached(spec)
    report = verify_simulation(built.program, outcome.trace)
    return {
        "workload": workload,
        "n": n,
        "converged": outcome.converged,
        "steps": outcome.steps_to_convergence,
        "pairs": report.matched_pairs,
        "overhead": (outcome.steps_executed / report.matched_pairs
                     if report.matched_pairs else float("inf")),
        "verified": report.ok,
        "memory_bits": max_bits_per_agent([outcome.final_configuration]),
        "memory_bound": sid_state_bound_bits(built.protocol, n),
    }


@pytest.mark.parametrize("n", [4, 8, 16])
def test_theorem_4_5_majority(benchmark, table_printer, n):
    row = benchmark.pedantic(run_sid_workload, args=("majority", n),
                             kwargs={"seed": n}, rounds=1, iterations=1)
    table_printer(
        f"Theorem 4.5 — SID on IO, exact majority, n={n}",
        ["n", "converged", "steps", "simulated pairs", "observations per pair", "verified"],
        [[row["n"], row["converged"], row["steps"], row["pairs"],
          f"{row['overhead']:.1f}", row["verified"]]],
    )
    assert row["converged"]
    assert row["verified"]


@pytest.mark.parametrize("n", [6, 12])
def test_theorem_4_5_leader_election(benchmark, table_printer, n):
    row = benchmark.pedantic(run_sid_workload, args=("leader", n),
                             kwargs={"seed": 100 + n}, rounds=1, iterations=1)
    table_printer(
        f"Theorem 4.5 — SID on IO, leader election, n={n}",
        ["n", "converged", "steps", "simulated pairs", "observations per pair", "verified"],
        [[row["n"], row["converged"], row["steps"], row["pairs"],
          f"{row['overhead']:.1f}", row["verified"]]],
    )
    assert row["converged"]
    assert row["verified"]


def test_theorem_4_5_overhead_stays_bounded(benchmark, table_printer):
    """Shape check: the per-pair observation overhead does not blow up with n."""

    def sweep():
        return [run_sid_workload("majority", n, seed=n) for n in (4, 8, 16)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "Theorem 4.5 — SID overhead and memory versus population size (exact majority)",
        ["n", "steps", "observations per pair", "memory bits/agent", "Theta(log n) bound"],
        [[row["n"], row["steps"], f"{row['overhead']:.1f}", row["memory_bits"],
          row["memory_bound"]] for row in rows],
    )
    assert all(row["converged"] and row["verified"] for row in rows)
    overheads = [row["overhead"] for row in rows]
    # Under a uniform random scheduler the number of observations needed to
    # complete one simulated interaction grows with n (the right partner must
    # be drawn), but far more slowly than n^2; we pin a generous envelope.
    assert overheads[-1] < overheads[0] * 50
