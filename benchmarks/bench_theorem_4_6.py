"""THM-4.6: knowledge of n suffices on IO (naming protocol Nn + SID).

The benchmark runs the composed simulator across population sizes and
reports, per run: how many interactions the naming phase takes (until every
agent holds a unique id in 1..n), how many more the simulated workload needs
to stabilise, and whether the end-to-end trace verifies as a simulation.
"""

from __future__ import annotations

import pytest

from repro.core.naming import KnownSizeSimulator
from repro.core.verification import verify_simulation
from repro.engine.experiment import run_spec
from repro.protocols.registry import ExperimentSpec, build_cached

MAX_STEPS = 500_000
WINDOW = 200


def run_known_size_workload(n: int, seed: int = 0):
    spec = ExperimentSpec(protocol="exact-majority", population=n, model="IO",
                          simulator="known-n")
    # The full trace feeds both the verification and the naming-phase scan.
    outcome = run_spec(spec, 0, seed, MAX_STEPS, WINDOW, "full")
    report = verify_simulation(build_cached(spec).program, outcome.trace)

    naming_steps = None
    for index, configuration in enumerate(outcome.trace.configurations()):
        if KnownSizeSimulator.naming_complete(configuration):
            naming_steps = index
            break
    ids = KnownSizeSimulator.assigned_ids(outcome.trace.final_configuration)
    return {
        "n": n,
        "converged": outcome.converged,
        "naming_steps": naming_steps,
        "total_steps": outcome.steps_to_convergence,
        "pairs": report.matched_pairs,
        "verified": report.ok,
        "ids_ok": sorted(ids) == list(range(1, n + 1)),
    }


@pytest.mark.parametrize("n", [4, 8, 12])
def test_theorem_4_6_known_size(benchmark, table_printer, n):
    row = benchmark.pedantic(run_known_size_workload, args=(n,), kwargs={"seed": n},
                             rounds=1, iterations=1)
    table_printer(
        f"Theorem 4.6 — Nn + SID on IO, exact majority, n={n}",
        ["n", "converged", "naming interactions", "total interactions",
         "simulated pairs", "ids = 1..n", "verified"],
        [[row["n"], row["converged"], row["naming_steps"], row["total_steps"],
          row["pairs"], row["ids_ok"], row["verified"]]],
    )
    assert row["converged"]
    assert row["verified"]
    assert row["ids_ok"]
    assert row["naming_steps"] is not None


def test_theorem_4_6_naming_cost_grows_with_n(benchmark, table_printer):
    """Shape check: naming needs more interactions for larger populations."""

    def sweep():
        return [run_known_size_workload(n, seed=7 * n) for n in (4, 8, 16)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "Theorem 4.6 — naming-phase cost versus population size",
        ["n", "naming interactions", "total interactions", "verified"],
        [[row["n"], row["naming_steps"], row["total_steps"], row["verified"]] for row in rows],
    )
    assert all(row["converged"] and row["verified"] and row["ids_ok"] for row in rows)
    naming = [row["naming_steps"] for row in rows]
    assert naming[0] < naming[-1]
