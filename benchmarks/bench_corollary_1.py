"""COR-1: with Theta(|Q_P| log n) bits per agent, every TW protocol runs on IT.

The benchmark plugs ``o = 0`` into ``SKnO`` and runs it on the non-omissive
Immediate Transmission model across population sizes, reporting convergence
and the observed per-agent memory against the Theta(|Q_P| log n) bound: the
per-agent footprint should grow (at most) logarithmically with ``n`` while
the simulation stays verified.
"""

from __future__ import annotations

import pytest

from repro.core.memory import max_bits_per_agent, skno_state_bound_bits
from repro.core.verification import verify_simulation
from repro.engine.experiment import run_spec
from repro.protocols.catalog.leader_election import LeaderElectionProtocol
from repro.protocols.registry import ExperimentSpec, build_cached

MAX_STEPS = 400_000
WINDOW = 200


def run_it_leader_election(n: int, seed: int = 0):
    spec = ExperimentSpec(protocol="leader-election", population=n, model="IT",
                          simulator="skno")
    outcome = run_spec(spec, 0, seed, MAX_STEPS, WINDOW, "full")
    built = build_cached(spec)
    report = verify_simulation(built.program, outcome.trace)
    return {
        "n": n,
        "converged": outcome.converged,
        "steps": outcome.steps_to_convergence,
        "pairs": report.matched_pairs,
        "verified": report.ok,
        "memory_bits": max_bits_per_agent([outcome.final_configuration]),
        "memory_bound": skno_state_bound_bits(built.protocol, n, 0),
    }


@pytest.mark.parametrize("n", [4, 8, 16])
def test_corollary_1_it_simulation(benchmark, table_printer, n):
    row = benchmark.pedantic(run_it_leader_election, args=(n,), kwargs={"seed": n},
                             rounds=1, iterations=1)
    table_printer(
        f"Corollary 1 — SKnO(o=0) on IT, leader election, n={n}",
        ["n", "converged", "steps", "simulated pairs", "verified",
         "memory bits/agent", "Theta(|Q| log n) bound"],
        [[row["n"], row["converged"], row["steps"], row["pairs"], row["verified"],
          row["memory_bits"], row["memory_bound"]]],
    )
    assert row["converged"]
    assert row["verified"]


def test_corollary_1_memory_growth_shape(benchmark, table_printer):
    """Per-agent memory grows sub-linearly (logarithmically) in n."""

    def sweep():
        return [run_it_leader_election(n, seed=n) for n in (4, 8, 16, 32)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "Corollary 1 — per-agent memory versus population size (IT, leader election)",
        ["n", "steps", "memory bits/agent", "Theta bound"],
        [[row["n"], row["steps"], row["memory_bits"], row["memory_bound"]] for row in rows],
    )
    assert all(row["converged"] and row["verified"] for row in rows)
    memories = [row["memory_bits"] for row in rows]
    sizes = [row["n"] for row in rows]
    # Shape check: the per-agent footprint must grow much more slowly than the
    # population itself (n grows 8x across the sweep; the footprint must not).
    assert memories[-1] <= memories[0] * (sizes[-1] / sizes[0]) / 2
    assert max(memories) < 40 * max(
        skno_state_bound_bits(LeaderElectionProtocol(), n, 0) for n in sizes
    )
