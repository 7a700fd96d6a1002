"""OVH-1: simulation overhead across all simulators (derived comparison).

The paper proves feasibility; this benchmark quantifies the price, comparing
all simulators on the same workload and population:

* FTT (Definition 7): the minimum number of interactions needed to simulate
  one two-way interaction in a two-agent system;
* measured interactions per completed simulated interaction under a fair
  random scheduler;
* per-agent memory.

Expected shape: the TW baseline costs exactly 1 interaction per interaction;
``SKnO`` costs a factor growing with ``o + 1``; ``SID`` and ``Nn + SID`` pay a
constant-factor locking overhead plus (for ``Nn``) a one-off naming phase.
"""

from __future__ import annotations

import pytest

from repro.adversary.ftt import fastest_transition_time
from repro.core.memory import max_bits_per_agent
from repro.core.naming import KnownSizeSimulator
from repro.core.sid import SIDSimulator
from repro.core.verification import verify_simulation
from repro.engine.experiment import run_spec
from repro.protocols.registry import ExperimentSpec, build_cached
from repro.protocols.state import Configuration

N = 8
MAX_STEPS = 400_000
WINDOW = 200

#: ``(row name, simulator, model, omission bound)``; no run injects omissions.
SIMULATORS = [
    ("TW baseline", "none", "TW", 0),
    ("SKnO o=0 (IT)", "skno", "IT", 0),
    ("SKnO o=1 (I3)", "skno", "I3", 1),
    ("SKnO o=2 (I3)", "skno", "I3", 2),
    ("SID (IO)", "sid", "IO", 0),
    ("Nn+SID (IO)", "known-n", "IO", 0),
]


def measure(name, simulator, model, omission_bound, seed=0):
    spec = ExperimentSpec(protocol="exact-majority", population=N, model=model,
                          simulator=simulator, omission_bound=omission_bound)
    outcome = run_spec(spec, 0, seed, MAX_STEPS, WINDOW, "full")
    built = build_cached(spec)
    program = built.program
    report = verify_simulation(program, outcome.trace)

    if isinstance(program, KnownSizeSimulator):
        ftt = None  # the naming phase depends on n, FTT is not defined the same way
    else:
        ids = ({"agent_id": 0}, {"agent_id": 1}) if isinstance(program, SIDSimulator) \
            else ({}, {})
        two_agent_config = Configuration([program.initial_state("A", **ids[0]),
                                          program.initial_state("B", **ids[1])])
        ftt = fastest_transition_time(program, built.model, two_agent_config).ftt

    return {
        "name": name,
        "model": built.model.name,
        "converged": outcome.converged,
        "steps": outcome.steps_to_convergence,
        "pairs": report.matched_pairs,
        "overhead": (outcome.steps_executed / report.matched_pairs
                     if report.matched_pairs else float("inf")),
        "ftt": ftt,
        "verified": report.ok,
        "memory": max_bits_per_agent([outcome.final_configuration]),
    }


def full_comparison():
    return [measure(*row, seed=index) for index, row in enumerate(SIMULATORS)]


def test_simulation_overhead_comparison(benchmark, table_printer):
    rows = benchmark.pedantic(full_comparison, rounds=1, iterations=1)
    table_printer(
        f"Simulation overhead — exact majority, n={N}, all simulators",
        ["simulator", "model", "converged", "steps", "simulated pairs",
         "interactions per pair", "FTT", "memory bits/agent", "verified"],
        [[row["name"], row["model"], row["converged"], row["steps"], row["pairs"],
          f"{row['overhead']:.1f}", row["ftt"] if row["ftt"] is not None else "-",
          row["memory"], row["verified"]] for row in rows],
    )
    by_name = {row["name"]: row for row in rows}
    assert all(row["converged"] and row["verified"] for row in rows)

    # The baseline is exactly one interaction per simulated interaction.
    assert by_name["TW baseline"]["overhead"] == pytest.approx(1.0)
    assert by_name["TW baseline"]["ftt"] == 1

    # FTT shape: SKnO needs 2(o+1) interactions, SID needs 3 observations.
    assert by_name["SKnO o=0 (IT)"]["ftt"] == 2
    assert by_name["SKnO o=1 (I3)"]["ftt"] == 4
    assert by_name["SKnO o=2 (I3)"]["ftt"] == 6
    assert by_name["SID (IO)"]["ftt"] == 3

    # Every simulator pays a real overhead over the baseline.
    for name, row in by_name.items():
        if name != "TW baseline":
            assert row["overhead"] > 1.5

    # SKnO's overhead grows with the omission bound.
    assert (by_name["SKnO o=0 (IT)"]["overhead"]
            < by_name["SKnO o=2 (I3)"]["overhead"])
