"""THM-3.1 / THM-3.3: the Lemma 1 attack (impossibility under omissions).

For each omission bound ``o`` the benchmark builds the Lemma 1 run ``I*``
against ``SKnO(o)`` (presented to the two-way omissive model ``T3`` through
the one-way adapter), executes it, and reports:

* the simulator's FTT (= the number of omissions the attack needs),
* the number of agents that transitioned into the Pairing problem's critical
  state versus the number of producers (the safety bound),
* whether safety was violated.

The expected shape — and what the assertions pin down — is the paper's
claim: FTT omissions always suffice, so every row is a safety violation,
regardless of how large the simulator's announced omission bound is.  The
same data supports Theorem 3.3: since the attack works for every simulator
with FTT >= 2, no gracefully degrading simulator has a threshold above 1.
"""

from __future__ import annotations

import pytest

from repro.adversary.constructions import Lemma1Construction
from repro.interaction.models import get_model
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.registry import build_simulator


def run_attack(omission_bound: int):
    # The registry wraps the one-way SKnO for the two-way model T3.
    simulator = build_simulator("skno", PairingProtocol(), 2, omission_bound, "T3")
    construction = Lemma1Construction(simulator, get_model("T3"), q0="p", q1="c")
    return construction.execute()


def attack_sweep(bounds):
    results = []
    for omission_bound in bounds:
        result = run_attack(omission_bound)
        results.append((omission_bound, result))
    return results


@pytest.mark.parametrize("omission_bound", [1, 2, 3])
def test_lemma_1_attack_single(benchmark, table_printer, omission_bound):
    result = benchmark.pedantic(run_attack, args=(omission_bound,), rounds=1, iterations=1)
    table_printer(
        f"Theorem 3.1 — Lemma 1 attack against SKnO(o={omission_bound}) in T3",
        ["simulator bound o", "FTT", "omissions used", "population",
         "critical transitions", "safety bound", "violated"],
        [[omission_bound, result.ftt, result.omissions_used, result.population,
          result.q1_to_q1_prime_transitions, result.safety_bound,
          "YES" if result.safety_violated else "no"]],
    )
    # Shape of the theorem: the attack needs exactly FTT = 2(o+1) omissions
    # and always breaks safety by at least one extra critical consumer.
    assert result.ftt == 2 * (omission_bound + 1)
    assert result.omissions_used == result.ftt
    assert result.safety_violated
    assert result.q1_to_q1_prime_transitions > result.safety_bound


def test_lemma_1_attack_sweep(benchmark, table_printer):
    """Theorem 3.3: the safety threshold cannot exceed one omission."""
    results = benchmark.pedantic(attack_sweep, args=([1, 2, 3, 4],), rounds=1, iterations=1)
    rows = []
    for omission_bound, result in results:
        rows.append([
            omission_bound,
            result.ftt,
            result.omissions_used,
            result.q1_to_q1_prime_transitions,
            result.safety_bound,
            "YES" if result.safety_violated else "no",
        ])
    table_printer(
        "Theorem 3.3 — graceful degradation sweep (every simulator is fooled by FTT omissions)",
        ["announced bound o", "FTT", "omissions used", "critical transitions",
         "safety bound", "violated"],
        rows,
    )
    assert all(result.safety_violated for _, result in results)
    # The cost of the attack grows linearly with the announced bound: the
    # simulator can always be broken, only more slowly.
    ftts = [result.ftt for _, result in results]
    assert ftts == sorted(ftts)
