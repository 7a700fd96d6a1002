"""THM-3.2: a single omission (NO1 adversary) breaks simulation in T1 / I1 / I2.

The benchmark runs ``SKnO(o=1)`` — a simulator that *does* tolerate one
omission in the models it was designed for — on the weak models ``I1``,
``I2`` and ``T1``, injecting exactly one omission while the first token is
in flight, and then letting a long fair schedule run.  Per Theorem 3.2 the
simulation cannot recover: no agent ever commits the simulated Pairing
interaction (liveness failure).  The control rows run the *same* attack on
``I3``/``I4``, where the detection capability lets the simulator recover.
"""

from __future__ import annotations

import pytest

from repro.adversary.constructions import no1_liveness_attack
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.registry import build_simulator
from repro.protocols.state import Configuration

MAX_STEPS = 30_000


def run_no1(model_name: str):
    # The registry picks SKnO's I3/I4 variant and wraps it for T1.
    program = build_simulator("skno", PairingProtocol(), 2, 1, model_name)
    return no1_liveness_attack(
        program,
        model_name,
        target_state="cs",
        expected_committed=1,
        initial_p_configuration=Configuration(["p", "c"]),
        safety_bound=1,
        max_steps=MAX_STEPS,
    )


def no1_sweep(model_names):
    return [(name, run_no1(name)) for name in model_names]


def test_theorem_3_2_weak_models_fail(benchmark, table_printer):
    results = benchmark.pedantic(
        no1_sweep, args=(["I1", "I2", "T1", "I3", "I4"],), rounds=1, iterations=1)
    rows = []
    for name, result in results:
        if result.safety_violated:
            outcome = "safety violated"
        elif result.liveness_violated:
            outcome = "liveness violated (stalled)"
        else:
            outcome = "simulation survived"
        rows.append([
            name,
            result.omissions_used,
            result.steps_executed,
            f"{result.committed}/{result.expected_committed}",
            outcome,
        ])
    table_printer(
        "Theorem 3.2 — one omission (NO1) in the weak models vs the strong models",
        ["model", "omissions", "fair interactions afterwards", "committed", "outcome"],
        rows,
    )
    outcomes = dict(results)
    # The paper's dichotomy: I1/I2 (and T1) cannot absorb even one omission...
    for weak in ("I1", "I2", "T1"):
        assert outcomes[weak].liveness_violated or outcomes[weak].safety_violated
    # ...while I3/I4 — with an omission budget of one — shrug it off.
    for strong in ("I3", "I4"):
        assert not outcomes[strong].liveness_violated
        assert not outcomes[strong].safety_violated


@pytest.mark.parametrize("model_name", ["I1", "I2"])
def test_theorem_3_2_individual_models(benchmark, model_name):
    result = benchmark.pedantic(run_no1, args=(model_name,), rounds=1, iterations=1)
    assert result.omissions_used == 1
    assert result.liveness_violated or result.safety_violated
