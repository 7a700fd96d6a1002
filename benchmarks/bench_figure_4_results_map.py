"""FIG-4: regenerate the map of results (possibility / impossibility per model × assumption).

The benchmark prints the Figure 4 matrix and re-derives its empirically
checkable cells from scratch:

* every *possible* cell marked for empirical checking is validated by running
  the corresponding simulator on a small workload and verifying the
  simulation (Theorems 4.1, 4.5, 4.6 and Corollary 1);
* every *impossible* cell marked for empirical checking is validated by
  running the corresponding attack (the Lemma 1 construction for
  Theorem 3.1 cells, the NO1 single-omission attack for Theorem 3.2 cells)
  and observing the predicted safety or liveness failure.

Every positive cell is checked under **two interaction topologies**: the
complete graph (the paper's model — a uniform random scheduler) and a ring
interaction graph (:func:`repro.scheduling.graph_scheduler.ring_scheduler`).
The ``SKnO`` and ``SID`` simulators are topology-agnostic — they only
consume a stream of admissible interactions — so those possibility results
must survive the restriction to any connected graph; the ``graph (ring)``
column shows that they do.  The knowledge-of-``n`` cells are the exception,
*by construction*: the naming protocol ``Nn`` assigns ids through
same-id collisions, which assumes any two agents can eventually meet.  On
a ring it deadlocks whenever the provisional ids reach a configuration
with no two equal ids adjacent (e.g. ids ``1,2,3,1,2`` around a 5-ring:
no enabled interaction changes any state, so global fairness cannot
rescue it).  Those cells are therefore checked on the complete graph only
and report ``n/a`` in the graph column.  Negative cells are attack
replays with scripted interaction sequences, where a scheduler family
does not apply.

The assertion is that the empirical verdicts agree with the paper's map on
every checked cell, under both topologies.
"""

from __future__ import annotations

import pytest

from repro.adversary.constructions import Lemma1Construction, no1_liveness_attack
from repro.analysis.results_map import (
    Feasibility,
    KNOWLEDGE_OF_N,
    KNOWLEDGE_OF_OMISSIONS,
    INFINITE_MEMORY,
    UNIQUE_IDS,
    format_results_map,
    results_map,
)
from repro.core.verification import verify_simulation
from repro.engine.experiment import run_spec
from repro.interaction.models import get_model
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.registry import ExperimentSpec, build_cached, build_simulator
from repro.protocols.state import Configuration

MAX_STEPS = 150_000
WINDOW = 200

#: Interaction topologies every positive cell is re-checked under, by
#: registry scheduler key.
TOPOLOGIES = {"complete": "random", "ring": "ring-graph"}


def _check_simulation_possible(simulator, model, omission_bound=0, seed=0,
                               topology="complete"):
    """Run the Pairing workload (2 consumers, 3 producers) and verify it end to end.

    The adversary's omission budget equals the simulator's bound ``o``.
    """
    spec = ExperimentSpec(
        protocol="pairing", population=5, model=model, simulator=simulator,
        omission_bound=omission_bound, omissions=omission_bound,
        scheduler=TOPOLOGIES[topology])
    outcome = run_spec(spec, 0, seed, MAX_STEPS, WINDOW, "full")
    report = verify_simulation(build_cached(spec).program, outcome.trace)
    return outcome.converged and report.ok


def _skno_target(model_name, omission_bound=1):
    """The attacked ``SKnO``, as the registry builds it for ``model_name``."""
    return build_simulator("skno", PairingProtocol(), 2, omission_bound, model_name)


def _check_simulation_impossible_lemma1(omission_bound=1):
    result = Lemma1Construction(
        _skno_target("T3", omission_bound), get_model("T3"), q0="p", q1="c").execute()
    return result.safety_violated


def _check_simulation_impossible_no1(model_name):
    result = no1_liveness_attack(
        _skno_target(model_name), model_name, target_state="cs", expected_committed=1,
        initial_p_configuration=Configuration(["p", "c"]), safety_bound=1,
        max_steps=25_000)
    return result.liveness_violated or result.safety_violated


def _check_positive_on_all_topologies(simulator, model, omission_bound=0, seed=0,
                                      topologies=tuple(TOPOLOGIES)):
    """Verdicts of one positive cell per topology (``{topology: bool}``).

    ``topologies`` restricts the check for constructions that assume the
    complete interaction graph (the knowledge-of-``n`` naming phase; see
    the module docstring).
    """
    return {
        topology: _check_simulation_possible(
            simulator, model, omission_bound=omission_bound, seed=seed,
            topology=topology)
        for topology in topologies
    }


def empirical_cells():
    """Run all empirical checks and return {(model, assumption): verdict}.

    Positive cells map to ``{topology: bool}`` dicts (one verdict per
    interaction topology), negative cells to a plain bool (attacks replay
    scripted interaction sequences; topologies do not apply).
    """
    verdicts = {}

    # Positive cells: knowledge of the omission bound (Theorem 4.1 / Corollary 1).
    verdicts[("I3", KNOWLEDGE_OF_OMISSIONS)] = _check_positive_on_all_topologies(
        "skno", "I3", omission_bound=1, seed=1)
    verdicts[("I4", KNOWLEDGE_OF_OMISSIONS)] = _check_positive_on_all_topologies(
        "skno", "I4", omission_bound=1, seed=2)
    verdicts[("IT", KNOWLEDGE_OF_OMISSIONS)] = _check_positive_on_all_topologies(
        "skno", "IT", seed=3)
    verdicts[("IT", INFINITE_MEMORY)] = verdicts[("IT", KNOWLEDGE_OF_OMISSIONS)]
    verdicts[("T3", KNOWLEDGE_OF_OMISSIONS)] = _check_positive_on_all_topologies(
        "skno", "T3", omission_bound=1, seed=4)

    # Positive cells: unique IDs and knowledge of n (Theorems 4.5, 4.6).
    verdicts[("IO", UNIQUE_IDS)] = _check_positive_on_all_topologies("sid", "IO", seed=5)
    verdicts[("IT", UNIQUE_IDS)] = _check_positive_on_all_topologies("sid", "IT", seed=6)
    # Complete graph only: the Nn naming phase deadlocks on sparse
    # topologies (see the module docstring).
    verdicts[("IO", KNOWLEDGE_OF_N)] = _check_positive_on_all_topologies(
        "known-n", "IO", seed=7, topologies=("complete",))
    verdicts[("IT", KNOWLEDGE_OF_N)] = _check_positive_on_all_topologies(
        "known-n", "IT", seed=8, topologies=("complete",))

    # Negative cells: Theorem 3.1 (Lemma 1 attack) and Theorem 3.2 (NO1 attack).
    lemma1 = _check_simulation_impossible_lemma1()
    verdicts[("T3", INFINITE_MEMORY)] = lemma1
    verdicts[("I3", INFINITE_MEMORY)] = lemma1
    for model_name in ("I1", "I2", "T1"):
        broken = _check_simulation_impossible_no1(model_name)
        verdicts[(model_name, INFINITE_MEMORY)] = broken
        verdicts[(model_name, KNOWLEDGE_OF_OMISSIONS)] = broken
    return verdicts


def test_figure_4_results_map(benchmark, table_printer):
    verdicts = benchmark.pedantic(empirical_cells, rounds=1, iterations=1)
    cells = results_map()

    overrides = {}
    rows = []
    mismatches = []
    for (model, assumption), verdict in sorted(verdicts.items()):
        cell = cells[(model, assumption)]
        if cell.feasibility is Feasibility.POSSIBLE:
            agrees = all(verdict.values())
            meaning = ("simulation verified" if agrees
                       else "simulation FAILED")
            if "ring" not in verdict:
                graph = "n/a (Nn needs complete graph)"
            else:
                graph = "verified" if verdict["ring"] else "FAILED"
        elif cell.feasibility is Feasibility.IMPOSSIBLE:
            agrees = verdict
            meaning = "attack breaks simulator" if verdict else "attack FAILED to break"
            graph = "-"
        else:
            agrees = True
            meaning = "not checked"
            graph = "-"
        overrides[(model, assumption)] = cell.label() + ("+" if agrees else "!")
        rows.append([model, assumption, cell.feasibility.value, cell.source, meaning,
                     graph, "agree" if agrees else "MISMATCH"])
        if not agrees:
            mismatches.append((model, assumption))

    table_printer(
        "Figure 4 — empirical checks of the map of results",
        ["model", "assumption", "paper verdict", "source", "empirical outcome",
         "graph (ring)", "status"],
        rows,
    )
    print()
    print("Figure 4 — map of results (YES/NO/?; '*' = cell backed by an empirical check,")
    print("           '+' = the empirical check agrees with the paper):")
    print(format_results_map(overrides))

    assert not mismatches, f"empirical verdicts disagree with Figure 4: {mismatches}"
    assert len(rows) >= 15, "the benchmark must check a substantial part of the map"
