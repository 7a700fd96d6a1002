"""Unit and integration tests for interaction-graph-restricted scheduling."""

import os
import subprocess
import sys

import networkx as nx
import pytest

import repro
from repro.core.sid import SIDSimulator
from repro.core.skno import SKnOSimulator
from repro.core.trivial import TrivialTwoWaySimulator
from repro.core.verification import verify_simulation
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.interaction.models import IO, TW, get_model
from repro.protocols.catalog.leader_election import LEADER, LeaderElectionProtocol
from repro.protocols.catalog.epidemic import INFORMED, EpidemicProtocol
from repro.protocols.state import Configuration
from repro.scheduling.graph_scheduler import (
    GraphScheduler,
    InteractionGraphError,
    Topology,
    complete_graph_scheduler,
    random_graph_scheduler,
    ring_scheduler,
    star_scheduler,
    validate_interaction_graph,
)


class TestValidation:
    def test_valid_graph(self):
        validate_interaction_graph(nx.cycle_graph(4), 4)

    def test_too_few_agents(self):
        with pytest.raises(InteractionGraphError):
            validate_interaction_graph(nx.empty_graph(1), 1)

    def test_wrong_node_labels(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(InteractionGraphError):
            validate_interaction_graph(graph, 2)

    def test_self_loop_rejected(self):
        graph = nx.complete_graph(3)
        graph.add_edge(1, 1)
        with pytest.raises(InteractionGraphError):
            validate_interaction_graph(graph, 3)

    def test_disconnected_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        with pytest.raises(InteractionGraphError):
            validate_interaction_graph(graph, 4)

    def test_edgeless_rejected(self):
        with pytest.raises(InteractionGraphError):
            validate_interaction_graph(nx.empty_graph(3), 3)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 3)],          # an edge leaves the nodes 0..2
        [(0, 1), (1, 2), (2, 2)],  # a self-loop
        [(0, 1)],                  # node 2 is unreachable
        [],                        # no edge at all
    ])
    def test_topology_defects_rejected(self, edges):
        with pytest.raises(InteractionGraphError):
            validate_interaction_graph(Topology(range(3), edges), 3)


class TestBuiltInTopologiesMatchNetworkx:
    """The built-in topologies list their edges in networkx's order, so a
    seeded scheduler draws exactly what it drew on the networkx graph."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_edges_and_draws(self, n):
        for built_in, graph in ((ring_scheduler, nx.cycle_graph(n)),
                                (complete_graph_scheduler, nx.complete_graph(n)),
                                (star_scheduler, nx.star_graph(n - 1))):
            ours = built_in(n, seed=n)
            reference = GraphScheduler(graph, seed=n)
            assert ours._edges == reference._edges
            assert ours.next_columns(0, 1000) == reference.next_columns(0, 1000)


class TestNetworkxStaysUnloaded:
    """Only a caller-built graph, the Erdős–Rényi draw and the Figure 1
    digraph load networkx.  A fresh interpreter is the only reliable
    observer (this process has it imported already)."""

    @staticmethod
    def run_python(script):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert completed.returncode == 0, completed.stderr
        return completed.stdout

    def test_importing_repro_does_not_import_networkx(self):
        self.run_python(
            "import sys; "
            "import repro, repro.cli, repro.campaign, repro.protocols.registry; "
            "assert 'networkx' not in sys.modules")

    def test_the_figure4_sweep_runs_without_networkx(self, tmp_path):
        # A None entry makes every import of networkx raise ImportError, so
        # all 12 cells, the ring ones included, must plan and run without it.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = os.path.join(root, "examples", "figure4_omission_sweep.json")
        store = str(tmp_path / "sweep.results.jsonl")
        report = self.run_python(
            "import sys; sys.modules['networkx'] = None; "
            "from repro.cli import main; "
            f"assert main(['campaign', 'run', {spec!r}, '--store', {store!r}, "
            "'--quiet']) == 0; "
            f"assert main(['campaign', 'report', {spec!r}, '--store', {store!r}]) == 0")
        assert "cells: 12/12 done, 5 n/a" in report
        assert "| ring                 | YES (4/4) | YES (4/4) | YES (4/4) |" in report


class TestGraphScheduler:
    def test_only_graph_edges_are_scheduled(self):
        scheduler = ring_scheduler(5, seed=0)
        ring = {(i, (i + 1) % 5) for i in range(5)}
        allowed = ring | {(r, s) for s, r in ring}
        for step in range(500):
            interaction = scheduler.next_interaction(step)
            assert interaction.pair in allowed

    def test_star_centre_participates_in_everything(self):
        scheduler = star_scheduler(5, seed=1)
        for step in range(200):
            interaction = scheduler.next_interaction(step)
            assert 0 in (interaction.starter, interaction.reactor)

    def test_complete_graph_covers_all_pairs(self):
        scheduler = complete_graph_scheduler(4, seed=2)
        seen = {scheduler.next_interaction(step).pair for step in range(2000)}
        assert seen == {(s, r) for s in range(4) for r in range(4) if s != r}

    def test_deterministic_with_seed_and_reset(self):
        scheduler = GraphScheduler(nx.cycle_graph(5), seed=7)
        first = [scheduler.next_interaction(i) for i in range(50)]
        scheduler.reset()
        second = [scheduler.next_interaction(i) for i in range(50)]
        assert first == second

    def test_random_graph_is_connected(self):
        scheduler = random_graph_scheduler(8, edge_probability=0.4, seed=3)
        assert nx.is_connected(scheduler.graph)

    def test_random_graph_invalid_probability(self):
        with pytest.raises(InteractionGraphError):
            random_graph_scheduler(5, edge_probability=0.0)

    def test_both_orientations_occur(self):
        scheduler = ring_scheduler(3, seed=5)
        pairs = {scheduler.next_interaction(step).pair for step in range(300)}
        assert (0, 1) in pairs and (1, 0) in pairs


class TestProtocolsOnRestrictedTopologies:
    def test_epidemic_spreads_on_a_ring(self):
        protocol = EpidemicProtocol()
        program = TrivialTwoWaySimulator(protocol)
        n = 8
        engine = SimulationEngine(program, TW, ring_scheduler(n, seed=1))
        trace = engine.run(
            EpidemicProtocol.initial_configuration(1, n - 1),
            max_steps=10_000,
            stop_condition=EpidemicProtocol.all_informed,
        )
        assert EpidemicProtocol.all_informed(trace.final_configuration)

    def test_epidemic_on_a_star(self):
        """The hub relays the rumour to every spoke (any connected graph suffices)."""
        protocol = EpidemicProtocol()
        program = TrivialTwoWaySimulator(protocol)
        n = 6
        engine = SimulationEngine(program, TW, star_scheduler(n, seed=2))
        result = run_until_stable(
            engine, EpidemicProtocol.initial_configuration(1, n - 1),
            predicate=EpidemicProtocol.all_informed,
            max_steps=20_000,
        )
        assert result.converged

    def test_leader_election_fails_on_a_star(self):
        """Restricted topologies genuinely change computability: with rule
        (L, L) -> (F, L), spoke leaders can never meet each other, so once the
        hub is demoted the population is stuck with several leaders."""
        protocol = LeaderElectionProtocol()
        program = TrivialTwoWaySimulator(protocol)
        n = 6
        # Deterministic stuck configuration: the hub is already a follower.
        config = Configuration(["F"] + [LEADER] * (n - 1))
        engine = SimulationEngine(program, TW, star_scheduler(n, seed=2))
        trace = engine.run(config, max_steps=5_000)
        assert trace.final_configuration.count(LEADER) == n - 1

    def test_skno_simulation_on_a_ring(self):
        """SKnO is topology-agnostic: it still simulates correctly on a sparse graph."""
        protocol = LeaderElectionProtocol()
        simulator = SKnOSimulator(protocol, omission_bound=0)
        n = 6
        config = simulator.initial_configuration(protocol.initial_configuration(n))
        engine = SimulationEngine(simulator, get_model("IT"), ring_scheduler(n, seed=3))
        result = run_until_stable(
            engine, config,
            predicate=lambda c: sum(1 for s in c if simulator.project(s) == LEADER) == 1,
            max_steps=150_000, stability_window=200,
        )
        report = verify_simulation(simulator, result.trace)
        assert result.converged
        assert report.ok, report.errors

    def test_sid_simulation_on_a_star(self):
        """SID simulates the two-way epidemic on a star: the hub relays everything."""
        protocol = EpidemicProtocol()
        simulator = SIDSimulator(protocol)
        n = 6
        config = simulator.initial_configuration(
            EpidemicProtocol.initial_configuration(1, n - 1))
        engine = SimulationEngine(simulator, IO, star_scheduler(n, seed=4))
        result = run_until_stable(
            engine, config,
            predicate=lambda c: all(simulator.project(s) == INFORMED for s in c),
            max_steps=200_000, stability_window=200,
        )
        report = verify_simulation(simulator, result.trace)
        assert result.converged
        assert report.ok, report.errors

    def test_sparse_topology_is_slower_than_complete(self):
        """Shape check: restricting the topology slows dissemination down."""
        protocol = EpidemicProtocol()
        program = TrivialTwoWaySimulator(protocol)
        n = 10

        def steps_to_full(scheduler):
            engine = SimulationEngine(program, TW, scheduler)
            trace = engine.run(
                EpidemicProtocol.initial_configuration(1, n - 1),
                max_steps=50_000,
                stop_condition=EpidemicProtocol.all_informed,
            )
            assert EpidemicProtocol.all_informed(trace.final_configuration)
            return len(trace)

        complete_steps = [steps_to_full(complete_graph_scheduler(n, seed=s)) for s in range(5)]
        ring_steps = [steps_to_full(ring_scheduler(n, seed=s)) for s in range(5)]
        assert sum(ring_steps) > sum(complete_steps)
