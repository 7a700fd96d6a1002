"""Unit tests for the trivial TW baseline simulator."""

import pytest

from repro.core.trivial import TrivialTwoWaySimulator
from repro.core.verification import verify_simulation
from repro.engine.engine import SimulationEngine
from repro.interaction.models import TW
from repro.protocols.catalog.majority import ExactMajorityProtocol
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.state import Configuration
from repro.scheduling.runs import Run
from repro.scheduling.scheduler import RandomScheduler


@pytest.fixture
def protocol():
    return PairingProtocol()


@pytest.fixture
def simulator(protocol):
    return TrivialTwoWaySimulator(protocol)


class TestBasics:
    def test_states_are_protocol_states(self, simulator):
        assert simulator.initial_state("c") == "c"
        assert simulator.project("p") == "p"

    def test_initial_state_validation(self, simulator):
        with pytest.raises(Exception):
            simulator.initial_state("bogus")

    def test_fs_fr_match_protocol(self, simulator, protocol):
        assert simulator.fs("c", "p") == protocol.delta("c", "p")[0]
        assert simulator.fr("c", "p") == protocol.delta("c", "p")[1]

    def test_compatible_models(self, simulator):
        assert simulator.compatible_models == ("TW",)


class TestEventsAndMatching:
    def test_every_interaction_is_one_matched_pair(self, simulator):
        config = simulator.initial_configuration(Configuration(["c", "p", "c"]))
        engine = SimulationEngine(simulator, TW, scheduler=None)
        trace = engine.replay(config, Run.from_pairs([(0, 1), (2, 1), (0, 2)]))
        matching = simulator.extract_matching(trace)
        assert len(matching.events) == 6
        assert len(matching.pairs) == 3
        assert matching.invalid_pairs(simulator.protocol) == []
        assert matching.unmatched == []

    def test_partner_lock_matching_pairs_each_step(self, simulator):
        config = simulator.initial_configuration(Configuration(["c", "p", "c"]))
        engine = SimulationEngine(simulator, TW, RandomScheduler(3, seed=9))
        trace = engine.run(config, max_steps=500)
        pairs = [step.interaction.pair for step in trace.steps]
        assert len(pairs) == 500
        assert any(a == b for a, b in zip(pairs, pairs[1:])), "agents must repeat"
        matching = simulator.extract_matching(trace)
        assert matching.pairs == [(index, index + 1) for index in range(0, 1_000, 2)]
        assert matching.unmatched == []

    def test_verification_ok_on_random_run(self):
        protocol = ExactMajorityProtocol()
        simulator = TrivialTwoWaySimulator(protocol)
        config = simulator.initial_configuration(protocol.initial_configuration(4, 3))
        engine = SimulationEngine(simulator, TW, RandomScheduler(7, seed=4))
        trace = engine.run(config, max_steps=500)
        report = verify_simulation(simulator, trace)
        assert report.ok
        assert report.matched_pairs == 500
        assert report.unmatched_changed_events == 0

    def test_derived_execution_equals_real_execution(self, simulator):
        """For the trivial simulator the derived run IS the physical run."""
        config = simulator.initial_configuration(Configuration(["c", "p"]))
        engine = SimulationEngine(simulator, TW, scheduler=None)
        trace = engine.replay(config, Run.from_pairs([(0, 1)]))
        report = verify_simulation(simulator, trace)
        assert report.ok
        assert report.final_simulated_configuration == trace.final_configuration
