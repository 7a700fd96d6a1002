"""Integration tests: every catalog protocol stabilises correctly under plain TW.

These runs establish the ground truth that the simulators are compared
against, and exercise the engine + convergence machinery on all workloads.
"""

import pytest

from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.experiment import run_spec
from repro.interaction.models import TW
from repro.problems.leader_election import LeaderElectionProblem
from repro.problems.majority import MajorityProblem
from repro.problems.pairing import PairingProblem
from repro.problems.threshold import ThresholdProblem
from repro.protocols.catalog import CATALOG
from repro.protocols.catalog.averaging import AveragingProtocol
from repro.protocols.catalog.counting import ModuloCountingProtocol, ThresholdProtocol
from repro.protocols.catalog.epidemic import EpidemicProtocol
from repro.protocols.catalog.leader_election import LeaderElectionProtocol
from repro.protocols.catalog.majority import ApproximateMajorityProtocol, ExactMajorityProtocol
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.catalog.predicates import AndProtocol, OrProtocol, ParityProtocol
from repro.protocols.registry import ExperimentSpec
from repro.protocols.state import Configuration
from repro.scheduling.scheduler import RandomScheduler

MAX_STEPS = 60_000
WINDOW = 200


def converge(protocol, initial, predicate, seed=0):
    program = TrivialTwoWaySimulator(protocol)
    engine = SimulationEngine(program, TW, RandomScheduler(len(initial), seed=seed))
    return run_until_stable(engine, initial, predicate, max_steps=MAX_STEPS,
                            stability_window=WINDOW)


class TestCatalogUnderTW:
    def test_pairing(self):
        problem = PairingProblem(consumers=4, producers=6)
        result = converge(PairingProtocol(), problem.initial_configuration(),
                          problem.is_live, seed=1)
        assert result.converged
        assert problem.check(result.trace.configurations()).ok

    def test_leader_election(self):
        problem = LeaderElectionProblem(8)
        result = converge(LeaderElectionProtocol(), problem.initial_configuration(),
                          problem.is_live, seed=2)
        assert result.converged
        assert problem.check(result.trace.configurations()).ok

    def test_exact_majority(self):
        problem = MajorityProblem(6, 4)
        result = converge(problem.protocol, problem.initial_configuration(),
                          problem.is_live, seed=3)
        assert result.converged
        assert problem.check(result.trace.configurations()).ok

    def test_approximate_majority_reaches_consensus(self):
        protocol = ApproximateMajorityProtocol()
        initial = protocol.initial_configuration(7, 2)
        result = converge(protocol, initial, protocol.is_consensus, seed=4)
        assert result.converged
        assert protocol.consensus_value(result.final_configuration) == "A"

    @pytest.mark.parametrize("ones,expected", [(4, True), (2, False)])
    def test_threshold(self, ones, expected):
        protocol = ThresholdProtocol(threshold=3)
        problem = ThresholdProblem(ones=ones, zeros=4, threshold=3, protocol=protocol)
        result = converge(protocol, problem.initial_configuration(), problem.is_live,
                          seed=5 + ones)
        assert result.converged
        assert problem.check(result.trace.configurations()).ok

    @pytest.mark.parametrize("ones,zeros", [(3, 3), (4, 2)])
    def test_modulo_counting(self, ones, zeros):
        protocol = ModuloCountingProtocol(modulus=3, target=0)
        expected = protocol.expected_output(ones)
        initial = protocol.initial_configuration(ones, zeros)
        predicate = lambda c: all(protocol.output(s) == expected for s in c)
        result = converge(protocol, initial, predicate, seed=6 + ones)
        assert result.converged

    @pytest.mark.parametrize("ones,zeros", [(3, 4), (2, 4)])
    def test_parity(self, ones, zeros):
        protocol = ParityProtocol()
        expected = protocol.expected_output(ones)
        initial = protocol.initial_configuration(ones, zeros)
        predicate = lambda c: all(protocol.output(s) == expected for s in c)
        result = converge(protocol, initial, predicate, seed=7 + ones)
        assert result.converged

    def test_or_and(self):
        or_protocol = OrProtocol()
        result = converge(or_protocol, or_protocol.initial_configuration(1, 6),
                          lambda c: all(s == 1 for s in c), seed=8)
        assert result.converged

        and_protocol = AndProtocol()
        result = converge(and_protocol, and_protocol.initial_configuration(5, 1),
                          lambda c: all(s == 0 for s in c), seed=9)
        assert result.converged

    def test_averaging_balances(self):
        protocol = AveragingProtocol(max_value=8)
        initial = Configuration([8, 0, 4, 2, 6, 0])
        result = converge(protocol, initial, AveragingProtocol.is_balanced, seed=10)
        assert result.converged
        assert AveragingProtocol.total(result.final_configuration) == 20

    def test_epidemic_informs_everyone(self):
        protocol = EpidemicProtocol()
        initial = EpidemicProtocol.initial_configuration(1, 7)
        result = converge(protocol, initial, EpidemicProtocol.all_informed, seed=11)
        assert result.converged


class TestRegistryDefaultsUnderTW:
    """``repro run``'s defaults: the registry's initial configuration and
    stable-output predicate for each catalog protocol meet under plain TW."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_default_run_reaches_the_stable_output(self, name):
        spec = ExperimentSpec(protocol=name, population=8)
        result = run_spec(spec, run_index=0, base_seed=12, max_steps=MAX_STEPS,
                          stability_window=WINDOW, trace_policy="counts-only")
        assert result.converged
        assert len(result.final_configuration) == 8
