"""Unit tests for the one-way <-> two-way program adapters."""

import pytest

from repro.core.skno import JokerToken, SKnOSimulator
from repro.core.trivial import TrivialTwoWaySimulator
from repro.core.verification import verify_simulation
from repro.engine.experiment import run_spec
from repro.interaction.adapters import (
    NaiveOneWayProjection,
    OneWayAsTwoWay,
    one_way_as_two_way,
    two_way_as_one_way_naive,
)
from repro.interaction.models import ALL_MODELS, IO, IT, T3, TW, get_model
from repro.interaction.omissions import FULL_OMISSION, NO_OMISSION
from repro.protocols.catalog.epidemic import INFORMED, SUSCEPTIBLE, OneWayEpidemicProtocol
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.registry import ExperimentSpec, build_cached, build_simulator

SIMULATOR_KEYS = ("none", "skno", "sid", "known-n")


class TestOneWayAsTwoWay:
    def test_requires_one_way_program(self):
        with pytest.raises(TypeError):
            one_way_as_two_way(object())

    def test_fs_is_g_and_fr_is_f(self):
        adapter = one_way_as_two_way(OneWayEpidemicProtocol())
        assert adapter.fs(INFORMED, SUSCEPTIBLE) == INFORMED
        assert adapter.fr(INFORMED, SUSCEPTIBLE) == INFORMED
        assert adapter.fr(SUSCEPTIBLE, INFORMED) == INFORMED

    def test_tw_execution_matches_it_execution(self):
        """Running the adapted program under TW equals running the original under IT."""
        protocol = OneWayEpidemicProtocol()
        adapter = one_way_as_two_way(protocol)
        for starter in (INFORMED, SUSCEPTIBLE):
            for reactor in (INFORMED, SUSCEPTIBLE):
                assert TW.apply(adapter, starter, reactor, NO_OMISSION) == IT.apply(
                    protocol, starter, reactor, NO_OMISSION
                )

    def test_omission_handlers_are_forwarded(self):
        simulator = SKnOSimulator(PairingProtocol(), omission_bound=1)
        adapter = one_way_as_two_way(simulator)
        state = simulator.initial_state("p")
        assert adapter.on_reactor_omission(state) == simulator.on_reactor_omission(state)
        assert adapter.on_starter_omission(state) == simulator.on_starter_omission(state)

    def test_delegation_of_simulator_interface(self):
        simulator = SKnOSimulator(PairingProtocol(), omission_bound=0)
        adapter = one_way_as_two_way(simulator)
        state = adapter.initial_state("c")
        assert adapter.project(state) == "c"
        assert adapter.protocol is simulator.protocol

    def test_t3_full_omission_uses_wrapped_handlers(self):
        simulator = SKnOSimulator(PairingProtocol(), omission_bound=1)
        adapter = one_way_as_two_way(simulator)
        starter = simulator.initial_state("p")
        reactor = simulator.initial_state("c")
        adapted = T3.apply(adapter, starter, reactor, FULL_OMISSION)
        # Starter side: SKnO's I3 variant ignores starter-side omissions.
        assert adapted[0] == starter
        # Reactor side: a joker is enqueued.
        assert sum(type(token) is JokerToken for token in adapted[1].sending) == 1

    def test_wrapped_property_and_repr(self):
        protocol = OneWayEpidemicProtocol()
        adapter = one_way_as_two_way(protocol)
        assert adapter.wrapped is protocol
        assert "OneWayAsTwoWay" in repr(adapter)
        assert isinstance(adapter, OneWayAsTwoWay)


class TestNaiveProjection:
    def test_only_reactor_half_is_applied(self):
        pairing = PairingProtocol()
        naive = two_way_as_one_way_naive(pairing)
        assert isinstance(naive, NaiveOneWayProjection)
        # The reactor becomes critical, but the producer is NOT consumed —
        # exactly the unsoundness that makes this projection not a simulation.
        assert naive.f("p", "c") == "cs"
        assert IO.apply(naive, "p", "c", NO_OMISSION) == ("p", "cs")

    def test_states_are_inherited(self):
        pairing = PairingProtocol()
        naive = two_way_as_one_way_naive(pairing)
        assert naive.states == pairing.states
        assert naive.protocol is pairing

    def test_naive_projection_violates_pairing_safety(self):
        """Two consumers can both become critical off a single producer."""
        pairing = PairingProtocol()
        naive = two_way_as_one_way_naive(pairing)
        # Producer observed by consumer 1, then by consumer 2: both turn critical.
        first = naive.f("p", "c")
        second = naive.f("p", "c")
        assert first == second == "cs"


class TestRegistryAdapterRule:
    """The registry turns (simulator, model) into a program for that model."""

    @pytest.mark.parametrize("model", [model.name for model in ALL_MODELS])
    @pytest.mark.parametrize("simulator", SIMULATOR_KEYS)
    def test_every_simulator_builds_and_runs_under_every_model(self, simulator, model):
        spec = ExperimentSpec(protocol="pairing", population=5, model=model,
                              simulator=simulator)
        program = build_cached(spec).program
        one_way_simulator = simulator != "none"
        assert isinstance(program, OneWayAsTwoWay) == (
            one_way_simulator and not get_model(model).one_way)
        outcome = run_spec(spec, 0, 1, 500, 10, "counts-only")
        assert outcome.steps_executed > 0

    @pytest.mark.parametrize("model", ["T1", "T2", "T3"])
    @pytest.mark.parametrize("simulator", ["skno", "sid", "known-n"])
    def test_wrapped_simulators_converge_and_verify(self, simulator, model):
        spec = ExperimentSpec(protocol="pairing", population=5, model=model,
                              simulator=simulator)
        outcome = run_spec(spec, 0, 1, 150_000, 200, "full")
        assert outcome.converged
        assert verify_simulation(build_cached(spec).program, outcome.trace).ok

    def test_skno_on_t3_tolerates_its_omission_bound(self):
        spec = ExperimentSpec(protocol="pairing", population=5, model="T3",
                              simulator="skno", omission_bound=1, omissions=1)
        outcome = run_spec(spec, 0, 4, 150_000, 200, "full")
        assert outcome.converged and outcome.omissions == 1
        assert verify_simulation(build_cached(spec).program, outcome.trace).ok

    def test_attack_targets(self):
        protocol = PairingProtocol()
        t1 = build_simulator("skno", protocol, 2, 1, "T1")
        assert isinstance(t1, OneWayAsTwoWay) and t1.wrapped.variant == "I3"
        i4 = build_simulator("skno", protocol, 2, 1, "I4")
        assert isinstance(i4, SKnOSimulator) and i4.variant == "I4"
        assert isinstance(build_simulator("none", protocol, 2, 0, "T3"),
                          TrivialTwoWaySimulator)
