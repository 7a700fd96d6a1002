"""Unit tests for the memory accounting helpers."""

import pytest

from repro.core.memory import (
    max_bits_per_agent,
    sid_state_bound_bits,
    skno_state_bound_bits,
    state_bits,
)
from repro.core.sid import SIDState
from repro.core.skno import SKnOSimulator, SKnOState, StateToken
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.protocol import ProtocolError, PopulationProtocol
from repro.protocols.state import Configuration


class TestStateBits:
    def test_primitives(self):
        assert state_bits(None) == 1
        assert state_bits(True) == 1
        assert state_bits(0) >= 1
        assert state_bits(255) >= 8
        assert state_bits("ab") == 16
        assert state_bits(1.5) == 64
        assert state_bits(b"xyz") == 24

    def test_bigger_values_cost_more(self):
        assert state_bits(2**20) > state_bits(2)
        assert state_bits("a long string here") > state_bits("a")

    def test_containers(self):
        assert state_bits((1, 2, 3)) > state_bits((1,))
        assert state_bits({"k": 1}) > state_bits({})
        assert state_bits([1, 2]) == state_bits((1, 2))

    def test_dataclasses(self):
        small = SKnOState(sim="c")
        large = SKnOState(sim="c", sending=tuple(StateToken("c", i) for i in range(1, 9)))
        assert state_bits(large) > state_bits(small)

    def test_sid_state(self):
        state = SIDState(my_id=3, sim="c")
        assert state_bits(state) > 0

    def test_fallback_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "opaque-object"

        assert state_bits(Opaque()) == 8 * len("opaque-object")


class TestConfigurationBits:
    def test_max_bits_per_agent(self):
        configs = [Configuration(["a", "abc"]), Configuration(["a", "a"])]
        assert max_bits_per_agent(configs) == state_bits("abc")


class TestTheoreticalBounds:
    def test_skno_bound_grows_linearly_in_o(self):
        protocol = PairingProtocol()
        bounds = [skno_state_bound_bits(protocol, 16, o) for o in range(4)]
        differences = [b - a for a, b in zip(bounds, bounds[1:])]
        assert len(set(differences)) == 1, "growth in o must be exactly linear"

    def test_skno_bound_grows_logarithmically_in_n(self):
        protocol = PairingProtocol()
        assert skno_state_bound_bits(protocol, 16, 1) == skno_state_bound_bits(protocol, 9, 1)
        assert skno_state_bound_bits(protocol, 1024, 1) > skno_state_bound_bits(protocol, 16, 1)

    def test_skno_bound_input_validation(self):
        protocol = PairingProtocol()
        with pytest.raises(ValueError):
            skno_state_bound_bits(protocol, 0, 1)
        with pytest.raises(ValueError):
            skno_state_bound_bits(protocol, 4, -1)

    def test_skno_bound_requires_finite_protocol(self):
        class Unbounded(PopulationProtocol):
            def delta(self, starter, reactor):
                return starter, reactor

        with pytest.raises(ProtocolError):
            skno_state_bound_bits(Unbounded(), 4, 1)

    def test_sid_bound_grows_logarithmically_in_n(self):
        protocol = PairingProtocol()
        assert sid_state_bound_bits(protocol, 1 << 10) > sid_state_bound_bits(protocol, 1 << 3)
        with pytest.raises(ValueError):
            sid_state_bound_bits(protocol, 0)


class TestObservedVersusBound:
    def test_skno_observed_memory_grows_with_omission_bound(self):
        """Observed per-agent state sizes grow with o, as Theorem 4.1 predicts."""
        from repro.engine.engine import SimulationEngine
        from repro.interaction.models import get_model
        from repro.scheduling.scheduler import RandomScheduler

        protocol = PairingProtocol()
        observed = []
        for omission_bound in (0, 2, 4):
            simulator = SKnOSimulator(protocol, omission_bound=omission_bound)
            config = simulator.initial_configuration(Configuration(["c", "c", "p", "p"]))
            engine = SimulationEngine(simulator, get_model("I3"), RandomScheduler(4, seed=1))
            trace = engine.run(config, max_steps=400)
            observed.append(max_bits_per_agent(trace.configurations()))
        assert observed[0] < observed[1] < observed[2]
