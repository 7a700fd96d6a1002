"""Unit tests for the SKnO simulator's token mechanics (Section 4.1)."""

import pytest

from repro.core.base import SimulatorError
from repro.core.skno import (
    AVAILABLE,
    PENDING,
    ChangeToken,
    JokerToken,
    SKnOSimulator,
    SKnOState,
    StateToken,
)
from repro.interaction.models import get_model
from repro.interaction.omissions import NO_OMISSION, REACTOR_OMISSION
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.state import Configuration


def jokers(state):
    """Number of joker tokens in ``state``'s sending queue."""
    return sum(type(token) is JokerToken for token in state.sending)


@pytest.fixture
def protocol():
    return PairingProtocol()


@pytest.fixture
def simulator(protocol):
    return SKnOSimulator(protocol, omission_bound=1)


class TestConstruction:
    def test_negative_bound_rejected(self, protocol):
        with pytest.raises(SimulatorError):
            SKnOSimulator(protocol, omission_bound=-1)

    def test_unknown_variant_rejected(self, protocol):
        with pytest.raises(SimulatorError):
            SKnOSimulator(protocol, variant="I9")

    def test_requires_population_protocol(self):
        with pytest.raises(SimulatorError):
            SKnOSimulator("not a protocol")

    def test_compatible_models(self, protocol):
        assert "IT" in SKnOSimulator(protocol, omission_bound=0).compatible_models
        assert SKnOSimulator(protocol, omission_bound=2).compatible_models == ("I3",)
        assert SKnOSimulator(protocol, omission_bound=2, variant="I4").compatible_models == ("I4",)

    def test_name(self, simulator):
        assert "SKnO" in simulator.name

    def test_initial_state(self, simulator):
        state = simulator.initial_state("c")
        assert state.sim == "c"
        assert state.phase == AVAILABLE
        assert state.sending == ()
        assert state.owed == ()

    def test_initial_state_validates_protocol_initial_states(self, simulator):
        with pytest.raises(Exception):
            simulator.initial_state("not-a-state")

    def test_initial_configuration_and_projection(self, simulator):
        p_config = Configuration(["c", "p", "c"])
        config = simulator.initial_configuration(p_config)
        assert simulator.project_configuration(config) == p_config


class TestStarterBehaviour:
    def test_available_empty_queue_becomes_pending_and_sends(self, simulator):
        state = simulator.initial_state("p")
        token = simulator.outgoing_token(state)
        after = simulator.g(state)
        assert token == StateToken("p", 1)
        assert after.phase == PENDING
        assert after.sending == (StateToken("p", 2),)

    def test_pending_starter_just_pops(self, simulator):
        state = SKnOState(sim="p", phase=PENDING, sending=(StateToken("p", 2),))
        after = simulator.g(state)
        assert after.phase == PENDING
        assert after.sending == ()

    def test_pending_starter_with_empty_queue_sends_nothing(self, simulator):
        state = SKnOState(sim="p", phase=PENDING, sending=())
        assert simulator.outgoing_token(state) is None
        assert simulator.g(state) == state

    def test_available_with_nonempty_queue_does_not_go_pending(self, simulator):
        state = SKnOState(sim="p", phase=AVAILABLE, sending=(JokerToken(),))
        after = simulator.g(state)
        assert after.phase == AVAILABLE
        assert after.sending == ()


class TestReactorBehaviour:
    def test_reactor_enqueues_received_token(self, simulator):
        starter = SKnOState(sim="p", phase=PENDING, sending=(StateToken("p", 1),))
        reactor = SKnOState(sim="c", phase=PENDING, sending=())
        after = simulator.f(starter, reactor)
        assert StateToken("p", 1) in after.sending

    def test_complete_run_triggers_simulated_transition(self, simulator):
        """A consumer holding <p,1> that receives <p,2> commits delta(p, c)[1] = cs."""
        starter = SKnOState(sim="p", phase=PENDING, sending=(StateToken("p", 2),))
        reactor = SKnOState(sim="c", phase=AVAILABLE, sending=(StateToken("p", 1),))
        after = simulator.f(starter, reactor)
        assert after.sim == "cs"
        assert after.phase == AVAILABLE
        # The used tokens are withdrawn and a change run is emitted.
        assert StateToken("p", 1) not in after.sending
        assert ChangeToken("p", "c", 1) in after.sending
        assert ChangeToken("p", "c", 2) in after.sending

    def test_change_run_completes_pending_starter(self, simulator):
        """A pending producer that assembles the change run commits delta(p, c)[0] = bot."""
        starter = SKnOState(sim="c", phase=AVAILABLE, sending=(ChangeToken("p", "c", 2),))
        reactor = SKnOState(
            sim="p", phase=PENDING, sending=(ChangeToken("p", "c", 1),)
        )
        after = simulator.f(starter, reactor)
        assert after.sim == "bot"
        assert after.phase == AVAILABLE

    def test_preliminary_check_retracts_own_run(self, simulator):
        """A pending agent that reassembles its own state run becomes available again."""
        starter = SKnOState(sim="x", phase=PENDING, sending=(StateToken("c", 1),))
        reactor = SKnOState(sim="c", phase=PENDING, sending=(StateToken("c", 2),))
        after = simulator.f(starter, reactor)
        assert after.phase == AVAILABLE
        assert after.sim == "c"
        assert StateToken("c", 1) not in after.sending
        assert StateToken("c", 2) not in after.sending

    def test_incomplete_run_does_nothing(self, simulator):
        starter = SKnOState(sim="p", phase=PENDING, sending=(StateToken("p", 1),))
        reactor = SKnOState(sim="c", phase=AVAILABLE, sending=())
        after = simulator.f(starter, reactor)
        assert after.sim == "c"
        assert after.sending == (StateToken("p", 1),)

    def test_joker_completes_a_run(self, simulator):
        """A joker may stand in for the missing token of a run."""
        starter = SKnOState(sim="p", phase=PENDING, sending=(StateToken("p", 2),))
        reactor = SKnOState(sim="c", phase=AVAILABLE, sending=(JokerToken(),))
        after = simulator.f(starter, reactor)
        assert after.sim == "cs"
        # The slot the joker filled is remembered in the owed multiset.
        assert StateToken("p", 1) in after.owed

    def test_late_original_token_becomes_joker(self, simulator):
        """When the real token for an owed slot arrives, it is converted into a joker."""
        starter = SKnOState(sim="x", phase=PENDING, sending=(StateToken("p", 1),))
        reactor = SKnOState(sim="cs", phase=AVAILABLE, sending=(), owed=(StateToken("p", 1),))
        after = simulator.f(starter, reactor)
        assert after.owed == ()
        assert jokers(after) == 1
        assert StateToken("p", 1) not in after.sending


class TestRunLength:
    """A run is ``o + 1`` tokens: one more than the omissions it must survive."""

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_available_starter_emits_a_run_of_bound_plus_one_tokens(self, protocol, bound):
        simulator = SKnOSimulator(protocol, omission_bound=bound)
        state = simulator.initial_state("p")
        sent = [simulator.outgoing_token(state)]
        state = simulator.g(state)
        while state.sending:
            sent.append(simulator.outgoing_token(state))
            state = simulator.g(state)
        assert sent == [StateToken("p", index) for index in range(1, bound + 2)]

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_last_token_of_the_run_commits(self, protocol, bound):
        simulator = SKnOSimulator(protocol, omission_bound=bound)
        starter = SKnOState(sim="p", phase=PENDING,
                            sending=(StateToken("p", bound + 1),))
        held = tuple(StateToken("p", index) for index in range(1, bound + 1))
        reactor = SKnOState(sim="c", phase=AVAILABLE, sending=held)
        assert simulator.f(starter, reactor).sim == "cs"

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_one_token_short_does_not_commit(self, protocol, bound):
        simulator = SKnOSimulator(protocol, omission_bound=bound)
        starter = SKnOState(sim="p", phase=PENDING, sending=(StateToken("p", bound),))
        held = tuple(StateToken("p", index) for index in range(1, bound))
        reactor = SKnOState(sim="c", phase=AVAILABLE, sending=held)
        after = simulator.f(starter, reactor)
        assert after.sim == "c"
        assert StateToken("p", bound) in after.sending


class TestOmissionHandling:
    def test_i3_reactor_omission_creates_joker(self, simulator):
        reactor = simulator.initial_state("c")
        after = simulator.on_reactor_omission(reactor)
        assert jokers(after) == 1

    def test_i3_starter_omission_handler_is_identity(self, simulator):
        starter = simulator.initial_state("p")
        assert simulator.on_starter_omission(starter) == starter

    def test_i4_starter_omission_creates_joker_without_popping(self, protocol):
        simulator = SKnOSimulator(protocol, omission_bound=1, variant="I4")
        starter = SKnOState(sim="p", phase=PENDING, sending=(StateToken("p", 2),))
        after = simulator.on_starter_omission(starter)
        assert jokers(after) == 1
        assert StateToken("p", 2) in after.sending

    def test_i4_reactor_omission_handler_is_identity(self, protocol):
        simulator = SKnOSimulator(protocol, omission_bound=1, variant="I4")
        reactor = simulator.initial_state("c")
        assert simulator.on_reactor_omission(reactor) == reactor

    def test_model_level_omission_in_i3(self, simulator):
        """Under I3, an omissive interaction pops the starter and gives the reactor a joker."""
        model = get_model("I3")
        starter = simulator.initial_state("p")
        reactor = simulator.initial_state("c")
        new_starter, new_reactor = model.apply(simulator, starter, reactor, REACTOR_OMISSION)
        assert new_starter.phase == PENDING          # it tried to send
        assert jokers(new_reactor) == 1        # the loss was detected

    def test_token_conservation_under_i3_omission(self, simulator):
        """(real tokens in flight) + (jokers) per run never exceeds o + 1."""
        model = get_model("I3")
        starter = simulator.initial_state("p")
        reactor = simulator.initial_state("c")
        new_starter, new_reactor = model.apply(simulator, starter, reactor, REACTOR_OMISSION)
        remaining = sum(
            1 for token in new_starter.sending if isinstance(token, StateToken)
        )
        joker_tokens = jokers(new_reactor)
        assert remaining + joker_tokens == simulator.omission_bound + 1


class TestEventExtraction:
    def test_two_agent_full_simulation_produces_matched_pair(self, simulator):
        from repro.engine.engine import SimulationEngine
        from repro.scheduling.runs import Run

        model = get_model("I3")
        config = Configuration(
            [simulator.initial_state("p"), simulator.initial_state("c")]
        )
        engine = SimulationEngine(simulator, model, scheduler=None)
        run = Run.from_pairs([(0, 1), (0, 1), (1, 0), (1, 0)])
        trace = engine.replay(config, run)
        assert simulator.project_configuration(trace.final_configuration) == Configuration(
            ["bot", "cs"]
        )
        matching = simulator.extract_matching(trace)
        assert len(matching.pairs) == 1
        assert matching.invalid_pairs(simulator.protocol) == []

    def test_events_have_correct_roles(self, simulator):
        from repro.engine.engine import SimulationEngine
        from repro.scheduling.runs import Run

        model = get_model("I3")
        config = Configuration(
            [simulator.initial_state("p"), simulator.initial_state("c")]
        )
        engine = SimulationEngine(simulator, model, scheduler=None)
        trace = engine.replay(config, Run.from_pairs([(0, 1), (0, 1), (1, 0), (1, 0)]))
        events = simulator.extract_events(trace)
        roles = [event.role for event in events]
        assert roles == ["reactor", "starter"]
        assert events[0].agent == 1 and events[0].post_sim == "cs"
        assert events[1].agent == 0 and events[1].post_sim == "bot"
