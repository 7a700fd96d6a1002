"""Property-based tests for SKnO's token bookkeeping invariants (hypothesis).

The liveness and safety arguments of Theorem 4.1 rest on conservation
properties of tokens and jokers; these tests check them over randomly
generated executions with randomly placed (bounded) omissions.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import REACTOR_ROLE, STARTER_ROLE, SimulationEvent
from repro.core.memory import state_bits
from repro.core.skno import (
    AVAILABLE,
    JOKER,
    PENDING,
    ChangeToken,
    JokerToken,
    SKnOSimulator,
    SKnOState,
    StateToken,
    _state,
)
from repro.engine.engine import SimulationEngine
from repro.engine.trace import TraceStep
from repro.interaction.models import get_model
from repro.interaction.omissions import NO_OMISSION, REACTOR_OMISSION
from repro.protocols.catalog.pairing import PairingProtocol
from repro.protocols.state import Configuration
from repro.scheduling.runs import Interaction, Run

protocol = PairingProtocol()


def random_run(draw_pairs, omission_positions, n):
    interactions = []
    for index, (starter, reactor) in enumerate(draw_pairs):
        starter, reactor = starter % n, reactor % n
        if starter == reactor:
            reactor = (reactor + 1) % n
        omission = REACTOR_OMISSION if index in omission_positions else NO_OMISSION
        interactions.append(Interaction(starter, reactor, omission=omission))
    return Run(interactions)


@st.composite
def skno_scenario(draw):
    omission_bound = draw(st.integers(min_value=0, max_value=2))
    n = draw(st.integers(min_value=2, max_value=5))
    length = draw(st.integers(min_value=0, max_value=60))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=length, max_size=length,
        )
    )
    omission_positions = set(
        draw(
            st.lists(
                st.integers(0, max(0, length - 1)),
                min_size=0, max_size=omission_bound,
                unique=True,
            )
        )
    )
    consumers = draw(st.integers(min_value=1, max_value=n - 1))
    return omission_bound, n, pairs, omission_positions, consumers


def run_scenario(omission_bound, n, pairs, omission_positions, consumers):
    simulator = SKnOSimulator(protocol, omission_bound=omission_bound)
    p_config = Configuration(["c"] * consumers + ["p"] * (n - consumers))
    config = simulator.initial_configuration(p_config)
    run = random_run(pairs, omission_positions, n)
    engine = SimulationEngine(simulator, get_model("I3"), scheduler=None)
    trace = engine.replay(config, run)
    return simulator, p_config, trace


def all_tokens(configuration):
    for state in configuration:
        for token in state.sending:
            yield token


class TestTokenInvariants:
    @given(skno_scenario())
    @settings(max_examples=60, deadline=None)
    def test_joker_count_never_exceeds_omissions(self, scenario):
        simulator, _, trace = run_scenario(*scenario)
        omissions = trace.omission_count()
        for configuration in trace.configurations():
            jokers = sum(1 for token in all_tokens(configuration) if isinstance(token, JokerToken))
            assert jokers <= omissions

    @given(skno_scenario())
    @settings(max_examples=60, deadline=None)
    def test_per_run_token_count_never_exceeds_run_length(self, scenario):
        """No run of tokens <q, *> (or change tokens) ever has more than o+1
        distinct indices in circulation."""
        simulator, _, trace = run_scenario(*scenario)
        run_length = simulator.omission_bound + 1
        for configuration in trace.configurations():
            index_sets = {}
            for token in all_tokens(configuration):
                if isinstance(token, StateToken):
                    key = ("state", token.state)
                    index_sets.setdefault(key, set()).add(token.index)
                elif isinstance(token, ChangeToken):
                    key = ("change", token.starter_state, token.reactor_old_state)
                    index_sets.setdefault(key, set()).add(token.index)
            for indices in index_sets.values():
                assert max(indices) <= run_length

    @given(skno_scenario())
    @settings(max_examples=60, deadline=None)
    def test_pairing_safety_holds_within_omission_bound(self, scenario):
        """Within the announced bound, the simulated Pairing safety is never violated."""
        simulator, p_config, trace = run_scenario(*scenario)
        producers = p_config.count("p")
        for configuration in trace.projected_configurations(simulator.project):
            assert configuration.count("cs") <= producers

    @given(skno_scenario())
    @settings(max_examples=60, deadline=None)
    def test_simulated_multiset_reachable(self, scenario):
        """Consumer-side and producer-side populations are conserved."""
        simulator, p_config, trace = run_scenario(*scenario)
        consumers = p_config.count("c")
        producers = p_config.count("p")
        final = trace.final_projected(simulator.project)
        assert final.count("c") + final.count("cs") == consumers
        assert final.count("p") + final.count("bot") == producers

    @given(skno_scenario())
    @settings(max_examples=40, deadline=None)
    def test_verification_never_reports_violation_within_bound(self, scenario):
        from repro.core.verification import verify_simulation

        simulator, _, trace = run_scenario(*scenario)
        report = verify_simulation(simulator, trace)
        assert report.invalid_pairs == 0
        assert report.derived_consistent, report.errors

    @given(skno_scenario())
    @settings(max_examples=40, deadline=None)
    def test_states_remain_hashable_and_projectable(self, scenario):
        simulator, _, trace = run_scenario(*scenario)
        final = trace.final_configuration
        assert len({hash(state) for state in final}) >= 1
        for state in final:
            assert simulator.project(state) in protocol.states


def effective_outgoing(simulator, state):
    """What a starter transmits, and its post-transmission state, spelled
    out as the paper does: an available starter with an empty queue goes
    pending and enqueues its state run; then the front token is sent."""
    phase = state.phase
    queue = state.sending
    if phase == AVAILABLE and not queue:
        phase = PENDING
        queue = simulator._state_run(state.sim)
    if queue:
        return queue[0], SKnOState(state.sim, phase, queue[1:], state.owed)
    return None, SKnOState(state.sim, phase, queue, state.owed)


class TestStarterSide:
    @given(skno_scenario())
    @settings(max_examples=60, deadline=None)
    def test_outgoing_token_and_g_match_the_reference(self, scenario):
        """The O(1) starter side equals the reference: go pending, enqueue, pop."""
        simulator, _, trace = run_scenario(*scenario)
        for configuration in trace.configurations():
            for state in configuration:
                token, after = effective_outgoing(simulator, state)
                assert simulator.outgoing_token(state) == token
                assert simulator.g(state) == after


# ---------------------------------------------------------------------------------------------
# The receive early exit
# ---------------------------------------------------------------------------------------------


def full_receive(simulator, reactor, token):
    """``_receive`` without its early exit: the joker conversion, then the
    whole index / preliminary check / core check pipeline on every call."""
    sim, phase, queue, owed = reactor.sim, reactor.phase, reactor.sending, reactor.owed
    if token is not None:
        if owed and type(token) is not JokerToken and token in owed:
            remaining = list(owed)
            remaining.remove(token)
            owed = tuple(remaining)
            token = JOKER
        queue = queue + (token,)
    events = ()
    state_runs, change_runs, jokers = simulator._index(queue, sim)
    if phase == PENDING:
        present = state_runs.get(sim, {})
        missing = [i for i in simulator._run_indices if i not in present]
        if len(missing) <= len(jokers):
            queue, owed = simulator._consume(
                queue, owed, present, jokers, missing, simulator._state_run(sim))
            phase = AVAILABLE
            state_runs, change_runs, jokers = simulator._index(queue, sim)
    if phase == AVAILABLE:
        best = simulator._best_run(state_runs, len(jokers))
        if best is not None:
            q, present, missing = best
            old_sim, sim = sim, simulator.delta(q, sim)[1]
            queue, owed = simulator._consume(
                queue, owed, present, jokers, missing, simulator._state_run(q))
            queue += simulator._change_run(q, old_sim)
            events = (SimulationEvent(
                step=-1, agent=-1, role=REACTOR_ROLE, pre_sim=old_sim, post_sim=sim,
                partner_pre_sim=q, key=(q, old_sim)),)
    else:
        best = simulator._best_run(change_runs, len(jokers))
        if best is not None:
            reactor_old, present, missing = best
            old_sim, sim = sim, simulator.delta(sim, reactor_old)[0]
            queue, owed = simulator._consume(
                queue, owed, present, jokers, missing,
                simulator._change_run(old_sim, reactor_old))
            phase = AVAILABLE
            events = (SimulationEvent(
                step=-1, agent=-1, role=STARTER_ROLE, pre_sim=old_sim, post_sim=sim,
                partner_pre_sim=reactor_old, key=(old_sim, reactor_old)),)
    if token is None and phase == reactor.phase and not events:
        return reactor, events
    return SKnOState(sim, phase, queue, owed), events


STATES = sorted(protocol.states)


@st.composite
def receive_scenario(draw):
    """A reactor state and an incoming token: queues mixing state, change
    and joker tokens, and an ``owed`` multiset the token may be in."""
    omission_bound = draw(st.integers(min_value=0, max_value=3))
    variant = draw(st.sampled_from(["I3", "I4"]))
    simulator = SKnOSimulator(protocol, omission_bound=omission_bound, variant=variant)
    sim = draw(st.sampled_from(STATES))
    # Biased towards tokens of the reactor's own state, so runs complete.
    near = st.sampled_from([sim, sim, sim] + STATES)
    indices = st.integers(min_value=1, max_value=omission_bound + 1)
    real = st.one_of(
        st.builds(StateToken, near, indices),
        st.builds(ChangeToken, near, near, indices),
    )
    queue = tuple(draw(st.lists(
        st.one_of(real, st.just(JOKER)), max_size=3 * (omission_bound + 1))))
    owed = tuple(sorted(draw(st.lists(real, max_size=omission_bound + 1)), key=repr))
    token = draw(st.one_of(
        st.none(), st.just(JOKER), real,
        st.sampled_from(owed) if owed else st.nothing()))
    phase = draw(st.sampled_from([AVAILABLE, PENDING]))
    return simulator, SKnOState(sim, phase, queue, owed), token


def sender_of(token):
    """A starter whose outgoing token is ``token`` (``None``: nothing to send)."""
    return SKnOState("p", PENDING, () if token is None else (token,), ())


class TestReceiveEarlyExit:
    @given(receive_scenario())
    @settings(max_examples=600, deadline=None)
    def test_receive_equals_the_full_pipeline(self, scenario):
        simulator, reactor, token = scenario
        events = []
        state = simulator._receive(reactor, token, events)
        expected_state, expected_events = full_receive(simulator, reactor, token)
        assert state == expected_state
        assert repr(state) == repr(expected_state)
        assert tuple(events) == tuple(expected_events)
        assert (state is reactor) == (expected_state is reactor)
        # The same state without an events list, and through the two
        # public entry points: f (execution) and step_events (extraction).
        for received in (simulator._receive(reactor, token),
                         simulator.f(sender_of(token), reactor)):
            assert received == expected_state
            assert repr(received) == repr(expected_state)
            assert (received is reactor) == (expected_state is reactor)
        step = TraceStep(0, Interaction(0, 1), sender_of(token), None, reactor, None)
        assert tuple(simulator.step_events(step)) == tuple(expected_events)


# ---------------------------------------------------------------------------------------------
# The fast state constructor
# ---------------------------------------------------------------------------------------------


STATE_FIELDS = dict(
    sim=st.sampled_from(STATES),
    phase=st.sampled_from([AVAILABLE, PENDING]),
    sending=st.lists(st.one_of(
        st.builds(StateToken, st.sampled_from(STATES), st.integers(1, 3)),
        st.just(JOKER))).map(tuple),
    owed=st.lists(st.builds(
        ChangeToken, st.sampled_from(STATES), st.sampled_from(STATES),
        st.integers(1, 3))).map(tuple),
)


class TestFastStateConstructor:
    @given(**STATE_FIELDS)
    @settings(max_examples=60, deadline=None)
    def test_state_is_the_constructor(self, sim, phase, sending, owed):
        fast = _state(sim, phase, sending, owed)
        built = SKnOState(sim, phase, sending, owed)
        assert type(fast) is SKnOState
        assert fast == built
        assert hash(fast) == hash(built)
        assert repr(fast) == repr(built)
        assert pickle.dumps(fast) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(fast)) == built
        assert fast._replace(phase=PENDING) == built._replace(phase=PENDING)
        assert fast._replace() == built

    def test_state_is_a_tuple_in_field_order(self):
        """``_state`` passes the fields positionally, so their order is the contract."""
        assert issubclass(SKnOState, tuple)
        assert SKnOState._fields == ("sim", "phase", "sending", "owed")


class TestMemoisedRuns:
    def test_runs_are_built_once_per_simulator(self):
        simulator = SKnOSimulator(protocol, omission_bound=2)
        assert simulator._state_run("p") is simulator._state_run("p")
        assert simulator._change_run("p", "c") is simulator._change_run("p", "c")
        assert simulator._state_run("p") == tuple(StateToken("p", i) for i in (1, 2, 3))
        assert simulator._change_run("p", "c") == tuple(
            ChangeToken("p", "c", i) for i in (1, 2, 3))

    def test_runs_are_not_shared_across_simulators(self):
        first = SKnOSimulator(protocol, omission_bound=1)
        second = SKnOSimulator(protocol, omission_bound=1)
        assert first._state_run("p") == second._state_run("p")
        assert first._state_run("p") is not second._state_run("p")
        assert first._change_run("p", "c") is not second._change_run("p", "c")
        assert SKnOSimulator(protocol, omission_bound=0)._state_run("p") == (
            StateToken("p", 1),)


# ---------------------------------------------------------------------------------------------
# The tuple record contract
# ---------------------------------------------------------------------------------------------


class TestTupleRecord:
    @given(**STATE_FIELDS)
    @settings(max_examples=60, deadline=None)
    def test_hash_and_bits_are_the_dataclass_values(self, sim, phase, sending, owed):
        """A state hashes as its field tuple, like the frozen dataclass it
        replaced, and its structural size is the same sum over its fields."""
        state = _state(sim, phase, sending, owed)
        assert hash(state) == hash((state.sim, state.phase, state.sending, state.owed))
        assert state == (sim, phase, sending, owed)
        assert state_bits(state) == 2 + sum(
            2 + state_bits(value) for value in (sim, phase, sending, owed))

    def test_bits_of_the_golden_state(self):
        state = SKnOState("c", "pending", (StateToken("p", 1), JokerToken()),
                          (StateToken("p", 2),))
        assert state_bits(state) == 119
        assert state_bits(SKnOState("c")) == 94
