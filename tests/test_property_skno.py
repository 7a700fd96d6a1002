"""Property-based tests for SKnO's token bookkeeping invariants (hypothesis).

The liveness and safety arguments of Theorem 4.1 rest on conservation
properties of tokens and jokers; these tests check them over randomly
generated executions with randomly placed (bounded) omissions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skno import ChangeToken, JokerToken, SKnOSimulator, StateToken
from repro.engine.engine import SimulationEngine
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
        run_length = simulator.run_length
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


class TestStarterSide:
    @given(skno_scenario())
    @settings(max_examples=60, deadline=None)
    def test_outgoing_token_and_g_match_the_reference(self, scenario):
        """The O(1) starter side equals the reference: go pending, enqueue, pop."""
        simulator, _, trace = run_scenario(*scenario)
        for configuration in trace.configurations():
            for state in configuration:
                token, after = simulator._effective_outgoing(state)
                assert simulator.outgoing_token(state) == token
                assert simulator.g(state) == after


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
