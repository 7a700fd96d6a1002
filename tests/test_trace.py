"""Unit tests for execution traces."""

import pytest

from repro.engine.trace import Trace, TraceStep
from repro.interaction.omissions import REACTOR_OMISSION
from repro.protocols.state import Configuration
from repro.scheduling.runs import Interaction


@pytest.fixture
def small_trace():
    """A hand-built trace of three interactions over three agents."""
    trace = Trace(Configuration(["a", "b", "c"]))
    trace.record(Interaction(0, 1), "a1", "b1")
    trace.record(Interaction(1, 2), "b1", "c1")  # silent for agent 1
    trace.record(Interaction(2, 0, omission=REACTOR_OMISSION), "c2", "a1")
    return trace


class TestRecording:
    def test_lengths(self, small_trace):
        assert len(small_trace) == 3
        assert small_trace.n == 3

    def test_initial_and_final(self, small_trace):
        assert small_trace.initial_configuration == Configuration(["a", "b", "c"])
        assert small_trace.final_configuration == Configuration(["a1", "b1", "c2"])

    def test_steps_record_pre_and_post(self, small_trace):
        step = small_trace[0]
        assert step.starter_pre == "a" and step.starter_post == "a1"
        assert step.reactor_pre == "b" and step.reactor_post == "b1"

    def test_step_indices_are_sequential(self, small_trace):
        assert [step.index for step in small_trace] == [0, 1, 2]

    def test_changed_agents(self, small_trace):
        assert small_trace[0].changed_agents == (0, 1)
        assert small_trace[1].changed_agents == (2,)

    def test_is_silent(self):
        trace = Trace(Configuration(["x", "y"]))
        step = trace.record(Interaction(0, 1), "x", "y")
        assert step.is_silent

    def test_repr(self, small_trace):
        assert "steps=3" in repr(small_trace)


class TestDerivedData:
    def test_run_reconstruction(self, small_trace):
        run = small_trace.run()
        assert len(run) == 3
        assert run[2].is_omissive

    def test_omission_count(self, small_trace):
        assert small_trace.omission_count() == 1

    def test_configurations_sequence(self, small_trace):
        configs = list(small_trace.configurations())
        assert len(configs) == 4
        assert configs[0] == Configuration(["a", "b", "c"])
        assert configs[-1] == small_trace.final_configuration

    def test_configuration_at(self, small_trace):
        assert small_trace.configuration_at(0) == Configuration(["a", "b", "c"])
        assert small_trace.configuration_at(1) == Configuration(["a1", "b1", "c"])
        assert small_trace.configuration_at(3) == small_trace.final_configuration

    def test_configuration_at_out_of_range(self, small_trace):
        with pytest.raises(IndexError):
            small_trace.configuration_at(4)

    def test_projected_configurations(self, small_trace):
        projected = list(small_trace.projected_configurations(lambda s: s[0]))
        assert projected[0] == Configuration(["a", "b", "c"])
        assert projected[-1] == Configuration(["a", "b", "c"])

    def test_final_projected(self, small_trace):
        assert small_trace.final_projected(lambda s: s.upper()) == Configuration(
            ["A1", "B1", "C2"])

    def test_steps_involving(self, small_trace):
        assert len(small_trace.steps_involving(0)) == 2
        assert len(small_trace.steps_involving(1)) == 2
        assert len(small_trace.steps_involving(2)) == 2

    def test_consistency_between_configurations_and_deltas(self, small_trace):
        """Reconstructed configurations chain correctly through the deltas."""
        configs = list(small_trace.configurations())
        for step, (before, after) in zip(small_trace, zip(configs, configs[1:])):
            assert before[step.interaction.starter] == step.starter_pre
            assert before[step.interaction.reactor] == step.reactor_pre
            assert after[step.interaction.starter] == step.starter_post
            assert after[step.interaction.reactor] == step.reactor_post
