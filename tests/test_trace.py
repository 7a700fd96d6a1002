"""Unit tests for execution traces."""

from array import array

import pytest

from repro.adversary.omission import BoundedOmissionAdversary, UOAdversary
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.trace import ROW_FIELDS, StepLog, Trace, TraceStep
from repro.interaction.models import get_model
from repro.interaction.omissions import NO_OMISSION, REACTOR_OMISSION
from repro.protocols.catalog.epidemic import (
    INFORMED,
    SUSCEPTIBLE,
    OneWayEpidemicProtocol,
)
from repro.protocols.state import Configuration, StateInterner
from repro.scheduling.runs import Interaction
from repro.scheduling.scheduler import RandomScheduler


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

    def test_step_index_out_of_range(self, small_trace):
        with pytest.raises(IndexError):
            small_trace[3]

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
        assert configs[1] == Configuration(["a1", "b1", "c"])
        assert configs[2] == Configuration(["a1", "b1", "c1"])
        assert configs[-1] == small_trace.final_configuration

    def test_projected_configurations(self, small_trace):
        projected = list(small_trace.projected_configurations(lambda s: s[0]))
        assert projected[0] == Configuration(["a", "b", "c"])
        assert projected[-1] == Configuration(["a", "b", "c"])

    def test_final_projected(self, small_trace):
        assert small_trace.final_projected(lambda s: s.upper()) == Configuration(
            ["A1", "B1", "C2"])

    def test_consistency_between_configurations_and_deltas(self, small_trace):
        """Reconstructed configurations chain correctly through the deltas."""
        configs = list(small_trace.configurations())
        for step, (before, after) in zip(small_trace, zip(configs, configs[1:])):
            assert before[step.interaction.starter] == step.starter_pre
            assert before[step.interaction.reactor] == step.reactor_pre
            assert after[step.interaction.starter] == step.starter_post
            assert after[step.interaction.reactor] == step.reactor_post


class TestDecodeOnRead:
    """Traced runs log plain rows; :class:`TraceStep` and :class:`Interaction`
    objects are built only when the trace or window is read."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        counts = {"TraceStep": 0, "Interaction": 0}
        for cls in (TraceStep, Interaction):
            original = cls.__init__

            def counting(self, *args, _original=original, _name=cls.__name__,
                         **kwargs):
                counts[_name] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @staticmethod
    def engine(adversary):
        model = get_model("I3")
        adversaries = {
            "bounded": BoundedOmissionAdversary(model, max_omissions=20, seed=2),
            "uo": UOAdversary(model, rate=0.5, seed=2),
        }
        return SimulationEngine(OneWayEpidemicProtocol(), model,
                                RandomScheduler(12, seed=1),
                                adversary=adversaries[adversary])

    @pytest.mark.parametrize("adversary", ["bounded", "uo"])
    def test_full_trace_is_built_when_read(self, constructions, adversary):
        initial = Configuration([INFORMED] + [SUSCEPTIBLE] * 11)
        result = run_until_stable(self.engine(adversary), initial, None, 2_000,
                                  trace_policy="full")
        assert result.omissions > 0
        assert constructions == {"TraceStep": 0, "Interaction": 0}
        trace = result.trace
        assert len(trace) == 2_000
        assert constructions == {"TraceStep": 0, "Interaction": 0}
        steps = trace.steps
        assert constructions == {"TraceStep": len(trace),
                                 "Interaction": len(trace)}
        assert [step.index for step in steps] == list(range(2_000))
        assert trace.omission_count() == result.omissions
        assert trace.final_configuration == result.final_configuration

    @pytest.mark.parametrize("adversary", ["bounded", "uo"])
    def test_ring_window_is_built_when_read(self, constructions, adversary):
        initial = Configuration([INFORMED] + [SUSCEPTIBLE] * 11)
        result = run_until_stable(
            self.engine(adversary), initial, None, 2_000, trace_policy="ring",
            ring_size=16)
        assert constructions == {"TraceStep": 0, "Interaction": 0}
        window = result.last_steps
        assert constructions == {"TraceStep": 16, "Interaction": 16}
        assert [step.index for step in window] == list(range(1_984, 2_000))


def log_rows(*steps):
    """Flatten ``(starter, reactor, omission, starter_pre, reactor_pre,
    starter_post, reactor_post)`` tuples into :class:`StepLog` rows."""
    return [field for step in steps for field in step]


class TestStepLog:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            StepLog(window=0)

    def test_decodes_rows_in_order(self):
        log = StepLog()
        log.rows.extend(log_rows(
            (0, 1, NO_OMISSION, "a", "b", "a1", "b1"),
            (2, 0, REACTOR_OMISSION, "c", "a1", "c2", "a1")))
        steps = log.decode()
        assert len(log) == 2
        assert [step.index for step in steps] == [0, 1]
        assert steps[0] == TraceStep(0, Interaction(0, 1), "a", "a1", "b", "b1")
        assert steps[1].interaction.is_omissive
        assert steps[1].reactor_post == "a1"

    def test_trim_without_window_keeps_everything(self):
        log = StepLog()
        log.rows.extend(log_rows(*[(0, 1, NO_OMISSION, i, i, i, i) for i in range(5)]))
        log.trim()
        assert len(log) == 5
        assert log.start == 0

    def test_trim_keeps_the_last_window_steps(self):
        log = StepLog(window=2)
        log.rows.extend(log_rows(*[(0, 1, NO_OMISSION, i, i, i, i) for i in range(5)]))
        log.trim()
        assert len(log) == 2
        assert log.start == 3
        assert [step.index for step in log.decode()] == [3, 4]
        assert [step.starter_pre for step in log.decode()] == [3, 4]

    def test_extend_columns_appends_one_row_per_step(self):
        log = StepLog()
        columns = [array("q", values) for values in
                   ([0, 1], [1, 2], [0, 0], [5, 6], [7, 8], [9, 10], [11, 12])]
        assert len(columns) == ROW_FIELDS
        log.extend_columns(columns)
        assert log.rows == [0, 1, 0, 5, 7, 9, 11, 1, 2, 0, 6, 8, 10, 12]

    def test_extend_columns_reads_only_the_window(self):
        log = StepLog(window=2)
        columns = [array("q", [field * 10 + step for step in range(5)])
                   for field in range(ROW_FIELDS)]
        log.extend_columns(columns)
        assert len(log) == 2
        assert log.start == 3
        assert log.rows[:ROW_FIELDS] == [field * 10 + 3 for field in range(ROW_FIELDS)]

    def test_interner_and_omission_rows_decode_codes(self):
        interner = StateInterner(["x", "y"])
        x, y = interner.encode("x"), interner.encode("y")
        log = StepLog(interner=interner, omissions=[NO_OMISSION, REACTOR_OMISSION])
        log.rows.extend([0, 1, 1, x, x, y, x])
        (step,) = log.decode()
        assert step.interaction == Interaction(0, 1, omission=REACTOR_OMISSION)
        assert (step.starter_pre, step.reactor_pre) == ("x", "x")
        assert (step.starter_post, step.reactor_post) == ("y", "x")

    def test_equality_compares_decoded_steps(self):
        interner = StateInterner(["x", "y"])
        coded = StepLog(interner=interner, omissions=[NO_OMISSION])
        coded.rows.extend([0, 1, 0, interner.encode("x"), interner.encode("y"),
                           interner.encode("y"), interner.encode("x")])
        plain = StepLog()
        plain.rows.extend([0, 1, NO_OMISSION, "x", "y", "y", "x"])
        assert coded == plain
        plain.rows[-1] = "y"
        assert coded != plain
