"""Unit tests for the ten interaction models of Figure 1.

The tests pin down the transition relation of every model against small,
hand-written programs, matching the formulas displayed in Figure 1.
"""

import pytest

from repro.interaction.models import (
    ALL_MODELS,
    I1,
    I2,
    I3,
    I4,
    IO,
    IT,
    MODELS_BY_NAME,
    ModelError,
    T1,
    T2,
    T3,
    TW,
    get_model,
)
from repro.interaction.omissions import (
    FULL_OMISSION,
    NO_OMISSION,
    REACTOR_OMISSION,
    STARTER_OMISSION,
    Omission,
)


class TwoWayTestProgram:
    """A two-way program with distinguishable fs / fr / o / h outputs."""

    def fs(self, starter, reactor):
        return ("fs", starter, reactor)

    def fr(self, starter, reactor):
        return ("fr", starter, reactor)

    def on_starter_omission(self, starter):
        return ("o", starter)

    def on_reactor_omission(self, reactor):
        return ("h", reactor)


class OneWayTestProgram:
    """A one-way program with distinguishable g / f / o / h outputs."""

    def g(self, starter):
        return ("g", starter)

    def f(self, starter, reactor):
        return ("f", starter, reactor)

    def on_starter_omission(self, starter):
        return ("o", starter)

    def on_reactor_omission(self, reactor):
        return ("h", reactor)


@pytest.fixture
def two_way_program():
    return TwoWayTestProgram()


@pytest.fixture
def one_way_program():
    return OneWayTestProgram()


class TestLookup:
    def test_all_models_present(self):
        assert {m.name for m in ALL_MODELS} == {
            "TW", "T1", "T2", "T3", "IT", "IO", "I1", "I2", "I3", "I4"
        }

    def test_get_model_case_insensitive(self):
        assert get_model("tw") is TW
        assert get_model("i3") is I3

    def test_get_model_unknown(self):
        with pytest.raises(KeyError):
            get_model("XYZ")

    def test_models_by_name_consistent(self):
        for name, model in MODELS_BY_NAME.items():
            assert model.name == name

    def test_str_and_repr(self):
        assert str(TW) == "TW"
        assert "I3" in repr(I3)


class TestTwoWayModels:
    def test_tw_non_omissive(self, two_way_program):
        result = TW.apply(two_way_program, "s", "r", NO_OMISSION)
        assert result == (("fs", "s", "r"), ("fr", "s", "r"))

    def test_tw_rejects_omissions(self, two_way_program):
        with pytest.raises(ModelError):
            TW.apply(two_way_program, "s", "r", REACTOR_OMISSION)

    def test_tw_rejects_one_way_program(self, one_way_program):
        with pytest.raises(ModelError):
            TW.apply(one_way_program, "s", "r")

    def test_t3_all_four_outcomes(self, two_way_program):
        assert T3.apply(two_way_program, "s", "r", NO_OMISSION) == (
            ("fs", "s", "r"), ("fr", "s", "r"))
        assert T3.apply(two_way_program, "s", "r", STARTER_OMISSION) == (
            ("o", "s"), ("fr", "s", "r"))
        assert T3.apply(two_way_program, "s", "r", REACTOR_OMISSION) == (
            ("fs", "s", "r"), ("h", "r"))
        assert T3.apply(two_way_program, "s", "r", FULL_OMISSION) == (
            ("o", "s"), ("h", "r"))

    def test_t2_reactor_cannot_detect(self, two_way_program):
        assert T2.apply(two_way_program, "s", "r", REACTOR_OMISSION) == (
            ("fs", "s", "r"), "r")
        assert T2.apply(two_way_program, "s", "r", STARTER_OMISSION) == (
            ("o", "s"), ("fr", "s", "r"))
        assert T2.apply(two_way_program, "s", "r", FULL_OMISSION) == (("o", "s"), "r")

    def test_t1_no_detection_at_all(self, two_way_program):
        assert T1.apply(two_way_program, "s", "r", STARTER_OMISSION) == (
            "s", ("fr", "s", "r"))
        assert T1.apply(two_way_program, "s", "r", REACTOR_OMISSION) == (
            ("fs", "s", "r"), "r")
        assert T1.apply(two_way_program, "s", "r", FULL_OMISSION) == ("s", "r")

    def test_two_way_program_without_handlers_defaults_to_identity(self):
        class Bare:
            def fs(self, starter, reactor):
                return "S"

            def fr(self, starter, reactor):
                return "R"

        assert T3.apply(Bare(), "s", "r", FULL_OMISSION) == ("s", "r")


class TestOneWayModels:
    def test_it_applies_g_and_f(self, one_way_program):
        assert IT.apply(one_way_program, "s", "r", NO_OMISSION) == (
            ("g", "s"), ("f", "s", "r"))

    def test_it_rejects_omissions(self, one_way_program):
        with pytest.raises(ModelError):
            IT.apply(one_way_program, "s", "r", REACTOR_OMISSION)

    def test_io_leaves_starter_untouched(self, one_way_program):
        assert IO.apply(one_way_program, "s", "r", NO_OMISSION) == ("s", ("f", "s", "r"))

    def test_one_way_models_reject_starter_side_omission(self, one_way_program):
        with pytest.raises(ModelError):
            I3.apply(one_way_program, "s", "r", STARTER_OMISSION)

    def test_i1_omission_outcome(self, one_way_program):
        assert I1.apply(one_way_program, "s", "r", REACTOR_OMISSION) == (("g", "s"), "r")

    def test_i2_omission_outcome(self, one_way_program):
        assert I2.apply(one_way_program, "s", "r", REACTOR_OMISSION) == (
            ("g", "s"), ("g", "r"))

    def test_i3_omission_outcome(self, one_way_program):
        assert I3.apply(one_way_program, "s", "r", REACTOR_OMISSION) == (
            ("g", "s"), ("h", "r"))

    def test_i4_omission_outcome(self, one_way_program):
        assert I4.apply(one_way_program, "s", "r", REACTOR_OMISSION) == (
            ("o", "s"), ("g", "r"))

    def test_omissive_one_way_non_omissive_case_matches_it(self, one_way_program):
        for model in (I1, I2, I3, I4):
            assert model.apply(one_way_program, "s", "r", NO_OMISSION) == IT.apply(
                one_way_program, "s", "r", NO_OMISSION
            )

    def test_one_way_models_reject_two_way_program(self, two_way_program):
        with pytest.raises(ModelError):
            IT.apply(two_way_program, "s", "r")


class TestTransitionRelations:
    def test_admissible_omissions_non_omissive_models(self):
        assert TW.admissible_omissions() == [NO_OMISSION]
        assert IT.admissible_omissions() == [NO_OMISSION]
        assert IO.admissible_omissions() == [NO_OMISSION]

    def test_admissible_omissions_one_way(self):
        assert I3.admissible_omissions() == [NO_OMISSION, REACTOR_OMISSION]

    def test_admissible_omissions_two_way(self):
        assert set(T3.admissible_omissions()) == {
            NO_OMISSION, STARTER_OMISSION, REACTOR_OMISSION, FULL_OMISSION}

    def test_relation_sizes_match_figure_1(self, one_way_program, two_way_program):
        # Figure 1 lists 4 outcomes for T3, 2 for each one-way omissive model.
        assert len(T3.transition_relation(two_way_program, "s", "r")) == 4
        for model in (I1, I2, I3, I4):
            assert len(model.transition_relation(one_way_program, "s", "r")) == 2
        assert len(TW.transition_relation(two_way_program, "s", "r")) == 1

    def test_io_relation_is_special_case_of_it(self):
        """With g = identity, the IO relation coincides with the IT relation."""

        class IdentityG(OneWayTestProgram):
            def g(self, starter):
                return starter

        program = IdentityG()
        assert IO.transition_relation(program, "s", "r") == IT.transition_relation(
            program, "s", "r"
        )

    def test_i1_relation_is_special_case_of_i3(self):
        """With h = identity, the I3 relation coincides with the I1 relation."""

        class IdentityH(OneWayTestProgram):
            def on_reactor_omission(self, reactor):
                return reactor

        program = IdentityH()
        assert I3.transition_relation(program, "s", "r") == I1.transition_relation(
            program, "s", "r"
        )

    def test_i2_relation_is_special_case_of_i3(self):
        """With h = g, the I3 relation coincides with the I2 relation."""

        class HEqualsG(OneWayTestProgram):
            def on_reactor_omission(self, reactor):
                return self.g(reactor)

        program = HEqualsG()
        assert I3.transition_relation(program, "s", "r") == I2.transition_relation(
            program, "s", "r"
        )

    def test_t1_relation_is_special_case_of_t3(self):
        """With o = h = identity, the T3 relation is contained in T1's closure."""

        class NoDetection(TwoWayTestProgram):
            def on_starter_omission(self, starter):
                return starter

            def on_reactor_omission(self, reactor):
                return reactor

        program = NoDetection()
        t3_relation = T3.transition_relation(program, "s", "r")
        t1_relation = T1.transition_relation(program, "s", "r")
        assert t3_relation == t1_relation


class TestMetadataFlags:
    @pytest.mark.parametrize("model", [IT, IO, I1, I2, I3, I4])
    def test_one_way_flags(self, model):
        assert model.one_way

    @pytest.mark.parametrize("model", [TW, T1, T2, T3])
    def test_two_way_flags(self, model):
        assert not model.one_way

    @pytest.mark.parametrize("model", [T1, T2, T3, I1, I2, I3, I4])
    def test_omissive_flags(self, model):
        assert model.allows_omissions

    @pytest.mark.parametrize("model", [TW, IT, IO])
    def test_non_omissive_flags(self, model):
        assert not model.allows_omissions

    def test_detection_capability_table(self):
        assert T3.starter_detects_omission and T3.reactor_detects_omission
        assert T2.starter_detects_omission and not T2.reactor_detects_omission
        assert not T1.starter_detects_omission and not T1.reactor_detects_omission
        assert not I3.starter_detects_omission and I3.reactor_detects_omission
        assert I4.starter_detects_omission and not I4.reactor_detects_omission
        assert not IO.starter_detects_proximity
        assert IT.starter_detects_proximity


#: Figure 1's outcome formulas for the test programs above, per model and
#: omission: ``(new_starter, new_reactor)`` as built by their g/f/fs/fr/o/h.
S, R = "s", "r"
ONE_WAY_OUTCOMES = {
    NO_OMISSION: {
        model: (S if model is IO else ("g", S), ("f", S, R))
        for model in (IT, IO, I1, I2, I3, I4)
    },
    REACTOR_OMISSION: {
        I1: (("g", S), R),
        I2: (("g", S), ("g", R)),
        I3: (("g", S), ("h", R)),
        I4: (("o", S), ("g", R)),
    },
}
TWO_WAY_OUTCOMES = {
    NO_OMISSION: {model: (("fs", S, R), ("fr", S, R)) for model in (TW, T1, T2, T3)},
    STARTER_OMISSION: {T1: (S, ("fr", S, R)), T2: (("o", S), ("fr", S, R)),
                       T3: (("o", S), ("fr", S, R))},
    REACTOR_OMISSION: {T1: (("fs", S, R), R), T2: (("fs", S, R), R),
                       T3: (("fs", S, R), ("h", R))},
    FULL_OMISSION: {T1: (S, R), T2: (("o", S), R), T3: (("o", S), ("h", R))},
}


class TestBind:
    """``bind`` resolves a program once; its step is the model's transition."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=str)
    @pytest.mark.parametrize("program", [TwoWayTestProgram(), OneWayTestProgram()],
                             ids=["two-way", "one-way"])
    def test_bound_step_equals_apply_and_figure_1(self, model, program):
        outcomes = ONE_WAY_OUTCOMES if model.one_way else TWO_WAY_OUTCOMES
        if model.one_way != isinstance(program, OneWayTestProgram):
            with pytest.raises(ModelError):
                model.bind(program)
            return
        step = model.bind(program)
        for omission in model.admissible_omissions():
            bound = step(S, R, omission)
            assert bound == model.apply(program, S, R, omission)
            assert bound == outcomes[omission][model]

    @pytest.mark.parametrize("model", ALL_MODELS, ids=str)
    def test_equal_non_omission_is_not_omissive(self, model):
        program = OneWayTestProgram() if model.one_way else TwoWayTestProgram()
        step = model.bind(program)
        assert step(S, R, Omission(False, False)) == step(S, R, NO_OMISSION)

    @pytest.mark.parametrize("model,omission", [
        (I3, STARTER_OMISSION),
        (I4, FULL_OMISSION),
        (IO, REACTOR_OMISSION),
        (IT, REACTOR_OMISSION),
        (TW, STARTER_OMISSION),
    ], ids=lambda value: str(value))
    def test_bound_step_still_validates_omissions(self, model, omission):
        program = OneWayTestProgram() if model.one_way else TwoWayTestProgram()
        step = model.bind(program)
        with pytest.raises(ModelError):
            step(S, R, omission)

    def test_program_without_f_is_rejected_at_bind_time(self):
        class OnlyG:
            def g(self, starter):
                return starter

        with pytest.raises(ModelError):
            I3.bind(OnlyG())

    @pytest.mark.parametrize("missing", ["fs", "fr"])
    def test_program_without_fs_or_fr_is_rejected_at_bind_time(self, missing):
        class Partial:
            pass

        other = "fr" if missing == "fs" else "fs"
        setattr(Partial, other, lambda self, s, r: s)
        with pytest.raises(ModelError):
            TW.bind(Partial())
