"""Unit tests for Interaction and Run datatypes."""

import pytest

from repro.interaction.omissions import NO_OMISSION, REACTOR_OMISSION, Omission
from repro.scheduling.runs import Interaction, Run


class TestInteraction:
    def test_basic_construction(self):
        interaction = Interaction(0, 1)
        assert interaction.pair == (0, 1)
        assert not interaction.is_omissive

    def test_self_interaction_rejected(self):
        with pytest.raises(ValueError):
            Interaction(2, 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Interaction(-1, 0)

    def test_omissive_flag(self):
        interaction = Interaction(0, 1, omission=REACTOR_OMISSION)
        assert interaction.is_omissive

    def test_involves(self):
        interaction = Interaction(2, 5)
        assert interaction.involves(2)
        assert interaction.involves(5)
        assert not interaction.involves(3)

    def test_relabel(self):
        interaction = Interaction(0, 1, omission=REACTOR_OMISSION)
        relabeled = interaction.relabel({0: 4, 1: 5})
        assert relabeled.pair == (4, 5)
        assert relabeled.is_omissive

    def test_relabel_partial_mapping(self):
        assert Interaction(0, 1).relabel({0: 9}).pair == (9, 1)

    def test_str_mentions_omission(self):
        assert "omission" in str(Interaction(0, 1, omission=REACTOR_OMISSION))
        assert "omission" not in str(Interaction(0, 1))

    def test_hashable_and_frozen(self):
        assert len({Interaction(0, 1), Interaction(0, 1)}) == 1


class TestOmission:
    def test_no_omission_properties(self):
        assert not NO_OMISSION.is_omissive

    def test_full_omission(self):
        omission = Omission(True, True)
        assert omission.is_omissive

    def test_str(self):
        assert str(NO_OMISSION) == "no-omission"
        assert "starter" in str(Omission(starter_lost=True))
        assert "reactor" in str(Omission(reactor_lost=True))


class TestRun:
    def test_empty_run(self):
        run = Run()
        assert len(run) == 0
        assert run.omission_count() == 0
        assert run.agents() == ()

    def test_from_pairs(self):
        run = Run.from_pairs([(0, 1), (1, 2)])
        assert len(run) == 2
        assert run[0] == Interaction(0, 1)

    def test_indexing_and_slicing(self):
        run = Run.from_pairs([(0, 1), (1, 2), (2, 0)])
        assert run[1].pair == (1, 2)
        assert isinstance(run[:2], Run)
        assert len(run[:2]) == 2

    def test_omission_count(self):
        run = Run([Interaction(0, 1), Interaction(1, 0, omission=REACTOR_OMISSION)])
        assert run.omission_count() == 1

    def test_agents(self):
        run = Run.from_pairs([(0, 3), (3, 5)])
        assert run.agents() == (0, 3, 5)

    def test_append_and_extend_are_pure(self):
        run = Run.from_pairs([(0, 1)])
        longer = run.append(Interaction(1, 2)).extend([Interaction(2, 0)])
        assert len(run) == 1
        assert len(longer) == 3

    def test_concatenate(self):
        first = Run.from_pairs([(0, 1)])
        second = Run.from_pairs([(1, 2)])
        assert len(first.concatenate(second)) == 2

    def test_insert(self):
        run = Run.from_pairs([(0, 1), (1, 2)])
        inserted = run.insert(1, [Interaction(2, 3)])
        assert [i.pair for i in inserted] == [(0, 1), (2, 3), (1, 2)]

    def test_relabel(self):
        run = Run.from_pairs([(0, 1)])
        assert run.relabel({0: 7, 1: 8})[0].pair == (7, 8)

    def test_equality_and_hash(self):
        assert Run.from_pairs([(0, 1)]) == Run.from_pairs([(0, 1)])
        assert len({Run.from_pairs([(0, 1)]), Run.from_pairs([(0, 1)])}) == 1

    def test_repr_contains_length(self):
        assert "len=2" in repr(Run.from_pairs([(0, 1), (1, 0)]))
