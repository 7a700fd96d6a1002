"""The run-length form of a configuration is the per-agent value.

``Configuration.from_runs`` holds an input of constant blocks as
``((state, count), ...)`` runs, and every catalog input is built that
way.  The references below are the per-agent lists those inputs used to
be built from; the run form must materialise to exactly them and behave
as the tuple form does under every read, update and round trip.  The
array backend's initial code array must equal a per-agent encode.

The memory guards are deterministic (tracemalloc, no timing): planning a
campaign grid at n = 10^6 and setting up an array run at n = 10^6 must
each stay below one pointer per agent, so neither may hold a per-agent
Python container.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import numpy
except ImportError:
    numpy = None

from repro.protocols.catalog import CATALOG, get_protocol
from repro.protocols.registry import ExperimentSpec, default_initial_configuration
from repro.protocols.state import Configuration, MutableConfiguration

PROTOCOL_NAMES = sorted(CATALOG)


def per_agent_reference(protocol, n, ones):
    """The per-agent list each catalog input was built from."""
    name = protocol.name
    majority_a = n // 2 + 1
    if name == "pairing":
        return ["c"] * (n // 2) + ["p"] * (n - n // 2)
    if name == "leader-election":
        return ["L"] * n
    if name in ("exact-majority", "approximate-majority"):
        return ["A"] * majority_a + ["B"] * (n - majority_a)
    if name.startswith("threshold") or name.startswith("mod-") or name == "parity":
        count = ones if ones is not None else majority_a
        return ([protocol.initial_state(1)] * count
                + [protocol.initial_state(0)] * (n - count))
    if name in ("or", "and"):
        count = ones if ones is not None else 1
        return [1] * count + [0] * (n - count)
    if name.startswith("averaging"):
        return [(i * 3) % (protocol.max_value + 1) for i in range(n)]
    if name == "epidemic":
        return ["I"] + ["S"] * (n - 1)
    raise KeyError(name)


@st.composite
def cells(draw):
    """A catalog protocol, a population n in 2..64 and an input split."""
    name = draw(st.sampled_from(PROTOCOL_NAMES))
    n = draw(st.integers(min_value=2, max_value=64))
    ones = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n)))
    return name, n, ones


def both_forms(cell):
    """A fresh run-form build, its reference tuple and the tuple form."""
    name, n, ones = cell
    protocol = get_protocol(name)
    reference = tuple(per_agent_reference(protocol, n, ones))
    return (default_initial_configuration(protocol, n, ones=ones),
            reference, Configuration(reference))


class TestRunFormEqualsTupleForm:
    @settings(max_examples=150, deadline=None)
    @given(cells())
    def test_materialises_to_the_per_agent_tuple(self, cell):
        built, reference, _ = both_forms(cell)
        assert built.states == reference
        assert [type(state) for state in built.states] == [
            type(state) for state in reference]
        if built.runs() is None:
            assert cell[0] == "averaging"
        else:
            assert tuple(state for state, count in built.runs()
                         for _ in range(count)) == reference
        assert Configuration(reference).runs() is None

    @settings(max_examples=150, deadline=None)
    @given(cells())
    def test_equality_hash_and_repr(self, cell):
        built, reference, tupled = both_forms(cell)
        assert built == tupled and tupled == built
        assert built == reference and reference == built
        assert built == both_forms(cell)[0]
        assert hash(both_forms(cell)[0]) == hash(tupled) == hash(reference)
        assert repr(both_forms(cell)[0]) == repr(tupled)
        other = tupled.replace(0, "not-a-state")
        assert built != other and other != built
        assert built != reference[:-1] and built != tupled.states[1:]

    @settings(max_examples=150, deadline=None)
    @given(cells(), st.data())
    def test_reads(self, cell, data):
        built, reference, tupled = both_forms(cell)
        assert len(built) == len(tupled)
        assert list(built) == list(tupled)
        index = data.draw(st.integers(min_value=-len(reference),
                                      max_value=len(reference) - 1))
        assert built[index] == tupled[index]
        assert built[1:-1] == tupled[1:-1]
        for state in set(reference) | {"absent"}:
            assert built.count(state) == tupled.count(state)
            assert built.count_if(lambda s: s == state) == tupled.count_if(
                lambda s: s == state)
        assert list(built.histogram().items()) == list(tupled.histogram().items())
        assert built.multiset() == tupled.multiset()
        assert built.same_multiset(tupled) and tupled.same_multiset(built)
        assert built.project(repr) == tupled.project(repr)

    @settings(max_examples=150, deadline=None)
    @given(cells(), st.data())
    def test_updates(self, cell, data):
        built, reference, tupled = both_forms(cell)
        index = data.draw(st.integers(min_value=0, max_value=len(reference) - 1))
        assert built.replace(index, "x") == tupled.replace(index, "x")
        updates = data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=len(reference) - 1),
            st.sampled_from(["x", "y"]), max_size=4))
        assert built.replace_many(updates).states == tupled.replace_many(updates).states
        with pytest.raises(IndexError):
            built.replace(len(reference), "x")

    @settings(max_examples=150, deadline=None)
    @given(cells())
    def test_pickle_and_mutable_buffer(self, cell):
        built, reference, tupled = both_forms(cell)
        for protocol_version in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(built, protocol_version))
            assert type(restored) is Configuration
            assert restored == tupled and repr(restored) == repr(tupled)
            assert restored.runs() == built.runs()
        assert MutableConfiguration(built) == MutableConfiguration(tupled)
        assert MutableConfiguration(built).states == reference

    def test_constructors_drop_empty_runs_and_reject_negative_counts(self):
        assert Configuration.from_runs((("a", 0), ("b", 2), ("c", 0))).runs() == (
            ("b", 2),)
        assert Configuration.from_runs(()) == Configuration([]) == ()
        with pytest.raises(ValueError, match="negative multiplicity for state 'a'"):
            Configuration.from_runs((("a", -1),))
        assert Configuration.uniform("x", 3).runs() == (("x", 3),)
        assert Configuration.from_counts({"a": 2, "b": 0}).runs() == (("a", 2),)


needs_numpy = pytest.mark.skipif(numpy is None, reason="the array backend needs numpy")


@needs_numpy
class TestArrayPristineCodes:
    @settings(max_examples=100, deadline=None)
    @given(cells())
    def test_equal_a_per_agent_encode(self, cell):
        from repro.engine.backends import array_backend
        from repro.engine.backends.array_backend import BackendCompileError

        name, n, ones = cell
        built = ExperimentSpec(protocol=name, population=n, ones=ones).build()
        try:
            _, compiled, _, codes, _, _ = array_backend._set_up_run(
                built.program, built.model, built.make_scheduler(0), None,
                built.initial_configuration, 10, "counts-only", None)
        except BackendCompileError:
            return
        reference = per_agent_reference(built.protocol, n, ones)
        assert codes.dtype == numpy.int32
        assert codes.tolist() == compiled.interner.encode_all(reference)


# ---------------------------------------------------------------------------
# memory guards
# ---------------------------------------------------------------------------

#: The guard population, and the bound: one pointer per agent.  Any
#: per-agent Python container (a tuple, a list of codes) is at least this
#: large on its own.
N = 10 ** 6
BOUND_BYTES = 8 * N

#: The array-fanout benchmark grid (epidemic and leader election on TW
#: and I3 under three adversaries, auto backend) at n = 10^6.
GRID = {
    "name": "grid-1e6",
    "base": {"population": N, "backend": "auto"},
    "axes": {
        "protocol": ["epidemic", "leader-election"],
        "model": ["TW", "I3"],
        "adversary": [
            {"label": "none", "omissions": 0},
            {"label": "bounded", "adversary": "bounded", "omissions": 2000},
            {"label": "uo", "adversary": "uo", "omissions": 1},
        ],
    },
    "runs": 4,
    "base_seed": 1,
    "max_steps": 300000,
    "stability_window": 0,
    "report": {"rows": "model", "cols": "adversary"},
}

PLAN_SCRIPT = """\
import sys, tracemalloc
{prelude}
from repro.campaign import planner, spec
import repro.engine.experiment
try:
    import repro.engine.backends.array_backend
except ImportError:
    pass
from repro.protocols.registry import build_cached
campaign = spec.campaign_from_dict({grid})
tracemalloc.start()
plan = planner.plan_campaign(campaign)
builds = [build_cached(cell.build_spec()) for cell in plan.cells
          if cell.skip_reason is None]
print(len(plan.cells), len(builds), tracemalloc.get_traced_memory()[1])
"""


class TestMemoryGuards:
    @pytest.mark.parametrize("prelude", [
        "", "sys.modules['numpy'] = None"], ids=["numpy", "no-numpy"])
    def test_planning_and_building_a_grid_at_a_million_agents(self, prelude):
        # A fresh interpreter: the per-process build and compile caches
        # start empty, and numpy can be hidden before anything imports it.
        # With numpy the planner's auto probes build every cell; without
        # it nothing is built until a run, so the script builds each cell.
        script = PLAN_SCRIPT.format(prelude=prelude, grid=json.dumps(GRID))
        completed = subprocess.run(
            [sys.executable, "-c", script], check=True,
            capture_output=True, text=True, timeout=300)
        cells, builds, peak = map(int, completed.stdout.split())
        assert (cells, builds) == (12, 8)
        assert peak < BOUND_BYTES, f"planning peaked at {peak} bytes"

    @needs_numpy
    def test_array_set_up_holds_no_per_agent_container(self):
        from repro.engine.backends import array_backend

        built = ExperimentSpec(protocol="epidemic", population=N,
                               backend="array").build()
        args = (built.program, built.model)
        rest = (None, built.initial_configuration, 1000, "counts-only", None)
        array_backend._compile_cached(*args)
        scheduler = built.make_scheduler(1)
        tracemalloc.start()
        try:
            codes = array_backend._set_up_run(*args, scheduler, *rest)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(codes) == N
        assert peak < BOUND_BYTES, f"set-up peaked at {peak} bytes"
