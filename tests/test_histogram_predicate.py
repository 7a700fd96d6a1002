"""The set-valued stable-output predicates are delta-driven and exact.

``prepare_stable_output_predicate`` expresses two criteria that are not
state counts — the averaging spread ("values differ by at most one") and
the unanimity fallback ("every output is the same", e.g. ``and``) — as
:class:`~repro.engine.fastpath.HistogramPredicate` instances, which fold
step deltas into a histogram instead of rescanning all n agents.  The
references below are the configuration callables they replaced; on
random configurations and delta sequences both must agree at every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.planner import plan_campaign
from repro.campaign.spec import campaign_from_dict
from repro.core.trivial import TrivialTwoWaySimulator
from repro.engine.fastpath import HistogramPredicate
from repro.protocols.catalog import CATALOG, get_protocol
from repro.protocols.registry import (
    default_initial_configuration,
    prepare_stable_output_predicate,
)
from repro.protocols.state import Configuration


def _prepared(name: str, simulator, initial):
    protocol = get_protocol(name)
    return prepare_stable_output_predicate(simulator, protocol, initial)()


#: The catalog protocols whose stable-output criterion is set-valued.
HISTOGRAM_PROTOCOLS = sorted(
    name for name in CATALOG
    if isinstance(_prepared(
        name, TrivialTwoWaySimulator(get_protocol(name)),
        default_initial_configuration(get_protocol(name), 6)),
        HistogramPredicate))


class Tagged:
    """A simulator stand-in: states are ``(protocol state, tag)`` pairs, so
    distinct simulator states project to one protocol state."""

    @staticmethod
    def project(state):
        return state[0]


def spread_rescan(project):
    def spread_at_most_one(c) -> bool:
        return max(project(s) for s in c) - min(project(s) for s in c) <= 1
    return spread_at_most_one


def unanimity_rescan(project, output):
    def unanimous_output(c) -> bool:
        return len({output(project(s)) for s in c}) == 1
    return unanimous_output


def rescan_for(protocol):
    if protocol.name.startswith("averaging"):
        return spread_rescan(Tagged.project)
    return unanimity_rescan(Tagged.project, protocol.output)


@st.composite
def runs(draw):
    """A protocol, a tagged configuration and a sequence of interactions,
    each ``(starter, reactor, starter_post, reactor_post)``."""
    name = draw(st.sampled_from(HISTOGRAM_PROTOCOLS))
    protocol = get_protocol(name)
    values = sorted(protocol.states, key=repr)
    state = st.tuples(st.sampled_from(values), st.integers(0, 2))
    n = draw(st.integers(min_value=2, max_value=12))
    configuration = draw(st.lists(state, min_size=n, max_size=n))
    steps = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), state, state),
        max_size=40))
    return protocol, configuration, [
        (starter, (starter + offset) % n, starter_post, reactor_post)
        for starter, offset, starter_post, reactor_post in steps]


def test_the_set_valued_protocols_are_the_expected_ones():
    assert HISTOGRAM_PROTOCOLS == ["and", "approximate-majority", "averaging"]


@settings(max_examples=300, deadline=None)
@given(runs())
def test_agrees_with_the_rescan_at_every_step(run):
    protocol, configuration, steps = run
    initial = Configuration(Tagged.project(state) for state in configuration)
    predicate = prepare_stable_output_predicate(Tagged, protocol, initial)()
    assert isinstance(predicate, HistogramPredicate)
    assert predicate.as_state_count() is None
    rescan = rescan_for(protocol)
    assert predicate.reset(configuration) == rescan(configuration)
    for starter, reactor, starter_post, reactor_post in steps:
        # The deltas run_until_stable hands an incremental predicate.
        starter_pre, reactor_pre = configuration[starter], configuration[reactor]
        configuration[starter] = starter_post
        configuration[reactor] = reactor_post
        deltas = ()
        if starter_pre != starter_post:
            deltas = ((starter, starter_pre, starter_post),)
        if reactor_pre != reactor_post:
            deltas += ((reactor, reactor_pre, reactor_post),)
        assert predicate.update(deltas) == rescan(configuration)


def test_each_run_gets_a_fresh_histogram():
    protocol = get_protocol("averaging")
    make = prepare_stable_output_predicate(
        Tagged, protocol, Configuration([0, 4]))
    first, second = make(), make()
    assert first is not second
    assert not first.reset([(0, 0), (4, 0)])
    assert second.reset([(2, 0), (2, 1)])
    assert not first.update(())


def test_the_array_backend_rejects_it_by_class_name():
    pytest.importorskip("numpy")
    plan = plan_campaign(campaign_from_dict({
        "name": "fallback",
        "base": {"population": 8, "backend": "auto"},
        "axes": {"protocol": ["and", "averaging"]},
        "runs": 1,
        "max_steps": 100,
    }))
    assert {dict(cell.fields)["backend"] for cell in plan.cells} == {"python"}
    for cell in plan.cells:
        assert cell.backend_reason.startswith(
            "predicate HistogramPredicate cannot be compiled for the array "
            "backend")
