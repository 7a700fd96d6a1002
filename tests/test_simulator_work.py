"""Deterministic work counter for the paper's simulators.

Every timed guard in ``benchmarks/`` times the epidemic, and a paired guard
cannot see a simulator slowdown because both of its sides run the same
simulator.  So this file counts the work instead: one seeded, counts-only
run of 10,000 steps at n = 6 for each of ``SKnO`` (``I3``, o = 2, the
bounded adversary with 2 omissions), ``SID`` and ``Nn`` (both on ``IO``).

* **Calls.** Every Python-level call of a named function defined under
  ``repro/core/`` is counted per function, and the table must match
  exactly.  Comprehension and generator frames are left out: Python 3.12
  inlines comprehensions, so their frames are not comparable across
  versions.  A new helper call per step, or an extra receive, changes a
  count.
* **Blocks.** ``tracemalloc`` counts the blocks the run allocated and still
  holds when it returns, and its traced peak.  Both differ by a few blocks
  between Python 3.10 and 3.12, so they are checked against ceilings
  about half again the largest reading, which a per-step or per-chunk
  leak exceeds at once.

A change that is meant to alter the simulators' work updates ``CALLS``
here, with the before/after numbers in ``docs/performance.md``.
"""

from __future__ import annotations

import collections
import os
import sys
import tracemalloc
from typing import Dict

import pytest

import repro.core
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.protocols.registry import ExperimentSpec

STEPS = 10_000
SEED = 1
CORE = os.path.dirname(repro.core.__file__) + os.sep

SPECS = {
    "skno": ExperimentSpec(protocol="pairing", population=6, model="I3", simulator="skno",
                           omission_bound=2, omissions=2, adversary="bounded"),
    "sid": ExperimentSpec(protocol="pairing", population=6, model="IO", simulator="sid"),
    "nn": ExperimentSpec(protocol="pairing", population=6, model="IO", simulator="known-n"),
}

#: Calls per function (``file:name``) in one run, the same on CPython 3.10-3.12.
CALLS: Dict[str, Dict[str, int]] = {
    "skno": {
        "base.py:delta": 163,
        "skno.py:_best_run": 1587,
        "skno.py:_change_run": 163,
        "skno.py:_consume": 240,
        "skno.py:_index": 1664,
        "skno.py:_receive": 10000,
        "skno.py:_state": 15365,
        "skno.py:_state_run": 480,
        "skno.py:_without": 240,
        "skno.py:f": 9998,
        "skno.py:g": 10000,
        "skno.py:on_reactor_omission": 2,
    },
    "sid": {
        "base.py:delta": 559,
        "base.py:f": 10000,
        "sid.py:_observe": 10000,
    },
    "nn": {
        "base.py:delta": 562,
        "base.py:f": 10000,
        "naming.py:_observe": 10000,
        "naming.py:_starter_id_and_max": 80,
        "sid.py:_observe": 9909,
    },
}

#: Ceilings over 18-35 blocks held and a 13.3-20.1 kB traced peak, read on
#: CPython 3.10, 3.11 and 3.12 (the second run of a build).
MAX_HELD_BLOCKS = 48
MAX_PEAK_BYTES = 30_000


def runner(name: str):
    """Seeded counts-only runs of ``STEPS`` steps on one build of ``SPECS[name]``."""
    built = SPECS[name].build()

    def execute():
        engine = SimulationEngine(built.program, built.model, built.make_scheduler(SEED),
                                  adversary=built.make_adversary(SEED))
        return run_until_stable(engine, built.initial_configuration, None,
                                max_steps=STEPS, trace_policy="counts-only")
    return execute


@pytest.mark.parametrize("name", sorted(SPECS))
def test_core_calls_per_run_are_pinned(name):
    execute = runner(name)
    counts: Dict[str, int] = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(CORE) and not code.co_name.startswith("<"):
                counts[f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        result = execute()
    finally:
        sys.setprofile(None)
    assert result.steps_executed == STEPS
    assert dict(counts) == CALLS[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_blocks_held_and_peak_stay_under_their_ceilings(name):
    execute = runner(name)
    execute()  # fills the simulator's per-build token memos
    tracemalloc.start()
    try:
        result = execute()
        peak = tracemalloc.get_traced_memory()[1]
        held = sum(stat.count for stat in tracemalloc.take_snapshot().statistics("filename"))
    finally:
        tracemalloc.stop()
    assert result.steps_executed == STEPS
    assert held <= MAX_HELD_BLOCKS
    assert peak <= MAX_PEAK_BYTES
