"""Memory accounting for simulator states.

Theorem 4.1 states that ``SKnO`` needs ``Theta(log n * |Q_P| * (o + 1))``
bits per agent, Corollary 1 specialises this to ``Theta(|Q_P| log n)`` bits
for ``IT`` (``o = 0``), and Theorem 4.6 adds ``Theta(log n)`` bits on top of
``SID`` for the naming phase.  This module provides a structural bit-count
for arbitrary (nested, immutable) agent states so those bounds can be
checked empirically: benchmarks measure the maximum per-agent state size
observed along executions and compare its growth in ``n`` and ``o`` against
the stated bounds.

The encoding is deliberately simple and deterministic (it is a measuring
stick, not a wire format): integers cost their bit length, booleans and
``None`` one bit, strings eight bits per character, and containers /
dataclasses cost the sum of their fields plus two bits of structure per
element.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Iterable, List, Sequence

from repro.protocols.protocol import PopulationProtocol, ProtocolError
from repro.protocols.state import Configuration


def state_bits(state: Any) -> int:
    """Approximate number of bits needed to encode ``state`` structurally."""
    if state is None:
        return 1
    if isinstance(state, bool):
        return 1
    if isinstance(state, int):
        return max(1, state.bit_length() + 1)
    if isinstance(state, float):
        return 64
    if isinstance(state, str):
        return max(1, 8 * len(state))
    if isinstance(state, (bytes, bytearray)):
        return max(1, 8 * len(state))
    if dataclasses.is_dataclass(state) and not isinstance(state, type):
        total = 2
        for field in dataclasses.fields(state):
            total += 2 + state_bits(getattr(state, field.name))
        return total
    if isinstance(state, (tuple, list, frozenset, set)):
        total = 2
        for item in state:
            total += 2 + state_bits(item)
        return total
    if isinstance(state, dict):
        total = 2
        for key, value in state.items():
            total += 2 + state_bits(key) + state_bits(value)
        return total
    # Fallback: encode the repr.
    return max(1, 8 * len(repr(state)))


def max_bits_per_agent(configurations: Iterable[Configuration]) -> int:
    """Maximum per-agent state size (bits) observed over a sequence of configurations."""
    maximum = 0
    for configuration in configurations:
        for state in configuration:
            maximum = max(maximum, state_bits(state))
    return maximum


def skno_state_bound_bits(protocol: PopulationProtocol, n: int, omission_bound: int) -> int:
    """The Theorem 4.1 bound ``Theta(log n * |Q_P| * (o + 1))`` with constant 1.

    Intuition: an agent may hold up to the order of ``|Q_P| * (o + 1)``
    tokens, and the token population per run is bounded by a counter of
    ``log n`` bits' worth of positional information.  The benchmark compares
    observed per-agent sizes against this expression to check the *growth
    shape* (linear in ``o + 1``, logarithmic in ``n``), not the constant.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if omission_bound < 0:
        raise ValueError("omission_bound must be non-negative")
    if not protocol.is_finite_state:
        raise ProtocolError("the bound is stated for finite-state protocols")
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    return log_n * protocol.state_count() * (omission_bound + 1)


def sid_state_bound_bits(protocol: PopulationProtocol, n: int) -> int:
    """Per-agent bound for ``SID``/``Nn+SID``: ``Theta(log n)`` plus one simulated state.

    ``SID`` stores two ids (its own and its partner's) and two simulated
    states, so its per-agent footprint is ``O(log n + log |Q_P|)`` bits.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not protocol.is_finite_state:
        raise ProtocolError("the bound is stated for finite-state protocols")
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    log_q = max(1, math.ceil(math.log2(max(2, protocol.state_count()))))
    return 2 * log_n + 2 * log_q
