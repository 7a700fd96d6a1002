"""Interaction-graph-restricted scheduling.

The basic PP model assumes a complete interaction graph: any two agents may
meet.  A standard refinement (already present in the original population
protocol papers and in the mediated/graph-restricted variants cited by the
paper) restricts interactions to the edges of an *interaction graph* ``G``:
only adjacent agents can ever meet.  Global fairness is then relative to the
schedules admissible on ``G``, and stabilisation results require ``G`` to be
connected.

This module provides:

* :class:`GraphScheduler` — a uniform random scheduler over the ordered pairs
  induced by a ``networkx`` graph (each undirected edge yields both
  orientations);
* :func:`complete_graph_scheduler`, :func:`ring_scheduler`,
  :func:`star_scheduler`, :func:`random_graph_scheduler` — convenience
  constructors for common topologies used in experiments;
* :func:`validate_interaction_graph` — the sanity checks (simple, connected,
  at least two nodes, nodes labelled 0..n-1) that every topology must pass
  before being used for a population of ``n`` agents.

The simulators of :mod:`repro.core` are topology-agnostic: they only see a
stream of interactions, so they run unchanged on restricted topologies —
which is useful for studying how much slower ``SKnO``'s token dissemination
or ``SID``'s pairing become on sparse graphs.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import networkx as nx

from repro.scheduling.runs import Interaction
from repro.scheduling.scheduler import Columns, Scheduler


class InteractionGraphError(Exception):
    """Raised when an interaction graph is unusable for a population."""


def validate_interaction_graph(graph: nx.Graph, n: int) -> None:
    """Check that ``graph`` is a valid interaction graph for ``n`` agents.

    Requirements: exactly the nodes ``0 .. n-1``, no self-loops, at least one
    edge, and connectivity (otherwise agents in different components can
    never exchange information and no protocol can stabilise globally).
    """
    if n < 2:
        raise InteractionGraphError("a population needs at least two agents")
    expected_nodes = set(range(n))
    if set(graph.nodes) != expected_nodes:
        raise InteractionGraphError(
            f"interaction graph must have exactly the nodes 0..{n - 1}")
    if any(graph.has_edge(node, node) for node in graph.nodes):
        raise InteractionGraphError("interaction graph must not contain self-loops")
    if graph.number_of_edges() == 0:
        raise InteractionGraphError("interaction graph must contain at least one edge")
    if not nx.is_connected(graph):
        raise InteractionGraphError(
            "interaction graph must be connected for global stabilisation to be possible")


class GraphScheduler(Scheduler):
    """Uniform random scheduler over the ordered pairs of an interaction graph.

    Each step draws an edge uniformly at random and then an orientation
    uniformly at random, so every admissible ordered pair has the same
    probability; over infinite runs this is globally fair *relative to the
    graph* with probability 1.

    Batched draws (:meth:`next_columns`) are vectorized and bitwise
    identical to the per-step stream; the scheduler never exhausts.
    """

    def __init__(self, graph: nx.Graph, seed: Optional[int] = None) -> None:
        n = graph.number_of_nodes()
        validate_interaction_graph(graph, n)
        self.graph = graph
        self.n = n
        self._edges: List[Tuple[int, int]] = [tuple(sorted(edge)) for edge in graph.edges]
        # Accept-reject bit width for the inlined batched draw:
        # Random.choice(seq) draws getrandbits(len(seq).bit_length()) until
        # the result indexes the sequence.
        self._edge_bits = len(self._edges).bit_length()
        self._seed = seed
        self._rng = random.Random(seed)
        self._bind_rng()

    def _bind_rng(self) -> None:
        self._getrandbits = self._rng.getrandbits
        self._random = self._rng.random

    def next_interaction(self, step: int) -> Interaction:
        first, second = self._rng.choice(self._edges)
        if self._rng.random() < 0.5:
            return Interaction(first, second)
        return Interaction(second, first)

    def next_columns(self, step: int, k: int) -> Columns:
        """Draw ``k`` graph-admissible ordered pairs in one call (never short).

        Bitwise identical to ``k`` calls of :meth:`next_interaction`: the
        loop inlines ``Random.choice``'s accept-reject index sampling
        (``getrandbits(bits)`` redrawn while it overshoots the edge list)
        followed by the orientation coin, consuming exactly the per-step
        RNG stream — pinned by the batched equivalence tests.
        """
        getrandbits = self._getrandbits
        rng_random = self._random
        edges = self._edges
        edge_count = len(edges)
        edge_bits = self._edge_bits
        starters: List[int] = []
        reactors: List[int] = []
        add_starter = starters.append
        add_reactor = reactors.append
        for _ in range(k):
            r = getrandbits(edge_bits)
            while r >= edge_count:
                r = getrandbits(edge_bits)
            first, second = edges[r]
            if rng_random() < 0.5:
                add_starter(first)
                add_reactor(second)
            else:
                add_starter(second)
                add_reactor(first)
        return starters, reactors, None

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._bind_rng()
        self._drop_array_kernel()

    def ordered_pairs(self) -> List[Tuple[int, int]]:
        """All ordered pairs this scheduler can ever produce."""
        pairs = []
        for first, second in self._edges:
            pairs.append((first, second))
            pairs.append((second, first))
        return sorted(pairs)


def complete_graph_scheduler(n: int, seed: Optional[int] = None) -> GraphScheduler:
    """The unrestricted case: every pair of agents may interact."""
    return GraphScheduler(nx.complete_graph(n), seed=seed)


def ring_scheduler(n: int, seed: Optional[int] = None) -> GraphScheduler:
    """Agents arranged on a cycle; each agent meets only its two neighbours."""
    return GraphScheduler(nx.cycle_graph(n), seed=seed)


def star_scheduler(n: int, seed: Optional[int] = None) -> GraphScheduler:
    """A hub-and-spoke topology: agent 0 is adjacent to everyone else."""
    return GraphScheduler(nx.star_graph(n - 1), seed=seed)


def random_graph_scheduler(
    n: int, edge_probability: float = 0.5, seed: Optional[int] = None,
    max_attempts: int = 100,
) -> GraphScheduler:
    """A connected Erdős–Rényi interaction graph.

    Graphs are redrawn (up to ``max_attempts`` times) until a connected one is
    found; a :class:`InteractionGraphError` is raised otherwise.
    """
    if not 0.0 < edge_probability <= 1.0:
        raise InteractionGraphError("edge_probability must lie in (0, 1]")
    rng = random.Random(seed)
    for attempt in range(max_attempts):
        graph = nx.gnp_random_graph(n, edge_probability, seed=rng.randrange(2**31))
        if graph.number_of_edges() > 0 and nx.is_connected(graph):
            return GraphScheduler(graph, seed=seed)
    raise InteractionGraphError(
        f"could not draw a connected graph on {n} nodes with p={edge_probability} "
        f"after {max_attempts} attempts")
