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
  induced by an undirected graph (each edge yields both orientations): a
  ``networkx`` graph or a :class:`Topology`, anything with ``nodes`` and
  ``edges``;
* :func:`complete_graph_scheduler`, :func:`ring_scheduler`,
  :func:`star_scheduler`, :func:`random_graph_scheduler` — convenience
  constructors for common topologies used in experiments.  The first three
  build a :class:`Topology` whose edges come in exactly the order of
  networkx's ``complete_graph``/``cycle_graph``/``star_graph`` (so every
  seeded draw is the one those graphs give) without importing networkx;
  only the Erdős–Rényi draw loads it;
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
from itertools import chain, combinations
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.scheduling.runs import Interaction
from repro.scheduling.scheduler import Columns, Scheduler

if TYPE_CHECKING:
    import networkx as nx


class InteractionGraphError(Exception):
    """Raised when an interaction graph is unusable for a population."""


class Topology(NamedTuple):
    """An undirected graph on the nodes ``0 .. n-1``, given by its edge list."""

    nodes: range
    edges: List[Tuple[int, int]]


#: What :class:`GraphScheduler` accepts: a built-in topology or a
#: caller-built ``networkx`` graph.
InteractionGraph = Union[Topology, "nx.Graph"]


def validate_interaction_graph(graph: InteractionGraph, n: int) -> None:
    """Check that ``graph`` is a valid interaction graph for ``n`` agents.

    Requirements: exactly the nodes ``0 .. n-1``, no self-loops, at least one
    edge, and connectivity (otherwise agents in different components can
    never exchange information and no protocol can stabilise globally).
    Only ``graph.nodes`` and ``graph.edges`` are read.
    """
    if n < 2:
        raise InteractionGraphError("a population needs at least two agents")
    expected_nodes = set(range(n))
    edges = list(graph.edges)
    if (set(graph.nodes) != expected_nodes
            or not expected_nodes.issuperset(chain.from_iterable(edges))):
        raise InteractionGraphError(
            f"interaction graph must have exactly the nodes 0..{n - 1}")
    if any(first == second for first, second in edges):
        raise InteractionGraphError("interaction graph must not contain self-loops")
    if not edges:
        raise InteractionGraphError("interaction graph must contain at least one edge")
    neighbours: Dict[int, List[int]] = {node: [] for node in expected_nodes}
    for first, second in edges:
        neighbours[first].append(second)
        neighbours[second].append(first)
    reached = {0}
    frontier = [0]
    while frontier:
        for neighbour in neighbours[frontier.pop()]:
            if neighbour not in reached:
                reached.add(neighbour)
                frontier.append(neighbour)
    if len(reached) != n:
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

    def __init__(self, graph: InteractionGraph, seed: Optional[int] = None) -> None:
        n = len(graph.nodes)
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


def complete_graph_scheduler(n: int, seed: Optional[int] = None) -> GraphScheduler:
    """The unrestricted case: every pair of agents may interact."""
    return GraphScheduler(Topology(range(n), list(combinations(range(n), 2))), seed=seed)


def ring_scheduler(n: int, seed: Optional[int] = None) -> GraphScheduler:
    """Agents arranged on a cycle; each agent meets only its two neighbours."""
    # networkx's cycle_graph edge order: node 0's two edges, then i -- i+1.
    closing = [(0, n - 1)] if n > 2 else []
    edges = [(0, 1)] + closing + [(node, node + 1) for node in range(1, n - 1)]
    return GraphScheduler(Topology(range(n), edges), seed=seed)


def star_scheduler(n: int, seed: Optional[int] = None) -> GraphScheduler:
    """A hub-and-spoke topology: agent 0 is adjacent to everyone else."""
    return GraphScheduler(Topology(range(n), [(0, spoke) for spoke in range(1, n)]), seed=seed)


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
    import networkx as nx

    rng = random.Random(seed)
    for attempt in range(max_attempts):
        graph = nx.gnp_random_graph(n, edge_probability, seed=rng.randrange(2**31))
        if graph.number_of_edges() > 0 and nx.is_connected(graph):
            return GraphScheduler(graph, seed=seed)
    raise InteractionGraphError(
        f"could not draw a connected graph on {n} nodes with p={edge_probability} "
        f"after {max_attempts} attempts")
