"""The model hierarchy of Figure 1.

Figure 1 of the paper arranges the ten interaction models in a directed
graph where an edge ``M -> M'`` means that the class of problems solvable in
``M`` is included in the class solvable in ``M'``.  The caption gives two
sufficient reasons for an edge:

* **special-case** — the transition relation of the source is a special case
  of the transition relation of the destination (e.g. ``IO`` is ``IT`` with
  ``g`` equal to the identity), so any source protocol literally *is* a
  destination protocol; or
* **omission-avoidance** — the destination is obtained from the source by
  removing omissions, and the adversary of the source model can always
  choose not to insert omissions (e.g. ``T3 -> TW``), so a source-correct
  protocol remains correct on the omission-free runs of the destination.

This module exposes the hierarchy as a :mod:`networkx` digraph whose edges
carry their justification, plus convenience queries.  The reachability
queries walk :data:`HIERARCHY_EDGES` directly, so only
:func:`hierarchy_graph` and :func:`topological_order` load networkx, when
they are called.  The companion benchmark
``benchmarks/bench_figure_1_hierarchy.py`` mechanically verifies every
*special-case* edge by checking transition-relation inclusion on concrete
programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Tuple

from repro.interaction.models import ALL_MODELS, get_model

if TYPE_CHECKING:
    import networkx as nx

#: Justification labels for hierarchy edges.
SPECIAL_CASE = "special-case"
OMISSION_AVOIDANCE = "omission-avoidance"

#: The Figure 1 edges: (source, destination, justification).
HIERARCHY_EDGES: List[Tuple[str, str, str]] = [
    # One-way, non-omissive.
    ("IO", "IT", SPECIAL_CASE),        # IO is IT with g = identity.
    ("IT", "TW", SPECIAL_CASE),        # IT is TW with fs ignoring the reactor.
    # Two-way omissive chain: fewer detection capabilities -> special case of more.
    ("T1", "T2", SPECIAL_CASE),        # T1 is T2 with o = identity.
    ("T2", "T3", SPECIAL_CASE),        # T2 is T3 with h = identity.
    ("T3", "TW", OMISSION_AVOIDANCE),  # the T3 adversary may avoid omissions.
    # One-way omissive models into the stronger one-way omissive models.
    ("I1", "I3", SPECIAL_CASE),        # I1 is I3 with h = identity.
    ("I2", "I3", SPECIAL_CASE),        # I2 is I3 with h = g.
    ("I2", "I4", SPECIAL_CASE),        # I2 is I4 with o = g.
    # One-way omissive models into the non-omissive IT (omission avoidance).
    ("I1", "IT", OMISSION_AVOIDANCE),
    ("I2", "IT", OMISSION_AVOIDANCE),
    ("I3", "IT", OMISSION_AVOIDANCE),
    ("I4", "IT", OMISSION_AVOIDANCE),
    # One-way omissive into two-way omissive with matching detection.
    ("I3", "T3", SPECIAL_CASE),        # identify fs = o = g: the relations coincide.
]


def hierarchy_graph() -> nx.DiGraph:
    """Build the Figure 1 hierarchy as a ``networkx.DiGraph``.

    Nodes are model names; each edge has a ``justification`` attribute set to
    either :data:`SPECIAL_CASE` or :data:`OMISSION_AVOIDANCE`.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for model in ALL_MODELS:
        graph.add_node(
            model.name,
            one_way=model.one_way,
            allows_omissions=model.allows_omissions,
        )
    for source, destination, justification in HIERARCHY_EDGES:
        graph.add_edge(source, destination, justification=justification)
    return graph


def _reachable(start: str, forward: bool) -> Set[str]:
    """``start`` and the model names reachable from it along the edges
    (``forward``) or against them."""
    reached = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for source, destination, _ in HIERARCHY_EDGES:
            origin, target = (source, destination) if forward else (destination, source)
            if origin == node and target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def is_at_most_as_powerful(weaker: str, stronger: str) -> bool:
    """Whether the problems solvable in ``weaker`` are included in those of ``stronger``.

    ``True`` when there is a directed path from ``weaker`` to ``stronger`` in
    the Figure 1 hierarchy (inclusion is transitive), or the two names denote
    the same model.
    """
    return get_model(stronger).name in _reachable(get_model(weaker).name, forward=True)


def weaker_models(name: str) -> List[str]:
    """Names of models whose solvable-problem class is included in ``name``'s."""
    target = get_model(name).name
    return sorted(_reachable(target, forward=False) - {target})


def stronger_models(name: str) -> List[str]:
    """Names of models whose solvable-problem class includes ``name``'s."""
    source = get_model(name).name
    return sorted(_reachable(source, forward=True) - {source})


def topological_order() -> List[str]:
    """Model names ordered from weakest to strongest (a topological order of Figure 1)."""
    import networkx as nx

    return list(nx.topological_sort(hierarchy_graph()))


def edges_with_justification(justification: str) -> List[Tuple[str, str]]:
    """All hierarchy edges carrying the given justification label."""
    return [
        (source, destination)
        for source, destination, label in HIERARCHY_EDGES
        if label == justification
    ]
