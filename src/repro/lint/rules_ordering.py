"""RPL006 — unordered iteration must cross a ``sorted()`` boundary.

The campaign layer's central identity is *fold-order independence*:
cell ids hash canonical JSON (sorted keys), the grid fingerprint hashes
the **sorted** cell-id set, and reports are byte-identical whether the
store was written in one pass or across interrupted resumes (whose dict
of records is built in *append order*).  Iterating a ``set`` — or a dict
view whose insertion order tracks execution order — straight into a text
join, a tuple/list materialisation, or a hash breaks that identity in
the least reproducible way possible: only on the reordered run.

The rule flags, inside the hashing/planning/report-fold layers:

* a ``set``-typed expression (literal, ``set()``/``frozenset()`` call,
  set comprehension, or the store's ``completed_ids()``) used as the
  iterable of a ``for`` statement, list comprehension, or generator;
* a dict-view call (``.keys()``/``.values()``/``.items()``) feeding an
  order-sensitive sink (``str.join``, ``tuple``, ``list``,
  ``json.dumps``, ``canonical_json``, ``hashlib.*``) either directly or
  through a comprehension;

unless the iteration is wrapped by a ``sorted()`` boundary.  Iterations
that terminate in order-insensitive consumers (dict/set builds,
membership, ``len``, ``min``/``max``/``sum``) are not flagged — the
contract is about *order reaching bytes*, not about sets existing.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.framework import Finding, LintContext, Rule

#: Layers whose folds feed hashes, cell ids, or report bytes.
ORDERED_FOLD_LAYERS = (
    "repro.campaign.",
    "repro.analysis.reporting",
    "repro.analysis.results_map",
)

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_RETURNING_METHODS = frozenset({"completed_ids"})
_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})
_SINK_NAMES = frozenset({"tuple", "list", "canonical_json"})
_SINK_QUALIFIED = ("json.dumps", "hashlib.")
_SINK_METHODS = frozenset({"join", "update"})


def _is_set_typed(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _SET_CONSTRUCTORS:
            return True
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _SET_RETURNING_METHODS:
            return True
    return False


def _is_dict_view(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_VIEW_METHODS
            and not node.args and not node.keywords)


def _sink_call(context: LintContext, call: ast.Call) -> Optional[str]:
    """The sink a call represents, or None if it is order-insensitive."""
    if isinstance(call.func, ast.Name) and call.func.id in _SINK_NAMES:
        return call.func.id
    if isinstance(call.func, ast.Attribute) and call.func.attr in _SINK_METHODS:
        return call.func.attr
    qualified = context.imports.resolve(call.func)
    if qualified is not None:
        if qualified in _SINK_QUALIFIED:
            return qualified
        if any(qualified.startswith(prefix) for prefix in _SINK_QUALIFIED
               if prefix.endswith(".")):
            return qualified
    return None


def _has_sorted_boundary(context: LintContext, node: ast.AST) -> bool:
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, ast.Call) \
                and isinstance(ancestor.func, ast.Name) \
                and ancestor.func.id == "sorted":
            return True
        if isinstance(ancestor, ast.stmt):
            return False
    return False


def _consuming_sink(context: LintContext,
                    node: ast.AST) -> Optional[Tuple[ast.AST, str]]:
    """The order-sensitive sink call this expression feeds, if any."""
    current: ast.AST = node
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, ast.Call):
            sink = _sink_call(context, ancestor)
            if sink is not None and current in ancestor.args:
                return ancestor, sink
            return None  # some other call mediates; out of static reach
        if isinstance(ancestor, (ast.GeneratorExp, ast.ListComp)):
            current = ancestor
            continue
        if isinstance(ancestor, (ast.stmt, ast.SetComp, ast.DictComp)):
            return None
        current = ancestor
    return None


class UnorderedIterationRule(Rule):
    code = "RPL006"
    name = "unordered-fold"
    summary = ("set/dict-view iteration feeding hashing, cell planning, or "
               "report folds needs a sorted() boundary")
    scope = ORDERED_FOLD_LAYERS

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            iterables = []
            if isinstance(node, ast.For):
                iterables.append((node.iter, "for loop"))
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp)):
                iterables.extend(
                    (generator.iter, "comprehension")
                    for generator in node.generators)
            for iterable, via in iterables:
                if _is_set_typed(iterable):
                    if not _has_sorted_boundary(context, iterable):
                        yield context.finding(
                            self.code, iterable,
                            f"{via} iterates a set without a sorted() "
                            "boundary; set order is interpreter-dependent "
                            "and must never reach hashed or rendered bytes")
                elif _is_dict_view(iterable) and not isinstance(node, ast.For):
                    sink = _consuming_sink(context, node)
                    if sink is not None \
                            and not _has_sorted_boundary(context, iterable):
                        yield context.finding(
                            self.code, iterable,
                            f"dict-view iteration feeds {sink[1]}() without "
                            "a sorted() boundary; insertion order tracks "
                            "append/execution order here, which resume is "
                            "allowed to permute")
            if isinstance(node, ast.Call):
                sink = _sink_call(context, node)
                if sink is None:
                    continue
                for argument in node.args:
                    if (_is_set_typed(argument) or _is_dict_view(argument)) \
                            and not _has_sorted_boundary(context, node):
                        yield context.finding(
                            self.code, argument,
                            f"unordered iterable passed straight to {sink}(); "
                            "wrap it in sorted() so the fold order is "
                            "deterministic")
