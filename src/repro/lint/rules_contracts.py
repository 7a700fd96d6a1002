"""RPL005 — the registry contracts, checked against the *live* registries.

Two contracts make the array backend's compile surface predictable and
ROADMAP item 2's gap-closing work inventoriable:

* **every registered protocol defines ``state_order()``** — the canonical
  interning order the columnar engine compiles transition tables against
  (:mod:`repro.engine.backends.array_backend` hard-fails without it);
* **every registered predicate is count-expressible** for every catalog
  protocol — its built instance answers ``as_state_count()`` — **or the
  ``(predicate, protocol)`` pair is listed in**
  :data:`NON_COUNT_EXPRESSIBLE`, the explicit, machine-readable inventory
  of known compile gaps.  A pair that silently stopped compiling would
  otherwise only surface as a ``BackendCompileError`` deep inside
  someone's campaign; a pair that silently *started* compiling should be
  removed from the inventory so the gap list stays honest.

Unlike the AST rules this one runs the registries: it is a
:class:`~repro.lint.framework.ProjectRule`, fires only when the linted
file set contains ``repro/protocols/registry.py``, and skips gracefully
(no findings, no crash) for entries whose optional dependencies are
missing — the no-numpy CI matrix must pass identically.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import Finding, LintContext, ProjectRule

#: The known compile gaps: ``(predicate key, protocol key)`` pairs whose
#: built predicate is legitimately not count-expressible today.  This is
#: ROADMAP item 2's inventory in executable form — shrink it by making
#: the predicate compile (and the lint pass will *force* the removal:
#: a pair that becomes count-expressible is reported as a stale entry).
NON_COUNT_EXPRESSIBLE: Set[Tuple[str, str]] = {
    # the averaging spread criterion (max - min <= 1) is a relation
    # between two counts, not a single state-count threshold
    ("stable-output", "averaging"),
    # approximate-majority has no expected_output(), so stable-output
    # falls back to the unanimity-of-outputs criterion
    ("stable-output", "approximate-majority"),
    # AndProtocol.expected_output takes (ones, zeros); the registry's
    # generic single-argument probe TypeErrors into the same fallback
    ("stable-output", "and"),
}

#: Population used for the probe configurations; any small even number
#: works for every catalog protocol's default initial configuration.
_PROBE_POPULATION = 10


def _assignment_line(context: Optional[LintContext], target: str) -> int:
    """Line of ``target = ...`` in the registry module (anchor for findings)."""
    if context is None:
        return 1
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for assigned in targets:
                if isinstance(assigned, ast.Name) and assigned.id == target:
                    return node.lineno
    return 1


def check_registry_contracts(
        path: str, *,
        protocols=None, predicates=None,
        allowlist: Optional[Set[Tuple[str, str]]] = None,
        protocols_line: int = 1,
        predicates_line: int = 1) -> List[Finding]:
    """Verify the registry contracts; parameterised so tests can seed violations.

    ``protocols``/``predicates`` default to the live registries.  Entries
    that cannot even be built (missing optional dependency) are skipped —
    an uninstallable entry is the package author's problem, not a
    determinism-contract violation of this repo.
    """
    from repro.protocols import registry

    if protocols is None:
        protocols = registry.PROTOCOLS
    if predicates is None:
        predicates = registry.PREDICATES
    if allowlist is None:
        allowlist = NON_COUNT_EXPRESSIBLE

    findings: List[Finding] = []

    built = {}
    for name in sorted(protocols):
        factory = protocols[name]
        try:
            protocol = factory()
        except ImportError:
            continue  # optional-dependency protocol: skip gracefully
        except (TypeError, ValueError):
            # Constructor needs arguments; the contract is still checkable
            # on the class itself.
            protocol = factory
        if not callable(getattr(protocol, "state_order", None)):
            findings.append(Finding(
                code="RPL005", path=path, line=protocols_line, column=1,
                message=f"registered protocol {name!r} defines no "
                        "state_order(); the array backend cannot intern its "
                        "states (subclass PopulationProtocol or add the "
                        "canonical order)"))
        elif not isinstance(protocol, type):
            built[name] = protocol

    for predicate_key in sorted(predicates):
        factory = predicates[predicate_key]
        for name in sorted(built):
            protocol = built[name]
            try:
                initial = registry.default_initial_configuration(
                    protocol, _PROBE_POPULATION)
                simulator = registry.SIMULATORS["none"](
                    protocol, _PROBE_POPULATION, 0, "TW")
                predicate = factory(simulator, protocol, initial)
            except ImportError:
                continue  # optional-dependency predicate: skip gracefully
            except (AttributeError, KeyError, TypeError, ValueError):
                # No default initial configuration / incompatible factory
                # signature: nothing to probe, not a contract violation.
                continue
            as_state_count = getattr(predicate, "as_state_count", None)
            shape = as_state_count() if callable(as_state_count) else None
            expressible = shape is not None
            listed = (predicate_key, name) in allowlist
            if not expressible and not listed:
                findings.append(Finding(
                    code="RPL005", path=path, line=predicates_line, column=1,
                    message=f"predicate {predicate_key!r} on protocol "
                            f"{name!r} is not count-expressible "
                            "(as_state_count() is None) and the pair is not "
                            "in the NON_COUNT_EXPRESSIBLE inventory; either "
                            "make it compile or list the gap explicitly"))
            elif expressible and listed:
                findings.append(Finding(
                    code="RPL005", path=path, line=predicates_line, column=1,
                    message=f"stale compile-gap entry: predicate "
                            f"{predicate_key!r} on protocol {name!r} IS "
                            "count-expressible now; remove the pair from "
                            "NON_COUNT_EXPRESSIBLE so the inventory stays "
                            "honest"))
    return findings


class RegistryContractRule(ProjectRule):
    code = "RPL005"
    name = "registry-contract"
    summary = ("registered protocols define state_order(); registered "
               "predicates are count-expressible or inventoried gaps")
    audited_module = "repro.protocols.registry"

    def check_project(self, contexts: Sequence[LintContext]) -> Iterator[Finding]:
        registry_context = next(
            (context for context in contexts
             if context.module == self.audited_module), None)
        path = registry_context.path if registry_context else "repro/protocols/registry.py"
        yield from check_registry_contracts(
            path,
            protocols_line=_assignment_line(registry_context, "PROTOCOLS"),
            predicates_line=_assignment_line(registry_context, "PREDICATES"))
