"""RPL003/RPL004 — error-handling and store-write discipline.

**RPL003, broad/bare except.**  PR 1's worst pre-seed bug was a bare
``except Exception`` around the scheduler draw in the convergence loop:
it converted scheduler exhaustion *and every programming error* into
"run did not converge", which is exactly the wrong failure mode for a
reproduction whose output is a verdict grid.  The rule bans bare
``except:`` and handlers catching ``Exception``/``BaseException``
anywhere in ``src/`` — narrow the handler to the failures the call site
actually produces, or pragma the site with a recorded reason (the
entry-point isolation loop in :mod:`repro.protocols.registry` is the
canonical sanctioned case: it must survive arbitrarily broken
third-party distributions).

**RPL004, store-write bypass.**  Campaign resume is byte-identical only
because every record reaches disk through the flushed + fsync'd
atomic-append helpers in :mod:`repro.campaign.store`
(``_append_lines`` behind ``append_cell``/``register_campaign`` — one
write and one fsync per record, or per group of records inside a
``group_commit`` block — ``_write_manifest``, and the
:func:`~repro.campaign.store.compact_store` writer, whose non-append
rewrite is sanctioned because it goes write-temp-then-``os.replace``):
complete lines per write, torn tails recoverable, compactions
all-or-nothing.  Any other write path inside
``repro.campaign`` — an ``open(..., "w"/"a")``, ``os.open`` with write
flags, ``Path.write_text`` — could interleave partial lines or skip the
fsync and silently void crash recovery, so constructing a writable file
handle outside the sanctioned writer modules is a finding.  The campaign
scheduler (:mod:`repro.campaign.executor`) deliberately holds no write
path of its own: workers return records, and the store appends them.  The
shared-memory result transport (:mod:`repro.engine.transport`) is scoped
in for the same reason: it moves results *between* processes, and the
single-writer contract only holds if no transport lane ever grows a
file-write path of its own.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.framework import Finding, LintContext, Rule

_BROAD_EXCEPTIONS = ("Exception", "BaseException")


def _broad_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """The broad exception this handler type names, if any."""
    if annotation is None:
        return "bare"
    if isinstance(annotation, ast.Tuple):
        for element in annotation.elts:
            name = _broad_name(element)
            if name not in (None, "bare"):
                return name
        return None
    if isinstance(annotation, ast.Name) and annotation.id in _BROAD_EXCEPTIONS:
        return annotation.id
    if isinstance(annotation, ast.Attribute) \
            and annotation.attr in _BROAD_EXCEPTIONS:
        return annotation.attr
    return None


class BroadExceptRule(Rule):
    code = "RPL003"
    name = "broad-except"
    summary = ("no bare except or except Exception/BaseException; narrow "
               "the handler or pragma with a reason")
    scope = None  # the PR 1 bug class can hide in any layer

    def check(self, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = _broad_name(node.type)
            if broad == "bare":
                yield context.finding(
                    self.code, node,
                    "bare except swallows every error including "
                    "KeyboardInterrupt; catch the specific failures this "
                    "call site produces")
            elif broad is not None:
                yield context.finding(
                    self.code, node,
                    f"except {broad} converts programming errors into "
                    "ordinary control flow (the PR 1 convergence-loop bug "
                    "class); narrow the handler or add a "
                    "repro-lint pragma with the reason")


#: ``open()`` mode characters that make a handle writable.
_WRITE_MODE_CHARS = frozenset("wax+")

#: ``os.open`` flag names that make a descriptor writable.
_OS_WRITE_FLAGS = frozenset({
    "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC",
})

_PATH_WRITERS = frozenset({"write_text", "write_bytes", "touch", "unlink"})


def _open_mode(call: ast.Call) -> str:
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            return str(keyword.value.value)
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        return str(call.args[1].value)
    return "r"


def _names_os_write_flag(node: ast.AST) -> bool:
    return any(isinstance(child, ast.Attribute)
               and child.attr in _OS_WRITE_FLAGS
               for child in ast.walk(node))


class StoreBypassRule(Rule):
    code = "RPL004"
    name = "store-write-bypass"
    summary = ("campaign-layer and result-transport file writes must go "
               "through the atomic append helpers in campaign/store.py")
    #: The campaign layer plus the shared-memory result transport: the
    #: transport moves results between processes and must never grow a
    #: store write path of its own — records reach disk only through the
    #: single-writer appenders, whatever lane carried them (pinned by
    #: ``tests/test_lint.py``).
    scope = ("repro.campaign.", "repro.engine.transport")

    #: Modules owning a sanctioned write path: the atomic-append helpers
    #: (``_append_lines``/``_write_manifest``) and the compaction writer
    #: (``compact_store``'s write-temp-then-rename rewrite) both live in
    #: ``store.py`` — every other module in scope must route records
    #: through them.
    sanctioned_modules = ("repro.campaign.store",)

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.module in self.sanctioned_modules:
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = _open_mode(node)
                if any(char in _WRITE_MODE_CHARS for char in mode):
                    yield context.finding(
                        self.code, node,
                        f"open(..., {mode!r}) creates a writable handle in "
                        "the campaign layer; route the record through "
                        "ResultStore.append_cell so the write is one "
                        "flushed+fsync'd line with torn-tail recovery")
                continue
            qualified = context.imports.resolve(node.func)
            if qualified == "os.open" and any(
                    _names_os_write_flag(arg) for arg in node.args[1:]):
                yield context.finding(
                    self.code, node,
                    "os.open with write flags bypasses the store's atomic "
                    "append helper; use ResultStore.append_cell")
                continue
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _PATH_WRITERS:
                yield context.finding(
                    self.code, node,
                    f".{node.func.attr}() writes outside the store's atomic "
                    "append helper; use ResultStore.append_cell / "
                    "_write_manifest")
