"""The ``repro lint`` command-line front end.

Exit codes follow the conventional linter contract:

* ``0`` — every checked file is clean,
* ``1`` — at least one finding,
* ``2`` — usage error (unknown rule code, unreadable path).

With no paths, the pass lints the installed ``repro`` package sources —
the self-hosting default that CI runs.  The import-time contract checks
(RPL005) fire exactly when the linted set contains
``repro/protocols/registry.py``, so pointing the linter at a fixture
directory never imports the registries.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Sequence

import repro
from repro.lint.framework import LintResult, all_rules, lint_files
from repro.lint.reporters import render_json, render_text

KNOWN_CODES = tuple(rule.code for rule in all_rules())


def default_paths() -> List[str]:
    """The installed ``repro`` package directory (the self-hosting target)."""
    return [os.path.dirname(os.path.abspath(repro.__file__))]


def _parse_codes(raw: Optional[str], option: str) -> Optional[List[str]]:
    if raw is None:
        return None
    codes = [code.strip().upper() for code in raw.split(",") if code.strip()]
    unknown = sorted(set(codes) - set(KNOWN_CODES))
    if unknown:
        raise ValueError(f"{option}: unknown rule code(s) "
                         f"{', '.join(unknown)}; known: {', '.join(KNOWN_CODES)}")
    return codes


def run_lint(paths: Sequence[str], *, select: Optional[str] = None,
             ignore: Optional[str] = None) -> LintResult:
    """Programmatic entry point mirroring the CLI semantics."""
    return lint_files(list(paths) or default_paths(),
                      select=_parse_codes(select, "--select"),
                      ignore=_parse_codes(ignore, "--ignore"))


def main(argv: Optional[List[str]] = None, prog: str = "repro-lint") -> int:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="determinism-contracts static analysis for the repro tree")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the repro package sources)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (json is versioned and stable)")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run exclusively "
                             "(e.g. RPL001,RPL003)")
    parser.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes to skip")
    args = parser.parse_args(argv)
    try:
        result = run_lint(args.paths, select=args.select, ignore=args.ignore)
    except (OSError, ValueError) as error:
        print(f"repro lint: {error}")
        return 2
    rendered = render_json(result) if args.format == "json" else render_text(result)
    print(rendered, end="")
    return 0 if result.clean else 1
