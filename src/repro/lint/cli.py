"""The ``python -m repro.lint`` command line.

::

    python -m repro.lint src                      # lint the tree
    python -m repro.lint src --select RPL001      # one rule only
    python -m repro.lint src --ignore RPL006,RPL008
    python -m repro.lint src --format json        # machine-readable
    python -m repro.lint --list-rules

Exit status: **0** when the tree is clean, **2** when findings remain
(CI fails the build on it), **1** on operational errors (unknown rule
id, missing path).  The linter is standard-library only and the
``repro`` package root imports lazily, so this entry point runs in a
bare interpreter before any third-party dependency is installed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..errors import LintError
from .engine import all_rules, lint_paths
from .report import render_json, render_text


def _split_ids(values: Optional[Sequence[str]]) -> List[str]:
    """Flatten repeated/comma-separated rule options into bare ids."""
    ids: List[str] = []
    for value in values or []:
        ids.extend(token.strip().upper()
                   for token in value.split(",") if token.strip())
    return ids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("reprolint — AST-based contract linter for the repo's "
                     "determinism, seeding and runtime invariants "
                     "(rules RPL001-RPL002, RPL004-RPL010)"),
        epilog=("Suppress a finding inline with "
                "'# reprolint: disable=RPL00N'. Exit status: 0 clean, "
                "2 findings, 1 operational error."),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule ids to run exclusively "
             "(repeatable, e.g. --select RPL001,RPL004)",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="RULES",
        help="comma-separated rule ids to skip (repeatable)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None,
         stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            stdout.write(f"{rule.id}  {rule.summary}\n")
        return 0

    try:
        report = lint_paths(
            args.paths,
            select=_split_ids(args.select) or None,
            ignore=_split_ids(args.ignore) or None,
        )
    except LintError as error:
        stderr.write(f"error: {error}\n")
        return 1

    renderer = render_json if args.format == "json" else render_text
    stdout.write(renderer(report) + "\n")
    return report.exit_code
