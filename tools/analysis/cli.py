"""Command-line interface: ``python -m tools.analysis`` from the repo root.

Exit codes are stable and documented (CI and tools/lint.py rely on
them): 0 = clean, 1 = at least one finding, 2 = usage or internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

from tools.analysis.checkers import RULES
from tools.analysis.engine import analyze_paths

__all__ = ["main", "run"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    rules = ", ".join(f"{cls.name} ({cls.rule})" for cls in RULES)
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description=f"AST invariant checkers for the CBES reproduction: {rules}.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for cls in RULES:
        scope = ", ".join(cls.scopes) if cls.scopes else "all files"
        lines.append(f"{cls.rule}  {cls.name:<16} [{scope}]  {cls.rationale}")
    return "\n".join(lines)


def run(argv: list[str] | None = None, *, stdout=None) -> int:
    """Parse *argv*, run the suite, print a report, return the exit code."""
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)

    if args.list_rules:
        print(_list_rules(), file=out)
        return EXIT_CLEAN

    rules: set[str] | None = None
    if args.rules:
        rules = {part.strip().upper() for part in args.rules.split(",") if part.strip()}
        unknown = rules - {cls.rule for cls in RULES}
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return EXIT_ERROR

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return EXIT_ERROR

    try:
        findings, checked = analyze_paths(paths, rules=rules)
    except (OSError, RecursionError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        report = {
            "version": 1,
            "findings": [dataclasses.asdict(f) for f in findings],
            "summary": {
                "checked_files": checked,
                "findings": len(findings),
                "rules": dict(sorted(Counter(f.rule for f in findings).items())),
            },
        }
        print(json.dumps(report, indent=2), file=out)
    else:
        for finding in findings:
            print(finding.format_text(), file=out)
        print(f"tools.analysis: {checked} file(s), {len(findings)} finding(s)", file=out)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m tools.analysis`` and tools/lint.py."""
    try:
        return run(argv)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
