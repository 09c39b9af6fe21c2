"""Single-parse, multi-checker analysis engine.

Each file is parsed exactly once and walked exactly once; every checker
of :data:`~tools.analysis.checkers.RULES` sees every node of that one
walk, together with the ancestor stack, so N rules cost one traversal
instead of N.  Inline ``# repro: disable=RPR101[,RPR105]`` comments
suppress findings reported on that physical line (``disable=all``
silences every rule).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tools.analysis.checkers import RULES, Checker, CheckerContext, Finding

__all__ = [
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "module_name_for",
]

#: Rule id used for files that fail to parse at all.
SYNTAX_ERROR_RULE = "RPR000"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_,\s]+)")


def suppressed_rules(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids disabled by an inline comment there."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if rules:
            out[lineno] = rules
    return out


def _walk(
    node: ast.AST,
    parents: list[ast.AST],
    active: list[Checker],
    ctx: CheckerContext,
) -> None:
    for checker in active:
        checker.visit(node, parents, ctx)
    parents.append(node)
    for child in ast.iter_child_nodes(node):
        _walk(child, parents, active, ctx)
    parents.pop()


def analyze_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    rules: set[str] | None = None,
) -> list[Finding]:
    """Run every checker of :data:`RULES` (or the *rules*-selected ones) over *source*.

    Returns the sorted, suppression-filtered findings for one file.  A
    syntax error yields a single ``RPR000`` finding instead of raising.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                rule=SYNTAX_ERROR_RULE,
                message=f"syntax error: {exc.msg}",
            )
        ]

    ctx = CheckerContext(path=path, module=module, source=source, tree=tree)
    instances = [cls() for cls in RULES if rules is None or cls.rule in rules]
    active = [checker for checker in instances if checker.applies_to(ctx)]
    for checker in active:
        checker.start_module(ctx)
    _walk(tree, [], active, ctx)
    for checker in active:
        checker.finish_module(ctx)

    suppressions = suppressed_rules(source)
    kept = []
    for finding in ctx.findings:
        disabled = suppressions.get(finding.line, set())
        if finding.rule in disabled or "all" in disabled:
            continue
        kept.append(finding)
    return sorted(kept)


def module_name_for(path: Path) -> str | None:
    """Dotted module name for a file under a ``src`` directory, else None."""
    parts = path.resolve().parts
    try:
        idx = len(parts) - 1 - parts[::-1].index("src")
    except ValueError:
        return None
    mod_parts = list(parts[idx + 1 :])
    if not mod_parts or not mod_parts[-1].endswith(".py"):
        return None
    mod_parts[-1] = mod_parts[-1][: -len(".py")]
    if mod_parts[-1] == "__init__":
        mod_parts.pop()
    return ".".join(mod_parts) if mod_parts else None


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Every ``*.py`` file under *paths* (files pass through), sorted."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if "__pycache__" not in child.parts:
                    seen.add(child.resolve())
        elif path.suffix == ".py":
            seen.add(path.resolve())
    return sorted(seen)


def analyze_paths(
    paths: list[Path],
    *,
    root: Path | None = None,
    rules: set[str] | None = None,
) -> tuple[list[Finding], int]:
    """Analyze every Python file under *paths*.

    Returns ``(findings, checked_file_count)``.  Display paths are made
    relative to *root* (default: the current directory) when possible.
    """
    root = (root or Path.cwd()).resolve()
    findings: list[Finding] = []
    files = iter_python_files(paths)
    for file in files:
        try:
            display = file.relative_to(root).as_posix()
        except ValueError:
            display = file.as_posix()
        source = file.read_text(encoding="utf-8")
        findings.extend(
            analyze_source(source, path=display, module=module_name_for(file), rules=rules)
        )
    return sorted(findings), len(files)
