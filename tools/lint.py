#!/usr/bin/env python
"""Lint entry point that works with or without ruff installed.

Two gates run in sequence and the worst exit status wins:

1. **Style** — ``ruff check .`` when ruff is on PATH (the same command
   CI's lint job runs, with the rule selection from pyproject.toml);
   skipped, with a note, in hermetic environments without ruff.
2. **Invariants** — the :mod:`tools.analysis` checker suite (RPR000
   syntax, RPR100 unused imports, RPR101-RPR103, RPR105, RPR106:
   determinism, picklability, async-safety, API and telemetry hygiene)
   over every source root.

Unused imports are checked once: by RPR100, which runs with or without
ruff.  pyproject.toml ignores ruff's ``F401`` for that reason.

Exit status is nonzero on any finding, like ``ruff check``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "tests", "benchmarks", "tools", "examples")


def run_ruff() -> int:
    """The style gate: ruff when present, otherwise a no-op."""
    ruff = shutil.which("ruff")
    if ruff is None:
        print("lint: ruff not found; style gate skipped, tools.analysis still runs")
        return 0
    return subprocess.call([ruff, "check", str(REPO)])


def run_analysis() -> int:
    """The invariant gate: the tools.analysis suite over all roots."""
    sys.path.insert(0, str(REPO))
    from tools.analysis.cli import main

    return main([str(REPO / root) for root in ROOTS if (REPO / root).is_dir()])


def main() -> int:
    """Run both gates; nonzero if either one fails."""
    style = run_ruff()
    invariants = run_analysis()
    return max(style, invariants)


if __name__ == "__main__":
    sys.exit(main())
