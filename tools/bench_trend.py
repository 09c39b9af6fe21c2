"""Print the history of the committed bench-guard baselines.

For each ``BENCH_<name>.json`` at the repository root, one row per commit
that changed it, newest first: the short sha, the commit date, and the
counts and paired medians that commit holds, read through ``git log`` /
``git show``.  A value a commit did not record prints as ``-``.

Run from anywhere inside the repository (a shallow clone shows only the
commits it has)::

    python tools/bench_trend.py
"""

from __future__ import annotations

import json
import subprocess
import sys


def git(*args: str, cwd: str | None = None) -> str:
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, check=True, cwd=cwd
    ).stdout


def table(root: str, path: str) -> list[list[str]]:
    """Header and one row per commit that added or modified *path* (from *root*)."""
    docs = []
    log = git("log", "--diff-filter=AM", "--format=%h %cs", "--", path, cwd=root)
    for line in log.splitlines():
        sha, date = line.split()
        docs.append((sha, date, json.loads(git("show", f"{sha}:{path}", cwd=root))))
    keys = list(dict.fromkeys(
        key for _, _, doc in docs for key in doc.get("counts", []) + doc.get("paired", [])
    ))
    rows = [["commit", "date", *keys]]
    for sha, date, doc in docs:
        shown = (doc["metrics"].get(key, "-") for key in keys)
        rows.append([sha, date, *(f"{v:.6g}" if isinstance(v, float) else str(v) for v in shown)])
    return rows


def main() -> int:
    root = git("rev-parse", "--show-toplevel").strip()
    for path in git("ls-files", "BENCH_*.json", cwd=root).split():
        rows = table(root, path)
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        print(path)
        for row in rows:
            print("  " + "  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
