"""The committed paper report, ``tests/paper_goldens/REPORT.txt``, and its mask.

``tools/reproduce_all.py --check-golden`` holds the reduced-scale
``REPORT.txt`` to this golden.  Both sides are compared masked: in every
ASCII table of the report, each cell under a header in
:data:`WALL_CLOCK` becomes ``*``.  Those columns time the host, not the
model.  Every other character is a seeded function of the code, so two
runs of one commit are byte-equal after masking, and a digit that moves
anywhere else is a changed model.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "paper_goldens" / "REPORT.txt"

#: Table headers whose cells are wall-clock times (ga_vs_sa, scheduler_overhead, table1).
WALL_CLOCK = frozenset({"wall (s)", "scheduler (s)", "per-eval (us)", "sched time (s)"})


def mask(report: str) -> str:
    """*report* with every cell of a :data:`WALL_CLOCK` column replaced by ``*``.

    A table is what ``repro.experiments.report.ascii_table`` draws: a
    header row, a ``-+-`` separator, then rows of `` | ``-joined cells,
    up to the first line that has no cell separator.
    """
    lines = report.split("\n")
    columns: set[int] = set()
    for i, line in enumerate(lines):
        if line and set(line) <= {"-", "+"}:  # a separator: the line above is the header
            header = lines[i - 1].split(" | ")
            columns = {k for k, cell in enumerate(header) if cell.strip() in WALL_CLOCK}
        elif " | " in line:
            cells = line.split(" | ")
            lines[i] = " | ".join(
                "*".ljust(len(cell)) if k in columns else cell for k, cell in enumerate(cells)
            )
        else:
            columns = set()
    return "\n".join(lines)


def check(out: Path) -> bool:
    """Whether ``out/REPORT.txt`` matches the golden once masked.

    The masked report is left as ``out/REPORT.masked.txt``; on a
    mismatch the diff goes to stderr, and copying that file over the
    golden re-captures it.
    """
    report = out / "REPORT.txt"
    if not report.is_file():
        sys.exit(f"error: no {report}; run tools/reproduce_all.py --out {out} first")
    masked = mask(report.read_text())
    (out / "REPORT.masked.txt").write_text(masked)
    golden = GOLDEN.read_text()
    if masked == golden:
        return True
    sys.stderr.writelines(
        difflib.unified_diff(
            golden.splitlines(keepends=True),
            masked.splitlines(keepends=True),
            str(GOLDEN),
            str(out / "REPORT.masked.txt"),
        )
    )
    return False
