"""Regenerate the paper's full evaluation into a results directory.

Runs every ``ARTEFACT`` record the benchmark suite defines — Tables 1-4,
Figs. 5-7, the text experiments E1/E3/E10/E11, the ablations and the
fidelity check (EXPERIMENTS.md, "Regenerate") — at reduced scale by
default, ``--full`` for paper-scale repetitions.  Each record's ``run``,
``render`` and ``check`` are the ones ``pytest benchmarks/bench_<x>.py -s``
uses, so ``<out>/<name>.txt`` holds exactly the text that bench prints;
``REPORT.txt`` combines them.  Exits 1 if any ``check`` fails.

``--check-golden`` runs nothing: it exits 1 unless the reduced-scale
``<out>/REPORT.txt`` equals ``tests/paper_goldens/REPORT.txt`` once
masked.  The mask (``tools/paper_golden.py``): in every table, each cell
under a wall-clock header (``wall (s)``, ``scheduler (s)``, ``per-eval
(us)``, ``sched time (s)``) becomes ``*``; two runs of one commit are
then byte-equal.

Usage::

    python tools/reproduce_all.py [--out results] [--full | --check-golden]
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
import traceback
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCH) not in sys.path:
    sys.path.insert(0, str(_BENCH))  # bench modules import each other by bare name


def discover() -> list:
    """Every record under benchmarks/, in file-name order."""
    modules = [importlib.import_module(path.stem) for path in sorted(_BENCH.glob("bench_*.py"))]
    return [module.ARTEFACT for module in modules if hasattr(module, "ARTEFACT")]


def reproduce(artefacts, out: Path) -> list[str]:
    """Run, write and check each record; returns the names whose check failed."""
    from conftest import make_context  # benchmarks/conftest.py: the suite's own helper

    out.mkdir(parents=True, exist_ok=True)
    report, failed = [], []
    for artefact in artefacts:
        result = artefact.run(make_context(artefact.cluster))
        text = artefact.render(result)
        (out / f"{artefact.name}.txt").write_text(text + "\n")
        try:
            artefact.check(result)
            verdict = "ok"
        except AssertionError:
            traceback.print_exc()
            failed.append(artefact.name)
            verdict = "CHECK FAILED"
        report.append(f"==== {artefact.name} [{verdict}] ====\n{text}\n")
        print(f"[{time.strftime('%H:%M:%S')}] wrote {artefact.name}: {verdict}")
    (out / "REPORT.txt").write_text("\n".join(report))
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--full", action="store_true", help="paper-scale repetitions")
    mode.add_argument("--check-golden", action="store_true", help="compare <out>/REPORT.txt")
    args = parser.parse_args()
    if args.check_golden:
        from paper_golden import check  # tools/paper_golden.py, beside this script

        return 0 if check(Path(args.out)) else 1
    if args.full:
        os.environ["REPRO_FULL"] = "1"  # read by every run() through harness.repetitions
    failed = reproduce(discover(), Path(args.out))
    print(f"\nall artifacts written to {args.out}/ (REPORT.txt combines them)")
    if failed:
        print(f"paper-shape checks FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
