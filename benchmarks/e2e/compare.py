#!/usr/bin/env python3
"""Compare sets of benchmark runs: ``compare.py A.json B.json [...]``.

Each file holds the untraced runs of one side, one JSON document a line
as ``run.py --out FILE`` appends them.  The first file is the base; each
further file is compared with it.  For every workload x end-to-end
metric the table gives both sides' median and quartiles
(``statistics.quantiles(values, n=4)``), each side's own spread (the
distance between its quartiles as a share of its median), how much
worse the second median is, and a verdict against the metric's bound in
``BENCHMARK.json``:

``within bound``  the second median is no worse than the first by more than the bound;
``regression``    it is worse by more than the bound;
``unresolved``    a side's own spread exceeds the bound, so the runs cannot tell —
                  unless every run of the second side is better than every run of the first.

Exits 1 if any row is a regression, 2 if any is unresolved and none regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the untraced runs in *path*."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run.get("trace"):
            continue
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)


def verdict(base: list[float], other: list[float], better: str, bound: float) -> tuple[float, str]:
    """(share by which *other*'s median is worse than *base*'s, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    base_mid, other_mid = statistics.median(base), statistics.median(other)
    worse = sign * (other_mid - base_mid) / abs(base_mid)
    if max(spread(base), spread(other)) > bound:
        all_better = max(sign * v for v in other) < min(sign * v for v in base)
        return worse, "within bound" if all_better else "unresolved"
    return worse, "regression" if worse > bound else "within bound"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 64
    spec = json.loads(SPEC_PATH.read_text())
    base_path, *other_paths = (Path(arg) for arg in argv)
    base = load(base_path)
    worst = 0
    for other_path in other_paths:
        other = load(other_path)
        print(f"base {base_path} ({_runs(base)} run(s))  vs  {other_path} ({_runs(other)} run(s))")
        print(f"{'workload':<16}{'metric':<22}{'unit':<7}"
              f"{'base q1 / median / q3':<36}{'other q1 / median / q3':<36}"
              f"{'spreads':<16}{'worse by':<10}{'bound':<8}verdict")
        # The listed workloads first, then whatever else the files hold.
        listed = [w["name"] for w in spec["workloads"]]
        for workload in dict.fromkeys(listed + [workload for workload, _ in base]):
            for metric in spec["end_to_end"]:
                key = (workload, metric["name"])
                if key not in base or key not in other:
                    continue
                a, b = base[key], other[key]
                worse, word = verdict(a, b, metric["better"], metric["bound"])
                worst = max(worst, {"within bound": 0, "unresolved": 2, "regression": 3}[word])
                print(f"{workload:<16}{metric['name']:<22}{metric['unit']:<7}"
                      f"{_quartiles(a):<36}{_quartiles(b):<36}"
                      f"{spread(a):>6.1%} {spread(b):>6.1%}  {worse:>+7.1%}   "
                      f"{metric['bound']:<8.1%}{word}")
        print()
    return {0: 0, 2: 2, 3: 1}[worst]


def _runs(values: dict[tuple[str, str], list[float]]) -> int:
    return max((len(v) for v in values.values()), default=0)


def _quartiles(values: list[float]) -> str:
    return " / ".join(f"{v:.6g}" for v in quartiles(values))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
