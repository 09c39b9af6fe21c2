"""Gate reporting for the bench-guard CI job.

Every ``--quick`` benchmark builds one :class:`GateReport`, records the
measured metrics and pass/fail gates, and exits through
:meth:`GateReport.finish`.  That gives all benches a uniform contract:

* exit status 0 iff every gate passed;
* one ``GATE <bench>/<gate>: FAIL — <summary>`` line per failing gate
  (the line the CI log search keys on);
* when ``REPRO_BENCH_JSON_DIR`` is set, a machine-readable
  ``BENCH_<name>.json`` snapshot (timestamp, git sha, metric values,
  gate outcomes) written there and uploaded as a workflow artifact —
  the raw material of the bench-trajectory-over-commits pipeline.

Every gate that compares two timings compares them one way,
:meth:`GateReport.paired`: the numerator pass and the denominator pass
run back to back as a pair, the numerator first in even pairs, and the
pair gives one ratio.  A pair shares its host moment, so host noise
mostly cancels in it (on a shared 2-CPU host a whole best-of-4 schedule
pass moved by -32..+11 % between runs).  Pairs are drawn
:data:`PAIR_BATCH` at a time until the median's distribution-free ~95 %
interval (order statistics ``k`` and ``n - 1 - k``, ``k = floor((n -
1.96 sqrt(n)) / 2)``) lies on one side of the limit, from two batches
on, or :data:`PAIR_BUDGET` pairs are drawn; then the median is judged.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

#: Pairs drawn between two looks at the interval, and the most one gate draws.
PAIR_BATCH, PAIR_BUDGET = 10, 80


def _git_sha() -> str:
    """Commit under test: the CI-provided sha, else the local HEAD."""
    sha = os.environ.get("GITHUB_SHA", "").strip()
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def timed(call: Callable[[], object], units: int = 1) -> Callable[[], float]:
    """A pass for :meth:`GateReport.paired`: the wall seconds of one ``call()`` per *units*."""

    def run() -> float:
        started = time.perf_counter()
        call()
        return (time.perf_counter() - started) / units

    return run


@dataclass(frozen=True)
class Paired:
    """One :meth:`GateReport.paired` draw; *numerator*, *denominator*: median costs."""

    ratio: float
    low: float
    high: float
    pairs: int
    passed: bool
    numerator: float
    denominator: float


class GateReport:
    """Collects one benchmark run's metrics and gate verdicts."""

    def __init__(self, name: str, *, mode: str = "full") -> None:
        self.name = name
        self.mode = mode
        self.metrics: dict[str, float | int | str] = {}
        self.gates: list[dict] = []

    def metric(self, key: str, value) -> None:
        """Record one measured value (numbers preferred; strings allowed)."""
        self.metrics[key] = value

    def paired(
        self,
        key: str,
        numerator: Callable[[], float],
        denominator: Callable[[], float],
        limit: float,
        better: Literal["lower", "higher"],
    ) -> Paired:
        """Judge numerator / denominator against *limit* (``better="lower"``:
        at most) by the paired rule; a pass takes no argument and returns
        its cost.  Median, interval and pair count are recorded as *key*,
        ``<key>_low``, ``<key>_high`` and ``<key>_pairs``."""

        def passes(ratio: float) -> bool:
            return ratio <= limit if better == "lower" else ratio >= limit

        pairs: list[tuple[float, float]] = []
        while len(pairs) < PAIR_BUDGET:
            for _ in range(PAIR_BATCH):
                if len(pairs) % 2:
                    down, up = denominator(), numerator()
                else:
                    up, down = numerator(), denominator()
                pairs.append((up, down))
            ratios = sorted(up / down for up, down in pairs)
            k = max(0, int((len(ratios) - 1.96 * len(ratios) ** 0.5) / 2))
            low, high = ratios[k], ratios[-1 - k]
            if len(pairs) >= 2 * PAIR_BATCH and passes(low) == passes(high):
                break
        ratio = statistics.median(ratios)
        self.metric(key, round(ratio, 4))
        self.metric(f"{key}_low", round(low, 4))
        self.metric(f"{key}_high", round(high, 4))
        self.metric(f"{key}_pairs", len(pairs))
        return Paired(
            ratio, low, high, len(pairs), passes(ratio),
            statistics.median(up for up, _ in pairs),
            statistics.median(down for _, down in pairs),
        )

    def gate(self, key: str, passed: bool, summary: str) -> bool:
        """Record one pass/fail gate; *summary* states the check either way."""
        self.gates.append({"name": key, "passed": bool(passed), "summary": summary})
        return bool(passed)

    @property
    def passed(self) -> bool:
        return all(g["passed"] for g in self.gates)

    def to_dict(self) -> dict:
        return {
            "bench": self.name,
            "mode": self.mode,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_sha": _git_sha(),
            "metrics": self.metrics,
            "gates": self.gates,
            "passed": self.passed,
        }

    def finish(self) -> int:
        """Write the JSON snapshot, print the verdict, return the exit code."""
        json_dir = os.environ.get("REPRO_BENCH_JSON_DIR", "").strip()
        if json_dir:
            target = Path(json_dir)
            target.mkdir(parents=True, exist_ok=True)
            path = target / f"BENCH_{self.name}.json"
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
            print(f"wrote {path}")
        for g in self.gates:
            if not g["passed"]:
                print(f"GATE {self.name}/{g['name']}: FAIL — {g['summary']}")
        print("OK" if self.passed else f"FAIL ({self.name})")
        return 0 if self.passed else 1
