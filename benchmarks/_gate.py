"""Gate reporting for the bench-guard CI job.

Every ``--quick`` benchmark builds one :class:`GateReport`, records the
measured metrics and pass/fail gates, and exits through
:meth:`GateReport.finish`, the one place a result is judged and printed:

* exit status 0 iff every gate passed;
* one readout: every recorded metric beside its committed value, then
  one ``GATE <bench>/<gate>: FAIL — <summary>`` line per failing gate
  (the line the CI log search keys on);
* when ``REPRO_BENCH_JSON_DIR`` is set, a machine-readable
  ``BENCH_<name>.json`` snapshot (timestamp, git sha, metric values,
  gate outcomes, which metrics are counts and which paired medians)
  written there.

The committed baseline of a bench is the ``BENCH_<name>.json`` of its
``--quick`` run at the repository root (:data:`BASELINE_DIR`), captured
by :func:`recapture`'s command; ``tools/bench_trend.py`` prints its
history.  A metric recorded with :meth:`GateReport.count` does not
depend on the host (an integer count, or a ratio of two), so a
quick-mode run gates it ``==`` the committed value; a missing file or
key fails closed.  Timings are printed beside their committed value
and not gated across hosts: a ratio of two timings is judged on the
host itself, by :meth:`GateReport.paired`.

That rule: the numerator pass and the denominator pass run back to back
as a pair, the numerator first in even pairs, and the pair gives one
ratio.  A pair shares its host moment, so host noise mostly cancels in
it (on a shared 2-CPU host a whole best-of-4 schedule pass moved by
-32..+11 % between runs).  Pairs are drawn :data:`PAIR_BATCH` at a time
until the median's distribution-free ~95 % interval (order statistics
``k`` and ``n - 1 - k``, ``k = floor((n - 1.96 sqrt(n)) / 2)``) lies on
one side of the limit, from two batches on, or :data:`PAIR_BUDGET` pairs
are drawn; then the median is judged.
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
#: Where the committed ``BENCH_<name>.json`` baselines live: the repository root.
BASELINE_DIR = Path(__file__).resolve().parents[1]


def recapture(name: str) -> str:
    """The command, run from the repository root, that re-captures *name*'s baseline."""
    return f"REPRO_BENCH_JSON_DIR=. PYTHONPATH=src python benchmarks/bench_{name}.py --quick"


def _show(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


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
        self.counts: list[str] = []
        self.paired_keys: list[str] = []
        self.gates: list[dict] = []

    def metric(self, key: str, value) -> None:
        """Record one measured value (numbers preferred; strings allowed)."""
        self.metrics[key] = value

    def count(self, key: str, value: float) -> None:
        """Record a count no host changes (an integer, or a ratio of two):
        :meth:`finish` gates it ``==`` the committed quick-mode value."""
        self.metric(key, value)
        self.counts.append(key)

    def paired(
        self,
        key: str,
        numerator: Callable[[], float],
        denominator: Callable[[], float],
        limit: float,
        better: Literal["lower", "higher"],
        reason: str | None,
    ) -> Paired:
        """Judge numerator / denominator against *limit* (``better="lower"``:
        at most) by the paired rule; a pass takes no argument and returns
        its cost.  Median, interval and pair count are recorded as *key*,
        ``<key>_low``, ``<key>_high`` and ``<key>_pairs``, and the verdict
        as the gate *key*, its summary ending in *reason*, one line on what
        a failure means (None: the draw is reported, not gated)."""

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
        self.paired_keys.append(key)
        if reason is not None:
            self.gate(
                key,
                passes(ratio),
                f"{ratio:.3f} [{low:.3f}, {high:.3f}] over {len(pairs)} pairs "
                f"(limit {'<=' if better == 'lower' else '>='} {limit}): {reason}",
            )
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
            "counts": self.counts,
            "paired": self.paired_keys,
            "gates": self.gates,
            "passed": self.passed,
        }

    def committed(self) -> dict[str, float | int | str] | None:
        """The committed quick-mode metrics of this bench, None when there are none."""
        try:
            doc = json.loads((BASELINE_DIR / f"BENCH_{self.name}.json").read_text())
        except FileNotFoundError:
            return None
        return doc["metrics"] if doc.get("mode") == "quick" else None

    def _gate_counts(self, committed: dict | None) -> None:
        """Gate every count ``==`` its committed value; a missing file or key fails."""
        source, again = f"BENCH_{self.name}.json", f"re-capture with `{recapture(self.name)}`"
        for key in self.counts:
            value = self.metrics[key]
            if committed is None:
                self.gate(key, False, f"{key} = {value!r}: no committed quick-mode {source}; {again}")
            elif key not in committed:
                self.gate(key, False, f"{key} = {value!r}: {source} holds no {key}; {again}")
            else:
                self.gate(
                    key,
                    value == committed[key],
                    f"{key} = {value!r}, committed {committed[key]!r}: a count moved; if on "
                    f"purpose, {again} and say why in CHANGES.md",
                )

    def finish(self) -> int:
        """Gate the counts, write the JSON snapshot, print the readout and
        the verdict, return the exit code."""
        committed = self.committed() if self.mode == "quick" else None
        if self.mode == "quick":
            self._gate_counts(committed)
        json_dir = os.environ.get("REPRO_BENCH_JSON_DIR", "").strip()
        if json_dir:  # after the read: a re-capture overwrites the baseline
            target = Path(json_dir)
            target.mkdir(parents=True, exist_ok=True)
            path = target / f"BENCH_{self.name}.json"
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
            print(f"wrote {path}")
        print(f"{f'{self.name} ({self.mode} mode)':<44}{'measured':>14}    committed")
        for key, value in self.metrics.items():
            rule = "==" if key in self.counts and committed is not None else "  "
            held = "-" if committed is None else _show(committed.get(key, "-"))
            print(f"  {key:<42}{_show(value):>14} {rule} {held}")
        if self.mode != "quick":
            print(f"counts not compared: a {self.mode}-mode run has no committed baseline")
        for g in self.gates:
            if not g["passed"]:
                print(f"GATE {self.name}/{g['name']}: FAIL — {g['summary']}")
        print("OK" if self.passed else f"FAIL ({self.name})")
        return 0 if self.passed else 1
