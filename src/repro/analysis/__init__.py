"""Static invariant checkers for the CBES reproduction.

The paper's claim that CS/NCS find near-optimal mappings rests on the
evaluation ``S_M = max_i(R_i + C_i)`` (eqs. 5-8) being computed
identically on every path — serial, incremental, pooled worker, or
daemon.  PRs 1-3 added exactly the machinery that can silently break
that (seeded RNG substreams, pickled ``SearchSpec`` closures, an asyncio
event loop), so this package enforces the invariants mechanically:

* one parse + one AST walk per file feeds every registered checker
  (:mod:`repro.analysis.engine`);
* the rule pack RPR100-RPR106 (:mod:`repro.analysis.checkers`);
* inline ``# repro: disable=RPR###`` suppressions and a committed
  baseline for grandfathered findings (:mod:`repro.analysis.baseline`);
* a CLI with text/JSON output and stable exit codes
  (``python -m repro.analysis``, :mod:`repro.analysis.cli`).

See docs/ANALYSIS.md for the rule catalog and workflow.
"""

from __future__ import annotations

from typing import Any

from repro._util import LazyExports

__all__ = [
    "AnalysisReport",
    "Checker",
    "CheckerContext",
    "Finding",
    "analyze_paths",
    "analyze_source",
    "apply_baseline",
    "load_baseline",
    "module_name_for",
    "register",
    "registered_checkers",
    "write_baseline",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "baseline": ("apply_baseline", "load_baseline", "write_baseline"),
        "engine": (
            "Checker",
            "CheckerContext",
            "analyze_paths",
            "analyze_source",
            "module_name_for",
            "register",
            "registered_checkers",
        ),
        "findings": ("AnalysisReport", "Finding"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()
