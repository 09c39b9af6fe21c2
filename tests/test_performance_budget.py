"""docs/PERFORMANCE.md's budget table is held to the committed baselines.

Every row of the table cites its source: a committed
``BENCH_<name>.json`` key, whose value the row must quote at the
precision it shows, or the end-to-end command and the per-layer metric
it prints, which must be a per-layer metric of ``BENCHMARK.json``.
A baseline re-captured without its rows, or a row naming a key or a
metric that no longer exists, fails here.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "PERFORMANCE.md"

BENCH_KEY = re.compile(r"`(BENCH_\w+\.json)` `(\w+)`")
E2E_METRIC = re.compile(
    r"`python3 benchmarks/e2e/run\.py --workload (\w+) --trace 1` → `([\w.]+)`"
)
#: The six layers ROADMAP's budget asks a figure for, by the source each cites.
REQUIRED_SOURCES = {
    "evaluations/s": ("BENCH_incremental_eval.json", "inc_rate_per_s"),
    "batch evaluations/s": ("BENCH_batch_eval.json", "batch_rate_per_s"),
    "SA moves/s": ("BENCH_incremental_eval.json", "sa_moves_per_s"),
    "context build ms": ("BENCH_incremental_eval.json", "cold_context_ms_128"),
    "serialize µs": ("quote_stream", "server.serialize_us"),
    "journal write µs, always": ("quote_stream", "persist.append_us.always"),
    "journal write µs, interval": ("quote_stream", "persist.append_us.interval"),
    "journal write µs, never": ("quote_stream", "persist.append_us.never"),
    "router hop": ("quote_stream", "fleet.hop_ms"),
}


def budget_rows() -> list[list[str]]:
    """The cells of each data row of the table under ``## The budget``."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("\n## The budget\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def committed(bench_file: str) -> dict:
    return json.loads((ROOT / bench_file).read_text(encoding="utf-8"))["metrics"]


def shown(value: float, quoted: str) -> str:
    """*value* at the number of decimals *quoted* shows."""
    decimals = len(quoted.partition(".")[2])
    return f"{value:.{decimals}f}"


def test_the_table_has_rows_and_every_row_one_source():
    rows = budget_rows()
    assert len(rows) >= 20
    for cells in rows:
        assert len(cells) == 5, cells
        sources = BENCH_KEY.findall(cells[3]) + E2E_METRIC.findall(cells[3])
        assert len(sources) == 1, cells


def test_bench_rows_quote_the_committed_values():
    for layer, figure, value, source, _gate in budget_rows():
        for bench_file, key in BENCH_KEY.findall(source):
            assert (ROOT / bench_file).is_file(), f"{figure}: no {bench_file}"
            metrics = committed(bench_file)
            assert key in metrics, f"{figure}: {bench_file} has no {key!r}"
            quoted = re.sub(r"\s", "", value)
            assert shown(metrics[key], quoted) == quoted, (
                f"{layer} / {figure}: quotes {value}, {bench_file} {key} is {metrics[key]}"
            )


def test_e2e_rows_name_per_layer_metrics_of_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for _layer, figure, value, source, _gate in budget_rows():
        for workload, metric in E2E_METRIC.findall(source):
            assert workload in workloads, figure
            assert metric in per_layer, f"{figure}: {metric} is not a per-layer metric"
            float(re.sub(r"\s", "", value))  # a measured figure, not a placeholder


def test_each_layer_of_the_budget_has_its_row():
    cited = set()
    for cells in budget_rows():
        cited.update(BENCH_KEY.findall(cells[3]), E2E_METRIC.findall(cells[3]))
    for layer, source in REQUIRED_SOURCES.items():
        assert source in cited, f"no budget row for {layer} ({source})"


def test_every_bench_key_the_document_names_exists():
    for bench_file, key in BENCH_KEY.findall(DOC.read_text(encoding="utf-8")):
        assert key in committed(bench_file), f"{bench_file} has no {key!r}"
