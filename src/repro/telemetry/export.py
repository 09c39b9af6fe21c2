"""Exporter: Prometheus text exposition of a registry snapshot.

Renders from a :meth:`MetricsRegistry.snapshot` document, so output
order is deterministic (metrics by name, samples by label values) and
agrees with the JSON form — which is the snapshot document itself.
"""

from __future__ import annotations

import math

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "snapshot_to_prometheus",
]

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labelstr(labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(k, str(v)) for k, v in labels.items()] + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document as Prometheus
    text exposition (version 0.0.4)."""
    lines: list[str] = []
    for name, family in snapshot.items():
        kind = family["type"]
        if family["help"]:
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if kind == "histogram":
                for bound, cumulative in sample["buckets"]:
                    le = _labelstr(labels, (("le", format(bound, "g")),))
                    lines.append(f"{name}_bucket{le} {_fmt(cumulative)}")
                inf = _labelstr(labels, (("le", "+Inf"),))
                lines.append(f"{name}_bucket{inf} {_fmt(sample['count'])}")
                lines.append(f"{name}_sum{_labelstr(labels)} {_fmt(sample['sum'])}")
                lines.append(f"{name}_count{_labelstr(labels)} {_fmt(sample['count'])}")
            else:
                lines.append(f"{name}{_labelstr(labels)} {_fmt(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
