"""Per-class figures every workload reports the same way.

Each workload drives two classes of operation. ``capped`` operations ask
for at most sigma nodes and stop once they have them; ``exhaustive``
operations traverse the whole query region. Which queries or requests
play each part is in the workload's module docstring.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

from bench.stats import summarize

CLASSES = ("capped", "exhaustive")


def by_class(rows: Sequence[Dict[str, Any]], kind: str) -> list:
    """The rows of one class, in order."""
    return [row for row in rows if row["kind"] == kind]


def class_metrics(
    rows: Sequence[Dict[str, Any]], walls: Mapping[str, float]
) -> Dict[str, float]:
    """Per class: throughput, median latency, supported tail, sample count.

    *rows* carry ``kind``, ``ms`` and ``error``; *walls* is the seconds
    spent on each class. A failed op stays in the wall and gives no
    latency sample, so it counts as missing every latency figure.
    """
    metrics: Dict[str, float] = {}
    for kind in CLASSES:
        good = [
            row["ms"] for row in by_class(rows, kind) if row["error"] is None
        ]
        summary = summarize(good)
        metrics[f"{kind}_per_s"] = len(good) / walls[kind]
        metrics[f"{kind}_ms_p50"] = summary["p50"]
        metrics[f"{kind}_ms_tail"] = summary["tail"]
        metrics[f"{kind}_ms_tail_pct"] = summary["tail_pct"]
        metrics[f"{kind}_samples"] = summary["count"]
    return metrics


def overhead_ratio(
    traced: Mapping[str, float], plain: Mapping[str, float]
) -> float:
    """Traced over untraced throughput, averaged over the classes."""
    return sum(
        traced[f"{kind}_per_s"] / plain[f"{kind}_per_s"] for kind in CLASSES
    ) / len(CLASSES)


def result(
    rows: Sequence[Dict[str, Any]],
    metrics: Dict[str, float],
    detail: Dict[str, Any],
) -> Dict[str, Any]:
    """A workload's raw result: counts, metrics and explanatory detail."""
    detail["samples"] = {
        kind: sum(1 for row in by_class(rows, kind) if row["error"] is None)
        for kind in CLASSES
    }
    detail["errors"] = [row["error"] for row in rows if row["error"]][:10]
    return {
        "attempted": len(rows),
        "failed": sum(1 for row in rows if row["error"] is not None),
        "metrics": metrics,
        "detail": detail,
    }
