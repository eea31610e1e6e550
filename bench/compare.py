"""Compare two sets of benchmark runs: ``python3 -m bench.compare A.json B.json``.

Each file is what ``python3 -m bench --out`` wrote (untraced runs). For
every workload and end-to-end metric it prints both sets' quartiles, the
ratio of the medians with its base, and a verdict against the bound in
``BENCHMARK.json``:

* ``unresolved`` — either set's inter-quartile spread is wider than the
  bound, and B's runs are not all better than all of A's;
* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the bound (or, with a wide spread, every run of B beats every
  run of A);
* ``unchanged`` — anything else.

The bound cuts both ways because this host drifts by 10 % between two
sets of runs of the same code; a gain smaller than the bound has to be
claimed from interleaved pairs, not from two sets.

Exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from bench import load_spec
from bench.stats import quartiles, spread


def load_runs(path: str) -> List[Dict[str, Any]]:
    """The runs of one output file (a single-run file counts as one)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return data["runs"] if "runs" in data else [data]


def values_of(
    runs: Sequence[Dict[str, Any]], workload: str, metric: str
) -> List[float]:
    """Every reading of *metric* on *workload* across *runs*."""
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and metric in run["metrics"]
    ]


def verdict(
    base: Sequence[float], other: Sequence[float], better: str, bound: float
) -> str:
    """improved / unchanged / regressed / unresolved, as the module says."""
    a, b = quartiles(base)["median"], quartiles(other)["median"]
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if max(spread(base), spread(other)) > bound:
        all_better = (
            max(other) < min(base) if better == "lower"
            else min(other) > max(base)
        )
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > bound:
        return "improved"
    return "unchanged"


def compare(
    spec: Dict[str, Any],
    runs_a: Sequence[Dict[str, Any]],
    runs_b: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both sets."""
    rows = []
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            base = values_of(runs_a, workload, metric["name"])
            other = values_of(runs_b, workload, metric["name"])
            if not base or not other:
                continue
            a, b = quartiles(base), quartiles(other)
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": a, "b": b, "runs": (len(base), len(other)),
                "ratio": b["median"] / a["median"],
                "bound": metric["bound"],
                "verdict": verdict(
                    base, other, metric["better"], metric["bound"]
                ),
            })
    return rows


def render(row: Dict[str, Any]) -> str:
    """One printed row: quartiles of both sets, ratio with base, verdict."""
    def cut(q: Dict[str, float]) -> str:
        return f"{q['q1']:.4g}/{q['median']:.4g}/{q['q3']:.4g}"

    return (
        f"{row['workload']:14s} {row['metric']:18s} "
        f"A[{row['runs'][0]}] {cut(row['a']):>26s}  "
        f"B[{row['runs'][1]}] {cut(row['b']):>26s} {row['unit']:4s} "
        f"B/A={row['ratio']:.3f} of {row['a']['median']:.4g} "
        f"bound={row['bound']:.2f} {row['verdict']}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the exit code."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    rows = compare(load_spec(), load_runs(args[0]), load_runs(args[1]))
    print("quartiles are q1/median/q3; A is the base of every ratio")
    for row in rows:
        print(render(row))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
