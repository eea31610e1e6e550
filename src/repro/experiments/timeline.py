"""Delivery-over-time measurement shared by the churn/failure figures.

Sections 6.6/6.7 measure *delivery* — the fraction of matching nodes that
actually receive each query — by issuing one threshold-less query every few
seconds while the membership scenario (churn, massive failure, PlanetLab
kills) unfolds. Queries are issued fire-and-forget; delivery is computed
from the reception records, so a query whose collection phase is disrupted
still reports how far it spread.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.metrics.collectors import MetricsCollector
from repro.sim.deployment import Deployment
from repro.util.rng import derive_rng
from repro.workloads.queries import aligned_selectivity_query


def issue_probe(overlay, alive: Sequence, selectivity: float, rng):
    """Issue one threshold-less probe query from a random *alive* origin.

    Returns ``(origin, query_id, expected)``: *expected* is the set of
    addresses that matched at issue time, the ground truth of delivery.
    """
    query = aligned_selectivity_query(overlay.schema, selectivity, rng)
    expected = {d.address for d in overlay.matching_descriptors(query)}
    origin = rng.choice(alive)
    return origin, origin.issue_query(query), expected


def delivery_timeline(
    deployment: Deployment,
    metrics: MetricsCollector,
    start: float,
    duration: float,
    query_interval: float = 30.0,
    selectivity: float = 0.125,
    grace: float = 60.0,
    seed: int = 5,
    on_issue: Optional[Callable[[object, set], None]] = None,
) -> List[Dict[str, float]]:
    """Issue periodic queries from *start* for *duration* seconds.

    Returns rows of ``{time, delivery, expected}`` — one per issued query,
    with delivery evaluated against the nodes that matched *and were alive*
    at issue time (the paper's ground truth).

    *on_issue(query_id, expected)* fires right after each query is issued
    — the hook the telemetry pipeline uses to point its live ``delivery``
    series at the current query. It does not touch the rng streams, so
    wiring it changes nothing about the measured run.
    """
    rng = derive_rng(seed, "timeline")
    pending: List[Dict[str, object]] = []
    time = start
    end = start + duration
    while time < end:
        deployment.simulator.run(until=time)
        alive = deployment.alive_hosts()
        if not alive:
            break
        _, query_id, expected = issue_probe(
            deployment, alive, selectivity, rng
        )
        if on_issue is not None:
            on_issue(query_id, expected)
        pending.append(
            {"time": time, "query_id": query_id, "expected": expected}
        )
        time += query_interval
    deployment.simulator.run(until=end + grace)
    rows: List[Dict[str, float]] = []
    for item in pending:
        expected = item["expected"]
        rows.append(
            {
                "time": item["time"],
                "delivery": metrics.delivery_of(item["query_id"], expected),
                "expected": len(expected),
            }
        )
    return rows


def mean_delivery_after(
    rows: List[Dict[str, float]], time: float
) -> Optional[float]:
    """Average delivery of the queries issued at or after *time*."""
    tail = [row["delivery"] for row in rows if row["time"] >= time]
    return sum(tail) / len(tail) if tail else None
