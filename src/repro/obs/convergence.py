"""Per-round convergence telemetry for gossip-maintained overlays.

Figures 11–13 of the paper judge the overlay only through delivery — a
converged/not-converged verdict per query. :class:`ConvergenceProbe`
samples the *routing state itself* once per gossip round and emits a
time series of:

* ``slot_fill`` — mean fraction of neighboring-cell slots holding a
  primary link (the raw link-state health);
* ``view_distance`` — how far the tables are from the ground-truth
  optimum: 1 minus the fraction of *satisfiable* slots (slots whose
  neighboring cell is actually inhabited, per the deployment's cell
  index) that hold a link. 0.0 means every link gossip could possibly
  provide is in place;
* ``repaired`` / ``broken`` — slots that transitioned empty→filled
  (gossip repair) and filled→empty (churn damage) since the previous
  sample, summed over live nodes.

This turns "delivery recovered after 15 minutes" into a per-round view of
the repair actually happening underneath.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.core.cells import bucket_code, iter_slots
from repro.core.descriptors import Address

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry
    from repro.sim.deployment import Deployment


class ConvergenceProbe:
    """Samples routing-table health of a deployment once per interval.

    Parameters
    ----------
    deployment:
        The :class:`~repro.sim.deployment.Deployment` to observe.
    interval:
        Simulated seconds between samples (default: one gossip period).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        the probe publishes ``overlay.slot_fill`` / ``overlay.view_distance``
        gauges and an ``overlay.links_repaired`` counter alongside its rows.
    """

    def __init__(
        self,
        deployment: "Deployment",
        interval: float = 10.0,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.deployment = deployment
        self.interval = interval
        self.rows: List[Dict[str, float]] = []
        self._previous: Dict[Address, FrozenSet[Tuple[int, int]]] = {}
        self._timer = None
        if registry is not None:
            self._fill_gauge = registry.gauge("overlay.slot_fill")
            self._distance_gauge = registry.gauge("overlay.view_distance")
            self._repaired_counter = registry.counter("overlay.links_repaired")
        else:
            self._fill_gauge = None
            self._distance_gauge = None
            self._repaired_counter = None

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Take an initial sample and begin periodic sampling."""
        self.sample()
        self._schedule()

    def stop(self) -> None:
        """Stop sampling (rows stay available)."""
        if self._timer is not None:
            self.deployment.simulator.cancel(self._timer)
            self._timer = None

    def _schedule(self) -> None:
        self._timer = self.deployment.simulator.schedule(
            self.interval, self._tick
        )

    def _tick(self) -> None:
        self.sample()
        self._schedule()

    # -- sampling ---------------------------------------------------------------

    def _satisfiable_map(
        self, max_level: int, dimensions: int
    ) -> Dict[int, FrozenSet[Tuple[int, int]]]:
        """Ground truth: per occupied C0 cell key, its inhabited slots."""
        codes = [
            members[0].code for _, members in self.deployment.index.cells()
        ]
        slots = list(iter_slots(dimensions, max_level))
        occupied = {
            (slot, bucket_code(code, *slot, dimensions))
            for code in codes
            for slot in slots
        }
        return {
            code: frozenset(
                slot
                for slot in slots
                if (slot, bucket_code(code, *slot, dimensions) ^ 1) in occupied
            )
            for code in codes
        }

    def sample(self) -> Dict[str, float]:
        """Take one sample now; appends and returns the row."""
        deployment = self.deployment
        hosts = deployment.alive_hosts()
        schema = deployment.schema
        satisfiable_by_cell = self._satisfiable_map(
            schema.max_level, schema.dimensions
        )
        filled_total = 0
        slots_total = 0
        satisfied = 0
        satisfiable_total = 0
        repaired = 0
        broken = 0
        current: Dict[Address, FrozenSet[Tuple[int, int]]] = {}
        for host in hosts:
            routing = host.node.routing
            filled = frozenset(routing.filled_slots())
            current[host.address] = filled
            filled_total += len(filled)
            slots_total += routing.total_slots()
            satisfiable = satisfiable_by_cell.get(
                host.descriptor.code, frozenset()
            )
            satisfied += len(filled & satisfiable)
            satisfiable_total += len(satisfiable)
            previous = self._previous.get(host.address)
            if previous is not None:
                repaired += len(filled - previous)
                broken += len(previous - filled)
        self._previous = current
        slot_fill = filled_total / slots_total if slots_total else 0.0
        view_distance = (
            1.0 - satisfied / satisfiable_total if satisfiable_total else 0.0
        )
        row = {
            "time": deployment.simulator.now,
            "alive": float(len(hosts)),
            "slot_fill": slot_fill,
            "view_distance": view_distance,
            "repaired": float(repaired),
            "broken": float(broken),
        }
        self.rows.append(row)
        if self._fill_gauge is not None:
            self._fill_gauge.set(slot_fill)
            self._distance_gauge.set(view_distance)
            self._repaired_counter.inc(repaired)
        return row
