"""Figure 11 — delivery under continuous churn.

Every 10 seconds, 0.1% (Fig. 11(a)) or 0.2% (Fig. 11(b)) of the nodes
"leave the system and re-enter it under a different identity" (0.2% per
10 s matches the churn measured in Gnutella). One threshold-less query is
issued every 30 seconds; the underlying gossip stack is the only repair
mechanism. The paper finds 0.1% churn "barely disrupts the delivery" while
0.2% lowers it to a still-high plateau (~0.8+); broken-link drops are never
retried to avoid masking the effect.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig, PAPER_PEERSIM
from repro.experiments.harness import build_deployment
from repro.experiments.timeline import delivery_timeline
from repro.sim.churn import ContinuousChurn
from repro.sim.deployment import Deployment
from repro.util.rng import derive_rng
from repro.workloads.distributions import uniform_sampler


def _arm_fault_scenario(
    deployment: Deployment,
    name: Optional[str],
    severity: Optional[float],
    duration: float,
    seed: int,
    annotate: Optional[Callable[[float, str], None]] = None,
):
    """Schedule a chaos scenario over the middle third of the window.

    Returns a zero-arg *heal* callable that is safe to invoke after the
    run regardless of whether the scenario ever activated. *annotate*
    (e.g. ``Telemetry.annotate``) receives the fault-phase boundaries so
    exported timelines carry them.
    """
    if name is None:
        return lambda: None
    from repro.faults.scenarios import apply_scenario

    box: Dict[str, object] = {}
    start = deployment.simulator.now + duration / 3.0
    end = deployment.simulator.now + 2.0 * duration / 3.0
    if annotate is not None:
        annotate(start, f"fault:{name}")
        annotate(end, "heal")

    def _arm() -> None:
        box["active"] = apply_scenario(
            deployment,
            name,
            severity=severity,
            heal_at=end,
            rng=derive_rng(seed, "fault-scenario"),
        )

    def _heal() -> None:
        active = box.get("active")
        if active is not None:
            active.stop()

    deployment.simulator.schedule_at(start, _arm)
    deployment.simulator.schedule_at(end, _heal)
    return _heal


def run(
    churn_rate: float = 0.001,
    config: Optional[ExperimentConfig] = None,
    warmup: float = 300.0,
    duration: float = 1_500.0,
    churn_interval: float = 10.0,
    query_interval: float = 30.0,
    fault_scenario: Optional[str] = None,
    fault_severity: Optional[float] = None,
) -> List[Dict[str, float]]:
    """Run one churn scenario; returns the ``{time, delivery}`` series."""
    rows, _ = run_with_telemetry(
        churn_rate=churn_rate,
        config=config,
        warmup=warmup,
        duration=duration,
        churn_interval=churn_interval,
        query_interval=query_interval,
        telemetry=False,
        fault_scenario=fault_scenario,
        fault_severity=fault_severity,
    )
    return rows


def run_with_telemetry(
    churn_rate: float = 0.001,
    config: Optional[ExperimentConfig] = None,
    warmup: float = 300.0,
    duration: float = 1_500.0,
    churn_interval: float = 10.0,
    query_interval: float = 30.0,
    telemetry: bool = True,
    telemetry_interval: Optional[float] = None,
    fault_scenario: Optional[str] = None,
    fault_severity: Optional[float] = None,
    telemetry_session=None,
    telemetry_out: Optional[str] = None,
    on_deployment: Optional[Callable[[Deployment], None]] = None,
) -> Tuple[List[Dict[str, float]], List[Dict[str, float]]]:
    """Churn scenario with per-round convergence telemetry.

    Returns ``(rows, telemetry_rows)``: the ``{time, delivery}`` series
    plus one :class:`~repro.obs.convergence.ConvergenceProbe` sample per
    probe interval (default: the churn interval) — slot-fill fraction,
    view-quality distance, and links repaired/broken since the previous
    sample, the fig11 time-series view of overlay self-repair. With
    ``telemetry=False`` the probe is skipped and the second list is empty.

    *fault_scenario* layers a named chaos scenario (see
    :mod:`repro.faults.scenarios`) on top of the churn: it activates over
    the middle third of the measured window and heals afterwards, so each
    run shows healthy, faulted, and recovering thirds in one series.

    The timeline pipeline rides on top: pass *telemetry_session* (a
    :class:`~repro.obs.telemetry.Telemetry`, e.g. the one ``repro dash``
    paints from) and/or *telemetry_out* (a JSONL path; a default session
    is created when none was given). The session's registry and observers
    are threaded through the deployment, the standard series (delivery,
    in-flight, breakers, rtt/rto percentiles, hedge/drop/message rates)
    are sampled on the simulated clock, and fault-phase boundaries are
    annotated. *on_deployment* fires once the deployment is built — the
    hook the dashboard uses to reach host health state.
    """
    cfg = config or PAPER_PEERSIM
    schema = cfg.schema()
    session = telemetry_session
    if session is None and telemetry_out is not None:
        from repro.obs.telemetry import Telemetry

        session = Telemetry(
            sample_interval=(
                telemetry_interval
                if telemetry_interval is not None
                else churn_interval
            )
        )
    deployment, metrics = build_deployment(
        cfg,
        gossip=True,
        retry_on_timeout=False,  # "the message is dropped" (Section 6.6)
        warmup=warmup,
        telemetry=session,
    )
    if on_deployment is not None:
        on_deployment(deployment)
    if session is not None:
        session.install_standard_series(network=deployment.network)
        session.attach(deployment.simulator)
    probe = None
    if telemetry:
        from repro.obs.convergence import ConvergenceProbe

        probe = ConvergenceProbe(
            deployment,
            interval=(
                telemetry_interval
                if telemetry_interval is not None
                else churn_interval
            ),
        )
        probe.start()
    churn = ContinuousChurn(
        deployment,
        rate=churn_rate,
        sampler=uniform_sampler(schema),
        interval=churn_interval,
        rng=derive_rng(cfg.seed, "churn"),
    )
    churn.start()
    heal = _arm_fault_scenario(
        deployment,
        fault_scenario,
        fault_severity,
        duration,
        cfg.seed,
        annotate=session.annotate if session is not None else None,
    )
    rows = delivery_timeline(
        deployment,
        metrics,
        start=deployment.simulator.now,
        duration=duration,
        query_interval=query_interval,
        selectivity=cfg.selectivity,
        seed=cfg.seed,
        on_issue=session.note_query if session is not None else None,
    )
    heal()
    churn.stop()
    if session is not None:
        session.detach()
    if session is not None and telemetry_out is not None:
        from repro.obs.export import write_timeline_jsonl

        write_timeline_jsonl(
            telemetry_out, session.timeline(), session.recorder.annotations
        )
    if probe is not None:
        probe.stop()
        return rows, probe.rows
    return rows, []
