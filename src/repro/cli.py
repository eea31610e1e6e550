"""Command-line interface for the reproduction harness.

Usage::

    python -m repro list
    python -m repro run fig06 --size 5000 --queries 25
    python -m repro run fig11 --size 500 --churn 0.002 --duration 900
    python -m repro run table1
    python -m repro run traffic --size 600
    python -m repro trace --size 1000 --selectivity 0.125
    python -m repro chaos --scenario partition-50 --seed 7
    python -m repro dash --size 500 --churn 0.002
    python -m repro run fig11 --telemetry --telemetry-out out.jsonl

Each ``run`` command regenerates one table/figure at a configurable scale
and prints the same rows/series the paper reports; ``--profile`` appends a
phase cost breakdown, ``run fig11 --telemetry`` adds the per-round overlay
repair series, ``run fig11 --telemetry-out FILE`` dumps the sampled
telemetry timeline (delivery, in-flight, breakers, RTT percentiles …) as
JSONL, and ``run fig11/fig12 --faults <scenario>`` layers a chaos scenario
over the run. ``trace`` issues one query on a converged overlay and
renders its reconstructed hop tree (see docs/OBSERVABILITY.md). ``dash``
runs a churn scenario and paints a live sparkline dashboard with fleet
health tables (``--once`` renders a single frame for CI smokes). ``chaos``
runs a workload under a named fault scenario and checks the resilience
invariants (see docs/RESILIENCE.md); it exits nonzero on any violation,
so CI can gate on it, and ``--json`` embeds the telemetry timeline with
fault-phase annotations.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    fig06_network_size,
    fig07_selectivity,
    fig08_dimensions,
    fig09_load,
    fig10_neighbors,
    fig11_churn,
    fig12_massive_failure,
    fig13_planetlab,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_histogram, format_profile, format_table
from repro.experiments.tables import TABLE1_ROWS, verify_defaults
from repro.obs import profile

PERCENT_LABELS = [f"{10 * i}-{10 * (i + 1)}%" for i in range(10)]


def _config(args: argparse.Namespace, testbed: str = "peersim") -> ExperimentConfig:
    return ExperimentConfig(
        network_size=args.size, seed=args.seed, testbed=testbed
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    print(format_table(TABLE1_ROWS, ["parameter", "value"], "Table 1"))
    problems = verify_defaults()
    if problems:
        print("\nDEFAULTS OUT OF SYNC:", *problems, sep="\n  ")
        return 1
    print("\nLibrary defaults verified against Table 1.")
    return 0


def _cmd_fig06(args: argparse.Namespace) -> int:
    sizes = tuple(
        int(s) for s in (args.sizes.split(",") if args.sizes else ())
    ) or (100, 500, 2_000, args.size)
    rows = fig06_network_size.run(
        sizes=sizes, queries_per_size=args.queries, config=_config(args),
        jobs=args.jobs,
    )
    print(format_table(
        rows, ["size", "overhead", "overhead_unaligned", "duplicates"],
        "Figure 6: routing overhead vs network size",
    ))
    return 0


def _cmd_fig07(args: argparse.Namespace) -> int:
    rows = fig07_selectivity.run(
        queries_per_point=args.queries, config=_config(args), jobs=args.jobs
    )
    print(format_table(
        rows,
        ["selectivity", "best_sigma_inf", "worst_sigma_inf", "worst_sigma_50"],
        "Figure 7: routing overhead vs selectivity",
    ))
    return 0


def _cmd_fig08(args: argparse.Namespace) -> int:
    rows = fig08_dimensions.run(
        queries_per_point=args.queries, config=_config(args), jobs=args.jobs
    )
    print(format_table(
        rows, ["dimensions", "overhead"],
        "Figure 8: routing overhead vs dimensions",
    ))
    return 0


def _cmd_fig09(args: argparse.Namespace) -> int:
    results = fig09_load.run_distribution_comparison(
        config=_config(args), queries=args.queries, jobs=args.jobs
    )
    for label, data in results.items():
        print(format_histogram(
            data["histogram"], PERCENT_LABELS,
            title=f"Figure 9(a): {label} population",
        ))
        print(f"  gini={data['gini']:.3f} max={data['max']}\n")
    results = fig09_load.run_dht_comparison(
        size=args.size, queries=args.queries
    )
    for label, data in results.items():
        print(format_histogram(
            data["histogram"], PERCENT_LABELS, title=f"Figure 9(b): {label}",
        ))
        print(
            f"  gini={data['gini']:.3f} max={data['max']} "
            f"idle={100 * data['idle_fraction']:.0f}%\n"
        )
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    rows = fig10_neighbors.run_dimension_sweep(
        config=_config(args), jobs=args.jobs
    )
    print(format_table(
        rows, ["dimensions", "mean_links", "mean_zero_links", "filled_slots"],
        "Figure 10(a): neighbors vs dimensions",
    ))
    results = fig10_neighbors.run_link_distribution(config=_config(args))
    for label, data in results.items():
        print(f"\nFigure 10(b) {label}: mean={data['mean']:.1f} "
              f"max={data['max']}")
    return 0


def _cmd_fig11(args: argparse.Namespace) -> int:
    rows, telemetry = fig11_churn.run_with_telemetry(
        churn_rate=args.churn,
        config=_config(args),
        duration=args.duration,
        telemetry=args.telemetry,
        fault_scenario=args.faults or None,
        fault_severity=args.fault_severity,
        telemetry_out=args.telemetry_out or None,
    )
    if args.telemetry_out:
        print(f"wrote telemetry timeline to {args.telemetry_out}\n")
    print(format_table(
        rows, ["time", "delivery", "expected"],
        f"Figure 11: delivery under {100 * args.churn:.1f}%/10s churn",
    ))
    if telemetry:
        print()
        print(format_table(
            telemetry,
            ["time", "alive", "slot_fill", "view_distance",
             "repaired", "broken"],
            "Overlay telemetry: per-round repair under churn",
        ))
    return 0


def _cmd_fig12(args: argparse.Namespace) -> int:
    rows = fig12_massive_failure.run(
        fraction=args.fraction,
        config=_config(args),
        after=args.duration,
        fault_scenario=args.faults or None,
        fault_severity=args.fault_severity,
    )
    print(format_table(
        rows, ["time", "delivery", "after_failure"],
        f"Figure 12: delivery across a {100 * args.fraction:.0f}% failure",
    ))
    return 0


def _cmd_fig13(args: argparse.Namespace) -> int:
    rows = fig13_planetlab.run(
        config=_config(args, testbed="planetlab"),
        kill_interval=args.interval,
        rounds=args.rounds,
    )
    print(format_table(
        rows, ["time", "delivery", "alive"],
        "Figure 13: repeated 10% kills (PlanetLab preset)",
    ))
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.experiments.harness import build_deployment
    from repro.metrics.traffic import measure_gossip_traffic

    deployment, _ = build_deployment(
        _config(args), gossip=True, warmup=120.0
    )
    report = measure_gossip_traffic(deployment, duration=args.duration)
    print(
        "Maintenance traffic (Section 6):\n"
        f"  gossip messages sent/node/cycle    : "
        f"{report.sent_per_node_per_cycle:.2f}\n"
        f"  gossip messages touched/node/cycle : "
        f"{report.touched_per_node_per_cycle:.2f}\n"
        f"  bytes/node/cycle (320 B messages)  : "
        f"{report.bytes_per_node_per_cycle:.0f}\n"
        f"  standing bandwidth per node        : "
        f"{report.bytes_per_second_per_node():.0f} B/s"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a loopback overlay over HTTP (or run the CI smoke gate)."""
    import asyncio
    import json

    from repro.obs.registry import MetricsRegistry
    from repro.server import ServeConfig

    registry = MetricsRegistry()
    config = ExperimentConfig(
        network_size=args.size, seed=args.seed, dimensions=args.dimensions
    )
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        per_client_limit=args.client_limit,
        request_timeout=args.request_timeout,
    )
    if args.smoke:
        from repro.experiments.serve_smoke import run_serve_smoke

        row = asyncio.run(run_serve_smoke(
            config,
            args.smoke,
            args.concurrency,
            ServeConfig(
                max_pending=max(64, 2 * args.concurrency),
                per_client_limit=args.concurrency,
                request_timeout=args.request_timeout,
            ),
            registry,
        ))
        print(json.dumps(row, indent=2))
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                json.dump(registry.snapshot(), handle, indent=2)
            print(f"wrote metrics snapshot to {args.metrics_out}")
        ok = (
            row["delivered"] == 1.0
            and row["errors"] == 0
            and row["drained"]
        )
        print("smoke: " + ("OK" if ok else "DELIVERY/DRAIN VIOLATION"))
        return 0 if ok else 1

    async def _serve() -> int:
        from repro.runtime.aio import AioOverlay
        from repro.server import serve_overlay
        from repro.workloads.distributions import uniform_sampler

        schema = config.schema()
        async with AioOverlay(
            schema, seed=args.seed, registry=registry
        ) as overlay:
            await overlay.populate(uniform_sampler(schema), args.size)
            overlay.bootstrap()
            server = await serve_overlay(
                overlay, config=serve_config, registry=registry
            )
            server.install_signal_handlers()
            print(
                f"serving {args.size} nodes on "
                f"http://{args.host}:{server.port} "
                "(POST /query, GET /healthz, GET /metrics; "
                "SIGTERM drains)",
                flush=True,
            )
            await server.serve_until_closed()
            print("drained; bye")
        return 0

    return asyncio.run(_serve())


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.harness import build_deployment
    from repro.obs.render import render_hop_tree
    from repro.obs.tracer import TraceRecorder
    from repro.util.rng import derive_rng
    from repro.workloads.queries import aligned_selectivity_query

    config = _config(args)
    tracer = TraceRecorder()
    deployment, metrics = build_deployment(config, extra_observers=(tracer,))
    tracer.bind_clock(lambda: deployment.simulator.now)
    rng = derive_rng(args.seed, "trace")
    query = aligned_selectivity_query(
        deployment.schema, args.selectivity, rng
    )
    expected = {
        descriptor.address
        for descriptor in deployment.matching_descriptors(query)
    }
    deployment.execute_query(query)
    trace = tracer.last_trace()
    if trace is None:
        print("no query trace was recorded", file=sys.stderr)
        return 1
    print(render_hop_tree(trace, max_lines=args.max_lines))
    once = trace.exactly_once(expected)
    print(f"\nexpected matches : {len(expected)}")
    print(
        "delivery         : "
        f"{metrics.mean_delivery({trace.query_id: expected}):.3f}"
    )
    print("exactly-once     : " + ("yes" if once else "NO"))
    if args.jsonl:
        lines = tracer.write_jsonl(args.jsonl)
        print(f"wrote {lines} events to {args.jsonl}")
    return 0 if once else 1


def _cmd_dash(args: argparse.Namespace) -> int:
    """Run a churn scenario and paint the live telemetry dashboard."""
    from repro.experiments.timeline import mean_delivery_after
    from repro.obs.dash import Dashboard, health_summary
    from repro.obs.telemetry import Telemetry

    session = Telemetry(sample_interval=args.interval)
    holder: Dict[str, object] = {}

    def on_deployment(deployment) -> None:
        holder["deployment"] = deployment

    def health_provider(now: float):
        deployment = holder.get("deployment")
        if deployment is None:
            return None
        # A bounded host sample: the dashboard summarises fleet health,
        # it does not audit every node.
        return health_summary(deployment.alive_hosts()[:64], now)

    title = (
        f"repro dash — N={args.size}, churn {100 * args.churn:.1f}%/10s"
        + (f", faults={args.faults}" if args.faults else "")
    )
    dashboard = Dashboard(
        session.recorder,
        health_provider=health_provider,
        title=title,
        live=not args.once,
    )
    if not args.once:
        session.recorder.on_sample(dashboard.paint)
    rows, _ = fig11_churn.run_with_telemetry(
        churn_rate=args.churn,
        config=_config(args),
        warmup=args.warmup,
        duration=args.duration,
        telemetry=False,
        telemetry_interval=args.interval,
        fault_scenario=args.faults or None,
        fault_severity=args.fault_severity,
        telemetry_session=session,
        telemetry_out=args.telemetry_out or None,
        on_deployment=on_deployment,
    )
    deployment = holder.get("deployment")
    if args.once and deployment is not None:
        dashboard.paint(deployment.simulator.now)
    mean = mean_delivery_after(rows, 0.0)
    print(
        f"\nrun complete: {len(rows)} queries, "
        f"mean delivery {mean:.3f}" if mean is not None else "\nrun complete"
    )
    if args.telemetry_out:
        print(f"wrote telemetry timeline to {args.telemetry_out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.faults.harness import adapter_for, run_chaos, unknown_scenario
    from repro.faults.scenarios import SCENARIOS, scenario_names

    if args.list or not args.scenario:
        print("Available chaos scenarios:")
        for name in scenario_names():
            spec = SCENARIOS[name]
            print(f"  {name:16} {spec.summary}")
        if not args.list:
            print("\nRun one with: python -m repro chaos --scenario <name>",
                  file=sys.stderr)
            return 2
        return 0
    runtime = adapter_for(args.runtime)
    if args.scenario not in runtime.scenarios:
        print(unknown_scenario(args.scenario, args.runtime), file=sys.stderr)
        return 2
    # Unset options keep the runtime's own defaults (the aio runtime's
    # windows are wall-clock seconds); explicit values always pass through.
    given = {
        name: getattr(args, name)
        for name in ("size", "hold", "recovery")
        if getattr(args, name) is not None
    }
    config = dataclasses.replace(
        runtime.defaults,
        seed=args.seed,
        severity=args.severity,
        sweep=not args.no_sweep,
        compare_static=args.compare_static,
        **given,
    )
    report = run_chaos(args.scenario, config, runtime=args.runtime)
    print("\n".join(report.summary_lines()))
    if args.compare_static:
        adaptive = report.counters.get("spurious_timeouts", 0)
        static = report.counters.get("spurious_timeouts_static", 0)
        saved = static - adaptive
        percent = (100.0 * saved / static) if static else 0.0
        print(
            f"\nI5 delta: {static} spurious timeouts static -> {adaptive} "
            f"adaptive ({saved:+d} saved, {percent:.0f}% reduction)"
        )
    if args.json:
        payload = {
            "scenario": report.scenario,
            "severity": report.severity,
            "seed": report.seed,
            "size": report.size,
            "ok": report.ok,
            "invariants": [
                dataclasses.asdict(result) for result in report.invariants
            ],
            "counters": report.counters,
            "sweep": report.sweep_deliveries,
            "rows": [
                {
                    "time": row.time,
                    "phase": row.phase,
                    "delivery": row.delivery,
                    "expected": row.expected,
                    "completed": row.completed,
                }
                for row in report.rows
            ],
            "metrics": report.metrics,
            "timeline": report.timeline,
            "annotations": [
                {"t": time, "label": label}
                for time, label in report.annotations
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote report to {args.json}")
    print("\nresult: " + ("ALL INVARIANTS PASS" if report.ok
                          else "INVARIANT VIOLATION"))
    return 0 if report.ok else 1


COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "table1": _cmd_table1,
    "fig06": _cmd_fig06,
    "fig07": _cmd_fig07,
    "fig08": _cmd_fig08,
    "fig09": _cmd_fig09,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "fig13": _cmd_fig13,
    "traffic": _cmd_traffic,
}


def _jobs_value(raw: str) -> int:
    """Parse ``--jobs``: a non-negative int (0 = all cores)."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = all cores), got {value}"
        )
    return value


def _positive_int(raw: str) -> int:
    """Parse a strictly positive integer argument (argparse exits 2)."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _positive_float(raw: str) -> float:
    """Parse a strictly positive float argument (argparse exits 2)."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'Autonomous Resource "
        "Selection for Decentralized Utility Computing' (ICDCS 2009).",
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")
    run = subparsers.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(COMMANDS))
    run.add_argument("--size", type=_positive_int, default=2_000,
                     help="network size N (default 2000)")
    run.add_argument("--seed", type=int, default=2009)
    run.add_argument("--queries", type=_positive_int, default=20,
                     help="queries per measurement point")
    run.add_argument("--sizes", type=str, default="",
                     help="comma-separated N sweep (fig06)")
    run.add_argument("--churn", type=float, default=0.001,
                     help="churn fraction per 10 s (fig11)")
    run.add_argument("--fraction", type=float, default=0.5,
                     help="failure fraction (fig12)")
    run.add_argument("--duration", type=float, default=900.0,
                     help="measurement duration in simulated seconds")
    run.add_argument("--interval", type=float, default=1200.0,
                     help="kill interval in seconds (fig13)")
    run.add_argument("--rounds", type=int, default=4,
                     help="kill rounds (fig13)")
    run.add_argument("--jobs", "-j", type=_jobs_value, default=1,
                     help="worker processes for sweep points "
                     "(0 = all cores; fig06-fig10)")
    run.add_argument("--profile", action="store_true",
                     help="print a phase cost breakdown after the run")
    run.add_argument("--telemetry", action="store_true",
                     help="emit per-round overlay repair telemetry (fig11)")
    run.add_argument("--telemetry-out", type=str, default="",
                     help="write the sampled telemetry timeline (delivery, "
                     "in-flight, breakers, RTT percentiles, rates) to this "
                     "JSONL file (fig11)")
    run.add_argument("--faults", type=str, default="",
                     help="layer a named chaos scenario over the run "
                     "(fig11/fig12; see 'repro chaos --list')")
    run.add_argument("--fault-severity", type=float, default=None,
                     help="severity for --faults (default: scenario's own)")
    chaos = subparsers.add_parser(
        "chaos",
        help="run a query workload under a fault scenario and check the "
        "resilience invariants",
    )
    chaos.add_argument("--scenario", type=str, default="",
                       help="scenario name (see --list)")
    chaos.add_argument("--runtime", choices=("sim", "aio"), default="sim",
                       help="run the scenario on the simulator (default) or "
                       "on a live loopback UDP overlay with socket-level "
                       "fault injection (its default size and windows are "
                       "loopback-scale: N=48, seconds)")
    chaos.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")
    chaos.add_argument("--size", type=_positive_int, default=None,
                       help="network size N (default 256; aio 48)")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--severity", type=float, default=None,
                       help="fault severity in (0, 1] "
                       "(default: scenario's own)")
    chaos.add_argument("--hold", type=float, default=None,
                       help="seconds the fault stays active "
                       "(default 300; aio 6)")
    chaos.add_argument("--recovery", type=float, default=None,
                       help="post-heal measurement window "
                       "(default 600; aio 3)")
    chaos.add_argument("--no-sweep", action="store_true",
                       help="skip the severity ladder backing the "
                       "monotonic-degradation invariant")
    chaos.add_argument("--compare-static", action="store_true",
                       help="replay the episode with static timers / no "
                       "hedging and check invariant I5 (adaptive failure "
                       "detection) against it")
    chaos.add_argument("--json", type=str, default="",
                       help="also write the full report to this JSON file")
    serve = subparsers.add_parser(
        "serve",
        help="serve a loopback overlay over HTTP/JSON (POST /query, "
        "GET /healthz, GET /metrics; SIGTERM drains gracefully)",
    )
    serve.add_argument("--size", type=_positive_int, default=64,
                       help="overlay size N (default 64)")
    serve.add_argument("--seed", type=int, default=2009)
    serve.add_argument("--dimensions", type=_positive_int, default=3,
                       help="attribute dimensions (default 3)")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="HTTP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="HTTP port (0 = ephemeral; default 8080)")
    serve.add_argument("--max-pending", type=_positive_int, default=64,
                       help="server-wide in-flight cap before 429")
    serve.add_argument("--client-limit", type=_positive_int, default=8,
                       help="per-client-IP in-flight cap before 429")
    serve.add_argument("--request-timeout", type=_positive_float,
                       default=10.0,
                       help="per-request budget in seconds before 504")
    serve.add_argument("--smoke", type=_positive_int, default=None,
                       help="smoke mode: issue this many HTTP queries "
                       "against the served overlay, assert 100%% delivery "
                       "and a clean drain, then exit (CI gate)")
    serve.add_argument("--concurrency", type=_positive_int, default=16,
                       help="concurrent smoke clients (default 16)")
    serve.add_argument("--metrics-out", type=str, default="",
                       help="write the final metrics snapshot JSON here "
                       "(smoke mode)")
    dash = subparsers.add_parser(
        "dash",
        help="run a churn scenario and paint a live terminal dashboard "
        "(sparkline timelines + fleet health tables)",
    )
    dash.add_argument("--size", type=_positive_int, default=500,
                      help="network size N (default 500)")
    dash.add_argument("--seed", type=int, default=2009)
    dash.add_argument("--churn", type=float, default=0.002,
                      help="churn fraction per 10 s (default 0.002)")
    dash.add_argument("--warmup", type=float, default=300.0,
                      help="gossip warmup before measuring (default 300)")
    dash.add_argument("--duration", type=float, default=600.0,
                      help="measured window in simulated seconds")
    dash.add_argument("--interval", type=float, default=10.0,
                      help="timeline sampling cadence (default 10 s)")
    dash.add_argument("--faults", type=str, default="",
                      help="layer a chaos scenario over the middle third "
                      "(annotated on the timeline)")
    dash.add_argument("--fault-severity", type=float, default=None,
                      help="severity for --faults (default: scenario's own)")
    dash.add_argument("--once", action="store_true",
                      help="render a single frame at the end instead of a "
                      "live repaint per sample (CI smoke)")
    dash.add_argument("--telemetry-out", type=str, default="",
                      help="also dump the timeline to this JSONL file")
    trace = subparsers.add_parser(
        "trace",
        help="issue one traced query on a converged overlay and render "
        "its hop tree",
    )
    trace.add_argument("--size", type=_positive_int, default=1_000,
                       help="network size N (default 1000)")
    trace.add_argument("--seed", type=int, default=2009)
    trace.add_argument("--selectivity", type=float, default=0.125,
                       help="query selectivity (default 0.125)")
    trace.add_argument("--max-lines", type=int, default=None,
                       help="truncate the rendered tree to this many lines")
    trace.add_argument("--jsonl", type=str, default="",
                       help="also export the event stream to this JSONL file")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Route a parsed namespace to its command function."""
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "dash":
        return _cmd_dash(args)
    if args.profile:
        profiler = profile.activate()
        try:
            code = COMMANDS[args.experiment](args)
        finally:
            profile.deactivate()
        print()
        print(format_profile(profiler.to_dict()))
        return code
    return COMMANDS[args.experiment](args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes are uniform across subcommands, argparse-style:

    * ``0`` — success (all invariants hold);
    * ``2`` — invalid invocation: unknown flags or values rejected by the
      parser, unknown scenario/experiment names, bad configuration
      (:class:`ConfigurationError`);
    * ``1`` — runtime failure: an invariant violation (``chaos``,
      ``serve --smoke``, ``trace`` exactly-once) or an unexpected error
      during the run.
    """
    from repro.util.errors import ConfigurationError, ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list" or args.command is None:
        print("Available experiments:")
        for name in sorted(COMMANDS):
            print(f"  {name}")
        print("\nRun one with: python -m repro run <experiment> [--size N]")
        return 0
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # noqa: BLE001 - uniform runtime-failure exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
