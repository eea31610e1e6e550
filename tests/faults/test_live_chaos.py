"""Smoke tests for the live (asyncio/UDP) chaos harness.

One short burst-loss episode and one crash-restart episode on a small
loopback overlay: the point is that the invariant machinery runs
end-to-end against real sockets, real fault injection and real
supervised crashes — the full-scale sweeps live in CI's
``live-chaos-smoke`` job and ``repro chaos --runtime aio``.
"""

import pytest

from repro.faults import live
from repro.faults.harness import run_chaos
from repro.faults.live import (
    LiveChaosConfig,
    live_scenario_names,
    run_live_chaos,
)
from repro.metrics.collectors import MetricsCollector
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import TraceRecorder


def quick(scenario_severity, **overrides):
    defaults = dict(
        size=16,
        seed=11,
        severity=scenario_severity,
        sweep=False,
        pre=0.5,
        hold=2.0,
        recovery=1.0,
        query_interval=0.15,
        drain_grace=8.0,
    )
    defaults.update(overrides)
    return LiveChaosConfig(**defaults)


class TestLiveChaos:
    def test_burst_loss_episode_holds_all_invariants(self):
        report = run_live_chaos("burst-loss", quick(0.5))
        assert report.ok, "\n".join(report.summary_lines())
        assert report.rows  # queries actually ran
        # Loss was really injected at severity 0.5 — the invariants held
        # against actual drops, not a quiet network.
        assert report.counters["injected_drops"] > 0
        by_name = {result.name: result for result in report.invariants}
        assert by_name["termination"].passed
        assert by_name["no-double-counting"].passed
        assert by_name["no-leaks"].passed
        assert by_name["monotonic-degradation"].passed

    def test_crash_restart_episode_holds_all_invariants(self):
        report = run_live_chaos("crash-restart", quick(0.6, hold=2.5))
        assert report.ok, "\n".join(report.summary_lines())
        assert report.counters["crashes"] > 0
        assert report.counters["restarts"] > 0

    def test_run_chaos_delegates_to_the_live_harness(self):
        report = run_chaos("burst-loss", quick(0.3), runtime="aio")
        assert report.ok, "\n".join(report.summary_lines())

    def test_unknown_runtime_is_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            run_chaos("burst-loss", runtime="threads")

    def test_unknown_live_scenario_is_rejected(self):
        with pytest.raises(ValueError):
            run_live_chaos("no-such-scenario", quick(0.5))

    def test_scenario_registry_is_exposed(self):
        names = live_scenario_names()
        assert "burst-loss" in names
        assert "crash-restart" in names


def test_adaptive_verdict_has_the_simulated_harness_name(monkeypatch):
    """I5 is "adaptive-failure-detection" on live sockets too."""

    async def canned_episode(*_args, **_kwargs):
        return live._LiveEpisode(
            metrics=MetricsCollector(),
            tracer=TraceRecorder(),
            registry=MetricsRegistry(),
            rows=[],
            crashed=set(),
            schedule=None,
            drivers=[],
            leaks=[],
            drained=True,
            counters={
                "datagrams_sent": 0,
                "datagrams_received": 0,
                "crashed_hosts": 0,
            },
        )

    monkeypatch.setattr(live, "_run_live_episode", canned_episode)
    report = run_live_chaos(
        "burst-loss", LiveChaosConfig(compare_static=True, sweep=False)
    )
    names = [result.name for result in report.invariants]
    assert "adaptive-failure-detection" in names
