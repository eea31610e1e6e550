"""Tests for the chaos runner on the live (asyncio/UDP) runtime.

Short burst-loss and crash-restart episodes on a small loopback overlay:
the point is that the one episode script runs end-to-end against real
sockets, real fault injection and real supervised crashes — the
full-scale runs live in CI's ``live-chaos-smoke`` job and ``repro chaos
--runtime aio``. A fake adapter covers the runner's wiring without
sockets.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.faults import live
from repro.faults.harness import ChaosConfig, ChaosReport, run_chaos
from repro.faults.live import LIVE_BUILDERS, LIVE_DEFAULTS, live_scenario_names
from repro.faults.scenarios import SCENARIOS, ActiveScenario


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
    return dataclasses.replace(LIVE_DEFAULTS, **defaults)


class FakeAdapter:
    """A socket-free runtime: no hosts, so the script issues no queries."""

    defaults = LIVE_DEFAULTS
    scenarios = LIVE_BUILDERS
    quiescent = "nothing to drain"
    stream = "fake"
    opened = []

    def __init__(self, config, static):
        self.config = config
        self.static = static
        self.clock = 0.0
        self.overlay = SimpleNamespace(alive_hosts=lambda: [])

    @classmethod
    async def open(cls, config, session, tracer, static):
        adapter = cls(config, static)
        cls.opened.append(adapter)
        return adapter

    def now(self):
        return self.clock

    async def wait_until(self, time):
        self.clock = max(self.clock, time)

    def apply(self, scenario, severity, heal_at, rng):
        return ActiveScenario(scenario, severity, clear_faults=lambda: None)

    def crashed(self):
        return set()

    async def drain(self, grace):
        return []

    def counters(self):
        return {"messages_sent": 0}

    async def close(self):
        pass


@pytest.fixture
def fake_adapter(monkeypatch):
    monkeypatch.setattr(FakeAdapter, "opened", [])
    monkeypatch.setattr(live, "AioAdapter", FakeAdapter)
    return FakeAdapter


class TestLiveChaos:
    def test_burst_loss_episode_holds_all_invariants(self):
        report = run_chaos("burst-loss", quick(0.5), runtime="aio")
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
        report = run_chaos(
            "crash-restart", quick(0.6, hold=2.5), runtime="aio"
        )
        assert report.ok, "\n".join(report.summary_lines())
        assert report.counters["crashes"] > 0
        assert report.counters["restarts"] > 0

    def test_run_chaos_delegates_to_the_live_harness(self, fake_adapter):
        report = run_chaos("burst-loss", runtime="aio")
        assert report.ok, "\n".join(report.summary_lines())
        # Without a config the aio runtime runs at its loopback scale,
        # with the scenario's severity ladder from SCENARIOS.
        assert [adapter.config for adapter in fake_adapter.opened] == [
            LIVE_DEFAULTS
        ] * (1 + len(SCENARIOS["burst-loss"].sweep))
        assert report.size == LIVE_DEFAULTS.size
        assert [s for s, _ in report.sweep_deliveries] == list(
            SCENARIOS["burst-loss"].sweep
        )
        # The fault window follows the configured schedule on the
        # adapter's clock: pre, then hold.
        assert [t for t, _ in report.annotations] == [
            LIVE_DEFAULTS.pre,
            LIVE_DEFAULTS.pre + LIVE_DEFAULTS.hold,
        ]

    def test_unknown_runtime_is_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            run_chaos("burst-loss", runtime="threads")

    def test_unknown_live_scenario_is_rejected(self):
        with pytest.raises(ValueError):
            run_chaos("no-such-scenario", quick(0.5), runtime="aio")
        # Registered, but its builder only exists for the simulator.
        with pytest.raises(ValueError, match="massive-50"):
            run_chaos("massive-50", quick(0.5), runtime="aio")

    def test_scenario_registry_is_exposed(self):
        names = live_scenario_names()
        assert "burst-loss" in names
        assert "crash-restart" in names

    def test_live_builders_are_registered_scenarios(self):
        """Severity and sweep come from SCENARIOS, for both runtimes."""
        assert set(LIVE_BUILDERS) <= set(SCENARIOS)


def test_adaptive_verdict_has_the_simulated_harness_name(fake_adapter):
    """I5 is "adaptive-failure-detection" on live sockets too."""
    report = run_chaos(
        "burst-loss",
        dataclasses.replace(LIVE_DEFAULTS, compare_static=True, sweep=False),
        runtime="aio",
    )
    names = [result.name for result in report.invariants]
    assert "adaptive-failure-detection" in names
    assert [adapter.static for adapter in fake_adapter.opened] == [
        False,
        True,
    ]


def test_both_runtimes_report_the_same_invariants():
    """One runner: the same checks, in the same order, on either runtime."""
    live_report = run_chaos("burst-loss", quick(0.5), runtime="aio")
    sim_report = run_chaos(
        "burst-loss",
        ChaosConfig(
            size=64, seed=7, warmup=120.0, pre=30.0, hold=60.0,
            recovery=60.0, sweep=False,
        ),
    )
    assert [result.name for result in live_report.invariants] == [
        result.name for result in sim_report.invariants
    ]
    assert len(sim_report.invariants) == 4
    # The session's collector sees every query on either runtime.
    for report in (live_report, sim_report):
        counters = report.metrics["counters"]
        assert counters["query.completed"] > 0
        assert counters["query.received"] >= counters["chaos.queries_issued"]


def test_summary_prints_only_measured_counters():
    """The live runtime measures no substrate loss or dead-node drops."""
    report = ChaosReport(
        scenario="burst-loss",
        severity=0.5,
        seed=7,
        size=16,
        rows=[],
        invariants=[],
        counters={
            "spurious_timeouts": 2,
            "messages_sent": 100,
            "messages_delivered": 90,
            "messages_lost_injected": 10,
            "crashed_hosts": 0,
        },
    )
    text = "\n".join(report.summary_lines())
    assert "messages_sent: 100" in text
    assert "messages_lost_injected: 10" in text
    assert "spurious_timeouts: 2" in text
    for absent in (
        "messages_lost:",
        "messages_dropped_dead",
        "messages_duplicated",
    ):
        assert absent not in text
