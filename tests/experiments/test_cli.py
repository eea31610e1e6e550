"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_list_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "fig06" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig06"])
        assert args.size == 2_000
        assert args.seed == 2009


class TestCommands:
    def test_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Gossip period" in out
        assert "verified" in out

    def test_fig06_small(self, capsys):
        code = main(
            ["run", "fig06", "--size", "150", "--queries", "3",
             "--sizes", "50,150"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "50" in out

    def test_fig08_small(self, capsys):
        assert main(["run", "fig08", "--size", "150", "--queries", "2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_fig11_small(self, capsys):
        code = main(
            ["run", "fig11", "--size", "120", "--duration", "120",
             "--churn", "0.002"]
        )
        assert code == 0
        assert "delivery" in capsys.readouterr().out

    def test_traffic_small(self, capsys):
        code = main(["run", "traffic", "--size", "80", "--duration", "100"])
        assert code == 0
        assert "bytes/node/cycle" in capsys.readouterr().out

    def test_fig11_telemetry(self, capsys):
        code = main(
            ["run", "fig11", "--size", "100", "--duration", "90",
             "--telemetry"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Overlay telemetry" in out
        assert "slot_fill" in out

    def test_run_with_profile_flag(self, capsys):
        from repro.obs import profile

        code = main(
            ["run", "fig06", "--size", "100", "--queries", "2",
             "--sizes", "50,100", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "populate" in out and "measure" in out
        assert profile.active() is None  # deactivated after the run


class TestTrace:
    def test_trace_renders_exactly_once_tree(self, capsys, tmp_path):
        jsonl = tmp_path / "events.jsonl"
        code = main(
            ["trace", "--size", "300", "--selectivity", "0.25",
             "--jsonl", str(jsonl)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "exactly-once     : yes" in out
        assert "query (" in out
        assert jsonl.exists()

    def test_trace_matching_nodes_appear_exactly_once(self, capsys):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.harness import build_deployment
        from repro.obs.tracer import TraceRecorder
        from repro.util.rng import derive_rng
        from repro.workloads.queries import aligned_selectivity_query

        config = ExperimentConfig(network_size=400, seed=2009)
        tracer = TraceRecorder()
        deployment, _ = build_deployment(config, extra_observers=(tracer,))
        tracer.bind_clock(lambda: deployment.simulator.now)
        rng = derive_rng(2009, "trace-test")
        query = aligned_selectivity_query(deployment.schema, 0.125, rng)
        expected = {
            d.address for d in deployment.matching_descriptors(query)
        }
        deployment.execute_query(query)
        trace = tracer.last_trace()
        counts = trace.reception_counts()
        assert expected  # the query matches someone
        assert all(counts[address] == 1 for address in expected)
        assert trace.duplicate_nodes() == []


class TestChaosConfig:
    @pytest.fixture
    def captured(self, monkeypatch):
        from repro.faults import harness

        configs = []

        def fake_run_chaos(scenario, config, runtime="sim"):
            configs.append((runtime, config))
            return harness.ChaosReport(
                scenario=scenario, severity=0.5, seed=config.seed,
                size=config.size, rows=[], invariants=[], counters={},
            )

        monkeypatch.setattr(harness, "run_chaos", fake_run_chaos)
        return configs

    def test_explicit_values_survive_the_aio_runtime(self, captured):
        assert main(["chaos", "--scenario", "burst-loss", "--runtime", "aio",
                     "--size", "256", "--hold", "300",
                     "--recovery", "600"]) == 0
        [(runtime, config)] = captured
        assert runtime == "aio"
        assert (config.size, config.hold, config.recovery) == (256, 300, 600)

    def test_unset_values_take_the_runtime_defaults(self, captured):
        from repro.faults.harness import ChaosConfig
        from repro.faults.live import LIVE_DEFAULTS

        assert main(["chaos", "--scenario", "burst-loss", "--runtime", "aio",
                     "--hold", "4"]) == 0
        assert main(["chaos", "--scenario", "burst-loss"]) == 0
        (_, live_config), (_, sim_config) = captured
        assert live_config == dataclasses.replace(LIVE_DEFAULTS, hold=4.0)
        assert sim_config == ChaosConfig()
