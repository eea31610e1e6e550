"""Exit-code contract of the CLI: 0 success, 1 runtime failure, 2 usage.

Pre-fix, the subcommands disagreed: argparse exited 2 for bad flags but
value errors surfaced as tracebacks (exit 1), and unexpected runtime
errors escaped as tracebacks with whatever code Python chose. These
tests pin the normalized contract.
"""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.util.errors import ConfigurationError, ReproError


class TestUsageErrorsExitTwo:
    def test_negative_size_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "fig06", "--size", "-5"])
        assert err.value.code == 2

    def test_bench_subcommand_is_gone(self):
        with pytest.raises(SystemExit) as err:
            main(["bench"])
        assert err.value.code == 2

    def test_unknown_chaos_scenario_exits_two(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_configuration_error_exits_two(self, monkeypatch, capsys):
        def boom(args):
            raise ConfigurationError("bad schema")

        monkeypatch.setitem(cli.COMMANDS, "fig06", boom)
        assert main(["run", "fig06"]) == 2
        assert "bad schema" in capsys.readouterr().err

    def test_unpackable_geometry_exits_two(self, capsys):
        # 21 dimensions x max(l)=3 is 63 bits: no int64 C0 cell key.
        assert main(["serve", "--dimensions", "21", "--smoke", "1"]) == 2
        assert "int64" in capsys.readouterr().err


class TestRuntimeFailuresExitOne:
    def test_unexpected_exception_exits_one(self, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("socket melted")

        monkeypatch.setitem(cli.COMMANDS, "fig06", boom)
        assert main(["run", "fig06"]) == 1
        assert "socket melted" in capsys.readouterr().err

    def test_repro_error_exits_one(self, monkeypatch, capsys):
        def boom(args):
            raise ReproError("protocol invariant violated")

        monkeypatch.setitem(cli.COMMANDS, "fig06", boom)
        assert main(["run", "fig06"]) == 1


class TestServeSmoke:
    def test_smoke_delivers_and_writes_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "serve", "--size", "16", "--smoke", "20",
            "--concurrency", "4", "--seed", "5",
            "--metrics-out", str(metrics_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "smoke: OK" in out
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["aio.datagrams_sent"] > 0
        assert snapshot["counters"].get("http.responses{status=200}", 0) >= 20
