"""BENCHMARK.json against the driver's contract, and the command line."""

import json
import re
import subprocess
import sys

from bench import ROOT, load_spec
from bench.__main__ import finish, golden_errors

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len(json.dumps(SPEC)) < 64 * 1024
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")


def test_setup_time_is_an_end_to_end_metric_with_the_widest_bound():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def raw(metrics, **detail):
    return {"attempted": 10, "failed": 0, "metrics": metrics, "detail": detail}


def test_finish_reports_exactly_the_declared_metrics():
    e2e = {m["name"]: 1.5 for m in SPEC["end_to_end"]}
    report = finish(SPEC, "serve", 1, False, raw(e2e))
    assert list(report["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert report["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    assert report["correct"]
    layers = finish(SPEC, "serve", 1, True, raw({"trace.spans": 7}))
    assert list(layers["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert layers["metrics"]["trace.spans"]["value"] == 7
    assert layers["metrics"]["core.store.plan_s"]["value"] == 0.0


def test_failed_ops_or_a_golden_mismatch_make_a_run_incorrect():
    e2e = {m["name"]: 1.5 for m in SPEC["end_to_end"]}
    failing = dict(raw(e2e), failed=1)
    assert not finish(SPEC, "serve", 1, False, failing)["correct"]
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    wrong = raw(e2e, observables_digest="0" * 64, events_per_query=1.0)
    assert golden_errors("scale_single", golden["seed"], wrong["detail"])
    assert not finish(SPEC, "scale_single", golden["seed"], False, wrong)["correct"]
    assert golden_errors("scale_single", golden["seed"] + 1, wrong["detail"]) == []
    right = raw(e2e, **golden["scale"])
    assert finish(SPEC, "scale_single", golden["seed"], False, right)["correct"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "bench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for source in (ROOT / "bench").glob("*"):
        if source.is_file():
            (bare / "bench" / source.name).write_bytes(source.read_bytes())
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
