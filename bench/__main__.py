"""Command line of the benchmark.

With ``--workload`` it runs that workload once, in this process, and
prints one JSON object as its last line — the form the driver calls.
Without it, it runs every workload (``--repeat`` times, each in a fresh
process so peak memory and import cost are per run), prints a table,
checks that both sim engines agree on the simulated observables, and
writes everything to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import ROOT, SRC, load_spec

GOLDEN = Path(__file__).with_name("golden.json")


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Run one workload in this process; returns its raw result dict."""
    if name == "serve":
        from bench import serve
        return serve.run(seed, seconds, trace)
    from bench import scale
    return scale.run(name.removeprefix("scale_"), seed, seconds, trace)


def golden_errors(workload: str, seed: int, detail: Dict[str, Any]) -> List[str]:
    """Mismatches between a scale run's observables and the golden values."""
    golden = json.loads(GOLDEN.read_text())
    if seed != golden["seed"] or "observables_digest" not in detail:
        return []
    return [
        f"{workload}: {key} is {detail[key]!r}, golden value is {value!r}"
        for key, value in golden["scale"].items()
        if detail[key] != value
    ]


def finish(
    spec: Dict[str, Any], workload: str, seed: int, trace: bool,
    result: Dict[str, Any],
) -> Dict[str, Any]:
    """Shape a raw result into the contract's object, plus ``detail``.

    The reported metrics are exactly the declared ones: every
    ``end_to_end`` metric with tracing off, every ``per_layer`` metric
    with tracing on (a layer the workload never enters reads 0).
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    known = {entry["name"] for entry in spec["per_layer"] + spec["end_to_end"]}
    if set(measured) - known:
        raise SystemExit(
            f"not in BENCHMARK.json: {sorted(set(measured) - known)}"
        )
    if not trace:
        missing = [e["name"] for e in declared if e["name"] not in measured]
        if missing:
            raise SystemExit(f"{workload} did not measure {missing}")
    errors = golden_errors(workload, seed, result["detail"])
    for error in errors:
        print(f"GOLDEN MISMATCH {error}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0 and not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {
                "value": measured.get(entry["name"], 0.0),
                "unit": entry["unit"],
            }
            for entry in declared
        },
        "detail": result["detail"],
    }


def print_metrics(workload: str, report: Dict[str, Any]) -> None:
    """Every metric by name, value, unit and sample count."""
    samples = report["detail"].get("samples", {})
    counts = ", ".join(f"{kind} n={n}" for kind, n in samples.items())
    print(
        f"# {workload}: attempted={report['attempted']} "
        f"failed={report['failed']} correct={report['correct']} ({counts})"
    )
    for name, entry in report["metrics"].items():
        print(f"{workload:14s} {name:48s} {entry['value']:14.4f} {entry['unit']}")


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """The driver's form: one workload, one JSON object on the last line."""
    from bench.host import host_facts

    before = host_facts()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report = finish(spec, args.workload, args.seed, bool(args.trace), result)
    tracer = result.get("tracer")
    if tracer is not None and args.spans:
        tracer.save(args.spans)
    print_metrics(args.workload, report)
    if args.out:
        full = dict(
            report, workload=args.workload, seed=args.seed, trace=args.trace,
            seconds=args.seconds, host=before,
            load_average_after=host_facts()["load_average"],
        )
        Path(args.out).write_text(json.dumps(full, indent=1))
    del report["detail"]
    print(json.dumps(report))
    return 0


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload, ``--repeat`` times, each in a process of its own."""
    from bench.host import host_facts

    workloads = [entry["name"] for entry in spec["workloads"]]
    runs: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as scratch:
        for repeat in range(args.repeat):
            for workload in workloads:
                out = Path(scratch) / f"{workload}-{repeat}.json"
                command = [
                    sys.executable, "-m", "bench", "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", str(out),
                ]
                done = subprocess.run(
                    command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                    check=False,
                )
                if done.returncode != 0 or not out.exists():
                    print(done.stdout)
                    print(f"{workload} exited with {done.returncode}")
                    return 1
                run = json.loads(out.read_text())
                run["repeat"] = repeat
                runs.append(run)
                print_metrics(workload, run)
    status = 0
    for run in runs:
        if not run["correct"]:
            print(f"FAILED {run['workload']} repeat {run['repeat']}: "
                  f"{run['failed']}/{run['attempted']} ops failed or the "
                  f"golden observables differ; {run['detail'].get('errors')}")
            status = 1
    status |= cross_engine_check(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
             "host": host_facts(), "runs": runs}, indent=1,
        ))
    print("OK" if status == 0 else "NOT OK")
    return status


def cross_engine_check(runs: List[Dict[str, Any]]) -> int:
    """Both sim engines must report the same observables digest."""
    digests = {
        run["workload"]: run["detail"]["observables_digest"]
        for run in runs
        if "observables_digest" in run["detail"]
    }
    if len(set(digests.values())) > 1:
        print(f"ENGINES DISAGREE on the observables digest: {digests}")
        return 1
    return 0


def parse(argv: Optional[List[str]], spec: Dict[str, Any]) -> argparse.Namespace:
    """The command line."""
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument(
        "--workload", choices=[entry["name"] for entry in spec["workloads"]],
        help="run only this workload, in this process",
    )
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="how long the timed phase of one run lasts",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 = the traced pass: per-layer metrics instead of end-to-end",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write the full result as JSON here")
    parser.add_argument(
        "--spans", help="with --workload and --trace 1: save the spans here"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the exit code."""
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = load_spec()
    args = parse(argv, spec)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
