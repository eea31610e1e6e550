"""The ``serve`` workload: HTTP queries against a live loopback overlay.

A bench-owned child (``bench/serve_child.py``) serves a 256-node
``runtime.aio.AioOverlay`` (d=3, max(l)=3) behind ``server.serve_overlay``.
This process is the load generator: a closed loop over two keep-alive
connections (callers that each wait for their reply, like a scheduler
asking for nodes), sending two seeded request lists one after the other:

* ``capped`` — *point* requests: an attr0 window of width 10, attr1 in
  [0, 40], sigma=1, origin = i mod 256. One-match replies and a handful
  of datagrams, so HTTP parsing, admission, JSON and origin dispatch
  dominate;
* ``exhaustive`` — *wide* requests: an attr0 window of width 40, sigma
  null (~131 matches, set-equality checked). Hundreds of datagrams and a
  large reply, so codec, reliable channel, sockets, per-hop node handling
  and reply aggregation dominate.

Every response is checked against a brute-force scan of the population
the child printed at start-up.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from bench import ROOT, SRC, host
from bench.report import CLASSES, by_class, class_metrics, overhead_ratio, result
from bench.trace import Tracer, layer

NETWORK_SIZE = 256
#: The overlay is a fixture, built from this seed whatever ``--seed`` is;
#: the run's seed makes the request lists. With only 256 nodes, one
#: population draw moves the datagrams a query needs by +-8 % (and the
#: medians with them), which says nothing about the code.
OVERLAY_SEED = 2009
CONNECTIONS = 2
#: Set-ups (child spawn to ready, plus ground truth) per run.
SPAWNS = 5
#: Length of each seeded request list; the generator cycles through it.
LIST_LENGTH = {"capped": 1024, "exhaustive": 256}
#: Discarded requests before each timed phase.
WARMUP = {"capped": 200, "exhaustive": 20}
#: The timed loop of a phase never stops before this many requests.
MIN_REQUESTS = 40

#: One request: its constraints, sigma, and the bytes to put on the wire.
Request = Dict[str, Any]


def generate_requests(seed: int, kind: str) -> List[Request]:
    """The seeded request list of one class."""
    rng = random.Random(f"bench-serve-{kind}-{seed}")
    requests = []
    for index in range(LIST_LENGTH[kind]):
        if kind == "capped":
            low = round(rng.uniform(0.0, 70.0), 2)
            constraints = {"attr0": [low, low + 10.0], "attr1": [0.0, 40.0]}
            sigma: Optional[int] = 1
        else:
            low = round(rng.uniform(0.0, 40.0), 2)
            constraints = {"attr0": [low, low + 40.0]}
            sigma = None
        body = json.dumps({
            "constraints": constraints,
            "sigma": sigma,
            "origin": index % NETWORK_SIZE,
        }).encode()
        head = (
            "POST /query HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n\r\n"
        ).encode("latin-1")
        requests.append({
            "constraints": constraints, "sigma": sigma, "wire": head + body,
        })
    return requests


def expected_matches(
    request: Request,
    attributes: Sequence[str],
    population: Sequence[Tuple[int, Sequence[float]]],
) -> Dict[int, Dict[str, float]]:
    """Brute force: address -> named values of every node that matches."""
    bounds = [
        (attributes.index(name), low, high)
        for name, (low, high) in request["constraints"].items()
    ]
    return {
        address: dict(zip(attributes, values))
        for address, values in population
        if all(low <= values[dim] <= high for dim, low, high in bounds)
    }


def check_response(
    request: Request, status: int, body: bytes
) -> Tuple[Optional[str], float]:
    """``(why the response is wrong or None, the body's elapsed_ms)``.

    Needs ``request["expected"]`` from :func:`expected_matches`. Without
    sigma the match set must equal the brute-force set; with sigma it
    must be a subset of at least ``min(sigma, expected)`` nodes. Either
    way every match must carry the node's true values, once.
    """
    if status != 200:
        return f"status {status}", 0.0
    expected = request["expected"]
    try:
        payload = json.loads(body)
        matches = payload["matches"]
        found = {match["address"]: match["values"] for match in matches}
        elapsed_ms = float(payload["elapsed_ms"])
    except (ValueError, KeyError, TypeError) as error:
        return f"malformed body: {error!r}", 0.0
    if payload.get("count") != len(matches) or len(found) != len(matches):
        return "count does not equal the number of distinct matches", elapsed_ms
    for address, values in found.items():
        if address not in expected:
            return f"non-matching node {address}", elapsed_ms
        if values != expected[address]:
            return f"wrong values for node {address}", elapsed_ms
    sigma = request["sigma"]
    wanted = len(expected) if sigma is None else min(sigma, len(expected))
    if len(found) < wanted:
        return f"{len(found)} matches, wanted {wanted}", elapsed_ms
    return None, elapsed_ms


class Child:
    """The server child process: spawn, wait until ready, stop."""

    def __init__(self, spans: Optional[str] = None) -> None:
        command = [
            sys.executable, "-m", "bench.serve_child",
            "--seed", str(OVERLAY_SEED), "--size", str(NETWORK_SIZE),
        ]
        if spans:
            command += ["--spans", spans]
        environment = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{ROOT}")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=environment, stdout=subprocess.PIPE,
        )
        try:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("the server child exited before it was ready")
            ready = json.loads(line)
            self.port: int = ready["port"]
            self.build_s: float = ready["build_s"]
            self.attributes: List[str] = ready["attributes"]
            self.population = [
                (address, values) for address, values in ready["population"]
            ]
            status, _body = asyncio.run(fetch(self.port, "/healthz"))
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, wire: bytes
) -> Tuple[int, bytes]:
    writer.write(wire)
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    marker = head.lower().index(b"content-length:") + 15
    length = int(head[marker:head.index(b"\r\n", marker)])
    return status, await reader.readexactly(length)


async def fetch(port: int, path: str) -> Tuple[int, bytes]:
    """One GET on a connection of its own (health, metrics scrapes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        wire = f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
        return await _exchange(reader, writer, wire)
    finally:
        writer.close()
        await writer.wait_closed()


def parse_counters(text: bytes) -> Dict[str, float]:
    """``name{labels} -> value`` for every sample line of a /metrics body."""
    counters = {}
    for line in text.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            counters[name] = float(value)
    return counters


async def _phase(
    connections: Sequence[Tuple[asyncio.StreamReader, asyncio.StreamWriter]],
    requests: Iterator[Request],
    kind: str,
    seconds: float,
    minimum: int,
) -> List[Dict[str, Any]]:
    """Closed loop over *connections* for *seconds* (at least *minimum*).

    Responses are kept as bytes and checked after the phase, so the
    generator does as little as it can while the clock runs.
    """
    rows: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds

    async def client(reader: Any, writer: Any) -> None:
        while len(rows) < minimum or time.perf_counter() < deadline:
            request = next(requests)
            row = {"kind": kind, "request": request}
            rows.append(row)
            row["start"] = time.perf_counter()
            row["status"], row["body"] = await _exchange(
                reader, writer, request["wire"]
            )
            row["end"] = time.perf_counter()

    await asyncio.gather(*(client(*pair) for pair in connections))
    return rows


async def _session(
    child: Child, lists: Dict[str, List[Request]], seconds: float
) -> Dict[str, Any]:
    """Both phases against one child; returns rows and phase readings."""
    connections = [
        await asyncio.open_connection("127.0.0.1", child.port)
        for _ in range(CONNECTIONS)
    ]
    phases: Dict[str, Dict[str, Any]] = {}
    rows: List[Dict[str, Any]] = []
    try:
        for kind in CLASSES:
            requests = itertools.cycle(lists[kind])
            await _phase(connections, requests, kind, 0.0, WARMUP[kind])
            _status, before = await fetch(child.port, "/metrics")
            cpu = (host.cpu_seconds(child.process.pid), time.process_time())
            started = time.perf_counter()
            timed = await _phase(
                connections, requests, kind, seconds / len(CLASSES),
                MIN_REQUESTS,
            )
            finished = time.perf_counter()
            wall = finished - started
            phases[kind] = {
                "window": (started, finished),
                "wall": wall,
                "requests": len(timed),
                "server_cpu_s": host.cpu_seconds(child.process.pid) - cpu[0],
                "generator_cpu_s": time.process_time() - cpu[1],
                "before": parse_counters(before),
                "after": parse_counters(
                    (await fetch(child.port, "/metrics"))[1]
                ),
            }
            rows.extend(timed)
    finally:
        for _reader, writer in connections:
            writer.close()
    for row in rows:
        row["ms"] = (row["end"] - row["start"]) * 1e3
        row["error"], row["overlay_ms"] = check_response(
            row.pop("request"), row["status"], row["body"]
        )
        row["bytes"] = len(row.pop("body"))
    return {"rows": rows, "phases": phases}


def layer_metrics_external(session: Dict[str, Any]) -> Dict[str, float]:
    """Layer metrics the generator can see: bodies, /metrics, /proc."""
    rows, phases = session["rows"], session["phases"]

    def delta(kind: str, name: str) -> float:
        phase = phases[kind]
        return phase["after"].get(name, 0.0) - phase["before"].get(name, 0.0)

    def total(name: str) -> float:
        return sum(delta(kind, name) for kind in CLASSES)

    metrics = {
        "server.rejected_429": total('http_responses{status="429"}'),
        "server.timeouts_504": total("http_timeouts"),
        "runtime.reliable.retransmits": total("reliable_retransmits"),
        "runtime.reliable.fragments_sent": total(
            'reliable_fragments{direction="sent"}'
        ),
        "runtime.aio.frames_rejected": total("aio_frames_rejected"),
    }
    for kind in CLASSES:
        phase = phases[kind]
        good = [row for row in by_class(rows, kind) if row["error"] is None]
        metrics.update({
            f"server.overlay_ms_p50.{kind}": statistics.median(
                row["overlay_ms"] for row in good
            ),
            f"server.http_ms_p50.{kind}": statistics.median(
                row["ms"] - row["overlay_ms"] for row in good
            ),
            f"server.response_bytes_mean.{kind}": statistics.fmean(
                row["bytes"] for row in good
            ),
            f"server.cpu_busy_share.{kind}":
                phase["server_cpu_s"] / phase["wall"],
            f"bench.generator_cpu_share.{kind}":
                phase["generator_cpu_s"] / phase["wall"],
            f"runtime.aio.datagrams_per_query.{kind}":
                delta(kind, "aio_datagrams_sent") / phase["requests"],
        })
    return metrics


#: Child span name -> the per-op layer metric its self time feeds.
CHILD_LAYERS = {
    "asyncio.callback": "server.loop_self_ms_per_op",
    "server.parse": "server.parse_ms_per_op",
    "core.node.issue": "core.node.issue_ms_per_op",
    "core.node.handle": "core.node.handle_ms_per_op",
    "core.codec.encode": "core.codec.encode_ms_per_op",
    "core.codec.decode": "core.codec.decode_ms_per_op",
    "runtime.reliable.send_frame": "runtime.reliable.send_frame_ms_per_op",
    "runtime.aio.sendto": "runtime.aio.sendto_ms_per_op",
    "runtime.aio.on_datagram": "runtime.aio.on_datagram_self_ms_per_op",
}


def layer_metrics_traced(
    tracer: Tracer, session: Dict[str, Any]
) -> Dict[str, float]:
    """Layer self times inside the child, per request of each class.

    The traced total is the CPU time the child used during the phase;
    what the synchronous spans do not cover is unattributed.
    """
    phases = session["phases"]
    tables = tracer.self_times(
        [phases[kind]["window"] + (kind,) for kind in CLASSES]
    )
    metrics: Dict[str, float] = {}
    total = attributed = 0.0
    for kind in CLASSES:
        table = tables.get(kind, {})
        ops = phases[kind]["requests"]

        def per_op(name: str, field: str = "self_s", scale: float = 1e3) -> float:
            return layer(table, name, field) * scale / ops

        for span, metric in CHILD_LAYERS.items():
            metrics[f"{metric}.{kind}"] = per_op(span)
        execute = per_op("server.execute", "total_s")
        query = per_op("runtime.aio.execute_query", "total_s")
        metrics.update({
            f"server.execute_self_ms_per_op.{kind}": execute - query,
            f"runtime.aio.execute_query_ms_per_op.{kind}": query,
            f"core.node.messages_handled_per_op.{kind}": per_op(
                "core.node.handle", "calls", 1.0
            ),
            f"core.codec.encode_calls_per_op.{kind}": per_op(
                "core.codec.encode", "calls", 1.0
            ),
            f"core.codec.decode_calls_per_op.{kind}": per_op(
                "core.codec.decode", "calls", 1.0
            ),
            f"runtime.aio.wire_bytes_per_query.{kind}": per_op(
                "runtime.aio.sendto", "weight", 1.0
            ),
        })
        total += phases[kind]["server_cpu_s"]
        attributed += sum(
            entry["self_s"] for name, entry in table.items()
            if name not in ("server.execute", "runtime.aio.execute_query")
        )
    metrics["trace.total_s"] = total
    metrics["trace.unattributed_share"] = (total - attributed) / total
    metrics["trace.spans"] = len(tracer)
    return metrics


def _walls(session: Dict[str, Any]) -> Dict[str, float]:
    return {kind: session["phases"][kind]["wall"] for kind in CLASSES}


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of ``serve``: set up ``SPAWNS`` times, then measure.

    With *trace* the run splits in two: an untraced child gives the
    layer metrics the generator can see and the baseline throughput, a
    traced child gives the layer self times and the tracing overhead.
    """
    if trace:
        return _run_traced(seed, seconds)
    setups: List[float] = []
    builds: List[float] = []
    child: Optional[Child] = None
    try:
        for _ in range(SPAWNS):
            if child is not None:
                child.stop()
            started = time.perf_counter()
            child = Child()
            lists = _prepare(seed, child)
            setups.append(time.perf_counter() - started)
            builds.append(child.build_s)
        session = asyncio.run(_session(child, lists, seconds))
        peak_rss_mb = host.tree_peak_rss_mb()
    finally:
        if child is not None:
            child.stop()
    rows = session["rows"]
    metrics = class_metrics(rows, _walls(session))
    metrics.update({
        "setup_s": statistics.median(setups),
        "build_s": statistics.median(builds),
        "peak_rss_mb": peak_rss_mb,
    })
    return result(rows, metrics, {"setups_s": setups, "builds_s": builds})


def _prepare(seed: int, child: Child) -> Dict[str, List[Request]]:
    """The request lists with their brute-force expected match sets."""
    lists = {kind: generate_requests(seed, kind) for kind in CLASSES}
    for requests in lists.values():
        for request in requests:
            request["expected"] = expected_matches(
                request, child.attributes, child.population
            )
    return lists


def _run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    child = Child()
    try:
        plain = asyncio.run(_session(child, _prepare(seed, child), seconds / 2))
    finally:
        child.stop()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as scratch:
        spans = os.path.join(scratch, "child.spans")
        child = Child(spans=spans)
        try:
            traced = asyncio.run(
                _session(child, _prepare(seed, child), seconds / 2)
            )
        finally:
            child.stop()
        tracer = Tracer.load(spans)
    metrics = class_metrics(plain["rows"], _walls(plain))
    metrics.update(layer_metrics_external(plain))
    metrics.update(layer_metrics_traced(tracer, traced))
    metrics["trace.overhead_ratio"] = overhead_ratio(
        class_metrics(traced["rows"], _walls(traced)), metrics
    )
    report = result(plain["rows"] + traced["rows"], metrics, {})
    report["tracer"] = tracer
    return report
