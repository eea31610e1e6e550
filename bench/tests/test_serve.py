"""The serve ground-truth checker: a wrong response must count as failed."""

import json

import pytest

from bench import serve
from bench.report import class_metrics, result

ATTRIBUTES = ["attr0", "attr1"]
POPULATION = [(0, [5.0, 10.0]), (1, [15.0, 50.0]), (2, [8.0, 39.0]), (3, [30.0, 1.0])]


def request(sigma, constraints):
    made = {"constraints": constraints, "sigma": sigma}
    made["expected"] = serve.expected_matches(made, ATTRIBUTES, POPULATION)
    return made


def body(addresses, count=None, values=None):
    matches = [
        {
            "address": address,
            "values": (values or {}).get(
                address, dict(zip(ATTRIBUTES, POPULATION[address][1]))
            ),
        }
        for address in addresses
    ]
    return json.dumps({
        "count": len(matches) if count is None else count,
        "matches": matches,
        "elapsed_ms": 1.25,
    }).encode()


def test_brute_force_bounds_are_inclusive_and_conjunctive():
    wide = request(None, {"attr0": [5.0, 15.0]})
    assert sorted(wide["expected"]) == [0, 1, 2]
    both = request(None, {"attr0": [5.0, 15.0], "attr1": [0.0, 39.0]})
    assert sorted(both["expected"]) == [0, 2]
    assert both["expected"][2] == {"attr0": 8.0, "attr1": 39.0}


def test_right_responses_pass_and_yield_the_overlay_time():
    wide = request(None, {"attr0": [5.0, 15.0]})
    assert serve.check_response(wide, 200, body([0, 1, 2])) == (None, 1.25)
    point = request(1, {"attr0": [5.0, 15.0]})
    assert serve.check_response(point, 200, body([2]))[0] is None
    assert serve.check_response(point, 200, body([0, 2]))[0] is None
    empty = request(1, {"attr0": [70.0, 80.0]})
    assert serve.check_response(empty, 200, body([]))[0] is None


@pytest.mark.parametrize(
    "sigma, status, payload, reason",
    [
        (None, 200, body([0, 1]), "2 matches, wanted 3"),
        (None, 200, body([0, 1, 2, 3]), "non-matching node 3"),
        (1, 200, body([]), "0 matches, wanted 1"),
        (1, 200, body([3]), "non-matching node 3"),
        (None, 200, body([0, 1, 2], count=2), "count does not equal"),
        (None, 200, body([0, 1, 2, 2]), "count does not equal"),
        (None, 200, body([0, 1, 2], values={1: {"attr0": 15.0, "attr1": 0.0}}),
         "wrong values for node 1"),
        (None, 200, b"not json", "malformed body"),
        (None, 200, b'{"count": 0}', "malformed body"),
        (None, 429, b'{"error": "server at capacity"}', "status 429"),
        (None, 504, b"{}", "status 504"),
    ],
)
def test_wrong_responses_are_named(sigma, status, payload, reason):
    made = request(sigma, {"attr0": [5.0, 15.0]})
    error, _elapsed = serve.check_response(made, status, payload)
    assert error is not None and reason in error


def test_a_wrong_response_is_counted_failed_and_gives_no_latency_sample():
    made = request(None, {"attr0": [5.0, 15.0]})
    rows = []
    for kind in ("capped", "exhaustive"):
        for index in range(4):
            payload = body([0, 1]) if (kind, index) == ("exhaustive", 0) else body([0, 1, 2])
            error, _elapsed = serve.check_response(made, 200, payload)
            # The failed op is the slow one: its time must not be a sample.
            rows.append({"kind": kind, "ms": 1000.0 if error else 2.0, "error": error})
    report = result(rows, class_metrics(rows, {"capped": 1.0, "exhaustive": 1.0}), {})
    assert (report["attempted"], report["failed"]) == (8, 1)
    assert report["detail"]["samples"] == {"capped": 4, "exhaustive": 3}
    assert report["metrics"]["exhaustive_ms_p50"] == 2.0
    assert report["metrics"]["exhaustive_per_s"] == 3.0
    assert report["metrics"]["capped_per_s"] == 4.0


def test_request_lists_are_a_function_of_the_seed():
    first = serve.generate_requests(7, "capped")
    assert [r["wire"] for r in first] == [
        r["wire"] for r in serve.generate_requests(7, "capped")
    ]
    assert first[0]["wire"] != serve.generate_requests(8, "capped")[0]["wire"]
    assert all(r["sigma"] == 1 for r in first)
    assert all(r["sigma"] is None for r in serve.generate_requests(7, "exhaustive"))


def test_metrics_text_is_parsed_by_sample_line():
    text = b'# TYPE aio_datagrams_sent counter\naio_datagrams_sent 12\nhttp_responses{status="200"} 3\n'
    assert serve.parse_counters(text) == {
        "aio_datagrams_sent": 12.0, 'http_responses{status="200"}': 3.0,
    }
