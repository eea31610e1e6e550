"""A measurement loop that takes its records measures what one that
keeps them would.

The geometry is the exactly-once study's (N=5,000, seed 2009, 40
``random_box_query(schema, 0.125)`` boxes): failure timers that expire
on live but slow subtrees send retry copies, so duplicate receipts and
spurious timeouts land on a query's record after its origin completed —
the late events the collector's window of taken records exists for. The
expected values are those of the collector before it released records.
"""

from repro.experiments.config import PAPER_PEERSIM
from repro.experiments.harness import build_deployment, measure_queries
from repro.metrics.collectors import RELEASED_WINDOW, QueryRecord
from repro.workloads.queries import random_box_query

OVERHEADS = [
    966, 1533, 845, 947, 1074, 2470, 1465, 1442, 639, 1297,
    868, 725, 2221, 1416, 1291, 2092, 2035, 925, 1145, 1635,
    1705, 600, 1601, 1526, 1653, 2045, 1253, 1275, 1518, 910,
    1801, 857, 2478, 1201, 907, 1233, 1129, 1223, 947, 869,
]
DUPLICATES = [
    0, 0, 0, 55, 0, 37, 55, 29, 0, 2, 0, 0, 93, 79, 0, 0, 1, 30, 32, 2,
    0, 0, 0, 0, 1, 1, 0, 0, 83, 0, 1, 1, 1, 0, 0, 46, 0, 0, 0, 1,
]


def test_taken_records_measure_what_kept_records_did():
    config = PAPER_PEERSIM.scaled(5000)
    assert config.seed == 2009
    deployment, metrics = build_deployment(config)
    schema = deployment.schema
    outcomes = measure_queries(
        deployment,
        metrics,
        lambda rng: random_box_query(schema, 0.125, rng),
        40,
        seed=1,
    )
    deployment.run(120.0)  # let every late timer and retry copy land
    assert [outcome.overhead for outcome in outcomes] == OVERHEADS
    assert [outcome.duplicates for outcome in outcomes] == DUPLICATES
    assert all(outcome.delivery == 1.0 for outcome in outcomes)
    assert all(outcome.found == outcome.expected for outcome in outcomes)
    assert metrics.total_duplicates() == 550
    assert metrics.mean_routing_overhead() == 1344.05
    assert metrics.total_spurious_timeouts() == 24
    # Every record was handed out, and none was reopened by a late event.
    assert metrics.records == {}
    assert len(metrics._released) == min(40, RELEASED_WINDOW)
    assert all(isinstance(r, QueryRecord) for r in metrics._released.values())
