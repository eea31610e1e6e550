"""Verdicts of compare.py against a metric's bound."""

from bench import compare

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def scaled(values, factor):
    return [value * factor for value in values]


def test_unchanged_within_the_bound():
    assert compare.verdict(STEADY, scaled(STEADY, 1.05), "lower", 0.10) == "unchanged"
    assert compare.verdict(STEADY, scaled(STEADY, 0.95), "higher", 0.10) == "unchanged"


def test_regressed_beyond_the_bound_in_the_metric_direction():
    assert compare.verdict(STEADY, scaled(STEADY, 1.2), "lower", 0.10) == "regressed"
    assert compare.verdict(STEADY, scaled(STEADY, 0.8), "higher", 0.10) == "regressed"


def test_improved_beyond_the_bound_in_the_metric_direction():
    assert compare.verdict(STEADY, scaled(STEADY, 0.8), "lower", 0.10) == "improved"
    assert compare.verdict(STEADY, scaled(STEADY, 1.2), "higher", 0.10) == "improved"
    assert compare.verdict(STEADY, scaled(STEADY, 0.95), "lower", 0.10) == "unchanged"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, scaled(noisy, 1.3), "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, scaled(noisy, 1.0), "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, scaled(noisy, 0.5), "lower", 0.10) == "improved"


def test_rows_carry_the_ratio_and_its_base():
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}
        ],
    }

    def runs(values):
        return [
            {"workload": "w", "metrics": {"m": {"value": v, "unit": "ms"}}}
            for v in values
        ]

    (row,) = compare.compare(spec, runs(STEADY), runs(scaled(STEADY, 2.0)))
    assert row["ratio"] == 2.0 and row["a"]["median"] == 100.0
    assert row["verdict"] == "regressed"
    assert "B/A=2.000 of 100" in compare.render(row)
