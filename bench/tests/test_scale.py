"""The observables digest and the sim result checker."""

from types import SimpleNamespace

from bench import scale


class BoxQuery:
    """Matches values whose first component lies in [low, high]."""

    def __init__(self, low, high):
        self.low, self.high = low, high

    def matches(self, values):
        return self.low <= values[0] <= self.high


def node(address, value):
    return SimpleNamespace(address=address, values=(value,))


def test_digest_is_stable_and_sees_every_observable():
    rows = [(0, [1, 2, 3], 4, 0), (1, [7], 0, 1)]
    digest = scale.observables_digest(rows)
    assert digest == scale.observables_digest([tuple(row) for row in rows])
    assert len(digest) == 64
    for changed in (
        [(0, [1, 2, 3], 4, 0), (1, [8], 0, 1)],      # a found address
        [(0, [1, 2, 3], 5, 0), (1, [7], 0, 1)],      # routing overhead
        [(0, [1, 2, 3], 4, 0), (1, [7], 0, 2)],      # duplicate receipts
        [(1, [7], 0, 1), (0, [1, 2, 3], 4, 0)],      # query order
    ):
        assert scale.observables_digest(changed) != digest


def test_a_right_result_passes():
    query = BoxQuery(0, 10)
    found = [node(1, 2.0), node(2, 9.0)]
    assert scale.check_result(query, 2, found, sigma=50) is None
    assert scale.check_result(query, 400, found, sigma=2) is None
    assert scale.check_result(query, 0, [], sigma=50) is None


def test_wrong_results_are_named():
    query = BoxQuery(0, 10)
    repeated = [node(1, 2.0), node(1, 2.0)]
    assert "repeated" in scale.check_result(query, 2, repeated, sigma=50)
    stray = [node(1, 2.0), node(2, 11.0)]
    assert "non-matching node 2" in scale.check_result(query, 2, stray, 50)
    short = [node(1, 2.0)]
    assert "wanted 2" in scale.check_result(query, 2, short, sigma=50)
    assert "wanted 3" in scale.check_result(query, 400, short, sigma=3)
    # An incomplete query returns nothing although something matches.
    assert scale.check_result(query, 5, [], sigma=50) is not None
