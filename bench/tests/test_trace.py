"""Self time with nested and sibling spans, windows, wrappers, persistence."""

import asyncio

import pytest

from bench.trace import Tracer, layer


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):            # 0 .. 10
        clock.advance(1)
        with tracer.span("child"):        # 1 .. 4, holds a grandchild
            clock.advance(1)
            with tracer.span("grandchild"):   # 2 .. 3
                clock.advance(1)
            clock.advance(1)
        clock.advance(2)
        with tracer.span("child"):        # 6 .. 8, a sibling
            clock.advance(2)
        clock.advance(2)
    table = tracer.self_times()["all"]
    assert table["outer"] == {
        "self_s": 5.0, "total_s": 10.0, "calls": 1, "weight": 0.0,
    }
    assert table["child"]["total_s"] == 5.0
    assert table["child"]["self_s"] == 4.0      # grandchild subtracted once
    assert table["child"]["calls"] == 2
    assert table["grandchild"]["self_s"] == 1.0
    assert sum(entry["self_s"] for entry in table.values()) == 10.0


def test_windows_label_spans_by_their_start_and_drop_the_rest():
    clock = FakeClock()
    tracer = Tracer(clock)
    for _ in range(3):                    # spans at 0..1, 2..3, 4..5
        with tracer.span("op"):
            clock.advance(1)
        clock.advance(1)
    tables = tracer.self_times([(0.0, 1.5, "first"), (3.5, 6.0, "last")])
    assert layer(tables["first"], "op", "calls") == 1
    assert layer(tables["last"], "op", "calls") == 1
    assert set(tables) == {"first", "last"}     # the 2..3 span is in neither
    assert layer(tables["first"], "missing") == 0.0


def test_open_spans_are_skipped():
    clock = FakeClock()
    tracer = Tracer(clock)
    context = tracer.span("never closed")
    context.__enter__()
    clock.advance(1)
    assert tracer.self_times() == {}


class Layer:
    def work(self, clock, seconds):
        clock.advance(seconds)
        return seconds

    async def wait(self, clock, seconds):
        await asyncio.sleep(0)
        clock.advance(seconds)


def test_wrap_times_calls_records_weights_and_uninstalls():
    clock = FakeClock()
    tracer = Tracer(clock)
    original = Layer.__dict__["work"]
    instance = Layer()
    tracer.wrap(Layer, "work", "layer.work", weigh=lambda args, result: result)
    tracer.wrap(instance, "work", "instance.work")
    assert instance.work(clock, 2.0) == 2.0
    table = tracer.self_times()["all"]
    assert table["instance.work"]["total_s"] == 2.0
    assert table["instance.work"]["self_s"] == 0.0   # the class wrapper nests
    assert table["layer.work"]["self_s"] == 2.0
    assert table["layer.work"]["weight"] == 2.0
    tracer.uninstall()
    assert Layer.__dict__["work"] is original
    assert "work" not in vars(instance)


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Broken:
        def fail(self):
            clock.advance(1)
            raise RuntimeError("boom")

    tracer.wrap(Broken, "fail", "broken")
    with pytest.raises(RuntimeError):
        Broken().fail()
    tracer.uninstall()
    assert tracer.self_times()["all"]["broken"]["total_s"] == 1.0
    with tracer.span("after"):
        pass
    assert tracer.parents[-1] == -1     # the stack was unwound


def test_coroutine_spans_stay_out_of_self_time_accounting():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.wrap_async(Layer, "wait", "layer.wait")

    async def scenario():
        with tracer.span("callback"):
            await Layer().wait(clock, 3.0)

    try:
        asyncio.run(scenario())
    finally:
        tracer.uninstall()
    table = tracer.self_times()["all"]
    assert table["layer.wait"]["total_s"] == 3.0
    assert table["callback"]["self_s"] == 3.0   # nothing subtracted


def test_save_and_load_round_trip(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.advance(1)
        with tracer.span("inner"):
            clock.advance(2)
    path = str(tmp_path / "spans")
    tracer.save(path)
    assert Tracer.load(path).self_times() == tracer.self_times()
