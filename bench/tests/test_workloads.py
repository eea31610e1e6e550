"""Small end-to-end runs: declared metrics, correct results, clean teardown."""

import gc
import os

import pytest

from bench import host, load_spec, scale, serve

SPEC = load_spec()
END_TO_END = {entry["name"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"] for entry in SPEC["per_layer"]}


@pytest.fixture
def small(monkeypatch):
    """Shrink the overlay and the set-up repeats so a run takes seconds."""
    monkeypatch.setattr(scale, "NETWORK_SIZE", 1500)
    monkeypatch.setattr(scale, "BUILDS", 2)
    monkeypatch.setattr(serve, "SPAWNS", 2)
    monkeypatch.setattr(serve, "LIST_LENGTH", {"capped": 64, "exhaustive": 16})
    monkeypatch.setattr(serve, "WARMUP", {"capped": 4, "exhaustive": 2})


def no_children():
    return host.child_pids(os.getpid()) == []


@pytest.mark.parametrize("engine", ["single", "sharded"])
def test_scale_end_to_end_and_traced(small, engine):
    untraced = scale.run(engine, seed=5, seconds=0.2, trace=False)
    assert untraced["failed"] == 0
    assert untraced["attempted"] >= scale.DIGEST_QUERIES
    assert set(untraced["metrics"]) >= END_TO_END
    assert all(value > 0 for value in untraced["metrics"].values())
    traced = scale.run(engine, seed=5, seconds=0.2, trace=True)
    assert traced["failed"] == 0
    assert set(traced["metrics"]) <= PER_LAYER | END_TO_END
    assert traced["metrics"]["trace.unattributed_share"] <= 0.10
    # Same seed, fresh build: the simulated observables repeat exactly.
    assert (
        traced["detail"]["observables_digest"]
        == untraced["detail"]["observables_digest"]
    )
    assert no_children()


def test_both_engines_agree_on_the_observables(small):
    digests = {
        engine: scale.run(engine, seed=11, seconds=0.1, trace=False)["detail"]
        for engine in ("single", "sharded")
    }
    assert (
        digests["single"]["observables_digest"]
        == digests["sharded"]["observables_digest"]
    )
    assert (
        digests["single"]["events_per_query"]
        == digests["sharded"]["events_per_query"]
    )


def test_serve_end_to_end_and_traced(small):
    untraced = serve.run(seed=5, seconds=0.6, trace=False)
    assert untraced["failed"] == 0
    assert set(untraced["metrics"]) >= END_TO_END
    assert all(value > 0 for value in untraced["metrics"].values())
    traced = serve.run(seed=5, seconds=0.6, trace=True)
    assert traced["failed"] == 0
    assert set(traced["metrics"]) <= PER_LAYER | END_TO_END
    assert traced["metrics"]["runtime.reliable.retransmits"] == 0
    assert traced["metrics"]["core.codec.decode_calls_per_op.exhaustive"] > 10
    assert no_children()
    assert not [
        name for name in os.listdir(serve.ROOT) if name.startswith(".bench_tmp_")
    ]


def test_every_declared_layer_metric_is_measured_somewhere(small):
    measured = set()
    for engine in ("single", "sharded"):
        measured |= set(scale.run(engine, 5, 0.1, trace=True)["metrics"])
    measured |= set(serve.run(5, 0.4, trace=True)["metrics"])
    assert PER_LAYER <= measured


def test_a_failing_sim_workload_leaves_nothing_behind(small, monkeypatch):
    from repro.core.node import ResourceNode
    from repro.sim.shard import ShardedDeployment

    before = (ResourceNode.handle_message, ShardedDeployment.execute_query)

    def explode(session, *_args, **_kwargs):
        assert gc.get_freeze_count() > 0      # the built heap is frozen
        if session.tracer is not None:
            assert ResourceNode.handle_message is not before[0]
        raise RuntimeError("mid-measurement failure")

    monkeypatch.setattr(scale, "measure", explode)
    for trace in (False, True):
        with pytest.raises(RuntimeError, match="mid-measurement"):
            scale.run("sharded", seed=5, seconds=0.1, trace=trace)
        assert gc.get_freeze_count() == 0
        assert (ResourceNode.handle_message, ShardedDeployment.execute_query) == before
        assert no_children()


def test_server_child_is_stopped_when_the_workload_raises(small, monkeypatch):
    async def explode(child, *_args, **_kwargs):
        assert child.process.poll() is None
        raise RuntimeError("mid-measurement failure")

    monkeypatch.setattr(serve, "_session", explode)
    with pytest.raises(RuntimeError, match="mid-measurement"):
        serve.run(seed=5, seconds=0.1, trace=False)
    assert no_children()
    with pytest.raises(RuntimeError, match="mid-measurement"):
        serve.run(seed=5, seconds=0.1, trace=True)
    assert no_children()
    assert not [
        name for name in os.listdir(serve.ROOT) if name.startswith(".bench_tmp_")
    ]


def test_wrappers_are_removed_after_a_traced_run(small):
    from repro.core.node import ResourceNode
    from repro.sim.deployment import Deployment

    before = (ResourceNode.handle_message, Deployment.execute_query)
    scale.run("single", seed=5, seconds=0.1, trace=True)
    assert (ResourceNode.handle_message, Deployment.execute_query) == before
