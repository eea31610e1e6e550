"""Tests for deployment construction and the exact bootstrap."""

import pytest

from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import ZERO_SLOT, iter_slots, neighboring_region
from repro.core.query import Query
from repro.metrics.collectors import MetricsCollector
from repro.sim.deployment import Deployment
from repro.sim.shard import ShardedDeployment
from repro.util.errors import HostDownError
from repro.util.rng import derive_rng
from repro.workloads.distributions import normal_sampler, uniform_sampler
from repro.workloads.queries import aligned_selectivity_query, random_box_query


@pytest.fixture
def schema():
    return AttributeSchema.regular(
        [numeric("x", 0, 80), numeric("y", 0, 80)], max_level=3
    )


def build(schema, size, sampler=None, seed=5):
    metrics = MetricsCollector()
    deployment = Deployment(schema, seed=seed, observer=metrics)
    deployment.populate(sampler or uniform_sampler(schema), size)
    deployment.bootstrap()
    return deployment, metrics


class TestBootstrapCorrectness:
    def test_every_nonempty_slot_gets_a_link(self, schema):
        """The bootstrap must fill a slot iff some node inhabits its cell."""
        deployment, _ = build(schema, 300)
        descriptors = deployment.alive_descriptors()
        for host in list(deployment.hosts.values())[:25]:
            routing = host.node.routing
            for level, dim in iter_slots(schema.dimensions, schema.max_level):
                region = neighboring_region(
                    routing.owner.coordinates, level, dim
                )
                inhabited = any(
                    region.contains(d.coordinates) for d in descriptors
                )
                linked = routing.neighbor(level, dim) is not None
                assert linked == inhabited, (host.address, level, dim)

    def test_zero_lists_complete(self, schema):
        deployment, _ = build(schema, 300)
        descriptors = deployment.alive_descriptors()
        for host in list(deployment.hosts.values())[:25]:
            expected = {
                d.address
                for d in descriptors
                if d.coordinates == host.node.descriptor.coordinates
                and d.address != host.address
            }
            actual = {
                d.address for d in host.node.routing.zero_neighbors()
            }
            assert actual == expected

    def test_links_classified_correctly(self, schema):
        deployment, _ = build(schema, 200, sampler=normal_sampler(schema))
        for host in list(deployment.hosts.values())[:25]:
            routing = host.node.routing
            for level, dim in iter_slots(schema.dimensions, schema.max_level):
                neighbor = routing.neighbor(level, dim)
                if neighbor is not None:
                    assert routing.classify(neighbor) == (level, dim)
            for peer in routing.zero_neighbors():
                assert routing.classify(peer) == ZERO_SLOT


def assert_host_rngs_derived(hosts, seed):
    """Every host's stream is ``derive_rng(seed, f"host:{address}")``."""
    for address in (0, 7, 31):
        host = hosts[address]
        expected = derive_rng(seed, f"host:{address}")
        assert host.rng is host.rng  # derived once, then kept
        assert [host.rng.random() for _ in range(3)] == [
            expected.random() for _ in range(3)
        ]


class TestHosts:
    def test_host_rng_derives_from_seed_and_address(self, schema):
        deployment, _ = build(schema, 40, seed=13)
        assert_host_rngs_derived(deployment.hosts, 13)

    def test_sharded_host_rng_derives_from_seed_and_address(self, schema):
        deployment = ShardedDeployment(schema, num_shards=2, seed=13)
        deployment.populate(uniform_sampler(schema), 40)
        deployment.bootstrap()
        hosts = {
            address: host
            for worker in deployment._workers
            for address, host in worker.hosts.items()
        }
        assert_host_rngs_derived(hosts, 13)

    def test_watchers_are_per_host(self, schema):
        """A deployment shares one watcher tuple; ``watch`` on one host
        adds to that host only."""
        deployment, _ = build(schema, 10)
        events = []
        deployment.hosts[3].watch(lambda host, event: events.append(event))
        deployment.kill(4)
        deployment.kill(3)
        assert events == ["fail"]
        assert 3 not in {h.address for h in deployment.alive_hosts()}


class TestMembership:
    def test_kill_removes_from_alive(self, schema):
        deployment, _ = build(schema, 50)
        deployment.kill(0)
        assert 0 not in {h.address for h in deployment.alive_hosts()}
        deployment.kill(0)  # idempotent

    def test_kill_fraction(self, schema):
        deployment, _ = build(schema, 100)
        victims = deployment.kill_fraction(0.3)
        assert len(victims) == 30
        assert len(deployment.alive_hosts()) == 70

    def test_crashed_origin_refuses_the_query(self, schema):
        """A dead origin raises instead of returning a silent ``[]``."""
        deployment, metrics = build(schema, 200)
        deployment.kill(5)
        sent = deployment.network.messages_sent
        with pytest.raises(HostDownError, match="origin 5 is down"):
            deployment.execute_query(Query.where(schema), origin=5)
        assert deployment.network.messages_sent == sent
        assert not any(qid[0] == 5 for qid in metrics.records)
        deployment.restart(5)
        assert deployment.execute_query(Query.where(schema), origin=5)

    def test_hosts_dead_at_bootstrap_are_neither_seeded_nor_linked(
        self, schema
    ):
        """The plan covers the index's live population, nothing else."""
        deployment = Deployment(schema, seed=5)
        deployment.populate(uniform_sampler(schema), 120)
        dead = {3, 40, 77}
        for address in dead:
            deployment.kill(address)
        deployment.bootstrap()
        for address, host in deployment.hosts.items():
            routing = host.node.routing
            if address in dead:
                assert routing.link_count() == 0
            else:
                assert routing.link_count() > 0
                assert dead.isdisjoint(routing.addresses())

    def test_execute_query_needs_live_hosts(self, schema):
        deployment, _ = build(schema, 10)
        deployment.kill_fraction(1.0)
        with pytest.raises(RuntimeError):
            deployment.execute_query(Query.where(schema))


class TestQueries:
    def test_matching_descriptors_is_ground_truth(self, schema):
        deployment, _ = build(schema, 100)
        query = Query.where(schema, x=(40, None))
        expected = [
            host.node.descriptor
            for host in deployment.alive_hosts()
            if host.node.descriptor.values[0] >= 40
        ]
        assert deployment.matching_descriptors(query) == expected

    def test_execute_query_with_fixed_origin(self, schema):
        deployment, metrics = build(schema, 100)
        query = Query.where(schema, x=(40, None))
        found = deployment.execute_query(query, origin=7)
        assert {d.address for d in found} == {
            d.address for d in deployment.matching_descriptors(query)
        }
        assert any(qid[0] == 7 for qid in metrics.records)

    def test_deterministic_given_seed(self, schema):
        results = []
        for _ in range(2):
            deployment, _ = build(schema, 80, seed=9)
            query = Query.where(schema, x=(20, 60))
            found = deployment.execute_query(query, origin=3)
            results.append(sorted(d.address for d in found))
        assert results[0] == results[1]

    def test_explicit_origin_does_not_copy_the_alive_list(
        self, schema, monkeypatch
    ):
        deployment, _ = build(schema, 100)
        calls = []
        alive_hosts = deployment.alive_hosts
        monkeypatch.setattr(
            deployment,
            "alive_hosts",
            lambda: calls.append(1) or alive_hosts(),
        )
        deployment.execute_query(Query.where(schema, x=(40, None)), origin=7)
        assert calls == []

    def test_random_origins_draw_from_the_deployment_stream(self, schema):
        deployment, metrics = build(schema, 100, seed=9)
        # The draw every earlier version made: one choice per query over
        # the live hosts in address order, from the "deployment" stream.
        rng = derive_rng(9, "deployment")
        hosts = deployment.alive_hosts()
        expected = [rng.choice(hosts).address for _ in range(20)]
        for _ in range(20):
            deployment.execute_query(Query.where(schema, x=(40, None)))
        assert [query_id[0] for query_id in metrics.records] == expected


def brute_force(deployment, query):
    return [
        host.descriptor
        for host in deployment.alive_hosts()
        if query.matches(host.descriptor.values)
    ]


def probe_queries(schema, rng):
    for selectivity in (0.01, 0.125, 0.5):
        yield random_box_query(schema, selectivity, rng)
        yield aligned_selectivity_query(schema, selectivity, rng)


class TestGroundTruth:
    def assert_ground_truth(self, deployment, rng):
        for query in probe_queries(deployment.schema, rng):
            found = deployment.matching_descriptors(query)
            expected = sorted(
                brute_force(deployment, query), key=lambda d: d.address
            )
            assert len(found) == len(expected)
            assert all(got is want for got, want in zip(found, expected))

    def test_tracks_kill_restart_and_attribute_updates(self, schema):
        deployment, _ = build(schema, 300)
        rng = derive_rng(5, "ground-truth-probe")
        sampler = uniform_sampler(schema)
        self.assert_ground_truth(deployment, rng)
        for round_ in range(4):
            for address in range(round_, 300, 7):
                deployment.kill(address)
            self.assert_ground_truth(deployment, rng)
            for address in range(round_, 300, 14):
                deployment.restart(address)
            for address in range(round_ + 1, 300, 5):
                host = deployment.hosts[address]
                if host.alive:
                    host.update_attributes(sampler(rng))
            deployment.join(sampler(rng))
            self.assert_ground_truth(deployment, rng)

    def test_repeated_populate_extends_the_base(self, schema):
        """Batches around a join share one base, holding the hosts' objects."""
        deployment = Deployment(schema, seed=5)
        sampler = uniform_sampler(schema)
        deployment.populate(sampler, 60)
        deployment.add_host(sampler(derive_rng(5, "joiner")))
        deployment.populate(sampler, 40)
        assert sorted(deployment.hosts) == list(range(101))
        assert len(deployment.index) == 101
        for address, host in deployment.hosts.items():
            assert deployment.index.get(address) is host.descriptor
        self.assert_ground_truth(deployment, derive_rng(5, "probe"))
        deployment.bootstrap()
        self.assert_ground_truth(deployment, derive_rng(5, "probe"))

    @pytest.mark.parametrize(
        "make_sampler", [uniform_sampler, normal_sampler],
        ids=["uniform", "normal"],
    )
    def test_sim_engines_agree(self, schema, make_sampler):
        """Same ground truth and same query results on both engines.

        ``normal_sampler`` has no batch hook, so the sharded engine draws
        it with the scalar loop into its columnar store.
        """
        single = Deployment(schema, seed=13)
        single.populate(make_sampler(schema), 400)
        single.bootstrap()
        sharded = ShardedDeployment(schema, num_shards=2, seed=13)
        sharded.populate(make_sampler(schema), 400)
        sharded.bootstrap()
        rng = derive_rng(13, "ground-truth-probe")
        for query in probe_queries(schema, rng):
            expected = [d.address for d in single.matching_descriptors(query)]
            assert [
                d.address for d in sharded.matching_descriptors(query)
            ] == expected
            found = [
                sorted(d.address for d in engine.execute_query(query))
                for engine in (single, sharded)
            ]
            assert found == [expected, expected]
