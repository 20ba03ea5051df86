"""Tests for the fleet item partitioner."""

import pytest

from repro.fleet.partition import build_partition


class TestPlacement:
    def test_every_item_has_a_primary(self):
        part = build_partition(64, 4)
        assert len(part.primary) == 64
        assert all(0 <= p < 4 for p in part.primary)

    def test_no_shard_is_empty(self):
        part = build_partition(16, 5)
        owned = {part.primary[g] for g in range(16)}
        assert owned == set(range(5))

    def test_block_strategy_is_contiguous(self):
        part = build_partition(10, 3)
        assert list(part.primary) == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_single_shard_owns_everything(self):
        part = build_partition(8, 1)
        assert set(part.primary) == {0}
        assert part.hosted_items(0) == list(range(8))

    def test_deterministic(self):
        a = build_partition(100, 7, replication=3)
        b = build_partition(100, 7, replication=3)
        assert a == b


class TestReplication:
    def test_host_sets_have_k_distinct_shards(self):
        part = build_partition(32, 4, replication=3)
        for item in range(32):
            hosts = part.hosts[item]
            assert len(hosts) == 3
            assert len(set(hosts)) == 3
            assert hosts[0] == part.primary[item]

    def test_replication_clamped_by_fleet_width(self):
        part = build_partition(8, 2, replication=5)
        assert all(len(hosts) == 2 for hosts in part.hosts)

    def test_replicas_are_clockwise_successors(self):
        part = build_partition(12, 4, replication=2)
        for item in range(12):
            primary = part.primary[item]
            assert part.hosts[item][1:] == ((primary + 1) % 4,)

    def test_hosted_items_includes_replicas(self):
        part = build_partition(8, 4, replication=2)
        # Shard 1 hosts its own primaries (2, 3) and replicas of shard
        # 0's primaries (0, 1).
        assert part.hosted_items(1) == [0, 1, 2, 3]


class TestValidation:
    def test_more_shards_than_items_rejected(self):
        with pytest.raises(ValueError):
            build_partition(3, 4)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            build_partition(8, 0)

    def test_zero_replication_rejected(self):
        with pytest.raises(ValueError):
            build_partition(8, 2, replication=0)
