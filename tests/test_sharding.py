"""Tests for the shard router: the crc32 address partition and the
``shard-NN`` directory layout a cluster node's workspace shares."""

import zlib

import pytest

from repro.cluster.manifest import shard_dirname, shard_dirs, shard_of

ADDR_SIZE = 32


def test_routing_deterministic_and_covers_all_shards(rng):
    addrs = [rng.randbytes(ADDR_SIZE) for _ in range(2000)]
    routes = [shard_of(addr, 4) for addr in addrs]
    assert routes == [shard_of(addr, 4) for addr in addrs]  # stable
    assert set(routes) == {0, 1, 2, 3}  # every shard gets traffic
    counts = [routes.count(index) for index in range(4)]
    assert min(counts) > len(addrs) // 8  # no pathological imbalance
    assert all(shard_of(addr, 1) == 0 for addr in addrs[:16])
    with pytest.raises(ValueError):
        shard_of(addrs[0], 0)


def test_route_is_crc32_of_the_address():
    # Pinned, not recomputed: a cluster's nodes, clients and on-disk
    # shards must agree on the route across processes and releases.
    addr = bytes(range(ADDR_SIZE))
    assert zlib.crc32(addr) == 0x91267E8A
    assert [shard_of(addr, n) for n in (2, 3, 4, 7)] == [0, 0, 2, 2]


def test_shard_dirs_lists_only_shard_subdirectories(tmp_path):
    assert shard_dirname(0) == "shard-00"
    assert shard_dirname(12) == "shard-12"
    assert shard_dirs(str(tmp_path / "missing")) == []
    for index in (1, 0):
        (tmp_path / shard_dirname(index)).mkdir()
    (tmp_path / "shard-99.tmp").write_text("a file, not a shard")
    (tmp_path / "wal").mkdir()
    assert shard_dirs(str(tmp_path)) == ["shard-00", "shard-01"]
