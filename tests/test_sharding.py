"""Tests for the sharding layer: routing, composite Hstate, equivalence
with the unsharded engine, proof verification, and per-shard recovery."""

import random
import threading

import pytest

from repro.chain import BlockExecutor
from repro.chain.contracts import (
    ExecutionContext,
    KVStoreContract,
    SmallBankContract,
)
from repro.common.errors import VerificationError
from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.core import Cole, verify_provenance
from repro.sharding import (
    ShardedCole,
    shard_of,
    verify_sharded_provenance,
)
from repro.workloads import Mix, SmallBankWorkload, YCSBWorkload

ADDR_SIZE = 32
CONTEXT = ExecutionContext(addr_size=ADDR_SIZE, value_size=40)
SYSTEM = SystemParams(addr_size=ADDR_SIZE, value_size=40)
COLE_PARAMS = ColeParams(system=SYSTEM, mem_capacity=32, size_ratio=3, async_merge=True)


def make_sharded(path, num_shards=4, params=COLE_PARAMS):
    return ShardedCole(str(path), ShardParams(cole=params, num_shards=num_shards))


def put_stream(seed=41, blocks=100, pool_size=64, puts_per_block=8):
    """A deterministic (blk, [(addr, value), ...]) stream."""
    rng = random.Random(seed)
    pool = [rng.randbytes(ADDR_SIZE) for _ in range(pool_size)]
    return [
        (blk, [(rng.choice(pool), rng.randbytes(40)) for _ in range(puts_per_block)])
        for blk in range(1, blocks + 1)
    ], pool


def apply_stream(engine, log, from_blk=0):
    for blk, batch in log:
        if blk <= from_blk:
            continue
        engine.begin_block(blk)
        engine.put_many(batch)
        engine.commit_block()


# =============================================================================
# routing
# =============================================================================

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


def test_every_put_lands_on_its_routed_shard(tmp_path):
    engine = make_sharded(tmp_path / "route")
    log, pool = put_stream(blocks=30)
    try:
        apply_stream(engine, log)
        for addr in pool:
            owner = shard_of(addr, 4)
            for index, shard in enumerate(engine.shards):
                value = shard.get(addr)
                if index == owner:
                    assert value == engine.get(addr)
                else:
                    assert value is None
    finally:
        engine.close()


# =============================================================================
# composite Hstate
# =============================================================================

def test_composite_root_deterministic_across_nodes(tmp_path):
    log, _pool = put_stream()
    node_a = make_sharded(tmp_path / "a")
    node_b = make_sharded(tmp_path / "b")
    try:
        apply_stream(node_a, log)
        apply_stream(node_b, log)
        assert node_a.root_digest() == node_b.root_digest()
        assert node_a.shard_roots() == node_b.shard_roots()
    finally:
        node_a.close()
        node_b.close()


def test_composite_root_is_ordered_hash_of_shard_roots(tmp_path):
    from repro.common.hashing import hash_concat

    engine = make_sharded(tmp_path / "c")
    log, _pool = put_stream(blocks=40)
    try:
        apply_stream(engine, log)
        assert engine.root_digest() == hash_concat(engine.shard_roots())
        assert len(engine.shard_roots()) == 4
    finally:
        engine.close()


def test_put_many_equivalent_to_single_puts(tmp_path):
    log, _pool = put_stream(blocks=60)
    batched = make_sharded(tmp_path / "batched")
    single = make_sharded(tmp_path / "single")
    try:
        apply_stream(batched, log)
        for blk, batch in log:
            single.begin_block(blk)
            for addr, value in batch:
                single.put(addr, value)
            single.commit_block()
        assert batched.root_digest() == single.root_digest()
        assert batched.puts_total == single.puts_total
    finally:
        batched.close()
        single.close()


# =============================================================================
# equivalence with the unsharded engine (SmallBank + YCSB)
# =============================================================================

def run_workload(engine, *phases):
    executor = BlockExecutor(engine, CONTEXT, txs_per_block=10)
    for transactions in phases:
        executor.run(transactions)
    return executor


def test_smallbank_matches_unsharded(tmp_path):
    workload = SmallBankWorkload(num_accounts=24, seed=43)
    contract = SmallBankContract(CONTEXT)
    sharded = make_sharded(tmp_path / "shards")
    unsharded = Cole(str(tmp_path / "one"), COLE_PARAMS)
    try:
        for engine in (sharded, unsharded):
            run_workload(
                engine,
                list(workload.setup_transactions()),
                list(workload.transactions(500)),
            )
        for index in range(24):
            expected = contract.execute(unsharded, "get_balance", (f"acct{index}",))
            assert contract.execute(sharded, "get_balance", (f"acct{index}",)) == expected
    finally:
        sharded.close()
        unsharded.close()


def test_ycsb_matches_unsharded_with_verifying_proofs(tmp_path):
    workload = YCSBWorkload(num_keys=32, seed=44)
    contract = KVStoreContract(CONTEXT)
    sharded = make_sharded(tmp_path / "shards")
    unsharded = Cole(str(tmp_path / "one"), COLE_PARAMS)
    try:
        for engine in (sharded, unsharded):
            run_workload(
                engine,
                list(workload.load_transactions()),
                list(workload.run_transactions(400, Mix.READ_WRITE)),
            )
        sharded_root = sharded.root_digest()
        unsharded_root = unsharded.root_digest()
        for index in range(32):
            addr = contract.key_addr(f"user{index}")
            assert sharded.get(addr) == unsharded.get(addr)
            ours = sharded.prov_query(addr, 5, 40)
            theirs = unsharded.prov_query(addr, 5, 40)
            assert ours.versions == theirs.versions
            assert ours.boundary_version == theirs.boundary_version
            # Both proofs verify against their engine's state root.
            assert (
                verify_sharded_provenance(ours, sharded_root, addr_size=ADDR_SIZE)
                == ours.versions
            )
            assert (
                verify_provenance(theirs, unsharded_root, addr_size=ADDR_SIZE)
                == theirs.versions
            )
    finally:
        sharded.close()
        unsharded.close()


# =============================================================================
# sharded proof verification (negative cases)
# =============================================================================

def build_proof_fixture(tmp_path):
    engine = make_sharded(tmp_path / "proof")
    log, pool = put_stream(blocks=80)
    apply_stream(engine, log)
    addr = pool[0]
    result = engine.prov_query(addr, 20, 70)
    return engine, engine.root_digest(), result


def test_tampered_shard_roots_rejected(tmp_path):
    engine, root, result = build_proof_fixture(tmp_path)
    try:
        result.shard_roots[(result.shard_index + 1) % 4] = b"\x13" * 32
        with pytest.raises(VerificationError):
            verify_sharded_provenance(result, root, addr_size=ADDR_SIZE)
    finally:
        engine.close()


def test_wrong_shard_claim_rejected(tmp_path):
    engine, root, result = build_proof_fixture(tmp_path)
    try:
        result.shard_index = (result.shard_index + 1) % 4
        with pytest.raises(VerificationError):
            verify_sharded_provenance(result, root, addr_size=ADDR_SIZE)
    finally:
        engine.close()


def test_stale_composite_root_rejected(tmp_path):
    engine, _root, result = build_proof_fixture(tmp_path)
    try:
        engine.begin_block(engine.current_blk + 1)
        engine.put(b"\x55" * ADDR_SIZE, b"\x66" * 40)
        new_root = engine.commit_block()
        with pytest.raises(VerificationError):
            verify_sharded_provenance(result, new_root, addr_size=ADDR_SIZE)
    finally:
        engine.close()


# =============================================================================
# per-shard crash recovery
# =============================================================================

def crash(engine):
    """Abandon without the clean-close bookkeeping (as the tests of the
    unsharded engine do): merges quiesce, then file handles drop."""
    for shard in engine.shards:
        shard.wait_for_merges()
        shard.workspace.close()


def test_recovery_replays_to_identical_root(tmp_path):
    log, _pool = put_stream(blocks=120, pool_size=48)

    reference = make_sharded(tmp_path / "ref")
    apply_stream(reference, log)
    expected = reference.root_digest()

    crashed = make_sharded(tmp_path / "crash")
    apply_stream(crashed, log)
    checkpoint = crashed.checkpoint_blk
    assert checkpoint > 0  # the workload is large enough to checkpoint
    # Shards checkpoint independently; replay starts at the earliest.
    assert checkpoint == min(s.checkpoint_blk for s in crashed.shards)
    crash(crashed)

    recovered = make_sharded(tmp_path / "crash")
    assert recovered.checkpoint_blk == checkpoint
    apply_stream(recovered, log, from_blk=checkpoint)
    assert recovered.root_digest() == expected
    reference.close()
    recovered.close()


def test_recovery_restarts_aborted_shard_merges(tmp_path):
    log, pool = put_stream(blocks=150, pool_size=64, puts_per_block=10)
    engine = make_sharded(tmp_path / "m")
    apply_stream(engine, log)
    merging = [bool(level.merging.runs) for s in engine.shards for level in s.levels]
    assert any(merging)  # a merge was mid-flight somewhere
    crash(engine)

    recovered = make_sharded(tmp_path / "m")
    # Every shard whose manifest recorded a merging group restarted it.
    for shard in recovered.shards:
        for level in shard.levels:
            if level.merging.runs:
                assert level.pending is not None
    recovered.wait_for_merges()
    # And recovered shards still serve reads for their addresses.
    model = {}
    for blk, batch in log:
        for addr, value in batch:
            if blk <= recovered.checkpoint_blk:
                model[addr] = (blk, value)
    hits = sum(1 for addr in pool if recovered.get(addr) is not None)
    assert hits > 0
    recovered.close()


def test_put_many_skips_durable_blocks(tmp_path):
    """Shard 0 stops receiving writes after block 2, so coordinated
    cascades leave it with the lower checkpoint.  A block height shard 1
    holds durably and shard 0 does not must write only to shard 0 — the
    shape of a log replayed from the earliest checkpoint."""
    addrs = {0: [], 1: []}
    n = 0
    while min(map(len, addrs.values())) < 8:
        addr = n.to_bytes(4, "big") * 8
        addrs[shard_of(addr, 2)].append(addr)
        n += 1
    log = [
        (blk, [(addrs[index][(blk + i) % 8], bytes([blk]) * 40)
               for index in ((0, 1) if blk <= 2 else (1,)) for i in range(3)])
        for blk in range(1, 41)
    ]
    params = ColeParams(system=SYSTEM, mem_capacity=16, size_ratio=3, async_merge=True)
    engine = make_sharded(tmp_path / "skip", num_shards=2, params=params)
    apply_stream(engine, log)
    crash(engine)

    recovered = make_sharded(tmp_path / "skip", num_shards=2, params=params)
    low, high = (shard.checkpoint_blk for shard in recovered.shards)
    assert 0 < low < high
    assert recovered.checkpoint_blk == low and recovered.last_blk == high
    recovered.begin_block(high)
    before = [shard.puts_total for shard in recovered.shards]
    recovered.put_many([(addrs[0][0], b"a" * 40), (addrs[1][0], b"b" * 40)])
    recovered.put(addrs[1][1], b"c" * 40)
    assert [shard.puts_total for shard in recovered.shards] == [before[0] + 1, before[1]]
    recovered.close()


# =============================================================================
# lifecycle odds and ends
# =============================================================================

def test_rewind_is_deterministic_across_nodes(tmp_path):
    log, pool = put_stream(blocks=90)
    node_a = make_sharded(tmp_path / "ra")
    node_b = make_sharded(tmp_path / "rb")
    try:
        apply_stream(node_a, log)
        apply_stream(node_b, log)
        dropped_a = node_a.rewind_to(45)
        dropped_b = node_b.rewind_to(45)
        assert dropped_a == dropped_b > 0
        assert node_a.root_digest() == node_b.root_digest()
        model = {}
        for blk, batch in log:
            if blk <= 45:
                for addr, value in batch:
                    model[addr] = value
        for addr in pool:
            assert node_a.get(addr) == model.get(addr)
    finally:
        node_a.close()
        node_b.close()


def test_begin_block_rejects_decreasing_heights(tmp_path):
    from repro.common.errors import StorageError

    engine = make_sharded(tmp_path / "h", num_shards=2)
    try:
        engine.begin_block(5)
        engine.commit_block()
        with pytest.raises(StorageError):
            engine.begin_block(4)
    finally:
        engine.close()


def test_close_waits_for_a_reader_holding_the_top_gate(tmp_path):
    """A scan holds only the top gate, so close must drain it before the
    shards' file handles go."""
    engine = make_sharded(tmp_path / "close", num_shards=2)
    apply_stream(engine, put_stream(blocks=10)[0])
    held, release = threading.Event(), threading.Event()

    def reader():
        with engine.gate.shared():
            held.set()
            release.wait(10)

    holder = threading.Thread(target=reader)
    holder.start()
    assert held.wait(10)
    closer = threading.Thread(target=engine.close)
    closer.start()
    closer.join(0.3)
    try:
        assert closer.is_alive(), "close returned while a reader held the gate"
    finally:
        release.set()
        holder.join(10)
        closer.join(10)
    assert not closer.is_alive()


def test_storage_and_levels_aggregate(tmp_path):
    engine = make_sharded(tmp_path / "agg")
    log, _pool = put_stream(blocks=60)
    try:
        apply_stream(engine, log)
        engine.wait_for_merges()
        assert engine.storage_bytes() == sum(s.storage_bytes() for s in engine.shards)
        assert engine.num_disk_levels() == max(s.num_disk_levels() for s in engine.shards)
        assert engine.puts_total == sum(s.puts_total for s in engine.shards)
    finally:
        engine.close()


def test_single_shard_matches_unsharded_engine(tmp_path):
    """N=1 sharding is the unsharded engine plus a hash over one root."""
    from repro.common.hashing import hash_concat

    log, pool = put_stream(blocks=70)
    sharded = make_sharded(tmp_path / "s1", num_shards=1)
    plain = Cole(str(tmp_path / "plain"), COLE_PARAMS)
    try:
        apply_stream(sharded, log)
        apply_stream(plain, log)
        assert sharded.root_digest() == hash_concat([plain.root_digest()])
        for addr in pool:
            assert sharded.get(addr) == plain.get(addr)
    finally:
        sharded.close()
        plain.close()
