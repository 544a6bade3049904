"""Integration tests for the three baselines (MPT, LIPP, CMI)."""

import random

import pytest

from repro.baselines import CMIStorage, LIPPStorage, MPTStorage

ENGINES = [MPTStorage, LIPPStorage, CMIStorage]


def run_workload(engine, seed=3, blocks=50, pool_size=24, puts_per_block=8):
    rng = random.Random(seed)
    pool = [rng.randbytes(20) for _ in range(pool_size)]
    model = {}
    history = {}
    start = engine.current_blk + 1
    for blk in range(start, start + blocks):
        engine.begin_block(blk)
        for _ in range(puts_per_block):
            addr = rng.choice(pool)
            value = rng.randbytes(32)
            engine.put(addr, value)
            model[addr] = value
            versions = history.setdefault(addr, [])
            if versions and versions[-1][0] == blk:
                versions[-1] = (blk, value)
            else:
                versions.append((blk, value))
        engine.commit_block()
    return pool, model, history


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_latest_gets(tmp_path, engine_cls):
    engine = engine_cls(str(tmp_path / "e"), memtable_capacity=256)
    pool, model, _history = run_workload(engine)
    for addr in pool:
        assert engine.get(addr) == model.get(addr)
    assert engine.get(b"\x00" * 20) is None
    engine.close()


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_state_root_changes_per_block(tmp_path, engine_cls):
    engine = engine_cls(str(tmp_path / "r"), memtable_capacity=256)
    rng = random.Random(1)
    roots = []
    for blk in range(1, 6):
        engine.begin_block(blk)
        engine.put(rng.randbytes(20), rng.randbytes(32))
        roots.append(engine.commit_block())
    assert len(set(roots)) == len(roots)
    engine.close()


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_storage_grows(tmp_path, engine_cls):
    engine = engine_cls(str(tmp_path / "s"), memtable_capacity=64)
    run_workload(engine, blocks=20)
    first = engine.storage_bytes()
    run_workload(engine, seed=4, blocks=20)
    assert engine.storage_bytes() > first
    engine.close()


def test_mpt_historical_gets(tmp_path):
    engine = MPTStorage(str(tmp_path / "h"), memtable_capacity=256)
    _pool, _model, history = run_workload(engine)
    for addr, versions in list(history.items())[:8]:
        for blk, value in versions:
            assert engine.get_at(addr, blk) == value
    engine.close()


def test_mpt_provenance_verifies(tmp_path):
    engine = MPTStorage(str(tmp_path / "p"), memtable_capacity=256)
    pool, _model, history = run_workload(engine)
    for addr in pool[:5]:
        result = engine.prov_query(addr, 10, 40)
        MPTStorage.verify_prov(result, engine.roots)
        assert result.proof_size_bytes() > 0
    engine.close()


def test_mpt_provenance_linear_in_range(tmp_path):
    engine = MPTStorage(str(tmp_path / "lin"), memtable_capacity=256)
    pool, _model, _history = run_workload(engine, blocks=60)
    addr = pool[0]
    small = engine.prov_query(addr, 50, 53).proof_size_bytes()
    large = engine.prov_query(addr, 10, 53).proof_size_bytes()
    assert large > small * 4  # proof grows with the block range
    engine.close()


def test_mpt_index_dominates_storage(tmp_path):
    engine = MPTStorage(str(tmp_path / "ix"), memtable_capacity=256)
    run_workload(engine, blocks=60)
    index_share = 1.0 - engine.value_bytes_written / engine.trie.node_bytes_written
    assert index_share > 0.80  # the paper reports ~97%
    engine.close()


def test_lipp_storage_exceeds_mpt(tmp_path):
    # The learned-node persistence blow-up (Section 8.2.1): re-persisting
    # a learned node costs ~n bytes per block versus the MPT's ~log n
    # path, so LIPP overtakes MPT as the state grows.
    rng = random.Random(7)
    pool = [rng.randbytes(20) for _ in range(800)]

    def run(engine):
        for blk in range(1, 61):
            engine.begin_block(blk)
            for _ in range(10):
                engine.put(rng.choice(pool), rng.randbytes(32))
            engine.commit_block()
        size = engine.storage_bytes()
        engine.close()
        return size

    mpt_size = run(MPTStorage(str(tmp_path / "m"), memtable_capacity=64))
    lipp_size = run(LIPPStorage(str(tmp_path / "l"), memtable_capacity=64))
    assert lipp_size > mpt_size


def test_lipp_provenance_versions(tmp_path):
    engine = LIPPStorage(str(tmp_path / "lp"), memtable_capacity=256)
    pool, _model, history = run_workload(engine, blocks=30)
    addr = pool[0]
    result = engine.prov_query(addr, 5, 25)
    expected_blocks = {blk for blk, _v in history.get(addr, []) if 5 <= blk <= 25}
    assert {blk for blk, _v in result.versions} <= set(range(5, 26))
    assert expected_blocks <= {blk for blk, _v in result.versions} | expected_blocks
    engine.close()


def test_cmi_provenance_verifies(tmp_path):
    engine = CMIStorage(str(tmp_path / "c"), memtable_capacity=256)
    pool, _model, history = run_workload(engine)
    for addr in pool[:5]:
        result = engine.prov_query(addr, 10, 40)
        expected = [(b, v) for b, v in history.get(addr, []) if 10 <= b <= 40]
        assert result.versions == expected
        CMIStorage.verify_prov(result, engine.upper_root)
    engine.close()


def test_cmi_tampered_proof_fails(tmp_path):
    from repro.common.errors import VerificationError

    engine = CMIStorage(str(tmp_path / "ct"), memtable_capacity=256)
    pool, _model, _history = run_workload(engine)
    result = engine.prov_query(pool[0], 10, 40)
    if result.leaf_blobs:
        blob = result.leaf_blobs[0]
        result.leaf_blobs[0] = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        with pytest.raises(VerificationError):
            CMIStorage.verify_prov(result, engine.upper_root)
    engine.close()
