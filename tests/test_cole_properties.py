"""Property-based tests of the full COLE engine against reference models.

hypothesis drives random multi-block workloads; the engine must always
agree with a plain dict (latest values), a per-address version log
(provenance), and its own synchronous twin (async determinism).
"""


import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, verify_provenance

ADDR_SIZE = 20
SYSTEM = SystemParams(addr_size=ADDR_SIZE, value_size=32)

# Small pools so collisions (re-updates) are frequent.
addr_index = st.integers(min_value=0, max_value=11)
blocks_strategy = st.lists(
    st.lists(addr_index, min_size=0, max_size=6), min_size=1, max_size=25
)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def pool_addr(index: int) -> bytes:
    return bytes([index + 1]) * ADDR_SIZE


def value_for(blk: int, index: int, nonce: int) -> bytes:
    return blk.to_bytes(8, "big") + index.to_bytes(8, "big") + nonce.to_bytes(16, "big")


def apply_blocks(cole, blocks):
    model = {}
    history = {}
    for blk_offset, updates in enumerate(blocks):
        blk = blk_offset + 1
        cole.begin_block(blk)
        for nonce, index in enumerate(updates):
            addr = pool_addr(index)
            value = value_for(blk, index, nonce)
            cole.put(addr, value)
            model[addr] = value
            versions = history.setdefault(addr, [])
            if versions and versions[-1][0] == blk:
                versions[-1] = (blk, value)
            else:
                versions.append((blk, value))
        cole.commit_block()
    return model, history


@SETTINGS
@given(blocks_strategy, st.booleans())
def test_gets_match_dict_model(tmp_path_factory, blocks, async_merge):
    params = ColeParams(
        system=SYSTEM, mem_capacity=8, size_ratio=2, async_merge=async_merge
    )
    cole = Cole(str(tmp_path_factory.mktemp("prop")), params)
    try:
        model, _history = apply_blocks(cole, blocks)
        for index in range(12):
            addr = pool_addr(index)
            assert cole.get(addr) == model.get(addr)
    finally:
        cole.close()


@SETTINGS
@given(blocks_strategy, st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=24))
def test_provenance_matches_history_model(tmp_path_factory, blocks, span, start):
    params = ColeParams(system=SYSTEM, mem_capacity=8, size_ratio=2)
    cole = Cole(str(tmp_path_factory.mktemp("prov")), params)
    try:
        _model, history = apply_blocks(cole, blocks)
        blk_low = start + 1
        blk_high = blk_low + span
        root = cole.root_digest()
        for index in range(0, 12, 3):
            addr = pool_addr(index)
            result = cole.prov_query(addr, blk_low, blk_high)
            expected = [
                (blk, value)
                for blk, value in history.get(addr, [])
                if blk_low <= blk <= blk_high
            ]
            assert result.versions == expected
            older = [
                (blk, value) for blk, value in history.get(addr, []) if blk < blk_low
            ]
            assert result.boundary_version == (older[-1] if older else None)
            assert verify_provenance(result, root, addr_size=ADDR_SIZE) == expected
    finally:
        cole.close()


@SETTINGS
@given(blocks_strategy)
def test_async_agrees_with_sync(tmp_path_factory, blocks):
    sync_params = ColeParams(system=SYSTEM, mem_capacity=8, size_ratio=2)
    sync = Cole(str(tmp_path_factory.mktemp("sync")), sync_params)
    async_ = Cole(
        str(tmp_path_factory.mktemp("async")), dataclasses.replace(sync_params, async_merge=True)
    )
    try:
        sync_model, _h1 = apply_blocks(sync, blocks)
        async_model, _h2 = apply_blocks(async_, blocks)
        assert sync_model == async_model
        for index in range(12):
            addr = pool_addr(index)
            assert sync.get(addr) == async_.get(addr)
    finally:
        sync.close()
        async_.close()


@SETTINGS
@given(blocks_strategy)
def test_storage_never_loses_committed_data_after_reopen(tmp_path_factory, blocks):
    params = ColeParams(system=SYSTEM, mem_capacity=8, size_ratio=2)
    directory = str(tmp_path_factory.mktemp("reopen"))
    cole = Cole(directory, params)
    model, _history = apply_blocks(cole, blocks)
    checkpoint = cole._checkpoint_blk
    cole.close()
    reopened = Cole(directory, params)
    # Everything up to the checkpoint must be readable without replay.
    for index in range(12):
        addr = pool_addr(index)
        expected = None
        # Reconstruct the newest value at or before the checkpoint.
        for blk_offset, updates in enumerate(blocks):
            blk = blk_offset + 1
            if blk > checkpoint:
                break
            for nonce, update_index in enumerate(updates):
                if update_index == index:
                    expected = value_for(blk, index, nonce)
        assert reopened.get_at(addr, max(checkpoint, 0)) == expected
    reopened.close()
