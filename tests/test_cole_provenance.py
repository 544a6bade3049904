"""Tests for provenance queries (Algorithm 8) and VerifyProv (Section 6.2)."""

import copy
import random
import sys

import pytest

from repro.common.errors import StorageError, VerificationError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, verify_provenance
from repro.core.proofs import MemProofItem, RunProofItem, StubItem
from repro.mbtree.proof import ProofInternal

ADDR_SIZE = 20


@pytest.fixture(params=[False, True], ids=["sync", "async"])
def cole(request, workdir):
    system = SystemParams(addr_size=ADDR_SIZE, value_size=32)
    params = ColeParams(
        system=system, mem_capacity=16, size_ratio=3, mht_fanout=4,
        async_merge=request.param,
    )
    engine = Cole(workdir, params)
    yield engine
    engine.close()


def build_history(cole, rng, blocks=80, pool_size=20, puts_per_block=5):
    pool = [rng.randbytes(ADDR_SIZE) for _ in range(pool_size)]
    history = {}
    for blk in range(1, blocks + 1):
        cole.begin_block(blk)
        for _ in range(puts_per_block):
            addr = rng.choice(pool)
            value = rng.randbytes(32)
            cole.put(addr, value)
            versions = history.setdefault(addr, [])
            if versions and versions[-1][0] == blk:
                versions[-1] = (blk, value)
            else:
                versions.append((blk, value))
        cole.commit_block()
    return pool, history


def expected_in_range(history, addr, low, high):
    return [(blk, value) for blk, value in history.get(addr, []) if low <= blk <= high]


def test_versions_match_history(cole, rng):
    pool, history = build_history(cole, rng)
    for addr in pool[:10]:
        result = cole.prov_query(addr, 20, 60)
        assert result.versions == expected_in_range(history, addr, 20, 60)


def test_boundary_version(cole, rng):
    pool, history = build_history(cole, rng)
    for addr in pool[:10]:
        result = cole.prov_query(addr, 40, 50)
        older = [(blk, v) for blk, v in history.get(addr, []) if blk < 40]
        assert result.boundary_version == (older[-1] if older else None)


def test_verification_succeeds(cole, rng):
    pool, history = build_history(cole, rng)
    root = cole.root_digest()
    for addr in pool[:10]:
        result = cole.prov_query(addr, 10, 70)
        verified = verify_provenance(result, root, addr_size=ADDR_SIZE)
        assert verified == expected_in_range(history, addr, 10, 70)


def test_unknown_address_verifies_empty(cole, rng):
    build_history(cole, rng)
    root = cole.root_digest()
    ghost = rng.randbytes(ADDR_SIZE)
    result = cole.prov_query(ghost, 10, 70)
    assert result.versions == []
    assert result.boundary_version is None
    assert verify_provenance(result, root, addr_size=ADDR_SIZE) == []


def test_single_block_range(cole, rng):
    pool, history = build_history(cole, rng)
    root = cole.root_digest()
    addr = pool[0]
    for blk, value in history[addr][:5]:
        result = cole.prov_query(addr, blk, blk)
        assert result.versions == [(blk, value)]
        verify_provenance(result, root, addr_size=ADDR_SIZE)


def test_empty_block_range_rejected(cole, rng):
    build_history(cole, rng, blocks=10)
    with pytest.raises(StorageError):
        cole.prov_query(rng.randbytes(ADDR_SIZE), 9, 3)


def test_wrong_root_fails_verification(cole, rng):
    pool, _history = build_history(cole, rng)
    result = cole.prov_query(pool[0], 10, 40)
    with pytest.raises(VerificationError):
        verify_provenance(result, b"\x00" * 32, addr_size=ADDR_SIZE)


def test_tampered_result_fails_verification(cole, rng):
    pool, history = build_history(cole, rng)
    root = cole.root_digest()
    addr = pool[1]
    result = cole.prov_query(addr, 10, 70)
    if result.versions:
        tampered_versions = list(result.versions)
        blk, _value = tampered_versions[0]
        tampered_versions[0] = (blk, b"\xff" * 32)
        from repro.core.proofs import ProvenanceResult

        forged = ProvenanceResult(
            versions=tampered_versions,
            boundary_version=result.boundary_version,
            proof=result.proof,
        )
        with pytest.raises(VerificationError):
            verify_provenance(forged, root, addr_size=ADDR_SIZE)


def test_tampered_proof_entry_fails(cole, rng):
    pool, _history = build_history(cole, rng)
    root = cole.root_digest()
    result = cole.prov_query(pool[2], 10, 70)
    for item in result.proof.items:
        if isinstance(item, RunProofItem) and item.entries:
            key, _value = item.entries[0]
            item.entries[0] = (key, b"\xee" * 32)
            with pytest.raises(VerificationError):
                verify_provenance(result, root, addr_size=ADDR_SIZE)
            return
    pytest.skip("no run proof item produced at this scale")


def test_early_stop_produces_stubs(cole, rng):
    pool, history = build_history(cole, rng, blocks=100, pool_size=8)
    addr = max(history, key=lambda a: len(history[a]))
    # A recent, narrow range: old structures should be stubbed.
    result = cole.prov_query(addr, 90, 100)
    stub_count = sum(1 for item in result.proof.items if isinstance(item, StubItem))
    assert stub_count > 0
    verify_provenance(result, cole.root_digest(), addr_size=ADDR_SIZE)


def test_proof_size_sublinear_in_range(cole, rng):
    pool, history = build_history(cole, rng, blocks=100, pool_size=8)
    addr = max(history, key=lambda a: len(history[a]))
    small = cole.prov_query(addr, 95, 100).proof.size_bytes()
    large = cole.prov_query(addr, 5, 100).proof.size_bytes()
    # 16x the range should cost far less than 16x the proof.
    assert large < small * 16


# =============================================================================
# a proof of the wrong shape: VerificationError, never a built-in error
# =============================================================================

@pytest.fixture(scope="module")
def stubbed_proof(tmp_path_factory):
    """``(result, root)`` of a range whose proof holds a searched L0 tree,
    searched runs and stubs."""
    params = ColeParams(
        system=SystemParams(addr_size=ADDR_SIZE, value_size=32), mem_capacity=16,
        size_ratio=3, mht_fanout=4,
    )
    engine = Cole(str(tmp_path_factory.mktemp("shape")), params)
    _pool, history = build_history(engine, random.Random(0xC01E), blocks=100, pool_size=8)
    addr = max(history, key=lambda a: len(history[a]))
    result = engine.prov_query(addr, 50, 100)
    root = engine.root_digest()
    engine.close()
    kinds = {type(item) for item in result.proof.items}
    assert {MemProofItem, RunProofItem, StubItem} <= kinds
    return result, root


def _first(result, kind):
    return next(item for item in result.proof.items if type(item) is kind)


def _cycle(result):
    node = ProofInternal(keys=[], children=[])
    node.children.append(node)
    vars(_first(result, MemProofItem).proof)["root"] = node


DAMAGE = {
    "field-missing": lambda r: vars(r).pop("versions"),
    "field-renamed": lambda r: vars(r.proof).update(itmes=vars(r.proof).pop("items")),
    "versions-a-dict": lambda r: vars(r).update(versions={}),
    "boundary-a-list": lambda r: vars(r).update(boundary_version=[1, b"v"]),
    "blk-a-bool": lambda r: vars(r.proof).update(blk_low=True),
    "item-of-another-class": lambda r: r.proof.items.append(r.proof),
    "item-twice": lambda r: r.proof.items.append(r.proof.items[-1]),
    "short-stub-digest": lambda r: vars(_first(r, StubItem)).update(digest=bytes(31)),
    "negative-key": lambda r: _first(r, RunProofItem).entries.__setitem__(0, (-1, b"v")),
    "key-wider-than-key-width": lambda r: _first(r, RunProofItem).entries.__setitem__(
        0, (1 << 8 * (ADDR_SIZE + 8), b"v")),
    "entry-a-list": lambda r: _first(r, RunProofItem).entries.__setitem__(0, [1, b"v"]),
    "fanout-0": lambda r: vars(_first(r, RunProofItem).merkle_proof).update(fanout=0),
    "fanout-1": lambda r: vars(_first(r, RunProofItem).merkle_proof).update(fanout=1),
    "sibling-layer-a-list": lambda r: _first(r, RunProofItem).merkle_proof.sibling_layers
    .__setitem__(0, [[], []]),
    "node-in-its-own-subtree": _cycle,
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_wrong_shaped_proof_raises_verification_error(stubbed_proof, damage):
    result, root = copy.deepcopy(stubbed_proof)
    verify_provenance(result, root, addr_size=ADDR_SIZE)
    damage(result)

    def hook(frame, event, arg):
        pass

    # A RecursionError would silently unset a profile hook.
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with pytest.raises(VerificationError):
            verify_provenance(result, root, addr_size=ADDR_SIZE)
        assert sys.getprofile() is hook
    finally:
        sys.setprofile(previous)
