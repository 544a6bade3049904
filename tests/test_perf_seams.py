"""Seam guard for the performance ruler (``benchmarks/perf``).

``benchmarks/perf/spans.py`` records per-layer spans by wrapping
functions of ``src/`` *by name* at run time.  Renaming a seam —
``ColeServer._dispatch``, a ``protocol.encode_*_response``,
``ValueFileWriter.add``, ``merge_entry_streams`` — would leave
``run.py --trace 1`` broken (or a per-layer row silently empty) with
every other tier-1 test still green.  These tests load the bench's
``spans`` module by path (they read the bench, they do not modify it),
install the spans, drive the patched seams — one request for the
serving half, a small store through flush, merge and read for the
engine half — and check ``uninstall`` restores every attribute.
"""

import asyncio
import hashlib
import importlib.util
import inspect
from pathlib import Path

import read_oracle
from repro import Cole, ColeParams
from repro.bloomfilter import BloomFilter
from repro.common.gate import CommitGate
from repro.common.params import SystemParams
from repro.core import indexfile, manifest, merge, storage
from repro.core.cursor import MergingCursor
from repro.core.indexfile import IndexFile
from repro.core.merklefile import MerkleFile, MerkleFileBuilder
from repro.core.run import Run
from repro.core.valuefile import ValueFile, ValueFileWriter
from repro.diskio.pagefile import PagedFile
from repro.learned import plm
from repro.mbtree import MBTree
from repro.server import ColeServer, protocol
from repro.server.batcher import WriteBatcher
from repro.server.cache import VersionedReadCache
from repro.server.protocol import Op
from repro.server.server import OP_NAMES, _WalSyncer

SPANS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "spans.py"

#: (owner, attribute) of every serving-layer seam ``_install_served`` wraps.
SERVED_SEAMS = [
    (ColeServer, "_dispatch"),
    (ColeServer, "_run"),
    (_WalSyncer, "durable"),
    (WriteBatcher, "put"),
    (WriteBatcher, "put_batch"),
    (WriteBatcher, "flush"),
    (VersionedReadCache, "get"),
    (protocol, "decode_request"),
    (protocol, "encode_value_response"),
    (protocol, "encode_height_response"),
    (protocol, "encode_root_response"),
    (protocol, "encode_blob_response"),
    (protocol, "encode_multi_get_response"),
    (protocol, "encode_scan_response"),
    (protocol, "encode_error"),
]

#: (owner, attribute) of every engine seam ``install`` wraps.  The three
#: build sinks' ``add`` is what ``Run.build`` calls, one value page a call.
ENGINE_SEAMS = [
    (MBTree, "insert"),
    (Run, "build"),
    (Run, "floor_search"),
    (Run, "prov_scan"),
    (IndexFile, "search"),
    (ValueFile, "floor_in_page"),
    (ValueFileWriter, "add"),
    (MerkleFileBuilder, "add"),
    (MerkleFileBuilder, "finish"),
    (MerkleFile, "prove_range"),
    (BloomFilter, "add"),
    (BloomFilter, "__contains__"),
    (MergingCursor, "next"),
    (PagedFile, "read_page"),
    (PagedFile, "append_page"),
    (PagedFile, "write_page"),
    (PagedFile, "flush"),
    (CommitGate, "acquire_shared"),
    (CommitGate, "acquire_exclusive"),
    (CommitGate, "release_exclusive"),
    (Cole, "begin_block"),
    (Cole, "put_many"),
    (Cole, "commit_block"),
    (Cole, "get"),
    (Cole, "get_at"),
    (Cole, "get_many"),
    (Cole, "scan"),
    (Cole, "prov_query"),
    (Cole, "prov_query_anchored"),
    (Cole, "root_digest"),
    # Module-level functions, patched wherever ``repro`` bound them.
    (merge, "merge_entry_streams"),
    (storage, "merge_entry_streams"),
    (plm, "build_models"),
    (indexfile, "build_models"),
    (manifest, "save_manifest"),
    (storage, "save_manifest"),
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perf_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(seams=SERVED_SEAMS):
    return [inspect.getattr_static(owner, attr) for owner, attr in seams]


def test_engine_install_patches_every_seam_and_uninstall_restores(tmp_path):
    spans = _load_spans()
    before = _current(ENGINE_SEAMS)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        for (owner, attr), old, new in zip(ENGINE_SEAMS, before, _current(ENGINE_SEAMS)):
            assert new is not old, f"{owner.__name__}.{attr} was not wrapped"
        # Enough blocks for L0 flushes and a level merge, then a read
        # that has to leave the in-memory level.
        params = ColeParams(
            system=SystemParams(addr_size=8, value_size=8, page_size=256),
            mem_capacity=8, size_ratio=2,
        )
        cole = Cole(str(tmp_path / "store"), params)
        addrs = [index.to_bytes(8, "big") for index in range(1, 41)]
        for height in range(1, 11):
            cole.begin_block(height)
            cole.put_many([(addr, bytes([height]) * 8) for addr in addrs[height % 4 :: 4]])
            cole.commit_block()
        assert cole.get(addrs[1]) == bytes([9]) * 8
        cole.close()
    finally:
        tracer.uninstall()
    assert _current(ENGINE_SEAMS) == before
    rows = spans.Aggregates(tracer.aggregates())
    for name in (
        "run.build", "learned.build_models", "merge.stream", "cole.get",
        # The build sinks: without them the ledger's valuefile.write,
        # merklefile.build and bloom.add rows read 0 on ingest.
        "valuefile.write", "merklefile.build", "bloom.add",
    ):
        assert rows.count(name) > 0 and rows.total_ns(name) > 0, name
    # merklefile.build_us_per_entry divides by a unit per add: one a page.
    assert rows.units("merklefile.build") == rows.count("valuefile.write") > 0
    assert rows.count("merge.stream.started") > 0
    assert rows.units("run.build") > 0  # entries built: run.build_entries_per_s


def _lookup_plan(cole, addr):
    """(runs probed, runs whose filter passes, runs holding a floor) of
    ``cole.get(addr)``, walked with the integer oracle: freshest source
    first, stop at the first hit."""
    key = int.from_bytes(addr, "big") << 64 | (2**64 - 1)
    probed = positive = floors = 0
    for source in cole._view.sources:
        if source.kind == "run":
            probed += 1
            if not read_oracle.bloom_contains(source.source.bloom, addr):
                continue
            positive += 1
            found = read_oracle.run_floor_search(source.source, key)
            found = found[0] if found is not None else None
            floors += found is not None
        else:
            found = source.source.floor_search(key)
        if found is not None and found[0] >> 64 == key >> 64:
            break
    return probed, positive, floors


def test_one_get_enters_each_lookup_seam_once_per_run(tmp_path, monkeypatch):
    """The ledger's per-run rows stay per-run: a get over an N-run store is
    one SHA-256 of the address, one ``__contains__`` per run it probes and
    one ``floor_search`` / ``search`` / ``floor_in_page`` per run whose
    filter passes (``floor_in_page`` only where the run holds a key at or
    below the address) — ``bloom.probe_us``, ``run.searches_per_get`` and
    ``bloom.false_positive_frac`` are ratios of exactly these counts."""
    params = ColeParams(
        system=SystemParams(addr_size=8, value_size=8, page_size=256),
        mem_capacity=8, size_ratio=3,
    )
    cole = Cole(str(tmp_path / "store"), params)
    addrs = [(index * 0x9E3779B97F4A7C15 % 2**64).to_bytes(8, "big") for index in range(1, 65)]
    for height in range(1, 27):  # 26 flushes = 2 + 2*3 + 2*9: six runs on three levels
        cole.begin_block(height)
        cole.put_many([(addr, bytes([height]) * 8) for addr in addrs[height % 8 :: 8]])
        cole.commit_block()
    num_runs = sum(len(level.all_runs()) for level in cole.levels)
    assert num_runs == 6
    # Two absent addresses whose filters answer "maybe" somewhere, so the
    # negative path is searched too; one below every stored key.
    absent = [
        candidate
        for candidate in (bytes([128]) * 7 + bytes([low]) for low in range(256))
        if _lookup_plan(cole, candidate)[1] > 0
    ][:2] + [b"\x00" * 8]
    assert len(absent) == 3
    plans = {addr: _lookup_plan(cole, addr) for addr in absent + addrs[1:4]}
    assert all(plans[addr][0] == num_runs for addr in absent)
    assert plans[absent[0]][2] > 0 and any(plans[addr][1] > 1 for addr in addrs[1:4])

    sha256 = hashlib.sha256
    hashed = []
    monkeypatch.setattr(hashlib, "sha256", lambda data=b"": hashed.append(data) or sha256(data))
    spans = _load_spans()
    for addr, (probed, positive, floors) in plans.items():
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            del hashed[:]
            with tracer.span("request", "get"):
                cole.get(addr)
        finally:
            tracer.uninstall()
        assert hashed.count(addr) == 1
        rows = spans.Aggregates(tracer.aggregates())
        assert rows.count("cole.get") == 1
        assert rows.count("bloom.probe") == probed
        assert rows.truthy("bloom.probe") == positive
        assert rows.count("run.floor_search") == rows.count("indexfile.search") == positive
        assert rows.count("valuefile.floor") == floors
        # A single-page index layer per run here, and one value page per
        # floor: each through PagedFile.read_page, none twice.
        assert rows.count("diskio.read_page") == positive + floors
    cole.close()


class _StubCommitter:
    """Answers ROOT with a fixed committed state, engine-free."""

    write_refusal = None

    async def root(self):
        return bytes(32), 7


def test_served_install_patches_every_seam_and_uninstall_restores():
    spans = _load_spans()
    assert isinstance(OP_NAMES, dict) and OP_NAMES[Op.GET] == "get"
    before = _current()
    tracer = spans.Tracer()
    spans.install(tracer, served=True)
    try:
        patched = _current()
        for (owner, attr), old, new in zip(SERVED_SEAMS, before, patched):
            assert new is not old, f"{owner.__name__}.{attr} was not wrapped"
        # One engine-free request through the patched seams, with their
        # call shapes: decode_request(body), _dispatch(self, op, args),
        # encode_root_response(info).
        server = ColeServer(engine=None)
        server.committer = _StubCommitter()
        op, args = protocol.decode_request(protocol.encode_simple(Op.ROOT)[4:])
        response = asyncio.run(server._dispatch(op, args))
    finally:
        tracer.uninstall()
    assert _current() == before
    assert protocol.decode_root_response(response[4:]).height == 7
    rows = spans.Aggregates(tracer.aggregates())
    assert rows.count("protocol.decode") == 1
    assert rows.count("server.dispatch", "root") == 1
    assert rows.count("protocol.encode", "root") == 1
