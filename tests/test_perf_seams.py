"""Seam guard for the performance ruler (``benchmarks/perf``).

``benchmarks/perf/spans.py`` records per-layer spans by wrapping
functions of ``src/`` *by name* at run time.  Its own harness test only
exercises the engine half (``install(tracer)``); renaming a serving-layer
seam — ``ColeServer._dispatch``, a ``protocol.encode_*_response`` — would
leave ``run.py --trace 1`` broken with every tier-1 test still green.
This test loads the bench's ``spans`` module by path (it reads the
bench, it does not modify it), installs the served spans, drives one
request through the patched seams, and checks ``uninstall`` restores
every attribute.
"""

import asyncio
import importlib.util
import inspect
from pathlib import Path

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


def _load_spans():
    spec = importlib.util.spec_from_file_location("perf_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current():
    return [inspect.getattr_static(owner, attr) for owner, attr in SERVED_SEAMS]


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
        # One request through the patched seams, with their call shapes:
        # decode_request(body), _dispatch(self, op, args), encode_error(msg).
        op, args = protocol.decode_request(protocol.encode_admin({})[4:])
        response = asyncio.run(ColeServer(engine=None)._dispatch(op, args))
    finally:
        tracer.uninstall()
    assert _current() == before
    assert response[4] == protocol.Status.ERROR  # a shard server refuses ADMIN
    rows = spans.Aggregates(tracer.aggregates())
    assert rows.count("protocol.decode") == 1
    assert rows.count("server.dispatch", "admin") == 1
    assert rows.count("protocol.encode", "admin") == 1
