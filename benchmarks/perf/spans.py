"""Spans recorded from outside the program, at its layer boundaries.

:func:`install` wraps the layers' public functions at run time (nothing
under ``src/`` is edited).  Every wrapped call is a span: name, start,
end, the span that caused it, and the id of the request it belongs to.

* The *current span* lives in a ``ContextVar``: per thread for plain
  code, per task on an event loop, so interleaved coroutines never see
  each other's spans.
* A span's **self time** is its duration minus the part covered by its
  child spans.  A child only counts against a parent that is still open
  when the child starts; a span whose inherited parent has already
  ended (a task spawned by a request that was since answered) becomes a
  root of kind ``background``.
* Work handed to a thread pool (``ColeServer._run``) keeps its parent
  across the thread hop: the pooled call's spans are children of the
  awaiting span, and the queueing either side of the call is recorded
  as ``server.executor_hop``.
* Generator-returning functions are timed per ``next()``.
* Every root span gets a *kind* (the request type); aggregates are kept
  per ``(kind, name)`` for every call.  Full span records are kept for
  every ``sample_every``-th request, bounded by ``max_spans``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter_ns
_current: "contextvars.ContextVar[Optional[Frame]]" = contextvars.ContextVar(
    "perf_span", default=None
)

# Aggregate row layout.
COUNT, TOTAL, SELF, MAX, UNITS, TRUTHY = range(6)


class Frame:
    """One open span."""

    __slots__ = (
        "name", "kind", "rid", "parent", "cause", "start", "end", "child", "token",
    )


class Tracer:
    """Span aggregates (always) and sampled span records (bounded)."""

    def __init__(self, sample_every: int = 0, max_spans: int = 20000) -> None:
        self.sample_every = sample_every
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._tables: List[Dict[Tuple[str, str], list]] = []
        self._lock = threading.Lock()
        self._rids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _table(self) -> Dict[Tuple[str, str], list]:
        try:
            return self._local.table
        except AttributeError:
            table: Dict[Tuple[str, str], list] = {}
            self._local.table = table
            with self._lock:
                self._tables.append(table)
            return table

    def _row(self, kind: str, name: str) -> list:
        table = self._table()
        row = table.get((kind, name))
        if row is None:
            row = table[(kind, name)] = [0, 0, 0, 0, 0, 0]
        return row

    def open(self, name: str, kind: Optional[str] = None) -> Frame:
        inherited = _current.get()
        frame = Frame()
        frame.name = name
        frame.cause = inherited
        if inherited is not None and inherited.end == 0:
            frame.parent = inherited
            frame.kind = inherited.kind
            frame.rid = inherited.rid
        else:
            frame.parent = None
            if kind is not None:
                frame.kind = kind
            else:
                frame.kind = "background" if inherited is not None else name
            frame.rid = next(self._rids)
        frame.child = 0
        frame.end = 0
        frame.token = _current.set(frame)
        frame.start = _now()
        return frame

    def close(self, frame: Frame, units: int = 0, truthy: bool = False) -> int:
        end = _now()
        _current.reset(frame.token)
        frame.end = end
        duration = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child += duration
        row = self._row(frame.kind, frame.name)
        row[COUNT] += 1
        row[TOTAL] += duration
        row[SELF] += duration - frame.child
        if duration > row[MAX]:
            row[MAX] = duration
        row[UNITS] += units
        row[TRUTHY] += truthy
        if (
            self.sample_every
            and frame.rid % self.sample_every == 0
            and len(self.spans) < self.max_spans
        ):
            cause = frame.cause
            self.spans.append(
                (
                    id(frame),
                    id(cause) if cause is not None else 0,
                    frame.rid,
                    frame.kind,
                    frame.name,
                    threading.get_ident(),
                    frame.start,
                    end,
                )
            )
        return duration

    def record(
        self, name: str, duration: int, parent: Optional[Frame] = None, self_time: bool = True
    ) -> None:
        """Account an interval measured by hand (no nested spans).

        With ``parent`` it is that open span's child (and its own self
        time); with ``self_time=False`` it is an overlay such as a lock
        hold, kept out of the self-time sums.
        """
        kind = name
        if parent is not None and parent.end == 0:
            parent.child += duration
            kind = parent.kind
        else:
            current = _current.get()
            if current is not None and current.end == 0:
                kind = current.kind
        row = self._row(kind, name)
        row[COUNT] += 1
        row[TOTAL] += duration
        if self_time:
            row[SELF] += duration
        if duration > row[MAX]:
            row[MAX] = duration

    def span(self, name: str, kind: Optional[str] = None) -> "_SpanContext":
        """``with tracer.span("request", kind="get"):`` — the benchmark's
        own root span around one request."""
        return _SpanContext(self, name, kind)

    # -- reading --------------------------------------------------------------

    def aggregates(self) -> Dict[Tuple[str, str], list]:
        """Per-thread tables merged into one ``(kind, name) -> row`` dict."""
        merged: Dict[Tuple[str, str], list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, row in list(table.items()):
                into = merged.get(key)
                if into is None:
                    merged[key] = list(row)
                else:
                    for index in (COUNT, TOTAL, SELF, UNITS, TRUTHY):
                        into[index] += row[index]
                    into[MAX] = max(into[MAX], row[MAX])
        return merged

    def dump(self) -> dict:
        """JSON-ready aggregates and sampled spans."""
        return {
            "aggregates": {
                f"{kind}|{name}": row for (kind, name), row in self.aggregates().items()
            },
            "span_columns": [
                "id", "cause_id", "request", "kind", "name", "thread", "start_ns", "end_ns",
            ],
            "spans": list(self.spans),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle)

    # -- patching -------------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_kind", "_frame")

    def __init__(self, tracer: Tracer, name: str, kind: Optional[str]) -> None:
        self._tracer = tracer
        self._name = name
        self._kind = kind

    def __enter__(self) -> Frame:
        self._frame = self._tracer.open(self._name, self._kind)
        return self._frame

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.close(self._frame)


class Aggregates:
    """Read-side view of one aggregate dump (optionally a delta of two)."""

    def __init__(self, rows: Dict[Tuple[str, str], list]) -> None:
        self.rows = rows

    @classmethod
    def from_dump(cls, dump: dict, baseline: Optional[dict] = None) -> "Aggregates":
        rows = {
            tuple(key.split("|", 1)): list(row) for key, row in dump["aggregates"].items()
        }
        if baseline is not None:
            for key, row in baseline["aggregates"].items():
                into = rows.get(tuple(key.split("|", 1)))
                if into is not None:
                    for index in (COUNT, TOTAL, SELF, UNITS, TRUTHY):
                        into[index] -= row[index]
        return cls(rows)

    def _sum(self, name: str, column: int, kind: Optional[str]) -> int:
        return sum(
            row[column]
            for (row_kind, row_name), row in self.rows.items()
            if row_name == name and (kind is None or row_kind == kind)
        )

    def count(self, name: str, kind: Optional[str] = None) -> int:
        return self._sum(name, COUNT, kind)

    def total_ns(self, name: str, kind: Optional[str] = None) -> int:
        return self._sum(name, TOTAL, kind)

    def self_ns(self, name: str, kind: Optional[str] = None) -> int:
        return max(0, self._sum(name, SELF, kind))

    def units(self, name: str, kind: Optional[str] = None) -> int:
        return self._sum(name, UNITS, kind)

    def truthy(self, name: str, kind: Optional[str] = None) -> int:
        return self._sum(name, TRUTHY, kind)

    def max_ns(self, name: str) -> int:
        return max(
            (row[MAX] for (_kind, row_name), row in self.rows.items() if row_name == name),
            default=0,
        )

    def mean_us(self, name: str, kind: Optional[str] = None, self_time: bool = True) -> float:
        """Mean self (or inclusive) time per call, in microseconds."""
        calls = self.count(name, kind)
        if not calls:
            return 0.0
        spent = self.self_ns(name, kind) if self_time else self.total_ns(name, kind)
        return spent / calls / 1e3

    def kinds(self) -> List[str]:
        return sorted({kind for kind, _name in self.rows})

    def self_by_name(self, kind: str) -> Dict[str, int]:
        """name -> self ns of every span recorded under ``kind``."""
        return {
            name: max(0, row[SELF])
            for (row_kind, name), row in self.rows.items()
            if row_kind == kind
        }


# =============================================================================
# wrappers
# =============================================================================

def traced_call(
    tracer: Tracer,
    fn: Callable,
    name: str,
    *,
    units: Optional[Callable[[tuple, dict], int]] = None,
    outcome: bool = False,
    kind_of: Optional[Callable[[tuple], str]] = None,
) -> Callable:
    """Wrap a plain function: one span per call."""
    open_, close = tracer.open, tracer.close

    if units is None and not outcome and kind_of is None:

        @functools.wraps(fn)
        def plain(*args, **kwargs):
            frame = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return plain

    @functools.wraps(fn)
    def detailed(*args, **kwargs):
        frame = open_(name, kind_of(args) if kind_of is not None else None)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            close(
                frame,
                units(args, kwargs) if units is not None else 0,
                bool(result) if outcome else False,
            )

    return detailed


def traced_coroutine(
    tracer: Tracer,
    fn: Callable,
    name: str,
    *,
    kind_of: Optional[Callable[[tuple], str]] = None,
    leaf: bool = False,
) -> Callable:
    """Wrap an ``async def``: the span covers the awaited body.

    ``leaf`` detaches whatever runs inside (including tasks it spawns)
    from the span tree: the span keeps its whole duration as self time.
    """

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        frame = tracer.open(name, kind_of(args) if kind_of is not None else None)
        detached = _current.set(None) if leaf else None
        try:
            return await fn(*args, **kwargs)
        finally:
            if detached is not None:
                _current.reset(detached)
            tracer.close(frame)

    return wrapper


class _TimedIterator:
    """Times every ``next()`` of a wrapped generator as one span."""

    __slots__ = ("_tracer", "_inner", "_name")

    def __init__(self, tracer: Tracer, inner: Iterable, name: str) -> None:
        self._tracer = tracer
        self._inner = iter(inner)
        self._name = name

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        frame = self._tracer.open(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.close(frame)


def traced_generator(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """Wrap a generator function: a ``<name>.started`` count per call and
    one span per ``next()``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.record(name + ".started", 0, self_time=False)
        return _TimedIterator(tracer, fn(*args, **kwargs), name)

    return wrapper


def traced_executor_run(tracer: Tracer, run: Callable) -> Callable:
    """Wrap ``ColeServer._run(fn, *args)`` (thread-pool hand-off).

    The pooled call adopts the awaiting span as its parent, so engine
    spans stay inside the request that waits for them; the two queueing
    gaps (submit -> start, finish -> resume) are ``server.executor_hop``.
    """

    def wrapper(server, fn, *args):
        parent = _current.get()
        marks = [0, 0]
        submitted = _now()

        def call():
            token = _current.set(parent)
            marks[0] = _now()
            try:
                return fn(*args)
            finally:
                marks[1] = _now()
                _current.reset(token)

        future = run(server, call)

        async def wait():
            try:
                return await future
            finally:
                if marks[1]:
                    hop = (marks[0] - submitted) + (_now() - marks[1])
                    tracer.record("server.executor_hop", hop, parent)

        return wait()

    return wrapper


# =============================================================================
# the install table
# =============================================================================

def _patch_method(tracer: Tracer, cls: type, attr: str, wrap: Callable) -> None:
    static = inspect.getattr_static(cls, attr)
    if isinstance(static, classmethod):
        tracer.patch(cls, attr, classmethod(wrap(static.__func__)))
    elif isinstance(static, staticmethod):
        tracer.patch(cls, attr, staticmethod(wrap(static.__func__)))
    else:
        tracer.patch(cls, attr, wrap(static))


def _patch_function(tracer: Tracer, module_name: str, attr: str, wrap: Callable) -> None:
    """Replace a module-level function everywhere ``repro`` bound it
    (``from x import f`` copies the reference into the importer)."""
    original = getattr(importlib.import_module(module_name), attr)
    replacement = wrap(original)
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            if getattr(module, attr, None) is original:
                tracer.patch(module, attr, replacement)


def install(tracer: Tracer, served: bool = False) -> None:
    """Wrap the engine layers; with ``served`` also the serving layers."""
    import repro  # noqa: F401  (binds every engine module)
    from repro.bloomfilter import BloomFilter
    from repro.common.gate import CommitGate
    from repro.core.cursor import MergingCursor
    from repro.core.indexfile import IndexFile
    from repro.core.merklefile import MerkleFile, MerkleFileBuilder
    from repro.core.run import Run
    from repro.core.storage import Cole
    from repro.core.valuefile import ValueFile, ValueFileWriter
    from repro.diskio.pagefile import PagedFile
    from repro.mbtree import MBTree

    def call(name: str, **options) -> Callable:
        return lambda fn: traced_call(tracer, fn, name, **options)

    def one_unit(_args: tuple, _kwargs: dict) -> int:
        return 1

    methods = [
        (MBTree, "insert", call("mbtree.insert")),
        # Run.build(cls, workspace, name, level, entries, num_entries, params)
        (Run, "build", call("run.build", units=lambda args, kwargs: kwargs.get(
            "num_entries", args[5] if len(args) > 5 else 0))),
        (Run, "floor_search", call("run.floor_search")),
        (Run, "prov_scan", call("run.prov_scan")),
        (IndexFile, "search", call("indexfile.search")),
        (ValueFile, "floor_in_page", call("valuefile.floor")),
        (ValueFileWriter, "add", call("valuefile.write")),
        (MerkleFileBuilder, "add", call("merklefile.build", units=one_unit)),
        (MerkleFileBuilder, "finish", call("merklefile.build")),
        (MerkleFile, "prove_range", call("merklefile.prove")),
        (BloomFilter, "add", call("bloom.add")),
        (BloomFilter, "__contains__", call("bloom.probe", outcome=True)),
        (MergingCursor, "next", call("cursor.merge")),
        (PagedFile, "read_page", call("diskio.read_page")),
        (PagedFile, "append_page", call("diskio.write_page")),
        (PagedFile, "write_page", call("diskio.write_page")),
        (PagedFile, "flush", call("diskio.flush")),
        (CommitGate, "acquire_shared", call("gate.shared_wait")),
        (Cole, "begin_block", call("cole.begin_block")),
        (Cole, "put_many", call("cole.put_many")),
        (Cole, "commit_block", call("cole.commit")),
        (Cole, "get", call("cole.get")),
        (Cole, "get_at", call("cole.get_at")),
        (Cole, "get_many", call("cole.get_many")),
        (Cole, "scan", call("cole.scan")),
        (Cole, "prov_query", call("cole.prov")),
        (Cole, "prov_query_anchored", call("cole.prov")),
        (Cole, "root_digest", call("cole.root")),
    ]
    for cls, attr, wrap in methods:
        _patch_method(tracer, cls, attr, wrap)
    _install_gate_hold(tracer, CommitGate)

    _patch_function(
        tracer, "repro.core.merge", "merge_entry_streams",
        lambda fn: traced_generator(tracer, fn, "merge.stream"),
    )
    _patch_function(
        tracer, "repro.learned.plm", "build_models",
        lambda fn: traced_generator(tracer, fn, "learned.build_models"),
    )
    _patch_function(tracer, "repro.core.manifest", "save_manifest", call("manifest.save"))

    if served:
        _install_served(tracer, call)


def _install_gate_hold(tracer: Tracer, gate_cls: type) -> None:
    """Exclusive wait is a span; the hold (acquired -> release) is an
    overlay measured per thread — the gate is not reentrant and is
    released by the thread that acquired it."""
    held = threading.local()
    acquire = inspect.getattr_static(gate_cls, "acquire_exclusive")
    release = inspect.getattr_static(gate_cls, "release_exclusive")

    def acquire_exclusive(self):
        frame = tracer.open("gate.exclusive_wait")
        try:
            acquire(self)
        finally:
            tracer.close(frame)
        held.since = _now()

    def release_exclusive(self):
        since = getattr(held, "since", 0)
        if since:
            tracer.record("gate.exclusive_hold", _now() - since, self_time=False)
            held.since = 0
        release(self)

    tracer.patch(gate_cls, "acquire_exclusive", acquire_exclusive)
    tracer.patch(gate_cls, "release_exclusive", release_exclusive)


def _install_served(tracer: Tracer, call: Callable) -> None:
    import repro.server  # noqa: F401  (binds protocol, batcher, cache, server)
    from repro.server import protocol
    from repro.server.batcher import WriteBatcher
    from repro.server.cache import VersionedReadCache
    from repro.server.server import OP_NAMES, ColeServer, _WalSyncer
    from repro.wal.log import WriteAheadLog

    for cls, attr, wrap in [
        (WriteAheadLog, "append_put", call("wal.append")),
        (WriteAheadLog, "append_puts", call("wal.append")),
        (WriteAheadLog, "append_commit", call("wal.append_commit")),
        (WriteAheadLog, "sync", call("wal.sync")),
        (WriteBatcher, "put", call("batcher.put")),
        (WriteBatcher, "put_batch", call("batcher.put")),
        (VersionedReadCache, "get", call("cache.get")),
    ]:
        _patch_method(tracer, cls, attr, wrap)
    tracer.patch(
        WriteBatcher, "flush",
        traced_coroutine(tracer, inspect.getattr_static(WriteBatcher, "flush"), "batcher.flush"),
    )
    # The private seams: the server exposes no public per-request hook.
    tracer.patch(
        ColeServer, "_dispatch",
        traced_coroutine(
            tracer,
            inspect.getattr_static(ColeServer, "_dispatch"),
            "server.dispatch",
            kind_of=lambda args: OP_NAMES.get(args[1], "other"),
        ),
    )
    tracer.patch(
        ColeServer, "_run",
        traced_executor_run(tracer, inspect.getattr_static(ColeServer, "_run")),
    )
    tracer.patch(
        _WalSyncer, "durable",
        traced_coroutine(
            tracer, inspect.getattr_static(_WalSyncer, "durable"), "wal.ack_wait", leaf=True
        ),
    )
    tracer.patch(protocol, "decode_request", call("protocol.decode")(protocol.decode_request))
    for attr in (
        "encode_value_response",
        "encode_height_response",
        "encode_root_response",
        "encode_blob_response",
        "encode_multi_get_response",
        "encode_scan_response",
        "encode_error",
    ):
        tracer.patch(protocol, attr, call("protocol.encode")(getattr(protocol, attr)))
