"""Closed-loop load generation against a running :class:`ColeServer`.

The generator speaks the real wire protocol through real sockets — it is
the serving layer's counterpart of the YCSB running phase (Section
8.1.3): every logical client issues a deterministic mixed read/write
stream with zipfian key popularity.  Each client issues its next op when
the previous one completes, so latency is pure service time and
throughput scales with the client count until the server saturates.

Determinism: the op stream of client ``i`` depends only on the
parameters and ``i``.  Writes are partitioned — client ``i`` only writes
keys whose rank is ``i (mod clients)`` — so the final value of every key
is fixed by the parameters alone, no matter how the server interleaves
clients: the last put of each key in :func:`client_ops`'s streams,
which is how the service is checked to be byte-identical with the
library (``tests/test_server.py``); ``repro experiment fig17`` drives
it for the service figure.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.hashing import hash_bytes
from repro.obs import LatencyHistogram
from repro.server.client import ServerClient
from repro.server.protocol import NotPrimaryError
from repro.workloads.ycsb import ZipfGenerator

#: One op: ("get", addr, None), ("put", addr, value),
#: ("scan", start_addr, max_results), or ("mget", (addr, ...), None) —
#: one MULTI_GET batch issued as a single request.
ClientOp = Tuple[str, object, Optional[object]]
#: The op kinds, in the order a report lists them.
OP_KINDS = ("get", "put", "scan", "mget")

#: Zipfian skew of every key draw (YCSB's default).
ZIPF_THETA = 0.99


@dataclass(frozen=True)
class LoadgenParams:
    """Shape of one load-generation run."""

    clients: int = 32
    ops_per_client: int = 200
    read_fraction: float = 0.5
    scan_fraction: float = 0.0
    scan_length: int = 16
    num_keys: int = 1024
    addr_size: int = 32
    value_size: int = 40
    seed: int = 7
    #: reads per MULTI_GET batch; 1 keeps plain GETs (and a stream
    #: bit-identical to the pre-batching generator).
    multi_get_size: int = 1

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if not (0.0 <= self.read_fraction <= 1.0 and 0.0 <= self.scan_fraction <= 1.0):
            raise ValueError("read_fraction and scan_fraction must be in [0, 1]")
        if self.read_fraction + self.scan_fraction > 1.0:
            raise ValueError("read + scan fractions exceed 1")
        if self.scan_length < 1:
            raise ValueError("scan_length must be >= 1")
        if self.multi_get_size < 1:
            raise ValueError("multi_get_size must be >= 1")


def key_addr(rank: int, addr_size: int) -> bytes:
    """Address of YCSB key ``user<rank>`` — identical to
    ``KVStoreContract.key_addr`` so served state and chain state agree."""
    return hash_bytes(f"kv:user{rank}".encode())[:addr_size]


def write_value(client_id: int, index: int, value_size: int) -> bytes:
    """Deterministic fixed-width payload for client ``client_id``'s
    ``index``-th write."""
    payload = hash_bytes(f"v:{client_id}:{index}".encode())
    while len(payload) < value_size:
        payload += hash_bytes(payload)
    return payload[:value_size]


def client_ops(params: LoadgenParams, client_id: int) -> List[ClientOp]:
    """The deterministic op stream of one logical client.

    Reads draw zipfian ranks over the whole key space; writes draw over
    the client's own partition (rank ≡ client_id mod clients), so every
    key has exactly one writer and the final state is order-independent.
    A client whose partition is empty (more clients than keys) issues
    reads only — any write fallback would give some key two writers and
    make the final state interleaving-dependent.

    Scans (``scan_fraction`` of ops, the YCSB-E shape) start at a
    zipfian-popular key's address and read up to ``scan_length``
    key-ordered results from there — with hashed addresses the range is
    over the *address* space, the standard scan shape for hash-ordered
    stores.  With ``scan_fraction == 0`` the stream is bit-identical to
    the pre-scan generator (one RNG draw per op decides the kind).

    With ``multi_get_size > 1`` each read op instead draws that many
    zipfian ranks and becomes one ``("mget", ...)`` batch — the same
    popularity distribution, issued as a single MULTI_GET request.
    """
    import random

    rng = random.Random(params.seed * 10_007 + client_id)
    zipf_reads = ZipfGenerator(
        params.num_keys, theta=ZIPF_THETA, seed=params.seed + client_id
    )
    owned = list(range(client_id, params.num_keys, params.clients))
    zipf_writes = ZipfGenerator(
        max(1, len(owned)), theta=ZIPF_THETA, seed=params.seed + 100_000 + client_id
    )
    zipf_scans = ZipfGenerator(
        params.num_keys, theta=ZIPF_THETA, seed=params.seed + 200_000 + client_id
    )
    ops: List[ClientOp] = []
    writes = 0
    for _ in range(params.ops_per_client):
        roll = rng.random()
        if roll < params.scan_fraction:
            rank = zipf_scans.next_rank()
            length = rng.randint(1, params.scan_length)
            ops.append(("scan", key_addr(rank, params.addr_size), length))
        elif roll < params.scan_fraction + params.read_fraction or not owned:
            if params.multi_get_size > 1:
                batch = tuple(
                    key_addr(zipf_reads.next_rank(), params.addr_size)
                    for _ in range(params.multi_get_size)
                )
                ops.append(("mget", batch, None))
            else:
                rank = zipf_reads.next_rank()
                ops.append(("get", key_addr(rank, params.addr_size), None))
        else:
            rank = owned[zipf_writes.next_rank()]
            ops.append(
                (
                    "put",
                    key_addr(rank, params.addr_size),
                    write_value(client_id, writes, params.value_size),
                )
            )
            writes += 1
    return ops


# =============================================================================
# running the load
# =============================================================================

#: How many distinct error messages a report keeps verbatim.
MAX_ERROR_SAMPLES = 5


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    clients: int
    #: One latency histogram per op kind — the histogram type and buckets
    #: the server's own metrics use; a histogram's count is its kind's
    #: completed ops.
    latency: Dict[str, LatencyHistogram] = field(
        default_factory=lambda: {kind: LatencyHistogram() for kind in OP_KINDS}
    )
    #: keys each op kind touched: one per GET / PUT, a batch's worth per
    #: MULTI_GET, the returned entries per scan.
    keys: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))
    errors: int = 0
    #: error count per exception type name — a run that failed must say how.
    errors_by_type: dict = field(default_factory=dict)
    #: first few distinct error messages, verbatim.
    error_samples: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    server_stats: dict = field(default_factory=dict)

    def record_ok(self, op: ClientOp, latency: float, result=None) -> None:
        """Count one completed op with its latency, by kind."""
        kind, target, _ = op
        self.latency[kind].observe(latency)
        if kind == "mget":
            self.keys[kind] += len(target)
        elif kind == "scan":
            self.keys[kind] += len(result)
        else:
            self.keys[kind] += 1

    def record_error(self, exc: BaseException) -> None:
        """Count one failed op, keeping its kind and a message sample."""
        self.errors += 1
        kind = type(exc).__name__
        self.errors_by_type[kind] = self.errors_by_type.get(kind, 0) + 1
        if len(self.error_samples) < MAX_ERROR_SAMPLES:
            message = f"{kind}: {exc}"
            if message not in self.error_samples:
                self.error_samples.append(message)

    @property
    def latencies(self) -> LatencyHistogram:
        """Every completed op's latency, whatever its kind."""
        merged = LatencyHistogram()
        for hist in self.latency.values():
            merged.merge(hist)
        return merged

    @property
    def ops(self) -> int:
        """Completed ops, whatever their kind."""
        return sum(len(hist) for hist in self.latency.values())

    @property
    def reads(self) -> int:
        """Keys read: one per GET, a batch's worth per MULTI_GET."""
        return self.keys["get"] + self.keys["mget"]

    @property
    def throughput(self) -> float:
        """Completed ops per second of wall clock."""
        return self.ops / self.elapsed_s if self.elapsed_s else 0.0

    def rows(self) -> List[dict]:
        """The report as table rows: one per op kind that ran, then
        ``all`` with the run's totals.  Only ``all`` carries ``errors``,
        ``elapsed_s`` and ``clients``, so its keys are the columns."""

        def row(op: str, hist: LatencyHistogram, keys: int) -> dict:
            return {"op": op, "count": len(hist), "keys": keys,
                    "p50_s": round(hist.percentile(0.5), 6),
                    "p99_s": round(hist.percentile(0.99), 6),
                    "max_s": round(hist.max, 6),
                    "ops_per_s": round(len(hist) / self.elapsed_s, 1) if self.elapsed_s else 0.0}

        rows = [row(kind, hist, self.keys[kind]) for kind, hist in self.latency.items() if hist]
        return rows + [{**row("all", self.latencies, sum(self.keys.values())),
                        "errors": self.errors, "elapsed_s": round(self.elapsed_s, 6),
                        "clients": self.clients}]


async def _issue(client: ServerClient, op: ClientOp):
    kind, addr, extra = op
    if kind == "get":
        return await client.get(addr)
    if kind == "mget":
        return await client.multi_get(list(addr))
    if kind == "scan":
        # Open-ended upward from the zipfian start address: with hashed
        # addresses any contiguous address window is an unbiased sample.
        return await client.scan(addr, b"\xff" * len(addr), limit=extra)
    return await client.put(addr, extra)


async def _closed_worker(
    client_factory, ops: List[ClientOp], report: LoadReport
) -> None:
    async with client_factory() as client:
        for op in ops:
            started = time.perf_counter()
            try:
                result = await _issue(client, op)
            except Exception as exc:  # count it, keep the evidence
                report.record_error(exc)
                continue
            report.record_ok(op, time.perf_counter() - started, result)


async def run_streams(client_factory, streams: Sequence[List[ClientOp]]) -> LoadReport:
    """Run every op stream at once, each closed loop on its own client
    from ``client_factory``; the report times the whole gather."""
    report = LoadReport(clients=len(streams))
    started = time.perf_counter()
    await asyncio.gather(
        *(_closed_worker(client_factory, stream, report) for stream in streams)
    )
    report.elapsed_s = time.perf_counter() - started
    return report


async def run_loadgen(client_factory, params: LoadgenParams) -> LoadReport:
    """Drive the target with ``params.clients`` concurrent clients.

    ``client_factory`` is a zero-arg callable returning an *unconnected*
    :class:`~repro.server.client.ServerClient`, so it names the target:
    ``lambda: connect((host, port))``.

    Finishes with a forced group commit (so the run's writes are
    committed) and a STATS snapshot attached to the report.
    """
    report = await run_streams(
        client_factory, [client_ops(params, cid) for cid in range(params.clients)]
    )
    async with client_factory() as control:
        try:
            await control.flush()
        except NotPrimaryError:
            pass  # a replica target: its commits arrive via the stream
        report.server_stats = await control.stats()
    return report
