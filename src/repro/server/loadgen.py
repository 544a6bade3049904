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
clients.  :func:`replay_writes` applies the same streams directly to an
in-process engine, which is how the service is checked to be
byte-identical with the library (``tests/test_server.py``,
``benchmarks/bench_fig17_service.py``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.hashing import hash_bytes
from repro.obs import LatencyHistogram
from repro.server.client import KVClient, connect
from repro.server.protocol import Referral
from repro.workloads.ycsb import YCSBGenerator, ZipfGenerator

#: One op: ("get", addr, None), ("put", addr, value),
#: ("scan", start_addr, max_results), or ("mget", (addr, ...), None) —
#: one MULTI_GET batch issued as a single request.
ClientOp = Tuple[str, object, Optional[object]]

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
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.scan_fraction <= 1.0:
            raise ValueError("scan_fraction must be in [0, 1]")
        if self.read_fraction + self.scan_fraction > 1.0:
            raise ValueError("read_fraction + scan_fraction exceed 1")
        if self.scan_length < 1:
            raise ValueError("scan_length must be >= 1")
        if self.multi_get_size < 1:
            raise ValueError("multi_get_size must be >= 1")

    @classmethod
    def for_workload(cls, workload: str, **overrides) -> "LoadgenParams":
        """Params preset for a standard YCSB workload letter.

        ``for_workload("E")`` is the scan-heavy mix (95% range scans,
        5% writes) of :class:`repro.workloads.YCSBGenerator`.
        """
        mix = YCSBGenerator.MIXES[workload.upper()]
        overrides.setdefault("read_fraction", mix.read_fraction)
        overrides.setdefault("scan_fraction", mix.scan_fraction)
        return cls(**overrides)


def key_addr(rank: int, addr_size: int) -> bytes:
    """Address of YCSB key ``user<rank>`` — identical to
    ``KVStoreContract.key_addr`` so served state and chain state agree."""
    return hash_bytes(f"kv:user{rank}".encode())[:addr_size]


def _value(client_id: int, index: int, value_size: int) -> bytes:
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
                    _value(client_id, writes, params.value_size),
                )
            )
            writes += 1
    return ops


def replay_writes(engine, params: LoadgenParams, puts_per_block: int = 256) -> None:
    """Apply every client's write stream directly to ``engine``.

    Clients are replayed in id order; within a client, op order is
    preserved.  Because each address has a single writer, the resulting
    per-address latest values are exactly what any interleaved service
    run converges to.
    """
    pending: List[Tuple[bytes, bytes]] = []
    height = max(engine.current_blk, engine.checkpoint_blk)

    def commit_pending() -> None:
        nonlocal height, pending
        if not pending:
            return
        height += 1
        engine.begin_block(height)
        engine.put_many(pending)
        engine.commit_block()
        pending = []

    for client_id in range(params.clients):
        for kind, addr, value in client_ops(params, client_id):
            if kind != "put":
                continue
            pending.append((addr, value))
            if len(pending) >= puts_per_block:
                commit_pending()
    commit_pending()


# =============================================================================
# running the load
# =============================================================================

#: How many distinct error messages a report keeps verbatim.
MAX_ERROR_SAMPLES = 5


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    clients: int
    ops: int = 0
    reads: int = 0
    writes: int = 0
    scans: int = 0
    #: MULTI_GET batches issued (each counts 1 op; its keys count as reads).
    mgets: int = 0
    #: key-value triples returned across all scans (scan "depth" served).
    scanned_entries: int = 0
    errors: int = 0
    #: error count per exception type name — a run that failed must say how.
    errors_by_type: dict = field(default_factory=dict)
    #: first few distinct error messages, verbatim.
    error_samples: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    # Latency distributions: the shared histogram type instead of raw
    # sample lists — O(1) per record, no per-report re-sorting, and the
    # same buckets the server's own metrics use.  ``len()`` / truthiness
    # still behave like the lists they replaced.
    latencies: LatencyHistogram = field(default_factory=LatencyHistogram)
    scan_latencies: LatencyHistogram = field(default_factory=LatencyHistogram)
    mget_latencies: LatencyHistogram = field(default_factory=LatencyHistogram)
    server_stats: dict = field(default_factory=dict)

    def record_ok(self, op: ClientOp, latency: float, result=None) -> None:
        """Count one completed op with its latency, by kind."""
        self.latencies.observe(latency)
        self.ops += 1
        kind = op[0]
        if kind == "get":
            self.reads += 1
        elif kind == "mget":
            self.mgets += 1
            self.reads += len(op[1])  # every key in the batch is a read
            self.mget_latencies.observe(latency)
        elif kind == "scan":
            self.scans += 1
            self.scan_latencies.observe(latency)
            if result is not None:
                self.scanned_entries += len(result)
        else:
            self.writes += 1

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
    def throughput(self) -> float:
        """Completed ops per second of wall clock."""
        return self.ops / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Read-cache hit rate reported by the server after the run."""
        return self.server_stats.get("cache", {}).get("hit_rate", 0.0)

    def to_dict(self) -> dict:
        """JSON-serializable summary (``repro loadgen --json``)."""
        return {
            "clients": self.clients,
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "scans": self.scans,
            "mgets": self.mgets,
            "scanned_entries": self.scanned_entries,
            "errors": self.errors,
            "errors_by_type": dict(self.errors_by_type),
            "error_samples": list(self.error_samples),
            "elapsed_s": self.elapsed_s,
            "ops_per_s": self.throughput,
            "p50_s": self.latencies.percentile(0.5),
            "p99_s": self.latencies.percentile(0.99),
            "scan_p50_s": self.scan_latencies.percentile(0.5),
            "scan_p99_s": self.scan_latencies.percentile(0.99),
            "mget_p50_s": self.mget_latencies.percentile(0.5),
            "mget_p99_s": self.mget_latencies.percentile(0.99),
            # Full bucketed distributions, not just two percentiles:
            # downstream tooling can merge or re-quantile them.
            "latency_buckets": self.latencies.to_dict(),
            "scan_latency_buckets": self.scan_latencies.to_dict(),
            "mget_latency_buckets": self.mget_latencies.to_dict(),
            "cache_hit_rate": self.cache_hit_rate,
            "server_stats": self.server_stats,
        }


async def _issue(client: KVClient, op: ClientOp):
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


async def run_loadgen(
    host: Optional[str],
    port: Optional[int],
    params: LoadgenParams,
    client_factory=None,
) -> LoadReport:
    """Drive the target with ``params.clients`` concurrent clients.

    ``client_factory`` (a zero-arg callable returning an *unconnected*
    :class:`~repro.server.client.KVClient`) decides the topology: the
    default connects to ``(host, port)``, and passing a factory built
    over :func:`~repro.server.client.connect` drives a replica set or a
    whole cluster through the exact same op streams — the generator
    never special-cases the client class.

    Finishes with a forced group commit (so the run's writes are
    committed) and a STATS snapshot attached to the report.
    """
    if client_factory is None:
        if host is None or port is None:
            raise ValueError("run_loadgen needs (host, port) or a client_factory")
        client_factory = lambda: connect((host, port))  # noqa: E731
    report = LoadReport(clients=params.clients)
    streams = [client_ops(params, cid) for cid in range(params.clients)]
    started = time.perf_counter()
    await asyncio.gather(
        *(_closed_worker(client_factory, stream, report) for stream in streams)
    )
    report.elapsed_s = time.perf_counter() - started
    async with client_factory() as control:
        try:
            await control.flush()
        except Referral:
            pass  # a replica target: its commits arrive via the stream
        report.server_stats = await control.stats()
    return report


def run_loadgen_sync(
    host: Optional[str],
    port: Optional[int],
    params: LoadgenParams,
    client_factory=None,
) -> LoadReport:
    """Blocking wrapper around :func:`run_loadgen` (CLI entry point)."""
    return asyncio.run(run_loadgen(host, port, params, client_factory))


def format_report(report: LoadReport) -> str:
    """Multi-line human-readable summary of one run."""
    from repro.bench.report import (
        format_rate,
        format_seconds,
        latency_columns,
    )

    ops_line = f"ops:             {report.ops} ({report.reads} reads, "
    if report.mgets:
        ops_line += f"{report.mgets} mget batches, "
    if report.scans:
        ops_line += f"{report.scans} scans, "
    ops_line += f"{report.writes} writes, {report.errors} errors)"
    lines = [
        f"clients:         {report.clients} (closed loop)",
        ops_line,
        f"elapsed:         {format_seconds(report.elapsed_s)}",
        f"throughput:      {format_rate(report.ops, report.elapsed_s)}",
    ]
    if report.errors:
        kinds = ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(report.errors_by_type.items())
        )
        lines.append(f"errors:          {report.errors} ({kinds})")
        for sample in report.error_samples:
            lines.append(f"  e.g. {sample}")

    def latency_line(label: str, hist: LatencyHistogram) -> str:
        # The shared percentile-column path of the figure benchmarks.
        p50, p99 = latency_columns(
            {
                "p50": hist.percentile(0.5),
                "p99": hist.percentile(0.99),
            },
            ["p50", "p99"],
        )
        return (
            f"{label}p50 {p50}  p99 {p99}  max {format_seconds(hist.max)}"
        )

    if report.latencies:
        lines.append(latency_line("latency:         ", report.latencies))
    if report.mget_latencies:
        lines.append(latency_line("mget latency:    ", report.mget_latencies))
    if report.scan_latencies:
        lines.append(latency_line("scan latency:    ", report.scan_latencies))
        lines.append(
            f"scanned entries: {report.scanned_entries} "
            f"({report.scanned_entries / report.scans:.1f} per scan)"
        )
    cache = report.server_stats.get("cache")
    if cache:
        lines.append(
            f"read cache:      {cache['hits']} hits / "
            f"{cache['hits'] + cache['misses']} lookups "
            f"({cache['hit_rate']:.1%})"
        )
    negative = report.server_stats.get("negative_cache")
    if negative and (negative["hits"] or negative["misses"]):
        lines.append(
            f"negative cache:  {negative['hits']} hits / "
            f"{negative['hits'] + negative['misses']} lookups "
            f"({negative['hit_rate']:.1%})"
        )
    batcher = report.server_stats.get("batcher")
    if batcher:
        lines.append(
            f"group commit:    {batcher['commits']} commits, "
            f"avg batch {batcher['avg_batch']:.1f} puts"
        )
    return "\n".join(lines)
