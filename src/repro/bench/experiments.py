"""Experiment drivers — one per table/figure of the paper's Section 8.

Section 8 is two experiment shapes — *engine x workload x height ->
(storage, TPS, latency)* and *engine x range / fanout -> (CPU, proof
size)* — plus the serving/sharding extensions.  Each ``run_*`` driver is
a sweep over a few shared **cells** (build an engine, load it, measure,
clean up), defined first; a driver only says which points it sweeps and
which columns it keeps.

Every driver returns a list of result rows (dictionaries) and can be run
at any scale; the defaults are sized for minutes, not hours, on a laptop
(the paper's 10^2..10^5 block sweep becomes 10^1..10^3 at 10 tx/block —
README.md's "Benchmarks and experiments" table maps every registered
name to its figure, driver, benchmark file and sweep parameters).
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import itertools
import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.bench.harness import (
    BENCH_CONTEXT,
    BENCH_SYSTEM,
    ENGINES,
    cleanup,
    fresh_dir,
    make_engine,
    run_chain,
)
from repro.bench.report import percentile
from repro.chain.contracts import KVStoreContract, SmallBankContract
from repro.chain.executor import ExecutionMetrics
from repro.cluster import plan_manifest
from repro.common.hashing import hash_bytes, hash_concat
from repro.common.params import ColeParams
from repro.core import Cole, verify_provenance
from repro.core.cursor import addr_successor
from repro.diskio.iostats import IOStats
from repro.server import (
    LoadgenParams,
    ServerClient,
    ServerConfig,
    ServerThread,
    connect,
    run_loadgen_sync,
)
from repro.server.loadgen import key_addr
from repro.sharding import shard_of
from repro.wal import WriteAheadLog
from repro.workloads import (
    Mix,
    ProvenanceWorkload,
    SmallBankWorkload,
    YCSBGenerator,
    YCSBWorkload,
)

Row = Dict[str, object]
Batch = List[Tuple[bytes, bytes]]

# Values no caller (benchmarks/, tests/, the CLI) has ever set differently;
# tests/test_experiments.py keeps them from regrowing into parameters.
SEED = 7
PROV_SEED = 11
TXS_PER_BLOCK = 10  # figs 9-15, table1, index-share
ADDR_SIZE = BENCH_SYSTEM.addr_size
VALUE_SIZE = BENCH_SYSTEM.value_size
TOP_ADDR = b"\xff" * ADDR_SIZE
#: Figs 14/15 shrink COLE's in-memory level so recent versions reach the
#: on-disk runs, as they do at the paper's 10^5-block scale.
PROV_MEM_CAPACITY = 64
FIG16_ADDRESSES = 4096
#: The served engine of fig17, fig18 and multi-get, and its group commit.
SERVED_SHARDS = 2
SERVED_CONFIG = ServerConfig(batch_max_puts=256, batch_max_delay=0.004)
SERVED_CLI_FLAGS = (
    "--batch-puts", str(SERVED_CONFIG.batch_max_puts),
    "--batch-delay-ms", str(SERVED_CONFIG.batch_max_delay * 1000),
)
FIG17_READ_FRACTION = 0.5
FIG18_READ_FRACTION = 0.1  # write-heavy: durability is a cost of writes
#: Preload geometry of the hot-path extensions.
MULTI_GET_PUTS_PER_BLOCK = 192
NEGATIVE_LOOKUP_BLOCKS, NEGATIVE_LOOKUP_PUTS_PER_BLOCK = 16, 128
HOTSET_CACHE_PAGES, HOTSET_KEYS, HOTSET_WARM_PASSES = 256, 64, 3
HOTSET_PUTS_PER_BLOCK = 128
#: Fig 22's skewed stream: 3/4 of the writes route to shard 0 of 4.
FIG22_SHARDS, FIG22_MEM_CAPACITY = 4, 64
FIG22_HOT_FRACTION, FIG22_KEYS = 0.75, 1024


# =============================================================================
# Shared cells
# =============================================================================

@contextmanager
def engine_cell(name: str, stats: Optional[IOStats] = None, **overrides):
    """A fresh engine in a fresh workspace, closed and deleted on exit."""
    directory = fresh_dir()
    backend = make_engine(name, directory, stats=stats, cole_overrides=overrides)
    try:
        yield backend
    finally:
        cleanup(backend, directory)


def _settle(backend) -> None:
    """Join background merges (COLE* and the sharded engine have them)."""
    if hasattr(backend, "wait_for_merges"):
        backend.wait_for_merges()


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 for a run too short to divide by."""
    return numerator / denominator if denominator else 0.0


def _workload(name: str, num_accounts: int):
    """The fig9/fig10 pair: SmallBank, or KVStore over twice the keys."""
    if name == "smallbank":
        return SmallBankWorkload(num_accounts=num_accounts, seed=SEED)
    return YCSBWorkload(num_keys=num_accounts * 2, seed=SEED)


class ChainCell(NamedTuple):
    """What one engine x workload x height cell measured."""

    backend: object
    metrics: ExecutionMetrics
    stats: IOStats
    write_io: int  # page IOs of the running phase, merges settled


@contextmanager
def chain_cell(engine: str, workload, blocks: int, mix: Mix = Mix.READ_WRITE,
               **overrides) -> Iterator[ChainCell]:
    """Load ``workload`` then run ``blocks`` blocks of it on one executor.

    ``workload`` is a :class:`SmallBankWorkload` (account set-up, then
    transactions) or a :class:`YCSBWorkload` (key load, then ``mix``).
    """
    stats = IOStats()
    count = blocks * TXS_PER_BLOCK
    with engine_cell(engine, stats=stats, **overrides) as backend:
        if isinstance(workload, SmallBankWorkload):
            load, stream = workload.setup_transactions(), workload.transactions(count)
        else:
            load, stream = workload.load_transactions(), workload.run_transactions(count, mix)
        executor, _ = run_chain(backend, load, TXS_PER_BLOCK)
        loaded = stats.snapshot()
        _, metrics = run_chain(backend, stream, TXS_PER_BLOCK, executor=executor)
        _settle(backend)
        yield ChainCell(backend, metrics, stats, stats.delta(loaded).total)


def prov_cell(engine: str, blocks: int, query_ranges: Sequence[int],
              queries_per_point: int, **overrides) -> List[Tuple[int, float, float]]:
    """``(range, mean CPU s, mean proof bytes)`` per range over one chain.

    Builds one provenance chain, then per range issues the queries and —
    for COLE, whose proofs the client checks — verifies each against the
    state root inside the timed region.
    """
    contract = KVStoreContract(BENCH_CONTEXT)
    workload = ProvenanceWorkload(num_base_keys=100, seed=PROV_SEED)
    points = []
    with engine_cell(engine, mem_capacity=PROV_MEM_CAPACITY, **overrides) as backend:
        executor, _ = run_chain(backend, workload.load_transactions(), TXS_PER_BLOCK)
        run_chain(
            backend, workload.update_transactions(blocks * TXS_PER_BLOCK),
            TXS_PER_BLOCK, record_latencies=False, executor=executor,
        )
        _settle(backend)
        state_root = backend.commit_block()
        for query_range in query_ranges:
            total_cpu = 0.0
            total_proof = 0
            for key, blk_low, blk_high in workload.queries(
                queries_per_point, executor.height, query_range
            ):
                addr = contract.key_addr(key)
                tick = time.perf_counter()
                result = backend.prov_query(addr, blk_low, blk_high)
                if isinstance(backend, Cole):
                    verify_provenance(result, state_root, addr_size=ADDR_SIZE)
                    proof_size = result.proof.size_bytes()
                else:
                    proof_size = result.proof_size_bytes()
                total_cpu += time.perf_counter() - tick
                total_proof += proof_size
            points.append(
                (query_range, total_cpu / queries_per_point, total_proof / queries_per_point)
            )
    return points


def pool_stream(num_addresses: int, blocks: int, puts_per_block: int,
                arrange: Callable = list) -> Tuple[List[bytes], List[Batch]]:
    """Seeded puts over a random-address pool: ``(pool, one batch per block)``.

    Pre-generated so a timer around the load measures the engine, not the
    generator.
    """
    rng = random.Random(SEED)
    pool = arrange(rng.randbytes(ADDR_SIZE) for _ in range(num_addresses))
    return pool, [
        [(rng.choice(pool), rng.randbytes(VALUE_SIZE)) for _ in range(puts_per_block)]
        for _ in range(blocks)
    ]


def rank_stream(num_keys: int, blocks: int, puts_per_block: int) -> List[Batch]:
    """Seeded puts over the YCSB key space ``key_addr(0..num_keys)``.

    Repeated updates of every key, so later reads pay real multi-level
    lookups.
    """
    rng = random.Random(SEED)
    return [
        [
            (key_addr(rng.randrange(num_keys), ADDR_SIZE), rng.randbytes(VALUE_SIZE))
            for _ in range(puts_per_block)
        ]
        for _ in range(blocks)
    ]


def load_stream(backend, stream: Sequence[Batch]) -> bytes:
    """Commit one block per batch; returns the last root (merges not joined)."""
    root = b""
    for blk, batch in enumerate(stream, 1):
        backend.begin_block(blk)
        backend.put_many(batch)
        root = backend.commit_block()
    return root


@contextmanager
def served(backend, config: Optional[ServerConfig] = None,
           wal_policy: Optional[str] = None) -> Iterator[ServerThread]:
    """``backend`` behind a :class:`ColeServer` on its own loop thread.

    With ``wal_policy`` a write-ahead log inside the (sharded) engine's
    workspace backs the acks; it is closed after the server.
    """
    wal = None
    if wal_policy is not None:
        wal = WriteAheadLog(
            os.path.join(backend.directory, "wal"), sync_policy=wal_policy
        )
    try:
        with ServerThread(backend, config=config or ServerConfig(), wal=wal) as thread:
            yield thread
    finally:
        if wal is not None:
            wal.close()


def drive(thread: ServerThread, **loadgen_fields):
    """Run the closed-loop load generator over real TCP; its LoadReport."""
    params = LoadgenParams(
        addr_size=ADDR_SIZE, value_size=VALUE_SIZE, seed=SEED, **loadgen_fields
    )
    return run_loadgen_sync(thread.server.host, thread.server.port, params)


def timed(loop: Callable[[], object]) -> float:
    """Wall seconds of ``loop()`` with the GC off (its pauses are noise
    at this timescale)."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        loop()
        return time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()


def best_of(repeats: int, points: Sequence, run_point: Callable[[object], Row],
            rate: str) -> List[Row]:
    """Run every point ``repeats`` times; keep each point's highest-``rate`` row.

    Sweeps are interleaved so background noise hits every point alike,
    and the *fastest* run per point is reported (the standard
    noise-robust estimator for wall-clock benchmarks).  A row's
    ``errors`` are summed over the repeats: an error in any one shows.
    """
    best: Dict[object, Row] = {}
    errors: Dict[object, int] = {}
    for _ in range(max(1, repeats)):
        for point in points:
            row = run_point(point)
            errors[point] = errors.get(point, 0) + int(row.get("errors", 0))
            if point not in best or row[rate] > best[point][rate]:
                best[point] = row
    for point, row in best.items():
        if "errors" in row:
            row["errors"] = errors[point]
    return [best[point] for point in points]


# =============================================================================
# Figures 9-13, Table 1: engine x workload x height
# =============================================================================

def run_overall_performance(
    workload_name: str = "smallbank",
    heights: Sequence[int] = (30, 100, 300, 1000),
    engines: Sequence[str] = ("mpt", "cole", "cole*", "lipp", "cmi"),
    num_accounts: int = 100,
) -> List[Row]:
    """Figure 9 (SmallBank) / Figure 10 (KVStore): storage + TPS series."""
    workload = _workload(workload_name, num_accounts)
    rows: List[Row] = []
    for engine, height in itertools.product(engines, heights):
        row: Row = {"engine": engine, "blocks": height, "storage_bytes": None,
                    "tps": None, "note": "did not finish (as in the paper)"}
        limit = ENGINES[engine].max_blocks
        if limit is None or height <= limit:
            with chain_cell(engine, workload, height) as cell:
                row.update(storage_bytes=cell.backend.storage_bytes(),
                           tps=cell.metrics.throughput_tps, note="")
        rows.append(row)
    return rows


def run_workload_mix(
    heights: Sequence[int] = (100, 300),
    engines: Sequence[str] = ("mpt", "cole", "cole*"),
    num_keys: int = 200,
) -> List[Row]:
    """Figure 11: KVStore throughput under RO / RW / WO mixes."""
    workload = YCSBWorkload(num_keys=num_keys, seed=SEED)
    rows: List[Row] = []
    for engine, height, mix in itertools.product(
        engines, heights, (Mix.READ_ONLY, Mix.READ_WRITE, Mix.WRITE_ONLY)
    ):
        with chain_cell(engine, workload, height, mix) as cell:
            rows.append({"engine": engine, "blocks": height, "mix": mix.value,
                         "tps": cell.metrics.throughput_tps})
    return rows


def run_latency(
    workload_name: str = "smallbank",
    heights: Sequence[int] = (300, 1000),
    engines: Sequence[str] = ("mpt", "cole", "cole*"),
    num_accounts: int = 100,
) -> List[Row]:
    """Figure 12: per-transaction latency distribution per engine."""
    workload = _workload(workload_name, num_accounts)
    rows: List[Row] = []
    for engine, height in itertools.product(engines, heights):
        with chain_cell(engine, workload, height) as cell:
            rows.append({"engine": engine, "blocks": height,
                         "median_s": cell.metrics.median_latency,
                         "p99_s": cell.metrics.latency_percentile(0.99),
                         "tail_s": cell.metrics.tail_latency})
    return rows


def run_size_ratio(
    size_ratios: Sequence[int] = (2, 4, 6, 8, 10, 12),
    blocks: int = 300,
    num_accounts: int = 100,
) -> List[Row]:
    """Figure 13: COLE / COLE* throughput and latency across T."""
    workload = _workload("smallbank", num_accounts)
    rows: List[Row] = []
    for engine, size_ratio in itertools.product(("cole", "cole*"), size_ratios):
        with chain_cell(engine, workload, blocks, size_ratio=size_ratio) as cell:
            rows.append({"engine": engine, "size_ratio": size_ratio,
                         "tps": cell.metrics.throughput_tps,
                         "median_s": cell.metrics.median_latency,
                         "tail_s": cell.metrics.tail_latency})
    return rows


def run_complexity_table(
    heights: Sequence[int] = (100, 300, 1000), num_accounts: int = 100
) -> List[Row]:
    """Table 1, measured: storage, write IO/tx, get IO, tail latency."""
    contract = SmallBankContract(BENCH_CONTEXT)
    workload = _workload("smallbank", num_accounts)
    get_count = 50
    rows: List[Row] = []
    for engine, height in itertools.product(("mpt", "cole", "cole*"), heights):
        with chain_cell(engine, workload, height) as cell:
            read_start = cell.stats.snapshot()
            for index in range(get_count):
                cell.backend.get(contract.checking_addr(f"acct{index % num_accounts}"))
            get_io = cell.stats.delta(read_start).total
            rows.append({"engine": engine, "blocks": height,
                         "storage_bytes": cell.backend.storage_bytes(),
                         "write_io_per_tx": cell.write_io / cell.metrics.transactions,
                         "get_io_per_query": get_io / get_count,
                         "tail_s": cell.metrics.tail_latency,
                         "median_s": cell.metrics.median_latency})
    return rows


def run_index_share(blocks: int = 300, num_accounts: int = 100) -> Row:
    """Section 1's preliminary claim: the index dominates MPT storage."""
    with chain_cell("mpt", _workload("smallbank", num_accounts), blocks) as cell:
        values, nodes = cell.backend.value_bytes_written, cell.backend.trie.node_bytes_written
        return {"value_bytes": values, "node_bytes": nodes, "data_share": values / nodes}


# =============================================================================
# Figures 14 & 15: provenance query performance
# =============================================================================

def run_provenance_range(
    query_ranges: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
    blocks: int = 300,
    engines: Sequence[str] = ("mpt", "cole", "cole*"),
    queries_per_point: int = 10,
) -> List[Row]:
    """Figure 14: provenance CPU time and proof size vs block range q.

    COLE's in-memory level is shrunk (B = 64) so recent versions reach
    the on-disk runs, as they do at the paper's 10^5-block scale.
    """
    return [
        {"engine": engine, "range": query_range, "cpu_s": cpu, "proof_bytes": proof}
        for engine in engines
        for query_range, cpu, proof in prov_cell(
            engine, blocks, query_ranges, queries_per_point
        )
    ]


def run_mht_fanout(
    fanouts: Sequence[int] = (2, 4, 8, 16, 32, 64),
    blocks: int = 300,
    query_range: int = 16,
    queries_per_point: int = 10,
) -> List[Row]:
    """Figure 15: provenance cost vs COLE's MHT fanout m (q = 16)."""
    return [
        {"engine": engine, "fanout": fanout, "cpu_s": cpu, "proof_bytes": proof}
        for engine, fanout in itertools.product(("cole", "cole*"), fanouts)
        for _, cpu, proof in prov_cell(
            engine, blocks, (query_range,), queries_per_point, mht_fanout=fanout
        )
    ]


# =============================================================================
# Figure 16 (extension): put throughput vs shard count
# =============================================================================

def run_sharding_scalability(
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    blocks: int = 200,
    puts_per_block: int = 512,
    repeats: int = 1,
) -> List[Row]:
    """Figure 16 (new): write throughput and storage vs shard count N.

    Feeds the identical put stream to a ``cole-shard`` engine at each N —
    each shard an independent COLE* instance sized like the single-node
    engine, as horizontal scale-out would provision it — and measures the
    blocking path: batched puts plus parallel block commits.  Measured on
    2 vCPUs, N = 1..8 land within noise of each other: the commit pool
    overlaps only the GIL-releasing file writes and fsyncs, so N shards
    do not out-write one.  The composite ``Hstate`` per N is recorded so
    determinism across repeated runs is checkable from the printed series.

    With ``repeats > 1`` each shard count is run that many times on fresh
    workspaces — sweeps interleaved so background noise hits every N
    alike — and the *fastest* run per N is reported (the standard
    noise-robust estimator for wall-clock benchmarks).
    """
    _, stream = pool_stream(FIG16_ADDRESSES, blocks, puts_per_block)
    total_puts = blocks * puts_per_block

    def run_point(num_shards: int) -> Row:
        with engine_cell("cole-shard", num_shards=num_shards) as backend:
            roots: List[bytes] = []
            elapsed = timed(lambda: roots.append(load_stream(backend, stream)))
            backend.wait_for_merges()
            return {"shards": num_shards, "puts": total_puts, "elapsed_s": elapsed,
                    "puts_per_s": _ratio(total_puts, elapsed),
                    "storage_bytes": backend.storage_bytes(),
                    "hstate": roots[0].hex()[:16]}

    return best_of(repeats, shard_counts, run_point, "puts_per_s")


# =============================================================================
# Figures 17 & 18 (extensions): the served engine under load
# =============================================================================

def run_service_throughput(
    client_counts: Sequence[int] = (1, 8, 32),
    ops_per_client: int = 200,
    num_keys: int = 1024,
) -> List[Row]:
    """Figure 17 (new): the serving layer under concurrent load.

    For each client count a fresh sharded engine is stood up behind a
    :class:`~repro.server.ColeServer` (on its own event-loop thread) and
    driven closed-loop with mixed YCSB read/write traffic over real TCP
    sockets.  Reported per point: completed ops/s, p50/p99 latency, the
    read-cache hit rate, and the group-commit batch size — the knobs the
    batching and caching design trades against each other.
    """
    rows: List[Row] = []
    for clients in client_counts:
        with engine_cell("cole-shard", num_shards=SERVED_SHARDS) as backend:
            with served(backend, SERVED_CONFIG) as thread:
                report = drive(
                    thread, clients=clients, ops_per_client=ops_per_client,
                    read_fraction=FIG17_READ_FRACTION, num_keys=num_keys,
                )
            backend.wait_for_merges()
            batcher = report.server_stats.get("batcher", {})
            rows.append({"clients": clients, "ops": report.ops,
                         "errors": report.errors, "ops_per_s": report.throughput,
                         "p50_s": percentile(report.latencies, 0.5),
                         "p99_s": percentile(report.latencies, 0.99),
                         "cache_hit_rate": report.cache_hit_rate,
                         "avg_batch": batcher.get("avg_batch", 0.0),
                         "commits": batcher.get("commits", 0),
                         "event_loop": "asyncio"})
    return rows


def run_durability(
    policies: Sequence[str] = ("off", "none", "batch", "always"),
    clients: int = 16,
    ops_per_client: int = 150,
    num_keys: int = 1024,
    repeats: int = 1,
) -> List[Row]:
    """Figure 18 (new): what durable acks cost, per fsync policy.

    The same write-heavy closed-loop workload drives a served sharded
    engine once per policy: ``off`` (no WAL — PR 2's volatile serving),
    ``none`` (records reach the OS page cache before the ack), ``batch``
    (acks wait for a group fsync; many acks amortize one fsync — the
    production default), and ``always`` (an fsync per ack — the strict
    floor).  Reported per point: throughput, p50/p99 latency, and the
    fsyncs-per-acked-put ratio that explains the ordering.  The headline
    claim is ``batch`` staying within ~2x of ``off`` while ``always``
    pays the full per-op fsync.

    ``repeats`` runs each policy that many times (interleaved, like the
    fig16 sweep) and keeps the best-throughput row per policy — scheduler
    and fsync-latency noise hits a single run hard.
    """

    def run_policy(policy: str) -> Row:
        with engine_cell("cole-shard", num_shards=SERVED_SHARDS) as backend:
            wal_policy = None if policy == "off" else policy
            with served(backend, SERVED_CONFIG, wal_policy) as thread:
                report = drive(
                    thread, clients=clients, ops_per_client=ops_per_client,
                    read_fraction=FIG18_READ_FRACTION, num_keys=num_keys,
                )
            backend.wait_for_merges()
            wal_stats = report.server_stats.get("wal", {})
            syncs = wal_stats.get("syncs", 0)
            return {"policy": policy, "ops": report.ops, "errors": report.errors,
                    "ops_per_s": report.throughput,
                    "p50_s": percentile(report.latencies, 0.5),
                    "p99_s": percentile(report.latencies, 0.99),
                    "wal_syncs": syncs,
                    "wal_mb": wal_stats.get("bytes_appended", 0) / 1e6,
                    "syncs_per_put": _ratio(syncs, wal_stats.get("puts_appended", 0))}

    return best_of(repeats, policies, run_policy, "ops_per_s")


# =============================================================================
# Figures 19 & 21 (extensions): subprocess clusters
# =============================================================================

def _cli_env() -> Dict[str, str]:
    """The environment under which ``python -m repro.cli`` finds this tree."""
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_cli_process(argv: Sequence[str], timeout_s: float = 60.0):
    """Start ``repro.cli`` in a subprocess and wait for its readiness line.

    Subprocesses (not threads) on purpose: scaling across servers is a
    claim about independent engines on independent cores, which the GIL
    would flatten inside one interpreter.  Both ``repro serve`` and
    ``repro cluster serve`` print the same ``serving ... on HOST:PORT``
    line once every port is bound; returns ``(proc, host, port)``.
    """
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_cli_env(),
    )
    lines: List[str] = []
    found: Dict[str, object] = {}
    ready = threading.Event()

    def pump() -> None:
        for line in proc.stdout:
            lines.append(line)
            match = re.search(r"serving .* on ([\d.]+):(\d+)", line)
            if match and "port" not in found:
                found["host"], found["port"] = match.group(1), int(match.group(2))
                ready.set()
        ready.set()  # EOF: unblock the waiter either way

    threading.Thread(target=pump, daemon=True).start()
    if not ready.wait(timeout=timeout_s) or "port" not in found:
        proc.kill()
        raise RuntimeError(f"server never came up:\n{''.join(lines)}")
    return proc, found["host"], found["port"]


@contextmanager
def process_cell() -> Iterator[Tuple[str, List[subprocess.Popen]]]:
    """A scratch directory and a list to register spawned servers in;
    on exit every registered process is stopped and the directory deleted."""
    base = fresh_dir()
    procs: List[subprocess.Popen] = []
    try:
        yield base, procs
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
        shutil.rmtree(base, ignore_errors=True)


def _payload(tag: int, index: int) -> bytes:
    """Deterministic value for the ``index``-th write of stream ``tag``."""
    head = hash_bytes(f"v:{tag}:{index}".encode())
    return (head + hash_bytes(head))[:VALUE_SIZE]


def _load_waves(num_keys: int, load_waves: int) -> List[Batch]:
    """The key space ``key_addr(0..num_keys)`` split into equal waves."""
    per_wave = (num_keys + load_waves - 1) // load_waves
    return [
        [
            (key_addr(rank, ADDR_SIZE), _payload(SEED, rank))
            for rank in range(wave * per_wave, min((wave + 1) * per_wave, num_keys))
        ]
        for wave in range(load_waves)
    ]


def run_read_scaling(
    replica_counts: Sequence[int] = (0, 1, 3),
    readers_per_node: int = 8,
    reads_per_reader: int = 400,
    num_keys: int = 2048,
    load_waves: int = 4,
) -> List[Row]:
    """Figure 19 (new): aggregate read throughput vs live replica count.

    For each replica count: one primary process (``repro serve --wal``)
    plus that many replica processes subscribe to its WAL stream; the
    key space is loaded in waves, and after each wave's group commit
    every replica is polled until it reaches the committed height and
    its ``ROOT`` digest is asserted **byte-identical** to the primary's
    — COLE's deterministic checkpoints make root equality the
    replication correctness oracle.  Then a read-only closed-loop load
    generator process saturates each serving node (primary included)
    **one node at a time**, and the aggregate reads/s is the sum of the
    per-node rates: each node is its own process with its own engine, so
    per-node capacity measured in isolation is what a deployment with
    one node per machine aggregates — while driving all nodes at once on
    a small shared CI host would only measure that host's core budget.

    Reported per point: nodes, aggregate reads/s, the slowest node's
    rate, the number of height/root equality checks that passed, and the
    maximum replica lag observed while loading.
    """
    waves = _load_waves(num_keys, load_waves)

    def serve(workspace: str, *flags: str) -> Tuple[subprocess.Popen, Tuple[str, int]]:
        proc, host, port = _spawn_cli_process(["serve", workspace, "--port", "0", *flags])
        return proc, (host, port)

    async def load_and_verify(endpoints) -> Tuple[int, int]:
        roots_checked = max_lag = 0
        async with ServerClient(*endpoints[0]) as writer:
            for batch in waves:
                for addr, value in batch:
                    await writer.put(addr, value)
                info = await writer.flush()
                for rhost, rport in endpoints[1:]:
                    async with ServerClient(rhost, rport) as reader:
                        for _ in range(600):
                            lag = info.height - (await reader.root()).height
                            max_lag = max(max_lag, lag)
                            if lag <= 0:
                                break
                            await asyncio.sleep(0.02)
                        rinfo = await reader.root()
                    if rinfo.height != info.height:
                        raise RuntimeError(
                            f"replica {rhost}:{rport} stuck at "
                            f"height {rinfo.height} < {info.height}"
                        )
                    if rinfo.digest != info.digest:
                        raise RuntimeError(f"root mismatch at height {info.height}")
                    roots_checked += 1
        return roots_checked, max_lag

    def saturate(index: int, host: str, port: int) -> dict:
        """One read-only ``repro loadgen --json`` process against one node."""
        run = subprocess.run(
            [
                sys.executable, "-u", "-m", "repro.cli", "loadgen",
                "--host", host, "--port", str(port),
                "--clients", str(readers_per_node), "--ops", str(reads_per_reader),
                "--read-fraction", "1.0", "--num-keys", str(num_keys),
                "--seed", str(SEED + index), "--json",
            ],
            capture_output=True, text=True, env=_cli_env(), timeout=300,
        )
        if run.returncode != 0:
            raise RuntimeError(
                f"loadgen failed (rc={run.returncode}):\n{run.stdout}\n{run.stderr}"
            )
        return json.loads(run.stdout)

    rows: List[Row] = []
    for replicas in replica_counts:
        with process_cell() as (base, procs):
            proc, primary = serve(f"{base}/primary", "--wal", *SERVED_CLI_FLAGS)
            procs.append(proc)
            endpoints = [primary]
            for index in range(replicas):
                proc, endpoint = serve(
                    f"{base}/replica-{index}", "--replica-of", "%s:%d" % primary
                )
                procs.append(proc)
                endpoints.append(endpoint)
            roots_checked, max_lag = asyncio.run(load_and_verify(endpoints))
            # Saturate one node at a time (see docstring); the aggregate
            # is the sum of isolated per-node rates.
            reports = [saturate(index, *endpoint) for index, endpoint in enumerate(endpoints)]
            per_node = [report["ops_per_s"] for report in reports]
            rows.append({"replicas": replicas, "nodes": len(endpoints),
                         "reads": sum(report["ops"] for report in reports),
                         "agg_reads_per_s": sum(per_node),
                         "reads_per_s_per_node": min(per_node),
                         "roots_checked": roots_checked,
                         "max_lag_blocks": max_lag})
    return rows


def _free_ports(count: int) -> List[int]:
    """``count`` currently-free TCP ports, all distinct.

    Held open simultaneously while probing so the OS cannot hand the
    same port out twice; a server binding one immediately after is the
    usual (benign) probe race every ephemeral-port harness accepts.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def run_cluster_scaling(
    node_counts: Sequence[int] = (1, 4),
    writers_per_node: int = 8,
    writes_per_writer: int = 400,
    num_keys: int = 2048,
    load_waves: int = 4,
) -> List[Row]:
    """Figure 21 (new): aggregate write throughput vs cluster node count.

    For each N: an N-node cluster (one shard per node, one ``repro
    cluster serve`` *process* per node) is initialised from a manifest
    and loaded through the manifest-routed :func:`repro.server.connect`
    client in deterministic waves — one ``multi_put`` + ``flush`` per
    wave, so every shard commits exactly one block per wave.  The
    cluster's composite ``ROOT`` is then asserted **byte-identical** to
    an in-process oracle: one local :class:`~repro.core.Cole` per shard
    fed exactly that shard's share of each wave (the same crc32 routing)
    and committed on the same block boundaries.  COLE's commit
    checkpoints are deterministic functions of the per-shard put stream,
    so the served cluster must agree with the oracle digest-for-digest
    or it lost or misrouted a write.

    **Measurement model** (the fig19 idiom): a closed-loop writer cohort
    then saturates each shard server **one node at a time**, using only
    keys that shard owns, and the aggregate writes/s is the sum of the
    isolated per-node rates — each node is its own process with its own
    engine and WAL, so per-node capacity measured in isolation is what a
    one-node-per-machine deployment aggregates, while driving all nodes
    at once on a small shared CI host would only measure that host's
    core budget.
    """
    waves = _load_waves(num_keys, load_waves)
    writes_per_node = writers_per_node * writes_per_writer

    async def load_cluster(manifest_path: str):
        async with connect(manifest_file=manifest_path) as client:
            for batch in waves:
                await client.multi_put(batch)
                # Explicit group commit: the wave is one block on
                # every shard, matching the oracle's boundaries.
                await client.flush()
            return await client.root()

    def oracle_digest(base: str, manifest, shard_id: int) -> bytes:
        oracle = Cole(
            f"{base}/oracle-{shard_id}", ColeParams(async_merge=True, mem_capacity=512)
        )
        try:
            # A shard commits no block for a wave that routed it nothing.
            load_stream(oracle, [
                bucket for batch in waves
                if (bucket := [put for put in batch
                               if manifest.shard_for(put[0]) == shard_id])
            ])
            return oracle.root_digest()
        finally:
            oracle.close()

    async def saturate(address: str, keys: List[bytes]) -> float:
        async with connect(address) as client:
            async def writer(writer_id: int) -> None:
                for index in range(writes_per_writer):
                    rank = (writer_id * writes_per_writer + index) % len(keys)
                    await client.put(keys[rank], _payload(SEED + 1, index))

            start = time.perf_counter()
            await asyncio.gather(*(writer(w) for w in range(writers_per_node)))
            return writes_per_node / (time.perf_counter() - start)

    rows: List[Row] = []
    for nodes in node_counts:
        with process_cell() as (base, procs):
            ports = _free_ports(2 * nodes)
            manifest = plan_manifest(nodes, nodes).with_addresses(
                {shard: f"127.0.0.1:{ports[2 * shard]}" for shard in range(nodes)}
            )
            for index in range(nodes):
                manifest = manifest.with_control(
                    f"node-{index}", f"127.0.0.1:{ports[2 * index + 1]}"
                )
            manifest_path = f"{base}/manifest.json"
            manifest.save(manifest_path)
            for index in range(nodes):
                proc, _, _ = _spawn_cli_process([
                    "cluster", "serve", f"{base}/node-{index}",
                    "--node", f"node-{index}", "-m", manifest_path, *SERVED_CLI_FLAGS,
                ])
                procs.append(proc)

            # Deterministic wave load + composite-root oracle.
            cluster_root = bytes(asyncio.run(load_cluster(manifest_path)).digest)
            oracle_root = bytes(hash_concat(
                [oracle_digest(base, manifest, shard) for shard in range(nodes)]
            ))
            if cluster_root != oracle_root:
                raise RuntimeError(
                    f"cluster root {cluster_root.hex()} != "
                    f"oracle root {oracle_root.hex()} at {nodes} nodes"
                )

            # Saturate one shard server at a time with keys it owns (see
            # docstring); the aggregate is the sum of isolated rates.
            owned: Dict[int, List[bytes]] = {shard: [] for shard in range(nodes)}
            for rank in range(num_keys):
                addr = key_addr(rank, ADDR_SIZE)
                owned[manifest.shard_for(addr)].append(addr)
            per_node = [
                asyncio.run(saturate(manifest.address_of(shard), owned[shard]))
                for shard in range(nodes)
            ]
            rows.append({"nodes": nodes, "shards": nodes,
                         "writes": nodes * writes_per_node,
                         "agg_writes_per_s": sum(per_node),
                         "writes_per_s_per_node": min(per_node),
                         "root": cluster_root.hex()[:16],
                         "oracle_match": True})
    return rows


# =============================================================================
# Figure 20 (extension): key-ordered range-scan throughput (YCSB-E)
# =============================================================================

def scan_page_size(limit: int, num_shards: int) -> int:
    """The modelled coordinator's adaptive per-shard page for a scan of
    ``limit`` results: each shard's expected share plus slack, refilled
    by continuation when the merge drains a shard early."""
    return max(8, -(-limit // num_shards) + 4)


def _deployment_scan_seconds(backend, starts: Sequence[Tuple[bytes, int]]) -> float:
    """Seconds a one-shard-per-machine deployment spends on ``starts``.

    The deployment is a *model*: a scatter-gather coordinator asking each
    shard for an adaptive page (:func:`scan_page_size`) and refilling by
    continuation.  No code path in the tree issues that pattern —
    ``ShardedCole.scan`` is one merged cursor, and
    ``ClusterClient.scan`` asks every shard for the full ``limit``.
    First TRACE, untimed, the exact request sequence the coordinator
    would issue per shard — the first page AND every continuation refill
    the lazy merge triggers — then replay each shard's trace in isolation
    (fig19's argument) and charge the slowest shard plus the full
    coordinator merge.  Timing first pages only would undercharge shards
    whose share of a scan overflows the page.
    """
    shards = backend.shards
    requests: List[List[tuple]] = [[] for _ in shards]
    scan_parts: List[List[list]] = []

    def traced(shard, sink, start, page):
        batch = shard.scan(start, TOP_ADDR, limit=page)
        sink.append((start, page))
        while True:
            yield from batch
            if len(batch) < page:
                return
            next_low = addr_successor(batch[-1][0])
            if next_low is None:
                return
            batch = shard.scan(next_low, TOP_ADDR, limit=page)
            sink.append((next_low, page))

    def tag(gen, index):
        for triple in gen:
            yield triple, index

    for start, scan_len in starts:
        page = scan_page_size(scan_len, len(shards))
        parts: List[list] = [[] for _ in shards]
        tagged = [
            tag(traced(shard, requests[index], start, page), index)
            for index, shard in enumerate(shards)
        ]
        # Drain through the coordinator's lazy merge; keep each shard's
        # pulled stream for the merge replay.
        for triple, index in itertools.islice(
            heapq.merge(*tagged, key=lambda t: t[0][0]), scan_len
        ):
            parts[index].append(triple)
        scan_parts.append(parts)

    def shard_loop(index: int) -> None:
        for start, page in requests[index]:
            shards[index].scan(start, TOP_ADDR, limit=page)

    def merge_loop() -> None:
        for (_, scan_len), parts in zip(starts, scan_parts):
            list(itertools.islice(heapq.merge(*parts, key=itemgetter(0)), scan_len))

    slowest = max(timed(lambda: shard_loop(index)) for index in range(len(shards)))
    return slowest + timed(merge_loop)


def run_scan_throughput(
    shard_counts: Sequence[int] = (1, 4),
    scan_lengths: Sequence[int] = (8, 32, 128),
    num_addresses: int = 2048,
    blocks: int = 96,
    puts_per_block: int = 256,
    scans_per_point: int = 200,
    repeats: int = 1,
) -> List[Row]:
    """Figure 20 (new): scan throughput vs scan length, sharded vs single.

    One deterministic multi-version data set (every address updated
    repeatedly across ``blocks`` committed blocks) is loaded into a
    ``cole-shard`` engine at each shard count; then, per scan length
    ``L``, ``scans_per_point`` key-ordered scans of ``limit=L`` are
    issued from zipfian-popular start addresses (the YCSB workload E
    shape, via :class:`~repro.workloads.YCSBGenerator`).

    **Measurement model.**  ``scans_per_s`` for N > 1 is the rate of a
    *modelled* scale-out deployment, measured the way fig19 measures
    replicas: shards are independent engines a deployment places one per
    machine, so each shard serves its share of every scan — the adaptive
    page a scatter-gather coordinator would ask for (:func:`scan_page_size`,
    ``ceil(L/N)`` plus slack, refilled by continuation) — and is timed
    **in isolation**; a logical scan completes when its slowest shard
    finishes, so the deployment rate is the slowest shard's rate, plus
    the coordinator's k-way merge (timed separately and charged in
    full).  No code path in the tree issues that request pattern:
    ``ShardedCole.scan`` is one merged cursor and ``ClusterClient.scan``
    asks every shard for the full ``limit``.  Driving all shards inside
    this one interpreter would measure the GIL, not the design — hash
    partitioning multiplies per-scan *seek count* by N, and the win is
    that the N seek sets run on N machines.  ``merged_scans_per_s`` is
    the in-process ``ShardedCole.scan`` rate — one merged cursor over
    every shard's sources on the caller's thread — reported for
    transparency: it pays N shards' seeks serially.

    Every engine's scan results are first verified byte-identical to a
    brute-force in-memory model (latest *and* a historical ``at_blk``
    snapshot), so the timed loops are known to measure correct scans.
    Sweeps are interleaved across engines and the best of ``repeats``
    runs per point is kept, like the fig16/fig18 sweeps.
    """
    # One deterministic write stream for every engine: multi-version
    # history (model[addr] -> {blk: value}) for at_blk verification.
    pool, stream = pool_stream(num_addresses, blocks, puts_per_block, arrange=sorted)
    model: Dict[bytes, Dict[int, bytes]] = {}
    for blk, batch in enumerate(stream, 1):
        for addr, value in batch:
            model.setdefault(addr, {})[blk] = value

    def brute_force(addr_low, at_blk, limit):
        out = []
        for addr in pool:
            versions = [b for b in model.get(addr, {}) if b <= at_blk]
            if addr < addr_low or not versions:
                continue
            blk = max(versions)
            out.append((addr, blk, model[addr][blk]))
            if len(out) >= limit:
                break
        return out

    def scan_starts(length: int) -> List[Tuple[bytes, int]]:
        generator = YCSBGenerator(
            "E", num_keys=num_addresses, seed=SEED, max_scan_length=length
        )
        return [
            (pool[rank], scan_len)
            for kind, rank, scan_len in generator.ops(scans_per_point * 3)
            if kind == "scan"
        ][:scans_per_point]

    with ExitStack() as stack:
        engines = {}
        for num_shards in shard_counts:
            backend = stack.enter_context(engine_cell("cole-shard", num_shards=num_shards))
            load_stream(backend, stream)
            backend.wait_for_merges()
            # Correctness gate before timing: latest and historical
            # scans must match the brute-force model exactly.
            for start in (pool[0], pool[len(pool) // 2]):
                for at_blk in (None, blocks // 2):
                    got = backend.scan(start, TOP_ADDR, at_blk=at_blk, limit=64)
                    assert got == brute_force(start, at_blk or blocks, 64), (
                        f"scan mismatch at N={num_shards}, at_blk={at_blk}"
                    )
            engines[num_shards] = backend

        def run_point(point: Tuple[int, int]) -> Row:
            num_shards, length = point
            backend = engines[num_shards]
            starts = scan_starts(length)
            # The single-interpreter rate: the full scan for N=1, the
            # in-process cross-shard merge for N>1.
            merged: List[list] = []
            merged_elapsed = timed(lambda: merged.extend(
                backend.scan(start, TOP_ADDR, limit=scan_len) for start, scan_len in starts
            ))
            entries = sum(len(result) for result in merged)
            deploy_elapsed = (
                merged_elapsed if num_shards == 1
                else _deployment_scan_seconds(backend, starts)
            )
            return {"shards": num_shards, "scan_len": length,
                    "scans": scans_per_point, "entries": entries,
                    "scans_per_s": _ratio(scans_per_point, deploy_elapsed),
                    "entries_per_s": _ratio(entries, deploy_elapsed),
                    "merged_scans_per_s": _ratio(scans_per_point, merged_elapsed)}

        points = list(itertools.product(shard_counts, scan_lengths))
        return best_of(repeats, points, run_point, "scans_per_s")


# =============================================================================
# Hot-path extensions: batched reads, negative lookups, scan-aware caching
# =============================================================================

def run_multi_get(
    batch_sizes: Sequence[int] = (1, 16),
    clients: int = 4,
    ops_per_client: int = 100,
    num_keys: int = 2048,
    blocks: int = 24,
) -> List[Row]:
    """MULTI_GET amortization: keys served per second vs batch size.

    One preloaded sharded engine is served once per batch size (a fresh
    server each time, so the versioned read cache starts cold at every
    point) and driven with a read-only closed-loop workload.  Batch size
    1 issues plain GETs; larger sizes issue the same zipfian key stream
    as MULTI_GET frames — one round trip, one gate acquisition, and one
    source walk per batch instead of per key.  ``speedup`` is each
    point's keys/s over the batch-1 point; ``tests/test_experiments.py``
    holds the batch-16 speedup at 2x or more.
    """
    rows: List[Row] = []
    with engine_cell("cole-shard", num_shards=SERVED_SHARDS) as backend:
        load_stream(backend, rank_stream(num_keys, blocks, MULTI_GET_PUTS_PER_BLOCK))
        backend.wait_for_merges()
        for batch_size in batch_sizes:
            with served(backend) as thread:
                report = drive(
                    thread, clients=clients, ops_per_client=ops_per_client,
                    read_fraction=1.0, num_keys=num_keys, multi_get_size=batch_size,
                )
            if report.errors:
                raise RuntimeError(
                    f"multi-get bench errored at batch {batch_size}: "
                    f"{report.error_samples}"
                )
            keys_per_s = report.reads / report.elapsed_s
            base_keys_per_s = rows[0]["keys_per_s"] if rows else keys_per_s
            samples = report.mget_latencies or report.latencies
            rows.append({"batch": batch_size, "keys": report.reads,
                         "keys_per_s": keys_per_s,
                         "p50_s": percentile(samples, 0.5),
                         "p99_s": percentile(samples, 0.99),
                         "speedup": keys_per_s / base_keys_per_s})
    return rows


def run_negative_lookup(
    absent_keys: int = 64, passes: int = 30, num_keys: int = 1024
) -> List[Row]:
    """What the negative-lookup cache saves on repeated misses.

    A preloaded engine is served twice over the same absent-address GET
    stream: once with the negative cache disabled (every miss pays the
    full bloom-filtered source walk — the cold-miss baseline) and once
    enabled (the first miss per address pays the walk, the rest hit the
    cache).  ``speedup`` is the enabled ops/s over the baseline;
    ``tests/test_experiments.py`` pins ``hit_rate`` at its smoke scale
    (0.0 uncached, 20/21 cached).
    """
    # Addresses no contract ever writes: every GET is a true miss.
    absent = [
        hash_bytes(f"absent:{index}".encode())[:ADDR_SIZE] for index in range(absent_keys)
    ]
    ops = passes * len(absent)

    async def hammer(host: str, port: int) -> Row:
        async with ServerClient(host, port) as client:
            for addr in absent:  # warm-up pass (uncounted)
                assert await client.get(addr) is None
            started = time.perf_counter()
            for _ in range(passes):
                for addr in absent:
                    await client.get(addr)
            elapsed = time.perf_counter() - started
            stats = await client.stats()
        return {"ops": ops, "ops_per_s": ops / elapsed,
                "hit_rate": stats["negative_cache"]["hit_rate"]}

    with engine_cell("cole") as backend:
        load_stream(backend, rank_stream(
            num_keys, NEGATIVE_LOOKUP_BLOCKS, NEGATIVE_LOOKUP_PUTS_PER_BLOCK
        ))
        backend.wait_for_merges()
        measured = []
        for capacity in (0, 4096):
            with served(backend, ServerConfig(negative_cache_capacity=capacity)) as thread:
                measured.append(asyncio.run(hammer(thread.server.host, thread.server.port)))
    baseline, cached = measured
    return [
        {"config": "no-cache", "speedup": 1.0, **baseline},
        {"config": "negative-cache",
         "speedup": cached["ops_per_s"] / baseline["ops_per_s"], **cached},
    ]


def run_scan_vs_hotset(num_keys: int = 1024, blocks: int = 32) -> List[Row]:
    """Scan resistance of the segmented page cache.

    With the per-run value-file cache enabled, a hot set of point-read
    addresses is warmed until its pages sit in the protected segment;
    the hot-set GET hit rate is measured, then a full-range scan floods
    the cache with sequential-tagged pages, and the hot-set hit rate is
    measured again.  ``hit_ratio`` (after / before) stays near 1 when
    the scan cannot evict the protected segment —
    ``tests/test_experiments.py`` pins both rates and the ratio at 1.0.
    """
    stats = IOStats()
    hot = [key_addr(rank, ADDR_SIZE) for rank in range(HOTSET_KEYS)]
    with engine_cell("cole", stats=stats, value_cache_pages=HOTSET_CACHE_PAGES) as backend:
        load_stream(backend, rank_stream(num_keys, blocks, HOTSET_PUTS_PER_BLOCK))
        backend.wait_for_merges()

        def hot_pass() -> None:
            for addr in hot:
                backend.get(addr)

        def measured_hit_rate() -> float:
            before = stats.snapshot()
            hot_pass()
            delta = stats.delta(before)
            hits = sum(delta.cache_hits.values())
            return _ratio(hits, hits + sum(delta.cache_misses.values()))

        for _ in range(HOTSET_WARM_PASSES):
            hot_pass()  # promote the hot pages into the protected segment
        rate_before = measured_hit_rate()
        scanned = backend.scan(b"\x00" * ADDR_SIZE, TOP_ADDR, limit=num_keys)
        rate_after = measured_hit_rate()
    return [{"cache_pages": HOTSET_CACHE_PAGES, "hot_keys": HOTSET_KEYS,
             "scanned": len(scanned), "hit_rate_before": rate_before,
             "hit_rate_after": rate_after,
             "hit_ratio": _ratio(rate_after, rate_before)}]


# =============================================================================
# Figure 22 (extension): compaction policy — leveling vs tiering
# =============================================================================

def run_compaction_policies(
    size_ratios: Sequence[int] = (2, 4, 8),
    blocks: int = 160,
    puts_per_block: int = 24,
    reads: int = 200,
) -> List[Row]:
    """Figure 22 (new): write amplification under leveling vs tiering.

    The sharded engine's coordinated cascades are where the two policies
    diverge: a shard-skewed put stream (``FIG22_HOT_FRACTION`` of writes
    route to shard 0) makes the hot shard's L0 fill first, and every
    cascade it triggers force-flushes the cold shards' *under-full* L0s
    too.  Leveling then merges those slim runs into L1 on every arrival
    once the group holds T runs; tiering lets them pile up until the
    level's entry capacity (B·T^l) genuinely overflows, trading read
    fanout for far fewer rewritten bytes.  Per cell: the engine's own
    ``compaction_stats`` byte counters, write amplification, point-read
    latency over the hot/cold mix, and a full content check of sampled
    addresses against an in-memory model (both policies must serve
    byte-identical state — only the file layout may differ).
    """

    def value_for(addr: bytes, blk: int) -> bytes:
        digest = hash_bytes(addr + blk.to_bytes(8, "big"))
        return digest[:VALUE_SIZE].ljust(VALUE_SIZE, b"\x00")

    # One deterministic, shard-skewed put stream shared by every cell so
    # the policies see byte-identical writes.
    rng = random.Random(SEED)
    pool = [key_addr(index, ADDR_SIZE) for index in range(FIG22_KEYS)]
    hot = [addr for addr in pool if shard_of(addr, FIG22_SHARDS) == 0]
    cold = [addr for addr in pool if shard_of(addr, FIG22_SHARDS) != 0]
    stream: List[Batch] = []
    model: Dict[bytes, bytes] = {}
    for blk in range(1, blocks + 1):
        writes: Dict[bytes, bytes] = {}
        for _ in range(puts_per_block):
            source = hot if rng.random() < FIG22_HOT_FRACTION else cold
            addr = source[rng.randrange(len(source))]
            writes[addr] = value_for(addr, blk)
        stream.append(sorted(writes.items()))  # canonical per-block order
        model.update(writes)
    sample = rng.sample(sorted(model), min(reads, len(model)))

    rows: List[Row] = []
    for size_ratio, policy in itertools.product(size_ratios, ("leveling", "tiering")):
        with engine_cell(
            "cole-shard", num_shards=FIG22_SHARDS, mem_capacity=FIG22_MEM_CAPACITY,
            size_ratio=size_ratio, compaction=policy,
        ) as backend:
            started = time.perf_counter()
            load_stream(backend, stream)
            backend.wait_for_merges()
            load_s = time.perf_counter() - started
            mismatches = sum(1 for addr in sample if backend.get(addr) != model[addr])
            latencies: List[float] = []
            for addr in sample:
                t0 = time.perf_counter()
                backend.get(addr)
                latencies.append(time.perf_counter() - t0)
            stats = backend.compaction_stats()
            rows.append({"policy": policy, "size_ratio": size_ratio,
                         "bytes_flushed": stats["bytes_flushed"],
                         "bytes_rewritten": stats["bytes_rewritten"],
                         "write_amp": stats["write_amp"],
                         "disk_runs": sum(lvl["runs"] for lvl in stats["levels"].values()),
                         "puts_per_s": (blocks * puts_per_block) / load_s,
                         "get_p50_us": percentile(latencies, 0.5) * 1e6,
                         "get_p99_us": percentile(latencies, 0.99) * 1e6,
                         "content_mismatches": mismatches,
                         "root": backend.root_digest().hex()[:16]})
    return rows
