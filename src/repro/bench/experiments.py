"""Experiment drivers for the tables and figures of the paper's Section 8.

Section 8 is two experiment shapes — *engine x workload x height ->
(storage, TPS, latency)* and *engine x range / fanout -> (CPU, proof
size)* — plus the serving, durability, replication and scan extensions.
Each ``run_*`` driver is a sweep over a few shared **cells** (build an
engine, load it, measure, clean up), defined first; every point of a
sweep measures every column.

An experiment is a **selection and a projection** over one driver's
rows: :data:`EXPERIMENTS` names every experiment, the driver arguments
that select its points and the columns it keeps.  Figs 9-13, Table 1 and
the index share are one chain sweep, figs 14-15 one provenance sweep,
figs 17-18 one served sweep and fig 19 the process sweep.  Every
driver returns a list of result rows (dictionaries) and can be run at
any scale; an experiment's registered arguments over its driver's
defaults are its one **figure scale**, sized for minutes, not hours, on
a laptop (the paper's 10^2..10^5 block sweep becomes 10^1..10^3 at 10
tx/block).  ``repro experiment NAME`` and ``benchmarks/bench_figures.py``
both run :func:`run_experiment` ``(NAME)``, so the command runs exactly
the experiment whose claims (:mod:`repro.bench.claims`) the benchmark
asserts.  README.md's "Benchmarks and experiments" table maps every name
to its figure, driver and sweep parameters.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.bench.harness import (
    BENCH_COLE_PARAMS,
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
from repro.common.hashing import hash_bytes
from repro.common.params import ColeParams
from repro.core import Cole, verify_provenance
from repro.diskio.iostats import IOStats
from repro.server import (
    LoadgenParams,
    ServerConfig,
    ServerThread,
    client_ops,
    connect,
    run_loadgen,
)
from repro.server.loadgen import ClientOp, key_addr, run_streams, write_value
from repro.wal.log import WAL_DIR_NAME, WriteAheadLog
from repro.workloads import Mix, ProvenanceWorkload, SmallBankWorkload, YCSBWorkload
from repro.workloads.ycsb import ZipfGenerator

Row = Dict[str, object]
Batch = List[Tuple[bytes, bytes]]

# Values no caller (benchmarks/, tests/, the CLI) has ever set differently;
# tests/test_experiments.py keeps them from regrowing into parameters.
SEED = 7
PROV_SEED = 11
TXS_PER_BLOCK = 10  # figs 9-15, table1, index-share
#: Point reads of the workload's own keys a chain cell issues last
#: (Table 1's get IO).
CHAIN_GETS = 50
#: What a chain cell measures; all ``None`` on a "did not finish" row.
CHAIN_MEASURES = ("storage_bytes", "tps", "median_s", "p99_s", "tail_s",
                  "write_io_per_tx", "get_io_per_query",
                  "value_bytes", "node_bytes", "data_share")
ADDR_SIZE = BENCH_SYSTEM.addr_size
VALUE_SIZE = BENCH_SYSTEM.value_size
TOP_ADDR = b"\xff" * ADDR_SIZE
#: Figs 14/15 shrink COLE's in-memory level so recent versions reach the
#: on-disk runs, as they do at the paper's 10^5-block scale.
PROV_MEM_CAPACITY = 64
#: The group commit of the served engine of fig17, fig18 and multi-get.
SERVED_CONFIG = ServerConfig(batch_max_puts=256, batch_max_delay=0.004)
SERVED_CLI_FLAGS = (
    "--batch-puts", str(SERVED_CONFIG.batch_max_puts),
    "--batch-delay-ms", str(SERVED_CONFIG.batch_max_delay * 1000),
)
#: Preload geometry of the hot-path extensions.
MULTI_GET_PUTS_PER_BLOCK = 192
NEGATIVE_LOOKUP_BLOCKS, NEGATIVE_LOOKUP_PUTS_PER_BLOCK = 16, 128


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
    """Join background merges (COLE* has them)."""
    if hasattr(backend, "wait_for_merges"):
        backend.wait_for_merges()


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 for a run too short to divide by."""
    return numerator / denominator if denominator else 0.0


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
           policy: str = "off") -> Iterator[ServerThread]:
    """``backend`` behind a :class:`ColeServer` on its own loop thread.

    Unless ``policy`` is ``off``, a write-ahead log with that fsync
    policy inside the engine's workspace backs the acks; it is
    closed after the server.
    """
    with ExitStack() as stack:
        wal = None if policy == "off" else stack.enter_context(
            WriteAheadLog(os.path.join(backend.workspace.root, WAL_DIR_NAME), sync_policy=policy)
        )
        yield stack.enter_context(ServerThread(backend, config=config or ServerConfig(), wal=wal))


def drive(thread: ServerThread, **loadgen_fields):
    """Run the closed-loop load generator over real TCP; its LoadReport."""
    params = LoadgenParams(
        addr_size=ADDR_SIZE, value_size=VALUE_SIZE, seed=SEED, **loadgen_fields
    )
    address = (thread.server.host, thread.server.port)
    return asyncio.run(run_loadgen(lambda: connect(address), params))


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
# Figures 9-13, Table 1, index share: engine x height x mix x size ratio
# =============================================================================

def run_chain_sweep(
    workload_name: str = "smallbank",
    heights: Sequence[int] = (30, 100, 300),
    engines: Sequence[str] = ("mpt", "cole", "cole*", "lipp", "cmi"),
    mixes: Sequence[str] = (Mix.READ_WRITE.value,),
    size_ratios: Sequence[int] = (BENCH_COLE_PARAMS.size_ratio,),
    num_accounts: int = 200,
) -> List[Row]:
    """Figures 9-13, Table 1 and Section 1's index share: one chain per
    engine x height x mix x size ratio T.

    A cell loads the workload — SmallBank over ``num_accounts`` accounts,
    or KVStore over twice as many keys in ``mix`` (``RO`` / ``RW`` /
    ``WO``) — then runs ``height`` blocks of it on the same executor,
    joins the background merges, and reads :data:`CHAIN_GETS` of the
    workload's own keys.  It measures every column of
    :data:`CHAIN_MEASURES`: storage, TPS, the latency percentiles, the
    running phase's page IOs per transaction and the reads' per query,
    and MPT's value / node bytes (``None`` on the other engines).  An
    engine past its paper cut-off (LIPP, CMI) gets a "did not finish"
    row instead.
    """
    if workload_name == "smallbank":
        workload = SmallBankWorkload(num_accounts=num_accounts, seed=SEED)
        load = workload.setup_transactions
        run = lambda count, _mix: workload.transactions(count)  # noqa: E731
        checking = SmallBankContract(BENCH_CONTEXT).checking_addr
        reads = [checking(f"acct{index % num_accounts}") for index in range(CHAIN_GETS)]
    else:
        workload = YCSBWorkload(num_keys=num_accounts * 2, seed=SEED)
        load, run = workload.load_transactions, workload.run_transactions
        reads = [key_addr(index % workload.num_keys, ADDR_SIZE) for index in range(CHAIN_GETS)]
    rows: List[Row] = []
    for engine, height, mix, size_ratio in itertools.product(
        engines, heights, mixes, size_ratios
    ):
        row: Row = {"engine": engine, "blocks": height, "mix": mix, "size_ratio": size_ratio,
                    **dict.fromkeys(CHAIN_MEASURES), "note": "did not finish (as in the paper)"}
        rows.append(row)
        limit = ENGINES[engine].max_blocks
        if limit is not None and height > limit:
            continue
        stats = IOStats()
        with engine_cell(engine, stats=stats, size_ratio=size_ratio) as backend:
            executor, _ = run_chain(backend, load(), TXS_PER_BLOCK)
            loaded = stats.snapshot()
            _, metrics = run_chain(backend, run(height * TXS_PER_BLOCK, Mix(mix)),
                                   TXS_PER_BLOCK, executor=executor)
            _settle(backend)
            write_io = stats.delta(loaded).total
            read_start = stats.snapshot()
            for addr in reads:
                backend.get(addr)
            get_io = stats.delta(read_start).total
            row.update(storage_bytes=backend.storage_bytes(), tps=metrics.throughput_tps,
                       median_s=metrics.median_latency,
                       p99_s=metrics.latency_percentile(0.99),
                       tail_s=metrics.tail_latency,
                       write_io_per_tx=write_io / metrics.transactions,
                       get_io_per_query=get_io / CHAIN_GETS, note="")
            if engine == "mpt":
                values, nodes = backend.value_bytes_written, backend.trie.node_bytes_written
                row.update(value_bytes=values, node_bytes=nodes, data_share=values / nodes)
    return rows


# =============================================================================
# Figures 14 & 15: provenance query performance
# =============================================================================

def run_provenance_sweep(
    engines: Sequence[str] = ("mpt", "cole", "cole*"),
    fanouts: Sequence[int] = (BENCH_COLE_PARAMS.mht_fanout,),
    query_ranges: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
    blocks: int = 300,
    queries_per_point: int = 10,
) -> List[Row]:
    """Figures 14 and 15: provenance CPU time and proof size per engine x
    MHT fanout m x block range q.

    Per engine and fanout one provenance chain of ``blocks`` blocks is
    built, with COLE's in-memory level shrunk (B = 64) so recent versions
    reach the on-disk runs, as they do at the paper's 10^5-block scale.
    Then per range ``queries_per_point`` queries are issued and — for
    COLE, whose proofs the client checks — each is verified against the
    state root inside the timed region; ``cpu_s`` and ``proof_bytes``
    are the means.
    """
    contract = KVStoreContract(BENCH_CONTEXT)
    workload = ProvenanceWorkload(num_base_keys=100, seed=PROV_SEED)
    rows: List[Row] = []
    for engine, fanout in itertools.product(engines, fanouts):
        with engine_cell(engine, mem_capacity=PROV_MEM_CAPACITY, mht_fanout=fanout) as backend:
            executor, _ = run_chain(backend, workload.load_transactions(), TXS_PER_BLOCK)
            run_chain(
                backend, workload.update_transactions(blocks * TXS_PER_BLOCK),
                TXS_PER_BLOCK, record_latencies=False, executor=executor,
            )
            _settle(backend)
            state_root = backend.commit_block()
            for query_range in query_ranges:
                total_cpu, total_proof = 0.0, 0
                for key, blk_low, blk_high in workload.queries(
                    queries_per_point, executor.height, query_range
                ):
                    addr = contract.key_addr(key)
                    tick = time.perf_counter()
                    result = backend.prov_query(addr, blk_low, blk_high)
                    if isinstance(backend, Cole):
                        verify_provenance(result, state_root, addr_size=ADDR_SIZE)
                        total_proof += result.proof.size_bytes()
                    else:
                        total_proof += result.proof_size_bytes()
                    total_cpu += time.perf_counter() - tick
                rows.append({"engine": engine, "fanout": fanout, "range": query_range,
                             "cpu_s": total_cpu / queries_per_point,
                             "proof_bytes": total_proof / queries_per_point})
    return rows


# =============================================================================
# Figures 17 & 18 (extensions): the served engine under load
# =============================================================================

def run_served_sweep(
    client_counts: Sequence[int] = (1, 8, 32),
    policies: Sequence[str] = ("off",),
    read_fraction: float = 0.5,
    ops_per_client: int = 300,
    num_keys: int = 2048,
    repeats: int = 1,
) -> List[Row]:
    """Figures 17 and 18 (new): the served engine per client count x WAL
    fsync policy.

    Each point stands up a fresh COLE* engine behind a
    :class:`~repro.server.ColeServer` (on its own event-loop thread) and
    drives it closed-loop with YCSB read/write traffic over real TCP
    sockets.  The policy is ``off`` (no WAL), ``none`` (records reach the
    OS page cache before the ack), ``batch`` (acks wait for a group
    fsync; many acks amortize one fsync — the production default) or
    ``always`` (an fsync per ack — the strict floor).  Every point
    measures ops/s, p50/p99 latency, the read-cache hit rate, the
    group-commit batch size and the fsyncs per acked put — the knobs the
    batching, caching and durability design trades against each other.
    Each point runs ``repeats`` times, interleaved, keeping its best
    throughput (:func:`best_of`): scheduler and fsync noise hits a single
    run hard.
    """

    def run_point(point: Tuple[int, str]) -> Row:
        clients, policy = point
        with engine_cell("cole*") as backend:
            with served(backend, SERVED_CONFIG, policy) as thread:
                report = drive(
                    thread, clients=clients, ops_per_client=ops_per_client,
                    read_fraction=read_fraction, num_keys=num_keys,
                )
            backend.wait_for_merges()
        batcher = report.server_stats.get("batcher", {})
        wal_stats = report.server_stats.get("wal", {})
        syncs = wal_stats.get("syncs", 0)
        latencies = report.latencies
        return {"clients": clients, "policy": policy, "ops": report.ops,
                "errors": report.errors, "ops_per_s": report.throughput,
                "p50_s": percentile(latencies, 0.5), "p99_s": percentile(latencies, 0.99),
                "cache_hit_rate": report.server_stats["cache"]["hit_rate"],
                "avg_batch": batcher.get("avg_batch", 0.0),
                "commits": batcher.get("commits", 0),
                "wal_syncs": syncs, "wal_mb": wal_stats.get("bytes_appended", 0) / 1e6,
                "syncs_per_put": _ratio(syncs, wal_stats.get("puts_appended", 0))}

    points = list(itertools.product(client_counts, policies))
    return best_of(repeats, points, run_point, "ops_per_s")


# =============================================================================
# Figure 19 (extension): replica sets of server processes
# =============================================================================

def _spawn_cli_process(procs: List[subprocess.Popen], *argv: str, timeout_s: float = 60.0) -> str:
    """Start ``repro.cli`` in a subprocess registered in ``procs`` and
    return the ``host:port`` of its ``serving ... on HOST:PORT`` line.

    Subprocesses (not threads) on purpose: fig19's replica set is the
    deployed shape, each node a ``repro serve`` process with its own
    engine, replicating over real sockets.
    """
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-u", "-m", "repro.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    procs.append(proc)
    lines: List[str] = []
    found: List[str] = []
    ready = threading.Event()

    def pump() -> None:
        # The pipe is this thread's to close, at EOF once the server has
        # exited: left open, it leaks a file.
        with proc.stdout:
            for line in proc.stdout:
                lines.append(line)
                match = re.search(r"serving .* on ([\d.]+:\d+)", line)
                if match and not found:
                    found.append(match.group(1))
                    ready.set()
        ready.set()  # EOF: unblock the waiter either way

    threading.Thread(target=pump, daemon=True).start()
    if not ready.wait(timeout=timeout_s) or not found:
        raise RuntimeError(f"server never came up:\n{''.join(lines)}")
    return found[0]


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


def _spawn_replica_set(base: str, procs: List[subprocess.Popen], nodes: int) -> List[str]:
    """``repro serve --wal`` and ``nodes - 1`` replicas of it; returns
    every node's address, the primary's first."""
    primary = _spawn_cli_process(procs, "serve", f"{base}/primary", "--port", "0", "--wal",
                                 *SERVED_CLI_FLAGS)
    return [primary, *(_spawn_cli_process(procs, "serve", f"{base}/replica-{index}", "--port",
                                          "0", "--replica-of", primary)
                       for index in range(nodes - 1))]


def _oracle_roots(base: str, waves: Sequence[Batch]) -> List[Tuple[int, bytes]]:
    """The ``(height, root)`` every node must report after each wave: an
    in-process engine configured as ``repro serve`` opens one, fed each
    wave as one block."""
    oracle = Cole(f"{base}/oracle", ColeParams(async_merge=True, mem_capacity=512))
    try:
        roots = []
        for batch in waves:
            oracle.begin_block(oracle.last_blk + 1)
            oracle.put_many(batch)
            oracle.commit_block()
            roots.append((oracle.last_blk, bytes(oracle.root_digest())))
        return roots
    finally:
        oracle.close()


async def _load_and_check(nodes: List[str], waves: Sequence[Batch],
                          expected: List[Tuple[int, bytes]]) -> Tuple[int, int]:
    """Write each wave to the primary (``nodes[0]``) as one ``multi_put``
    plus one ``flush``, then poll every node up to the oracle height and
    require the oracle's root there; returns ``(roots checked, most
    blocks a node lagged)``."""
    roots_checked = max_lag = 0
    async with connect(nodes[0]) as writer:
        for wave, batch in enumerate(waves, 1):
            await writer.multi_put(batch)
            await writer.flush()
            height, digest = expected[wave - 1]
            for address in nodes:
                async with connect(address) as node:
                    for _ in range(600):
                        info = await node.root()
                        max_lag = max(max_lag, height - info.height)
                        if info.height >= height:
                            break
                        await asyncio.sleep(0.02)
                if (info.height, bytes(info.digest)) != (height, digest):
                    raise RuntimeError(f"node {address} after wave {wave}: "
                                       f"height {info.height}, root {info.digest.hex()[:16]}; "
                                       f"oracle {height}, {digest.hex()[:16]}")
                roots_checked += 1
    return roots_checked, max_lag


def run_process_sweep(
    node_counts: Sequence[int] = (1, 2, 4),
    clients_per_node: int = 8,
    ops_per_client: int = 300,
    num_keys: int = 1024,
    load_waves: int = 3,
) -> List[Row]:
    """Figure 19 (new): per-node read throughput of a replica set of
    server processes, every node's root checked against an in-process
    oracle.

    Per node count a primary and ``count - 1`` replicas are spawned and
    the keys ``key_addr(0..num_keys)`` are written in ``load_waves``
    waves, each one ``multi_put`` (which joins one block whole) plus one
    ``flush``.  After every wave every node must reach the oracle height
    and report the oracle's ``ROOT`` there (:func:`_load_and_check`), or
    the sweep raises naming the node and the wave: COLE's checkpoints
    are deterministic in the put stream, so a node that lost or
    misapplied a write cannot match.

    Then each node is measured **alone** through the load generator's
    closed loop, ``clients_per_node`` clients of ``ops_per_client`` GETs.
    Each node is its own process with its own engine, so its isolated
    rate is its capacity on a machine of its own; driving every node at
    once on one small host would measure that host's cores.
    ``ops_per_s_per_node`` is the slowest node's rate.
    """
    keys = [key_addr(rank, ADDR_SIZE) for rank in range(num_keys)]
    puts = [(addr, write_value(SEED, rank, VALUE_SIZE)) for rank, addr in enumerate(keys)]
    per_wave = -(-num_keys // load_waves)
    waves = [puts[start:start + per_wave] for start in range(0, num_keys, per_wave)]
    rows: List[Row] = []
    for count in node_counts:
        with process_cell() as (base, procs):
            nodes = _spawn_replica_set(base, procs, count)
            roots_checked, max_lag = asyncio.run(
                _load_and_check(nodes, waves, _oracle_roots(base, waves)))
            reports = []
            for index, address in enumerate(nodes):
                params = LoadgenParams(clients=clients_per_node, ops_per_client=ops_per_client,
                                       num_keys=num_keys, addr_size=ADDR_SIZE,
                                       value_size=VALUE_SIZE, seed=SEED + index,
                                       read_fraction=1.0)
                streams = [client_ops(params, client) for client in range(params.clients)]
                reports.append(asyncio.run(run_streams(lambda: connect(address), streams)))
                if reports[-1].errors:
                    raise RuntimeError(f"node {address}: {reports[-1].error_samples}")
            rows.append({"nodes": count, "ops": sum(report.ops for report in reports),
                         "ops_per_s_per_node": min(report.throughput for report in reports),
                         "roots_checked": roots_checked, "max_lag_blocks": max_lag})
    return rows


# =============================================================================
# Figure 20 (extension): key-ordered range-scan throughput (YCSB-E)
# =============================================================================

def run_scan_throughput(
    scan_lengths: Sequence[int] = (8, 32, 128),
    num_addresses: int = 2048,
    blocks: int = 96,
    puts_per_block: int = 256,
    scans_per_point: int = 200,
    repeats: int = 3,
) -> List[Row]:
    """Figure 20 (new): scan throughput vs scan length on one COLE* engine.

    One deterministic multi-version data set (every address updated
    repeatedly across ``blocks`` committed blocks) is loaded; then, per
    scan length ``L``, ``scans_per_point`` key-ordered scans of
    ``limit=L`` are issued from zipfian-popular start addresses (the YCSB
    workload E shape).

    The engine's scan results are first verified byte-identical to a
    brute-force in-memory model (latest *and* a historical ``at_blk``
    snapshot), so the timed loops are known to measure correct scans.
    Each point runs ``repeats`` times, interleaved, keeping its best
    throughput (:func:`best_of`).
    """
    # One deterministic write stream with its multi-version history
    # (model[addr] -> {blk: value}) for at_blk verification.
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
        # YCSB workload E: 95% of ops scan [1, length] entries from a
        # zipfian-popular start; the 5% updates are drawn, not issued.
        rng = random.Random(SEED)
        zipf = ZipfGenerator(num_addresses, seed=SEED + 1)
        starts: List[Tuple[bytes, int]] = []
        while len(starts) < scans_per_point:
            roll, rank = rng.random(), zipf.next_rank()
            if roll < 0.95:
                starts.append((pool[rank], rng.randint(1, length)))
        return starts

    with engine_cell("cole*") as backend:
        load_stream(backend, stream)
        backend.wait_for_merges()
        # Correctness gate before timing: latest and historical scans
        # must match the brute-force model exactly.
        for start in (pool[0], pool[len(pool) // 2]):
            for at_blk in (None, blocks // 2):
                got = backend.scan(start, TOP_ADDR, at_blk=at_blk, limit=64)
                if got != brute_force(start, at_blk or blocks, 64):
                    raise RuntimeError(f"scan mismatch at at_blk={at_blk}")

        def run_point(length: int) -> Row:
            starts = scan_starts(length)
            results: List[list] = []
            elapsed = timed(lambda: results.extend(
                backend.scan(start, TOP_ADDR, limit=scan_len) for start, scan_len in starts
            ))
            entries = sum(len(result) for result in results)
            return {"scan_len": length, "scans": scans_per_point, "entries": entries,
                    "scans_per_s": _ratio(scans_per_point, elapsed),
                    "entries_per_s": _ratio(entries, elapsed)}

        return best_of(repeats, scan_lengths, run_point, "scans_per_s")


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

    One preloaded COLE* engine is served once per batch size (a fresh
    server each time, so the versioned read cache starts cold at every
    point) and driven with a read-only closed-loop workload.  Batch size
    1 issues plain GETs; larger sizes issue the same zipfian key stream
    as MULTI_GET frames — one round trip, one view, and one
    source walk per batch instead of per key.  The claim divides the
    largest batch's keys/s by the batch-1 point's.
    """
    rows: List[Row] = []
    with engine_cell("cole*") as backend:
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
            samples = report.latency["mget" if batch_size > 1 else "get"]
            rows.append({"batch": batch_size, "keys": report.reads,
                         "keys_per_s": report.reads / report.elapsed_s,
                         "p50_s": percentile(samples, 0.5),
                         "p99_s": percentile(samples, 0.99)})
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
    timed_gets: List[ClientOp] = [("get", addr, None) for addr in absent] * passes

    async def hammer(address) -> Row:
        async with connect(address) as client:
            # Warm-up (uncounted): one batch, every address a true miss.
            if any(value is not None for value in await client.multi_get(absent)):
                raise RuntimeError("an absent address has a value")
            report = await run_streams(lambda: connect(address), [timed_gets])
            if report.errors:
                raise RuntimeError(f"negative-lookup GETs errored: {report.error_samples}")
            stats = await client.stats()
        return {"ops": report.ops, "ops_per_s": report.throughput,
                "hit_rate": stats["negative_cache"]["hit_rate"]}

    with engine_cell("cole") as backend:
        load_stream(backend, rank_stream(
            num_keys, NEGATIVE_LOOKUP_BLOCKS, NEGATIVE_LOOKUP_PUTS_PER_BLOCK
        ))
        backend.wait_for_merges()
        measured = []
        for capacity in (0, 4096):
            with served(backend, ServerConfig(negative_cache_capacity=capacity)) as thread:
                measured.append(asyncio.run(hammer((thread.server.host, thread.server.port))))
    baseline, cached = measured
    return [
        {"config": "no-cache", "speedup": 1.0, **baseline},
        {"config": "negative-cache",
         "speedup": cached["ops_per_s"] / baseline["ops_per_s"], **cached},
    ]


# =============================================================================
# The registry: one name per experiment, run at its figure scale
# =============================================================================

class Experiment(NamedTuple):
    """One registered experiment: a selection and a projection of one
    driver's rows."""

    driver: Callable[..., List[Row]]
    #: the driver arguments that select its points at its figure scale
    bound: Dict[str, object] = {}
    #: the row columns it keeps, in order; ``None`` keeps every column
    columns: Optional[Tuple[str, ...]] = None


#: The engine set and column groups several experiments share.
PAPER_ENGINES = ("mpt", "cole", "cole*")
STORAGE_TPS = ("engine", "blocks", "storage_bytes", "tps", "note")
SERVED_LOAD = ("ops", "errors", "ops_per_s", "p50_s", "p99_s")

EXPERIMENTS: Dict[str, Experiment] = {
    "fig9": Experiment(run_chain_sweep, {}, STORAGE_TPS),
    "fig10": Experiment(run_chain_sweep, {"workload_name": "kvstore"}, STORAGE_TPS),
    "fig11": Experiment(run_chain_sweep, dict(  # KVStore over 300 keys
        workload_name="kvstore", num_accounts=150, heights=(100, 300),
        engines=PAPER_ENGINES, mixes=("RO", "RW", "WO"),
    ), ("engine", "blocks", "mix", "tps")),
    "fig12": Experiment(run_chain_sweep, dict(heights=(300, 1000), engines=PAPER_ENGINES),
                        ("engine", "blocks", "median_s", "p99_s", "tail_s")),
    "fig13": Experiment(run_chain_sweep, dict(
        heights=(300,), engines=("cole", "cole*"), size_ratios=(2, 4, 6, 8, 10, 12),
    ), ("engine", "size_ratio", "tps", "median_s", "tail_s")),
    "fig14": Experiment(run_provenance_sweep, {},
                        ("engine", "range", "cpu_s", "proof_bytes")),
    "fig15": Experiment(run_provenance_sweep, dict(
        engines=("cole", "cole*"), fanouts=(2, 4, 8, 16, 32, 64), query_ranges=(16,),
    ), ("engine", "fanout", "cpu_s", "proof_bytes")),
    "fig17": Experiment(run_served_sweep, {}, (
        "clients", *SERVED_LOAD, "cache_hit_rate", "avg_batch", "commits")),
    # Write-heavy: durability is a cost of writes.
    "fig18": Experiment(run_served_sweep, dict(
        client_counts=(32,), policies=("off", "none", "batch", "always"),
        read_fraction=0.1, ops_per_client=200, num_keys=1024, repeats=2,
    ), ("policy", *SERVED_LOAD, "wal_syncs", "wal_mb", "syncs_per_put")),
    "fig19": Experiment(run_process_sweep, dict(node_counts=(1, 2, 4), num_keys=1024,
                                                load_waves=3)),
    "fig20": Experiment(run_scan_throughput),
    "table1": Experiment(run_chain_sweep, dict(
        heights=(100, 300, 1000), engines=PAPER_ENGINES,
    ), ("engine", "blocks", "storage_bytes", "write_io_per_tx", "get_io_per_query",
        "tail_s", "median_s")),
    "index-share": Experiment(run_chain_sweep, dict(heights=(300,), engines=("mpt",)),
                              ("value_bytes", "node_bytes", "data_share")),
    "multi-get": Experiment(run_multi_get),
    "negative-lookup": Experiment(run_negative_lookup),
}


def run_experiment(name: str, **overrides) -> List[Row]:
    """Experiment ``name``'s rows: its figure scale, ``overrides`` on top,
    each row projected onto the experiment's columns."""
    driver, bound, columns = EXPERIMENTS[name]
    rows = driver(**{**bound, **overrides})
    if columns is None:
        return rows
    return [{column: row[column] for column in columns} for row in rows]
