"""Experiment drivers for the tables and figures of the paper's Section 8.

Section 8 is two experiment shapes — *engine x workload x height ->
(storage, TPS, latency)* and *engine x range / fanout -> (CPU, proof
size)* — plus the serving, durability, scan and cluster extensions.
Each ``run_*`` driver is a sweep over a few shared **cells** (build an
engine, load it, measure, clean up), defined first; every point of a
sweep measures every column.

An experiment is a **selection and a projection** over one driver's
rows: :data:`EXPERIMENTS` names every experiment, the driver arguments
that select its points and the columns it keeps.  Figs 9-13, Table 1 and
the index share are one chain sweep, figs 14-15 one provenance sweep,
figs 17-18 one served sweep.  Every driver returns a list of result rows
(dictionaries) and can be run at any scale; an experiment's registered
arguments over its driver's defaults are its one **figure scale**, sized
for minutes, not hours, on a laptop (the paper's 10^2..10^5 block sweep
becomes 10^1..10^3 at 10 tx/block).  ``repro experiment NAME`` and
``benchmarks/bench_figures.py`` both run :func:`run_experiment`
``(NAME)``, so the command runs exactly the experiment whose claims
(:mod:`repro.bench.claims`) the benchmark asserts.  README.md's
"Benchmarks and experiments" table maps every name to its figure,
driver and sweep parameters.
"""

from __future__ import annotations

import asyncio
import gc
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
from repro.cluster import plan_manifest
from repro.common.hashing import hash_bytes, hash_concat
from repro.common.params import ColeParams
from repro.core import Cole, verify_provenance
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
HOTSET_CACHE_PAGES, HOTSET_KEYS, HOTSET_WARM_PASSES = 256, 64, 3
HOTSET_PUTS_PER_BLOCK = 128


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
            WriteAheadLog(os.path.join(backend.workspace.root, "wal"), sync_policy=policy)
        )
        yield stack.enter_context(ServerThread(backend, config=config or ServerConfig(), wal=wal))


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
                "cache_hit_rate": report.cache_hit_rate,
                "avg_batch": batcher.get("avg_batch", 0.0),
                "commits": batcher.get("commits", 0),
                "wal_syncs": syncs, "wal_mb": wal_stats.get("bytes_appended", 0) / 1e6,
                "syncs_per_put": _ratio(syncs, wal_stats.get("puts_appended", 0))}

    points = list(itertools.product(client_counts, policies))
    return best_of(repeats, points, run_point, "ops_per_s")


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
    reads_per_reader: int = 300,
    num_keys: int = 1024,
    load_waves: int = 3,
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
    writes_per_writer: int = 300,
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
    workload E shape, via :class:`~repro.workloads.YCSBGenerator`).

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
        generator = YCSBGenerator(
            "E", num_keys=num_addresses, seed=SEED, max_scan_length=length
        )
        return [
            (pool[rank], scan_len)
            for kind, rank, scan_len in generator.ops(scans_per_point * 3)
            if kind == "scan"
        ][:scans_per_point]

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
    ops = passes * len(absent)

    async def hammer(host: str, port: int) -> Row:
        async with ServerClient(host, port) as client:
            for addr in absent:  # warm-up pass (uncounted)
                if await client.get(addr) is not None:
                    raise RuntimeError(f"absent address {addr.hex()} has a value")
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
    "fig19": Experiment(run_read_scaling),
    "fig20": Experiment(run_scan_throughput),
    "fig21": Experiment(run_cluster_scaling),
    "table1": Experiment(run_chain_sweep, dict(
        heights=(100, 300, 1000), engines=PAPER_ENGINES,
    ), ("engine", "blocks", "storage_bytes", "write_io_per_tx", "get_io_per_query",
        "tail_s", "median_s")),
    "index-share": Experiment(run_chain_sweep, dict(heights=(300,), engines=("mpt",)),
                              ("value_bytes", "node_bytes", "data_share")),
    "multi-get": Experiment(run_multi_get),
    "negative-lookup": Experiment(run_negative_lookup),
    "scan-hotset": Experiment(run_scan_vs_hotset),
}


def run_experiment(name: str, **overrides) -> List[Row]:
    """Experiment ``name``'s rows: its figure scale, ``overrides`` on top,
    each row projected onto the experiment's columns."""
    driver, bound, columns = EXPERIMENTS[name]
    rows = driver(**{**bound, **overrides})
    if columns is None:
        return rows
    return [{column: row[column] for column in columns} for row in rows]
