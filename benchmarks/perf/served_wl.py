"""The served workloads: ``served_mixed`` and ``served_read``.

The server is a ``python -m repro.cli serve --shards 1 --wal --wal-sync
batch`` subprocess; the generator is one asyncio loop with two
connections, closed loop (each connection — a KV client — waits for its
reply before sending the next request), no generator threads.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.server import connect

import spans
import workgen
from engine_wl import Outcome, Sizes, committed_run_bytes, settle_heap
from layers import layer_table, span_metrics
from measure import (
    Repeat,
    end_to_end_metrics,
    median,
    overhead_frac,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    ratio,
    dir_bytes,
    tail_metrics,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
CONNECTIONS = 2
SERVE_FLAGS = ["--port", "0", "--shards", "1", "--wal", "--wal-sync", "batch"]
WAL_SYNC_POLICY = "batch"
START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServedConfig:
    name: str
    keys_base: int  # set-up size
    requests_base: int  # per connection per repeat
    writes: bool


# 16 384 keys > the 8 192-entry read cache, and every commit bumps the
# cache epoch: GETs reach the engine.
MIXED = ServedConfig("served_mixed", 16_384, 1_375, writes=True)
# 4 096 keys < the read cache and no commit ever advances the epoch:
# after the warm-up pass every read is a cache hit.
READ = ServedConfig("served_read", 4_096, 9_000, writes=False)


# =============================================================================
# the server subprocess
# =============================================================================

class ServerProcess:
    """One ``repro serve`` subprocess (optionally with spans installed)."""

    def __init__(self, workspace: str, traced: bool = False) -> None:
        self.workspace = workspace
        self.dump_prefix = workspace + ".spans"
        self.sync_log = workspace + ".fsync.log"
        self.port = 0
        self.loop_name = "?"
        self._dumps = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if traced:
            command = [
                sys.executable, os.path.join(HERE, "serve_traced.py"),
                "--dump", self.dump_prefix, "--sync-log", self.sync_log, "--",
            ]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        self.proc = subprocess.Popen(
            command + [workspace] + SERVE_FLAGS, stdout=subprocess.PIPE, env=env
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self) -> None:
        """Block until the server printed its ``serving ... on host:port`` line."""
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        pending = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not start in time")
            # Read the raw descriptor: a buffered readline() could swallow
            # the line we wait for while select() sees nothing left.
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"server exited during start-up ({self.proc.wait()})")
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in (raw.decode("utf-8", "replace") for raw in lines):
                if line.startswith("serving "):
                    address = line.split(" on ", 1)[1].split()[0].rstrip(",")
                    self.port = int(address.rsplit(":", 1)[1])
                    if "loop=" in line:
                        self.loop_name = line.split("loop=", 1)[1].split(";")[0]
                    return

    def dump_spans(self) -> dict:
        """Ask a traced server for its aggregates (SIGUSR1) and load them."""
        self._dumps += 1
        path = f"{self.dump_prefix}.{self._dumps}"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server did not write its span dump")
            time.sleep(0.005)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Signal the server and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()  # idempotent


# =============================================================================
# inputs
# =============================================================================

@dataclass
class Inputs:
    keys: List[bytes]
    preload: List[List[workgen.Put]]
    ops: List[List[List[workgen.ServedOp]]]  # [repeat][connection]
    expected_after: List[Dict[bytes, bytes]]  # model state after each repeat


def make_inputs(config: ServedConfig, seed: int, sizes: Sizes, repeats: int) -> Inputs:
    keys = workgen.make_addrs(
        workgen.make_rng(seed, config.name, "keys"),
        sizes.setup_count(config.keys_base, multiple=workgen.PRELOAD_BATCH),
    )
    state = workgen.ServedState(keys)
    preload = workgen.make_preload(workgen.make_rng(seed, config.name, "preload"), state)
    requests = sizes.timed_count(config.requests_base)
    partitions = [keys[index::CONNECTIONS] for index in range(CONNECTIONS)]
    zipf = workgen.ZipfSampler(len(partitions[0]) if config.writes else len(keys))
    ops, expected_after = [], []
    for repeat in range(repeats):
        per_connection = []
        for index in range(CONNECTIONS):
            rng = workgen.make_rng(seed, config.name, "ops", repeat, index)
            if config.writes:
                per_connection.append(
                    workgen.make_mixed_ops(rng, state, partitions[index], zipf, requests)
                )
            else:
                per_connection.append(workgen.make_read_ops(rng, state, zipf, requests))
        ops.append(per_connection)
        expected_after.append(dict(state.values))
    return Inputs(keys, preload, ops, expected_after)


# =============================================================================
# driving one server
# =============================================================================

async def _worker(client, ops: Sequence[workgen.ServedOp]) -> Tuple[List[float], List[object]]:
    latencies: List[float] = []
    answers: List[object] = []
    clock = time.perf_counter
    for op in ops:
        kind = op.kind
        started = clock()
        try:
            if kind == "get":
                answer = await client.get(op.payload)
            elif kind == "put":
                answer = await client.put(*op.payload)
            elif kind == "multi_get":
                answer = await client.multi_get(op.payload)
            else:
                answer = await client.multi_put(op.payload)
        except Exception as exc:  # a refused or errored request is a failed request
            answer = exc
        latencies.append(clock() - started)
        answers.append(answer)
    return latencies, answers


def _count_wrong(ops: Sequence[workgen.ServedOp], answers: Sequence[object]) -> int:
    wrong = 0
    for op, answer in zip(ops, answers):
        if op.kind in ("get", "multi_get"):
            wrong += answer != op.expected
        else:  # a write acks with the block height it will commit at
            wrong += not (isinstance(answer, int) and answer > 0)
    return wrong


def _written_keys(ops: Sequence[Sequence[workgen.ServedOp]]) -> List[bytes]:
    written = set()
    for stream in ops:
        for op in stream:
            if op.kind == "put":
                written.add(op.payload[0])
            elif op.kind == "multi_put":
                written.update(addr for addr, _value in op.payload)
    return sorted(written)


async def _read_back(client, keys: Sequence[bytes], expected: Dict[bytes, bytes]) -> Tuple[int, int]:
    """Re-read every key; returns (requests, keys not at their expected value)."""
    wrong = requests = 0
    for start in range(0, len(keys), workgen.PRELOAD_BATCH):
        batch = keys[start : start + workgen.PRELOAD_BATCH]
        requests += 1
        try:
            values = await client.multi_get(batch)
        except Exception:
            wrong += len(batch)
            continue
        wrong += sum(value != expected.get(addr) for addr, value in zip(batch, values))
    return requests, wrong


class Session:
    """A started server with its two connections."""

    def __init__(self, workdir: str, label: str, traced: bool = False) -> None:
        self.workspace = os.path.join(workdir, label)
        self.server = ServerProcess(self.workspace, traced)
        self.clients: list = []

    async def open(self, config: ServedConfig, inputs: Inputs) -> None:
        """Set-up: start, preload, flush, and (read workload) warm the cache."""
        self.server.wait_ready()
        for _ in range(CONNECTIONS):
            self.clients.append(
                await connect(("127.0.0.1", self.server.port)).connect()
            )
        # FLUSH after every batch: each preload block is exactly one batch,
        # so the store's run layout (and with it the byte ratios) does not
        # depend on where the group-commit timer happened to fire.
        for index, batch in enumerate(inputs.preload):
            client = self.clients[index % CONNECTIONS]
            await client.multi_put(batch)
            await client.flush()
        if not config.writes:
            for start in range(0, len(inputs.keys), workgen.MULTI_BATCH):
                await self.clients[0].multi_get(
                    inputs.keys[start : start + workgen.MULTI_BATCH]
                )

    async def close_clients(self) -> None:
        clients, self.clients = self.clients, []
        for client in clients:
            try:
                await client.close()
            except Exception:
                pass  # the server may already be gone (SIGKILL)

    async def close(self) -> None:
        await self.close_clients()
        self.server.stop()
        shutil.rmtree(self.workspace, ignore_errors=True)

    async def timed_repeat(self, ops: Sequence[Sequence[workgen.ServedOp]]):
        """One closed-loop repeat; returns (Repeat, wrong answers)."""
        server_cpu = proc_cpu_s(self.server.pid)
        client_cpu = time.process_time()
        started = time.perf_counter()
        results = await asyncio.gather(
            *(_worker(client, stream) for client, stream in zip(self.clients, ops))
        )
        wall = time.perf_counter() - started
        client_cpu = time.process_time() - client_cpu
        server_cpu = proc_cpu_s(self.server.pid) - server_cpu
        latencies: List[float] = []
        kinds: Dict[str, List[float]] = {}
        wrong = 0
        for stream, (lats, answers) in zip(ops, results):
            latencies.extend(lats)
            wrong += _count_wrong(stream, answers)
            for op, latency in zip(stream, lats):
                kinds.setdefault(op.kind, []).append(latency)
        repeat = Repeat(
            wall_s=wall,
            cpu_s=server_cpu + client_cpu,
            ops=sum(op.keys for stream in ops for op in stream),
            requests=len(latencies),
            latencies_s=latencies,
            client_cpu_s=client_cpu,
            kinds=kinds,
        )
        return repeat, wrong

def _user_bytes(inputs: Inputs) -> int:
    puts = sum(len(batch) for batch in inputs.preload)
    for repeat in inputs.ops:
        for stream in repeat:
            puts += sum(op.keys for op in stream if op.kind in ("put", "multi_put"))
    return puts * workgen.USER_BYTES_PER_PUT


def _write_costs(stats: dict, user_bytes: int) -> Tuple[float, float]:
    compaction = stats["engine"]["compaction"]
    space = ratio(
        committed_run_bytes(compaction) + dir_bytes(stats["wal"]["directory"]), user_bytes
    )
    written = ratio(
        compaction["bytes_flushed"] + compaction["bytes_rewritten"]
        + stats["wal"]["bytes_appended"],
        user_bytes,
    )
    return space, written


# =============================================================================
# per-layer numbers of the traced repeat
# =============================================================================

def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def _counter_metrics(before: dict, after: dict, repeat: Repeat) -> Dict[str, float]:
    """Source **C**: STATS deltas over the traced repeat."""
    puts = _delta(after, before, "wal", "puts_appended")
    commits = _delta(after, before, "batcher", "commits")
    page_hits = _delta(after, before, "io", "page_cache", "hits")
    page_lookups = page_hits + _delta(after, before, "io", "page_cache", "misses")
    compaction = after["engine"]["compaction"]
    pages_read = _delta(after, before, "io", "page_reads")
    return {
        "compaction.write_amp": compaction["write_amp"],
        "compaction.bytes_flushed": compaction["bytes_flushed"],
        "compaction.bytes_rewritten": compaction["bytes_rewritten"],
        "diskio.pages_read": pages_read,
        "diskio.pages_written": _delta(after, before, "io", "page_writes"),
        "diskio.cache_hit_frac": ratio(page_hits, page_lookups),
        "diskio.read_pages_per_op": ratio(pages_read, repeat.ops),
        "wal.syncs_per_put": ratio(_delta(after, before, "wal", "syncs"), puts),
        "wal.bytes_per_put": ratio(_delta(after, before, "wal", "bytes_appended"), puts),
        "batcher.commits": commits,
        "batcher.puts_per_commit": ratio(_delta(after, before, "batcher", "batched_puts"), commits),
        "cache.hit_frac": ratio(
            _delta(after, before, "cache", "hits"), _delta(after, before, "cache", "lookups")
        ),
        "cache.negative_hit_frac": ratio(
            _delta(after, before, "negative_cache", "hits"),
            _delta(after, before, "negative_cache", "lookups"),
        ),
    }


def _client_metrics(repeat: Repeat) -> Dict[str, float]:
    """What the generator saw on the untraced repeat, split by request kind."""
    def p50_ms(kind: str) -> float:
        samples = repeat.kinds.get(kind)
        return percentile(samples, 0.5)[0] * 1e3 if samples else 0.0

    return {
        "client.get_p50_ms": p50_ms("get"),
        "client.put_p50_ms": p50_ms("put"),
        "client.multi_get_p50_ms": p50_ms("multi_get"),
        "client.multi_put_p50_ms": p50_ms("multi_put"),
        "client.cpu_frac": ratio(repeat.client_cpu_s, repeat.wall_s),
        **tail_metrics(repeat),
    }


def _wire_metrics(aggregates: spans.Aggregates, repeat: Repeat) -> Dict[str, float]:
    round_trip_ns = sum(repeat.latencies_s) * 1e9
    dispatch_ns = aggregates.total_ns("server.dispatch")
    decode_ns = aggregates.total_ns("protocol.decode")
    return {
        "server.wire_us": (round_trip_ns - dispatch_ns) / repeat.requests / 1e3,
        "trace.coverage_frac": ratio(dispatch_ns + decode_ns, round_trip_ns),
    }


def truncate_to_fsynced(wal_dir: str, sync_log: str) -> int:
    """Cut every WAL segment back to its size at the last fsync that
    covered it (0 when none did); returns the bytes discarded.

    SIGKILL leaves the OS page cache intact, so this — not the kill —
    is what makes the restart see only durable bytes.
    """
    durable: Dict[str, int] = {}
    if os.path.exists(sync_log):
        with open(sync_log, "r", encoding="utf-8") as handle:
            for line in handle:
                size, _tab, path = line.rstrip("\n").partition("\t")
                if path:
                    durable[os.path.realpath(path)] = int(size)
    discarded = 0
    for root, _dirs, files in os.walk(wal_dir):
        for name in files:
            if not name.endswith(".wal"):
                continue
            path = os.path.realpath(os.path.join(root, name))
            keep = durable.get(path, 0)
            size = os.path.getsize(path)
            if size > keep:
                os.truncate(path, keep)
                discarded += size - keep
    return discarded


async def _durability_check(
    session: Session, inputs: Inputs, expected: Dict[bytes, bytes]
) -> Tuple[Dict[str, float], int, List[str]]:
    """SIGKILL, drop unflushed WAL bytes, restart, re-read every acked key."""
    wal_dir = os.path.join(session.workspace, "wal")
    session.server.stop(signal.SIGKILL)
    await session.close_clients()
    discarded = truncate_to_fsynced(wal_dir, session.server.sync_log)
    started = time.perf_counter()
    restarted = ServerProcess(session.workspace)
    try:
        restarted.wait_ready()
        client = await connect(("127.0.0.1", restarted.port)).connect()
        try:
            await client.get(inputs.keys[0])
            recovery_s = time.perf_counter() - started
            requests, lost = await _read_back(client, inputs.keys, expected)
        finally:
            await client.close()
    finally:
        restarted.stop()
    notes = [f"durability: SIGKILL, {discarded} unflushed WAL bytes discarded, "
             f"restart to first GET {recovery_s:.3f} s, {lost} acked keys lost"]
    return {"wal.recovery_s": recovery_s, "wal.acked_lost": lost}, requests, notes


# =============================================================================
# the workload
# =============================================================================

REQUEST_KINDS = ("get", "put", "multi_get", "multi_put")


class Sessions:
    """Starts sessions and guarantees none outlives the workload."""

    def __init__(self, workdir: str, config: ServedConfig, inputs: Inputs) -> None:
        self.workdir = workdir
        self.config = config
        self.inputs = inputs
        self.started: List[Session] = []

    async def start(self, label: str, traced: bool = False) -> Tuple[Session, float]:
        """A set-up: returns the ready session and how long it took."""
        began = time.perf_counter()
        session = Session(self.workdir, f"{self.config.name}-{label}", traced)
        self.started.append(session)
        await session.open(self.config, self.inputs)
        return session, time.perf_counter() - began

    async def stop_all(self) -> None:
        for session in self.started:
            await session.close_clients()
            session.server.stop(signal.SIGKILL)


async def _run_untraced(sessions: Sessions, setups: int) -> Outcome:
    config, inputs = sessions.config, sessions.inputs
    setup_times = []
    session = None
    for index in range(setups):
        if session is not None:
            await session.close()
        session, elapsed = await sessions.start(str(index))
        setup_times.append(elapsed)

    failed = attempted = 0
    done: List[Repeat] = []
    for index, ops in enumerate(inputs.ops):
        # STATS either side of the repeat, outside its clock: page reads of
        # the timed requests only, not of the read-back below.
        pages_before = (await session.clients[0].stats())["io"]["page_reads"]
        repeat, wrong = await session.timed_repeat(ops)
        repeat.pages_read = (await session.clients[0].stats())["io"]["page_reads"] - pages_before
        done.append(repeat)
        # Re-read what this repeat wrote; after the last one, every key.
        last = index == len(inputs.ops) - 1
        requests, stale = await _read_back(
            session.clients[0],
            inputs.keys if last else _written_keys(ops),
            inputs.expected_after[index],
        )
        failed += wrong + stale
        attempted += repeat.requests + requests
    await session.clients[0].flush()  # commit what is still buffered
    stats = await session.clients[0].stats()
    space, written = _write_costs(stats, _user_bytes(inputs))
    end_to_end = end_to_end_metrics(
        done, setup_times, proc_peak_rss_mb(session.server.pid), space, written, read_pages=True
    )
    note = (
        f"{config.name}: {len(inputs.keys)} keys preloaded, {CONNECTIONS} connections x "
        f"{len(inputs.ops[0][0])} requests per repeat, {len(done)} repeats; "
        f"loop={session.server.loop_name}; cache hit {stats['cache']['hit_rate']:.3f}; "
        f"client cpu {median([rep.client_cpu_s / rep.wall_s for rep in done]):.2f} of one core"
    )
    await session.close()
    return Outcome(end_to_end, {}, attempted, failed, [note])


def _trace_notes(
    name: str, aggregates: spans.Aggregates, repeat: Repeat, wire_us: float
) -> List[str]:
    """The layer table of a traced served repeat, as text."""
    round_trip_ns = sum(repeat.latencies_s) * 1e9
    notes = [f"{name} traced: {repeat.requests} requests, mean round trip "
             f"{round_trip_ns / repeat.requests / 1e3:.1f} us; "
             "server self time per request by layer:"]
    notes.extend(layer_table(aggregates, list(REQUEST_KINDS), "server.dispatch"))
    background: Dict[str, int] = {}
    for kind in aggregates.kinds():
        if kind not in REQUEST_KINDS and kind != "protocol.decode":
            for span_name, self_ns in aggregates.self_by_name(kind).items():
                background[span_name] = background.get(span_name, 0) + self_ns
    notes.append("  off the request path (commits, merges, group fsync), self ms: " + ", ".join(
        f"{span_name}={self_ns / 1e6:.1f}"
        for span_name, self_ns in sorted(background.items(), key=lambda item: -item[1])[:10]
        if self_ns
    ))
    accounted = sum(
        sum(aggregates.self_by_name(kind).values()) for kind in REQUEST_KINDS
    ) + wire_us * 1e3 * repeat.requests
    notes.append(f"  accounting: server self times + wire = "
                 f"{100 * ratio(accounted, round_trip_ns):.1f}% of the client round trips")
    return notes


async def _run_traced(sessions: Sessions, trace_out: Optional[str]) -> Outcome:
    """One untraced repeat (the overhead baseline), then the same inputs
    against a server with spans installed."""
    config, inputs = sessions.config, sessions.inputs
    ops = inputs.ops[0]
    expected = inputs.expected_after[0]
    session, _elapsed = await sessions.start("plain")
    untraced, wrong_untraced = await session.timed_repeat(ops)
    await session.close()

    session, _elapsed = await sessions.start("traced", traced=True)
    # STATS outside the span window, so it holds the timed requests only.
    before = await session.clients[0].stats()
    baseline = session.server.dump_spans()
    repeat, wrong = await session.timed_repeat(ops)
    dump = session.server.dump_spans()
    after = await session.clients[0].stats()
    failed = wrong_untraced + wrong
    attempted = untraced.requests + repeat.requests

    aggregates = spans.Aggregates.from_dump(dump, baseline)
    per_layer = span_metrics(aggregates)
    per_layer.update(_counter_metrics(before, after, repeat))
    per_layer.update(_client_metrics(untraced))
    per_layer.update(_wire_metrics(aggregates, repeat))
    per_layer["trace.overhead_frac"] = overhead_frac(untraced, repeat)
    notes = _trace_notes(config.name, aggregates, repeat, per_layer["server.wire_us"])
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)
    if config.writes:
        durability, requests, lines = await _durability_check(session, inputs, expected)
        per_layer.update(durability)
        failed += int(durability["wal.acked_lost"])
        notes.extend(lines)
        shutil.rmtree(session.workspace, ignore_errors=True)
    else:
        requests, stale = await _read_back(session.clients[0], inputs.keys, expected)
        failed += stale
        await session.close()
    return Outcome({}, per_layer, attempted + requests, failed, notes)


async def _run(
    config: ServedConfig, workdir: str, seed: int, sizes: Sizes, trace: bool,
    setups: int, repeats: int, trace_out: Optional[str],
) -> Outcome:
    inputs = make_inputs(config, seed, sizes, 1 if trace else repeats)
    settle_heap()
    sessions = Sessions(workdir, config, inputs)
    try:
        if trace:
            return await _run_traced(sessions, trace_out)
        return await _run_untraced(sessions, setups)
    finally:
        await sessions.stop_all()


def run_served(
    name: str, workdir: str, seed: int, sizes: Sizes, trace: bool, setups: int,
    repeats: int, trace_out: Optional[str] = None,
) -> Outcome:
    config = MIXED if name == MIXED.name else READ
    return asyncio.run(_run(config, workdir, seed, sizes, trace, setups, repeats, trace_out))
