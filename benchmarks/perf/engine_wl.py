"""The in-process workloads: ``ingest`` (write path) and ``query`` (read path).

One thread, closed loop: the caller — a block executor — waits for each
reply.  Sizes at the recorded run length (``run.RECORDED_SECONDS``) are the
``*_BASE`` constants; timed sizes shrink or grow with ``--seconds``,
set-up sizes only with ``--scale``.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import Cole, ColeParams, verify_provenance

import spans
import workgen
from layers import layer_table, span_metrics
from measure import (
    Repeat,
    end_to_end_metrics,
    overhead_frac,
    ratio,
    self_peak_rss_mb,
    tail_metrics,
)

# mem_capacity = 4 blocks, so an L0 flush lands on every 4th commit and a
# level-i merge on every 4**(i+1)-th.  Of a repeat's 320 commits 1 carries
# a level-4 merge, 4 a level-3, 15 a level-2: the p95 commit (17th
# slowest) sits inside the level-2 class and the p99 (4th) inside the
# level-3 class, instead of on a boundary it would flip across.
PUTS_PER_BLOCK = 100
PARAMS = ColeParams(
    mem_capacity=4 * PUTS_PER_BLOCK,
    size_ratio=4,
    async_merge=False,
    value_cache_pages=0,
    compaction="leveling",
)
INGEST_BLOCKS_BASE = 320  # per repeat, a multiple of 64
INGEST_ADDRS_BASE = 16_000  # ~2 versions per address
WARMUP_BLOCKS = 128
# 256 + 64 + 3*16 + 3*4 blocks leaves 1/1/3/3 runs on levels 4/3/2/1.
QUERY_STORE_BLOCKS_BASE = 380
QUERY_ADDRS_BASE = 19_000
QUERY_OPS_BASE = 15_000  # per repeat
SPOT_CHECKS = 400
WARMUP_READS = 500


@dataclass
class Sizes:
    """``timed`` scales the measured op counts, ``setup`` the set-up."""

    timed: float
    setup: float

    def timed_count(self, base: int, multiple: int = 1) -> int:
        return _scaled(base, self.timed, multiple)

    def setup_count(self, base: int, multiple: int = 1) -> int:
        return _scaled(base, self.setup, multiple)


def _scaled(base: int, factor: float, multiple: int) -> int:
    """``base * factor`` rounded to a positive multiple of ``multiple``."""
    return max(multiple, round(base * factor / multiple) * multiple)


def settle_heap() -> None:
    """Park the generated inputs outside the collector's reach.

    The op streams and the model are millions of long-lived objects;
    left in the young generations they make every full collection during
    the timed phase scan the harness's data, not the program's.
    """
    gc.collect()
    gc.freeze()


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    end_to_end: Dict[str, dict]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str]


def _ingest_block(cole: Cole, height: int, items: Sequence[workgen.Put]) -> bytes:
    cole.begin_block(height)
    cole.put_many(items)
    return cole.commit_block()


def _build_store(directory: str, blocks: Sequence[Sequence[workgen.Put]]) -> Cole:
    cole = Cole(directory, PARAMS)
    for height, items in enumerate(blocks, start=1):
        _ingest_block(cole, height, items)
    return cole


def _spot_check(cole: Cole, model: workgen.VersionModel, seed: int, height: int) -> int:
    """Model-check a sample of latest and historical reads; returns mismatches."""
    rng = workgen.make_rng(seed, "spot-check")
    addrs = rng.sample(sorted(model.versions), min(SPOT_CHECKS, len(model.versions)))
    wrong = 0
    for addr in addrs:
        if cole.get(addr) != model.latest(addr):
            wrong += 1
        blk = rng.randint(1, height)
        if cole.get_at(addr, blk) != model.at(addr, blk):
            wrong += 1
    return wrong


def committed_run_bytes(compaction: dict) -> int:
    """On-disk bytes of the runs the manifest names.

    Not ``storage_bytes()``: under async merge that also counts the
    output of a merge that is built but not yet committed, so it jumps
    by a whole level depending on where the last cascade stopped.
    """
    return sum(level["bytes"] for level in compaction["levels"].values())


def _write_costs(cole: Cole, user_bytes: int) -> Tuple[float, float, dict]:
    compaction = cole.compaction_stats()
    space = ratio(committed_run_bytes(compaction), user_bytes)
    written = ratio(compaction["bytes_flushed"] + compaction["bytes_rewritten"], user_bytes)
    return space, written, compaction


def _counter_metrics(cole: Cole, compaction: dict, io_delta) -> Dict[str, float]:
    """Source **C**: what the engine already publishes."""
    runs = [run for level in cole.levels for run in level.all_runs()]
    cache = io_delta.cache_summary()
    return {
        "compaction.write_amp": compaction["write_amp"],
        "compaction.bytes_flushed": compaction["bytes_flushed"],
        "compaction.bytes_rewritten": compaction["bytes_rewritten"],
        "learned.keys_per_model": ratio(
            sum(run.num_entries for run in runs),
            sum(run.index_file.num_bottom_models for run in runs),
        ),
        "diskio.pages_read": io_delta.total_reads,
        "diskio.pages_written": io_delta.total_writes,
        "diskio.cache_hit_frac": cache["hit_rate"],
    }


def _trace_summary(
    aggregates: spans.Aggregates, untraced: Repeat, traced: Repeat
) -> Dict[str, float]:
    request_ns = aggregates.total_ns("request")
    return {
        **tail_metrics(untraced),
        "trace.overhead_frac": overhead_frac(untraced, traced),
        "trace.coverage_frac": 1.0 - ratio(aggregates.self_ns("request"), request_ns),
    }


# =============================================================================
# ingest
# =============================================================================

def _ingest_repeat(
    directory: str,
    blocks: Sequence[Sequence[workgen.Put]],
    tracer: Optional[spans.Tracer],
) -> Tuple[Repeat, Cole, List[bytes]]:
    cole = Cole(directory, PARAMS)
    latencies: List[float] = []
    roots: List[bytes] = []
    clock = time.perf_counter
    cpu_start = time.process_time()
    wall_start = clock()
    for height, items in enumerate(blocks, start=1):
        started = clock()
        if tracer is None:
            root = _ingest_block(cole, height, items)
        else:
            with tracer.span("request", "block"):
                root = _ingest_block(cole, height, items)
        latencies.append(clock() - started)
        roots.append(root)
    wall = clock() - wall_start
    cpu = time.process_time() - cpu_start
    puts = sum(len(items) for items in blocks)
    return Repeat(wall, cpu, puts, len(blocks), latencies), cole, roots


def run_ingest(
    workdir: str, seed: int, sizes: Sizes, trace: bool, setups: int, repeats: int,
    trace_out: Optional[str] = None,
) -> Outcome:
    num_blocks = sizes.timed_count(INGEST_BLOCKS_BASE, multiple=64)
    addrs = workgen.make_addrs(
        workgen.make_rng(seed, "ingest-addrs"), sizes.timed_count(INGEST_ADDRS_BASE)
    )
    blocks = workgen.make_blocks(
        workgen.make_rng(seed, "ingest-blocks"), addrs, num_blocks, PUTS_PER_BLOCK
    )
    model = workgen.model_of_blocks(blocks)
    user_bytes = num_blocks * PUTS_PER_BLOCK * workgen.USER_BYTES_PER_PUT

    settle_heap()

    # Set-up: a throwaway store takes the first blocks, so imports, lazy
    # initialisation and the allocator are warm before the clock starts.
    setup_times = []
    for index in range(1 if trace else setups):
        started = time.perf_counter()
        directory = os.path.join(workdir, f"warmup-{index}")
        _build_store(directory, blocks[:WARMUP_BLOCKS]).close()
        shutil.rmtree(directory)
        setup_times.append(time.perf_counter() - started)

    failed = 0
    notes: List[str] = []
    done: List[Repeat] = []
    exact: List[tuple] = []
    tracer: Optional[spans.Tracer] = None
    plan = [False] * repeats if not trace else [False, True]
    per_layer: Dict[str, float] = {}
    space = written = 0.0
    for index, traced in enumerate(plan):
        if traced:
            tracer = spans.Tracer(sample_every=max(1, num_blocks // 64))
            spans.install(tracer)
        directory = os.path.join(workdir, f"ingest-{index}")
        try:
            repeat, cole, roots = _ingest_repeat(directory, blocks, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        done.append(repeat)
        space, written, compaction = _write_costs(cole, user_bytes)
        exact.append((roots[-1], committed_run_bytes(compaction), compaction["bytes_flushed"],
                      compaction["bytes_rewritten"], cole.stats.total_writes))
        failed += _spot_check(cole, model, seed, num_blocks)
        if traced:
            aggregates = spans.Aggregates(tracer.aggregates())
            per_layer.update(span_metrics(aggregates))
            per_layer.update(_counter_metrics(cole, compaction, cole.stats.snapshot()))
            per_layer.update(_trace_summary(aggregates, done[0], repeat))
            per_layer["diskio.read_pages_per_op"] = ratio(cole.stats.total_reads, repeat.ops)
            notes.append("self time per block by layer:")
            notes.extend(layer_table(aggregates, ["block"], "request"))
            if trace_out:
                tracer.write(trace_out)
        cole.close()
        shutil.rmtree(directory)
    if len(set(exact)) != 1:
        # Same stream into a fresh store: roots, bytes and pages must repeat.
        failed += 1
        notes.append(f"exact counts differ across repeats: {exact}")

    attempted = len(done) * (num_blocks + 2 * min(SPOT_CHECKS, len(model.versions)))
    end_to_end = end_to_end_metrics(
        done, setup_times, self_peak_rss_mb(), space, written, read_pages=False
    )
    notes.insert(0, f"ingest: {num_blocks} blocks x {PUTS_PER_BLOCK} puts per repeat, "
                    f"{len(addrs)} addresses, {len(done)} repeats")
    return Outcome(end_to_end, per_layer, attempted, failed, notes)


# =============================================================================
# query
# =============================================================================

def _query_repeat(
    cole: Cole,
    ops: Sequence[workgen.QueryOp],
    root: bytes,
    tracer: Optional[spans.Tracer],
    verify,
) -> Tuple[Repeat, List[object], int]:
    def execute(op: workgen.QueryOp):
        if op.kind == "get" or op.kind == "get_absent":
            return cole.get(*op.args)
        if op.kind == "get_at":
            return cole.get_at(*op.args)
        if op.kind == "prov":
            result = cole.prov_query(*op.args)
            # The verifier's answer is the request's answer: an
            # unverifiable proof raises and counts as a failure.
            return verify(result, root), result.proof.size_bytes()
        return cole.scan(op.args[0], workgen.MAX_ADDR, limit=workgen.SCAN_LIMIT)

    latencies: List[float] = []
    kinds: Dict[str, List[float]] = {}
    answers: List[object] = []
    errors = 0
    clock = time.perf_counter
    cpu_start = time.process_time()
    wall_start = clock()
    for op in ops:
        started = clock()
        try:
            if tracer is None:
                answer = execute(op)
            else:
                with tracer.span("request", op.kind):
                    answer = execute(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            answer = exc
            errors += 1
        elapsed = clock() - started
        latencies.append(elapsed)
        kinds.setdefault(op.kind, []).append(elapsed)
        answers.append(answer)
    wall = clock() - wall_start
    cpu = time.process_time() - cpu_start
    keys = sum(op.keys for op in ops)
    return Repeat(wall, cpu, keys, len(ops), latencies, kinds=kinds), answers, errors


def _check_answers(ops: Sequence[workgen.QueryOp], answers: Sequence[object]) -> Tuple[int, List[int]]:
    wrong = 0
    proof_sizes = []
    for op, answer in zip(ops, answers):
        if isinstance(answer, Exception):
            continue  # already counted as an error
        if op.kind == "prov":
            versions, proof_bytes = answer
            proof_sizes.append(proof_bytes)
            answer = versions
        if answer != op.expected:
            wrong += 1
    return wrong, proof_sizes


def run_query(
    workdir: str, seed: int, sizes: Sizes, trace: bool, setups: int, repeats: int,
    trace_out: Optional[str] = None,
) -> Outcome:
    store_blocks = sizes.setup_count(QUERY_STORE_BLOCKS_BASE, multiple=4)
    addrs = workgen.make_addrs(
        workgen.make_rng(seed, "query-addrs"), sizes.setup_count(QUERY_ADDRS_BASE)
    )
    blocks = workgen.make_blocks(
        workgen.make_rng(seed, "query-blocks"), addrs, store_blocks, PUTS_PER_BLOCK
    )
    model = workgen.model_of_blocks(blocks)
    ops = workgen.make_query_ops(
        workgen.make_rng(seed, "query-ops"), model, store_blocks,
        sizes.timed_count(QUERY_OPS_BASE),
    )
    user_bytes = store_blocks * PUTS_PER_BLOCK * workgen.USER_BYTES_PER_PUT
    settle_heap()

    setup_times = []
    cole: Optional[Cole] = None
    for index in range(1 if trace else setups):
        if cole is not None:
            cole.close()
            shutil.rmtree(cole.workspace.root)
        started = time.perf_counter()
        cole = _build_store(os.path.join(workdir, f"store-{index}"), blocks)
        # Warm-up: the first reads memoize every run's key range (two page
        # reads each); after it a repeat's page count is exact.
        _query_repeat(cole, ops[:WARMUP_READS], cole.root_digest(), None, verify_provenance)
        setup_times.append(time.perf_counter() - started)
    assert cole is not None
    root = cole.root_digest()
    space, written, compaction = _write_costs(cole, user_bytes)

    failed = 0
    notes: List[str] = []
    done: List[Repeat] = []
    exact: List[tuple] = []
    per_layer: Dict[str, float] = {}
    proof_sizes: List[int] = []
    plan = [False] * repeats if not trace else [False, True]
    for traced in plan:
        tracer: Optional[spans.Tracer] = None
        verify = verify_provenance
        if traced:
            tracer = spans.Tracer(sample_every=max(1, len(ops) // 200))
            spans.install(tracer)
            verify = spans.traced_call(tracer, verify_provenance, "verify.prov")
        before = cole.stats.snapshot()
        try:
            repeat, answers, errors = _query_repeat(cole, ops, root, tracer, verify)
        finally:
            if tracer is not None:
                tracer.uninstall()
        io_delta = cole.stats.delta(before)
        repeat.pages_read = io_delta.total_reads
        wrong, proof_sizes = _check_answers(ops, answers)
        failed += errors + wrong
        done.append(repeat)
        exact.append((io_delta.total_reads, sum(proof_sizes)))
        if traced:
            aggregates = spans.Aggregates(tracer.aggregates())
            per_layer.update(span_metrics(aggregates))
            per_layer.update(_counter_metrics(cole, compaction, io_delta))
            per_layer.update(_trace_summary(aggregates, done[0], repeat))
            scanned = sum(op.keys for op in ops if op.kind == "scan")
            per_layer.update({
                "cole.scan_us_per_entry": ratio(
                    aggregates.total_ns("cole.scan") / 1e3, scanned
                ),
                "indexfile.pages_per_search": ratio(
                    io_delta.page_reads.get("index", 0), aggregates.count("indexfile.search")
                ),
                "diskio.read_pages_per_op": ratio(io_delta.total_reads, repeat.ops),
                "cole.proof_bytes_per_prov": ratio(sum(proof_sizes), len(proof_sizes)),
            })
            notes.append("self time per request by layer:")
            notes.extend(layer_table(
                aggregates, [kind for kind, _share in workgen.QUERY_MIX], "request"
            ))
            if trace_out:
                tracer.write(trace_out)
    if len(set(exact)) != 1:
        failed += 1
        notes.append(f"exact counts differ across repeats: {exact}")
    cole.close()
    shutil.rmtree(cole.workspace.root)

    end_to_end = end_to_end_metrics(
        done, setup_times, self_peak_rss_mb(), space, written, read_pages=True
    )
    end_to_end["proof_bytes_per_prov"] = {"value": ratio(sum(proof_sizes), len(proof_sizes))}
    notes.insert(0, f"query: store of {store_blocks} blocks x {PUTS_PER_BLOCK} puts "
                    f"({cole.num_disk_levels()} levels), {len(ops)} reads per repeat, "
                    f"{len(done)} repeats; read pages/op "
                    f"{ratio(exact[0][0], done[0].ops):.3f}, proof bytes/prov "
                    f"{ratio(sum(proof_sizes), len(proof_sizes)):.0f}")
    return Outcome(end_to_end, per_layer, len(done) * len(ops), failed, notes)
