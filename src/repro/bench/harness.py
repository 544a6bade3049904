"""Engine construction and workload execution for the experiments.

Engine names follow the paper: ``mpt``, ``cole``, ``cole*`` (asynchronous
merge), ``lipp``, ``cmi``.  All engines share one address/value geometry
so the contracts issue byte-identical state accesses.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.baselines import CMIStorage, LIPPStorage, MPTStorage
from repro.chain.contracts import ExecutionContext
from repro.chain.executor import BlockExecutor, ExecutionMetrics
from repro.chain.transaction import Transaction
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.diskio.iostats import IOStats

#: Geometry shared by every engine in the benchmarks (32-byte addresses +
#: 40-byte values: an 80-byte pair, within rounding of the paper's 88).
BENCH_SYSTEM = SystemParams(addr_size=32, value_size=40, page_size=4096)

BENCH_CONTEXT = ExecutionContext(
    addr_size=BENCH_SYSTEM.addr_size, value_size=BENCH_SYSTEM.value_size
)


@dataclass(frozen=True)
class EngineSpec:
    """How to build one engine under test."""

    name: str
    factory: Callable[[str, Optional[IOStats]], object]
    max_blocks: Optional[int] = None  # paper's "cannot scale" cut-offs


#: Table 2 geometry every COLE-family benchmark engine starts from.
BENCH_COLE_PARAMS = ColeParams(
    system=BENCH_SYSTEM, mem_capacity=512, size_ratio=4, mht_fanout=4
)


def _make_cole(directory: str, stats: Optional[IOStats], **overrides) -> Cole:
    params = BENCH_COLE_PARAMS
    if overrides:
        params = replace(params, **overrides)
    return Cole(directory, params, stats=stats)


#: The paper gives RocksDB and COLE's in-memory level the same 64 MB
#: budget; scaled down, the baselines' memtables get the same entry count
#: as COLE's B.
BASELINE_MEMTABLE = 512

ENGINES: Dict[str, EngineSpec] = {
    "mpt": EngineSpec(
        "mpt", lambda d, s: MPTStorage(d, stats=s, memtable_capacity=BASELINE_MEMTABLE)
    ),
    "cole": EngineSpec("cole", lambda d, s: _make_cole(d, s, async_merge=False)),
    "cole*": EngineSpec("cole*", lambda d, s: _make_cole(d, s, async_merge=True)),
    # The paper could not finish LIPP past ~10^2-10^3 blocks and CMI past
    # 10^4; the same cliffs exist here, scaled down.
    "lipp": EngineSpec(
        "lipp",
        lambda d, s: LIPPStorage(d, stats=s, memtable_capacity=BASELINE_MEMTABLE),
        max_blocks=120,
    ),
    "cmi": EngineSpec(
        "cmi",
        lambda d, s: CMIStorage(d, stats=s, memtable_capacity=BASELINE_MEMTABLE),
        max_blocks=400,
    ),
}


def make_engine(
    name: str,
    directory: str,
    stats: Optional[IOStats] = None,
    cole_overrides: Optional[dict] = None,
):
    """Instantiate the named engine in ``directory``; ``cole_overrides``
    are :class:`ColeParams` fields of a ``cole`` / ``cole*`` engine."""
    if name in ("cole", "cole*") and cole_overrides:
        overrides = dict(cole_overrides)
        overrides["async_merge"] = name == "cole*"
        return _make_cole(directory, stats, **overrides)
    return ENGINES[name].factory(directory, stats)


def fresh_dir(prefix: str = "repro-bench-") -> str:
    """A temporary workspace directory (caller removes it)."""
    return tempfile.mkdtemp(prefix=prefix)


def run_chain(
    backend,
    transactions: Iterable[Transaction],
    txs_per_block: int = 10,
    record_latencies: bool = True,
    executor: Optional[BlockExecutor] = None,
) -> Tuple[BlockExecutor, ExecutionMetrics]:
    """Execute ``transactions`` on ``backend``; returns executor + metrics.

    Pass the ``executor`` of a previous phase (e.g. the loading phase) to
    keep appending blocks to the same chain.
    """
    if executor is None:
        executor = BlockExecutor(
            backend,
            BENCH_CONTEXT,
            txs_per_block=txs_per_block,
            record_latencies=record_latencies,
        )
    else:
        executor.record_latencies = record_latencies
        executor.txs_per_block = txs_per_block
    metrics = executor.run(transactions)
    return executor, metrics


def cleanup(backend, directory: str) -> None:
    """Close the engine and delete its workspace."""
    backend.close()
    shutil.rmtree(directory, ignore_errors=True)
