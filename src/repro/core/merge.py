"""Sort-merge of runs and the background-merge scheduler (Algorithm 1
line 9 / Algorithm 5 lines 9-21).

Compound keys are globally unique (one ``<addr, blk>`` pair is written at
most once — re-updates within a block overwrite in L0), so the k-way merge
is a plain heap merge; equal keys would indicate corruption and are
resolved in favour of the newest run for defence in depth.

:class:`MergeScheduler` starts every run build — the L0 flush, the
per-level checkpoint merges, and the restart of aborted merges — on a
``concurrent.futures`` executor: inline for COLE, a thread pool for COLE*.
The build's :class:`PendingMerge` stays invisible to queries until a
commit checkpoint lands it (Figure 8).
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Tuple, TYPE_CHECKING

from repro.common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.run import Run

Entry = Tuple[int, bytes]

#: Cap of COLE*'s build pool.  A cascade has at most one build per level
#: in flight (plus the L0 flush), far fewer than this, so a builder never
#: queues behind an unrelated merge.
MAX_MERGE_WORKERS = 64


def _tag_stream(stream: Iterable[Entry], priority: int) -> Iterator[Tuple[int, int, bytes]]:
    """Bind the stream's merge priority eagerly (avoids late-binding bugs)."""
    for key, value in stream:
        yield key, priority, value


def merge_entry_streams(streams: List[Iterable[Entry]]) -> Iterator[Entry]:
    """Merge sorted entry streams; ``streams`` are ordered oldest first.

    On duplicate keys the entry from the newest stream wins (higher list
    index = newer run).
    """
    tagged = [_tag_stream(stream, -index) for index, stream in enumerate(streams)]
    last_key: int | None = None
    for key, _priority, value in heapq.merge(*tagged):
        if key == last_key:
            continue  # older duplicate, already emitted the newest
        last_key = key
        yield key, value


@dataclass
class PendingMerge:
    """A run build in flight: its future plus what the commit checkpoint
    that lands it needs.

    The output run's files exist on disk but the run belongs to no group
    and no ``root_hash_list`` entry until that checkpoint — queries
    cannot see it, which is exactly the "uncommitted file" state of
    Figure 8.
    """

    future: "Future[Run]"
    name: str
    level: int
    kind: str
    checkpoint_puts: int = 0  # put counter covered by the output run
    checkpoint_blk: int = -1  # block height covered by the output run

    def wait(self) -> "Run":
        """Block until the build finishes and return its run (Algorithm 5
        line 9).

        A failed build is re-raised here, every time, as a
        :class:`StorageError` naming the run and level it was building,
        chained to the original exception.
        """
        error = self.future.exception()  # joins the build
        if error is not None:
            raise StorageError(
                f"background {self.kind} building run {self.name} "
                f"(level {self.level}) failed: {error!r}"
            ) from error
        return self.future.result()


class InlineExecutor(Executor):
    """COLE's executor (Algorithm 1): ``submit`` runs the call before it
    returns, so the build lands inside the commit that started it."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # an interrupt is the caller's own: let it out
            future.set_exception(exc)
        return future


class MergeScheduler:
    """Starts the run builders of one engine on the executor chosen at
    open: :class:`InlineExecutor` for COLE, a thread pool for COLE*.

    Every start site (L0 flush, level merge, recovery and rewind
    restarts) goes through :meth:`spawn`, so build metrics and the
    failure wording exist once.  The pool reuses its threads — under GIL
    pressure ``Thread.start`` stalls the commit path for milliseconds —
    and adds one only when none is idle.
    """

    def __init__(self, inline: bool = False) -> None:
        self.inline = inline
        self._executor: Executor = (
            InlineExecutor()
            if inline
            else ThreadPoolExecutor(MAX_MERGE_WORKERS, "cole-merge")
        )
        #: Optional :class:`~repro.obs.MetricsRegistry`: when a server
        #: attaches one, every build reports its duration and the bytes
        #: of the run it wrote (merge write amplification, observable).
        self.metrics = None

    def spawn(
        self,
        kind: str,
        name: str,
        build: Callable[[], "Run"],
        *,
        level: int = 0,
        checkpoint_puts: int = 0,
        checkpoint_blk: int = -1,
    ) -> PendingMerge:
        """Start ``build``; returns its handle.

        ``checkpoint_puts`` / ``checkpoint_blk`` record the durability
        point the output run will cover once committed (Section 4.3).
        An inline build has already run: its failure raises here, before
        the caller's checkpoint has moved anything.
        """

        def task() -> "Run":
            started = time.perf_counter()
            run = build()
            metrics = self.metrics
            if metrics is not None:
                metrics.histogram(
                    "repro_merge_seconds",
                    help="Run build duration by kind",
                    kind=kind,
                ).observe(time.perf_counter() - started)
                try:
                    written = run.storage_bytes()
                except OSError:
                    written = 0
                metrics.counter(
                    "repro_merge_bytes_rewritten_total",
                    help="Bytes written by merge/flush builds",
                ).inc(written)
                metrics.counter(
                    "repro_compaction_bytes_total",
                    help="Run-build output bytes by kind and level",
                    kind=kind,
                    level=str(level),
                ).inc(written)
            return run

        pending = PendingMerge(
            self._executor.submit(task), name, level, kind, checkpoint_puts, checkpoint_blk
        )
        if self.inline:
            pending.wait()
        return pending

    def close(self) -> None:
        """Finish queued builds and stop the workers (engine close path)."""
        self._executor.shutdown(wait=True)
