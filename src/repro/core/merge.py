"""Sort-merge of runs and the background-merge scheduler (Algorithm 1
line 9 / Algorithm 5 lines 9-21).

Compound keys are globally unique (one ``<addr, blk>`` pair is written at
most once — re-updates within a block overwrite in L0), so the k-way merge
is a plain heap merge; equal keys would indicate corruption and are
resolved in favour of the newest run for defence in depth.

:class:`MergeScheduler` owns the thread lifecycle of every background run
builder — the L0 flush, the per-level checkpoint merges, and the recovery
restart of aborted merges all spawn through it, so error capture and the
"output invisible until the commit checkpoint" discipline (Figure 8) are
implemented exactly once.
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.run import Run

Entry = Tuple[int, bytes]


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


class PendingMerge:
    """A background merge: the thread plus its (uncommitted) output run.

    The output run's files exist on disk but the run belongs to no group
    and no ``root_hash_list`` entry until the commit checkpoint — queries
    cannot see it, which is exactly the "uncommitted file" state of
    Figure 8.
    """

    def __init__(self, *, name: str = "", level: int = 0, kind: str = "merge") -> None:
        self.future: Optional[Future] = None
        self.name = name
        self.level = level
        self.kind = kind
        self.output: Optional["Run"] = None
        self.checkpoint_puts: int = 0  # put counter covered by the output run
        self.checkpoint_blk: int = -1  # block height covered by the output run
        self.error: Optional[BaseException] = None

    def wait(self) -> None:
        """Block until the merge task finishes (Algorithm 5 line 9).

        A failure in the background task is re-raised here as a
        :class:`StorageError` naming the run and level it was building,
        chained to the original exception.
        """
        if self.future is not None:
            self.future.result()  # the task traps its own errors; this joins
        if self.error is not None:
            label = self.name if self.name else "<unnamed>"
            raise StorageError(
                f"background {self.kind} building run {label} "
                f"(level {self.level}) failed: {self.error!r}"
            ) from self.error


class MergeScheduler:
    """Spawns and tracks the background run builders of one engine.

    ``build`` closures produce the output :class:`Run`; the scheduler owns
    worker lifecycle, output capture, and error capture, so every spawn
    site (L0 flush, level merge, recovery restart) behaves identically.

    Tasks run on persistent, reused worker threads rather than one fresh
    thread per merge: under GIL pressure ``Thread.start`` stalls the
    commit path for milliseconds waiting for the new thread to come
    alive, which at one flush per block is a measurable share of write
    latency.  The pool grows on demand (a worker is added only when no
    idle worker is available), so a deep cascade — L0 flush plus one
    merge per level in flight at once — never queues a builder behind an
    unrelated merge: every spawned task starts immediately, exactly as
    the thread-per-merge design did.
    """

    def __init__(self, name_prefix: str = "cole") -> None:
        self.name_prefix = name_prefix
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Callable[[], None]]]" = queue.Queue()
        self._idle = 0  # parked workers not yet reserved by a dispatch
        self._workers: List[threading.Thread] = []
        #: Optional :class:`~repro.obs.MetricsRegistry`: when a server
        #: attaches one, every build reports its duration and the bytes
        #: of the run it wrote (merge write amplification, observable).
        self.metrics = None

    def _dispatch(self, task: Callable[[], None]) -> None:
        with self._lock:
            if self._idle > 0:
                # Reserve a parked worker: it is guaranteed to take this
                # task, so back-to-back dispatches in one cascade can
                # never queue two tasks onto the same worker.
                self._idle -= 1
            else:
                worker = threading.Thread(
                    target=self._work,
                    name=f"{self.name_prefix}-merge-{len(self._workers)}",
                    # Daemon: an engine that is never close()d must not
                    # pin the interpreter open on idle workers.  Clean
                    # shutdown drains the queue via close() sentinels.
                    daemon=True,
                )
                self._workers.append(worker)
                worker.start()
            self._queue.put(task)

    def _work(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:  # shutdown sentinel: retract the idle advert
                with self._lock:
                    self._idle -= 1
                return
            task()
            task = None  # drop the closure, and the merged-away runs it names
            with self._lock:
                self._idle += 1  # advertised only once actually available

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
        """Start ``build`` on a background worker; returns its handle.

        ``checkpoint_puts`` / ``checkpoint_blk`` record the durability
        point the output run will cover once committed (Section 4.3).
        """
        pending = PendingMerge(name=name, level=level, kind=kind)
        pending.checkpoint_puts = checkpoint_puts
        pending.checkpoint_blk = checkpoint_blk
        done = Future()  # type: Future

        def task() -> None:
            started = time.perf_counter()
            try:
                pending.output = build()
            except BaseException as exc:  # surfaced at the next checkpoint
                pending.error = exc
            else:
                metrics = self.metrics
                if metrics is not None:
                    metrics.histogram(
                        "repro_merge_seconds",
                        help="Run build duration by kind",
                        kind=kind,
                    ).observe(time.perf_counter() - started)
                    if pending.output is not None:
                        try:
                            written = pending.output.storage_bytes()
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
            done.set_result(None)

        pending.future = done
        self._dispatch(task)
        return pending

    def close(self) -> None:
        """Stop all workers (idempotent; engine close path).

        Queued tasks drain first (FIFO), then each worker exits on its
        sentinel; the idle count is reset so a scheduler reused after
        close starts from a clean slate.
        """
        with self._lock:
            workers, self._workers = self._workers, []
        for _worker in workers:
            self._queue.put(None)
        for worker in workers:
            worker.join()
        with self._lock:
            self._idle = 0
