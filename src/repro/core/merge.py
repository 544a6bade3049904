"""The engine's one k-way merge and the background-merge scheduler
(Algorithm 1 line 9 / Algorithm 5 lines 9-21).

:func:`merge_newest_first` is the newest-wins merge of sorted streams
that both run builds (flush and level merges) and range scans ride; the
baseline LSM merges its tables with it too.  Compound keys are globally
unique (one ``<addr, blk>`` pair is written at most once — re-updates
within a block overwrite in L0), so it is a plain heap merge; equal keys
would indicate corruption (or overlapping snapshots) and resolve in
favour of the newest stream for defence in depth.

Every run build — the L0 flush, the per-level checkpoint merges, and
the restart of aborted merges — is a :class:`BuildSpec`, a value, which
:class:`MergeScheduler` runs on a ``concurrent.futures`` executor: inline
for COLE, a thread pool for COLE*.  The build's :class:`PendingMerge`
stays invisible to queries until a commit checkpoint lands it (Figure 8).
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, TypeVar, TYPE_CHECKING

from repro.common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.run import Run

E = TypeVar("E")

#: Cap of COLE*'s build pool.  A cascade has at most one build per level
#: in flight (plus the L0 flush), far fewer than this, so a builder never
#: queues behind an unrelated merge.
MAX_MERGE_WORKERS = 64


def merge_newest_first(
    streams: Sequence[Iterable[E]], key: Callable[[E], object] = itemgetter(0)
) -> Iterator[E]:
    """Merge sorted streams, ordered **newest first**, on ``key`` of each
    entry (by default ``entry[0]`` of a ``(key, value)`` tuple).

    ``heapq.merge`` is stable, so on an equal key the newest stream's
    entry comes out first and the older duplicates are skipped.  Only
    keys are compared — a value may be anything, a ``None`` tombstone
    included.
    """
    last_key = None
    for entry in heapq.merge(*streams, key=key):
        entry_key = key(entry)
        if entry_key == last_key:
            continue  # older duplicate, already emitted the newest
        last_key = entry_key
        yield entry


def merge_entry_streams(streams: List[Iterable[bytes]], key_size: int) -> Iterator[bytes]:
    """The run build's merge of encoded pairs (``key || value``, the
    value-file bytes): ``streams`` are ordered oldest first.

    Fixed-width big-endian keys order as bytes exactly as they do as
    integers, so the pairs merge on their ``key_size``-byte prefix and
    nothing is decoded.
    """
    return merge_newest_first(streams[::-1], key=itemgetter(slice(0, key_size)))


@dataclass(frozen=True)
class BuildSpec:
    """One run build as a value: what ``repro.core.storage.execute``
    needs besides the workspace and the parameters.  It pickles, and it
    reads nothing but the files it names, so it replays in any workspace
    holding its sources."""

    name: str  # of the output run
    level: int
    num_entries: int
    pairs: Tuple[bytes, ...]  # L0's drained entries, encoded: the newest input
    sources: Tuple[Tuple[str, int], ...]  # (run name, entries), oldest first

    @property
    def kind(self) -> str:
        return "merge" if self.sources else "flush"


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
    spec: BuildSpec
    checkpoint_puts: int = 0  # put counter covered by the output run
    checkpoint_blk: int = -1  # block height covered by the output run

    @property
    def name(self) -> str:
        return self.spec.name

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
                f"background {self.spec.kind} building run {self.name} "
                f"(level {self.spec.level}) failed: {error!r}"
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
    """Runs the build specs of one engine through ``execute`` on the
    executor chosen at open: :class:`InlineExecutor` for COLE, a thread
    pool for COLE*.

    Every start site (L0 flush, level merge, recovery and rewind
    restarts, rewind's rebuilds) goes through :meth:`spawn`, so build
    metrics and the failure wording exist once.  The pool reuses its
    threads — under GIL pressure ``Thread.start`` stalls the commit path
    for milliseconds — and adds one only when none is idle.
    """

    def __init__(self, execute: Callable[[BuildSpec], "Run"], inline: bool = False) -> None:
        self.inline = inline
        self._execute = execute
        self._executor: Executor = (
            InlineExecutor()
            if inline
            else ThreadPoolExecutor(MAX_MERGE_WORKERS, "cole-merge")
        )
        #: Optional :class:`~repro.obs.MetricsRegistry`: when a server
        #: attaches one, every build reports its duration.
        self.metrics = None

    def spawn(
        self, spec: BuildSpec, checkpoint_puts: int = 0, checkpoint_blk: int = -1
    ) -> PendingMerge:
        """Start the build of ``spec``; returns its handle.

        ``checkpoint_puts`` / ``checkpoint_blk`` record the durability
        point the output run will cover once committed (Section 4.3).
        An inline build has already run: its failure raises here, before
        the caller's checkpoint has moved anything.
        """
        pending = PendingMerge(
            self._executor.submit(self._build, spec), spec, checkpoint_puts, checkpoint_blk
        )
        if self.inline:
            pending.wait()
        return pending

    def _build(self, spec: BuildSpec) -> "Run":
        started = time.perf_counter()
        run = self._execute(spec)
        metrics = self.metrics
        if metrics is not None:
            metrics.histogram(
                "repro_merge_seconds",
                help="Run build duration by kind",
                kind=spec.kind,
            ).observe(time.perf_counter() - started)
        return run

    def close(self) -> None:
        """Finish queued builds and stop the workers (engine close path)."""
        self._executor.shutdown(wait=True)
