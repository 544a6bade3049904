"""The invariant lint suite (`repro lint`) and the lock-order detector.

Fixture corpus: ``tests/fixtures/lint/bad`` carries one violation per
flagged shape, ``tests/fixtures/lint/good`` the sanctioned idioms (plus
one justified suppression).  The live-tree self-check pins the merged
tree at zero findings — the same gate CI enforces.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.analysis import (
    DebugLock,
    LockOrderError,
    LockOrderGraph,
    maybe_debug_lock,
    reset_lock_order,
    run_lint,
)
from repro.common.debuglock import GRAPH, debug_locks_enabled
from repro.common.gate import CommitGate

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def rules_of(report):
    return sorted({f.rule for f in report.findings})


# =============================================================================
# static checkers: the bad corpus
# =============================================================================

class TestBadCorpus:
    @pytest.fixture(scope="class")
    def report(self):
        return run_lint(root=FIXTURES / "bad")

    def test_every_rule_fires(self, report):
        assert rules_of(report) == [
            "async-blocking-call",
            "error-taxonomy",
            "gate-discipline",
        ]

    def test_gate_discipline_findings(self, report):
        lines = {
            (f.path, f.line)
            for f in report.findings
            if f.rule == "gate-discipline"
        }
        assert lines == {
            ("core/storage.py", 14),  # unguarded mutator
            ("core/storage.py", 19),  # nested acquisition
            ("core/storage.py", 29),  # public re-acquirer while held
            ("core/storage.py", 33),  # structure read around the view
            ("core/storage.py", 37),  # view swapped outside exclusive
            ("server/handlers.py", 16),  # gate inside async def
        }

    def test_async_blocking_findings(self, report):
        msgs = [
            f.message for f in report.findings if f.rule == "async-blocking-call"
        ]
        assert len(msgs) == 8
        for needle in (
            "time.sleep",
            "os.fsync",
            "CommitGate.shared",
            "engine.get",
            "wal.sync",
            # callbacks.py: an fsync behind a plain def the loop reaches.
            "loop callback data_received: os.fsync() is an fsync",
            "loop callback _tick: self.wal.sync() is an fsync",
            "loop callback _flush: self.wal.sync() is an fsync",
        ):
            assert any(needle in m for m in msgs), needle

    def test_error_taxonomy_findings(self, report):
        msgs = [
            f.message for f in report.findings if f.rule == "error-taxonomy"
        ]
        assert len(msgs) == 3
        assert any("bare `except:`" in m for m in msgs)
        assert any("swallows every error" in m for m in msgs)
        assert any("raise WalError" in m for m in msgs)


# =============================================================================
# static checkers: the good corpus + suppression
# =============================================================================

def test_good_corpus_is_clean():
    report = run_lint(root=FIXTURES / "good")
    assert report.findings == []
    # handlers.py and callbacks.py each carry one justified
    # async-blocking-call suppression.
    assert report.suppressed == 2


def test_suppression_is_per_line_and_per_rule(tmp_path):
    scoped = tmp_path / "server"
    scoped.mkdir()
    (scoped / "mod.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "async def a():\n"
        "    time.sleep(1)  # repro-lint: disable=async-blocking-call; ok\n"
        "\n"
        "\n"
        "async def b():\n"
        "    time.sleep(1)  # repro-lint: disable=some-other-rule\n"
    )
    report = run_lint(root=tmp_path)
    assert report.suppressed == 1
    assert [f.line for f in report.findings] == [9]


def test_json_report_schema_is_pinned():
    report = run_lint(root=FIXTURES / "bad")
    data = json.loads(report.to_json())
    assert set(data) == {
        "version",
        "root",
        "rules",
        "counts",
        "suppressed",
        "findings",
    }
    assert data["version"] == 1
    assert data["rules"] == [
        "gate-discipline",
        "async-blocking-call",
        "error-taxonomy",
    ]
    assert data["counts"] == {
        "gate-discipline": 6,
        "async-blocking-call": 8,
        "error-taxonomy": 3,
    }
    for finding in data["findings"]:
        assert set(finding) == {"rule", "path", "line", "message"}
        assert isinstance(finding["line"], int)
    # Deterministic ordering: sorted by (path, line, rule, message).
    keys = [(f["path"], f["line"], f["rule"], f["message"]) for f in data["findings"]]
    assert keys == sorted(keys)


def test_live_tree_reports_zero_findings():
    """The CI gate: the merged tree must lint clean."""
    report = run_lint()
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )


def test_cli_lint_exit_codes(capsys):
    from repro.cli import main

    assert main(["lint", "--root", str(FIXTURES / "good")]) == 0
    text = capsys.readouterr().out
    assert text.startswith("repro lint: 0 findings")
    assert main(["lint", "--root", str(FIXTURES / "bad"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["counts"]["gate-discipline"] == 6


# =============================================================================
# the dynamic lock-order detector
# =============================================================================

class TestLockOrder:
    def test_consistent_order_is_fine(self):
        graph = LockOrderGraph()
        a, b = DebugLock("A", graph), DebugLock("B", graph)
        for _ in range(2):
            with a:
                with b:
                    pass
        assert graph.edges() == {"A": {"B"}}

    def test_induced_cycle_fails_loudly(self):
        graph = LockOrderGraph()
        a, b = DebugLock("A", graph), DebugLock("B", graph)
        with a:
            with b:
                pass
        with pytest.raises(LockOrderError, match="A.*B.*A|B.*A.*B"):
            with b:
                with a:
                    pass

    def test_three_lock_cycle(self):
        graph = LockOrderGraph()
        a, b, c = (DebugLock(n, graph) for n in "ABC")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(LockOrderError):
            with c:
                with a:
                    pass

    def test_same_name_pairs_do_not_self_cycle(self):
        graph = LockOrderGraph()
        s1, s2 = DebugLock("shard", graph), DebugLock("shard", graph)
        with s1:
            with s2:
                pass
        with s2:
            with s1:
                pass
        assert graph.edges() == {}

    def test_cross_thread_inversion_detected(self):
        graph = LockOrderGraph()
        a, b = DebugLock("A", graph), DebugLock("B", graph)
        with a:
            with b:
                pass
        caught = []

        def invert():
            try:
                with b:
                    with a:
                        pass
            except LockOrderError as exc:
                caught.append(exc)

        thread = threading.Thread(target=invert)
        thread.start()
        thread.join()
        assert len(caught) == 1

    def test_maybe_debug_lock_is_plain_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG_LOCKS", raising=False)
        assert not debug_locks_enabled()
        lock = maybe_debug_lock("x")
        assert not isinstance(lock, DebugLock)
        with lock:
            pass

    def test_maybe_debug_lock_tracks_under_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_LOCKS", "1")
        lock = maybe_debug_lock("env-probe")
        assert isinstance(lock, DebugLock)
        try:
            with lock:
                pass
        finally:
            reset_lock_order()


class TestCommitGateTracking:
    @pytest.fixture(autouse=True)
    def clean_graph(self):
        reset_lock_order()
        yield
        reset_lock_order()

    def test_gate_feeds_the_graph(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_LOCKS", "1")
        top = CommitGate("t-top")
        shard = CommitGate("t-shard")
        with top.exclusive():
            with shard.exclusive():
                pass
        with top.shared():
            with shard.shared():
                pass
        assert GRAPH.edges() == {"t-top": {"t-shard"}}
        with pytest.raises(LockOrderError):
            with shard.exclusive():
                with top.exclusive():
                    pass

    def test_untracked_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG_LOCKS", raising=False)
        gate = CommitGate("untracked")
        with gate.exclusive():
            pass
        with gate.shared():
            pass
        assert "untracked" not in GRAPH.edges()

    def test_sharded_engine_orders_cleanly_under_detector(
        self, monkeypatch, tmp_path
    ):
        """A real engine hammer with tracking on: the documented
        top-gate-before-shard-gate order must build an acyclic graph."""
        monkeypatch.setenv("REPRO_DEBUG_LOCKS", "1")
        from repro.common.params import ColeParams, ShardParams
        from repro.sharding import ShardedCole

        engine = ShardedCole(
            str(tmp_path),
            ShardParams(cole=ColeParams(mem_capacity=64), num_shards=2),
        )
        try:
            for blk in range(1, 6):
                engine.begin_block(blk)
                engine.put_many(
                    [
                        (bytes([i, blk]) * 16, bytes([blk]) * 8)
                        for i in range(8)
                    ]
                )
                engine.commit_block()
            for i in range(8):
                engine.get(bytes([i, 1]) * 16)
        finally:
            engine.close()
        edges = GRAPH.edges()
        assert "cole-gate" in edges.get("shardedcole-gate", set())
        assert "shardedcole-gate" not in edges.get("cole-gate", set())
