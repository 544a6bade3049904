"""Unit tests for the workspace directory abstraction."""

from repro.diskio.workspace import Workspace


def test_open_file_is_cached(tmp_path):
    ws = Workspace(str(tmp_path / "ws"), page_size=128)
    a = ws.open_file("f1")
    b = ws.open_file("f1", create=False)
    assert a is b


def test_open_file_rejects_mismatched_reopen(tmp_path):
    """A cached handle keeps the first opener's category; a later open
    asking for another must fail loudly instead of silently handing back
    the first one."""
    import pytest

    from repro.common.errors import StorageError

    ws = Workspace(str(tmp_path / "ws"), page_size=128)
    ws.open_file("f1", category="value")
    # A matching category still shares the handle.
    assert ws.open_file("f1", category="value", create=False) is not None
    with pytest.raises(StorageError, match="already open"):
        ws.open_file("f1", category="index", create=False)
    # remove_file forgets the handle: a fresh open may choose another
    # category.
    ws.remove_file("f1")
    assert ws.open_file("f1", category="other").category == "other"
    ws.close()


def test_storage_bytes_counts_files_and_raw(tmp_path):
    ws = Workspace(str(tmp_path / "ws"), page_size=128)
    file = ws.open_file("f1")
    file.append_page(b"x")
    ws.register_raw("bloom", 100)
    assert ws.storage_bytes() == 128 + 100
    ws.unregister_raw("bloom")
    assert ws.storage_bytes() == 128


def test_remove_file(tmp_path):
    ws = Workspace(str(tmp_path / "ws"), page_size=128)
    file = ws.open_file("gone")
    file.append_page(b"x")
    ws.remove_file("gone")
    assert not ws.exists("gone")
    assert ws.storage_bytes() == 0


def test_remove_missing_file_is_noop(tmp_path):
    ws = Workspace(str(tmp_path / "ws"), page_size=128)
    ws.remove_file("never-existed")


def test_list_files_sorted(tmp_path):
    ws = Workspace(str(tmp_path / "ws"), page_size=128)
    ws.open_file("b").append_page(b"1")
    ws.open_file("a").append_page(b"1")
    assert list(ws.list_files()) == ["a", "b"]


def test_shared_stats(tmp_path):
    ws = Workspace(str(tmp_path / "ws"), page_size=128)
    ws.open_file("f", category="value").append_page(b"1")
    assert ws.stats.page_writes["value"] == 1
