"""The manifest's ``format`` and ``compaction`` guards and its error taxonomy.

Format 2 run files pack a Merkle file's layers back to back and end an
index file with its layer table.  A manifest without ``format`` that
names runs describes page-aligned files this build does not read, and
one recording ``"compaction": "tiering"`` runs laid out by a policy this
build does not have.  Every door that opens a manifest refuses either,
naming ``repro export`` / ``repro import``: the engine, a ``repro``
workspace verb and ``restore_store``, the last before it lays out any
file.  Any other text that is not a manifest raises ``StorageError``
naming the file.
"""

import json
import os
import random
import re
import zlib

import pytest

from repro.cli import main
from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.core.manifest import MANIFEST_FORMAT, MANIFEST_NAME, Manifest, load_manifest
from repro.wal.snapshot import SNAPSHOT_META_NAME, restore_store, snapshot_store

PARAMS = ColeParams(
    system=SystemParams(addr_size=20, value_size=32), mem_capacity=16, size_ratio=3
)


def load_blocks(engine, blocks=12):
    rng = random.Random(7)
    for blk in range(1, blocks + 1):
        engine.begin_block(blk)
        engine.put_many([(rng.randbytes(20), rng.randbytes(32)) for _ in range(5)])
        engine.commit_block()


def drop_format(payload):
    """The manifest as a build before format 2 wrote it."""
    del payload["format"]


def record_tiering(payload):
    """The manifest as a build with the ``tiering`` policy wrote it."""
    payload["compaction"] = "tiering"


def rewrite_manifest(path, edit):
    with open(path) as handle:
        payload = json.load(handle)
    edit(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)


def closed_store(directory, edit):
    """A closed workspace with committed runs and an ``edit``ed manifest."""
    engine = Cole(directory, PARAMS)
    load_blocks(engine)
    assert engine.levels
    engine.close()
    rewrite_manifest(os.path.join(directory, MANIFEST_NAME), edit)
    return directory


@pytest.fixture
def old_store(tmp_path):
    """A closed workspace with committed runs and no manifest ``format``."""
    return closed_store(str(tmp_path / "ws"), drop_format)


@pytest.fixture
def tiering_store(tmp_path):
    """A closed workspace with committed runs laid out by ``tiering``."""
    return closed_store(str(tmp_path / "ws"), record_tiering)


VALID = json.loads(Manifest(levels={1: {"writing": [], "merging": []}}).to_json())
MALFORMED = {
    "empty object": "{}",
    "run record without fields": json.dumps(
        dict(VALID, levels={"1": {"writing": [{"name": "L1_00000000"}]}})
    ),
    "a list": "[]",
    "truncated": Manifest().to_json()[:40],
    "unknown format": json.dumps(dict(VALID, format=MANIFEST_FORMAT + 1)),
    "not utf-8": b"\xff\xfe{",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_manifest_raises_storage_error_naming_the_file(tmp_path, text):
    path = tmp_path / MANIFEST_NAME
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(StorageError, match=re.escape(str(path))):
        load_manifest(str(tmp_path))


def test_a_manifest_round_trips_its_format():
    manifest = Manifest(levels={1: {"writing": [], "merging": []}})
    assert json.loads(manifest.to_json())["format"] == MANIFEST_FORMAT
    assert Manifest.from_json(manifest.to_json()) == manifest


def test_a_manifest_without_format_or_runs_opens(tmp_path):
    payload = dict(VALID, levels={})
    del payload["format"]
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
    engine = Cole(str(tmp_path), PARAMS)
    load_blocks(engine, blocks=4)  # one flush: the manifest is rewritten
    assert engine.levels
    engine.close()
    assert json.loads((tmp_path / MANIFEST_NAME).read_text())["format"] == MANIFEST_FORMAT


def test_the_engine_refuses_a_formatless_manifest_naming_runs(old_store):
    before = sorted(os.listdir(old_store))
    with pytest.raises(StorageError, match="repro export"):
        Cole(old_store, PARAMS)
    assert sorted(os.listdir(old_store)) == before  # no run file was discarded


@pytest.mark.parametrize("verb", [["info"], ["query", "-w", "WS", "levels"]])
def test_a_workspace_verb_exits_1_naming_export(old_store, capsys, verb):
    argv = [old_store if arg == "WS" else arg for arg in verb]
    if verb == ["info"]:
        argv.append(old_store)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "StorageError" in err and "repro export" in err and "repro import" in err


def test_a_tiering_manifest_without_runs_opens(tmp_path):
    payload = dict(VALID, levels={}, compaction="tiering")
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
    engine = Cole(str(tmp_path), PARAMS)
    load_blocks(engine, blocks=4)  # one flush: the manifest is rewritten
    assert engine.levels
    engine.close()
    assert json.loads((tmp_path / MANIFEST_NAME).read_text())["compaction"] == "leveling"


def test_query_levels_exits_1_on_a_tiering_manifest(tiering_store, capsys):
    assert main(["query", "-w", tiering_store, "levels"]) == 1
    err = capsys.readouterr().err
    assert "StorageError" in err and "repro export" in err and "repro import" in err


def edited_snapshot(tmp_path, edit):
    """A snapshot whose manifest is ``edit``ed, with the manifest's size
    and crc32 in SNAPSHOT.json updated to match."""
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    load_blocks(engine)
    snapshot = str(tmp_path / "snap")
    snapshot_store(engine, snapshot)
    engine.close()
    manifest_path = os.path.join(snapshot, MANIFEST_NAME)
    rewrite_manifest(manifest_path, edit)
    meta_path = os.path.join(snapshot, SNAPSHOT_META_NAME)
    with open(meta_path) as handle:
        meta = json.load(handle)
    with open(manifest_path, "rb") as handle:
        raw = handle.read()
    meta["files"][MANIFEST_NAME].update(size=len(raw), crc32=zlib.crc32(raw))
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)
    return snapshot


def assert_restore_refuses(tmp_path, edit):
    snapshot = edited_snapshot(tmp_path, edit)
    dest = str(tmp_path / "restored")
    with pytest.raises(StorageError, match="repro export"):
        restore_store(snapshot, dest)
    assert not os.path.exists(dest)


def test_restore_refuses_a_formatless_snapshot_before_laying_out_files(tmp_path):
    assert_restore_refuses(tmp_path, drop_format)


def test_restore_refuses_a_tiering_snapshot_before_laying_out_files(tmp_path):
    assert_restore_refuses(tmp_path, record_tiering)
