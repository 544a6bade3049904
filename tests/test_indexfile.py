"""Unit tests for the layered learned index file (Algorithm 3 + 7)."""

import random

import pytest

from repro.common.errors import StorageError
from repro.common.params import SystemParams
from repro.core.indexfile import IndexFile, IndexFileBuilder
from repro.diskio.pagefile import PagedFile


def build_index(tmp_path, keys, system, name="i.idx"):
    file = PagedFile(str(tmp_path / name), system.page_size)
    builder = IndexFileBuilder(file, system)
    builder.add_bottom_models((key, position) for position, key in enumerate(keys))
    layers = builder.finish()
    return IndexFile(file, system), layers


def test_small_run_single_layer(tmp_path):
    system = SystemParams(addr_size=8, value_size=8, page_size=512)
    keys = [i * 2**64 for i in range(1, 40)]
    index, layers = build_index(tmp_path, keys, system)
    assert index.num_layers == 1
    for position, key in enumerate(keys):
        predicted = index.search(key)
        assert predicted is not None
        assert abs(predicted - position) <= system.epsilon + 1


def test_search_before_first_key_returns_none(tmp_path):
    system = SystemParams(addr_size=8, value_size=8, page_size=512)
    keys = [i * 2**64 for i in range(10, 40)]
    index, _layers = build_index(tmp_path, keys, system)
    assert index.search(5 * 2**64) is None


def test_multi_layer_index(tmp_path):
    # Small pages force many models per layer and several layers.
    system = SystemParams(addr_size=8, value_size=8, page_size=256)
    rng = random.Random(4)
    keys = sorted({rng.getrandbits(60) * 2**64 + rng.randrange(100) for _ in range(3000)})
    # Step pattern defeats single-model fits.
    index, layers = build_index(tmp_path, keys, system)
    assert index.num_layers >= 2
    epsilon = system.epsilon
    for position in range(0, len(keys), 97):
        key = keys[position]
        predicted = index.search(key)
        assert predicted is not None
        assert abs(predicted - position) <= max(epsilon + 1, 2)


def test_search_between_keys_floors(tmp_path):
    system = SystemParams(addr_size=8, value_size=8, page_size=512)
    keys = [i * 2**64 for i in range(1, 30)]
    index, _layers = build_index(tmp_path, keys, system)
    # A probe between keys i and i+1 must predict near position of i.
    probe = keys[10] + 1
    predicted = index.search(probe)
    assert predicted is not None
    assert abs(predicted - 10) <= system.epsilon + 1


def test_empty_index_rejected(tmp_path):
    system = SystemParams(addr_size=8, value_size=8, page_size=512)
    file = PagedFile(str(tmp_path / "e.idx"), system.page_size)
    builder = IndexFileBuilder(file, system)
    with pytest.raises(StorageError):
        builder.finish()


def test_metadata_survives_reopen(tmp_path):
    system = SystemParams(addr_size=8, value_size=8, page_size=512)
    keys = [i * 2**64 for i in range(1, 100)]
    path = str(tmp_path / "m.idx")
    file = PagedFile(path, system.page_size)
    builder = IndexFileBuilder(file, system)
    builder.add_bottom_models((key, pos) for pos, key in enumerate(keys))
    builder.finish()
    file.close()
    reopened = IndexFile(PagedFile(path, system.page_size, create=False), system)
    assert reopened.num_layers >= 1
    assert reopened.search(keys[50]) is not None


def test_corrupt_metadata_detected(tmp_path):
    system = SystemParams(addr_size=8, value_size=8, page_size=512)
    path = str(tmp_path / "c.idx")
    file = PagedFile(path, system.page_size)
    file.append_page(b"not an index")
    with pytest.raises(StorageError):
        IndexFile(file, system)


def test_bottom_model_count_reported(tmp_path):
    system = SystemParams(addr_size=8, value_size=8, page_size=256)
    keys = [(i // 10) * 2**70 + i for i in range(500)]
    index, _layers = build_index(tmp_path, keys, system)
    assert index.num_bottom_models >= 1
