"""Index files: the layered learned index of one run (Section 4.1).

Layout (all in fixed-size pages):

* layer 0 (bottom): ε-bounded models over (compound key, value-file
  position), written streamingly while the run is merged (Algorithm 3
  line 3);
* layers 1..top: models over (kmin, model position in the layer below),
  each built by scanning the layer below (Algorithm 3 lines 5-8), until a
  layer fits in a single page;
* a final metadata page recording the layer table, so a reader can start
  from the top layer ("FI's last page", Algorithm 7 line 4).

Each layer starts on a fresh page.  The bottom layer uses the value file's
ε (2ε = pairs per page); upper layers use the index file's own page
capacity (2ε' = models per page) so the ±1-page fallback of Algorithm 7
works for every layer it descends through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.common.codec import (
    clamp_key,
    decode_u32,
    decode_u64,
    encode_u32,
    encode_u64,
    floor_slot,
)
from repro.common.errors import StorageError
from repro.common.params import SystemParams
from repro.diskio.pagefile import PagedFile
from repro.learned.model import Model, predict_position
from repro.learned.plm import build_models

_MAGIC = b"CIDX"
_KMIN_OFFSET = 16  # a model record is ``sl || ic || kmin || pmax``


@dataclass(frozen=True)
class LayerInfo:
    """Placement of one model layer inside the index file."""

    start_page: int
    num_models: int


class IndexFileBuilder:
    """Streaming construction of the full layered index (Algorithm 3)."""

    def __init__(self, file: PagedFile, params: SystemParams) -> None:
        self._file = file
        self._params = params
        self._record_size = Model.record_size(params.key_size)
        self.models_per_page = max(2, params.page_size // self._record_size)
        self._layers: List[LayerInfo] = []
        self._page_buffer = bytearray()
        self._bottom_count = 0
        self._bottom_kmins: List[int] = []

    # -- bottom layer (streamed during the merge) ------------------------------

    def add_bottom_models(self, stream: Iterable[Tuple[int, int]]) -> None:
        """Learn and write the bottom layer from a (key, position) stream."""
        epsilon = self._params.epsilon
        for model in build_models(stream, epsilon):
            self._write_model(model)
            self._bottom_kmins.append(model.kmin)
            self._bottom_count += 1

    def _write_model(self, model: Model) -> None:
        self._page_buffer += model.to_bytes(self._params.key_size)
        if len(self._page_buffer) + self._record_size > self._params.page_size:
            self._file.append_page(bytes(self._page_buffer))
            self._page_buffer.clear()

    def _flush_page(self) -> None:
        if self._page_buffer:
            self._file.append_page(bytes(self._page_buffer))
            self._page_buffer.clear()

    # -- upper layers + metadata ------------------------------------------------

    def finish(self) -> List[LayerInfo]:
        """Build the upper layers and the metadata page; returns the table."""
        if self._bottom_count == 0:
            raise StorageError("index file needs at least one model")
        self._flush_page()
        self._layers.append(LayerInfo(start_page=0, num_models=self._bottom_count))
        kmins = self._bottom_kmins
        index_epsilon = self.models_per_page // 2
        while self._layers[-1].num_models > self.models_per_page:
            next_page = self._file.num_pages
            stream = ((kmin, position) for position, kmin in enumerate(kmins))
            upper_kmins: List[int] = []
            count = 0
            for model in build_models(stream, index_epsilon):
                self._write_model(model)
                upper_kmins.append(model.kmin)
                count += 1
            self._flush_page()
            self._layers.append(LayerInfo(start_page=next_page, num_models=count))
            kmins = upper_kmins
        self._write_metadata()
        self._file.flush()
        return list(self._layers)

    def _write_metadata(self) -> None:
        payload = bytearray(_MAGIC)
        payload += encode_u32(len(self._layers))
        payload += encode_u32(self.models_per_page)
        for layer in self._layers:
            payload += encode_u64(layer.start_page)
            payload += encode_u64(layer.num_models)
        if len(payload) > self._params.page_size:
            raise StorageError("index layer table does not fit in one page")
        self._file.append_page(bytes(payload))


class IndexFile:
    """Read access to a finished index file."""

    def __init__(self, file: PagedFile, params: SystemParams) -> None:
        self._file = file
        self._key_size = params.key_size
        self._record_size = Model.record_size(params.key_size)
        self._unpack_record = Model.record_struct(params.key_size).unpack_from
        self._layers, self.models_per_page = self._read_metadata()

    def _read_metadata(self) -> Tuple[List[LayerInfo], int]:
        data = self._file.read_page(self._file.num_pages - 1)
        if data[:4] != _MAGIC:
            raise StorageError("index file metadata page is corrupt")
        num_layers = decode_u32(data, 4)
        models_per_page = decode_u32(data, 8)
        layers: List[LayerInfo] = []
        offset = 12
        for _ in range(num_layers):
            start_page = decode_u64(data, offset)
            num_models = decode_u64(data, offset + 8)
            layers.append(LayerInfo(start_page=start_page, num_models=num_models))
            offset += 16
        return layers, models_per_page

    @property
    def num_layers(self) -> int:
        """Number of model layers (bottom included)."""
        return len(self._layers)

    @property
    def num_bottom_models(self) -> int:
        """Models in the bottom layer (useful for ablation statistics)."""
        return self._layers[0].num_models

    def search(self, key: int, key_bytes: Optional[bytes] = None) -> Optional[int]:
        """Predicted value-file position for ``key`` (Algorithm 7 lines 4-8).

        Returns ``None`` when ``key`` precedes every key in the run; the
        returned position is within ε of the true floor position.  Each
        layer is searched on its pages' own ``kmin`` bytes and only the
        covering model's record is read, by one ``struct`` call.  A caller
        that has already clamped ``key`` to the key space and encoded it
        (a run's floor search, which needs both for the value file too)
        passes the encoding as ``key_bytes``.
        """
        if key_bytes is None:
            key = clamp_key(key, self._key_size)
            if key is None:
                return None
            key_bytes = key.to_bytes(self._key_size, "big")
        per_page, stride = self.models_per_page, self._record_size
        unpack = self._unpack_record
        predicted = 0
        for layer in reversed(self._layers):
            found = self._file.floor_page(
                layer.start_page, layer.num_models, per_page, stride,
                _KMIN_OFFSET, predicted, key_bytes,
            )
            if found is None:
                return None  # key precedes every model in the run
            page, data = found
            on_page = min(per_page, layer.num_models - page * per_page)
            slot = floor_slot(data, on_page, stride, _KMIN_OFFSET, key_bytes)
            sl, ic, kmin, pmax = unpack(data, slot * stride)
            predicted = predict_position(sl, ic, int.from_bytes(kmin, "big"), pmax, key)
        return predicted
