"""The learned-model record of Definition 1.

``M = <sl, ic, kmin, pmax>``: a linear predictor valid for keys
``K >= kmin``, where the predicted position is
``min(sl * (K - kmin) + ic, pmax)`` and the true position is guaranteed to
lie within ``epsilon`` of the prediction.

The slope is stored *relative to kmin*: compound keys are huge integers
(``binary(addr) * 2**64 + blk``), and anchoring the line at the model's
first key keeps the float evaluation error far below one position (the
construction uses exact integer arithmetic; only the final slope/intercept
are rounded to doubles).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.common.codec import encode_u64, int_to_bytes, pack_float

#: Number of IEEE-754 doubles in the serialized record (slope, intercept).
MODEL_FLOAT_FIELDS = 2


@dataclass(frozen=True)
class Model:
    """An ε-bounded linear model covering keys in ``[kmin, ...]``.

    Attributes:
        sl: slope of the line, relative to ``kmin``.
        ic: intercept (predicted position at ``K == kmin``).
        kmin: first key covered by the model.
        pmax: last position covered by the model (predictions are clamped).
    """

    sl: float
    ic: float
    kmin: int
    pmax: int

    def predict(self, key: int) -> int:
        """Predicted position of ``key``, clamped to ``[0, pmax]``."""
        return predict_position(self.sl, self.ic, self.kmin, self.pmax, key)

    def covers(self, key: int) -> bool:
        """True if the model may be used for ``key`` (Algorithm 7 line 11)."""
        return key >= self.kmin

    # -- binary codec ---------------------------------------------------------

    @staticmethod
    def record_size(key_width: int) -> int:
        """Serialized size in bytes for a given key width."""
        return 8 * MODEL_FLOAT_FIELDS + key_width + 8

    @staticmethod
    def record_struct(key_width: int) -> struct.Struct:
        """The record as one ``struct``: ``(sl, ic, kmin bytes, pmax)``."""
        return struct.Struct(f">dd{key_width}sQ")

    def to_bytes(self, key_width: int) -> bytes:
        """Serialize as ``sl || ic || kmin || pmax``."""
        return (
            pack_float(self.sl)
            + pack_float(self.ic)
            + int_to_bytes(self.kmin, key_width)
            + encode_u64(self.pmax)
        )

    @classmethod
    def from_bytes(cls, data: bytes, key_width: int, offset: int = 0) -> "Model":
        """Deserialize a record written by :meth:`to_bytes`."""
        sl, ic, kmin, pmax = cls.record_struct(key_width).unpack_from(data, offset)
        return cls(sl=sl, ic=ic, kmin=int.from_bytes(kmin, "big"), pmax=pmax)


def predict_position(sl: float, ic: float, kmin: int, pmax: int, key: int) -> int:
    """Definition 1's prediction ``sl * (key - kmin) + ic``, clamped to
    ``[0, pmax]`` — for a :class:`Model` or a record read off a page."""
    raw = sl * float(key - kmin) + ic
    if raw < 0.0:
        return 0
    predicted = int(raw)
    return pmax if predicted > pmax else predicted
