"""The on-disk manifest: COLE's commit record (Section 4.3).

``root_hash_list`` must survive crashes: a level merge only becomes
visible when the manifest naming the new run is atomically replaced
(write-to-temp, fsync, rename, directory fsync).  On recovery, any file
not named by the manifest belongs to an unfinished merge and is deleted;
the in-memory level is rebuilt by replaying transactions after
``checkpoint_blk``.

The manifest records the ``format`` of the run files it names.  Format 2
packs a Merkle file's layers back to back and ends an index file with its
layer table; the page-aligned files of a manifest without the key are
not read by this build, so such a manifest is refused while it names a
run.  So is one that records a ``compaction`` other than ``leveling``:
its runs were laid out by a policy this build does not have.  Either is
carried over by ``repro export`` with the build that wrote it and
``repro import`` here, which lays the runs out again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.common.errors import StorageError
from repro.diskio import durable

MANIFEST_NAME = "MANIFEST.json"
#: Layout of the run files a manifest names (see the module docstring).
MANIFEST_FORMAT = 2


@dataclass(frozen=True)
class RunRecord:
    """Manifest entry describing one committed run."""

    name: str
    level: int
    num_entries: int
    merkle_root_hex: str


@dataclass
class Manifest:
    """Serializable snapshot of the committed on-disk structure."""

    checkpoint_blk: int = -1
    checkpoint_puts: int = 0
    next_run_seq: int = 0
    async_merge: bool = False
    # Cumulative write-amplification counters, persisted so a cold
    # `repro query compaction` answers without replaying history.
    bytes_flushed: int = 0
    bytes_rewritten: int = 0
    # output paper-level -> cumulative merge bytes written onto it
    level_bytes_rewritten: Dict[int, int] = field(default_factory=dict)
    # level index -> {"writing": [RunRecord...], "merging": [RunRecord...]}
    levels: Dict[int, Dict[str, List[RunRecord]]] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "format": MANIFEST_FORMAT,
            "checkpoint_blk": self.checkpoint_blk,
            "checkpoint_puts": self.checkpoint_puts,
            "next_run_seq": self.next_run_seq,
            "async_merge": self.async_merge,
            "compaction": "leveling",
            "bytes_flushed": self.bytes_flushed,
            "bytes_rewritten": self.bytes_rewritten,
            "level_bytes_rewritten": {
                str(level): total
                for level, total in self.level_bytes_rewritten.items()
            },
            "levels": {
                str(level): {
                    role: [vars(record) for record in records]
                    for role, records in groups.items()
                }
                for level, groups in self.levels.items()
            },
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: Union[str, bytes], source: str = MANIFEST_NAME) -> "Manifest":
        """Parse a manifest; any text that is not one of this build's
        manifests raises :class:`StorageError` naming ``source``."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise StorageError(f"{source} is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise StorageError(f"{source} is not a JSON object")
        found = payload.get("format")
        if found is not None and found != MANIFEST_FORMAT:
            raise StorageError(
                f"{source} is manifest format {found!r}; this build reads "
                f"format {MANIFEST_FORMAT}"
            )
        try:
            manifest = cls._from_payload(payload)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"{source} is malformed: {exc!r}") from None
        if not any(
            records for groups in manifest.levels.values() for records in groups.values()
        ):
            return manifest
        migrate = (
            "export the store with the build that wrote it (`repro export`) "
            "and `repro import` the slice here"
        )
        if found is None:
            raise StorageError(
                f"{source} has no format: its runs were written with "
                "page-aligned Merkle layers and index metadata pages, which "
                f"this build (format {MANIFEST_FORMAT}) does not read — {migrate}"
            )
        policy = payload.get("compaction") or "leveling"
        if policy != "leveling":
            raise StorageError(
                f"{source} records compaction {policy!r}: its runs were laid "
                "out by a policy this build does not have (it merges a level "
                f"at size_ratio runs; `tiering` was removed) — {migrate}"
            )
        return manifest

    @classmethod
    def _from_payload(cls, payload: dict) -> "Manifest":
        levels: Dict[int, Dict[str, List[RunRecord]]] = {}
        for level_str, groups in payload["levels"].items():
            levels[int(level_str)] = {
                role: [RunRecord(**record) for record in records]
                for role, records in groups.items()
            }
        return cls(
            checkpoint_blk=payload["checkpoint_blk"],
            checkpoint_puts=payload.get("checkpoint_puts", 0),
            next_run_seq=payload["next_run_seq"],
            async_merge=payload["async_merge"],
            bytes_flushed=payload.get("bytes_flushed", 0),
            bytes_rewritten=payload.get("bytes_rewritten", 0),
            level_bytes_rewritten={
                int(level): total
                for level, total in payload.get("level_bytes_rewritten", {}).items()
            },
            levels=levels,
        )


def save_manifest(root: str, manifest: Manifest) -> None:
    """Replace the manifest atomically and durably (``durable.replacing``)."""
    with durable.replacing(os.path.join(root, MANIFEST_NAME)) as handle:
        handle.write(manifest.to_json().encode("utf-8"))


def load_manifest(root: str) -> Manifest:
    """Load the manifest, or an empty one if none was ever committed."""
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        return Manifest()
    with open(path, "rb") as handle:
        return Manifest.from_json(handle.read(), path)
