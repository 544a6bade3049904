"""On-disk levels: groups of sorted runs (Sections 4 and 5).

A level holds two groups with mutually exclusive roles (Algorithm 5,
Figure 7) — *writing* (accepts newly committed runs from the level above)
and *merging* (its runs are being merged into the next level) — which are
switched at the level's commit checkpoint (``Cole._checkpoint_level``).
Under COLE* the merging group lives until the level's next checkpoint
lands its merge; under COLE (Algorithm 1) a full level's runs are merged
down inside the same checkpoint (``Cole._merge_down``), so a level is the
single group of up to ``T`` runs the paper's Section 4 describes and its
merging group holds only a merge restarted from a COLE* store.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.merge import PendingMerge
from repro.core.run import Run

__all__ = ["DiskGroup", "DiskLevel", "PendingMerge"]


class DiskGroup:
    """An ordered list of committed runs (oldest first)."""

    def __init__(self) -> None:
        self.runs: List[Run] = []

    def __len__(self) -> int:
        return len(self.runs)

    def add(self, run: Run) -> None:
        """Append a newly committed run (it becomes the newest)."""
        self.runs.append(run)

    def take_all(self) -> List[Run]:
        """Detach and return every run, keeping the files on disk.

        Used when deletion must wait until the manifest no longer names
        the runs (Section 4.3): removing the files first would leave a
        crash window where recovery loads a manifest whose runs are gone.
        """
        runs, self.runs = self.runs, []
        return runs


class DiskLevel:
    """One on-disk level: writing group, merging group, active merge."""

    def __init__(self, level: int) -> None:
        self.level = level
        self.writing = DiskGroup()
        self.merging = DiskGroup()
        self.pending: Optional[PendingMerge] = None

    def switch_groups(self) -> None:
        """Swap the writing / merging roles (Algorithm 5 line 13)."""
        self.writing, self.merging = self.merging, self.writing

    def all_runs(self) -> List[Run]:
        """Every committed run in ``root_hash_list`` order (writing group
        oldest-first, then merging group oldest-first)."""
        return list(self.writing.runs) + list(self.merging.runs)
