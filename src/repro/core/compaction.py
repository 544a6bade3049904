"""Pluggable compaction policy: when a cascade merges a level's group.

The cascade machinery (``Cole._cascade``, one walk for COLE and COLE*) is
the same for every policy — drain L0 into a level-1 run, walk the levels, and
wherever the policy says a writing group overflowed, merge *all* of its
runs into one run at the next level.  What a :class:`CompactionPolicy`
owns is the three decisions the LSM literature varies:

* **when** a group must merge (:meth:`CompactionPolicy.should_merge`),
* **what** it merges (:meth:`CompactionPolicy.merge_sources`), and
* **where** the output goes (:meth:`CompactionPolicy.merge_target`).

``leveling`` is the paper's behaviour, byte-for-byte: a group merges the
instant it holds ``size_ratio`` runs, however small they are.  That is
optimal when every run is full (one rewrite per level per generation).
An engine's own commits flush L0 only once it holds ``B`` pairs, so its
runs are full; *under-full* runs come only from
:func:`~repro.core.rewind.rewind_to`, which rebuilds runs without their
post-target versions, and from cascades a caller forces
(``commit_block(force_cascade=True)``).  Over those, leveling merges
long before the level holds a level's worth of data — pure write
amplification.

``tiering`` merges only when the group genuinely overflows: the group's
total entries reach ``params.level_capacity(level)`` (``B * T**level``).
Under-full sibling runs accumulate instead of being rewritten, cutting
merge bytes by up to the fill-factor deficit, at the cost of more runs
per level on the read path (Dayan & Idreos's Dostoevsky trade-off).  The
fanout is bounded: a group also merges once it holds
``TIERING_FANOUT_FACTOR * size_ratio`` runs, so point reads never probe
an unbounded stack.  On a stream of full runs both policies trigger at
exactly ``size_ratio`` runs, so tiering is never worse than leveling.

The chosen policy is recorded in the manifest and validated on reopen —
the two lay runs out differently, so silently switching policies would
change ``Hstate`` across restarts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.params import ColeParams
    from repro.core.disklevel import DiskGroup
    from repro.core.run import Run

#: Valid values of ``ColeParams.compaction``.
COMPACTION_POLICIES = ("leveling", "tiering")

#: Tiering merges a group at ``TIERING_FANOUT_FACTOR * size_ratio`` runs
#: even if it is under capacity, bounding read fanout per level.
TIERING_FANOUT_FACTOR = 4


class CompactionPolicy:
    """The cascade's merge decisions; stateless and engine-shared."""

    name: str = ""

    def should_merge(
        self, group: "DiskGroup", paper_level: int, params: "ColeParams"
    ) -> bool:
        """True when ``group`` (the writing group of on-disk level
        ``paper_level``) must be merged into the next level."""
        raise NotImplementedError

    def merge_sources(self, group: "DiskGroup") -> List["Run"]:
        """The runs a triggered merge consumes (oldest first).

        Both shipped policies merge the whole group — partial selection
        would leave runs whose deletion the manifest commit could not
        account for in one atomic step.
        """
        return list(group.runs)

    def merge_target(self, paper_level: int) -> int:
        """Paper-level number the merged output run lands on."""
        return paper_level + 1


class LevelingPolicy(CompactionPolicy):
    """Merge at ``size_ratio`` runs — the paper's Algorithm 1/5 trigger."""

    name = "leveling"

    def should_merge(
        self, group: "DiskGroup", paper_level: int, params: "ColeParams"
    ) -> bool:
        return len(group) >= params.size_ratio


class TieringPolicy(CompactionPolicy):
    """Merge on genuine capacity overflow, with a bounded run fanout."""

    name = "tiering"

    def should_merge(
        self, group: "DiskGroup", paper_level: int, params: "ColeParams"
    ) -> bool:
        if len(group) >= TIERING_FANOUT_FACTOR * params.size_ratio:
            return True
        entries = sum(run.num_entries for run in group.runs)
        return entries >= params.level_capacity(paper_level)


def make_policy(name: str) -> CompactionPolicy:
    """Policy instance for a ``ColeParams.compaction`` value."""
    if name == "leveling":
        return LevelingPolicy()
    if name == "tiering":
        return TieringPolicy()
    raise StorageError(
        f"unknown compaction policy {name!r} (expected one of {COMPACTION_POLICIES})"
    )
