"""Pluggable compaction policy: when a cascade merges a level's group.

The cascade machinery (``Cole._cascade``) is the same for every policy:
walk the levels from L0 down, and wherever the policy says a level's
writing group overflowed, merge *all* of its runs into one run of the
next level.  COLE* starts that merge per level; COLE carries the runs
down with L0's entries and builds one run where the walk stops.  What a
:class:`CompactionPolicy` owns is the decision the LSM literature
varies: **when** a group must merge (:meth:`CompactionPolicy.should_merge`).
Both policies merge the whole group into the next level — partial
selection would leave runs whose deletion the manifest commit could not
account for in one atomic step.

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

from typing import TYPE_CHECKING

from repro.common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.params import ColeParams

#: Valid values of ``ColeParams.compaction``.
COMPACTION_POLICIES = ("leveling", "tiering")

#: Tiering merges a group at ``TIERING_FANOUT_FACTOR * size_ratio`` runs
#: even if it is under capacity, bounding read fanout per level.
TIERING_FANOUT_FACTOR = 4


class CompactionPolicy:
    """The cascade's merge trigger; stateless and engine-shared."""

    name: str = ""

    def should_merge(
        self, runs: int, entries: int, paper_level: int, params: "ColeParams"
    ) -> bool:
        """True when a writing group of on-disk level ``paper_level``
        holding ``runs`` runs of ``entries`` entries in total must be
        merged into the next level."""
        raise NotImplementedError


class LevelingPolicy(CompactionPolicy):
    """Merge at ``size_ratio`` runs — the paper's Algorithm 1/5 trigger."""

    name = "leveling"

    def should_merge(
        self, runs: int, entries: int, paper_level: int, params: "ColeParams"
    ) -> bool:
        return runs >= params.size_ratio


class TieringPolicy(CompactionPolicy):
    """Merge on genuine capacity overflow, with a bounded run fanout."""

    name = "tiering"

    def should_merge(
        self, runs: int, entries: int, paper_level: int, params: "ColeParams"
    ) -> bool:
        if runs >= TIERING_FANOUT_FACTOR * params.size_ratio:
            return True
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
