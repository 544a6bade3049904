"""The cluster-aware client: manifest routing + transparent MOVED retry.

A :class:`ClusterClient` holds a :class:`~repro.cluster.manifest.ClusterManifest`
(loaded from a file, passed in, or bootstrapped from any *seed* address
via the ``Op.CLUSTER`` frame) and routes every key to the shard server
the manifest names, by the same crc32 partitioning the servers
themselves enforce.  Per-server connections are opened lazily and
kept, so a client touching two shards pays for two connections, not
``num_shards``.  ``fetch_manifest`` and ``admin_call`` are one-shot
:class:`ServerClient` sessions.

Referral handling is the cluster's consistency mechanism, not an error
path: a server answering ``MOVED`` (stale manifest, mid-migration
traffic) makes the client refresh its manifest — preferring the
document served by the *referred-to* address, falling back to patching
the single routing entry the referral carried — and retry, bounded by
``max_retries``.  A connection failure retries the same way after a
short delay, which also covers the one-moment window in which a
promoted shard server rebinds its port; so does a *repeated* referral —
mid-cutover the source already answers ``MOVED`` while the target still
answers ``NOT_PRIMARY``, and only waiting for the promotion ends that.

``multi_get`` / ``multi_put`` split each batch per owning server, issue
the sub-batches concurrently, and reassemble positionally; a referral
on any sub-batch re-splits only the affected keys.  ``scan`` fans the
range over every shard and k-way merges the per-shard pages into one
key-ordered stream.  ``root`` returns the composite ``Hstate`` — the
hash over the ordered per-shard roots — so a cluster's state can be
compared byte-for-byte against an oracle of one local ``Cole`` per
shard.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.manifest import ClusterManifest
from repro.common.errors import StorageError
from repro.common.hashing import hash_concat
from repro.server import protocol
from repro.server.client import KVClient, ServerClient
from repro.server.protocol import (
    MovedError,
    Op,
    OpSpec,
    Referral,
    RootInfo,
    parse_address,
)


async def fetch_manifest(address: str) -> ClusterManifest:
    """One-shot manifest fetch (``Op.CLUSTER``) from any cluster member."""
    async with ServerClient(*parse_address(address)) as client:
        return ClusterManifest.from_dict(await client._route(protocol.OPS[Op.CLUSTER]))


async def admin_call(address: str, command: dict) -> dict:
    """One ``Op.ADMIN`` command against a node's control server."""
    async with ServerClient(*parse_address(address)) as client:
        return await client._route(protocol.OPS[Op.ADMIN], command)


class ClusterClient(KVClient):
    """Route every op by the manifest; follow MOVED referrals."""

    def __init__(
        self,
        manifest: Optional[ClusterManifest] = None,
        manifest_file: Optional[str] = None,
        seeds: Sequence[str] = (),
        max_retries: int = 6,
        retry_delay: float = 0.05,
    ) -> None:
        if manifest is None and manifest_file is None and not seeds:
            raise StorageError(
                "a cluster client needs a manifest, a manifest file, or "
                "at least one seed address"
            )
        self._manifest = manifest
        self._manifest_file = manifest_file
        self._seeds = list(seeds)
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        #: One connect per address, shared by every request that needs
        #: it while it is still in flight.
        self._clients: Dict[str, "asyncio.Future[ServerClient]"] = {}
        #: MOVED referrals followed (the transparently-retried kind).
        self.moved_retries = 0
        #: Manifest refreshes performed (referrals + connection failures).
        self.manifest_refreshes = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def manifest(self) -> ClusterManifest:
        if self._manifest is None:
            raise StorageError("client is not connected")
        return self._manifest

    async def connect(self) -> "ClusterClient":
        """Resolve the manifest (file, then seeds); connections are lazy."""
        if self._manifest is None and self._manifest_file is not None:
            self._manifest = ClusterManifest.load(self._manifest_file)
        if self._manifest is None:
            self._manifest = await self._fetch_manifest(self._seeds)
        return self

    async def close(self) -> None:
        connects, self._clients = self._clients, {}
        for connecting in connects.values():
            await _close_connected(connecting)

    async def _client_for(self, address: str) -> ServerClient:
        """The connection to ``address``: concurrent first requests all
        await the one connect the first of them started.  A connect that
        fails raises to every one of them, and their retry drops it
        (:meth:`_recover`)."""
        connecting = self._clients.get(address)
        if connecting is None:
            connecting = asyncio.ensure_future(
                ServerClient(*parse_address(address)).connect()
            )
            self._clients[address] = connecting
        # Shielded: one cancelled request must not cancel the connect
        # the others are waiting on.
        return await asyncio.shield(connecting)

    async def _drop_client(self, address: str) -> None:
        connecting = self._clients.pop(address, None)
        if connecting is not None:
            await _close_connected(connecting)

    # -- manifest refresh -----------------------------------------------------

    async def _fetch_manifest(
        self, addresses: Sequence[str]
    ) -> ClusterManifest:
        """The manifest as served by the first answering address."""
        last_error: Optional[Exception] = None
        for address in addresses:
            try:
                return await fetch_manifest(address)
            except (StorageError, ConnectionError, OSError) as exc:
                last_error = exc
        raise StorageError(
            f"no cluster manifest reachable via {list(addresses)}: {last_error}"
        )

    def _known_addresses(self) -> List[str]:
        """Every address worth asking for a manifest, dedup'd in order."""
        seen: Dict[str, None] = {}
        if self._manifest is not None:
            for assignment in self._manifest.shards:
                seen.setdefault(assignment.address)
            for control in self._manifest.nodes.values():
                seen.setdefault(control)
        for seed in self._seeds:
            seen.setdefault(seed)
        return list(seen)

    async def refresh_manifest(
        self, prefer: Optional[str] = None
    ) -> ClusterManifest:
        """Re-fetch the manifest, keeping the newest epoch seen."""
        self.manifest_refreshes += 1
        addresses = self._known_addresses()
        if prefer is not None:
            addresses = [prefer] + [a for a in addresses if a != prefer]
        fetched = await self._fetch_manifest(addresses)
        if self._manifest is None or fetched.epoch >= self._manifest.epoch:
            self._manifest = fetched
        return self._manifest

    async def _on_referral(self, exc: Referral) -> None:
        """Adopt what a MOVED referral teaches before retrying.

        The referred-to server has the post-cutover manifest, so prefer
        a full refresh from it; if unreachable (mid-promotion rebind),
        patch the single entry the referral named — enough to retry —
        and let a later refresh reconcile.
        """
        self.moved_retries += 1
        try:
            await self.refresh_manifest(prefer=exc.address)
        except StorageError:
            pass
        if (
            isinstance(exc, MovedError)
            and exc.shard_id is not None
            and self._manifest is not None
            and exc.manifest_epoch >= self._manifest.epoch
            and self._manifest.address_of(exc.shard_id) != exc.address
        ):
            # Refresh couldn't reach anyone with the newer document
            # (e.g. the promoted server is rebinding): patch the one
            # entry the referral named — enough to retry correctly.
            self._manifest = self._manifest.with_addresses(
                {exc.shard_id: exc.address}
            )

    async def _recover(self, exc: Exception, address: str) -> None:
        """Before a retry: follow a referral, or — the server at
        ``address`` being unreachable — drop its connections and look
        for a manifest that no longer names it."""
        if isinstance(exc, Referral):
            await self._on_referral(exc)
            return
        await self._drop_client(address)
        try:
            await self.refresh_manifest()
        except StorageError:
            pass

    async def _call(self, address_of, call, *args, **kwargs):
        """``call(client, ...)`` against ``address_of(manifest)``,
        retrying through referrals and connection failures."""
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            address = address_of(self.manifest)
            try:
                client = await self._client_for(address)
                return await call(client, *args, **kwargs)
            except (Referral, ConnectionError, OSError) as exc:
                last_exc = exc
                await self._recover(exc, address)
                # A first referral is followed at once (a stale manifest).
                # A repeat means the shard is mid-cutover — the source
                # already answers MOVED, the target NOT_PRIMARY until it
                # is promoted — so wait it out like a connection failure.
                first_referral = isinstance(exc, Referral) and attempt == 0
                if not first_referral and attempt < self.max_retries:
                    await asyncio.sleep(self.retry_delay * (attempt + 1))
        raise StorageError(
            f"cluster op failed after {self.max_retries + 1} attempts: "
            f"{last_exc}"
        )

    async def _route(self, spec: OpSpec, *args):
        """A single-key op goes to the owner of the one address it
        routes by.  Every other typed method is overridden below: its
        answer *combines* what several shards return."""
        (addr,) = spec.addresses(args)
        return await self._call(
            lambda m: m.owner_address(addr), ServerClient._route, spec, *args
        )

    async def _every_shard(self, call, *args, **kwargs) -> list:
        """``call(client, ...)`` on every shard's owner, concurrently;
        results in shard order."""
        return await asyncio.gather(
            *(
                self._call(
                    lambda m, s=shard_id: m.address_of(s), call, *args, **kwargs
                )
                for shard_id in range(self.manifest.num_shards)
            )
        )

    # -- batched ops ----------------------------------------------------------

    async def multi_get(self, addrs: Sequence[bytes]) -> List[Optional[bytes]]:
        """Batched read, split per owner and reassembled positionally."""
        addrs = list(addrs)
        results: List[Optional[bytes]] = [None] * len(addrs)
        for positions, values in await self._fan_out(
            protocol.OPS[Op.MULTI_GET], addrs
        ):
            for position, value in zip(positions, values):
                results[position] = value
        return results

    async def multi_put(self, items: Sequence[Tuple[bytes, bytes]]) -> int:
        """Batched write, split per owner; returns the *highest* height
        assigned — each shard commits independently, and the max is the
        height at which every key of the batch is readable."""
        answers = await self._fan_out(protocol.OPS[Op.MULTI_PUT], list(items))
        return max(height for _, height in answers)

    async def _fan_out(
        self, spec: OpSpec, batch: list
    ) -> List[Tuple[List[int], object]]:
        """Split ``batch`` per owning server by the addresses ``spec``
        routes it by, send each group as its own ``spec`` request
        concurrently, and **re-split** any group a referral or
        connection failure touched.  Returns ``(positions, answer)`` per
        group that was answered.

        Re-splitting (rather than retrying a group verbatim against one
        server) matters mid-migration: a group built from the stale
        manifest can span keys that now live on *different* servers, and
        only re-grouping under the refreshed manifest can ever route it
        correctly.

        The whole batch obeys the one-server bounds first: an empty one,
        or one past ``MAX_MULTI_BATCH`` whose every share fits, is
        refused here as :class:`ServerClient` refuses it.
        """
        protocol._check_batch_count(len(batch))
        answers: List[Tuple[List[int], object]] = []
        pending: List[Tuple[int, bytes]] = list(enumerate(spec.addresses((batch,))))
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            manifest = self.manifest
            groups: Dict[str, List[Tuple[int, bytes]]] = {}
            for position, addr in pending:
                groups.setdefault(manifest.owner_address(addr), []).append(
                    (position, addr)
                )
            failed: List[Tuple[int, bytes]] = []
            failures: List[Exception] = []

            async def run_group(address: str, members) -> None:
                try:
                    client = await self._client_for(address)
                    positions = [p for p, _ in members]
                    answer = await client._route(spec, [batch[p] for p in positions])
                    answers.append((positions, answer))
                except (Referral, ConnectionError, OSError) as exc:
                    failures.append(exc)
                    failed.extend(members)
                    await self._recover(exc, address)

            await asyncio.gather(
                *(run_group(address, members) for address, members in groups.items())
            )
            if not failed:
                return answers
            last_exc = failures[-1]
            pending = failed
            if attempt < self.max_retries:
                await asyncio.sleep(self.retry_delay * (attempt + 1))
        raise StorageError(
            f"cluster batch failed after {self.max_retries + 1} attempts: "
            f"{last_exc}"
        )

    # -- range scans ----------------------------------------------------------

    async def scan(
        self, addr_low: bytes, addr_high: bytes, **options
    ) -> List[Tuple[bytes, int, bytes]]:
        """Key-ordered range scan across every shard, k-way merged;
        ``options`` as in :meth:`KVClient.scan`.

        The hash partitioning spreads any address range over all shards,
        so the fan-out is total by construction.  Each shard's pages are
        snapshot-consistent on that shard (the server pins them); the
        merged result is per-shard consistent, which is the cluster's
        contract — cross-shard heights advance independently.
        """
        per_shard = await self._every_shard(
            ServerClient.scan, addr_low, addr_high, **options
        )
        merged = heapq.merge(*per_shard, key=lambda row: row[0])
        return list(itertools.islice(merged, options.get("limit")))

    # -- control plane --------------------------------------------------------

    async def shard_roots(self) -> List[RootInfo]:
        """Every shard's ROOT, in shard order."""
        return await self._every_shard(ServerClient.root)

    async def root(self) -> RootInfo:
        """The composite state anchor: ``hash(root_0 || ... || root_n)``
        over the ordered shard roots, so cluster state is comparable
        against an oracle of one local ``Cole`` per shard."""
        return _composite(await self.shard_roots())

    async def flush(self) -> RootInfo:
        """Force a group commit on every shard; composite anchor back."""
        return _composite(await self._every_shard(ServerClient.flush))

    async def stats(self) -> dict:
        """Cluster-shaped STATS: the manifest plus every shard's STATS."""
        per_shard = await self._every_shard(ServerClient.stats)
        manifest = self.manifest
        return {
            "cluster": {
                "manifest_epoch": manifest.epoch,
                "num_shards": manifest.num_shards,
                "nodes": dict(manifest.nodes),
                "moved_retries": self.moved_retries,
                "manifest_refreshes": self.manifest_refreshes,
            },
            "shards": {
                str(shard_id): stats
                for shard_id, stats in enumerate(per_shard)
            },
            # Aggregates the loadgen report formatter reads.
            "ops": _sum_ops(per_shard),
            "cache": _merge_cache(
                [stats.get("cache", {}) for stats in per_shard]
            ),
            "negative_cache": _merge_cache(
                [stats.get("negative_cache", {}) for stats in per_shard]
            ),
        }

    async def metrics(self) -> str:
        """Per-shard-server expositions, concatenated with origin notes."""
        manifest = self.manifest
        addresses: Dict[str, List[int]] = {}
        for shard_id in range(manifest.num_shards):
            addresses.setdefault(manifest.address_of(shard_id), []).append(
                shard_id
            )
        parts: List[str] = []
        for address, shard_ids in addresses.items():
            text = await self._call(lambda m, a=address: a, ServerClient.metrics)
            parts.append(
                f"# cluster server {address} (shards {shard_ids})\n{text}"
            )
        return "\n".join(parts)


async def _close_connected(connecting: "asyncio.Future[ServerClient]") -> None:
    """Close what a shared connect produced, once it has; a connect
    that failed left nothing open."""
    await asyncio.wait([connecting])  # raises nothing the connect raised
    if not connecting.cancelled() and connecting.exception() is None:
        await connecting.result().close()


def _composite(roots: List[RootInfo]) -> RootInfo:
    return RootInfo(
        digest=hash_concat([info.digest for info in roots]),
        version=sum(info.version for info in roots),
        height=max(info.height for info in roots),
    )


def _sum_ops(per_shard: List[dict]) -> dict:
    totals: Dict[str, int] = {}
    for stats in per_shard:
        for name, count in stats.get("ops", {}).items():
            totals[name] = totals.get(name, 0) + count
    return totals


def _merge_cache(snapshots: List[dict]) -> dict:
    hits = sum(s.get("hits", 0) for s in snapshots)
    misses = sum(s.get("misses", 0) for s in snapshots)
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "lookups": lookups,
        "hit_rate": hits / lookups if lookups else 0.0,
        "entries": sum(s.get("entries", 0) for s in snapshots),
    }
