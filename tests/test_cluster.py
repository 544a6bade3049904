"""Cluster serving end-to-end: manifest routing, MOVED, live migration.

The contracts under test:

* the **manifest** is an immutable, epoch-versioned routing document —
  any ownership change bumps the epoch, and staleness is one integer
  comparison;
* the **connect() factory** is the one client API: a target returns a
  ``ServerClient``, a replica set a ``ReplicatedClient``, cluster
  arguments a ``ClusterClient`` — all ``KVClient``s, with the old names
  kept as working aliases;
* a server that must not answer refers the client (``MOVED`` carrying
  the new owner + epoch), and every client follows referrals
  transparently;
* **live migration loses nothing**: every write acked during a mid-load
  shard move is present at its acked height afterwards, with no
  client-visible errors beyond transparently-retried referrals, and a
  migration target killed ``-9`` mid-catch-up leaves the source
  authoritative.
"""

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.cluster import (
    ClusterManifest,
    ClusterNode,
    NodeThread,
    admin_call,
    fetch_manifest,
    migrate_shard,
    plan_manifest,
    shard_dirname,
)
from repro.common.errors import StorageError
from repro.common.hashing import hash_concat
from repro.server import (
    KVClient,
    MovedError,
    NotPrimaryError,
    Referral,
    ReplicatedClient,
    ServerClient,
    connect,
    protocol,
)
from repro.server.protocol import Cursor, Op, Status
from repro.sharding.router import shard_of

ADDR = 32


def addr_of(n: int) -> bytes:
    return (b"cluster-key-%06d" % n).ljust(ADDR, b"\0")


def value_of(n: int, version: int = 1) -> bytes:
    return b"cluster-val-%06d-%02d" % (n, version)


# =============================================================================
# manifest unit tests
# =============================================================================


def test_plan_manifest_layout_and_routing():
    manifest = plan_manifest(2, 4, host="10.0.0.1", base_port=9000)
    assert manifest.epoch == 0
    assert manifest.num_shards == 4
    assert manifest.nodes == {
        "node-0": "10.0.0.1:9000",
        "node-1": "10.0.0.1:9016",
    }
    assert manifest.shards_of_node("node-0") == (0, 2)
    assert manifest.shards_of_node("node-1") == (1, 3)
    # Routing is the same crc32 partitioning the in-process engine uses.
    for n in range(64):
        addr = addr_of(n)
        shard = manifest.shard_for(addr)
        assert shard == shard_of(addr, 4)
        assert manifest.owner_address(addr) == manifest.address_of(shard)


def test_manifest_with_moved_bumps_epoch_and_keeps_the_rest():
    manifest = plan_manifest(2, 4)
    moved = manifest.with_moved(0, "node-1", "127.0.0.1:9999")
    assert moved.epoch == manifest.epoch + 1
    assert moved.shards[0].node == "node-1"
    assert moved.shards[0].address == "127.0.0.1:9999"
    assert moved.shards[1:] == manifest.shards[1:]
    assert manifest.epoch == 0  # immutable: the original is untouched
    with pytest.raises(StorageError):
        manifest.with_moved(0, "node-9", "127.0.0.1:1")
    with pytest.raises(StorageError):
        manifest.with_moved(7, "node-1", "127.0.0.1:1")


def test_manifest_json_round_trip_and_atomic_save(tmp_path):
    manifest = plan_manifest(3, 6).with_moved(4, "node-0", "127.0.0.1:7777")
    again = ClusterManifest.from_json(manifest.to_json())
    assert again == manifest
    path = str(tmp_path / "sub" / "manifest.json")
    manifest.save(path)  # creates the directory, writes atomically
    assert ClusterManifest.load(path) == manifest
    # No temp litter left beside the manifest.
    assert os.listdir(os.path.dirname(path)) == ["manifest.json"]


def test_manifest_rejects_malformed_documents():
    with pytest.raises(StorageError):
        ClusterManifest.from_json("{not json")
    with pytest.raises(StorageError):
        ClusterManifest.from_dict({"epoch": 0, "num_shards": 2, "nodes": {}, "shards": {}})
    with pytest.raises(StorageError):
        # Shard assigned to a node the manifest does not name.
        ClusterManifest.from_dict(
            {
                "epoch": 0,
                "num_shards": 1,
                "nodes": {"node-0": "h:1"},
                "shards": {"0": {"node": "ghost", "address": "h:2"}},
            }
        )


# =============================================================================
# protocol: MOVED round trip + the unified Referral hierarchy
# =============================================================================


def test_moved_frame_round_trip():
    frame = protocol.encode_moved("10.1.2.3:7455", 17, 3)
    cursor = Cursor(frame[4:])  # strip the length prefix
    with pytest.raises(MovedError) as excinfo:
        protocol.check_status(cursor)
    exc = excinfo.value
    assert exc.address == "10.1.2.3:7455"
    assert exc.manifest_epoch == 17
    assert exc.shard_id == 3
    assert isinstance(exc, Referral)


def test_alias_pin_referral_hierarchy_and_client_names():
    """The API redesign keeps the old names as working aliases."""
    # NOT_PRIMARY is now a special case of Referral; `.primary` survives.
    exc = NotPrimaryError("127.0.0.1:7407")
    assert isinstance(exc, Referral)
    assert isinstance(exc, StorageError)
    assert exc.primary == "127.0.0.1:7407"
    assert exc.address == "127.0.0.1:7407"
    assert exc.manifest_epoch == 0 and exc.shard_id is None
    assert isinstance(MovedError("h:1", 1, 0), Referral)
    # The old client classes are still importable and are KVClients.
    assert issubclass(ServerClient, KVClient)
    assert issubclass(ReplicatedClient, KVClient)
    from repro.server.client import ReplicatedClient as from_module

    assert from_module is ReplicatedClient


def test_connect_factory_picks_the_client():
    assert isinstance(connect(("127.0.0.1", 7407)), ServerClient)
    assert isinstance(connect("127.0.0.1:7407"), ServerClient)
    replicated = connect(
        ("127.0.0.1", 7407), replicas=[("127.0.0.1", 7408)], read_primary=False
    )
    assert isinstance(replicated, ReplicatedClient)
    from repro.cluster.client import ClusterClient

    cluster = connect(manifest=plan_manifest(1, 1))
    assert isinstance(cluster, ClusterClient)
    assert isinstance(connect(seeds=["127.0.0.1:7450"]), ClusterClient)
    with pytest.raises(StorageError):
        connect()
    with pytest.raises(StorageError):
        connect(("127.0.0.1", 7407), manifest=plan_manifest(1, 1))


def test_cluster_cli_parser():
    from repro.cli import cli

    def parse(command, *argv):
        return command.make_context(command.name, list(argv)).params

    cluster = cli.commands["cluster"]
    params = parse(cluster.commands["init"], "m.json", "--nodes", "2", "--shards", "4")
    assert params["shards"] == 4
    params = parse(cluster.commands["serve"], "ws", "--node", "node-0", "-m", "m.json")
    assert params["node"] == "node-0"
    params = parse(cluster.commands["migrate"], "2", "node-1", "-m", "m.json")
    assert params["shard"] == 2 and params["to_node"] == "node-1"
    assert parse(cli.commands["loadgen"], "--manifest", "m.json")["manifest"] == "m.json"


# =============================================================================
# end-to-end cluster fixture (in-process, ephemeral ports)
# =============================================================================


class _Cluster:
    """A live in-process cluster plus its concrete manifest."""

    def __init__(self, workspace: str, num_nodes: int, num_shards: int):
        self.plan = plan_manifest(num_nodes, num_shards)
        self.nodes = [
            ClusterNode(
                os.path.join(workspace, name), name, self.plan, ephemeral=True
            )
            for name in sorted(self.plan.nodes)
        ]
        self.threads = [NodeThread(node) for node in self.nodes]
        self.manifest = None

    def start(self) -> ClusterManifest:
        for thread in self.threads:
            thread.start()
        bound = {}
        for node in self.nodes:
            bound.update(node.data_addresses())
        manifest = self.plan.with_addresses(bound)
        for node in self.nodes:
            manifest = manifest.with_control(node.name, node.control_address)
        for control in manifest.nodes.values():
            asyncio.run(
                admin_call(
                    control,
                    {"cmd": "set_manifest", "manifest": manifest.to_dict()},
                )
            )
        self.manifest = manifest
        return manifest

    def stop(self) -> None:
        for thread in self.threads:
            thread.stop()


@pytest.fixture
def cluster(tmp_path):
    built = _Cluster(str(tmp_path / "cluster"), num_nodes=2, num_shards=4)
    built.start()
    yield built
    built.stop()


def test_cluster_point_and_batched_ops(cluster):
    async def scenario():
        async with connect(manifest=cluster.manifest) as client:
            for n in range(40):
                await client.put(addr_of(n), value_of(n))
            height = await client.multi_put(
                [(addr_of(n), value_of(n)) for n in range(40, 80)]
            )
            assert height >= 1
            for n in range(40):
                assert await client.get(addr_of(n)) == value_of(n)
            # multi_get reassembles positionally across owners, missing
            # keys answering None in place.
            asked = [addr_of(n) for n in range(80)] + [addr_of(12345)]
            values = await client.multi_get(asked)
            assert values[:80] == [value_of(n) for n in range(80)]
            assert values[80] is None
            # The CLUSTER frame serves the adopted manifest from any shard
            # server and the control ports alike.
            served = await fetch_manifest(cluster.manifest.address_of(0))
            assert served == cluster.manifest
            stats = await client.stats()
            assert stats["cluster"]["num_shards"] == 4
            assert stats["shards"]["0"]["cluster"]["phase"] == "serving"
            metrics = await client.metrics()
            assert "repro_cluster_shard_id" in metrics

    asyncio.run(scenario())


def test_cluster_scan_merges_key_ordered(cluster):
    async def scenario():
        async with connect(manifest=cluster.manifest) as client:
            await client.multi_put(
                [(addr_of(n), value_of(n)) for n in range(120)]
            )
            await client.flush()
            high = b"\xff" * ADDR
            rows = await client.scan(addr_of(0), high)
            assert [row[0] for row in rows] == sorted(
                addr_of(n) for n in range(120)
            )
            assert {row[2] for row in rows} == {value_of(n) for n in range(120)}
            limited = await client.scan(addr_of(0), high, limit=17)
            assert limited == rows[:17]

    asyncio.run(scenario())


def test_cluster_root_is_the_sharded_composite(cluster):
    async def scenario():
        async with connect(manifest=cluster.manifest) as client:
            await client.multi_put(
                [(addr_of(n), value_of(n)) for n in range(64)]
            )
            await client.flush()
            shard_roots = await client.shard_roots()
            composite = await client.root()
            assert bytes(composite.digest) == bytes(
                hash_concat([info.digest for info in shard_roots])
            )

    asyncio.run(scenario())


def test_stale_key_routing_answers_moved(cluster):
    """A key sent to the wrong shard server is referred, not served."""

    async def scenario():
        manifest = cluster.manifest
        addr = addr_of(7)
        owner = manifest.shard_for(addr)
        wrong = next(
            s for s in range(manifest.num_shards)
            if manifest.address_of(s) != manifest.address_of(owner)
        )
        host, _, port = manifest.address_of(wrong).rpartition(":")
        async with ServerClient(host, int(port)) as direct:
            with pytest.raises(MovedError) as excinfo:
                await direct.put(addr, value_of(7))
            assert excinfo.value.address == manifest.owner_address(addr)
            assert excinfo.value.shard_id == owner

    asyncio.run(scenario())


# =============================================================================
# live migration
# =============================================================================


def _other_node(manifest: ClusterManifest, shard_id: int) -> str:
    return next(
        name for name in manifest.nodes
        if name != manifest.shards[shard_id].node
    )


def test_live_migration_loses_no_acked_write(cluster, tmp_path):
    """The tentpole claim: a mid-load shard move acks nothing it loses.

    A writer keeps writing through the whole migration; every ack is
    recorded with its height, and afterwards each write must be readable
    *at that height* — ``get_at`` pins the read, so a lost write cannot
    hide behind a later one.  The only client-visible artifacts allowed
    are transparently-retried MOVED referrals.
    """

    async def scenario():
        manifest = cluster.manifest
        target = _other_node(manifest, 0)
        async with connect(manifest=manifest) as client:
            await client.multi_put(
                [(addr_of(n), value_of(n)) for n in range(200)]
            )
            acked = []
            stop = asyncio.Event()

            async def writer():
                n = 1000
                while not stop.is_set():
                    height = await client.put(addr_of(n), value_of(n, 2))
                    acked.append((n, height))
                    n += 1
                    await asyncio.sleep(0.002)

            task = asyncio.create_task(writer())
            await asyncio.sleep(0.05)
            new_manifest = await migrate_shard(
                manifest, 0, target, snapshot_dir=str(tmp_path / "snap")
            )
            await asyncio.sleep(0.05)
            stop.set()
            await task

            assert new_manifest.epoch == manifest.epoch + 1
            assert new_manifest.shards[0].node == target
            assert acked, "the writer never got a word in"
            await client.flush()
            for n, height in acked:
                assert await client.get_at(addr_of(n), height) == value_of(n, 2), (
                    f"acked write {n} missing at its acked height {height}"
                )
            for n in range(200):
                assert await client.get(addr_of(n)) == value_of(n)
            # The data directory actually moved: the target node now has
            # an engine workspace for shard 0.
            target_node = next(
                node for node in cluster.nodes if node.name == target
            )
            assert os.path.isdir(
                os.path.join(target_node.workspace, shard_dirname(0))
            )

    asyncio.run(scenario())


def test_stale_epoch_client_refreshes_on_moved(cluster, tmp_path):
    """A client still routing by the pre-migration manifest gets MOVED
    from the source husk, refreshes, retries, and succeeds."""

    async def scenario():
        manifest = cluster.manifest
        async with connect(manifest=manifest) as fresh:
            await fresh.multi_put(
                [(addr_of(n), value_of(n)) for n in range(64)]
            )
        stale = connect(manifest=manifest)  # snapshot of epoch 0 routing
        await stale.connect()
        try:
            target = _other_node(manifest, 0)
            await migrate_shard(
                manifest, 0, target, snapshot_dir=str(tmp_path / "snap")
            )
            moved_keys = [
                n for n in range(64) if manifest.shard_for(addr_of(n)) == 0
            ]
            assert moved_keys, "no keys landed on the moved shard"
            for n in moved_keys:
                assert await stale.get(addr_of(n)) == value_of(n)
            assert await stale.put(addr_of(9001), value_of(9001)) >= 1
            assert stale.moved_retries >= 1
            assert stale.manifest_refreshes >= 1
            assert stale.manifest.epoch == manifest.epoch + 1
        finally:
            await stale.close()

    asyncio.run(scenario())


def test_scan_spans_two_migrated_shards(cluster, tmp_path):
    """Regression (satellite): a stale client's range scan must survive
    *both* of node-0's shards having moved — every per-shard page follows
    its own MOVED referral and the merge stays key-ordered and complete."""

    async def scenario():
        manifest = cluster.manifest
        async with connect(manifest=manifest) as fresh:
            await fresh.multi_put(
                [(addr_of(n), value_of(n)) for n in range(150)]
            )
            await fresh.flush()
        stale = connect(manifest=manifest)
        await stale.connect()
        try:
            moving = list(manifest.shards_of_node("node-0"))
            assert len(moving) == 2
            current = manifest
            for index, shard_id in enumerate(moving):
                current = await migrate_shard(
                    current,
                    shard_id,
                    "node-1",
                    snapshot_dir=str(tmp_path / f"snap-{index}"),
                )
            rows = await stale.scan(addr_of(0), b"\xff" * ADDR)
            assert [row[0] for row in rows] == sorted(
                addr_of(n) for n in range(150)
            )
            assert stale.moved_retries >= 1
        finally:
            await stale.close()

    asyncio.run(scenario())


# =============================================================================
# kill -9 of the migration target mid-catch-up
# =============================================================================


def _free_ports(count: int):
    import socket

    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _spawn_cluster_serve(workspace, node, manifest_path, timeout_s=60.0):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "cluster", "serve",
            workspace, "--node", node, "-m", manifest_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines = []
    ready = threading.Event()

    def pump():
        for line in proc.stdout:
            lines.append(line)
            if re.search(r"serving .* on ([\d.]+):(\d+)", line):
                ready.set()
        ready.set()

    threading.Thread(target=pump, daemon=True).start()
    if not ready.wait(timeout=timeout_s) or proc.poll() is not None:
        proc.kill()
        raise RuntimeError(f"cluster node never came up:\n{''.join(lines)}")
    return proc


def test_killed_migration_target_leaves_source_authoritative(tmp_path):
    """SIGKILL the target mid-catch-up: authority must never have moved.

    The target node is a real ``repro cluster serve`` subprocess; the
    migration is driven through its first phases (snapshot, adopt) and
    the process is killed -9 while the replica is tailing the source.
    Cutover never happened, so the source must still be serving the
    shard — phase ``serving``, no ``moved_to`` — and writes keep acking.
    """
    plan = plan_manifest(2, 2)
    source = ClusterNode(
        str(tmp_path / "node-0"), "node-0", plan, ephemeral=True
    )
    thread = NodeThread(source)
    thread.start()
    proc = None
    try:
        target_ports = _free_ports(2)
        manifest = plan.with_addresses(
            {
                **source.data_addresses(),
                1: f"127.0.0.1:{target_ports[1]}",
            }
        )
        manifest = manifest.with_control("node-0", source.control_address)
        manifest = manifest.with_control(
            "node-1", f"127.0.0.1:{target_ports[0]}"
        )
        manifest_path = str(tmp_path / "manifest.json")
        manifest.save(manifest_path)
        proc = _spawn_cluster_serve(
            str(tmp_path / "node-1"), "node-1", manifest_path
        )
        asyncio.run(
            admin_call(
                source.control_address,
                {"cmd": "set_manifest", "manifest": manifest.to_dict()},
            )
        )

        async def scenario():
            source_control = manifest.nodes["node-0"]
            target_control = manifest.nodes["node-1"]
            async with connect(manifest=manifest) as client:
                shard0_keys = [
                    n for n in range(400) if manifest.shard_for(addr_of(n)) == 0
                ][:60]
                for n in shard0_keys:
                    await client.put(addr_of(n), value_of(n))

                # Phases 1-2 of migrate_shard, by hand: snapshot + adopt.
                await admin_call(
                    source_control,
                    {
                        "cmd": "snapshot",
                        "shard": 0,
                        "dest": str(tmp_path / "snap"),
                    },
                )
                await admin_call(
                    target_control,
                    {
                        "cmd": "adopt",
                        "shard": 0,
                        "snapshot": str(tmp_path / "snap"),
                        "source": manifest.address_of(0),
                    },
                )
                for _ in range(200):  # wait until the tail is attached
                    status = await admin_call(
                        target_control,
                        {"cmd": "migration_status", "shard": 0},
                    )
                    if status.get("connected"):
                        break
                    await asyncio.sleep(0.02)
                assert status["phase"] == "catchup"

                # Mid-catch-up, the target dies hard.
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=15)

                # Cutover never ran: the source is still the shard's
                # primary and keeps acking writes as if nothing happened.
                source_status = await admin_call(
                    source_control, {"cmd": "status"}
                )
                assert source_status["shards"]["0"]["phase"] == "serving"
                assert source_status["shards"]["0"]["moved_to"] is None
                for n in shard0_keys:
                    assert await client.get(addr_of(n)) == value_of(n)
                assert await client.put(addr_of(9002), value_of(9002)) >= 1
                assert await client.get(addr_of(9002)) == value_of(9002)

        asyncio.run(scenario())
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=15)
        thread.stop()
