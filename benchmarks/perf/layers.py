"""Per-layer metrics derived from span aggregates (source **S**).

Entry points (``cole.*``, ``run.build_s``, ``merge.busy_s``,
``batcher.flush_us``, ``wal.sync_us``, ``manifest.save_us``, the gate
waits) are *inclusive* times — what a caller of that layer waits for.
Everything else is *self* time per call: the layer's own cost with the
layers below it subtracted, so the rows of one request add up.
"""

from __future__ import annotations

from typing import Dict, List

from measure import ratio
from spans import Aggregates


def span_metrics(a: Aggregates) -> Dict[str, float]:
    built = a.units("run.build")
    build_s = a.total_ns("run.build") / 1e9
    merges = a.count("merge.stream.started")
    merge_s = a.total_ns("merge.stream") / 1e9
    # Every merge's last next() raises StopIteration instead of yielding.
    merged_entries = max(0, a.count("merge.stream") - merges)
    return {
        "mbtree.insert_us": a.mean_us("mbtree.insert"),
        "mbtree.inserts": a.count("mbtree.insert"),
        "run.build_s": build_s,
        "run.build_entries_per_s": ratio(built, build_s),
        "run.builds": a.count("run.build"),
        "learned.fit_us_per_key": ratio(a.self_ns("learned.build_models") / 1e3, built),
        "merklefile.build_us_per_entry": ratio(
            a.self_ns("merklefile.build") / 1e3, a.units("merklefile.build")
        ),
        "valuefile.write_us_per_entry": a.mean_us("valuefile.write"),
        "bloom.add_us": a.mean_us("bloom.add"),
        "merge.busy_s": merge_s,
        "merge.entries_per_s": ratio(merged_entries, merge_s),
        "merge.count": merges,
        "manifest.save_us": a.mean_us("manifest.save", self_time=False),
        "manifest.saves": a.count("manifest.save"),
        "cole.commit_us": a.mean_us("cole.commit", self_time=False),
        "cole.put_many_us_per_put": ratio(
            a.total_ns("cole.put_many") / 1e3, a.count("mbtree.insert")
        ),
        "cole.commit_max_ms": a.max_ns("cole.commit") / 1e6,
        "cole.get_us": a.mean_us("cole.get", kind="get", self_time=False),
        "cole.get_absent_us": a.mean_us("cole.get", kind="get_absent", self_time=False),
        "cole.get_at_us": a.mean_us("cole.get_at", self_time=False),
        "cole.prov_us": a.mean_us("cole.prov", self_time=False),
        "bloom.probe_us": a.mean_us("bloom.probe"),
        "bloom.false_positive_frac": ratio(
            a.truthy("bloom.probe", "get_absent"), a.count("bloom.probe", "get_absent")
        ),
        "run.floor_search_us": a.mean_us("run.floor_search"),
        "run.searches_per_get": ratio(
            a.count("run.floor_search", "get"), a.count("cole.get", "get")
        ),
        "indexfile.search_us": a.mean_us("indexfile.search"),
        "valuefile.floor_us": a.mean_us("valuefile.floor"),
        "cursor.merge_us_per_entry": a.mean_us("cursor.merge"),
        "merklefile.prove_us": a.mean_us("merklefile.prove"),
        "verify.prov_us": a.mean_us("verify.prov", self_time=False),
        "diskio.read_page_us": a.mean_us("diskio.read_page"),
        "diskio.write_page_us": a.mean_us("diskio.write_page"),
        "gate.shared_wait_us": a.mean_us("gate.shared_wait", self_time=False),
        "gate.exclusive_wait_us": a.mean_us("gate.exclusive_wait", self_time=False),
        "gate.exclusive_hold_us": a.mean_us("gate.exclusive_hold", self_time=False),
        "wal.append_us": a.mean_us("wal.append", self_time=False),
        "wal.sync_us": a.mean_us("wal.sync", self_time=False),
        "wal.ack_wait_us": a.mean_us("wal.ack_wait", self_time=False),
        "batcher.put_us": a.mean_us("batcher.put"),
        "batcher.flush_us": a.mean_us("batcher.flush", self_time=False),
        "cache.get_us": a.mean_us("cache.get"),
        "protocol.decode_us": a.mean_us("protocol.decode"),
        "protocol.encode_us": a.mean_us("protocol.encode"),
        "server.dispatch_us": a.mean_us("server.dispatch"),
        "server.executor_hop_us": a.mean_us("server.executor_hop", self_time=False),
    }


def layer_table(a: Aggregates, kinds: List[str], root: str) -> List[str]:
    """Where one request of each kind spends its time: self time per
    request by span name, as text rows."""
    lines = []
    for kind in kinds:
        requests = a.count(root, kind)
        if not requests:
            continue
        total_us = a.total_ns(root, kind) / requests / 1e3
        lines.append(f"  {kind}: {requests} requests, {total_us:.1f} us each in {root}")
        rows = sorted(a.self_by_name(kind).items(), key=lambda item: -item[1])
        for name, self_ns in rows:
            per_request = self_ns / requests / 1e3
            if per_request < 0.05:
                continue
            calls = a.count(name, kind) / requests
            lines.append(
                f"    {name:<24} {per_request:>10.1f} us/req "
                f"{100 * per_request / total_us:>5.1f}%  {calls:>8.2f} calls/req"
            )
    return lines
