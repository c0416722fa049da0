"""Per-layer figures from the traced server's spans.

Spans come from ``traced_serve.py``.  Only requests whose root span
(``http.get`` or ``http.post``) started inside the timed window count.
A root with an ``engine.reach_ex`` or ``engine.execute_batch`` child is a
read; one with ``engine.apply_updates`` is a write; any other root (a
readiness poll, a metrics scrape) is ignored.  A span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["PER_LAYER", "layer_metrics"]

READ_ENGINE = ("engine.reach_ex", "engine.execute_batch")
WRITE_ENGINE = "engine.apply_updates"

#: name -> unit of every per-layer metric the traced run reports.  A
#: layer a workload never reaches reports 0.
PER_LAYER = {
    "client.connects_per_request": "count",
    "http.self_us": "us",
    "http.wire_us": "us",
    "admission.wait_us": "us",
    "engine.reach_self_us": "us",
    "coalescer.self_us": "us",
    "coalescer.shared_rate": "fraction",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "index.query_us": "us",
    "cache.hit_rate": "fraction",
    "cache.evictions": "count",
    "engine.batch_self_us_per_pair": "us",
    "index.query_batch_us_per_pair": "us",
    "kernels.sweep_us_per_pair": "us",
    "index.route.trivial_share": "fraction",
    "index.route.label_probe_share": "fraction",
    "index.route.certain_share": "fraction",
    "index.route.guided_traversal_share": "fraction",
    "index.route.kernel_sweep_share": "fraction",
    "write.apply_us": "us",
    "write.graph_copy_us": "us",
    "write.index_copy_us": "us",
    "write.patch_us": "us",
    "write.prepass_bfs_us": "us",
    "write.audit_us": "us",
    "write.wal_append_us": "us",
    "write.fsync_us": "us",
    "write.fsyncs_per_batch": "count",
    "write.wal_bytes_per_op": "bytes",
    "write.rebuild_rate": "fraction",
    "write.cache_invalidate_us": "us",
    "setup.read_graph_s": "s",
    "setup.build_s": "s",
    "index.entries": "count",
    "index.bytes": "bytes",
    "trace.overhead_pct": "%",
    "writes_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "failed_frac": "fraction",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    doc: dict,
    window_ns: tuple[int, int],
    client_read_mean_us: float,
    deltas: dict[str, float],
) -> dict[str, float]:
    """Span-derived and counter-derived per-layer figures.

    ``doc`` is the launcher's dump, ``window_ns`` the timed window on the
    monotonic clock both processes share, ``client_read_mean_us`` the
    client's mean read latency over the same window, and ``deltas`` the
    server counters' change over it (see ``run.counter_deltas``).
    """
    spans = doc["spans"]
    children: dict[int, list] = defaultdict(list)
    roots = []
    for span in spans:
        span_id, parent, _root, name, start, _dur, _n = span
        if parent:
            children[parent].append(span)
        elif name in ("http.get", "http.post") and window_ns[0] <= start <= window_ns[1]:
            roots.append(span)
    kind_of: dict[int, str] = {}
    for root in roots:
        names = {child[3] for child in children[root[0]]}
        if names & set(READ_ENGINE):
            kind_of[root[0]] = "read"
        elif WRITE_ENGINE in names:
            kind_of[root[0]] = "write"

    # (kind, name) -> [calls, total duration, total self time, total n]
    agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0, 0, 0])
    for span in spans:
        kind = kind_of.get(span[2])
        if kind is None:
            continue
        self_ns = span[5] - sum(child[5] for child in children[span[0]])
        entry = agg[(kind, span[3])]
        entry[0] += 1
        entry[1] += span[5]
        entry[2] += self_ns
        entry[3] += span[6]

    def read(name: str) -> list:
        return agg.get(("read", name), [0, 0, 0, 0])

    us = 1e-3  # ns -> us
    reads = sum(1 for kind in kind_of.values() if kind == "read")
    root_read = [a + b for a, b in zip(read("http.get"), read("http.post"))]
    out: dict[str, float] = {}
    out["http.self_us"] = _ratio(root_read[2] * us, reads)
    out["http.wire_us"] = (
        client_read_mean_us - _ratio(root_read[1] * us, reads) if reads else 0.0
    )
    out["admission.wait_us"] = _ratio(read("admission.admit")[1] * us, reads)
    reach = read("engine.reach_ex")
    out["engine.reach_self_us"] = _ratio(reach[2] * us, reach[0])
    coalescer = read("coalescer.run")
    out["coalescer.self_us"] = _ratio(coalescer[2] * us, coalescer[0])
    out["coalescer.shared_rate"] = _ratio(coalescer[3], coalescer[0])
    get, put = read("cache.get"), read("cache.put")
    out["cache.get_us"] = _ratio(get[1] * us, get[0])
    out["cache.put_us"] = _ratio(put[1] * us, put[0])
    out["cache.hit_rate"] = _ratio(get[3], get[0])
    query = read("index.query")
    out["index.query_us"] = _ratio(query[1] * us, query[0])
    batch = read("engine.execute_batch")
    out["engine.batch_self_us_per_pair"] = _ratio(batch[2] * us, batch[3])
    query_batch = read("index.query_batch")
    out["index.query_batch_us_per_pair"] = _ratio(query_batch[1] * us, query_batch[3])
    sweep = read("kernels.batch_reachable")
    out["kernels.sweep_us_per_pair"] = _ratio(sweep[1] * us, sweep[3])

    # Routes of the pairs that reached the index (cache hits never do),
    # named as the index core's own index.route.* counters name them.
    total = query[0] + query_batch[3]
    guided = read("traversal.guided_query")[0]
    probed = total - sweep[3] - guided - query[3]
    complete = bool(doc["facts"].get("complete"))
    out["index.route.trivial_share"] = _ratio(query[3], total)
    out["index.route.label_probe_share"] = _ratio(probed, total) if complete else 0.0
    out["index.route.certain_share"] = 0.0 if complete else _ratio(probed, total)
    out["index.route.guided_traversal_share"] = _ratio(guided, total)
    out["index.route.kernel_sweep_share"] = _ratio(sweep[3], total)

    out.update(_write_stages(spans, children, kind_of))
    out["write.fsync_us"] = _ratio(deltas.get("wal.fsync_latency.sum_s", 0.0) * 1e6,
                                   deltas.get("wal.fsync_latency.count", 0))
    batches = deltas.get("service.swaps", 0)
    out["write.fsyncs_per_batch"] = _ratio(deltas.get("wal.fsyncs", 0), batches)
    out["write.wal_bytes_per_op"] = _ratio(
        deltas.get("wal.append_bytes", 0), deltas.get("service.updates_applied", 0)
    )
    rebuilds = deltas.get("service.rebuilds", 0)
    out["write.rebuild_rate"] = _ratio(rebuilds, rebuilds + deltas.get("service.patches", 0))
    out["cache.evictions"] = deltas.get("cache.evictions", 0)

    setup = {span[3]: span[5] for span in reversed(spans) if not span[1]}
    out["setup.read_graph_s"] = setup.get("graphs.read_edge_list", 0) * 1e-9
    out["setup.build_s"] = setup.get("index.build", 0) * 1e-9
    out["index.entries"] = doc["facts"].get("entries", 0)
    out["index.bytes"] = doc["facts"].get("bytes", 0)
    return out


def _write_stages(spans, children, kind_of) -> dict[str, float]:
    """Mean time per update batch in each stage of the write path."""
    stages = defaultdict(int)
    writes = 0
    for span in spans:
        if span[3] != WRITE_ENGINE or kind_of.get(span[2]) != "write":
            continue
        writes += 1
        stages["apply"] += span[5]
        steps = sorted(children[span[0]], key=lambda child: child[4])
        copies = [c[4] for c in steps if c[3] == "copy.deepcopy"]
        index_copied = copies[0] if copies else None
        patch_end = max(
            (c[4] + c[5] for c in steps if c[3] in ("index.insert_edge", "index.delete_edge")),
            default=None,
        )
        for _id, _parent, _root, name, start, dur, _n in steps:
            if name == "graphs.copy":
                stages["graph_copy"] += dur
            elif name == "copy.deepcopy":
                stages["index_copy"] += dur
            elif name in ("index.insert_edge", "index.delete_edge"):
                stages["patch"] += dur
            elif name == "wal.append":
                stages["wal_append"] += dur
            elif name == "cache.invalidate_all":
                stages["cache_invalidate"] += dur
            elif name in ("index.query", "traversal.bfs_reachable"):
                # The post-patch audit runs index probes and BFS after the
                # last patch step; the viability pre-pass runs BFS before
                # the index is copied.
                if patch_end is not None and start >= patch_end:
                    stages["audit"] += dur
                elif index_copied is None or start < index_copied:
                    stages["prepass_bfs"] += dur
    us = 1e-3
    return {
        f"write.{stage}_us": _ratio(stages[stage] * us, writes)
        for stage in (
            "apply", "graph_copy", "index_copy", "patch", "prepass_bfs",
            "audit", "wal_append", "cache_invalidate",
        )
    }
