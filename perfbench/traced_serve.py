"""Run ``repro serve`` with in-memory spans around each layer's calls.

Usage::

    PYTHONPATH=src python perfbench/traced_serve.py --spans OUT.json -- \\
        serve graph.txt --index PLL --port 8765

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  Before the
CLI starts, the launcher replaces the public functions of each layer
with wrappers that record one span per call: name, start, duration, the
enclosing span, the outermost span of the same thread (one request), and
a small per-call count (pairs in a batch, a cache hit, a shared flight).
Spans stay in memory.  The CLI drains on SIGTERM and returns; the
launcher then writes every span, plus the served index's size, to
``OUT.json``.  No code under ``src/`` changes.

Names are patched where the caller looks them up: ``bfs_reachable`` and
``copy`` in ``repro.service.engine``, ``batch_reachable`` and
``guided_query`` in ``repro.core.base``, ``read_edge_list`` in
``repro.cli``.  The engine's ``copy`` module is replaced by a namespace
whose ``deepcopy`` is wrapped, so only the engine's outermost call is
recorded; deepcopy's own recursion goes through the real module.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import sys
import threading
import time
import types


class SpanRecorder:
    """Collects spans in memory; one stack of open spans per thread.

    A span is ``(id, parent_id, root_id, name, start_ns, dur_ns, n)``
    with ``parent_id`` 0 for a root.  ``n`` comes from the wrapper's
    ``count(args, result)`` (1 when none is given, 0 when the call
    raised).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent_id, root_id = stack[-1]
            else:
                parent_id, root_id = 0, span_id
            stack.append((span_id, root_id))
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                n = 1 if count is None else count(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent_id, root_id, name, start, end - start, n))

        return traced

    def patch(self, owner, attribute: str, name: str, count=None) -> None:
        """Replace ``owner.attribute`` (module function or method)."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), count))

    def patch_classmethod(self, cls, attribute: str, name: str) -> None:
        function = getattr(cls, attribute).__func__
        setattr(cls, attribute, classmethod(self.wrap(name, function)))


def install(recorder: SpanRecorder, index_family: str) -> dict:
    """Wrap every layer's entry points; returns a dict the CLI fills in."""
    import repro.cli as cli
    import repro.core.base as base
    import repro.service.engine as engine
    import repro.service.server as server
    from repro.core.registry import plain_index
    from repro.graphs.digraph import DiGraph
    from repro.service.admission import AdmissionController
    from repro.service.batching import QueryCoalescer
    from repro.service.cache import MISS, ResultCache
    from repro.wal.log import WriteAheadLog

    patch = recorder.patch
    # service.server: one root span per request, after the request line
    # and headers are parsed.
    patch(server._Handler, "do_GET", "http.get")
    patch(server._Handler, "do_POST", "http.post")
    patch(AdmissionController, "admit", "admission.admit")
    # service.engine
    service_cls = engine.ReachabilityService
    patch(service_cls, "reach_ex", "engine.reach_ex")
    patch(service_cls, "execute_batch", "engine.execute_batch",
          lambda args, result: len(args[1]))
    patch(service_cls, "apply_updates", "engine.apply_updates",
          lambda args, result: len(args[1]))
    # service.cache: n = 1 on a hit
    patch(ResultCache, "get", "cache.get", lambda args, result: int(result is not MISS))
    patch(ResultCache, "put", "cache.put")
    patch(ResultCache, "invalidate_all", "cache.invalidate_all")
    # service.batching: n = 1 when the caller shared another's flight
    patch(QueryCoalescer, "run", "coalescer.run", lambda args, result: int(result[1]))
    # core / plain: query and query_batch live on the base class; the
    # served family supplies build and the dynamic operations.
    patch(base.ReachabilityIndex, "query", "index.query",
          lambda args, result: int(args[1] == args[2]))
    patch(base.ReachabilityIndex, "query_batch", "index.query_batch",
          lambda args, result: len(args[1]))
    family = plain_index(index_family)
    recorder.patch_classmethod(family, "build", "index.build")
    patch(family, "insert_edge", "index.insert_edge")
    patch(family, "delete_edge", "index.delete_edge")
    # kernels and traversal, reached through the index core
    patch(base, "batch_reachable", "kernels.batch_reachable",
          lambda args, result: len(args[1]))
    patch(base, "guided_query", "traversal.guided_query")
    patch(engine, "bfs_reachable", "traversal.bfs_reachable")
    # graphs
    patch(DiGraph, "copy", "graphs.copy")
    patch(cli, "read_edge_list", "graphs.read_edge_list")
    engine.copy = types.SimpleNamespace(
        deepcopy=recorder.wrap("copy.deepcopy", copy.deepcopy)
    )
    # wal
    patch(WriteAheadLog, "append", "wal.append")
    patch(WriteAheadLog, "sync", "wal.sync")

    captured: dict = {}
    original_serve = server.serve

    def capture_serve(service, *args, **kwargs):
        captured["service"] = service
        return original_serve(service, *args, **kwargs)

    server.serve = capture_serve
    return captured


def dump(recorder: SpanRecorder, captured: dict, path: str) -> None:
    facts = {}
    service = captured.get("service")
    if service is not None:
        index = service.acquire().plain
        report = index.size_report()
        facts = {
            "complete": bool(index.metadata.complete),
            "entries": report.entries,
            "bytes": report.estimated_bytes,
        }
    spans = list(recorder.spans)
    with open(path, "w") as handle:
        json.dump({"facts": facts, "spans": spans}, handle, separators=(",", ":"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    family = "PLL"
    if "--index" in cli_args:
        family = cli_args[cli_args.index("--index") + 1]
    recorder = SpanRecorder()
    captured = install(recorder, family)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        dump(recorder, captured, args.spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
