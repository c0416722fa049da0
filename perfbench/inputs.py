"""Seeded inputs, request streams and the reachability oracle.

Inputs are built before the server starts.  The graph goes to disk as an
edge list of generator ids; ``repro serve`` interns tokens in order of
first appearance and drops isolated vertices, so every request is written
in the server's ids, found through ``read_edge_list``'s id map.

The oracle is the benchmark's own: a descendant bitset per vertex over
the generator's edges (read workloads), or a BFS over the graph rebuilt
at a response's epoch by replaying the acknowledged update prefix
(``write_mixed``).  It shares no index or traversal code with the
service.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import deque
from dataclasses import dataclass

from repro.graphs.generators import random_dag
from repro.graphs.io import read_edge_list, write_edge_list
from repro.workloads.updates import update_stream

__all__ = ["WORKLOADS", "Inputs", "Workload", "make_inputs"]

BATCH_PAIRS = 64
OPS_PER_WRITE = 4
#: The server's default result-cache capacity; the skewed pool is 2.5x it.
CACHE_CAPACITY = 4096
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Workload:
    """Graph shape and index family; BENCHMARK.json says why each exists."""

    name: str
    vertices: int
    edges: int
    index: str
    wal: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("point_uniform", 5000, 15000, "PLL"),
        Workload("batch_skewed", 20000, 60000, "GRAIL"),
        Workload("write_mixed", 1500, 4500, "DAGGER", wal=True),
    )
}


class Inputs:
    """Everything one run sends, plus the means to check the answers."""

    def __init__(self, workload: Workload, seed: int, edgelist: str) -> None:
        self.workload = workload
        self.seed = seed
        self.edgelist = edgelist
        generated = random_dag(workload.vertices, workload.edges, seed=seed)
        write_edge_list(generated, edgelist)
        served, ids = read_edge_list(edgelist)
        self.n = served.num_vertices
        self.adjacency: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in generated.edges():
            self.adjacency[ids[str(u)]].append(ids[str(v)])
        self._descendants: list[int] | None = None
        self._pool: list[tuple[int, int]] = []
        self._pool_cdf: list[float] = []
        self._writes: list[list[tuple[str, int, int]]] = []
        self._write_graph = None  # served graph after every generated op
        if workload.name == "batch_skewed":
            self._build_pool()
        if workload.name == "write_mixed":
            self._write_graph = served.copy()
            self.extend_writes(600)

    # -- oracle ----------------------------------------------------------
    def descendants(self) -> list[int]:
        """Bitset of every vertex's descendants, itself included."""
        if self._descendants is None:
            indegree = [0] * self.n
            for targets in self.adjacency:
                for v in targets:
                    indegree[v] += 1
            order = [v for v in range(self.n) if indegree[v] == 0]
            for u in order:  # Kahn: appends while iterating
                for v in self.adjacency[u]:
                    indegree[v] -= 1
                    if indegree[v] == 0:
                        order.append(v)
            if len(order) != self.n:
                raise RuntimeError("generated graph is not a DAG")
            desc = [0] * self.n
            for u in reversed(order):
                bits = 1 << u
                for v in self.adjacency[u]:
                    bits |= desc[v]
                desc[u] = bits
            self._descendants = desc
        return self._descendants

    def reaches(self, source: int, target: int) -> bool:
        return bool((self.descendants()[source] >> target) & 1)

    # -- batch_skewed pool -------------------------------------------------
    def _build_pool(self) -> None:
        """~2.5x the cache capacity in distinct pairs, half positive."""
        rng = random.Random(f"pool:{self.seed}")
        half = CACHE_CAPACITY * 5 // 4
        positives: set[tuple[int, int]] = set()
        negatives: set[tuple[int, int]] = set()
        while len(positives) < half or len(negatives) < half:
            s, t = rng.randrange(self.n), rng.randrange(self.n)
            if s == t:
                continue
            bucket = positives if self.reaches(s, t) else negatives
            if len(bucket) < half:
                bucket.add((s, t))
        pool = sorted(positives) + sorted(negatives)
        rng.shuffle(pool)
        self._pool = pool
        self._pool_cdf = list(
            itertools.accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(pool) + 1))
        )

    # -- update stream ---------------------------------------------------
    def extend_writes(self, batches: int) -> None:
        """Generate ``batches`` more 4-op batches after the current ones."""
        chunk = len(self._writes)
        ops = update_stream(
            self._write_graph, batches * OPS_PER_WRITE,
            seed=self.seed * 1000 + chunk, keep_acyclic=True,
        )
        for op in ops:
            if op.kind == "insert":
                self._write_graph.add_edge(op.source, op.target)
            else:
                self._write_graph.remove_edge(op.source, op.target)
        for start in range(0, len(ops), OPS_PER_WRITE):
            self._writes.append(
                [(op.kind, op.source, op.target) for op in ops[start:start + OPS_PER_WRITE]]
            )

    def write(self, position: int) -> list[tuple[str, int, int]]:
        """The ``position``-th update batch, generating more when needed."""
        while position >= len(self._writes):
            self.extend_writes(200)
        return self._writes[position]

    # -- request streams -------------------------------------------------
    def uniform_pairs(self, stream: int):
        rng = random.Random(f"pairs:{self.seed}:{stream}")
        n = self.n
        while True:
            yield rng.randrange(n), rng.randrange(n)

    def skewed_batches(self, stream: int):
        rng = random.Random(f"batches:{self.seed}:{stream}")
        pool, cdf = self._pool, self._pool_cdf
        total = cdf[-1]
        last = len(pool) - 1
        while True:
            yield [
                pool[min(bisect.bisect_left(cdf, rng.random() * total), last)]
                for _ in range(BATCH_PAIRS)
            ]


def make_inputs(workload: str, seed: int, edgelist: str) -> Inputs:
    return Inputs(WORKLOADS[workload], seed, edgelist)


def check_epochs(inputs: Inputs, reads: list[tuple[int, int, int, object]]) -> int:
    """Check ``(epoch, source, target, answer)`` reads of ``write_mixed``.

    Replays the update stream epoch by epoch (epoch e = after the first
    e batches) and answers each read by BFS on that graph.  Returns the
    number of wrong answers.
    """
    out: list[set[int]] = [set(targets) for targets in inputs.adjacency]
    applied = 0
    wrong = 0
    for epoch, source, target, answer in sorted(reads, key=lambda r: r[0]):
        while applied < epoch:
            for kind, u, v in inputs.write(applied):
                if kind == "insert":
                    out[u].add(v)
                else:
                    out[u].discard(v)
            applied += 1
        if answer is not _bfs(out, source, target):
            wrong += 1
    return wrong


def _bfs(out: list[set[int]], source: int, target: int) -> bool:
    if source == target:
        return True
    seen = {source}
    queue = deque((source,))
    while queue:
        for v in out[queue.popleft()]:
            if v == target:
                return True
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False

