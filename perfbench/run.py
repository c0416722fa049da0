"""End-to-end benchmark of the reachability HTTP service.

    python3 perfbench/run.py --workload point_uniform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Each run builds its inputs from ``--seed``, starts ``python -m repro.cli
serve`` in its own process, and drives it from one client process with
two connections in a closed loop: a connection sends its next request
only after the previous reply.  Warm-up requests are checked but not
timed.  Every answer is checked against the benchmark's own oracle; a
wrong answer fails the run (exit 1).

``--trace 0`` reports the end-to-end metrics with tracing off.  The
server is started three times and ``setup_s`` is the median spawn-to-
first-200-on-/readyz time; the third server takes the load.

``--trace 1`` splits the window in two: an untraced server, then the
same inputs against a server started through ``traced_serve.py``.  It
reports the per-layer figures of the traced half and the tracing
overhead on ``read_p50_ms`` between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report with units, sample counts, and the server's own
counters.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from client import Connection, RequestFailed, encode_request, wait_ready
from layers import PER_LAYER, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

HOST = "127.0.0.1"
SETUP_STARTS = 3
WARMUP_S = 1.0
SLICE_READS = 1000
#: A slice in which the host stole more than this share of the machine's
#: CPU time is left out of the read figures (see ``read_slices``).
STEAL_LIMIT = 0.02
CPU_SAMPLE_S = 0.1
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0

#: name -> unit of every end-to-end metric, reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


# -- statistics -----------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def flatten(node: object, prefix: str = "") -> dict[str, float]:
    """Nested metrics JSON -> ``{"a.b.c": number}``."""
    flat: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            flat.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        flat[prefix] = node
    return flat


def counter_deltas(before: dict, after: dict) -> dict[str, float]:
    """Counter change between two ``/metrics?format=json`` scrapes.

    Integer leaves are counters.  A latency histogram contributes its
    ``count`` and ``sum_s`` (mean times count).
    """
    a, b = flatten(before), flatten(after)
    deltas = {
        key: value - a.get(key, 0)
        for key, value in b.items()
        if isinstance(value, int) and isinstance(a.get(key, 0), int)
    }
    for key, value in b.items():
        if key.endswith(".mean_s"):
            stem = key[: -len(".mean_s")]
            count_a, count_b = a.get(stem + ".count", 0), b.get(stem + ".count", 0)
            deltas[stem + ".sum_s"] = value * count_b - a.get(key, 0.0) * count_a
    return deltas


def cpu_ticks() -> tuple[int, int] | None:
    """Machine-wide ``(busy, steal)`` jiffies from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine's
    virtual CPUs had work.  ``None`` where the counter does not exist.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


# -- the server process ---------------------------------------------------
def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` process; ``stop`` always reaps it."""

    def __init__(self, inputs, workdir: str, tag: str, spans: str | None = None) -> None:
        self.port = free_port()
        workload = inputs.workload
        serve = [
            "serve", inputs.edgelist, "--index", workload.index,
            "--host", HOST, "--port", str(self.port),
        ]
        if workload.wal:
            wal_dir = os.path.join(workdir, f"wal-{tag}")
            serve += ["--wal-dir", wal_dir, "--wal-fsync", "batch"]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [
                sys.executable, os.path.join(HERE, "traced_serve.py"),
                "--spans", spans, "--", *serve,
            ]
        env = dict(os.environ, PYTHONPATH=SRC)
        self._log = open(os.path.join(workdir, f"server-{tag}.log"), "wb")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
        )

    def wait_ready(self) -> float:
        """Seconds from spawn to the first 200 from ``/readyz``."""
        try:
            wait_ready(HOST, self.port, self.started + READY_TIMEOUT_S)
        except Exception:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}: "
                                   f"see {self._log.name}") from None
            raise
        return time.monotonic() - self.started

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


def fetch_json(port: int, path: str) -> dict:
    conn = Connection(HOST, port)
    try:
        response = conn.get(path)
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"GET {path} answered {response.status}")
    return json.loads(response.body)


# -- load -----------------------------------------------------------------
class ReadStream:
    """Scalar ``GET /reach`` or 64-pair ``POST /reach/batch`` requests."""

    kind = "read"
    idempotent = True

    def __init__(self, inputs, stream: int, batched: bool) -> None:
        self.batched = batched
        self.stopped = False
        if batched:
            self._source = inputs.skewed_batches(stream)
        else:
            self._source = inputs.uniform_pairs(stream)

    def next(self):
        if self.batched:
            pairs = next(self._source)
            body = json.dumps({"pairs": pairs}).encode()
            return encode_request(HOST, "POST", "/reach/batch", body), pairs
        s, t = next(self._source)
        return encode_request(HOST, "GET", f"/reach?source={s}&target={t}"), (s, t)

    def done(self, status: int) -> None:
        pass


class WriteStream:
    """``POST /update`` of the seeded update stream, in order.

    A 503 or 429 (shed, nothing applied) resends the same batch; any
    other failure leaves the server state unknown, so writing stops.
    """

    kind = "write"
    idempotent = False

    def __init__(self, inputs) -> None:
        self._inputs = inputs
        self.position = 0
        self.stopped = False

    def next(self):
        batch = self._inputs.write(self.position)
        body = json.dumps(
            {"ops": [{"kind": k, "source": s, "target": t} for k, s, t in batch]}
        ).encode()
        return encode_request(HOST, "POST", "/update", body), self.position

    def done(self, status: int) -> None:
        if status == 200:
            self.position += 1
        elif status not in (429, 503):
            self.stopped = True


def drive(connections, streams, seconds: float) -> tuple[list, float, float, list]:
    """Closed loop on every connection until ``seconds`` pass.

    Returns the request log ``(kind, t0, t1, status, meta, body)``, the
    window's start and end (last reply) on the monotonic clock, and
    ``(time, busy, steal)`` CPU samples the main thread took meanwhile.
    """
    log: list = []
    errors: list[BaseException] = []
    start = time.monotonic()
    deadline = start + seconds

    def loop(conn, stream) -> None:
        record = log.append
        clock = time.monotonic
        try:
            while not stream.stopped and clock() < deadline:
                raw, meta = stream.next()
                t0 = clock()
                try:
                    response = conn.request(raw, stream.idempotent)
                    status, body = response.status, response.body
                except RequestFailed:
                    status, body = 0, b""
                t1 = clock()
                record((stream.kind, t0, t1, status, meta, body))
                stream.done(status)
        except Exception as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=loop, args=pair, daemon=True)
        for pair in zip(connections, streams)
    ]
    cpu: list[tuple[float, int, int]] = []
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        ticks = cpu_ticks()
        if ticks is not None:
            cpu.append((time.monotonic(), *ticks))
        time.sleep(CPU_SAMPLE_S)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    end = max((entry[2] for entry in log), default=deadline)
    ticks = cpu_ticks()
    if ticks is not None:
        cpu.append((time.monotonic(), *ticks))
    return log, start, end, cpu


# -- checking -------------------------------------------------------------
class Tally:
    """Answers checked, and the failures and wrong answers among them."""

    def __init__(self) -> None:
        self.wrong = 0
        self.epoch_reads: list = []
        self.acked = 0
        self.write_epochs_ok = True

    def read_answers(self, inputs, entry) -> int | None:
        """Number of exact answers in a 200 read reply; None if it failed.

        Scalar replies of ``write_mixed`` are kept for the epoch check.
        """
        _kind, _t0, _t1, status, meta, body = entry
        if status != 200:
            return None
        payload = json.loads(body)
        if "results" in payload:
            results = payload["results"]
            if len(results) != len(meta):
                self.wrong += 1
                return None
            answers = [r["reachable"] for r in results]
            pairs = meta
        else:
            answers = [payload["reachable"]]
            pairs = [meta]
        if any(answer is None for answer in answers):
            return None  # UNKNOWN: the service could not answer in time
        if inputs.workload.wal:
            s, t = meta
            self.epoch_reads.append((payload["epoch"], s, t, answers[0]))
        else:
            for (s, t), answer in zip(pairs, answers):
                if answer is not inputs.reaches(s, t):
                    self.wrong += 1
        return len(answers)

    def write_acked(self, entry) -> bool:
        _kind, _t0, _t1, status, position, body = entry
        if status != 200:
            return False
        self.acked += 1
        if json.loads(body).get("epoch") != position + 1:
            self.write_epochs_ok = False
        return True


def load_phase(inputs, server: Server, seconds: float) -> dict:
    """Warm up, scrape, run the timed window, scrape, check every reply."""
    port = server.port
    connections = [Connection(HOST, port), Connection(HOST, port)]
    if inputs.workload.wal:
        streams = [WriteStream(inputs), ReadStream(inputs, 1, batched=False)]
    else:
        batched = inputs.workload.name == "batch_skewed"
        streams = [ReadStream(inputs, i, batched) for i in range(2)]
    try:
        warm_log, _start, _end, _cpu = drive(connections, streams, WARMUP_S)
        before = fetch_json(port, "/metrics?format=json")
        connects_before = sum(c.connects for c in connections)
        window_log, start, end, cpu = drive(connections, streams, seconds)
        connects = sum(c.connects for c in connections) - connects_before
    finally:
        for conn in connections:
            conn.close()
    after = fetch_json(port, "/metrics?format=json")
    ready = fetch_json(port, "/readyz")
    peak_rss = server.peak_rss_mb()

    tally = Tally()
    reads: list[tuple[float, float, int]] = []  # (reply time, ms, answers)
    write_ms: list[float] = []
    failed = 0
    for timed, log in ((False, warm_log), (True, window_log)):
        for entry in log:
            kind, t0, t1 = entry[0], entry[1], entry[2]
            if kind == "read":
                count = tally.read_answers(inputs, entry)
                ok = count is not None
                if timed and ok:
                    reads.append((t1, (t1 - t0) * 1e3, count))
            else:
                ok = tally.write_acked(entry)
                if timed and ok:
                    write_ms.append((t1 - t0) * 1e3)
            if timed and not ok:
                failed += 1
    if inputs.workload.wal:
        from inputs import check_epochs

        tally.wrong += check_epochs(inputs, tally.epoch_reads)
    problems = []
    if tally.wrong:
        problems.append(f"{tally.wrong} wrong answer(s)")
    if not tally.write_epochs_ok:
        problems.append("an /update reply skipped an epoch")
    if ready.get("epoch") != tally.acked:
        problems.append(
            f"/readyz epoch {ready.get('epoch')} != {tally.acked} acknowledged batches"
        )
    return {
        "problems": problems,
        "attempted": len(window_log),
        "failed": failed,
        "start": start,
        "duration_s": end - start,
        "window_ns": (int(start * 1e9), int(end * 1e9)),
        "answers": sum(read[2] for read in reads),
        "reads": reads,
        "cpu": cpu,
        "write_ms": write_ms,
        "connects": connects,
        "deltas": counter_deltas(before, after),
        "ready": ready,
        "peak_rss_mb": peak_rss,
    }


def read_slices(phase: dict) -> tuple[list[list[tuple[float, float, int]]], float]:
    """The window's reads in equal slices of at least ``SLICE_READS``.

    Returns the slices to compute read figures from, and their length.
    Slices in which the host stole more than ``STEAL_LIMIT`` of the CPU
    time are dropped, unless that would drop every slice.  Steal is the
    hypervisor running another tenant; it stretches every request in
    flight, whatever the program does, so it is noise to this benchmark.
    """
    reads, cpu, start = phase["reads"], phase["cpu"], phase["start"]
    count = max(1, len(reads) // SLICE_READS)
    length = phase["duration_s"] / count
    slices: list[list] = [[] for _ in range(count)]
    for read in reads:
        slices[min(int((read[0] - start) / length), count - 1)].append(read)

    def steal_share(lo: float, hi: float) -> float:
        before = [sample for sample in cpu if sample[0] <= lo] or cpu[:1]
        after = [sample for sample in cpu if sample[0] >= hi] or cpu[-1:]
        busy = after[0][1] - before[-1][1]
        steal = after[0][2] - before[-1][2]
        return steal / (busy + steal) if busy + steal > 0 else 0.0

    kept = slices
    if cpu:
        kept = [
            piece for i, piece in enumerate(slices)
            if steal_share(start + i * length, start + (i + 1) * length) <= STEAL_LIMIT
        ]
    kept = [piece for piece in kept if piece] or [piece for piece in slices if piece]
    return kept, length


def end_to_end(phase: dict) -> dict[str, float]:
    write_ms = phase["write_ms"]
    duration = phase["duration_s"]
    slices, length = read_slices(phase)

    def median_over_slices(figure) -> float:
        return statistics.median(figure(piece) for piece in slices) if slices else 0.0

    return {
        "answers_per_s": median_over_slices(lambda piece: sum(r[2] for r in piece) / length),
        "read_p50_ms": median_over_slices(lambda piece: quantile([r[1] for r in piece], 0.50)),
        "read_p99_ms": median_over_slices(lambda piece: quantile([r[1] for r in piece], 0.99)),
        "peak_rss_mb": phase["peak_rss_mb"],
        "writes_per_s": len(write_ms) / duration,
        "write_p50_ms": quantile(write_ms, 0.50),
        "write_p95_ms": quantile(write_ms, 0.95),
        "failed_frac": phase["failed"] / max(1, phase["attempted"]),
    }


#: Server counters worth printing beside the timings (window deltas).
COUNTERS = (
    "cache.hits", "cache.misses", "cache.evictions",
    "coalescer.led", "coalescer.coalesced",
    "service.swaps", "service.patches", "service.rebuilds",
    "service.patch_audit.passed", "service.patch_audit.failed",
    "wal.appends", "wal.append_bytes", "wal.fsyncs",
)


def report(
    name: str, phase: dict | None, figures: dict[str, float], units: dict[str, str]
) -> None:
    """Print ``figures`` with units; with ``phase``, its sample counts and
    the server counters' change over its window."""
    print(f"[{name}]")
    if phase is None:
        for metric, value in figures.items():
            print(f"  {metric:<36} {value:>14.4f} {units.get(metric, '')}")
        return
    slices, _length = read_slices(phase)
    total = max(1, len(phase["reads"]) // SLICE_READS)
    slices = f"{len(slices)} of {total}"
    samples = {
        "read_p50_ms": f"{len(phase['reads'])} reads, median of {slices} slices",
        "read_p99_ms": f"{len(phase['reads'])} reads, median of {slices} slices",
        "answers_per_s": f"{phase['answers']} answers in {phase['duration_s']:.2f} s, "
                         f"median of {slices} slices",
        "write_p50_ms": f"{len(phase['write_ms'])} writes",
        "write_p95_ms": f"{len(phase['write_ms'])} writes",
        "writes_per_s": f"{len(phase['write_ms'])} writes in {phase['duration_s']:.2f} s",
        "failed_frac": f"{phase['failed']} of {phase['attempted']} requests",
    }
    for metric, value in figures.items():
        note = samples.get(metric, "")
        print(f"  {metric:<36} {value:>14.4f} {units.get(metric, ''):<8} {note}")
    deltas = phase["deltas"]
    counts = {key: deltas[key] for key in COUNTERS if key in deltas}
    counts.update({k: v for k, v in deltas.items() if k.startswith("index.route.")})
    counts["connects"] = phase["connects"]
    print("  counters: " + " ".join(f"{k}={v:g}" for k, v in counts.items()))
    wal = phase["ready"].get("wal")
    if wal:
        print("  wal: " + json.dumps(wal, sort_keys=True))


# -- runs -----------------------------------------------------------------
WRITE_UNITS = {
    "writes_per_s": "1/s", "write_p50_ms": "ms", "write_p95_ms": "ms",
    "failed_frac": "fraction",
}


def run_untraced(inputs, workdir: str, seconds: float) -> dict:
    setups = []
    server = None
    try:
        for attempt in range(SETUP_STARTS):
            server = Server(inputs, workdir, f"setup{attempt}")
            setups.append(server.wait_ready())
            if attempt < SETUP_STARTS - 1:
                server.stop()
                server = None
        phase = load_phase(inputs, server, seconds)
    finally:
        if server is not None:
            server.stop()
    figures = end_to_end(phase)
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update({k: figures[k] for k in END_TO_END if k != "setup_s"})
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    shown = dict(metrics)
    if inputs.workload.wal:
        shown.update({k: figures[k] for k in WRITE_UNITS})
    shown["failed_frac"] = figures["failed_frac"]
    report("end-to-end", phase, shown, {**END_TO_END, **WRITE_UNITS})
    return {"metrics": metrics, "units": END_TO_END, "phases": [phase]}


def run_traced(inputs, workdir: str, seconds: float) -> dict:
    half = seconds / 2.0
    server = Server(inputs, workdir, "untraced")
    try:
        server.wait_ready()
        plain = load_phase(inputs, server, half)
    finally:
        server.stop()
    spans_path = os.path.join(workdir, "spans.json")
    server = Server(inputs, workdir, "traced", spans=spans_path)
    try:
        server.wait_ready()
        traced = load_phase(inputs, server, half)
    finally:
        code = server.stop()
    if code != 0 or not os.path.exists(spans_path):
        raise RuntimeError(f"traced server exited with {code} and no spans")
    with open(spans_path) as handle:
        doc = json.load(handle)
    plain_e2e = end_to_end(plain)
    traced_e2e = end_to_end(traced)
    traced_ms = [read[1] for read in traced["reads"]]
    client_mean_us = statistics.fmean(traced_ms) * 1e3 if traced_ms else 0.0
    metrics = layer_metrics(doc, traced["window_ns"], client_mean_us, traced["deltas"])
    metrics["client.connects_per_request"] = plain["connects"] / max(1, plain["attempted"])
    metrics["trace.overhead_pct"] = (
        (traced_e2e["read_p50_ms"] / plain_e2e["read_p50_ms"] - 1.0) * 100.0
        if plain_e2e["read_p50_ms"] else 0.0
    )
    for key in WRITE_UNITS:
        metrics[key] = plain_e2e[key]
    report("untraced half", plain, plain_e2e, {**END_TO_END, **WRITE_UNITS})
    report("traced half", traced, traced_e2e, {**END_TO_END, **WRITE_UNITS})
    report("per-layer (traced half)", None, {k: metrics[k] for k in PER_LAYER}, PER_LAYER)
    return {
        "metrics": {k: metrics[k] for k in PER_LAYER},
        "units": PER_LAYER,
        "phases": [plain, traced],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from inputs import make_inputs

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        inputs = make_inputs(workload, seed, os.path.join(workdir, "graph.txt"))
        print(f"workload {workload}: random_dag({inputs.workload.vertices}, "
              f"{inputs.workload.edges}) seed {seed}, {inputs.n} vertices served, "
              f"--index {inputs.workload.index}, trace {int(trace)}, {seconds:g} s")
        result = (run_traced if trace else run_untraced)(inputs, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for phase in result["phases"] for p in phase["problems"]]
    for problem in problems:
        print(f"WRONG: {problem}")
    return {
        "correct": not problems,
        "attempted": sum(phase["attempted"] for phase in result["phases"]),
        "failed": sum(phase["failed"] for phase in result["phases"]),
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, SRC)
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description="End-to-end service benchmark.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no service source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
