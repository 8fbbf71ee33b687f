#!/usr/bin/env python
"""Closed-loop load generator for the analysis server.

Starts an in-process :class:`~repro.server.TimingServerApp` behind the
real threaded HTTP shell, hammers ``POST /analyze`` from N keep-alive
client threads, and reports requests/second plus latency percentiles —
once with request coalescing enabled and once with ``max_batch=1``
(every request its own kernel call).  The ratio between the two is
what coalescing buys on that design at that concurrency.

Clients speak minimal hand-rolled HTTP/1.1 over raw sockets (with
TCP_NODELAY) instead of ``http.client`` because on a single core the
client's own parsing overhead competes with the server for CPU and
dilutes the measured ratio.

Output JSON (``benchmarks/results/server_throughput.json`` by default)
records the ratio at every level and, as ``coalescing_speedup``, at the
highest one.  No CI step gates it: CI runs a smoke size that fails only
on a non-200 response.  Absolute rates and percentiles are
machine-dependent.

The **overload phase** (``--phase overload`` or part of ``all``)
measures admission control instead of raw speed: the server runs with
a small ``max_inflight``/``max_queue``, first under exactly-capacity
load, then under many times that.  Tracked metrics
(``benchmarks/results/server_overload.json``):

``goodput_throughput``
    accepted req/s under overload ÷ accepted req/s at capacity — the
    fraction of its own capacity the server still *delivers* while
    drowning.  Without admission control this collapses; with it the
    excess is shed up front and goodput holds.
``wellformed_throughput``
    fraction of ALL overload responses (accepted and shed alike) that
    parsed as structured JSON — the "never a hung socket, never a raw
    500" contract as a number.

Usage::

    python tools/bench_server.py            # default gen:csa2048.8 sweep
    python tools/bench_server.py --design gen:csa256.8 --duration 1 \
        --concurrency 1,32
    python tools/bench_server.py --phase overload
    python tools/bench_compare.py \
        --baseline benchmarks/baselines/server_overload.json \
        benchmarks/results/server_overload.json
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cli import preload_design  # noqa: E402
from repro.server import TimingServerApp, start_server  # noqa: E402

DEFAULT_DESIGN = "gen:csa2048.8"
DEFAULT_LEVELS = "1,8,32,64"


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


class _Client(threading.Thread):
    """One closed-loop client: send request, read reply, repeat.

    With ``check_json`` each response body is parsed and a per-request
    ``(latency, status, wellformed)`` sample recorded — the overload
    phase's mode.  Shed responses (503) trigger a tiny backoff so the
    shed loop does not degenerate into a pure spin.
    """

    def __init__(
        self, host: str, port: int, request: bytes, check_json: bool = False
    ):
        super().__init__(daemon=True)
        self.host, self.port, self.request = host, port, request
        self.check_json = check_json
        self.latencies: list[float] = []
        self.samples: list[tuple[float, int, bool]] = []
        self.errors = 0
        self.stop = threading.Event()

    def run(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=30)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = b""
        try:
            while not self.stop.is_set():
                t0 = time.perf_counter()
                sock.sendall(self.request)
                while b"\r\n\r\n" not in buf:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, buf = buf.partition(b"\r\n\r\n")
                status = int(head.split(b" ", 2)[1])
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                while len(buf) < length:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                body, buf = buf[:length], buf[length:]
                elapsed = time.perf_counter() - t0
                self.latencies.append(elapsed)
                if status != 200:
                    self.errors += 1
                if self.check_json:
                    try:
                        doc = json.loads(body)
                        ok = ("delay" in doc) or ("error" in doc)
                    except ValueError:
                        doc, ok = {}, False
                    self.samples.append((elapsed, status, ok))
                    if status == 503:
                        # honor the server's backoff hint (capped so a
                        # long hint cannot idle the whole bench)
                        hint = doc.get("retry_after_ms", 2)
                        try:
                            pause = min(50.0, max(2.0, float(hint))) / 1e3
                        except (TypeError, ValueError):
                            pause = 0.002
                        time.sleep(pause)
        finally:
            sock.close()


def run_level(
    host: str,
    port: int,
    request: bytes,
    concurrency: int,
    duration: float,
    warmup: float,
) -> dict:
    """Closed-loop load at one concurrency level; measured window only."""
    clients = [_Client(host, port, request) for _ in range(concurrency)]
    for c in clients:
        c.start()
    time.sleep(warmup)
    skip = [len(c.latencies) for c in clients]
    t0 = time.perf_counter()
    time.sleep(duration)
    for c in clients:
        c.stop.set()
    # unblock: the last in-flight request per client finishes on its own
    for c in clients:
        c.join(timeout=30)
    window = time.perf_counter() - t0
    latencies = sorted(
        lat
        for c, n in zip(clients, skip)
        for lat in c.latencies[n:]
    )
    errors = sum(c.errors for c in clients)
    if errors:
        raise SystemExit(f"bench_server: {errors} non-200 responses")
    return {
        "concurrency": concurrency,
        "requests": len(latencies),
        "requests_per_second": round(len(latencies) / window, 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
    }


def run_mode(
    design: str,
    max_batch: int,
    levels: list[int],
    duration: float,
    warmup: float,
) -> tuple[dict, list[dict]]:
    """One server lifetime: sweep every concurrency level against it."""
    app = TimingServerApp(max_batch=max_batch)
    entry = preload_design(app.registry, design)
    server, thread = start_server(app, port=0)
    body = json.dumps({"design": entry.name, "arrival": {}}).encode()
    request = (
        f"POST /analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    results = []
    try:
        for concurrency in levels:
            results.append(
                run_level(
                    "127.0.0.1",
                    server.port,
                    request,
                    concurrency,
                    duration,
                    warmup,
                )
            )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    hist = app.tracer.metrics.histograms.get("server.coalescer.batch_size")
    stats = {
        "compile_seconds": round(entry.compile_seconds, 3),
        "mean_batch": (
            round(hist.total / hist.count, 1) if hist and hist.count else 0.0
        ),
    }
    return stats, results


def run_overload_level(
    host: str,
    port: int,
    request: bytes,
    concurrency: int,
    duration: float,
    warmup: float,
) -> dict:
    """One overload-phase load level: JSON-checked, shed-tolerant."""
    clients = [
        _Client(host, port, request, check_json=True)
        for _ in range(concurrency)
    ]
    for c in clients:
        c.start()
    time.sleep(warmup)
    skip = [len(c.samples) for c in clients]
    t0 = time.perf_counter()
    time.sleep(duration)
    for c in clients:
        c.stop.set()
    for c in clients:
        c.join(timeout=30)
    window = time.perf_counter() - t0
    samples = [
        s for c, n in zip(clients, skip) for s in c.samples[n:]
    ]
    accepted = sorted(lat for lat, status, _ in samples if status == 200)
    shed = sum(1 for _, status, _ in samples if status == 503)
    other = sum(1 for _, status, _ in samples if status not in (200, 503))
    wellformed = sum(1 for _, _, ok in samples if ok)
    return {
        "concurrency": concurrency,
        "responses": len(samples),
        "accepted": len(accepted),
        "shed": shed,
        "other_status": other,
        "wellformed": wellformed,
        "accepted_per_second": round(len(accepted) / window, 1),
        "shed_fraction": (
            round(shed / len(samples), 4) if samples else 0.0
        ),
        "accepted_p50_ms": round(_percentile(accepted, 0.50) * 1e3, 3),
        "accepted_p99_ms": round(_percentile(accepted, 0.99) * 1e3, 3),
    }


def run_overload(
    design: str,
    max_inflight: int,
    max_queue: int,
    overload_clients: int,
    duration: float,
    warmup: float,
) -> dict:
    """Capacity run, then an overload run against the same gate.

    Capacity = closed-loop clients exactly filling ``max_inflight``
    (nothing sheds); overload = ``overload_clients`` against the same
    server.  Goodput is the accepted-rate ratio between the two.
    """
    app = TimingServerApp(
        max_batch=64,
        max_inflight=max_inflight,
        max_queue=max_queue,
        queue_timeout=0.2,
    )
    entry = preload_design(app.registry, design)
    server, thread = start_server(app, port=0)
    body = json.dumps({"design": entry.name, "arrival": {}}).encode()
    request = (
        f"POST /analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    try:
        capacity = run_overload_level(
            "127.0.0.1", server.port, request, max_inflight, duration, warmup
        )
        overload = run_overload_level(
            "127.0.0.1",
            server.port,
            request,
            overload_clients,
            duration,
            warmup,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    goodput = (
        overload["accepted_per_second"] / capacity["accepted_per_second"]
        if capacity["accepted_per_second"]
        else 0.0
    )
    total = overload["responses"]
    wellformed = overload["wellformed"] / total if total else 0.0
    return {
        "bench": "server_overload",
        "design": design,
        "max_inflight": max_inflight,
        "max_queue": max_queue,
        "overload_clients": overload_clients,
        "duration_per_level_seconds": duration,
        "capacity": capacity,
        "overload": overload,
        # gated: fraction of capacity still delivered while drowning
        "goodput_throughput": round(goodput, 3),
        # gated: structured-response contract under overload
        "wellformed_throughput": round(wellformed, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_server",
        description="Load-test the analysis server: coalesced vs max_batch=1.",
    )
    parser.add_argument(
        "--design",
        default=DEFAULT_DESIGN,
        help="a .v file or gen:csaW.B generator spec (default %(default)s)",
    )
    parser.add_argument(
        "--concurrency",
        default=DEFAULT_LEVELS,
        help="comma-separated client counts (default %(default)s)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=3.0,
        help="measured seconds per level (default %(default)s)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=1.0,
        help="unmeasured seconds per level (default %(default)s)",
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--phase",
        choices=("all", "throughput", "overload"),
        default="all",
        help="which benchmark phases to run (default %(default)s)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="overload phase: server admission bound (default %(default)s)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=4,
        help="overload phase: server accept queue (default %(default)s)",
    )
    parser.add_argument(
        "--overload-clients",
        type=int,
        default=32,
        help="overload phase: closed-loop clients offered "
        "(default %(default)s)",
    )
    parser.add_argument(
        "-o",
        "--out",
        type=Path,
        default=Path("benchmarks/results/server_throughput.json"),
    )
    parser.add_argument(
        "--overload-out",
        type=Path,
        default=Path("benchmarks/results/server_overload.json"),
    )
    args = parser.parse_args(argv)

    if args.phase in ("all", "overload"):
        print(
            f"bench_server overload: {args.design}, "
            f"max_inflight={args.max_inflight}, max_queue={args.max_queue}, "
            f"clients={args.overload_clients}",
            flush=True,
        )
        doc = run_overload(
            args.design,
            args.max_inflight,
            args.max_queue,
            args.overload_clients,
            args.duration,
            args.warmup,
        )
        cap, over = doc["capacity"], doc["overload"]
        print(
            f"  capacity  (c={cap['concurrency']:3d}): "
            f"{cap['accepted_per_second']:8.1f} req/s  "
            f"p99 {cap['accepted_p99_ms']:.1f}ms"
        )
        print(
            f"  overload  (c={over['concurrency']:3d}): "
            f"{over['accepted_per_second']:8.1f} req/s accepted  "
            f"shed {over['shed_fraction'] * 100:.1f}%  "
            f"p99 {over['accepted_p99_ms']:.1f}ms"
        )
        print(
            f"  goodput_throughput {doc['goodput_throughput']:.3f}  "
            f"wellformed_throughput {doc['wellformed_throughput']:.4f}"
        )
        args.overload_out.parent.mkdir(parents=True, exist_ok=True)
        args.overload_out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"bench_server: overload results -> {args.overload_out}")
        if args.phase == "overload":
            return 0

    levels = sorted({int(c) for c in args.concurrency.split(",")})

    print(f"bench_server: {args.design}, levels {levels}", flush=True)
    stats, coalesced = run_mode(
        args.design, args.max_batch, levels, args.duration, args.warmup
    )
    print(
        f"  coalesced (max_batch={args.max_batch}, "
        f"mean batch {stats['mean_batch']}):"
    )
    for row in coalesced:
        print(
            f"    c={row['concurrency']:3d}: "
            f"{row['requests_per_second']:8.1f} req/s  "
            f"p50 {row['p50_ms']:.1f}ms  p99 {row['p99_ms']:.1f}ms"
        )
    _, serial = run_mode(
        args.design, 1, levels, args.duration, args.warmup
    )
    print("  serial (max_batch=1):")
    for row in serial:
        print(
            f"    c={row['concurrency']:3d}: "
            f"{row['requests_per_second']:8.1f} req/s  "
            f"p50 {row['p50_ms']:.1f}ms  p99 {row['p99_ms']:.1f}ms"
        )

    rows = []
    for co, se in zip(coalesced, serial):
        ratio = (
            co["requests_per_second"] / se["requests_per_second"]
            if se["requests_per_second"]
            else 0.0
        )
        rows.append(
            {
                "concurrency": co["concurrency"],
                "coalesced": co,
                "serial": se,
                "ratio": round(ratio, 2),
            }
        )
        print(
            f"  c={co['concurrency']:3d}: coalescing ratio "
            f"{ratio:.2f}x"
        )

    doc = {
        "bench": "server_throughput",
        "design": args.design,
        "duration_per_level_seconds": args.duration,
        "max_batch": args.max_batch,
        "mean_batch": stats["mean_batch"],
        "levels": rows,
        # the gated metric: req/s ratio at the highest concurrency level
        "coalescing_speedup": rows[-1]["ratio"] if rows else 0.0,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"bench_server: coalescing_speedup "
        f"{doc['coalescing_speedup']:.2f}x at c={levels[-1]} -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
