"""The analysis server of the ledger's ``serve`` workload, in its own process.

Starts ``TimingServerApp`` with default settings behind the threaded HTTP
shell on an ephemeral localhost port and prints ``{"port": N}``.  Closing
its stdin stops it: the server drains, then the process prints one JSON
line with its peak RSS, its machine-speed samples (see ``speed.py``)
and, with ``--trace``, its layer ledger.  Tracing wrappers are installed
before the app is built, because the request coalescer captures
``evaluate_rows`` when it is constructed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from layers import Ledger, install
from speed import Speedometer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    ledger = None
    if args.trace:
        ledger = Ledger()
        install(ledger)
    speed = Speedometer(ledger)
    from repro.server import TimingServerApp, start_server

    app = TimingServerApp()
    server, thread = start_server(app, port=0)
    print(json.dumps({"port": server.port}), flush=True)
    sys.stdin.read()
    report = {}
    if ledger is not None:
        coalescers = [entry.coalescer for entry in app.registry.entries()]
        batches = sum(c.batches for c in coalescers)
        ledger.count(
            "server.coalescer.batch_width",
            sum(c.submitted for c in coalescers) / batches if batches else 0.0,
        )
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    speed.stop()
    report["speed"] = speed.samples
    if ledger is not None:
        report["ledger"] = ledger.dump()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
