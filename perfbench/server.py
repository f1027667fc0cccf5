"""Query server child for the warehouse-query workload.

Usage: ``python perfbench/server.py WAREHOUSE_DIR [--trace-out PATH]``
with ``src`` on ``PYTHONPATH``.  Binds an ephemeral port on 127.0.0.1,
prints it on stdout and serves until SIGTERM.  With ``--trace-out`` it
installs the benchmark's span wrappers, traces only requests that carry
an ``X-Bench-Trace`` header (its value becomes the spans' request id),
and writes spans and cache counters to PATH at shutdown.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.core.queryservice import serve_warehouse

import spans


def _stop(signum, frame):
    raise SystemExit(0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    server = serve_warehouse(args.directory)
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        spans.install(tracer)
        base = server.RequestHandlerClass

        class TracedHandler(base):
            def do_POST(self):  # noqa: N802 - stdlib naming
                tag = self.headers.get("X-Bench-Trace")
                tracer.request_id = tag
                tracer.active = tag is not None
                try:
                    super().do_POST()
                finally:
                    tracer.active = False

        server.RequestHandlerClass = TracedHandler

    signal.signal(signal.SIGTERM, _stop)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        if tracer is not None:
            service = server.service
            for name, value in service.rerank_cache_stats().items():
                tracer.counts[f"queryservice.rerank_cache.{name}"] = value
            tracer.counts["warehouse.frame_cache.hits"] = service.cache.hits
            tracer.counts["warehouse.frame_cache.misses"] = (
                service.cache.misses
            )
            tracer.dump(args.trace_out)
    sys.exit(0)


if __name__ == "__main__":
    main()
