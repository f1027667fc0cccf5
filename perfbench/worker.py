"""Benchmark worker: set up one workload, say READY, run it, print results.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; not meant to be run
by hand.  Set-up starts at interpreter start and ends when the worker
prints ``READY``, which is what ``setup_s`` times.  With
``--setup-only`` the worker stops there.  Otherwise it runs the
workload's operation cycle until ``--seconds`` have passed (and at least
one full cycle), verifies every output, and prints one JSON line.

With ``--trace 1`` every operation runs twice, first with the span
wrappers off and then on, so the ratio of the two walls is the tracing
overhead; per-layer metrics come from the traced half only.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads
from workloads import HERE

def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def end_to_end(run, workload, probe) -> dict:
    metrics = {
        name: statistics.median(values)
        for name, values in run.samples.items()
    }
    latencies = run.query_latencies
    metrics["query_p50_ms"] = 1e3 * statistics.median(latencies)
    metrics["query_tail_ms"] = 1e3 * float(
        np.percentile(latencies, workload.tail_percentile)
    )
    metrics.update(probe.metrics())
    metrics.update(workload.metrics())
    metrics["success_ratio"] = (run.attempted - run.failed) / run.attempted
    return metrics


def per_layer(run, workload, tracer, walls, server_dump) -> dict:
    all_spans = list(tracer.spans)
    counts = dict(tracer.counts)
    times = spans.self_times(tracer.spans)
    if server_dump is not None:
        # Span ids are per process, so self time is folded per process.
        server_spans, server_counts = server_dump
        all_spans += server_spans
        for name, value in server_counts.items():
            counts[name] = counts.get(name, 0) + value
        for name, value in spans.self_times(server_spans).items():
            times[name] = times.get(name, 0.0) + value
    # Every span and counter is reported; run.py prints the ones that
    # BENCHMARK.json names.
    metrics = spans.zero_metrics()
    metrics.update(counts)
    metrics.update({f"{name}.s": value for name, value in times.items()})
    for table, (hits, misses) in run.cache_tally.items():
        metrics[f"sweep.cache.{table}.hit_ratio"] = _ratio(hits, misses)
    metrics.update(run.adaptive_counts)

    for service in run.query_services:
        for key, value in (
            ("warehouse.frame_cache.hits", service.cache.hits),
            ("warehouse.frame_cache.misses", service.cache.misses),
            ("queryservice.rerank_cache.hits",
             service.rerank_cache_stats()["hits"]),
            ("queryservice.rerank_cache.misses",
             service.rerank_cache_stats()["misses"]),
        ):
            counts[key] = counts.get(key, 0) + value
    metrics["warehouse.frame_cache.hit_ratio"] = _ratio(
        counts.get("warehouse.frame_cache.hits", 0),
        counts.get("warehouse.frame_cache.misses", 0),
    )
    metrics["queryservice.rerank_cache.hit_ratio"] = _ratio(
        counts.get("queryservice.rerank_cache.hits", 0),
        counts.get("queryservice.rerank_cache.misses", 0),
    )

    durations: dict[str, list[float]] = {}
    by_request: dict[str, float] = {}
    for name, start, end, _, _, request in all_spans:
        seconds = (end - start) / 1e9
        if name.startswith("queryservice.execute."):
            durations.setdefault(name, []).append(seconds)
        if request is not None and (
            name.startswith("queryservice.execute.")
            or name == "queryservice.response_bytes"
        ):
            by_request[request] = by_request.get(request, 0.0) + seconds
    for kind in workloads.QUERY_KINDS:
        values = durations.get(f"queryservice.execute.{kind}")
        metrics[f"queryservice.execute.{kind}.p50_ms"] = (
            1e3 * statistics.median(values) if values else 0.0
        )
    overheads = []
    if isinstance(workload, workloads.WarehouseQuery):
        overheads = [
            latency - by_request[tag]
            for tag, latency in workload.traced_latencies().items()
            if tag in by_request
        ]
    metrics["http.overhead.p50_ms"] = (
        1e3 * statistics.median(overheads) if overheads else 0.0
    )
    metrics["trace.overhead_ratio"] = sum(walls[True]) / sum(walls[False])
    return metrics


def loop(args, run, workload, probe, tracer, walls) -> None:
    """The workload's cycle, each operation followed by one probe."""
    modes = (False, True) if args.trace else (False,)
    deadline = time.perf_counter() + args.seconds
    step = 0
    while step < len(workload.cycle) or time.perf_counter() < deadline:
        op = workload.cycle[step % len(workload.cycle)]
        for traced in modes:
            # The previous operation's garbage is collected here, not
            # inside the next timed operation.
            gc.collect()
            run.traced = traced
            tracer.active = traced
            start = time.perf_counter()
            try:
                op()
            except Exception:  # noqa: BLE001 - a failed operation is data
                traceback.print_exc(file=sys.stderr)
                run.failed += 1
            walls[traced].append(time.perf_counter() - start)
        gc.collect()
        tracer.active = bool(args.trace)
        probe()
        tracer.active = False
        step += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    run = workloads.Run(
        args.seed, args.scale, workdir, args.update_pins
    )
    server_trace = workdir / "server-spans.json"
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.WarehouseQuery:
        workload = cls(run, server_trace if args.trace else None)
    else:
        workload = cls(run)
    probe = workloads.Probe(run, cls.probe_parts)
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    walls: dict[bool, list[float]] = {False: [], True: []}
    try:
        loop(args, run, workload, probe, tracer, walls)
    finally:
        workload.close()
    # Peak memory of the workload (worker and server), before the replay.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workload.verify()
    probe.verify()
    result = {
        "correct": not run.mismatches,
        "mismatches": sorted(set(run.mismatches)),
        "attempted": run.attempted,
        "failed": run.failed,
        "peak_rss_kb": own + children,
    }
    if args.update_pins:
        path = HERE / "expected.json"
        pins = json.loads(path.read_text())
        pins.setdefault(args.scale, {}).update(run.expected)
        path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    if not run.mismatches:
        result["metrics"] = end_to_end(run, workload, probe)
        if args.trace:
            dump = None
            if server_trace.exists():
                dump = spans.load_dump(server_trace)
            result["layers"] = per_layer(run, workload, tracer, walls, dump)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
