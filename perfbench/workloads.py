"""The benchmark's three workloads, driven closed-loop from one process.

Every workload runs through repro's public functions only, with the
engine the CLI resolves by default (serial, batched fill) passed
explicitly.  Each workload loads its own layers at full size; a small
fixed *probe* (the fabric and query surfaces on a 128-point grid, plus
an adaptive sweep of it) supplies the end-to-end metrics of the surfaces
the workload does not load, so that every run reports every metric.

Outputs are checked before any number is reported: sweep and store
outputs against pinned SHA-256 digests (``expected.json``), query
responses against an in-process replay of the same request sequence.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# Layer functions are called through their modules (for example
# ``sharding.write_shard_artifact``) so that the traced run's wrappers,
# installed on those module attributes, see the calls.
from repro.area.substrate import SUBSTRATE_RULES
from repro.circuits.qfactor import Q_MODEL_SCENARIOS
from repro.core import framestore, queryservice, sharding, warehouse
from repro.core.executors import SerialExecutor
from repro.core.queryservice import QueryService
from repro.core.sweep import EvaluationCache, SweepGrid
from repro.gps import study
from repro.gps.study import NRE_SCENARIOS
from repro.passives.thin_film import THIN_FILM_PROCESSES
from repro.passives.tolerance import TOLERANCE_CLASSES

HERE = Path(__file__).resolve().parent
PRECISION = TOLERANCE_CLASSES["precision"]

#: Grid sizes.  ``full`` is the benchmark; ``tiny`` keeps the same code
#: paths at sizes the harness self-test can afford.
SCALES = {
    "full": {
        "scenario_volumes": (1e3, 1e4, 1e5),
        "adaptive_volumes": 64,
        "categorical": "all",
        "fabric_volumes": 500,
        "fabric_shards": 8,
        "warehouse_volumes": 625,
        "append_every": 40,
        "queries_per_op": 80,
        "probe_volumes": 32,
        "probe_queries": 60,
    },
    "tiny": {
        "scenario_volumes": (1e3, 1e4),
        "adaptive_volumes": 8,
        "categorical": "two",
        "fabric_volumes": 24,
        "fabric_shards": 4,
        "warehouse_volumes": 40,
        "append_every": 4,
        "queries_per_op": 8,
        "probe_volumes": 8,
        "probe_queries": 12,
    },
}

WARMUP_SHARDS = 8
WAREHOUSE_SHARDS = 16
PROBE_SHARDS = 4
PROBE_REPEATS = 5
QUERY_KINDS = (
    "manifest", "pareto", "rerank", "winners", "best", "sensitivity"
)
#: 27 weight triples, more than the service's 16-entry re-rank LRU.
WEIGHT_POOL = tuple(
    f"{p:g}:{s:g}:{c:g}"
    for p in (0.5, 1.0, 2.0)
    for s in (0.5, 1.0, 2.0)
    for c in (0.5, 1.0, 2.0)
)


def text_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def mask_digest(mask) -> str:
    packed = np.packbits(np.asarray(mask, dtype=bool))
    return hashlib.sha256(packed.tobytes()).hexdigest()


class Run:
    """Per-run state: seeded randomness, samples, counters and checks."""

    def __init__(self, seed: int, scale: str, workdir: Path,
                 record_pins: bool = False):
        self.rng = random.Random(seed)
        self.scale = SCALES[scale]
        self.workdir = workdir
        self.record_pins = record_pins
        pins = json.loads((HERE / "expected.json").read_text())
        self.expected = {} if record_pins else pins[scale]
        self.mismatches: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.query_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.cache_tally = {
            name: [0, 0] for name in ("performance", "area", "cost")
        }
        self.adaptive_counts: dict[str, int] = {}
        self.traced = False
        self.query_services: list[QueryService] = []

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def attempt(self, func, *args):
        """Run one operation; an exception counts as a failed one."""
        self.attempted += 1
        try:
            return func(*args)
        except Exception:  # noqa: BLE001 - a failed operation is data
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    def check(self, name: str, digest_of, data) -> None:
        """Compare one output's digest with its pinned value."""
        digest = digest_of(data)
        if self.record_pins:
            self.expected.setdefault(name, digest)
        if digest != self.expected.get(name):
            self.mismatches.append(name)

    def tally_cache(self, stats: dict) -> None:
        for name, table in stats["tables"].items():
            self.cache_tally[name][0] += table["hits"]
            self.cache_tally[name][1] += table["misses"]


# -- grids -------------------------------------------------------------


def _categorical(scale: dict) -> dict:
    axes = {
        "substrates": (None, *SUBSTRATE_RULES.values()),
        "processes": (None, *THIN_FILM_PROCESSES.values()),
        "tolerances": (None, *TOLERANCE_CLASSES.values()),
        "q_models": (None, *Q_MODEL_SCENARIOS.values()),
    }
    if scale["categorical"] == "two":
        axes = {name: values[:2] for name, values in axes.items()}
    return axes


def _shuffled(rng: random.Random, values) -> tuple:
    values = list(values)
    rng.shuffle(values)
    return tuple(values)


def _family_grid(volumes: int, nres) -> SweepGrid:
    return SweepGrid(
        volumes=tuple(np.geomspace(1e2, 1e7, volumes).tolist()),
        tolerances=(None, PRECISION),
        nres=nres,
    )


# -- the probe ---------------------------------------------------------


class Probe:
    """The fabric, adaptive and query surfaces on a 128-point grid.

    ``parts`` names the surfaces to time: ``shard`` (evaluate and
    publish the shards), ``store`` (merge, streamed CSV, chunked
    Pareto), ``adaptive`` and ``query`` (in-process queries).
    """

    def __init__(self, run: Run, parts: tuple[str, ...]):
        self.run = run
        self.parts = parts
        self.grid = _family_grid(
            run.scale["probe_volumes"], (None, NRE_SCENARIOS["zero"])
        )
        self.rows = 4 * len(self.grid)
        self.root = run.workdir / "probe"
        self.paths, _ = publish_shards(
            run, self.grid, PROBE_SHARDS, self.root / "shards"
        )
        artifacts = [sharding.read_shard_artifact(path) for path in self.paths]
        self.warehouse_dir = self.root / "warehouse"
        warehouse.init_warehouse(self.warehouse_dir, self.grid)
        for artifact in artifacts:
            warehouse.append_shard_artifact(self.warehouse_dir, artifact)
        self.volumes = list(self.grid.volumes)
        self.labels = _labels(artifacts[0])
        self.service = QueryService(self.warehouse_dir)
        run.query_services.append(self.service)
        self.requests: list[dict] = []
        self.hashes: list = []
        self.query_wall = 0.0
        self.stores = 0

    def __call__(self) -> None:
        """Time each surface over ``PROBE_REPEATS`` runs as one sample.

        Probe operations take milliseconds; one sample per surface and
        call, from the summed work and time of its repeats, is steadier
        than a median of millisecond samples.
        """
        work: dict[str, float] = {}
        seconds: dict[str, float] = {}
        for _ in range(PROBE_REPEATS):
            for part in self.parts:
                if part == "query":
                    self._queries()
                    continue
                timed = self.run.attempt(getattr(self, f"_{part}"))
                for metric, (amount, elapsed) in (timed or {}).items():
                    work[metric] = work.get(metric, 0) + amount
                    seconds[metric] = seconds.get(metric, 0.0) + elapsed
        for metric, elapsed in seconds.items():
            self.run.sample(
                metric,
                work[metric] / elapsed if metric.endswith("_per_s")
                else elapsed / work[metric],
            )

    def _shard(self) -> dict:
        self.paths, timings = publish_shards(
            self.run, self.grid, PROBE_SHARDS, self.root / "shards"
        )
        seconds = sum(elapsed for _, elapsed in timings)
        return {"sweep_points_per_s": (len(self.grid), seconds)}

    def _store(self) -> dict:
        self.stores += 1
        merged, front = merge_and_front(
            self.run, self.paths, self.root / f"store-{self.stores}",
            self.rows, "probe",
        )
        return {
            "merge_rows_per_s": (self.rows, merged),
            "front_rows_per_s": (self.rows, front),
        }

    def _adaptive(self) -> dict:
        elapsed = run_adaptive(self.run, self.grid, "probe.adaptive_front")
        return {"adaptive_front_s": (1, elapsed)}

    def _queries(self) -> None:
        covered = self.volumes
        start = time.perf_counter()
        for _ in range(self.run.scale["probe_queries"]):
            request = make_request(self.run.rng, covered, self.labels)
            self.requests.append(request)
            self.run.attempted += 1
            began = time.perf_counter()
            try:
                payload = self.service.execute(request)
                body = queryservice.response_bytes(payload)
            except Exception:  # noqa: BLE001 - a failed query is data
                traceback.print_exc(file=sys.stderr)
                self.run.failed += 1
                self.hashes.append(None)
                continue
            self.run.query_latencies.append(time.perf_counter() - began)
            self.hashes.append(hashlib.sha256(body).hexdigest())
        self.query_wall += time.perf_counter() - start

    def verify(self) -> None:
        """Replay every probe query on a fresh service; bodies must match."""
        if not self.requests:
            return
        replay = QueryService(self.warehouse_dir)
        expected = [_replayed(replay, request) for request in self.requests]
        if any(
            got is not None and got != want
            for got, want in zip(self.hashes, expected)
        ):
            self.run.mismatches.append("probe.queries")

    def metrics(self) -> dict:
        if "query" not in self.parts:
            return {}
        queries = len(self.requests)
        return {"ops_per_s": queries / self.query_wall}


def _replayed(service: QueryService, request: dict):
    try:
        body = queryservice.response_bytes(service.execute(request))
    except Exception:  # noqa: BLE001 - the live run recorded a failure
        return None
    return hashlib.sha256(body).hexdigest()


def _labels(artifact) -> dict:
    frame = artifact.frame
    return {
        axis: sorted(set(frame.column(axis).tolist()))
        for axis in ("tolerance", "nre")
    }


def make_request(rng: random.Random, volumes, labels) -> dict:
    """One query of the seeded mix, over volumes the warehouse covers."""
    kind = rng.choice(QUERY_KINDS)
    weights = rng.choice(WEIGHT_POOL)
    volume = rng.choice(volumes)
    if kind == "manifest":
        return {"kind": "manifest"}
    if kind == "pareto":
        return {"kind": "pareto", "where": {"volume": volume}}
    if kind == "rerank":
        return {"kind": "rerank", "fom_weights": weights,
                "where": {"volume": volume}}
    if kind in ("winners", "best"):
        return {"kind": kind, "fom_weights": weights}
    axis, pinned = rng.choice((("tolerance", "nre"), ("nre", "tolerance")))
    return {
        "kind": "sensitivity",
        "axis": axis,
        "where": {"volume": volume, pinned: rng.choice(labels[pinned])},
    }


def run_adaptive(run: Run, grid: SweepGrid, output: str) -> float:
    """Adaptive sweep to a stable front, then the front's CSV; seconds."""
    start = time.perf_counter()
    report = study.run_adaptive_gps_sweep(grid, executor=SerialExecutor())
    lines = report.front_frame().csv_lines()
    elapsed = time.perf_counter() - start
    if not report.stable or report.budget_exhausted:
        raise RuntimeError("adaptive sweep ended without a stable front")
    run.tally_cache(report.cache_stats)
    run.adaptive_counts = {
        "adaptive.passes": len(report.passes),
        "adaptive.proposed": sum(p.proposed for p in report.passes),
        "adaptive.evaluated": sum(p.evaluated for p in report.passes),
    }
    run.check(output, text_digest, sorted(lines))
    return elapsed


def publish_shards(run: Run, grid: SweepGrid, shards: int,
                   directory: Path) -> tuple[list[Path], list[tuple]]:
    """Evaluate every shard of ``grid`` and publish its artifact.

    Returns the artifact paths and each shard's ``(points, seconds)``.
    """
    paths, timings, states = [], [], []
    for index in range(shards):
        start = time.perf_counter()
        artifact = study.run_gps_shard(
            grid, shards, index, executor=SerialExecutor()
        )
        paths.append(
            sharding.write_shard_artifact(
                directory / f"shard-{index}.json", artifact
            )
        )
        timings.append(
            (len(artifact.indices), time.perf_counter() - start)
        )
        states.append(artifact.cache_state)
    for state in states:
        run.tally_cache(state)
    return paths, timings


def merge_and_front(run: Run, paths, directory: Path, rows: int,
                    prefix: str) -> tuple[float, float]:
    """Merge artifacts out of core, stream the CSV, then the Pareto mask.

    The seed permutes the arrival order and the store holds a quarter of
    the rows in memory.  The store's CSV and mask are canonical, so they
    are checked against the ``<prefix>.store_csv`` and
    ``<prefix>.store_front`` pins.  Returns the seconds of merge plus
    CSV, and of the Pareto mask; the store is deleted.
    """
    order = _shuffled(run.rng, paths)
    start = time.perf_counter()
    store = framestore.merge_artifacts_to_store(
        order, directory, max_rows_in_memory=rows // 4
    )
    lines = list(store.csv_lines())
    merged = time.perf_counter() - start
    run.check(f"{prefix}.store_csv", text_digest, lines)
    start = time.perf_counter()
    mask = store.pareto_mask()
    front = time.perf_counter() - start
    run.check(f"{prefix}.store_front", mask_digest, mask)
    shutil.rmtree(directory)
    return merged, front


# -- workloads ---------------------------------------------------------


class _Workload:
    """Defaults for workloads that own no process and no replay."""

    #: ``query_tail_ms`` percentile over the probe's in-process queries.
    #: A 25 s run makes about 2000, so p99 keeps 20 beyond it.  p95 falls
    #: where the slowest query kinds begin and jumps with the query mix.
    tail_percentile = 99

    def close(self) -> None:
        pass

    def verify(self) -> None:
        pass

    def metrics(self) -> dict:
        return {}


class ScenarioSweep(_Workload):
    """Exhaustive and adaptive sweeps whose categorical axes defeat batching.

    The seed shuffles the order of every categorical axis of the
    exhaustive grid, which changes its enumeration but not its set of
    rows, so the row-sorted CSV digest stays pinned.  The adaptive grid
    keeps the registry order: which cells the zoom passes evaluate
    depends on the categorical axis order.
    """

    probe_parts = ("store", "query")

    def __init__(self, run: Run):
        self.run = run
        scale = run.scale
        axes = _categorical(scale)
        self.grid = SweepGrid(
            volumes=scale["scenario_volumes"],
            **{
                name: _shuffled(run.rng, values)
                for name, values in axes.items()
            },
        )
        self.adaptive_grid = SweepGrid(
            volumes=tuple(
                np.geomspace(1e2, 1e7, scale["adaptive_volumes"]).tolist()
            ),
            **axes,
        )
        self.cycle = (self.exhaustive, self.adaptive, self.exhaustive,
                      self.exhaustive)

    def exhaustive(self) -> None:
        self.run.attempted += 1
        start = time.perf_counter()
        report = study.run_gps_sweep(
            self.grid, cache=EvaluationCache(), executor=SerialExecutor()
        )
        lines = report.frame.csv_lines()
        elapsed = time.perf_counter() - start
        self.run.sample("sweep_points_per_s", len(self.grid) / elapsed)
        self.run.tally_cache(report.cache_stats)
        self.run.check("scenario.sweep_csv", text_digest, sorted(lines))

    def adaptive(self) -> None:
        self.run.attempted += 1
        self.run.sample(
            "adaptive_front_s",
            run_adaptive(self.run, self.adaptive_grid,
                         "scenario.adaptive_front"),
        )


class FabricOutOfCore(_Workload):
    """Shards evaluated and published, merged out of core, then Pareto.

    Long volume families take the batched cost walk.  The seed permutes
    the order in which artifacts arrive at the merge; the store's CSV and
    Pareto mask are canonical, so their digests stay pinned.
    """

    probe_parts = ("adaptive", "query")

    def __init__(self, run: Run):
        self.run = run
        self.grid = _family_grid(
            run.scale["fabric_volumes"], (None, *NRE_SCENARIOS.values())
        )
        self.shards = run.scale["fabric_shards"]
        self.rows = 4 * len(self.grid)
        self.root = run.workdir / "fabric"
        self.rounds = 0
        self.cycle = (self.round,)

    def round(self) -> None:
        """Shard evaluation and publish, merge with CSV, then Pareto."""
        self.run.attempted += 3
        self.rounds += 1
        shard_dir = self.root / f"round-{self.rounds}"
        # One sample per shard: eight short samples per round steady the
        # median more than one long one.
        paths, timings = publish_shards(
            self.run, self.grid, self.shards, shard_dir
        )
        for points, elapsed in timings:
            self.run.sample("sweep_points_per_s", points / elapsed)
        merged, front = merge_and_front(
            self.run, paths, shard_dir / "store", self.rows, "fabric"
        )
        self.run.sample("merge_rows_per_s", self.rows / merged)
        self.run.sample("front_rows_per_s", self.rows / front)
        shutil.rmtree(shard_dir)


class WarehouseQuery:
    """Keep-alive HTTP queries against a growing warehouse, with appends.

    Sixteen shard artifacts of the warehouse grid are evaluated at
    set-up and eight are published; the server runs in a child process.
    The client appends the other eight, one every ``append_every``
    queries, so the warehouse grows past the frame cache's 8 entries.
    """

    probe_parts = ("shard", "store", "adaptive")
    #: A 25 s run makes about 400 HTTP queries: p95 keeps 20 beyond it.
    tail_percentile = 95

    def __init__(self, run: Run, trace_path=None):
        self.run = run
        self.grid = _family_grid(
            run.scale["warehouse_volumes"], (None, NRE_SCENARIOS["zero"])
        )
        self.root = run.workdir / "warehouse"
        self.directory = self.root / "live"
        points = self.grid.points()
        order = _shuffled(run.rng, range(WAREHOUSE_SHARDS))
        warehouse.init_warehouse(self.directory, self.grid)
        self.server = _start_server(self.directory, trace_path)
        self.client = None
        try:
            self._fill(order, points)
        except BaseException:
            stop_process(self.server)
            raise
        self.log: list[tuple] = []
        self.queries = 0
        self.loop_wall = 0.0
        self.cycle = (self.op,)

    def _fill(self, order, points) -> None:
        """Evaluate the shards, publish eight, wait for the server."""
        self.artifacts = [
            study.run_gps_shard(
                self.grid, WAREHOUSE_SHARDS, index, executor=SerialExecutor()
            )
            for index in order
        ]
        for artifact in self.artifacts[:WARMUP_SHARDS]:
            warehouse.append_shard_artifact(self.directory, artifact)
        self.published = WARMUP_SHARDS
        self.labels = _labels(self.artifacts[0])
        self.point_volume = [point.volume for point in points]
        self.points_per_volume = len(points) // len(self.grid.volumes)
        self.volume_points: dict[float, int] = {}
        self.covered: list[float] = []
        for artifact in self.artifacts[:WARMUP_SHARDS]:
            self._cover(artifact)
        self.client = Client(_read_port(self.server))
        self.client.wait_healthy()

    def _cover(self, artifact) -> None:
        """Record the volumes whose every point is now published.

        Shard boundaries split volumes, and a query pinned to a volume
        with unpublished points may match nothing (HTTP 400).
        """
        for index in artifact.indices:
            volume = self.point_volume[index]
            count = self.volume_points.get(volume, 0) + 1
            self.volume_points[volume] = count
            if count == self.points_per_volume:
                self.covered.append(volume)

    def op(self) -> None:
        traced = self.run.traced
        start = time.perf_counter()
        every = self.run.scale["append_every"]
        for _ in range(self.run.scale["queries_per_op"]):
            if self.queries and self.queries % every == 0 and (
                self.published < len(self.artifacts)
            ):
                self._append()
            self.queries += 1
            request = make_request(self.run.rng, self.covered, self.labels)
            tag = str(len(self.log)) if traced else None
            digest, latency = timed_query(self.run, self.client, request, tag)
            self.log.append(("query", request, digest, tag, latency))
        self.loop_wall += time.perf_counter() - start

    def _append(self) -> None:
        artifact = self.artifacts[self.published]
        self.published += 1
        self.log.append(("append", self.published - 1, None, None, None))
        if self.run.attempt(
            warehouse.append_shard_artifact, self.directory, artifact
        ) is not None:
            self._cover(artifact)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        stop_process(self.server)

    def verify(self) -> None:
        """Replay the whole request and append sequence in-process."""
        replay_dir = self.root / "replay"
        warehouse.init_warehouse(replay_dir, self.grid)
        for artifact in self.artifacts[:WARMUP_SHARDS]:
            warehouse.append_shard_artifact(replay_dir, artifact)
        service = QueryService(replay_dir)
        got, want = [], []
        for kind, item, digest, _, _ in self.log:
            if kind == "append":
                warehouse.append_shard_artifact(
                    replay_dir, self.artifacts[item]
                )
            elif digest is not None:
                got.append(digest)
                want.append(_replayed(service, item))
        if got != want:
            self.run.mismatches.append("warehouse.queries")

    def metrics(self) -> dict:
        appends = self.published - WARMUP_SHARDS
        return {"ops_per_s": (self.queries + appends) / self.loop_wall}

    def traced_latencies(self) -> dict:
        """Client latency per traced request tag."""
        return {
            tag: latency
            for kind, _, _, tag, latency in self.log
            if kind == "query" and tag is not None and latency is not None
        }


WORKLOADS = {
    "scenario-sweep": ScenarioSweep,
    "fabric-outofcore": FabricOutOfCore,
    "warehouse-query": WarehouseQuery,
}


# -- the server child and its client ------------------------------------


def _start_server(directory: Path, trace_path) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "server.py"), str(directory)]
    if trace_path is not None:
        command += ["--trace-out", str(trace_path)]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def _read_port(process: subprocess.Popen) -> int:
    line = process.stdout.readline()
    if not line:
        raise RuntimeError("query server exited before binding a port")
    return int(line)


def stop_process(process: subprocess.Popen) -> None:
    """SIGTERM, then wait; kill if it will not stop."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def timed_query(run: Run, client: "Client", request: dict, tag=None):
    """One query over HTTP: ``(body digest, seconds)``, or ``(None, None)``.

    A reply other than 200 and a dropped connection both count as a
    failed operation; neither raises.
    """
    run.attempted += 1
    status, body, latency = client.query(request, tag)
    if status != 200:
        run.failed += 1
        return None, None
    run.query_latencies.append(latency)
    return hashlib.sha256(body).hexdigest(), latency


class Client:
    """One HTTP/1.1 keep-alive connection; failures are counted, not raised."""

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.host = host
        self.port = port
        self.connection = None

    def _connection(self) -> http.client.HTTPConnection:
        if self.connection is None:
            self.connection = http.client.HTTPConnection(
                self.host, self.port, timeout=30
            )
        return self.connection

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def request(self, method: str, path: str, body=None, headers=None):
        """``(status, body, seconds)``; status 0 for a dropped connection."""
        began = time.perf_counter()
        try:
            connection = self._connection()
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b"", time.perf_counter() - began
        return response.status, data, time.perf_counter() - began

    def query(self, request: dict, tag=None):
        headers = {"Content-Type": "application/json"}
        if tag is not None:
            headers["X-Bench-Trace"] = tag
        return self.request(
            "POST", "/query", json.dumps(request).encode("utf-8"), headers
        )

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, _, _ = self.request("GET", "/health")
            if status == 200:
                return
            time.sleep(0.05)
        raise RuntimeError("query server never answered GET /health")
