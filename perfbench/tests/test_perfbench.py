"""Self-test of the benchmark harness at tiny sizes.

Runs ``perfbench/run.py`` end to end on tiny grids (same code paths as
the benchmark) and checks what the harness promises: every metric of
``BENCHMARK.json`` is printed with its unit, a changed output (a wrong
pinned digest, or a query body that differs from its replay) fails the
run before any number is reported, and a 5xx reply or a dropped
connection is counted as a failed operation instead of crashing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int, *extra: str):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return completed.returncode, result, completed.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, result, stderr = run_bench(workload, trace)
    assert code == 0, stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in wanted}
    assert all(
        isinstance(value["value"], (int, float))
        for value in result["metrics"].values()
    )


def _copy_benchmark(destination: Path) -> None:
    shutil.copytree(
        ROOT / "perfbench", destination / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", destination)


def test_a_changed_output_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    pins_path = tmp_path / "perfbench" / "expected.json"
    pins = json.loads(pins_path.read_text())
    digest = pins["tiny"]["fabric.store_csv"]
    pins["tiny"]["fabric.store_csv"] = digest[::-1]
    pins_path.write_text(json.dumps(pins))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fabric-outofcore",
         "--seed", "3", "--seconds", "0.5", "--trace", "0",
         "--scale", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 1, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["metrics"] == {}


def test_a_changed_query_body_fails_the_replay(tmp_path):
    import workloads

    run = workloads.Run(1, "tiny", tmp_path)
    probe = workloads.Probe(run, ("query",))
    probe()
    probe.verify()
    assert run.mismatches == []
    probe.hashes[0] = "0" * 64
    probe.verify()
    assert run.mismatches == ["probe.queries"]


def test_run_without_the_program_fails(tmp_path):
    _copy_benchmark(tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py",
         "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


class _FlakyHandler(BaseHTTPRequestHandler):
    """200, then 500, then a dropped connection, then 200 again."""

    protocol_version = "HTTP/1.1"
    replies = iter(["ok", "error", "drop", "ok"])

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers["Content-Length"]))
        reply = next(self.replies)
        if reply == "drop":
            self.close_connection = True
            return
        body = b"{}\n"
        self.send_response(200 if reply == "ok" else 500)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_5xx_and_dropped_connections_are_failed_operations(tmp_path):
    import workloads

    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        run = workloads.Run(1, "tiny", tmp_path)
        client = workloads.Client(server.server_address[1])
        digests = [
            workloads.timed_query(run, client, {"kind": "manifest"})[0]
            for _ in range(4)
        ]
        client.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert run.attempted == 4 and run.failed == 2
    assert digests[0] is not None and digests[3] is not None
    assert digests[1] is None and digests[2] is None
    assert len(run.query_latencies) == 2
