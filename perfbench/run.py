"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``scenario-sweep``, ``fabric-outofcore`` and
``warehouse-query`` (see ``perfbench/README.md``).  The program under
test is imported from ``src`` in fresh child interpreters: the workload
is set up ``SETUP_RUNS`` times (``setup_s`` is their median, each timed
from process start to the worker's ``READY``), and the last one runs the
timed loop.  Every output is verified before any number is printed.

The last line of stdout is one JSON object: with ``--trace 0`` it holds
the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics.  A wrong output prints ``"correct": false`` with no
metrics and exits 1; a failure to run exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
#: Seconds a whole run may take before its children are killed.
RUN_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path) -> dict:
    """The caller's environment with ``src`` importable and no sweep knobs."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(root / "src")
    return env


def import_breakdown(env: dict, timeout: float) -> dict:
    """Cumulative import seconds from ``-X importtime`` in a fresh child.

    A package counts once, at its outermost entries: scipy loads
    ``scipy.signal`` lazily, so its submodules appear without a line
    for the package itself.
    """
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if completed.returncode != 0:
        raise BenchError(f"import repro.cli failed:\n{completed.stderr}")
    # Children are printed before their parent, one indent level deeper.
    pending: list[tuple[int, str, int, list]] = []
    for line in completed.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        depth = len(fields[2]) - len(fields[2].lstrip())
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, fields[2].strip(), int(fields[1]), children))

    def outermost(nodes, prefix: str) -> int:
        return sum(
            total if name.split(".")[: len(prefix.split("."))]
            == prefix.split(".") else outermost(children, prefix)
            for _, name, total, children in nodes
        )

    return {
        f"import.{key}.s": outermost(pending, prefix) / 1e6
        for key, prefix in (
            ("repro", "repro"),
            ("scipy_signal", "scipy.signal"),
            ("scipy_optimize", "scipy.optimize"),
        )
    }


def start_worker(command: list, env: dict) -> tuple[float, subprocess.Popen]:
    """Start a worker; return its set-up seconds once it prints READY.

    The worker leads its own process group, so a worker that has to be
    killed takes its query-server child with it.
    """
    began = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True,
        start_new_session=True,
    )
    line = process.stdout.readline()
    if line.strip() != "READY":
        kill_worker(process)
        raise BenchError("worker failed during set-up")
    return time.perf_counter() - began, process


def kill_worker(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def finish_worker(process: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        kill_worker(process)
        raise BenchError("worker ran past the run's time limit") from None
    if process.returncode != 0:
        raise BenchError(f"worker exited with code {process.returncode}")
    return out


def machine_record() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        **versions,
    }


def measure(args, root: Path, workdir: Path) -> tuple[dict, list]:
    env = child_env(root)
    deadline = time.monotonic() + RUN_TIMEOUT
    layers = {}
    if args.trace:
        layers.update(import_breakdown(env, timeout=60))
    base = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    setups = []
    for index in range(SETUP_RUNS - 1):
        seconds, process = start_worker(
            base + ["--setup-only",
                    "--workdir", str(workdir / f"setup-{index}")],
            env,
        )
        finish_worker(process, deadline)
        setups.append(seconds)
    seconds, process = start_worker(
        base + ["--workdir", str(workdir / "run")], env
    )
    setups.append(seconds)
    out = finish_worker(process, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"]:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["metrics"]["peak_rss_mb"] = result["peak_rss_kb"] / 1024
        layers.update(result.get("layers", {}))
        result["layers"] = layers
    return result, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the harness self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (root / "src" / "repro").is_dir():
            raise BenchError("no src/repro here; run from a checkout root")
        workdir = root / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
        try:
            result, setups = measure(args, root, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run still uses it
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    print(f"# seed {args.seed} workload {args.workload} "
          f"machine {json.dumps(machine_record(), sort_keys=True)}")
    print(f"# setup runs (s): {', '.join(f'{s:.3f}' for s in setups)}")
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {}}
    if not result["correct"]:
        print(f"# output mismatch: {', '.join(result['mismatches'])}")
        print(json.dumps(line))
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layers"] if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 2
    for metric in wanted:
        print(f"# {metric['name']:<44} {values[metric['name']]:>14.6g} "
              f"{metric['unit']}")
    line["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
