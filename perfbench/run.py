"""Benchmark of the multiport-bell threshold engine.

    python3 perfbench/run.py --workload scan-n3-prob --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The seed makes the workload's inputs; the
program (``src/multiport_bell``) runs in fresh worker processes and never
sees the seed.  ``--trace 0`` measures the end-to-end metrics (set-up time,
operations per second, peak memory); ``--trace 1`` runs the same operations
once untraced and once with every layer boundary traced, and reports the
per-layer metrics.  Every output is checked against ``reference.py``.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("scan-n3-prob", "certify-n5-prob", "cli-paper-qutrit")
SETUP_SAMPLES = 8  # set-up-only processes, half before and half after the measuring one
WORKER_TIMEOUT = 170.0
OUT_DIR = HERE / "out"

# a fixed hash seed, so that no two worker processes differ by dict layout
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def spawn(mode: str, request: dict) -> tuple[float, dict | None]:
    """Start a worker; return seconds until it was ready, and its result."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=WORKER_ENV,
        text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, process.kill)
    watchdog.start()
    try:
        process.stdin.write(json.dumps(request))
        process.stdin.close()
        ready_line = process.stdout.readline()
        ready = time.perf_counter() - start
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or ready_line.strip() != "ready":
        raise RuntimeError(f"{mode} worker exited with code {code}")
    return ready, (json.loads(rest) if rest.strip() else None)


def end_to_end(request: dict) -> tuple[dict, dict]:
    spawn("setup", request)  # compiles bytecode on a fresh checkout; not counted
    setups = [spawn("setup", request)[0] for _ in range(SETUP_SAMPLES // 2)]
    ready, result = spawn("measure", request)
    setups.append(ready)
    setups += [spawn("setup", request)[0] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    per_round, seconds = result["ops_per_round"], result["round_seconds"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (per_round * len(seconds) / sum(seconds), "1/s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
    }
    return metrics, result


def per_layer(request: dict, workload: str, seed: int) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    _, result = spawn("trace", {**request, "spans_path": str(spans_path)})
    with open(spans_path, encoding="utf-8") as handle:
        metrics, left_out = tracing.per_layer(json.load(handle))
    for name in left_out:
        print(f"missing  {name}: a traced function it needs has moved", file=sys.stderr)
    return metrics, result


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs, facts = workloads.make_inputs(workload, seed)
    request = {"workload": workload, "inputs": inputs, "seconds": seconds}
    if trace:
        metrics, result = per_layer(request, workload, seed)
    else:
        metrics, result = end_to_end(request)
    attempted, failed, problems = workloads.check(workload, facts, result)
    for problem in problems:
        print(f"check failed  {workload}: {problem}", file=sys.stderr)
    print(f"{workload}  seed {seed}  attempted {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:12.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multiport_bell" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
