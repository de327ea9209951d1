"""One benchmark process: set up the program, then run whole rounds of a workload.

Started by ``run.py`` in a fresh interpreter with the workload's inputs as
JSON on stdin.  It imports ``multiport_bell`` from the checkout's ``src``
directory, builds the tables the workload needs and prints ``ready``; that
line marks the end of set-up.  Modes:

* ``setup``: stop there.
* ``measure``: run rounds until the time is up, then print one JSON line
  with the rate of every round, the peak resident memory and the outputs.
* ``trace``: run rounds untraced for half the time, run the same number of
  rounds again with every layer boundary traced, write the spans to a file
  and print one JSON line.

The first round's outputs go back whole; of later rounds only the outputs
that differ from the first round's, by digest, so that the parent can check
every one without this process holding them all.  The checks themselves run in the parent, outside this
process's time and memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import multiport_bell  # noqa: E402
from multiport_bell import simplex, threshold  # noqa: E402
from multiport_bell.quantum import ExperimentConfig  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import PASS_ROOT, SETUP_ROOT, Tracer  # noqa: E402

if Path(multiport_bell.__file__).resolve().parent != ROOT / "src" / "multiport_bell":
    raise SystemExit(f"imported {multiport_bell.__file__}, not the checkout's copy")

PROBE_OFFSET = 1e-4  # the pinned probes sit this far below and above V_thr


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class ScanN3:
    """One operation is one restart of threshold.scan(3, restarts, seed, "prob")."""

    def __init__(self, inputs: dict) -> None:
        self.seeds = inputs["scan_seeds"]
        self.restarts = inputs["restarts"]
        self.ops_per_round = len(self.seeds) * self.restarts

    def setup(self) -> dict:
        zero = (0.0, 0.0, 0.0)
        threshold.probability_lp(ExperimentConfig(3, (zero, zero), (zero, zero)))
        return {}

    def round(self) -> list:
        payloads = []
        for seed in self.seeds:
            try:
                result = threshold.scan(3, self.restarts, seed, "prob")
            except Exception as exc:  # noqa: BLE001 - reported as failed operations
                payloads.append({"seed": seed, "error": repr(exc)})
                continue
            payloads.append(
                {
                    "seed": seed,
                    "best_f_thr": result.best_f_thr,
                    "history": [[index, value] for index, value in result.history],
                    "alice": result.best_config.alice_settings,
                    "bob": result.best_config.bob_settings,
                }
            )
        return payloads


class CertifyN5:
    """One operation solves, certifies and brackets the threshold of one N=5 config."""

    def __init__(self, inputs: dict) -> None:
        self.configs = [ExperimentConfig(5, a, b) for a, b in inputs["configs"]]
        self.ops_per_round = len(self.configs)

    def setup(self) -> dict:
        _, strategies = threshold.probability_lp(self.configs[0])
        return {"strategies": [[list(s.alice), list(s.bob)] for s in strategies]}

    def round(self) -> list:
        payloads = []
        for config in self.configs:
            try:
                payloads.append(self.operation(config))
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                payloads.append({"error": repr(exc)})
        return payloads

    @staticmethod
    def operation(config: ExperimentConfig) -> dict:
        lp, strategies = threshold.probability_lp(config)
        solution = simplex.solve(lp)
        if solution.status != "optimal":
            return {"status": solution.status}
        certificate = simplex.check_certificate(lp, solution)
        v_thr = float(solution.x[len(strategies)])
        below = simplex.solve(threshold.probability_lp(config, v_thr - PROBE_OFFSET)[0])
        above = simplex.solve(threshold.probability_lp(config, v_thr + PROBE_OFFSET)[0])
        return {
            "status": solution.status,
            "x": solution.x.tolist(),
            "certificate": certificate.passed,
            "below": below.status,
            "above": above.status,
        }


class CliPaperQutrit:
    """One operation is one in-process call of multiport_bell.cli.main."""

    def __init__(self, inputs: dict) -> None:
        self.commands = inputs["commands"]
        self.ops_per_round = len(self.commands)
        self.cli = None

    def setup(self) -> dict:
        from multiport_bell import cli

        self.cli = cli
        config = threshold.builtin_config("paper-qutrit")
        threshold.correlation_lp(config)
        threshold.probability_lp(config)
        return {}

    def round(self) -> list:
        payloads = []
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(list(argv))
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                payloads.append({"error": repr(exc)})
                continue
            payloads.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
        return payloads


WORKLOADS = {
    "scan-n3-prob": ScanN3,
    "certify-n5-prob": CertifyN5,
    "cli-paper-qutrit": CliPaperQutrit,
}


class Rounds:
    """Runs rounds and keeps what the parent needs to check every output.

    The first round's outputs are kept whole.  A later round keeps only the
    operations whose output differs from the first round's, so memory does
    not grow with the number of rounds.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: list | None = None
        self.first_digests: list[str] = []
        self.differing: list[list] = []  # [round, operation index, digest]
        self.seconds: list[float] = []

    def run(self) -> float:
        start = time.perf_counter()
        payloads = self.workload.round()
        digests = [digest(p) for p in payloads]
        elapsed = time.perf_counter() - start
        if self.first is None:
            self.first, self.first_digests = payloads, digests
        for k, (d, expected) in enumerate(zip(digests, self.first_digests)):
            if d != expected:
                self.differing.append([len(self.seconds), k, d])
        self.seconds.append(elapsed)
        return elapsed

    def until(self, seconds: float) -> None:
        """Whole rounds; no new round starts if the last one would overrun."""
        start = time.perf_counter()
        while True:
            last = self.run()
            if time.perf_counter() - start + last > seconds:
                return

    def report(self) -> dict:
        return {
            "ops_per_round": self.workload.ops_per_round,
            "round_seconds": self.seconds,
            "first": self.first,
            "differing": self.differing,
        }


def main() -> int:
    mode = sys.argv[1]
    request = json.loads(sys.stdin.read())
    workload = WORKLOADS[request["workload"]](request["inputs"])
    seconds = request["seconds"]

    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        root = tracer.open(SETUP_ROOT)
        shape = workload.setup()
        tracer.close(root)
        tracer.uninstall()
    else:
        shape = workload.setup()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    rounds = Rounds(workload)
    result = {"shape": shape}
    if mode == "measure":
        rounds.until(seconds)
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rounds.until(seconds / 2.0)
        untraced = sum(rounds.seconds)
        count = len(rounds.seconds)
        tracer.install()
        root = tracer.open(PASS_ROOT)
        for _ in range(count):
            rounds.run()
        tracer.close(root)
        tracer.uninstall()
        traced = sum(rounds.seconds[count:])
        tracer.dump(
            request["spans_path"],
            ops=count * workload.ops_per_round,
            overhead_s=traced - untraced,
        )
        result["traced_rounds"] = count
    result.update(rounds.report())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
