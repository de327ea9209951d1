"""Seeded inputs of each workload and the checks of its outputs.

Runs in the benchmark's parent process, which never imports
``multiport_bell``: every check compares the outputs the worker sent back
with ``reference`` or with a property the method must have.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference

# Scan seeds whose first two restarts of scan(3, 2, seed, "prob") all end
# without a SolverFailure.  Seed 8 is left out: its restart 1 records NaN.
SCAN_POOL = (0, 1, 2, 3, 4, 5, 6, 7, 9, 10)
SCAN_CALLS = 8
SCAN_RESTARTS = 2
SCAN_BEST_FLOOR = 0.30384  # acceptance criterion 8
SCAN_CEILING_TOL = 1e-7
SCAN_REFERENCE_TOL = 1e-9

CERTIFY_VIOLATING = 6
CERTIFY_LOCAL = 2
CERTIFY_V_TOL = 1e-9
CERTIFY_WEIGHT_FLOOR = -1e-10
CERTIFY_MIX_TOL = 1e-8

CLI_CONFIG = "perfbench/paper_qutrit.json"
CLI_COMMANDS = (
    ["threshold", "--builtin", "paper-qutrit", "--method", "both", "--json"],
    ["threshold", "--config", CLI_CONFIG, "--method", "both", "--json"],
    ["verify-proof", "--json"],
)
CLI_V_TOL = 1e-9
CLI_ANALYTIC_TOL = 1e-12


def random_config(rng: np.random.Generator, dimension: int):
    """Two settings per party, first phase 0, the others uniform in [0, 2*pi)."""

    def setting():
        return (0.0, *map(float, rng.uniform(0.0, 2.0 * math.pi, dimension - 1)))

    return dimension, (setting(), setting()), (setting(), setting())


def make_inputs(workload: str, seed: int) -> tuple[dict, dict]:
    """(inputs sent to the worker, facts kept for the checks)."""
    rng = np.random.default_rng(seed)
    if workload == "scan-n3-prob":
        seeds = [int(s) for s in rng.choice(SCAN_POOL, SCAN_CALLS, replace=False)]
        return {"scan_seeds": seeds, "restarts": SCAN_RESTARTS}, {}
    if workload == "certify-n5-prob":
        # uniform settings, kept until the round holds its share of configs
        # that violate local realism (V_thr < 1) and of ones that do not
        violating, local = [], []
        while len(violating) < CERTIFY_VIOLATING or len(local) < CERTIFY_LOCAL:
            config = random_config(rng, 5)
            v_thr = reference.critical_visibility(config)
            group = violating if v_thr < 1.0 - 1e-6 else local
            wanted = CERTIFY_VIOLATING if group is violating else CERTIFY_LOCAL
            if len(group) < wanted:
                group.append((config, v_thr))
        chosen = violating + local
        return (
            {"configs": [[c[1], c[2]] for c, _ in chosen]},
            {"configs": [c for c, _ in chosen], "v_ref": [v for _, v in chosen]},
        )
    if workload == "cli-paper-qutrit":
        return {"commands": [list(c) for c in CLI_COMMANDS]}, {}
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, facts: dict, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over every round the worker ran.

    The first round's outputs are checked in full; an operation of a later
    round passes only if the worker found its output the same as the
    checked one.
    """
    first = result["first"]
    rounds = len(result["round_seconds"])
    per_payload = result["ops_per_round"] // len(first)
    problems: list[str] = []
    bad = [False] * len(first)
    checker = {"scan-n3-prob": _scan, "certify-n5-prob": _certify, "cli-paper-qutrit": _cli}
    checker[workload](facts, result, bad, problems)
    failed = rounds * per_payload * sum(bad)
    for _, k, _ in result["differing"]:
        if not bad[k]:
            failed += per_payload
    if result["differing"]:
        problems.append(f"{len(result['differing'])} outputs differ from the first round's")
    return rounds * result["ops_per_round"], failed, problems[:5]


def _scan(facts, result, bad, problems):
    best = -math.inf
    for k, payload in enumerate(result["first"]):
        if "error" in payload:
            bad[k] = True
            problems.append(f"scan seed {payload['seed']}: {payload['error']}")
            continue
        values = [value for _, value in payload["history"]]
        if any(math.isnan(v) for v in values):
            bad[k] = True
            problems.append(f"scan seed {payload['seed']}: NaN restart")
            continue
        if max(values) > reference.PAPER_QUTRIT_F + SCAN_CEILING_TOL:
            bad[k] = True
            problems.append(f"scan seed {payload['seed']}: F_thr above the qutrit optimum")
        config = (3, payload["alice"], payload["bob"])
        f_ref = 1.0 - reference.critical_visibility(config)
        if abs(f_ref - payload["best_f_thr"]) > SCAN_REFERENCE_TOL:
            bad[k] = True
            problems.append(
                f"scan seed {payload['seed']}: F_thr {payload['best_f_thr']!r} "
                f"but the reference gives {f_ref!r}"
            )
        best = max(best, payload["best_f_thr"])
    if best < SCAN_BEST_FLOOR:
        bad[:] = [True] * len(bad)
        problems.append(f"best F_thr of the round {best!r} < {SCAN_BEST_FLOOR}")


def _certify(facts, result, bad, problems):
    strategies = [(tuple(a), tuple(b)) for a, b in result["shape"]["strategies"]]
    if sorted(strategies) != sorted(reference.strategies(5, 2, 2)):
        bad[:] = [True] * len(bad)
        problems.append("the LP's strategies are not the N=5 deterministic strategies")
        return
    tables = reference.strategy_tables(5, strategies).reshape(len(strategies), -1)
    for k, payload in enumerate(result["first"]):
        config, v_ref = facts["configs"][k], facts["v_ref"][k]
        if "error" in payload or payload["status"] != "optimal":
            bad[k] = True
            problems.append(f"config {k}: {payload.get('error', payload.get('status'))}")
            continue
        x = np.array(payload["x"])
        weights, v_thr = x[: len(strategies)], x[len(strategies)]
        mixture_dev = float(
            np.max(np.abs(weights @ tables - reference.mixed_tables(config, v_thr).reshape(-1)))
        )
        failures = [
            (abs(v_thr - v_ref) > CERTIFY_V_TOL, f"V_thr {v_thr!r} vs reference {v_ref!r}"),
            (weights.min() < CERTIFY_WEIGHT_FLOOR, f"weight {weights.min():.3e}"),
            (abs(weights.sum() - 1.0) > CERTIFY_MIX_TOL, f"weights sum to {weights.sum()!r}"),
            (mixture_dev > CERTIFY_MIX_TOL, f"mixture off the tables by {mixture_dev:.3e}"),
            (not payload["certificate"], "check_certificate failed"),
            (payload["below"] != "optimal", f"probe below V_thr: {payload['below']}"),
            (payload["above"] != "infeasible", f"probe above V_thr: {payload['above']}"),
        ]
        for failed, message in failures:
            if failed:
                bad[k] = True
                problems.append(f"config {k}: {message}")


def _cli(facts, result, bad, problems):
    first = result["first"]
    for k, payload in enumerate(first):
        if "error" in payload or payload["code"] != 0:
            bad[k] = True
            problems.append(f"command {k}: {payload.get('error', payload.get('stderr'))}")
    if any(bad):
        return
    builtin, from_file, proof = (p["stdout"] for p in first)
    results = json.loads(builtin)
    methods = [r["method"] for r in results]
    if methods != ["correlation", "probability"] or any(
        abs(r["V_thr"] - reference.PAPER_QUTRIT_V) > CLI_V_TOL for r in results
    ):
        bad[0] = True
        problems.append(f"threshold: {[(r['method'], r['V_thr']) for r in results]}")
    if from_file != builtin:
        bad[1] = True
        problems.append("--config output differs from --builtin output")
    report = json.loads(proof)
    if not (
        report["passed"]
        and report["checks"]
        and all(c["passed"] for c in report["checks"])
        and abs(report["analytic_V"] - reference.PAPER_QUTRIT_V) <= CLI_ANALYTIC_TOL
    ):
        bad[2] = True
        problems.append(f"verify-proof: passed={report['passed']}")
