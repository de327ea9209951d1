"""Command line interface.

Subcommands: ``threshold`` (LHV noise thresholds for a config file or a
builtin), ``scan`` (seeded search over phase settings), ``verify-proof``
(replay of the analytic qutrit derivation), and ``probabilities``
(coincidence table of one settings pair).

Exit codes: 0 success (for verify-proof: all checks passed), 1 check
failure, 2 invalid config or arguments, 3 solver failure, 141 stdout closed
before all output was written (128 + SIGPIPE, as a shell reports a process
that a broken pipe ends; nothing goes to stderr).  Errors go to stderr,
results to stdout.  Angles are radians everywhere.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict

from .phases import PhaseExprError, parse_phase_expr
from .proof import ProofReport, run_proof
from .quantum import ExperimentConfig, joint_probabilities
from .simplex import SolverFailure
from .threshold import (
    BUILTINS,
    ScanResult,
    ThresholdResult,
    builtin_config,
    correlation_threshold,
    probability_threshold,
    scan,
)

WEIGHT_CUTOFF = 1e-12


class ConfigError(ValueError):
    """A config file that does not describe a valid experiment."""


def _phase_entry(raw: object, where: str) -> float:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:
            raise ConfigError(f"{where}: number too large for a float") from None
    if isinstance(raw, str):
        try:
            return parse_phase_expr(raw)
        except PhaseExprError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: expected a number or expression, got {raw!r}")


def _settings(raw: object, label: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise ConfigError(f"{label}: expected a list of phase lists")
    return tuple(
        tuple(_phase_entry(entry, f"{label}[{i}][{j}]") for j, entry in enumerate(row))
        for i, row in enumerate(raw)
    )


def config_from_dict(data: object, source: str = "config") -> ExperimentConfig:
    """Build an ExperimentConfig from parsed JSON, naming the faulty entry on error."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: expected a JSON object")
    keys = {"dimension", "alice", "bob"}
    unknown = set(data) - keys
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
    missing = keys - set(data)
    if missing:
        raise ConfigError(f"{source}: missing keys {sorted(missing)}")
    dimension = data["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise ConfigError(f"{source}: dimension must be an integer")
    try:
        return ExperimentConfig(
            dimension, _settings(data["alice"], "alice"), _settings(data["bob"], "bob")
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data, source=path)


def _sorted_weights(result: ThresholdResult) -> list[dict]:
    entries = [
        (strategy, weight)
        for strategy, weight in result.weights.items()
        if weight > WEIGHT_CUTOFF
    ]
    entries.sort(key=lambda item: (-item[1], item[0].alice, item[0].bob))
    return [
        {"alice": list(strategy.alice), "bob": list(strategy.bob), "p": weight}
        for strategy, weight in entries
    ]


def _result_dict(result: ThresholdResult) -> dict:
    return {
        "method": result.method,
        "dimension": result.dimension,
        "V_thr": result.v_thr,
        "F_thr": result.f_thr,
        "weights": _sorted_weights(result),
        "residual": result.residual,
        "iterations": result.lp_iterations,
    }


def _print_result_text(result: ThresholdResult) -> None:
    print(f"method      {result.method}")
    print(f"dimension   {result.dimension}")
    print(f"V_thr       {result.v_thr!r}")
    print(f"F_thr       {result.f_thr!r}")
    print(f"residual    {result.residual:.3e}")
    print(f"iterations  {result.lp_iterations}")
    print(f"weights (p > {WEIGHT_CUTOFF:g}):")
    for entry in _sorted_weights(result):
        alice = tuple(entry["alice"])
        bob = tuple(entry["bob"])
        print(f"  alice={alice}  bob={bob}  p={entry['p']!r}")


def _cmd_threshold(args: argparse.Namespace) -> int:
    config = builtin_config(args.builtin) if args.builtin else load_config(args.config)
    methods = {
        "corr": [correlation_threshold],
        "prob": [probability_threshold],
        "both": [correlation_threshold, probability_threshold],
    }[args.method]
    results = [fn(config) for fn in methods]
    if args.json:
        payload = [_result_dict(r) for r in results]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        for k, result in enumerate(results):
            if k:
                print()
            _print_result_text(result)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    result = scan(args.dimension, args.restarts, args.seed, method=args.method)
    print(f"dimension   {args.dimension}")
    print(f"method      {args.method}")
    print(f"restarts    {result.restarts}")
    print(f"seed        {result.seed}")
    print(f"best_F_thr  {result.best_f_thr!r}")
    print("best config:")
    for label, settings in (
        ("alice", result.best_config.alice_settings),
        ("bob", result.best_config.bob_settings),
    ):
        for k, setting in enumerate(settings):
            rounded = tuple(round(p, 9) for p in setting)
            print(f"  {label}[{k}] = {rounded}")
    if args.csv:
        try:
            _write_scan_csv(args.csv, result)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.csv}: {exc}") from exc
        print(f"history written to {args.csv}")
    return 0


def _write_scan_csv(path: str, result: ScanResult) -> None:
    best_so_far = -math.inf
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["restart", "seed", "F_thr", "best_so_far"])
        for index, value in result.history:
            if not math.isnan(value):
                best_so_far = max(best_so_far, value)
            writer.writerow([index, result.seed, repr(value), repr(best_so_far)])


def _cmd_verify_proof(args: argparse.Namespace) -> int:
    report = run_proof()
    if args.json:
        print(json.dumps(_report_dict(report), indent=2))
    else:
        for check in report.checks:
            mark = "PASS" if check.passed else "FAIL"
            print(f"{mark}  {check.name:<20} {check.detail}")
        print(f"analytic_V = {report.analytic_v!r}")
        print(f"lp_V       = {report.lp_v!r}")
        print("all checks passed" if report.passed else "verification FAILED")
    return 0 if report.passed else 1


def _report_dict(report: ProofReport) -> dict:
    return {
        "checks": [asdict(check) for check in report.checks],
        "analytic_V": report.analytic_v,
        "lp_V": report.lp_v,
        "passed": report.passed,
    }


def _cmd_probabilities(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    table = joint_probabilities(config, args.alice, args.bob, args.noise)
    n = config.dimension
    print(f"settings: alice={args.alice} bob={args.bob} noise={args.noise!r}")
    print("      " + "  ".join(f"{f'b={b}':>14}" for b in range(n)))
    for a in range(n):
        cells = "  ".join(f"{table[a, b]:14.12f}" for b in range(n))
        print(f"a={a}   {cells}")
    print(f"sum = {table.sum():.12f}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: argparse keeps no per-call state in
    # a parser, and help and error text look up the streams when they print
    parser = argparse.ArgumentParser(
        prog="multiport-bell",
        description="Local-realism noise thresholds for entangled qudit pairs "
        "measured through phased multiport beamsplitters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    threshold = sub.add_parser("threshold", help="compute V_thr and F_thr for a config")
    source = threshold.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON config file")
    source.add_argument("--builtin", choices=sorted(BUILTINS), help="named built-in config")
    threshold.add_argument("--method", choices=["corr", "prob", "both"], default="corr")
    threshold.add_argument("--json", action="store_true", help="emit JSON")
    threshold.set_defaults(handler=_cmd_threshold)

    scan_parser = sub.add_parser("scan", help="search settings for the maximal F_thr")
    scan_parser.add_argument("--dimension", type=int, required=True)
    scan_parser.add_argument("--restarts", type=int, required=True)
    scan_parser.add_argument("--seed", type=int, required=True)
    scan_parser.add_argument("--method", choices=["corr", "prob"], default="corr")
    scan_parser.add_argument("--csv", help="write per-restart history to this file")
    scan_parser.set_defaults(handler=_cmd_scan)

    verify = sub.add_parser("verify-proof", help="replay the analytic qutrit derivation")
    verify.add_argument("--json", action="store_true", help="emit JSON")
    verify.set_defaults(handler=_cmd_verify_proof)

    probs = sub.add_parser("probabilities", help="coincidence table for one settings pair")
    probs.add_argument("--config", required=True, help="path to a JSON config file")
    probs.add_argument("--alice", type=int, required=True, help="Alice setting index (0-based)")
    probs.add_argument("--bob", type=int, required=True, help="Bob setting index (0-based)")
    probs.add_argument("--noise", type=float, default=0.0, help="chaotic admixture F in [0, 1]")
    probs.set_defaults(handler=_cmd_probabilities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.handler(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    try:
        code = main()
        # flushed here, so that a closed pipe shows inside the try
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull,
        # so that no second BrokenPipeError reaches stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
