"""Spans around the program's layer boundaries, recorded from outside it.

``Tracer.install`` replaces the public functions of each layer under the
names their calling modules bind (``multiport_bell.threshold.solve`` is the
solver as the threshold drivers see it), so the program runs unmodified
and every call through such a name records a span: (name, start, end,
parent, info).  Spans stay in memory until ``dump``.  ``per_layer`` turns a
dump into the per-operation layer metrics.

A wrapped name that no longer exists is skipped and reported as missing;
every metric that depends on it is then left out rather than computed from
a partial picture.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

PACKAGE = "multiport_bell"

# span name -> the (module, attribute) names under which callers reach it
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "simplex.solve": (("threshold", "solve"), ("simplex", "solve")),
    "simplex.check_certificate": (("simplex", "check_certificate"),),
    "threshold.probability_lp": (("threshold", "probability_lp"),),
    "threshold.correlation_lp": (("threshold", "correlation_lp"),),
    "threshold.probability_threshold": (
        ("threshold", "probability_threshold"),
        ("cli", "probability_threshold"),
    ),
    "threshold.correlation_threshold": (
        ("threshold", "correlation_threshold"),
        ("cli", "correlation_threshold"),
        ("proof", "correlation_threshold"),
    ),
    "threshold.scan": (("threshold", "scan"),),
    "quantum.joint_probabilities": (("threshold", "joint_probabilities"),),
    "quantum.correlation_matrix": (
        ("threshold", "correlation_matrix"),
        ("proof", "correlation_matrix"),
    ),
    "strategies.enumerate_strategies": (
        ("threshold", "enumerate_strategies"),
        ("proof", "enumerate_strategies"),
    ),
    "strategies.distinct_matrices": (
        ("threshold", "distinct_matrices"),
        ("proof", "distinct_matrices"),
    ),
    "strategies.orbit_map": (("proof", "orbit_map"),),
    "proof.run_proof": (("cli", "run_proof"),),
    "cli.main": (("cli", "main"),),
    "phases.parse_phase_expr": (("cli", "parse_phase_expr"),),
}

SOLVE = "simplex.solve"
LP_ASSEMBLY = ("threshold.probability_lp", "threshold.correlation_lp")
DRIVERS = ("threshold.probability_threshold", "threshold.correlation_threshold")
TABLES = ("quantum.joint_probabilities", "quantum.correlation_matrix")
STRATEGIES = (
    "strategies.enumerate_strategies",
    "strategies.distinct_matrices",
    "strategies.orbit_map",
)

# per-layer metric -> (unit, the span names it is derived from)
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "simplex.solves_per_op": ("count", (SOLVE,)),
    "simplex.pivots_per_solve": ("count", (SOLVE,)),
    "simplex.solve_ms_per_op": ("ms", (SOLVE,)),
    "simplex.us_per_pivot": ("us", (SOLVE,)),
    "simplex.infeasible_solve_ms": ("ms", (SOLVE,)),
    "simplex.certificate_ms_per_op": ("ms", ("simplex.check_certificate",)),
    "threshold.lp_assembly_ms_per_op": ("ms", LP_ASSEMBLY),
    "threshold.driver_self_ms_per_op": ("ms", DRIVERS),
    "threshold.scan_self_ms_per_op": ("ms", ("threshold.scan",)),
    "quantum.table_calls_per_op": ("count", TABLES),
    "quantum.table_ms_per_op": ("ms", TABLES),
    "strategies.ms_per_op": ("ms", STRATEGIES),
    "strategies.setup_ms": ("ms", STRATEGIES),
    "proof.self_ms_per_op": ("ms", ("proof.run_proof",)),
    "cli.self_ms_per_op": ("ms", ("cli.main",)),
    "phases.parse_ms_per_op": ("ms", ("phases.parse_phase_expr",)),
    "trace.overhead_ms_per_op": ("ms", ()),
}

# roots the benchmark opens itself around set-up and the traced operations
SETUP_ROOT = "bench.setup"
PASS_ROOT = "bench.pass"


class Tracer:
    """Records nested spans for every call through an installed wrapper."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row per span: [name id, start, end, parent index or -1, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, info=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = info
        self._stack.pop()

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.open(name)
            info = None
            try:
                result = function(*args, **kwargs)
                if name == SOLVE:
                    info = [result.status, int(result.iterations)]
                return result
            finally:
                self.close(index, info)

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the span names that do not."""
        missing = set()
        for name, places in TARGETS.items():
            for module_name, attribute in places:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    missing.add(name)
                    continue
                original = getattr(module, attribute, None)
                if not callable(original):
                    missing.add(name)
                    continue
                setattr(module, attribute, self._wrap(name, original))
                self._installed.append((module, attribute, original))
        self.missing = sorted(missing)

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._installed):
            setattr(module, attribute, original)
        self._installed.clear()

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": self.names, "spans": self.spans, "missing": self.missing, **extra},
                handle,
            )


def per_layer(dump: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Layer metrics per operation of the traced pass, and the metrics left out.

    ``dump`` holds the tracer's names, spans and missing names plus ``ops``
    (operations in the traced pass) and ``overhead_s`` (traced minus
    untraced wall time of the same operations).
    """
    names = dump["names"]
    spans = dump["spans"]
    missing = set(dump["missing"])
    ops = dump["ops"]
    n = len(spans)
    duration = [span[2] - span[1] for span in spans]
    child_time = [0.0] * n
    root = [0] * n
    for index, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            child_time[parent] += duration[index]
            root[index] = root[parent]  # parents precede their children
        else:
            root[index] = index

    count: dict[tuple[str, str], int] = {}
    total: dict[tuple[str, str], float] = {}
    own: dict[tuple[str, str], float] = {}
    pivots = 0
    infeasible_count = 0
    infeasible_time = 0.0
    for index, span in enumerate(spans):
        name = names[span[0]]
        phase = names[spans[root[index]][0]]
        key = (phase, name)
        count[key] = count.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + duration[index]
        own[key] = own.get(key, 0.0) + duration[index] - child_time[index]
        if name == SOLVE and phase == PASS_ROOT and span[4] is not None:
            status, iterations = span[4]
            pivots += iterations
            if status == "infeasible":
                infeasible_count += 1
                infeasible_time += duration[index]

    def pass_sum(table, names_: tuple[str, ...]) -> float:
        return sum(table.get((PASS_ROOT, name), 0) for name in names_)

    solves = pass_sum(count, (SOLVE,))
    solve_s = pass_sum(total, (SOLVE,))
    values = {
        "simplex.solves_per_op": solves / ops,
        "simplex.pivots_per_solve": pivots / solves if solves else 0.0,
        "simplex.solve_ms_per_op": 1e3 * solve_s / ops,
        "simplex.us_per_pivot": 1e6 * solve_s / pivots if pivots else 0.0,
        "simplex.infeasible_solve_ms": (
            1e3 * infeasible_time / infeasible_count if infeasible_count else 0.0
        ),
        "simplex.certificate_ms_per_op": 1e3
        * pass_sum(total, ("simplex.check_certificate",))
        / ops,
        "threshold.lp_assembly_ms_per_op": 1e3 * pass_sum(own, LP_ASSEMBLY) / ops,
        "threshold.driver_self_ms_per_op": 1e3 * pass_sum(own, DRIVERS) / ops,
        "threshold.scan_self_ms_per_op": 1e3 * pass_sum(own, ("threshold.scan",)) / ops,
        "quantum.table_calls_per_op": pass_sum(count, TABLES) / ops,
        "quantum.table_ms_per_op": 1e3 * pass_sum(total, TABLES) / ops,
        "strategies.ms_per_op": 1e3 * pass_sum(own, STRATEGIES) / ops,
        "strategies.setup_ms": 1e3
        * sum(own.get((SETUP_ROOT, name), 0.0) for name in STRATEGIES),
        "proof.self_ms_per_op": 1e3 * pass_sum(own, ("proof.run_proof",)) / ops,
        "cli.self_ms_per_op": 1e3 * pass_sum(own, ("cli.main",)) / ops,
        "phases.parse_ms_per_op": 1e3
        * pass_sum(total, ("phases.parse_phase_expr",))
        / ops,
        "trace.overhead_ms_per_op": 1e3 * dump["overhead_s"] / ops,
    }
    metrics = {}
    left_out = []
    for metric, (unit, sources) in METRICS.items():
        if missing.intersection(sources):
            left_out.append(metric)
        else:
            metrics[metric] = (values[metric], unit)
    return metrics, left_out
