"""Tests of the traced run: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import pytest

import run
import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

COUNTS = ("simplex.solves_per_op", "simplex.pivots_per_solve", "quantum.table_calls_per_op")


def test_per_layer_self_times_and_counts():
    names = [tracing.SETUP_ROOT, tracing.PASS_ROOT, "threshold.probability_threshold",
             "threshold.probability_lp", "quantum.joint_probabilities", "simplex.solve",
             "strategies.enumerate_strategies"]
    spans = [
        [0, 0.0, 1.0, -1, None],
        [6, 0.2, 0.5, 0, None],
        [1, 2.0, 12.0, -1, None],
        [2, 3.0, 9.0, 2, None],
        [3, 3.0, 5.0, 3, None],
        [4, 3.5, 4.0, 4, None],
        [5, 5.0, 8.0, 3, ["optimal", 30]],
        [5, 9.0, 10.0, 2, ["infeasible", 10]],
    ]
    dump = {"names": names, "spans": spans, "missing": [], "ops": 2, "overhead_s": 0.5}
    metrics, left_out = tracing.per_layer(dump)
    value = {name: v for name, (v, _) in metrics.items()}
    assert left_out == []
    assert value["simplex.solves_per_op"] == 1.0
    assert value["simplex.pivots_per_solve"] == 20.0
    assert value["simplex.solve_ms_per_op"] == pytest.approx(2000.0)
    assert value["simplex.us_per_pivot"] == pytest.approx(1e5)
    assert value["simplex.infeasible_solve_ms"] == pytest.approx(1000.0)
    assert value["threshold.lp_assembly_ms_per_op"] == pytest.approx(750.0)  # (2 - 0.5) s / 2
    assert value["threshold.driver_self_ms_per_op"] == pytest.approx(500.0)  # (6 - 2 - 3) s / 2
    assert value["quantum.table_calls_per_op"] == 0.5
    assert value["quantum.table_ms_per_op"] == pytest.approx(250.0)
    assert value["strategies.setup_ms"] == pytest.approx(300.0)
    assert value["strategies.ms_per_op"] == 0.0
    assert value["trace.overhead_ms_per_op"] == pytest.approx(250.0)


def test_moved_function_is_reported_missing(monkeypatch):
    monkeypatch.setitem(
        tracing.TARGETS, "strategies.orbit_map", (("proof", "orbit_map_moved_away"),)
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["strategies.orbit_map"]
    dump = {"names": [], "spans": [], "missing": tracer.missing, "ops": 1, "overhead_s": 0.0}
    metrics, left_out = tracing.per_layer(dump)
    assert set(left_out) == {"strategies.ms_per_op", "strategies.setup_ms"}
    assert "simplex.solves_per_op" in metrics


def test_uninstall_restores_the_program():
    from multiport_bell import cli, threshold

    before = (threshold.solve, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    assert threshold.solve is not before[0]
    tracer.uninstall()
    assert (threshold.solve, cli.main) == before


@pytest.mark.parametrize("workload", ["cli-paper-qutrit", "certify-n5-prob"])
def test_counts_repeat_exactly_across_traced_runs(workload):
    first, second = (run.run(workload, 3, 0.5, trace=True) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(tracing.METRICS)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
