import math
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from multiport_bell import simplex, threshold
from multiport_bell.quantum import ExperimentConfig
from multiport_bell.simplex import (
    LinearProgram,
    check_certificate,
    solve,
)
from multiport_bell.threshold import builtin_config, correlation_lp, probability_lp

from _properties import (
    assert_dual_certifies,
    lp_random_failures,
    random_feasible_lp,
    record_qr_shapes,
)


def scipy_value(lp):
    result = linprog(
        -lp.objective,
        A_eq=lp.constraint_matrix,
        b_eq=lp.rhs,
        bounds=(0, None),
        method="highs",
    )
    return result.status, (-result.fun if result.status == 0 else math.nan)


def test_simple_optimal():
    lp = LinearProgram([1.0, 0.0], [[1.0, 1.0]], [1.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_contradictory_equalities_infeasible():
    lp = LinearProgram([1.0], [[1.0], [1.0]], [2.0, 3.0])
    sol = solve(lp)
    assert sol.status == "infeasible"
    assert sol.dual is None


def test_unbounded():
    lps = [
        LinearProgram([1.0, 0.0], [[1.0, -1.0]], [1.0]),
        # phase 1 leaves an artificial at zero for the drive-out loop
        LinearProgram(
            [0.0, 2.0, 2.0, -1.0, 0.0],
            [[2.0, -1.0, 1.0, 2.0, -2.0], [1.0, 2.0, -1.0, 2.0, 2.0], [-2.0, -2.0, 1.0, 0.0, -2.0]],
            [-2.0, 2.0, -2.0],
        ),
    ]
    for lp in lps:
        assert scipy_value(lp)[0] == 3
        sol = solve(lp)
        assert sol.status == "unbounded"
        assert sol.dual is None


@pytest.mark.parametrize("row", [[1e9, 1.0], [1e8, 0.1]])
def test_unbounded_needs_a_ray_that_passes_the_check(row):
    # B^-1 a_1 = 1e-9 counts as no pivot element, but the row caps x_1 at 1 / row[1]
    lp = LinearProgram([0.0, 1.0], [row], [1.0])
    sol = solve(lp)
    assert sol.status != "unbounded"
    if sol.status == "optimal":
        assert sol.objective_value == pytest.approx(scipy_value(lp)[1], abs=1e-9)


def test_zero_constraint_lp():
    bounded = LinearProgram([-1.0, -2.0], np.zeros((0, 2)), [])
    sol = solve(bounded)
    assert sol.status == "optimal"
    assert sol.objective_value == 0.0
    assert check_certificate(bounded, sol).passed
    unbounded = LinearProgram([1.0], np.zeros((0, 1)), [])
    assert solve(unbounded).status == "unbounded"
    for empty in (
        LinearProgram([], np.zeros((2, 0)), [0.0, 0.0]),
        LinearProgram([], np.zeros((0, 0)), []),
    ):
        sol = solve(empty)
        assert sol.status == "optimal"
        assert sol.x.size == 0 and sol.objective_value == 0.0
        assert check_certificate(empty, sol).passed


def test_redundant_rows_tolerated():
    lp = LinearProgram([1.0, 1.0], [[1.0, 2.0], [1.0, 2.0], [2.0, 4.0]], [3.0, 3.0, 6.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
    assert check_certificate(lp, sol).passed


def test_rejects_nonfinite_input():
    with pytest.raises(ValueError):
        LinearProgram([math.nan], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[math.inf]], [1.0])


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0]], [1.0])
    # a 2-D objective or rhs of the right size
    with pytest.raises(ValueError, match="^inconsistent shapes"):
        LinearProgram([[1.0, 2.0]], [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError, match="^inconsistent shapes"):
        LinearProgram([1.0, 2.0], [[1.0, 1.0]], [[1.0]])


@pytest.mark.parametrize(
    "lp",
    [
        pytest.param(
            LinearProgram([0.0, 1.0], [[1e9, 1.0], [0.0, 1.0]], [1.0, 0.5]),
            marks=pytest.mark.xfail(
                strict=True,
                reason="RANK_TOL is relative to the largest singular value, so the row "
                "reduction drops the row [0, 1] and the solve ends 'infeasible: rhs "
                "outside the column space of A'",
            ),
            id="row-of-norm-1-beside-1e9",
        ),
        pytest.param(
            LinearProgram([1.0, 2.0], [[2e-4, 1e9]], [2e-5]),
            marks=pytest.mark.xfail(
                strict=True,
                reason="PIVOT_TOL is absolute, so the ratio test finds no entry of "
                "B^-1 a_j = 2e-13 above it and the solve ends 'unbounded' after 1 pivot",
            ),
            id="column-of-2e-4-beside-1e9",
        ),
    ],
)
def test_badly_scaled_lp_matches_highs(lp):
    status, value = scipy_value(lp)
    assert status == 0
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(value, abs=1e-9)


def test_iteration_cap_reports_failure(monkeypatch):
    monkeypatch.setattr(simplex, "ITERATION_CAP", 2)
    lp, _ = correlation_lp(builtin_config("paper-qutrit"))
    sol = solve(lp)
    assert sol.status == "failed"
    assert "cap" in sol.detail or "iteration" in sol.detail
    assert sol.dual is None


def test_determinism():
    lp, _ = correlation_lp(builtin_config("paper-qutrit"))
    first, second = solve(lp), solve(lp)
    assert first.iterations == second.iterations
    assert np.array_equal(first.x, second.x)
    assert first.objective_value == second.objective_value


def test_row_scaling_leaves_status_and_objective():
    lp, _ = correlation_lp(builtin_config("paper-qutrit"))
    scaled_a = lp.constraint_matrix.copy()
    scaled_b = lp.rhs.copy()
    scaled_a[0] *= 1e3
    scaled_b[0] *= 1e3
    scaled = LinearProgram(lp.objective, scaled_a, scaled_b)
    base, alt = solve(lp), solve(scaled)
    assert base.status == alt.status == "optimal"
    assert abs(base.objective_value - alt.objective_value) <= 1e-7


def test_certificate_detects_perturbation():
    lp, _ = correlation_lp(builtin_config("paper-qutrit"))
    sol = solve(lp)
    assert check_certificate(lp, sol).passed
    tampered_x = sol.x.copy()
    tampered_x[0] += 1e-3
    tampered = type(sol)(
        sol.status, sol.objective_value, tampered_x, sol.max_residual, sol.iterations
    )
    report = check_certificate(lp, tampered)
    assert not report.passed
    assert report.max_residual > 1e-8


def test_certificate_requires_optimal():
    lp = LinearProgram([1.0], [[1.0], [1.0]], [2.0, 3.0])
    with pytest.raises(ValueError):
        check_certificate(lp, solve(lp))


def test_rejected_start_solves_as_without_one():
    # columns 0 and 1 coincide; from (0, 2) the basic value of x2 is -1
    lp = LinearProgram(
        [1.0, 2.0, 0.0, 0.0], [[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]], [1.0, 2.0]
    )
    cold = solve(lp)
    assert cold.status == "optimal" and cold.objective_value == pytest.approx(2.0)
    for start in ([0], [0, 2, 3], [0, 1], [0, 2]):
        sol = solve(lp, starts=[start])
        assert sol.status == cold.status
        assert sol.objective_value == cold.objective_value
        assert sol.iterations == cold.iterations
        assert np.array_equal(sol.x, cold.x)
    for start in ([0, 4], [-1, 2], [2, 2]):
        with pytest.raises(ValueError):
            solve(lp, starts=[start])
    with pytest.raises(TypeError):
        solve(lp, starts=[[0, 1.5]])
    for start in ([0, 2], [0, 2, 3]):
        indices = [np.int64(j) for j in start]
        sol = solve(lp, starts=[indices])
        assert sol.iterations == cold.iterations
        assert np.array_equal(sol.x, cold.x)


def test_start_with_slightly_negative_value_is_rejected():
    # from (1, 2) the basic value of x1 is -5e-10: inside the 1e-9 feasibility
    # tolerance, but below the -1e-10 the final sign check allows
    lp = LinearProgram([1.0, 0.0, 0.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], [1.0, 5e-10])
    cold = solve(lp)
    sol = solve(lp, starts=[[1, 2]])
    assert sol.status == cold.status == "optimal"
    assert sol.objective_value == cold.objective_value
    assert sol.iterations == cold.iterations
    assert np.array_equal(sol.x, cold.x)


def test_optimal_start_refactorizes_once(monkeypatch):
    # a full-rank LP accepts its own optimal basis with one factorization;
    # the rank-deficient full probability LPs, capped and pinned, end in a
    # basis with fewer columns than rows, which a start cannot be, and solve
    # as without it
    lp = random_feasible_lp(np.random.default_rng(20261101))[0]
    cold = solve(lp)
    assert cold.status == "optimal"
    calls = 0
    factorize = np.linalg.solve

    def counted(*args):
        nonlocal calls
        calls += 1
        return factorize(*args)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", counted)
        again = solve(lp, starts=[cold.basis])
    assert again.status == "optimal" and again.iterations == 0
    assert calls == 1
    assert again.objective_value == cold.objective_value
    assert np.array_equal(again.x, cold.x)
    assert np.array_equal(again.dual, cold.dual)
    rows = count_row_spaces(monkeypatch)
    for lp in [full_probability_lp(n, pin) for n in (2, 3, 4) for pin in (None, 0.5)]:
        cold = solve(lp)
        assert cold.status == "optimal" and len(cold.basis) < lp.n_rows
        rows[0] = 0
        again = solve(lp, starts=[cold.basis])
        assert rows == [1]
        assert again.status == "optimal"
        assert (again.iterations, again.basis) == (cold.iterations, cold.basis)
        assert np.array_equal(again.x, cold.x)
        assert np.array_equal(again.dual, cold.dual)


def factorized(matrix, rhs):
    """simplex._factorize of the basis made of the first len(rhs) columns of
    ``matrix``."""
    m = len(rhs)
    data = np.column_stack([matrix, np.eye(m), rhs])
    return simplex._factorize(data, np.arange(m))


def test_factorize_rejects_a_singular_basis():
    assert factorized([[1.0, 1.0], [2.0, 2.0]], [1.0, 1.0]) is None


def test_factorize_rejects_a_condition_number_above_1e12():
    # every entry of B^-1 [B | I | b] stays below 1e8: only the condition
    # number, 1e7 * 1e6, rules the basis out
    assert factorized(np.diag([1e7, 1e-6]), [1.0, 1e-6]) is None


def test_factorize_rejects_an_entry_above_1e8():
    # condition number 1e9, but B^-1 has the entry 1e9
    assert factorized(np.diag([1e-9, 1.0]), [1.0, 1.0]) is None


def test_factorize_rejects_an_entry_above_1e8_in_the_image_of_a():
    # B = I, so B^-1 and x_B are small and the condition number is 1; only the
    # non-basic column of A, 2e8 e_1, rules the basis out
    assert factorized([[1.0, 0.0, 2e8], [0.0, 1.0, 0.0]], [1.0, 1.0]) is None
    assert factorized([[1.0, 0.0, 2e7], [0.0, 1.0, 0.0]], [1.0, 1.0]) is not None


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_factorize_rejects_a_non_finite_entry_in_a_non_basic_column(entry):
    # the single comparison with 1e8 is false for a NaN as for an infinity
    with np.errstate(invalid="ignore"):
        assert factorized([[1.0, 0.0, entry], [0.0, 1.0, 0.0]], [1.0, 1.0]) is None
        assert factorized([[1.0, 0.0, 0.0], [0.0, 1.0, entry]], [1.0, 1.0]) is None


def test_factorize_well_conditioned_basis_gives_inverse_and_values():
    rng = np.random.default_rng(20261019)
    matrix = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    rhs = rng.normal(size=4)
    inverse = factorized(matrix, rhs)
    expected = np.linalg.inv(matrix)
    assert np.abs(inverse[:, :4] - expected).max() <= 1e-12
    assert np.abs(inverse[:, 4] - expected @ rhs).max() <= 1e-12


def test_rejected_first_start_falls_through_to_the_second():
    # (0, 2) leaves x2 = -1, so the solve goes on to the optimal basis (1, 3)
    lp = LinearProgram(
        [1.0, 2.0, 0.0, 0.0], [[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]], [1.0, 2.0]
    )
    second = solve(lp, starts=[solve(lp).basis])
    both = solve(lp, starts=[[0, 2], second.basis])
    assert both.status == second.status == "optimal"
    assert both.iterations == second.iterations == 0
    assert both.objective_value == second.objective_value
    assert np.array_equal(both.x, second.x)
    assert both.basis == second.basis
    assert np.array_equal(both.dual, second.dual)


def test_degenerate_cycling_prone_lp_terminates(monkeypatch):
    drive_outs = []
    pivot = simplex._pivot

    def spy(*args):
        if sys._getframe(1).f_code is simplex.solve.__code__:
            drive_outs.append(args[3])
        pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", spy)
    lps = [
        # Beale's classic example, rewritten in equality form with slacks
        LinearProgram(
            [0.75, -150.0, 1 / 50, -6.0, 0.0, 0.0, 0.0],
            [
                [0.25, -60.0, -1 / 25, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -1 / 50, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ],
            [0.0, 0.0, 1.0],
        ),
        # phase 1 pivots both structural columns in, one at value zero;
        # optimal at x = (1, 0)
        LinearProgram([1.0, 1.0], [[-2.0, -2.0], [-2.0, 1.0]], [-2.0, -2.0]),
        # phase 1 ends with an artificial basic at zero, which the drive-out
        # loop pivots onto a structural column; optimal at x = 0
        LinearProgram([1.0, -2.0, 0.0, 2.0], [[1.0, 1.0, -2.0, -2.0], [-1.0, -1.0, -2.0, -2.0]], [0.0, 0.0]),
    ]
    for k, lp in enumerate(lps):
        drive_outs.clear()
        sol = solve(lp)
        assert bool(drive_outs) == (k == 2)
        assert sol.status == "optimal"
        status, reference = scipy_value(lp)
        assert status == 0
        assert sol.objective_value == pytest.approx(reference, abs=1e-9)
        assert check_certificate(lp, sol).passed
        assert all(j < lp.n_cols for j in sol.basis)
        assert solve(lp, starts=[sol.basis]).iterations == 0


def test_phase_1_stalled_under_blands_rule_fails_early():
    # a badly scaled LP on which phase 1 cycles even under Bland's rule; HiGHS
    # finds it infeasible
    lp = LinearProgram(
        [0.0, 0.0, 3.0],
        [[-2e5, -1e8, -2e9], [-3e7, 1e3, -1e-9], [0.0, -1e9, 2e-9]],
        [0.0, -2.0, 2.0],
    )
    assert scipy_value(lp)[0] == 2
    sol = solve(lp)
    assert sol.status == "failed"
    assert sol.detail == "phase 1 stalled under Bland's rule"
    # Bland's rule engages after 5(m + n) pivots without a gain, and the solve
    # gives up after another 5(m + n); the pivots that gained come first
    m, n = lp.n_rows, lp.n_cols
    assert sol.iterations <= 11 * (m + n)


def test_random_feasible_property_suite():
    assert lp_random_failures() == 0


def test_against_scipy_on_random_instances():
    rng = np.random.default_rng(20260815)
    mixer = np.random.default_rng(20260816)
    for _ in range(100):
        lp, _, _ = random_feasible_lp(rng)
        sol = solve(lp)
        status, reference = scipy_value(lp)
        assert sol.status == "optimal" and status == 0
        assert sol.objective_value == pytest.approx(reference, abs=1e-7)
        assert_dual_certifies(lp, sol)
        again = solve(lp, starts=[sol.basis])
        assert again.status == "optimal" and again.iterations == 0
        assert again.objective_value == sol.objective_value
        assert check_certificate(lp, again).passed
        # appended rows that combine the rows leave the LP rank-deficient
        mix = mixer.normal(size=(int(mixer.integers(1, 4)), lp.n_rows))
        a = np.vstack([lp.constraint_matrix, mix @ lp.constraint_matrix])
        b = np.concatenate([lp.rhs, mix @ lp.rhs])
        redundant = LinearProgram(lp.objective, a, b)
        sol = solve(redundant)
        status, reference = scipy_value(redundant)
        assert sol.status == "optimal" and status == 0
        assert sol.objective_value == pytest.approx(reference, abs=1e-7)
        assert check_certificate(redundant, sol).passed
        assert_dual_certifies(redundant, sol)
        b[-1] += 1e-3 * (1.0 + abs(b[-1]))
        inconsistent = LinearProgram(lp.objective, a, b)
        sol = solve(inconsistent)
        assert sol.status == "infeasible" and sol.dual is None
        assert scipy_value(inconsistent)[0] == 2


def full_probability_lp(dimension, pin_visibility=None):
    phases = np.random.default_rng(20261200 + dimension).uniform(0, 2 * np.pi, (4, dimension))
    cfg = ExperimentConfig(dimension, tuple(map(tuple, phases[:2])), tuple(map(tuple, phases[2:])))
    return probability_lp(cfg, pin_visibility=pin_visibility)[0]


def rank_deficient_matrix():
    rng = np.random.default_rng(20261201)
    return rng.normal(size=(24, 15)) @ rng.normal(size=(15, 60))


@pytest.mark.parametrize(
    "matrix, rank",
    [
        pytest.param(lambda: full_probability_lp(3).constraint_matrix, 26, id="38x83"),
        pytest.param(lambda: full_probability_lp(4).constraint_matrix, 50, id="66x258"),
        pytest.param(lambda: full_probability_lp(5).constraint_matrix, 82, id="102x627"),
        pytest.param(lambda: full_probability_lp(5, 0.5).constraint_matrix, 83, id="103x628"),
        pytest.param(rank_deficient_matrix, 15, id="random-24x60"),
    ],
)
def test_wide_row_space_through_qr_matches_svd(monkeypatch, matrix, rank):
    a = matrix()
    shapes = record_qr_shapes(monkeypatch)
    u, reduced, _ = simplex._row_space(a, a @ np.ones(a.shape[1]))
    assert shapes == [a.T.shape]
    singular = np.linalg.svd(a, compute_uv=False)
    kept = singular > simplex.RANK_TOL * singular[0]
    assert u.shape == (a.shape[0], rank) and kept.sum() == rank
    # U^T A keeps exactly the nonzero singular values of A
    assert np.allclose(
        np.linalg.svd(reduced, compute_uv=False), singular[kept], rtol=1e-12, atol=0.0
    )
    v = np.linalg.svd(a, full_matrices=False)[0][:, kept]
    assert np.abs(u @ u.T - v @ v.T).max() <= 1e-12


def test_wide_lp_with_rhs_outside_column_space_is_infeasible(monkeypatch):
    a = rank_deficient_matrix()
    b = a @ np.ones(a.shape[1])
    b[0] += 1.0
    shapes = record_qr_shapes(monkeypatch)
    sol = solve(LinearProgram(np.zeros(a.shape[1]), a, b))
    assert shapes == [a.T.shape]
    assert sol.status == "infeasible"
    assert sol.detail == "rhs outside the column space of A"


def test_ten_row_lps_never_factorize_by_qr(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refused)
    # an empty cache makes the drivers solve their V=0 LPs too
    monkeypatch.setattr(threshold, "_START_BASES", {})
    cfg = builtin_config("paper-qutrit")
    v_qutrit = (6 * math.sqrt(3) - 9) / 2
    assert threshold.correlation_threshold(cfg).v_thr == pytest.approx(v_qutrit, abs=1e-12)
    assert threshold.probability_threshold(cfg).v_thr == pytest.approx(v_qutrit, abs=1e-12)
    assert threshold.scan(3, 1, 0, "prob").best_f_thr == pytest.approx(1 - v_qutrit, abs=1e-9)


def count_row_spaces(monkeypatch) -> list[int]:
    """A one-element list counting the calls of simplex._row_space."""
    calls = [0]
    row_space = simplex._row_space

    def counted(*args):
        calls[0] += 1
        return row_space(*args)

    monkeypatch.setattr(simplex, "_row_space", counted)
    return calls


def lp_and_zero_basis(cfg, statistics, cap):
    """A threshold LP of ``cfg``, capped as the drivers solve it or uncapped as
    the scan does, and the cached V=0 basis its solves start from."""
    _, _, block, _, matched, offset = statistics(cfg)
    threshold._solve_threshold_lp(cfg, statistics, cap=cap)
    zero = threshold._START_BASES[(statistics, cap, cfg.dimension, cfg.n_alice, cfg.n_bob)]
    return threshold._visibility_lp(block, matched, offset, cap=cap), zero


@pytest.mark.parametrize(
    "name, statistics, cap, v_thr",
    [
        pytest.param(
            "paper-qutrit", threshold._symmetric_statistics, False, (6 * math.sqrt(3) - 9) / 2,
            id="paper-qutrit-prob",
        ),
        # every N=2 threshold LP has full row rank too, with no imaginary rows
        pytest.param(
            "chsh-qubit", threshold._correlation_statistics, True, 1 / math.sqrt(2),
            id="chsh-qubit-corr-capped",
        ),
        pytest.param(
            "chsh-qubit", threshold._correlation_statistics, False, 1 / math.sqrt(2),
            id="chsh-qubit-corr-uncapped",
        ),
    ],
)
def test_accepted_start_skips_the_row_reduction(monkeypatch, name, statistics, cap, v_thr):
    lp, zero = lp_and_zero_basis(builtin_config(name), statistics, cap)
    calls = count_row_spaces(monkeypatch)
    warm = solve(lp, starts=[zero])
    assert calls == [0]
    cold = solve(lp)
    assert calls == [1]
    assert warm.status == cold.status == "optimal"
    assert warm.objective_value == pytest.approx(v_thr, abs=1e-12)
    assert cold.objective_value == pytest.approx(warm.objective_value, abs=1e-12)
    # a start accepted on the original rows takes its dual without U
    assert_dual_certifies(lp, warm)


def test_dual_simplex_resolves_a_nudged_lp_from_the_previous_basis():
    # the scan's case: only the V column moves, and the previous optimal basis
    # is then dual feasible but primal infeasible
    cfg = builtin_config("paper-qutrit")
    statistics = threshold._symmetric_statistics
    lp, zero = lp_and_zero_basis(cfg, statistics, cap=False)
    previous = solve(lp, starts=[zero])
    moved = ((0.0, 0.1, 0.0), cfg.alice_settings[1])
    nudged = ExperimentConfig(3, moved, cfg.bob_settings)
    nudged_lp, _ = lp_and_zero_basis(nudged, statistics, cap=False)
    data = np.column_stack([nudged_lp.constraint_matrix, np.eye(nudged_lp.n_rows), nudged_lp.rhs])
    inverse = simplex._factorize(data, np.array(previous.basis))
    assert inverse[:, -1].min() < -simplex.CERTIFICATE_VARIABLE_TOL
    warm = solve(nudged_lp, starts=[previous.basis, zero])
    from_zero = solve(nudged_lp, starts=[zero])
    cold = solve(nudged_lp)
    assert warm.status == from_zero.status == cold.status == "optimal"
    assert warm.iterations < from_zero.iterations
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-12)
    assert_dual_certifies(nudged_lp, warm)
    assert check_certificate(nudged_lp, warm).passed


@pytest.mark.parametrize(
    "lp, start",
    [
        # dual feasible with x_3 < 0, but its dual simplex takes 3 pivots, one
        # more than the cap of m = 2
        pytest.param(
            LinearProgram(
                [-1.0, -1.0, -1.0, -3.0, -2.0],
                [[-3.0, 1.0, -2.0, 0.0, -1.0], [1.0, -3.0, -1.0, 1.0, 2.0]],
                [-1.0, -3.0],
            ),
            [3, 4],
            id="cap",
        ),
        # dual feasible with x_0 = -1, but no entry of its row is negative:
        # the LP is infeasible
        pytest.param(LinearProgram([-1.0, -1.0], [[1.0, 1.0]], [-1.0]), [0], id="no-entering"),
    ],
)
def test_dual_simplex_that_cannot_finish_falls_back(monkeypatch, lp, start):
    verdicts = []
    dual_optimize = simplex._dual_optimize

    def spy(*args):
        verdicts.append(dual_optimize(*args))
        return verdicts[-1]

    cold = solve(lp)
    monkeypatch.setattr(simplex, "_dual_optimize", spy)
    warm = solve(lp, starts=[start])
    assert verdicts == [None]
    assert (warm.status, warm.detail, warm.iterations) == (cold.status, cold.detail, cold.iterations)
    assert warm.basis == cold.basis
    if cold.status == "optimal":
        assert np.array_equal(warm.x, cold.x) and np.array_equal(warm.dual, cold.dual)
        assert warm.objective_value == pytest.approx(scipy_value(lp)[1], abs=1e-12)
    else:
        assert cold.status == "infeasible" and scipy_value(lp)[0] == 2
