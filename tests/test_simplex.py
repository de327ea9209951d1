import math
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from multiport_bell import simplex, threshold
from multiport_bell.quantum import ExperimentConfig, settings_arrays
from multiport_bell.simplex import (
    LinearProgram,
    LPSolution,
    check_certificate,
    solve,
)
from multiport_bell.threshold import builtin_config, correlation_lp, probability_lp

from _properties import (
    assert_dual_certifies,
    lp_random_failures,
    random_feasible_lp,
    record_shapes,
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
    # only a 1-D empty A stands for the empty b.size x c.size matrix
    with pytest.raises(ValueError, match="^inconsistent shapes"):
        LinearProgram([1.0, 2.0], np.zeros((0, 3)), [])
    with pytest.raises(ValueError, match="^inconsistent shapes"):
        LinearProgram([1.0], np.zeros((0, 0, 1)), [])
    with pytest.raises(ValueError, match="^inconsistent shapes"):
        LinearProgram([1.0, 2.0, 3.0], np.zeros((2, 0)), [0.0, 0.0])
    with pytest.raises(ValueError, match="^inconsistent shapes"):
        LinearProgram([1.0], [], [1.0])


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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [1, 8, 82, 120])
def test_pivot_matches_the_broadcast_update_bit_for_bit(m, order):
    rng = np.random.default_rng(20261300 + m)
    inverse = np.asarray(rng.normal(size=(m, m + 1)), order=order)
    basis = rng.permutation(3 * m)[:m]
    column = rng.normal(size=m)
    row, col = int(rng.integers(m)), 3 * m + 1
    expected_inverse, expected_basis, expected_column = inverse.copy(), basis.copy(), column.copy()
    # the update as a broadcast: the same product and subtraction per entry
    expected_inverse[row] *= 1.0 / expected_column[row]
    expected_column[row] = 0.0
    expected_inverse -= expected_column[:, None] * expected_inverse[row]
    expected_basis[row] = col
    simplex._pivot(inverse, basis, column, row, col)
    assert np.array_equal(inverse, expected_inverse)
    assert np.array_equal(basis, expected_basis)
    assert np.array_equal(column, expected_column)


def factorized(matrix, rhs):
    """simplex._factorize of the basis made of the first len(rhs) columns of
    ``matrix``."""
    m = len(rhs)
    data = np.column_stack([matrix, np.eye(m), rhs])
    return simplex._factorize(data, np.arange(m), float(np.abs(matrix).max()))


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


def test_factorize_rejects_an_entry_above_1e8_in_b_inverse_a_from_both_factors():
    # B^-1 = diag(1e4, 1) passes the check of B^-1 and the condition number,
    # 1e4; the non-basic column 2e4 e_1 has no entry above 1e8 either, but
    # B^-1 maps it to 2e8 e_1
    assert factorized([[1e-4, 0.0, 2e4], [0.0, 1.0, 0.0]], [1.0, 1.0]) is None
    # the bound |B^-1|_inf max|A_ij| = 2e8 is no verdict: 2e4 e_2 maps to 2e4 e_2
    assert factorized([[1e-4, 0.0, 0.0], [0.0, 1.0, 2e4]], [1.0, 1.0]) is not None


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
        pytest.param(lambda: full_probability_lp(5, 0.5).constraint_matrix, 83, id="103x627"),
        pytest.param(rank_deficient_matrix, 15, id="random-24x60"),
    ],
)
def test_wide_row_space_through_eigh_matches_svd(monkeypatch, matrix, rank):
    a = matrix()
    eighs, svds = record_shapes(monkeypatch, "eigh"), record_shapes(monkeypatch, "svd")
    u, reduced, _ = simplex._row_space(a, a @ np.ones(a.shape[1]))
    # the certificate accepts the eigenvectors of A A^T, so no SVD runs
    assert (eighs, svds) == ([(a.shape[0],) * 2], [])
    singular = np.linalg.svd(a, compute_uv=False)
    kept = singular > simplex.RANK_TOL * singular[0]
    assert u.shape == (a.shape[0], rank) and kept.sum() == rank
    # U^T A keeps exactly the nonzero singular values of A
    assert np.allclose(
        np.linalg.svd(reduced, compute_uv=False), singular[kept], rtol=1e-12, atol=0.0
    )
    v = np.linalg.svd(a, full_matrices=False)[0][:, kept]
    assert np.abs(u @ u.T - v @ v.T).max() <= 1e-12


def matrix_with_singular_values(singular, columns, seed):
    """A len(singular) x ``columns`` matrix with the given singular values."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.normal(size=(len(singular),) * 2))[0]
    right = np.linalg.qr(rng.normal(size=(columns, len(singular))))[0]
    return (left * singular) @ right.T


@pytest.mark.parametrize(
    "tail, kept, through_svd",
    [
        # the SVD keeps sigma > RANK_TOL sigma_max, the eigenvectors only
        # lambda > 1e-12 lambda_max (sigma > 1e-6 sigma_max), so the certificate
        # has to refuse them
        pytest.param(1e-8, 13, True, id="1e-8"),
        pytest.param(3e-7, 13, True, id="3e-7"),
        # dropped by both, within what the certificate accepts
        pytest.param(1e-11, 12, False, id="1e-11"),
    ],
)
def test_wide_row_space_certificate_falls_back_to_the_svd(monkeypatch, tail, kept, through_svd):
    singular = np.concatenate([np.logspace(0.0, -3.0, 12), [tail], np.zeros(11)])
    a = matrix_with_singular_values(singular, 60, seed=20261202)
    eighs, svds = record_shapes(monkeypatch, "eigh"), record_shapes(monkeypatch, "svd")
    u, reduced, _ = simplex._row_space(a, a @ np.ones(a.shape[1]))
    assert eighs == [(24, 24)]
    assert svds == ([a.shape] if through_svd else [])
    assert u.shape == (24, kept)
    reference = np.linalg.svd(a, full_matrices=False)[0][:, :kept]
    assert np.abs(u @ u.T - reference @ reference.T).max() <= 1e-9
    assert np.abs(reduced - u.T @ a).max() <= 1e-15


def test_certify_lps_at_n5_take_the_eigen_path(monkeypatch):
    # the solve of the 102 x 627 probability LP and the pinned 103 x 627 probes
    # just below and above its optimum, all cold
    eighs, svds = record_shapes(monkeypatch, "eigh"), record_shapes(monkeypatch, "svd")
    for seed in (20261210, 20261211):
        phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, (4, 5))
        cfg = ExperimentConfig(5, tuple(map(tuple, phases[:2])), tuple(map(tuple, phases[2:])))
        lp = probability_lp(cfg)[0]
        sol = solve(lp)
        assert sol.status == "optimal" and check_certificate(lp, sol).passed
        v_thr = sol.x[-2]
        assert solve(probability_lp(cfg, v_thr - 1e-4)[0]).status == "optimal"
        assert solve(probability_lp(cfg, v_thr + 1e-4)[0]).status == "infeasible"
    assert eighs == [(102, 102), (103, 103), (103, 103)] * 2
    assert svds == []


def eigen_row_space_by_masks(a):
    """``simplex._eigen_row_space`` as it took U^T A through boolean masks."""
    values, vectors = np.linalg.eigh(a @ a.T)
    values, vectors = values[::-1], vectors[:, ::-1]
    scale = math.sqrt(max(float(values[0]), 0.0))
    kept = values > 1e-12 * values[0]
    rows = vectors.T @ a
    if (
        np.linalg.norm(rows[kept], axis=1).min(initial=math.inf) < 1e-6 * scale
        or np.linalg.norm(rows[~kept]) > simplex.RANK_TOL * scale
    ):
        return None
    return vectors[:, kept], rows[kept]


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param(lambda: full_probability_lp(4).constraint_matrix, id="66x258"),
        pytest.param(lambda: full_probability_lp(5).constraint_matrix, id="102x627"),
        pytest.param(rank_deficient_matrix, id="random-24x60"),
        pytest.param(
            lambda: matrix_with_singular_values(
                np.concatenate([np.logspace(0.0, -4.0, 20), np.zeros(20)]), 90, seed=20261203
            ),
            id="random-40x90",
        ),
    ],
)
def test_eigen_row_space_matches_the_mask_copies_bit_for_bit(matrix):
    a = matrix()
    b = a @ np.ones(a.shape[1])
    u, rows = simplex._eigen_row_space(a)
    u_ref, rows_ref = eigen_row_space_by_masks(a)
    assert u.shape[1] < a.shape[0]
    assert np.array_equal(u, u_ref) and np.array_equal(rows, rows_ref)
    # U keeps the layout of vectors[:, kept]: it sets the bits of U^T b,
    # whose signs decide which rows _row_space flips
    assert u.strides == u_ref.strides
    assert np.array_equal(u.T @ b, u_ref.T @ b)


def recorded_augments(monkeypatch, original) -> list[tuple[int, bool]]:
    """(rows, whether A is ``original``) of each simplex._augmented call
    from now on."""
    calls = []
    augmented = simplex._augmented

    def recorded(a, b):
        calls.append((a.shape[0], a is original))
        return augmented(a, b)

    monkeypatch.setattr(simplex, "_augmented", recorded)
    return calls


def test_cold_rank_deficient_solve_augments_only_the_reduced_rows(monkeypatch):
    lp = probability_lp(builtin_config("paper-qutrit"))[0]
    assert lp.constraint_matrix.shape == (38, 83)
    calls = recorded_augments(monkeypatch, lp.constraint_matrix)
    sol = solve(lp)
    assert sol.status == "optimal" and check_certificate(lp, sol).passed
    # the reflected phase-1 rows and the unreflected phase-2 rows, both
    # reduced to the rank 26; [A | I | b] of the 38 original rows is never built
    assert calls == [(26, False), (26, False)]


def test_full_rank_and_warm_solves_augment_the_original_rows_once(monkeypatch):
    lp, zero = lp_and_zero_basis(
        builtin_config("paper-qutrit"), threshold._symmetric_statistics, False
    )
    calls = recorded_augments(monkeypatch, lp.constraint_matrix)
    m = lp.n_rows
    cold = solve(lp)
    # phase 2 on the original rows, phase 1 on the reflected reduced ones
    assert calls == [(m, True), (m, False)]
    del calls[:]
    warm = solve(lp, starts=[zero])
    assert calls == [(m, True)]
    assert cold.status == warm.status == "optimal"


def test_wide_lp_with_rhs_outside_column_space_is_infeasible(monkeypatch):
    a = rank_deficient_matrix()
    b = a @ np.ones(a.shape[1])
    b[0] += 1.0
    eighs, svds = record_shapes(monkeypatch, "eigh"), record_shapes(monkeypatch, "svd")
    sol = solve(LinearProgram(np.zeros(a.shape[1]), a, b))
    assert (eighs, svds) == ([(24, 24)], [])
    assert sol.status == "infeasible"
    assert sol.detail == "rhs outside the column space of A"


def test_ten_row_lps_never_factorize_by_qr(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.qr or np.linalg.eigh called")

    # _row_space takes the eigen path from 16 rows on, and nothing factorizes by QR
    monkeypatch.setattr(np.linalg, "qr", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
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
    """A threshold LP of ``cfg``, capped as the drivers solve it or uncapped,
    and the cached V=0 basis its solves start from."""
    _, _, block, _, matched, offset = statistics(*settings_arrays(cfg))
    threshold._solve_threshold_lp(statistics, *settings_arrays(cfg), cap=cap)
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
    # only the V column moves, and the previous optimal basis is then dual
    # feasible but primal infeasible
    cfg = builtin_config("paper-qutrit")
    statistics = threshold._symmetric_statistics
    lp, zero = lp_and_zero_basis(cfg, statistics, cap=False)
    previous = solve(lp, starts=[zero])
    moved = ((0.0, 0.1, 0.0), cfg.alice_settings[1])
    nudged = ExperimentConfig(3, moved, cfg.bob_settings)
    nudged_lp, _ = lp_and_zero_basis(nudged, statistics, cap=False)
    data = np.column_stack([nudged_lp.constraint_matrix, np.eye(nudged_lp.n_rows), nudged_lp.rhs])
    a_max = float(np.abs(nudged_lp.constraint_matrix).max())
    inverse = simplex._factorize(data, np.array(previous.basis), a_max)
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


def paper_qutrit_scan_pool(alice_setting=(0.0, 0.0, 0.0)):
    """The pool of the scan's V* LP (probability matching) after its cold
    solve at the paper-qutrit settings, with Alice's first setting replaced."""
    cfg = builtin_config("paper-qutrit")
    alice = (alice_setting, cfg.alice_settings[1])
    phases = settings_arrays(ExperimentConfig(3, alice, cfg.bob_settings))
    return threshold._uncapped_visibility(threshold._symmetric_statistics, *phases, None)[2]


def paper_qutrit_scan_solution(alice_setting=(0.0, 0.0, 0.0)):
    """The solution of that cold solve."""
    (solution,) = paper_qutrit_scan_pool(alice_setting).solutions
    return solution


def resolved(monkeypatch, lp, previous):
    """solve(lp) from the solution ``previous`` and from its basis as an index
    list, and the verdicts of _dual_optimize in each."""
    verdicts = []
    dual_optimize = simplex._dual_optimize

    def spy(*args):
        verdicts.append(dual_optimize(*args))
        return verdicts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_dual_optimize", spy)
        resumed = solve(lp, starts=[previous])
        from_basis = solve(lp, starts=[list(previous.basis)])
    return resumed, from_basis, verdicts


def cap_lp():
    """The LP of the "cap" case above, whose basis (3, 4) is dual feasible,
    with a rhs at which that basis is optimal (x_3 = x_4 = 1)."""
    a = np.array([[-3.0, 1.0, -2.0, 0.0, -1.0], [1.0, -3.0, -1.0, 1.0, 2.0]])
    return LinearProgram([-1.0, -1.0, -1.0, -3.0, -2.0], a, a[:, [3, 4]] @ [1.0, 1.0])


@pytest.mark.parametrize("case", ["no pivot", "dual pivots", "cap"])
def test_solution_start_matches_its_basis_as_a_start(monkeypatch, case):
    if case == "cap":
        previous = solve(cap_lp())
        assert sorted(previous.basis) == [3, 4]
        lp = previous.lp.with_rhs([-1.0, -3.0])
    else:
        previous = paper_qutrit_scan_solution()
        moved = paper_qutrit_scan_solution((0.0, 0.1, 0.0)).lp.rhs
        rhs = previous.lp.rhs + 1e-3 * np.ones(previous.lp.n_rows) if case == "no pivot" else moved
        lp = previous.lp.with_rhs(rhs)
    resumed, from_basis, verdicts = resolved(monkeypatch, lp, previous)
    # the dual simplex runs only for a start that is not primal feasible, and
    # a solution start that is needs no call to find that out
    pivots = [None if verdict is None else verdict[0] for verdict in verdicts]
    assert pivots == {"no pivot": [0], "dual pivots": [1, 1], "cap": [None, None]}[case]
    assert resumed.status == from_basis.status == "optimal"
    assert (resumed.basis, resumed.iterations) == (from_basis.basis, from_basis.iterations)
    assert np.max(np.abs(resumed.x - from_basis.x)) <= 1e-13
    assert np.max(np.abs(resumed.dual - from_basis.dual)) <= 1e-13
    assert_dual_certifies(lp, resumed)
    assert check_certificate(lp, resumed).passed


def test_feasible_solution_start_is_priced_once_without_a_factorization(monkeypatch):
    # A, c and B^-1 are the previous solve's, whose reduced costs it verified:
    # phase 2 prices the start once, makes no pivot and keeps its inverse
    previous = paper_qutrit_scan_solution()
    lp = previous.lp.with_rhs(previous.lp.rhs + 1e-3)
    calls = spied(monkeypatch, (np.linalg, "solve"), (simplex, "_optimize"), (simplex, "_factorize"))
    resumed = solve(lp, starts=[previous])
    assert calls == ["_optimize"]
    assert resumed.status == "optimal" and resumed.iterations == 0
    assert resumed.basis == previous.basis
    assert np.max(np.abs(resumed.dual - previous.dual)) <= 1e-13
    assert resumed.lp is lp
    assert np.array_equal(resumed.inverse, previous.inverse)
    assert not resumed.inverse.flags.writeable
    assert_dual_certifies(lp, resumed)


def spied(monkeypatch, *targets) -> list[str]:
    """The names of the (module or class, name) targets in the order they
    are called from now on."""
    calls = []
    for owner, name in targets:

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def two_basis_pool():
    """A pool of max -x0 - x1 s.t. 3 x0 - 3 x1 = b, after solves at b = 1
    (basis (0,)) and b = -1 (basis (1,), now the last)."""
    pool = simplex.BasisPool(LinearProgram([-1.0, -1.0], [[3.0, -3.0]], [0.0]))
    for rhs, basis in (([1.0], (0,)), ([-1.0], (1,))):
        assert pool.solve(rhs).basis == basis
    assert [s.basis for s in pool.solutions] == [(0,), (1,)]
    return pool


@pytest.mark.parametrize("case", ["last basis", "stacked"])
def test_pool_answer_matches_a_solve_from_its_basis(monkeypatch, case):
    if case == "last basis":
        pool = paper_qutrit_scan_pool()
        rhs = pool.solutions[0].lp.rhs + 1e-3
    else:
        # the last basis, from the moved settings, leaves the paper-qutrit
        # optimum; the first one answers there again
        pool = paper_qutrit_scan_pool()
        first = pool.solutions[0]
        moved = paper_qutrit_scan_solution((0.0, 0.1, 0.0)).lp.rhs
        assert pool.solve(moved).basis != first.basis
        rhs = first.lp.rhs + 1e-4
    lp = pool.lp.with_rhs(rhs)
    calls = spied(monkeypatch, (simplex, "solve"))
    answer = pool.solve(rhs)
    assert calls == []
    from_basis = solve(lp, starts=[list(answer.basis)])
    assert answer.status == from_basis.status == "optimal"
    assert answer.basis == from_basis.basis and answer.iterations == 0
    assert np.max(np.abs(answer.x - from_basis.x)) <= 1e-13
    assert np.max(np.abs(answer.dual - from_basis.dual)) <= 1e-13
    assert_dual_certifies(lp, answer)
    assert check_certificate(lp, answer).passed
    if case == "stacked":
        assert answer.basis == first.basis
        assert np.array_equal(answer.dual, first.dual)


def test_pool_answer_needs_no_factorization(monkeypatch):
    # the last basis and, after a miss, the stacked others answer with no
    # LAPACK call, no pricing and no LinearProgram; the answer carries the
    # verified dual of its basis and neither an lp nor an inverse
    pool = paper_qutrit_scan_pool()
    first = pool.solutions[0]
    pool.solve(paper_qutrit_scan_solution((0.0, 0.1, 0.0)).lp.rhs)
    calls = spied(
        monkeypatch,
        (np.linalg, "solve"),
        (simplex, "_optimize"),
        (simplex, "_factorize"),
        (simplex, "solve"),
        (LinearProgram, "__post_init__"),
        (LinearProgram, "with_rhs"),
    )
    for shift in (1e-4, 2e-4):
        answer = pool.solve(first.lp.rhs + shift)
        assert answer.status == "optimal" and answer.iterations == 0
        assert answer.basis == first.basis
        assert answer.dual is first.dual
        assert answer.lp is None and answer.inverse is None
    assert calls == []


@pytest.mark.parametrize(
    "rhs, answered_by",
    [
        # x_B of basis (0,) is 1.3e8 / 3 to roundoff, whose residual is 1.5e-8,
        # and (1,) is infeasible: the re-solve from the last basis fails
        pytest.param([1.3e8], None, id="residual"),
        # x_B of basis (0,) is 1.2e8, and of (1,) -1.2e8
        pytest.param([3.6e8], None, id="bound"),
        # x_B of basis (0,) is -1.33e-10, below -CERTIFICATE_VARIABLE_TOL, and
        # (1,) answers
        pytest.param([-4e-10], (1,), id="sign"),
    ],
)
def test_pool_never_answers_from_a_basis_that_fails_a_check(monkeypatch, rhs, answered_by):
    # basis (0,) fails a check at rhs, both as the last basis and in the
    # stacked product
    for last in ((0,), (1,)):
        pool = two_basis_pool()
        if last == (0,):
            pool.solve([2.0])
        assert pool.solutions[pool._last].basis == last
        with monkeypatch.context() as patch:
            calls = spied(patch, (simplex, "solve"))
            answer = pool.solve(rhs)
        if answered_by is None:
            assert calls == ["solve"] and answer.status != "optimal"
        else:
            assert calls == [] and answer.basis == answered_by
        assert [s.basis for s in pool.solutions] == [(0,), (1,)]


def test_pool_miss_resolves_from_the_last_basis_and_pools_it_once(monkeypatch):
    pool = simplex.BasisPool(LinearProgram([-1.0, -1.0], [[3.0, -3.0]], [0.0]))
    starts_made = []
    original = simplex.solve

    def recording(lp, *, starts):
        starts_made.append(starts)
        return original(lp, starts=starts)

    monkeypatch.setattr(simplex, "solve", recording)
    cold = pool.solve([1.0])
    assert starts_made == [[]] and pool.solutions == [cold]
    second = pool.solve([-1.0])
    # the dual simplex re-solve from the last basis
    assert len(starts_made) == 2 and len(starts_made[1]) == 1 and starts_made[1][0] is cold
    assert second.iterations == 1 and second.basis == (1,)
    assert pool.solutions == [cold, second]
    # both bases now answer without a solve, and none joins again
    for rhs in ([-2.0], [2.0], [-3.0]):
        assert pool.solve(rhs).iterations == 0
    assert len(starts_made) == 2 and pool.solutions == [cold, second]


def test_pool_rejects_a_malformed_rhs():
    pool = two_basis_pool()
    for rhs, message in (
        ([1.0, 2.0], "^rhs of shape"),
        ([[1.0]], "^rhs of shape"),
        ([math.inf], "^rhs contains"),
        ([math.nan], "^rhs contains"),
    ):
        with pytest.raises(ValueError, match=message):
            pool.solve(rhs)
    assert [s.basis for s in pool.solutions] == [(0,), (1,)]


def test_solution_start_of_another_lp_is_refused():
    previous = paper_qutrit_scan_solution()
    a, b, c = previous.lp.constraint_matrix, previous.lp.rhs, previous.lp.objective
    rank_deficient = solve(full_probability_lp(2, None))
    assert rank_deficient.status == "optimal" and rank_deficient.inverse is None
    for lp, start in (
        # equal A and c, but copies: only with_rhs shares them
        (LinearProgram(c, a, b), previous),
        (LinearProgram(2.0 * c, a, b), previous),
        (LinearProgram(c, 2.0 * a, b), previous),
        # a solution on reduced rows carries no B^-1 of the original rows
        (full_probability_lp(2, None), rank_deficient),
        (previous.lp, LPSolution("failed", math.nan, None, math.nan, 0, "forced")),
    ):
        with pytest.raises(ValueError, match="^a solution start must carry"):
            solve(lp, starts=[start])


def test_with_rhs_shares_a_and_c_and_checks_only_the_rhs():
    lp = LinearProgram([1.0, 0.0], [[1.0, 1.0]], [1.0])
    moved = lp.with_rhs([2.0])
    assert moved.objective is lp.objective and moved.constraint_matrix is lp.constraint_matrix
    assert np.array_equal(moved.rhs, [2.0]) and not moved.rhs.flags.writeable
    assert np.array_equal(lp.rhs, [1.0])
    assert solve(moved).objective_value == pytest.approx(2.0, abs=1e-12)
    for rhs, message in (([1.0, 2.0], "^rhs of shape"), ([math.inf], "^rhs contains")):
        with pytest.raises(ValueError, match=message):
            lp.with_rhs(rhs)
