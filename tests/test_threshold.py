import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from multiport_bell import simplex, threshold
from multiport_bell.quantum import (
    ExperimentConfig,
    correlation_derivatives,
    correlation_matrix,
    joint_probabilities,
    pair_coincidences,
    pure_coincidence_derivatives,
    settings_arrays,
)
from multiport_bell.simplex import (
    LinearProgram,
    LPSolution,
    SolverFailure,
    check_certificate,
    solve,
)
from multiport_bell.strategies import (
    canonicalize,
    distinct_matrices,
    enumerate_strategies,
    strategy_values,
)
from multiport_bell.threshold import (
    builtin_config,
    correlation_lp,
    correlation_threshold,
    probability_lp,
    probability_threshold,
    scan,
)

from _properties import assert_dual_certifies, record_shapes

V_QUTRIT = (6 * math.sqrt(3) - 9) / 2
F_QUTRIT = (11 - 6 * math.sqrt(3)) / 2
V_QUBIT = 1 / math.sqrt(2)


def random_config(rng, dimension, n_alice=2, n_bob=2):
    phases = rng.uniform(0, 2 * np.pi, size=(n_alice + n_bob, dimension))
    return ExperimentConfig(
        dimension, tuple(map(tuple, phases[:n_alice])), tuple(map(tuple, phases[n_alice:]))
    )


def near_optimal_config(rng, dimension):
    """Port k of each setting shifted by k times 0, pi/N (Alice) and +-pi/2N
    (Bob), as in the optimal settings, plus seeded noise: violates local
    realism at every N, unlike most uniform draws at N >= 4."""
    ports = np.arange(dimension)
    slopes = np.array([0.0, 1.0, 0.5, -0.5]) * math.pi / dimension
    phases = np.outer(slopes, ports) + rng.normal(0.0, 0.2, size=(4, dimension))
    return ExperimentConfig(dimension, tuple(map(tuple, phases[:2])), tuple(map(tuple, phases[2:])))


def test_builtin_configs_exact_phases():
    qutrit = builtin_config("paper-qutrit")
    assert qutrit.dimension == 3
    assert set(qutrit.alice_settings) == {
        (0.0, 0.0, 0.0),
        (0.0, math.pi / 3, -math.pi / 3),
    }
    assert qutrit.bob_settings == (
        (0.0, math.pi / 6, -math.pi / 6),
        (0.0, -math.pi / 6, math.pi / 6),
    )
    qubit = builtin_config("chsh-qubit")
    assert qubit.dimension == 2
    with pytest.raises(ValueError):
        builtin_config("nonsense")


def test_qutrit_correlation_threshold():
    result = correlation_threshold(builtin_config("paper-qutrit"))
    assert abs(result.v_thr - V_QUTRIT) <= 1e-9
    assert abs(result.f_thr - F_QUTRIT) <= 1e-9
    assert result.method == "correlation"
    assert result.dimension == 3


def test_zero_phase_config_is_classical():
    for dimension in (2, 3):
        cfg = ExperimentConfig(
            dimension, ((0.0,) * dimension,) * 2, ((0.0,) * dimension,) * 2
        )
        assert correlation_threshold(cfg).v_thr == pytest.approx(1.0, abs=1e-9)


def test_chsh_qubit_both_methods():
    cfg = builtin_config("chsh-qubit")
    assert abs(correlation_threshold(cfg).v_thr - V_QUBIT) <= 1e-9
    assert abs(probability_threshold(cfg).v_thr - V_QUBIT) <= 1e-9


def test_probability_matches_correlation_at_qutrit_settings():
    cfg = builtin_config("paper-qutrit")
    assert abs(probability_threshold(cfg).v_thr - correlation_threshold(cfg).v_thr) <= 1e-6


def test_probability_never_exceeds_correlation():
    rng = np.random.default_rng(33)
    for _ in range(25):
        cfg = random_config(rng, 3)
        v_corr = correlation_threshold(cfg).v_thr
        v_prob = probability_threshold(cfg).v_thr
        assert v_prob <= v_corr + 1e-7


def test_threshold_result_invariants():
    for method in (correlation_threshold, probability_threshold):
        result = method(builtin_config("paper-qutrit"))
        weights = np.array(list(result.weights.values()))
        assert weights.min() >= 0.0
        assert abs(weights.sum() - 1.0) <= 1e-9
        assert 0.0 <= result.v_thr <= 1.0 + 1e-12
        assert result.residual <= 1e-8
        assert result.f_thr == pytest.approx(1.0 - result.v_thr, abs=1e-15)


def test_correlation_weights_reconstruct_scaled_matrix():
    cfg = builtin_config("paper-qutrit")
    result = correlation_threshold(cfg)
    reconstruction = np.zeros((2, 2), dtype=complex)
    for strategy, weight in result.weights.items():
        reconstruction += weight * strategy_values([strategy], 3)[0]
    target = result.v_thr * correlation_matrix(cfg)
    assert np.max(np.abs(reconstruction - target)) <= 1e-8


def test_probability_weights_reconstruct_mixed_tables():
    cfg = builtin_config("paper-qutrit")
    result = probability_threshold(cfg)
    n = cfg.dimension
    for i in range(2):
        for j in range(2):
            table = np.zeros((n, n))
            for strategy, weight in result.weights.items():
                table[strategy.alice[i], strategy.bob[j]] += weight
            pure = joint_probabilities(cfg, i, j)
            target = result.v_thr * pure + (1 - result.v_thr) / n**2
            assert np.max(np.abs(table - target)) <= 1e-8


def test_probability_indicator_matches_loop_reference():
    for dimension, n_alice, n_bob in [(2, 2, 2), (3, 2, 2), (4, 1, 3), (3, 3, 2)]:
        strategies, indicator = threshold._probability_data(dimension, n_alice, n_bob)
        assert strategies == tuple(enumerate_strategies(dimension, n_alice, n_bob))
        n = dimension
        expected = np.zeros((n_alice * n_bob * n * n, len(strategies)))
        for idx, strat in enumerate(strategies):
            for i in range(n_alice):
                for j in range(n_bob):
                    row = ((i * n_bob + j) * n + strat.alice[i]) * n + strat.bob[j]
                    expected[row, idx] = 1.0
        assert np.array_equal(indicator, expected)


def test_symmetric_indicator_matches_loop_reference():
    for dimension, n_alice, n_bob in [(2, 2, 2), (3, 2, 2), (4, 1, 3), (3, 3, 2)]:
        strategies, indicator, block = threshold._symmetric_data(dimension, n_alice, n_bob)
        everything = enumerate_strategies(dimension, n_alice, n_bob)
        assert strategies == distinct_matrices(everything, dimension)
        n = dimension
        expected = np.zeros((n_alice * n_bob * n, len(strategies)))
        for idx, strat in enumerate(strategies):
            for i in range(n_alice):
                for j in range(n_bob):
                    row = (i * n_bob + j) * n + (strat.alice[i] + strat.bob[j]) % n
                    expected[row, idx] = 1.0
        assert np.array_equal(indicator, expected)
        kept = [row for row in range(len(expected)) if row % n != n - 1]
        assert np.array_equal(block, expected[kept])
        labels, orbits = threshold._strategy_data(dimension, n_alice, n_bob)
        assert labels == tuple(everything)
        assert labels[: len(strategies)] == strategies
        assert [strategies[k] for k in orbits] == [canonicalize(s, n) for s in everything]


@pytest.mark.parametrize("dimension", [2, 3, 4])
@pytest.mark.parametrize("n_alice, n_bob", [(2, 2), (1, 3), (3, 2)])
def test_correlation_block_has_full_row_rank(dimension, n_alice, n_bob):
    # real and imaginary rows, or real rows alone at N=2, where every outcome
    # value is +-1; so every start the drivers cache can be accepted
    block = threshold._correlation_data(dimension, n_alice, n_bob)[2]
    pairs = n_alice * n_bob
    assert len(block) == (pairs if dimension == 2 else 2 * pairs)
    assert np.linalg.matrix_rank(block) == len(block)
    rng = np.random.default_rng(20261024)
    lp, _ = correlation_lp(random_config(rng, dimension, n_alice, n_bob))
    assert np.linalg.matrix_rank(lp.constraint_matrix) == lp.n_rows


def test_symmetric_threshold_matches_full_lp():
    rng = np.random.default_rng(20261019)
    dimensions = (2, 2, 3, 3, 4, 4, 5, 5, 6, 6)
    configs = [random_config(rng, n) for n in dimensions]
    configs += [near_optimal_config(rng, n) for n in dimensions]
    configs += [random_config(rng, 4, 3, 2) for _ in range(3)]
    below_correlation = 0
    for cfg in configs:
        lp, _ = probability_lp(cfg)
        full = solve(lp)
        assert full.status == "optimal"
        v_prob = probability_threshold(cfg).v_thr
        assert abs(v_prob - min(full.objective_value, 1.0)) <= 1e-12
        below_correlation += v_prob < correlation_threshold(cfg).v_thr - 1e-6
    # the set holds configs where the two methods differ
    assert below_correlation >= 1


def test_qutrit_probability_equals_correlation():
    # at N=3 the orbit LP is the correlation LP: harmonic 2 is the conjugate of
    # harmonic 1, so matching the exponent distribution matches the correlations
    rng = np.random.default_rng(20261020)
    configs = [random_config(rng, 3) for _ in range(40)]
    configs += [random_config(rng, 3, 3, 3) for _ in range(8)]
    for cfg in configs:
        gap = abs(correlation_threshold(cfg).v_thr - probability_threshold(cfg).v_thr)
        assert gap <= 1e-12
    # not so at N=4, which keeps the identity from holding vacuously
    gaps = []
    for _ in range(20):
        cfg = random_config(rng, 4)
        gaps.append(correlation_threshold(cfg).v_thr - probability_threshold(cfg).v_thr)
    assert max(gaps) > 1e-3


def test_weights_clamp_the_lp_solution_like_python_max(monkeypatch):
    # negative roundoff becomes 0.0 and a -0.0 stays -0.0, as max(w, 0.0) gives
    solved = []
    original = threshold._solve_threshold_lp

    def perturbed(*args, **kwargs):
        stats, solution = original(*args, **kwargs)
        solution.x[:3] = (-0.0, -1e-12, 0.0)
        solved.append((stats[0], solution.x.copy()))
        return stats, solution

    monkeypatch.setattr(threshold, "_solve_threshold_lp", perturbed)
    cfg = builtin_config("paper-qutrit")
    for method in (correlation_threshold, probability_threshold):
        weights = method(cfg).weights
        strategies, x = solved[-1]
        x = x[: len(strategies)]
        if method is probability_threshold:
            strategies, members = threshold._strategy_data(cfg.dimension, cfg.n_alice, cfg.n_bob)
            x = x[members] / cfg.dimension
        expected = {s: max(float(w), 0.0) for s, w in zip(strategies, x)}
        assert list(weights) == list(expected)
        assert list(map(repr, weights.values())) == list(map(repr, expected.values()))
        assert repr(next(iter(weights.values()))) == "-0.0"


def test_probability_weights_cover_every_strategy_uniformly_per_orbit():
    rng = np.random.default_rng(20261021)
    # the first seeded N=4 config that violates local realism, so the tables are mixed
    violating = (random_config(rng, 4) for _ in range(50))
    mixed = next(cfg for cfg in violating if correlation_threshold(cfg).v_thr < 1.0 - 1e-6)
    for cfg in (builtin_config("paper-qutrit"), mixed):
        n = cfg.dimension
        result = probability_threshold(cfg)
        everything = enumerate_strategies(n, cfg.n_alice, cfg.n_bob)
        assert len(everything) == n ** (cfg.n_alice + cfg.n_bob)
        assert list(result.weights) == everything
        assert sum(result.weights.values()) == pytest.approx(1.0, abs=1e-12)
        orbits = {}
        for strategy, weight in result.weights.items():
            orbits.setdefault(canonicalize(strategy, n), []).append(weight)
        assert all(len(set(members)) == 1 and len(members) == n for members in orbits.values())
    # every full coincidence table of the N=4 config
    for i in range(cfg.n_alice):
        for j in range(cfg.n_bob):
            table = np.zeros((n, n))
            for strategy, weight in result.weights.items():
                table[strategy.alice[i], strategy.bob[j]] += weight
            target = result.v_thr * joint_probabilities(cfg, i, j) + (1 - result.v_thr) / n**2
            assert np.max(np.abs(table - target)) <= 1e-8


def test_drivers_build_each_quantum_table_once(monkeypatch):
    calls = {"coincidences_at": 0, "joint_probabilities": 0, "correlations_at": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(threshold, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(threshold, name, counted)
    cfg = builtin_config("paper-qutrit")
    probability_threshold(cfg)
    assert calls == {"coincidences_at": 1, "joint_probabilities": 0, "correlations_at": 0}
    correlation_threshold(cfg)
    assert calls == {"coincidences_at": 1, "joint_probabilities": 0, "correlations_at": 1}


def test_drivers_enumerate_each_strategy_shape_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_strategies(*args)

    monkeypatch.setattr(threshold, "enumerate_strategies", counted)
    for builder in (
        threshold._strategy_data,
        threshold._correlation_data,
        threshold._probability_data,
        threshold._symmetric_data,
    ):
        builder.cache_clear()
    cfg = random_config(np.random.default_rng(20261022), 4)
    correlation_threshold(cfg)
    probability_threshold(cfg)
    probability_lp(cfg)
    assert calls == [(4, 2, 2)]


def test_visibility_pinned_above_threshold_is_infeasible():
    cfg = builtin_config("paper-qutrit")
    v_thr = correlation_threshold(cfg).v_thr
    pinned, _ = correlation_lp(cfg, pin_visibility=v_thr + 1e-4)
    assert solve(pinned).status == "infeasible"
    achievable, _ = correlation_lp(cfg, pin_visibility=v_thr - 1e-6)
    assert solve(achievable).status == "optimal"


def highs(lp):
    return linprog(
        -lp.objective,
        A_eq=lp.constraint_matrix,
        b_eq=lp.rhs,
        bounds=(0, None),
        method="highs",
    )


@pytest.mark.parametrize("seed", [20261137, 20261100])  # V_thr 0.914 and 1
def test_full_probability_lp_pinned_around_threshold_at_n5(seed):
    cfg = random_config(np.random.default_rng(seed), 5)
    lp, strategies = probability_lp(cfg)
    solution = solve(lp)
    assert solution.status == "optimal" and check_certificate(lp, solution).passed
    v_thr = float(solution.x[len(strategies)])
    assert v_thr == pytest.approx(-highs(lp).fun, abs=1e-9)
    below, _ = probability_lp(cfg, pin_visibility=v_thr - 1e-4)
    pinned, reference = solve(below), highs(below)
    assert pinned.status == "optimal" and reference.status == 0
    assert pinned.objective_value == pytest.approx(-reference.fun, abs=1e-9)
    assert_dual_certifies(below, pinned)
    above, _ = probability_lp(cfg, pin_visibility=v_thr + 1e-4)
    assert solve(above).status == "infeasible"
    assert highs(above).status == 2


def test_certificate_at_threshold_optimum():
    lp, _ = correlation_lp(builtin_config("paper-qutrit"))
    solution = solve(lp)
    report = check_certificate(lp, solution)
    assert report.passed
    assert report.max_residual <= 1e-8


def test_uniform_statistics_admit_full_visibility():
    # phase differences of pi/2 everywhere make every coincidence table uniform
    cfg = ExperimentConfig(
        2,
        ((0.0, 0.0), (0.0, -math.pi)),
        ((0.0, -math.pi / 2), (0.0, math.pi / 2)),
    )
    assert probability_threshold(cfg).v_thr == pytest.approx(1.0, abs=1e-9)
    assert correlation_threshold(cfg).v_thr == pytest.approx(1.0, abs=1e-9)


def test_thresholds_match_scipy_reference():
    rng = np.random.default_rng(20260816)
    configs = [builtin_config(name) for name in ("paper-qutrit", "chsh-qubit")]
    configs += [random_config(rng, dimension) for dimension in (4, 4, 4, 5, 5, 5)]
    driver_iterations = plain_iterations = 0
    for cfg in configs:
        for build, driver in (
            (correlation_lp, correlation_threshold),
            (probability_lp, probability_threshold),
        ):
            lp, _ = build(cfg)
            mine = solve(lp)
            reference = highs(lp)
            assert mine.status == "optimal" and reference.status == 0
            assert mine.objective_value == pytest.approx(-reference.fun, abs=1e-7)
            assert_dual_certifies(lp, mine)
            # the driver starts from the cached V=0 basis, skipping phase 1
            result = driver(cfg)
            assert result.v_thr == pytest.approx(-reference.fun, abs=1e-7)
            driver_iterations += result.lp_iterations
            plain_iterations += mine.iterations
    assert driver_iterations < plain_iterations


# restart 4 of scan(4, 6, 25, "corr") when every uncapped LP is solved without
# the restart's previous basis: its 9 x 65 uncapped correlation LP
RATIO_TEST_CONFIG = ExperimentConfig(
    4,
    (
        (0.0, 0.750203121593238, 0.7692283458492376, 0.758955889976107),
        (0.0, 3.891729143858129, 3.9107131540253683, 0.7589256367127314),
    ),
    (
        (0.0, 6.318510835512287, 5.514079525133955, 6.3096948261615475),
        (0.0, 0.035114946742420605, 2.3722812613910547, 3.168042324072745),
    ),
)


def ratio_test_lp():
    statistics = threshold._correlation_statistics
    _, _, block, _, matched, offset = statistics(*settings_arrays(RATIO_TEST_CONFIG))
    lp = threshold._visibility_lp(block, matched, offset, cap=False)
    assert lp.constraint_matrix.shape == (9, 65)
    return lp


def test_ratio_test_lp_solves_cold():
    lp = ratio_test_lp()
    solution, reference = solve(lp), highs(lp)
    assert solution.status == "optimal" and reference.status == 0
    assert solution.objective_value == pytest.approx(-reference.fun, abs=1e-9)
    assert solution.objective_value == pytest.approx(0.7071067834, abs=1e-9)


# the V=0 basis of the fixed-V LP that phase 1 found while it started with
# every artificial above zero; the single-artificial start finds another one,
# from which the solve happens to avoid the fault
RATIO_TEST_START = (53, 12, 50, 10, 55, 44, 20, 19, 33)


@pytest.mark.xfail(
    raises=SolverFailure,
    strict=True,
    reason="from the V=0 start, V enters on a degenerate row at pivot element 1.04e-9, "
    "just above PIVOT_TOL; the solve then ends 'phase 2 primal infeasible on "
    "refactorization' (it ended 'negative variable' while phase 2 ran on reduced rows)",
)
def test_ratio_test_lp_solves_from_the_zero_visibility_start(monkeypatch):
    key = (threshold._correlation_statistics, False, 4, 2, 2)
    monkeypatch.setattr(threshold, "_START_BASES", {key: RATIO_TEST_START})
    (strategies, *_), solution = threshold._solve_threshold_lp(
        threshold._correlation_statistics, *settings_arrays(RATIO_TEST_CONFIG), cap=False
    )
    lp = ratio_test_lp()
    assert solution.status == "optimal"
    assert solution.x[len(strategies)] == pytest.approx(-highs(lp).fun, abs=1e-9)
    assert_dual_certifies(lp, solution)


def test_thresholds_independent_of_start_cache_state():
    rng = np.random.default_rng(20261018)
    cfg = random_config(rng, 3)
    # another N=3 config fills the cache from its own LP first
    others = [random_config(rng, dimension) for dimension in (2, 3, 4)]

    def results():
        return [
            (r.v_thr, r.weights, r.residual, r.lp_iterations)
            for r in (probability_threshold(cfg), correlation_threshold(cfg))
        ]

    threshold._START_BASES.clear()
    cold = results()
    warm = results()
    threshold._START_BASES.clear()
    for other in others:
        probability_threshold(other)
        correlation_threshold(other)
    after_others = results()
    assert cold == warm == after_others


def nudged(cfg, setting, port, step):
    """cfg with port ``port`` of setting ``setting`` (Alice's, then Bob's) moved by step."""
    settings = [list(s) for s in cfg.alice_settings + cfg.bob_settings]
    settings[setting][port] += step
    settings = tuple(map(tuple, settings))
    return ExperimentConfig(cfg.dimension, settings[: cfg.n_alice], settings[cfg.n_alice :])


def central_difference(function, cfg, step=1e-6):
    """d function(cfg) / d every phase, as (..., n_alice + n_bob, N)."""
    columns = [
        [
            (function(nudged(cfg, r, m, step)) - function(nudged(cfg, r, m, -step))) / (2 * step)
            for m in range(cfg.dimension)
        ]
        for r in range(cfg.n_alice + cfg.n_bob)
    ]
    return np.moveaxis(np.array(columns), (0, 1), (-2, -1))


def uncapped_visibility(cfg, statistics):
    """V*, the block prices and the pool of cfg's V* LP, solved cold."""
    return threshold._uncapped_visibility(statistics, *settings_arrays(cfg), None)


# the statistics each scan method builds its LP from, and dmatched/dphase
DERIVATIVES = (
    (threshold._correlation_statistics, threshold._correlation_derivatives),
    (threshold._symmetric_statistics, threshold._symmetric_derivatives),
)


def test_pure_coincidences_are_the_joint_table_by_outcome_sum():
    rng = np.random.default_rng(20261022)
    for dimension in (2, 3, 4, 5, 6):
        cfg = random_config(rng, dimension)
        for i, j in itertools.product(range(2), range(2)):
            pure = pair_coincidences(cfg)[i * cfg.n_bob + j]
            table = joint_probabilities(cfg, i, j)
            assert np.max(np.abs(pure - table[0])) <= 1e-15
            sums = np.add.outer(np.arange(dimension), np.arange(dimension)) % dimension
            assert np.array_equal(table, pure[sums])


def test_matched_phase_derivatives_match_central_differences():
    rng = np.random.default_rng(20261023)
    configs = [random_config(rng, n) for n in (2, 3, 4, 5)]
    configs += [near_optimal_config(rng, n) for n in (3, 5)]
    configs.append(random_config(rng, 3, 3, 2))
    for cfg in configs:
        for statistics, derivative in DERIVATIVES:
            _, _, block, _, matched, _ = statistics(*settings_arrays(cfg))
            # the price of one block row at a time recovers that row of the
            # Jacobian, so every entry is checked
            assert len(block) == matched.size
            derivatives = np.array(
                [derivative(*settings_arrays(cfg), price) for price in np.eye(matched.size)]
            )
            assert derivatives.shape == (matched.size, cfg.n_alice + cfg.n_bob, cfg.dimension)
            numeric = central_difference(lambda c: statistics(*settings_arrays(c))[4], cfg)
            assert np.max(np.abs(derivatives - numeric)) <= 1e-8


def test_visibility_gradient_matches_central_differences():
    # dV*/dphase = V* y_block . dmatched/dphase holds where the optimal basis
    # is primal nondegenerate, so the dual is unique and V* is smooth
    rng = np.random.default_rng(20261024)
    checked = 0
    for dimension in (3, 3, 3, 3, 4, 4, 4, 4):
        for draw in (random_config, near_optimal_config):
            cfg = draw(rng, dimension)
            for statistics, derivative in DERIVATIVES:
                _, _, block, _, matched, offset = statistics(*settings_arrays(cfg))
                lp = threshold._visibility_lp(block, matched, offset, cap=False)
                solution = solve(lp)
                assert solution.status == "optimal"
                assert_dual_certifies(lp, solution)
                if solution.x[list(solution.basis)].min() < 1e-6:
                    continue
                v, prices, _ = uncapped_visibility(cfg, statistics)
                assert v == pytest.approx(solution.objective_value, abs=1e-12)
                # the gradient the scan's BFGS objective forms
                gradient = v * derivative(*settings_arrays(cfg), prices)
                numeric = central_difference(
                    lambda c: uncapped_visibility(c, statistics)[0], cfg
                )
                assert np.max(np.abs(gradient - numeric)) <= 1e-7
                checked += 1
    assert checked >= 24


def charnes_cooper_lp(block, matched, offset):
    """The scan's V* LP, max -1.u s.t. (block - offset) u = matched - offset,
    u >= 0, whose optimum is -1/V*."""
    return LinearProgram(-np.ones(block.shape[1]), block - offset, matched - offset)


def config_route(dimension, vector, method):
    """The V* LP of a scan probe, and dmatched/dphase as (rows, 4, N), built
    from the config of its phase vector through quantum's config-level
    functions."""
    cfg = threshold._vector_config(dimension, vector)
    uses = threshold._settings_pairs(cfg.n_alice, cfg.n_bob)[1]
    if method == "corr":
        block = threshold._correlation_data(dimension, cfg.n_alice, cfg.n_bob)[2]
        matched = threshold._real_rows(correlation_matrix(cfg).reshape(-1), dimension)
        by_phase = correlation_derivatives(cfg)[:, None, :] * uses[:, :, None]
        derivatives = threshold._real_rows(by_phase, dimension)
        offset = 0.0
    else:
        block = threshold._symmetric_data(dimension, cfg.n_alice, cfg.n_bob)[2]
        matched = (dimension * pair_coincidences(cfg))[:, :-1].reshape(-1)
        by_port = dimension * pure_coincidence_derivatives(cfg)
        by_phase = by_port[:, :-1, None, :] * uses[:, None, :, None]
        derivatives = by_phase.reshape(-1, *uses.shape[1:], dimension)
        offset = 1.0 / dimension
    return charnes_cooper_lp(block, matched, offset), derivatives


SCAN_ROUTES = dict(zip(("corr", "prob"), DERIVATIVES))


@pytest.mark.parametrize("method", ["corr", "prob"])
def test_scan_probe_route_matches_the_config_route_bit_for_bit(monkeypatch, method):
    # a scan probe goes from its phase vector to the LP's rhs and prices
    # without building a config; the config of the same vector gives the same
    # LP, V*, prices and gradient
    statistics, derivative = SCAN_ROUTES[method]
    rng = np.random.default_rng(20261026)
    lps = recorded_solves(monkeypatch)
    for dimension in (2, 3, 4, 5, 6):
        for _ in range(3):
            vector = rng.uniform(0.0, 2.0 * math.pi, 4 * (dimension - 1))
            phases = threshold._vector_phases(dimension, vector)
            alice, bob = phases[:2], phases[2:]
            v, prices, _ = threshold._uncapped_visibility(statistics, alice, bob, None)
            gradient = v * derivative(alice, bob, prices)
            lp, derivatives = config_route(dimension, vector, method)
            assert lp_bits(lps[-1]) == lp_bits(lp)
            # a probe without a pool solves cold
            expected = solve(lp)
            assert expected.status == "optimal"
            expected_v = -1.0 / expected.objective_value
            assert v == expected_v
            assert np.array_equal(prices, expected_v * expected.dual)
            cfg = threshold._vector_config(dimension, vector)
            expected_prices = expected_v * expected.dual
            expected_gradient = expected_v * derivative(*settings_arrays(cfg), expected_prices)
            assert np.array_equal(gradient, expected_gradient)
            # the contraction is the prices against the full Jacobian
            full = expected_v * np.tensordot(expected_prices, derivatives, axes=1)
            assert np.max(np.abs(gradient - full)) <= 1e-13 * max(1.0, np.abs(full).max())


def test_scan_builds_configs_only_for_its_results(monkeypatch):
    # one config per restart for its capped threshold, and one for the result
    built = []
    original = threshold.ExperimentConfig

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(threshold, "ExperimentConfig", counted)
    result = scan(3, 2, 0, "prob")
    assert len(built) == 3
    assert result.best_config == original(*built[-1])


@pytest.mark.parametrize("method", ["corr", "prob"])
def test_charnes_cooper_visibility_is_the_uncapped_optimum(method):
    # 1/V* = min 1.u s.t. (block - offset) u = matched - offset, u >= 0 is the
    # uncapped LP max V with u = p/V; its dual, scaled by V*, is that LP's
    # block prices wherever they are unique
    statistics, _ = SCAN_ROUTES[method]
    rng = np.random.default_rng(20261027)
    unique = 0
    for dimension in (2, 3, 4, 5, 6):
        for draw in (random_config, near_optimal_config, random_config):
            alice, bob = settings_arrays(draw(rng, dimension))
            _, _, block, _, matched, offset = statistics(alice, bob)
            uncapped = solve(threshold._visibility_lp(block, matched, offset, cap=False))
            assert uncapped.status == "optimal"
            v, prices, pool = threshold._uncapped_visibility(statistics, alice, bob, None)
            (solution,) = pool.solutions
            assert v == pytest.approx(uncapped.objective_value, rel=1e-12)
            assert_dual_certifies(charnes_cooper_lp(block, matched, offset), solution)
            if uncapped.x[list(uncapped.basis)].min() > 1e-6:
                assert np.max(np.abs(prices - uncapped.dual[: len(block)])) <= 1e-12 * v
                unique += 1
    assert unique >= 10


def test_infeasible_visibility_lp_raises(monkeypatch):
    # V* = 0 would leave the LP infeasible; no phases give it, and a solve
    # that says so, or any optimum that is not negative, must not pass
    alice, bob = settings_arrays(builtin_config("paper-qutrit"))
    for solution in (
        LPSolution("infeasible", math.nan, None, math.nan, 0, "forced"),
        LPSolution("optimal", 0.0, np.zeros(27), 0.0, 0, "", (), np.zeros(8)),
    ):
        # a restart's first V* LP is solved cold by its new pool
        monkeypatch.setattr(simplex, "solve", lambda *args, _s=solution, **kwargs: _s)
        with pytest.raises(SolverFailure, match=f"^scan LP ended with status {solution.status}"):
            threshold._uncapped_visibility(threshold._symmetric_statistics, alice, bob, None)


def test_uncapped_visibility_is_unbounded_at_uniform_statistics():
    cfg = ExperimentConfig(
        2,
        ((0.0, 0.0), (0.0, -math.pi)),
        ((0.0, -math.pi / 2), (0.0, math.pi / 2)),
    )
    v, prices, pool = uncapped_visibility(cfg, threshold._symmetric_statistics)
    assert v == math.inf
    assert not prices.any()
    assert pool is None
    # a restart's pool passes through unchanged
    alice, bob = settings_arrays(builtin_config("paper-qutrit"))
    pool = threshold._uncapped_visibility(threshold._symmetric_statistics, alice, bob, None)[2]
    uniform = settings_arrays(cfg)
    assert threshold._uncapped_visibility(threshold._symmetric_statistics, *uniform, pool)[2] is pool


def test_scan_probes_build_no_derivatives(monkeypatch):
    # the golden-section probes read V* alone, so most V* LPs of a restart,
    # each answered by the restart's pool, build no phase derivatives
    calls = {"coincidence_derivatives_at": 0, "solve": 0}
    for owner, name in ((threshold, "coincidence_derivatives_at"), (simplex.BasisPool, "solve")):

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    scan(3, 1, 0, "prob")
    assert calls["solve"] > 0
    # one call builds the derivatives of every settings pair
    assert calls["coincidence_derivatives_at"] < calls["solve"] / 2


def test_scan_keeps_the_start_where_every_uncapped_lp_is_unbounded(monkeypatch):
    # V* = inf everywhere: the sweep finds no gain, the gradient is zero
    # without any phase derivatives, and each restart ends at its start
    def unbounded(statistics, alice, bob, previous):
        return math.inf, np.zeros(len(statistics(alice, bob)[2])), None

    def no_derivatives(alice, bob):
        raise AssertionError("derivatives built for an unbounded LP")

    monkeypatch.setattr(threshold, "_uncapped_visibility", unbounded)
    monkeypatch.setattr(threshold, "_symmetric_derivatives", no_derivatives)
    result = scan(3, 2, 0, "prob")
    vectors = [np.random.default_rng([0, index]).uniform(0.0, 2.0 * math.pi, 8) for index in (0, 1)]
    starts = [threshold._vector_config(3, vector) for vector in vectors]
    assert result.best_config == starts[0]
    assert result.history == tuple(
        (index, probability_threshold(start).f_thr) for index, start in enumerate(starts)
    )


def test_scan_solves_often_start_optimal(monkeypatch):
    # each V* LP is answered from its restart's pool of verified bases, which
    # often holds an optimal one: 69 of 78 take no pivot, and only the other
    # 9 reach simplex.solve, each from the restart's last basis but the cold
    # first one
    pivots = []
    start_counts = []
    answer, resolve = simplex.BasisPool.solve, simplex.solve

    def answered(pool, rhs):
        solution = answer(pool, rhs)
        pivots.append(solution.iterations)
        return solution

    def resolved(lp, *, starts):
        start_counts.append(len(starts))
        return resolve(lp, starts=starts)

    monkeypatch.setattr(simplex.BasisPool, "solve", answered)
    monkeypatch.setattr(simplex, "solve", resolved)
    scan(3, 1, 0, "prob")
    assert pivots.count(0) >= 0.85 * len(pivots)
    assert start_counts == [0] + [1] * (len(pivots) - pivots.count(0) - 1)


def test_scan_opens_one_pool_per_restart(monkeypatch):
    # each restart's first V* LP opens its pool, and every later one reuses it
    previous = []
    uncapped = threshold._uncapped_visibility

    def recorded(statistics, alice, bob, pool):
        previous.append(pool)
        return uncapped(statistics, alice, bob, pool)

    monkeypatch.setattr(threshold, "_uncapped_visibility", recorded)
    scan(3, 3, 0, "prob")
    assert previous.count(None) == 3
    assert len({id(pool) for pool in previous if pool is not None}) == 3


def test_previous_basis_starts_keep_scan_restarts_at_optimum():
    # accepting a previous basis with a basic value in (-1e-9, -1e-10) ends the
    # solve "negative variable", which fails both restarts
    history = scan(3, 2, 21, "prob").history
    assert not any(math.isnan(f) for _, f in history)
    assert all(f >= 0.30384 for _, f in history)


def forced_failure(*args, **kwargs):
    return LPSolution("failed", math.nan, None, math.nan, 0, "forced")


def test_drivers_raise_solver_failure_on_failed_lp(monkeypatch):
    monkeypatch.setattr(threshold, "_START_BASES", {})
    monkeypatch.setattr(threshold, "solve", forced_failure)
    for driver in (correlation_threshold, probability_threshold):
        with pytest.raises(SolverFailure) as failure:
            driver(builtin_config("paper-qutrit"))
        assert str(failure.value) == "threshold LP ended with status failed: forced"


def test_failed_zero_visibility_solve_leaves_no_start(monkeypatch):
    cfg = builtin_config("paper-qutrit")
    monkeypatch.setattr(threshold, "_START_BASES", {})
    calls = 0
    original = threshold.solve

    def fails_first(*args, **kwargs):
        nonlocal calls
        calls += 1
        return forced_failure() if calls == 1 else original(*args, **kwargs)

    # call 1 is the V=0 solve that fills the empty cache
    monkeypatch.setattr(threshold, "solve", fails_first)
    assert correlation_threshold(cfg).v_thr == pytest.approx(V_QUTRIT, abs=1e-12)
    assert threshold._START_BASES == {(threshold._correlation_statistics, True, 3, 2, 2): None}
    before = calls
    # the shape's V=0 LP is not solved again, and the LP solves cold
    second = correlation_threshold(cfg)
    assert calls == before + 1
    assert second.lp_iterations == original(correlation_lp(cfg)[0]).iterations


def recorded_solves(monkeypatch) -> list:
    """The LPs solved from now on, in call order: the drivers' through
    threshold.solve, the scan's V* LPs through their pools' simplex.solve."""
    lps = []
    original = simplex.solve

    def recording(lp, *args, **kwargs):
        lps.append(lp)
        return original(lp, *args, **kwargs)

    monkeypatch.setattr(threshold, "solve", recording)
    monkeypatch.setattr(simplex, "solve", recording)
    return lps


def lp_bits(lp):
    return [(x.shape, x.tobytes()) for x in (lp.constraint_matrix, lp.rhs, lp.objective)]


def test_every_threshold_lp_is_built_by_visibility_lp(monkeypatch):
    # every driver LP, and the scan's V* LP in its Charnes-Cooper form
    cfg = random_config(np.random.default_rng(20261019), 3)

    def built(statistics, cap):
        _, _, block, _, matched, offset = statistics(*settings_arrays(cfg))
        return threshold._visibility_lp(block, matched, offset, cap=cap)

    drivers = [
        (lambda: correlation_threshold(cfg), correlation_lp(cfg)[0]),
        (lambda: probability_threshold(cfg), built(threshold._symmetric_statistics, True)),
    ]
    monkeypatch.setattr(threshold, "_START_BASES", {})
    lps = recorded_solves(monkeypatch)
    for run, expected in drivers:
        k = int(np.flatnonzero(expected.objective)[0])  # V, the objective's only column
        zero = LinearProgram(
            np.zeros(expected.n_cols - 1),
            np.delete(expected.constraint_matrix, k, axis=1),
            expected.rhs,
        )
        run()
        # the first LP of a shape also solves its V=0 LP, and only the first
        assert [lp_bits(lp) for lp in lps] == [lp_bits(zero), lp_bits(expected)]
        lps.clear()
        run()
        assert [lp_bits(lp) for lp in lps] == [lp_bits(expected)]
        lps.clear()
    # one scan step solves its V* LP alone: it has no V=0 LP
    for statistics in (threshold._correlation_statistics, threshold._symmetric_statistics):
        _, _, block, _, matched, offset = statistics(*settings_arrays(cfg))
        for _ in range(2):
            uncapped_visibility(cfg, statistics)
            assert [lp_bits(lp) for lp in lps] == [
                lp_bits(charnes_cooper_lp(block, matched, offset))
            ]
            lps.clear()
    assert len(threshold._START_BASES) == len(drivers)


def test_scan_records_failed_restart_as_nan(monkeypatch):
    unpatched = scan(3, 2, 0, "prob").history
    # call 1 is restart 0's first V* LP, solved cold, and call 2 the first of
    # its V* LPs that no pooled basis answers
    calls = 0
    original = simplex.solve

    def fails_once(*args, **kwargs):
        nonlocal calls
        calls += 1
        return forced_failure() if calls == 2 else original(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve", fails_once)
    history = scan(3, 2, 0, "prob").history
    assert history[0][0] == 0 and math.isnan(history[0][1])
    assert history[1] == unpatched[1]


def test_scan_with_every_restart_failed_raises(monkeypatch):
    monkeypatch.setattr(threshold, "_START_BASES", {})
    monkeypatch.setattr(threshold, "solve", forced_failure)
    with pytest.raises(SolverFailure, match="^every scan restart failed$"):
        scan(3, 2, 0, "prob")


def test_scan_validation():
    with pytest.raises(ValueError):
        scan(7, 1, 0)
    with pytest.raises(ValueError):
        scan(3, 0, 0)
    with pytest.raises(ValueError):
        scan(3, 1, 0, method="nope")
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        scan(3, 1, -1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, 2.0, 0), "restarts must be an integer, got 2.0"),
        ((3, 2, 1.5), "seed must be an integer, got 1.5"),
        ((3, True, 0), "restarts must be an integer, got True"),
        ((True, 1, 0), "dimension must be an integer, got True"),
        ((3.0, 1, 0), "dimension must be an integer, got 3.0"),
        ((3, 1, False), "seed must be an integer, got False"),
        ((3, 1, "7"), "seed must be an integer, got '7'"),
    ],
)
def test_scan_rejects_non_integer_arguments(args, message):
    with pytest.raises(ValueError) as failure:
        scan(*args)
    assert str(failure.value) == message


def test_scan_takes_numpy_integers():
    plain = scan(2, 2, 3, "corr")
    numpy = scan(np.int64(2), np.int64(2), np.int64(3), "corr")
    assert numpy.history == plain.history
    assert numpy.best_config == plain.best_config


def test_probability_scan_has_no_failed_restart():
    # restart 1 of this seed meets a rank-deficient LP on which a solver that
    # kept the dependent rows ended "failed", recording NaN
    history = scan(3, 2, 8, "prob").history
    assert not any(math.isnan(f) for _, f in history)


def test_probability_scan_at_n5_reaches_its_optimum(monkeypatch):
    # its 16x125 V* LPs, solved cold at each restart's first probe, and the
    # 18x126 V=0 LP of the capped threshold, which an empty start cache makes
    # it solve, are the smallest LPs the solver reduces to their row space
    # through the eigenvectors of A A^T
    monkeypatch.setattr(threshold, "_START_BASES", {})
    shapes = record_shapes(monkeypatch, "eigh")
    history = scan(5, 4, 7, "prob").history
    assert {rows for rows, _ in shapes} >= {16, 18}
    assert not any(math.isnan(f) for _, f in history)
    assert max(f for _, f in history) == pytest.approx(0.3128434256, abs=1e-9)


def test_scan_deterministic_repeat():
    for args in ((2, 1, 3, "corr"), (3, 2, 5, "prob")):
        first = scan(*args)
        second = scan(*args)
        assert first.best_f_thr == second.best_f_thr
        assert first.history == second.history
        assert first.best_config == second.best_config


@pytest.mark.parametrize("method", ["corr", "prob"])
def test_scan_restarts_are_order_independent(method):
    for seed in (0, 4):
        alone = scan(3, 1, seed, method)
        assert alone.history == scan(3, 2, seed, method).history[:1]


def test_scan_independent_of_start_cache_state():
    def outcome():
        result = scan(3, 2, 6, "prob")
        return result.history, result.best_config

    threshold._START_BASES.clear()
    cold = outcome()
    warm = outcome()
    threshold._START_BASES.clear()
    # other configs of every shape fill the scan's and the drivers' bases first
    for dimension in (2, 3, 4):
        for method in ("corr", "prob"):
            scan(dimension, 1, 1, method)
        probability_threshold(random_config(np.random.default_rng(dimension), dimension))
    after_others = outcome()
    assert cold == warm == after_others


POOL_SEEDS = range(11)


@pytest.fixture(scope="module")
def pool_histories():
    return {seed: scan(3, 2, seed, "prob").history for seed in POOL_SEEDS}


def test_probability_scan_reaches_qutrit_optimum_on_pool(pool_histories):
    values = [f for history in pool_histories.values() for _, f in history]
    assert len(values) == 22
    assert sum(f >= 0.30384 for f in values) >= 20
    assert max(values) <= F_QUTRIT + 1e-9


def test_scan_restarts_ignore_roundoff_in_visibility(monkeypatch, pool_histories):
    # a restart's result must not hinge on comparisons of values that differ
    # by roundoff: nudge every V* by 1e-15, with alternating signs
    uncapped = threshold._uncapped_visibility
    for pattern in ((1e-15, -1e-15), (-1e-15, -1e-15, 1e-15)):
        shifts = itertools.cycle(pattern)

        def nudged_visibility(*args):
            v, prices, pool = uncapped(*args)
            return v + next(shifts), prices, pool

        monkeypatch.setattr(threshold, "_uncapped_visibility", nudged_visibility)
        for seed in POOL_SEEDS:
            history = scan(3, 2, seed, "prob").history
            reference = pool_histories[seed]
            assert [index for index, _ in history] == [index for index, _ in reference]
            assert max(abs(f - g) for (_, f), (_, g) in zip(history, reference)) <= 1e-9


def test_line_search_ignores_roundoff_at_every_nudge_phase(monkeypatch):
    # seed 6 restart 0 meets a flat coordinate on which several probes read
    # the same V*, so a 1e-15 nudge decides which probe is "best" unless a
    # probe must gain more than SCAN_GAIN_STOP; try every phase of the cycle
    reference = scan(3, 1, 6, "prob").history[0][1]
    uncapped = threshold._uncapped_visibility
    for pattern in ((1e-15, -1e-15), (-1e-15, -1e-15, 1e-15)):
        for offset in range(len(pattern)):
            shifts = itertools.cycle(pattern[offset:] + pattern[:offset])

            def nudged_visibility(*args, _shifts=shifts):
                v, prices, pool = uncapped(*args)
                return v + next(_shifts), prices, pool

            monkeypatch.setattr(threshold, "_uncapped_visibility", nudged_visibility)
            assert scan(3, 1, 6, "prob").history[0][1] == pytest.approx(reference, abs=1e-9)


def counted(function):
    """function, and a list that gains one entry per call of it."""
    calls = []

    def wrapper(x):
        calls.append(None)
        return function(x)

    return wrapper, calls


def test_ascend_returns_the_start_on_a_zero_gradient():
    start = np.array([0.4, -1.2, 2.0])
    gradient, calls = counted(lambda x: (0.0, np.zeros_like(x)))
    result = threshold._ascend(lambda x: 0.0, gradient, start.copy())
    assert np.array_equal(result, start)
    assert len(calls) == 1


def test_ascend_returns_the_swept_point_when_backtracking_fails():
    # the gradient of -|x|**2 with the wrong sign: every step loses value
    def objective(x):
        return -float(x @ x)

    start = np.array([3.0, -2.0])
    swept, value = start.copy(), objective(start)
    for k in range(swept.size):
        value = threshold._line_max(objective, swept, k, value)
    gradient, calls = counted(lambda x: (objective(x), 2.0 * x))
    result = threshold._ascend(objective, gradient, start.copy())
    assert np.array_equal(result, swept)
    assert not np.array_equal(swept, start)
    assert len(calls) == 1 + threshold.SCAN_BACKTRACKS


def test_scan_qubit_recovers_chsh_threshold():
    result = scan(2, 10, 7)
    assert result.best_f_thr >= (2 - math.sqrt(2)) / 2 - 1e-4
    assert result.restarts == 10
    assert len(result.history) == 10
    assert result.best_f_thr == max(f for _, f in result.history if not math.isnan(f))
    best_again = correlation_threshold(result.best_config).f_thr
    assert best_again == pytest.approx(result.best_f_thr, abs=1e-12)
