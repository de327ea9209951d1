import dataclasses
import itertools
import math

import numpy as np
import pytest

from multiport_bell import proof
from multiport_bell.proof import (
    ALPHA,
    ANALYTIC_VISIBILITY,
    base_matrices,
    conjugate,
    match_base_scaling,
    orbit_classes,
    orbit_map,
    run_proof,
    symmetry_operator,
)
from multiport_bell.quantum import ExperimentConfig
from multiport_bell.strategies import (
    DeterministicStrategy,
    canonicalize,
    distinct_matrices,
    enumerate_strategies,
    strategy_values,
)
from multiport_bell.threshold import builtin_config, correlation_threshold

CHECK_NAMES = [
    "q_decomposition",
    "symmetry_commutes",
    "orbit_structure",
    "orbit_averaging",
    "g_matrix_algebra",
    "basis_expansion",
    "positive_cone",
    "zero_forcing_solve",
    "lp_agreement",
]


def test_symmetry_operator_is_hermitian_unitary_involution():
    u = symmetry_operator()
    eye = np.eye(2)
    assert np.max(np.abs(u @ u - eye)) <= 1e-14
    assert np.max(np.abs(u - u.conj().T)) <= 1e-14
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-14
    eigenvalues = sorted(np.linalg.eigvalsh(u))
    assert eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_symmetry_operator_pauli_assembly():
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    assembled = -0.5 * sigma_x + (math.sqrt(3) / 2) * sigma_y
    assert np.max(np.abs(symmetry_operator() - assembled)) <= 1e-14


def test_run_proof_all_checks_pass():
    report = run_proof()
    assert [c.name for c in report.checks] == CHECK_NAMES
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.detail}"
    assert report.passed
    assert report.analytic_v == pytest.approx(0.6961524227066318, abs=1e-12)
    assert abs(report.analytic_v - report.lp_v) <= 1e-7


def test_analytic_value_matches_closed_form_tightly():
    report = run_proof()
    assert abs(report.analytic_v - ANALYTIC_VISIBILITY) <= 1e-14


def test_report_is_deterministic():
    assert run_proof() == run_proof()


def test_run_proof_takes_its_strategies_from_the_correlation_lp(monkeypatch):
    # the 27 matrices are the correlation LP's columns, not derived again
    expected = run_proof()

    def refused(*args, **kwargs):
        raise AssertionError("the proof derived its strategy set again")

    monkeypatch.setattr("multiport_bell.strategies.canonicalize", refused)
    for name in ("distinct_matrices", "enumerate_strategies", "strategy_values"):
        # raising=False: proof no longer binds strategy_values
        monkeypatch.setattr(proof, name, refused, raising=False)
    assert run_proof() == expected


def test_mutated_config_breaks_symmetry_checks():
    base = builtin_config("paper-qutrit")
    alice = list(map(list, base.alice_settings))
    alice[1][1] += 0.1
    mutated = ExperimentConfig(3, tuple(map(tuple, alice)), base.bob_settings)
    report = run_proof(mutated)
    named = {c.name: c for c in report.checks}
    assert not named["q_decomposition"].passed
    assert not named["symmetry_commutes"].passed
    assert not report.passed


@pytest.mark.parametrize("shift", [1e-6, math.nan])
def test_lp_disagreement_fails_the_report_through_lp_agreement(monkeypatch, shift):
    # an LP value off by more than LP_AGREEMENT_TOL, or NaN, fails that check
    # alone, and the report with it
    exact = correlation_threshold(builtin_config("paper-qutrit"))
    moved = dataclasses.replace(exact, v_thr=exact.v_thr + shift)
    monkeypatch.setattr(proof, "correlation_threshold", lambda config: moved)
    report = run_proof()
    assert [c.name for c in report.checks if not c.passed] == ["lp_agreement"]
    assert not report.passed


def test_run_proof_rejects_uncovered_shapes():
    with pytest.raises(ValueError, match="N=2 with 2"):
        run_proof(builtin_config("chsh-qubit"))
    base = builtin_config("paper-qutrit")
    three_settings = ExperimentConfig(3, base.alice_settings * 2, base.bob_settings)
    with pytest.raises(ValueError, match="N=3 with 4"):
        run_proof(three_settings)


def test_base_identity():
    b1, b10, b13 = base_matrices()
    assert np.max(np.abs(b1 + b10 - b13)) == 0.0


def distinct_stack():
    strategies = distinct_matrices(enumerate_strategies(3, 2, 2), 3)
    return strategies, strategy_values(strategies, 3)


def orbit_class_sums():
    mats, stack = distinct_stack()
    permutation = orbit_map(stack, symmetry_operator())
    pairs, fixed = orbit_classes(permutation)
    members = [list(p) for p in pairs] + [[k] for k in fixed]
    return mats, permutation, members, [stack[idx].sum(axis=0) for idx in members]


def test_g_matching_bruteforce_oracle():
    _, _, members, sums = orbit_class_sums()
    bases = base_matrices()
    for g in sums:
        hits = [
            (sign, power, base_index)
            for base_index, base in enumerate(bases)
            for sign in (1, -1)
            for power in range(3)
            if np.max(np.abs(g - sign * ALPHA**power * base)) <= 1e-12
        ]
        assert len(hits) == 1
        assert hits[0] == match_base_scaling(g)


@pytest.mark.parametrize("matrix", [np.eye(2), np.zeros((2, 2))])
def test_match_base_scaling_rejects_an_unmatched_matrix(matrix):
    with pytest.raises(ValueError, match=r"^expected exactly one base scaling, found 0$"):
        match_base_scaling(matrix)


def test_exactly_three_coincident_class_sums():
    _, _, members, sums = orbit_class_sums()
    coincidences = [
        (i, j)
        for i, j in itertools.combinations(range(len(sums)), 2)
        if np.max(np.abs(sums[i] - sums[j])) <= 1e-12
    ]
    assert len(coincidences) == 3
    # all among the twelve pair sums, none involving the fixed matrices
    assert all(i < 12 and j < 12 for i, j in coincidences)


def test_optimal_weights_lie_in_proof_family():
    cfg = builtin_config("paper-qutrit")
    result = correlation_threshold(cfg)
    mats, permutation, members, sums = orbit_class_sums()
    weights = np.array([result.weights[s] for s in mats])
    symmetrized = 0.5 * (weights + weights[np.array(permutation)])
    class_weights = {}
    for idx, g in zip(members, sums):
        tag = match_base_scaling(g)
        class_weights[tag] = class_weights.get(tag, 0.0) + float(symmetrized[idx[0]])
    allowed = {
        (1, 0, 0): (4 * math.sqrt(3) / 27) * result.v_thr,  # w1
        (1, 1, 1): (4 * math.sqrt(3) / 27) * result.v_thr,  # w6
        (-1, 2, 2): None,  # w4, free within the family
        (1, 0, 2): None,  # w13 = q
        (1, 1, 2): None,  # w14 = q
    }
    for tag, value in class_weights.items():
        if tag in allowed:
            if allowed[tag] is not None:
                assert abs(value - allowed[tag]) <= 1e-6
        else:
            assert abs(value) <= 1e-6
    q13 = class_weights.get((1, 0, 2), 0.0)
    q14 = class_weights.get((1, 1, 2), 0.0)
    assert abs(q13 - q14) <= 1e-6
    w4 = class_weights.get((-1, 2, 2), 0.0)
    expected_sum = ((9 - 2 * math.sqrt(3)) / 27) * result.v_thr
    assert abs((q13 + w4) - expected_sum) <= 1e-6


def test_conjugate_identity():
    matrix = distinct_stack()[1][5]
    assert np.max(np.abs(conjugate(matrix, np.eye(2)) - matrix)) <= 1e-15


def test_conjugate_all_ones_example():
    # oracle: explicit 2x2 products, no numpy matmul
    def times(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]

    u = [[0, ALPHA**2], [ALPHA, 0]]
    ones = [[1, 1], [1, 1]]
    expected = np.array(times(times(u, ones), u))
    all_ones = strategy_values([DeterministicStrategy((0, 0), (0, 0))], 3)[0]
    image = conjugate(all_ones, symmetry_operator())
    assert np.max(np.abs(image - expected)) <= 1e-14
    target = strategy_values([canonicalize(DeterministicStrategy((2, 1), (1, 2)), 3)], 3)
    assert np.max(np.abs(image - target[0])) <= 1e-12


def test_conjugate_is_involution():
    u = symmetry_operator()
    for matrix in distinct_stack()[1]:
        twice = u @ conjugate(matrix, u) @ u
        assert np.max(np.abs(twice - matrix)) <= 1e-12


def test_conjugate_shape_errors():
    matrix = strategy_values(distinct_matrices(enumerate_strategies(3, 1, 1), 3), 3)[0]
    with pytest.raises(ValueError):
        conjugate(matrix, np.eye(2))
    square = distinct_stack()[1][0]
    with pytest.raises(ValueError):
        conjugate(square, np.eye(3))


def test_orbit_map_structure():
    permutation = orbit_map(distinct_stack()[1], symmetry_operator())
    assert sorted(permutation) == list(range(27))  # bijection
    assert all(permutation[m] == n for n, m in enumerate(permutation))  # involution
    fixed = sum(1 for n, m in enumerate(permutation) if n == m)
    assert fixed == 3
    assert (27 - fixed) // 2 == 12


def test_orbit_map_rejects_non_preserving_transform():
    stray = np.diag([1.0, np.exp(0.3j)])
    with pytest.raises(ValueError):
        orbit_map(distinct_stack()[1], stray)
