import math

import numpy as np
import pytest

from multiport_bell.quantum import (
    ExperimentConfig,
    coincidence_derivatives_at,
    coincidences_at,
    correlation_derivatives_at,
    correlation_matrix,
    correlation_value,
    correlations_at,
    fourier_matrix,
    joint_probabilities,
    observable_unitary,
    pair_coincidences,
    settings_arrays,
)
from multiport_bell.threshold import builtin_config

from _properties import (
    global_phase_failures,
    noise_kill_failures,
    normalization_failures,
    unitarity_failures,
)

SQRT3 = math.sqrt(3.0)
Q1 = complex((2 * SQRT3 + 1) / 6, -(2 - SQRT3) / 6)
Q2 = complex(-1 / 3, -2 / 3)


def probability_route_correlation(config, i, j, noise=0.0):
    """Independent route: gamma**(a+b) weighted sum over the coincidence table."""
    n = config.dimension
    gamma = np.exp(2j * np.pi / n)
    table = joint_probabilities(config, i, j, noise)
    return sum(gamma ** (a + b) * table[a, b] for a in range(n) for b in range(n))


def test_fourier_matrix_qutrit_entries():
    f = fourier_matrix(3)
    assert abs(f[0, 0] - 1 / SQRT3) <= 1e-12
    alpha = complex(-0.5, SQRT3 / 2)
    assert abs(f[1, 1] - alpha / SQRT3) <= 1e-12


def test_fourier_matrix_qubit_is_hadamard():
    f = fourier_matrix(2)
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.max(np.abs(f - expected)) <= 1e-12


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5])
def test_fourier_matrix_rejects_bad_dimension(bad):
    with pytest.raises(ValueError):
        fourier_matrix(bad)


def test_observable_unitary_zero_phases_is_fourier():
    assert np.array_equal(observable_unitary((0.0, 0.0, 0.0)), fourier_matrix(3))


def test_observable_unitary_phase_shifted_entry():
    u = observable_unitary((0.0, math.pi / 3, -math.pi / 3))
    assert abs(u[0, 1] - np.exp(1j * math.pi / 3) / SQRT3) <= 1e-12


def test_observable_unitary_column_norms():
    rng = np.random.default_rng(5)
    u = observable_unitary(rng.uniform(0, 2 * np.pi, size=5))
    norms = np.linalg.norm(u, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_observable_unitary_rejects_bad_settings():
    with pytest.raises(ValueError):
        observable_unitary((0.0,))
    with pytest.raises(ValueError):
        observable_unitary((0.0, math.nan, 0.0))


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(3, ((0.0, 0.0),), ((0.0, 0.0, 0.0),))
    with pytest.raises(ValueError):
        ExperimentConfig(1, ((0.0,),), ((0.0,),))
    with pytest.raises(ValueError):
        ExperimentConfig(2, (), ((0.0, 0.0),))
    cfg = ExperimentConfig(2, [[0.0, 1.0]], [[0.5, 0.25]])
    assert cfg.alice_settings == ((0.0, 1.0),)


def test_joint_probabilities_zero_phases_antidiagonal():
    cfg = ExperimentConfig(3, ((0.0, 0.0, 0.0),), ((0.0, 0.0, 0.0),))
    table = joint_probabilities(cfg, 0, 0)
    for a in range(3):
        for b in range(3):
            expected = 1 / 3 if (a + b) % 3 == 0 else 0.0
            assert abs(table[a, b] - expected) <= 1e-12


def test_joint_probabilities_full_noise_uniform():
    cfg = builtin_config("paper-qutrit")
    table = joint_probabilities(cfg, 1, 0, 1.0)
    assert np.max(np.abs(table - 1 / 9)) <= 1e-15


@pytest.mark.parametrize("dimension", range(2, 8))
def test_joint_probabilities_follow_the_born_rule(dimension):
    # (1 - F) |<a b| U_A (x) U_B |psi>|^2 + F/N^2 with psi = sum_m |m m>/sqrt(N)
    rng = np.random.default_rng(20261019 + dimension)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, dimension))
    cfg = ExperimentConfig(dimension, tuple(map(tuple, phases[:2])), tuple(map(tuple, phases[2:])))
    psi = np.eye(dimension).reshape(-1) / math.sqrt(dimension)
    for i, alice in enumerate(cfg.alice_settings):
        for j, bob in enumerate(cfg.bob_settings):
            amplitudes = np.kron(observable_unitary(alice), observable_unitary(bob)) @ psi
            pure = np.abs(amplitudes.reshape(dimension, dimension)) ** 2
            for noise in (0.0, float(rng.uniform())):
                expected = (1.0 - noise) * pure + noise / dimension**2
                table = joint_probabilities(cfg, i, j, noise)
                assert np.max(np.abs(table - expected)) <= 1e-12


def per_pair_configs():
    rng = np.random.default_rng(20261019)
    for dimension in range(2, 7):
        for n_alice, n_bob in ((1, 1), (1, 3), (2, 2), (3, 1), (3, 3)):
            phases = rng.uniform(-100.0, 100.0, size=(n_alice + n_bob, dimension))
            alice, bob = phases[:n_alice], phases[n_alice:]
            yield ExperimentConfig(dimension, tuple(map(tuple, alice)), tuple(map(tuple, bob)))


def pair_terms(cfg, i, j):
    """The per-pair Fourier phases gamma**(s*m) and exp(i*(phi_m + theta_m))."""
    n = cfg.dimension
    fourier = np.exp(2j * np.pi / n * np.outer(np.arange(n), np.arange(n)))
    local = np.exp(1j * (np.asarray(cfg.alice_settings[i]) + np.asarray(cfg.bob_settings[j])))
    return fourier, local


def test_pair_coincidences_equal_the_per_pair_born_rule_bit_for_bit():
    for cfg in per_pair_configs():
        n = cfg.dimension
        batched = pair_coincidences(cfg)
        assert batched.shape == (cfg.n_alice * cfg.n_bob, n)
        for i in range(cfg.n_alice):
            for j in range(cfg.n_bob):
                fourier, local = pair_terms(cfg, i, j)
                expected = np.abs(fourier @ local) ** 2 / n**3
                assert np.array_equal(batched[i * cfg.n_bob + j], expected)


def test_pure_coincidence_derivatives_equal_the_per_pair_formula_bit_for_bit():
    for cfg in per_pair_configs():
        n = cfg.dimension
        batched = coincidence_derivatives_at(*settings_arrays(cfg))
        assert batched.shape == (cfg.n_alice * cfg.n_bob, n, n)
        for i in range(cfg.n_alice):
            for j in range(cfg.n_bob):
                fourier, local = pair_terms(cfg, i, j)
                terms = fourier * local
                amplitudes = terms.sum(axis=1)
                expected = -2.0 * np.imag(amplitudes.conj()[:, None] * terms) / n**3
                assert np.array_equal(batched[i * cfg.n_bob + j], expected)


def cyclic_terms(cfg, i, j):
    """exp(i*delta_m) of one settings pair, delta_m as in the closed form."""
    phi, theta = np.asarray(cfg.alice_settings[i]), np.asarray(cfg.bob_settings[j])
    following = (np.arange(cfg.dimension) + 1) % cfg.dimension
    return np.exp(1j * ((phi - phi[following]) + (theta - theta[following])))


def test_correlation_views_equal_the_per_pair_closed_form_bit_for_bit():
    for cfg in per_pair_configs():
        n = cfg.dimension
        derivatives = correlation_derivatives_at(*settings_arrays(cfg))
        assert derivatives.shape == (cfg.n_alice * cfg.n_bob, n)
        for i in range(cfg.n_alice):
            for j in range(cfg.n_bob):
                terms = cyclic_terms(cfg, i, j)
                expected = 1j * (terms - terms[np.arange(n) - 1]) / n
                assert np.array_equal(derivatives[i * cfg.n_bob + j], expected)
                for noise in (0.0, 0.37, 1.0):
                    value = (1 - noise) * complex(terms.sum() / n)
                    assert correlation_matrix(cfg, noise)[i, j] == value
                    assert correlation_value(cfg, i, j, noise) == value


def test_config_functions_are_the_array_level_core_bit_for_bit():
    for cfg in per_pair_configs():
        alice, bob = settings_arrays(cfg)
        assert alice.shape == (cfg.n_alice, cfg.dimension)
        assert bob.shape == (cfg.n_bob, cfg.dimension)
        assert alice.tolist() == [list(s) for s in cfg.alice_settings]
        assert bob.tolist() == [list(s) for s in cfg.bob_settings]
        assert np.array_equal(pair_coincidences(cfg), coincidences_at(alice, bob))
        correlations = correlations_at(alice, bob)
        assert correlations.shape == (cfg.n_alice * cfg.n_bob,)
        for noise in (0.0, 0.37, 1.0):
            expected = ((1.0 - noise) * correlations).reshape(cfg.n_alice, cfg.n_bob)
            assert np.array_equal(correlation_matrix(cfg, noise), expected)
        # the array-level core reads views as it reads fresh arrays, as the
        # scan passes the rows of one phase array
        phases = np.concatenate([alice, bob])
        views = phases[: cfg.n_alice], phases[cfg.n_alice :]
        assert np.array_equal(coincidences_at(*views), pair_coincidences(cfg))
        assert np.array_equal(correlations_at(*views), correlations)


def test_per_pair_views_check_indices_before_noise():
    cfg = builtin_config("paper-qutrit")
    for view in (correlation_value, joint_probabilities):
        for i, j in ((2, 0), (0, -1)):
            with pytest.raises(IndexError):
                view(cfg, i, j, 1.5)


def test_joint_probabilities_validation():
    cfg = builtin_config("paper-qutrit")
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            joint_probabilities(cfg, 0, 0, bad)
    with pytest.raises(IndexError):
        joint_probabilities(cfg, 2, 0)
    with pytest.raises(IndexError):
        joint_probabilities(cfg, 0, -1)


def test_correlation_value_zero_phases():
    cfg = ExperimentConfig(4, ((0.0,) * 4,), ((0.0,) * 4,))
    assert correlation_value(cfg, 0, 0) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_correlation_values_match_published_qutrit_numbers():
    cfg = builtin_config("paper-qutrit")
    assert abs(correlation_value(cfg, 0, 0) - Q1) <= 1e-12
    assert abs(correlation_value(cfg, 1, 1) - Q1) <= 1e-12
    assert abs(correlation_value(cfg, 1, 0) - Q2) <= 1e-12
    assert abs(correlation_value(cfg, 0, 1) - Q1.conjugate()) <= 1e-12


def test_correlation_values_probability_route():
    cfg = builtin_config("paper-qutrit")
    assert abs(probability_route_correlation(cfg, 0, 0) - Q1) <= 1e-12
    assert abs(probability_route_correlation(cfg, 1, 0) - Q2) <= 1e-12


def test_correlation_matrix_pattern():
    q = correlation_matrix(builtin_config("paper-qutrit"))
    expected = np.array([[Q1, Q1.conjugate()], [Q2, Q1]])
    assert np.max(np.abs(q - expected)) <= 1e-12


def test_correlation_matrix_noise_scaling():
    cfg = builtin_config("paper-qutrit")
    full = correlation_matrix(cfg)
    assert np.array_equal(correlation_matrix(cfg, 0.5), 0.5 * full)
    assert np.all(correlation_matrix(cfg, 1.0) == 0.0)


def test_route_equivalence_random_settings():
    rng = np.random.default_rng(17)
    for dimension in range(2, 7):
        for _ in range(12):
            phases = rng.uniform(0, 2 * np.pi, size=(2, dimension))
            cfg = ExperimentConfig(dimension, (tuple(phases[0]),), (tuple(phases[1]),))
            noise = float(rng.uniform(0, 1))
            closed = correlation_value(cfg, 0, 0, noise)
            weighted = probability_route_correlation(cfg, 0, 0, noise)
            assert abs(closed - weighted) <= 1e-12


def test_unitarity_property_suite():
    assert unitarity_failures() == 0


def test_normalization_property_suite():
    assert normalization_failures() == 0


def test_global_phase_property_suite():
    assert global_phase_failures() == 0


def test_noise_kills_correlations_property_suite():
    assert noise_kill_failures() == 0
