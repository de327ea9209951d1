import itertools

import numpy as np
import pytest

from multiport_bell.strategies import (
    DeterministicStrategy,
    canonicalize,
    distinct_matrices,
    enumerate_strategies,
    strategy_exponents,
    strategy_values,
)

ALPHA = complex(np.exp(2j * np.pi / 3))


def brute_force_distinct_count(dimension, n_alice, n_bob):
    """Oracle: deduplicate the complex matrices themselves, no canonical form."""
    seen = set()
    for outcomes in itertools.product(range(dimension), repeat=n_alice + n_bob):
        alice, bob = outcomes[:n_alice], outcomes[n_alice:]
        gamma = np.exp(2j * np.pi / dimension)
        matrix = gamma ** np.add.outer(np.array(alice), np.array(bob))
        seen.add(tuple(np.round(matrix, 9).reshape(-1).tolist()))
    return len(seen)


def test_enumeration_counts():
    assert len(enumerate_strategies(3, 2, 2)) == 81
    assert len(enumerate_strategies(2, 2, 2)) == 16
    assert len(enumerate_strategies(3, 1, 1)) == 9


def test_enumeration_is_lexicographic_and_duplicate_free():
    strategies = enumerate_strategies(3, 2, 2)
    assert strategies == sorted(strategies)
    assert len(set(strategies)) == len(strategies)


def test_enumeration_size_guard():
    with pytest.raises(ValueError):
        enumerate_strategies(10, 4, 4)
    with pytest.raises(ValueError):
        enumerate_strategies(3, 0, 2)


def test_distinct_counts():
    assert len(distinct_matrices(enumerate_strategies(3, 2, 2), 3)) == 27
    assert len(distinct_matrices(enumerate_strategies(2, 2, 2), 2)) == 8
    one_setting = distinct_matrices(enumerate_strategies(3, 1, 1), 3)
    assert len(one_setting) == 3
    values = sorted(
        (complex(v[0, 0]) for v in strategy_values(one_setting, 3)),
        key=lambda z: (z.real, z.imag),
    )
    expected = sorted([1.0 + 0j, ALPHA, ALPHA**2], key=lambda z: (z.real, z.imag))
    assert all(abs(v - e) <= 1e-12 for v, e in zip(values, expected))


def test_distinct_count_matches_bruteforce_oracle():
    for dimension in (2, 3, 4, 5):
        mats = distinct_matrices(enumerate_strategies(dimension, 2, 2), dimension)
        assert len(mats) == brute_force_distinct_count(dimension, 2, 2)
        assert len(mats) == dimension**3


def test_every_strategy_matches_exactly_one_representative():
    mats = distinct_matrices(enumerate_strategies(3, 2, 2), 3)
    representative_exponents = [tuple(e.reshape(-1)) for e in strategy_exponents(mats, 3)]
    for strategy in enumerate_strategies(3, 2, 2):
        exponents = tuple(strategy_exponents([strategy], 3).reshape(-1))
        assert representative_exponents.count(exponents) == 1


def test_canonicalize_gauge():
    strategy = DeterministicStrategy((2, 1), (1, 2))
    canonical = canonicalize(strategy, 3)
    assert canonical == DeterministicStrategy((0, 2), (0, 1))
    assert np.array_equal(
        strategy_exponents([strategy], 3), strategy_exponents([canonical], 3)
    )


def test_strategy_tables_match_per_strategy_reference():
    # reference: one np.add.outer per strategy, as a loop
    for dimension, n_alice, n_bob in [(2, 2, 2), (3, 2, 2), (4, 1, 3), (3, 3, 2)]:
        strategies = enumerate_strategies(dimension, n_alice, n_bob)
        exponents = strategy_exponents(strategies, dimension)
        values = strategy_values(strategies, dimension)
        assert exponents.shape == values.shape == (len(strategies), n_alice, n_bob)
        for k, s in enumerate(strategies):
            expected = np.add.outer(np.array(s.alice), np.array(s.bob)) % dimension
            assert np.array_equal(exponents[k], expected)
            assert np.array_equal(values[k], np.exp(2j * np.pi / dimension * expected))


def test_strategy_matrices_factorizable():
    for v in strategy_values(distinct_matrices(enumerate_strategies(3, 2, 2), 3), 3):
        assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-12
        assert abs(v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]) <= 1e-12
