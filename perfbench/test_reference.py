"""Tests of the independent reference: python3 -m pytest perfbench"""

import math

import numpy as np
import pytest

import reference


def test_paper_qutrit_threshold():
    assert reference.critical_visibility(reference.PAPER_QUTRIT) == pytest.approx(
        (6.0 * math.sqrt(3.0) - 9.0) / 2.0, abs=1e-12
    )


def test_chsh_threshold():
    assert reference.critical_visibility(reference.CHSH_QUBIT) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-12
    )


def test_born_tables_are_distributions_with_uniform_marginals():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        table = reference.born_table(rng.uniform(0, 6, n), rng.uniform(0, 6, n))
        assert table.min() >= 0.0
        np.testing.assert_allclose(table.sum(axis=0), 1.0 / n, atol=1e-12)
        np.testing.assert_allclose(table.sum(axis=1), 1.0 / n, atol=1e-12)


def test_aligned_phases_give_perfect_correlation():
    # equal phases on both sides: detectors a and b fire together iff a + b = 0 mod N
    table = reference.born_table([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    expected = np.array([[1.0 if (a + b) % 3 == 0 else 0.0 for b in range(3)] for a in range(3)])
    np.testing.assert_allclose(table, expected / 3.0, atol=1e-15)


def test_strategies_cover_every_outcome_assignment():
    strats = reference.strategies(3, 2, 2)
    assert len(strats) == len(set(strats)) == 81
    tables = reference.strategy_tables(3, strats)
    np.testing.assert_array_equal(tables.sum(axis=(3, 4)), 1.0)


def test_local_config_reaches_full_visibility():
    zero = (0.0, 0.0, 0.0)
    assert reference.critical_visibility((3, (zero, zero), (zero, zero))) == pytest.approx(1.0)
