"""Deterministic local strategies and their factorizable outcome matrices.

A local hidden variable assigns one fixed detector (0..N-1) to every
setting of each party.  Its correlation matrix has entries
gamma**(alice[i] + bob[j]) and is rank one.  Adding a constant to all of
Alice's outcomes while subtracting it from Bob's leaves the matrix
unchanged, so the distinct matrices are indexed by the gauge-fixed
strategies with alice[0] == 0.  alice[0] is the leading digit of the
lexicographic order, so the gauge-fixed strategies are the first
N**(n_alice + n_bob - 1) of ``enumerate_strategies``, in sorted order.  All
bookkeeping is done on the integer exponent matrices mod N, which makes
deduplication exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .quantum import _require_dimension

MAX_STRATEGIES = 10**7


@dataclass(frozen=True, order=True)
class DeterministicStrategy:
    """One predetermined outcome (0..N-1) per setting for each party."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]


def enumerate_strategies(
    dimension: int, n_alice: int, n_bob: int
) -> list[DeterministicStrategy]:
    """All N**(n_alice + n_bob) strategies in lexicographic order; the first
    N**(n_alice + n_bob - 1) are the gauge-fixed ones (alice[0] == 0)."""
    _require_dimension(dimension)
    if n_alice < 1 or n_bob < 1:
        raise ValueError("each party needs at least one setting")
    count = dimension ** (n_alice + n_bob)
    if count > MAX_STRATEGIES:
        raise ValueError(f"refusing to enumerate {count} strategies (> {MAX_STRATEGIES})")
    return [
        DeterministicStrategy(outcomes[:n_alice], outcomes[n_alice:])
        for outcomes in itertools.product(range(dimension), repeat=n_alice + n_bob)
    ]


def canonicalize(strategy: DeterministicStrategy, dimension: int) -> DeterministicStrategy:
    """Gauge-fix to alice[0] == 0 by shifting the shared outcome offset."""
    shift = strategy.alice[0]
    return DeterministicStrategy(
        tuple((a - shift) % dimension for a in strategy.alice),
        tuple((b + shift) % dimension for b in strategy.bob),
    )


def distinct_matrices(
    strategies: Iterable[DeterministicStrategy], dimension: int
) -> tuple[DeterministicStrategy, ...]:
    """One canonical strategy per distinct outcome matrix, in lexicographic order."""
    _require_dimension(dimension)
    return tuple(sorted({canonicalize(s, dimension) for s in strategies}))


def outcome_arrays(
    strategies: Sequence[DeterministicStrategy],
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's (K, n_alice) and Bob's (K, n_bob) integer outcome arrays."""
    alice = np.array([s.alice for s in strategies], dtype=int)
    bob = np.array([s.bob for s in strategies], dtype=int)
    return alice, bob


def strategy_exponents(
    strategies: Sequence[DeterministicStrategy], dimension: int
) -> np.ndarray:
    """Integer matrices (K, n_alice, n_bob) with entries (alice[i] + bob[j]) mod N."""
    alice, bob = outcome_arrays(strategies)
    return (alice[:, :, None] + bob[:, None, :]) % dimension


def strategy_values(
    strategies: Sequence[DeterministicStrategy], dimension: int
) -> np.ndarray:
    """Complex outcome matrices (K, n_alice, n_bob): gamma**exponents."""
    return np.exp(2j * np.pi / dimension * strategy_exponents(strategies, dimension))
