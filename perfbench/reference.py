"""Independent reference for the benchmark's correctness checks.

Recomputes, from the textbook definitions and without importing
``multiport_bell``, everything the checks compare the program against:

* Born-rule coincidence tables of the state (1/sqrt(N)) sum_m |m>|m> behind
  phased Fourier multiports, P(a, b) = |sum_m U_A[a, m] U_B[b, m]|**2 / N
  with U[k, l] = gamma**(k*l) * exp(i*phi_l) / sqrt(N);
* the deterministic local strategies, from ``itertools.product``;
* the probability-matching critical visibility V_thr, from an LP built here
  and solved by ``scipy.optimize.linprog(method="highs")``.

A config is plain data: ``(dimension, alice_settings, bob_settings)`` where
each setting is a sequence of N phases in radians.  scipy is needed by the
benchmark only; the program itself never imports it.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

Setting = Sequence[float]

PAPER_QUTRIT_V = (6.0 * math.sqrt(3.0) - 9.0) / 2.0
PAPER_QUTRIT_F = (11.0 - 6.0 * math.sqrt(3.0)) / 2.0
CHSH_V = 1.0 / math.sqrt(2.0)

# the settings of Kaszlikowski et al.'s two-setting qutrit experiment and of CHSH
PAPER_QUTRIT = (
    3,
    ((0.0, 0.0, 0.0), (0.0, math.pi / 3, -math.pi / 3)),
    ((0.0, math.pi / 6, -math.pi / 6), (0.0, -math.pi / 6, math.pi / 6)),
)
CHSH_QUBIT = (
    2,
    ((0.0, 0.0), (0.0, -math.pi / 2)),
    ((0.0, math.pi / 4), (0.0, -math.pi / 4)),
)

_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def multiport(setting: Setting) -> np.ndarray:
    """U[k, l] = gamma**(k*l) * exp(i*phi_l) / sqrt(N)."""
    phases = np.asarray(setting, dtype=float)
    n = phases.size
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n + 1j * phases[None, :]) / math.sqrt(n)


def born_table(alice: Setting, bob: Setting) -> np.ndarray:
    """P(a, b) for the maximally entangled pair behind two phased multiports."""
    u_a, u_b = multiport(alice), multiport(bob)
    n = u_a.shape[0]
    amplitude = np.einsum("am,bm->ab", u_a, u_b)
    return np.abs(amplitude) ** 2 / n


def born_tables(config) -> np.ndarray:
    """Tables of every (alice, bob) settings pair, shape (n_alice, n_bob, N, N)."""
    _, alice, bob = config
    return np.array([[born_table(a, b) for b in bob] for a in alice])


def strategies(dimension: int, n_alice: int, n_bob: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every deterministic strategy as (alice outcomes, bob outcomes)."""
    return [
        (outcomes[:n_alice], outcomes[n_alice:])
        for outcomes in itertools.product(range(dimension), repeat=n_alice + n_bob)
    ]


def strategy_tables(dimension: int, strats) -> np.ndarray:
    """0/1 tables of each strategy, shape (K, n_alice, n_bob, N, N)."""
    n_alice, n_bob = len(strats[0][0]), len(strats[0][1])
    out = np.zeros((len(strats), n_alice, n_bob, dimension, dimension))
    for s, (alice, bob) in enumerate(strats):
        for i, a in enumerate(alice):
            for j, b in enumerate(bob):
                out[s, i, j, a, b] = 1.0
    return out


def mixed_tables(config, visibility: float) -> np.ndarray:
    """The quantum tables mixed with white noise: V*P0 + (1 - V)/N**2."""
    return visibility * born_tables(config) + (1.0 - visibility) / config[0] ** 2


def critical_visibility(config) -> float:
    """Largest V <= 1 at which some strategy mixture matches every mixed table."""
    dimension, alice, bob = config
    strats = strategies(dimension, len(alice), len(bob))
    indicator = strategy_tables(dimension, strats).reshape(len(strats), -1).T
    pure = born_tables(config).reshape(-1)
    uniform = 1.0 / dimension**2
    k = len(strats)
    # variables [w_1 .. w_K, V]: indicator @ w - V*(P0 - u) = u, sum(w) = 1
    a_eq = np.zeros((indicator.shape[0] + 1, k + 1))
    a_eq[:-1, :k] = indicator
    a_eq[:-1, k] = -(pure - uniform)
    a_eq[-1, :k] = 1.0
    b_eq = np.full(a_eq.shape[0], uniform)
    b_eq[-1] = 1.0
    cost = np.zeros(k + 1)
    cost[k] = -1.0
    result = linprog(
        cost,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * k + [(0.0, 1.0)],
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if result.status != 0:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return float(result.x[k])
