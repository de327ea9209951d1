"""Seeded property suites shared by the unit tests and the acceptance gate.

Each function runs a fixed-seed randomized sweep and returns the number of
failing trials, so callers assert the count is zero.
"""

from __future__ import annotations

import numpy as np

from multiport_bell.quantum import (
    ExperimentConfig,
    correlation_value,
    joint_probabilities,
    observable_unitary,
)
from multiport_bell.simplex import LinearProgram, check_certificate, solve


def _random_config(rng: np.random.Generator, dimension: int) -> ExperimentConfig:
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, dimension))
    return ExperimentConfig(dimension, tuple(map(tuple, phases[:2])), tuple(map(tuple, phases[2:])))


def unitarity_failures(trials: int = 1000, seed: int = 20260810) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for k in range(trials):
        dimension = 2 + k % 7
        u = observable_unitary(rng.uniform(0.0, 2.0 * np.pi, size=dimension))
        deviation = np.max(np.abs(u.conj().T @ u - np.eye(dimension)))
        if deviation > 1e-12:
            failures += 1
    return failures


def normalization_failures(trials: int = 200, seed: int = 20260811) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for k in range(trials):
        config = _random_config(rng, 2 + k % 5)
        noise = float(rng.uniform(0.0, 1.0))
        table = joint_probabilities(config, k % 2, (k // 2) % 2, noise)
        if abs(table.sum() - 1.0) > 1e-12 or table.min() < 0.0:
            failures += 1
    return failures


def global_phase_failures(trials: int = 120, seed: int = 20260812) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for k in range(trials):
        dimension = 2 + k % 5
        config = _random_config(rng, dimension)
        offsets = rng.uniform(-10.0, 10.0, size=4)
        shifted = ExperimentConfig(
            dimension,
            tuple(tuple(p + offsets[i] for p in s) for i, s in enumerate(config.alice_settings)),
            tuple(tuple(p + offsets[2 + j] for p in s) for j, s in enumerate(config.bob_settings)),
        )
        noise = float(rng.uniform(0.0, 1.0))
        for i in range(2):
            for j in range(2):
                dp = np.max(
                    np.abs(
                        joint_probabilities(config, i, j, noise)
                        - joint_probabilities(shifted, i, j, noise)
                    )
                )
                dc = abs(
                    correlation_value(config, i, j, noise)
                    - correlation_value(shifted, i, j, noise)
                )
                if dp > 1e-12 or dc > 1e-12:
                    failures += 1
    return failures


def noise_kill_failures(trials: int = 100, seed: int = 20260813) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for k in range(trials):
        dimension = 2 + k % 5
        config = _random_config(rng, dimension)
        value = correlation_value(config, k % 2, (k // 2) % 2, 1.0)
        table = joint_probabilities(config, k % 2, (k // 2) % 2, 1.0)
        gamma = np.exp(2j * np.pi / dimension)
        weighted = sum(
            gamma ** (a + b) * table[a, b]
            for a in range(dimension)
            for b in range(dimension)
        )
        if abs(value) > 1e-14 or abs(weighted) > 1e-13:
            failures += 1
    return failures


def random_feasible_lp(rng: np.random.Generator) -> tuple[LinearProgram, float, float]:
    """Feasible-and-bounded instance; returns (lp, primal bound, dual bound)."""
    m = int(rng.integers(1, 9))
    n = int(rng.integers(m, 17))
    a = rng.normal(size=(m, n))
    x_star = np.abs(rng.normal(size=n))
    b = a @ x_star
    y = rng.normal(size=m)
    z = np.abs(rng.normal(size=n))
    c = a.T @ y - z
    return LinearProgram(c, a, b), float(c @ x_star), float(y @ b)


def assert_dual_certifies(lp: LinearProgram, solution) -> None:
    """Strong duality and dual feasibility of an optimal solution's prices."""
    assert abs(lp.rhs @ solution.dual - solution.objective_value) <= 1e-9
    assert np.max(lp.objective - lp.constraint_matrix.T @ solution.dual) <= 1e-9


def record_shapes(monkeypatch, name: str) -> list[tuple[int, ...]]:
    """Record the shape of every matrix that np.linalg.<name> factorizes."""
    shapes = []
    factorization = getattr(np.linalg, name)

    def recorded(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return factorization(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def lp_random_failures(cases: int = 500, seed: int = 20260814) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        lp, primal_bound, dual_bound = random_feasible_lp(rng)
        solution = solve(lp)
        if solution.status != "optimal":
            failures += 1
            continue
        ok = (
            solution.objective_value >= primal_bound - 1e-8
            and solution.objective_value <= dual_bound + 1e-8
            and check_certificate(lp, solution).passed
        )
        if not ok:
            failures += 1
    return failures
