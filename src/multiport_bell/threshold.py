"""Noise thresholds for local realism via linear programming.

A local model reproduces the noise-scaled quantum point iff some mixture of
deterministic strategies matches it.  Both formulations maximize the
visibility V = 1 - F as an LP variable capped at 1:

* correlation matching equates the complex correlation matrix entrywise
  (real and imaginary parts) with V times the noiseless quantum matrix;
* probability matching equates the full coincidence tables with the
  noise-mixed quantum tables V*P0 + (1 - V)/N**2.

Every coincidence table depends on a + b mod N only, so shifting all of
Alice's outcomes by c and all of Bob's by -c fixes the quantum point.
Averaging a local mixture over these shifts keeps it a solution, so
``probability_threshold`` solves the same LP over the shift orbits (the
canonical strategies), matching the distribution of alice[i] + bob[j] mod N;
``probability_lp`` still builds the LP over every strategy and table entry.

Thresholds always mix from the noiseless quantum point; pre-mixed targets
are not accepted anywhere.  ``scan`` searches phase settings for the
largest threshold with seeded random restarts and coordinate descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantum import ExperimentConfig, correlation_matrix, joint_probabilities
from .simplex import LinearProgram, SolverFailure, solve
from .strategies import (
    DeterministicStrategy,
    canonicalize,
    distinct_matrices,
    enumerate_strategies,
    outcome_arrays,
    strategy_exponents,
    strategy_values,
)

SCAN_STEP_START = math.pi / 2
SCAN_STEP_STOP = 1e-4
SCAN_IMPROVEMENT_STOP = 1e-7

BUILTINS: dict[str, ExperimentConfig] = {
    # Two-setting qutrit configuration with the maximal threshold.  Alice's
    # all-zero setting comes first so that the correlation matrix commutes
    # with the symmetry operator used by the analytic derivation replay.
    "paper-qutrit": ExperimentConfig(
        3,
        ((0.0, 0.0, 0.0), (0.0, math.pi / 3, -math.pi / 3)),
        ((0.0, math.pi / 6, -math.pi / 6), (0.0, -math.pi / 6, math.pi / 6)),
    ),
    # Standard CHSH qubit settings (visibility threshold 1/sqrt(2)).
    "chsh-qubit": ExperimentConfig(
        2,
        ((0.0, 0.0), (0.0, -math.pi / 2)),
        ((0.0, math.pi / 4), (0.0, -math.pi / 4)),
    ),
}


def builtin_config(name: str) -> ExperimentConfig:
    """Look up a named built-in configuration."""
    try:
        return BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTINS))
        raise ValueError(f"unknown builtin {name!r} (known: {known})") from None


@dataclass(frozen=True)
class ThresholdResult:
    method: str  # "correlation" | "probability"
    dimension: int
    v_thr: float
    f_thr: float
    weights: dict[DeterministicStrategy, float]
    residual: float
    lp_iterations: int


@dataclass(frozen=True)
class ScanResult:
    best_config: ExperimentConfig
    best_f_thr: float
    restarts: int
    seed: int
    history: tuple[tuple[int, float], ...]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _correlation_data(
    dimension: int, n_alice: int, n_bob: int
) -> tuple[tuple[DeterministicStrategy, ...], np.ndarray, np.ndarray]:
    """Distinct strategies, their complex outcome values (one column each) and
    the LP block of real parts stacked over imaginary parts."""
    strategies = distinct_matrices(
        enumerate_strategies(dimension, n_alice, n_bob), dimension
    )
    values = strategy_values(strategies, dimension)  # (K, n_alice, n_bob)
    table = values.reshape(len(strategies), -1).T
    return strategies, _frozen(table), _frozen(np.vstack([table.real, table.imag]))


@lru_cache(maxsize=None)
def _probability_data(
    dimension: int, n_alice: int, n_bob: int
) -> tuple[tuple[DeterministicStrategy, ...], np.ndarray, np.ndarray]:
    """All strategies and their 0/1 coincidence indicators, one column each.

    Row ((i*n_bob + j)*N + a)*N + b is outcome pair (a, b) at settings (i, j);
    the table doubles as the LP block.
    """
    strategies = tuple(enumerate_strategies(dimension, n_alice, n_bob))
    alice, bob = outcome_arrays(strategies)
    pair = np.arange(n_alice)[:, None] * n_bob + np.arange(n_bob)[None, :]
    rows = (pair * dimension + alice[:, :, None]) * dimension + bob[:, None, :]
    indicator = np.zeros((n_alice * n_bob * dimension**2, len(strategies)))
    indicator[rows.reshape(len(strategies), -1).T, np.arange(len(strategies))] = 1.0
    _frozen(indicator)
    return strategies, indicator, indicator


@lru_cache(maxsize=None)
def _symmetric_data(
    dimension: int, n_alice: int, n_bob: int
) -> tuple[tuple[DeterministicStrategy, ...], np.ndarray, np.ndarray]:
    """Canonical strategies and the indicators of their exponents, one column each.

    Row (i*n_bob + j)*N + s is 1 where alice[i] + bob[j] = s mod N.  The N
    rows of a settings pair sum to the all-ones row, so the LP block drops
    their s = N - 1 row, which the sum-to-one row implies, and has full row
    rank.
    """
    strategies = _correlation_data(dimension, n_alice, n_bob)[0]
    pair = np.arange(n_alice)[:, None] * n_bob + np.arange(n_bob)[None, :]
    rows = pair * dimension + strategy_exponents(strategies, dimension)
    indicator = np.zeros((n_alice * n_bob * dimension, len(strategies)))
    indicator[rows.reshape(len(strategies), -1).T, np.arange(len(strategies))] = 1.0
    block = indicator[np.arange(len(indicator)) % dimension != dimension - 1]
    return strategies, _frozen(indicator), _frozen(block)


@lru_cache(maxsize=None)
def _shift_orbits(
    dimension: int, n_alice: int, n_bob: int
) -> tuple[tuple[DeterministicStrategy, ...], np.ndarray]:
    """Every strategy and the column of its shift orbit in ``_symmetric_data``."""
    strategies = tuple(enumerate_strategies(dimension, n_alice, n_bob))
    column = {s: k for k, s in enumerate(_symmetric_data(dimension, n_alice, n_bob)[0])}
    orbits = np.array([column[canonicalize(s, dimension)] for s in strategies])
    return strategies, _frozen(orbits)


# Each statistics(config) gives the strategies, their table (one column per
# strategy), the LP block, the quantum point the table matches, the part of
# it the block rows match and the offset.


def _correlation_statistics(config: ExperimentConfig):
    """Correlation matching: the strategy values against the noiseless
    correlation matrix, offset 0; the block matches real and imaginary parts."""
    data = _correlation_data(config.dimension, config.n_alice, config.n_bob)
    point = correlation_matrix(config).reshape(-1)
    return (*data, point, np.concatenate([point.real, point.imag]), 0.0)


def _probability_statistics(config: ExperimentConfig):
    """Probability matching: the strategy indicators against the noiseless
    coincidence tables, offset 1/N**2 (the uniform table)."""
    data = _probability_data(config.dimension, config.n_alice, config.n_bob)
    pure = np.concatenate(
        [
            joint_probabilities(config, i, j).reshape(-1)
            for i in range(config.n_alice)
            for j in range(config.n_bob)
        ]
    )
    return (*data, pure, pure, 1.0 / config.dimension**2)


def _symmetric_statistics(config: ExperimentConfig):
    """Probability matching over shift orbits: the exponent indicators against
    N*P0(0, s) = N*P0(a, b) for every a + b = s mod N, offset 1/N."""
    data = _symmetric_data(config.dimension, config.n_alice, config.n_bob)
    n = config.dimension
    point = n * np.concatenate(
        [
            joint_probabilities(config, i, j)[0]
            for i in range(config.n_alice)
            for j in range(config.n_bob)
        ]
    )
    return (*data, point, point[np.arange(point.size) % n != n - 1], 1.0 / n)


def _problem(config: ExperimentConfig, statistics, pin_visibility: float | None):
    """The threshold LP of one method, with the arrays it was built from.

    A strategy mixture p must give block @ p = V*matched + (1 - V)*offset.
    Variables are [p_1 .. p_K, V, slack]; the cap row reads V + slack = 1.
    """
    strategies, table, block, point, matched, offset = statistics(config)
    rows, k = block.shape
    extra = 2 + (pin_visibility is not None)
    a = np.zeros((rows + extra, k + 2))
    a[:rows, :k] = block
    a[:rows, k] = -(matched - offset)
    a[rows, :k] = 1.0
    a[rows + 1, k] = 1.0
    a[rows + 1, k + 1] = 1.0
    b = np.zeros(rows + extra)
    b[:rows] = offset
    b[rows] = 1.0
    b[rows + 1] = 1.0
    if pin_visibility is not None:
        a[rows + 2, k] = 1.0
        b[rows + 2] = pin_visibility
    c = np.zeros(k + 2)
    c[k] = 1.0
    return LinearProgram(c, a, b), strategies, table, point, offset


_START_BASES: dict[tuple, tuple[int, ...]] = {}


def _start_basis(key: tuple, lp: LinearProgram, k: int) -> tuple[int, ...]:
    """A feasible V=0 basis of every threshold LP with this (statistics, N,
    n_alice, n_bob) key: only column k (V) depends on the phases, so the LP
    without it, and its basis of strategy columns and the cap slack, are the
    same for every config of the shape, whichever comes first."""
    if key not in _START_BASES:
        a = np.delete(lp.constraint_matrix, k, axis=1)
        fixed = LinearProgram(np.zeros(k + 1), a, lp.rhs)
        _START_BASES[key] = tuple(j + (j >= k) for j in solve(fixed).basis or ())
    return _START_BASES[key]


def _threshold(
    config: ExperimentConfig, method: str, statistics, orbits: bool = False
) -> ThresholdResult:
    """Solve the LP and read V, the weights and the residual off its arrays.

    With ``orbits`` the columns are shift orbits: each orbit's weight goes as
    w/N to each of its N members, a mixture whose full coincidence tables are
    the orbit rows divided by N.
    """
    lp, strategies, table, point, offset = _problem(config, statistics, None)
    key = (statistics, config.dimension, config.n_alice, config.n_bob)
    solution = solve(lp, start=_start_basis(key, lp, len(strategies)))
    if solution.status != "optimal":
        raise SolverFailure(
            f"threshold LP ended with status {solution.status}: {solution.detail}"
        )
    k = len(strategies)
    weights = solution.x[:k]
    v = float(min(max(solution.x[k], 0.0), 1.0))
    # over the table, not the LP block: a complex entry's residual is its
    # modulus, and rows the block drops count too
    target = v * point + (1.0 - v) * offset
    residual = float(np.max(np.abs(table @ weights - target)))
    if orbits:
        strategies, members = _shift_orbits(config.dimension, config.n_alice, config.n_bob)
        weights = weights[members] / config.dimension
        residual /= config.dimension
    return ThresholdResult(
        method,
        config.dimension,
        v,
        1.0 - v,
        {s: max(float(w), 0.0) for s, w in zip(strategies, weights)},
        residual,
        solution.iterations,
    )


def correlation_lp(
    config: ExperimentConfig, pin_visibility: float | None = None
) -> tuple[LinearProgram, tuple[DeterministicStrategy, ...]]:
    """LP matching the noiseless correlation matrix scaled by V."""
    return _problem(config, _correlation_statistics, pin_visibility)[:2]


def probability_lp(
    config: ExperimentConfig, pin_visibility: float | None = None
) -> tuple[LinearProgram, tuple[DeterministicStrategy, ...]]:
    """LP matching every coincidence table of the noise-mixed state."""
    return _problem(config, _probability_statistics, pin_visibility)[:2]


def correlation_threshold(config: ExperimentConfig) -> ThresholdResult:
    """Critical visibility and noise threshold from correlation matching."""
    return _threshold(config, "correlation", _correlation_statistics)


def probability_threshold(config: ExperimentConfig) -> ThresholdResult:
    """Critical visibility and noise threshold from full-statistics matching,
    solved over the shift orbits; the weights are uniform on every orbit."""
    return _threshold(config, "probability", _symmetric_statistics, orbits=True)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _line_max(objective, x: np.ndarray, k: int, step: float, current: float):
    """Golden-section maximization of coordinate k over +-step around x[k]."""
    center = x[k]

    def evaluate(t: float) -> float:
        x[k] = t
        return objective(x)

    lo, hi = center - step, center + step
    tol = max(step / 4.0, 2e-5)
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = evaluate(c), evaluate(d)
    best_t, best_value = center, current
    if fc > best_value:
        best_t, best_value = c, fc
    if fd > best_value:
        best_t, best_value = d, fd
    while (hi - lo) > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = evaluate(c)
            if fc > best_value:
                best_t, best_value = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = evaluate(d)
            if fd > best_value:
                best_t, best_value = d, fd
    x[k] = best_t
    return best_t, best_value


def _descend(objective, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Coordinate descent with a halving step schedule."""
    best = objective(x)
    step = SCAN_STEP_START
    while step >= SCAN_STEP_STOP:
        cycle_start = best
        for k in range(x.size):
            _, best = _line_max(objective, x, k, step, best)
        if best - cycle_start < SCAN_IMPROVEMENT_STOP:
            break
        step /= 2.0
    return best, x


def _vector_config(dimension: int, vector: np.ndarray) -> ExperimentConfig:
    """Two settings per party, first phase of every setting pinned to zero."""
    rows = np.asarray(vector, dtype=float).reshape(4, dimension - 1)
    settings = tuple((0.0, *map(float, row)) for row in rows)
    return ExperimentConfig(dimension, settings[:2], settings[2:])


def scan(
    dimension: int, restarts: int, seed: int, method: str = "corr"
) -> ScanResult:
    """Search phase settings maximizing the noise threshold.

    Each restart draws its start from a generator seeded by (seed, restart
    index), so runs are reproducible and restarts are order-independent;
    ties keep the lowest restart index.  A restart that trips the LP solver
    is recorded as NaN in the history and skipped.  ``method`` is "corr"
    (correlation matching) or "prob" (probability matching), as on the
    command line.
    """
    if not 2 <= dimension <= 6:
        raise ValueError(f"scan supports dimensions 2..6, got {dimension}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    thresholds = {"corr": correlation_threshold, "prob": probability_threshold}
    if method not in thresholds:
        raise ValueError(f"unknown method {method!r} (known: corr, prob)")
    threshold = thresholds[method]

    def objective(vector: np.ndarray) -> float:
        return threshold(_vector_config(dimension, vector)).f_thr

    history: list[tuple[int, float]] = []
    best_value = -math.inf
    best_vector: np.ndarray | None = None
    for index in range(restarts):
        rng = np.random.default_rng([seed, index])
        vector = rng.uniform(0.0, 2.0 * math.pi, size=4 * (dimension - 1))
        try:
            value, vector = _descend(objective, vector)
        except SolverFailure:
            history.append((index, math.nan))
            continue
        history.append((index, value))
        if value > best_value:
            best_value, best_vector = value, vector.copy()
    if best_vector is None:
        raise SolverFailure("every scan restart failed")
    return ScanResult(
        best_config=_vector_config(dimension, best_vector),
        best_f_thr=best_value,
        restarts=restarts,
        seed=seed,
        history=tuple(history),
    )
