"""Noise thresholds for local realism via linear programming.

A local model reproduces the noise-scaled quantum point iff some mixture of
deterministic strategies matches it.  Both formulations maximize the
visibility V = 1 - F as an LP variable capped at 1:

* correlation matching equates the complex correlation matrix entrywise
  (real and imaginary parts, real parts alone at N=2) with V times the
  noiseless quantum matrix;
* probability matching equates the full coincidence tables with the
  noise-mixed quantum tables V*P0 + (1 - V)/N**2.

Every coincidence table depends on a + b mod N only, so shifting all of
Alice's outcomes by c and all of Bob's by -c fixes the quantum point.
Averaging a local mixture over these shifts keeps it a solution, so
``probability_threshold`` solves the same LP over the shift orbits (the
gauge-fixed strategies), matching the distribution of alice[i] + bob[j] mod N;
``probability_lp`` still builds the LP over every strategy and table entry.

Thresholds always mix from the noiseless quantum point; pre-mixed targets
are not accepted anywhere.  ``scan`` searches phase settings for the
largest threshold with seeded random restarts.  Each restart minimizes V*,
the optimum of the drivers' LP without the cap on V, which keeps changing
where the capped V_thr sits at 1: one golden-section sweep over every phase
on V* alone, then BFGS on the gradient the LP's optimal dual gives in
closed form.  Consecutive LPs of a restart differ in the V column only, so
each one is solved from the restart's last optimal basis, through a few dual
simplex pivots where the new column leaves it dual but not primal feasible,
else from the V=0 basis the drivers start from.

Only the V column depends on the phases at all, so each shape's V=0 LP
(statistics, cap, N, n_alice, n_bob) is solved once; the quantum point a
threshold LP matches and its phase derivatives are built for every settings
pair at once (``quantum.pair_coincidences``, ``quantum.correlation_matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantum import (
    ExperimentConfig,
    correlation_derivatives,
    correlation_matrix,
    joint_probabilities,
    pair_coincidences,
    pure_coincidence_derivatives,
)
from .simplex import LinearProgram, SolverFailure, solve
from .strategies import (
    DeterministicStrategy,
    enumerate_strategies,
    outcome_arrays,
    strategy_exponents,
    strategy_values,
)
from .strategies import distinct_matrices  # noqa: F401  perfbench traces it under this name

SCAN_STEP_START = math.pi / 2
SCAN_GAIN_STOP = 1e-12
SCAN_ARMIJO = 1e-4
SCAN_BACKTRACKS = 30

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
def _strategy_data(
    dimension: int, n_alice: int, n_bob: int
) -> tuple[tuple[DeterministicStrategy, ...], np.ndarray]:
    """Every strategy in lexicographic order and the column of its shift orbit
    in ``_symmetric_data``: the gauge-fixed strategies lead the order, so the
    orbit's gauge-fixed outcomes (alice[1:] - alice[0], bob + alice[0]) mod N
    read as base-N digits are its column."""
    strategies = tuple(enumerate_strategies(dimension, n_alice, n_bob))
    alice, bob = outcome_arrays(strategies)
    digits = np.hstack([alice[:, 1:] - alice[:, :1], bob + alice[:, :1]]) % dimension
    orbits = digits @ dimension ** np.arange(digits.shape[1])[::-1]
    return strategies, _frozen(orbits)


def _real_rows(values: np.ndarray, dimension: int) -> np.ndarray:
    """The LP rows of complex correlation rows: real parts over imaginary
    parts, or real parts alone at N=2, where every outcome value is +-1 and
    the imaginary rows would be roundoff that leaves the LP rank-deficient."""
    return np.concatenate([values.real, values.imag] if dimension > 2 else [values.real])


@lru_cache(maxsize=None)
def _correlation_data(
    dimension: int, n_alice: int, n_bob: int
) -> tuple[tuple[DeterministicStrategy, ...], np.ndarray, np.ndarray]:
    """The gauge-fixed strategies (alice[0] == 0, one per distinct matrix),
    their complex outcome values (one column each) and the LP block of their
    ``_real_rows``."""
    everything = _strategy_data(dimension, n_alice, n_bob)[0]
    strategies = everything[: dimension ** (n_alice + n_bob - 1)]
    values = strategy_values(strategies, dimension)  # (K, n_alice, n_bob)
    table = values.reshape(len(strategies), -1).T
    return strategies, _frozen(table), _frozen(_real_rows(table, dimension))


@lru_cache(maxsize=None)
def _probability_data(
    dimension: int, n_alice: int, n_bob: int
) -> tuple[tuple[DeterministicStrategy, ...], np.ndarray]:
    """All strategies and their 0/1 coincidence indicators, one column each.

    Row ((i*n_bob + j)*N + a)*N + b is outcome pair (a, b) at settings (i, j).
    """
    strategies = _strategy_data(dimension, n_alice, n_bob)[0]
    alice, bob = outcome_arrays(strategies)
    pair = np.arange(n_alice)[:, None] * n_bob + np.arange(n_bob)[None, :]
    rows = (pair * dimension + alice[:, :, None]) * dimension + bob[:, None, :]
    indicator = np.zeros((n_alice * n_bob * dimension**2, len(strategies)))
    indicator[rows.reshape(len(strategies), -1).T, np.arange(len(strategies))] = 1.0
    return strategies, _frozen(indicator)


@lru_cache(maxsize=None)
def _symmetric_data(
    dimension: int, n_alice: int, n_bob: int
) -> tuple[tuple[DeterministicStrategy, ...], np.ndarray, np.ndarray]:
    """The gauge-fixed strategies of ``_correlation_data``, one per shift orbit,
    and the indicators of their exponents, one column each.

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
def _settings_pairs(n_alice: int, n_bob: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The settings pairs (i, j) in row order, and the two settings each one
    uses, as a 0/1 (pairs, n_alice + n_bob) array: a pair's statistics depend
    on phi_m + theta_m only, so on either setting's port m alike."""
    pairs = tuple((i, j) for i in range(n_alice) for j in range(n_bob))
    uses = np.zeros((len(pairs), n_alice + n_bob))
    for p, (i, j) in enumerate(pairs):
        uses[p, i] = uses[p, n_alice + j] = 1.0
    return pairs, _frozen(uses)


# Each statistics(config) gives the strategies, their table (one column per
# strategy), the LP block, the quantum point the table matches, the part of
# it the block rows match and the offset.


def _correlation_statistics(config: ExperimentConfig):
    """Correlation matching: the strategy values against the noiseless
    correlation matrix, offset 0; the block matches its ``_real_rows``."""
    data = _correlation_data(config.dimension, config.n_alice, config.n_bob)
    point = correlation_matrix(config).reshape(-1)
    return (*data, point, _real_rows(point, config.dimension), 0.0)


def _symmetric_statistics(config: ExperimentConfig):
    """Probability matching over shift orbits: the exponent indicators against
    N*P0(0, s) = N*P0(a, b) for every a + b = s mod N, offset 1/N."""
    data = _symmetric_data(config.dimension, config.n_alice, config.n_bob)
    n = config.dimension
    point = n * pair_coincidences(config)
    return (*data, point.reshape(-1), point[:, :-1].reshape(-1), 1.0 / n)


def _visibility_lp(
    block: np.ndarray,
    matched: np.ndarray,
    offset: float,
    cap: bool = True,
    pin_visibility: float | None = None,
) -> LinearProgram:
    """Maximize V: a strategy mixture p must give block @ p = V*matched +
    (1 - V)*offset and sum to one.

    Variables are [p_1 .. p_K, V] and, with ``cap``, a slack for the cap row
    V + slack = 1; the pin row V = pin_visibility comes last.
    """
    rows, k = block.shape
    extra = cap + (pin_visibility is not None)
    a = np.zeros((rows + 1 + extra, k + 1 + cap))
    a[:rows, :k] = block
    a[:rows, k] = -(matched - offset)
    a[rows, :k] = 1.0
    b = np.zeros(rows + 1 + extra)
    b[:rows] = offset
    b[rows] = 1.0
    if cap:
        a[rows + 1, k] = 1.0
        a[rows + 1, k + 1] = 1.0
        b[rows + 1] = 1.0
    if pin_visibility is not None:
        a[-1, k] = 1.0
        b[-1] = pin_visibility
    c = np.zeros(k + 1 + cap)
    c[k] = 1.0
    return LinearProgram(c, a, b)


_START_BASES: dict[tuple, tuple[int, ...] | None] = {}


def _solve_threshold_lp(
    config: ExperimentConfig, statistics, cap: bool, previous: tuple[int, ...] | None = None
):
    """The statistics of config and the solution of their threshold LP.

    The solve tries the basis ``previous`` first, if given, then a feasible
    V=0 basis kept per (statistics, cap, N, n_alice, n_bob): only column k
    (V) of the LP depends on the phases, so the LP without column k, and its
    basis of strategy columns (and the cap slack, if the LP has the cap row),
    are the same for every config of the shape, whichever comes first.  Each
    shape's V=0 LP is solved once; unless it ends optimal the shape keeps
    None and has no V=0 start.  Raises SolverFailure unless the LP ends
    optimal, or unbounded without the cap.
    """
    stats = strategies, _, block, _, matched, offset = statistics(config)
    k = len(strategies)
    key = (statistics, cap, config.dimension, config.n_alice, config.n_bob)
    lp = _visibility_lp(block, matched, offset, cap=cap)
    if key not in _START_BASES:
        a = np.delete(lp.constraint_matrix, k, axis=1)
        fixed = solve(LinearProgram(np.zeros(lp.n_cols - 1), a, lp.rhs))
        optimal = fixed.status == "optimal"
        _START_BASES[key] = tuple(j + (j >= k) for j in fixed.basis) if optimal else None
    starts = [s for s in (previous, _START_BASES[key]) if s is not None]
    solution = solve(lp, starts=starts)
    if solution.status != "optimal" and (cap or solution.status != "unbounded"):
        raise SolverFailure(
            f"threshold LP ended with status {solution.status}: {solution.detail}"
        )
    return stats, solution


def _threshold(
    config: ExperimentConfig, method: str, statistics, orbits: bool = False
) -> ThresholdResult:
    """Solve the capped LP and read V, the weights and the residual off its arrays.

    With ``orbits`` the columns are shift orbits: each orbit's weight goes as
    w/N to each of its N members, a mixture whose full coincidence tables are
    the orbit rows divided by N.
    """
    (strategies, table, _, point, _, offset), solution = _solve_threshold_lp(
        config, statistics, cap=True
    )
    k = len(strategies)
    weights = solution.x[:k]
    v = float(min(max(solution.x[k], 0.0), 1.0))
    # over the table, not the LP block: a complex entry's residual is its
    # modulus, and rows the block drops count too
    target = v * point + (1.0 - v) * offset
    residual = float(np.max(np.abs(table @ weights - target)))
    if orbits:
        strategies, members = _strategy_data(config.dimension, config.n_alice, config.n_bob)
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
    strategies, _, block, _, matched, offset = _correlation_statistics(config)
    return _visibility_lp(block, matched, offset, pin_visibility=pin_visibility), strategies


def probability_lp(
    config: ExperimentConfig, pin_visibility: float | None = None
) -> tuple[LinearProgram, tuple[DeterministicStrategy, ...]]:
    """LP matching every coincidence table of the noise-mixed state: the
    strategy indicators against the noiseless tables, offset 1/N**2 (the
    uniform table)."""
    n = config.dimension
    strategies, indicator = _probability_data(n, config.n_alice, config.n_bob)
    pairs = _settings_pairs(config.n_alice, config.n_bob)[0]
    pure = np.concatenate([joint_probabilities(config, i, j).reshape(-1) for i, j in pairs])
    lp = _visibility_lp(indicator, pure, 1.0 / n**2, pin_visibility=pin_visibility)
    return lp, strategies


def correlation_threshold(config: ExperimentConfig) -> ThresholdResult:
    """Critical visibility and noise threshold from correlation matching."""
    return _threshold(config, "correlation", _correlation_statistics)


def probability_threshold(config: ExperimentConfig) -> ThresholdResult:
    """Critical visibility and noise threshold from full-statistics matching,
    solved over the shift orbits; the weights are uniform on every orbit."""
    return _threshold(config, "probability", _symmetric_statistics, orbits=True)


# The scan minimizes V*, the optimum of the threshold LP without its cap row:
# unlike the capped V_thr it keeps changing where the quantum point is local.
# Only the V column depends on the phases, so by the envelope theorem
# dV*/dphase = V* * y_block . dmatched/dphase, with y the LP's optimal dual.
# The LP comes from the drivers' statistics functions; each derivatives(config)
# gives dmatched/dphase as (rows, n_alice + n_bob, N): the derivative by port
# m's phase of each of Alice's and then Bob's settings.


def _correlation_derivatives(config: ExperimentConfig) -> np.ndarray:
    """Correlation matching: the ``_real_rows`` of the values' derivatives."""
    uses = _settings_pairs(config.n_alice, config.n_bob)[1]
    by_phase = correlation_derivatives(config)[:, None, :] * uses[:, :, None]
    return _real_rows(by_phase, config.dimension)


def _symmetric_derivatives(config: ExperimentConfig) -> np.ndarray:
    """Probability matching over shift orbits: N*P0(0, s) for s = 0..N-2 per pair."""
    n = config.dimension
    uses = _settings_pairs(config.n_alice, config.n_bob)[1]
    by_port = n * pure_coincidence_derivatives(config)
    by_phase = by_port[:, :-1, None, :] * uses[:, None, :, None]
    return by_phase.reshape(-1, *uses.shape[1:], n)


def _uncapped_visibility(
    config: ExperimentConfig, statistics, previous: tuple[int, ...] | None
) -> tuple[float, np.ndarray, tuple[int, ...] | None]:
    """V*, the optimal dual prices of the LP block rows and the optimal basis,
    solved from the basis ``previous`` if ``solve`` accepts it; V* = inf with
    zero prices and no basis where the LP is unbounded (every table uniform)."""
    (strategies, _, block, *_), solution = _solve_threshold_lp(
        config, statistics, cap=False, previous=previous
    )
    if solution.status == "unbounded":
        return math.inf, np.zeros(len(block)), None
    return float(solution.x[len(strategies)]), solution.dual[: len(block)], solution.basis


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _line_max(objective, x: np.ndarray, k: int, current: float) -> float:
    """Golden-section maximization of coordinate k over +-SCAN_STEP_START
    around x[k]; leaves x[k] at the best point and returns its value.

    A probe replaces the best point, and moves the bracket its way, only by a
    gain above SCAN_GAIN_STOP, so that probes whose values differ by roundoff
    alone never decide the step."""
    center = x[k]
    best_t, best_value = center, current

    def evaluate(t: float) -> float:
        nonlocal best_t, best_value
        x[k] = t
        value = objective(x)
        if value > best_value + SCAN_GAIN_STOP:
            best_t, best_value = t, value
        return value

    lo, hi = center - SCAN_STEP_START, center + SCAN_STEP_START
    tol = SCAN_STEP_START / 4.0
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = evaluate(c), evaluate(d)
    while (hi - lo) > tol:
        if fc >= fd - SCAN_GAIN_STOP:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = evaluate(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = evaluate(d)
    x[k] = best_t
    return best_value


def _ascend(objective, objective_and_gradient, x: np.ndarray) -> np.ndarray:
    """Maximize objective(x) from x, where objective_and_gradient(x) gives the
    value and its gradient: one golden-section sweep over every coordinate on
    the value alone, then BFGS with Armijo backtracking until a step gains less
    than SCAN_GAIN_STOP or backtracking fails."""
    value = objective(x)
    for k in range(x.size):
        value = _line_max(objective, x, k, value)
    value, gradient = objective_and_gradient(x)
    inverse = np.eye(x.size)
    while True:
        direction = inverse @ gradient
        slope = float(gradient @ direction)
        if not slope > 0.0:  # a zero gradient
            return x
        step = 1.0
        for _ in range(SCAN_BACKTRACKS):
            trial = x + step * direction
            trial_value, trial_gradient = objective_and_gradient(trial)
            if trial_value >= value + SCAN_ARMIJO * step * slope:
                break
            step /= 2.0
        else:
            return x
        # the inverse-Hessian update of the minimized -objective
        s, y = trial - x, gradient - trial_gradient
        sy = float(s @ y)
        if sy > 0.0:
            left = np.eye(x.size) - np.outer(s, y) / sy
            inverse = left @ inverse @ left.T + np.outer(s, s) / sy
        gain = trial_value - value
        x, value, gradient = trial, trial_value, trial_gradient
        if gain < SCAN_GAIN_STOP:
            return x


def _vector_config(dimension: int, vector: np.ndarray) -> ExperimentConfig:
    """Two settings per party, first phase of every setting pinned to zero."""
    rows = np.asarray(vector, dtype=float).reshape(4, dimension - 1)
    settings = tuple((0.0, *row) for row in rows.tolist())
    return ExperimentConfig(dimension, settings[:2], settings[2:])


def scan(
    dimension: int, restarts: int, seed: int, method: str = "corr"
) -> ScanResult:
    """Search phase settings maximizing the noise threshold.

    Each restart draws its start from a generator seeded by (seed, restart
    index), so runs are reproducible and restarts are order-independent, then
    minimizes the uncapped V* (``_ascend`` on -V* and its LP gradient) and
    records the capped F_thr of the public threshold function at the end;
    ties keep the lowest restart index.  A restart that trips the LP solver
    is recorded as NaN in the history and skipped.  ``method`` is "corr"
    (correlation matching) or "prob" (probability matching), as on the
    command line.
    """
    if not 2 <= dimension <= 6:
        raise ValueError(f"scan supports dimensions 2..6, got {dimension}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    methods = {
        "corr": (correlation_threshold, _correlation_statistics, _correlation_derivatives),
        "prob": (probability_threshold, _symmetric_statistics, _symmetric_derivatives),
    }
    if method not in methods:
        raise ValueError(f"unknown method {method!r} (known: corr, prob)")
    threshold, statistics, derivatives = methods[method]

    def visibility(config: ExperimentConfig) -> tuple[float, np.ndarray]:
        nonlocal basis
        v, prices, basis = _uncapped_visibility(config, statistics, basis)
        return v, prices

    def objective(vector: np.ndarray) -> float:
        return -visibility(_vector_config(dimension, vector))[0]

    def objective_and_gradient(vector: np.ndarray) -> tuple[float, np.ndarray]:
        config = _vector_config(dimension, vector)
        v, prices = visibility(config)
        if v == math.inf:
            return -v, np.zeros(vector.size)
        gradient = v * np.tensordot(prices, derivatives(config), axes=1)
        return -v, -gradient[:, 1:].reshape(-1)

    history: list[tuple[int, float]] = []
    best_value = -math.inf
    best_vector: np.ndarray | None = None
    for index in range(restarts):
        basis = None  # the optimal basis of the restart's last uncapped LP
        rng = np.random.default_rng([seed, index])
        vector = rng.uniform(0.0, 2.0 * math.pi, size=4 * (dimension - 1))
        try:
            vector = _ascend(objective, objective_and_gradient, vector)
            value = threshold(_vector_config(dimension, vector)).f_thr
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
