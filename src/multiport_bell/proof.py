"""Step-by-step replay of the symmetry derivation of the qutrit threshold.

For the built-in two-setting qutrit configuration the critical visibility
has the closed form (6*sqrt(3) - 9)/2.  The derivation chain verified here:

1.  The correlation matrix Q decomposes as c1*I + c2*S over the identity
    and the off-diagonal symmetry operator S (entries alpha**2 and alpha).
2.  Q commutes with S.
3.  Conjugation by S permutes the 27 distinct strategy matrices, the
    columns of the correlation LP that steps 4 and 9 solve, as an
    involution with 12 two-cycles and 3 fixed points.
4.  Averaging any optimal weight distribution with its orbit image leaves
    the reconstructed matrix unchanged, cutting the unknowns from 27 to 15.
5.  Every orbit-class sum equals (+-1) * alpha**t * B for one of three base
    matrices; three pair sums coincide (15 -> 12 unknowns) and the bases
    obey B1 + B10 - B13 = 0.
6.  Q expands in the two-matrix basis {B1, B10} with known coefficients.
7.  Both coefficients decompose over {1, alpha} with strictly positive
    weights.
8.  Forcing the sign-constrained weights to zero leaves a linear equation
    whose solution is the analytic visibility.
9.  The LP optimum agrees with the analytic value to 1e-7.

Each step is checked numerically; a failed step is recorded and execution
continues so a report always covers all nine checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quantum import ExperimentConfig, correlation_matrix
# unused here; perfbench traces them under these names
from .strategies import distinct_matrices, enumerate_strategies  # noqa: F401
from .threshold import _correlation_data, builtin_config, correlation_threshold

SQRT3 = math.sqrt(3.0)
ALPHA = complex(np.exp(2j * np.pi / 3.0))

ANALYTIC_VISIBILITY = (6.0 * SQRT3 - 9.0) / 2.0

_SCALING_TOL = 1e-12
_MATCH_TOL = 1e-9
LP_AGREEMENT_TOL = 1e-7


@dataclass(frozen=True)
class ProofCheck:
    name: str
    passed: bool
    detail: str
    deviation: float | None = None


@dataclass(frozen=True)
class ProofReport:
    checks: tuple[ProofCheck, ...]
    analytic_v: float
    lp_v: float

    @property
    def passed(self) -> bool:
        """Every check passed, ``lp_agreement`` (analytic V against LP V) too."""
        return all(c.passed for c in self.checks)


def symmetry_operator() -> np.ndarray:
    """The hermitian unitary involution with entries (0,1) -> alpha**2, (1,0) -> alpha."""
    return np.array([[0.0, ALPHA**2], [ALPHA, 0.0]], dtype=complex)


def base_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three base matrices every orbit-class sum is a scaling of."""
    b1 = np.array([[2.0, -(ALPHA**2)], [-ALPHA, 2.0]], dtype=complex)
    b10 = np.array([[-1.0, 2.0 * ALPHA**2], [2.0 * ALPHA, -1.0]], dtype=complex)
    return b1, b10, b1 + b10


def conjugate(values: np.ndarray, transform: np.ndarray) -> np.ndarray:
    """Two-sided action U @ H @ U of a 2x2 transform on 2x2 strategy matrices.

    ``values`` is one matrix or a stack of them, shape (..., 2, 2).
    """
    values = np.asarray(values, dtype=complex)
    if values.shape[-2:] != (2, 2):
        raise ValueError("conjugation is defined for the two-setting scenario only")
    u = np.asarray(transform, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"transform must be 2x2, got shape {u.shape}")
    return u @ values @ u


def orbit_map(values: np.ndarray, transform: np.ndarray) -> list[int]:
    """Permutation n -> m with U H_n U = H_m over a (K, 2, 2) stack of the
    distinct strategy matrices.

    Raises ValueError if conjugation leaves the set or the map is not an
    involution.
    """
    values = np.asarray(values)
    if values.ndim != 3 or not len(values):
        raise ValueError("expected a non-empty (K, 2, 2) stack of strategy matrices")
    images = conjugate(values, transform)
    # distinct roots-of-unity matrices lie far apart, so a match is unique
    matches = np.abs(images[:, None] - values[None, :]).max(axis=(2, 3)) <= _MATCH_TOL
    unmatched = np.flatnonzero(matches.sum(axis=1) != 1)
    if unmatched.size:
        raise ValueError(
            f"conjugation maps matrix {unmatched[0]} outside the distinct strategy set"
        )
    permutation = matches.argmax(axis=1)
    if np.any(permutation[permutation] != np.arange(len(values))):
        raise ValueError("conjugation does not act as an involution")
    return permutation.tolist()


def orbit_classes(permutation: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Split an involution into its two-cycles and fixed points."""
    pairs = [(n, m) for n, m in enumerate(permutation) if n < m]
    fixed = [n for n, m in enumerate(permutation) if n == m]
    return pairs, fixed


@functools.cache
def _scaled_bases() -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Every sign * alpha**power * base as one (18, 2, 2) stack, with its
    (sign, power, base index) tag."""
    tags = [(sign, power, b) for b in range(3) for sign in (1, -1) for power in range(3)]
    bases = base_matrices()
    return tags, np.stack([sign * ALPHA**power * bases[b] for sign, power, b in tags])


def match_base_scaling(matrix: np.ndarray) -> tuple[int, int, int]:
    """Unique (sign, power, base index) with matrix == sign * alpha**power * base."""
    tags, stack = _scaled_bases()
    hits = np.flatnonzero(np.abs(matrix - stack).max(axis=(1, 2)) <= _SCALING_TOL)
    if len(hits) != 1:
        raise ValueError(f"expected exactly one base scaling, found {len(hits)}")
    return tags[hits[0]]


def _maxdev(array: np.ndarray) -> float:
    return float(np.max(np.abs(array)))


def run_proof(config: ExperimentConfig | None = None) -> ProofReport:
    """Execute every derivation step against the given (default built-in) config.

    Raises ValueError for a config the derivation does not cover: anything
    but N=3 with two settings per party.
    """
    cfg = builtin_config("paper-qutrit") if config is None else config
    if (cfg.dimension, cfg.n_alice, cfg.n_bob) != (3, 2, 2):
        raise ValueError(
            "the qutrit proof covers N=3 with two settings per party, got "
            f"N={cfg.dimension} with {cfg.n_alice} (alice) and {cfg.n_bob} (bob) settings"
        )
    operator = symmetry_operator()
    q = correlation_matrix(cfg)
    checks: list[ProofCheck] = []

    def record(name: str, passed: bool, detail: str, deviation: float | None) -> None:
        checks.append(ProofCheck(name, bool(passed), detail, deviation))

    # 1: Q = c1*I + c2*S with fixed closed-form coefficients.
    c1 = complex((2.0 * SQRT3 + 1.0) / 6.0, -(2.0 - SQRT3) / 6.0)
    c2 = complex(-(2.0 * SQRT3 - 1.0) / 6.0, (2.0 + SQRT3) / 6.0)
    dev = _maxdev(q - c1 * np.eye(2) - c2 * operator)
    record("q_decomposition", dev <= 1e-12, f"c1={c1:.6f}, c2={c2:.6f}", dev)

    # 2: Q commutes with the symmetry operator.
    dev = _maxdev(operator @ q - q @ operator)
    record("symmetry_commutes", dev <= 1e-12, "max |SQ - QS| entry", dev)

    # 3: conjugation permutes the correlation LP's 27 columns (12 pairs + 3 fixed).
    strategies, table, _ = _correlation_data(3, 2, 2)
    stack = table.T.reshape(-1, 2, 2)
    permutation = orbit_map(stack, operator)
    pairs, fixed = orbit_classes(permutation)
    record(
        "orbit_structure",
        len(stack) == 27 and len(pairs) == 12 and len(fixed) == 3,
        f"{len(pairs)} two-cycles, {len(fixed)} fixed points over {len(stack)} matrices",
        None,
    )

    # 4: orbit-averaging an optimal weight vector keeps the reconstruction.
    lp_result = correlation_threshold(cfg)
    weights = np.array([lp_result.weights[s] for s in strategies])
    swapped = weights[np.array(permutation)]
    dev = _maxdev(np.tensordot(0.5 * (weights + swapped) - weights, stack, axes=1))
    n_classes = len(pairs) + len(fixed)
    record(
        "orbit_averaging",
        dev <= 1e-10 and n_classes == 15,
        f"reconstruction shift after averaging; {n_classes} orbit classes",
        dev,
    )

    # 5: orbit-class sums collapse onto three base matrices.
    members = [list(pair) for pair in pairs] + [[k] for k in fixed]
    sums = [stack[idx].sum(axis=0) for idx in members]
    b1, b10, b13 = base_matrices()
    identity_dev = _maxdev(b1 + b10 - b13)
    tags = [match_base_scaling(g) for g in sums]
    pair_tags, fixed_tags = tags[: len(pairs)], tags[len(pairs) :]
    b1_powers = sorted(t for s, t, b in pair_tags if b == 0 and s == 1)
    b10_powers = sorted(t for s, t, b in pair_tags if b == 1 and s == 1)
    neg_b13_powers = sorted(t for s, t, b in pair_tags if b == 2 and s == -1)
    fixed_ok = sorted(fixed_tags) == [(1, 0, 2), (1, 1, 2), (1, 2, 2)]
    pair_sums = np.stack(sums[: len(pairs)])
    pair_devs = np.abs(pair_sums[:, None] - pair_sums[None, :]).max(axis=(2, 3))
    coincidences = int(np.count_nonzero(np.triu(pair_devs <= _SCALING_TOL, k=1)))
    structure_ok = (
        b1_powers == [0, 1, 2]
        and b10_powers == [0, 1, 2]
        and neg_b13_powers == [0, 0, 1, 1, 2, 2]
        and fixed_ok
        and coincidences == 3
        and identity_dev <= 1e-12
    )
    record(
        "g_matrix_algebra",
        structure_ok,
        f"base multiplicities {{B1: {len(b1_powers)}, B10: {len(b10_powers)}, "
        f"-B13: {len(neg_b13_powers)}}}, {coincidences} coincident pair sums, "
        f"|B1 + B10 - B13| = {identity_dev:.2e}",
        identity_dev,
    )

    # 6: expansion Q = l1*B1 + l10*B10 with the closed-form coefficients.
    basis = np.stack([b1.reshape(-1), b10.reshape(-1)], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, q.reshape(-1), rcond=None)
    l1, l10 = complex(coeffs[0]), complex(coeffs[1])
    expected_l1 = complex(1.0 / 6.0 + 1.0 / (3.0 * SQRT3), -1.0 / 9.0 + 1.0 / (2.0 * SQRT3))
    expected_l10 = complex(1.0 / 6.0 - 1.0 / (3.0 * SQRT3), 1.0 / 9.0 + 1.0 / (2.0 * SQRT3))
    span_dev = _maxdev(basis @ coeffs - q.reshape(-1))
    dev = max(span_dev, abs(l1 - expected_l1), abs(l10 - expected_l10))
    four = _basis_strategy_rows(tags, members, stack)
    rank_ok = four is not None and np.linalg.matrix_rank(four, tol=1e-9) == 4
    record(
        "basis_expansion",
        dev <= 1e-12 and rank_ok,
        f"l1/V={l1:.9f}, l10/V={l10:.9f}, span residual {span_dev:.2e}",
        dev,
    )

    # 7: both coefficients sit strictly inside the cone spanned by 1 and alpha.
    u0 = l1.real + l1.imag / SQRT3
    u1 = 2.0 * l1.imag / SQRT3
    expected_u0 = (9.0 + 2.0 * SQRT3) / 27.0
    expected_u1 = (9.0 - 2.0 * SQRT3) / 27.0
    dev = max(
        abs(l1 - (u0 + u1 * ALPHA)),
        abs(l10 - (u1 + u0 * ALPHA)),
        abs(u0 - expected_u0),
        abs(u1 - expected_u1),
    )
    record(
        "positive_cone",
        dev <= 1e-12 and u0 > 0.0 and u1 > 0.0,
        f"l1/V = {u0:.9f} + alpha*{u1:.9f}, coefficients swapped for l10/V",
        dev,
    )

    # 8: zero forcing leaves 1/2 - 2*(u0 - u1)*V = u1*V, the analytic value.
    denominator = 4.0 * u0 - 2.0 * u1
    analytic_v = 1.0 / denominator if abs(denominator) > 1e-9 else math.nan
    if math.isfinite(analytic_v):
        w1 = (u0 - u1) * analytic_v
        balance = abs(0.5 - 2.0 * (u0 - u1) * analytic_v - u1 * analytic_v)
        dev = max(
            abs(w1 - (4.0 * SQRT3 / 27.0) * analytic_v),
            balance,
            abs(analytic_v - ANALYTIC_VISIBILITY),
        )
        record(
            "zero_forcing_solve",
            dev <= 1e-12,
            f"w1 = w6 = {w1:.9f}, analytic V = {analytic_v:.12f}",
            dev,
        )
    else:
        record("zero_forcing_solve", False, "degenerate cone coefficients", None)

    # 9: LP optimum agrees with the analytic visibility.
    lp_v = lp_result.v_thr
    gap = abs(analytic_v - lp_v) if math.isfinite(analytic_v) else math.inf
    record(
        "lp_agreement",
        gap <= LP_AGREEMENT_TOL,
        f"analytic {analytic_v:.12f} vs LP {lp_v:.12f}",
        gap,
    )

    return ProofReport(tuple(checks), analytic_v, lp_v)


def _basis_strategy_rows(tags, members, stack) -> np.ndarray | None:
    """The four strategy matrices under the t=0 scalings of B1 and B10, flattened."""
    rows = []
    for wanted_base in (0, 1):
        for tag, idx in zip(tags, members):
            if tag == (1, 0, wanted_base) and len(idx) == 2:
                rows.extend(stack[i].reshape(-1) for i in idx)
    if len(rows) != 4:
        return None
    return np.stack(rows)
