"""Dense two-phase revised simplex for equality-form linear programs.

Solves max c.x subject to A x = b, x >= 0.  Tuned for the small dense
threshold problems in this package rather than generality:

- the first of the starting bases named by the caller that is primal
  feasible skips phase 1, and so does one that is only dual feasible, after
  at most m dual simplex pivots.  Starts are tried on the original rows
  only: one that factorizes proves them independent, and a rank-deficient
  LP accepts none;
- only when no start is accepted are the rows reduced to an orthonormal
  basis of A's row space.  Only some threshold LPs need it: the full
  probability LPs are rank-deficient (18 x 18 of rank 10 at N=2, 38 x 83
  of rank 26, 66 x 258 of rank 50, 102 x 627 of rank 82 at N=5), while
  every driver LP has full row rank.  The reduction takes the left singular
  vectors from an SVD of A, or, for A with at least 16 rows and more columns
  than rows, from an SVD of the m x m triangle of a QR of A^T.  Phase 1
  then runs on the reduced rows reflected by the Householder matrix H with
  H b = |b| e_1, so that it starts with one artificial above zero instead
  of all m (about a third fewer pivots at 102 x 627), and phase 2 starts
  from its basis factorized on the unreflected rows, the original ones at
  full row rank;
- each pivot updates only the m x m basis inverse and the basic values
  (prices and reduced costs are recomputed from them), and a
  refactorization solves the basis against [I | b] only;
- pivoting is deterministic (largest reduced cost, largest pivot element
  on ties), and Bland's rule is engaged after 5(m + n) pivots without a
  gain, which guarantees termination in exact arithmetic; roundoff can still
  make it cycle on badly scaled LPs, so a solve that stalls as long again
  under Bland's rule ends "failed";
- every reported optimum and every unbounded ray gets a from-scratch
  check against the original rows.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
RANK_TOL = 1e-9
CERTIFICATE_RESIDUAL_TOL = 1e-8
CERTIFICATE_VARIABLE_TOL = 1e-10
CERTIFICATE_OBJECTIVE_TOL = 1e-10

MAX_ROWS = 10**4
MAX_COLS = 10**6
ITERATION_CAP = 10**6


class SolverFailure(RuntimeError):
    """A linear program did not yield the optimal solution it should have."""


@dataclass
class LinearProgram:
    """max objective.x  s.t.  constraint_matrix @ x == rhs, x >= 0."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.objective, dtype=float)
        b = np.array(self.rhs, dtype=float)
        a = np.array(self.constraint_matrix, dtype=float)
        if a.size == 0:
            a = a.reshape(b.size, c.size)
        if c.ndim != 1 or b.ndim != 1 or a.ndim != 2 or a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent shapes: A {a.shape}, b {b.shape}, c {c.shape}"
            )
        if b.size > MAX_ROWS or c.size > MAX_COLS:
            raise ValueError(f"problem too large: {b.size} rows, {c.size} columns")
        for name, arr in (("objective", c), ("constraint_matrix", a), ("rhs", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        self.objective, self.constraint_matrix, self.rhs = c, a, b

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    @property
    def n_cols(self) -> int:
        return self.objective.size


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "failed"
    objective_value: float
    x: np.ndarray | None
    max_residual: float
    iterations: int
    detail: str = ""
    basis: tuple[int, ...] | None = None  # when optimal: columns, a start at full row rank
    dual: np.ndarray | None = None  # one price per original row, when optimal


@dataclass
class CertificateReport:
    max_residual: float
    min_variable: float
    objective_recomputed: float
    objective_gap: float
    passed: bool


def _pivot(
    inverse: np.ndarray, basis: np.ndarray, column: np.ndarray, row: int, col: int
) -> None:
    """Enter ``col``, whose basis-inverse image is ``column``, on ``row``:
    one rank-1 update of [B^-1 | x_B]."""
    inverse[row] *= 1.0 / column[row]
    column = column.copy()
    column[row] = 0.0
    inverse -= column[:, None] * inverse[row]
    basis[row] = col


def _factorize(data: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """[B^-1 | x_B] of the ``basis`` columns of ``data`` = [A | I | b],
    solved against [I | b] only.

    Returns None when the basis is ill-conditioned (an entry of B^-1,
    x_B or B^-1 A above 1e8, or a condition number above 1e12), so the
    answer from a meaningless inverse can never be accepted.
    """
    m = data.shape[0]
    matrix = data[:, basis]
    try:
        inverse = np.linalg.solve(matrix, data[:, -m - 1 :])
    except np.linalg.LinAlgError:
        return None
    for block in (inverse, inverse[:, :m] @ data[:, : -m - 1]):
        # also false for a NaN or an infinity
        if not np.abs(block).max(initial=0.0) <= 1e8:
            return None
    # the infinity-norm condition number, without extra factorizations
    cond = float(
        np.abs(matrix).sum(axis=1).max(initial=0.0)
        * np.abs(inverse[:, :m]).sum(axis=1).max(initial=0.0)
    )
    return None if cond > 1e12 else inverse


def _optimize(
    a: np.ndarray, costs: np.ndarray, inverse: np.ndarray, basis: np.ndarray, budget: int
) -> tuple[str, int]:
    """Run simplex iterations until optimality, unboundedness, ``budget``
    pivots ("cap") or another ``stall_limit`` pivots without a gain once
    Bland's rule engaged ("stalled"); returns the verdict and the pivots made.

    ``inverse`` is [B^-1 | x_B]: the basis inverse and the basic values.
    Only the structural columns of ``a`` may enter; ``costs`` also prices the
    artificial columns that may still be basic.
    """
    m, n = a.shape
    if n == 0:
        return "optimal", 0
    binv, values = inverse[:, :m], inverse[:, m]
    stall_limit = 5 * (m + n)
    objective = float(costs[basis] @ values)
    best_objective = -math.inf
    pivots = 0
    stalled = 0
    bland = False
    while True:
        reduced = costs[:n] - costs[basis] @ binv @ a
        if bland:
            positive = np.nonzero(reduced > PIVOT_TOL)[0]
            if positive.size == 0:
                return "optimal", pivots
            col = int(positive[0])
        else:
            col = int(reduced.argmax())
            if reduced[col] <= PIVOT_TOL:
                return "optimal", pivots
        column = binv @ a[:, col]
        eligible = column > PIVOT_TOL
        if not eligible.any():
            return "unbounded", pivots
        if pivots >= budget:
            return "cap", pivots
        # roundoff can leave tiny negative basic values; clamping them for the
        # ratio test keeps degenerate rows tied at zero, where the tie-break
        # below can choose a well-scaled pivot element
        ratios = np.full(m, np.inf)
        np.divide(np.maximum(values, 0.0), column, out=ratios, where=eligible)
        least = ratios.min()
        ties = np.nonzero(ratios <= least + 1e-12 * max(1.0, least))[0]
        if bland:
            # lowest leaving index, required for anti-cycling
            row = int(ties[basis[ties].argmin()])
        else:
            # largest pivot element among ties, for numerical stability
            row = int(ties[column[ties].argmax()])
        _pivot(inverse, basis, column, row, col)
        pivots += 1
        # the entering variable's new value times its reduced cost
        objective += float(reduced[col] * values[row])
        if objective > best_objective + 1e-12:
            best_objective = objective
            stalled = 0
        else:
            stalled += 1
            if stalled > 2 * stall_limit:
                return "stalled", pivots
            if stalled > stall_limit:
                bland = True


def _dual_optimize(
    a: np.ndarray, c: np.ndarray, inverse: np.ndarray, basis: np.ndarray
) -> int | None:
    """Dual simplex iterations on [B^-1 | x_B] of a basis of structural
    columns until no basic value is below -CERTIFICATE_VARIABLE_TOL; returns
    the pivots made, or None when the basis is primal infeasible and not dual
    feasible (a reduced cost above PIVOT_TOL), when no column can enter or
    when m pivots do not suffice.

    The most negative basic value leaves, on row r, and of the columns with
    alpha_rj = (B^-1 a_j)_r below -PIVOT_TOL the one with the smallest
    |d_j / alpha_rj| enters (ties: the largest |alpha_rj|), which keeps every
    reduced cost d_j at most zero.
    """
    m, n = a.shape
    binv, values = inverse[:, :m], inverse[:, m]
    pivots = 0
    while values.min(initial=0.0) < -CERTIFICATE_VARIABLE_TOL:
        reduced = c - c[basis] @ binv @ a
        row = int(values.argmin())
        alpha = binv[row] @ a
        eligible = alpha < -PIVOT_TOL
        if (pivots == 0 and reduced.max() > PIVOT_TOL) or pivots == m or not eligible.any():
            return None
        ratios = np.full(n, np.inf)
        np.divide(np.abs(reduced), -alpha, out=ratios, where=eligible)
        least = ratios.min()
        ties = np.nonzero(ratios <= least + 1e-12 * max(1.0, least))[0]
        col = int(ties[alpha[ties].argmin()])
        _pivot(inverse, basis, binv @ a[:, col], row, col)
        pivots += 1
    return pivots


def _accepted_start(
    data: np.ndarray, starts: list[np.ndarray], c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """[B^-1 | x_B], the basis and the dual simplex pivots of the first of
    ``starts`` that has one column per row of ``data`` = [A | I | b], passes
    ``_factorize`` and is primal feasible as it is or after ``_dual_optimize``;
    None if no start is."""
    m = data.shape[0]
    for start in starts:
        inverse = _factorize(data, start) if start.size == m else None
        if inverse is not None:
            basis = start.copy()
            pivots = _dual_optimize(data[:, : c.size], c, inverse, basis)
            if pivots is not None:
                return inverse, basis, pivots
    return None


def _row_space(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """An orthonormal basis U of A's column space and the equalities
    U^T A x = U^T b over A's row space, as (U, U^T A, U^T b).

    U holds the left singular vectors of A whose singular values exceed
    RANK_TOL times the largest.  An A with at least 16 rows and more
    columns than rows shares them with the m x m triangle R^T of A^T = QR
    (Chan's R-SVD), whose SVD never forms the m x n right factor: 7 ms
    against 17 ms at 102 x 627.  Smaller A keep the plain SVD, which is as
    fast or faster at 10 rows.

    Returns None when b lies outside A's column space, so that A x = b has
    no solution at all.
    """
    m, n = a.shape
    factor = np.linalg.qr(a.T, mode="r").T if 16 <= m < n else a
    u, singular, _ = np.linalg.svd(factor, full_matrices=False)
    u = u[:, singular > RANK_TOL * singular.max(initial=0.0)]
    # orient rows so the right-hand side is nonnegative
    u *= np.where(u.T @ b < 0.0, -1.0, 1.0)
    rhs = u.T @ b
    outside = float(np.abs(b - u @ rhs).max(initial=0.0))
    if outside > RANK_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
        return None
    return u, u.T @ a, rhs


def _reflected(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[H A | I | |b| e_1] for the Householder reflection H with H b = |b| e_1.

    v = b - |b| e_1 takes its first entry in the cancellation-free form
    -|b_2..m|^2 / (b_1 + |b|) (Golub & Van Loan, Algorithm 5.1.1), which
    needs b_1 >= 0, as the orientation in ``_row_space`` ensures.
    """
    norm = float(np.linalg.norm(b))
    tail = float(b[1:] @ b[1:])
    rhs = np.zeros(b.size)
    if tail > 0.0:
        v = b.copy()
        v[0] = -tail / (b[0] + norm)
        v *= math.sqrt(2.0 / (v[0] ** 2 + tail))
        a = a - np.outer(v, v @ a)
    rhs[:1] = norm
    return np.column_stack([a, np.eye(b.size), rhs])


def solve(lp: LinearProgram, *, starts: Sequence[Sequence[int]] = ()) -> LPSolution:
    """Two-phase simplex on the independent rows; exact status reporting.

    Each phase's verdict is re-checked once against a basis inverse
    refactorized from its data (basis condition, primal and dual
    feasibility), and an optimum or an unbounded ray from scratch against
    the original rows (residual, variable signs, and for the ray an
    objective that grows): pivot roundoff can end a solve "failed", never
    with a silently wrong answer.

    ``starts`` are candidate starting bases, tried in order (each one
    distinct structural columns, else ValueError) on the original rows.  A
    candidate is accepted if it has one column per row, passes the
    strict refactorization and either leaves no basic value below
    -CERTIFICATE_VARIABLE_TOL or, having no reduced cost above PIVOT_TOL,
    reaches such values within m dual simplex pivots (``_dual_optimize``),
    whose basis phase 2 refactorizes.  An accepted start replaces phase 1
    and proves the rows independent, so they are not reduced; a
    rank-deficient LP accepts none.  A rejected candidate leaves the solve
    as it was.  If none is accepted, the equalities are replaced by an
    orthonormal basis of their row space, so redundant rows never reach the
    basis and every phase-1 artificial leaves it, and phase 1 runs on them,
    reflected by ``_reflected``.  Phase 2 starts from a basis factorized on
    the unreflected rows, the original ones at full row rank, so a solve
    from a start and a solve without starts that ends in that basis agree
    bit for bit.  An optimal solution carries its ``basis``, a start for LPs
    with the same A, b when A has full row rank, and its ``dual`` y over the
    original rows (b.y is the optimum and c - A^T y <= 0): the prices
    c_B B^-1 from the verified final basis inverse, mapped back by U when
    phase 2 ran on reduced rows.
    """
    c = lp.objective
    a0 = lp.constraint_matrix
    b0 = lp.rhs
    n = c.size
    iterations = 0
    starts = [[operator.index(j) for j in start] for start in starts]
    for start in starts:
        if len(set(start)) != len(start) or not all(0 <= j < n for j in start):
            raise ValueError(f"a start must name distinct columns in 0..{n - 1}")
    starts = [np.array(start, dtype=int) for start in starts]

    def unsolved(status: str, detail: str) -> LPSolution:
        return LPSolution(status, math.nan, None, math.nan, iterations, detail)

    # [A | I | b] on the original rows; the reduced rows replace them only
    # when no start is accepted
    data = np.column_stack([a0, np.eye(b0.size), b0])
    m = b0.size
    u = None  # U of the reduced rows, when phase 2 runs on them
    feasibility_tol = 1e-9 * max(1.0, float(np.abs(b0).max(initial=0.0)))

    def optimize_verified(costs: np.ndarray, data: np.ndarray) -> str:
        """Optimize over ``data`` = [A | I | b], then check the verdict once
        against refactorized data."""
        nonlocal inverse, factorized, iterations
        a = data[:, :n]
        status, pivots = _optimize(a, costs, inverse, basis, ITERATION_CAP - iterations)
        iterations += pivots
        if status == "cap":
            return f"iteration cap {ITERATION_CAP} hit"
        if status == "stalled":
            return "stalled under Bland's rule"
        # without a pivot since the last factorization, a second one would
        # rebuild the same inverse from the same basis
        unchanged = not pivots and factorized
        if not unchanged:
            inverse = _factorize(data, basis)
            if inverse is None:
                return "ill-conditioned basis on refactorization"
            factorized = True
        binv, values = inverse[:, :m], inverse[:, m]
        if float(values.min(initial=0.0)) < -feasibility_tol:
            return "primal infeasible on refactorization"
        # an unbounded ray is checked at the end of solve; on an unchanged
        # inverse _optimize has just priced every column as below
        if status == "unbounded" or unchanged:
            return status
        improving = np.any(costs[:n] - costs[basis] @ binv @ a > PIVOT_TOL)
        return "dual infeasible on refactorization" if improving else "optimal"

    accepted = _accepted_start(data, starts, c)
    # whether ``inverse`` was factorized from ``basis`` with no pivot since.
    # Dual simplex pivots and phase 1 start it False, so that their basis is
    # refactorized even after no primal pivot; for phase 1 that is the only
    # check that rejects reduced rows with an entry above 1e8.  Without it,
    # LinearProgram([0, 1], [[1e9, 1]], [0]), whose only feasible point is
    # x = 0, passes phase 1 and only the ray check stops phase 2's "unbounded"
    if accepted is not None:
        inverse, basis, pivots = accepted
        iterations += pivots
        factorized = pivots == 0
    else:
        reduced = _row_space(a0, b0)
        if reduced is None:
            return unsolved("infeasible", "rhs outside the column space of A")
        u, a, b = reduced
        if b.size == b0.size:
            u = None  # full row rank: phase 2 stays on the original rows
        else:
            data = np.column_stack([a, np.eye(b.size), b])
            m = b.size
        # phase 1 runs on the rows reflected so that b = |b| e_1: it starts
        # with a single artificial above zero
        reflected = _reflected(a, b)
        basis = np.arange(n, n + m)
        inverse = reflected[:, n:].copy()
        factorized = False
        status = optimize_verified(np.concatenate([np.zeros(n), -np.ones(m)]), reflected)
        if status != "optimal":
            return unsolved("failed", f"phase 1 {status}")
        binv, values = inverse[:, :m], inverse[:, m]
        artificial_sum = float(values[basis >= n].sum())
        if artificial_sum > feasibility_tol:
            return unsolved("infeasible", f"artificial residue {artificial_sum:.3e}")
        # the rows are independent, so every artificial left at zero has a
        # structural column to pivot on; take the largest entry
        for row in np.nonzero(basis >= n)[0]:
            entries = np.abs(binv[row] @ reflected[:, :n])
            col = int(np.argmax(entries))
            if entries[col] <= 1e-7:
                return unsolved("failed", f"no pivot for the artificial on row {row}")
            _pivot(inverse, basis, binv @ reflected[:, col], row, col)
            iterations += 1
        # phase 2 starts from the same basis factorized on the unreflected
        # rows: the original ones when A has full row rank
        inverse = _factorize(data, basis)
        if inverse is None:
            return unsolved("failed", "phase 1 ill-conditioned basis on refactorization")

    costs = np.concatenate([c, np.zeros(m)])
    status = optimize_verified(costs, data)
    if status == "unbounded":
        # a ray d along each improving column j, d_j = 1 and d_B = -B^-1 a_j,
        # scaled to |d|_inf = 1 (a ray has no scale of its own) and checked
        # from scratch against the original rows as an optimum is
        a, binv = data[:, :n], inverse[:, :m]
        improving = np.nonzero(c - c[basis] @ binv @ a > PIVOT_TOL)[0]
        rays = np.zeros((n, improving.size))
        rays[improving, np.arange(improving.size)] = 1.0
        rays[basis] -= binv @ a[:, improving]
        rays /= np.abs(rays).max(axis=0, initial=1.0)
        checked = (
            (rays.min(axis=0, initial=0.0) >= -CERTIFICATE_VARIABLE_TOL)
            & (np.abs(a0 @ rays).max(axis=0, initial=0.0) <= CERTIFICATE_RESIDUAL_TOL)
            & (c @ rays > 0.0)
        )
        if not checked.any():
            return unsolved("failed", "phase 2 unbounded without a checked ray")
        return LPSolution("unbounded", math.inf, None, math.nan, iterations, "")
    if status != "optimal":
        return unsolved("failed", f"phase 2 {status}")

    # only structural columns are basic now
    x = np.zeros(n)
    x[basis] = inverse[:, m]
    residual = float(np.abs(a0 @ x - b0).max(initial=0.0))
    if float(x.min(initial=0.0)) < -CERTIFICATE_VARIABLE_TOL:
        return unsolved("failed", "negative variable")
    if residual > CERTIFICATE_RESIDUAL_TOL:
        return unsolved("failed", f"residual {residual:.3e}")
    dual = costs[basis] @ inverse[:, :m]
    if u is not None:
        dual = u @ dual
    return LPSolution(
        "optimal", float(c @ x), x, residual, iterations, "", tuple(basis.tolist()), dual
    )


def check_certificate(lp: LinearProgram, solution: LPSolution) -> CertificateReport:
    """Recompute residual, variable bounds, and objective from scratch."""
    if solution.status != "optimal":
        raise ValueError(f"certificate requires an optimal solution, got {solution.status}")
    x = np.asarray(solution.x, dtype=float)
    residual = (
        float(np.max(np.abs(lp.constraint_matrix @ x - lp.rhs))) if lp.n_rows else 0.0
    )
    min_variable = float(x.min()) if x.size else 0.0
    objective = float(lp.objective @ x)
    gap = abs(objective - solution.objective_value)
    passed = (
        residual <= CERTIFICATE_RESIDUAL_TOL
        and min_variable >= -CERTIFICATE_VARIABLE_TOL
        and gap <= CERTIFICATE_OBJECTIVE_TOL
    )
    return CertificateReport(residual, min_variable, objective, gap, passed)
