"""Dense two-phase simplex for equality-form linear programs.

Solves max c.x subject to A x = b, x >= 0.  Tuned for the small dense
threshold problems in this package rather than generality: deterministic
pivoting (largest reduced cost, lowest basis index on ties), Bland's rule
engaged after a stall to guarantee termination, artificial variables pinned
at zero on redundant rows, and a from-scratch certificate check for any
reported optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
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
        if a.ndim != 2 or a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent shapes: A {a.shape}, b ({b.size},), c ({c.size},)"
            )
        if b.size > MAX_ROWS or c.size > MAX_COLS:
            raise ValueError(f"problem too large: {b.size} rows, {c.size} columns")
        for name, arr in (("objective", c), ("constraint_matrix", a), ("rhs", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        for name, arr in (("objective", c), ("constraint_matrix", a), ("rhs", b)):
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


@dataclass
class CertificateReport:
    max_residual: float
    min_variable: float
    objective_recomputed: float
    objective_gap: float
    passed: bool


@dataclass
class _Counter:
    iterations: int = 0


class _Scratch:
    """Preallocated work arrays; the pivot update dominates solver runtime."""

    def __init__(self, rows: int, width: int) -> None:
        self.ratios = np.empty(rows)
        self.rhs = np.empty(rows)
        self.column = np.empty(rows + 1)
        self.update = np.empty((rows + 1, width))


def _pivot(
    tableau: np.ndarray, basis: np.ndarray, row: int, col: int, scratch: _Scratch
) -> None:
    np.multiply(tableau[row], 1.0 / tableau[row, col], out=tableau[row])
    np.copyto(scratch.column, tableau[:, col])
    scratch.column[row] = 0.0
    np.multiply.outer(scratch.column, tableau[row], out=scratch.update)
    tableau -= scratch.update
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


_REFRESH_EVERY = 25


def _optimize(
    tableau: np.ndarray,
    basis: np.ndarray,
    n_enterable: int,
    counter: _Counter,
    stall_limit: int,
    bland: bool,
    refresh,
    scratch: _Scratch,
) -> str:
    """Run simplex iterations until optimality, unboundedness, or the cap."""
    m = basis.size
    best_objective = -math.inf
    stalled = 0
    since_refresh = 0
    while True:
        if since_refresh >= _REFRESH_EVERY:
            if not refresh():
                return "singular"
            since_refresh = 0
        reduced = tableau[-1, :n_enterable]
        if bland:
            positive = np.nonzero(reduced > PIVOT_TOL)[0]
            if positive.size == 0:
                return "optimal"
            col = int(positive[0])
        else:
            col = int(np.argmax(reduced))
            if reduced[col] <= PIVOT_TOL:
                return "optimal"
        column = tableau[:m, col]
        eligible = column > PIVOT_TOL
        if not eligible.any():
            return "unbounded"
        if counter.iterations >= ITERATION_CAP:
            return "cap"
        # roundoff can leave tiny negative basic values; clamping them for the
        # ratio test keeps degenerate rows tied at zero, where the tie-break
        # below can choose a well-scaled pivot element
        np.maximum(tableau[:m, -1], 0.0, out=scratch.rhs)
        scratch.ratios.fill(np.inf)
        np.divide(scratch.rhs, column, out=scratch.ratios, where=eligible)
        least = scratch.ratios.min()
        ties = np.nonzero(scratch.ratios <= least + 1e-12 * max(1.0, least))[0]
        if bland:
            # lowest leaving index, required for anti-cycling
            row = int(ties[np.argmin(basis[ties])])
        else:
            # largest pivot element among ties, for numerical stability
            row = int(ties[np.argmax(column[ties])])
        _pivot(tableau, basis, row, col, scratch)
        counter.iterations += 1
        since_refresh += 1
        objective = -tableau[-1, -1]
        if objective > best_objective + 1e-12:
            best_objective = objective
            stalled = 0
        else:
            stalled += 1
            if stalled > stall_limit:
                bland = True


def _install_objective(tableau: np.ndarray, basis: np.ndarray, costs: np.ndarray) -> None:
    """Write the reduced-cost row for ``costs`` given the current basis."""
    row = np.concatenate([costs, [0.0]])
    row -= tableau[: basis.size].T @ costs[basis]
    tableau[-1] = row


_VERIFY_ROUNDS = 5


def _solve_attempt(lp: LinearProgram, counter: _Counter, bland_start: bool) -> LPSolution:
    """One two-phase run; status "retry" asks the caller to escalate."""
    c = lp.objective
    a0 = lp.constraint_matrix
    b0 = lp.rhs
    m, n = a0.shape

    # orient rows so the right-hand side is nonnegative
    sign = np.where(b0 < 0.0, -1.0, 1.0)
    a = a0 * sign[:, None]
    b = b0 * sign

    total = n + m
    a_ext = np.hstack([a, np.eye(m)]) if m else a
    data = np.column_stack([a_ext, b]) if m else None
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n] = a
    if m:
        tableau[:m, n:total] = np.eye(m)
    tableau[:m, -1] = b
    basis = np.arange(n, total)
    scratch = _Scratch(m, total + 1)
    stall_limit = 5 * (m + n)
    feasibility_tol = 1e-9 * max(1.0, float(np.max(np.abs(b))) if m else 1.0)

    def failed(detail: str) -> LPSolution:
        return LPSolution("failed", math.nan, None, math.nan, counter.iterations, detail)

    def refactorize(strict: bool = False) -> bool:
        """Rebuild the constraint rows as basis-inverse times the original data.

        Returns False when the basis is (near-)singular, so the answer from a
        meaningless inverse can never be accepted.
        """
        if not m:
            return True
        matrix = a_ext[:, basis]
        try:
            fresh = np.linalg.solve(matrix, data)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(fresh)) or float(np.max(np.abs(fresh))) > 1e8:
            return False
        if strict:
            # fresh[:, n:total] is the basis inverse, so the infinity-norm
            # condition number is available without extra factorizations
            cond = float(
                np.abs(matrix).sum(axis=1).max()
                * np.abs(fresh[:, n:total]).sum(axis=1).max()
            )
            if cond > 1e12:
                return False
        tableau[:m, :] = fresh
        return True

    def optimize_verified(costs: np.ndarray) -> str:
        """Optimize, then re-check the verdict against refactorized data."""

        def refresh() -> bool:
            if not refactorize():
                return False
            _install_objective(tableau, basis, costs)
            return True

        for _ in range(_VERIFY_ROUNDS):
            _install_objective(tableau, basis, costs)
            status = _optimize(
                tableau, basis, n, counter, stall_limit, bland_start, refresh, scratch
            )
            if status == "cap":
                return "cap"
            if status == "singular":
                return "singular"
            if not refactorize(strict=True):
                return "singular"
            _install_objective(tableau, basis, costs)
            if not m:
                return status
            if float(np.min(tableau[:m, -1])) < -feasibility_tol:
                return "primal"
            reduced = tableau[-1, :n]
            if status == "unbounded":
                col = int(np.argmax(reduced))
                if reduced[col] > PIVOT_TOL and float(np.max(tableau[:m, col])) <= PIVOT_TOL:
                    return "unbounded"
            elif float(np.max(reduced)) <= PIVOT_TOL:
                return "optimal"
            # fresh data disagrees with the drifted tableau; optimize again
        return "drift"

    if m:
        phase1_costs = np.concatenate([np.zeros(n), -np.ones(m)])
        status = optimize_verified(phase1_costs)
        if status == "cap":
            return failed(f"iteration cap {ITERATION_CAP} hit in phase 1")
        if status in ("singular", "primal", "drift", "unbounded"):
            return LPSolution(
                "retry", math.nan, None, math.nan, counter.iterations, f"phase 1 {status}"
            )
        artificial_sum = float(tableau[:m, -1][basis >= n].sum())
        if artificial_sum > feasibility_tol:
            return LPSolution(
                "infeasible",
                math.nan,
                None,
                math.nan,
                counter.iterations,
                f"artificial residue {artificial_sum:.3e}",
            )
        # drive artificials out of the basis via the largest available pivot;
        # rows without one are redundant and keep their artificial at zero
        for row in range(m):
            if basis[row] < n:
                continue
            entries = np.abs(tableau[row, :n])
            col = int(np.argmax(entries))
            if entries[col] > 1e-7:
                _pivot(tableau, basis, row, col, scratch)
                counter.iterations += 1

    phase2_costs = np.concatenate([c, np.zeros(m)])
    status = optimize_verified(phase2_costs)
    if status == "cap":
        return failed(f"iteration cap {ITERATION_CAP} hit in phase 2")
    if status == "unbounded":
        return LPSolution("unbounded", math.inf, None, math.nan, counter.iterations, "")
    if status != "optimal":
        return LPSolution(
            "retry", math.nan, None, math.nan, counter.iterations, f"phase 2 {status}"
        )

    x_full = np.zeros(total)
    x_full[basis] = tableau[:m, -1]
    x = x_full[:n].copy()
    residual = float(np.max(np.abs(a0 @ x - b0))) if m else 0.0
    if x.size and float(x.min()) < -CERTIFICATE_VARIABLE_TOL:
        return LPSolution(
            "retry", math.nan, None, math.nan, counter.iterations, "negative variable"
        )
    if residual > CERTIFICATE_RESIDUAL_TOL:
        return LPSolution(
            "retry", math.nan, None, math.nan, counter.iterations, f"residual {residual:.3e}"
        )
    return LPSolution("optimal", float(c @ x), x, residual, counter.iterations)


def solve(lp: LinearProgram) -> LPSolution:
    """Two-phase simplex; returns a solution with exact status reporting.

    Every claimed verdict is re-checked against a tableau refactorized from
    the original data (dual and primal feasibility), so pivot roundoff can
    cost extra iterations but never a silently wrong answer.  If the default
    pivot rule fails verification, one full retry runs with Bland's rule
    from the first iteration before the solver reports failure.
    """
    counter = _Counter()
    solution = _solve_attempt(lp, counter, bland_start=False)
    if solution.status == "retry":
        solution = _solve_attempt(lp, counter, bland_start=True)
        if solution.status == "retry":
            return LPSolution(
                "failed",
                math.nan,
                None,
                math.nan,
                solution.iterations,
                f"verification failed twice: {solution.detail}",
            )
    return solution


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
