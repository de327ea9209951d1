"""Dense two-phase revised simplex for equality-form linear programs.

Solves max c.x subject to A x = b, x >= 0.  Tuned for the small dense
threshold problems in this package rather than generality:

- a starting basis named by the caller that is primal feasible skips
  phase 1, and so does one that is only dual feasible, after at most m dual
  simplex pivots.  The start is tried on the original rows only: one that
  factorizes proves them independent, and a rank-deficient LP accepts none.
  ``BasisPool`` keeps the optimal bases verified for a family of right-hand
  sides with one A and c, and answers from one that stays primal feasible
  without a solve;
- only when no start is accepted are the rows reduced to an orthonormal
  basis of A's row space.  Only some threshold LPs need it: the full
  probability LPs are rank-deficient (18 x 18 of rank 10 at N=2, 38 x 83
  of rank 26, 66 x 258 of rank 50, 102 x 627 of rank 82 at N=5), while
  every driver LP has full row rank.  The reduction takes the left singular
  vectors from an SVD of A, or, for A with at least 16 rows and more columns
  than rows, from the eigenvectors of A A^T when U^T A certifies that they
  span what the SVD would keep.  Phase 1 then runs on the reduced rows
  reflected by the Householder matrix H with H b = |b| e_1, so that it
  starts with one artificial above zero instead of all m (about a third
  fewer pivots at 102 x 627), and phase 2 starts from its basis factorized
  on the unreflected rows, the original ones at full row rank;
- each pivot updates only the m x m basis inverse and the basic values,
  [B^-1 | x_B], with one BLAS rank-1 product (prices and reduced costs are
  recomputed from them), and a refactorization solves the basis against
  [I | b] only, forming B^-1 A only when the bound |B^-1|_inf max|A_ij|
  leaves its check open;
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
from dataclasses import dataclass, field

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
        # a 1-D empty A stands for the empty b.size x c.size matrix
        if a.shape == (0,) and b.size * c.size == 0:
            a = a.reshape(b.size, c.size)
        if c.ndim != 1 or b.ndim != 1 or a.ndim != 2 or a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent shapes: A {a.shape}, b {b.shape}, c {c.shape}"
            )
        if b.size > MAX_ROWS or c.size > MAX_COLS:
            raise ValueError(f"problem too large: {b.size} rows, {c.size} columns")
        for name, arr in (("objective", c), ("constraint_matrix", a), ("rhs", b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        self.objective, self.constraint_matrix, self.rhs = c, a, b

    def checked_rhs(self, rhs) -> np.ndarray:
        """``rhs`` as a frozen array, if it is a finite right-hand side for
        this LP's rows; else ValueError."""
        b = np.array(rhs, dtype=float)
        if b.shape != self.rhs.shape:
            raise ValueError(f"rhs of shape {b.shape} for {self.n_rows} rows")
        if not np.isfinite(b).all():
            raise ValueError("rhs contains non-finite entries")
        return _frozen(b)

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
    # when optimal on the original rows: the B^-1 of ``basis`` that
    # _factorize produced and the solve verified, which ``BasisPool`` keeps
    inverse: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class CertificateReport:
    max_residual: float
    min_variable: float
    objective_recomputed: float
    objective_gap: float
    passed: bool


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _pivot(
    inverse: np.ndarray, basis: np.ndarray, column: np.ndarray, row: int, col: int
) -> None:
    """Enter ``col``, whose basis-inverse image is ``column`` (overwritten),
    on ``row``: one rank-1 update of [B^-1 | x_B].  The BLAS product makes
    one product and one subtraction per entry, as a broadcast does, so it
    gives the same bits."""
    inverse[row] *= 1.0 / column[row]
    column[row] = 0.0
    inverse -= np.dot(column[:, None], inverse[row : row + 1])
    basis[row] = col


def _factorize(data: np.ndarray, basis: np.ndarray, a_max: float) -> np.ndarray | None:
    """[B^-1 | x_B] of the ``basis`` columns of ``data`` = [A | I | b],
    solved against [I | b] only; ``a_max`` is max|A_ij|.

    Returns None when the basis is ill-conditioned (an entry of B^-1,
    x_B or B^-1 A above 1e8, or a condition number above 1e12), so the
    answer from a meaningless inverse can never be accepted.
    """
    m = data.shape[0]
    matrix = data.take(basis, axis=1)
    try:
        inverse = np.linalg.solve(matrix, data[:, -m - 1 :])
    except np.linalg.LinAlgError:
        return None
    magnitudes = np.abs(inverse)
    # each comparison is also false for a NaN or an infinity
    if not magnitudes.max(initial=0.0) <= 1e8:
        return None
    # |B^-1|_inf max|A_ij| bounds every entry of B^-1 A, which is formed only
    # when that bound leaves the check open
    inverse_norm = float(magnitudes[:, :m].sum(axis=1).max(initial=0.0))
    if (
        not inverse_norm * a_max <= 5e7
        and not np.abs(inverse[:, :m] @ data[:, : -m - 1]).max(initial=0.0) <= 1e8
    ):
        return None
    # the infinity-norm condition number, without extra factorizations
    cond = float(np.abs(matrix).sum(axis=1).max(initial=0.0) * inverse_norm)
    return None if cond > 1e12 else inverse


def _optimize(
    a: np.ndarray, costs: np.ndarray, inverse: np.ndarray, basis: np.ndarray, budget: int
) -> tuple[str, int, np.ndarray]:
    """Run simplex iterations until optimality, unboundedness, ``budget``
    pivots or another ``stall_limit`` pivots without a gain once Bland's rule
    engaged; returns the verdict ("optimal", "unbounded", "iteration cap ...
    hit" or "stalled under Bland's rule"), the pivots made and the prices
    c_B B^-1 of the basis it ends in.

    ``inverse`` is [B^-1 | x_B]: the basis inverse and the basic values.
    Only the structural columns of ``a`` may enter; ``costs`` also prices the
    artificial columns that may still be basic.
    """
    m, n = a.shape
    binv, values = inverse[:, :m], inverse[:, m]
    if n == 0:
        return "optimal", 0, costs[basis] @ binv
    structural = costs[:n]
    stall_limit = 5 * (m + n)
    best_objective = -math.inf
    pivots = 0
    stalled = 0
    bland = False
    while True:
        prices = costs[basis] @ binv
        reduced = structural - prices @ a
        # Bland's rule enters the lowest improving column
        col = int((reduced > PIVOT_TOL).argmax() if bland else reduced.argmax())
        gain = reduced.item(col)
        if gain <= PIVOT_TOL:
            return "optimal", pivots, prices
        column = binv @ a[:, col]
        eligible = (column > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return "unbounded", pivots, prices
        if pivots >= budget:
            return f"iteration cap {ITERATION_CAP} hit", pivots, prices
        if not pivots:
            # the objective the stall test follows, from the first pivot on
            objective = float(costs[basis] @ values)
        # roundoff can leave tiny negative basic values; clamping them for the
        # ratio test keeps degenerate rows tied at zero, where the tie-break
        # below can choose a well-scaled pivot element
        ratios = np.maximum(values[eligible], 0.0) / column[eligible]
        least = ratios.min().item()
        ties = eligible[ratios <= least + 1e-12 * max(1.0, least)]
        if bland:
            # lowest leaving index, required for anti-cycling
            row = int(ties[basis[ties].argmin()])
        else:
            # largest pivot element among ties, for numerical stability
            row = int(ties[column[ties].argmax()])
        _pivot(inverse, basis, column, row, col)
        pivots += 1
        # the entering variable's new value times its reduced cost
        objective += gain * values.item(row)
        if objective > best_objective + 1e-12:
            best_objective = objective
            stalled = 0
        else:
            stalled += 1
            if stalled > 2 * stall_limit:
                return "stalled under Bland's rule", pivots, prices
            if stalled > stall_limit:
                bland = True


def _dual_optimize(
    a: np.ndarray, c: np.ndarray, inverse: np.ndarray, basis: np.ndarray
) -> tuple[int, float] | None:
    """Dual simplex iterations on [B^-1 | x_B] of a basis of structural
    columns until no basic value is below -CERTIFICATE_VARIABLE_TOL; returns
    the pivots made and min(x_B, 0) at the end, or None when the basis is
    primal infeasible and not dual feasible (a reduced cost above
    PIVOT_TOL), when no column can enter or when m pivots do not suffice.

    The most negative basic value leaves, on row r, and of the columns with
    alpha_rj = (B^-1 a_j)_r below -PIVOT_TOL the one with the smallest
    |d_j / alpha_rj| enters (ties: the largest |alpha_rj|), which keeps every
    reduced cost d_j at most zero.
    """
    m = a.shape[0]
    binv, values = inverse[:, :m], inverse[:, m]
    pivots = 0
    while True:
        lowest = float(values.min(initial=0.0))
        if not lowest < -CERTIFICATE_VARIABLE_TOL:
            return pivots, lowest
        reduced = c - c[basis] @ binv @ a
        row = int(values.argmin())
        alpha = binv[row] @ a
        eligible = (alpha < -PIVOT_TOL).nonzero()[0]
        if (pivots == 0 and reduced.max() > PIVOT_TOL) or pivots == m or eligible.size == 0:
            return None
        ratios = np.abs(reduced[eligible]) / -alpha[eligible]
        least = ratios.min().item()
        ties = eligible[ratios <= least + 1e-12 * max(1.0, least)]
        col = int(ties[alpha[ties].argmin()])
        _pivot(inverse, basis, binv @ a[:, col], row, col)
        pivots += 1


def _accepted_start(
    data: np.ndarray, a_max: float, basis: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, int, float] | None:
    """[B^-1 | x_B], the dual simplex pivots and min(x_B, 0) of the starting
    ``basis`` of ``data`` = [A | I | b], whose max|A_ij| is ``a_max``, if it
    has one column per row, passes ``_factorize`` and is primal feasible as
    it is or after ``_dual_optimize`` (which pivots ``basis`` in place);
    else None."""
    if basis.size != data.shape[0]:
        return None
    inverse = _factorize(data, basis, a_max)
    if inverse is None:
        return None
    verdict = _dual_optimize(data[:, : c.size], c, inverse, basis)
    return None if verdict is None else (inverse, *verdict)


def _eigen_row_space(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(U, U^T A) from the eigenvectors V of A A^T, in descending order of
    eigenvalue, whose eigenvalues exceed 1e-12 times the largest, or None
    when V^T A does not certify them.

    The eigenvalues of A A^T resolve singular values of A only down to about
    1e-8 sigma_max, so the rank is checked on V^T A itself: every kept row
    must have a norm of at least 1e-6 sqrt(lambda_max), and the dropped rows
    a Frobenius norm of at most RANK_TOL sqrt(lambda_max).  Then A lies
    within RANK_TOL sigma_max of span U, as after the SVD's truncation.
    """
    values, vectors = np.linalg.eigh(a @ a.T)
    values, vectors = values[::-1], vectors[:, ::-1]
    scale = math.sqrt(max(float(values[0]), 0.0))
    kept = values > 1e-12 * values[0]
    rank = int(kept.sum())  # the eigenvalues descend, so ``kept`` is a prefix
    rows = vectors.T @ a
    if (
        np.linalg.norm(rows[:rank], axis=1).min(initial=math.inf) < 1e-6 * scale
        or np.linalg.norm(rows[rank:]) > RANK_TOL * scale
    ):
        return None
    # U stays a mask copy: its layout sets the bits of U^T b, whose signs
    # decide the rows that _row_space flips
    return vectors[:, kept], rows[:rank]


def _row_space(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """An orthonormal basis U of A's column space and the equalities
    U^T A x = U^T b over A's row space, as (U, U^T A, U^T b).

    U holds the left singular vectors of A whose singular values exceed
    RANK_TOL times the largest.  An A with at least 16 rows and more
    columns than rows takes them from the eigenvectors of the m x m matrix
    A A^T when ``_eigen_row_space`` certifies them, which never factorizes
    the m x n A: 2.2 ms against 19 ms for the SVD at 102 x 627 on two cores.
    Any other A, and one the certificate refuses, takes the plain SVD, which
    is as fast or faster at 10 rows.

    Returns None when b lies outside A's column space, so that A x = b has
    no solution at all.
    """
    m, n = a.shape
    certified = _eigen_row_space(a) if 16 <= m < n else None
    if certified is None:
        u, singular, _ = np.linalg.svd(a, full_matrices=False)
        u = u[:, singular > RANK_TOL * singular.max(initial=0.0)]
        rows = u.T @ a
    else:
        u, rows = certified
    # orient rows so the right-hand side is nonnegative
    flip = u.T @ b < 0.0
    u[:, flip] *= -1.0
    rows[flip] *= -1.0
    rhs = u.T @ b
    outside = float(np.abs(b - u @ rhs).max(initial=0.0))
    if outside > RANK_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
        return None
    return u, rows, rhs


def _reflected(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[H A | I | |b| e_1] for the Householder reflection H with H b = |b| e_1.

    v = b - |b| e_1 takes its first entry in the cancellation-free form
    -|b_2..m|^2 / (b_1 + |b|) (Golub & Van Loan, Algorithm 5.1.1), which
    needs b_1 >= 0, as the orientation in ``_row_space`` ensures.
    """
    norm = float(np.linalg.norm(b))
    tail = float(b[1:] @ b[1:])
    data = _augmented(a, np.zeros(b.size))
    data[:1, -1] = norm
    if tail > 0.0:
        v = b.copy()
        v[0] = -tail / (b[0] + norm)
        v *= math.sqrt(2.0 / (v[0] ** 2 + tail))
        data[:, : a.shape[1]] -= np.outer(v, v @ a)
    return data


def _augmented(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A | I | b]."""
    m, n = a.shape
    data = np.zeros((m, n + m + 1))
    data[:, :n] = a
    data[:, n:-1].flat[:: m + 1] = 1.0
    data[:, -1] = b
    return data


def solve(lp: LinearProgram, *, start: Sequence[int] | None = None) -> LPSolution:
    """Two-phase simplex on the independent rows; exact status reporting.

    Each phase's verdict is re-checked once against a basis inverse
    refactorized from its data (basis condition, primal and dual
    feasibility), and an optimum or an unbounded ray from scratch against
    the original rows (residual, variable signs, and for the ray an
    objective that grows): pivot roundoff can end a solve "failed", never
    with a silently wrong answer.

    ``start`` is a starting basis, distinct structural columns (else
    ValueError), tried on the original rows.  It is accepted if it has one
    column per row, passes the strict refactorization and then leaves no
    basic value below -CERTIFICATE_VARIABLE_TOL or, having no reduced cost
    above PIVOT_TOL, reaches such values within m dual simplex pivots
    (``_dual_optimize``), whose basis phase 2 refactorizes.  An accepted
    start replaces phase 1 and proves the rows independent, so they are not
    reduced; a rank-deficient LP accepts none.  A rejected start leaves the
    solve as it was.  Without an accepted start, the equalities are
    replaced by an orthonormal basis of their row space, so redundant rows
    never reach the basis and every phase-1 artificial leaves it, and phase
    1 runs on them, reflected by ``_reflected``.  Phase 2 starts from a
    basis factorized on the unreflected rows, the original ones at full row
    rank, so a solve from a starting basis and a solve without one that
    ends in that basis agree bit for bit.  An optimal solution carries its
    ``basis``, a start for LPs with the same A, b when A has full row rank,
    and its ``dual`` y over the original rows (b.y is the optimum and c -
    A^T y <= 0): the prices c_B B^-1 from the verified final basis inverse,
    mapped back by U when phase 2 ran on reduced rows.  When phase 2 ran on
    the original rows it also carries that ``inverse``.
    """
    c = lp.objective
    a0 = lp.constraint_matrix
    b0 = lp.rhs
    n = c.size
    m = b0.size
    iterations = 0
    accepted = None
    if start is not None:
        columns = list(map(operator.index, start))
        if (
            len(set(columns)) != len(columns)
            or min(columns, default=0) < 0
            or max(columns, default=-1) >= n
        ):
            raise ValueError(f"a start must name distinct columns in 0..{n - 1}")
        # [A | I | b] on the original rows, which a start is tried on
        data, a_max = _augmented(a0, b0), float(np.abs(a0).max(initial=0.0))
        basis = np.array(columns, dtype=int)
        accepted = _accepted_start(data, a_max, basis, c)

    def unsolved(status: str, detail: str) -> LPSolution:
        return LPSolution(status, math.nan, None, math.nan, iterations, detail)

    def optimum(prices: np.ndarray) -> LPSolution:
        """The optimum of ``basis`` and the verified ``inverse``, whose
        c_B B^-1 are ``prices``, checked from scratch against the original
        rows."""
        x = np.zeros(n)
        x[basis] = inverse[:, m]
        residual = float(np.abs(a0 @ x - b0).max(initial=0.0))
        # min(x_B, 0) of the verified inverse is min(x, 0)
        if lowest < -CERTIFICATE_VARIABLE_TOL:
            return unsolved("failed", "negative variable")
        if residual > CERTIFICATE_RESIDUAL_TOL:
            return unsolved("failed", f"residual {residual:.3e}")
        solution = LPSolution(
            "optimal", float(c @ x), x, residual, iterations, "", tuple(basis.tolist()), prices
        )
        if u is None:
            solution.inverse = _frozen(inverse[:, :m])
        else:
            solution.dual = u @ prices
        return solution

    u = None  # U of the reduced rows, when phase 2 runs on them
    prices = None  # c_B B^-1 of the verified inverse, from optimize_verified

    def optimize_verified(costs: np.ndarray, data: np.ndarray, a_max: float) -> str:
        """Optimize over ``data`` = [A | I | b], with max|A_ij| ``a_max``,
        then check the verdict once against refactorized data.  Leaves the
        prices c_B B^-1 of the verified inverse in ``prices`` (after an
        "optimal") and its min(x_B, 0) in ``lowest``."""
        nonlocal inverse, factorized, iterations, lowest, prices
        a = data[:, :n]
        status, pivots, prices = _optimize(
            a, costs, inverse, basis, ITERATION_CAP - iterations
        )
        iterations += pivots
        if status not in ("optimal", "unbounded"):
            return status
        # without a pivot since the last factorization, a second one would
        # rebuild the same inverse from the same basis
        unchanged = not pivots and factorized
        if not unchanged:
            inverse = _factorize(data, basis, a_max)
            if inverse is None:
                return "ill-conditioned basis on refactorization"
            factorized = True
            lowest = None
        if lowest is None:
            lowest = float(inverse[:, m].min(initial=0.0))
        if lowest < -feasibility_tol:
            return "primal infeasible on refactorization"
        # an unbounded ray is checked at the end of solve; on an unchanged
        # inverse _optimize has just priced every column as below
        if status == "unbounded" or unchanged:
            return status
        prices = costs[basis] @ inverse[:, :m]
        improving = (costs[:n] - prices @ a > PIVOT_TOL).any()
        return "dual infeasible on refactorization" if improving else "optimal"

    # whether ``inverse`` was factorized from ``basis`` with no pivot since.
    # Dual simplex pivots and phase 1 start it False, so that their basis is
    # refactorized even after no primal pivot; for phase 1 that is the only
    # check that rejects reduced rows with an entry above 1e8.  Without it,
    # LinearProgram([0, 1], [[1e9, 1]], [0]), whose only feasible point is
    # x = 0, passes phase 1 and only the ray check stops phase 2's "unbounded".
    # ``lowest`` is min(x_B, 0) of ``inverse``, or None until it is taken
    if accepted is not None:
        inverse, pivots, lowest = accepted
        iterations += pivots
        factorized = pivots == 0
    feasibility_tol = 1e-9 * max(1.0, float(np.abs(b0).max(initial=0.0)))
    if accepted is None:
        # the reduced rows replace the original ones only when no start is
        # accepted, and [A | I | b] of the original rows is built only when
        # phase 2 runs on them
        reduced = _row_space(a0, b0)
        if reduced is None:
            return unsolved("infeasible", "rhs outside the column space of A")
        u, a, b = reduced
        if b.size == b0.size:
            u = None  # full row rank: phase 2 stays on the original rows
            if start is None:
                data, a_max = _augmented(a0, b0), float(np.abs(a0).max(initial=0.0))
        else:
            data = _augmented(a, b)
            a_max = float(np.abs(a).max(initial=0.0))
            m = b.size
        # phase 1 runs on the rows reflected so that b = |b| e_1: it starts
        # with a single artificial above zero
        reflected = _reflected(a, b)
        basis = np.arange(n, n + m)
        inverse = reflected[:, n:].copy()
        factorized = False
        status = optimize_verified(
            np.concatenate([np.zeros(n), -np.ones(m)]),
            reflected,
            float(np.abs(reflected[:, :n]).max(initial=0.0)),
        )
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
        inverse = _factorize(data, basis, a_max)
        if inverse is None:
            return unsolved("failed", "phase 1 ill-conditioned basis on refactorization")
        lowest = None

    # only structural columns are basic now, so c prices every basis
    status = optimize_verified(c, data, a_max)
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
    return optimum(prices)


class BasisPool:
    """The optimal bases verified for LPs that share ``lp``'s A and c, each
    kept as the solution ``solve`` verified it in.

    With A and c fixed, a verified basis is dual feasible for every rhs, so
    it is optimal for any rhs it stays primal feasible for.  ``solve(rhs)``
    tries the basis that answered the last LP first, with its own x_B =
    B^-1 b, then the others in the order they joined, with one product over
    their stacked inverses.  The first basis whose x_B has no entry above
    1e8 and none below -CERTIFICATE_VARIABLE_TOL, and whose x meets the
    original rows to CERTIFICATE_RESIDUAL_TOL, answers with no pivot and no
    factorization: its x, the dual its solve verified, and no ``inverse`` of
    its own.  When none does, ``solve`` re-solves the LP from the last basis
    (cold while the pool is empty), which it refactorizes before any dual
    simplex pivot, and an optimal result with a B^-1 joins the pool.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        self.solutions: list[LPSolution] = []  # in the order they joined
        self._inverses = np.empty((0, lp.n_rows))  # their B^-1, stacked
        self._last = -1  # the index of the basis that answered the last LP

    def solve(self, rhs) -> LPSolution:
        """The optimum of ``lp`` at the right-hand side ``rhs``."""
        b = self.lp.checked_rhs(rhs)
        if self.solutions:
            last = self._last
            answer = self._answer(last, self.solutions[last].inverse @ b, b)
            if answer is None:
                stacked = (self._inverses @ b).reshape(-1, b.size)
                passing = (np.abs(stacked).max(axis=1) <= 1e8) & (
                    stacked.min(axis=1) >= -CERTIFICATE_VARIABLE_TOL
                )
                passing[last] = False
                for index in passing.nonzero()[0].tolist():
                    answer = self._answer(index, stacked[index], b)
                    if answer is not None:
                        break
            if answer is not None:
                return answer
        start = self.solutions[self._last].basis if self.solutions else None
        lp = LinearProgram(self.lp.objective, self.lp.constraint_matrix, b)
        solution = solve(lp, start=start)
        if solution.status == "optimal" and solution.inverse is not None:
            self._last = len(self.solutions)
            self.solutions.append(solution)
            self._inverses = np.concatenate([self._inverses, solution.inverse])
        return solution

    def _answer(self, index: int, values: np.ndarray, b: np.ndarray) -> LPSolution | None:
        """The optimum at ``b`` of pooled basis ``index``, whose x_B are
        ``values``, if it passes the checks; then it answers the next LP
        first."""
        if not (
            np.abs(values).max(initial=0.0) <= 1e8
            and values.min(initial=0.0) >= -CERTIFICATE_VARIABLE_TOL
        ):
            return None
        pooled = self.solutions[index]
        x = np.zeros(self.lp.n_cols)
        x[list(pooled.basis)] = values
        residual = float(np.abs(self.lp.constraint_matrix @ x - b).max(initial=0.0))
        if residual > CERTIFICATE_RESIDUAL_TOL:
            return None
        self._last = index
        return LPSolution(
            "optimal", float(self.lp.objective @ x), x, residual, 0, "", pooled.basis, pooled.dual
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
