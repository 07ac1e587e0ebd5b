"""Small dense linear programs via the two-phase simplex method.

Problems are stated as: minimize ``c @ x`` subject to ``rows @ x <= bounds``
with every variable free; a bound on a variable is one more row.  Pivoting
follows Bland's rule (lowest eligible index enters; ties in the ratio test
leave by lowest basis index), which makes the solver deterministic and immune
to cycling.  Intended for the small programs produced by the planners here,
not for large-scale use.

A solve may start from the optimal basis of an earlier, similar problem.  If
that basis is still primal and dual feasible the solver returns its vertex
after one small linear solve; if not, it falls back to the two-phase method.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9  # pivot / feasibility tolerance
SOL_TOL = 1e-7  # phase-1 residual above this means infeasible
MAX_ITER = 100_000  # pivots per simplex phase before giving up

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPProblem:
    """minimize c @ x  s.t.  rows @ x <= bounds,  x free."""

    c: np.ndarray
    rows: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, self.c.shape[0])
        self.bounds = np.atleast_1d(np.asarray(self.bounds, dtype=float))
        if self.bounds.shape != (self.rows.shape[0],):
            raise ValueError("one bound per constraint row required")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    # Not read here; the benchmark's tracer sizes the tableau from these names.
    @property
    def lower(self) -> np.ndarray:
        return np.full(self.n_vars, -np.inf)

    @property
    def upper(self) -> np.ndarray:
        return np.full(self.n_vars, np.inf)


@dataclass
class LPSolution:
    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    # Basic columns of the optimal standard-form basis, ascending (see
    # ``_standard_form``); set on every optimal solution.
    basis: tuple[int, ...] | None = None
    warm: bool = False  # the start basis was certified optimal; no pivot ran


def _standard_form(problem: LPProblem) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite ``problem`` as: minimize c @ u  s.t.  A u + s = b,  u >= 0,  s >= 0.

    Returns ``(A, c)``; b is ``problem.bounds``.  Each free variable splits
    into a +/- pair, x_i = u_2i - u_2i+1, so columns 0..2n-1 of the standard
    form are the structural variables u and columns 2n..2n+m-1 the slacks s,
    one per row.
    """
    A = np.repeat(problem.rows, 2, axis=1)
    A[:, 1::2] *= -1.0
    c = np.repeat(problem.c, 2)
    c[1::2] *= -1.0
    return A, c


def _optimal(
    problem: LPProblem, u: np.ndarray, basis: Sequence[int], warm: bool = False
) -> LPSolution:
    x = u[0::2] - u[1::2]
    return LPSolution(OPTIMAL, x, float(problem.c @ x), tuple(sorted(basis)), warm)


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])


def _run_simplex(tab: np.ndarray, basis: list[int], max_iter: int) -> str:
    """Iterate on a tableau whose last row holds reduced costs.

    ``tab`` is (m+1, n+1): constraint rows with the rhs in the last column,
    then the reduced-cost row (objective negated in its last cell).
    """
    m = len(basis)
    for _ in range(max_iter):
        rc = tab[-1, :-1]
        eligible = np.nonzero(rc < -FEAS_TOL)[0]
        if eligible.size == 0:
            return OPTIMAL
        col = int(eligible[0])  # Bland: lowest index enters
        colvals = tab[:m, col]
        positive = colvals > FEAS_TOL
        if not np.any(positive):
            return UNBOUNDED
        ratios = np.full(m, np.inf)
        ratios[positive] = tab[:m, -1][positive] / colvals[positive]
        best = float(ratios.min())
        ties = np.nonzero(ratios <= best + FEAS_TOL * (1.0 + abs(best)))[0]
        leave = int(ties[np.argmin(np.asarray(basis)[ties])])  # Bland: lowest basis index leaves
        _pivot(tab, leave, col)
        basis[leave] = col
    raise RuntimeError("simplex exceeded its iteration limit")


def _check_start(start: Sequence[int], n_columns: int, m: int) -> np.ndarray:
    """Boolean mask of the start basis over the standard-form columns."""
    idx = np.asarray(start)
    if idx.shape != (m,) or (
        m and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= n_columns)
    ):
        raise ValueError(f"start basis must list {m} standard-form columns in [0, {n_columns})")
    basic = np.zeros(n_columns, dtype=bool)
    basic[idx.astype(int)] = True  # an empty start reads as float
    if np.count_nonzero(basic) != m:
        raise ValueError("start basis columns must be distinct")
    return basic


def _warm_vertex(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basic: np.ndarray
) -> np.ndarray | None:
    """The structural values u of the start basis if it is optimal here, else None.

    Rows whose slack is nonbasic are tight, so the basic structural columns J
    solve the q x q system A[tight, J] u_J = b[tight]; the row duals pi solve
    its transpose against c_J.  The vertex is returned only when it is primal
    feasible (u_J and every slack >= -FEAS_TOL) and dual feasible (pi <=
    FEAS_TOL on the tight rows, every reduced cost >= -FEAS_TOL) for this very
    problem, which certifies it optimal whatever changed since the start basis
    was found.
    """
    n_u = c.size
    J = np.nonzero(basic[:n_u])[0]
    tight = np.nonzero(~basic[n_u:])[0]
    A_tight = A[tight]
    square = A_tight[:, J]
    try:
        u_J = np.linalg.solve(square, b[tight])
        pi = np.linalg.solve(square.T, c[J])
    except np.linalg.LinAlgError:  # singular: the start is no basis of this problem
        return None
    slack = b - A[:, J] @ u_J
    reduced = c - A_tight.T @ pi
    if not (
        (u_J >= -FEAS_TOL).all()
        and (slack >= -FEAS_TOL).all()
        and (pi <= FEAS_TOL).all()
        and (reduced >= -FEAS_TOL).all()
    ):  # written so that a NaN fails too
        return None
    u = np.zeros(n_u)
    u[J] = u_J
    return u


def solve_lp(problem: LPProblem, start: Sequence[int] | None = None) -> LPSolution:
    """Two-phase simplex; returns status optimal/infeasible/unbounded.

    ``start`` is an optional basis, usually ``LPSolution.basis`` of an earlier
    solve of a problem of the same shape.  When it is still optimal for this
    problem the solver returns its vertex without pivoting (``warm`` is set);
    otherwise, or when the start is singular here, it solves cold.  A start of
    the wrong length, or with out-of-range or repeated columns, raises
    ``ValueError``.
    """
    A, c_u = _standard_form(problem)
    b = problem.bounds
    n_u = c_u.size
    m = A.shape[0]
    if start is not None:
        basic = _check_start(start, n_u + m, m)
        u = _warm_vertex(A, b, c_u, basic)
        if u is not None:
            return _optimal(problem, u, np.nonzero(basic)[0].tolist(), warm=True)

    # Slack form A u + s = b with b >= 0; flipped rows get artificials.
    flip = b < 0
    A_std = np.hstack([A, np.eye(m)])
    A_std[flip] *= -1.0
    b_std = np.where(flip, -b, b)
    flip_rows = np.nonzero(flip)[0]
    n_art = flip_rows.size
    art_cols = np.zeros((m, n_art))
    for k, r in enumerate(flip_rows):
        art_cols[r, k] = 1.0
    full = np.hstack([A_std, art_cols])
    n_total = full.shape[1]

    basis = [0] * m
    for r in range(m):
        basis[r] = n_u + r  # slack
    for k, r in enumerate(flip_rows):
        basis[r] = n_u + m + k  # artificial

    tab = np.zeros((m + 1, n_total + 1))
    tab[:m, :n_total] = full
    tab[:m, -1] = b_std
    # Phase-1 reduced costs: cost 1 on artificials, priced out for the basis.
    for r in flip_rows:
        tab[-1] -= tab[r]
    tab[-1, n_u + m : n_total] += 1.0

    if n_art:
        status = _run_simplex(tab, basis, MAX_ITER)
        if status != OPTIMAL:  # phase 1 cannot be unbounded; defensive
            return LPSolution(INFEASIBLE)
        if -tab[-1, -1] > SOL_TOL:
            return LPSolution(INFEASIBLE)
        # Drive surviving artificials out of the basis (degenerate rows).  The
        # slack columns make [A | I] full row rank, so each such row has a
        # nonzero structural or slack entry to pivot on.
        for r in range(m):
            if basis[r] >= n_u + m:
                col = int(np.nonzero(np.abs(tab[r, : n_u + m]) > FEAS_TOL)[0][0])
                _pivot(tab, r, col)
                basis[r] = col

    # Phase 2: real objective over structural + slack columns.
    tab = np.hstack([tab[:, : n_u + m], tab[:, -1:]])
    c_full = np.concatenate([c_u, np.zeros(m)])
    zrow = np.concatenate([c_full, [0.0]])
    for r, bv in enumerate(basis):
        if c_full[bv] != 0.0:
            zrow -= c_full[bv] * tab[r]
    tab[-1] = zrow

    status = _run_simplex(tab, basis, MAX_ITER)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED)

    u = np.zeros(n_u + m)
    for r, bv in enumerate(basis):
        u[bv] = tab[r, -1]
    return _optimal(problem, u[:n_u], basis)
