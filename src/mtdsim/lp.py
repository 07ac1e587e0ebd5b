"""Small dense linear programs via the simplex method: two-phase, or a dual restart.

Problems are stated as: minimize ``c @ x`` subject to ``rows @ x <= bounds``
with every variable free; a bound on a variable is one more row.  Pivoting
follows Bland's rule (lowest eligible index enters; ties in the ratio test
leave by lowest basis index), which makes the solver deterministic and immune
to cycling.  The least ratio is read by index (``domain.extremum``), bitwise a
reduction's but for the sign of a zero, which the tie band cannot see.
Intended for the small programs produced by the planners here, not for
large-scale use.

A pivot updates only the tableau columns in which the normalised pivot row is
nonzero.  The ALP's rows are sparse (a pivot row of the 4-node network ALP has
at most 19 nonzeros of 530), and a column whose pivot-row entry is zero would
only have +-0 subtracted, which leaves its values unchanged: at most a -0.0
would have become +0.0.  The solver divides only by entries above
``FEAS_TOL``, so the sign of a zero never reaches a nonzero value.

Every optimal solve issues a ``Certificate`` for its final basis, and every
optimal x comes from it: the basic values solve the certificate's tight
system at the problem's bounds (``_tight_values``), never read off a tableau,
so a warm re-check, a dual restart and a cold solve that end on one basis
return bitwise one x.  The simplex stops only once every reduced cost is
>= -``FEAS_TOL``, so that basis is dual feasible for the problem's ``c`` and
``rows``, which does not depend on the bounds.  A later solve may start from
the solution in two ways:

- Same rows, new bounds: when the problem's ``c`` and ``rows`` equal the
  certified ones, one primal check decides: the vertex is returned if its
  basic values and every slack are nonnegative.  Otherwise the basis is
  still dual feasible, since only the bounds moved, and the dual simplex
  restarts from it, as below with every row kept.
- Added rows (``kept`` names where the certified rows sit among the
  problem's): the certified basis plus the new rows' slacks is still dual
  feasible, since a new row's dual is 0.  A tableau is B^-1 [A | I | b] for
  its basis B (Bertsimas & Tsitsiklis, section 3.3), so the restart's comes
  by block elimination from one solve of the certificate's k x k tight
  system, with no pivot: the solve gives the tight rows, restricted to the
  columns they touch (their structural columns, their slacks and the rhs),
  and one matrix product prices those columns out of every other row and
  out of the cost row.  No other column changes, since the tight rows are
  zero in it (see ``_restart_tableau``).  A dual simplex (Bland's dual rule: the lowest-index
  infeasible basic variable leaves, the minimum ratio enters, lowest column
  on ties) then pivots until the new rows hold, and runs the primal pass
  that ends phase 2 too.  When a leaving row has no entering column, its
  multipliers must check as a Farkas proof on the problem's own rows and
  bounds for the solver to report the problem infeasible; otherwise it
  raises ``NumericalError``.

A given ``kept`` must be a 1-D integer array (not a boolean mask) of
distinct row positions in [0, m) for a problem of m rows, or empty;
``solve_lp`` checks it before it tries either start, else ``ValueError``.

Any other start (no certificate, another objective, other or differently
shaped rows), or a restart whose tight system LAPACK cannot factor
(``Certificate.factors``), solves with the two-phase method.

Primal feasibility has one tolerance, ``FEAS_TOL``: the warm re-check, the
dual simplex and phase 1 all accept a vertex within it.  Phase 1 scales it
by the larger of 1 and its starting residual (the sum it minimises).  The
floor keeps a conflict far inside the tolerance optimal: x <= -1e-12 and
x >= 0 end phase 1 at a residual of 1e-12, and no proof checks for a gap
that small.

The solver reports ``INFEASIBLE`` only with a proof: multipliers y >= 0
with y @ rows = 0 and y @ bounds < 0, which ``_is_farkas_proof`` checks on
the problem's own rows and bounds.  Phase 2 and a dual restart report
``UNBOUNDED`` only with a ray d, rows @ d <= 0 and c @ d < 0, which
``_is_ray`` checks on the problem's own rows and cost.  Each certificate
is judged by the sizes it combines, with no absolute floor: a proof's two
sums against ``FEAS_TOL`` times the magnitudes they add, a ray's product
with a row against ``FEAS_TOL`` times that row's largest entry times d's.
Any positive multiple of a certificate is one too, and multiplying a row
and its bound by a power of two changes neither the problem nor, since it
rounds nothing, a verdict.  Only phase 1's tolerance keeps its floor of 1,
for the gap-1e-12 conflict above.  Two exits hand the proof check multipliers.
Phase 1 minimises the sum of the artificial variables; when it stops
unbounded (it is bounded below by 0, so only a breakdown does), ends above
``FEAS_TOL`` times the larger of 1 and its starting residual, or started from
an overflowed residual, its multipliers are the slack columns' reduced costs,
the duals of its rows (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, 1997, sections 3.5 and 4.6).  When a dual restart's
leaving row finds no entering column, they are that row's slack entries.
If the check fails, the tableau has broken down numerically and the solver
cannot tell the problem's status: it raises ``NumericalError`` with the
pivot count and the residual instead of guessing one.  So does a simplex
whose least ratio is not finite (an overflow), or that is neither optimal
nor unbounded after ``MAX_ITER`` pivots, an unbounded stop whose ray does
not check, and an optimal stop whose final basis LAPACK cannot factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import solve as _solve
from numpy.linalg._umath_linalg import solve1 as _solve1

from .domain import extremum, float_array, is_index_array

FEAS_TOL = 1e-9  # pivot / feasibility tolerance
MAX_ITER = 100_000  # pivots per simplex phase before giving up

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class NumericalError(RuntimeError):
    """The simplex broke down numerically, so the problem's status is unknown.

    ``pivots`` counts the pivots run before the breakdown and ``residual`` is
    the infeasibility where it stopped: the phase-1 objective (the summed
    artificial values; a primal pass past phase 1 gives its objective), or
    the negated value of the dual simplex's leaving basic variable (at its
    iteration limit, of its most infeasible one).
    """

    def __init__(self, message: str, pivots: int, residual: float):
        super().__init__(message)
        self.pivots = pivots
        self.residual = residual


@dataclass
class LPProblem:
    """minimize c @ x  s.t.  rows @ x <= bounds,  x free.

    A float64 ``np.ndarray`` of the right rank (1 for ``c`` and ``bounds``, 2
    for ``rows``) is kept as it is handed in, by identity; ``solve_lp``
    re-checks a problem that holds a certificate's own arrays without
    comparing them.  Anything else is converted as
    ``np.asarray(value, dtype=float)`` does, with a 0-d ``c`` or ``bounds``
    raised to 1-D.
    """

    c: np.ndarray
    rows: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        self.c = float_array(self.c, 1)
        self.rows = float_array(self.rows, 2)
        if self.rows.ndim != 2 or self.rows.shape[1] != self.c.shape[0]:
            raise ValueError("rows must be an (m, n) array, one column per variable")
        self.bounds = float_array(self.bounds, 1)
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


@dataclass(frozen=True, eq=False)
class Certificate:
    """The optimal basis of a solve, dual feasible for its ``c`` and ``rows``.

    Holds read-only copies of the ``c`` and ``rows`` it was solved for, the
    basis, and the parts of the standard form (see ``_standard_form``) that
    the primal re-check reads.  A problem built on those very arrays needs no
    comparison to be re-checked; one with arrays of its own is compared entry
    by entry.

    Whether LAPACK factors ``square`` depends on ``square`` alone, so the
    certificate decides it once, when it is made (``factors``), and so does a
    copy made by ``dataclasses.replace``; the gufunc behind ``np.linalg.solve``
    flags a singular system as an invalid operation and clears every other
    flag itself.  ``u_limit`` is worked out once, at the first re-check: while
    every |u_J| is below it, no partial sum of ``columns @ u_J`` passes 2^1023
    (none exceeds len(J) times the largest |entry| of ``columns`` times the
    largest |u_J|).
    """

    c: np.ndarray
    rows: np.ndarray
    basis: tuple[int, ...]  # basic standard-form columns, ascending
    J: np.ndarray  # basic structural columns
    tight: np.ndarray  # rows whose slack is nonbasic
    square: np.ndarray  # A[tight, J]
    columns: np.ndarray  # A[:, J]
    factors: bool = field(init=False)  # False when ``square`` is singular

    @cached_property
    def u_limit(self) -> float:
        size = extremum(np.abs(self.columns), 0.0, greatest=True) * len(self.J)  # inf past range
        return 2.0**1023 / size if size else np.inf

    def __post_init__(self) -> None:
        try:
            with np.errstate(invalid="raise"):
                _solve1(self.square, np.zeros(len(self.square)), signature="dd->d")
        except FloatingPointError:
            return object.__setattr__(self, "factors", False)
        object.__setattr__(self, "factors", True)


@dataclass
class LPSolution:
    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    # Basic columns of the optimal standard-form basis, ascending (see
    # ``_standard_form``); set on every optimal solution.
    basis: tuple[int, ...] | None = None
    # The basis's certificate; set on every optimal solution.
    certificate: Certificate | None = field(default=None, repr=False, compare=False)
    # Pivots of the solve: phase 1 plus phase 2, or the dual restart's; 0 for a warm start.
    pivots: int = 0
    # Set when the start's certificate held under these bounds and no pivot ran.
    warm: bool = False


def _standard_form(problem: LPProblem) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite ``problem`` as: minimize c @ u  s.t.  A u + s = b,  u >= 0,  s >= 0.

    Returns ``(A, c)``; b is ``problem.bounds``.  Each free variable splits
    into a +/- pair, x_i = u_2i - u_2i+1, so columns 0..2n-1 of the standard
    form are the structural variables u and columns 2n..2n+m-1 the slacks s,
    one per row.
    """
    rows, m, n = problem.rows, problem.n_rows, problem.n_vars
    A, c = np.empty((m, 2 * n)), np.empty(2 * n)
    A[:, 0::2] = rows
    np.negative(rows, out=A[:, 1::2])
    c[0::2] = problem.c
    np.negative(problem.c, out=c[1::2])
    return A, c


def _optimal(
    problem: LPProblem, cert: Certificate, u_J: np.ndarray, pivots: int = 0, warm: bool = False
) -> LPSolution:
    """The solution at ``cert``'s basis whose basic structural values are ``u_J``."""
    u = np.zeros(2 * problem.n_vars)
    u[cert.J] = u_J
    x = u[0::2] - u[1::2]
    return LPSolution(OPTIMAL, x, float(problem.c.dot(x)), cert.basis, cert, pivots, warm)


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``tab[row, col]``; only the columns the pivot row is nonzero in change."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    nz = tab[row].nonzero()[0]
    cols = tab.take(nz, axis=1)  # take and a plain store beat an in-place fancy-index update
    cols -= factors[:, None] * cols[row]
    tab[:, nz] = cols


def _run_simplex(tab: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Iterate on a tableau whose last row holds reduced costs; returns (status, pivots).

    ``tab`` is (m+1, n+1): constraint rows with the rhs in the last column,
    then the reduced-cost row (objective negated in its last cell).  ``tab`` and
    ``basis`` (``intp``, each row's basic column) are updated in place.  The
    ratio test looks only at the rows whose pivot-column entry exceeds ``FEAS_TOL``.
    Raises ``NumericalError`` when the least ratio is not finite, or when
    ``max_iter`` pivots leave it neither optimal nor unbounded.
    """
    m = len(basis)
    rc, rhs = tab[-1, :-1], tab[:m, -1]  # views: pivots write into ``tab`` in place
    if rc.size == 0:  # no column can enter (and ``argmax`` needs one)
        return OPTIMAL, 0
    for pivots in range(max_iter + 1):  # the last pass only reads the tableau's status
        below = rc < -FEAS_TOL
        col = int(below.argmax())  # Bland: lowest eligible index enters
        if not below[col]:
            return OPTIMAL, pivots
        colvals = tab[:m, col]
        pos = (colvals > FEAS_TOL).nonzero()[0]
        if pos.size == 0:
            return UNBOUNDED, pivots
        if pivots == max_iter:
            break
        ratios = rhs[pos] / colvals[pos]
        best = extremum(ratios, np.inf)
        if not abs(best) < np.inf:  # an overflow (or NaN) leaves no ratio to compare
            raise NumericalError(f"simplex met a ratio of {best}", pivots, float(-tab[-1, -1]))
        ties = pos[ratios <= best + FEAS_TOL * (1.0 + abs(best))]
        leave = int(ties[basis[ties].argmin()])  # Bland: lowest basis index leaves
        _pivot(tab, leave, col)
        basis[leave] = col
    raise NumericalError(f"simplex ran out of {max_iter} pivots", max_iter, float(-tab[-1, -1]))


def _run_dual_simplex(tab: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int, int]:
    """Dual simplex on a dual-feasible tableau laid out as for ``_run_simplex``.

    Returns (status, pivots, row): ``OPTIMAL`` once every rhs is
    >= -``FEAS_TOL``, or ``INFEASIBLE`` with the leaving row whose ratio
    test found no entering column (its row is then a candidate Farkas
    proof).  Bland's dual rule: the infeasible row with the lowest basis
    index leaves, and the column of minimum ratio reduced cost / -entry
    among the entries below -``FEAS_TOL`` enters, the lowest on ties.  Raises
    ``NumericalError`` as ``_run_simplex`` does.
    """
    m = len(basis)
    rc, rhs = tab[-1, :-1], tab[:m, -1]  # views: pivots write into ``tab`` in place
    for pivots in range(max_iter + 1):  # the last pass only reads the tableau's status
        below = (rhs < -FEAS_TOL).nonzero()[0]
        if below.size == 0:
            return OPTIMAL, pivots, -1
        leave = int(below[basis[below].argmin()])  # Bland: lowest basis index leaves
        rowvals = tab[leave, :-1]
        neg = (rowvals < -FEAS_TOL).nonzero()[0]
        if neg.size == 0:
            return INFEASIBLE, pivots, leave
        if pivots == max_iter:
            break
        ratios = rc[neg] / -rowvals[neg]
        best = extremum(ratios, np.inf)
        if not abs(best) < np.inf:  # an overflow (or NaN) leaves no ratio to compare
            raise NumericalError(f"dual simplex met a ratio of {best}", pivots, float(-rhs[leave]))
        col = int(neg[(ratios <= best + FEAS_TOL * (1.0 + abs(best))).argmax()])  # lowest tie
        _pivot(tab, leave, col)
        basis[leave] = col
    raise NumericalError(f"dual simplex ran out of {max_iter} pivots", max_iter, float(-rhs.min()))


def _is_farkas_proof(problem: LPProblem, y: np.ndarray) -> bool:
    """Whether multipliers ``y`` prove ``rows @ x <= bounds`` infeasible.

    Within tolerance: y >= -``FEAS_TOL`` times y's largest entry, and, with
    y clipped at 0, |y @ rows| <= ``FEAS_TOL`` * (y @ |rows|) (every x is
    free) and y @ bounds < -``FEAS_TOL`` * (y @ |bounds|).  Each sum is judged
    by the magnitudes it combines, with no absolute floor, so ``y`` and the
    problem's rows and bounds may each be scaled by a power of two without
    changing the verdict.
    """
    if (y < -FEAS_TOL * y.max(initial=0.0)).any():
        return False
    y = np.maximum(y, 0.0)
    return bool(
        (np.abs(y @ problem.rows) <= FEAS_TOL * (y @ np.abs(problem.rows))).all()
        and y @ problem.bounds < -FEAS_TOL * (y @ np.abs(problem.bounds))
    )


def _no_optimum(
    problem: LPProblem, y: np.ndarray, stop: str, pivots: int, residual: float
) -> LPSolution:
    """``INFEASIBLE`` if multipliers ``y`` prove it, else ``NumericalError``.

    ``stop`` says where the simplex stopped, for the error message.
    """
    if _is_farkas_proof(problem, y):
        return LPSolution(INFEASIBLE)
    raise NumericalError(
        f"{stop} after {pivots} pivots at a residual of {residual:.3g}, "
        "and its multipliers are no proof of infeasibility",
        pivots,
        residual,
    )


def _certificate(problem: LPProblem, A: np.ndarray, basis: np.ndarray) -> Certificate:
    """The certificate of ``basis``, an optimal basis of ``problem`` in standard form ``A``.

    Rows whose slack is nonbasic are tight, and the basic structural columns
    J over them form the square system A[tight, J] that the re-check solves.
    """
    n_u = A.shape[1]
    basic = np.zeros(n_u + A.shape[0], dtype=bool)
    basic[basis] = True
    J = np.nonzero(basic[:n_u])[0]
    tight = np.nonzero(~basic[n_u:])[0]
    c, rows, columns = problem.c.copy(), problem.rows.copy(), A[:, J]
    c.flags.writeable = rows.flags.writeable = False
    return Certificate(c, rows, tuple(sorted(basis.tolist())), J, tight, columns[tight], columns)


def _tight_values(cert: Certificate, b: np.ndarray) -> np.ndarray:
    """u_J, the basic structural values of ``cert``'s basis under bounds ``b``.

    They solve A[tight, J] u_J = b[tight], so a basis has one vertex whatever
    path reached it.  On a square that ``cert.factors``, np.linalg.solve's
    gufunc (without its costly wrapper) clears every flag it raised, overflow too.
    """
    return _solve1(cert.square, b[cert.tight], signature="dd->d")


def _primal_vertex(cert: Certificate, b: np.ndarray) -> np.ndarray | None:
    """``_tight_values(cert, b)`` if every bound is finite, the certificate's square
    factors, u_J is below ``cert.u_limit``, and u_J and every slack are >= -FEAS_TOL."""
    # b . b is finite only when every bound is, so no non-finite bound meets a 0 below.
    if not (b.dot(b) < np.inf and cert.factors):
        return None
    u_J = _tight_values(cert, b)
    # A |u_J| at or past the limit (inf and NaN too) fails before the dot below could
    # overflow or meet 0 * inf.
    low, limit = extremum(u_J, np.inf), cert.u_limit
    if not (low >= -FEAS_TOL and -low < limit and extremum(u_J, 0.0, greatest=True) < limit):
        return None
    excess = cert.columns.dot(u_J)  # the BLAS call of @, without the ufunc's overhead
    excess -= b  # the negated slack, bitwise
    if not extremum(excess, -np.inf, greatest=True) <= FEAS_TOL:
        return None
    return u_J


def _kept_positions(kept, m: int) -> np.ndarray:
    """``kept`` as ``intp`` positions of an ``m``-row problem, by the rule above."""
    kept = np.asarray(kept)
    if is_index_array(kept, m) or kept.shape == (0,):  # ``[]`` reads as a float array
        kept = kept.astype(np.intp)
        # Not np.unique: it imports numpy.ma, about 1 MB of resident memory.
        if extremum(np.bincount(kept), 0, greatest=True) <= 1:
            return kept
    raise ValueError("kept must name distinct rows of the problem")


def _is_ray(problem: LPProblem, d: np.ndarray) -> bool:
    """Whether ``d`` is a ray along which ``problem``'s cost falls without end.

    c @ d < 0 and, for each row, rows @ d <= ``FEAS_TOL`` times that row's
    largest |entry| times d's largest |entry|.  Like a Farkas proof, the ray
    is judged by the sizes it combines, with no absolute floor, so ``d`` and
    the problem's rows may each be scaled by a power of two without changing
    the verdict.  The product of the two largest entries, not |rows| @ |d|,
    absorbs the tableau's residue in an entry of d that should be 0.
    """
    size = np.abs(problem.rows).max(axis=1, initial=0.0) * np.abs(d).max(initial=0.0)
    return bool((problem.rows @ d <= FEAS_TOL * size).all() and problem.c @ d < 0.0)


def _unbounded(problem: LPProblem, tab: np.ndarray, basis: np.ndarray, pivots: int) -> LPSolution:
    """``UNBOUNDED`` if the ray of the final tableau ``tab`` checks, else ``NumericalError``.

    The entering column (Bland's rule again) and minus its basic entries give
    the standard-form ray d_u, and d = d_u[0::2] - d_u[1::2] must pass
    ``_is_ray``.
    """
    n_u, below = 2 * problem.n_vars, tab[-1, :-1] < -FEAS_TOL
    col = int(below.argmax())
    ray = np.zeros(below.size)
    ray[basis] = -tab[:-1, col]
    ray[col] = 1.0
    if below[col] and _is_ray(problem, ray[0:n_u:2] - ray[1:n_u:2]):
        return LPSolution(UNBOUNDED)
    stop = f"simplex stopped unbounded after {pivots} pivots, and its ray does not check"
    raise NumericalError(stop, pivots, float(-tab[-1, -1]))


def _finish(
    problem: LPProblem, A: np.ndarray, tab: np.ndarray, basis: np.ndarray, pivots: int
) -> LPSolution:
    """End a solve: a primal pass on ``tab`` (``A``, slacks, rhs) after ``pivots`` pivots,
    then the final basis's certificate and its ``_tight_values``, or a checked ray."""
    status, primal = _run_simplex(tab, basis, MAX_ITER)
    pivots += primal
    if status == UNBOUNDED:
        return _unbounded(problem, tab, basis, pivots)
    cert = _certificate(problem, A, basis)
    if not cert.factors:
        stop = f"the basis after {pivots} pivots has a singular tight system"
        raise NumericalError(stop, pivots, float(-tab[-1, -1]))
    return _optimal(problem, cert, _tight_values(cert, problem.bounds), pivots)


def _restart_tableau(
    problem: LPProblem, cert: Certificate, kept: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(A, tab, basis)``: the standard form and the tableau of ``cert``'s basis on
    ``problem``, whose rows sit at positions ``kept``, or None if ``cert`` does not factor.

    The basis is the certified one plus the slack of every row not in
    ``kept``; the tight rows T = kept[cert.tight] hold the basic structural
    columns J, in order.  The tableau is B^-1 [A | I | b] under the cost row,
    built from the all-slack one by block elimination.  One LAPACK solve of
    the certificate's square A[T, J] gives the tight rows in the columns T
    touches, and one matrix product prices those columns out of every other
    row and the cost row.  Three kinds of column are left out: every other
    row's slack, in which T is zero, so the elimination leaves it as it is;
    J's, which are unit columns; and their twins' (u_2i+1 for u_2i, and the
    other way), which are minus J's.  The last two are written exactly,
    where the solve would leave rounding in place of zeros.  So the product
    spans at most 2(n - k) + k + 1 of the 2n + m + 1 columns of an
    n-variable, m-row problem (k = len(J)); a product over every column made
    a 50-step 8-node network run about 1.5x slower.
    """
    if not cert.factors:
        return None
    A, c_u = _standard_form(problem)
    n_u, m = c_u.size, problem.n_rows
    tab = np.zeros((m + 1, n_u + m + 1))
    tab[:m, :n_u] = A
    tab[np.arange(m), n_u + np.arange(m)] = 1.0
    tab[:m, -1] = problem.bounds
    tab[-1, :n_u] = c_u
    basis = np.arange(n_u, n_u + m)
    T, J = kept[cert.tight], cert.J
    twins = J ^ 1
    other = np.ones(n_u, dtype=bool)
    other[J] = other[twins] = False
    cols = np.concatenate([other.nonzero()[0], n_u + T, [n_u + m]])
    solved = _solve(cert.square, tab[T[:, None], cols], signature="dd->d")
    tab[:, cols] -= tab[:, J].dot(solved)
    tab[T[:, None], cols] = solved
    tab[:, J] = tab[:, twins] = 0.0
    tab[T, J], tab[T, twins] = 1.0, -1.0
    basis[T] = J
    return A, tab, basis


def _dual_restart(problem: LPProblem, cert: Certificate, kept: np.ndarray) -> LPSolution | None:
    """Solve ``problem`` from ``cert``'s basis, whose rows sit at positions ``kept``.

    The dual simplex starts on ``_restart_tableau``, whose building is no
    pivot and is not counted in ``LPSolution.pivots``.  Returns None when the
    certificate's tight system is singular (``Certificate.factors``), so the
    problem solves two-phase.
    """
    start = _restart_tableau(problem, cert, kept)
    return None if start is None else _dual_simplex_from(problem, *start)


def _dual_simplex_from(
    problem: LPProblem, A: np.ndarray, tab: np.ndarray, basis: np.ndarray
) -> LPSolution:
    """The dual simplex on the dual-feasible tableau ``tab`` of ``problem``'s standard
    form ``A``, then a proof of infeasibility or ``_finish``."""
    n_u = A.shape[1]
    status, pivots, row = _run_dual_simplex(tab, basis, MAX_ITER)
    if status == INFEASIBLE:
        stop = "dual simplex found no entering column"
        return _no_optimum(problem, tab[row, n_u:-1], stop, pivots, float(-tab[row, -1]))
    return _finish(problem, A, tab, basis, pivots)  # the primal pass confirms the reduced costs


def solve_lp(
    problem: LPProblem, start: LPSolution | None = None, kept: np.ndarray | None = None
) -> LPSolution:
    """Simplex from ``start``, or two-phase; returns status optimal/infeasible/unbounded.

    Raises ``NumericalError`` whenever the solver cannot tell the status
    (see the module docstring).

    ``start`` is an optional earlier solution and ``kept`` the positions in
    ``problem`` of the rows its certificate was issued for, in order (by the
    module docstring's rule); the default is every row.  When the certificate
    was issued for this ``c``:

    - with every row kept, and the same ``rows`` (no comparison runs when the
      problem holds the certificate's own arrays), a basis that is primal
      feasible under these bounds is returned as it is (``warm`` is set, and
      the solution carries the same certificate), and one that is not
      restarts the dual simplex;
    - with ``rows[kept]`` equal to the certified rows and further rows added,
      the dual simplex restarts from the certified basis.

    Any other start, or a restart whose tight system is singular, solves
    cold.  Every optimal solution carries the certificate of its basis.  A
    non-finite entry in ``c``, ``rows`` or ``bounds`` raises ``ValueError``,
    with or without a start: the warm re-check fails on a non-finite bound.
    A start certificate's own ``c`` and ``rows`` are not checked again: they
    passed when it was issued.
    """
    kept = None if kept is None else _kept_positions(kept, problem.n_rows)
    cert = None if start is None else start.certificate
    held = () if cert is None else (cert.c, cert.rows)
    if cert is not None and not (cert.c is problem.c or np.array_equal(cert.c, problem.c)):
        cert = None
    if cert is not None and (kept is None or len(kept) == problem.n_rows):
        if not (cert.rows is problem.rows or np.array_equal(cert.rows, problem.rows)):
            cert = None
        else:
            u_J = _primal_vertex(cert, problem.bounds)
            if u_J is not None:
                return _optimal(problem, cert, u_J, warm=True)
            kept = None  # only the bounds moved: every row restarts at its own position
    for name in ("c", "rows", "bounds"):
        value = getattr(problem, name)
        if not any(value is own for own in held) and not np.isfinite(value).all():
            raise ValueError(f"LP {name} holds a non-finite entry")
    if cert is not None and (kept is None or np.array_equal(cert.rows, problem.rows[kept])):
        sol = _dual_restart(problem, cert, np.arange(problem.n_rows) if kept is None else kept)
        if sol is not None:
            return sol
    A, c_u = _standard_form(problem)
    b = problem.bounds
    m, n_u = A.shape

    # Phase-1 tableau [A | I | artificials | b] with b >= 0: a row with a
    # negative bound is flipped and starts on an artificial, any other on its slack.
    sign = np.where(b < 0, -1.0, 1.0)
    flip = np.flatnonzero(sign < 0)
    n_art = flip.size
    tab = np.zeros((m + 1, n_u + m + n_art + 1))
    tab[:m, :n_u] = A * sign[:, None]
    tab[:m, -1] = b * sign
    # Cost 1 on each artificial, priced out for the starting basis by subtracting
    # the flipped rows from 0 in order; their known slack (-1) and artificial (1)
    # entries make those reduced costs 1 and 0, written after.
    tab[-1] = np.subtract.reduce(tab[flip], axis=0, initial=0.0)
    basis = np.arange(n_u, n_u + m)
    tab[np.arange(m), basis] = sign
    tab[-1, basis[flip]] = 1.0
    basis[flip] = np.arange(n_u + m, n_u + m + n_art)
    tab[flip, basis[flip]] = 1.0

    # Without a negative bound the cost row is 0, and phase 1 stops at once.
    # Its tolerance scales with the starting residual, floored at 1; a start
    # that overflowed, or a NaN residual, proves nothing.
    initial = float(-tab[-1, -1])
    status, pivots = _run_simplex(tab, basis, MAX_ITER)
    residual = float(-tab[-1, -1])
    if status != OPTIMAL or not residual <= FEAS_TOL * max(1.0, initial) < np.inf:
        stop = f"phase 1 stopped {status}"
        return _no_optimum(problem, tab[-1, n_u : n_u + m], stop, pivots, residual)
    # Drive surviving artificials out of the basis (degenerate rows).  The
    # slack columns make [A | I] full row rank, so each such row has a
    # nonzero structural or slack entry to pivot on.
    for r in np.flatnonzero(basis >= n_u + m):
        col = int(np.nonzero(np.abs(tab[r, : n_u + m]) > FEAS_TOL)[0][0])
        _pivot(tab, r, col)
        basis[r] = col
        pivots += 1

    # Phase 2: real objective over structural + slack columns.
    tab = np.hstack([tab[:, : n_u + m], tab[:, -1:]])
    # The cost row, less each costed basic row's multiple, subtracted in row order.
    c_full = np.concatenate([c_u, np.zeros(m)])
    costed = np.flatnonzero(c_full[basis])
    terms = np.empty((costed.size + 1, tab.shape[1]))
    terms[0, :-1], terms[0, -1] = c_full, 0.0
    np.multiply(c_full[basis[costed], None], tab[costed], out=terms[1:])
    tab[-1] = np.subtract.reduce(terms, axis=0)

    return _finish(problem, A, tab, basis, pivots)
