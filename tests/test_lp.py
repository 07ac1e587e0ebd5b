"""Unit tests for the simplex solver: two-phase solves, warm starts and dual restarts."""

import sys
from collections import Counter
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from mtdsim import alp as alp_module
from mtdsim import domain as domain_module
from mtdsim import lp
from mtdsim import strategies as strategies_module
from mtdsim.alp import build_alp, build_basis, build_state_basis, extract_policy, solve_alp
from mtdsim.domain import DomainInfo
from mtdsim.environments import MTDEnvironment, make_network_domain, make_web_app_domain
from mtdsim.estimator import ThreatEstimator
from mtdsim.harness import (
    ExperimentConfig,
    cold_posterior_table,
    perturb_posterior_table,
    random_posterior_table,
    resolve_run,
)
from mtdsim.lp import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPProblem,
    LPSolution,
    solve_lp,
)
from mtdsim.strategies import ata_fmdp_run
from oracles import (
    audit_solves,
    box_rows,
    certified_x,
    compare_simplex_to_vertices,
    dense_pivot,
    enumerate_vertices,
    random_box_lp,
    reference_dual_feasible,
    reference_dual_restart,
    reference_restart_tableau,
    reference_run_simplex,
)

def test_single_variable_upper_bound():
    # max x s.t. x <= 5, x >= 0  ==  min -x
    sol = solve_lp(LPProblem(c=[-1.0], rows=[[1.0], [-1.0]], bounds=[5.0, 0.0]))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(5.0, abs=1e-9)


def test_two_variable_simplex_face():
    # max x + y s.t. x + y <= 1, x, y >= 0
    sol = solve_lp(
        LPProblem(c=[-1.0, -1.0], rows=[[1.0, 1.0], *-np.eye(2)], bounds=[1.0, 0.0, 0.0])
    )
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_infeasible_sign_conflict():
    # x <= -1 with x >= 0 has no solution (phase-1 optimum exactly 1).
    sol = solve_lp(LPProblem(c=[1.0], rows=[[1.0], [-1.0]], bounds=[-1.0, 0.0]))
    assert sol.status == INFEASIBLE
    assert sol.x is None


def test_infeasible_between_rows():
    # x >= 2 and x <= 1 expressed as rows only; x free.
    sol = solve_lp(LPProblem(c=[1.0], rows=[[-1.0], [1.0]], bounds=[-2.0, 1.0]))
    assert sol.status == INFEASIBLE


def test_unbounded_ray():
    # min -x with x >= 0 and no ceiling.
    sol = solve_lp(LPProblem(c=[-1.0], rows=[[0.0], [-1.0]], bounds=[1.0, 0.0]))
    assert sol.status == UNBOUNDED


def test_phase_1_reports_infeasible_only_with_a_checked_proof(monkeypatch):
    # x <= -1 and x >= 0: phase 1 ends at a residual of 1, and its multipliers
    # (the slack columns' reduced costs) add the two rows to 0 <= -1.
    problem = LPProblem(c=[1.0], rows=[[1.0], [-1.0]], bounds=[-1.0, 0.0])
    checked, is_proof = [], lp._is_farkas_proof
    monkeypatch.setattr(lp, "_is_farkas_proof", lambda p, y: checked.append(y) or is_proof(p, y))
    assert solve_lp(problem).status == INFEASIBLE
    assert checked[0].tolist() == [1.0, 1.0]
    monkeypatch.setattr(lp, "_is_farkas_proof", lambda problem, y: False)
    with pytest.raises(lp.NumericalError, match="no proof of infeasibility") as info:
        solve_lp(problem)
    assert info.value.pivots == 1 and info.value.residual == 1.0
    # x <= -1e308 and x >= 1e308: the starting residual overflows to inf, every
    # reduced cost is 0 and phase 1 stops at once; this proves nothing either
    # way, and y @ bounds = -inf is no proof.
    monkeypatch.setattr(lp, "_is_farkas_proof", is_proof)
    overflowing = LPProblem(c=[0.0], rows=[[1.0], [-1.0]], bounds=[-1e308, -1e308])
    with (
        pytest.warns(RuntimeWarning, match="overflow encountered"),
        pytest.raises(lp.NumericalError, match="no proof of infeasibility") as info,
    ):
        solve_lp(overflowing)
    assert info.value.pivots == 0 and info.value.residual == np.inf


@pytest.mark.parametrize("gap", [1e-12, 1e-9])
def test_phase_1_forgives_a_residual_below_its_absolute_floor(gap):
    # x <= -gap and x >= 0 miss each other by at most FEAS_TOL; phase 1
    # ends at a residual of gap, within FEAS_TOL times its floor of 1, and the
    # solve is optimal at a point that holds both rows within FEAS_TOL.
    sol = solve_lp(LPProblem(c=[0.0], rows=[[1.0], [-1.0]], bounds=[-gap, 0.0]))
    assert sol.status == OPTIMAL
    assert (np.array([[1.0], [-1.0]]) @ sol.x <= np.array([-gap, 0.0]) + lp.FEAS_TOL).all()


def test_a_phase_1_breakdown_raises_with_its_pivots_and_residual(monkeypatch):
    # Phase 1 is bounded below by 0; a ratio test that finds no row is a breakdown.
    run_simplex = lp._run_simplex

    def breaks_down(tab, basis, max_iter):
        status, pivots = run_simplex(tab, basis, max_iter)
        return UNBOUNDED, pivots

    monkeypatch.setattr(lp, "_run_simplex", breaks_down)
    problem = LPProblem(c=[1.0], rows=[[-1.0], [1.0]], bounds=[-2.0, 3.0])  # 2 <= x <= 3
    with pytest.raises(lp.NumericalError, match="stopped unbounded after 1 pivots") as info:
        solve_lp(problem)
    assert info.value.pivots == 1 and info.value.residual == 0.0


def test_an_lp_with_no_variables_and_no_rows_is_optimal_at_the_empty_point():
    empty = LPProblem(np.zeros(0), np.zeros((0, 0)), np.zeros(0))
    sol = solve_lp(empty)  # no column can enter, so the simplex stops at once
    assert sol.status == OPTIMAL and sol.x.shape == (0,) and sol.objective_value == 0.0
    assert sol.basis == () and sol.pivots == 0 and not sol.warm
    assert solve_lp(empty, start=sol).warm


def test_unbounded_without_rows():
    sol = solve_lp(LPProblem(c=[-1.0], rows=np.zeros((0, 1)), bounds=np.zeros(0)))
    assert sol.status == UNBOUNDED


def _boxed_status(problem: LPProblem, half_width: float) -> tuple[str, float | None]:
    """``enumerate_vertices`` on ``problem`` inside the box |x_i| <= half_width."""
    n = problem.n_vars
    box, box_bounds = box_rows(np.full(n, -half_width), np.full(n, half_width))
    boxed = LPProblem(problem.c, np.vstack([problem.rows, box]),
                      np.concatenate([problem.bounds, box_bounds]))
    oracle = enumerate_vertices(boxed)
    return oracle.status, oracle.objective_value


@cache
def _box_lps() -> list[tuple[LPProblem, str, float | None]]:
    """The first 100 random box LPs of seed 41, each with its oracle's status and optimum."""
    rng, cases = np.random.default_rng(41), []
    for _ in range(100):
        problem = random_box_lp(rng)
        oracle = enumerate_vertices(problem)
        cases.append((problem, oracle.status, oracle.objective_value))
    return cases


@cache
def _box_less_lps() -> list[tuple[LPProblem, str, float | None]]:
    """The first 80 of ``_box_lps`` without their box rows, with their oracle's status and optimum.

    The oracle bounds each by a box of half-width 1e3 and 2e3, and an
    unbounded one is cheaper in the larger box.
    """
    cases = []
    for boxed, _, _ in _box_lps()[:80]:
        n = boxed.n_vars
        problem = LPProblem(boxed.c, boxed.rows[: -2 * n], boxed.bounds[: -2 * n])
        status, near = _boxed_status(problem, 1e3)
        if status == OPTIMAL and _boxed_status(problem, 2e3)[1] < near - 1e-6 * (1 + abs(near)):
            status = UNBOUNDED
        cases.append((problem, status, near))
    return cases


def _row_scaled(problem: LPProblem, j: int) -> LPProblem:
    """``problem`` with every row and its bound times 2^j: the same LP, and no rounding."""
    return LPProblem(problem.c, np.ldexp(problem.rows, j), np.ldexp(problem.bounds, j))


def test_unbounded_comes_only_with_a_checked_ray(monkeypatch):
    # Random LPs without their box rows, against the box oracle above.
    rays, unbounded = [], 0
    checked = lp._unbounded
    monkeypatch.setattr(lp, "_unbounded", lambda *args: rays.append(checked(*args)) or rays[-1])
    seen = Counter()
    for problem, status, near in _box_less_lps():
        got = solve_lp(problem)
        assert got.status == status
        if status == OPTIMAL:
            assert got.objective_value == pytest.approx(near, rel=1e-7, abs=1e-7)
        seen[status] += 1
        unbounded += got.status == UNBOUNDED
    assert seen[UNBOUNDED] > 30 and seen[OPTIMAL] > 15 and seen[INFEASIBLE] > 5, seen
    assert len(rays) == unbounded and all(sol.status == UNBOUNDED for sol in rays)


ROW_SCALES = (-60, -40, -30, -20, 20, 40, 60)


def test_row_scaling_never_flips_a_non_optimal_status():
    # Multiplying a row and its bound by 2^j leaves the LP as it is.  Each
    # INFEASIBLE or UNBOUNDED answer rests on a certificate judged by the
    # sizes it combines, so under every scale it agrees with the unscaled
    # LP's oracle, or the solver raises NumericalError.  (The optimal path
    # is not scale-free yet: see the xfail below.)
    seen = Counter()
    for problem, want, _ in _box_lps() + _box_less_lps():
        for j in ROW_SCALES:
            try:
                got = solve_lp(_row_scaled(problem, j)).status
            except lp.NumericalError:
                seen["error"] += 1
                continue
            assert got in (OPTIMAL, want), (j, got, want)
            seen[got] += 1
    assert seen[INFEASIBLE] > 90 and seen[UNBOUNDED] > 150, seen
    # min -x s.t. 2^-40 x <= 1: the entry is below FEAS_TOL, so no pivot
    # bounds x, and the ray x -> oo breaks the row by far more than its size.
    with pytest.raises(lp.NumericalError, match="ray does not check"):
        solve_lp(LPProblem([-1.0], [[np.ldexp(1.0, -40)]], [1.0]))


@pytest.mark.xfail(
    strict=True,
    reason="scaled by 2^40, 65 of 100 box LPs stop optimal at a feasible vertex whose "
    "objective misses the oracle's: the optimality test compares reduced costs with the "
    "absolute FEAS_TOL, and a row's factor 2^j scales its slack's reduced cost by 2^-j",
)
def test_row_scaling_keeps_the_optimum():
    missed = 0
    for problem, status, optimum in _box_lps():
        got = solve_lp(_row_scaled(problem, 40))
        assert got.status == status
        if status == OPTIMAL:
            missed += abs(got.objective_value - optimum) > 1e-6 * (1.0 + abs(optimum))
    assert missed == 0, missed


def test_a_ray_that_does_not_check_raises(monkeypatch):
    # 0 <= x <= 3, min x: phase 1 has nothing to do, and phase 2 is made to
    # stop "unbounded": at once, where it offers the ray of x's minus half,
    # which breaks x >= 0, or after its pivots, where no column can enter.
    # A dual restart's primal pass is the last call of its solve.
    problem = LPProblem(c=[1.0], rows=[[1.0], [-1.0]], bounds=[3.0, 0.0])
    first = solve_lp(LPProblem([1.0], [[-1.0]], [0.0]))
    run_simplex = lp._run_simplex
    for start, kept, last_call, pivot, pivots in [
        (None, None, 2, False, 0), (None, None, 2, True, 1), (first, [1], 1, True, 0)
    ]:
        calls = []

        def stops_unbounded(tab, basis, max_iter):
            calls.append(None)
            if len(calls) < last_call:
                return run_simplex(tab, basis, max_iter)
            return UNBOUNDED, run_simplex(tab, basis, max_iter)[1] if pivot else 0

        monkeypatch.setattr(lp, "_run_simplex", stops_unbounded)
        with pytest.raises(lp.NumericalError, match="ray does not check") as info:
            solve_lp(problem, start=start, kept=kept)
        assert info.value.pivots == pivots and info.value.residual == 0.0


def test_no_rows_and_no_cost_is_optimal_at_the_origin():
    problem = LPProblem(c=[0.0, 0.0], rows=np.zeros((0, 2)), bounds=np.zeros(0))
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL and sol.basis == ()
    assert sol.x == pytest.approx([0.0, 0.0]) and sol.objective_value == 0.0
    assert solve_lp(problem, start=sol).warm


def test_no_rows_with_finite_bounds_sits_at_best_corner():
    # No rows besides the box [-2, 3]^2.
    sol = solve_lp(LPProblem([1.0, -2.0], *box_rows([-2.0, -2.0], [3.0, 3.0])))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([-2.0, 3.0])
    assert sol.objective_value == pytest.approx(-8.0)


def test_free_variable_reaches_negative_optimum():
    # min x s.t. -x <= 7  ->  x = -7 with x unrestricted in sign.
    sol = solve_lp(LPProblem(c=[1.0], rows=[[-1.0]], bounds=[7.0]))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-7.0, abs=1e-9)


def test_equality_via_paired_inequalities():
    # x + y = 2 (two rows), min x with x, y in [0, 3].
    box, box_bounds = box_rows([0.0, 0.0], [3.0, 3.0])
    sol = solve_lp(
        LPProblem(
            c=[1.0, 0.0],
            rows=[[1.0, 1.0], [-1.0, -1.0], *box],
            bounds=[2.0, -2.0, *box_bounds],
        )
    )
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.x[0] + sol.x[1] == pytest.approx(2.0, abs=1e-9)


def test_upper_bound_only_variable_flips():
    # min x with x <= 4 only: unbounded below; min -x is optimal at 4.
    assert solve_lp(LPProblem(c=[1.0], rows=[[1.0]], bounds=[4.0])).status == UNBOUNDED
    sol = solve_lp(LPProblem(c=[-1.0], rows=[[1.0]], bounds=[4.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(4.0)


def test_negative_lower_bound_shift():
    # min x + y over the box [-5, -1]^2 with x + y >= -7.
    box, box_bounds = box_rows([-5.0, -5.0], [-1.0, -1.0])
    sol = solve_lp(LPProblem(c=[1.0, 1.0], rows=[[-1.0, -1.0], *box], bounds=[7.0, *box_bounds]))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-7.0, abs=1e-9)


# A classic degenerate program that cycles under naive pivoting.
BEALE = LPProblem(
    c=[-0.75, 150.0, -0.02, 6.0],
    rows=[
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
        *-np.eye(4),  # x >= 0
    ],
    bounds=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
)


def test_beale_cycling_example_terminates():
    # Bland's rule must terminate at objective -1/20.
    sol = solve_lp(BEALE)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


def test_each_simplex_raises_at_its_iteration_limit(monkeypatch):
    # Beale's program takes 22 pivots cold; restarted from rows 0, 1, 2 and 6, 3 dual pivots.
    kept = np.array([0, 1, 2, 6])
    first = solve_lp(LPProblem(BEALE.c, BEALE.rows[kept], BEALE.bounds[kept]))
    monkeypatch.setattr(lp, "MAX_ITER", 2)
    with pytest.raises(lp.NumericalError, match="^simplex ran out of 2 pivots") as info:
        solve_lp(BEALE)
    assert info.value.pivots == 2 and isinstance(info.value, RuntimeError)
    with pytest.raises(lp.NumericalError, match="^dual simplex ran out of 2 pivots") as info:
        solve_lp(BEALE, start=first, kept=kept)
    assert info.value.pivots == 2


def test_a_phase_optimal_after_exactly_its_limit_returns_the_optimum(monkeypatch):
    kept = np.array([0, 1, 2, 6])
    first = solve_lp(LPProblem(BEALE.c, BEALE.rows[kept], BEALE.bounds[kept]))
    cold, warm = solve_lp(BEALE), solve_lp(BEALE, start=first, kept=kept)
    assert (cold.pivots, warm.pivots) == (22, 3)
    monkeypatch.setattr(lp, "MAX_ITER", 22)
    got = solve_lp(BEALE)
    assert (got.status, got.pivots, got.x.tobytes()) == (OPTIMAL, 22, cold.x.tobytes())
    monkeypatch.setattr(lp, "MAX_ITER", 21)
    with pytest.raises(lp.NumericalError, match="^simplex ran out of 21 pivots"):
        solve_lp(BEALE)
    monkeypatch.setattr(lp, "MAX_ITER", 3)
    got = solve_lp(BEALE, start=first, kept=kept)
    assert (got.status, got.pivots, got.x.tobytes()) == (OPTIMAL, 3, warm.x.tobytes())
    monkeypatch.setattr(lp, "MAX_ITER", 2)
    with pytest.raises(lp.NumericalError, match="^dual simplex ran out of 2 pivots"):
        solve_lp(BEALE, start=first, kept=kept)


def test_a_ratio_that_overflows_raises_instead_of_pivoting():
    # 1.7e308 / 0.5 overflows to inf (numpy warns).  Pivoting on it ended at
    # x = nan, and on the dual side at an objective of inf, both "optimal".
    with (
        pytest.warns(RuntimeWarning, match="overflow encountered in divide"),
        pytest.raises(lp.NumericalError, match="^simplex met a ratio of inf") as info,
    ):
        solve_lp(LPProblem([-1.0], [[0.5]], [1.7e308]))
    assert info.value.pivots == 0
    first = solve_lp(LPProblem([1.7e308], [[-1.0]], [0.0]))
    added = LPProblem([1.7e308], [[-1.0], [-0.5]], [0.0, -1.0])  # x >= 2 joins x >= 0
    with (
        pytest.warns(RuntimeWarning, match="overflow encountered in divide"),
        pytest.raises(lp.NumericalError, match="^dual simplex met a ratio of inf"),
    ):
        solve_lp(added, start=first, kept=[0])


def test_duplicate_rows_are_harmless():
    row = [1.0, 2.0]
    sol = solve_lp(
        LPProblem(c=[-1.0, -1.0], rows=[row, row, row, *-np.eye(2)], bounds=[4.0] * 3 + [0.0] * 2)
    )
    assert sol.status == OPTIMAL
    assert np.dot(row, sol.x) <= 4.0 + 1e-9


def test_solution_feasibility_certificate():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        rows = rng.normal(size=(6, n))
        x0 = rng.uniform(-1, 1, size=n)
        bounds = rows @ x0 + np.abs(rng.normal(size=6))
        box, box_bounds = box_rows(np.full(n, -4.0), np.full(n, 4.0))
        problem = LPProblem(
            c=rng.normal(size=n),
            rows=np.vstack([rows, box]),
            bounds=np.concatenate([bounds, box_bounds]),
        )
        sol = solve_lp(problem)
        assert sol.status == OPTIMAL  # anchored at x0, so always feasible
        assert np.all(problem.rows @ sol.x <= problem.bounds + 1e-7)
        assert np.all(np.abs(sol.x) <= 4.0 + 1e-9)
        assert sol.objective_value <= problem.c @ x0 + 1e-7


def test_matches_vertex_enumeration_on_random_boxes():
    # Acceptance runs 200 cases at seed 10; use a different seed here for
    # extra coverage at lower cost.
    assert compare_simplex_to_vertices(60, seed=11) == []


def _perturbed_alps(name: str, rng: np.random.Generator, count: int) -> list[LPProblem]:
    """ALPs of ``name`` (web-factored, web-state or netN) under perturbed cold posteriors."""
    if name.startswith("web-"):
        domain = make_web_app_domain()
        basis = build_state_basis(domain.space) if name == "web-state" else None
    else:
        domain, basis = make_network_domain(np.random.default_rng(0), n_nodes=int(name[-1])), None
    cold = cold_posterior_table(domain)
    return [
        build_alp(domain, perturb_posterior_table(cold, rng, 0.2), basis).lp for _ in range(count)
    ]


def test_sparse_pivot_matches_the_dense_update_bitwise(monkeypatch):
    rng = np.random.default_rng(31)
    problems = [random_box_lp(rng) for _ in range(600)]
    for name in ["web-factored", "web-state", "net2", "net3"]:
        problems += _perturbed_alps(name, rng, 8)
    shipped = [solve_lp(problem) for problem in problems]
    monkeypatch.setattr(lp, "_pivot", dense_pivot)
    for problem, got in zip(problems, shipped):
        want = solve_lp(problem)
        assert (got.status, got.basis, got.pivots) == (want.status, want.basis, want.pivots)
        assert (got.x is None) == (want.x is None)
        if want.x is not None:
            assert got.x.tobytes() == want.x.tobytes()
    assert {sol.status for sol in shipped} == {OPTIMAL, INFEASIBLE}


def test_simplex_loop_matches_the_reference_loop_bitwise(monkeypatch):
    rng = np.random.default_rng(31)
    problems = [random_box_lp(rng) for _ in range(600)]
    for name in ["web-factored", "web-state", "net2", "net3"]:
        problems += _perturbed_alps(name, rng, 8)
    # Without their box rows (the last 2n) some become unbounded.
    problems += [
        LPProblem(p.c, p.rows[: -2 * p.n_vars], p.bounds[: -2 * p.n_vars]) for p in problems[:100]
    ]
    run_simplex, phases = lp._run_simplex, []

    def checked(tab, basis, max_iter):
        assert basis.dtype == np.intp and basis.ndim == 1
        want_tab, want_basis = tab.copy(), basis.tolist()
        want = reference_run_simplex(want_tab, want_basis, max_iter)
        got = run_simplex(tab, basis, max_iter)
        assert got == want and basis.tolist() == want_basis
        assert tab.tobytes() == want_tab.tobytes()
        phases[-1] += 1
        return got

    monkeypatch.setattr(lp, "_run_simplex", checked)
    statuses = set()
    for problem in problems:
        phases.append(0)
        statuses.add(solve_lp(problem).status)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert set(phases) == {1, 2}  # solves with and without a phase 1


def test_problem_shape_validation():
    cases = [
        ([1.0, 2.0], [[1.0, 0.0]], [1.0, 2.0]),  # two bounds for one row
        ([1.0, 2.0], np.ones((3, 4)), np.ones(6)),  # a reshape would read 6 rows of 2
        ([1.0, 2.0, 3.0], np.ones((3, 2)), np.ones(2)),  # ... or 2 scrambled rows of 3
        ([1.0], [1.0], [1.0]),  # one row, but not a 2-D array
        (np.ones(2), np.ones((1, 2)), np.ones(2)),  # float64 arrays: two bounds for one row
        (np.ones(1), np.ones(1), np.ones(1)),  # ... and a 1-D rows array
        (np.ones(2), np.ones((3, 2)), np.ones((3, 1))),  # ... and a 2-D bounds array
    ]
    for c, rows, bounds in cases:
        with pytest.raises(ValueError):
            LPProblem(c=c, rows=rows, bounds=bounds)


def test_problem_keeps_float64_arrays_and_converts_the_rest_as_asarray_does():
    c, rows, bounds = np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones(2)
    problem = LPProblem(c, rows, bounds)
    # Kept by identity: a problem on a certificate's own arrays is re-checked
    # without comparing them.
    assert problem.c is c and problem.rows is rows and problem.bounds is bounds

    class Tagged(np.ndarray):
        pass

    cases = [
        ([1, 2], [[1, 0], [0, 1]], [1, 1]),  # lists
        (np.array([1, 2]), np.array([[1, 0], [0, 1]]), np.array([1, 1])),  # ints
        (c.astype(np.float32), rows.astype(np.float32), bounds.astype(np.float32)),
        (c.view(Tagged), rows.view(Tagged), bounds.view(Tagged)),  # subclasses
        (np.array(3.0), [[1.0], [-1.0]], [1.0, 1.0]),  # a 0-d c
        (np.float64(3.0), [[1.0]], np.float64(1.0)),  # numpy scalars
    ]
    for case in cases:
        problem = LPProblem(*case)
        for got, given in zip((problem.c, problem.rows, problem.bounds), case):
            want = np.asarray(given, dtype=float)
            want = want if want.ndim else want.reshape(1)
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got is not given


def test_solution_dataclass_defaults():
    sol = LPSolution(INFEASIBLE)
    assert sol.x is None and sol.objective_value is None
    assert FEAS_TOL < 1e-6


# ---------------------------------------------------------------------------
# warm start from an earlier solution's certificate
# ---------------------------------------------------------------------------


def assert_same_solution(got, want):
    """Bitwise equal: status, x, objective, basis and warm."""
    assert got.status == want.status
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert got.x.tobytes() == want.x.tobytes()
    assert got.objective_value == want.objective_value
    assert got.basis == want.basis and got.warm == want.warm


def assert_optimal_vertex(problem, sol):
    """``sol`` is optimal for ``problem``: its basis is dual feasible and its x primal feasible."""
    assert sol.status == OPTIMAL and reference_dual_feasible(problem, sol)
    assert np.all(problem.rows @ sol.x <= problem.bounds + 1e-7)


def test_optimal_solution_reports_its_standard_form_basis():
    # Free x splits into two columns; one row adds one slack column.
    sol = solve_lp(LPProblem(c=[1.0], rows=[[-1.0]], bounds=[7.0]))
    assert sol.basis == (1,)  # the "minus" half of x is basic, the slack is not
    assert not sol.warm
    again = solve_lp(LPProblem(c=[1.0], rows=[[-1.0]], bounds=[7.0]), start=sol)
    assert again.warm and again.basis == sol.basis
    assert again.x == pytest.approx(sol.x, abs=1e-12)


def test_warm_start_after_bound_changes_matches_cold_solve_and_vertices():
    rng = np.random.default_rng(21)
    warm_hits = compared = 0
    while compared < 60:
        problem = random_box_lp(rng)
        first = solve_lp(problem)
        if first.status != OPTIMAL:
            continue
        bounds = problem.bounds + rng.uniform(-0.1, 0.1, problem.n_rows)
        moved = LPProblem(problem.c, problem.rows, bounds)
        warm = solve_lp(moved, start=first)
        cold = solve_lp(moved)
        oracle = enumerate_vertices(moved)
        compared += 1
        warm_hits += warm.warm
        assert warm.status == cold.status == oracle.status
        if oracle.status == OPTIMAL:
            assert warm.objective_value == pytest.approx(oracle.objective_value, abs=1e-7)
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-7)
            assert_optimal_vertex(moved, warm)
    # Small moves keep most bases optimal; the rest must have fallen back.
    assert 0 < warm_hits < compared


def test_warm_start_that_lost_dual_feasibility_falls_back_to_cold():
    # Flipping c voids the certificate, so every start solves cold.
    rng = np.random.default_rng(22)
    fallbacks = 0
    for _ in range(40):
        problem = random_box_lp(rng)
        first = solve_lp(problem)
        if first.status != OPTIMAL:
            continue
        flipped = LPProblem(-problem.c, problem.rows, problem.bounds)
        sol = solve_lp(flipped, start=first)
        fallbacks += 1
        assert_same_solution(sol, solve_lp(flipped))
        assert sol.status == OPTIMAL and not sol.warm
        assert sol.objective_value == pytest.approx(
            enumerate_vertices(flipped).objective_value, abs=1e-7
        )
    assert fallbacks > 0


def test_warm_start_with_a_cheaper_nonbasic_column_falls_back_to_cold():
    # Lowering the cost of a variable whose column is nonbasic leaves the row
    # duals alone but makes that column's reduced cost negative.  min x over
    # x >= -1, |y| <= 2: y costs nothing, so both halves of its split
    # (columns 2 and 3) stay nonbasic at y = 0.
    rows, bounds = [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 2.0, 2.0]
    first = solve_lp(LPProblem([1.0, 0.0], rows, bounds))
    assert first.status == OPTIMAL and first.x == pytest.approx([-1.0, 0.0])
    assert 2 not in first.basis and 3 not in first.basis
    cheaper = LPProblem([1.0, -10.0], rows, bounds)
    sol = solve_lp(cheaper, start=first)
    assert sol.status == OPTIMAL and not sol.warm
    assert sol.x == pytest.approx([-1.0, 2.0])
    assert sol.objective_value == pytest.approx(-21.0)


def test_singular_start_falls_back_to_cold():
    # A start without a certificate solves cold; its basis, here both halves
    # of the split free variable (linearly dependent columns), is never read.
    problem = LPProblem(c=[1.0], rows=[[-1.0], [1.0]], bounds=[7.0, 2.0])
    sol = solve_lp(problem, start=LPSolution(OPTIMAL, basis=(0, 1)))
    assert sol.status == OPTIMAL and not sol.warm
    assert sol.x[0] == pytest.approx(-7.0)
    assert_same_solution(sol, solve_lp(problem))


# ---------------------------------------------------------------------------
# certified re-check: a solution as the start of the next solve
# ---------------------------------------------------------------------------


def test_certified_recheck_matches_the_full_check_and_vertices_on_random_boxes():
    rng = np.random.default_rng(23)
    rechecked = fallbacks = compared = 0
    while compared < 80:
        problem = random_box_lp(rng)
        prev = solve_lp(problem)
        if prev.status != OPTIMAL:
            continue
        for _ in range(5):  # a chain of bound moves, each starting from the last solution
            problem = LPProblem(
                problem.c, problem.rows, problem.bounds + rng.uniform(-0.4, 0.4, problem.n_rows)
            )
            got = solve_lp(problem, start=prev)
            oracle = enumerate_vertices(problem)
            assert got.status == oracle.status
            if got.status != OPTIMAL:
                break
            assert got.objective_value == pytest.approx(oracle.objective_value, abs=1e-7)
            assert_optimal_vertex(problem, got)
            compared += 1
            if got.warm:
                rechecked += 1
                assert got.certificate is prev.certificate and got.basis == prev.basis
            else:
                fallbacks += 1
                assert_same_solution(got, solve_lp(problem))
            prev = got
    assert rechecked > 0 and fallbacks > 0


@pytest.mark.parametrize("name", ["web", "net2", "net3"])
def test_certified_recheck_matches_the_full_check_on_replanned_alps(name):
    rng = np.random.default_rng(13)
    if name == "web":
        domain = make_web_app_domain()
    else:
        domain = make_network_domain(rng, n_nodes=int(name[-1]))
    posterior = random_posterior_table(domain, rng)
    alp = build_alp(domain, posterior)
    prev = solve_lp(alp.lp)
    rechecked = 0
    for step in range(15):
        # Small belief drifts, as between two steps of a run, and jumps to an unrelated belief.
        if step % 5 == 4:
            posterior = random_posterior_table(domain, rng)
        else:
            posterior = perturb_posterior_table(posterior, rng, scale=0.01)
        alp = build_alp(domain, posterior, previous=alp)  # new views of the same c and rows
        got = solve_lp(alp.lp, start=prev)
        assert_optimal_vertex(alp.lp, got)
        if got.warm:
            rechecked += 1
            assert got.certificate is prev.certificate and got.basis == prev.basis
        else:
            # A dual restart from the carried basis: the two-phase optimum, at
            # its vertex when it ends on its basis.
            cold = solve_lp(alp.lp)
            assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
            if got.basis == cold.basis:
                assert_same_solution(got, cold)
        prev = got
    assert rechecked > 0


def test_a_certificate_for_another_c_or_rows_is_not_rechecked():
    # min x over x >= -1, |y| <= 2 (the cheaper-column example above).
    rows, bounds = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 2.0, 2.0])
    first = solve_lp(LPProblem([1.0, 0.0], rows, bounds))
    sol = solve_lp(LPProblem([1.0, 0.0], rows, bounds + 0.5), start=first)
    assert sol.warm
    # Another c: the bounds alone would pass the primal re-check, but the
    # basis is no longer dual feasible.
    cheaper = LPProblem([1.0, -10.0], rows, bounds)
    # Other rows (one scaled, same region), where the basis would still be optimal.
    scaled = LPProblem([1.0, 0.0], rows * [[2.0], [1.0], [1.0]], bounds * [2.0, 1.0, 1.0])
    # Other shapes: one row fewer, and one variable more.
    fewer = LPProblem([1.0, 0.0], rows[:2], bounds[:2])
    wider = LPProblem([1.0, 0.0, 0.0], np.hstack([rows, np.zeros((3, 1))]), bounds)
    for problem in [cheaper, scaled, fewer, wider]:
        got = solve_lp(problem, start=sol)
        assert not got.warm and got.certificate is not sol.certificate
        assert_same_solution(got, solve_lp(problem))


def test_a_nan_bound_fails_the_recheck():
    # min x over x >= -1, |y| <= 2: row 0 is tight, rows 1 and 2 are not.
    rows, bounds = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 2.0, 2.0])
    first = solve_lp(LPProblem([1.0, 0.0], rows, bounds))
    cert = first.certificate
    assert cert.tight.tolist() == [0] and lp._primal_vertex(cert, bounds) is not None
    for row in range(3):  # a NaN basic value (row 0) or a NaN slack (rows 1, 2)
        nan = bounds.copy()
        nan[row] = np.nan
        assert lp._primal_vertex(cert, nan) is None
    nan = LPProblem([1.0, 0.0], rows, [1.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="LP bounds holds a non-finite entry"):
        solve_lp(nan, start=first)
    # On the certificate's own c and rows, which are not checked again.
    with pytest.raises(ValueError, match="LP bounds holds a non-finite entry"):
        solve_lp(LPProblem(cert.c, cert.rows, nan.bounds), start=first)


def _singular_start():
    """min x + y in the box |x|, |y| <= 1 (rows x, y, -x, -y), where -x and -y are
    tight, with its certificate's tight rows swapped for x and -x, which cannot fix
    y: a singular tight system."""
    problem = LPProblem([1.0, 1.0], *box_rows([-1.0, -1.0], [1.0, 1.0]))
    first = solve_lp(problem)
    cert = first.certificate
    assert cert.tight.tolist() == [2, 3] and cert.J.tolist() == [1, 3]
    A, _ = lp._standard_form(problem)
    singular = replace(cert, tight=np.array([0, 2]), square=A[[0, 2]][:, cert.J])
    return replace(first, certificate=singular)


def test_a_singular_tight_system_fails_the_recheck_and_solves_cold():
    start = _singular_start()
    cert = start.certificate
    assert lp._primal_vertex(cert, np.ones(4)) is None
    problem = LPProblem(cert.c, cert.rows, np.full(4, 0.5))  # the certificate's own arrays
    got, cold = solve_lp(problem, start=start), solve_lp(problem)
    assert_same_solution(got, cold)
    assert got.pivots == cold.pivots > 0 and got.certificate is not cert


def test_a_certificate_decides_once_whether_lapack_factors_its_square(monkeypatch):
    # min x + y in the box |x|, |y| <= 1; any larger box keeps its corner optimal.
    problem = LPProblem([1.0, 1.0], *box_rows([-1.0, -1.0], [1.0, 1.0]))
    solve1 = lp._solve1
    guarded = []  # per _solve1 call: whether it ran under the errstate that catches singularity

    def spy(*args, **kwargs):
        guarded.append(np.geterr()["invalid"] == "raise")
        return solve1(*args, **kwargs)

    monkeypatch.setattr(lp, "_solve1", spy)
    first = solve_lp(problem)
    cert = first.certificate
    assert guarded == [True, False]  # the decision as the certificate is made, then its x
    rng = np.random.default_rng(5)
    for _ in range(50):
        bounds = problem.bounds + rng.uniform(0.0, 2.0, size=4)
        assert solve_lp(LPProblem(cert.c, cert.rows, bounds), start=first).warm
    assert guarded == [True, False] + [False] * 50
    # A copy with a singular square decides again as it is made, and fails
    # the re-check without solving; the original keeps its decision.
    guarded.clear()
    singular = replace(cert, square=np.ones((2, 2)))
    assert lp._primal_vertex(singular, problem.bounds) is None
    assert lp._primal_vertex(singular, problem.bounds) is None
    assert guarded == [True]
    got = solve_lp(problem, start=replace(first, certificate=singular))
    assert not got.warm and got.certificate is not singular
    assert_same_solution(got, solve_lp(problem))
    assert lp._primal_vertex(cert, problem.bounds) is not None and guarded[-1] is False


def test_a_final_basis_that_lapack_cannot_factor_raises(monkeypatch, dual_restarts):
    # A cold solve and a dual restart whose final certificate is made singular:
    # x comes only from the tight system, so neither falls back to the tableau.
    # min x + y in the box |x|, |y| <= 1, then with x + y >= -1 added.
    rows, bounds = box_rows([-1.0, -1.0], [1.0, 1.0])
    first = solve_lp(LPProblem([1.0, 1.0], rows, bounds))
    problem = LPProblem([1.0, 1.0], np.vstack([rows, [[-1.0, -1.0]]]), np.append(bounds, 1.0))
    certificate = lp._certificate

    def singular(*args):
        return replace(certificate(*args), square=np.zeros((2, 2)))

    monkeypatch.setattr(lp, "_certificate", singular)
    for kept in (None, np.arange(4)):
        with pytest.raises(lp.NumericalError, match="singular tight system") as info:
            solve_lp(problem, start=first, kept=kept)
        assert info.value.pivots > 0
    assert len(dual_restarts) == 1


def test_a_recheck_whose_solve_overflows_fails_without_a_warning():
    # min x over |x| <= 1 and 0 x <= 1: x = -1, on the tight row -x <= 1.  Its
    # tight system scaled by 2^-1000 still factors, but bounds of +-2^30 put
    # u_J at +-inf.  The gufunc clears the overflow flag itself, and +inf fails
    # before the dot product meets the zero row (pytest turns a warning into
    # an error).
    problem = LPProblem([1.0], [[1.0], [-1.0], [0.0]], [1.0, 1.0, 1.0])
    cert = solve_lp(problem).certificate
    assert cert.tight.tolist() == [1] and cert.J.tolist() == [1]
    tiny = replace(cert, square=np.ldexp(cert.square, -1000))
    for sign in (1.0, -1.0):
        bounds = np.full(3, sign * 2.0**30)
        assert lp._primal_vertex(tiny, bounds) is None and tiny.factors
        assert (lp._primal_vertex(cert, bounds) is None) == (sign < 0)  # -2^30 empties it


def test_a_recheck_whose_product_with_a_row_could_overflow_fails_without_a_warning():
    # min x over |x| <= 1 and 2^600 x <= 1: x = -1, on the tight row -x <= 1.
    # Its tight system scaled by 2^-500 solves to a finite u_J = 2^500 at bounds
    # of 1, whose product with the row 2^600 x would overflow in the dot product
    # (pytest turns the warning into an error); the certificate's bound rejects
    # it first.
    problem = LPProblem([1.0], [[1.0], [-1.0], [2.0**600]], [1.0, 1.0, 1.0])
    cert = solve_lp(problem).certificate
    assert cert.tight.tolist() == [1] and cert.J.tolist() == [1]
    tiny = replace(cert, square=np.ldexp(cert.square, -500))
    assert tiny.factors and tiny.u_limit == cert.u_limit == 2.0**423
    assert np.isfinite(lp._tight_values(tiny, np.ones(3))).all()
    assert lp._primal_vertex(tiny, np.ones(3)) is None
    np.testing.assert_array_equal(lp._primal_vertex(cert, np.ones(3)), [1.0])


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_an_infinite_bound_fails_the_recheck(value):
    # min x over x >= -1, |y| <= 2: an infinite bound on the slack rows 1 and 2
    # (+inf would leave the vertex (-1, 0) feasible) or on the tight row 0.
    rows, bounds = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 2.0, 2.0])
    first = solve_lp(LPProblem([1.0, 0.0], rows, bounds))
    cert = first.certificate
    for row in range(3):
        broken = bounds.copy()
        broken[row] = value
        assert lp._primal_vertex(cert, broken) is None
        # The certificate's own arrays: the warm path compares nothing.
        with pytest.raises(ValueError, match="LP bounds holds a non-finite entry"):
            solve_lp(LPProblem(cert.c, cert.rows, broken), start=first)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_raises_naming_its_array(value):
    # min x over x >= -1, |y| <= 2; row 0 ends tight.  Cold, and in a dual
    # restart whose added row holds the entry.
    rows, bounds = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 2.0, 2.0])
    for row in range(3):
        broken = bounds.copy()
        broken[row] = value
        with pytest.raises(ValueError, match="LP bounds holds a non-finite entry"):
            solve_lp(LPProblem([1.0, 0.0], rows, broken))
    for col in range(2):
        c = np.array([1.0, 0.0])
        c[col] = value
        with pytest.raises(ValueError, match="LP c holds a non-finite entry"):
            solve_lp(LPProblem(c, rows, bounds))
        broken = rows.copy()
        broken[1, col] = value
        with pytest.raises(ValueError, match="LP rows holds a non-finite entry"):
            solve_lp(LPProblem([1.0, 0.0], broken, bounds))
    first = solve_lp(LPProblem([1.0, 0.0], rows[:2], bounds[:2]))
    with pytest.raises(ValueError, match="LP bounds holds a non-finite entry"):
        solve_lp(LPProblem([1.0, 0.0], rows, [1.0, 2.0, value]), start=first, kept=[0, 1])


def test_a_failed_recheck_ends_on_the_cold_solution():
    # max x + y over x + y <= 1, x, y >= 0; moving the bound of a tight
    # nonnegativity row past zero makes the certified vertex infeasible.
    rows, bounds = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0])
    c = [-1.0, -2.0]
    first = solve_lp(LPProblem(c, rows, bounds))
    sol = solve_lp(LPProblem(c, rows, bounds * 2.0), start=first)
    assert sol.warm and sol.x == pytest.approx([0.0, 2.0])
    moved = LPProblem(c, rows, [1.0, -0.5, 0.0])  # x >= 0.5
    got = solve_lp(moved, start=sol)
    assert not got.warm and got.x == pytest.approx([0.5, 0.5])
    assert_same_solution(got, solve_lp(moved))


def finiteness_checks(problem: LPProblem, start: LPSolution) -> list[str]:
    """The arrays of ``problem`` that ``solve_lp(problem, start)`` checks for finiteness.

    Each check ends in an ``ndarray.all`` call, a builtin method that
    ``sys.setprofile`` reports as a ``c_call`` from ``solve_lp``'s frame,
    where ``name`` names the array; so the count needs no clock.
    """
    names = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is solve_lp.__code__:
            if getattr(arg, "__name__", None) == "all":
                names.append(frame.f_locals["name"])

    sys.setprofile(profile)
    try:
        sol = solve_lp(problem, start=start)
    finally:
        sys.setprofile(None)
    assert sol.status == OPTIMAL and not sol.warm
    return names


def test_a_failed_recheck_checks_only_the_bounds_of_the_certificates_own_arrays():
    # The failed re-check of test_a_failed_recheck_ends_on_the_cold_solution:
    # the certificate's c and rows passed the check when it was issued.
    rows, bounds = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0])
    first = solve_lp(LPProblem([-1.0, -2.0], rows, bounds))
    cert, moved = first.certificate, [1.0, -0.5, 0.0]
    assert finiteness_checks(LPProblem(cert.c, cert.rows, moved), first) == ["bounds"]
    own = LPProblem(cert.c.copy(), cert.rows.copy(), moved)
    assert finiteness_checks(own, first) == ["c", "rows", "bounds"]


def test_a_failed_recheck_restarts_the_dual_simplex_and_builds_no_phase_1_tableau(monkeypatch):
    # Only the bounds moved, so every failed re-check of a web-dh-postgres run
    # restarts the dual simplex from the carried basis and closes with the
    # primal pass; a two-phase solve would run the primal simplex twice, on
    # its phase-1 tableau first, and the dual simplex never.
    calls = []
    for name in ("_run_simplex", "_run_dual_simplex"):

        def spy(*args, run=getattr(lp, name), name=name):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(lp, name, spy)
    failed = []

    def planner_solve(problem, start=None, kept=None):
        calls.clear()
        solution = solve_lp(problem, start=start, kept=kept)
        if start is not None and kept is None and not solution.warm:
            failed.append(tuple(calls))
        return solution

    monkeypatch.setattr(alp_module, "solve_lp", planner_solve)
    run = resolve_run(ExperimentConfig(scenario="web-dh-postgres", seed=0))
    env = MTDEnvironment(run.domain, run.scenario, run.start_state)
    ata_fmdp_run(run.domain, env, run.timesteps, np.random.default_rng(0))
    assert len(failed) > 100
    assert Counter(failed) == {("_run_dual_simplex", "_run_simplex"): len(failed)}


def test_a_cold_solve_carries_a_certificate():
    problem = LPProblem(c=[1.0], rows=[[-1.0], [1.0]], bounds=[7.0, 2.0])
    cold = solve_lp(problem)
    cert = cold.certificate
    assert cold.status == OPTIMAL and not cold.warm and cert.basis == cold.basis
    assert cert.c is not problem.c and cert.rows is not problem.rows
    np.testing.assert_array_equal(cert.c, problem.c)
    np.testing.assert_array_equal(cert.rows, problem.rows)
    assert not (cert.c.flags.writeable or cert.rows.flags.writeable)
    assert reference_dual_feasible(problem, cold)
    # Starting from it re-checks that certificate, and the warm solution carries it on.
    again = solve_lp(problem, start=cold)
    assert again.warm and again.certificate is cert and again.pivots == 0
    assert solve_lp(problem, start=again).certificate is cert
    # A start without a certificate solves cold, with or without a basis.
    for start in [LPSolution(UNBOUNDED), replace(cold, certificate=None)]:
        assert_same_solution(solve_lp(problem, start=start), cold)


def test_a_warm_result_reports_the_certificates_basis():
    problem = LPProblem(c=[1.0], rows=[[-1.0], [1.0]], bounds=[7.0, 2.0])
    cold = solve_lp(problem)
    for basis in [(0, 1, 2, 3), (-1, 9), None]:  # the start's own basis is never read
        got = solve_lp(problem, start=replace(cold, basis=basis))
        assert got.warm and got.basis == cold.certificate.basis == cold.basis


def test_a_problem_on_the_certificates_own_arrays_is_rechecked_without_comparing():
    rows, bounds = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 2.0, 2.0])
    first = solve_lp(LPProblem([1.0, 0.0], rows, bounds))
    sol = solve_lp(LPProblem([1.0, 0.0], rows, bounds + 0.5), start=first)
    cert = sol.certificate
    assert sol.warm and not (cert.c.flags.writeable or cert.rows.flags.writeable)
    got = solve_lp(LPProblem(cert.c, cert.rows, bounds + 0.25), start=sol)
    assert got.warm and got.certificate is cert
    # Equal arrays of the problem's own are compared, then re-checked.
    got = solve_lp(LPProblem(cert.c.copy(), cert.rows.copy(), bounds + 0.25), start=sol)
    assert got.warm and got.certificate is cert
    # A NaN equals nothing, itself included, so only an identity test
    # recognises arrays that hold one; any comparison of their values fails,
    # and the cold solve then rejects the NaN.  The re-check reads neither
    # array: it solves the square system the certificate already holds.
    c, nan_rows = cert.c.copy(), cert.rows.copy()
    c[1] = nan_rows[1, 0] = np.nan  # both were 0.0
    c.flags.writeable = nan_rows.flags.writeable = False
    probe = replace(cert, c=c, rows=nan_rows)
    got = solve_lp(LPProblem(c, nan_rows, bounds + 0.25), start=replace(sol, certificate=probe))
    assert got.warm and got.certificate is probe
    np.testing.assert_array_equal(got.x, [-1.25, 0.0])


def test_rows_mutated_in_place_after_certification_are_certified_afresh():
    # min x over x >= -1, |y| <= 2; scaling the first row in place keeps the
    # region, so the basis stays optimal, but its certificate no longer
    # applies: the solve runs cold and issues a new one.
    rows, bounds = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 2.0, 2.0])
    problem = LPProblem([1.0, 0.0], rows, bounds)
    sol = solve_lp(problem, start=solve_lp(problem))
    assert sol.warm
    problem.rows[0] *= 2.0
    problem.bounds[0] *= 2.0
    got = solve_lp(problem, start=sol)
    assert not got.warm and got.certificate is not sol.certificate
    np.testing.assert_array_equal(got.certificate.rows, problem.rows)
    assert_same_solution(got, solve_lp(problem))


# ---------------------------------------------------------------------------
# the warm path of real moved re-plans against numpy's public wrappers
# ---------------------------------------------------------------------------


def reference_warm_solve(problem: LPProblem, start: LPSolution) -> LPSolution | None:
    """The primal re-check of ``start``'s certificate through numpy's public
    wrappers (``np.linalg.solve``, ``u[0::2] - u[1::2]``, ``ndarray.min``); the
    warm solution, or None where the re-check fails."""
    cert, b = start.certificate, problem.bounds
    if not b.dot(b) < np.inf:
        return None
    try:
        u_J = np.linalg.solve(cert.square, b[cert.tight])
    except np.linalg.LinAlgError:
        return None
    slack = b - cert.columns @ u_J
    if not (u_J.min(initial=np.inf) >= -FEAS_TOL and slack.min(initial=np.inf) >= -FEAS_TOL):
        return None
    u = np.zeros(2 * cert.c.size)
    u[cert.J] = u_J
    x = u[0::2] - u[1::2]
    return LPSolution(OPTIMAL, x, float(problem.c @ x), cert.basis, cert, 0, True)


def _moved_replans(monkeypatch) -> list[tuple[str, LPProblem, LPSolution]]:
    """``(case, problem, start)`` of every solve of a moved re-plan that may start warm.

    The web cases are ``ata_fmdp_run`` on two built-in scenarios at seeds 0-2.
    A network run's belief does not move past its first plan (all nodes
    offline earns M, so no attack succeeds), so each 2-4-node network at
    seeds 0-2 re-plans with the run loop's own trio after each update of a
    seeded stream of estimator updates that credits a random cell.
    """
    solves, case = [], ""

    def recorded(problem, start=None, kept=None):
        if start is not None and kept is None:  # the carried set's own rows
            solves.append((case, problem, start))
        return solve_lp(problem, start=start, kept=kept)

    monkeypatch.setattr(alp_module, "solve_lp", recorded)
    for scenario in ("web-evolving", "web-dh-postgres"):
        for seed in range(3):
            case = f"{scenario} seed {seed}"
            run = resolve_run(ExperimentConfig(domain="web", scenario=scenario, seed=seed))
            env = MTDEnvironment(run.domain, run.scenario, run.start_state)
            ata_fmdp_run(run.domain, env, run.timesteps, np.random.default_rng(seed))
    for n_nodes in (2, 3, 4):
        for seed in range(3):
            case = f"net{n_nodes} seed {seed}"
            rng = np.random.default_rng(seed)
            domain = make_network_domain(rng, n_nodes=n_nodes)
            estimator, problem = ThreatEstimator(domain), None
            n, S = domain.n_types, domain.n_configs
            for _ in range(40):
                problem = build_alp(domain, estimator.posterior_table(), previous=problem)
                extract_policy(problem, solve_alp(problem))
                tau, state, action = (int(v) for v in rng.integers((n, S, S)))
                estimator.update(tau, state, action, int(rng.random() < 0.5))
    return solves


def test_the_warm_path_of_moved_replans_is_bitwise_the_public_wrappers(monkeypatch):
    # _primal_vertex calls the LAPACK gufunc behind np.linalg.solve, a private
    # numpy name, directly; this test guards that call for as long as it stays.
    hits, misses = Counter(), Counter()
    for case, problem, start in _moved_replans(monkeypatch):
        want, got = reference_warm_solve(problem, start), solve_lp(problem, start=start)
        assert got.warm == (want is not None), case
        if want is None:
            misses[case.split()[0]] += 1
            continue
        hits[case.split()[0]] += 1
        assert got.x.tobytes() == want.x.tobytes(), case
        assert got.objective_value.hex() == want.objective_value.hex(), case
        assert got.basis == want.basis and got.certificate is start.certificate, case
        u_J = lp._primal_vertex(start.certificate, problem.bounds)
        assert lp._optimal(problem, start.certificate, u_J).x.tobytes() == want.x.tobytes()
    assert set(hits) == {"web-evolving", "web-dh-postgres", "net2", "net3", "net4"}, hits
    assert hits["web-evolving"] > 800 and misses["web-dh-postgres"] > 0, (hits, misses)
    # A singular square and a non-finite bound fail the re-check without a
    # warning (pytest turns warnings into errors).
    cert, b = start.certificate, problem.bounds
    square = cert.square.copy()
    square[-1] = square[0]
    assert lp._primal_vertex(replace(cert, square=square), b) is None
    for value in (np.inf, -np.inf, np.nan):
        for row in (cert.tight[0], np.setdiff1d(np.arange(b.size), cert.tight)[0]):
            broken = b.copy()
            broken[row] = value
            assert lp._primal_vertex(cert, broken) is None


def _recorded_alp_solves(monkeypatch, name: str) -> list:
    """Every ``(problem, solution)`` of ``solve_alp`` on ``name``'s ALP over a chain of beliefs.

    The chain starts at the cold belief, drifts by small perturbations and
    jumps to a random belief twice, each re-plan built on the last problem.
    """
    rng = np.random.default_rng(5)
    if name.startswith("web"):
        domain = make_web_app_domain()
        basis = build_state_basis(domain.space) if name == "web-state" else None
    else:
        domain, basis = make_network_domain(np.random.default_rng(0), n_nodes=int(name[-1])), None
    solves = []

    def recorded(problem, start=None, kept=None):
        solves.append((problem, solve_lp(problem, start=start, kept=kept)))
        return solves[-1][1]

    monkeypatch.setattr(alp_module, "solve_lp", recorded)
    posterior, problem = cold_posterior_table(domain), None
    for step in range(8):
        if step % 4 == 3:
            posterior = random_posterior_table(domain, rng)
        elif step:
            posterior = perturb_posterior_table(posterior, rng, scale=0.02)
        problem = build_alp(domain, posterior, basis, previous=problem)
        solve_alp(problem)
    return solves


def test_every_optimal_basis_is_dual_feasible(monkeypatch):
    # The solver issues a certificate without solving for the row duals; the
    # oracle solves for them on a standard form of its own.
    rng = np.random.default_rng(29)
    checked = {False: 0, True: 0}  # by warm
    for _ in range(150):
        problem = random_box_lp(rng)
        sol = solve_lp(problem)
        for _ in range(4):  # a chain of bound moves, cold and warm solves alike
            if sol.status != OPTIMAL:
                break
            assert reference_dual_feasible(problem, sol)
            checked[sol.warm] += 1
            problem = LPProblem(
                problem.c, problem.rows, problem.bounds + rng.uniform(-0.2, 0.2, problem.n_rows)
            )
            sol = solve_lp(problem, start=sol)
    for name in ["web-factored", "web-state", "net2", "net3", "net4", "net5"]:
        for problem, sol in _recorded_alp_solves(monkeypatch, name):
            assert sol.status == OPTIMAL and reference_dual_feasible(problem, sol), name
            checked[sol.warm] += 1
    assert min(checked.values()) > 50, checked


# ---------------------------------------------------------------------------
# dual restart after added rows
# ---------------------------------------------------------------------------


@pytest.fixture
def dual_restarts(monkeypatch):
    """Counts the dual simplex runs, so a test can tell a restart from a cold solve."""
    runs = []
    run = lp._run_dual_simplex

    def counted(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(lp, "_run_dual_simplex", counted)
    return runs


def test_a_restart_with_added_rows_matches_a_cold_solve_and_vertices(dual_restarts):
    rng = np.random.default_rng(37)
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    pivoted = 0
    for _ in range(400):
        problem = random_box_lp(rng)
        m = problem.n_rows
        kept = np.sort(rng.choice(m, size=int(rng.integers(1, m)), replace=False))
        first = solve_lp(LPProblem(problem.c, problem.rows[kept], problem.bounds[kept]))
        if first.status != OPTIMAL:
            continue
        restarts = len(dual_restarts)
        got = solve_lp(problem, start=first, kept=kept)
        assert len(dual_restarts) == restarts + 1  # restarted, not solved cold
        cold, oracle = solve_lp(problem), enumerate_vertices(problem)
        assert got.status == cold.status == oracle.status
        seen[got.status] += 1
        if got.status == OPTIMAL:
            assert got.objective_value == pytest.approx(oracle.objective_value, rel=1e-9, abs=1e-12)
            assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-12)
            assert reference_dual_feasible(problem, got)
            assert np.all(problem.rows @ got.x <= problem.bounds + FEAS_TOL)
            assert not got.warm and got.certificate.basis == got.basis
            pivoted += got.pivots > 0
    assert seen[OPTIMAL] > 100 and seen[INFEASIBLE] > 10 and pivoted > 50, (seen, pivoted)


def test_a_restart_checks_an_infeasible_row_as_a_farkas_proof(dual_restarts, monkeypatch):
    # min -x over x <= 1, then -x <= -2 added: the rows sum to 0 <= -1.
    first = solve_lp(LPProblem([-1.0], [[1.0]], [1.0]))
    contradicted = LPProblem([-1.0], [[1.0], [-1.0]], [1.0, -2.0])
    got = solve_lp(contradicted, start=first, kept=[0])
    assert got.status == INFEASIBLE and dual_restarts[-1][0] == INFEASIBLE
    assert lp._is_farkas_proof(contradicted, np.array([1.0, 1.0]))
    assert not lp._is_farkas_proof(contradicted, np.array([1.0, 0.5]))  # 0.5 x left over
    assert not lp._is_farkas_proof(LPProblem([-1.0], [[1.0], [-1.0]], [1.0, -0.5]), np.ones(2))
    # A row that does not check is a numerical breakdown, never a status.
    monkeypatch.setattr(lp, "_is_farkas_proof", lambda problem, y: False)
    with pytest.raises(lp.NumericalError, match="no proof of infeasibility") as info:
        solve_lp(contradicted, start=first, kept=[0])
    assert info.value.pivots == 0 and info.value.residual == pytest.approx(1.0)


def test_a_farkas_proof_has_no_negative_multiplier():
    # x <= 1 and x >= 2 contradict each other; the third row, x <= 5, does not take part.
    problem = LPProblem([-1.0], [[1.0], [-1.0], [1.0]], [1.0, -2.0, 5.0])
    assert lp._is_farkas_proof(problem, np.array([1.0, 1.0, 0.0]))
    # Its clipped form is the proof above, but a multiplier < 0 reverses its row.
    assert not lp._is_farkas_proof(problem, np.array([1.0, 1.0, -0.5]))


def _random_lp_multipliers(monkeypatch) -> list[tuple[LPProblem, np.ndarray]]:
    """Every ``(problem, y)`` handed to ``_is_farkas_proof`` by the random LPs here.

    They are the cold solves of random boxes (seed 31), the same LPs without
    their box rows (seed 41), and dual restarts with added rows (seed 37).
    """
    seen, is_proof = [], lp._is_farkas_proof
    monkeypatch.setattr(lp, "_is_farkas_proof", lambda p, y: seen.append((p, y)) or is_proof(p, y))
    rng = np.random.default_rng(31)
    for _ in range(600):
        solve_lp(random_box_lp(rng))
    for problem, _, _ in _box_less_lps():
        solve_lp(problem)
    rng, cold = np.random.default_rng(37), len(seen)
    for _ in range(400):
        problem = random_box_lp(rng)
        kept = np.sort(rng.choice(problem.n_rows, int(rng.integers(1, problem.n_rows)), False))
        first = solve_lp(LPProblem(problem.c, problem.rows[kept], problem.bounds[kept]))
        if first.status == OPTIMAL:
            solve_lp(problem, start=first, kept=kept)
    monkeypatch.setattr(lp, "_is_farkas_proof", is_proof)
    assert cold > 50 and len(seen) - cold > 10, (cold, len(seen))
    return seen


def _net5_phase_1_multipliers(monkeypatch) -> tuple[LPProblem, np.ndarray]:
    """The net5 pin program of ``test_golden`` and its duals where phase 1 ends.

    The program is feasible (its solve is optimal), and phase 1 ends at a
    residual of 3.2e-9 from a start of 1.2e5 with six tiny multipliers.
    """
    domain = make_network_domain(np.random.default_rng(0), n_nodes=5)
    problem = build_alp(domain, cold_posterior_table(domain)).lp
    run_simplex, ends = lp._run_simplex, []

    def recorded(tab, basis, max_iter):
        result = run_simplex(tab, basis, max_iter)
        ends.append(tab[-1].copy())
        return result

    monkeypatch.setattr(lp, "_run_simplex", recorded)
    assert solve_lp(problem).status == OPTIMAL
    n_u = 2 * problem.n_vars
    return problem, ends[0][n_u : n_u + problem.n_rows]


def _web_phase_1_multipliers(monkeypatch, gamma: float) -> tuple[LPProblem, np.ndarray]:
    """The cold web ALP's first round at discount ``gamma`` and the multipliers it offers.

    From gamma = 1 - 1e-9 on, the stay rows' coefficients (gamma - 1) * beta
    fall below FEAS_TOL, so phase 1 cannot pivot and offers its starting
    multipliers; the solve raises ``NumericalError``.
    """
    web = make_web_app_domain()
    domain = DomainInfo(web.space, web.types, web.sc, web.M, gamma)
    seen, is_proof = [], lp._is_farkas_proof
    monkeypatch.setattr(lp, "_is_farkas_proof", lambda p, y: seen.append((p, y)) or is_proof(p, y))
    with pytest.raises(lp.NumericalError):
        solve_alp(build_alp(domain, cold_posterior_table(domain)))
    monkeypatch.setattr(lp, "_is_farkas_proof", is_proof)
    (case,) = seen
    return case


def test_a_farkas_proof_is_judged_whatever_its_size(monkeypatch):
    # Any positive multiple of a proof is a proof (a power of two scales y
    # exactly), so the verdict cannot depend on the multipliers' size; and a
    # row and its bound times 2^j is the same constraint, so it cannot depend
    # on the rows' scale either.
    cases = _random_lp_multipliers(monkeypatch)
    net5, y5 = _net5_phase_1_multipliers(monkeypatch)
    assert 0.0 < y5.max() < 1e-10 and np.count_nonzero(y5) == 6
    assert not lp._is_farkas_proof(net5, y5)  # tiny duals of a feasible program prove nothing
    # Rows of entries near -1e-10 summed with no cancelling: a feasible program's
    # rows, which a floor of FEAS_TOL times y's largest entry took for a proof.
    web, y_web = _web_phase_1_multipliers(monkeypatch, 1.0 - 1e-10)
    assert not lp._is_farkas_proof(web, y_web)
    for problem, y in cases + [(net5, y5), (web, y_web)]:
        verdict = lp._is_farkas_proof(problem, y)
        for j in (-60, -20, 20, 60):
            assert lp._is_farkas_proof(problem, np.ldexp(y, j)) == verdict, j
            assert lp._is_farkas_proof(_row_scaled(problem, j), y) == verdict, j
    assert not lp._is_farkas_proof(net5, np.zeros(net5.n_rows))  # no multipliers, no proof


def test_a_ray_is_judged_whatever_its_size(monkeypatch):
    # The rays offered by the box-less LPs' solves, unscaled and at every row
    # scale: any positive multiple of a ray is a ray, and a row times 2^j is
    # the same constraint, so neither can change a verdict.
    offered, is_ray = [], lp._is_ray
    monkeypatch.setattr(lp, "_is_ray", lambda p, d: offered.append((p, d)) or is_ray(p, d))
    for problem, _, _ in _box_less_lps():
        for j in (0, *ROW_SCALES):
            try:
                solve_lp(_row_scaled(problem, j))
            except lp.NumericalError:
                pass
    monkeypatch.setattr(lp, "_is_ray", is_ray)
    tiny = LPProblem([-1.0], [[np.ldexp(1.0, -40)]], [1.0])  # min -x s.t. 2^-40 x <= 1
    assert not is_ray(tiny, np.ones(1))  # x -> oo breaks the row: no ray, at any scale
    verdicts = Counter()
    for problem, d in offered + [(tiny, np.ones(1))]:
        verdict = is_ray(problem, d)
        verdicts[verdict] += 1
        for j in (-60, -20, 20, 60):
            assert is_ray(_row_scaled(problem, j), d) == verdict, j
            assert is_ray(problem, np.ldexp(d, j)) == verdict, j
    assert verdicts[True] > 200 and verdicts[False] > 50, verdicts


def test_no_optimal_answer_breaks_a_row_beyond_the_tolerance(monkeypatch):
    # x <= -s - g and x >= -s conflict by g.  Phase 1 starts at a residual of
    # s + g; each solve is infeasible with a proof that checked, optimal within
    # FEAS_TOL of the larger of 1 and that start, or a NumericalError in the
    # band between the two, where the gap is about FEAS_TOL times the start.
    verdicts, is_proof = [], lp._is_farkas_proof

    def recorded(problem, y):
        verdicts.append(is_proof(problem, y))
        return verdicts[-1]

    monkeypatch.setattr(lp, "_is_farkas_proof", recorded)
    rows, seen = np.array([[1.0], [-1.0]]), Counter()
    for s in (0.0, 1e-6, 1.0, 1e3):
        for gap in np.geomspace(1e-12, 1e-1, 45):
            bounds = np.array([-s - gap, s])
            tol = FEAS_TOL * max(1.0, s + gap)
            verdicts.clear()
            try:
                sol = solve_lp(LPProblem([0.0], rows, bounds))
            except lp.NumericalError:
                assert verdicts == [False] and 0.5 * tol < gap < 4 * tol, (s, gap)
                seen["error"] += 1
                continue
            if sol.status == INFEASIBLE:
                assert verdicts == [True], (s, gap)
            else:
                assert sol.status == OPTIMAL and not verdicts
                assert (rows @ sol.x - bounds).max() <= tol, (s, gap)
            seen[sol.status] += 1
    assert seen[OPTIMAL] > 40 and seen[INFEASIBLE] > 100 and seen["error"] <= 8, seen


def test_a_restart_from_a_singular_tight_system_solves_cold(dual_restarts):
    start = _singular_start()
    rows, bounds = box_rows([-1.0, -1.0], [1.0, 1.0])
    added = LPProblem([1.0, 1.0], np.vstack([rows, [[1.0, 1.0]]]), np.append(bounds, 0.5))
    got, cold = solve_lp(added, start=start, kept=np.arange(4)), solve_lp(added)
    assert not dual_restarts  # the restart gave up before its dual simplex
    assert_same_solution(got, cold)
    assert got.pivots == cold.pivots > 0


def test_a_restart_needs_the_certified_rows_at_the_kept_positions(dual_restarts):
    rows, bounds = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.ones(4)
    c = [-1.0, -1.0]
    first = solve_lp(LPProblem(c, rows[:2], bounds[:2]))
    added = LPProblem(c, np.vstack([rows, [[1.0, 1.0]]]), np.append(bounds, 1.5))
    got = solve_lp(added, start=first, kept=[0, 1])
    assert len(dual_restarts) == 1 and got.objective_value == pytest.approx(-1.5)
    # Swapped positions, or another objective: a cold solve.
    cheaper = LPProblem([-1.0, -2.0], added.rows, added.bounds)
    for problem, kept in [(added, [1, 0]), (cheaper, [0, 1])]:
        got = solve_lp(problem, start=first, kept=kept)
        assert len(dual_restarts) == 1
        assert_same_solution(got, solve_lp(problem))
    with pytest.raises(ValueError, match="distinct rows"):
        solve_lp(added, start=first, kept=[0, 0])


@pytest.mark.parametrize(
    "kept",
    [
        [5, 7, 9],  # full length: read as every row, warm, before the rule
        [-1, -2, -3],
        [0, 0, 0],
        [0.2, 1.9],  # truncated to [0, 1], restarted
        [True, False, True],  # a boolean mask, read as every row
        [0, 3],  # past the end: an IndexError
        [[0, 1]],
        "01",
    ],
    ids=["past-end", "negative", "repeated", "float", "mask", "short-past-end", "2-d", "str"],
)
def test_kept_must_name_distinct_rows_by_integer_position(kept):
    rows, bounds = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 1.5])
    problem = LPProblem([-1.0, -1.0], rows, bounds)
    first = solve_lp(problem)
    for start in (first, None):
        with pytest.raises(ValueError, match="kept must name distinct rows"):
            solve_lp(problem, start=start, kept=kept)


def test_an_empty_or_integer_kept_of_any_width_is_valid(dual_restarts):
    rows, bounds = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 1.5])
    problem = LPProblem([-1.0, -2.0], rows, bounds)  # optimal at (0.5, 1) alone
    first = solve_lp(LPProblem(problem.c, rows[:2], bounds[:2]))
    for kept in (np.array([0, 1], dtype=np.uint8), np.array([0, 1], dtype=np.int32), (0, 1)):
        assert_same_solution(solve_lp(problem, start=first, kept=kept), solve_lp(problem))
    assert len(dual_restarts) == 3
    free = LPProblem([0.0, 0.0], np.zeros((0, 2)), [])
    assert solve_lp(free, start=solve_lp(free), kept=[]).warm
    assert solve_lp(problem, start=first, kept=[]).status == OPTIMAL  # other rows: cold


# ---------------------------------------------------------------------------
# one vertex per basis, whichever path reached it
# ---------------------------------------------------------------------------


def test_every_optimal_x_is_solved_from_its_certificate(monkeypatch, dual_restarts):
    # Cold, warm and restarted solves all read x from the final basis: it is
    # bitwise the vertex that numpy's public solve gives for the certificate's
    # tight rows at the problem's bounds, and vertex enumeration agrees.
    paths, rng = Counter(), np.random.default_rng(47)

    def check(problem, sol, restarts=None):
        """``restarts``: the dual simplex runs before the solve; None for an ALP's
        recorded solve, too large to enumerate."""
        if sol.status != OPTIMAL:
            return
        assert sol.x.tobytes() == certified_x(problem, sol).tobytes()
        if restarts is None:
            paths["alp"] += 1
            return
        want = enumerate_vertices(problem).objective_value
        assert sol.objective_value == pytest.approx(want, rel=1e-9, abs=1e-9)
        paths["warm" if sol.warm else "restart" if len(dual_restarts) > restarts else "cold"] += 1

    for boxed, _, _ in _box_lps():
        sol = solve_lp(boxed)
        check(boxed, sol, len(dual_restarts))
        for _ in range(2):  # bound moves, each from the last solution
            if sol.status != OPTIMAL:
                break
            moved = boxed.bounds + rng.uniform(-0.4, 0.4, boxed.n_rows)
            boxed = LPProblem(boxed.c, boxed.rows, moved)
            restarts, sol = len(dual_restarts), solve_lp(boxed, start=sol)
            check(boxed, sol, restarts)
        kept = np.sort(rng.choice(boxed.n_rows, int(rng.integers(1, boxed.n_rows)), False))
        first = solve_lp(LPProblem(boxed.c, boxed.rows[kept], boxed.bounds[kept]))
        if first.status == OPTIMAL:
            restarts = len(dual_restarts)
            check(boxed, solve_lp(boxed, start=first, kept=kept), restarts)
    for name in ["web-factored", "web-state", "net2", "net3", "net4", "net5"]:
        for problem, sol in _recorded_alp_solves(monkeypatch, name):
            check(problem, sol)
    assert min(paths.values()) > 20 and len(paths) == 4, paths
    print(dict(paths))


def test_a_failed_recheck_and_its_dual_restart_give_one_x_per_basis():
    # Only the bounds moved, so the carried basis of a failed warm re-check is
    # still dual feasible, and the dual restart from it reaches an optimum.
    # On web-dh-postgres it ends on the two-phase solve's basis, with bitwise
    # its x, or at another optimal vertex at the same objective; a run's
    # steps.csv rows change only from a re-plan that ended at another vertex.
    def two_phase(problem, cert):
        return solve_lp(problem)

    audits = audit_solves(["web-dh-postgres"], range(3), [1.0, 0.5], two_phase)
    solves = [solve for audit in audits for solve in audit.solves]
    verdicts = Counter(solve.verdict for solve in solves)
    assert set(verdicts) <= {"same x", "other vertex"}, verdicts
    assert max(solve.gap for solve in solves) <= 1e-9
    assert verdicts["same x"] > 1000 and verdicts["other vertex"] > 0, verdicts
    for audit in audits:
        if audit.diverges_at is not None:
            first = next(solve for solve in audit.solves if solve.verdict != "same x")
            assert first.step <= audit.diverges_at
    pivots = [sum(solve.pivots[i] for solve in solves) for i in (0, 1)]
    print(f"audit: {dict(verdicts)}; pivots restart {pivots[0]}, two-phase {pivots[1]}; "
          f"first divergent step per run {[audit.diverges_at for audit in audits]}")


# ---------------------------------------------------------------------------
# a restart's tableau by block elimination, against Gauss-Jordan pivots
# ---------------------------------------------------------------------------


def _pivot_path(monkeypatch, problem: LPProblem, start) -> tuple[list, object]:
    """The dual simplex and primal pass from ``start``, ``(A, tab, basis)``: each
    pivot's leaving and entering column, and the solution or the error raised."""
    path, current, pivot = [], start[2].copy(), lp._pivot

    def recorded(tab, row, col):
        path.append((int(current[row]), col))
        current[row] = col
        pivot(tab, row, col)

    monkeypatch.setattr(lp, "_pivot", recorded)
    try:
        return path, lp._dual_simplex_from(problem, *start)
    except lp.NumericalError as err:
        return path, str(err)
    finally:
        monkeypatch.setattr(lp, "_pivot", pivot)


def assert_restarts_agree(monkeypatch, problem: LPProblem, cert, kept: np.ndarray) -> int:
    """The block-eliminated and the Gauss-Jordan restart tableau agree, row by basic
    column, within 1e-12 of each column's largest entry, and the simplex from each
    takes the same pivots to one answer, bitwise one x; returns the pivots."""
    ours = lp._restart_tableau(problem, cert, kept)
    theirs = reference_restart_tableau(problem, cert, kept)
    assert ours is not None and theirs is not None
    (_, tab, basis), (_, ref, ref_basis) = ours, theirs
    assert sorted(basis.tolist()) == sorted(ref_basis.tolist())
    mine, want = tab[np.append(basis.argsort(), -1)], ref[np.append(ref_basis.argsort(), -1)]
    scale = np.maximum(np.abs(mine).max(axis=0), np.abs(want).max(axis=0))
    assert (np.abs(mine - want) <= 1e-12 * scale).all()
    (path, sol), (ref_path, ref_sol) = [_pivot_path(monkeypatch, problem, s) for s in (ours, theirs)]
    assert path == ref_path
    if isinstance(ref_sol, str):
        assert sol == ref_sol
    else:
        assert (sol.status, sol.basis, sol.pivots) == (ref_sol.status, ref_sol.basis, ref_sol.pivots)
        assert (sol.x is None and ref_sol.x is None) or sol.x.tobytes() == ref_sol.x.tobytes()
    return len(path)


def test_a_restart_tableau_is_the_gauss_jordan_one_on_random_lps(monkeypatch):
    # Rows added to a solved subset, and bounds moved past a failed re-check.
    rng, cases, pivots = np.random.default_rng(37), Counter(), Counter()
    for _ in range(400):
        problem = random_box_lp(rng)
        m = problem.n_rows
        kept = np.sort(rng.choice(m, size=int(rng.integers(1, m)), replace=False))
        first = solve_lp(LPProblem(problem.c, problem.rows[kept], problem.bounds[kept]))
        if first.status == OPTIMAL:
            cases["added"] += 1
            pivots["added"] += assert_restarts_agree(monkeypatch, problem, first.certificate, kept)
        full = solve_lp(problem)
        moved = LPProblem(problem.c, problem.rows, problem.bounds + rng.uniform(-0.5, 0.5, m))
        if full.status == OPTIMAL and lp._primal_vertex(full.certificate, moved.bounds) is None:
            cases["moved"] += 1
            pivots["moved"] += assert_restarts_agree(monkeypatch, moved, full.certificate, np.arange(m))
    assert min(cases.values()) > 100 and min(pivots.values()) > 100, (cases, pivots)


def test_a_restart_tableau_is_the_gauss_jordan_one_on_cold_network_plans(monkeypatch):
    restarts, restart = [], lp._dual_restart

    def recorded(problem, cert, kept):
        restarts.append((problem, cert, kept))
        return restart(problem, cert, kept)

    monkeypatch.setattr(lp, "_dual_restart", recorded)
    for n_nodes in range(2, 7):
        for seed in range(2):
            domain = make_network_domain(np.random.default_rng(seed), n_nodes=n_nodes)
            solve_alp(build_alp(domain, cold_posterior_table(domain)))
    monkeypatch.setattr(lp, "_dual_restart", restart)
    pivots = [assert_restarts_agree(monkeypatch, *case) for case in restarts]
    assert len(restarts) >= 15 and sum(pivots) > 100, (len(restarts), sum(pivots))


def test_a_restart_tableau_is_the_gauss_jordan_one_on_failed_rechecks(monkeypatch):
    # Every failed re-check of web-dh-postgres, both constructions side by
    # side, and the audit with the Gauss-Jordan restart as the alternative:
    # each re-plan ends on the same basis with bitwise the same x, so no
    # run's steps.csv rows change.
    def gauss_jordan(problem, cert):
        kept = np.arange(problem.n_rows)
        assert_restarts_agree(monkeypatch, problem, cert, kept)
        return reference_dual_restart(problem, cert, kept)

    audits = audit_solves(["web-dh-postgres"], range(3), [1.0, 0.5], gauss_jordan)
    solves = [solve for audit in audits for solve in audit.solves]
    verdicts = Counter(solve.verdict for solve in solves)
    assert verdicts == {"same x": len(solves)} and len(solves) > 1000, verdicts
    assert all(solve.pivots[0] == solve.pivots[1] for solve in solves)
    assert [audit.diverges_at for audit in audits] == [None] * 6
    print(f"audit: {dict(verdicts)} over {len(audits)} runs; "
          f"pivots {sum(solve.pivots[0] for solve in solves)} each way")


def test_a_restart_builds_its_tableau_with_one_solve_and_no_pivot(monkeypatch):
    # A deterministic work count for a cold 4-node plan (seed 0-2): every
    # lp._pivot call, the restart's construction included, and the solve
    # calls.  Each of the two restarts makes one solve and no pivot before its
    # dual simplex; built by one Gauss-Jordan pivot per basic column, the
    # plans over seeds 0-9 took 41.4 pivots on average, against 30.4.
    counts = {}
    for seed in range(3):
        events = []
        for name in ("_pivot", "_solve", "_restart_tableau", "_run_dual_simplex"):

            def spy(*args, run=getattr(lp, name), name=name, **kwargs):
                events.append(name)
                return run(*args, **kwargs)

            monkeypatch.setattr(lp, name, spy)
        domain = make_network_domain(np.random.default_rng(seed), n_nodes=4)
        solve_alp(build_alp(domain, cold_posterior_table(domain)))
        monkeypatch.undo()
        starts = [i for i, event in enumerate(events) if event == "_restart_tableau"]
        assert len(starts) == 2
        for i in starts:
            assert events[i + 1 : events.index("_run_dual_simplex", i)] == ["_solve"]
        counts[seed] = events.count("_pivot")
    assert counts == {0: 29, 1: 29, 2: 29}


# ---------------------------------------------------------------------------
# per-solve assembly against its loop forms, bitwise
# ---------------------------------------------------------------------------


def _mixed_scale_lps(rng: np.random.Generator, count: int) -> list[LPProblem]:
    """Random box LPs whose rows, costs and bounds hold +0.0 and -0.0, and whose
    other entries span 2^-20..2^20."""
    problems = []
    for _ in range(count):
        lp_ = random_box_lp(rng)
        arrays = []
        for value in (lp_.c, lp_.rows, lp_.bounds):
            value = value * np.exp2(rng.integers(-20, 21, size=value.shape))
            zeros = rng.random(value.shape) < 0.15
            value[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            arrays.append(value)
        problems.append(LPProblem(*arrays))
    return problems


def test_the_standard_form_is_bitwise_its_strided_update_form():
    for problem in _mixed_scale_lps(np.random.default_rng(53), 300):
        A, c = lp._standard_form(problem)
        want_A = np.repeat(problem.rows, 2, axis=1)
        want_A[:, 1::2] *= -1.0
        want_c = np.repeat(problem.c, 2)
        want_c[1::2] *= -1.0
        assert A.shape == want_A.shape and A.tobytes() == want_A.tobytes()
        assert c.shape == want_c.shape and c.tobytes() == want_c.tobytes()


def test_both_phases_price_their_cost_rows_bitwise_as_the_row_loops(monkeypatch):
    # The phase-1 cost row subtracts the flipped rows from 0, the phase-2 one
    # each costed basic row's multiple from the costs, one row at a time;
    # both are a single ordered reduction.  Checked on the tableaux as the
    # simplex receives them.
    entries, run = [], lp._run_simplex

    def captured(tab, basis, max_iter):
        entries.append((tab.copy(), basis.copy()))
        return run(tab, basis, max_iter)

    monkeypatch.setattr(lp, "_run_simplex", captured)
    phases = Counter()
    for problem in _mixed_scale_lps(np.random.default_rng(59), 300):
        entries.clear()
        try:
            solve_lp(problem)
        except lp.NumericalError:
            pass
        A, c_u = lp._standard_form(problem)
        m, n_u = A.shape
        tab, basis = entries[0]
        flip = np.flatnonzero(basis >= n_u + m)
        want = np.zeros(tab.shape[1])
        for r in flip:
            want[:n_u] -= tab[r, :n_u]
            want[-1] -= tab[r, -1]
        want[n_u + flip] = 1.0
        assert tab[-1].tobytes() == want.tobytes()
        phases[1] += flip.size > 1
        if len(entries) == 2:
            tab, basis = entries[1]
            c_full = np.concatenate([c_u, np.zeros(m)])
            zrow = np.concatenate([c_full, [0.0]])
            for r in np.flatnonzero(c_full[basis]):
                zrow -= c_full[basis[r]] * tab[r]
            assert tab[-1].tobytes() == zrow.tobytes()
            phases[2] += np.count_nonzero(c_full[basis]) > 1
    assert min(phases.values()) > 50, phases


# ---------------------------------------------------------------------------
# numpy's private entry points against their public wrappers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["web-factored", "net4"])
def test_the_private_numpy_entry_points_are_bitwise_their_public_wrappers(monkeypatch, name):
    # lp calls the LAPACK gufuncs behind np.linalg.solve (one right-hand
    # side for an x, a block of them for a restart), and domain the C
    # function behind np.einsum(optimize=False), without their wrappers; the
    # policy's successor values and the most-adverse attacker's damage take
    # ndarray.dot, the BLAS call behind @ without the matmul ufunc.  A numpy
    # that changes any of these entry points fails here, on the tight
    # systems and weights of a planner's solves, on its belief tables, and on
    # the attacker's smoothed estimates of the defender's policy.
    solves = _recorded_alp_solves(monkeypatch, name)
    rng = np.random.default_rng(3)
    for problem, sol in solves:
        cert = sol.certificate
        for b in (problem.bounds[cert.tight], rng.normal(size=len(cert.tight))):
            got = lp._solve1(cert.square, b, signature="dd->d")
            assert got.tobytes() == np.linalg.solve(cert.square, b).tobytes()
        k, A = len(cert.tight), lp._standard_form(problem)[0]
        block = np.column_stack([A[cert.tight], np.eye(k), problem.bounds[cert.tight]])
        for b in (block, rng.normal(size=block.shape)):  # a restart's block, and another
            got = lp._solve(cert.square, b, signature="dd->d")
            assert got.tobytes() == np.linalg.solve(cert.square, b).tobytes()
    domain = make_web_app_domain() if name == "web-factored" else (
        make_network_domain(np.random.default_rng(0), n_nodes=4)
    )
    activations = build_basis(domain.space).activations
    for weights in [sol.x for _, sol in solves] + [rng.normal(size=activations.shape[1])]:
        assert activations.dot(weights).tobytes() == (activations @ weights).tobytes()
    networks = [make_network_domain(np.random.default_rng(0), n_nodes=k) for k in (2, 3, 4, 5)]
    for attacked in [domain] if name == "web-factored" else networks:
        damage, S = attacked.damage_table, attacked.n_configs
        for moves in rng.integers(0, np.repeat([1, 3, 50, 1000], 25)[:, None], size=(100, S)):
            smoothed = moves + 1.0
            estimate = smoothed / (int(moves.sum()) + S)
            assert estimate.tobytes() == (smoothed / smoothed.sum()).tobytes()
            assert damage.dot(estimate).tobytes() == (damage @ estimate).tobytes()
    tables = [cold_posterior_table(domain)] + [random_posterior_table(domain, rng) for _ in range(5)]
    for table in tables:
        for rates in (domain.damage_table, domain.mu_table):
            got = domain_module._c_einsum("tsa,ta->sa", table, rates)
            want = np.einsum("tsa,ta->sa", table, rates, optimize=False)
            assert got.tobytes() == want.tobytes()
    assert len(solves) > 5


# ---------------------------------------------------------------------------
# ufunc reductions on the re-plan path, counted without a clock
# ---------------------------------------------------------------------------


def ufunc_reductions(call, *args) -> tuple[object, list[str]]:
    """``call(*args)``, and the ufuncs whose ``reduce`` it runs, in order.

    ``sys.setprofile`` reports each call of a builtin method as a ``c_call``
    event, also one made inside numpy's Python code (``ndarray.min`` calls
    ``np.minimum.reduce``), so the count needs no clock.
    """
    names = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "reduce":
            if isinstance(getattr(arg, "__self__", None), np.ufunc):
                names.append(arg.__self__.__name__)

    sys.setprofile(profile)
    try:
        result = call(*args)
    finally:
        sys.setprofile(None)
    return result, names


def test_the_replan_path_reads_extremes_by_index_not_by_ufunc_reduction(monkeypatch):
    # A reduction costs about 1 us on these arrays of a few dozen entries, its
    # value read by index less than half of that (domain.extremum).  A warm
    # re-check makes none, the first on a certificate (which works out
    # u_limit) included, and a moved belief table only the sum of its scores.
    warm = [(p, sol) for p, sol in _recorded_alp_solves(monkeypatch, "web-factored") if sol.warm]
    assert len(warm) >= 2
    for problem, sol in warm:
        cert = replace(sol.certificate)  # a copy, whose u_limit is not worked out yet
        for _ in range(2):
            u_J, reductions = ufunc_reductions(lp._primal_vertex, cert, problem.bounds)
            assert reductions == []
            assert lp._optimal(problem, cert, u_J).x.tobytes() == sol.x.tobytes()
    est = ThreatEstimator(make_web_app_domain())
    for tau, state, action in ((0, 1, 2), (2, 3, 0), (1, 1, 2)):
        kept = est.posterior_table()
        est.update(tau, state, action, phi=1)
        table, reductions = ufunc_reductions(est.posterior_table)
        assert reductions == ["add"] and table is not kept


def test_a_moved_replan_scores_its_greedy_policy_without_a_ufunc_reduction(monkeypatch):
    # The web planner's 4x4 score table is under alp.SMALL_TABLE entries, so
    # greedy_actions takes its row loop on Python floats, with none of the two
    # row reductions' per-call cost.
    reductions = []

    def profiled(problem, weights):
        moved = problem.policy is None
        policy, names = ufunc_reductions(extract_policy, problem, weights)
        if moved:
            reductions.append(names)
        return policy

    monkeypatch.setattr(strategies_module, "extract_policy", profiled)
    run = resolve_run(ExperimentConfig(scenario="web-evolving", seed=0))
    env = MTDEnvironment(run.domain, run.scenario, run.start_state)
    ata_fmdp_run(run.domain, env, run.timesteps, np.random.default_rng(0))
    assert len(reductions) > 100 and all(names == [] for names in reductions)
