"""Unit tests for the two-phase simplex solver."""

import numpy as np
import pytest

from mtdsim.lp import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPProblem,
    LPSolution,
    solve_lp,
)
from oracles import compare_simplex_to_vertices, enumerate_vertices, random_box_lp


def test_single_variable_upper_bound():
    # max x s.t. x <= 5  ==  min -x
    sol = solve_lp(LPProblem(c=[-1.0], rows=[[1.0]], bounds=[5.0], lower=[0.0]))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(5.0, abs=1e-9)


def test_two_variable_simplex_face():
    # max x + y s.t. x + y <= 1, x, y >= 0
    sol = solve_lp(
        LPProblem(c=[-1.0, -1.0], rows=[[1.0, 1.0]], bounds=[1.0], lower=[0.0, 0.0])
    )
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_infeasible_sign_conflict():
    # x <= -1 with x >= 0 has no solution (phase-1 optimum exactly 1).
    sol = solve_lp(LPProblem(c=[1.0], rows=[[1.0]], bounds=[-1.0], lower=[0.0]))
    assert sol.status == INFEASIBLE
    assert sol.x is None


def test_infeasible_between_rows():
    # x >= 2 and x <= 1 expressed as rows only; x free.
    sol = solve_lp(LPProblem(c=[1.0], rows=[[-1.0], [1.0]], bounds=[-2.0, 1.0]))
    assert sol.status == INFEASIBLE


def test_unbounded_ray():
    # min -x with x >= 0 and no ceiling.
    sol = solve_lp(LPProblem(c=[-1.0], rows=[[0.0]], bounds=[1.0], lower=[0.0]))
    assert sol.status == UNBOUNDED


def test_unbounded_without_rows():
    sol = solve_lp(LPProblem(c=[-1.0], rows=np.zeros((0, 1)), bounds=np.zeros(0)))
    assert sol.status == UNBOUNDED


def test_no_rows_with_finite_bounds_sits_at_best_corner():
    sol = solve_lp(
        LPProblem(
            c=[1.0, -2.0],
            rows=np.zeros((0, 2)),
            bounds=np.zeros(0),
            lower=[-2.0, -2.0],
            upper=[3.0, 3.0],
        )
    )
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
    sol = solve_lp(
        LPProblem(
            c=[1.0, 0.0],
            rows=[[1.0, 1.0], [-1.0, -1.0]],
            bounds=[2.0, -2.0],
            lower=[0.0, 0.0],
            upper=[3.0, 3.0],
        )
    )
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.x[0] + sol.x[1] == pytest.approx(2.0, abs=1e-9)


def test_upper_bound_only_variable_flips():
    # min x with x <= 4 only: unbounded below; min -x is optimal at 4.
    assert solve_lp(LPProblem(c=[1.0], rows=np.zeros((0, 1)), bounds=[], upper=[4.0])).status == UNBOUNDED
    sol = solve_lp(LPProblem(c=[-1.0], rows=np.zeros((0, 1)), bounds=[], upper=[4.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(4.0)


def test_crossed_variable_bounds_are_infeasible():
    sol = solve_lp(LPProblem(c=[1.0], rows=[[1.0]], bounds=[1.0], lower=[2.0], upper=[1.0]))
    assert sol.status == INFEASIBLE


def test_negative_lower_bound_shift():
    # min x + y over the box [-5, -1]^2 with x + y >= -7.
    sol = solve_lp(
        LPProblem(
            c=[1.0, 1.0],
            rows=[[-1.0, -1.0]],
            bounds=[7.0],
            lower=[-5.0, -5.0],
            upper=[-1.0, -1.0],
        )
    )
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-7.0, abs=1e-9)


def test_beale_cycling_example_terminates():
    # A classic degenerate program that cycles under naive pivoting; Bland's
    # rule must terminate at objective -1/20.
    problem = LPProblem(
        c=[-0.75, 150.0, -0.02, 6.0],
        rows=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        bounds=[0.0, 0.0, 1.0],
        lower=[0.0, 0.0, 0.0, 0.0],
    )
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


def test_duplicate_rows_are_harmless():
    row = [1.0, 2.0]
    sol = solve_lp(
        LPProblem(c=[-1.0, -1.0], rows=[row, row, row], bounds=[4.0, 4.0, 4.0],
                  lower=[0.0, 0.0])
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
        problem = LPProblem(
            c=rng.normal(size=n), rows=rows, bounds=bounds,
            lower=np.full(n, -4.0), upper=np.full(n, 4.0),
        )
        sol = solve_lp(problem)
        assert sol.status == OPTIMAL  # anchored at x0, so always feasible
        assert np.all(problem.rows @ sol.x <= problem.bounds + 1e-7)
        assert np.all(sol.x >= problem.lower - 1e-9)
        assert np.all(sol.x <= problem.upper + 1e-9)
        assert sol.objective_value <= problem.c @ x0 + 1e-7


def test_matches_vertex_enumeration_on_random_boxes():
    # Acceptance runs 200 cases at seed 10; use a different seed here for
    # extra coverage at lower cost.
    assert compare_simplex_to_vertices(60, seed=11) == []


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        LPProblem(c=[1.0, 2.0], rows=[[1.0, 0.0]], bounds=[1.0, 2.0])
    with pytest.raises(ValueError):
        LPProblem(c=[1.0], rows=[[1.0]], bounds=[1.0], lower=[0.0, 0.0])


def test_debug_dump_mentions_rows_and_bounds():
    problem = LPProblem(c=[1.0], rows=[[2.0]], bounds=[3.0], lower=[0.0], upper=[9.0])
    text = problem.debug_dump()
    assert "min" in text and "<= 3" in text and "x0 <= 9" in text


def test_solution_dataclass_defaults():
    sol = LPSolution(INFEASIBLE)
    assert sol.x is None and sol.objective_value is None
    assert FEAS_TOL < 1e-6


# ---------------------------------------------------------------------------
# warm start from an earlier optimal basis
# ---------------------------------------------------------------------------


def test_optimal_solution_reports_its_standard_form_basis():
    # Free x splits into two columns; one row adds one slack column.
    sol = solve_lp(LPProblem(c=[1.0], rows=[[-1.0]], bounds=[7.0]))
    assert sol.basis == (1,)  # the "minus" half of x is basic, the slack is not
    assert not sol.warm
    again = solve_lp(LPProblem(c=[1.0], rows=[[-1.0]], bounds=[7.0]), start=sol.basis)
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
        moved = LPProblem(problem.c, problem.rows, bounds, problem.lower, problem.upper)
        warm = solve_lp(moved, start=first.basis)
        cold = solve_lp(moved)
        oracle = enumerate_vertices(moved)
        compared += 1
        warm_hits += warm.warm
        assert warm.status == cold.status == oracle.status
        if oracle.status == OPTIMAL:
            assert warm.objective_value == pytest.approx(oracle.objective_value, abs=1e-7)
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-7)
            assert np.all(moved.rows @ warm.x <= moved.bounds + 1e-7)
            assert np.all((moved.lower - 1e-9 <= warm.x) & (warm.x <= moved.upper + 1e-9))
    # Small moves keep most bases optimal; the rest must have fallen back.
    assert 0 < warm_hits < compared


def test_warm_start_that_lost_dual_feasibility_falls_back_to_cold():
    rng = np.random.default_rng(22)
    fallbacks = 0
    for _ in range(40):
        problem = random_box_lp(rng)
        first = solve_lp(problem)
        if first.status != OPTIMAL:
            continue
        flipped = LPProblem(-problem.c, problem.rows, problem.bounds, problem.lower, problem.upper)
        sol = solve_lp(flipped, start=first.basis)
        fallbacks += not sol.warm
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(
            enumerate_vertices(flipped).objective_value, abs=1e-7
        )
    assert fallbacks > 0


def test_warm_start_with_a_cheaper_nonbasic_column_falls_back_to_cold():
    # Lowering the cost of a variable whose column is nonbasic leaves the row
    # duals alone but makes that column's reduced cost negative.
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 20:
        problem = random_box_lp(rng)
        first = solve_lp(problem)
        if first.status != OPTIMAL:
            continue
        # Box-bounded variables map one to one onto the first standard-form columns.
        nonbasic = [j for j in range(problem.n_vars) if j not in first.basis]
        if not nonbasic:
            continue
        c = problem.c.copy()
        c[nonbasic[0]] -= 10.0
        cheaper = LPProblem(c, problem.rows, problem.bounds, problem.lower, problem.upper)
        sol = solve_lp(cheaper, start=first.basis)
        assert sol.status == OPTIMAL and not sol.warm
        assert sol.objective_value == pytest.approx(
            enumerate_vertices(cheaper).objective_value, abs=1e-7
        )
        checked += 1


def test_singular_start_falls_back_to_cold():
    # Both halves of the split free variable are linearly dependent columns.
    problem = LPProblem(c=[1.0], rows=[[-1.0], [1.0]], bounds=[7.0, 2.0])
    sol = solve_lp(problem, start=(0, 1))
    assert sol.status == OPTIMAL and not sol.warm
    assert sol.x[0] == pytest.approx(-7.0)


@pytest.mark.parametrize(
    "start",
    [(0,), (0, 1, 2), (0, 4), (-1, 2), (2, 2), np.array([0.0, 2.0])],
    ids=["short", "long", "out-of-range", "negative", "duplicate", "not-integer"],
)
def test_malformed_start_raises(start):
    # Two rows over one free variable: 2 split columns + 2 slacks, basis size 2.
    problem = LPProblem(c=[1.0], rows=[[-1.0], [1.0]], bounds=[7.0, 2.0])
    with pytest.raises(ValueError):
        solve_lp(problem, start=start)
