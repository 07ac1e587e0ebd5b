"""Independent reference computations used by the unit and acceptance tests.

The LP oracle solves min c@x over {rows@x <= bounds} by brute-force vertex
enumeration, so it shares no code path with the simplex implementation under
test.  The posterior oracle is the estimator's belief table computed cell by
cell, with the capability mask and fallback rebuilt from the domain.  The
planner oracle is the adaptive defender's loop re-planning at every scheduled
step, with nothing kept between re-plans but the last LP solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from mtdsim.alp import build_alp, greedy_actions
from mtdsim.domain import DomainInfo, expected_reward_table
from mtdsim.environments import MTDEnvironment, StepRecord
from mtdsim.estimator import DEFAULT_BETA, ThreatEstimator
from mtdsim.lp import INFEASIBLE, OPTIMAL, LPProblem, LPSolution, solve_lp


def uncertified(solution: LPSolution) -> LPSolution:
    """``solution`` without its certificate, so a solve started from it certifies its basis."""
    return replace(solution, certificate=None)


@dataclass
class VertexSolution:
    status: str
    objective_value: float | None


def enumerate_vertices(problem: LPProblem) -> VertexSolution:
    """Optimum by checking every basic point of the inequality system.

    Requires a bounded region, such as one whose rows include a box (a
    nonempty polytope always contains a vertex and the optimum is at one).
    """
    n = problem.n_vars
    G, h = problem.rows, problem.bounds
    best = None
    for rows in combinations(range(G.shape[0]), n):
        sub = G[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        v = np.linalg.solve(sub, h[list(rows)])
        if np.all(G @ v <= h + 1e-9):
            value = float(problem.c @ v)
            if best is None or value < best:
                best = value
    if best is None:
        return VertexSolution(INFEASIBLE, None)
    return VertexSolution(OPTIMAL, best)


def box_rows(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Rows and bounds of the box lower <= x <= upper: first x <= upper, then -x <= -lower."""
    n = len(lower)
    return np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([upper, np.negative(lower)])


def random_box_lp(rng: np.random.Generator) -> LPProblem:
    """A small random LP over the box [-2, 3]^n; roughly half are anchored feasible.

    The last 2n rows are the box (``box_rows``).
    """
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 9))
    rows = rng.normal(size=(m, n))
    lower = np.full(n, -2.0)
    upper = np.full(n, 3.0)
    if rng.random() < 0.5:
        anchor = rng.uniform(lower, upper)
        bounds = rows @ anchor + np.abs(rng.normal(size=m))
    else:
        bounds = rng.normal(size=m)
    c = rng.normal(size=n)
    box, box_bounds = box_rows(lower, upper)
    return LPProblem(c=c, rows=np.vstack([rows, box]), bounds=np.concatenate([bounds, box_bounds]))


def compare_simplex_to_vertices(n_cases: int, seed: int, tol: float = 1e-6) -> list[str]:
    """Run ``n_cases`` random LPs through both solvers; return any mismatches."""
    rng = np.random.default_rng(seed)
    problems = [random_box_lp(rng) for _ in range(n_cases)]
    mismatches = []
    for idx, problem in enumerate(problems):
        got = solve_lp(problem)
        want = enumerate_vertices(problem)
        if got.status != want.status:
            mismatches.append(f"case {idx}: status {got.status} != {want.status}")
            continue
        if got.status == OPTIMAL:
            if abs(got.objective_value - want.objective_value) > tol * (
                1.0 + abs(want.objective_value)
            ):
                mismatches.append(
                    f"case {idx}: objective {got.objective_value:.9f} "
                    f"!= {want.objective_value:.9f}"
                )
                continue
            if np.any(problem.rows @ got.x > problem.bounds + 1e-7):
                mismatches.append(f"case {idx}: reported optimum violates constraints")
    return mismatches


def reference_posterior_table(estimator: ThreatEstimator) -> np.ndarray:
    """The (n_types, S, A) belief of ``estimator``, rebuilt from its counts and domain.

    Scores are count / rate where the rate against the target is positive (the
    unknown type scores with rate 1); a cell where no type scores falls back to
    uniform over the types capable against its target, or all zeros if none is.
    """
    domain, counts = estimator.domain, estimator.counts
    eff_mu = domain.mu_table.copy()
    if domain.unknown_index is not None:
        eff_mu[domain.unknown_index, :] = 1.0
    n_types, n = counts.shape[0], counts.shape[1]
    cap = np.broadcast_to((eff_mu > 0.0)[:, None, :], (n_types, n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(cap, counts / eff_mu[:, None, :], 0.0)
    totals = scores.sum(axis=0)  # (S, A)
    out = np.zeros_like(scores)
    seen = totals > 0.0
    out[:, seen] = scores[:, seen] / totals[seen]
    n_capable = cap.sum(axis=0)  # (S, A)
    fallback = (~seen) & (n_capable > 0)
    out[:, fallback] = cap[:, fallback] / n_capable[fallback]
    return out


def reference_ata_fmdp_run(
    domain: DomainInfo,
    env: MTDEnvironment,
    T: int,
    rng: np.random.Generator,
    reopt_period: int | None = 1,
    beta: float = DEFAULT_BETA,
) -> list[StepRecord]:
    """``strategies.ata_fmdp_run`` re-planning at every scheduled step, moved belief or not.

    Each re-plan rebuilds the rewards and bounds from the posterior table,
    solves the LP starting from the last ``LPSolution`` and scores the greedy
    policy; only the objective, rows and basis of the first program are reused.
    """
    estimator = ThreatEstimator(domain, beta=beta)
    program = build_alp(domain, estimator.posterior_table())
    solution: LPSolution | None = None
    policy: np.ndarray | None = None
    records: list[StepRecord] = []
    for t in range(T):
        if policy is None or (reopt_period is not None and t % reopt_period == 0):
            rewards = expected_reward_table(domain, estimator.posterior_table())
            lp = LPProblem(program.lp.c, program.lp.rows, -rewards.reshape(-1))
            solution = solve_lp(lp, start=solution)
            values = program.basis.activations @ solution.x
            policy = greedy_actions(rewards + domain.gamma * values[None, :])
        state = env.state
        action = int(policy[state])
        record = env.step(action, rng)
        estimator.update(domain.type_index(record.attacker_type), state, action, record.phi)
        records.append(record)
    return records
