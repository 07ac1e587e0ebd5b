"""Independent reference computations used by the unit and acceptance tests.

The LP oracle solves min c@x over {rows@x <= bounds} by brute-force vertex
enumeration, so it shares no code path with the simplex implementation under
test; ``dense_pivot`` is the full rank-one tableau update that the solver's
sparse pivot must reproduce bit for bit, and ``reference_run_simplex`` the
simplex loop that scans every row and column per pivot, which the solver's
loop must match pivot for pivot.  ``reference_dual_feasible`` proves a
solution's basis dual feasible on a standard form it builds itself, solving
for the row duals that the solver never computes, and ``certified_x`` solves
a solution's certificate for its vertex through ``np.linalg.solve``.
``reference_restart_tableau`` builds a dual restart's starting tableau by
one Gauss-Jordan pivot per basic structural column, which the solver's
block elimination must match, and ``reference_dual_restart`` restarts from
it.  ``audit_solves`` sets another solver path beside each failed warm
re-check of ``ata-fmdp`` runs and reports where the two part.  ``reference_step`` is the
environment step that draws the type with ``Generator.choice(p=)`` and
computes the reward on the domain's arrays.  The posterior oracle is the
estimator's belief table computed cell by cell, with the capability mask and
fallback rebuilt from the domain.  The planner oracle is the adaptive
defender's loop re-planning at every scheduled step from that posterior
oracle, with nothing kept between re-plans but the last LP solution.
``reference_network_domain`` builds the network domain configuration by
configuration, with the switching costs counted from a (state, action, node)
table, and ``reference_basis`` the factored basis column by column, afresh
on every call.  ``dependent_basis`` and ``dependent_state_basis`` are the
bases with a column more per factor (or configuration), whose span is the
same, and ``dependent_alp`` assembles their programs, which ``build_alp``
refuses.  ``recording`` makes an array that records every numpy call it takes
part in, so a test can tell that nothing compared it.  The bandit oracles are
the ``fpl`` and ``eps-greedy`` selections and updates written with numpy's
function wrappers, whole-array hit searches and numpy-scalar arithmetic, and
the ``fpl``, ``eps-greedy`` and ``urs`` loops built from them and
``reference_step``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from mtdsim import alp, lp
from mtdsim.alp import TIE_TOL, TIE_ULPS, build_alp
from mtdsim.domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    expected_reward_table,
)
from mtdsim.environments import (
    MOST_ADVERSE,
    NODE_OFFLINE,
    NODE_ONLINE,
    OFFLINE_COST,
    WEB_GAMMA,
    WEB_M,
    MTDEnvironment,
    StepRecord,
)
from mtdsim.estimator import DEFAULT_BETA, ThreatEstimator
from mtdsim.harness import ExperimentConfig, resolve_run
from mtdsim.strategies import (
    DEFAULT_EPSILON,
    DEFAULT_FPL_EXPLORE,
    DEFAULT_FPL_LMAX,
    DEFAULT_FPL_RATE,
    RESAMPLE_CHUNK,
    EpsGreedyStrategy,
    FplMtdStrategy,
    ata_fmdp_run,
)
from mtdsim.lp import FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LPProblem, LPSolution, solve_lp


def reference_network_domain(rng: np.random.Generator, n_nodes: int = 2) -> DomainInfo:
    """``environments.make_network_domain`` with a loop over the configurations per type.

    Draws the same parameters in the same order: for each source, for each
    target, the rate and then the loss.
    """
    space = ConfigSpace(
        tuple(FactorSpec(f"node{i}", (NODE_ONLINE, NODE_OFFLINE)) for i in range(n_nodes))
    )
    types = []
    for src in range(n_nodes):
        for tgt in range(n_nodes):
            low, high = (0.5, 0.6) if src == tgt else (0.2, 0.3)
            rate = float(rng.uniform(low, high))
            loss_val = float(rng.uniform(60.0, 70.0))
            mu = np.zeros(space.n_configs)
            loss = np.zeros(space.n_configs)
            for idx, config in enumerate(space.configs):
                if config[tgt] == NODE_ONLINE:
                    mu[idx] = rate
                    loss[idx] = loss_val
            types.append(AttackerTypeSpec(f"src{src}-tgt{tgt}", False, mu, loss))
    mu = np.zeros(space.n_configs)
    loss = np.zeros(space.n_configs)
    for idx, config in enumerate(space.configs):
        if config[0] == NODE_ONLINE:
            mu[idx] = 1.0
            loss[idx] = 100.0
    types.append(AttackerTypeSpec("unknown", True, mu, loss))

    online = np.array(
        [[v == NODE_ONLINE for v in config] for config in space.configs], dtype=bool
    )
    going_offline = online[:, None, :] & ~online[None, :, :]  # (S, A, nodes)
    sc = OFFLINE_COST * going_offline.sum(axis=2).astype(float)
    return DomainInfo(space, tuple(types), sc, WEB_M, WEB_GAMMA)


def reference_basis(space: ConfigSpace) -> alp.Basis:
    """``alp.build_basis`` built afresh, one column per (factor, value), never cached.

    Column 0 is the bias; the column of value v of factor f, for every value
    but the factor's first, is 1.0 at the configurations whose f-th entry is
    v.  The activations stay writeable.
    """
    names, columns = ["bias"], [np.ones(space.n_configs)]
    for f, factor in enumerate(space.factors):
        for value in factor.values[1:]:
            names.append(f"{factor.name}={value}")
            columns.append(np.array([float(config[f] == value) for config in space.configs]))
    return alp.Basis(tuple(names), np.column_stack(columns))


def dependent_basis(space: ConfigSpace) -> alp.Basis:
    """The factored basis with every factor's first-value column kept as well.

    A bias plus one indicator per (factor, value): 1 + sum(n_f) columns of
    rank 1 + sum(n_f - 1), since each factor's indicators sum to the bias.
    ``build_alp`` refuses it; ``dependent_alp`` assembles its program.
    """
    names, columns = ["bias"], [np.ones(space.n_configs)]
    for f, factor in enumerate(space.factors):
        for value in factor.values:
            names.append(f"{factor.name}={value}")
            columns.append(np.array([float(config[f] == value) for config in space.configs]))
    return alp.Basis(tuple(names), np.column_stack(columns))


def dependent_state_basis(space: ConfigSpace) -> alp.Basis:
    """A bias plus one indicator per configuration: S + 1 columns of rank S."""
    S = space.n_configs
    names = ["bias"]
    for config in space.configs:
        names.append(",".join(f"{f.name}={v}" for f, v in zip(space.factors, config)))
    return alp.Basis(tuple(names), np.column_stack([np.ones(S), np.eye(S)]))


def dependent_alp(
    domain: DomainInfo, posterior_table: np.ndarray, basis: alp.Basis
) -> alp.ALProblem:
    """The approximate LP of ``basis`` assembled row by row, with no check on its rank.

    Row s * S + a is gamma * beta(a) - beta(s) with bound -R(s, a), and the
    objective is the basis's mean activation, as ``build_alp`` states them.
    """
    B, S = basis.activations, domain.n_configs
    rows = np.array([domain.gamma * B[a] - B[s] for s in range(S) for a in range(S)])
    rewards = expected_reward_table(domain, posterior_table)
    program = LPProblem(B.sum(axis=0) / S, rows, -rewards.reshape(-1))
    return alp.ALProblem(domain, basis, program, rewards)


def reference_dual_feasible(problem: LPProblem, solution: LPSolution) -> bool:
    """Whether ``solution.basis`` is a basis of ``problem`` that is dual feasible for it.

    The standard form is built here column by column: free x_i splits into
    column 2i (+x_i) and column 2i+1 (-x_i), followed by one slack column per
    row.  Rows whose slack is nonbasic are tight; over the basic structural
    columns J their row duals pi solve A[tight, J]^T pi = c_J.  The basis is
    dual feasible when pi <= FEAS_TOL (the slacks' reduced costs are -pi) and
    every structural reduced cost c - A[tight]^T pi is >= -FEAS_TOL.
    """
    n, m = problem.n_vars, problem.n_rows
    var, sign = np.arange(2 * n) // 2, np.tile([1.0, -1.0], n)
    A, c = problem.rows[:, var] * sign, problem.c[var] * sign
    basis = set(solution.basis)
    if len(solution.basis) != m or len(basis) != m or not basis <= set(range(2 * n + m)):
        return False
    J = sorted(j for j in basis if j < 2 * n)
    tight = [r for r in range(m) if 2 * n + r not in basis]
    try:
        pi = np.linalg.solve(A[np.ix_(tight, J)].T, c[J])
    except np.linalg.LinAlgError:
        return False
    reduced = c - A[tight].T @ pi
    return bool((pi <= FEAS_TOL).all() and (reduced >= -FEAS_TOL).all())


def certified_x(problem: LPProblem, solution: LPSolution) -> np.ndarray:
    """The vertex of ``solution.certificate``'s basis at ``problem``'s bounds.

    The basic structural columns J solve the tight rows through numpy's public
    ``np.linalg.solve``; every other structural column is 0, and x_i is column
    2i minus column 2i+1.
    """
    cert = solution.certificate
    u = np.zeros(2 * problem.n_vars)
    u[cert.J] = np.linalg.solve(cert.square, problem.bounds[cert.tight])
    return u[0::2] - u[1::2]


def dense_pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``tab[row, col]`` with a rank-one update of every column."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])


def reference_restart_tableau(
    problem: LPProblem, cert: lp.Certificate, kept: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``lp._restart_tableau`` by pivoting: ``(A, tab, basis)``, or None.

    From the all-slack tableau, one ``lp._pivot`` per basic structural column
    of ``cert``, in ascending order, each on the still unused tight row
    (kept[cert.tight]) with the largest entry: Gauss-Jordan with partial
    pivoting on the tight system.  None when no such entry exceeds
    ``FEAS_TOL``.  A row's basic column may differ from the solver's; the
    tableau's rows, read by their basic columns, may not.
    """
    A, c_u = lp._standard_form(problem)
    n_u, m = c_u.size, problem.n_rows
    tab = np.zeros((m + 1, n_u + m + 1))
    tab[:m, :n_u] = A
    tab[np.arange(m), n_u + np.arange(m)] = 1.0
    tab[:m, -1] = problem.bounds
    tab[-1, :n_u] = c_u
    basis = np.arange(n_u, n_u + m)
    tight = kept[cert.tight].tolist()
    for j in cert.J.tolist():
        entries = np.abs(tab[tight, j])
        best = int(entries.argmax())
        if not entries[best] > FEAS_TOL:
            return None
        row = tight.pop(best)
        lp._pivot(tab, row, j)
        basis[row] = j
    return A, tab, basis


def reference_dual_restart(problem: LPProblem, cert: lp.Certificate, kept: np.ndarray):
    """``lp._dual_restart`` from ``reference_restart_tableau``'s tableau."""
    start = reference_restart_tableau(problem, cert, kept)
    return None if start is None else lp._dual_simplex_from(problem, *start)


def reference_run_simplex(tab: np.ndarray, basis: list[int], max_iter: int) -> tuple[str, int]:
    """``lp._run_simplex`` scanning every reduced cost and every row's ratio per pivot.

    Bland's rule: the lowest-index column with a reduced cost below
    ``-FEAS_TOL`` enters, and among the rows whose ratio ties the minimum the
    one with the lowest basis index leaves.  Pivots with ``lp._pivot``.
    """
    m = len(basis)
    for pivots in range(max_iter + 1):
        rc = tab[-1, :-1]
        eligible = np.nonzero(rc < -FEAS_TOL)[0]
        if eligible.size == 0:
            return OPTIMAL, pivots
        col = int(eligible[0])
        colvals = tab[:m, col]
        positive = colvals > FEAS_TOL
        if not np.any(positive):
            return UNBOUNDED, pivots
        if pivots == max_iter:
            break
        ratios = np.full(m, np.inf)
        ratios[positive] = tab[:m, -1][positive] / colvals[positive]
        best = float(ratios.min())
        ties = np.nonzero(ratios <= best + FEAS_TOL * (1.0 + abs(best)))[0]
        leave = int(ties[np.argmin(np.asarray(basis)[ties])])
        lp._pivot(tab, leave, col)
        basis[leave] = col
    raise RuntimeError("simplex exceeded its iteration limit")


def reference_step(env: MTDEnvironment, action: int, rng: np.random.Generator) -> StepRecord:
    """``env.step(action, rng)`` read from the scenario and domain as given.

    The phase is looked up in ``env.scenario`` at ``env.t``; a ``static_dist``
    type is drawn with ``rng.choice(p=)`` from the state's own distribution,
    and the reward is computed on the domain's arrays.  Advances ``env.t``,
    ``env.state`` and ``env.moves`` as a step does, and nothing else of ``env``.
    """
    domain, s, labels = env.domain, env.state, env.domain.space.labels()
    if env.t >= env.scenario.horizon:
        raise DomainError("scenario horizon exhausted")
    if not 0 <= action < domain.n_configs:
        raise DomainError(f"action index {action} out of range")
    phase = next(p for p in env.scenario.phases if p.t_start <= env.t < p.t_end)
    if phase.mode == MOST_ADVERSE:
        smoothed = env.moves[s] + 1.0
        tau = int(np.argmax(domain.damage_table @ (smoothed / smoothed.sum())))
    else:
        dist = (phase.per_state_dist or {}).get(labels[s], phase.dist)
        types = np.array([domain.type_index(i) for i in dist])
        tau = int(types[rng.choice(len(types), p=np.array(list(dist.values())))])
    phi = int(rng.random() < domain.mu_table[tau, action])
    loss = domain.loss_table[tau, action] if phi else 0.0
    reward = float(domain.M - loss - domain.sc[s, action])
    record = StepRecord(env.t, labels[s], labels[action], domain.type_ids()[tau], phi, reward)
    env.moves[s, action] += 1
    env.state = action
    env.t += 1
    return record


def reference_fpl_select(strat: FplMtdStrategy, rng: np.random.Generator) -> int:
    """``strat.select(rng)``: explore, or the leader under fresh exponential perturbations."""
    n = strat.cumulative.shape[0]
    if rng.random() < strat.explore_prob:
        return int(rng.integers(n))
    z = rng.exponential(scale=1.0 / strat.perturb_rate, size=n)
    return int(np.argmax(strat.cumulative + z))


def reference_fpl_resample_count(
    strat: FplMtdStrategy, action: int, rng: np.random.Generator
) -> int:
    """``strat.resample_count(action, rng)``, finding the hits of a block with ``nonzero``."""
    n = strat.cumulative.shape[0]
    trials = 0
    while trials < strat.l_max:
        chunk = min(RESAMPLE_CHUNK, strat.l_max - trials)
        z = rng.exponential(scale=1.0 / strat.perturb_rate, size=(chunk, n))
        winners = np.argmax(strat.cumulative[None, :] + z, axis=1)
        hits = np.nonzero(winners == action)[0]
        if hits.size:
            return trials + int(hits[0]) + 1
        trials += chunk
    return strat.l_max


def reference_eps_select(strat: EpsGreedyStrategy, rng: np.random.Generator) -> int:
    """``strat.select(rng)``: explore uniformly, or the first best running mean."""
    if rng.random() < strat.epsilon:
        return int(rng.integers(strat.means.size))
    return int(np.argmax(strat.means))


def reference_eps_update(strat: EpsGreedyStrategy, action: int, reward: float) -> None:
    """``strat.update(action, reward)`` on numpy scalars."""
    n = strat.pulls[action]
    strat.means[action] = (strat.means[action] * n + reward) / (n + 1)
    strat.pulls[action] = n + 1


def reference_fpl_run(
    domain: DomainInfo,
    env: MTDEnvironment,
    T: int,
    rng: np.random.Generator,
    explore_prob: float = DEFAULT_FPL_EXPLORE,
    perturb_rate: float = DEFAULT_FPL_RATE,
    l_max: int = DEFAULT_FPL_LMAX,
) -> list[StepRecord]:
    """``strategies.run_fpl_mtd`` from ``reference_fpl_select``, ``reference_step``
    and ``reference_fpl_resample_count``; the strategy object only holds the
    parameters and the cumulative rewards."""
    strat = FplMtdStrategy(domain, explore_prob, perturb_rate, l_max)
    records = []
    for _ in range(T):
        action = reference_fpl_select(strat, rng)
        record = reference_step(env, action, rng)
        strat.cumulative[action] += record.reward * reference_fpl_resample_count(strat, action, rng)
        records.append(record)
    return records


def reference_eps_greedy_run(
    domain: DomainInfo,
    env: MTDEnvironment,
    T: int,
    rng: np.random.Generator,
    epsilon: float = DEFAULT_EPSILON,
) -> list[StepRecord]:
    """``strategies.run_eps_greedy`` from ``reference_eps_select``, ``reference_step``
    and ``reference_eps_update``."""
    strat = EpsGreedyStrategy(domain, epsilon)
    records = []
    for _ in range(T):
        action = reference_eps_select(strat, rng)
        record = reference_step(env, action, rng)
        reference_eps_update(strat, action, record.reward)
        records.append(record)
    return records


def reference_urs_run(
    domain: DomainInfo, env: MTDEnvironment, T: int, rng: np.random.Generator
) -> list[StepRecord]:
    """``strategies.run_urs``: a uniform action from ``rng.integers``, then ``reference_step``."""
    return [reference_step(env, int(rng.integers(domain.n_configs)), rng) for _ in range(T)]


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


class RecordingArray(np.ndarray):
    """An array that records, in ``calls``, every numpy function and ufunc it
    takes part in, and every ``tobytes`` call.

    Any comparison of its values, ``np.array_equal``, ``(a == b).all()`` or
    ``a.tobytes() == b.tobytes()`` alike, is recorded; an identity test is
    not.  The call itself runs on plain arrays, and a view or copy records
    into the list of the array it came from.
    """

    def __array_finalize__(self, obj):
        self.calls: list[str] = getattr(obj, "calls", [])

    def tobytes(self, order="C"):
        self.calls.append("tobytes")
        return self.view(np.ndarray).tobytes(order)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.calls.append(ufunc.__name__)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, RecordingArray) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        self.calls.append(func.__name__)
        args = tuple(x.view(np.ndarray) if isinstance(x, RecordingArray) else x for x in args)
        return func(*args, **kwargs)


def recording(table: np.ndarray) -> RecordingArray:
    """A read-only ``RecordingArray`` copy of ``table`` that owns its data."""
    array = RecordingArray(table.shape)
    array[...] = table
    array.flags.writeable = False
    return array


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


def reference_greedy_actions(scores: np.ndarray) -> np.ndarray:
    """``alp.greedy_actions`` as a loop over each row's Python floats.

    Each row takes the lowest action whose score is at least its best minus
    ``TIE_TOL`` times its spread (best minus worst) and ``TIE_ULPS`` ulps of
    the best's size, where the ulp of the largest float is infinite, as
    ``np.spacing`` has it.  A row with a NaN has a NaN best in numpy, so
    nothing ties and action 0 wins; so does a row whose floor is NaN.
    """
    policy = []
    for row in scores.tolist():
        if any(math.isnan(score) for score in row):
            policy.append(0)
            continue
        best = max(row)
        top = abs(best)
        ulp = math.ulp(top) if top < sys.float_info.max else math.inf
        floor = best - (TIE_TOL * (best - min(row)) + TIE_ULPS * ulp)
        policy.append(next((a for a, score in enumerate(row) if score >= floor), 0))
    return np.array(policy, dtype=np.intp)


def reference_ata_fmdp_run(
    domain: DomainInfo,
    env: MTDEnvironment,
    T: int,
    rng: np.random.Generator,
    reopt_period: int | None = 1,
    beta: float = DEFAULT_BETA,
) -> list[StepRecord]:
    """``strategies.ata_fmdp_run`` re-planning at every scheduled step, moved belief or not.

    Each re-plan rebuilds the belief from the counts with
    ``reference_posterior_table``, never reading the table the estimator
    keeps, then the rewards and bounds; it solves the LP starting from the
    last ``LPSolution`` and takes its policy from
    ``reference_greedy_actions``.  Only the objective, rows and basis of the
    first program are reused.

    Two layers are still the package's own, so a bitwise change inside them
    does not show here: ``lp.solve_lp``, which the warm-path replay and the
    simplex oracles of ``tests/test_lp.py`` and the ``solve_lp`` pins of
    ``tests/test_golden.py`` cover, and ``domain.expected_reward_table``,
    which ``tests/test_domain.py`` checks against its scalar helpers.
    """
    estimator = ThreatEstimator(domain, beta=beta)
    program = build_alp(domain, reference_posterior_table(estimator))
    solution: LPSolution | None = None
    policy: np.ndarray | None = None
    records: list[StepRecord] = []
    for t in range(T):
        if policy is None or (reopt_period is not None and t % reopt_period == 0):
            rewards = expected_reward_table(domain, reference_posterior_table(estimator))
            lp = LPProblem(program.lp.c, program.lp.rows, -rewards.reshape(-1))
            solution = solve_lp(lp, start=solution)
            values = program.basis.activations @ solution.x
            policy = reference_greedy_actions(rewards + domain.gamma * values[None, :])
        state = env.state
        action = int(policy[state])
        record = env.step(action, rng)
        estimator.update(domain.type_index(record.attacker_type), state, action, record.phi)
        records.append(record)
    return records


@dataclass
class SolveAudit:
    """One audited ``solve_lp`` call of a run, beside the alternative path on its program.

    ``verdict`` is "same x" (the same basis and bitwise the same x), "same
    basis, other x", "other vertex" (another basis), or "no answer" when the
    alternative returned None or no optimum.  ``gap`` is the objectives'
    difference relative to the larger of them (0 when they are equal), and
    ``pivots`` the run's pivots, then the alternative's; ``step`` is the step
    whose re-plan made the call.
    """

    verdict: str
    gap: float
    pivots: tuple[int, int | None]
    step: int


@dataclass
class RunAudit:
    """The audited solves of one ``ata-fmdp`` run, and the first step whose
    ``steps.csv`` row changes when the alternative answers them (None if none does)."""

    scenario: str
    seed: int
    alpha: float
    solves: list[SolveAudit]
    diverges_at: int | None


def _compare(solution: LPSolution, other: LPSolution | None, step: int) -> SolveAudit:
    pivots = (solution.pivots, None if other is None else other.pivots)
    if other is None or other.status != OPTIMAL:
        return SolveAudit("no answer", np.inf, pivots, step)
    a, b = solution.objective_value, other.objective_value
    gap = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
    if other.basis != solution.basis:
        return SolveAudit("other vertex", gap, pivots, step)
    same = other.x.tobytes() == solution.x.tobytes()
    return SolveAudit("same x" if same else "same basis, other x", gap, pivots, step)


def audit_solves(scenarios, seeds, alphas, alternative) -> list[RunAudit]:
    """Every failed warm re-check of ``ata-fmdp`` runs, beside ``alternative``.

    Each run is the first iteration of a built-in scenario on its own domain
    at a seed and a switching-cost weight alpha: ``ata_fmdp_run`` with
    ``default_rng(seed)``, as the harness plays it.  A failed re-check is a
    planner's ``solve_lp`` call that starts from the certificate of its own
    rows (no ``kept``) and is not answered warm, so the solver restarted
    the dual simplex from that basis (two-phase, if its tight system is
    singular).  At each, ``alternative(problem, certificate)`` solves the same
    program from the start's certificate, and the answers are compared
    (``SolveAudit``).  The run is then played again with the alternative's
    optimal answers in place of those calls, and the two runs' step records,
    the rows of their ``steps.csv``, are compared.
    """
    audits = []
    for scenario, seed, alpha in product(scenarios, seeds, alphas):
        run = resolve_run(ExperimentConfig(scenario=scenario, seed=seed, alpha=alpha))
        solves: list[SolveAudit] = []

        def play(replay: bool) -> list[StepRecord]:
            def audited(problem, start=None, kept=None):
                solution = solve_lp(problem, start=start, kept=kept)
                if start is None or kept is not None or solution.warm:
                    return solution  # not a failed re-check
                other = alternative(problem, start.certificate)
                if not replay:
                    solves.append(_compare(solution, other, env.t))
                elif other is not None and other.status == OPTIMAL:
                    return other
                return solution

            env = MTDEnvironment(run.domain, run.scenario, run.start_state)
            alp.solve_lp = audited
            try:
                return ata_fmdp_run(run.domain, env, run.timesteps, np.random.default_rng(seed))
            finally:
                alp.solve_lp = solve_lp

        pairs = enumerate(zip(play(False), play(True)))
        diverges_at = next((t for t, (mine, theirs) in pairs if mine != theirs), None)
        audits.append(RunAudit(scenario, seed, alpha, solves, diverges_at))
    return audits
