"""Approximate linear programming for the factored defender MDP.

The value function is approximated as a weighted sum of indicator basis
functions, V(s; w) = sum_i w_i * beta_i(s): a bias plus one indicator per
factor value (``build_basis``) or per configuration (``build_state_basis``).
With theta uniform over configurations the weights solve

    min_w   sum_i w_i * E_theta[beta_i]
    s.t.    V(s; w) >= R(s, a) + gamma * V(a; w)   for every state-action pair,

since the successor of (s, a) is a.  The success (phi=1) and failure (phi=0)
branches of the Bellman residual sum to the expected reward R(s, a) of
``domain.expected_reward_table``, so each row is D(s, a) . w <= -R(s, a) with
D(s, a) = gamma * beta(a) - beta(s).  The basis, theta and the reward table
fix the program, and the belief moves only the right-hand side.

The program has S^2 rows but only as many variables as basis functions, so
``solve_alp`` solves it by constraint generation over a working set of rows,
kept in ascending row order, in the domain's unit 2^e (``DomainInfo``).  A
power-of-two scaling rounds nothing, so a power-of-two change of the reward
unit scales the weights by that power and changes no decision.  The set starts
at the S stay rows (s, s), V(s) >= R(s, s) / (1 - gamma), which bound the
objective (the mean of V) from the first round; the bias weight alone,
max R / (1 - gamma), satisfies every row.  So every round of a program that
``build_alp`` assembles has an optimum, and one that ``lp`` proves infeasible
or unbounded reports a malformed program.  Each round solves the working-set
program with ``lp.solve_lp`` and scans every row outside the set; a row whose
``rows @ w - bounds`` exceeds ``lp.FEAS_TOL`` in the unit is violated, and up
to S of the most violated (ties to the lowest row) join the set.  The loop
stops when no row is violated, so the weights satisfy the whole program and
are optimal for it.  Every round adds a row, so the loop ends, at worst on the
full program.  A round after the first restarts from the last round's
solution: its rows are ``kept`` in the grown set, and the added rows leave
that optimal basis dual feasible, so ``lp``'s dual simplex pivots only the new
rows feasible.  A cold 4-node network solve takes 3 rounds, 48 of its 256 rows
and 29 pivots, 16 of them in the two-phase first round.  The optimum need not
be a unique vertex: under some beliefs the generated and the full solve end on
different optimal vertices, at one objective, whose greedy policies differ.

Re-planning reuses the previous program.  Whether the belief moved is the
estimator's call: it hands back the very table it handed out last until the
belief moves (see ``estimator``).  ``build_alp`` hands back the previous
problem, whose weights and policy ``solve_alp`` and ``extract_policy``
keep, only for that same object, so an unmoved re-plan compares, rebuilds
and solves nothing.  Under any other table, an equal copy included, only
the bounds are rebuilt, and the solve starts on the previous working set
from its last solution, whose certified basis then needs only a primal
feasibility re-check (see ``lp``) before one scan.  When the re-check
fails, that round restarts the dual simplex from the carried basis, which
only the bounds moved away from.

The greedy policy of a solved program is
pi(s) = argmax_a [ R(s, a) + gamma * V(a; w) ], scored with the reward table
the bounds were built from (``ALProblem.rewards``), ties broken by the lowest
action index (see ``greedy_actions`` for the tie band).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import ConfigSpace, DomainError, DomainInfo, expected_reward_table, is_index_array

# Not called here; the benchmark's tracer wraps these names in this module.
from .domain import expected_attack_loss_table, success_prob_table  # noqa: F401
from .lp import FEAS_TOL, OPTIMAL, LPProblem, LPSolution, NumericalError, solve_lp

TIE_TOL = 1e-9  # share of a row's score spread under which greedy actions count as tied
TIE_ULPS = 64  # the tie band's rounding floor, in ulps of the row's best score
SMALL_TABLE = 64  # score tables of fewer entries take their greedy actions on Python floats


@dataclass(frozen=True, eq=False)
class Basis:
    """Indicator basis functions, held as their activations.

    ``activations[s, i]`` is 1 when function ``i`` is active at configuration
    ``s`` and 0 otherwise; ``names[i]`` describes function ``i``.  Function 0
    is the constant bias.
    """

    names: tuple[str, ...]
    activations: np.ndarray  # (S, k)


def build_basis(space: ConfigSpace) -> Basis:
    """Default factored basis: one bias plus one indicator per (factor, value)."""
    names = ["bias"] + [f"{f.name}={value}" for f in space.factors for value in f.values]
    sizes = [len(f.values) for f in space.factors]
    # Factor f's value index in each configuration (C order), offset to its first column.
    values = np.indices(sizes).reshape(len(sizes), -1).T + np.cumsum([1] + sizes[:-1])
    activations = np.zeros((space.n_configs, len(names)))
    activations[:, 0] = 1.0
    activations[np.arange(space.n_configs)[:, None], values] = 1.0
    return Basis(tuple(names), activations)


def build_state_basis(space: ConfigSpace) -> Basis:
    """Exact basis: one bias plus one indicator per full configuration."""
    names = ["bias"]
    for config in space.configs:
        names.append(",".join(f"{f.name}={v}" for f, v in zip(space.factors, config)))
    S = space.n_configs
    return Basis(tuple(names), np.hstack([np.ones((S, 1)), np.eye(S)]))


@dataclass
class ALProblem:
    """An assembled approximate-LP instance; row i is the pair (s, a) = divmod(i, S).

    A problem is solved once: it keeps its weights and the greedy policy
    extracted from them, both read-only.
    """

    domain: DomainInfo
    basis: Basis
    lp: LPProblem
    rewards: np.ndarray  # (S, A) expected rewards R(s, a); lp.bounds is -rewards
    # The belief the rewards come from, when it is a read-only array owning
    # its data; None otherwise.  build_alp hands the problem back for it alone.
    posterior: np.ndarray | None = None
    working_set: np.ndarray | None = None  # read-only rows of lp that lp_solution solved
    lp_solution: LPSolution | None = None  # over working_set, x and bounds in the unit 2^e
    weights: np.ndarray | None = None  # set by solve_alp
    policy: np.ndarray | None = None  # set by extract_policy from ``weights``


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_alp(
    domain: DomainInfo,
    posterior_table: np.ndarray,
    basis: Basis | None = None,
    previous: ALProblem | None = None,
) -> ALProblem:
    """Assemble the constraint system for one belief snapshot.

    One constraint per (state, action) pair, D . w <= -R(s, a); only the
    right-hand side depends on the belief.  The objective weighs each basis
    function by its mean activation over configurations (uniform theta).

    ``previous``, a problem built for the same domain and basis, is returned
    itself when ``posterior_table`` is ``previous.posterior``: the same
    belief gives the same program.  Otherwise it lends its basis, rows,
    objective, working set and last LP solution, so only the rewards and the
    bounds are computed.  A read-only ndarray that owns its data is kept as
    ``ALProblem.posterior``; any other table (writeable, or a view of one)
    can change under the problem, so it is neither kept nor copied, and the
    key is None.  No table is compared: deciding whether the belief moved is
    the estimator's job.
    """
    if previous is not None:
        if previous.domain is not domain or basis not in (None, previous.basis):
            raise DomainError("previous problem was built for another domain or basis")
        if posterior_table is previous.posterior:
            return previous
        basis, objective, rows = previous.basis, previous.lp.c, previous.lp.rows
        working_set, start = previous.working_set, previous.lp_solution
    else:
        basis = build_basis(domain.space) if basis is None else basis
        B = basis.activations  # (S, k)
        S, k = B.shape
        # The successor of (s, a) is a: D(s, a) = gamma * beta(a) - beta(s).
        rows = (domain.gamma * B[None, :, :] - B[:, None, :]).reshape(S * S, k)
        objective = np.full(S, 1.0 / S) @ B  # E_theta[beta_i] per basis function
        working_set = start = None
    rewards = expected_reward_table(domain, posterior_table)
    lp = LPProblem(c=objective, rows=rows, bounds=-rewards.reshape(-1))
    # Only a read-only array that owns its data cannot change under the problem.
    owned = isinstance(posterior_table, np.ndarray) and posterior_table.base is None
    key = posterior_table if owned and not posterior_table.flags.writeable else None
    return ALProblem(domain, basis, lp, rewards, key, working_set, start)


def solve_alp(alp: ALProblem) -> np.ndarray:
    """Solve ``alp.lp`` for the basis weights by constraint generation.

    ``solve_lp`` gets the bounds times 2^-e, in the domain's unit 2^e, and
    the weights are its solution times 2^e.  Each round solves the program
    over the working set of rows, starting the first round from
    ``alp.lp_solution`` and every later one from the round before it
    (``kept``: where its rows sit in the grown set), then scans the rows
    outside the set.  Rows violated by more than ``FEAS_TOL`` in the unit
    join the set, at most S per round and the most violated first; the loop
    ends when none is violated.  The set starts at the S stay rows (s, s),
    which bound the objective, so no round is unbounded.  ``alp.working_set``
    and ``alp.lp_solution`` keep the final set and its solution for the next
    re-plan.  A solved problem is not solved again: later calls return the
    same read-only ``alp.weights``.  A round that ``solve_lp`` proves
    infeasible or unbounded raises one ``RuntimeError`` naming the status and
    the program's size (only a hand-built program has one), and a
    ``NumericalError`` of the solver passes through with the program's size.
    """
    if alp.weights is not None:
        return alp.weights
    full, S, e = alp.lp, alp.domain.n_configs, alp.domain.unit_exponent
    bounds = np.ldexp(full.bounds, -e)  # exact: a power-of-two scaling
    rows = alp.working_set
    if rows is None:
        rows = np.arange(0, full.n_rows, S + 1)  # row s * S + s is the pair (s, s)
    start, kept = alp.lp_solution, None
    while True:
        if start is not None and kept is None:  # the carried set's own arrays: no comparison
            program = LPProblem(start.certificate.c, start.certificate.rows, bounds[rows])
        else:
            program = LPProblem(full.c, full.rows[rows], bounds[rows])
        try:
            sol = solve_lp(program, start=start, kept=kept)
        except NumericalError as err:
            raise NumericalError(
                f"approximate LP: {err} ({rows.size} of {full.n_rows} rows, "
                f"{full.n_vars} basis functions)",
                err.pivots,
                err.residual,
            ) from err
        if sol.status != OPTIMAL:  # proven, so the program is malformed: build_alp's is not
            raise RuntimeError(
                f"approximate LP {sol.status} ({rows.size} of {full.n_rows} rows, "
                f"{full.n_vars} basis functions)"
            )
        violation = full.rows.dot(sol.x)
        violation -= bounds
        violation[rows] = -np.inf
        violated = (violation > FEAS_TOL).nonzero()[0]
        if not violated.size:
            break
        # The S most violated; a stable sort keeps the lowest of tied rows first.
        violated = violated[(-violation[violated]).argsort(kind="stable")[:S]]
        grown = np.concatenate([rows, violated])  # disjoint: rows were masked
        grown.sort()
        rows, start, kept = grown, sol, grown.searchsorted(rows)
    alp.working_set = _read_only(rows)
    alp.lp_solution = sol
    alp.weights = _read_only(np.ldexp(sol.x, e))
    return alp.weights


def value_estimates(alp: ALProblem, weights: np.ndarray) -> np.ndarray:
    """V(s; w) for every configuration."""
    return alp.basis.activations @ weights


def greedy_actions(scores: np.ndarray) -> np.ndarray:
    """Row-wise argmax that takes the lowest index among tied actions.

    Actions whose score lies within ``TIE_TOL`` times the row's spread (max -
    min) plus ``TIE_ULPS`` ulps of |max| of the row maximum count as tied, so
    rounding noise never picks the action.  The band follows the gaps
    between actions, not the size of the scores: as gamma -> 1 a row's
    values grow like 1 / (1 - gamma), while its spread stays within the
    largest loss plus the largest switching cost.  The ulps cover the
    rounding of the scores themselves, where the spread is small beside
    them.  Both terms scale by exactly 2^j with the scores.

    A table of fewer than ``SMALL_TABLE`` entries is scored row by row on
    Python floats, a larger one with numpy's row reductions; both give
    bitwise the same ``intp`` actions.  The loop costs per entry, numpy
    mostly per call.  Best of 7 x 10 000 calls, numpy against the loop
    (Python 3.11, numpy 2.4.6, 2-core x86-64 Xeon): 2x2 7.1 against 2.3 us,
    4x4 7.3 against 4.6, 6x6 8.0 against 7.2, 7x7 8.3 against 8.9, 8x8 8.6
    against 10.2, 16x16 10.3 against 29.6.  The web domain and the 2-node
    network score 16 entries, a 3-node network 64.  A row whose band is NaN
    in numpy (one holding a NaN or +inf) ties nothing, so action 0 wins; a
    -inf beside finite scores ties everything, so action 0 wins too.
    """
    if not 0 < scores.size < SMALL_TABLE:
        best = np.maximum.reduce(scores, axis=1, keepdims=True)  # ndarray.max, without its wrapper
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as the loop is
            band = best - np.minimum.reduce(scores, axis=1, keepdims=True)
            band *= TIE_TOL
            band += TIE_ULPS * np.spacing(np.abs(best))
            floor = best - band
        return (scores >= floor).argmax(axis=1)
    actions = []
    for row in scores.tolist():
        total = sum(row)
        if total != total:  # a NaN, or +inf beside -inf, where max and min are not numpy's
            actions.append(0)
            continue
        best = max(row)
        top = abs(best)
        # np.spacing(top) to the bit: the gap up to the next float, inf past the largest.
        band = TIE_TOL * (best - min(row)) + TIE_ULPS * (math.nextafter(top, math.inf) - top)
        floor = best - band
        for action, score in enumerate(row):
            if score >= floor:
                break
        else:  # a NaN floor: +inf, or -inf throughout
            action = 0
        actions.append(action)
    return np.array(actions, dtype=np.intp)


def extract_policy(alp: ALProblem, weights: np.ndarray) -> np.ndarray:
    """Greedy policy: argmax_a R(s,a) + gamma * V(a; w), lowest index on ties.

    R is the problem's own reward table, the one its bounds come from.  The
    policy of the problem's own ``alp.weights`` is computed once and kept,
    read-only, in ``alp.policy``.
    """
    if alp.policy is not None and weights is alp.weights:
        return alp.policy
    values = alp.basis.activations.dot(weights)  # (A,) successor values, successor == action
    policy = greedy_actions(alp.rewards + alp.domain.gamma * values)
    if weights is alp.weights:
        alp.policy = _read_only(policy)
    return policy


def _policy_value(domain: DomainInfo, rewards: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """Solve (I - gamma P) V = R_pi for a valid policy under reward table ``rewards``."""
    S = domain.n_configs
    P = np.zeros((S, S))
    P[np.arange(S), policy] = 1.0
    return np.linalg.solve(np.eye(S) - domain.gamma * P, rewards[np.arange(S), policy])


def exact_value(domain: DomainInfo, policy: np.ndarray, posterior_table: np.ndarray) -> np.ndarray:
    """Exact discounted value of a deterministic policy on the belief MDP.

    The policy chain is deterministic, so (I - gamma P) V = R_pi solves it
    exactly.  Raises ``DomainError`` unless ``policy`` holds S integer
    configuration indices.
    """
    policy, S = np.asarray(policy), domain.n_configs
    if policy.shape != (S,) or not is_index_array(policy, S):
        raise DomainError(f"policy must hold {S} integer configuration indices")
    return _policy_value(domain, expected_reward_table(domain, posterior_table), policy)


def policy_iteration(
    domain: DomainInfo, posterior_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact optimal values and greedy policy (lowest action index on ties).

    From the myopic policy, each policy is evaluated exactly and improved
    greedily until one repeats: ties within ``greedy_actions``' band need not
    raise V.
    """
    R = expected_reward_table(domain, posterior_table)
    values, policy = {}, greedy_actions(R)
    while (key := policy.tobytes()) not in values:
        values[key] = _policy_value(domain, R, policy)
        policy = greedy_actions(R + domain.gamma * values[key][None, :])
    return values[key], policy


def alp_to_dict(alp: ALProblem) -> dict:
    """JSON-friendly dump of the assembled program for debugging/diffing."""
    space = alp.domain.space
    S = space.n_configs
    return {
        "objective": [float(v) for v in alp.lp.c],
        "basis": list(alp.basis.names),
        "theta": [1.0 / S] * S,
        "rows": [
            {
                "state": space.label(s),
                "action": space.label(a),
                "coefficients": [float(v) for v in alp.lp.rows[i]],
                "bound": float(alp.lp.bounds[i]),
            }
            for i, (s, a) in enumerate(np.ndindex(S, S))
        ],
    }
