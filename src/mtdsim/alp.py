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
fix the program, and the belief moves only the right-hand side.  Re-planning
therefore reuses the previous program: under an equal belief ``build_alp``
hands back the previous problem itself, whose weights and policy
``solve_alp`` and ``extract_policy`` keep, so nothing is rebuilt or solved;
under a new belief only the bounds are rebuilt and the LP starts from its
last solution, whose certified basis then needs only a primal feasibility
re-check (see ``lp``).

The greedy policy of a solved program is
pi(s) = argmax_a [ R(s, a) + gamma * V(a; w) ], scored with the reward table
the bounds were built from (``ALProblem.rewards``), ties broken by the lowest
action index; scores within ``TIE_TOL`` (relative) of the best count as tied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ConfigSpace, DomainError, DomainInfo, expected_reward_table

# Not called here; the benchmark's tracer wraps these names in this module.
from .domain import expected_attack_loss_table, success_prob_table  # noqa: F401
from .lp import INFEASIBLE, LPProblem, LPSolution, UNBOUNDED, solve_lp

TIE_TOL = 1e-9  # relative score gap under which greedy actions count as tied
VI_TOL = 1e-10  # value iteration stops once no value moves by this much
VI_MAX_SWEEPS = 100_000  # ... or after this many sweeps


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
    names = ["bias"]
    columns = [np.ones(space.n_configs)]
    for f, factor in enumerate(space.factors):
        for value in factor.values:
            names.append(f"{factor.name}={value}")
            columns.append(np.array([float(config[f] == value) for config in space.configs]))
    return Basis(tuple(names), np.column_stack(columns))


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
    posterior: np.ndarray | None = None  # read-only copy of the belief the rewards come from
    lp_solution: LPSolution | None = None  # last LP solution; the next solve starts from it
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
    itself when ``posterior_table`` equals the belief it was built from: the
    same belief gives the same program.  Otherwise it lends its basis, rows,
    objective and last LP solution, so only the rewards and the bounds are
    computed.
    """
    if previous is not None:
        if previous.domain is not domain or basis not in (None, previous.basis):
            raise DomainError("previous problem was built for another domain or basis")
        if np.array_equal(posterior_table, previous.posterior):
            return previous
        basis, objective, rows = previous.basis, previous.lp.c, previous.lp.rows
        start = previous.lp_solution
    else:
        basis = build_basis(domain.space) if basis is None else basis
        B = basis.activations  # (S, k)
        S, k = B.shape
        # The successor of (s, a) is a: D(s, a) = gamma * beta(a) - beta(s).
        rows = (domain.gamma * B[None, :, :] - B[:, None, :]).reshape(S * S, k)
        objective = np.full(S, 1.0 / S) @ B  # E_theta[beta_i] per basis function
        start = None
    posterior = _read_only(np.array(posterior_table, dtype=float))
    rewards = expected_reward_table(domain, posterior)
    lp = LPProblem(c=objective, rows=rows, bounds=-rewards.reshape(-1))
    return ALProblem(domain, basis, lp, rewards, posterior, lp_solution=start)


def solve_alp(alp: ALProblem) -> np.ndarray:
    """Solve for the basis weights, starting from ``alp.lp_solution``.

    Overwrites ``alp.lp_solution`` with the solution the solve ended on; the
    next solve certifies its basis at most once and otherwise only re-checks
    primal feasibility.  A solved problem is not solved again: later calls
    return the same read-only ``alp.weights``.  Raises if the program is
    degenerate.
    """
    if alp.weights is not None:
        return alp.weights
    sol = solve_lp(alp.lp, start=alp.lp_solution)
    if sol.status == UNBOUNDED:
        raise RuntimeError(
            "approximate LP unbounded - the constraint system is malformed "
            f"({alp.lp.n_rows} rows, {alp.lp.n_vars} basis functions)"
        )
    if sol.status == INFEASIBLE:
        raise RuntimeError("approximate LP infeasible - constraint assembly bug")
    alp.lp_solution = sol
    alp.weights = _read_only(sol.x)
    return alp.weights


def value_estimates(alp: ALProblem, weights: np.ndarray) -> np.ndarray:
    """V(s; w) for every configuration."""
    return alp.basis.activations @ weights


def greedy_actions(scores: np.ndarray) -> np.ndarray:
    """Row-wise argmax that takes the lowest index among tied actions.

    Actions whose score lies within ``TIE_TOL * (1 + |max|)`` of the row
    maximum count as tied, so rounding noise in the scores never picks the
    action.
    """
    best = scores.max(axis=1, keepdims=True)
    return np.argmax(scores >= best - TIE_TOL * (1.0 + np.abs(best)), axis=1)


def extract_policy(alp: ALProblem, weights: np.ndarray) -> np.ndarray:
    """Greedy policy: argmax_a R(s,a) + gamma * V(a; w), lowest index on ties.

    R is the problem's own reward table, the one its bounds come from.  The
    policy of the problem's own ``alp.weights`` is computed once and kept,
    read-only, in ``alp.policy``.
    """
    if alp.policy is not None and weights is alp.weights:
        return alp.policy
    values = alp.basis.activations @ weights  # (A,) successor values, successor == action
    policy = greedy_actions(alp.rewards + alp.domain.gamma * values[None, :])
    if weights is alp.weights:
        alp.policy = _read_only(policy)
    return policy


def exact_value(domain: DomainInfo, policy: np.ndarray, posterior_table: np.ndarray) -> np.ndarray:
    """Exact discounted value of a deterministic policy on the belief MDP.

    The policy chain is deterministic, so (I - gamma P) V = R_pi solves it
    exactly.
    """
    policy = np.asarray(policy, dtype=int)
    S = domain.n_configs
    R = expected_reward_table(domain, posterior_table)
    r_pi = R[np.arange(S), policy]
    P = np.zeros((S, S))
    P[np.arange(S), policy] = 1.0
    return np.linalg.solve(np.eye(S) - domain.gamma * P, r_pi)


def value_iteration(
    domain: DomainInfo, posterior_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact optimal values and greedy policy (lowest action index on ties)."""
    R = expected_reward_table(domain, posterior_table)
    V = np.zeros(domain.n_configs)
    for _ in range(VI_MAX_SWEEPS):
        Q = R + domain.gamma * V[None, :]
        V_new = Q.max(axis=1)
        if np.max(np.abs(V_new - V)) < VI_TOL:
            V = V_new
            break
        V = V_new
    Q = R + domain.gamma * V[None, :]
    return V, greedy_actions(Q)


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
