"""Approximate linear programming for the factored defender MDP.

The value function is approximated as a weighted sum of basis functions,
V(s; w) = sum_i w_i * beta_i(s[B_i]), each scoped to a subset of factors.
The weights solve

    min_w   sum_i w_i * E_theta[beta_i]
    s.t.    V(s; w) >= R(s, a) + gamma * V(a; w)   for every state-action pair,

since the successor of (s, a) is a.  The success (phi=1) and failure (phi=0)
branches of the Bellman residual sum to the expected reward R(s, a) of
``domain.expected_reward_table``, so each row is D(s, a) . w <= -R(s, a) with
D(s, a) = gamma * beta(a) - beta(s).  A new belief moves only the right-hand
side; re-planning therefore reuses the previous program and starts the LP
from its optimal basis.

The greedy policy of a solved program is
pi(s) = argmax_a [ R(s, a) + gamma * V(a; w) ], ties broken by
the lowest action index; scores within ``TIE_TOL`` (relative) of the best
count as tied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import ConfigSpace, DomainError, DomainInfo, expected_reward_table

# Not called here; the benchmark's tracer wraps these names in this module.
from .domain import expected_attack_loss_table, success_prob_table  # noqa: F401
from .lp import INFEASIBLE, LPProblem, UNBOUNDED, solve_lp

TIE_TOL = 1e-9  # relative score gap under which greedy actions count as tied


@dataclass(frozen=True)
class BasisFunction:
    """Indicator basis over a factor subset; empty scope is the constant bias.

    ``scope`` lists factor indices, ``values`` the required value of each.
    Activation at a configuration is 1 when every scoped factor matches.
    """

    scope: tuple[int, ...]
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.scope) != len(self.values):
            raise DomainError("basis scope and values must align")
        if len(set(self.scope)) != len(self.scope):
            raise DomainError("basis scope factors must be distinct")

    @property
    def is_bias(self) -> bool:
        return not self.scope

    def activation(self, config: tuple[str, ...]) -> float:
        return 1.0 if all(config[f] == v for f, v in zip(self.scope, self.values)) else 0.0

    def describe(self, space: ConfigSpace) -> str:
        if self.is_bias:
            return "bias"
        return ",".join(
            f"{space.factors[f].name}={v}" for f, v in zip(self.scope, self.values)
        )


@dataclass(frozen=True)
class BasisSet:
    functions: tuple[BasisFunction, ...]

    def __post_init__(self) -> None:
        if sum(f.is_bias for f in self.functions) != 1:
            raise DomainError("basis set must contain exactly one bias function")

    def __len__(self) -> int:
        return len(self.functions)


def build_basis(space: ConfigSpace) -> BasisSet:
    """Default factored basis: one bias plus one indicator per (factor, value)."""
    funcs = [BasisFunction((), ())]
    for f_idx, factor in enumerate(space.factors):
        for value in factor.values:
            funcs.append(BasisFunction((f_idx,), (value,)))
    return BasisSet(tuple(funcs))


def build_state_basis(space: ConfigSpace) -> BasisSet:
    """Exact basis: one bias plus one indicator per full configuration."""
    all_factors = tuple(range(space.n_factors))
    funcs = [BasisFunction((), ())]
    funcs.extend(BasisFunction(all_factors, config) for config in space.configs)
    return BasisSet(tuple(funcs))


def activation_matrix(basis: BasisSet, space: ConfigSpace) -> np.ndarray:
    """(n_configs, n_basis) matrix of basis activations."""
    return np.array(
        [[f.activation(config) for f in basis.functions] for config in space.configs]
    )


@dataclass
class ALProblem:
    """An assembled approximate-LP instance plus its bookkeeping."""

    domain: DomainInfo
    basis: BasisSet
    theta: np.ndarray  # state-relevance distribution over configurations
    lp: LPProblem
    activations: np.ndarray  # (S, k)
    pairs: list[tuple[int, int]]  # row order: (state, action)
    start: tuple[int, ...] | None = None  # LP basis the solve starts from
    final_basis: tuple[int, ...] | None = None  # LP basis the last solve ended on


def uniform_theta(space: ConfigSpace) -> np.ndarray:
    return np.full(space.n_configs, 1.0 / space.n_configs)


def _alp_bounds(domain: DomainInfo, posterior_table: np.ndarray) -> np.ndarray:
    """Right-hand sides -R(s, a), one per (state, action) row."""
    return -expected_reward_table(domain, posterior_table).reshape(-1)


def build_alp(
    domain: DomainInfo,
    posterior_table: np.ndarray,
    basis: BasisSet | None = None,
    theta: np.ndarray | None = None,
    previous: ALProblem | None = None,
) -> ALProblem:
    """Assemble the constraint system for one belief snapshot.

    One constraint per (state, action) pair, D . w <= -R(s, a); only the
    right-hand side depends on the belief.  The objective weighs each basis
    function by its expected activation under ``theta`` (uniform over
    configurations by default, which factors over scopes).

    ``previous``, a problem built for the same domain, basis and theta, lends
    its activations, rows, objective and pairs, so only the bounds are
    computed; the new problem starts its solve from the basis on which
    ``previous``'s solve ended.
    """
    if previous is not None:
        if (
            previous.domain is not domain
            or basis not in (None, previous.basis)
            or (theta is not None and not np.array_equal(theta, previous.theta))
        ):
            raise DomainError("previous problem was built for another domain, basis or theta")
        lp = replace(previous.lp, bounds=_alp_bounds(domain, posterior_table))
        return replace(previous, lp=lp, start=previous.final_basis, final_basis=None)

    space = domain.space
    basis = basis or build_basis(space)
    theta_vec = uniform_theta(space) if theta is None else np.asarray(theta, dtype=float)
    if theta_vec.shape != (space.n_configs,):
        raise DomainError("theta must be a distribution over configurations")
    if np.any(theta_vec < 0) or not np.isclose(theta_vec.sum(), 1.0):
        raise DomainError("theta must be a probability distribution")

    B = activation_matrix(basis, space)  # (S, k)
    k = B.shape[1]
    S = space.n_configs

    # The successor of (s, a) is a: D(s, a) = gamma * beta(a) - beta(s).
    D = domain.gamma * B[None, :, :] - B[:, None, :]  # (S, A, k)
    rows = D.reshape(S * S, k)
    pairs = [(s, a) for s in range(S) for a in range(S)]

    objective = theta_vec @ B  # E_theta[beta_i] per basis function
    lp = LPProblem(c=objective, rows=rows, bounds=_alp_bounds(domain, posterior_table))
    return ALProblem(domain, basis, theta_vec, lp, B, pairs)


def solve_alp(alp: ALProblem, max_iter: int = 100_000) -> np.ndarray:
    """Solve for the basis weights, starting from ``alp.start``.

    Records the basis the solve ended on in ``alp.final_basis``; raises if
    the program is degenerate.
    """
    sol = solve_lp(alp.lp, max_iter=max_iter, start=alp.start)
    if sol.status == UNBOUNDED:
        raise RuntimeError(
            "approximate LP unbounded - the constraint system is malformed "
            f"({len(alp.pairs)} rows, {len(alp.basis)} basis functions)"
        )
    if sol.status == INFEASIBLE:
        raise RuntimeError("approximate LP infeasible - constraint assembly bug")
    alp.final_basis = sol.basis
    return sol.x


def value_estimates(alp: ALProblem, weights: np.ndarray) -> np.ndarray:
    """V(s; w) for every configuration."""
    return alp.activations @ weights


def greedy_actions(scores: np.ndarray) -> np.ndarray:
    """Row-wise argmax that takes the lowest index among tied actions.

    Actions whose score lies within ``TIE_TOL * (1 + |max|)`` of the row
    maximum count as tied, so rounding noise in the scores never picks the
    action.
    """
    best = scores.max(axis=1, keepdims=True)
    return np.argmax(scores >= best - TIE_TOL * (1.0 + np.abs(best)), axis=1)


def extract_policy(
    domain: DomainInfo,
    weights: np.ndarray,
    posterior_table: np.ndarray,
    activations: np.ndarray,
) -> np.ndarray:
    """Greedy policy: argmax_a R(s,a) + gamma * V(a; w), lowest index on ties.

    ``activations`` is the problem's ``ALProblem.activations``.
    """
    values = activations @ weights  # (A,) successor values, successor == action
    scores = expected_reward_table(domain, posterior_table) + domain.gamma * values[None, :]
    return greedy_actions(scores)


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
    domain: DomainInfo,
    posterior_table: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact optimal values and greedy policy (lowest action index on ties)."""
    R = expected_reward_table(domain, posterior_table)
    V = np.zeros(domain.n_configs)
    for _ in range(max_iter):
        Q = R + domain.gamma * V[None, :]
        V_new = Q.max(axis=1)
        if np.max(np.abs(V_new - V)) < tol:
            V = V_new
            break
        V = V_new
    Q = R + domain.gamma * V[None, :]
    return V, greedy_actions(Q)


def alp_to_dict(alp: ALProblem) -> dict:
    """JSON-friendly dump of the assembled program for debugging/diffing."""
    space = alp.domain.space
    return {
        "objective": [float(v) for v in alp.lp.c],
        "basis": [f.describe(space) for f in alp.basis.functions],
        "theta": [float(v) for v in alp.theta],
        "rows": [
            {
                "state": space.label(s),
                "action": space.label(a),
                "coefficients": [float(v) for v in alp.lp.rows[i]],
                "bound": float(alp.lp.bounds[i]),
            }
            for i, (s, a) in enumerate(alp.pairs)
        ],
    }
