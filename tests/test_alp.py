"""Tests for the approximate-linear-programming planner.

Covers basis construction, constraint assembly against hand-computed rows,
agreement with value iteration where the basis is complete, and structural
invariants of the approximate solution (upper bound on the optimal values,
shift covariance, feasibility of the returned weights).
"""

import json

import numpy as np
import pytest

from mtdsim import alp as alp_module
from mtdsim.alp import (
    ALProblem,
    alp_to_dict,
    build_alp,
    build_basis,
    build_state_basis,
    exact_value,
    extract_policy,
    greedy_actions,
    solve_alp,
    value_estimates,
    value_iteration,
)
from mtdsim.cli import main
from mtdsim.domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    expected_reward_table,
)
from mtdsim.environments import make_network_domain, make_web_app_domain
from mtdsim.harness import (
    cold_posterior_table,
    perturb_posterior_table,
    random_posterior_table,
)
from mtdsim.lp import LPProblem, solve_lp


def small_space(sizes=(2, 3, 2)) -> ConfigSpace:
    return ConfigSpace(
        tuple(
            FactorSpec(f"f{i}", tuple(f"v{i}{j}" for j in range(n)))
            for i, n in enumerate(sizes)
        )
    )


def no_attack_domain(n_values: int, gamma: float, sc=None, M: float = 0.0) -> DomainInfo:
    """Single-factor domain with one incapable attacker type (zero loss)."""
    space = ConfigSpace((FactorSpec("slot", tuple(f"c{i}" for i in range(n_values))),))
    n = space.n_configs
    dummy = AttackerTypeSpec("idle", False, np.zeros(n), np.zeros(n))
    sc = np.zeros((n, n)) if sc is None else np.asarray(sc, dtype=float)
    return DomainInfo(space, (dummy,), sc, M, gamma, 1.0)


def ones_posterior(domain: DomainInfo) -> np.ndarray:
    return np.ones((domain.n_types, domain.n_configs, domain.n_configs))


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def test_factored_basis_counts_one_indicator_per_factor_value():
    web = make_web_app_domain()
    assert build_basis(web.space).activations.shape == (4, 1 + 2 + 2)
    basis = build_basis(small_space())
    assert len(basis.names) == 1 + 2 + 3 + 2
    assert basis.activations.shape == (12, len(basis.names))


def test_state_basis_counts_one_indicator_per_configuration():
    web = make_web_app_domain()
    assert build_state_basis(web.space).activations.shape == (4, 1 + 4)
    basis = build_state_basis(small_space())
    assert len(basis.names) == 1 + 12
    assert basis.activations.shape == (12, len(basis.names))


def test_basis_describe_names_factor_and_value():
    web = make_web_app_domain()
    assert build_basis(web.space).names == (
        "bias",
        "language=PHP",
        "language=Python",
        "database=MySQL",
        "database=Postgres",
    )
    assert build_state_basis(web.space).names[:2] == ("bias", "language=PHP,database=MySQL")


def test_activation_matrix_rows_mark_matching_factor_values():
    web = make_web_app_domain()
    B = build_basis(web.space).activations
    assert B.shape == (4, 5)
    # PHP|MySQL activates bias, language=PHP, database=MySQL.
    np.testing.assert_array_equal(B[0], [1, 1, 0, 1, 0])
    np.testing.assert_array_equal(B[3], [1, 0, 1, 0, 1])
    # Every row activates the bias plus exactly one value per factor.
    np.testing.assert_array_equal(B.sum(axis=1), np.full(4, 3))


def test_state_basis_activation_matrix_is_identity_plus_bias():
    web = make_web_app_domain()
    B = build_state_basis(web.space).activations
    np.testing.assert_array_equal(B[:, 0], np.ones(4))
    np.testing.assert_array_equal(B[:, 1:], np.eye(4))


# ---------------------------------------------------------------------------
# constraint assembly
# ---------------------------------------------------------------------------


def test_build_alp_one_row_per_state_action_pair():
    web = make_web_app_domain()
    alp = build_alp(web, cold_posterior_table(web))
    assert alp.lp.rows.shape == (16, 5)
    assert alp.lp.bounds.shape == (16,)
    # Objective is the mean activation of each basis function (uniform theta).
    np.testing.assert_allclose(alp.lp.c, [1.0, 0.5, 0.5, 0.5, 0.5])


def test_build_alp_row_matches_hand_computed_constraint():
    # Belief pinned on the database attacker, state = action = PHP|MySQL:
    # success prob 0.70, loss 43, sc 0, so the constant term is
    # 0.7*(200-0) - 0.7*43 + 0.3*(200-0) = 169.9 and every branch carries the
    # same bracket coefficient gamma*beta(a) - beta(s) = -0.1 * beta(s).
    web = make_web_app_domain(alpha=1.0)
    post = np.zeros((3, 4, 4))
    post[1] = 1.0
    alp = build_alp(web, post)
    row0 = 0 * 4 + 0  # row of the pair (s, a) is s * S + a
    np.testing.assert_allclose(alp.lp.bounds[row0], -169.9)
    np.testing.assert_allclose(alp.lp.rows[row0], -0.1 * np.array([1, 1, 0, 1, 0]))
    # A move (0 -> 3) pays sc=100 and faces loss 50 at the target:
    # const = 200 - 100 - 0.65*50 = 67.5, coefficients 0.9*beta(3) - beta(0).
    row3 = 0 * 4 + 3
    np.testing.assert_allclose(alp.lp.bounds[row3], -67.5)
    np.testing.assert_allclose(
        alp.lp.rows[row3],
        0.9 * np.array([1, 0, 1, 0, 1]) - np.array([1, 1, 0, 1, 0]),
    )


def test_build_alp_gamma_zero_rows_are_negated_state_activations():
    dom = no_attack_domain(3, gamma=0.0, M=10.0)
    alp = build_alp(dom, ones_posterior(dom))
    B = build_basis(dom.space).activations
    for i, (s, _a) in enumerate(np.ndindex(3, 3)):
        np.testing.assert_allclose(alp.lp.rows[i], -B[s])


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_zero_reward_program_has_zero_values():
    dom = no_attack_domain(3, gamma=0.9, M=0.0)
    alp = build_alp(dom, ones_posterior(dom))
    w = solve_alp(alp)
    np.testing.assert_allclose(value_estimates(alp, w), np.zeros(3), atol=1e-7)


def test_single_state_value_is_geometric_series():
    dom = no_attack_domain(1, gamma=0.9, M=50.0)
    alp = build_alp(dom, ones_posterior(dom))
    w = solve_alp(alp)
    np.testing.assert_allclose(value_estimates(alp, w), [500.0], rtol=1e-9)


def test_state_basis_reproduces_value_iteration():
    web = make_web_app_domain(alpha=1.0)
    basis = build_state_basis(web.space)
    for posterior in (
        cold_posterior_table(web),
        random_posterior_table(web, np.random.default_rng(3)),
    ):
        alp = build_alp(web, posterior, basis=basis)
        w = solve_alp(alp)
        V_star, pi_star = value_iteration(web, posterior)
        np.testing.assert_allclose(value_estimates(alp, w), V_star, atol=1e-6)
        np.testing.assert_array_equal(extract_policy(alp, w), pi_star)


def test_approximate_values_upper_bound_the_optimum():
    # Any feasible point dominates the Bellman optimum pointwise, and the
    # richer basis can only tighten the minimised objective.
    web = make_web_app_domain(alpha=1.0)
    cold = cold_posterior_table(web)
    alp_f = build_alp(web, cold)
    w_f = solve_alp(alp_f)
    alp_s = build_alp(web, cold, basis=build_state_basis(web.space))
    w_s = solve_alp(alp_s)
    V_star, _ = value_iteration(web, cold)
    assert np.all(value_estimates(alp_f, w_f) >= V_star - 1e-7)
    obj_f = float(alp_f.lp.c @ w_f)
    obj_s = float(alp_s.lp.c @ w_s)
    assert obj_f >= obj_s - 1e-7
    np.testing.assert_allclose(obj_s, np.full(4, 0.25) @ V_star, rtol=1e-7)


def test_solution_satisfies_every_constraint():
    web = make_web_app_domain(alpha=1.0)
    rng = np.random.default_rng(5)
    for _ in range(3):
        posterior = random_posterior_table(web, rng)
        alp = build_alp(web, posterior)
        w = solve_alp(alp)
        assert np.all(alp.lp.rows @ w <= alp.lp.bounds + 1e-6)


def test_reward_offset_shifts_objective_by_geometric_factor():
    web = make_web_app_domain(alpha=1.0)
    cold = cold_posterior_table(web)
    base = solve_alp(build_alp(web, cold))
    shifted_dom = DomainInfo(web.space, web.types, web.sc, web.M + 25.0, web.gamma, web.alpha)
    alp0 = build_alp(web, cold)
    alp1 = build_alp(shifted_dom, cold)
    obj0 = float(alp0.lp.c @ base)
    obj1 = float(alp1.lp.c @ solve_alp(alp1))
    np.testing.assert_allclose(obj1 - obj0, 25.0 / (1.0 - web.gamma), rtol=1e-9)
    # With the exact basis the shift is pointwise.
    basis = build_state_basis(web.space)
    v0 = value_estimates(a := build_alp(web, cold, basis=basis), solve_alp(a))
    v1 = value_estimates(b := build_alp(shifted_dom, cold, basis=basis), solve_alp(b))
    np.testing.assert_allclose(v1 - v0, np.full(4, 250.0), rtol=1e-8)


def test_solve_alp_raises_on_degenerate_programs():
    web = make_web_app_domain()
    basis = build_basis(web.space)
    unbounded = LPProblem(c=np.array([-1.0]), rows=np.zeros((1, 1)), bounds=np.zeros(1))
    with pytest.raises(RuntimeError, match="unbounded"):
        solve_alp(ALProblem(web, basis, unbounded, np.zeros((4, 4))))
    infeasible = LPProblem(
        c=np.array([1.0]), rows=np.array([[1.0], [-1.0]]), bounds=np.array([-1.0, -1.0])
    )
    with pytest.raises(RuntimeError, match="infeasible"):
        solve_alp(ALProblem(web, basis, infeasible, np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# policies and exact policy evaluation
# ---------------------------------------------------------------------------


def test_policy_flees_to_the_resistant_config_under_unknown_pressure():
    # All belief mass on the unknown type, which Python|Postgres fully resists;
    # the discounted planner routes every state there despite sc up to 100.
    web = make_web_app_domain(alpha=1.0)
    post = np.zeros((3, 4, 4))
    post[2] = 1.0
    alp = build_alp(web, post)
    w = solve_alp(alp)
    np.testing.assert_array_equal(extract_policy(alp, w), [3, 3, 3, 3])
    _, pi_star = value_iteration(web, post)
    np.testing.assert_array_equal(pi_star, [3, 3, 3, 3])


def test_policy_ties_break_to_the_lowest_action_index():
    dom = no_attack_domain(3, gamma=0.9, M=10.0)
    alp = build_alp(dom, ones_posterior(dom))
    policy = extract_policy(alp, np.zeros(len(alp.basis.names)))
    np.testing.assert_array_equal(policy, [0, 0, 0])


def test_gamma_zero_policy_is_myopic_reward_argmax():
    web = make_web_app_domain(alpha=1.0)
    myopic = DomainInfo(web.space, web.types, web.sc, web.M, 0.0, web.alpha)
    rng = np.random.default_rng(11)
    posterior = random_posterior_table(myopic, rng)
    alp = build_alp(myopic, posterior)
    w = solve_alp(alp)
    expected = np.argmax(expected_reward_table(myopic, posterior), axis=1)
    np.testing.assert_array_equal(extract_policy(alp, w), expected)


def test_exact_value_of_self_loop_policy_is_reward_over_one_minus_gamma():
    web = make_web_app_domain(alpha=1.0)
    posterior = cold_posterior_table(web)
    R = expected_reward_table(web, posterior)
    policy = np.arange(4)
    values = exact_value(web, policy, posterior)
    np.testing.assert_allclose(values, np.diag(R) / (1.0 - web.gamma), rtol=1e-12)


def test_exact_value_of_two_cycle_matches_closed_form():
    dom = no_attack_domain(2, gamma=0.9, sc=[[0.0, 3.0], [5.0, 0.0]], M=20.0)
    posterior = ones_posterior(dom)
    values = exact_value(dom, np.array([1, 0]), posterior)
    r01, r10 = 20.0 - 3.0, 20.0 - 5.0
    g = dom.gamma
    np.testing.assert_allclose(values[0], (r01 + g * r10) / (1.0 - g * g), rtol=1e-12)
    np.testing.assert_allclose(values[1], (r10 + g * r01) / (1.0 - g * g), rtol=1e-12)


def test_exact_value_matches_long_discounted_rollout():
    web = make_web_app_domain(alpha=1.0)
    posterior = random_posterior_table(web, np.random.default_rng(9))
    R = expected_reward_table(web, posterior)
    policy = np.array([2, 0, 3, 1])
    values = exact_value(web, policy, posterior)
    for start in range(4):
        total, state, disc = 0.0, start, 1.0
        for _ in range(300):
            action = policy[state]
            total += disc * R[state, action]
            disc *= web.gamma
            state = action
        np.testing.assert_allclose(values[start], total, rtol=1e-8)


def test_value_iteration_fixed_point_satisfies_bellman_equation():
    web = make_web_app_domain(alpha=1.0)
    posterior = cold_posterior_table(web)
    V, policy = value_iteration(web, posterior)
    R = expected_reward_table(web, posterior)
    Q = R + web.gamma * V[None, :]
    np.testing.assert_allclose(V, Q.max(axis=1), atol=1e-9)
    np.testing.assert_array_equal(policy, np.argmax(Q, axis=1))
    # The greedy policy's exact value equals the fixed point.
    np.testing.assert_allclose(exact_value(web, policy, posterior), V, atol=1e-8)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_alp_dict_round_trips_rows_and_labels(tmp_path, capsys):
    web = make_web_app_domain(alpha=1.0)
    alp = build_alp(web, cold_posterior_table(web))
    path = tmp_path / "program.json"
    assert main(["dump-lp", "--out", str(path)]) == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) == {"objective", "basis", "theta", "rows"}
    assert data["basis"][0] == "bias"
    assert "language=PHP" in data["basis"]
    assert len(data["rows"]) == 16
    first = data["rows"][0]
    assert first["state"] == "PHP|MySQL" and first["action"] == "PHP|MySQL"
    np.testing.assert_allclose(first["coefficients"], alp.lp.rows[0])
    np.testing.assert_allclose(first["bound"], alp.lp.bounds[0])
    assert alp_to_dict(alp) == data


# ---------------------------------------------------------------------------
# ties and warm re-planning
# ---------------------------------------------------------------------------


def test_greedy_actions_treat_rounding_noise_as_a_tie():
    scores = np.array(
        [
            [5.0, 5.0 + 2.3e-13, 1.0],  # noise: lowest index wins
            [5.0, 5.0 + 1e-6, 1.0],  # a real gap
            [-3.0, -3.0, -3.0],
        ]
    )
    np.testing.assert_array_equal(greedy_actions(scores), [0, 1, 0])


def test_build_alp_rows_are_the_belief_free_bracket_coefficients():
    web = make_web_app_domain(alpha=1.0)
    alp = build_alp(web, random_posterior_table(web, np.random.default_rng(4)))
    B = build_basis(web.space).activations
    for i, (s, a) in enumerate(np.ndindex(4, 4)):
        np.testing.assert_array_equal(alp.lp.rows[i], web.gamma * B[a] - B[s])


def test_build_alp_from_previous_recomputes_only_the_bounds():
    web = make_web_app_domain(alpha=1.0)
    rng = np.random.default_rng(6)
    first = build_alp(web, random_posterior_table(web, rng))
    solve_alp(first)
    posterior = random_posterior_table(web, rng)
    again = build_alp(web, posterior, previous=first)
    fresh = build_alp(web, posterior)
    assert np.shares_memory(again.lp.rows, first.lp.rows)
    assert np.shares_memory(again.lp.c, first.lp.c)
    assert again.basis is first.basis
    np.testing.assert_array_equal(again.rewards, fresh.rewards)
    np.testing.assert_array_equal(again.lp.bounds, fresh.lp.bounds)
    assert again.lp_solution is first.lp_solution is not None and fresh.lp_solution is None


def test_build_alp_from_previous_rejects_another_domain_or_basis():
    web = make_web_app_domain(alpha=1.0)
    post = cold_posterior_table(web)
    first = build_alp(web, post)
    # The posterior is equal, so these would otherwise hand back ``first``.
    with pytest.raises(DomainError):
        build_alp(make_web_app_domain(alpha=1.0), post, previous=first)
    with pytest.raises(DomainError):
        build_alp(web, post.copy(), basis=build_state_basis(web.space), previous=first)
    assert build_alp(web, post, basis=first.basis, previous=first) is first


@pytest.fixture
def lp_solves(monkeypatch):
    """The problems ``alp.solve_lp`` is called on, in call order."""
    solves = []
    solve = alp_module.solve_lp

    def counted(problem, start=None):
        solves.append(problem)
        return solve(problem, start=start)

    monkeypatch.setattr(alp_module, "solve_lp", counted)
    return solves


def test_an_equal_posterior_hands_back_the_solved_problem(lp_solves):
    web = make_web_app_domain(alpha=1.0)
    posterior = random_posterior_table(web, np.random.default_rng(7))
    first = build_alp(web, posterior)
    weights = solve_alp(first)
    policy = extract_policy(first, weights)
    again = build_alp(web, posterior.copy(), previous=first)
    assert again is first
    assert solve_alp(again) is weights
    assert extract_policy(again, weights) is policy
    assert len(lp_solves) == 1


def test_a_posterior_one_ulp_away_is_a_new_problem(lp_solves):
    web = make_web_app_domain(alpha=1.0)
    posterior = random_posterior_table(web, np.random.default_rng(7))
    first = build_alp(web, posterior)
    extract_policy(first, solve_alp(first))
    moved = posterior.copy()
    moved[1, 2, 3] = np.nextafter(moved[1, 2, 3], np.inf)
    again = build_alp(web, moved, previous=first)
    assert again is not first and again.weights is None and again.policy is None
    solve_alp(again)
    assert len(lp_solves) == 2 and lp_solves[1] is again.lp


def test_mutating_the_callers_posterior_in_place_misses_the_memo(lp_solves):
    web = make_web_app_domain(alpha=1.0)
    posterior = random_posterior_table(web, np.random.default_rng(7))
    first = build_alp(web, posterior)
    solve_alp(first)
    posterior[0, 1, 2] += 0.25
    again = build_alp(web, posterior, previous=first)
    assert again is not first
    np.testing.assert_array_equal(again.rewards, build_alp(web, posterior).rewards)
    solve_alp(again)
    assert len(lp_solves) == 2


def test_kept_weights_policy_and_posterior_are_read_only():
    web = make_web_app_domain(alpha=1.0)
    problem = build_alp(web, cold_posterior_table(web))
    weights = solve_alp(problem)
    policy = extract_policy(problem, weights)
    for kept in (weights, policy, problem.posterior):
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 0
    # Weights the problem did not produce are scored afresh and not kept.
    other = extract_policy(problem, weights.copy())
    assert other is not policy and other.flags.writeable and problem.policy is policy


@pytest.mark.parametrize("name", ["web", "net2", "net3"])
def test_warm_replan_matches_a_cold_replan(name):
    rng = np.random.default_rng(12)
    if name == "web":
        domain = make_web_app_domain(alpha=1.0)
    else:
        domain = make_network_domain(rng, n_nodes=int(name[-1]))
    posterior = random_posterior_table(domain, rng)
    previous = build_alp(domain, posterior)
    solve_alp(previous)
    warm_hits = 0
    for step in range(12):
        # Alternate small belief drifts, as between two steps of a run, with
        # jumps to an unrelated belief.
        if step % 3 == 2:
            posterior = random_posterior_table(domain, rng)
        else:
            posterior = perturb_posterior_table(posterior, rng, scale=0.01)
        warm = build_alp(domain, posterior, previous=previous)
        warm_hits += solve_lp(warm.lp, start=warm.lp_solution).warm
        w_warm = solve_alp(warm)
        cold = build_alp(domain, posterior)
        w_cold = solve_alp(cold)
        np.testing.assert_allclose(
            value_estimates(warm, w_warm), value_estimates(cold, w_cold), rtol=0, atol=1e-9
        )
        np.testing.assert_array_equal(
            extract_policy(warm, w_warm), extract_policy(cold, w_cold)
        )
        previous = warm
    assert warm_hits > 0
