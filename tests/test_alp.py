"""Tests for the approximate-linear-programming planner.

Covers basis construction, constraint assembly against hand-computed rows,
agreement with policy iteration where the basis is complete, and structural
invariants of the approximate solution (upper bound on the optimal values,
shift covariance, feasibility of the returned weights).
"""

import dataclasses
import json
import math
from itertools import product

import numpy as np
import pytest

from mtdsim import alp as alp_module
from mtdsim import lp as lp_module
from mtdsim.alp import (
    TIE_TOL,
    TIE_ULPS,
    ALProblem,
    Basis,
    alp_to_dict,
    build_alp,
    build_basis,
    build_state_basis,
    exact_value,
    extract_policy,
    greedy_actions,
    policy_iteration,
    solve_alp,
    value_estimates,
)
from mtdsim.cli import main
from mtdsim.domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    expected_attack_loss_table,
    expected_reward_table,
)
from mtdsim.environments import make_network_domain, make_web_app_domain
from mtdsim.harness import (
    cold_posterior_table,
    perturb_posterior_table,
    random_posterior_table,
)
from mtdsim.estimator import ThreatEstimator
from mtdsim.lp import FEAS_TOL, OPTIMAL, LPProblem, NumericalError, solve_lp
from oracles import (
    dependent_alp,
    dependent_basis,
    dependent_state_basis,
    recording,
    reference_basis,
    reference_greedy_actions,
)


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
    return DomainInfo(space, (dummy,), sc, M, gamma)


def ones_posterior(domain: DomainInfo) -> np.ndarray:
    return np.ones((domain.n_types, domain.n_configs, domain.n_configs))


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def test_factored_basis_counts_one_indicator_per_factor_value():
    # Every value but each factor's first, whose indicator the bias spans.
    web = make_web_app_domain()
    assert build_basis(web.space).activations.shape == (4, 1 + 1 + 1)
    basis = build_basis(small_space())
    assert len(basis.names) == 1 + 1 + 2 + 1
    assert basis.activations.shape == (12, len(basis.names))


def test_state_basis_counts_one_indicator_per_configuration():
    web = make_web_app_domain()
    # Every configuration but the first, whose indicator the bias spans.
    assert build_state_basis(web.space).activations.shape == (4, 1 + 3)
    basis = build_state_basis(small_space())
    assert len(basis.names) == 1 + 11
    assert basis.activations.shape == (12, len(basis.names))


def test_basis_describe_names_factor_and_value():
    web = make_web_app_domain()
    assert build_basis(web.space).names == ("bias", "language=Python", "database=Postgres")
    assert build_state_basis(web.space).names[:2] == ("bias", "language=PHP,database=Postgres")


@pytest.mark.parametrize("sizes", [(1,), (4,), (2, 2), (2, 3, 2), (3, 1, 2), (2,) * 6])
def test_factored_basis_is_bitwise_the_per_value_loop(sizes):
    space = small_space(sizes)
    basis, want = build_basis(space), reference_basis(space)
    assert basis.names == want.names
    assert basis.activations.shape == want.activations.shape
    assert basis.activations.tobytes() == want.activations.tobytes()


def test_equal_spaces_share_one_read_only_basis():
    webs = (make_web_app_domain(), make_web_app_domain(unknown_variant="pg-only-dh"))
    nets = tuple(make_network_domain(np.random.default_rng(seed), n_nodes=4) for seed in (0, 1))
    for first, second in (webs, nets):
        basis = build_basis(first.space)
        assert build_basis(second.space) is basis
        assert build_basis(ConfigSpace(first.space.factors)) is basis  # equal, not the same
        assert not basis.activations.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis.activations[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.activations = basis.activations.copy()
    assert build_basis(webs[0].space) is not build_basis(nets[0].space)
    assert build_basis(small_space()) is not build_basis(small_space((2, 3, 3)))


@pytest.mark.parametrize("domain_name", ["web", "pg-only-dh", "net4-seed0", "net4-seed1"])
def test_an_alp_on_the_shared_basis_is_bitwise_one_on_a_fresh_basis(domain_name):
    domain = {
        "web": make_web_app_domain,
        "pg-only-dh": lambda: make_web_app_domain(unknown_variant="pg-only-dh"),
        "net4-seed0": lambda: make_network_domain(np.random.default_rng(0), n_nodes=4),
        "net4-seed1": lambda: make_network_domain(np.random.default_rng(1), n_nodes=4),
    }[domain_name]()
    rng = np.random.default_rng(5)
    for posterior in (cold_posterior_table(domain), random_posterior_table(domain, rng)):
        shared = build_alp(domain, posterior)
        fresh = build_alp(domain, posterior, reference_basis(domain.space))
        assert shared.basis is build_basis(domain.space)
        assert shared.basis.names == fresh.basis.names
        for name in ("c", "rows", "bounds"):
            ours, theirs = getattr(shared.lp, name), getattr(fresh.lp, name)
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name
        assert json.dumps(alp_to_dict(shared)) == json.dumps(alp_to_dict(fresh))  # dump-lp's text
        weights, want = solve_alp(shared), solve_alp(fresh)
        assert weights.tobytes() == want.tobytes()
        assert extract_policy(shared, weights).tobytes() == extract_policy(fresh, want).tobytes()


def test_activation_matrix_rows_mark_matching_factor_values():
    web = make_web_app_domain()
    B = build_basis(web.space).activations
    assert B.shape == (4, 3)
    # PHP|MySQL, every factor at its first value, activates the bias alone.
    np.testing.assert_array_equal(B[0], [1, 0, 0])
    # Python|Postgres activates bias, language=Python, database=Postgres.
    np.testing.assert_array_equal(B[3], [1, 1, 1])
    # Every row activates the bias plus one column per factor off its first value.
    np.testing.assert_array_equal(B.sum(axis=1), [1, 2, 2, 3])


def test_state_basis_activation_matrix_is_identity_plus_bias():
    web = make_web_app_domain()
    B = build_state_basis(web.space).activations
    np.testing.assert_array_equal(B[:, 0], np.ones(4))
    np.testing.assert_array_equal(B[:, 1:], np.eye(4)[:, 1:])


def test_every_built_basis_has_full_column_rank():
    # A dependent column would carry a weight that no decision depends on.
    spaces = [make_web_app_domain().space, small_space(), small_space((3, 1, 2))]
    spaces += [make_network_domain(np.random.default_rng(0), n_nodes=n).space for n in range(1, 11)]
    for space in spaces:
        B = build_basis(space).activations
        assert B.shape == (space.n_configs, 1 + sum(len(f.values) - 1 for f in space.factors))
        assert np.linalg.matrix_rank(B) == B.shape[1], space.factors
        if space.n_configs <= 64:  # up to 6 nodes
            B = build_state_basis(space).activations
            assert B.shape == (space.n_configs,) * 2
            assert np.linalg.matrix_rank(B) == space.n_configs, space.factors


def _with_activations(activations) -> Basis:
    return Basis(tuple(f"f{i}" for i in range(np.shape(activations)[-1])), activations)


def test_build_alp_rejects_a_basis_of_the_wrong_row_count():
    # One row short of the web's four configurations.
    web = make_web_app_domain()
    basis = _with_activations(build_basis(web.space).activations[:3])
    with pytest.raises(DomainError, match=r"must be an \(4, k\) array, k >= 1, not \(3, 3\)"):
        build_alp(web, cold_posterior_table(web), basis)


def test_build_alp_rejects_a_basis_without_columns():
    web = make_web_app_domain()
    for activations in (np.zeros((4, 0)), np.ones(4), np.ones((4, 1, 1))):
        with pytest.raises(DomainError, match=r"must be an \(4, k\) array, k >= 1, not"):
            build_alp(web, cold_posterior_table(web), _with_activations(activations))


def test_build_alp_rejects_a_basis_with_a_duplicated_column():
    web = make_web_app_domain()
    B = build_basis(web.space).activations
    basis = _with_activations(B[:, [0, 1, 2, 1]])
    with pytest.raises(DomainError, match="full column rank 4, not 3"):
        build_alp(web, cold_posterior_table(web), basis)
    # So are the dependent bases of the past: each factor's indicators, and
    # all the configurations' indicators, sum to the bias.
    for dependent, message in (
        (dependent_basis(web.space), "rank 5, not 3"),
        (dependent_state_basis(web.space), "rank 5, not 4"),
    ):
        with pytest.raises(DomainError, match=message):
            build_alp(web, cold_posterior_table(web), dependent)


def test_build_alp_rejects_a_basis_with_a_non_finite_activation():
    web = make_web_app_domain()
    B = build_basis(web.space).activations.copy()
    B[2, 1] = np.nan
    with pytest.raises(DomainError, match="must be finite"):
        build_alp(web, cold_posterior_table(web), _with_activations(B))


def _plan_counting_pivots(monkeypatch, problem: ALProblem) -> tuple[np.ndarray, int]:
    """``solve_alp(problem)`` and the pivots of all its rounds."""
    pivots = []

    def counted(program, start=None, kept=None):
        solution = lp_module.solve_lp(program, start=start, kept=kept)
        pivots.append(solution.pivots)
        return solution

    monkeypatch.setattr(alp_module, "solve_lp", counted)
    return solve_alp(problem), sum(pivots)


def _equivalence_cases():
    for n in range(2, 7):
        for seed in range(6):
            yield f"net{n}-seed{seed}", "cold"
    for name in ("web", "pg-only-dh", "net2-seed0"):
        for belief in ("cold", "random0", "random1", "random2"):
            if (name, belief) != ("net2-seed0", "cold"):  # a cold plan above
                yield name, belief


@pytest.mark.parametrize("domain_name, belief", list(_equivalence_cases()))
def test_the_full_rank_bases_plan_as_the_dependent_ones(monkeypatch, domain_name, belief):
    # The ALP constrains V = Phi w, so it depends on Phi only through its span
    # (de Farias & Van Roy, 2003): the old bases, with each factor's first
    # value (or the first configuration) as a column of its own, give the
    # same values and policy.  The factored bases also take the same pivots;
    # the state bases' pivot paths part under Bland's rule (the web's cold
    # plan takes 12 against 10).  build_alp refuses the old bases, so their
    # programs are assembled by hand.
    if domain_name.startswith("net"):
        nodes, seed = (int(part) for part in domain_name[3:].split("-seed"))
        domain = make_network_domain(np.random.default_rng(seed), n_nodes=nodes)
    else:
        domain = make_web_app_domain(None if domain_name == "web" else domain_name)
    if belief == "cold":
        posterior = cold_posterior_table(domain)
    else:
        posterior = random_posterior_table(domain, np.random.default_rng(int(belief[-1])))
    pairs = [(build_basis, dependent_basis)]
    if domain.n_configs <= 16:  # the state basis: the web and 2- to 4-node networks
        pairs.append((build_state_basis, dependent_state_basis))
    for build, old_build in pairs:
        new = build_alp(domain, posterior, build(domain.space))
        old = dependent_alp(domain, posterior, old_build(domain.space))
        assert old.basis.activations.shape[1] > new.basis.activations.shape[1]
        w_new, pivots_new = _plan_counting_pivots(monkeypatch, new)
        w_old, pivots_old = _plan_counting_pivots(monkeypatch, old)
        v_new, v_old = value_estimates(new, w_new), value_estimates(old, w_old)
        assert np.max(np.abs(v_new - v_old)) <= 1e-9 * np.max(np.abs(v_old)), build.__name__
        assert extract_policy(new, w_new).tolist() == extract_policy(old, w_old).tolist()
        if build is build_basis:
            assert pivots_new == pivots_old


# ---------------------------------------------------------------------------
# constraint assembly
# ---------------------------------------------------------------------------


def test_build_alp_one_row_per_state_action_pair():
    web = make_web_app_domain()
    alp = build_alp(web, cold_posterior_table(web))
    assert alp.lp.rows.shape == (16, 3)
    assert alp.lp.bounds.shape == (16,)
    # Objective is the mean activation of each basis function (uniform theta).
    np.testing.assert_allclose(alp.lp.c, [1.0, 0.5, 0.5])


def test_build_alp_row_matches_hand_computed_constraint():
    # Belief pinned on the database attacker, state = action = PHP|MySQL:
    # success prob 0.70, loss 43, sc 0, so the constant term is
    # 0.7*(200-0) - 0.7*43 + 0.3*(200-0) = 169.9 and every branch carries the
    # same bracket coefficient gamma*beta(a) - beta(s) = -0.1 * beta(s).
    web = make_web_app_domain()
    post = np.zeros((3, 4, 4))
    post[1] = 1.0
    alp = build_alp(web, post)
    row0 = 0 * 4 + 0  # row of the pair (s, a) is s * S + a
    np.testing.assert_allclose(alp.lp.bounds[row0], -169.9)
    np.testing.assert_allclose(alp.lp.rows[row0], -0.1 * np.array([1, 0, 0]))
    # A move (0 -> 3) pays sc=100 and faces loss 50 at the target:
    # const = 200 - 100 - 0.65*50 = 67.5, coefficients 0.9*beta(3) - beta(0).
    row3 = 0 * 4 + 3
    np.testing.assert_allclose(alp.lp.bounds[row3], -67.5)
    np.testing.assert_allclose(
        alp.lp.rows[row3],
        0.9 * np.array([1, 1, 1]) - np.array([1, 0, 0]),
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


def test_state_basis_reproduces_policy_iteration():
    web = make_web_app_domain()
    basis = build_state_basis(web.space)
    for posterior in (
        cold_posterior_table(web),
        random_posterior_table(web, np.random.default_rng(3)),
    ):
        alp = build_alp(web, posterior, basis=basis)
        w = solve_alp(alp)
        V_star, pi_star = policy_iteration(web, posterior)
        np.testing.assert_allclose(value_estimates(alp, w), V_star, atol=1e-6)
        np.testing.assert_array_equal(extract_policy(alp, w), pi_star)


def test_approximate_values_upper_bound_the_optimum():
    # Any feasible point dominates the Bellman optimum pointwise, and the
    # richer basis can only tighten the minimised objective.
    web = make_web_app_domain()
    cold = cold_posterior_table(web)
    alp_f = build_alp(web, cold)
    w_f = solve_alp(alp_f)
    alp_s = build_alp(web, cold, basis=build_state_basis(web.space))
    w_s = solve_alp(alp_s)
    V_star, _ = policy_iteration(web, cold)
    assert np.all(value_estimates(alp_f, w_f) >= V_star - 1e-7)
    obj_f = float(alp_f.lp.c @ w_f)
    obj_s = float(alp_s.lp.c @ w_s)
    assert obj_f >= obj_s - 1e-7
    np.testing.assert_allclose(obj_s, np.full(4, 0.25) @ V_star, rtol=1e-7)


def test_solution_satisfies_every_constraint():
    web = make_web_app_domain()
    rng = np.random.default_rng(5)
    for _ in range(3):
        posterior = random_posterior_table(web, rng)
        alp = build_alp(web, posterior)
        w = solve_alp(alp)
        assert np.all(alp.lp.rows @ w <= alp.lp.bounds + 1e-6)


def test_reward_offset_shifts_objective_by_geometric_factor():
    web = make_web_app_domain()
    cold = cold_posterior_table(web)
    base = solve_alp(build_alp(web, cold))
    shifted_dom = DomainInfo(web.space, web.types, web.sc, web.M + 25.0, web.gamma)
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
    with pytest.raises(RuntimeError, match=r"unbounded .*\(1 of 1 rows, 1 basis functions\)"):
        solve_alp(ALProblem(web, basis, unbounded, np.zeros((4, 4))))
    infeasible = LPProblem(c=np.array([1.0]), rows=np.zeros((1, 1)), bounds=np.array([-1.0]))
    with pytest.raises(RuntimeError, match="infeasible"):
        solve_alp(ALProblem(web, basis, infeasible, np.zeros((4, 4))))


def _web_at_gamma(gamma: float) -> ALProblem:
    web = make_web_app_domain()
    domain = DomainInfo(web.space, web.types, web.sc, web.M, gamma)
    return build_alp(domain, cold_posterior_table(domain))


def test_a_web_plan_at_gamma_one_minus_1e_8_is_feasible():
    # The last decade of 1 - gamma at which the web plans (see below).
    problem = _web_at_gamma(1.0 - 1e-8)
    weights = solve_alp(problem)
    excess = problem.lp.rows @ weights - problem.lp.bounds
    assert excess.max() <= np.ldexp(FEAS_TOL, problem.domain.unit_exponent)
    # Its greedy policy is optimal too.  A tie band of 1e-9 |best| (about
    # 18.6 here, where rewards span 128) lost 15.2% of max |V| at the worst
    # state; the band of the row's spread loses nothing.
    domain, cold = problem.domain, cold_posterior_table(problem.domain)
    got = exact_value(domain, extract_policy(problem, weights), cold)
    want = policy_iteration(domain, cold)[0]
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("gap", [1e-9, 1e-10, 1e-12])
def test_a_web_plan_past_the_edge_of_gamma_raises_a_numerical_error(gap):
    # From gamma = 1 - 1e-9 on, the stay rows' coefficients (gamma - 1) * beta
    # fall below FEAS_TOL, so phase 1 cannot pivot, and its multipliers prove
    # nothing: the planner says it cannot tell, never that the (feasible and
    # bounded) program is malformed.
    with pytest.raises(NumericalError, match="^approximate LP: phase 1 stopped .* no proof"):
        solve_alp(_web_at_gamma(1.0 - gap))


def test_a_phase_1_breakdown_is_never_reported_infeasible():
    # A 7-node network under the cold belief, with the factored basis plus a
    # column of each configuration's cold expected loss.  Phase 1 on the stay
    # rows pivots on entries just above FEAS_TOL and stops with no pivot row
    # after 709 pivots, at a residual of 2.7e-11.  The program is feasible:
    # w0 = max R / (1 - gamma), with every other weight 0, satisfies every row.
    domain = make_network_domain(np.random.default_rng(0), n_nodes=7)
    cold = cold_posterior_table(domain)
    loss = expected_attack_loss_table(domain, cold)[0]  # the loss depends on the target only
    factored = build_basis(domain.space)
    basis = Basis(
        factored.names + ("cold loss",), np.column_stack([factored.activations, loss])
    )
    problem = build_alp(domain, cold, basis)
    S = domain.n_configs
    stay = np.arange(0, S * S, S + 1)
    program = LPProblem(problem.lp.c, problem.lp.rows[stay], problem.lp.bounds[stay])
    try:
        solution = solve_lp(program)
    except NumericalError as err:
        assert err.pivots > 0 and 0.0 <= err.residual <= FEAS_TOL
    else:
        assert solution.status == OPTIMAL
    try:
        weights = solve_alp(problem)
    except NumericalError as err:
        assert f"({S} of {S * S} rows, {len(basis.names)} basis functions)" in str(err)
    else:
        assert np.max(problem.lp.rows @ weights - problem.lp.bounds) <= FEAS_TOL


# ---------------------------------------------------------------------------
# policies and exact policy evaluation
# ---------------------------------------------------------------------------


def test_policy_flees_to_the_resistant_config_under_unknown_pressure():
    # All belief mass on the unknown type, which Python|Postgres fully resists;
    # the discounted planner routes every state there despite sc up to 100.
    web = make_web_app_domain()
    post = np.zeros((3, 4, 4))
    post[2] = 1.0
    alp = build_alp(web, post)
    w = solve_alp(alp)
    np.testing.assert_array_equal(extract_policy(alp, w), [3, 3, 3, 3])
    _, pi_star = policy_iteration(web, post)
    np.testing.assert_array_equal(pi_star, [3, 3, 3, 3])


def test_policy_ties_break_to_the_lowest_action_index():
    dom = no_attack_domain(3, gamma=0.9, M=10.0)
    alp = build_alp(dom, ones_posterior(dom))
    policy = extract_policy(alp, np.zeros(len(alp.basis.names)))
    np.testing.assert_array_equal(policy, [0, 0, 0])


def test_gamma_zero_policy_is_myopic_reward_argmax():
    web = make_web_app_domain()
    myopic = DomainInfo(web.space, web.types, web.sc, web.M, 0.0)
    rng = np.random.default_rng(11)
    posterior = random_posterior_table(myopic, rng)
    alp = build_alp(myopic, posterior)
    w = solve_alp(alp)
    expected = np.argmax(expected_reward_table(myopic, posterior), axis=1)
    np.testing.assert_array_equal(extract_policy(alp, w), expected)


def test_exact_value_of_self_loop_policy_is_reward_over_one_minus_gamma():
    web = make_web_app_domain()
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
    web = make_web_app_domain()
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


def twin_config_domain() -> DomainInfo:
    """Three configurations, of which c0 and c1 are identical: every tie is exact."""
    space = ConfigSpace((FactorSpec("slot", ("c0", "c1", "c2")),))
    attacker = AttackerTypeSpec("a", False, [0.1, 0.1, 0.5], [10.0, 10.0, 10.0])
    sc = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    return DomainInfo(space, (attacker,), sc, 20.0, 0.9)


def bellman_cases():
    web = make_web_app_domain()
    yield "web-cold", web, cold_posterior_table(web)
    for n_nodes in (2, 3, 4):
        rng = np.random.default_rng(n_nodes)
        net = make_network_domain(rng, n_nodes=n_nodes)
        yield f"net{n_nodes}-random", net, random_posterior_table(net, rng)
    twins = twin_config_domain()
    yield "twins", twins, ones_posterior(twins)


@pytest.mark.parametrize("case", list(bellman_cases()), ids=lambda case: case[0])
def test_policy_iteration_fixed_point_satisfies_bellman_equation(case):
    _, domain, posterior = case
    V, policy = policy_iteration(domain, posterior)
    R = expected_reward_table(domain, posterior)
    Q = R + domain.gamma * V[None, :]
    np.testing.assert_allclose(V, Q.max(axis=1), rtol=1e-12)
    np.testing.assert_array_equal(policy, greedy_actions(Q))
    # The returned values are the policy's own exact value, bit for bit.
    np.testing.assert_array_equal(exact_value(domain, policy, posterior), V)
    alp = build_alp(domain, posterior, basis=build_state_basis(domain.space))
    np.testing.assert_array_equal(extract_policy(alp, solve_alp(alp)), policy)


def test_policy_iteration_breaks_exact_ties_to_the_lowest_index():
    # c0 and c1 tie as actions from every state; staying in c2 is worse.
    twins = twin_config_domain()
    R = expected_reward_table(twins, ones_posterior(twins))
    np.testing.assert_array_equal(R[:, 0], R[:, 1])
    _, policy = policy_iteration(twins, ones_posterior(twins))
    np.testing.assert_array_equal(policy, [0, 0, 0])


@pytest.mark.parametrize("gamma", [0.99, 0.999, 0.9999])
def test_state_basis_alp_matches_policy_iteration_at_high_gamma(gamma):
    web = make_web_app_domain()
    domain = DomainInfo(web.space, web.types, web.sc, web.M, gamma)
    rng = np.random.default_rng(26)
    basis = build_state_basis(domain.space)
    for _ in range(5):
        posterior = random_posterior_table(domain, rng)
        V, policy = policy_iteration(domain, posterior)
        alp = build_alp(domain, posterior, basis=basis)
        weights = solve_alp(alp)
        np.testing.assert_allclose(value_estimates(alp, weights), V, rtol=1e-9, atol=0.0)
        np.testing.assert_array_equal(extract_policy(alp, weights), policy)


@pytest.mark.parametrize(
    "policy",
    [
        [-1, -1, -1, -1],  # would index from the end
        [4, 0, 0, 0],
        [1.7, 0.0, 0.0, 0.0],  # would truncate to [1, 0, 0, 0]
        [1.0, 0.0, 0.0, 0.0],
        [True, False, False, False],
        [0, 0, 0],
        [[0, 1, 2, 3]],
    ],
)
def test_exact_value_rejects_a_malformed_policy(policy):
    web = make_web_app_domain()
    with pytest.raises(DomainError, match="policy must hold 4 integer configuration indices"):
        exact_value(web, np.array(policy), cold_posterior_table(web))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_alp_dict_round_trips_rows_and_labels(tmp_path, capsys):
    web = make_web_app_domain()
    alp = build_alp(web, cold_posterior_table(web))
    path = tmp_path / "program.json"
    assert main(["dump-lp", "--out", str(path)]) == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) == {"objective", "basis", "theta", "rows"}
    assert data["basis"] == ["bias", "language=Python", "database=Postgres"]
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


def test_greedy_actions_tie_by_the_rows_spread_when_the_best_is_zero():
    # The tie band follows the row's spread, not its best: at a best of 0 a
    # spread of 1e-12 ties -1e-12 with nothing (its ulps of 0 are subnormal),
    # while spreads of 5 and 1 tie -1e-300 and -1e-12, which win by their
    # lower index.
    scores = np.array([[-1e-12, 0.0, 0.0], [-1e-300, -0.0, -5.0], [-1e-12, -1.0, 0.0]])
    np.testing.assert_array_equal(greedy_actions(scores), [1, 0, 0])


def planted_tie_rows(rng: np.random.Generator, n_rows: int, width: int, exponents: int):
    """Rows that each hold their best, one score planted inside the tie band, on
    its edge or one float below it, and others at least 1e-6 of the best below;
    the best's size is 0 or 2^k with |k| <= ``exponents``.  Returns the rows and
    each row's expected action."""
    rows, want, kinds = [], [], ["inside", "edge", "outside"]
    for i in range(n_rows):
        size = 0.0
        if i % 5:
            mantissa = rng.uniform(0.5, 1.0)
            size = np.ldexp(mantissa, int(rng.integers(-exponents, exponents + 1)))
        best = float(rng.choice([-1.0, 1.0]) * size)
        row = best - (abs(best) + 1.0) * rng.uniform(1e-6, 1.0, width)
        at_best, at_planted = rng.choice(width, size=2, replace=False)
        row[at_best] = best
        band = TIE_TOL * (best - np.delete(row, at_planted).min()) + TIE_ULPS * math.ulp(abs(best))
        floor = best - band
        kind = kinds[i % 3]
        row[at_planted] = {
            "inside": best - band * rng.random(),
            "edge": floor,
            "outside": float(np.nextafter(floor, -np.inf)),
        }[kind]
        rows.append(row)
        want.append(at_best if kind == "outside" else min(at_best, at_planted))
    return np.array(rows), want


def test_greedy_actions_match_the_reference_loop_on_planted_ties():
    # Each row holds its best, one planted score inside the tie band, on its
    # edge or one float below it, and others at least 1e-6 of the best below.
    # The band is TIE_TOL times the spread the others and the best make, plus
    # TIE_ULPS ulps of |best|; rows whose best is 0 (or -0) tie by the spread.
    scores, want = planted_tie_rows(np.random.default_rng(43), 3000, 6, 60)
    np.testing.assert_array_equal(greedy_actions(scores), want)
    np.testing.assert_array_equal(reference_greedy_actions(scores), want)


@pytest.mark.parametrize("j", [-1000, 1000])
def test_greedy_actions_pick_the_same_action_under_a_power_of_two(j):
    scores = np.array(
        [
            [1.0, 5.0, 5.0 + 2.3e-13],  # noise: the lowest of the tied pair
            [5.0, 5.0 + 1e-6, 1.0],  # a real gap
            [-3.0, -3.0 - 1e-6, -3.0 + 1e-14],
        ]
    )
    np.testing.assert_array_equal(greedy_actions(np.ldexp(scores, j)), [1, 1, 0])
    np.testing.assert_array_equal(greedy_actions(scores), [1, 1, 0])


def greedy_by_both_paths(monkeypatch, scores: np.ndarray) -> np.ndarray:
    """``greedy_actions(scores)`` on the Python row loop and on numpy, which must
    agree bitwise; returns their ``intp`` actions."""
    got = {}
    for path, size in (("python", np.inf), ("numpy", 0)):
        with monkeypatch.context() as m:
            m.setattr(alp_module, "SMALL_TABLE", size)
            got[path] = greedy_actions(scores)
    assert got["python"].dtype == got["numpy"].dtype == np.intp
    assert got["python"].tobytes() == got["numpy"].tobytes(), scores
    return got["python"]


def test_small_greedy_tables_score_bitwise_as_numpy_and_the_reference(monkeypatch):
    # Tables under SMALL_TABLE entries take the Python row loop; it must give
    # the numpy path's actions, bit for bit, and the reference loop's.
    rng, tables = np.random.default_rng(61), []
    for r in range(1, 9):
        for c in range(1, 9):
            for _ in range(4):
                scale = np.ldexp(1.0, int(rng.integers(-40, 41)))
                tables.append(rng.normal(size=(r, c)) * scale)
                tables.append(np.round(rng.normal(size=(r, c)), 1))  # exact ties
    # Both sides of the boundary: 63, 64 and 65 entries, as one row, one column or a block.
    for shape in [(7, 9), (9, 7), (1, 63), (63, 1), (8, 8), (1, 64), (64, 1), (4, 16), (5, 13)]:
        tables.append(rng.normal(size=shape))
    for _ in range(200):  # planted ties in 4x4 tables, the web planner's size
        scores, want = planted_tie_rows(rng, 4, 4, 60)
        np.testing.assert_array_equal(greedy_by_both_paths(monkeypatch, scores), want)
        tables.append(scores)
    for scores in tables:
        small = greedy_by_both_paths(monkeypatch, scores)
        assert small.tobytes() == greedy_actions(scores).tobytes()
        assert small.tobytes() == reference_greedy_actions(scores).tobytes()
    assert alp_module.SMALL_TABLE == 64


def test_small_greedy_tables_hold_signed_zeros_infinities_and_nans(monkeypatch):
    # numpy's band is NaN in a row that holds a NaN or +inf, so nothing ties
    # and action 0 wins; a -inf beside finite scores makes the band infinite,
    # so everything ties.  Signed zeros tie with each other.
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 5e-324, np.finfo(float).max]
    rng = np.random.default_rng(67)
    rows = [list(row) for row in product(specials, repeat=2)]
    rows += [list(rng.choice(specials, size=4)) for _ in range(600)]
    rows += [[1.0, np.nan, 2.0, 3.0], [3.0, 2.0, np.nan, 1.0], [-0.0, 0.0, -0.0, 0.0]]
    rows += [[1.0, 2.0, np.inf, -np.inf], [0.0, 2.0**1023, np.finfo(float).max, 1.0]]
    # Both paths are silent (pytest turns a warning into an error).
    for width in (2, 4):
        table = np.array([row for row in rows if len(row) == width])
        for start in range(0, len(table), 16 // width):
            scores = table[start : start + 16 // width]
            small = greedy_by_both_paths(monkeypatch, scores)
            assert small.tobytes() == reference_greedy_actions(scores).tobytes(), scores
    for row in ([1.0, np.nan, 2.0], [2.0, 1.0, np.inf], [2.0, -np.inf, 3.0]):
        assert greedy_actions(np.array([row])).tolist() == [0]
    assert greedy_actions(np.array([[-0.0, 0.0, -1e-320]])).tolist() == [0]


@pytest.mark.parametrize("j", [-1000, -1, 1, 1000])
def test_both_greedy_paths_pick_the_same_actions_under_a_power_of_two(monkeypatch, j):
    rng = np.random.default_rng(71)
    for _ in range(100):
        shape = tuple(rng.integers(1, 9, size=2))
        scores = np.round(rng.normal(size=shape) * 2.0 ** int(rng.integers(-10, 11)), 2)
        tied, _ = planted_tie_rows(rng, 4, 4, 10)
        for table in (scores, tied, np.tile(tied, (5, 1))):  # the last one 80 entries
            want = greedy_by_both_paths(monkeypatch, table)
            assert greedy_by_both_paths(monkeypatch, np.ldexp(table, j)).tobytes() == want.tobytes()


def test_build_alp_rows_are_the_belief_free_bracket_coefficients():
    web = make_web_app_domain()
    alp = build_alp(web, random_posterior_table(web, np.random.default_rng(4)))
    B = build_basis(web.space).activations
    for i, (s, a) in enumerate(np.ndindex(4, 4)):
        np.testing.assert_array_equal(alp.lp.rows[i], web.gamma * B[a] - B[s])


def test_build_alp_from_previous_recomputes_only_the_bounds():
    web = make_web_app_domain()
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
    assert again.working_set is first.working_set is not None and fresh.working_set is None


def test_build_alp_from_previous_rejects_another_domain_or_basis():
    web = make_web_app_domain()
    post = cold_posterior_table(web)
    first = build_alp(web, post)
    # ``post`` is the table ``first`` keeps, so this would otherwise hand back ``first``.
    with pytest.raises(DomainError):
        build_alp(make_web_app_domain(), post, previous=first)
    with pytest.raises(DomainError):
        build_alp(web, post.copy(), basis=build_state_basis(web.space), previous=first)
    assert build_alp(web, post, basis=first.basis, previous=first) is first


@pytest.fixture
def lp_solves(monkeypatch):
    """The problems ``alp.solve_lp`` is called on, in call order."""
    solves = []
    solve = alp_module.solve_lp

    def counted(problem, start=None, kept=None):
        solves.append(problem)
        return solve(problem, start=start, kept=kept)

    monkeypatch.setattr(alp_module, "solve_lp", counted)
    return solves


def test_an_equal_copy_of_the_posterior_is_a_warm_replan(lp_solves):
    # Whether the belief moved is the estimator's call, not build_alp's: an
    # equal table handed in as another object is a new belief.  Its one round
    # re-checks the carried basis and pivots nothing.
    web = make_web_app_domain()
    posterior = random_posterior_table(web, np.random.default_rng(7))
    posterior.flags.writeable = False
    first = build_alp(web, posterior)
    weights = solve_alp(first)
    solved = len(lp_solves)
    copy = posterior.copy()
    copy.flags.writeable = False
    again = build_alp(web, copy, previous=first)
    assert again is not first and again.posterior is copy and again.weights is None
    np.testing.assert_allclose(solve_alp(again), weights, rtol=1e-12, atol=1e-9)
    assert len(lp_solves) == solved + 1
    assert again.lp_solution.warm and again.lp_solution.pivots == 0


def test_a_posterior_one_ulp_away_is_a_new_problem(lp_solves):
    web = make_web_app_domain()
    posterior = random_posterior_table(web, np.random.default_rng(7))
    first = build_alp(web, posterior)
    extract_policy(first, solve_alp(first))
    solved = len(lp_solves)
    moved = posterior.copy()
    moved[1, 2, 3] = np.nextafter(moved[1, 2, 3], np.inf)
    again = build_alp(web, moved, previous=first)
    assert again is not first and again.weights is None and again.policy is None
    solve_alp(again)
    # The re-solve starts on the carried working set, under the new bounds in
    # the domain's unit 2^e.
    assert len(lp_solves) > solved
    bounds = np.ldexp(again.lp.bounds, -web.unit_exponent)
    np.testing.assert_array_equal(lp_solves[solved].rows, again.lp.rows[first.working_set])
    np.testing.assert_array_equal(lp_solves[solved].bounds, bounds[first.working_set])


def test_mutating_the_callers_posterior_in_place_misses_the_memo(lp_solves):
    web = make_web_app_domain()
    posterior = random_posterior_table(web, np.random.default_rng(7))
    first = build_alp(web, posterior)
    solve_alp(first)
    solved = len(lp_solves)
    posterior[0, 1, 2] += 0.25
    again = build_alp(web, posterior, previous=first)
    assert again is not first
    np.testing.assert_array_equal(again.rewards, build_alp(web, posterior).rewards)
    solve_alp(again)
    assert len(lp_solves) > solved


def test_a_writeable_posterior_is_neither_kept_nor_handed_back():
    # A table that can change under the problem is no key: it is not copied,
    # and handing the same object in again is a new belief.
    web = make_web_app_domain()
    posterior = random_posterior_table(web, np.random.default_rng(7))
    problem = build_alp(web, posterior)
    assert problem.posterior is None
    assert build_alp(web, posterior, previous=problem) is not problem
    # A read-only view of a writeable array can still change under it.
    view = posterior.view()
    view.flags.writeable = False
    assert build_alp(web, view).posterior is None


def test_the_estimators_unmoved_table_is_handed_back_without_a_comparison():
    web = make_web_app_domain()
    estimator = ThreatEstimator(web)
    estimator.update(1, 2, 3, phi=1)
    table = estimator.posterior_table()
    first = build_alp(web, table)
    assert first.posterior is table  # read-only and owning its data: kept, not copied
    estimator.update(0, 2, 3, phi=0)  # a power-of-two decay of a one-type cell
    assert estimator.posterior_table() is table
    assert build_alp(web, table, previous=first) is first
    # The same hand-back of a table that records every numpy call it takes
    # part in: any comparison of its values would be recorded.
    watched = recording(table)
    first = build_alp(web, watched)
    assert first.posterior is watched
    watched.calls.clear()
    assert build_alp(web, watched, previous=first) is first
    assert watched.calls == []


def test_kept_weights_policy_and_posterior_are_read_only():
    web = make_web_app_domain()
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
        domain = make_web_app_domain()
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
        w_warm = solve_alp(warm)
        warm_hits += warm.lp_solution.warm  # the carried set's basis held: no pivot, no new row
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


# ---------------------------------------------------------------------------
# constraint generation against the full program
# ---------------------------------------------------------------------------


def oracle_domain(name: str, seed: int = 0) -> DomainInfo:
    if name == "web":
        return make_web_app_domain()
    return make_network_domain(np.random.default_rng(seed), n_nodes=int(name[-1]))


def sparse_posterior_table(domain: DomainInfo, rng: np.random.Generator) -> np.ndarray:
    """A belief as a run holds it: a few credited (type, state, action) cells."""
    S = domain.n_configs
    counts = np.zeros((domain.n_types, S, S))
    for _ in range(8):
        cell = rng.integers(domain.n_types), rng.integers(S), rng.integers(S)
        counts[cell] += rng.uniform(0.1, 2.0)
    data = {**ThreatEstimator(domain).to_dict(), "counts": counts.tolist()}
    return ThreatEstimator.from_dict(domain, data).posterior_table()


@pytest.mark.parametrize("name", ["web", "net2", "net3", "net4", "net5"])
@pytest.mark.parametrize("state_basis", [False, True], ids=["factored", "state"])
def test_generated_solve_matches_the_full_program(name, state_basis):
    domain = oracle_domain(name)
    basis = (build_state_basis if state_basis else build_basis)(domain.space)
    rng = np.random.default_rng(19)
    posteriors = [cold_posterior_table(domain)]
    if not (state_basis and name == "net5"):  # that full program alone takes seconds
        posteriors += [sparse_posterior_table(domain, rng) for _ in range(3)]
    for posterior in posteriors:
        problem = build_alp(domain, posterior, basis=basis)
        full = solve_lp(problem.lp)
        weights = solve_alp(problem)
        assert full.status == problem.lp_solution.status == OPTIMAL
        np.testing.assert_allclose(problem.lp.c @ weights, full.objective_value, rtol=1e-7)
        assert np.max(problem.lp.rows @ weights - problem.lp.bounds) <= FEAS_TOL
        if state_basis:
            V_star, _ = policy_iteration(domain, posterior)
            np.testing.assert_allclose(value_estimates(problem, weights), V_star, atol=1e-6)


@pytest.mark.parametrize(
    "name, seed", [("web", 0)] + [(f"net{n}", seed) for n in (2, 3, 4) for seed in range(4)]
)
def test_generated_solve_keeps_the_full_programs_cold_policy(name, seed):
    # Only the cold belief: under other beliefs the program can have several
    # optimal vertices at one objective, whose greedy policies differ.
    domain = oracle_domain(name, seed)
    problem = build_alp(domain, cold_posterior_table(domain))
    full = solve_lp(problem.lp)
    np.testing.assert_array_equal(
        extract_policy(problem, solve_alp(problem)), extract_policy(problem, full.x)
    )


def test_generation_starts_on_the_stay_rows_and_adds_the_most_violated(lp_solves):
    domain = oracle_domain("net3")
    problem = build_alp(domain, cold_posterior_table(domain))
    weights = solve_alp(problem)
    full, e = problem.lp, domain.unit_exponent
    S = domain.n_configs
    # Replay the rounds: each solved program is the expected working set, in
    # the domain's unit 2^e, and the next adds the S rows outside it that its
    # solution violates most.
    bounds = np.ldexp(full.bounds, -e)
    expected = [s * S + s for s in range(S)]
    crowded = 0
    for program in lp_solves:
        np.testing.assert_array_equal(program.rows, full.rows[expected])
        np.testing.assert_array_equal(program.bounds, bounds[expected])
        violation = full.rows @ solve_lp(program).x - bounds
        outside = [i for i in range(full.n_rows) if i not in expected]
        violated = sorted((i for i in outside if violation[i] > FEAS_TOL),
                          key=lambda i: -violation[i])
        crowded += len(violated) > S
        expected = sorted(expected + violated[:S])
    assert not violated and crowded
    np.testing.assert_array_equal(problem.working_set, expected)
    assert problem.working_set.size < full.n_rows and not problem.working_set.flags.writeable
    np.testing.assert_array_equal(weights, np.ldexp(problem.lp_solution.x, e))


def test_an_unbounded_round_raises(lp_solves):
    # min -x with x <= 0 only in row 1: the one stay row (row 0) leaves x
    # unbounded.  No program build_alp assembles has such a round, since
    # its stay rows bound the objective.
    web = make_web_app_domain()
    program = LPProblem(c=np.array([-1.0]), rows=np.array([[0.0], [1.0]]), bounds=np.zeros(2))
    problem = ALProblem(web, build_basis(web.space), program, np.zeros((4, 4)))
    with pytest.raises(RuntimeError, match=r"unbounded .*\(1 of 2 rows, 1 basis functions\)"):
        solve_alp(problem)
    assert [p.n_rows for p in lp_solves] == [1]
    assert problem.weights is None and problem.working_set is None


@pytest.mark.parametrize("seed", range(4))
def test_a_cold_four_node_plan_restarts_every_round_after_the_first(monkeypatch, seed):
    # A deterministic guard on the cost of a cold plan: only the first round
    # runs two-phase (16 pivots), and each later round restarts from the last
    # optimal basis with a few dual pivots.  Solved cold, the later rounds
    # took 44-65 pivots each and the plan 122-130.
    rounds = []  # per solve_lp call: [program, widths of the tableaux pivoted, solution]
    solve, run = alp_module.solve_lp, lp_module._run_simplex

    def recorded(problem, start=None, kept=None):
        rounds.append([problem, []])
        rounds[-1].append(solve(problem, start=start, kept=kept))
        return rounds[-1][2]

    def widths(tab, basis, max_iter):
        rounds[-1][1].append(tab.shape[1])
        return run(tab, basis, max_iter)

    monkeypatch.setattr(alp_module, "solve_lp", recorded)
    monkeypatch.setattr(lp_module, "_run_simplex", widths)
    domain = oracle_domain("net4", seed)
    solve_alp(build_alp(domain, cold_posterior_table(domain)))
    assert len(rounds) == 3 and sum(sol.pivots for _, _, sol in rounds) == 29
    assert rounds[0][2].pivots == 16
    for program, seen, sol in rounds[1:]:
        # No phase 1: no tableau wider than the structural and slack columns plus the rhs.
        assert sol.status == OPTIMAL and seen
        assert max(seen) == 2 * program.n_vars + program.n_rows + 1
