"""Stress cases at the numeric edges: rewards from 1e3 to 1e300, steep discounts, 2-5 nodes.

One generator, seeded with ``SEED``, draws every case: M log-uniform over
10^3..10^300, switching costs kept or scaled with M, gamma in
{0.5, 0.9, 0.99, 0.999}, the web domain or a 2-5-node network, and the cold
belief or a random one.  Each case writes its domain to a file and resolves
it as a run does, so the domain's value-range check applies, then plans;
every case must plan, and a ``DomainError`` or ``NumericalError`` fails it.
A plan's weights satisfy every row of the full ALP within the planner's own
guarantee, ``FEAS_TOL`` in its unit 2^e; on web, the state basis picks
``policy_iteration``'s policy; and a rerun gives the same bytes.  Small
rewards (M of 1e-3 and 1e-9, where the ALP's few negative bounds are tiny
beside its positive ones) must plan the same way.

Optimal policies do not change when every reward is multiplied by a positive
constant (Puterman 1994, section 6.1), and the planner solves in a
power-of-two unit, which rounds nothing.  So each case also plans a copy
with M, every loss and every switching cost scaled by 2^j, j drawn from
-1000..1000 by a second generator (``SCALE_SEED``) and lowered where the
values would pass float range.  Its weights must be 2^j times the case's,
bitwise, and its policies the same.  The smallest drawn input, M 1e-9 at
j -990, stays a normal float.  The metamorphic test below runs the same
relation over a fixed list of j on every built-in domain size.

Near gamma = 1 the values grow like 1 / (1 - gamma) while the gaps between
actions do not, so each of a recorded list of seeds draws one more case with
gamma up to 1 - 1e-8, where a ``DomainError`` or ``NumericalError`` is an
answer; a case that plans must lose nothing to its greedy policy's tie band
against the strict argmax of the same scores.
"""
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mtdsim.alp import (
    build_alp, build_state_basis, exact_value, extract_policy, policy_iteration, solve_alp
)
from mtdsim.domain import DomainError, save_domain
from mtdsim.environments import Scenario, ScenarioPhase, make_network_domain, make_web_app_domain
from mtdsim.harness import cold_posterior_table, random_posterior_table, resolve_domain
from mtdsim.lp import FEAS_TOL, NumericalError

SEED = 29
SCALE_SEED = 31
N_CASES = 200


def _draw_cases() -> list[dict]:
    rng = np.random.default_rng(SEED)
    return [
        {
            "nodes": int(rng.integers(1, 6)),  # 1 stands for the web domain
            "M": float(10.0 ** rng.uniform(3.0, 300.0)),
            "scale_sc": bool(rng.integers(2)),
            "gamma": float(rng.choice([0.5, 0.9, 0.99, 0.999])),
            "belief": int(rng.integers(-1, 2**31)),  # -1: the cold belief, else its seed
        }
        for _ in range(N_CASES)
    ]


CASES = _draw_cases()


def _scaled(domain, j: int):
    """The domain with M, every loss and every switching cost scaled by 2^j."""
    types = tuple(replace(t, loss=np.ldexp(t.loss, j)) for t in domain.types)
    return replace(domain, types=types, M=float(np.ldexp(domain.M, j)), sc=np.ldexp(domain.sc, j))


def _resolve(case: dict, path: str, j: int = 0):
    """The case's domain, with M, every loss and every switching cost scaled by
    2^j, written to ``path`` and resolved as a run does, and its belief."""
    if case["nodes"] == 1:
        base = make_web_app_domain()
    else:
        base = make_network_domain(np.random.default_rng(0), n_nodes=case["nodes"])
    save_domain(_scaled(replace(base, M=case["M"], gamma=case["gamma"]), j), path)
    alpha = case["M"] / base.M if case["scale_sc"] else 1.0
    scenario = Scenario("stress", 1, (ScenarioPhase(0, 1, dist={"unknown": 1.0}),))
    domain = resolve_domain(path, scenario, alpha, seed=0)
    if case["belief"] < 0:
        return domain, cold_posterior_table(domain)
    return domain, random_posterior_table(domain, np.random.default_rng(case["belief"]))


def _plan(case: dict, path: str, j: int = 0):
    """Resolve the case (``_resolve``) and plan: the domain, the weights and the policies."""
    domain, posterior = _resolve(case, path, j)
    alp = build_alp(domain, posterior)
    weights = solve_alp(alp)
    slack = np.ldexp(FEAS_TOL, domain.unit_exponent)  # FEAS_TOL in the planner's unit
    assert (alp.lp.rows @ weights <= alp.lp.bounds + slack).all(), "a row of the full ALP is violated"
    plan = [weights, extract_policy(alp, weights)]
    if case["nodes"] == 1:
        exact = build_alp(domain, posterior, build_state_basis(domain.space))
        policy = extract_policy(exact, solve_alp(exact))
        np.testing.assert_array_equal(policy, policy_iteration(domain, posterior)[1])
        plan.append(policy)
    return domain, plan


SMALL_CASES = [
    {"nodes": nodes, "M": M, "scale_sc": False, "gamma": gamma, "belief": belief}
    for M in (1e-3, 1e-9)
    for nodes in range(1, 6)
    for gamma in (0.5, 0.99)
    for belief in (-1, 7)
]


IDS = [f"case{i}" for i in range(N_CASES)] + [f"small{i}" for i in range(len(SMALL_CASES))]
# A second generator draws each case's power of two, so the cases above are
# drawn as they were before it.
SCALES = np.random.default_rng(SCALE_SEED).integers(-1000, 1001, size=len(IDS)).tolist()


@pytest.mark.parametrize("case, j", list(zip(CASES + SMALL_CASES, SCALES)), ids=IDS)
def test_a_case_plans_and_reruns_byte_identically(case, j, tmp_path):
    domain, first = _plan(case, str(tmp_path / "first.json"))
    _, rerun = _plan(case, str(tmp_path / "rerun.json"))
    assert [a.tobytes() for a in rerun] == [a.tobytes() for a in first]
    # Values stay below 2^(e + top): keep them finite at 2^j times that.
    top = math.ceil(-math.log2(1.0 - domain.gamma))
    j = min(j, 1020 - domain.unit_exponent - top)
    _, (weights, *policies) = _plan(case, str(tmp_path / "scaled.json"), j)
    assert weights.tobytes() == np.ldexp(first[0], j).tobytes()
    assert [p.tobytes() for p in policies] == [p.tobytes() for p in first[1:]]


J = (-1000, -600, -200, -40, -30, -10, 10, 30, 200, 600, 1000)


def _plan_and_optimum(domain, posterior):
    alp = build_alp(domain, posterior)
    weights = solve_alp(alp)
    return weights, extract_policy(alp, weights), policy_iteration(domain, posterior)[1]


@pytest.mark.parametrize("belief", [None, 5], ids=["cold", "random"])
@pytest.mark.parametrize("nodes", range(1, 7), ids=["web", *(f"net{n}" for n in range(2, 7))])
def test_a_power_of_two_change_of_reward_unit_scales_the_weights_and_keeps_the_policies(
    nodes, belief
):
    # Before the planner solved in its unit, 63 of these 132 cases differed:
    # at 2^-40 and below every domain changed its policies.
    if nodes == 1:
        domain = make_web_app_domain()
    else:
        domain = make_network_domain(np.random.default_rng(0), n_nodes=nodes)
    if belief is None:
        posterior = cold_posterior_table(domain)
    else:
        posterior = random_posterior_table(domain, np.random.default_rng(belief))
    weights, policy, optimum = _plan_and_optimum(domain, posterior)
    for j in J:
        scaled_weights, *policies = _plan_and_optimum(_scaled(domain, j), posterior)
        assert scaled_weights.tobytes() == np.ldexp(weights, j).tobytes(), j
        np.testing.assert_array_equal(policies[0], policy, err_msg=f"ALP at 2^{j}")
        np.testing.assert_array_equal(policies[1], optimum, err_msg=f"policy iteration at 2^{j}")


# Discounts up to 1 - 1e-8, where values reach 1e8 times the rewards: each
# recorded seed draws one case as above, with gamma = 1 - 10^-u for u drawn
# from 3..8.
NEAR_ONE_SEEDS = list(range(100, 300))


def _near_one_case(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "nodes": int(rng.integers(1, 6)),
        "M": float(10.0 ** rng.uniform(0.0, 300.0)),
        "scale_sc": bool(rng.integers(2)),
        "gamma": 1.0 - 10.0 ** -float(rng.integers(3, 9)),
        "belief": int(rng.integers(-1, 2**31)),
    }


def test_a_plan_near_gamma_one_loses_nothing_to_its_tie_band(tmp_path):
    # A case whose values pass float range raises DomainError, and one the
    # simplex cannot tell raises NumericalError; both are answers.  A case
    # that plans must score its greedy policy, exactly, no worse than the
    # strict argmax of its own scores, within 1e-6 of max |V|.
    outcomes = Counter()
    for seed in NEAR_ONE_SEEDS:
        case = _near_one_case(seed)
        try:
            domain, posterior = _resolve(case, str(tmp_path / f"{seed}.json"))
            alp = build_alp(domain, posterior)
            weights = solve_alp(alp)
        except (DomainError, NumericalError) as err:
            outcomes[type(err).__name__] += 1
            continue
        scores = alp.rewards + domain.gamma * (alp.basis.activations @ weights)
        greedy = exact_value(domain, extract_policy(alp, weights), posterior)
        strict = exact_value(domain, scores.argmax(axis=1), posterior)
        assert (greedy >= strict - 1e-6 * np.abs(strict).max()).all(), (seed, case)
        outcomes["planned"] += 1
    print(dict(outcomes))
    assert outcomes["planned"] >= len(NEAR_ONE_SEEDS) // 2, outcomes
