"""Stress cases at the numeric edges: rewards from 1e3 to 1e300, steep discounts, 2-5 nodes.

One generator, seeded with ``SEED``, draws every case: M log-uniform over
10^3..10^300, switching costs kept or scaled with M, gamma in
{0.5, 0.9, 0.99, 0.999}, the web domain or a 2-5-node network, and the cold
belief or a random one.  Each case writes its domain to a file and resolves
it as a run does, so the harness's reward-scale check applies, then plans.
That check never fires here: the largest max(|M|, |M - max damage - max sc|)
/ (1 - gamma) drawn is about 1.6e301, so every case must plan, and a
``DomainError`` or ``NumericalError`` fails it.  A plan's weights satisfy
every row of the full ALP within ``FEAS_TOL`` of the largest bound; on web,
the state basis picks ``policy_iteration``'s policy; and a rerun gives the
same bytes.  Small rewards (M of 1e-3 and 1e-9, where the ALP's few
negative bounds are tiny beside its positive ones) must plan the same way.
"""

from dataclasses import replace

import numpy as np
import pytest

from mtdsim.alp import build_alp, build_state_basis, extract_policy, policy_iteration, solve_alp
from mtdsim.domain import save_domain
from mtdsim.environments import Scenario, ScenarioPhase, make_network_domain, make_web_app_domain
from mtdsim.harness import cold_posterior_table, random_posterior_table, resolve_domain
from mtdsim.lp import FEAS_TOL

SEED = 29
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


def _plan(case: dict, path: str):
    """Resolve the case's domain from ``path`` and plan; the plan's bytes."""
    if case["nodes"] == 1:
        base = make_web_app_domain()
    else:
        base = make_network_domain(np.random.default_rng(0), n_nodes=case["nodes"])
    save_domain(replace(base, M=case["M"], gamma=case["gamma"]), path)
    alpha = case["M"] / base.M if case["scale_sc"] else 1.0
    scenario = Scenario("stress", 1, (ScenarioPhase(0, 1, dist={"unknown": 1.0}),))
    domain = resolve_domain(path, scenario, alpha, seed=0)
    if case["belief"] < 0:
        posterior = cold_posterior_table(domain)
    else:
        posterior = random_posterior_table(domain, np.random.default_rng(case["belief"]))
    alp = build_alp(domain, posterior)
    weights = solve_alp(alp)
    bounds = alp.lp.bounds
    slack = FEAS_TOL * (1.0 + np.abs(bounds).max())
    assert (alp.lp.rows @ weights <= bounds + slack).all(), "a row of the full ALP is violated"
    plan = [weights.tobytes(), extract_policy(alp, weights).tobytes()]
    if case["nodes"] == 1:
        exact = build_alp(domain, posterior, build_state_basis(domain.space))
        policy = extract_policy(exact, solve_alp(exact))
        np.testing.assert_array_equal(policy, policy_iteration(domain, posterior)[1])
        plan.append(policy.tobytes())
    return plan


SMALL_CASES = [
    {"nodes": nodes, "M": M, "scale_sc": False, "gamma": gamma, "belief": belief}
    for M in (1e-3, 1e-9)
    for nodes in range(1, 6)
    for gamma in (0.5, 0.99)
    for belief in (-1, 7)
]


IDS = [f"case{i}" for i in range(N_CASES)] + [f"small{i}" for i in range(len(SMALL_CASES))]


@pytest.mark.parametrize("case", CASES + SMALL_CASES, ids=IDS)
def test_a_case_plans_and_reruns_byte_identically(case, tmp_path):
    first = _plan(case, str(tmp_path / "first.json"))
    assert _plan(case, str(tmp_path / "rerun.json")) == first
