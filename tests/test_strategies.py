"""Tests for the defender strategies and their dispatch layer.

Bandit baselines are checked against hand-stepped updates and seeded
Monte-Carlo frequencies; the adaptive planner is checked for determinism,
argument validation, its cold-start behaviour, and against a reference loop
that re-plans at every scheduled step (``oracles.reference_ata_fmdp_run``).
"""

import numpy as np
import pytest

from mtdsim import alp
from mtdsim.domain import DomainError
from mtdsim.environments import (
    MTDEnvironment,
    Scenario,
    ScenarioPhase,
    builtin_scenario,
    make_web_app_domain,
)
from mtdsim.harness import ExperimentConfig, resolve_run
from mtdsim.strategies import (
    DEFAULT_EPSILON,
    DEFAULT_FPL_EXPLORE,
    DEFAULT_FPL_LMAX,
    DEFAULT_FPL_RATE,
    STRATEGY_NAMES,
    EpsGreedyStrategy,
    FplMtdStrategy,
    ata_fmdp_run,
    run_strategy,
    urs_select,
)
from oracles import reference_ata_fmdp_run


def unknown_only_scenario(horizon: int) -> Scenario:
    return Scenario(
        "unknown-only", horizon, (ScenarioPhase(0, horizon, dist={"unknown": 1.0}),)
    )


def mean_reward(records) -> float:
    return float(np.mean([r.reward for r in records]))


# ---------------------------------------------------------------------------
# epsilon-greedy
# ---------------------------------------------------------------------------


def test_eps_greedy_exploits_the_best_running_mean():
    web = make_web_app_domain()
    strat = EpsGreedyStrategy(web, epsilon=0.0)
    strat.means = np.array([10.0, 20.0, 5.0, 5.0])
    assert strat.select(np.random.default_rng(0)) == 1


def test_eps_greedy_breaks_ties_to_the_lowest_index():
    web = make_web_app_domain()
    strat = EpsGreedyStrategy(web, epsilon=0.0)
    assert strat.select(np.random.default_rng(0)) == 0  # unplayed actions all at 0


def test_eps_greedy_update_is_an_incremental_mean():
    web = make_web_app_domain()
    strat = EpsGreedyStrategy(web)
    for _ in range(4):
        strat.update(2, 10.0)
    strat.update(2, 20.0)
    assert strat.means[2] == pytest.approx(12.0)
    assert strat.pulls[2] == 5
    assert strat.means[0] == 0.0 and strat.pulls[0] == 0


def test_eps_greedy_epsilon_validation():
    web = make_web_app_domain()
    with pytest.raises(DomainError):
        EpsGreedyStrategy(web, epsilon=-0.1)
    with pytest.raises(DomainError):
        EpsGreedyStrategy(web, epsilon=1.1)
    assert DEFAULT_EPSILON == 0.2


def test_eps_greedy_full_exploration_is_uniform():
    web = make_web_app_domain()
    strat = EpsGreedyStrategy(web, epsilon=1.0)
    strat.means = np.array([0.0, 1e9, 0.0, 0.0])  # the greedy pick is never taken
    rng = np.random.default_rng(10)
    draws = np.array([strat.select(rng) for _ in range(10_000)])
    freqs = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(freqs, np.full(4, 0.25), atol=0.02)


# ---------------------------------------------------------------------------
# follow-the-perturbed-leader
# ---------------------------------------------------------------------------


def test_fpl_vanishing_perturbations_follow_the_plain_leader():
    web = make_web_app_domain()
    strat = FplMtdStrategy(web, explore_prob=0.0, perturb_rate=1e12)
    rng = np.random.default_rng(0)
    assert strat.select(rng) == 0  # all-zero cumulative: tie resolves to index 0
    strat.cumulative = np.array([0.0, 3.0, 7.0, 1.0])
    assert all(strat.select(rng) == 2 for _ in range(10))


def test_fpl_resample_count_is_at_least_one_and_credits_the_update():
    web = make_web_app_domain()
    strat = FplMtdStrategy(web, explore_prob=0.0, perturb_rate=1e12)
    strat.cumulative = np.array([1.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(1)
    # A strict leader survives the vanishing noise on the first redraw.
    assert strat.resample_count(0, rng) == 1
    strat.update(0, 5.0, rng)
    np.testing.assert_allclose(strat.cumulative, [6.0, 0.0, 0.0, 0.0])


def test_fpl_resample_count_caps_when_the_action_cannot_lead():
    web = make_web_app_domain()
    strat = FplMtdStrategy(web, explore_prob=0.0, perturb_rate=DEFAULT_FPL_RATE, l_max=57)
    strat.cumulative = np.array([0.0, 1e9, 0.0, 0.0])
    rng = np.random.default_rng(2)
    assert strat.resample_count(0, rng) == 57
    strat.update(0, 2.0, rng)
    assert strat.cumulative[0] == pytest.approx(2.0 * 57)
    assert DEFAULT_FPL_LMAX == 1000


def test_fpl_constructor_validation():
    web = make_web_app_domain()
    with pytest.raises(DomainError):
        FplMtdStrategy(web, explore_prob=-0.01)
    with pytest.raises(DomainError):
        FplMtdStrategy(web, explore_prob=1.01)
    with pytest.raises(DomainError):
        FplMtdStrategy(web, perturb_rate=0.0)
    for rate in (np.inf, np.nan):
        with pytest.raises(DomainError):
            FplMtdStrategy(web, perturb_rate=rate)
    with pytest.raises(DomainError):
        FplMtdStrategy(web, perturb_rate=float("nan"))
    with pytest.raises(DomainError):
        FplMtdStrategy(web, l_max=0)
    assert DEFAULT_FPL_EXPLORE == 0.007


def test_fpl_exploration_rate_controls_off_leader_picks():
    web = make_web_app_domain()
    strat = FplMtdStrategy(web, explore_prob=0.5, perturb_rate=1e12)
    strat.cumulative = np.array([0.0, 1e9, 0.0, 0.0])
    rng = np.random.default_rng(3)
    draws = np.array([strat.select(rng) for _ in range(10_000)])
    # Exploration picks uniformly (1/8 each for the non-leaders), the rest
    # goes to the leader.
    freqs = np.bincount(draws, minlength=4) / draws.size
    assert freqs[1] == pytest.approx(0.5 + 0.125, abs=0.02)
    np.testing.assert_allclose(freqs[[0, 2, 3]], 0.125, atol=0.02)


# ---------------------------------------------------------------------------
# uniform random switching and statics
# ---------------------------------------------------------------------------


def test_urs_is_uniform_over_actions():
    rng = np.random.default_rng(10)
    draws = np.array([urs_select(4, rng) for _ in range(10_000)])
    freqs = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(freqs, np.full(4, 0.25), atol=0.02)
    assert urs_select(1, rng) == 0


def test_full_exploration_matches_urs_in_distribution():
    web = make_web_app_domain()
    scen = unknown_only_scenario(8_000)
    env_e = MTDEnvironment(web, scen)
    env_u = MTDEnvironment(web, scen)
    eps_records = run_strategy("eps-greedy", web, env_e, 8_000, np.random.default_rng(5),
                               epsilon=1.0)
    urs_records = run_strategy("urs", web, env_u, 8_000, np.random.default_rng(6))
    def action_freqs(records):
        idx = [web.space.index_of_label(r.action) for r in records]
        return np.bincount(idx, minlength=4) / len(idx)
    np.testing.assert_allclose(action_freqs(eps_records), action_freqs(urs_records), atol=0.03)


# ---------------------------------------------------------------------------
# adaptive planner
# ---------------------------------------------------------------------------


def test_ata_rejects_nonpositive_reopt_periods():
    web = make_web_app_domain()
    env = MTDEnvironment(web, unknown_only_scenario(10))
    with pytest.raises(DomainError):
        ata_fmdp_run(web, env, 10, np.random.default_rng(0), reopt_period=0)
    with pytest.raises(DomainError):
        ata_fmdp_run(web, env, 10, np.random.default_rng(0), reopt_period=-3)


def test_ata_cold_start_routes_to_the_resistant_config():
    # With no observations the belief is uniform everywhere, under which
    # Python|Postgres (immune to the unknown type) is the planner's sink.
    # The cheapest way there from PHP|MySQL is via Python|MySQL (20 + 50
    # beats the direct 100 switch).
    web = make_web_app_domain(alpha=1.0)
    env = MTDEnvironment(web, unknown_only_scenario(6))
    records = ata_fmdp_run(web, env, 6, np.random.default_rng(0), reopt_period=None)
    assert [r.action for r in records] == ["Python|MySQL"] + ["Python|Postgres"] * 5
    # Once parked, the unknown attacker cannot touch it.
    assert all(r.phi == 0 for r in records[1:])
    assert records[1].reward == 150.0  # pays sc(Python|MySQL -> Python|Postgres)
    assert all(r.reward == 200.0 for r in records[2:])


def digest_lines(records) -> list[str]:
    """Step records as the lines ``bench/workloads.py::digest`` hashes (iteration 0)."""
    return [
        f"0,{r.t},{r.state},{r.action},{r.attacker_type},{r.phi},{float(r.reward)!r}"
        for r in records
    ]


@pytest.mark.parametrize("reopt_period", [1, 3])
@pytest.mark.parametrize("beta", [1.0, 1.2, 2.0, 4.0])
@pytest.mark.parametrize("domain,scenario", [
    ("web", "web-evolving"),
    ("web", "web-dh-postgres"),
    ("network", "net-evolving"),
])
def test_skipping_unmoved_beliefs_matches_replanning_every_step(
    monkeypatch, domain, scenario, beta, reopt_period
):
    run = resolve_run(ExperimentConfig(domain=domain, scenario=scenario))
    solves = []
    solve_lp = alp.solve_lp

    def counted_solve_lp(*args, **kwargs):
        solves.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(alp, "solve_lp", counted_solve_lp)

    def play(fn):
        env = MTDEnvironment(run.domain, run.scenario, run.start_state)
        return digest_lines(fn(run.domain, env, run.timesteps, np.random.default_rng(10),
                               reopt_period=reopt_period, beta=beta))

    assert play(ata_fmdp_run) == play(reference_ata_fmdp_run)
    # The skip ran: fewer real solves than scheduled re-plans.
    assert len(solves) < -(-run.timesteps // reopt_period)


@pytest.mark.parametrize("name,kwargs", [
    ("ata-fmdp", {"reopt_period": 5}),
    ("fpl", {}),
    ("eps-greedy", {}),
    ("urs", {}),
])
def test_strategies_are_deterministic_given_the_seed(name, kwargs):
    web = make_web_app_domain(alpha=1.0)
    scen = builtin_scenario("web-evolving")
    runs = []
    for _ in range(2):
        env = MTDEnvironment(web, scen)
        runs.append(run_strategy(name, web, env, 60, np.random.default_rng(77), **kwargs))
    assert runs[0] == runs[1]


def test_dispatcher_handles_static_labels_and_rejects_unknown_names():
    web = make_web_app_domain(alpha=1.0)
    env = MTDEnvironment(web, unknown_only_scenario(5))
    records = run_strategy("static:Python|Postgres", web, env, 5, np.random.default_rng(0))
    assert all(r.action == "Python|Postgres" for r in records)
    with pytest.raises(DomainError):
        run_strategy("static:Ruby|MySQL", web, env, 5, np.random.default_rng(0))
    with pytest.raises(DomainError):
        run_strategy("softmax", web, env, 5, np.random.default_rng(0))
    assert STRATEGY_NAMES == ("ata-fmdp", "fpl", "eps-greedy", "urs")


@pytest.mark.xfail(
    strict=True,
    reason="on the evolving web scenario the one-shot plan already reaches the "
    "sink that per-step re-planning converges to, so the strict improvement "
    "does not materialise (see the repository decision notes)",
)
def test_replanning_every_step_beats_planning_once_on_the_evolving_web():
    web = make_web_app_domain(alpha=1.0)
    scen = builtin_scenario("web-evolving")
    means = {}
    for period in (1, None):
        rewards = []
        for i in range(10):
            env = MTDEnvironment(web, scen)
            records = ata_fmdp_run(
                web, env, scen.horizon, np.random.default_rng(10 + i), reopt_period=period
            )
            rewards.append(mean_reward(records))
        means[period] = float(np.mean(rewards))
    assert means[1] > means[None]
