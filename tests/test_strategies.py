"""Tests for the defender strategies and their dispatch layer.

Bandit baselines are checked against hand-stepped updates and seeded
Monte-Carlo frequencies; the adaptive planner is checked for determinism,
argument validation, its cold-start behaviour, and against a reference loop
that re-plans at every scheduled step (``oracles.reference_ata_fmdp_run``).
"""

import tracemalloc

import numpy as np
import pytest

from mtdsim import alp, strategies
from mtdsim.domain import DomainError
from mtdsim.environments import (
    MOST_ADVERSE,
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
    RESAMPLE_CHUNK,
    STRATEGY_NAMES,
    EpsGreedyStrategy,
    FplMtdStrategy,
    ata_fmdp_run,
    run_static,
    run_strategy,
    urs_select,
)
from oracles import (
    reference_ata_fmdp_run,
    reference_eps_select,
    reference_eps_update,
    reference_fpl_resample_count,
    reference_fpl_select,
)


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


def test_fpl_matches_the_reference_bitwise():
    rng = np.random.default_rng(31)
    seen: set[str] = set()
    for case in range(60):
        n = int(rng.integers(2, 7))
        l_max = int(rng.choice([1, RESAMPLE_CHUNK - 1, RESAMPLE_CHUNK, 57, 100, DEFAULT_FPL_LMAX]))
        explore, rate = float(rng.choice([0.0, 0.3, 1.0])), float(rng.uniform(0.02, 2.0))
        cumulative = rng.normal(scale=float(rng.choice([1.0, 30.0, 1e3])), size=n)
        if case % 3 == 0:  # tied leaders that no perturbation can part
            cumulative[rng.permutation(n)[:2]] = 1e20
            seen.add("tied leaders")
        # The probe trails by a few perturbation scales, so it rarely leads.
        trailing = case % 3 == 1
        if trailing:
            cumulative = rng.normal(scale=0.1 / rate, size=n)
            cumulative[0] -= float(rng.uniform(3.0, 6.0)) / rate
        strat, ref = (FplMtdStrategy(make_web_app_domain(), explore, rate, l_max) for _ in "ab")
        strat.cumulative, ref.cumulative = cumulative.copy(), cumulative.copy()
        seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(8):
            action = strat.select(got_rng)
            assert action == reference_fpl_select(ref, want_rng) and type(action) is int
            probe = 0 if trailing else int(rng.integers(n))
            k = strat.resample_count(probe, got_rng)
            assert k == reference_fpl_resample_count(ref, probe, want_rng)
            assert type(k) is int
            seen.add("cap hit" if k == l_max else "hit")
            if l_max % RESAMPLE_CHUNK and k > l_max - l_max % RESAMPLE_CHUNK:
                seen.add("hit in a short last block")
            if RESAMPLE_CHUNK < k and -(-k // RESAMPLE_CHUNK) * RESAMPLE_CHUNK < l_max:
                seen.add("hit after the first chunk")  # its block is rewound and redrawn
            reward = float(rng.normal(scale=50.0))
            strat.update(action, reward, got_rng)
            ref.cumulative[action] += reward * reference_fpl_resample_count(ref, action, want_rng)
            assert strat.cumulative.tobytes() == ref.cumulative.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert seen == {
        "tied leaders", "cap hit", "hit", "hit in a short last block", "hit after the first chunk"
    }


class ExponentialCounter:
    """Forwards ``exponential`` and ``bit_generator`` to a generator, counting the draws."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.exponential_calls = rng, 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def exponential(self, *args):
        self.exponential_calls += 1
        return self.rng.exponential(*args)


def capped_fpl(l_max: int) -> FplMtdStrategy:
    """FPL on web whose configuration 0 never leads, so resampling for it runs to the cap."""
    strat = FplMtdStrategy(make_web_app_domain(), l_max=l_max)
    strat.cumulative = np.array([-1e6, 0.0, 0.0, 0.0])  # 10^5 perturbation scales
    return strat


def test_a_capped_fpl_update_draws_the_first_chunk_then_one_block():
    # The chunk-by-chunk loop made 32 calls here; their doubles are the block's.
    rng = ExponentialCounter(np.random.default_rng(3))
    strat = capped_fpl(DEFAULT_FPL_LMAX)
    strat.update(0, 1.0, rng)
    assert rng.exponential_calls == 2
    want = np.random.default_rng(3)
    assert reference_fpl_resample_count(capped_fpl(DEFAULT_FPL_LMAX), 0, want) == DEFAULT_FPL_LMAX
    assert rng.bit_generator.state == want.bit_generator.state
    assert strat.cumulative[0] == -1e6 + DEFAULT_FPL_LMAX


def test_a_capped_fpl_update_draws_in_bounded_blocks():
    rng = np.random.default_rng(4)
    strat = capped_fpl(10**6)
    tracemalloc.start()
    try:
        assert strat.resample_count(0, rng) == 10**6
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_eps_greedy_matches_the_reference_bitwise():
    rng = np.random.default_rng(32)
    for case in range(60):
        n = int(rng.integers(2, 7))
        epsilon = float(rng.choice([0.0, 0.2, 1.0]))
        strat, ref = (EpsGreedyStrategy(make_web_app_domain(), epsilon) for _ in "ab")
        means = rng.normal(scale=100.0, size=n)
        if case % 3 == 0:  # tied best means go to the lowest index
            means[rng.permutation(n)[:2]] = means.max() + 1.0
        pulls = rng.integers(0, 1000, size=n)
        strat.means, ref.means = means.copy(), means.copy()
        strat.pulls, ref.pulls = pulls.copy(), pulls.copy()
        seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(8):
            action = strat.select(got_rng)
            assert action == reference_eps_select(ref, want_rng) and type(action) is int
            reward = float(rng.normal(loc=150.0, scale=60.0))
            strat.update(action, reward)
            reference_eps_update(ref, action, reward)
            assert strat.means.tobytes() == ref.means.tobytes()
            np.testing.assert_array_equal(strat.pulls, ref.pulls)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


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
    for l_max in (0, 2.5, 1.0, True):
        with pytest.raises(DomainError):
            FplMtdStrategy(web, l_max=l_max)
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


def test_ata_rejects_reopt_periods_that_are_not_positive_integers():
    web = make_web_app_domain()
    env = MTDEnvironment(web, unknown_only_scenario(10))
    for reopt_period in (0, -3, 2.5, 1.0, True):
        with pytest.raises(DomainError):
            ata_fmdp_run(web, env, 10, np.random.default_rng(0), reopt_period=reopt_period)


def test_ata_cold_start_routes_to_the_resistant_config():
    # With no observations the belief is uniform everywhere, under which
    # Python|Postgres (immune to the unknown type) is the planner's sink.
    # The cheapest way there from PHP|MySQL is via Python|MySQL (20 + 50
    # beats the direct 100 switch).
    web = make_web_app_domain()
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


# Every phase kind: the static mixes of the first three, and the most
# adverse attacker of the last two, which re-plan at every step.
@pytest.mark.parametrize("domain,scenario,beta,reopt_period", [
    *(
        (domain, scenario, beta, reopt_period)
        for domain, scenario in [
            ("web", "web-evolving"), ("web", "web-dh-postgres"), ("network", "net-evolving")
        ]
        for beta in [1.0, 1.2, 2.0, 4.0]
        for reopt_period in [1, 3]
    ),
    *(
        (domain, scenario, beta, 1)
        for domain, scenario in [("web", "web-most-adverse"), ("network", "net-most-adverse")]
        for beta in [1.2, 2.0]
    ),
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


@pytest.mark.parametrize("scenario,beta", [("web-evolving", 2.0), ("web-dh-postgres", 1.2)])
def test_build_alp_hands_back_exactly_when_the_estimator_does(monkeypatch, scenario, beta):
    # Over a whole run: the previous problem comes back exactly on the
    # re-plans that get the previous table object, and the estimator hands
    # out a new object exactly when the bytes of its table change.
    run = resolve_run(ExperimentConfig(domain="web", scenario=scenario))
    replans = []  # (table, previous problem, problem); holding them keeps every id unique
    build_alp = strategies.build_alp

    def recorded(domain, table, previous=None):
        problem = build_alp(domain, table, previous=previous)
        replans.append((table, previous, problem))
        return problem

    monkeypatch.setattr(strategies, "build_alp", recorded)
    env = MTDEnvironment(run.domain, run.scenario, run.start_state)
    ata_fmdp_run(run.domain, env, run.timesteps, np.random.default_rng(10), beta=beta)
    assert len(replans) == run.timesteps
    kept = 0
    for (last, _, _), (table, previous, problem) in zip(replans, replans[1:]):
        assert (problem is previous) == (table is last)
        assert (table is last) == (table.tobytes() == last.tobytes())
        kept += table is last
    assert 0 < kept < run.timesteps - 1


@pytest.mark.parametrize("name,kwargs", [
    ("ata-fmdp", {"reopt_period": 5}),
    ("fpl", {}),
    ("eps-greedy", {}),
    ("urs", {}),
])
def test_strategies_are_deterministic_given_the_seed(name, kwargs):
    web = make_web_app_domain()
    scen = builtin_scenario("web-evolving")
    runs = []
    for _ in range(2):
        env = MTDEnvironment(web, scen)
        runs.append(run_strategy(name, web, env, 60, np.random.default_rng(77), **kwargs))
    assert runs[0] == runs[1]


def test_dispatcher_handles_static_labels_and_rejects_unknown_names():
    web = make_web_app_domain()
    env = MTDEnvironment(web, unknown_only_scenario(5))
    records = run_strategy("static:Python|Postgres", web, env, 5, np.random.default_rng(0))
    assert all(r.action == "Python|Postgres" for r in records)
    with pytest.raises(DomainError):
        run_strategy("static:Ruby|MySQL", web, env, 5, np.random.default_rng(0))
    with pytest.raises(DomainError):
        run_strategy("softmax", web, env, 5, np.random.default_rng(0))
    assert STRATEGY_NAMES == ("ata-fmdp", "fpl", "eps-greedy", "urs")


class CountingGenerator:
    """A generator that records the size of each ``random`` call; it offers nothing else."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.sizes: list = []

    def random(self, size=None):
        self.sizes.append(size)
        return self._rng.random(size)


def mixed_scenario(horizon: int) -> Scenario:
    """A static phase (two uniforms a step), then a most-adverse one (one a step)."""
    return Scenario("mixed", horizon, (
        ScenarioPhase(0, 4, dist={"mainstream-hacker": 0.5, "unknown": 0.5}),
        ScenarioPhase(4, horizon, MOST_ADVERSE),
    ))


PRE_DRAWN_RUNS = [
    lambda web, env, T, rng: run_static(web, env, T, rng, 2),
    lambda web, env, T, rng: ata_fmdp_run(web, env, T, rng),
]


@pytest.mark.parametrize("play", PRE_DRAWN_RUNS, ids=["static", "ata-fmdp"])
def test_static_and_ata_runs_draw_their_step_uniforms_in_one_call(play):
    web, T = make_web_app_domain(), 12
    spy = CountingGenerator(3)
    records = play(web, MTDEnvironment(web, mixed_scenario(T)), T, spy)
    assert spy.sizes == [2 * 4 + (T - 4)]
    # Bitwise the run that hands the generator to every step.
    rng = np.random.default_rng(3)
    env = MTDEnvironment(web, mixed_scenario(T))
    actions = [web.space.index_of_label(r.action) for r in records]
    assert [env.step(a, rng) for a in actions] == records
    assert rng.bit_generator.state == spy._rng.bit_generator.state


@pytest.mark.parametrize("play", PRE_DRAWN_RUNS, ids=["static", "ata-fmdp"])
def test_a_run_past_the_horizon_fails_before_its_first_step(play):
    web = make_web_app_domain()
    env = MTDEnvironment(web, mixed_scenario(8))
    rng = np.random.default_rng(0)
    drawn = rng.bit_generator.state
    with pytest.raises(DomainError, match="scenario horizon exhausted"):
        play(web, env, 9, rng)
    assert rng.bit_generator.state == drawn and env.t == 0


@pytest.mark.xfail(
    strict=True,
    reason="on the evolving web scenario the one-shot plan already reaches the "
    "sink that per-step re-planning converges to, so the strict improvement "
    "does not materialise (see the repository decision notes)",
)
def test_replanning_every_step_beats_planning_once_on_the_evolving_web():
    web = make_web_app_domain()
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
