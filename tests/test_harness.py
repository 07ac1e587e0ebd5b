"""Tests for the experiment harness: seeded runs, hindsight bounds, regret
accounting, property checks, and the output file formats.

File-format tests assert byte-for-byte reproducibility, which the writers
promise for identical configurations.
"""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from mtdsim.domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    expected_reward_table,
    save_domain,
)
from mtdsim.environments import (
    Scenario,
    ScenarioPhase,
    make_web_app_domain,
    save_scenario,
)
from mtdsim.estimator import ThreatEstimator
from mtdsim.harness import (
    ROLLING_WINDOW,
    ExperimentConfig,
    LinearityReport,
    avg_regret_bound_check,
    cold_posterior_table,
    estimator_unbiasedness_check,
    hindsight_bounds,
    perturb_posterior_table,
    random_posterior_table,
    resolve_domain,
    resolve_run,
    resolve_scenario,
    run_experiment,
    theorem1_regret_experiment,
    write_outputs,
)


def unknown_only_scenario(horizon: int) -> Scenario:
    return Scenario(
        "unknown-only", horizon, (ScenarioPhase(0, horizon, dist={"unknown": 1.0}),)
    )


def harmless_domain() -> DomainInfo:
    """Two configurations, one attacker type that can never succeed."""
    space = ConfigSpace((FactorSpec("slot", ("a", "b")),))
    ghost = AttackerTypeSpec("ghost", False, np.zeros(2), np.zeros(2))
    sc = np.array([[0.0, 7.0], [7.0, 0.0]])
    return DomainInfo(space, (ghost,), sc, 200.0, 0.9, 1.0)


# ---------------------------------------------------------------------------
# run_experiment basics
# ---------------------------------------------------------------------------


def test_single_step_average_is_the_step_reward():
    config = ExperimentConfig(
        strategy="static:PHP|MySQL", timesteps=1, iterations=1, include_hindsight=False
    )
    result = run_experiment(config)
    assert result.timesteps == 1
    assert result.avg_rewards.shape == (1,)
    assert result.avg_rewards[0] == result.iteration_records[0][0].reward
    assert result.mean_avg_reward == result.avg_rewards[0]
    assert result.best_static is None and result.static_table == {}


def test_iterations_use_consecutive_seeds():
    config = ExperimentConfig(
        strategy="urs", timesteps=25, iterations=3, seed=30, include_hindsight=False
    )
    shifted = ExperimentConfig(
        strategy="urs", timesteps=25, iterations=1, seed=31, include_hindsight=False
    )
    result = run_experiment(config)
    single = run_experiment(shifted)
    # Iteration 1 of the batch equals iteration 0 of a batch seeded one higher.
    assert result.iteration_records[1] == single.iteration_records[0]


def test_run_experiment_validation_errors():
    with pytest.raises(DomainError):
        run_experiment(ExperimentConfig(iterations=0))
    with pytest.raises(DomainError):
        run_experiment(ExperimentConfig(alpha=-0.5))
    with pytest.raises(DomainError):
        run_experiment(ExperimentConfig(strategy="softmax"))
    with pytest.raises(DomainError):
        run_experiment(ExperimentConfig(timesteps=0))
    with pytest.raises(DomainError):
        run_experiment(ExperimentConfig(timesteps=1001))  # horizon is 1000
    with pytest.raises(DomainError):
        run_experiment(ExperimentConfig(scenario="no-such-scenario"))
    with pytest.raises(DomainError):
        run_experiment(ExperimentConfig(domain="no-such-domain"))
    with pytest.raises(DomainError):
        # The network domain has no web variant.
        run_experiment(ExperimentConfig(domain="network", scenario="web-dh-postgres"))


def test_resolve_scenario_prefers_builtins_and_rejects_junk(tmp_path):
    assert resolve_scenario("web-evolving").name == "web-evolving"
    with pytest.raises(DomainError):
        resolve_scenario(str(tmp_path / "missing.json"))


def test_file_domains_reject_variants_and_apply_sc_multiplier(tmp_path):
    path = tmp_path / "harmless.json"
    save_domain(harmless_domain(), str(path))
    scen = Scenario(
        "scaled",
        5,
        (ScenarioPhase(0, 5, dist={"ghost": 1.0}),),
        sc_multiplier=2.0,
    )
    dom = resolve_domain(str(path), scen, alpha=1.0, seed=10)
    np.testing.assert_array_equal(dom.sc, 2.0 * harmless_domain().sc)
    variant = Scenario(
        "variant", 5, (ScenarioPhase(0, 5, dist={"ghost": 1.0}),), domain_variant="pg-only-dh"
    )
    with pytest.raises(DomainError):
        resolve_domain(str(path), variant, alpha=1.0, seed=10)


def test_file_domain_round_trip_with_harmless_attacker(tmp_path):
    dom_path = tmp_path / "harmless.json"
    save_domain(harmless_domain(), str(dom_path))
    scen_path = tmp_path / "ghost.json"
    save_scenario(
        Scenario("ghost", 20, (ScenarioPhase(0, 20, dist={"ghost": 1.0}),)), str(scen_path)
    )
    config = ExperimentConfig(
        domain=str(dom_path),
        scenario=str(scen_path),
        strategy="urs",
        alpha=0.0,
        iterations=2,
    )
    result = run_experiment(config)
    # No attack ever lands and switching is free at alpha=0: every reward is M.
    assert result.mean_avg_reward == 200.0
    assert result.std_avg_reward == 0.0
    assert result.static_table == {"a": 200.0, "b": 200.0}


# ---------------------------------------------------------------------------
# hindsight bounds and policy regret
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "domain, scenario, start_state",
    [
        ("web", "web-evolving", None),
        ("network", "net-evolving", None),
        ("web", "web-most-adverse", "Python|Postgres"),
    ],
    ids=["web-web-evolving", "network-net-evolving", "web-web-most-adverse-Python|Postgres"],
)
def test_hindsight_replays_the_seed_schedule_of_a_run(domain, scenario, start_state):
    config = ExperimentConfig(
        domain=domain, scenario=scenario, timesteps=200, iterations=3, seed=7,
        start_state=start_state, include_hindsight=False,
    )
    table = hindsight_bounds(resolve_run(config))
    for label, value in table.items():
        static = replace(config, strategy=f"static:{label}")
        assert run_experiment(static).mean_avg_reward == value, label


def test_hindsight_identifies_the_resistant_config_as_best(tmp_path):
    path = tmp_path / "unknown-only.json"
    save_scenario(unknown_only_scenario(30), str(path))
    run = resolve_run(ExperimentConfig(scenario=str(path), iterations=4, seed=10))
    run.static_table = hindsight_bounds(run)
    table = run.static_table
    assert sorted(table) == ["PHP|MySQL", "PHP|Postgres", "Python|MySQL", "Python|Postgres"]
    # Python|Postgres pays sc=100 once and is untouchable afterwards.
    assert table["Python|Postgres"] == pytest.approx((100.0 + 29 * 200.0) / 30)
    assert run.best_static == table["Python|Postgres"]
    assert run.worst_static == min(table.values())
    assert run.best_static >= run.worst_static


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------


def test_value_loss_is_zero_for_the_true_posterior():
    web = make_web_app_domain(alpha=1.0)
    cold = cold_posterior_table(web)
    gap, bound, ok = avg_regret_bound_check(web, cold, cold)
    assert ok and gap <= 1e-9
    assert bound == pytest.approx(1e-8, abs=1e-10)


def test_value_loss_bound_uses_the_reward_sup_norm():
    web = make_web_app_domain(alpha=1.0)
    cold = cold_posterior_table(web)
    est = perturb_posterior_table(cold, np.random.default_rng(4), scale=0.2)
    gap, bound, ok = avg_regret_bound_check(web, cold, est)
    eps = float(
        np.max(
            np.abs(expected_reward_table(web, cold) - expected_reward_table(web, est))
        )
    )
    assert bound == pytest.approx(2.0 * eps / (1.0 - web.gamma) + 1e-8)
    assert ok and gap <= bound


def test_value_loss_bound_holds_across_seeded_perturbations():
    web = make_web_app_domain(alpha=1.0)
    rng = np.random.default_rng(12)
    for _ in range(20):
        true = random_posterior_table(web, rng)
        est = perturb_posterior_table(true, rng, scale=0.1)
        gap, bound, ok = avg_regret_bound_check(web, true, est)
        assert ok and gap <= bound


def test_value_loss_gamma_override():
    web = make_web_app_domain(alpha=1.0)
    half = DomainInfo(web.space, web.types, web.sc, web.M, 0.5, web.alpha)
    cold = cold_posterior_table(web)
    est = perturb_posterior_table(cold, np.random.default_rng(5))
    _, bound_05, ok = avg_regret_bound_check(half, cold, est)
    assert ok
    eps = float(
        np.max(np.abs(expected_reward_table(web, cold) - expected_reward_table(web, est)))
    )
    assert bound_05 == pytest.approx(2.0 * eps / 0.5 + 1e-8)


def test_estimator_recovers_the_attack_distribution():
    max_err, ok = estimator_unbiasedness_check(
        np.array([0.6, 0.4]), np.array([0.5, 1.0])
    )
    assert ok and max_err <= 0.05


def test_estimator_unbiasedness_validation():
    good_p, good_mu = np.array([0.6, 0.4]), np.array([0.5, 1.0])
    with pytest.raises(DomainError):
        estimator_unbiasedness_check(good_p, np.array([0.5, 1.0, 0.9]))
    with pytest.raises(DomainError):
        estimator_unbiasedness_check(np.array([[0.6, 0.4]]), np.array([[0.5, 1.0]]))
    with pytest.raises(DomainError):
        estimator_unbiasedness_check(np.array([0.7, 0.4]), good_mu)
    with pytest.raises(DomainError):
        estimator_unbiasedness_check(np.array([-0.1, 1.1]), good_mu)
    with pytest.raises(DomainError):
        estimator_unbiasedness_check(good_p, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        estimator_unbiasedness_check(good_p, np.array([0.5, 1.5]))


def test_punishing_adversary_regret_matches_the_analytic_mean():
    report = theorem1_regret_experiment(
        horizons=(100, 500, 1000), n_runs=3000, seed=10
    )
    assert report.first_action_prob == 0.5
    for horizon, mean in zip(report.horizons, report.mean_regrets):
        expected = 0.5 * (horizon - 1) + 0.005 * horizon
        sigma = 0.5 * (horizon - 1) / np.sqrt(3000)
        assert abs(mean - expected) <= 4 * sigma


def test_punishing_adversary_validation():
    with pytest.raises(DomainError):
        theorem1_regret_experiment(n_configs=1)
    with pytest.raises(DomainError):
        theorem1_regret_experiment(switch_cost=0.0)
    with pytest.raises(DomainError):
        theorem1_regret_experiment(switch_cost=1.5)


def test_linearity_report_slope_relative_error():
    report = LinearityReport(
        horizons=(1, 2),
        mean_regrets=np.zeros(2),
        slope=0.6,
        intercept=0.0,
        r_squared=1.0,
        first_action_prob=0.5,
    )
    assert report.slope_relative_error == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# posterior table helpers
# ---------------------------------------------------------------------------


def test_cold_posterior_table_matches_a_fresh_estimator():
    web = make_web_app_domain()
    np.testing.assert_array_equal(
        cold_posterior_table(web), ThreatEstimator(web).posterior_table()
    )


def test_random_posterior_table_is_normalized():
    web = make_web_app_domain()
    table = random_posterior_table(web, np.random.default_rng(8))
    assert table.shape == (3, 4, 4)
    assert np.all(table >= 0)
    np.testing.assert_allclose(table.sum(axis=0), np.ones((4, 4)))


def test_perturb_posterior_table_renormalizes_and_handles_dead_cells():
    web = make_web_app_domain()
    rng = np.random.default_rng(9)
    table = random_posterior_table(web, rng)
    noisy = perturb_posterior_table(table, rng, scale=0.05)
    assert np.all(noisy >= 0)
    np.testing.assert_allclose(noisy.sum(axis=0), np.ones((4, 4)))
    # A zero table stays zero under scale=0, which must fall back to uniform.
    dead = perturb_posterior_table(np.zeros((3, 4, 4)), rng, scale=0.0)
    np.testing.assert_allclose(dead, np.full((3, 4, 4), 1 / 3))


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def run_small(out_dir=None) -> ExperimentConfig:
    return ExperimentConfig(
        strategy="urs",
        timesteps=60,
        iterations=2,
        seed=10,
        reopt_period=None,
        out_dir=str(out_dir) if out_dir is not None else None,
    )


def test_identical_configs_write_byte_identical_files(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run_experiment(run_small(d))
    for name in ("steps.csv", "rolling.csv", "summary.csv", "meta.json"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b and a, name


def test_steps_csv_round_trips_the_records(tmp_path):
    result = run_experiment(run_small(tmp_path))
    with open(tmp_path / "steps.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 60
    for row in rows[:5]:
        rec = result.iteration_records[int(row["iteration"])][int(row["t"])]
        assert row["state"] == rec.state and row["action"] == rec.action
        assert row["attacker_type"] == rec.attacker_type
        assert int(row["phi"]) == rec.phi
        assert float(row["reward"]) == rec.reward


def test_rolling_csv_is_a_trailing_window_mean(tmp_path):
    result = run_experiment(run_small(tmp_path))
    assert ROLLING_WINDOW == 50
    with open(tmp_path / "rolling.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rewards = np.array([r.reward for r in result.iteration_records[0]])
    by_t = {int(r["t"]): float(r["rolling_reward"]) for r in rows if r["iteration"] == "0"}
    for t in (0, 10, 49, 50, 59):
        lo = max(0, t - ROLLING_WINDOW + 1)
        assert by_t[t] == pytest.approx(rewards[lo : t + 1].mean())


def test_summary_csv_reports_the_run_statistics(tmp_path):
    result = run_experiment(run_small(tmp_path))
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["strategy"] == "urs"
    assert float(row["alpha"]) == 1.0
    assert float(row["mean_avg_reward"]) == result.mean_avg_reward
    assert float(row["std_avg_reward"]) == result.std_avg_reward
    assert float(row["best_static"]) == result.best_static
    assert float(row["worst_static"]) == result.worst_static


def test_summary_csv_leaves_missing_bounds_empty(tmp_path):
    config = run_small(tmp_path)
    config.include_hindsight = False
    run_experiment(config)
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["best_static"] == "" and rows[0]["worst_static"] == ""


def test_meta_json_records_the_full_configuration(tmp_path):
    result = run_experiment(run_small(tmp_path))
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    assert meta["domain"] == "web" and meta["scenario"] == "web-evolving"
    assert meta["strategy"] == "urs"
    assert meta["timesteps"] == 60 and meta["iterations"] == 2
    assert meta["seed"] == 10
    assert meta["reopt_period"] is None
    assert meta["start_state"] == "PHP|MySQL"
    assert meta["hyperparameters"]["epsilon"] == 0.2
    assert meta["hyperparameters"]["fpl_lmax"] == 1000
    assert set(meta["static_table"]) == set(result.static_table)
    assert meta["static_table"]["Python|Postgres"] == result.static_table["Python|Postgres"]


def test_write_outputs_creates_the_directory(tmp_path):
    result = run_experiment(run_small())
    target = tmp_path / "nested" / "out"
    write_outputs(str(target), result)
    for name in ("steps.csv", "rolling.csv", "summary.csv", "meta.json"):
        assert (target / name).exists()
