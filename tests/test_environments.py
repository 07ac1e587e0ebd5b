"""Tests for the simulated domains, attacker scenarios, and the step loop.

Table values for the web stack domain are checked cell-by-cell; the network
domain's randomly drawn parameters are checked against their documented
ranges and structural zeros.  Sampling behaviour is verified by seeded
Monte-Carlo against analytic probabilities.
"""

import time

import numpy as np
import pytest

from mtdsim.domain import DomainError
from mtdsim.environments import (
    BUILTIN_SCENARIOS,
    MOST_ADVERSE,
    STATIC_DIST,
    MTDEnvironment,
    Scenario,
    ScenarioPhase,
    builtin_scenario,
    load_scenario,
    make_network_domain,
    make_web_app_domain,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from mtdsim.harness import resolve_domain

WEB_MIX = {"mainstream-hacker": 0.5, "database-hacker": 0.35, "unknown": 0.15}


def unknown_only_scenario(horizon: int = 10) -> Scenario:
    return single_phase_scenario(horizon, STATIC_DIST, {"unknown": 1.0})


def single_phase_scenario(horizon: int, mode: str, dist: dict | None = None, per_state=None):
    return Scenario("one-phase", horizon, (ScenarioPhase(0, horizon, mode, dist, per_state),))


# ---------------------------------------------------------------------------
# web application domain tables
# ---------------------------------------------------------------------------


def test_web_config_enumeration_and_switching_costs():
    web = make_web_app_domain()
    assert web.space.labels() == [
        "PHP|MySQL",
        "PHP|Postgres",
        "Python|MySQL",
        "Python|Postgres",
    ]
    expected_sc = np.array(
        [
            [0, 60, 20, 100],
            [60, 0, 90, 20],
            [20, 90, 0, 50],
            [100, 20, 50, 0],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(web.sc, expected_sc)
    np.testing.assert_array_equal(web.sc, web.sc.T)
    assert web.sc.mean() == pytest.approx(42.5)
    assert web.M == 200.0 and web.gamma == 0.9


def test_web_attacker_tables_per_type():
    web = make_web_app_domain()
    assert web.type_ids() == ["mainstream-hacker", "database-hacker", "unknown"]
    assert web.unknown_index == 2
    np.testing.assert_allclose(web.mu_table[0], [0.32, 0.36, 0.32, 0.36])
    np.testing.assert_allclose(web.loss_table[0], [61, 66, 43, 29])
    np.testing.assert_allclose(web.mu_table[1], [0.70, 0.65, 0.70, 0.65])
    np.testing.assert_allclose(web.loss_table[1], [43, 50, 43, 50])
    np.testing.assert_allclose(web.mu_table[2], [0.78, 0.87, 0.70, 0.0])
    np.testing.assert_allclose(web.loss_table[2], [100, 100, 100, 0])


def test_web_pg_only_variant_swaps_the_unknown_tables():
    web = make_web_app_domain(unknown_variant="pg-only-dh")
    np.testing.assert_allclose(web.mu_table[2], [0.0, 0.65, 0.0, 0.65])
    np.testing.assert_allclose(web.loss_table[2], [0.0, 50.0, 0.0, 50.0])
    # Known types are untouched.
    np.testing.assert_allclose(web.mu_table[1], [0.70, 0.65, 0.70, 0.65])
    with pytest.raises(DomainError):
        make_web_app_domain(unknown_variant="nope")


def test_web_alpha_and_sc_multiplier_pass_through():
    web = resolve_domain("web", builtin_scenario("web-evolving-3xsc"), alpha=0.5, seed=10)
    assert web.alpha == 0.5
    np.testing.assert_array_equal(web.sc, 3.0 * make_web_app_domain().sc)


# ---------------------------------------------------------------------------
# network domain
# ---------------------------------------------------------------------------


def test_network_domain_is_deterministic_given_the_seed():
    a = make_network_domain(np.random.default_rng(42))
    b = make_network_domain(np.random.default_rng(42))
    np.testing.assert_array_equal(a.mu_table, b.mu_table)
    np.testing.assert_array_equal(a.loss_table, b.loss_table)
    np.testing.assert_array_equal(a.sc, b.sc)
    c = make_network_domain(np.random.default_rng(43))
    assert not np.array_equal(a.mu_table, c.mu_table)


def test_network_rates_fall_in_documented_ranges():
    net = make_network_domain(np.random.default_rng(7))
    assert net.type_ids() == ["src0-tgt0", "src0-tgt1", "src1-tgt0", "src1-tgt1", "unknown"]
    # Config order: 1|1, 1|0, 0|1, 0|0 (node0 then node1, online first).
    assert net.space.labels() == ["1|1", "1|0", "0|1", "0|0"]
    for idx, (src, tgt) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        lo, hi = (0.5, 0.6) if src == tgt else (0.2, 0.3)
        online = [c for c in range(4) if net.space.configs[c][tgt] == "1"]
        offline = [c for c in range(4) if c not in online]
        rates = net.mu_table[idx, online]
        assert np.all((rates >= lo) & (rates <= hi))
        assert np.all(rates == rates[0])  # one draw per type
        np.testing.assert_array_equal(net.mu_table[idx, offline], 0.0)
        losses = net.loss_table[idx, online]
        assert np.all((losses >= 60.0) & (losses <= 70.0))
        np.testing.assert_array_equal(net.loss_table[idx, offline], 0.0)


def test_network_unknown_hits_node0_online_configs_for_100():
    net = make_network_domain(np.random.default_rng(7))
    np.testing.assert_array_equal(net.mu_table[4], [1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(net.loss_table[4], [100.0, 100.0, 0.0, 0.0])
    assert net.unknown_index == 4


def test_network_switching_cost_charges_per_node_taken_offline():
    net = make_network_domain(np.random.default_rng(7))
    # Rows: from 1|1, 1|0, 0|1, 0|0; bringing a node back online is free.
    expected = np.array(
        [
            [0, 50, 50, 100],
            [0, 0, 50, 50],
            [0, 50, 0, 50],
            [0, 0, 0, 0],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(net.sc, expected)


def test_network_three_nodes_scale_out():
    net = make_network_domain(np.random.default_rng(7), n_nodes=3)
    assert net.n_configs == 8
    assert net.n_types == 10  # 9 src-tgt pairs plus the unknown
    # All three nodes offline from all online: 3 * 50.
    assert net.sc[net.space.index_of_label("1|1|1"), net.space.index_of_label("0|0|0")] == 150.0


# ---------------------------------------------------------------------------
# scenario phases and validation
# ---------------------------------------------------------------------------


def test_phase_validation_rejects_malformed_windows_and_dists():
    with pytest.raises(DomainError):
        ScenarioPhase(5, 5, STATIC_DIST, {"a": 1.0})
    with pytest.raises(DomainError):
        ScenarioPhase(-1, 5, STATIC_DIST, {"a": 1.0})
    with pytest.raises(DomainError):
        ScenarioPhase(0, 5, "adaptive", {"a": 1.0})
    with pytest.raises(DomainError):
        ScenarioPhase(0, 5, STATIC_DIST, None)
    with pytest.raises(DomainError):
        ScenarioPhase(0, 5, STATIC_DIST, {"a": 0.5, "b": 0.6})
    with pytest.raises(DomainError):
        ScenarioPhase(0, 5, STATIC_DIST, {"a": -0.1, "b": 1.1})
    with pytest.raises(DomainError):
        ScenarioPhase(0, 5, STATIC_DIST, {"a": 1.0}, {"1|1": {"a": 0.4}})
    with pytest.raises(DomainError):
        ScenarioPhase(0, 5, STATIC_DIST, {"a": 0.5, "b": float("nan")})
    with pytest.raises(DomainError):  # a most-adverse attacker draws from no distribution
        ScenarioPhase(0, 5, MOST_ADVERSE, {"a": 1.0})


def test_scenario_phases_must_partition_the_horizon():
    full = ScenarioPhase(0, 10, STATIC_DIST, {"a": 1.0})
    Scenario("ok", 10, (full,))
    with pytest.raises(DomainError):
        Scenario("gap", 10, (ScenarioPhase(0, 4, STATIC_DIST, {"a": 1.0}),
                             ScenarioPhase(5, 10, STATIC_DIST, {"a": 1.0})))
    with pytest.raises(DomainError):
        Scenario("overlap", 10, (ScenarioPhase(0, 6, STATIC_DIST, {"a": 1.0}),
                                 ScenarioPhase(5, 10, STATIC_DIST, {"a": 1.0})))
    with pytest.raises(DomainError):
        Scenario("short", 10, (ScenarioPhase(0, 9, STATIC_DIST, {"a": 1.0}),))
    with pytest.raises(DomainError):
        Scenario("empty", 0, ())


def test_phase_lookup_uses_half_open_windows():
    windows = ((0, 330, "mainstream-hacker"), (330, 660, "unknown"), (660, 1000, "database-hacker"))
    phases = tuple(ScenarioPhase(lo, hi, STATIC_DIST, {tid: 1.0}) for lo, hi, tid in windows)
    env = MTDEnvironment(make_web_app_domain(), Scenario("windows", 1000, phases))
    rng = np.random.default_rng(0)
    types = [env.step(0, rng).attacker_type for _ in range(1000)]
    assert types[0] == types[329] == "mainstream-hacker"
    assert types[330] == types[659] == "unknown"
    assert types[660] == types[999] == "database-hacker"
    assert [types.count(tid) for _, _, tid in windows] == [330, 330, 340]
    with pytest.raises(DomainError):
        env.step(0, rng)  # t = 1000 lies outside [0, 1000)


def test_builtin_scenarios_cover_both_domains():
    assert sorted(BUILTIN_SCENARIOS) == [
        "net-evolving",
        "net-evolving-3xsc",
        "net-most-adverse",
        "web-dh-postgres",
        "web-evolving",
        "web-evolving-3xsc",
        "web-most-adverse",
    ]
    web = builtin_scenario("web-evolving")
    assert web.horizon == 1000
    assert [(p.t_start, p.t_end) for p in web.phases] == [(0, 330), (330, 660), (660, 1000)]
    assert web.phases[0].dist == WEB_MIX
    assert web.phases[1].dist == {
        "mainstream-hacker": 0.1,
        "database-hacker": 0.0,
        "unknown": 0.9,
    }
    assert web.phases[2].dist == WEB_MIX
    assert builtin_scenario("web-evolving-3xsc").sc_multiplier == 3.0
    dhpg = builtin_scenario("web-dh-postgres")
    assert dhpg.domain_variant == "pg-only-dh" and len(dhpg.phases) == 1
    net = builtin_scenario("net-evolving")
    assert net.phases[1].dist == {"unknown": 1.0}
    adverse = builtin_scenario("web-most-adverse")
    assert adverse.phases[0].mode == MOST_ADVERSE
    with pytest.raises(DomainError):
        builtin_scenario("nope")


def test_scenario_json_round_trip(tmp_path):
    scen = Scenario(
        "custom",
        20,
        (
            ScenarioPhase(0, 10, STATIC_DIST, {"unknown": 1.0},
                          {"PHP|Postgres": {"mainstream-hacker": 1.0}}),
            ScenarioPhase(10, 20, MOST_ADVERSE),
        ),
        sc_multiplier=2.5,
        domain_variant="pg-only-dh",
    )
    data = scenario_to_dict(scen)
    assert data["T"] == 20
    assert data["sc_multiplier"] == 2.5
    assert data["domain_variant"] == "pg-only-dh"
    assert data["phases"][0]["per_state_dist"] == {"PHP|Postgres": {"mainstream-hacker": 1.0}}
    assert "dist" not in data["phases"][1]
    back = scenario_from_dict(data, name="custom")
    assert back == scen
    path = tmp_path / "mix.json"
    save_scenario(scen, str(path))
    loaded = load_scenario(str(path))
    assert loaded.name == "mix"
    assert loaded.phases == scen.phases
    assert loaded.sc_multiplier == 2.5
    with pytest.raises(DomainError):
        scenario_from_dict({"phases": []})


# ---------------------------------------------------------------------------
# attacker behaviour
# ---------------------------------------------------------------------------


def alternate(env: MTDEnvironment, away: int, steps: int, rng) -> list:
    """Records of a defender that starts in state 0 and alternates 0 -> away -> 0 ..."""
    return [env.step(away if t % 2 == 0 else 0, rng) for t in range(steps)]


def test_most_adverse_estimate_is_add_one_smoothed():
    web = make_web_app_domain()
    env = MTDEnvironment(web, single_phase_scenario(20, MOST_ADVERSE))
    records = alternate(env, 3, 20, np.random.default_rng(0))
    # After k moves PHP|MySQL -> Python|Postgres the estimate at PHP|MySQL is
    # (1, 1, 1, k + 1) / (k + 4): the unknown's expected damage 235 / (k + 4)
    # stays above the database hacker's (125.2 + 32.5 k) / (k + 4) up to k = 3.
    # Without smoothing the switch would come at k = 1, with add-half at k = 2.
    at_start = [r.attacker_type for r in records[0::2]]
    assert at_start == ["unknown"] * 4 + ["database-hacker"] * 6
    # Counts are kept per state: Python|Postgres only ever saw moves back to
    # PHP|MySQL, where the unknown does the most damage.
    assert {r.attacker_type for r in records[1::2]} == {"unknown"}
    np.testing.assert_array_equal(env.moves[0], [0, 0, 0, 10])
    np.testing.assert_array_equal(env.moves[3], [10, 0, 0, 0])


def test_most_adverse_picks_the_expected_damage_maximiser():
    web = make_web_app_domain()
    env = MTDEnvironment(web, single_phase_scenario(401, MOST_ADVERSE))
    rng = np.random.default_rng(0)
    records = alternate(env, 3, 401, rng)
    # Fresh estimate: uniform policy, expected damages 16.87 / 31.3 / 58.75.
    assert records[0].attacker_type == web.type_ids()[2]
    # A defender observed to always run to Python|Postgres neutralises the
    # unknown type; the database hacker (10.44 / 32.5 / 0 at that target)
    # becomes the worst threat.
    assert env.moves[0, 3] == 201 and records[-1].state == "PHP|MySQL"
    assert records[-1].attacker_type == web.type_ids()[1]
    # A most-adverse step draws only the success flag.
    twin = np.random.default_rng(0)
    twin.random(401)
    assert rng.random() == twin.random()


def test_step_type_frequencies_match_the_phase_dist():
    web = make_web_app_domain()
    n = 10_000
    env = MTDEnvironment(web, single_phase_scenario(n, STATIC_DIST, WEB_MIX))
    rng = np.random.default_rng(10)
    draws = np.array([web.type_index(env.step(0, rng).attacker_type) for _ in range(n)])
    freqs = np.bincount(draws, minlength=3) / n
    np.testing.assert_allclose(freqs, [0.5, 0.35, 0.15], atol=0.02)


def test_step_success_rate_matches_the_mixture():
    web = make_web_app_domain()
    n = 10_000
    surge = builtin_scenario("web-evolving").phases[1].dist
    phases = (
        ScenarioPhase(0, n, STATIC_DIST, WEB_MIX),
        ScenarioPhase(n, n + 2_000, STATIC_DIST, surge),
    )
    env = MTDEnvironment(web, Scenario("mix-then-surge", n + 2_000, phases))
    rng = np.random.default_rng(11)
    phis = [env.step(0, rng).phi for _ in range(n)]
    analytic = 0.5 * 0.32 + 0.35 * 0.70 + 0.15 * 0.78
    assert np.mean(phis) == pytest.approx(analytic, abs=0.02)
    # Against Python|Postgres the unknown type never succeeds.
    records = [env.step(3, rng) for _ in range(2_000)]
    hits = [r.phi for r in records if r.attacker_type == "unknown"]
    assert hits and not any(hits)


def test_step_per_state_override_changes_the_dist():
    web = make_web_app_domain()
    scen = single_phase_scenario(
        40, STATIC_DIST, {"mainstream-hacker": 1.0}, {"PHP|Postgres": {"unknown": 1.0}}
    )
    env = MTDEnvironment(web, scen)
    records = alternate(env, 1, 40, np.random.default_rng(0))
    assert {r.attacker_type for r in records[0::2]} == {"mainstream-hacker"}
    assert {r.attacker_type for r in records[1::2]} == {"unknown"}


def test_a_long_horizon_costs_nothing_until_stepped():
    start = time.perf_counter()
    env = MTDEnvironment(make_web_app_domain(), single_phase_scenario(10**9, STATIC_DIST, WEB_MIX))
    rng = np.random.default_rng(0)
    assert [env.step(0, rng).t for _ in range(3)] == [0, 1, 2]
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# environment stepping
# ---------------------------------------------------------------------------


def test_step_reward_arithmetic_and_labels_on_the_web_domain():
    web = make_web_app_domain(alpha=1.0)
    env = MTDEnvironment(web, unknown_only_scenario(), start_state=0)
    rng = np.random.default_rng(1)
    rec = env.step(3, rng)
    # Unknown attacker cannot touch Python|Postgres: phi=0, pay only sc=100.
    assert rec.phi == 0 and rec.reward == 100.0
    assert rec.state == "PHP|MySQL" and rec.action == "Python|Postgres"
    assert rec.attacker_type == "unknown" and rec.t == 0
    rec = env.step(3, rng)
    assert rec.reward == 200.0 and rec.state == "Python|Postgres"
    assert env.state == 3 and env.t == 2
    assert env.moves[0, 3] == 1 and env.moves[3, 3] == 1


def test_step_reward_arithmetic_on_the_network_domain():
    net = make_network_domain(np.random.default_rng(7), alpha=1.0)
    env = MTDEnvironment(net, unknown_only_scenario(), start_state=0)
    rng = np.random.default_rng(1)
    rec = env.step(0, rng)  # stay fully online: certain 100 loss, no sc
    assert rec.phi == 1 and rec.reward == 100.0
    rec = env.step(3, rng)  # all offline: sc=100, unharmed
    assert rec.phi == 0 and rec.reward == 100.0
    rec = env.step(3, rng)  # stay offline: free and unharmed
    assert rec.reward == 200.0


def test_step_range_and_horizon_errors():
    web = make_web_app_domain()
    with pytest.raises(DomainError):
        MTDEnvironment(web, unknown_only_scenario(), start_state=4)
    for per_state in ({"PHP|MySQl": {"unknown": 1.0}}, {"PHP|MySQL": {"nobody": 1.0}}):
        phase = ScenarioPhase(0, 2, STATIC_DIST, {"unknown": 1.0}, per_state)
        with pytest.raises(DomainError):  # checked before any step draws from it
            MTDEnvironment(web, Scenario("typo", 2, (phase,)))
    env = MTDEnvironment(web, unknown_only_scenario(horizon=2))
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        env.step(7, rng)
    env.step(3, rng)
    env.step(3, rng)
    with pytest.raises(DomainError):
        env.step(3, rng)
