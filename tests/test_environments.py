"""Tests for the simulated domains, attacker scenarios, and the step loop.

Table values for the web stack domain are checked cell-by-cell; the network
domain's randomly drawn parameters are checked against their documented
ranges and structural zeros.  Sampling behaviour is verified by seeded
Monte-Carlo against analytic probabilities.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from mtdsim.domain import (
    AttackerTypeSpec, ConfigSpace, DomainError, DomainInfo, FactorSpec, save_domain
)
from mtdsim.environments import (
    BUILTIN_SCENARIOS,
    MOST_ADVERSE,
    STATIC_DIST,
    MTDEnvironment,
    Scenario,
    ScenarioPhase,
    StepRecord,
    builtin_scenario,
    load_scenario,
    make_network_domain,
    make_web_app_domain,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from mtdsim.harness import resolve_domain
from oracles import reference_network_domain, reference_step

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
    scenario, base = builtin_scenario("web-evolving-3xsc"), make_web_app_domain()
    for alpha in (0.0, 0.5, 2.5):
        web = resolve_domain("web", scenario, alpha=alpha, seed=10)
        # The multiplier product first, then the weight: the products the reward formed.
        assert web.sc.tobytes() == (alpha * (base.sc * 3.0)).tobytes()
    for alpha in (True, "0.5"):
        with pytest.raises(DomainError, match="alpha must be a number"):
            resolve_domain("web", scenario, alpha=alpha, seed=10)
    for alpha in (-0.5, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="alpha must be finite and >= 0"):
            resolve_domain("web", scenario, alpha=alpha, seed=10)
    # A finite alpha whose product with the costs overflows is named, with no
    # overflow warning from the product.
    with pytest.raises(DomainError, match=r"alpha 1e\+307 .* sc_multiplier 3\.0 is not finite"):
        resolve_domain("web", scenario, alpha=1e307, seed=10)


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


def test_network_size_is_an_integer_of_at_least_one_node():
    assert make_network_domain(np.random.default_rng(7), n_nodes=np.int64(3)).n_configs == 8
    for n_nodes in (True, 2.0, 0, -1, "2", None):
        with pytest.raises(DomainError, match="n_nodes must be an integer >= 1"):
            make_network_domain(np.random.default_rng(7), n_nodes=n_nodes)


@pytest.mark.parametrize("n_nodes", range(1, 9))
def test_network_domain_is_bitwise_the_per_configuration_builder(n_nodes):
    # The domain draws its parameters in one call, the oracle one scalar at a time.
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        net = make_network_domain(rng, n_nodes=n_nodes)
        ref = reference_network_domain(ref_rng, n_nodes=n_nodes)
        assert net.type_ids() == ref.type_ids()
        assert [t.is_unknown for t in net.types] == [t.is_unknown for t in ref.types]
        for name in ("mu_table", "loss_table", "sc"):
            ours, theirs = getattr(net, name), getattr(ref, name)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
            assert ours.tobytes() == theirs.tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws


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
    for dist, per_state in (([0.5, 0.5], None), ({"a": 1.0}, {"x": [1.0]})):
        with pytest.raises(DomainError, match="phase distribution must be a map"):
            ScenarioPhase(0, 5, STATIC_DIST, dist, per_state)
    with pytest.raises(DomainError, match="per_state_dist must be a map"):
        ScenarioPhase(0, 5, STATIC_DIST, {"a": 1.0}, [1])
    # Bounds are Python integers, as in a scenario file: 10.5 would never end its
    # phase, and a numpy integer could not be saved as JSON.
    for bound in (10.5, True, np.int64(5)):
        with pytest.raises(DomainError, match="must be an integer"):
            ScenarioPhase(0, bound, STATIC_DIST, {"a": 1.0})
        with pytest.raises(DomainError, match="must be an integer"):
            ScenarioPhase(bound, 20, STATIC_DIST, {"a": 1.0})
    for weight in ("1.0", True):
        with pytest.raises(DomainError, match="phase weight must be a number"):
            ScenarioPhase(0, 5, STATIC_DIST, {"a": weight})
        with pytest.raises(DomainError, match="phase weight must be a number"):
            ScenarioPhase(0, 5, STATIC_DIST, {"a": 1.0}, {"1|1": {"a": weight}})


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
    for horizon in (10.5, True, np.int64(10)):
        with pytest.raises(DomainError, match="scenario T must be an integer"):
            Scenario("odd", horizon, (full,))
    for multiplier in (True, "2.5"):
        with pytest.raises(DomainError, match="sc_multiplier must be a number"):
            Scenario("odd", 10, (full,), sc_multiplier=multiplier)
    for multiplier in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="sc_multiplier must be finite and >= 0"):
            Scenario("odd", 10, (full,), sc_multiplier=multiplier)
        with pytest.raises(DomainError, match="sc_multiplier must be finite and >= 0"):
            scenario_from_dict({**scenario_to_dict(Scenario("odd", 10, (full,))),
                                "sc_multiplier": multiplier})


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
    assert loaded.domain_variant == "pg-only-dh"
    with pytest.raises(DomainError):
        scenario_from_dict({"phases": []})
    for variant in (7, ""):  # "" would be dropped on save and fail to resolve until then
        with pytest.raises(DomainError, match="non-empty string"):
            scenario_from_dict(dict(data, domain_variant=variant))


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
    web = make_web_app_domain()
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
    net = make_network_domain(np.random.default_rng(7))
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
    for start in (True, 1.5, "1"):  # the rule step applies to actions
        with pytest.raises(DomainError, match="is not a configuration index"):
            MTDEnvironment(web, unknown_only_scenario(), start_state=start)
    assert MTDEnvironment(web, unknown_only_scenario(), start_state=np.int64(1)).state == 1
    for per_state in ({"PHP|MySQl": {"unknown": 1.0}}, {"PHP|MySQL": {"nobody": 1.0}}):
        phase = ScenarioPhase(0, 2, STATIC_DIST, {"unknown": 1.0}, per_state)
        with pytest.raises(DomainError):  # checked before any step draws from it
            MTDEnvironment(web, Scenario("typo", 2, (phase,)))
    env = MTDEnvironment(web, unknown_only_scenario(horizon=2))
    rng = np.random.default_rng(0)
    drawn = rng.bit_generator.state
    # Out of range, not an integer, or a boolean: rejected before anything is drawn.
    for action in (7, -1, 1.5, np.float64(2.0), True, np.bool_(True), "1", None):
        with pytest.raises(DomainError):
            env.step(action, rng)
    assert rng.bit_generator.state == drawn
    assert (env.t, env.state, env.moves.any()) == (0, 0, False)
    env.step(np.int64(3), rng)  # the strategies pass numpy integers
    env.step(3, rng)
    drawn = rng.bit_generator.state
    # At the horizon the horizon is named first, whatever the action.
    for action in (3, 7, -1, 1.5, True, None):
        with pytest.raises(DomainError, match="scenario horizon exhausted"):
            env.step(action, rng)
    assert rng.bit_generator.state == drawn
    assert (env.t, env.state, int(env.moves.sum())) == (2, 3, 2)


# ---------------------------------------------------------------------------
# the step against its reference (tests/oracles.py::reference_step)
# ---------------------------------------------------------------------------


def _random_dist(rng: np.random.Generator, type_ids: list[str], seen: set[str]) -> dict:
    """Weights over a random subset of ``type_ids``, some of them zero."""
    k = int(rng.integers(1, len(type_ids) + 1))
    weights = rng.dirichlet(np.ones(k))
    weights[rng.random(k) < 0.3] = 0.0
    if not weights.any():
        weights[-1] = 1.0
    weights /= weights.sum()
    if k == 1:
        seen.add("single type")
    if (weights == 0.0).any():
        seen.add("zero weight")
    chosen = rng.permutation(len(type_ids))[:k]
    return {type_ids[i]: float(w) for i, w in zip(chosen, weights)}


def _random_scenario(rng, domain, horizon: int, seen: set[str]) -> Scenario:
    """Up to four phases, each most adverse or a distribution with per-state overrides."""
    n_cuts = int(rng.integers(0, min(4, horizon)))
    cuts = rng.choice(np.arange(1, horizon), size=n_cuts, replace=False)
    edges = [0, *sorted(int(c) for c in cuts), horizon]
    type_ids, labels = list(domain.type_ids()), domain.space.labels()
    phases = []
    for start, end in zip(edges, edges[1:]):
        if rng.random() < 0.25:
            seen.add("most adverse" if start == 0 else "most adverse after t = 0")
            phases.append(ScenarioPhase(start, end, MOST_ADVERSE))
            continue
        overridden = rng.permutation(len(labels))[: int(rng.integers(0, len(labels) + 1))]
        per_state = {labels[i]: _random_dist(rng, type_ids, seen) for i in overridden}
        if per_state:
            seen.add("per-state override")
        dist = _random_dist(rng, type_ids, seen)
        phases.append(ScenarioPhase(start, end, STATIC_DIST, dist, per_state or None))
    if len(phases) > 1:
        seen.add("phase boundary")
    return Scenario("random", horizon, tuple(phases), sc_multiplier=float(rng.choice([0.5, 1, 3])))


def _random_env_pairs(rng, seen: set[str], path: str):
    """90 pairs of equal environments on web, 2- and 3-node network domains weighted as a
    run's domain is, each with a seed for the pair's two generators."""
    for case in range(90):
        kind, alpha = ("web", "net2", "net3")[case % 3], float(rng.choice([0.0, 0.5, 1.0, 2.5]))
        if kind == "web":
            domain = make_web_app_domain("pg-only-dh" if rng.random() < 0.3 else None)
        else:
            domain = make_network_domain(rng, n_nodes=int(kind[-1]))
        scenario = _random_scenario(rng, domain, int(rng.integers(2, 60)), seen)
        save_domain(domain, path)
        domain = resolve_domain(path, scenario, alpha, 0)
        start = int(rng.integers(domain.n_configs))
        env, ref = MTDEnvironment(domain, scenario, start), MTDEnvironment(domain, scenario, start)
        yield env, ref, int(rng.integers(2**32))


SCENARIO_FEATURES = {
    "single type", "zero weight", "most adverse", "most adverse after t = 0",
    "per-state override", "phase boundary",
}


def test_step_matches_the_choice_reference_bitwise(tmp_path):
    rng = np.random.default_rng(2024)
    seen: set[str] = set()
    for env, ref, seed in _random_env_pairs(rng, seen, str(tmp_path / "domain.json")):
        env_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for t in range(env.scenario.horizon):
            action = int(rng.integers(env.domain.n_configs))
            action = np.int64(action) if t % 2 else action
            got, want = env.step(action, env_rng), reference_step(ref, action, ref_rng)
            assert type(got) is StepRecord
            assert (type(got.phi), type(got.reward)) == (int, float)
            assert got == want and got.reward.hex() == want.reward.hex()
            assert env_rng.bit_generator.state == ref_rng.bit_generator.state
        np.testing.assert_array_equal(env.moves, ref.moves)
    assert seen == SCENARIO_FEATURES


def test_pre_drawn_uniforms_match_the_choice_reference_bitwise(tmp_path):
    rng = np.random.default_rng(2025)
    seen: set[str] = set()
    for env, ref, seed in _random_env_pairs(rng, seen, str(tmp_path / "domain.json")):
        env_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        horizon = env.scenario.horizon
        while env.t < horizon:  # runs of random length, from t = 0 and after
            k = int(rng.integers(0, horizon - env.t + 1))
            seen.add("k = 0" if k == 0 else "from t > 0" if env.t else "from t = 0")
            draws = env.uniforms(k, env_rng)
            for _ in range(k):
                action = int(rng.integers(env.domain.n_configs))
                got, want = env.step(action, draws), reference_step(ref, action, ref_rng)
                assert got == want and got.reward.hex() == want.reward.hex()
            assert env_rng.bit_generator.state == ref_rng.bit_generator.state
            np.testing.assert_array_equal(env.moves, ref.moves)
            with pytest.raises(StopIteration):  # every drawn uniform was used
                draws.random()
    assert seen == SCENARIO_FEATURES | {"k = 0", "from t = 0", "from t > 0"}


def permuted_loss_domain(rng: np.random.Generator) -> DomainInfo:
    """3 to 5 configurations and three types whose losses are one another's
    permutations, at one success rate: their expected damages tie wherever the
    estimated policy weighs the permuted entries alike, and rounding decides."""
    S = int(rng.integers(3, 6))
    space = ConfigSpace((FactorSpec("cfg", tuple(f"c{i}" for i in range(S))),))
    loss, mu = rng.integers(1, 100, S).astype(float), np.full(S, 0.5)
    losses = (loss, loss[::-1].copy(), loss[rng.permutation(S)])
    types = tuple(AttackerTypeSpec(f"t{i}", False, mu, row) for i, row in enumerate(losses))
    return DomainInfo(space, types, np.zeros((S, S)), 200.0, 0.9)


def test_most_adverse_ties_match_the_reference_bitwise():
    # The step divides the smoothed counts by n(s) + S, kept as Python ints and
    # recounted when a most-adverse phase begins, where the reference sums
    # them.  A wrong total only rescales the estimate, so it shows only where
    # rounding breaks a tie: here, after a static phase of random length.
    rng = np.random.default_rng(37)
    ties = 0
    for _ in range(40):
        domain = permuted_loss_domain(rng)
        cut = int(rng.integers(1, 60))
        phases = (
            ScenarioPhase(0, cut, STATIC_DIST, {"t0": 0.5, "t1": 0.5}),
            ScenarioPhase(cut, 150, MOST_ADVERSE),
        )
        scenario = Scenario("ties", 150, phases)
        env, ref = MTDEnvironment(domain, scenario), MTDEnvironment(domain, scenario)
        seed = int(rng.integers(2**32))
        env_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for t, action in enumerate(rng.integers(domain.n_configs, size=150).tolist()):
            if t >= cut:  # the exact expected damages of the step's estimate
                counts = ref.moves[ref.state] + 1
                exact = [
                    sum(Fraction(d) * int(c) for d, c in zip(row, counts))
                    for row in domain.damage_table
                ]
                ties += exact.count(max(exact)) > 1
            got, want = env.step(action, env_rng), reference_step(ref, action, ref_rng)
            assert got == want
    assert ties > 500, ties


def test_uniforms_rejects_a_step_count_that_is_not_an_integer_before_drawing():
    env = MTDEnvironment(make_web_app_domain(), unknown_only_scenario(horizon=4))
    rng = np.random.default_rng(0)
    drawn = rng.bit_generator.state
    for k in (-1, 1.5, np.float64(2.0), True, np.bool_(True), "2", None):
        with pytest.raises(DomainError, match="step count must be an integer >= 0"):
            env.uniforms(k, rng)
    assert rng.bit_generator.state == drawn
    assert (env.t, env.state, env.moves.any()) == (0, 0, False)
    draws = env.uniforms(np.int64(4), rng)  # a numpy integer passes, as for actions
    assert [draws.random() for _ in range(8)] == np.random.default_rng(0).random(8).tolist()


def test_uniforms_rejects_a_step_count_past_the_horizon_before_drawing():
    env = MTDEnvironment(make_web_app_domain(), unknown_only_scenario(horizon=5))
    rng = np.random.default_rng(0)
    draws = env.uniforms(2, rng)
    for _ in range(2):
        env.step(3, draws)
    drawn = rng.bit_generator.state
    with pytest.raises(DomainError, match="scenario horizon exhausted"):
        env.uniforms(4, rng)
    assert rng.bit_generator.state == drawn
    assert (env.t, env.state, int(env.moves.sum())) == (2, 3, 2)
    env.uniforms(3, rng)  # exactly to the horizon


def test_a_step_past_the_drawn_uniforms_raises():
    env = MTDEnvironment(make_web_app_domain(), unknown_only_scenario(horizon=5))
    draws = env.uniforms(1, np.random.default_rng(0))
    env.step(3, draws)
    with pytest.raises(DomainError, match="pre-drawn uniforms exhausted"):
        env.step(3, draws)
    assert (env.t, env.state, int(env.moves.sum())) == (1, 3, 1)
    with pytest.raises(StopIteration):  # the draws themselves still just run out
        draws.random()


def test_a_step_that_fails_at_a_phase_boundary_resumes_in_the_next_phase():
    phases = (
        ScenarioPhase(0, 3, STATIC_DIST, {"unknown": 1.0}),
        ScenarioPhase(3, 5, STATIC_DIST, {"mainstream-hacker": 1.0}),
        ScenarioPhase(5, 7, MOST_ADVERSE),
    )
    scenario = Scenario("three-phases", 7, phases)
    env, ref = (MTDEnvironment(make_web_app_domain(), scenario) for _ in "ab")
    env_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for k in (3, 2, 2):  # each run of draws ends at a phase boundary
        draws = env.uniforms(k, env_rng)
        for _ in range(k):
            action = (env.t * 3) % 4
            got, want = env.step(action, draws), reference_step(ref, action, ref_rng)
            assert got == want and got.reward.hex() == want.reward.hex()
        before = (env.t, env.state, env.moves.tolist())
        with pytest.raises(DomainError):
            env.step(1, draws)
        with pytest.raises(DomainError):
            env.step(4, env_rng)
        assert (env.t, env.state, env.moves.tolist()) == before
    assert env_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("mode", [STATIC_DIST, MOST_ADVERSE])
def test_a_map_over_steps_past_the_drawn_uniforms_raises(mode):
    # A StopIteration out of the step would end the map after three records.
    dist = {"unknown": 1.0} if mode == STATIC_DIST else None
    env = MTDEnvironment(make_web_app_domain(), single_phase_scenario(10, mode, dist))
    draws = env.uniforms(3, np.random.default_rng(0))
    with pytest.raises(DomainError, match="pre-drawn uniforms exhausted"):
        list(map(lambda _: env.step(0, draws), range(10)))
    assert (env.t, env.state, int(env.moves.sum())) == (3, 0, 3)


def test_moves_cannot_be_rebound():
    phases = (
        ScenarioPhase(0, 1, STATIC_DIST, {"unknown": 1.0}),
        ScenarioPhase(1, 20, MOST_ADVERSE),
    )
    env = MTDEnvironment(make_web_app_domain(), Scenario("two-phases", 20, phases))
    moves = env.moves
    with pytest.raises(AttributeError):
        env.moves = np.zeros((4, 4), dtype=int)
    env.step(3, np.random.default_rng(0))
    assert env.moves is moves and moves[0, 3] == 1  # a step counts in the same array
    # Every row's counts land in that array, in a most_adverse phase too.
    rng, want = np.random.default_rng(1), np.zeros((4, 4), dtype=int)
    want[0, 3] = 1
    for t in range(1, 20):
        state, action = env.state, (t * 7) % 4
        env.step(action, rng)
        want[state, action] += 1
    assert env.moves is moves and moves.tolist() == want.tolist()
    assert (want > 0).any(axis=1).all()  # each row was counted


def _untemper(y: int) -> int:
    """The MT19937 state word whose tempered output is ``y``."""

    def undo(y: int, shift: int, mask: int = 0xFFFFFFFF) -> int:
        x = y  # y = x ^ (x >> shift) for shift > 0, y = x ^ ((x << -shift) & mask) for < 0
        for _ in range(32 // abs(shift) + 1):
            x = y ^ ((x >> shift) if shift > 0 else ((x << -shift) & mask))
        return x & 0xFFFFFFFF

    return undo(undo(undo(undo(y, 18), -15, 0xEFC60000), -7, 0x9D2C5680), 11)


def generator_drawing(uniforms: list[float]) -> np.random.Generator:
    """A generator whose first ``random()`` calls return ``uniforms`` (multiples of 2**-53).

    MT19937 makes a double from two tempered 32-bit outputs, the top 27 and
    26 bits of the 53-bit numerator; the state words are set to produce them.
    """
    words = []
    for u in uniforms:
        high, low = divmod(int(u * 2**53), 2**26)
        words += [high << 5, low << 6]
    key = np.zeros(624, dtype=np.uint32)
    key[: len(words)] = [_untemper(w) for w in words]
    bits = np.random.MT19937(0)
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bits)


def test_a_uniform_on_a_cdf_step_draws_the_next_type_as_choice_does():
    assert generator_drawing([0.5, 0.25, 0.0]).random(3).tolist() == [0.5, 0.25, 0.0]
    web = make_web_app_domain()
    # Generator.choice(p=) searches its CDF from the right: a uniform equal to a
    # CDF value draws the next type with positive weight, never a zero-weight one.
    cases = [
        ({"database-hacker": 0.0, "unknown": 1.0}, 0.0),
        ({"mainstream-hacker": 0.5, "unknown": 0.5}, 0.5),
        ({"mainstream-hacker": 0.25, "database-hacker": 0.0, "unknown": 0.75}, 0.25),
    ]
    for dist, u in cases:
        scenario = single_phase_scenario(1, STATIC_DIST, dist)
        env, ref = MTDEnvironment(web, scenario), MTDEnvironment(web, scenario)
        env_rng, ref_rng = generator_drawing([u, 0.5]), generator_drawing([u, 0.5])
        got, want = env.step(3, env_rng), reference_step(ref, 3, ref_rng)
        assert got == want and got.attacker_type == "unknown"
        np.testing.assert_equal(env_rng.bit_generator.state, ref_rng.bit_generator.state)
