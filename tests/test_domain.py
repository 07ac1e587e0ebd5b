"""Unit tests for configuration spaces, attacker types, and the reward model."""

from itertools import product

import numpy as np
import pytest

from mtdsim.domain import (
    LABEL_SEP,
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    attacker_types_from_cvss_csv,
    cvss_to_params,
    domain_from_dict,
    domain_to_dict,
    expected_attack_loss_table,
    expected_reward_table,
    load_domain,
    save_domain,
    success_prob_table,
)
from mtdsim.environments import make_web_app_domain


@pytest.fixture
def web():
    return make_web_app_domain(alpha=1.0)


@pytest.fixture
def space():
    return ConfigSpace(
        (
            FactorSpec("language", ("PHP", "Python")),
            FactorSpec("database", ("MySQL", "Postgres")),
        )
    )


# ---------------------------------------------------------------------------
# Configuration space
# ---------------------------------------------------------------------------


def test_space_enumerates_in_c_order(space):
    want = tuple(product(("PHP", "Python"), ("MySQL", "Postgres")))
    assert space.configs == want
    assert space.n_configs == 4
    assert len(space.factors) == 2


def test_space_three_factor_product_order():
    sp = ConfigSpace(
        (
            FactorSpec("a", ("a0", "a1")),
            FactorSpec("b", ("b0", "b1", "b2")),
            FactorSpec("c", ("c0", "c1")),
        )
    )
    assert sp.n_configs == 12
    assert sp.configs == tuple(product(("a0", "a1"), ("b0", "b1", "b2"), ("c0", "c1")))
    # last factor varies fastest
    assert sp.configs[0] == ("a0", "b0", "c0")
    assert sp.configs[1] == ("a0", "b0", "c1")


def test_space_index_label_round_trip(space):
    for i, config in enumerate(space.configs):
        label = space.label(i)
        assert label == LABEL_SEP.join(config)
        assert space.index_of_label(label) == i
    assert space.labels() == [space.label(i) for i in range(4)]


def test_space_rejects_bad_lookups(space):
    with pytest.raises(DomainError):
        space.index_of_label("PHP|Oracle")
    with pytest.raises(DomainError):
        space.index_of_label("PHP")


def test_space_validation():
    with pytest.raises(DomainError):
        ConfigSpace(())
    with pytest.raises(DomainError):
        ConfigSpace((FactorSpec("x", ("a",)), FactorSpec("x", ("b",))))
    with pytest.raises(DomainError):
        FactorSpec("x", ())
    with pytest.raises(DomainError):
        FactorSpec("x", ("a", "a"))
    with pytest.raises(DomainError):  # labels x|y|z would name two configurations
        ConfigSpace((FactorSpec("f", ("x|y", "x")), FactorSpec("g", ("z", "y|z"))))


def test_singleton_space():
    sp = ConfigSpace((FactorSpec("only", ("v",)),))
    assert sp.n_configs == 1
    assert sp.labels() == ["v"]


# ---------------------------------------------------------------------------
# Attacker types and domain validation
# ---------------------------------------------------------------------------


def test_type_from_maps_defaults_missing_to_zero(space):
    t = AttackerTypeSpec.from_maps(
        space, "t", False, {"PHP|MySQL": 0.5}, {"PHP|MySQL": 10.0}
    )
    assert t.mu[space.index_of_label("PHP|MySQL")] == 0.5
    assert t.mu[space.index_of_label("Python|Postgres")] == 0.0
    with pytest.raises(DomainError):
        AttackerTypeSpec.from_maps(space, "t", False, {"nope": 0.5}, {})


def test_type_validation(space):
    with pytest.raises(DomainError):
        AttackerTypeSpec("bad", False, np.array([1.5, 0, 0, 0]), np.zeros(4))
    with pytest.raises(DomainError):
        AttackerTypeSpec("bad", False, np.zeros(4), np.array([-1.0, 0, 0, 0]))
    with pytest.raises(DomainError):
        AttackerTypeSpec("bad", False, np.zeros(3), np.zeros(4))


def test_domain_validation(space):
    ok = AttackerTypeSpec("t", False, np.full(4, 0.5), np.full(4, 10.0))
    good = dict(space=space, types=(ok,), sc=np.zeros((4, 4)), M=200.0, gamma=0.9, alpha=1.0)
    DomainInfo(**good)
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "sc": np.zeros((3, 3))})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "sc": np.full((4, 4), -1.0)})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "gamma": 1.0})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "gamma": -0.1})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "alpha": -0.5})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "types": (ok, ok)})  # duplicate ids
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "types": ()})  # nobody to attack with
    unk = AttackerTypeSpec("u", True, np.zeros(4), np.zeros(4))
    unk2 = AttackerTypeSpec("u2", True, np.zeros(4), np.zeros(4))
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "types": (ok, unk, unk2)})  # two unknowns


def test_domain_dense_tables_follow_declaration_order(web):
    assert web.type_ids() == ["mainstream-hacker", "database-hacker", "unknown"]
    assert web.unknown_index == 2
    assert web.n_types == 3 and web.n_configs == 4
    np.testing.assert_allclose(web.mu_table[0], [0.32, 0.36, 0.32, 0.36])
    np.testing.assert_allclose(web.loss_table[0], [61.0, 66.0, 43.0, 29.0])
    np.testing.assert_allclose(web.mu_table[1], [0.70, 0.65, 0.70, 0.65])
    np.testing.assert_allclose(web.mu_table[2], [0.78, 0.87, 0.70, 0.0])
    assert web.type_index("database-hacker") == 1
    with pytest.raises(DomainError):
        web.type_index("nobody")


# ---------------------------------------------------------------------------
# CVSS intake
# ---------------------------------------------------------------------------


def test_cvss_to_params_scaling():
    assert cvss_to_params(10.0, 10.0) == (1.0, 100.0)
    assert cvss_to_params(7.8, 10.0) == pytest.approx((0.78, 100.0))
    assert cvss_to_params(0.0, 0.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        cvss_to_params(10.5, 5.0)
    with pytest.raises(DomainError):
        cvss_to_params(5.0, -0.1)


def test_cvss_csv_averages_per_pair(space, tmp_path):
    path = tmp_path / "vulns.csv"
    path.write_text(
        "config_label,attacker_type,ES,IS\n"
        "PHP|MySQL,alpha,4.0,2.0\n"
        "PHP|MySQL,alpha,8.0,4.0\n"
        "Python|Postgres,alpha,5.0,5.0\n"
        "PHP|MySQL,unknown,10.0,10.0\n"
    )
    types = attacker_types_from_cvss_csv(space, str(path))
    assert [t.id for t in types] == ["alpha", "unknown"]  # sorted ids
    alpha = types[0]
    i = space.index_of_label("PHP|MySQL")
    assert alpha.mu[i] == pytest.approx(0.6)  # mean of 0.4 and 0.8
    assert alpha.loss[i] == pytest.approx(30.0)  # mean of 20 and 40
    assert alpha.mu[space.index_of_label("PHP|Postgres")] == 0.0
    assert types[1].is_unknown and not alpha.is_unknown


def test_cvss_csv_rejects_bad_input(space, tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("config_label,attacker_type,ES\nPHP|MySQL,a,1\n")
    with pytest.raises(DomainError):
        attacker_types_from_cvss_csv(space, str(missing))
    unknown_cfg = tmp_path / "cfg.csv"
    unknown_cfg.write_text("config_label,attacker_type,ES,IS\nRust|MySQL,a,1,1\n")
    with pytest.raises(DomainError):
        attacker_types_from_cvss_csv(space, str(unknown_cfg))
    not_a_number = tmp_path / "nan.csv"
    not_a_number.write_text("config_label,attacker_type,ES,IS\nPHP|MySQL,a,high,1\n")
    with pytest.raises(DomainError):
        attacker_types_from_cvss_csv(space, str(not_a_number))
    short_row = tmp_path / "short.csv"
    short_row.write_text("config_label,attacker_type,ES,IS\nPHP|MySQL,a,1\n")
    with pytest.raises(DomainError):
        attacker_types_from_cvss_csv(space, str(short_row))


# ---------------------------------------------------------------------------
# Reward model
# ---------------------------------------------------------------------------


def belief(domain, posterior):
    """The (n_types, S, A) table holding ``posterior`` at every (state, action) cell."""
    shape = (domain.n_types, domain.n_configs, domain.n_configs)
    return np.broadcast_to(np.asarray(posterior, dtype=float)[:, None, None], shape)


def test_expected_attack_loss_known_values(web):
    dh_only = expected_attack_loss_table(web, belief(web, [0.0, 1.0, 0.0]))
    # target PHP|MySQL: 0.7 * 43
    assert dh_only[0, 0] == pytest.approx(30.1)
    half = expected_attack_loss_table(web, belief(web, [0.5, 0.5, 0.0]))
    # 0.5*0.32*61 + 0.5*0.7*43 = 24.81 against PHP|MySQL
    assert half[3, 0] == pytest.approx(24.81)
    unk_only = expected_attack_loss_table(web, belief(web, [0.0, 0.0, 1.0]))
    # unknown cannot touch Python|Postgres
    assert unk_only[0, 3] == 0.0


def test_expected_reward_subtracts_loss_and_weighted_cost(web):
    dh_only = belief(web, [0.0, 1.0, 0.0])
    # s=PHP|MySQL, a=Python|MySQL: 200 - 0.7*43 - 1.0*20
    assert expected_reward_table(web, dh_only)[0, 2] == pytest.approx(149.9)
    free = make_web_app_domain(alpha=0.0)
    assert expected_reward_table(free, dh_only)[0, 2] == pytest.approx(169.9)


def test_expected_reward_monotone_in_alpha(web):
    dh_only = belief(web, [0.0, 1.0, 0.0])
    rewards = [
        expected_reward_table(make_web_app_domain(alpha=a), dh_only)[0, 3]
        for a in (0.0, 0.5, 1.0)
    ]
    assert rewards[0] > rewards[1] > rewards[2]
    assert rewards[0] - rewards[2] == pytest.approx(100.0)  # alpha * sc(0, 3)


def test_tables_match_scalar_helpers(web):
    rng = np.random.default_rng(7)
    raw = rng.random((3, 4, 4))
    table = raw / raw.sum(axis=0, keepdims=True)
    al = expected_attack_loss_table(web, table)
    rw = expected_reward_table(web, table)
    pr = success_prob_table(web, table)
    for s in range(4):
        for a in range(4):
            post = table[:, s, a]
            loss = float(np.sum(post * web.mu_table[:, a] * web.loss_table[:, a]))
            assert al[s, a] == pytest.approx(loss)
            assert rw[s, a] == pytest.approx(web.M - loss - web.alpha * web.sc[s, a])
            assert pr[s, a] == pytest.approx(float(np.sum(post * web.mu_table[:, a])))


def test_posterior_shape_is_checked(web):
    table = belief(web, [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        expected_attack_loss_table(web, table[:2])
    with pytest.raises(DomainError):
        expected_reward_table(web, table[:, :2])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_domain_json_round_trip(web, tmp_path):
    path = tmp_path / "web.json"
    save_domain(web, str(path))
    loaded = load_domain(str(path), alpha=0.5)
    assert loaded.space.labels() == web.space.labels()
    assert loaded.type_ids() == web.type_ids()
    assert loaded.alpha == 0.5  # alpha is a load-time parameter, not stored
    np.testing.assert_allclose(loaded.sc, web.sc)
    np.testing.assert_allclose(loaded.mu_table, web.mu_table)
    np.testing.assert_allclose(loaded.loss_table, web.loss_table)
    assert loaded.M == web.M and loaded.gamma == web.gamma
    assert loaded.unknown_index == web.unknown_index


def test_domain_from_dict_reports_missing_fields(web):
    data = domain_to_dict(web)
    del data["M"]
    with pytest.raises(DomainError):
        domain_from_dict(data)
    data = domain_to_dict(web)
    del data["switching_cost"]["PHP|MySQL"]
    with pytest.raises(DomainError):
        domain_from_dict(data)
