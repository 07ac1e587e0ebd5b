"""Unit tests for configuration spaces, attacker types, and the reward model."""

import dataclasses
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
    extremum,
    is_index,
    is_index_array,
    json_integer,
    load_domain,
    read_json,
    save_domain,
    success_prob_table,
    write_json,
)
from mtdsim.environments import builtin_scenario, make_network_domain, make_web_app_domain
from mtdsim.harness import resolve_domain


@pytest.fixture
def web():
    return make_web_app_domain()


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


def test_space_labels_only_an_index_in_range(space):
    assert space.label(np.int64(3)) == space.label(3)
    for index in (-1, 4, True, 1.0, "0", None):  # -1 and True would index a label
        with pytest.raises(DomainError, match="is not a configuration index"):
            space.label(index)


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
    with pytest.raises(DomainError, match="values must be a list"):  # not the values a, b
        FactorSpec("lang", "ab")
    with pytest.raises(DomainError, match="values must be a list"):
        FactorSpec("lang", (1, 2))
    with pytest.raises(DomainError, match="name must be a string"):
        FactorSpec(3, ("a",))
    listed = FactorSpec("lang", ["a", "b"])  # kept as a tuple, so the spec hashes
    assert listed == FactorSpec("lang", ("a", "b"))
    assert hash(listed) == hash(FactorSpec("lang", ("a", "b")))


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
    with pytest.raises(DomainError, match="id must be a string"):
        AttackerTypeSpec(5, False, np.zeros(4), np.zeros(4))
    with pytest.raises(DomainError, match="'unknown' must be true or false"):
        AttackerTypeSpec("bad", "yes", np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
def test_type_rejects_each_bad_success_rate(bad):
    mu = np.array([0.0, 1.0, bad, 0.5])
    with pytest.raises(DomainError, match=r"^type 'bad': mu must lie in \[0, 1\]$"):
        AttackerTypeSpec("bad", False, mu, np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_type_rejects_each_bad_loss(bad):
    loss = np.array([0.0, 2.0, bad, 1.0])
    with pytest.raises(DomainError, match=r"^type 'bad': losses must be finite and >= 0$"):
        AttackerTypeSpec("bad", False, np.zeros(4), loss)


def test_type_with_no_configurations_is_accepted():
    spec = AttackerTypeSpec("empty", False, np.zeros(0), np.zeros(0))
    assert spec.mu.shape == spec.loss.shape == (0,)


def test_domain_validation(space):
    ok = AttackerTypeSpec("t", False, np.full(4, 0.5), np.full(4, 10.0))
    good = dict(space=space, types=(ok,), sc=np.zeros((4, 4)), M=200.0, gamma=0.9)
    DomainInfo(**good)
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "sc": np.zeros((3, 3))})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "sc": np.full((4, 4), -1.0)})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "gamma": 1.0})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "gamma": -0.1})
    for name in ("M", "gamma"):
        with pytest.raises(DomainError, match=f"{name} must be a number"):
            DomainInfo(**{**good, name: True})
    short = AttackerTypeSpec("short", False, np.full(3, 0.5), np.full(3, 10.0))
    with pytest.raises(DomainError, match="'short': tables must cover all 4 configurations"):
        DomainInfo(**{**good, "types": (ok, short)})
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "types": (ok, ok)})  # duplicate ids
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "types": ()})  # nobody to attack with
    unk = AttackerTypeSpec("u", True, np.zeros(4), np.zeros(4))
    unk2 = AttackerTypeSpec("u2", True, np.zeros(4), np.zeros(4))
    with pytest.raises(DomainError):
        DomainInfo(**{**good, "types": (ok, unk, unk2)})  # two unknowns


def test_values_past_float_range_are_rejected_by_the_domain(web, tmp_path):
    # max(|M|, |M - max damage - max cost|) / (1 - gamma) must be finite, for
    # a domain built or loaded (test_harness checks the weighted costs).
    message = r"rewards from M 1e\+308 .* over 1 - gamma \(0\.9\), are not finite"
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(web, M=1e308)
    path = tmp_path / "domain.json"
    write_json(str(path), {**domain_to_dict(web), "M": 1e308})
    with pytest.raises(DomainError, match=message):
        load_domain(str(path))
    write_json(str(path), {**domain_to_dict(web), "M": 1e307})  # 1e308 over 1 - gamma
    assert load_domain(str(path)).M == 1e307


def test_the_unit_exponent_bounds_every_reward_and_follows_a_power_of_two(web):
    # The planner's unit 2^e is the frexp exponent of the largest reward size.
    rewards = expected_reward_table(web, np.ones((web.n_types, 4, 4)) / web.n_types)
    assert np.abs(rewards).max() < 2.0**web.unit_exponent == 256.0  # M = 200
    for j in (-1000, -1, 0, 3, 900):
        types = tuple(dataclasses.replace(t, loss=np.ldexp(t.loss, j)) for t in web.types)
        scaled = dataclasses.replace(web, types=types, M=np.ldexp(web.M, j), sc=np.ldexp(web.sc, j))
        assert scaled.unit_exponent == web.unit_exponent + j
    ghost = AttackerTypeSpec("ghost", False, np.zeros(4), np.zeros(4))
    assert dataclasses.replace(web, types=(ghost,), M=0.0, sc=np.zeros((4, 4))).unit_exponent == 0


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


def weighted(alpha: float):
    """The web domain as a run at switching-cost weight ``alpha`` resolves it."""
    return resolve_domain("web", builtin_scenario("web-evolving"), alpha, 10)


def test_expected_reward_subtracts_loss_and_weighted_cost(web):
    dh_only = belief(web, [0.0, 1.0, 0.0])
    # s=PHP|MySQL, a=Python|MySQL: 200 - 0.7*43 - 1.0*20
    assert expected_reward_table(web, dh_only)[0, 2] == pytest.approx(149.9)
    assert expected_reward_table(weighted(0.0), dh_only)[0, 2] == pytest.approx(169.9)


def test_expected_reward_monotone_in_alpha(web):
    dh_only = belief(web, [0.0, 1.0, 0.0])
    rewards = [expected_reward_table(weighted(a), dh_only)[0, 3] for a in (0.0, 0.5, 1.0)]
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
            assert rw[s, a] == pytest.approx(web.M - loss - web.sc[s, a])
            assert pr[s, a] == pytest.approx(float(np.sum(post * web.mu_table[:, a])))


def test_posterior_shape_is_checked(web):
    table = belief(web, [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        expected_attack_loss_table(web, table[:2])
    with pytest.raises(DomainError):
        expected_reward_table(web, table[:, :2])


@pytest.mark.parametrize("name", ["web", "net2", "net3", "net4"])
def test_belief_tables_are_bitwise_np_einsum(name):
    # Both tables call einsum's C entry point, a private numpy name, directly;
    # this test guards that call for as long as it stays.
    if name == "web":
        domain = make_web_app_domain()
    else:
        domain = make_network_domain(np.random.default_rng(0), n_nodes=int(name[-1]))
    n, S = domain.n_types, domain.n_configs
    rng = np.random.default_rng(13)
    for _ in range(10):
        table = rng.random((n, S, S))
        table[rng.random(table.shape) < 0.4] = 0.0
        loss = np.einsum("tsa,ta->sa", table, domain.damage_table)
        prob = np.clip(np.einsum("tsa,ta->sa", table, domain.mu_table), 0.0, 1.0)
        for given in (table, np.asfortranarray(table), table.tolist()):
            assert expected_attack_loss_table(domain, given).tobytes() == loss.tobytes()
            assert success_prob_table(domain, given).tobytes() == prob.tobytes()
    for wrong in (table[:1], table[:, :1], table[:, :, :1], table[0], table.tolist()[:1]):
        with pytest.raises(DomainError, match="posterior table must have shape"):
            expected_attack_loss_table(domain, wrong)
        with pytest.raises(DomainError, match="posterior table must have shape"):
            success_prob_table(domain, wrong)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_domain_json_round_trip(web, tmp_path):
    path = tmp_path / "web.json"
    save_domain(web, str(path))
    loaded = load_domain(str(path))
    assert loaded.space.labels() == web.space.labels()
    assert loaded.type_ids() == web.type_ids()
    np.testing.assert_allclose(loaded.sc, web.sc)
    np.testing.assert_allclose(loaded.mu_table, web.mu_table)
    np.testing.assert_allclose(loaded.loss_table, web.loss_table)
    assert loaded.M == web.M and loaded.gamma == web.gamma
    assert loaded.unknown_index == web.unknown_index


def test_read_json_maps_malformed_input_to_a_domain_error(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"a": [1, 2.5]}', encoding="utf-8")
    assert read_json(str(path), "test JSON") == {"a": [1, 2.5]}
    for content in (b"{", b"\xff\xfe{}", b""):  # truncated, not UTF-8, empty
        path.write_bytes(content)
        with pytest.raises(DomainError, match="malformed test JSON"):
            read_json(str(path), "test JSON")
    with pytest.raises(FileNotFoundError):  # an unusable path stays an OSError
        read_json(str(tmp_path / "missing.json"), "test JSON")


def test_write_json_refuses_nan_before_opening_the_file(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(DomainError, match="cannot write .*out.json: Out of range float"):
        write_json(str(path), {"M": float("nan")})
    assert not path.exists()


def test_is_index_takes_python_and_numpy_integers_only():
    for value in (0, 3, -1, np.int64(2), np.uint8(1), np.intp(0)):
        assert is_index(value), value
    for value in (True, False, np.bool_(True), 1.0, np.float64(2.0), "1", None, [0]):
        assert not is_index(value), value


def test_is_index_array_is_the_rule_for_a_whole_array():
    for values in ([0, 3, 1], np.array([2], dtype=np.uint8), np.zeros(0, dtype=np.int32)):
        assert is_index_array(np.asarray(values), 4), values
    bad = (
        [0, 4],  # past the end
        [-1, 0],  # would index from the end
        [1.0, 0.0],
        [True, False],  # a mask, not positions
        [[0, 1]],
        3,
        [],  # reads as a float array
    )
    for values in bad:
        assert not is_index_array(np.asarray(values), 4), values
    assert not is_index_array(np.array([0, 1], dtype=np.uint64), 1)


def same_extreme(got, want) -> bool:
    """``got`` is ``want`` as a Python scalar, NaN for NaN, but for the sign of a zero."""
    if type(got) is not type(want.item()):
        return False
    if np.isnan(want):
        return np.isnan(got)
    return got == want and (want == 0 or np.asarray(got, want.dtype).tobytes() == want.tobytes())


def test_extremum_is_the_ufunc_reduction_read_by_index():
    # Every caller compares the extreme with a threshold, so only the sign of a
    # zero may differ from np.minimum.reduce / np.maximum.reduce.
    big, tiny, nan, inf = 2.0**1000, 2.0**-1000, np.nan, np.inf
    int64 = np.iinfo(np.int64)
    cases = [
        np.array(v) for v in (
            [3.0, -1.5, 2.0], [nan, 1.0, -1.0], [1.0, -1.0, nan], [2.0, nan, -3.0, nan],
            [nan], [inf, -inf, 0.5], [-inf, -inf], [inf], [big, -big, 1.5 * big, -tiny],
            [tiny, -tiny, 3 * tiny, 5e-324, -5e-324], [-0.0, 0.0, -0.0], [0.0, -0.0],
            [[1.0, nan], [-big, inf]], [3, -7, 2**62], [int64.min, 0, int64.max], [5],
        )
    ] + [np.array([0, 255, 7], dtype=np.uint8), np.array([2**64 - 1, 0], dtype=np.uint64)]
    rng = np.random.default_rng(7)
    for _ in range(300):
        values = rng.normal(size=int(rng.integers(1, 49))) * 2.0 ** rng.integers(-1000, 1000)
        for special in (nan, inf, -inf):
            if rng.random() < 0.2:
                values[rng.integers(values.size)] = special
        cases.append(values)
    for values in cases:
        for greatest, reduce in ((False, np.minimum.reduce), (True, np.maximum.reduce)):
            got, want = extremum(values, None, greatest=greatest), reduce(values, axis=None)
            assert same_extreme(got, want), (values, greatest, got, want)
    for dtype in (float, np.int64, np.uint8):
        empty = np.zeros((0,), dtype=dtype)
        assert extremum(empty, "none") == extremum(empty, "none", greatest=True) == "none"


def test_json_integer_checks_its_least_value():
    assert json_integer(3, "size", least=3) == 3
    assert json_integer(-5, "size") == -5  # no least, no range
    with pytest.raises(DomainError, match="^size must be >= 1$"):
        json_integer(0, "size", least=1)
    for value in (True, 2.0, "2", None):  # the type is checked before the range
        with pytest.raises(DomainError, match="size must be an integer"):
            json_integer(value, "size", least=1)


def test_domain_from_dict_reports_missing_fields(web):
    data = domain_to_dict(web)
    del data["M"]
    with pytest.raises(DomainError):
        domain_from_dict(data)
    data = domain_to_dict(web)
    del data["switching_cost"]["PHP|MySQL"]
    with pytest.raises(DomainError, match=r"missing state 'PHP\|MySQL'"):
        domain_from_dict(data)
    data = domain_to_dict(web)
    del data["switching_cost"]["PHP|MySQL"]["Python|MySQL"]
    with pytest.raises(DomainError, match=r"missing pair \('PHP\|MySQL', 'Python\|MySQL'\)"):
        domain_from_dict(data)


def test_domain_from_dict_rejects_factor_values_that_are_not_a_list(web):
    # tuple("PY") would read as the two values "P" and "Y".
    data = domain_to_dict(web)
    data["factors"][0]["values"] = "PY"
    with pytest.raises(DomainError, match="values must be a list"):
        domain_from_dict(data)
    data["factors"][0]["values"] = ["PHP", 7]
    with pytest.raises(DomainError, match="values must be a list"):
        domain_from_dict(data)


@pytest.mark.parametrize("where", ["state", "action"])
def test_domain_from_dict_rejects_unknown_switching_cost_labels(web, where):
    # A typo'd key next to the full table, as the mu and loss maps already reject.
    data = domain_to_dict(web)
    if where == "state":
        data["switching_cost"]["PHP|MySQ"] = dict(data["switching_cost"]["PHP|MySQL"])
    else:
        data["switching_cost"]["PHP|MySQL"]["Pyton|MySQL"] = 1.0
    with pytest.raises(DomainError, match="unknown configuration label"):
        domain_from_dict(data)


def test_domain_from_dict_rejects_an_attacker_type_id_that_is_not_a_string(web):
    # Scenarios name types by JSON object key, so a numeric id could never be named.
    data = domain_to_dict(web)
    data["attacker_types"][0]["id"] = 7
    with pytest.raises(DomainError, match="id must be a string"):
        domain_from_dict(data)
