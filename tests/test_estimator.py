"""Unit tests for the decayed-count attacker-type estimator."""

import numpy as np
import pytest

from mtdsim.domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    success_prob_table,
)
from mtdsim.environments import make_network_domain, make_web_app_domain
from mtdsim.estimator import COUNT_FLOOR, ThreatEstimator
from oracles import reference_posterior_table


def one_cell_domain():
    """One configuration, three types: capable, unknown, and incapable."""
    space = ConfigSpace((FactorSpec("cfg", ("only",)),))
    types = (
        AttackerTypeSpec("capable", False, np.array([0.5]), np.array([10.0])),
        AttackerTypeSpec("unknown", True, np.array([0.9]), np.array([100.0])),
        AttackerTypeSpec("incapable", False, np.array([0.0]), np.array([50.0])),
    )
    return DomainInfo(space, types, np.zeros((1, 1)), 200.0, 0.9, 1.0)


def test_beta_validation():
    with pytest.raises(DomainError):
        ThreatEstimator(one_cell_domain(), beta=0.5)
    ThreatEstimator(one_cell_domain(), beta=1.0)  # no decay is allowed


def test_update_decays_then_credits():
    est = ThreatEstimator(one_cell_domain(), beta=2.0)
    est.counts[0, 0, 0] = 4.0
    est.update(0, 0, 0, phi=0)
    assert est.counts[0, 0, 0] == pytest.approx(2.0)
    est.counts[0, 0, 0] = 4.0
    est.update(0, 0, 0, phi=1)
    assert est.counts[0, 0, 0] == pytest.approx(3.0)  # 4/2 + 1


def test_decay_is_global_across_cells():
    web = make_web_app_domain()
    est = ThreatEstimator(web, beta=2.0)
    est.counts[1, 0, 0] = 4.0
    est.update(1, 0, 1, phi=1)
    assert est.counts[1, 0, 0] == pytest.approx(2.0)  # decayed though untouched
    assert est.counts[1, 0, 1] == pytest.approx(1.0)


def test_beta_one_keeps_raw_counts():
    est = ThreatEstimator(one_cell_domain(), beta=1.0)
    for _ in range(5):
        est.update(0, 0, 0, phi=1)
    assert est.counts[0, 0, 0] == pytest.approx(5.0)


def test_update_rejects_bad_type_index():
    est = ThreatEstimator(one_cell_domain())
    with pytest.raises(DomainError):
        est.update(3, 0, 0, phi=1)
    est.update(3, 0, 0, phi=0)  # no credit, no check needed


def test_posterior_normalizes_capability_scores():
    est = ThreatEstimator(one_cell_domain())
    est.counts[0, 0, 0] = 2.0  # score 2 / 0.5 = 4
    est.counts[1, 0, 0] = 1.0  # unknown scores with rate 1 -> 1
    est.counts[2, 0, 0] = 3.0  # incapable: excluded no matter the count
    np.testing.assert_allclose(est.posterior(0, 0), [0.8, 0.2, 0.0])


def test_posterior_scale_invariance():
    est = ThreatEstimator(one_cell_domain())
    est.counts[0, 0, 0] = 2.0
    est.counts[1, 0, 0] = 1.0
    before = est.posterior(0, 0)
    est.counts *= 17.0
    np.testing.assert_allclose(est.posterior(0, 0), before)


def test_cold_posterior_is_uniform_over_capable():
    est = ThreatEstimator(one_cell_domain())
    np.testing.assert_allclose(est.posterior(0, 0), [0.5, 0.5, 0.0])


def test_posterior_zero_when_no_type_is_capable():
    space = ConfigSpace((FactorSpec("cfg", ("only",)),))
    types = (AttackerTypeSpec("harmless", False, np.array([0.0]), np.array([0.0])),)
    dom = DomainInfo(space, types, np.zeros((1, 1)), 200.0, 0.9, 1.0)
    np.testing.assert_allclose(ThreatEstimator(dom).posterior(0, 0), [0.0])


def test_floor_snap_restores_the_fallback_after_forty_halvings():
    est = ThreatEstimator(one_cell_domain(), beta=2.0)
    est.update(0, 0, 0, phi=1)  # concentrate on the capable type
    np.testing.assert_allclose(est.posterior(0, 0), [1.0, 0.0, 0.0])
    for _ in range(39):
        est.update(0, 0, 0, phi=0)
    # 2^-39 is still above the floor: belief unchanged in relative terms.
    assert est.counts[0, 0, 0] > COUNT_FLOOR
    np.testing.assert_allclose(est.posterior(0, 0), [1.0, 0.0, 0.0])
    est.update(0, 0, 0, phi=0)  # 2^-40 snaps to zero
    assert est.counts[0, 0, 0] == 0.0
    np.testing.assert_allclose(est.posterior(0, 0), [0.5, 0.5, 0.0])


def test_posterior_table_matches_cellwise_posterior():
    web = make_web_app_domain()
    est = ThreatEstimator(web)
    rng = np.random.default_rng(3)
    for _ in range(60):
        est.update(int(rng.integers(3)), int(rng.integers(4)), int(rng.integers(4)),
                   phi=int(rng.random() < 0.5))
    table = est.posterior_table()
    assert table.shape == (3, 4, 4)
    np.testing.assert_allclose(table.sum(axis=0), np.ones((4, 4)))
    for s in range(4):
        for a in range(4):
            np.testing.assert_allclose(est.posterior(s, a), table[:, s, a])


REFERENCE_DOMAINS = {
    "web": make_web_app_domain,
    "pg-only-dh": lambda: make_web_app_domain(unknown_variant="pg-only-dh"),
    "net3": lambda: make_network_domain(np.random.default_rng(0), n_nodes=3),
}


@pytest.mark.parametrize("beta", [1.0, 1.2, 2.0, 4.0])
@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_posterior_table_is_bitwise_the_reference_formula(name, beta):
    domain = REFERENCE_DOMAINS[name]()
    est = ThreatEstimator(domain, beta=beta)
    rng = np.random.default_rng(10)
    n, s = domain.n_types, domain.n_configs
    for _ in range(250):
        # Any type may be credited, also where it is not capable.
        tau, state, action = (int(v) for v in rng.integers((n, s, s)))
        est.update(tau, state, action, int(rng.random() < 0.6))
        assert est.posterior_table().tobytes() == reference_posterior_table(est).tobytes()


def test_posterior_table_of_a_checkpoint_is_bitwise_the_reference_formula():
    # Counts in every cell, where a type is not capable too, and some empty cells.
    domain = make_web_app_domain(unknown_variant="pg-only-dh")
    assert np.any(domain.mu_table == 0.0)
    rng = np.random.default_rng(10)
    counts = rng.random((domain.n_types, domain.n_configs, domain.n_configs))
    counts[:, 0, :] = 0.0
    data = {**ThreatEstimator(domain).to_dict(), "counts": counts.tolist()}
    est = ThreatEstimator.from_dict(domain, data)
    assert est.posterior_table().tobytes() == reference_posterior_table(est).tobytes()


def test_web_cold_posterior_counts_unknown_everywhere():
    # The unknown type scores with rate 1 at every target, so it stays in the
    # fallback even against Python|Postgres, where its true rate is 0.
    web = make_web_app_domain()
    table = ThreatEstimator(web).posterior_table()
    np.testing.assert_allclose(table, np.full((3, 4, 4), 1 / 3))


def test_attack_success_prob_uses_catalogued_rates():
    web = make_web_app_domain()
    dh_only = np.zeros((3, 4, 4))
    dh_only[1] = 1.0
    assert success_prob_table(web, dh_only)[3, 0] == pytest.approx(0.7)
    heavy = np.zeros((3, 4, 4))
    heavy[2] = 2.0  # badly scaled belief still clamps
    assert success_prob_table(web, heavy)[0, 1] == 1.0


def test_serialization_round_trip(tmp_path):
    dom = one_cell_domain()
    est = ThreatEstimator(dom, beta=3.0)
    est.update(0, 0, 0, phi=1)
    est.update(1, 0, 0, phi=1)
    path = tmp_path / "estimator.json"
    est.save(str(path))
    loaded = ThreatEstimator.load(dom, str(path))
    assert loaded.beta == 3.0
    np.testing.assert_allclose(loaded.counts, est.counts)
    np.testing.assert_allclose(loaded.posterior(0, 0), est.posterior(0, 0))


def test_from_dict_validates_checkpoint():
    dom = one_cell_domain()
    good = ThreatEstimator(dom).to_dict()
    web = make_web_app_domain()
    with pytest.raises(DomainError):
        ThreatEstimator.from_dict(web, good)  # type ids differ
    bad_shape = dict(good, counts=np.zeros((3, 2, 2)).tolist())
    with pytest.raises(DomainError):
        ThreatEstimator.from_dict(dom, bad_shape)
    negative = dict(good, counts=np.full((3, 1, 1), -1.0).tolist())
    with pytest.raises(DomainError):
        ThreatEstimator.from_dict(dom, negative)
    # Same types and shape, other configuration labels.
    renamed = ConfigSpace((web.space.factors[0], FactorSpec("database", ("MariaDB", "Postgres"))))
    other = DomainInfo(renamed, web.types, web.sc, web.M, web.gamma, web.alpha)
    with pytest.raises(DomainError):
        ThreatEstimator.from_dict(other, ThreatEstimator(web).to_dict())
