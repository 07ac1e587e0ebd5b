"""Unit tests for the decayed-count attacker-type estimator."""

import dataclasses
import math

import numpy as np
import pytest

from mtdsim.domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    success_prob_table,
    write_json,
)
from mtdsim.cli import main
from mtdsim.environments import make_network_domain, make_web_app_domain
from mtdsim.estimator import COUNT_FLOOR, ThreatEstimator
from oracles import recording, reference_posterior_table


def one_cell_domain():
    """One configuration, three types: capable, unknown, and incapable."""
    space = ConfigSpace((FactorSpec("cfg", ("only",)),))
    types = (
        AttackerTypeSpec("capable", False, np.array([0.5]), np.array([10.0])),
        AttackerTypeSpec("unknown", True, np.array([0.9]), np.array([100.0])),
        AttackerTypeSpec("incapable", False, np.array([0.0]), np.array([50.0])),
    )
    return DomainInfo(space, types, np.zeros((1, 1)), 200.0, 0.9)


def with_counts(domain, counts, beta=2.0):
    """An estimator holding ``counts``, set the way a checkpoint sets them."""
    data = {**ThreatEstimator(domain, beta=beta).to_dict(), "counts": np.asarray(counts).tolist()}
    return ThreatEstimator.from_dict(domain, data)


def test_beta_validation():
    for beta in (0.5, np.inf, np.nan):
        with pytest.raises(DomainError):
            ThreatEstimator(one_cell_domain(), beta=beta)
    ThreatEstimator(one_cell_domain(), beta=1.0)  # no decay is allowed


def test_update_decays_then_credits():
    four = np.array([4.0, 0.0, 0.0]).reshape(3, 1, 1)
    est = with_counts(one_cell_domain(), four, beta=2.0)
    est.update(0, 0, 0, phi=0)
    assert est.counts[0, 0, 0] == pytest.approx(2.0)
    est = with_counts(one_cell_domain(), four, beta=2.0)
    est.update(0, 0, 0, phi=1)
    assert est.counts[0, 0, 0] == pytest.approx(3.0)  # 4/2 + 1


def test_decay_is_global_across_cells():
    web = make_web_app_domain()
    counts = np.zeros((3, 4, 4))
    counts[1, 0, 0] = 4.0
    est = with_counts(web, counts, beta=2.0)
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


@pytest.mark.parametrize("state, action", [(-1, 0), (0, -1), (4, 0), (0, 4)])
def test_update_rejects_a_credited_cell_out_of_range(state, action):
    est = ThreatEstimator(make_web_app_domain())
    with pytest.raises(DomainError, match="out of range"):
        est.update(0, state, action, phi=1)  # -1 would credit state S-1 by negative indexing
    est.update(0, state, action, phi=0)  # no credit, no check needed
    assert not est.counts.any()


@pytest.mark.parametrize("state, action", [(-1, 0), (0, -1), (4, 0), (0, 4)])
def test_posterior_rejects_a_cell_out_of_range(state, action):
    est = ThreatEstimator(make_web_app_domain())
    with pytest.raises(DomainError, match="out of range"):
        est.posterior(state, action)  # -1 would read state S-1 by negative indexing


@pytest.mark.parametrize("bad", [True, np.bool_(False), 1.0, np.float64(0.0), "0", None])
def test_update_and_posterior_take_only_integer_indices(bad):
    est = ThreatEstimator(make_web_app_domain())
    for args in ((bad, 0, 2), (0, bad, 2), (0, 2, bad)):
        with pytest.raises(DomainError, match="out of range"):
            est.update(*args, phi=1)  # a boolean would credit every cell of its mask
    for args in ((bad, 0), (0, bad)):
        with pytest.raises(DomainError, match="out of range"):
            est.posterior(*args)  # a boolean would return a (3, 1, 4) block
    assert not est.counts.any()
    est.update(np.int64(0), np.int64(2), np.uint8(1), phi=1)
    assert est.counts[0, 2, 1] == 1.0 and est.posterior(np.int64(2), np.uint8(1)).shape == (3,)


def test_counts_are_read_only_to_callers():
    est = ThreatEstimator(make_web_app_domain())
    est.update(0, 1, 2, phi=1)
    with pytest.raises(ValueError, match="read-only"):
        est.counts[0, 1, 2] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        est.counts[...] *= 2.0
    with pytest.raises(AttributeError):
        est.counts = np.zeros((3, 4, 4))
    assert est.counts[0, 1, 2] == 1.0
    table = est.posterior_table()
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1.0


def test_posterior_normalizes_capability_scores():
    counts = np.zeros((3, 1, 1))
    counts[0, 0, 0] = 2.0  # score 2 / 0.5 = 4
    counts[1, 0, 0] = 1.0  # unknown scores with rate 1 -> 1
    counts[2, 0, 0] = 3.0  # incapable: excluded no matter the count
    est = with_counts(one_cell_domain(), counts)
    np.testing.assert_allclose(est.posterior(0, 0), [0.8, 0.2, 0.0])


def test_posterior_scale_invariance():
    counts = np.zeros((3, 1, 1))
    counts[0, 0, 0] = 2.0
    counts[1, 0, 0] = 1.0
    before = with_counts(one_cell_domain(), counts).posterior(0, 0)
    est = with_counts(one_cell_domain(), counts * 17.0)
    np.testing.assert_allclose(est.posterior(0, 0), before)


def test_cold_posterior_is_uniform_over_capable():
    est = ThreatEstimator(one_cell_domain())
    np.testing.assert_allclose(est.posterior(0, 0), [0.5, 0.5, 0.0])


def test_posterior_zero_when_no_type_is_capable():
    space = ConfigSpace((FactorSpec("cfg", ("only",)),))
    types = (AttackerTypeSpec("harmless", False, np.array([0.0]), np.array([0.0])),)
    dom = DomainInfo(space, types, np.zeros((1, 1)), 200.0, 0.9)
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


def faint_web_domain():
    """The web domain with the first type's rates scaled by 1e-290.

    Its scores reach about 1e290: in range, but past it under a scale of 2^100."""
    web = make_web_app_domain()
    faint = dataclasses.replace(web.types[0], mu=web.types[0].mu * 1e-290)
    return dataclasses.replace(web, types=(faint, *web.types[1:]))


REFERENCE_DOMAINS = {
    "web": make_web_app_domain,
    "pg-only-dh": lambda: make_web_app_domain(unknown_variant="pg-only-dh"),
    "net3": lambda: make_network_domain(np.random.default_rng(0), n_nodes=3),
    "faint-web": faint_web_domain,
}

# Power-of-two betas keep the counts under a scale; 2^511 and up fold it back
# into the table every step or every other step.
STREAM_BETAS = [1.0, 1.2, 2.0, 4.0, 2.0**511, 2.0**512, 2.0**1023]


def folds_twice(name: str, beta: float) -> bool:
    """Whether a stream folds the scale back at least twice: at the three
    largest betas, and on faint-web, whose credits pass ``_safe_entry`` under
    a scale of about 2^57, at betas 2 and 4."""
    return beta >= 2.0**511 or name == "faint-web" and beta in (2.0, 4.0)


def counted_folds(est: ThreatEstimator) -> list[float]:
    """The scale at each fold of ``est`` from now on, recorded as it folds."""
    folds, fold = [], est._fold

    def recorded():
        folds.append(est._scale)
        fold()

    est._fold = recorded
    return folds


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


@pytest.mark.parametrize("beta", STREAM_BETAS)
@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_the_table_never_holds_a_negative_zero(name, beta):
    # posterior_table keeps its last table when a rebuild has the same bytes,
    # which decide what == does only while the table holds no -0.0 (nor NaN).
    # The stream starts from a checkpoint whose zero counts are written -0.0.
    domain = REFERENCE_DOMAINS[name]()
    rng = np.random.default_rng(13)
    n, s = domain.n_types, domain.n_configs
    counts = np.where(rng.random((n, s, s)) < 0.2, rng.integers(1, 4, (n, s, s)), -0.0)
    est = with_counts(domain, counts, beta=beta)
    for _ in range(250):
        table = est.posterior_table()
        assert not np.signbit(table).any() and not np.signbit(est.counts).any()
        tau, state, action = (int(v) for v in rng.integers((n, s, s)))
        est.update(tau, state, action, int(rng.random() < 0.6))


def dense_least(counts: np.ndarray) -> float:
    """The smallest nonzero count, recounted over the whole table."""
    nonzero = counts[counts > 0.0]
    return float(nonzero.min()) if nonzero.size else math.inf


@pytest.mark.parametrize("beta", STREAM_BETAS)
@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_the_table_is_kept_exactly_while_the_belief_has_not_moved(name, beta):
    # A quiet start on the all-zero table, then bursts of credits on three
    # cells, each followed by a quiet stretch long enough for every count to
    # snap at beta = 1.2 (1.2**160 > 1e12).  The counts and the least count are
    # compared bitwise with a table that decays on every step, also where it
    # is all zero.  The estimator hands back the same object exactly when the
    # bytes are the same, whichever of its rules marked the table stale.
    domain = REFERENCE_DOMAINS[name]()
    est = ThreatEstimator(domain, beta=beta)
    folds = counted_folds(est)
    reference = np.zeros_like(est.counts)
    rng = np.random.default_rng(11)
    n, S = domain.n_types, domain.n_configs
    cells = [tuple(int(v) for v in rng.integers(S, size=2)) for _ in range(3)]
    table = est.posterior_table()
    for _ in range(20):
        est.update(0, 0, 0, 0)
        reference /= beta
        assert est.counts.tobytes() == reference.tobytes()
        assert est.posterior_table() is table
    seen = {"credit": 0, "snap": 0, "multi-type decay": 0, "kept": 0, "moved": 0}
    for step in range(3 * 220):
        before = est.counts.copy()
        phi = step % 220 < 60 and rng.random() < 0.5
        tau = int(rng.integers(n))
        state, action = cells[int(rng.integers(3))]
        est.update(tau, state, action, phi)
        reference /= beta
        reference[reference < COUNT_FLOOR] = 0.0
        if phi:
            reference[tau, state, action] += 1.0
        assert est.counts.tobytes() == reference.tobytes()
        assert est._least == dense_least(reference)
        snap = bool(np.any((before > 0.0) & (before / beta < COUNT_FLOOR)))
        multi = bool(np.any((before > 0.0).sum(axis=0) >= 2))
        seen["credit"] += phi
        seen["snap"] += snap
        seen["multi-type decay"] += multi and not (phi or snap)
        last, table = table, est.posterior_table()
        assert table.tobytes() == reference_posterior_table(est).tobytes()
        assert (table is last) == (table.tobytes() == last.tobytes())
        seen["kept"] += table is last
        seen["moved"] += table is not last
    assert seen["credit"] and seen["kept"] and seen["moved"]
    if beta > 1.0:
        assert seen["snap"]
    if beta == 1.2:
        assert seen["multi-type decay"]
    assert (len(folds) >= 2) == folds_twice(name, beta), folds


ORACLE_DOMAINS = {name: REFERENCE_DOMAINS[name] for name in ("web", "net3", "faint-web")}


@pytest.mark.parametrize("beta", STREAM_BETAS)
@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_update_streams_match_a_dense_recount_and_the_reference_table(name, beta):
    # Bursts of credits (to the cell holding the least count, to empty cells,
    # by the unknown type, or anywhere), each followed by a quiet stretch
    # long enough for a count of 1 to snap, with a rare credit inside it so
    # that some counts snap while others live on.  Indices come as Python or
    # numpy integers.  The estimator keeps its least count without a dense
    # recount; after every update it must equal one, and the table must be
    # the reference formula's, handed out anew exactly when its bytes change.
    domain = ORACLE_DOMAINS[name]()
    est = ThreatEstimator(domain, beta=beta)
    folds = counted_folds(est)
    reference = np.zeros_like(est.counts)
    rng = np.random.default_rng(12)
    n, S = domain.n_types, domain.n_configs
    quiet = 10 if beta == 1.0 else math.ceil(math.log(1.0 / COUNT_FLOOR, beta)) + 2
    seen = dict.fromkeys(["least", "empty", "unknown", "numpy", "snap", "kept", "moved"], 0)
    table = est.posterior_table()
    for step in range(3 * (30 + quiet)):
        kind = "burst" if step % (30 + quiet) < 30 else "quiet"
        draw = rng.random()
        tau, state, action = (int(v) for v in rng.integers((n, S, S)))
        phi = kind == "burst" or draw < 0.02
        if kind == "burst" and draw < 0.3 and reference.any():
            least = np.where(reference > 0.0, reference, np.inf)
            tau, state, action = np.unravel_index(int(least.argmin()), reference.shape)
            seen["least"] += 1
        elif kind == "burst" and draw < 0.6:
            tau, state, action = (int(v) for v in rng.choice(np.argwhere(reference == 0.0)))
            seen["empty"] += 1
        elif kind == "burst" and draw < 0.75:
            tau = domain.unknown_index
            seen["unknown"] += 1
        if rng.random() < 0.5:
            tau, state, action = np.int64(tau), np.intp(state), np.uint8(action)
            seen["numpy"] += phi
        before = reference.copy()
        est.update(tau, state, action, int(phi))
        reference /= beta
        reference[reference < COUNT_FLOOR] = 0.0
        if phi:
            reference[tau, state, action] += 1.0
        seen["snap"] += bool(np.any((before > 0.0) & (before / beta < COUNT_FLOOR)))
        assert est.counts.tobytes() == reference.tobytes()
        assert est._least == dense_least(reference)
        last, table = table, est.posterior_table()
        assert table.tobytes() == reference_posterior_table(est).tobytes()
        assert (table is last) == (table.tobytes() == last.tobytes())
        seen["kept" if table is last else "moved"] += 1
    assert all(seen[k] for k in ("least", "empty", "unknown", "numpy", "kept", "moved")), seen
    assert bool(seen["snap"]) == (beta > 1.0), seen
    assert (len(folds) >= 2) == folds_twice(name, beta), folds
    # A bad index still raises, before the update decays or credits anything.
    counts, least = est.counts.copy(), est._least
    for bad in (True, np.bool_(False), -1, 1.0, np.float64(0.0), n + S):
        for args in ((bad, 0, 1), (0, bad, 1), (0, 1, bad)):
            with pytest.raises(DomainError, match="out of range"):
                est.update(*args, phi=1)
    assert est.counts.tobytes() == counts.tobytes() and est._least == least


def faint_target_domain(rate):
    """Two configurations and one type, with success rate ``rate`` against the first."""
    space = ConfigSpace((FactorSpec("cfg", ("a", "b")),))
    types = (AttackerTypeSpec("faint", False, np.array([rate, 0.5]), np.array([10.0, 10.0])),)
    return DomainInfo(space, types, np.zeros((2, 2)), 200.0, 0.9)


def test_a_count_over_a_rate_too_small_to_score_raises():
    # 1 / 1e-320 overflows: the rebuilt total of cell (1, 0) is +inf, which
    # would leave a NaN belief there for the planner to read.
    est = ThreatEstimator(faint_target_domain(1e-320), beta=2.0)
    est.update(0, 1, 0, phi=1)
    with pytest.raises(DomainError, match=r"'faint'.* success rate 1e-320 against 'a'"):
        est.posterior_table()
    with pytest.raises(DomainError, match=r"belief at \(1, 0\) past float range"):
        est.posterior(1, 0)


@pytest.mark.parametrize("rate", [0.5, 1e-308])
def test_a_long_stream_matches_the_dense_counts_and_belief(rate):
    # A count at (0, 1), credited every 20 steps, lives through 2199 decays by
    # 2, and the scale folds back at least twice.  At rate 1e-308 a score of
    # 1 / 1e-308 = 1e308 is in range only unscaled, so the table scales only
    # while its entries stay below about 0.45, and the last credit, at (1, 0),
    # lands unscaled.  Its belief is the dense formula's either way.
    est = ThreatEstimator(faint_target_domain(rate), beta=2.0)
    folds = counted_folds(est)
    reference = np.zeros_like(est.counts)
    for step in range(2200):
        est.update(0, 0, 1, phi=step % 20 == 0)
        reference /= 2.0
        reference[0, 0, 1] += step % 20 == 0
        assert est.counts.tobytes() == reference.tobytes()
        assert est._least == dense_least(reference)
    assert len(folds) >= 2, folds
    est.update(0, 1, 0, phi=1)
    table = est.posterior_table()
    assert table.tobytes() == reference_posterior_table(est).tobytes()
    assert table[0, 1, 0] == 1.0


def test_a_credit_past_the_safe_entry_under_the_scale_folds_it_back_first():
    # A checkpoint count of 2^1000 decays by 2^1022 to 2^-22 under a scale of
    # 2^1022, where a credit of 1 would hold an entry past 2^1021, the safe
    # entry of a rate of 0.5.
    counts = np.zeros((1, 2, 2))
    counts[0, 0, 0] = 2.0**1000
    est = with_counts(faint_target_domain(0.5), counts, beta=2.0**1022)
    folds = counted_folds(est)
    est.update(0, 1, 1, phi=1)
    assert folds == [2.0**1022] and est._scale == 1.0
    assert est.counts.tolist() == [[[2.0**-22, 0.0], [0.0, 1.0]]] and est._least == 2.0**-22
    assert est.posterior_table().tobytes() == reference_posterior_table(est).tobytes()


def test_a_count_too_large_to_scale_divides_until_it_can_be():
    # Two types of rate 1 make 2^1021 the safe entry.  A checkpoint count of
    # 1.75e308 is past it, so decays divide the table until it is not.  Under
    # a scale from the first decay, the count and a credit of 2^1021 after
    # 1021 decays would score past float range, where the dense belief is
    # in range.
    space = ConfigSpace((FactorSpec("cfg", ("only",)),))
    types = tuple(AttackerTypeSpec(t, False, np.ones(1), np.ones(1)) for t in ("x", "y"))
    counts = np.array([1.75e308, 0.0]).reshape(2, 1, 1)
    est = with_counts(DomainInfo(space, types, np.zeros((1, 1)), 200.0, 0.9), counts)
    for _ in range(1020):
        est.update(0, 0, 0, phi=0)
    est.update(1, 0, 0, phi=1)
    reference = counts / 2.0**1021
    reference[1] += 1.0
    assert est.counts.tobytes() == reference.tobytes()
    assert est.posterior_table().tobytes() == reference_posterior_table(est).tobytes()


def test_a_rebuild_equal_to_the_kept_table_is_compared_once_and_dropped():
    # At beta = 1.2 every decay marks the table stale, but a cell with one
    # nonzero type still reads exactly 1.0, so the rebuild equals the table
    # handed out last.  That table records every numpy call it takes part in.
    est = ThreatEstimator(make_web_app_domain(), beta=1.2)
    est.update(1, 2, 3, phi=1)
    est._table = watched = recording(est.posterior_table())
    est.update(0, 2, 3, phi=0)
    watched.calls.clear()
    assert est.posterior_table() is watched
    assert watched.calls == ["tobytes"]  # the rebuild was compared with it ...
    watched.calls.clear()
    assert est.posterior_table() is watched
    assert watched.calls == []  # ... once: until the next update, nothing is


def harmless_target_domain():
    """Two configurations and no unknown type; none of the types can hit the second."""
    space = ConfigSpace((FactorSpec("cfg", ("a", "b")),))
    types = (
        AttackerTypeSpec("capable", False, np.array([0.5, 0.0]), np.array([10.0, 0.0])),
        AttackerTypeSpec("harmless", False, np.array([0.0, 0.0]), np.array([0.0, 0.0])),
    )
    return DomainInfo(space, types, np.zeros((2, 2)), 200.0, 0.9)


CHECKPOINT_DOMAINS = {
    **REFERENCE_DOMAINS,
    "net2": lambda: make_network_domain(np.random.default_rng(0), n_nodes=2),
    "one-cell": one_cell_domain,
    "harmless-target": harmless_target_domain,
}


def test_posterior_table_of_a_checkpoint_is_bitwise_the_reference_formula():
    # Cell by cell, no type, one type or several types hold counts, of any
    # type: also of a type that cannot score there (rate 0) and of the unknown
    # type.  Any 0 / 0 or x / 0 left in the rebuild raises here.
    seen = {"empty": 0, "one type": 0, "several types": 0, "cannot score": 0, "no fallback": 0}
    rng = np.random.default_rng(10)
    with np.errstate(all="raise"):
        for name, make in sorted(CHECKPOINT_DOMAINS.items()):
            domain = make()
            n, S = domain.n_types, domain.n_configs
            rates = domain.mu_table.copy()
            if domain.unknown_index is not None:
                rates[domain.unknown_index] = 1.0
            for beta in (1.0, 1.2, 2.0, 4.0):
                counts = np.zeros((n, S, S))
                for s, a in np.ndindex(S, S):
                    k = int(rng.integers(min(n, 3) + 1))
                    counts[rng.choice(n, size=k, replace=False), s, a] = 1.0 + rng.random(k)
                est = with_counts(domain, counts, beta=beta)
                assert est.posterior_table().tobytes() == reference_posterior_table(est).tobytes()
                held = (counts > 0.0).sum(axis=0)
                seen["empty"] += int((held == 0).sum())
                seen["one type"] += int((held == 1).sum())
                seen["several types"] += int((held >= 2).sum())
                seen["cannot score"] += int(((counts > 0.0) & (rates[:, None, :] == 0.0)).sum())
                seen["no fallback"] += int((rates == 0.0).all(axis=0).sum())
    assert all(seen.values()), seen


def test_a_checkpoint_whose_belief_passes_float_range_fails_at_the_load(tmp_path, capsys):
    # 1e308 over mainstream-hacker's rate of 0.32 against Python|MySQL.
    web = make_web_app_domain()
    data = ThreatEstimator(web).to_dict()
    counts = np.zeros((web.n_types, web.n_configs, web.n_configs))
    counts[web.type_index("mainstream-hacker"), 1, 0] = 1e308
    data["counts"] = counts.tolist()
    message = r"'mainstream-hacker': count 1e\+308 over success rate 0.32 .* at \(1, 0\) past"
    with pytest.raises(DomainError, match=message):
        ThreatEstimator.from_dict(web, data)
    path = tmp_path / "estimator.json"
    write_json(str(path), data)
    assert main(["dump-lp", "--estimator", str(path)]) == 2
    assert "past float range" in capsys.readouterr().err


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
    with pytest.raises(DomainError):  # json.load reads the non-standard Infinity as inf
        ThreatEstimator.from_dict(dom, dict(good, beta=np.inf))
    # Same types and shape, other configuration labels.
    renamed = ConfigSpace((web.space.factors[0], FactorSpec("database", ("MariaDB", "Postgres"))))
    other = DomainInfo(renamed, web.types, web.sc, web.M, web.gamma)
    with pytest.raises(DomainError):
        ThreatEstimator.from_dict(other, ThreatEstimator(web).to_dict())
