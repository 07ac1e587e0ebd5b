"""Whole ``ata-fmdp`` runs on drawn domains against the reference loop.

Each case is drawn by ``draw_case`` from its own seed in ``CASE_SEEDS``, a
fixed list: a domain (the web domain in either variant, or a fresh 2- to
4-node network whose parameters the case's generator draws), a scenario of
one to three phases over ``HORIZONS`` steps, each phase a static mix drawn
from Dirichlet(0.3) over the domain's types or a most-adverse attacker, a
decay beta from ``BETAS``, a re-plan period of 1 or 3 and a random start
state.  ``ata_fmdp_run`` and ``oracles.reference_ata_fmdp_run`` play the
case from one seed, and their step records must be bitwise equal.  One
process builds many domains of each size, so the runs also cross the
package's per-size network structure and per-space basis, shared between
domains.  This is differential testing in the sense of McKeeman,
"Differential Testing for Software" (Digital Technical Journal 10(1), 1998).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from mtdsim.domain import DomainInfo
from mtdsim.environments import (
    MOST_ADVERSE,
    STATIC_DIST,
    MTDEnvironment,
    Scenario,
    ScenarioPhase,
    make_network_domain,
    make_web_app_domain,
)
from mtdsim.strategies import ata_fmdp_run
from oracles import reference_ata_fmdp_run

CASE_SEEDS = tuple(range(200))
DOMAIN_KINDS = ("web", "pg-only-dh", "net2", "net3", "net4")
BETAS = (1.0, 1.2, 2.0, 4.0)
REOPT_PERIODS = (1, 3)
HORIZONS = (20, 60)  # least and greatest, inclusive
DIRICHLET_ALPHA = 0.3
MOST_ADVERSE_SHARE = 0.3  # chance that a phase is most-adverse


@dataclass(frozen=True)
class Case:
    seed: int
    kind: str
    domain: DomainInfo
    scenario: Scenario
    start_state: int
    beta: float
    reopt_period: int

    def describe(self) -> str:
        phases = ", ".join(f"[{p.t_start}, {p.t_end}) {p.mode}" for p in self.scenario.phases)
        return (
            f"case seed {self.seed}: {self.kind}, start {self.start_state}, beta {self.beta}, "
            f"re-plan period {self.reopt_period}, phases {phases}"
        )


def draw_case(seed: int) -> Case:
    """The case of ``seed``: every choice comes from ``default_rng(seed)``, in a fixed order."""
    rng = np.random.default_rng(seed)
    kind = DOMAIN_KINDS[int(rng.integers(len(DOMAIN_KINDS)))]
    if kind.startswith("net"):
        domain = make_network_domain(rng, n_nodes=int(kind[3:]))
    else:
        domain = make_web_app_domain(None if kind == "web" else kind)
    horizon = int(rng.integers(HORIZONS[0], HORIZONS[1] + 1))
    n_phases = int(rng.integers(1, 4))
    cuts = np.sort(rng.choice(np.arange(1, horizon), size=n_phases - 1, replace=False))
    bounds = [0, *(int(c) for c in cuts), horizon]
    phases = []
    for start, end in zip(bounds, bounds[1:]):
        if rng.random() < MOST_ADVERSE_SHARE:
            phases.append(ScenarioPhase(start, end, MOST_ADVERSE))
        else:
            weights = rng.dirichlet(np.full(domain.n_types, DIRICHLET_ALPHA))
            dist = {t: float(w) for t, w in zip(domain.type_ids(), weights)}
            phases.append(ScenarioPhase(start, end, STATIC_DIST, dist))
    scenario = Scenario(f"drawn-{seed}", horizon, tuple(phases))
    start_state = int(rng.integers(domain.n_configs))
    beta = BETAS[int(rng.integers(len(BETAS)))]
    reopt_period = REOPT_PERIODS[int(rng.integers(len(REOPT_PERIODS)))]
    return Case(seed, kind, domain, scenario, start_state, beta, reopt_period)


def play(run, case: Case) -> list:
    env = MTDEnvironment(case.domain, case.scenario, case.start_state)
    return run(
        case.domain,
        env,
        case.scenario.horizon,
        np.random.default_rng(case.seed),
        reopt_period=case.reopt_period,
        beta=case.beta,
    )


def test_the_drawn_cases_cover_every_domain_kind_beta_period_and_phase_mode():
    cases = [draw_case(seed) for seed in CASE_SEEDS]
    assert {c.kind for c in cases} == set(DOMAIN_KINDS)
    assert {c.beta for c in cases} == set(BETAS)
    assert {c.reopt_period for c in cases} == set(REOPT_PERIODS)
    modes = {p.mode for c in cases for p in c.scenario.phases}
    assert modes == {STATIC_DIST, MOST_ADVERSE}
    assert {len(c.scenario.phases) for c in cases} == {1, 2, 3}


@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_ata_fmdp_run_is_bitwise_the_reference_loop(seed):
    case = draw_case(seed)
    ours, theirs = play(ata_fmdp_run, case), play(reference_ata_fmdp_run, case)
    assert len(ours) == len(theirs) == case.scenario.horizon
    for mine, other in zip(ours, theirs):
        # == compares the rewards' values; their reprs tell the sign of a zero too.
        assert mine == other and repr(mine.reward) == repr(other.reward), (
            f"{case.describe()}: first divergence at t = {mine.t}: {mine} != {other}"
        )
