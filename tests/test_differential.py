"""Whole runs on drawn domains against the reference loops.

Each case is drawn by ``draw_case`` from its own seed in ``CASE_SEEDS``, a
fixed list: a domain (the web domain in either variant, or a fresh 2- to
4-node network whose parameters the case's generator draws), a scenario of
one to three phases over ``HORIZONS`` steps, each phase a static mix drawn
from Dirichlet(0.3) over the domain's types or a most-adverse attacker, a
decay beta from ``BETAS``, a re-plan period of 1 or 3 and a random start
state, and the bandit baselines' parameters: an epsilon from ``EPSILONS``,
and an ``fpl`` exploration probability and resampling cap from
``FPL_EXPLORES`` and ``FPL_CAPS``.  ``ata_fmdp_run`` and
``oracles.reference_ata_fmdp_run`` play the case from one seed, and so does
each bandit baseline against its loop built from ``oracles.reference_step``
and the ``reference_fpl_*`` and ``reference_eps_*`` selections and updates;
each pair's step records must be bitwise equal, and its generators must end
in one state.  One
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
from mtdsim.strategies import (
    DEFAULT_FPL_EXPLORE,
    DEFAULT_FPL_LMAX,
    ata_fmdp_run,
    run_eps_greedy,
    run_fpl_mtd,
    run_urs,
)
from oracles import (
    reference_ata_fmdp_run,
    reference_eps_greedy_run,
    reference_fpl_run,
    reference_urs_run,
)

CASE_SEEDS = tuple(range(200))
DOMAIN_KINDS = ("web", "pg-only-dh", "net2", "net3", "net4")
BETAS = (1.0, 1.2, 2.0, 4.0)
REOPT_PERIODS = (1, 3)
HORIZONS = (20, 60)  # least and greatest, inclusive
DIRICHLET_ALPHA = 0.3
MOST_ADVERSE_SHARE = 0.3  # chance that a phase is most-adverse
EPSILONS = (0.05, 0.2, 0.6)
FPL_EXPLORES = (DEFAULT_FPL_EXPLORE, 0.3)
FPL_CAPS = (1, 40, DEFAULT_FPL_LMAX)  # 1 and 40 cut the resampling's chunks


@dataclass(frozen=True)
class Case:
    seed: int
    kind: str
    domain: DomainInfo
    scenario: Scenario
    start_state: int
    beta: float
    reopt_period: int
    epsilon: float
    fpl_explore: float
    fpl_cap: int

    def describe(self) -> str:
        phases = ", ".join(f"[{p.t_start}, {p.t_end}) {p.mode}" for p in self.scenario.phases)
        return (
            f"case seed {self.seed}: {self.kind}, start {self.start_state}, beta {self.beta}, "
            f"re-plan period {self.reopt_period}, epsilon {self.epsilon}, fpl explore "
            f"{self.fpl_explore} cap {self.fpl_cap}, phases {phases}"
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
    # Drawn last, so the draws above are those of the planner's cases alone.
    epsilon = EPSILONS[int(rng.integers(len(EPSILONS)))]
    fpl_explore = FPL_EXPLORES[int(rng.integers(len(FPL_EXPLORES)))]
    fpl_cap = FPL_CAPS[int(rng.integers(len(FPL_CAPS)))]
    return Case(
        seed, kind, domain, scenario, start_state, beta, reopt_period, epsilon, fpl_explore, fpl_cap
    )


def play(run, case: Case, **options) -> tuple[list, dict]:
    """The run's step records and its generator's final state."""
    env = MTDEnvironment(case.domain, case.scenario, case.start_state)
    rng = np.random.default_rng(case.seed)
    return run(case.domain, env, case.scenario.horizon, rng, **options), rng.bit_generator.state


# Each bandit baseline, its reference loop and the case's parameters for both.
BANDITS = {
    "fpl": (
        run_fpl_mtd,
        reference_fpl_run,
        lambda case: {"explore_prob": case.fpl_explore, "l_max": case.fpl_cap},
    ),
    "eps-greedy": (
        run_eps_greedy,
        reference_eps_greedy_run,
        lambda case: {"epsilon": case.epsilon},
    ),
    "urs": (run_urs, reference_urs_run, lambda case: {}),
}


def assert_bitwise_equal(ours: tuple[list, dict], theirs: tuple[list, dict], case: Case) -> None:
    (records, state), (want, want_state) = ours, theirs
    assert len(records) == len(want) == case.scenario.horizon
    for mine, other in zip(records, want):
        # == compares the rewards' values; their reprs tell the sign of a zero too.
        assert mine == other and repr(mine.reward) == repr(other.reward), (
            f"{case.describe()}: first divergence at t = {mine.t}: {mine} != {other}"
        )
    assert state == want_state, f"{case.describe()}: the generators end in different states"


def test_the_drawn_cases_cover_every_domain_kind_beta_period_and_phase_mode():
    cases = [draw_case(seed) for seed in CASE_SEEDS]
    assert {c.kind for c in cases} == set(DOMAIN_KINDS)
    assert {c.beta for c in cases} == set(BETAS)
    assert {c.reopt_period for c in cases} == set(REOPT_PERIODS)
    modes = {p.mode for c in cases for p in c.scenario.phases}
    assert modes == {STATIC_DIST, MOST_ADVERSE}
    assert {len(c.scenario.phases) for c in cases} == {1, 2, 3}
    assert {c.epsilon for c in cases} == set(EPSILONS)
    assert {c.fpl_explore for c in cases} == set(FPL_EXPLORES)
    assert {c.fpl_cap for c in cases} == set(FPL_CAPS)


@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_ata_fmdp_run_is_bitwise_the_reference_loop(seed):
    case = draw_case(seed)
    options = {"reopt_period": case.reopt_period, "beta": case.beta}
    ours = play(ata_fmdp_run, case, **options)
    assert_bitwise_equal(ours, play(reference_ata_fmdp_run, case, **options), case)


@pytest.mark.parametrize("bandit", sorted(BANDITS))
@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_bandit_run_is_bitwise_the_reference_loop(seed, bandit):
    case = draw_case(seed)
    run, reference_run, options = BANDITS[bandit]
    ours = play(run, case, **options(case))
    assert_bitwise_equal(ours, play(reference_run, case, **options(case)), case)
