"""Defender strategies: the adaptive planner and the baselines it is compared to.

All strategies consume an :class:`~mtdsim.environments.MTDEnvironment` and a
seeded generator, and produce the environment's step records.  The adaptive
defender re-plans from its threat estimate; the baselines treat the problem
as a bandit over configurations.

``ata_fmdp_run`` and ``run_static`` draw from their generator only inside
``MTDEnvironment.step``, so each draws all its step uniforms up front with one
``env.uniforms(T, rng)`` call and steps on those.  The records and the
generator's final state are bitwise those of drawing step by step (see
``environments``); the drawn block grows with T, as the records do.  ``fpl``,
``eps-greedy`` and ``urs`` draw between steps and hand the generator itself
to every step.

``fpl`` resamples in chunks of ``RESAMPLE_CHUNK`` perturbation rows: an
update draws chunk after chunk, the last one cut at the cap ``l_max``, and
stops at the end of the first chunk in which the played configuration leads.
Only that schedule is fixed; how it is drawn is not.  After a first chunk
without a hit the rest of the cap is drawn in blocks of whole chunks, each of
at most ``RESAMPLE_BLOCK`` entries.  A hit in a block restores the generator
state saved before it and redraws the block up to the end of the hit's chunk.
One ``exponential`` call of r rows gives the doubles of its consecutive
chunks, so the trial count and the generator's end state are those of the
chunk-by-chunk loop.
"""

from __future__ import annotations

import numpy as np

from .alp import ALProblem, build_alp, extract_policy, solve_alp
from .domain import DomainError, DomainInfo, json_integer, json_number
from .environments import MTDEnvironment, StepRecord
from .estimator import DEFAULT_BETA, ThreatEstimator

DEFAULT_EPSILON = 0.2
DEFAULT_FPL_EXPLORE = 0.007
DEFAULT_FPL_RATE = 0.1
DEFAULT_FPL_LMAX = 1000
# Perturbation rows drawn per geometric-resampling round; it sets the RNG draw
# pattern, so changing it changes every fpl run.
RESAMPLE_CHUNK = 32
# Perturbation entries drawn at most at once past the first chunk (256 KiB of
# doubles), in whole chunks; it bounds memory and changes no draw.
RESAMPLE_BLOCK = 2**15


# Each hyperparameter has one check: the strategy that reads it runs it, and
# ``harness.resolve_run`` runs all of them before a run's first step.


def check_reopt_period(reopt_period: int | None) -> None:
    if reopt_period is not None:  # None plans only once
        json_integer(reopt_period, "reopt_period", least=1)


def check_epsilon(epsilon: float) -> None:
    if not 0.0 <= json_number(epsilon, "epsilon") <= 1.0:
        raise DomainError("epsilon must lie in [0, 1]")


def check_fpl(explore_prob: float, perturb_rate: float, l_max: int) -> None:
    if not 0.0 <= json_number(explore_prob, "exploration probability") <= 1.0:
        raise DomainError("exploration probability must lie in [0, 1]")
    # Written so that a NaN rate fails too; json_number and json_integer reject booleans.
    if not 0 < json_number(perturb_rate, "perturbation rate") < np.inf:
        raise DomainError("perturbation rate must be finite and > 0")
    json_integer(l_max, "the resample cap", least=1)


def ata_fmdp_run(
    domain: DomainInfo,
    env: MTDEnvironment,
    T: int,
    rng: np.random.Generator,
    reopt_period: int | None = 1,
    beta: float = DEFAULT_BETA,
) -> list[StepRecord]:
    """Adaptive threat-aware defender: estimate, re-plan, act, observe.

    Every ``reopt_period`` steps (``None`` = plan once at t=0 and never
    again) the current attacker-type belief is frozen into an approximate LP,
    solved, and turned into a greedy policy.  The estimator alone decides
    whether the belief moved, and hands back the table it handed out last
    until it does (see ``estimator``).  A re-plan under that same table
    computes nothing: ``build_alp`` recognises it by identity and returns the
    previous problem, and ``solve_alp`` and ``extract_policy`` return the
    weights and policy that problem keeps.  A re-plan under a new table
    rebuilds only the bounds of the previous program and starts on its
    working set of rows, from its last LP solution.
    After each step the belief is updated with the observed (type, success)
    outcome.
    """
    check_reopt_period(reopt_period)
    draws = env.uniforms(T, rng)
    estimator = ThreatEstimator(domain, beta=beta)
    problem: ALProblem | None = None
    policy: np.ndarray | None = None
    records: list[StepRecord] = []
    for t in range(T):
        if policy is None or (reopt_period is not None and t % reopt_period == 0):
            posterior = estimator.posterior_table()
            problem = build_alp(domain, posterior, previous=problem)
            policy = extract_policy(problem, solve_alp(problem))
        state = env.state
        action = policy.item(state)
        record = env.step(action, draws)
        tau = domain.type_index(record.attacker_type)
        estimator.update(tau, state, action, record.phi)
        records.append(record)
    return records


class EpsGreedyStrategy:
    """Epsilon-greedy over configurations with per-action reward running means.

    Values are not conditioned on the current state: since the successor is
    the action itself, each configuration's mean (switching costs included as
    observed) is treated as that configuration's worth.  Unplayed actions
    compare as 0.
    """

    def __init__(self, domain: DomainInfo, epsilon: float = DEFAULT_EPSILON):
        check_epsilon(epsilon)
        self.epsilon = epsilon
        self.means = np.zeros(domain.n_configs)
        self.pulls = np.zeros(domain.n_configs, dtype=int)

    def select(self, rng: np.random.Generator) -> int:
        if rng.random() < self.epsilon:
            return int(rng.integers(self.means.size))
        return int(self.means.argmax())  # ties: lowest action index

    def update(self, action: int, reward: float) -> None:
        # As Python numbers: the same IEEE double arithmetic as on numpy scalars.
        n = self.pulls.item(action)
        self.means[action] = (self.means.item(action) * n + reward) / (n + 1)
        self.pulls[action] = n + 1


class FplMtdStrategy:
    """Follow-the-perturbed-leader over configurations.

    Maintains a cumulative reward estimate per configuration.  Selection
    explores uniformly with a small probability and otherwise plays the
    leader under i.i.d. exponential perturbations.  Updates use geometric
    resampling: perturbations are redrawn until the played configuration
    would be selected again (capped), and the observed reward times the trial
    count is credited to it.
    """

    def __init__(
        self,
        domain: DomainInfo,
        explore_prob: float = DEFAULT_FPL_EXPLORE,
        perturb_rate: float = DEFAULT_FPL_RATE,
        l_max: int = DEFAULT_FPL_LMAX,
    ):
        check_fpl(explore_prob, perturb_rate, l_max)
        self.explore_prob = explore_prob
        self.perturb_rate = perturb_rate
        self.l_max = l_max
        self.cumulative = np.zeros(domain.n_configs)

    def _leader(self, z: np.ndarray) -> int:
        return int((self.cumulative + z).argmax())

    def select(self, rng: np.random.Generator) -> int:
        n = self.cumulative.shape[0]
        if rng.random() < self.explore_prob:
            return int(rng.integers(n))
        return self._leader(rng.exponential(1.0 / self.perturb_rate, n))

    def resample_count(self, action: int, rng: np.random.Generator) -> int:
        """Trials of fresh perturbations until ``action`` leads again (capped).

        Draws by the schedule in the module docstring: a first chunk, then
        blocks, rewound to the end of the hit's chunk.
        """
        n = self.cumulative.shape[0]
        scale = 1.0 / self.perturb_rate
        trials, rows = 0, RESAMPLE_CHUNK
        while trials < self.l_max:
            rows = min(rows, self.l_max - trials)
            saved = rng.bit_generator.state if rows > RESAMPLE_CHUNK else None
            z = rng.exponential(scale, (rows, n))
            z += self.cumulative  # in place: IEEE addition commutes, so the same bits
            leaders = z.argmax(axis=1).tolist()
            if action in leaders:
                first = leaders.index(action)
                end = (first // RESAMPLE_CHUNK + 1) * RESAMPLE_CHUNK  # its chunk's end
                if end < rows:  # the chunks drew no further: redraw up to there
                    rng.bit_generator.state = saved
                    rng.exponential(scale, (end, n))
                return trials + first + 1
            trials += rows
            rows = max(1, RESAMPLE_BLOCK // (RESAMPLE_CHUNK * n)) * RESAMPLE_CHUNK
        return self.l_max

    def update(self, action: int, reward: float, rng: np.random.Generator) -> None:
        k = self.resample_count(action, rng)
        self.cumulative[action] += reward * k


def urs_select(n_actions: int, rng: np.random.Generator) -> int:
    """Uniform random switching."""
    return int(rng.integers(n_actions))


def run_eps_greedy(
    domain: DomainInfo,
    env: MTDEnvironment,
    T: int,
    rng: np.random.Generator,
    epsilon: float = DEFAULT_EPSILON,
) -> list[StepRecord]:
    strat = EpsGreedyStrategy(domain, epsilon)
    records = []
    for _ in range(T):
        action = strat.select(rng)
        record = env.step(action, rng)
        strat.update(action, record.reward)
        records.append(record)
    return records


def run_fpl_mtd(
    domain: DomainInfo,
    env: MTDEnvironment,
    T: int,
    rng: np.random.Generator,
    explore_prob: float = DEFAULT_FPL_EXPLORE,
    perturb_rate: float = DEFAULT_FPL_RATE,
    l_max: int = DEFAULT_FPL_LMAX,
) -> list[StepRecord]:
    strat = FplMtdStrategy(domain, explore_prob, perturb_rate, l_max)
    records = []
    for _ in range(T):
        action = strat.select(rng)
        record = env.step(action, rng)
        strat.update(action, record.reward, rng)
        records.append(record)
    return records


def run_urs(
    domain: DomainInfo, env: MTDEnvironment, T: int, rng: np.random.Generator
) -> list[StepRecord]:
    n = domain.n_configs
    return [env.step(urs_select(n, rng), rng) for _ in range(T)]


def run_static(
    domain: DomainInfo, env: MTDEnvironment, T: int, rng: np.random.Generator, config_index: int
) -> list[StepRecord]:
    draws = env.uniforms(T, rng)
    return [env.step(config_index, draws) for _ in range(T)]


STRATEGY_NAMES = ("ata-fmdp", "fpl", "eps-greedy", "urs")


def run_strategy(
    name: str,
    domain: DomainInfo,
    env: MTDEnvironment,
    T: int,
    rng: np.random.Generator,
    reopt_period: int | None = 1,
    beta: float = DEFAULT_BETA,
    epsilon: float = DEFAULT_EPSILON,
    fpl_explore: float = DEFAULT_FPL_EXPLORE,
    fpl_rate: float = DEFAULT_FPL_RATE,
    fpl_lmax: int = DEFAULT_FPL_LMAX,
) -> list[StepRecord]:
    """Dispatch by CLI name; ``static:<config-label>`` plays one configuration."""
    if name == "ata-fmdp":
        return ata_fmdp_run(domain, env, T, rng, reopt_period=reopt_period, beta=beta)
    if name == "fpl":
        return run_fpl_mtd(domain, env, T, rng, fpl_explore, fpl_rate, fpl_lmax)
    if name == "eps-greedy":
        return run_eps_greedy(domain, env, T, rng, epsilon)
    if name == "urs":
        return run_urs(domain, env, T, rng)
    if name.startswith("static:"):
        label = name.split(":", 1)[1]
        return run_static(domain, env, T, rng, domain.space.index_of_label(label))
    raise DomainError(
        f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES} or static:<config-label>"
    )
