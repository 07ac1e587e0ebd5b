"""Experiment harness: seeded scenario runs, hindsight bounds, and property checks.

Everything here is deterministic given the configuration: ``resolve_run``
fixes a run before its first step, and ``_play`` plays iteration ``i`` of the
run's strategy, and of each static configuration behind the hindsight bounds,
on a fresh environment at the start state with the generator ``seed + i``;
floats are written with ``repr`` (the shortest round-trip form), and every
CSV goes through ``_write_csv`` and every JSON file through
``domain.write_json``, both UTF-8 with LF line endings, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter

import numpy as np

from .alp import (
    build_alp,
    build_state_basis,
    exact_value,
    extract_policy,
    policy_iteration,
    solve_alp,
    value_estimates,
)
from .domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    expected_reward_table,
    json_integer,
    json_number,
    load_domain,
    write_json,
)
from .environments import (
    BUILTIN_SCENARIOS,
    NETWORK_DOMAIN,
    WEB_DOMAIN,
    MTDEnvironment,
    Scenario,
    StepRecord,
    builtin_scenario,
    load_scenario,
    make_network_domain,
    make_web_app_domain,
)
from .estimator import DEFAULT_BETA, ThreatEstimator, check_beta
from .strategies import (
    DEFAULT_EPSILON,
    DEFAULT_FPL_EXPLORE,
    DEFAULT_FPL_LMAX,
    DEFAULT_FPL_RATE,
    check_epsilon,
    check_fpl,
    check_reopt_period,
    run_strategy,
)

ROLLING_WINDOW = 50
# Default seed and sizes of the property checks, shared with `mtdsim verify`.
CHECK_SEED = 10
CHECK_SAMPLES = 10_000
CHECK_PERTURBATIONS = 100
CHECK_RUNS = 400
# The estimator-recovery check's two attacker types: attack mix and success rates.
CHECK_TYPE_MIX = (0.6, 0.4)
CHECK_SUCCESS_RATES = (0.5, 1.0)
# Strategy hyperparameters: forwarded to ``run_strategy`` by name, recorded in meta.json.
HYPERPARAMETERS = ("beta", "epsilon", "fpl_explore", "fpl_rate", "fpl_lmax")


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a batch of runs."""

    domain: str | None = None  # "web", "network", or a domain JSON path; None -> the scenario's
    scenario: str = "web-evolving"  # built-in name or a scenario JSON path
    strategy: str = "ata-fmdp"
    alpha: float = 1.0  # switching-cost weight, applied to the domain by resolve_domain
    timesteps: int | None = None  # None -> scenario horizon
    iterations: int = 10
    seed: int = 10
    reopt_period: int | None = 1  # None -> plan once at t=0
    out_dir: str | None = None
    start_state: str | None = None  # configuration label; None -> first enumerated
    include_hindsight: bool = True
    beta: float = DEFAULT_BETA
    epsilon: float = DEFAULT_EPSILON
    fpl_explore: float = DEFAULT_FPL_EXPLORE
    fpl_rate: float = DEFAULT_FPL_RATE
    fpl_lmax: int = DEFAULT_FPL_LMAX


@dataclass
class RunResult:
    """A resolved run, its per-iteration step records and its hindsight table.

    ``resolve_run`` fills the first five fields; ``run_experiment`` plays the
    records and the table.  The statistics are derived from those two.
    """

    config: ExperimentConfig
    domain: DomainInfo
    scenario: Scenario
    timesteps: int
    start_state: int  # index of the configuration every iteration starts in
    iteration_records: list[list[StepRecord]] = field(default_factory=list)
    static_table: dict[str, float] = field(default_factory=dict)

    @property
    def avg_rewards(self) -> np.ndarray:
        """The average reward of each iteration, shape (iterations,)."""
        runs = self.iteration_records
        # One pass into the (iterations, T) array a list of lists would make.
        rewards = np.fromiter(map(attrgetter("reward"), chain.from_iterable(runs)), float)
        return rewards.reshape(len(runs), -1).mean(axis=1)

    @property
    def mean_avg_reward(self) -> float:
        return float(self.avg_rewards.mean())

    @property
    def std_avg_reward(self) -> float:
        return float(self.avg_rewards.std())

    @property
    def best_static(self) -> float | None:
        return max(self.static_table.values()) if self.static_table else None

    @property
    def worst_static(self) -> float | None:
        return min(self.static_table.values()) if self.static_table else None


def resolve_scenario(ref: str) -> Scenario:
    """Built-in scenario names take priority; anything else is a file path."""
    if ref in BUILTIN_SCENARIOS:
        return builtin_scenario(ref)
    if os.path.exists(ref):
        return load_scenario(ref)
    raise DomainError(
        f"unknown scenario {ref!r}; expected one of {sorted(BUILTIN_SCENARIOS)} or a file path"
    )


def resolve_domain_name(domain: str | None, scenario: str) -> str:
    """The domain a run plays on: ``None`` names the one a built-in scenario is
    written for, and ``web`` for a scenario file.  Naming the other built-in
    domain for a built-in scenario raises ``DomainError``; a domain file goes
    with any scenario."""
    written_for = BUILTIN_SCENARIOS[scenario][0] if scenario in BUILTIN_SCENARIOS else None
    if domain is None:
        return written_for or WEB_DOMAIN
    if written_for not in (None, domain) and domain in (WEB_DOMAIN, NETWORK_DOMAIN):
        raise DomainError(
            f"scenario {scenario!r} is written for the {written_for!r} domain, not {domain!r}"
        )
    return domain


def resolve_domain(ref: str, scenario: Scenario, alpha: float, seed: int) -> DomainInfo:
    """Build or load the domain, then weight its switching costs for the run.

    Only the web domain has variants.  Every switching cost is scaled by the
    scenario's multiplier and then by ``alpha``, here and nowhere else.  The
    network domain's attacker parameters are drawn once from ``seed`` and
    then frozen, so every iteration (and every strategy) sees the same domain.
    """
    if not (np.isfinite(json_number(alpha, "alpha")) and alpha >= 0):
        raise DomainError("alpha must be finite and >= 0")
    if ref == WEB_DOMAIN:
        domain = make_web_app_domain(unknown_variant=scenario.domain_variant)
    elif ref == NETWORK_DOMAIN:
        domain = make_network_domain(np.random.default_rng(seed))
    elif os.path.exists(ref):
        domain = load_domain(ref)
    else:
        raise DomainError(f"unknown domain {ref!r}; expected 'web', 'network', or a file path")
    if ref != WEB_DOMAIN and scenario.domain_variant is not None:
        raise DomainError(f"only the web domain has variants, not {scenario.domain_variant!r}")
    # Costs are >= 0; Python floats overflow to inf without a warning.
    sc_max = alpha * (float(domain.sc.max(initial=0.0)) * scenario.sc_multiplier)
    if not np.isfinite(sc_max):
        raise DomainError(
            f"alpha {alpha!r} times the switching costs scaled by sc_multiplier "
            f"{scenario.sc_multiplier!r} is not finite"
        )
    return replace(domain, sc=alpha * (domain.sc * scenario.sc_multiplier))


def check_seed(seed) -> None:
    """A run's or a property check's seed must be a JSON integer >= 0."""
    json_integer(seed, "seed", least=0)


def resolve_run(config: ExperimentConfig) -> RunResult:
    """Everything a run fixes before its first step: scenario, sizes, domain, start state.

    A field of the wrong type is rejected first.  ``timesteps`` None means the
    scenario horizon; sizes the scenario cannot play are rejected, and so is
    every invalid hyperparameter, whether or not the strategy reads it
    (``meta.json`` records them all).  The returned config names the resolved
    domain.
    """
    for name in ("scenario", "strategy", "domain", "start_state", "out_dir"):
        value, optional = getattr(config, name), name in ("domain", "start_state", "out_dir")
        if not (isinstance(value, str) or optional and value is None):
            kind = "a string or None" if optional else "a string"
            raise DomainError(f"{name} must be {kind}, got {value!r}")
    if not isinstance(config.include_hindsight, bool):
        raise DomainError(f"include_hindsight must be a bool, got {config.include_hindsight!r}")
    scenario = resolve_scenario(config.scenario)
    check_seed(config.seed)
    json_integer(config.iterations, "iterations", least=1)
    timesteps = config.timesteps
    timesteps = scenario.horizon if timesteps is None else json_integer(timesteps, "timesteps")
    if not 1 <= timesteps <= scenario.horizon:
        raise DomainError(
            f"timesteps must lie in [1, {scenario.horizon}] (the scenario horizon), "
            f"got {timesteps}"
        )
    check_reopt_period(config.reopt_period)
    check_beta(config.beta)
    check_epsilon(config.epsilon)
    check_fpl(config.fpl_explore, config.fpl_rate, config.fpl_lmax)
    config = replace(config, domain=resolve_domain_name(config.domain, config.scenario))
    domain = resolve_domain(config.domain, scenario, config.alpha, config.seed)
    label = config.start_state
    start_state = 0 if label is None else domain.space.index_of_label(label)
    return RunResult(config, domain, scenario, timesteps, start_state)


def _play(run: RunResult, strategy: str) -> list[list[StepRecord]]:
    """The seed schedule: iteration ``i`` plays ``strategy`` on a fresh environment
    at the start state with ``default_rng(seed + i)``."""
    config = run.config
    return [
        run_strategy(
            strategy,
            run.domain,
            MTDEnvironment(run.domain, run.scenario, run.start_state),
            run.timesteps,
            np.random.default_rng(config.seed + i),
            reopt_period=config.reopt_period,
            **{name: getattr(config, name) for name in HYPERPARAMETERS},
        )
        for i in range(config.iterations)
    ]


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run one strategy across ``iterations`` seeded iterations and summarize."""
    run = resolve_run(config)
    run.iteration_records = _play(run, config.strategy)
    if config.include_hindsight:
        run.static_table = hindsight_bounds(run)
    if config.out_dir is not None:
        write_outputs(config.out_dir, run)
    return run


def hindsight_bounds(run: RunResult) -> dict[str, float]:
    """Mean average reward of every static configuration: the ``mean_avg_reward``
    of ``run`` played as ``static:<label>``."""
    return {
        label: replace(run, iteration_records=_play(run, f"static:{label}")).mean_avg_reward
        for label in run.domain.space.labels()
    }


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


@dataclass
class LinearityReport:
    """Fit of mean policy regret against the horizon for the punishing adversary."""

    horizons: tuple[int, ...]
    mean_regrets: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    first_action_prob: float

    @property
    def slope_relative_error(self) -> float:
        return abs(self.slope - self.first_action_prob) / self.first_action_prob


def theorem1_regret_experiment(
    horizons: tuple[int, ...] = (100, 500, 1000, 5000),
    n_runs: int = 400,
    seed: int = 10,
    n_configs: int = 2,
    switch_cost: float = 0.01,
) -> LinearityReport:
    """Policy regret of uniform random switching against the punishing adversary.

    The defender starts in configuration 0.  The adversary watches its first
    configuration; from the second step on, reward is 0 whenever that first
    configuration was the target, configuration 1, and 1 otherwise.  A uniform
    defender picks the target first with probability p = 1/n_configs and then
    can never undo it, so its expected regret versus the best constant
    sequence grows like p·T (plus the small switching-cost drag, which is why
    ``switch_cost`` must stay well below 1).
    """
    check_seed(seed)
    json_integer(n_configs, "n_configs", least=2)
    if not 0.0 < json_number(switch_cost, "switch_cost") <= 1.0:
        raise DomainError("switch cost must lie in (0, 1]")
    for horizon in horizons:
        json_integer(horizon, "horizon", least=1)
    json_integer(n_runs, "n_runs", least=1)
    if len(set(horizons)) < 2:
        raise DomainError("the linear fit needs two distinct horizons")
    rng = np.random.default_rng(seed)
    mean_regrets = np.zeros(len(horizons))
    for idx, horizon in enumerate(horizons):
        actions = rng.integers(n_configs, size=(n_runs, horizon))
        hit = actions[:, 0] == 1
        # One reward per step: all ones, except zero from step 2 on after a hit.
        reward_sums = np.where(hit, 1.0, float(horizon))
        previous = np.concatenate([np.zeros((n_runs, 1), dtype=int), actions[:, :-1]], axis=1)
        switch_costs = switch_cost * (actions != previous).sum(axis=1)
        # Constant sequences: the target earns 1 total, any other earns `horizon`.
        best_static = float(horizon)
        regrets = best_static - (reward_sums - switch_costs)
        mean_regrets[idx] = regrets.mean()
    x = np.asarray(horizons, dtype=float)
    slope, intercept = np.polyfit(x, mean_regrets, 1)
    residuals = mean_regrets - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((mean_regrets - mean_regrets.mean()) ** 2))
    return LinearityReport(
        horizons=tuple(horizons),
        mean_regrets=mean_regrets,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=1.0 - ss_res / ss_tot,
        first_action_prob=1.0 / n_configs,
    )


def avg_regret_bound_check(
    domain: DomainInfo, posterior_true: np.ndarray, posterior_est: np.ndarray
) -> tuple[float, float, bool]:
    """Value loss of planning under a misestimated posterior, against 2ε/(1−γ).

    ε is the sup-norm difference of the two induced reward tables; the policy
    optimal for the estimated rewards is evaluated exactly under the true
    rewards and its shortfall from the true optimum must be within the bound.
    """
    r_true = expected_reward_table(domain, posterior_true)
    r_est = expected_reward_table(domain, posterior_est)
    epsilon = float(np.max(np.abs(r_true - r_est)))
    v_true, _ = policy_iteration(domain, posterior_true)
    _, policy_est = policy_iteration(domain, posterior_est)
    v_policy = exact_value(domain, policy_est, posterior_true)
    gap = float(np.max(v_true - v_policy))
    bound = 2.0 * epsilon / (1.0 - domain.gamma)
    return gap, bound, gap <= bound


def cold_posterior_table(domain: DomainInfo) -> np.ndarray:
    """The zero-observation posterior (uniform over capable types)."""
    return ThreatEstimator(domain).posterior_table()


def random_posterior_table(domain: DomainInfo, rng: np.random.Generator) -> np.ndarray:
    """An arbitrary per-(state, action) distribution over types."""
    raw = rng.random((domain.n_types, domain.n_configs, domain.n_configs))
    return raw / raw.sum(axis=0, keepdims=True)


def perturb_posterior_table(
    table: np.ndarray, rng: np.random.Generator, scale: float = 0.05
) -> np.ndarray:
    """Shift each mass by at most ``scale``, clip, and renormalize."""
    noisy = np.clip(table + rng.uniform(-scale, scale, size=table.shape), 0.0, None)
    totals = noisy.sum(axis=0, keepdims=True)
    zero = totals == 0
    if np.any(zero):  # all mass clipped away: fall back to uniform
        noisy = np.where(zero, 1.0, noisy)
        totals = noisy.sum(axis=0, keepdims=True)
    return noisy / totals


@dataclass(frozen=True)
class CheckResult:
    """A property check's verdict and the measured numbers behind it."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def check_alp_vs_policy_iteration(seed: int = CHECK_SEED) -> CheckResult:
    """The exact-basis planner reproduces policy iteration on the web domain.

    With the per-state-indicator basis, the ALP's values must match policy
    iteration to 1e-5 and its policy must be policy iteration's.  Posteriors:
    the cold one plus three random ones drawn from ``seed``.
    """
    check_seed(seed)
    web = make_web_app_domain()
    basis = build_state_basis(web.space)
    rng = np.random.default_rng(seed)
    posteriors = [cold_posterior_table(web)] + [
        random_posterior_table(web, rng) for _ in range(3)
    ]
    errors, all_match = [], True
    for table in posteriors:
        alp = build_alp(web, table, basis)
        weights = solve_alp(alp)
        v_pi, policy_pi = policy_iteration(web, table)
        errors.append(np.max(np.abs(value_estimates(alp, weights) - v_pi)))
        all_match = all_match and np.array_equal(extract_policy(alp, weights), policy_pi)
    worst = float(np.max(errors))  # a NaN error propagates and fails the check
    return CheckResult(
        "alp-vs-policy-iteration",
        worst <= 1e-5 and all_match,
        f"max value error {worst:.2e} (tol 1e-5) over {len(posteriors)} posteriors, "
        f"policies {'match' if all_match else 'differ'}",
    )


def check_estimator_recovery(
    seed: int = CHECK_SEED, samples: int = CHECK_SAMPLES
) -> CheckResult:
    """The undecayed estimator recovers a two-type attack distribution.

    Simulates ``samples`` attacks at one fixed (state, action) cell: a type is
    drawn from ``CHECK_TYPE_MIX`` and succeeds with its rate in
    ``CHECK_SUCCESS_RATES``, both drawn from ``seed``.  The undecayed
    estimator's posterior (counts divided by success rates, normalized) must
    match the mix componentwise within 0.05.
    """
    check_seed(seed)
    json_integer(samples, "samples", least=1)
    mix, rates = np.array(CHECK_TYPE_MIX), np.array(CHECK_SUCCESS_RATES)
    space = ConfigSpace((FactorSpec("cfg", ("only",)),))
    types = [AttackerTypeSpec(f"type{k}", False, [mu], [0.0]) for k, mu in enumerate(rates)]
    tiny = DomainInfo(space, types, np.zeros((1, 1)), 200.0, 0.9)
    estimator = ThreatEstimator(tiny, beta=1.0)
    rng = np.random.default_rng(seed)
    taus = rng.choice(mix.size, size=samples, p=mix)
    hits = rng.random(samples) < rates[taus]
    for tau, phi in zip(taus, hits):
        estimator.update(int(tau), 0, 0, bool(phi))
    err = float(np.max(np.abs(estimator.posterior(0, 0) - mix)))
    return CheckResult(
        "estimator-unbiasedness",
        err <= 0.05,
        f"max componentwise error {err:.4f} at {samples} samples, beta=1 (tol 0.05)",
    )


def check_value_loss_bound(
    seed: int = CHECK_SEED, perturbations: int = CHECK_PERTURBATIONS
) -> CheckResult:
    """Planning under a perturbed posterior loses at most 2*eps/(1-gamma).

    Even perturbations start from the cold posterior, odd ones from a random
    posterior; both draw from ``seed``.
    """
    check_seed(seed)
    json_integer(perturbations, "perturbations", least=1)
    web = make_web_app_domain()
    rng = np.random.default_rng(seed)
    base = cold_posterior_table(web)
    worst_ratio, all_ok = 0.0, True
    for k in range(perturbations):
        true_table = base if k % 2 == 0 else random_posterior_table(web, rng)
        est_table = perturb_posterior_table(true_table, rng)
        gap, bound, ok = avg_regret_bound_check(web, true_table, est_table)
        all_ok = all_ok and ok
        worst_ratio = max(worst_ratio, gap / bound)
    return CheckResult(
        "value-loss-bound",
        all_ok,
        f"max gap/bound ratio {worst_ratio:.3f} over {perturbations} perturbations "
        f"(gamma={web.gamma})",
    )


def check_linear_regret(seed: int = CHECK_SEED, runs: int = CHECK_RUNS) -> CheckResult:
    """Policy regret against the punishing adversary grows linearly, slope p.

    ``theorem1_regret_experiment`` checks ``seed`` and ``runs``.
    """
    fit = theorem1_regret_experiment(n_runs=runs, seed=seed)
    ok = fit.r_squared >= 0.99 and fit.slope_relative_error <= 0.2
    return CheckResult(
        "linear-regret-adversary",
        ok,
        f"slope {fit.slope:.4f} vs p={fit.first_action_prob} "
        f"(rel err {fit.slope_relative_error:.1%}, tol 20%), "
        f"R^2 {fit.r_squared:.5f} (need 0.99) over T={fit.horizons}",
    )


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    """Write a header and rows as CSV in UTF-8 with LF line endings; every CSV goes here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_steps_csv(path: str, iteration_records: list[list[StepRecord]]) -> None:
    _write_csv(
        path,
        ["iteration", "t", "state", "action", "attacker_type", "phi", "reward"],
        (
            [i, rec.t, rec.state, rec.action, rec.attacker_type, int(rec.phi),
             repr(float(rec.reward))]
            for i, records in enumerate(iteration_records)
            for rec in records
        ),
    )


def write_hindsight_csv(path: str, table: dict[str, float]) -> None:
    """The mean average reward of every static configuration, one row each."""
    _write_csv(
        path,
        ["config", "mean_avg_reward"],
        ([label, repr(float(value))] for label, value in table.items()),
    )


def write_rolling_csv(path: str, iteration_records: list[list[StepRecord]]) -> None:
    """Trailing ``ROLLING_WINDOW`` reward means (warm-up windows average what is available)."""

    def rows() -> Iterator[list]:
        for i, records in enumerate(iteration_records):
            csum = np.concatenate([[0.0], np.cumsum([rec.reward for rec in records])])
            for t in range(len(records)):
                lo = max(0, t - ROLLING_WINDOW + 1)
                yield [i, t, repr(float((csum[t + 1] - csum[lo]) / (t + 1 - lo)))]

    _write_csv(path, ["iteration", "t", "rolling_reward"], rows())


def write_summary_csv(path: str, result: RunResult) -> None:
    """One row of summary statistics; the hindsight columns stay empty without hindsight."""
    stats = (float(result.config.alpha), result.mean_avg_reward, result.std_avg_reward,
             result.best_static, result.worst_static)
    _write_csv(
        path,
        ["strategy", "alpha", "mean_avg_reward", "std_avg_reward", "best_static", "worst_static"],
        [[result.config.strategy] + ["" if v is None else repr(v) for v in stats]],
    )


def write_meta_json(path: str, result: RunResult) -> None:
    config = result.config
    meta = {
        "domain": config.domain,
        "scenario": config.scenario,
        "strategy": config.strategy,
        "alpha": config.alpha,
        "timesteps": result.timesteps,
        "iterations": config.iterations,
        "seed": config.seed,
        "reopt_period": config.reopt_period,
        "start_state": result.domain.space.label(result.start_state),
        "hyperparameters": {name: getattr(config, name) for name in HYPERPARAMETERS},
        "static_table": result.static_table,
    }
    write_json(path, meta, indent=2, sort_keys=True)


def write_outputs(out_dir: str, result: RunResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_steps_csv(os.path.join(out_dir, "steps.csv"), result.iteration_records)
    write_rolling_csv(os.path.join(out_dir, "rolling.csv"), result.iteration_records)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), result)
    write_meta_json(os.path.join(out_dir, "meta.json"), result)
