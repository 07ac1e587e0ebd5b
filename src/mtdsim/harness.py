"""Experiment harness: seeded scenario runs, hindsight bounds, and property checks.

Everything here is deterministic given the configuration: iteration ``i``
draws its generator from ``seed + i``, floats are written with ``repr`` (the
shortest round-trip form), and CSV/JSON outputs use UTF-8 with LF line
endings, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .alp import (
    build_alp,
    build_state_basis,
    exact_value,
    extract_policy,
    solve_alp,
    uniform_theta,
    value_estimates,
    value_iteration,
)
from .domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    expected_reward_table,
    load_domain,
)
from .environments import (
    BUILTIN_SCENARIOS,
    MTDEnvironment,
    Scenario,
    StepRecord,
    builtin_scenario,
    load_scenario,
    make_network_domain,
    make_web_app_domain,
)
from .estimator import DEFAULT_BETA, ThreatEstimator
from .strategies import (
    DEFAULT_EPSILON,
    DEFAULT_FPL_EXPLORE,
    DEFAULT_FPL_LMAX,
    DEFAULT_FPL_RATE,
    STRATEGY_NAMES,
    run_static,
    run_strategy,
)

ROLLING_WINDOW = 50
# Default sizes of the property checks, shared with `mtdsim verify`.
CHECK_SAMPLES = 10_000
CHECK_PERTURBATIONS = 100
CHECK_RUNS = 400


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a batch of runs."""

    domain: str = "web"  # "web", "network", or a domain JSON path
    scenario: str = "web-evolving"  # built-in name or a scenario JSON path
    strategy: str = "ata-fmdp"
    alpha: float = 1.0
    timesteps: int | None = None  # None -> scenario horizon
    iterations: int = 10
    seed: int = 10
    reopt_period: int | None = 1  # None -> plan once at t=0
    out_dir: str | None = None
    start_state: int = 0
    include_hindsight: bool = True
    beta: float = DEFAULT_BETA
    epsilon: float = DEFAULT_EPSILON
    fpl_explore: float = DEFAULT_FPL_EXPLORE
    fpl_rate: float = DEFAULT_FPL_RATE
    fpl_lmax: int = DEFAULT_FPL_LMAX


@dataclass
class RunResult:
    """Per-iteration logs plus the cross-iteration summary statistics."""

    config: ExperimentConfig
    domain: DomainInfo
    scenario: Scenario
    timesteps: int
    iteration_records: list[list[StepRecord]]
    avg_rewards: np.ndarray  # (iterations,)
    mean_avg_reward: float
    std_avg_reward: float
    cumulative_rewards: np.ndarray  # (iterations, T)
    static_table: dict[str, float] = field(default_factory=dict)
    best_static: float | None = None
    worst_static: float | None = None


def resolve_scenario(ref: str) -> Scenario:
    """Built-in scenario names take priority; anything else is a file path."""
    if ref in BUILTIN_SCENARIOS:
        return builtin_scenario(ref)
    if os.path.exists(ref):
        return load_scenario(ref)
    raise DomainError(
        f"unknown scenario {ref!r}; expected one of {sorted(BUILTIN_SCENARIOS)} or a file path"
    )


def resolve_domain(ref: str, scenario: Scenario, alpha: float, seed: int) -> DomainInfo:
    """Build or load the domain, applying the scenario's domain adjustments.

    The network domain's attacker parameters are drawn once from ``seed`` and
    then frozen, so every iteration (and every strategy) sees the same domain.
    """
    if ref == "web":
        return make_web_app_domain(
            alpha=alpha,
            sc_multiplier=scenario.sc_multiplier,
            unknown_variant=scenario.domain_variant,
        )
    if ref == "network":
        if scenario.domain_variant is not None:
            raise DomainError(f"network domain has no variant {scenario.domain_variant!r}")
        return make_network_domain(
            np.random.default_rng(seed), alpha=alpha, sc_multiplier=scenario.sc_multiplier
        )
    if os.path.exists(ref):
        if scenario.domain_variant is not None:
            raise DomainError("file-based domains do not support scenario domain variants")
        dom = load_domain(ref, alpha=alpha)
        if scenario.sc_multiplier != 1.0:
            dom = DomainInfo(
                dom.space, dom.types, dom.sc * scenario.sc_multiplier, dom.M, dom.gamma, alpha
            )
        return dom
    raise DomainError(f"unknown domain {ref!r}; expected 'web', 'network', or a file path")


def _records_rewards(records: list[StepRecord]) -> np.ndarray:
    return np.array([rec.reward for rec in records])


def _check_sizes(scenario: Scenario, timesteps: int, iterations: int) -> None:
    """Reject run sizes that ``scenario`` cannot play."""
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    if not 1 <= timesteps <= scenario.horizon:
        raise DomainError(
            f"timesteps must lie in [1, {scenario.horizon}] (the scenario horizon), "
            f"got {timesteps}"
        )


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run one strategy across ``iterations`` seeded iterations and summarize."""
    if config.alpha < 0:
        raise DomainError("alpha must be >= 0")
    if not (
        config.strategy in STRATEGY_NAMES or config.strategy.startswith("static:")
    ):
        raise DomainError(
            f"unknown strategy {config.strategy!r}; expected one of {STRATEGY_NAMES} "
            "or static:<config-label>"
        )
    scenario = resolve_scenario(config.scenario)
    timesteps = scenario.horizon if config.timesteps is None else config.timesteps
    _check_sizes(scenario, timesteps, config.iterations)
    domain = resolve_domain(config.domain, scenario, config.alpha, config.seed)

    iteration_records: list[list[StepRecord]] = []
    reward_matrix = np.zeros((config.iterations, timesteps))
    for i in range(config.iterations):
        rng = np.random.default_rng(config.seed + i)
        env = MTDEnvironment(domain, scenario, start_state=config.start_state)
        records = run_strategy(
            config.strategy,
            domain,
            env,
            timesteps,
            rng,
            reopt_period=config.reopt_period,
            beta=config.beta,
            epsilon=config.epsilon,
            fpl_explore=config.fpl_explore,
            fpl_rate=config.fpl_rate,
            fpl_lmax=config.fpl_lmax,
        )
        iteration_records.append(records)
        reward_matrix[i] = _records_rewards(records)

    avg_rewards = reward_matrix.mean(axis=1)
    result = RunResult(
        config=config,
        domain=domain,
        scenario=scenario,
        timesteps=timesteps,
        iteration_records=iteration_records,
        avg_rewards=avg_rewards,
        mean_avg_reward=float(avg_rewards.mean()),
        std_avg_reward=float(avg_rewards.std()),
        cumulative_rewards=np.cumsum(reward_matrix, axis=1),
    )
    if config.include_hindsight:
        best, worst, table = hindsight_bounds(
            domain, scenario, timesteps, config.iterations, config.seed, config.start_state
        )
        result.static_table = table
        result.best_static = best
        result.worst_static = worst
    if config.out_dir is not None:
        write_outputs(config.out_dir, result)
    return result


def hindsight_bounds(
    domain: DomainInfo,
    scenario: Scenario,
    timesteps: int,
    iterations: int,
    base_seed: int,
    start_state: int = 0,
) -> tuple[float, float, dict[str, float]]:
    """Average reward of every static configuration under the same seed schedule."""
    _check_sizes(scenario, timesteps, iterations)
    table: dict[str, float] = {}
    for c in range(domain.n_configs):
        avgs = np.zeros(iterations)
        for i in range(iterations):
            rng = np.random.default_rng(base_seed + i)
            env = MTDEnvironment(domain, scenario, start_state=start_state)
            records = run_static(domain, env, timesteps, rng, c)
            avgs[i] = _records_rewards(records).mean()
        table[domain.space.label(c)] = float(avgs.mean())
    values = list(table.values())
    return max(values), min(values), table


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
    target: int = 1,
    start_state: int = 0,
) -> LinearityReport:
    """Policy regret of uniform random switching against the punishing adversary.

    The adversary watches the defender's first configuration; from the second
    step on, reward is 0 whenever that first configuration was the target and
    1 otherwise.  A uniform defender picks the target first with probability
    p = 1/n_configs and then can never undo it, so its expected regret versus
    the best constant sequence grows like p·T (plus the small switching-cost
    drag, which is why ``switch_cost`` must stay well below 1).
    """
    if n_configs < 2:
        raise DomainError("the punishing adversary needs at least two configurations")
    if not 0.0 < switch_cost <= 1.0:
        raise DomainError("switch cost must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mean_regrets = np.zeros(len(horizons))
    for idx, horizon in enumerate(horizons):
        actions = rng.integers(n_configs, size=(n_runs, horizon))
        hit = actions[:, 0] == target
        # One reward per step: all ones, except zero from step 2 on after a hit.
        reward_sums = np.where(hit, 1.0, float(horizon))
        previous = np.concatenate(
            [np.full((n_runs, 1), start_state), actions[:, :-1]], axis=1
        )
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
    domain: DomainInfo,
    posterior_true: np.ndarray,
    posterior_est: np.ndarray,
    gamma: float | None = None,
) -> tuple[float, float, bool]:
    """Value loss of planning under a misestimated posterior, against 2ε/(1−γ).

    ε is the sup-norm difference of the two induced reward tables; the policy
    optimal for the estimated rewards is evaluated exactly under the true
    rewards and its shortfall from the true optimum must be within the bound.
    """
    if gamma is not None and gamma != domain.gamma:
        if not 0.0 <= gamma < 1.0:
            raise DomainError("gamma must lie in [0, 1)")
        domain = DomainInfo(
            domain.space, domain.types, domain.sc, domain.M, gamma, domain.alpha
        )
    r_true = expected_reward_table(domain, posterior_true)
    r_est = expected_reward_table(domain, posterior_est)
    epsilon = float(np.max(np.abs(r_true - r_est)))
    v_true, _ = value_iteration(domain, posterior_true, tol=1e-10)
    _, policy_est = value_iteration(domain, posterior_est, tol=1e-10)
    v_policy = exact_value(domain, policy_est, posterior_true)
    gap = float(np.max(v_true - v_policy))
    bound = 2.0 * epsilon / (1.0 - domain.gamma) + 1e-8
    return gap, bound, gap <= bound


def estimator_unbiasedness_check(
    p_att_true: np.ndarray,
    mus: np.ndarray,
    samples: int = 10_000,
    beta: float = 1.0,
    rng: np.random.Generator | None = None,
    tol: float = 0.05,
) -> tuple[float, bool]:
    """Monte-Carlo check that the capability-normalized counts recover P_att.

    Simulates ``samples`` attacks at one fixed (state, action) cell: a type is
    drawn from ``p_att_true`` and succeeds with its own rate.  The estimator's
    posterior (counts divided by success rates, normalized) must match the
    true distribution componentwise within ``tol``.
    """
    rng = np.random.default_rng(10) if rng is None else rng
    p = np.asarray(p_att_true, dtype=float)
    mu = np.asarray(mus, dtype=float)
    if p.shape != mu.shape or p.ndim != 1 or p.size == 0:
        raise DomainError("type distribution and success rates must be 1-D and aligned")
    if np.any(p < 0) or not np.isclose(p.sum(), 1.0):
        raise DomainError("type distribution must be nonnegative and sum to 1")
    if np.any(mu <= 0) or np.any(mu > 1):
        raise DomainError("success rates must lie in (0, 1]")
    p = p / p.sum()
    space = ConfigSpace((FactorSpec("cfg", ("only",)),))
    types = tuple(
        AttackerTypeSpec(f"type{k}", False, np.array([mu[k]]), np.zeros(1))
        for k in range(p.size)
    )
    tiny = DomainInfo(space, types, np.zeros((1, 1)), 200.0, 0.9, 1.0)
    estimator = ThreatEstimator(tiny, beta=beta)
    taus = rng.choice(p.size, size=samples, p=p)
    hits = rng.random(samples) < mu[taus]
    for tau, phi in zip(taus, hits):
        estimator.update(int(tau), 0, 0, bool(phi))
    posterior = estimator.posterior(0, 0)
    max_error = float(np.max(np.abs(posterior - p)))
    return max_error, max_error <= tol


def alp_exactness_check(
    domain: DomainInfo, posterior_table: np.ndarray, tol: float = 1e-5
) -> tuple[float, bool, bool]:
    """Per-state-indicator basis must reproduce value iteration and its policy."""
    basis = build_state_basis(domain.space)
    alp = build_alp(domain, posterior_table, basis, uniform_theta(domain.space))
    weights = solve_alp(alp)
    v_alp = value_estimates(alp, weights)
    policy_alp = extract_policy(domain, weights, posterior_table, alp.activations)
    v_vi, policy_vi = value_iteration(domain, posterior_table, tol=1e-10)
    max_err = float(np.max(np.abs(v_alp - v_vi)))
    policies_match = bool(np.array_equal(policy_alp, policy_vi))
    return max_err, policies_match, max_err <= tol and policies_match


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


def check_alp_vs_value_iteration(seed: int = 10) -> CheckResult:
    """The exact-basis planner reproduces value iteration on the web domain.

    Posteriors: the cold one plus three random ones drawn from ``seed``.
    """
    web = make_web_app_domain(alpha=1.0)
    rng = np.random.default_rng(seed)
    posteriors = [cold_posterior_table(web)] + [
        random_posterior_table(web, rng) for _ in range(3)
    ]
    results = [alp_exactness_check(web, table) for table in posteriors]
    worst = max(err for err, _, _ in results)
    all_match = all(match for _, match, _ in results)
    return CheckResult(
        "alp-vs-value-iteration",
        all(ok for _, _, ok in results),
        f"max value error {worst:.2e} (tol 1e-5) over {len(posteriors)} posteriors, "
        f"policies {'match' if all_match else 'differ'}",
    )


def check_estimator_recovery(seed: int = 10, samples: int = CHECK_SAMPLES) -> CheckResult:
    """The undecayed estimator recovers a two-type attack distribution."""
    err, ok = estimator_unbiasedness_check(
        np.array([0.6, 0.4]), np.array([0.5, 1.0]), samples=samples, beta=1.0,
        rng=np.random.default_rng(seed),
    )
    return CheckResult(
        "estimator-unbiasedness",
        ok,
        f"max componentwise error {err:.4f} at {samples} samples, beta=1 (tol 0.05)",
    )


def check_value_loss_bound(
    seed: int = 10, perturbations: int = CHECK_PERTURBATIONS
) -> CheckResult:
    """Planning under a perturbed posterior loses at most 2*eps/(1-gamma).

    Even perturbations start from the cold posterior, odd ones from a random
    posterior; both draw from ``seed``.
    """
    web = make_web_app_domain(alpha=1.0)
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


def check_linear_regret(seed: int = 10, runs: int = CHECK_RUNS) -> CheckResult:
    """Policy regret against the punishing adversary grows linearly, slope p."""
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _open_csv(path: str):
    return open(path, "w", encoding="utf-8", newline="")


def write_steps_csv(path: str, iteration_records: list[list[StepRecord]]) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "t", "state", "action", "attacker_type", "phi", "reward"])
        for i, records in enumerate(iteration_records):
            for rec in records:
                writer.writerow(
                    [i, rec.t, rec.state, rec.action, rec.attacker_type,
                     int(rec.phi), repr(float(rec.reward))]
                )


def write_rolling_csv(
    path: str, iteration_records: list[list[StepRecord]], window: int = ROLLING_WINDOW
) -> None:
    """Trailing-window reward means (warm-up windows average what is available)."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "t", "rolling_reward"])
        for i, records in enumerate(iteration_records):
            rewards = _records_rewards(records)
            csum = np.concatenate([[0.0], np.cumsum(rewards)])
            for t in range(rewards.size):
                lo = max(0, t - window + 1)
                mean = (csum[t + 1] - csum[lo]) / (t + 1 - lo)
                writer.writerow([i, t, repr(float(mean))])


def write_summary_csv(path: str, rows: list[dict]) -> None:
    columns = ["strategy", "alpha", "mean_avg_reward", "std_avg_reward",
               "best_static", "worst_static"]
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) if row[c] is not None else "" for c in columns])


def summary_row(result: RunResult) -> dict:
    return {
        "strategy": result.config.strategy,
        "alpha": float(result.config.alpha),
        "mean_avg_reward": result.mean_avg_reward,
        "std_avg_reward": result.std_avg_reward,
        "best_static": result.best_static,
        "worst_static": result.worst_static,
    }


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
        "start_state": result.domain.space.label(config.start_state),
        "hyperparameters": {
            "beta": config.beta,
            "epsilon": config.epsilon,
            "fpl_explore": config.fpl_explore,
            "fpl_rate": config.fpl_rate,
            "fpl_lmax": config.fpl_lmax,
        },
        "static_table": result.static_table,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outputs(out_dir: str, result: RunResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_steps_csv(os.path.join(out_dir, "steps.csv"), result.iteration_records)
    write_rolling_csv(os.path.join(out_dir, "rolling.csv"), result.iteration_records)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), [summary_row(result)])
    write_meta_json(os.path.join(out_dir, "meta.json"), result)
