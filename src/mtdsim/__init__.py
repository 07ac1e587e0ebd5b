"""Moving-target-defense switching experiments.

A defender owns a configuration built from factors (language, database, node
status, ...) and re-deploys it each timestep under attack from a population
of attacker types.  This package provides the factored-MDP planner driven by
an online attacker-type estimator and a from-scratch LP solver, bandit-style
baselines, two simulated environments, and a seeded experiment harness.
"""

from .alp import (
    build_alp,
    build_basis,
    build_state_basis,
    extract_policy,
    solve_alp,
    value_estimates,
    value_iteration,
)
from .domain import DomainError, attacker_types_from_cvss_csv, save_domain
from .environments import make_web_app_domain, save_scenario
from .harness import (
    ExperimentConfig,
    cold_posterior_table,
    random_posterior_table,
    run_experiment,
    theorem1_regret_experiment,
)
from .lp import LPSolution, solve_lp

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExperimentConfig",
    "LPSolution",
    "attacker_types_from_cvss_csv",
    "build_alp",
    "build_basis",
    "build_state_basis",
    "cold_posterior_table",
    "extract_policy",
    "make_web_app_domain",
    "random_posterior_table",
    "run_experiment",
    "save_domain",
    "save_scenario",
    "solve_alp",
    "solve_lp",
    "theorem1_regret_experiment",
    "value_estimates",
    "value_iteration",
]
