"""The benchmark's workloads: each one is a seeded, closed-loop episode of mtdsim.

An episode is one experiment of the workload at a fixed size; a benchmark run
plays episodes back to back, one process and one caller, each simulated step
waiting for the previous one.  The episode seed is the only input.

Every call into mtdsim goes through a module attribute (``harness.run_experiment``,
``strategies.ata_fmdp_run``), never a name bound at import, so that the traced
run can wrap those attributes from outside.

A fresh interpreter imports this module to measure ``setup_s``: its imports are
the import of mtdsim, and ``Workload.setup`` is the construction before the
first step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mtdsim import environments, harness, strategies

WEB_SCENARIO = "web-evolving"
BANDIT_STRATEGIES = ("fpl", "eps-greedy", "urs")
NET4_NODES = 4


@dataclass
class Experiment:
    """What one strategy run produced: the step records and its summary numbers."""

    iteration_records: list
    mean_reward: float
    static_table: dict

    @property
    def steps(self) -> int:
        """Simulated env steps: the strategy's, plus one static replay per hindsight entry."""
        strategy_steps = sum(len(records) for records in self.iteration_records)
        return strategy_steps * (1 + len(self.static_table))


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int  # simulated steps of one strategy run
    setup_fn: Callable[[int, int], object]  # (horizon, seed) -> what the first step needs
    play_fn: Callable[[int, int], list[Experiment]]  # (horizon, seed) -> one episode

    def setup(self, seed: int) -> object:
        return self.setup_fn(self.horizon, seed)

    def play(self, seed: int) -> list[Experiment]:
        return self.play_fn(self.horizon, seed)


def _web_setup(horizon: int, seed: int):
    scenario = harness.resolve_scenario(WEB_SCENARIO)
    domain = harness.resolve_domain("web", scenario, 1.0, seed)
    return environments.MTDEnvironment(domain, scenario)


def _experiment(strategy: str, horizon: int, seed: int, hindsight: bool) -> Experiment:
    config = harness.ExperimentConfig(
        domain="web",
        scenario=WEB_SCENARIO,
        strategy=strategy,
        timesteps=horizon,
        iterations=1,
        seed=seed,
        reopt_period=1,
        include_hindsight=hindsight,
    )
    result = harness.run_experiment(config)
    return Experiment(result.iteration_records, result.mean_avg_reward, result.static_table)


def _replan_web(horizon: int, seed: int) -> list[Experiment]:
    return [_experiment("ata-fmdp", horizon, seed, hindsight=False)]


def _bandits_web(horizon: int, seed: int) -> list[Experiment]:
    return [_experiment(name, horizon, seed, hindsight=True) for name in BANDIT_STRATEGIES]


def _net4_setup(horizon: int, seed: int):
    # The harness hard-codes two nodes, so this workload is assembled from the
    # public constructors: one most-adverse phase over the whole horizon.
    domain = environments.make_network_domain(np.random.default_rng(seed), n_nodes=NET4_NODES)
    phase = environments.ScenarioPhase(0, horizon, environments.MOST_ADVERSE)
    scenario = environments.Scenario("net4-most-adverse", horizon, (phase,))
    return domain, environments.MTDEnvironment(domain, scenario)


def _replan_net4(horizon: int, seed: int) -> list[Experiment]:
    domain, env = _net4_setup(horizon, seed)
    records = strategies.ata_fmdp_run(
        domain, env, horizon, np.random.default_rng(seed), reopt_period=1
    )
    mean = float(np.mean([rec.reward for rec in records]))
    return [Experiment([records], mean, {})]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("replan-web", 1000, _web_setup, _replan_web),
        Workload("replan-net4", 10, _net4_setup, _replan_net4),
        Workload("bandits-web", 1000, _web_setup, _bandits_web),
    )
}


def digest(experiments: list[Experiment]) -> str:
    """SHA-256 over every step record, hindsight table and mean reward, in order."""
    h = hashlib.sha256()
    for exp in experiments:
        for i, records in enumerate(exp.iteration_records):
            for rec in records:
                h.update(
                    f"{i},{rec.t},{rec.state},{rec.action},{rec.attacker_type},"
                    f"{rec.phi},{float(rec.reward)!r}\n".encode()
                )
        for label, value in sorted(exp.static_table.items()):
            h.update(f"static {label}={value!r}\n".encode())
        h.update(f"mean {exp.mean_reward!r}\n".encode())
    return h.hexdigest()
