"""Simulated attack environments and attacker scenarios.

An environment holds a domain, the defender's current configuration, and an
attacker scenario.  Each step the defender names the next configuration; the
attacker type for the step is drawn from the active scenario phase (or chosen
adversarially), the attack is executed against the configuration that results
from the switch, and the defender observes the type, the success flag, and
the realized reward

    r_t = M - 1[phi=1] * l(tau, target) - alpha * sc(s, a).

Attackers observe the defender's past (state, action) history only — the
current step's action is simultaneous and hidden.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    json_errors,
)

STATIC_DIST = "static_dist"
MOST_ADVERSE = "most_adverse"

WEB_M = 200.0
WEB_GAMMA = 0.9

# Web application domain (language x database).  Switching costs, attack
# success rates, and losses per configuration C1..C4 = (PHP|MySQL,
# PHP|Postgres, Python|MySQL, Python|Postgres) in enumeration order below.
_WEB_FACTORS = (
    FactorSpec("language", ("PHP", "Python")),
    FactorSpec("database", ("MySQL", "Postgres")),
)
# Keyed by configuration tuples to stay independent of enumeration order.
_WEB_SC = {
    ("PHP", "MySQL"): {
        ("PHP", "MySQL"): 0,
        ("Python", "MySQL"): 20,
        ("PHP", "Postgres"): 60,
        ("Python", "Postgres"): 100,
    },
    ("Python", "MySQL"): {
        ("PHP", "MySQL"): 20,
        ("Python", "MySQL"): 0,
        ("PHP", "Postgres"): 90,
        ("Python", "Postgres"): 50,
    },
    ("PHP", "Postgres"): {
        ("PHP", "MySQL"): 60,
        ("Python", "MySQL"): 90,
        ("PHP", "Postgres"): 0,
        ("Python", "Postgres"): 20,
    },
    ("Python", "Postgres"): {
        ("PHP", "MySQL"): 100,
        ("Python", "MySQL"): 50,
        ("PHP", "Postgres"): 20,
        ("Python", "Postgres"): 0,
    },
}
_WEB_TYPES = {
    "mainstream-hacker": (
        False,
        {
            ("PHP", "MySQL"): (0.32, 61.0),
            ("Python", "MySQL"): (0.32, 43.0),
            ("PHP", "Postgres"): (0.36, 66.0),
            ("Python", "Postgres"): (0.36, 29.0),
        },
    ),
    "database-hacker": (
        False,
        {
            ("PHP", "MySQL"): (0.70, 43.0),
            ("Python", "MySQL"): (0.70, 43.0),
            ("PHP", "Postgres"): (0.65, 50.0),
            ("Python", "Postgres"): (0.65, 50.0),
        },
    ),
    "unknown": (
        True,
        {
            ("PHP", "MySQL"): (0.78, 100.0),
            ("Python", "MySQL"): (0.70, 100.0),
            ("PHP", "Postgres"): (0.87, 100.0),
            ("Python", "Postgres"): (0.0, 0.0),
        },
    ),
}
# Variant for the PostgreSQL-only database hacker landscape: the unknown slot
# holds a DH-like attacker that can only exploit Postgres deployments.
_WEB_UNKNOWN_PG_ONLY = {
    ("PHP", "MySQL"): (0.0, 0.0),
    ("Python", "MySQL"): (0.0, 0.0),
    ("PHP", "Postgres"): (0.65, 50.0),
    ("Python", "Postgres"): (0.65, 50.0),
}


def _types_from_tuples(space: ConfigSpace, table: dict) -> tuple[AttackerTypeSpec, ...]:
    types = []
    for type_id, (is_unknown, entries) in table.items():
        mu = np.zeros(space.n_configs)
        loss = np.zeros(space.n_configs)
        for config, (m, l) in entries.items():
            idx = space.index_of(config)
            mu[idx] = m
            loss[idx] = l
        types.append(AttackerTypeSpec(type_id, is_unknown, mu, loss))
    return tuple(types)


def make_web_app_domain(
    alpha: float = 1.0,
    sc_multiplier: float = 1.0,
    unknown_variant: str | None = None,
) -> DomainInfo:
    """The two-factor web stack domain with its three attacker types.

    ``unknown_variant="pg-only-dh"`` swaps the unknown type's tables for the
    PostgreSQL-only database hacker.
    """
    space = ConfigSpace(_WEB_FACTORS)
    table = dict(_WEB_TYPES)
    if unknown_variant == "pg-only-dh":
        table["unknown"] = (True, _WEB_UNKNOWN_PG_ONLY)
    elif unknown_variant is not None:
        raise DomainError(f"unknown web variant {unknown_variant!r}")
    types = _types_from_tuples(space, table)
    sc = np.zeros((space.n_configs, space.n_configs))
    for s_cfg, row in _WEB_SC.items():
        for a_cfg, cost in row.items():
            sc[space.index_of(s_cfg), space.index_of(a_cfg)] = cost
    return DomainInfo(space, types, sc * sc_multiplier, WEB_M, WEB_GAMMA, alpha)


NODE_ONLINE = "1"
NODE_OFFLINE = "0"
OFFLINE_COST = 50.0


def make_network_domain(
    rng: np.random.Generator,
    alpha: float = 1.0,
    sc_multiplier: float = 1.0,
    n_nodes: int = 2,
) -> DomainInfo:
    """A network of binary nodes (online/offline) under source/target attackers.

    Known types are labeled src{i}-tgt{j}; local types (i == j) draw a success
    rate in U(0.5, 0.6), remote types in U(0.2, 0.3); every known type draws a
    loss in U(60, 70).  A type's rate is 0 against configurations whose target
    node is offline.  The unknown type deals loss 100 with certainty against
    any configuration with node 0 online, and nothing otherwise.

    Taking a node offline costs 50: sc(s, a) = 50 * (number of nodes online in
    ``s`` and offline in ``a``), times the multiplier.  Parameters are drawn
    once, at construction.
    """
    space = ConfigSpace(
        tuple(FactorSpec(f"node{i}", (NODE_ONLINE, NODE_OFFLINE)) for i in range(n_nodes))
    )
    types = []
    for src in range(n_nodes):
        for tgt in range(n_nodes):
            low, high = (0.5, 0.6) if src == tgt else (0.2, 0.3)
            rate = float(rng.uniform(low, high))
            loss_val = float(rng.uniform(60.0, 70.0))
            mu = np.zeros(space.n_configs)
            loss = np.zeros(space.n_configs)
            for idx, config in enumerate(space.configs):
                if config[tgt] == NODE_ONLINE:
                    mu[idx] = rate
                    loss[idx] = loss_val
            types.append(AttackerTypeSpec(f"src{src}-tgt{tgt}", False, mu, loss))
    mu = np.zeros(space.n_configs)
    loss = np.zeros(space.n_configs)
    for idx, config in enumerate(space.configs):
        if config[0] == NODE_ONLINE:
            mu[idx] = 1.0
            loss[idx] = 100.0
    types.append(AttackerTypeSpec("unknown", True, mu, loss))

    online = np.array(
        [[v == NODE_ONLINE for v in config] for config in space.configs], dtype=bool
    )
    going_offline = online[:, None, :] & ~online[None, :, :]  # (S, A, nodes)
    sc = OFFLINE_COST * going_offline.sum(axis=2).astype(float)
    return DomainInfo(space, tuple(types), sc * sc_multiplier, WEB_M, WEB_GAMMA, alpha)


# ---------------------------------------------------------------------------
# Scenarios: phased attacker landscapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioPhase:
    """Attacker behaviour on [t_start, t_end).

    ``static_dist`` draws the type from ``dist`` (optionally overridden per
    current state via ``per_state_dist``); ``most_adverse`` picks the type
    adversarially from the defender's observed behaviour.
    """

    t_start: int
    t_end: int
    mode: str = STATIC_DIST
    dist: dict[str, float] | None = None
    per_state_dist: dict[str, dict[str, float]] | None = None

    def __post_init__(self) -> None:
        if self.mode not in (STATIC_DIST, MOST_ADVERSE):
            raise DomainError(f"unknown phase mode {self.mode!r}")
        if self.t_end <= self.t_start or self.t_start < 0:
            raise DomainError(f"bad phase window [{self.t_start}, {self.t_end})")
        if self.mode == STATIC_DIST:
            if not self.dist:
                raise DomainError("static_dist phase needs a type distribution")
            for d in [self.dist, *(self.per_state_dist or {}).values()]:
                total = sum(d.values())
                if any(v < 0 for v in d.values()) or abs(total - 1.0) > 1e-9:
                    raise DomainError("phase distributions must sum to 1")


@dataclass(frozen=True)
class Scenario:
    """A horizon plus phases that exactly partition [0, T)."""

    name: str
    horizon: int
    phases: tuple[ScenarioPhase, ...]
    # Domain adjustments bundled with the scenario (applied by the harness).
    sc_multiplier: float = 1.0
    domain_variant: str | None = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise DomainError("scenario horizon must be positive")
        ordered = sorted(self.phases, key=lambda p: p.t_start)
        cursor = 0
        for phase in ordered:
            if phase.t_start != cursor:
                raise DomainError(f"phases must partition [0, {self.horizon}) with no gaps")
            cursor = phase.t_end
        if cursor != self.horizon:
            raise DomainError(f"phases must cover [0, {self.horizon}) exactly")
        object.__setattr__(self, "phases", tuple(ordered))

    def phase_at(self, t: int) -> ScenarioPhase:
        for phase in self.phases:
            if phase.t_start <= t < phase.t_end:
                return phase
        raise DomainError(f"timestep {t} outside scenario horizon [0, {self.horizon})")


class AttackerView:
    """Attacker knowledge: counts of the defender's past (state, action) pairs."""

    def __init__(self, space: ConfigSpace):
        self.space = space
        self.counts = np.zeros((space.n_configs, space.n_configs), dtype=int)

    def record(self, state: int, action: int) -> None:
        self.counts[state, action] += 1

    def policy_estimate(self, state: int) -> np.ndarray:
        """Add-one-smoothed estimate of the defender's action distribution."""
        smoothed = self.counts[state] + 1.0
        return smoothed / smoothed.sum()


def most_adverse_select(view: AttackerView, state: int, domain: DomainInfo) -> int:
    """The type expected to do the most damage against the predicted switch.

    Scores each type by sum_a pi_hat(a|s) * mu(t, a) * l(t, a) using the
    attacker's smoothed estimate of the defender's policy; ties resolve to
    the earliest declared type.  Deterministic given the view.
    """
    pi_hat = view.policy_estimate(state)
    scores = (domain.mu_table * domain.loss_table) @ pi_hat
    return int(np.argmax(scores))


def sample_attack(
    scenario: Scenario,
    t: int,
    state: int,
    target: int,
    view: AttackerView,
    domain: DomainInfo,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Pick the step's attacker type and roll the success flag.

    Returns (type index, phi).  Success probability is the type's rate
    against the configuration that results from the switch.
    """
    phase = scenario.phase_at(t)
    if phase.mode == MOST_ADVERSE:
        tau = most_adverse_select(view, state, domain)
    else:
        dist = phase.dist
        if phase.per_state_dist:
            dist = phase.per_state_dist.get(domain.space.label(state), dist)
        ids = list(dist.keys())
        probs = np.array([dist[i] for i in ids])
        tau = domain.type_index(ids[rng.choice(len(ids), p=probs)])
    phi = int(rng.random() < domain.mu_table[tau, target])
    return tau, phi


@dataclass(frozen=True)
class StepRecord:
    t: int
    state: str
    action: str
    attacker_type: str
    phi: int
    reward: float


class MTDEnvironment:
    """Stateful simulator tying a domain, a scenario, and an attacker view."""

    def __init__(self, domain: DomainInfo, scenario: Scenario, start_state: int = 0):
        if not 0 <= start_state < domain.n_configs:
            raise DomainError(f"start state index {start_state} out of range")
        self.domain = domain
        self.scenario = scenario
        self.state = start_state
        self.t = 0
        self.view = AttackerView(domain.space)

    def step(self, action: int, rng: np.random.Generator) -> StepRecord:
        if self.t >= self.scenario.horizon:
            raise DomainError("scenario horizon exhausted")
        domain, s = self.domain, self.state
        target = action
        if not 0 <= action < domain.n_configs:
            raise DomainError(f"action index {action} out of range")
        tau, phi = sample_attack(self.scenario, self.t, s, target, self.view, domain, rng)
        loss = domain.loss_table[tau, target] if phi else 0.0
        reward = float(domain.M - loss - domain.alpha * domain.sc[s, action])
        record = StepRecord(
            t=self.t,
            state=domain.space.label(s),
            action=domain.space.label(action),
            attacker_type=domain.types[tau].id,
            phi=phi,
            reward=reward,
        )
        self.view.record(s, action)
        self.state = target
        self.t += 1
        return record


# ---------------------------------------------------------------------------
# Built-in scenarios and JSON IO
# ---------------------------------------------------------------------------

_WEB_MIX = {"mainstream-hacker": 0.5, "database-hacker": 0.35, "unknown": 0.15}
_WEB_UNKNOWN_SURGE = {"mainstream-hacker": 0.1, "database-hacker": 0.0, "unknown": 0.9}
_NET_MIX = {"src0-tgt0": 0.2, "src0-tgt1": 0.3, "src1-tgt0": 0.3, "src1-tgt1": 0.2}


def _evolving(name: str, first: dict, middle: dict, **kw) -> Scenario:
    return Scenario(
        name,
        1000,
        (
            ScenarioPhase(0, 330, STATIC_DIST, first),
            ScenarioPhase(330, 660, STATIC_DIST, middle),
            ScenarioPhase(660, 1000, STATIC_DIST, first),
        ),
        **kw,
    )


def _most_adverse(name: str, **kw) -> Scenario:
    return Scenario(name, 1000, (ScenarioPhase(0, 1000, MOST_ADVERSE),), **kw)


BUILTIN_SCENARIOS = {
    "web-evolving": lambda: _evolving("web-evolving", _WEB_MIX, _WEB_UNKNOWN_SURGE),
    "web-most-adverse": lambda: _most_adverse("web-most-adverse"),
    "web-evolving-3xsc": lambda: _evolving(
        "web-evolving-3xsc", _WEB_MIX, _WEB_UNKNOWN_SURGE, sc_multiplier=3.0
    ),
    "web-dh-postgres": lambda: Scenario(
        "web-dh-postgres",
        1000,
        (ScenarioPhase(0, 1000, STATIC_DIST, _WEB_MIX),),
        domain_variant="pg-only-dh",
    ),
    "net-evolving": lambda: _evolving("net-evolving", _NET_MIX, {"unknown": 1.0}),
    "net-most-adverse": lambda: _most_adverse("net-most-adverse"),
    "net-evolving-3xsc": lambda: _evolving(
        "net-evolving-3xsc", _NET_MIX, {"unknown": 1.0}, sc_multiplier=3.0
    ),
}


def builtin_scenario(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise DomainError(
            f"unknown scenario {name!r}; built-ins: {sorted(BUILTIN_SCENARIOS)}"
        ) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    data = {
        "T": scenario.horizon,
        "phases": [
            {
                "start": p.t_start,
                "end": p.t_end,
                "mode": p.mode,
                **({"dist": p.dist} if p.dist else {}),
                **({"per_state_dist": p.per_state_dist} if p.per_state_dist else {}),
            }
            for p in scenario.phases
        ],
    }
    if scenario.sc_multiplier != 1.0:
        data["sc_multiplier"] = scenario.sc_multiplier
    if scenario.domain_variant:
        data["domain_variant"] = scenario.domain_variant
    return data


def scenario_from_dict(data: dict, name: str = "custom") -> Scenario:
    with json_errors("scenario JSON"):
        phases = tuple(
            ScenarioPhase(
                int(p["start"]),
                int(p["end"]),
                p.get("mode", STATIC_DIST),
                p.get("dist"),
                p.get("per_state_dist"),
            )
            for p in data["phases"]
        )
        return Scenario(
            name,
            int(data["T"]),
            phases,
            sc_multiplier=float(data.get("sc_multiplier", 1.0)),
            domain_variant=data.get("domain_variant"),
        )


def load_scenario(path: str) -> Scenario:
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, encoding="utf-8") as fh, json_errors("scenario JSON"):
        data = json.load(fh)
    return scenario_from_dict(data, name=name)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
