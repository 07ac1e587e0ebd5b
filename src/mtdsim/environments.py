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
    input_errors,
    json_integer,
    json_number,
    write_json,
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
# Keyed by configuration labels to stay independent of enumeration order.
_WEB_SC = {
    "PHP|MySQL": {
        "PHP|MySQL": 0, "Python|MySQL": 20, "PHP|Postgres": 60, "Python|Postgres": 100,
    },
    "Python|MySQL": {
        "PHP|MySQL": 20, "Python|MySQL": 0, "PHP|Postgres": 90, "Python|Postgres": 50,
    },
    "PHP|Postgres": {
        "PHP|MySQL": 60, "Python|MySQL": 90, "PHP|Postgres": 0, "Python|Postgres": 20,
    },
    "Python|Postgres": {
        "PHP|MySQL": 100, "Python|MySQL": 50, "PHP|Postgres": 20, "Python|Postgres": 0,
    },
}
# type id -> (is_unknown, mu by label, loss by label), in declaration order.
_WEB_TYPES = {
    "mainstream-hacker": (
        False,
        {"PHP|MySQL": 0.32, "Python|MySQL": 0.32, "PHP|Postgres": 0.36, "Python|Postgres": 0.36},
        {"PHP|MySQL": 61.0, "Python|MySQL": 43.0, "PHP|Postgres": 66.0, "Python|Postgres": 29.0},
    ),
    "database-hacker": (
        False,
        {"PHP|MySQL": 0.70, "Python|MySQL": 0.70, "PHP|Postgres": 0.65, "Python|Postgres": 0.65},
        {"PHP|MySQL": 43.0, "Python|MySQL": 43.0, "PHP|Postgres": 50.0, "Python|Postgres": 50.0},
    ),
    "unknown": (
        True,
        {"PHP|MySQL": 0.78, "Python|MySQL": 0.70, "PHP|Postgres": 0.87, "Python|Postgres": 0.0},
        {"PHP|MySQL": 100.0, "Python|MySQL": 100.0, "PHP|Postgres": 100.0, "Python|Postgres": 0.0},
    ),
}
# Variant for the PostgreSQL-only database hacker landscape: the unknown slot
# holds a DH-like attacker that can only exploit Postgres deployments.
_WEB_UNKNOWN_PG_ONLY = (
    True,
    {"PHP|Postgres": 0.65, "Python|Postgres": 0.65},
    {"PHP|Postgres": 50.0, "Python|Postgres": 50.0},
)


def make_web_app_domain(alpha: float = 1.0, unknown_variant: str | None = None) -> DomainInfo:
    """The two-factor web stack domain with its three attacker types.

    ``unknown_variant="pg-only-dh"`` swaps the unknown type's tables for the
    PostgreSQL-only database hacker.
    """
    space = ConfigSpace(_WEB_FACTORS)
    table = dict(_WEB_TYPES)
    if unknown_variant == "pg-only-dh":
        table["unknown"] = _WEB_UNKNOWN_PG_ONLY
    elif unknown_variant is not None:
        raise DomainError(f"unknown web variant {unknown_variant!r}")
    types = [AttackerTypeSpec.from_maps(space, i, *spec) for i, spec in table.items()]
    labels = space.labels()
    sc = np.array([[_WEB_SC[s][a] for a in labels] for s in labels], dtype=float)
    return DomainInfo(space, types, sc, WEB_M, WEB_GAMMA, alpha)


NODE_ONLINE = "1"
NODE_OFFLINE = "0"
OFFLINE_COST = 50.0


def make_network_domain(
    rng: np.random.Generator, alpha: float = 1.0, n_nodes: int = 2
) -> DomainInfo:
    """A network of binary nodes (online/offline) under source/target attackers.

    Known types are labeled src{i}-tgt{j}; local types (i == j) draw a success
    rate in U(0.5, 0.6), remote types in U(0.2, 0.3); every known type draws a
    loss in U(60, 70).  A type's rate is 0 against configurations whose target
    node is offline.  The unknown type deals loss 100 with certainty against
    any configuration with node 0 online, and nothing otherwise.

    Taking a node offline costs 50: sc(s, a) = 50 * (number of nodes online in
    ``s`` and offline in ``a``).  Parameters are drawn once, at construction.
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
    return DomainInfo(space, tuple(types), sc, WEB_M, WEB_GAMMA, alpha)


# ---------------------------------------------------------------------------
# Scenarios: phased attacker landscapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioPhase:
    """Attacker behaviour on [t_start, t_end).

    ``static_dist`` draws the type from ``dist`` (optionally overridden per
    current state via ``per_state_dist``); ``most_adverse`` picks the type
    adversarially from the defender's observed behaviour, by the rule that
    ``MTDEnvironment`` states.
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
                if any(isinstance(v, bool) for v in d.values()):
                    raise DomainError("phase weights must be numbers, not booleans")
                total = sum(d.values())
                # Written so that a NaN weight fails too.
                if not (all(v >= 0 for v in d.values()) and abs(total - 1.0) <= 1e-9):
                    raise DomainError("phase distributions must sum to 1")
        elif self.dist or self.per_state_dist:
            raise DomainError("most_adverse phase takes no type distribution")


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


@dataclass(frozen=True)
class StepRecord:
    t: int
    state: str
    action: str
    attacker_type: str
    phi: int
    reward: float


class MTDEnvironment:
    """Stateful simulator: one iteration of a domain played against a scenario.

    The scenario is resolved against the domain once, here: a ``static_dist``
    phase becomes, for each state, the type indices and weights of its
    distribution in the distribution's own key order (a ``per_state_dist`` row
    replaces ``dist`` in its state), and unknown labels and type ids are
    rejected.  A step of such a phase draws the type, then the success flag.

    A ``most_adverse`` step draws only the success flag.  The attacker counts
    the defender's past (state, action) pairs in ``moves``, estimates its
    policy at the current state with add-one smoothing,
    pi_hat(a|s) = (n(s, a) + 1) / (n(s) + S), and plays the type with the most
    expected damage sum_a pi_hat(a|s) * mu(t, a) * l(t, a); ties go to the
    earliest declared type.
    """

    def __init__(self, domain: DomainInfo, scenario: Scenario, start_state: int = 0):
        if not 0 <= start_state < domain.n_configs:
            raise DomainError(f"start state index {start_state} out of range")
        self._labels, self._type_ids = domain.space.labels(), domain.type_ids()

        def draw_table(dist: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
            return np.array([domain.type_index(i) for i in dist]), np.array(list(dist.values()))

        # Per phase: its end, and None (most adverse) or one draw table per state.
        self._phase_ends, self._phase_draws = [], []
        for phase in scenario.phases:
            self._phase_ends.append(phase.t_end)
            if phase.mode == MOST_ADVERSE:
                self._phase_draws.append(None)
                continue
            draws = [draw_table(phase.dist)] * domain.n_configs
            for label, dist in (phase.per_state_dist or {}).items():
                draws[domain.space.index_of_label(label)] = draw_table(dist)
            self._phase_draws.append(draws)
        self._phase = 0
        self.moves = np.zeros((domain.n_configs, domain.n_configs), dtype=int)
        self.domain = domain
        self.scenario = scenario
        self.state = start_state
        self.t = 0

    def step(self, action: int, rng: np.random.Generator) -> StepRecord:
        if self.t >= self.scenario.horizon:
            raise DomainError("scenario horizon exhausted")
        domain, s = self.domain, self.state
        if not 0 <= action < domain.n_configs:
            raise DomainError(f"action index {action} out of range")
        if self.t == self._phase_ends[self._phase]:
            self._phase += 1
        draws = self._phase_draws[self._phase]
        if draws is None:
            smoothed = self.moves[s] + 1.0
            tau = int(np.argmax(domain.damage_table @ (smoothed / smoothed.sum())))
        else:
            types, weights = draws[s]
            tau = int(types[rng.choice(len(types), p=weights)])
        phi = int(rng.random() < domain.mu_table[tau, action])
        loss = domain.loss_table[tau, action] if phi else 0.0
        reward = float(domain.M - loss - domain.alpha * domain.sc[s, action])
        record = StepRecord(
            t=self.t,
            state=self._labels[s],
            action=self._labels[action],
            attacker_type=self._type_ids[tau],
            phi=phi,
            reward=reward,
        )
        self.moves[s, action] += 1
        self.state = action
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
    with input_errors("scenario JSON"):
        phases = tuple(
            ScenarioPhase(
                json_integer(p["start"], "scenario phase start"),
                json_integer(p["end"], "scenario phase end"),
                p.get("mode", STATIC_DIST),
                p.get("dist"),
                p.get("per_state_dist"),
            )
            for p in data["phases"]
        )
        return Scenario(
            name,
            json_integer(data["T"], "scenario T"),
            phases,
            sc_multiplier=json_number(data.get("sc_multiplier", 1.0), "scenario sc_multiplier"),
            domain_variant=data.get("domain_variant"),
        )


def load_scenario(path: str) -> Scenario:
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, encoding="utf-8") as fh, input_errors("scenario JSON"):
        data = json.load(fh)
    return scenario_from_dict(data, name=name)


def save_scenario(scenario: Scenario, path: str) -> None:
    write_json(path, scenario_to_dict(scenario), indent=2)
