"""Simulated attack environments and attacker scenarios.

An environment holds a domain, the defender's current configuration, and an
attacker scenario.  Each step the defender names the next configuration; the
attacker type for the step is drawn from the active scenario phase (or chosen
adversarially), the attack is executed against the configuration that results
from the switch, and the defender observes the type, the success flag, and
the realized reward

    r_t = M - 1[phi=1] * l(tau, target) - sc(s, a)  (sc as the run weighted it).

Attackers observe the defender's past (state, action) history only — the
current step's action is simultaneous and hidden.

A step draws its uniforms from what it is handed as ``rng``: a generator, or
the ``Uniforms`` that ``MTDEnvironment.uniforms(k, rng)`` draws for the next
``k`` steps in one ``rng.random(n)`` call.  ``Generator.random(n)`` returns
the doubles of ``n`` scalar ``random()`` calls and leaves the generator in
the same state, so both give bitwise the same records and generator.  The
drawn block holds at most two doubles a step, so its memory grows with ``k``
as the step records' does.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .domain import (
    AttackerTypeSpec,
    ConfigSpace,
    DomainError,
    DomainInfo,
    FactorSpec,
    input_errors,
    is_index,
    json_integer,
    json_number,
    read_json,
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


def make_web_app_domain(unknown_variant: str | None = None) -> DomainInfo:
    """The two-factor web stack domain with its three attacker types, sc at weight 1.

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
    return DomainInfo(space, types, sc, WEB_M, WEB_GAMMA)


NODE_ONLINE = "1"
NODE_OFFLINE = "0"
OFFLINE_COST = 50.0


# Node counts whose network structure ``make_network_domain`` keeps; each entry
# is O(n^2 * 2^n) floats, about 4.8 MB at 12 nodes and nothing S^2-sized.
NETWORK_CACHE_SIZES = 16


class _NetworkStructure(NamedTuple):
    """What the n-node network domain takes from its node count alone; arrays read-only."""

    space: ConfigSpace
    low: np.ndarray  # (src, tgt, [rate, loss]): the draws' lower bounds
    high: np.ndarray  # and upper bounds
    hits: np.ndarray  # (n^2 + 1, S): 1.0 where the type can land, the unknown's row last
    online: np.ndarray  # (S, n): 1.0 where node i is online in configuration c
    offline: np.ndarray  # (n, S): 1.0 where node i is offline in configuration c
    ids: tuple[str, ...]
    unknown: tuple[bool, ...]


@lru_cache(maxsize=NETWORK_CACHE_SIZES)
def _network_structure(n_nodes: int) -> _NetworkStructure:
    space = ConfigSpace(
        tuple(FactorSpec(f"node{i}", (NODE_ONLINE, NODE_OFFLINE)) for i in range(n_nodes))
    )
    # online[c, i]: node i is online in configuration c (value 0 of its factor, in
    # the C-order enumeration); every table derives from it.
    online = np.indices((2,) * n_nodes).reshape(n_nodes, -1).T == 0
    local = np.eye(n_nodes, dtype=bool)[:, :, None]  # (src, tgt, 1)
    low = np.where(local, (0.5, 60.0), (0.2, 60.0))  # (src, tgt, [rate, loss])
    high = np.where(local, (0.6, 70.0), (0.3, 70.0))
    on = online.astype(float)
    # Row src * n + tgt: a type lands only where its target is online; the
    # unknown type wherever node 0 is.
    hits = np.vstack((np.tile(on.T, (n_nodes, 1)), on[:, 0]))
    offline = (1.0 - on).T
    for array in (low, high, hits, on, offline):
        array.flags.writeable = False
    ids = tuple(f"src{i // n_nodes}-tgt{i % n_nodes}" for i in range(n_nodes * n_nodes))
    return _NetworkStructure(
        space, low, high, hits, on, offline, (*ids, "unknown"), (False,) * len(ids) + (True,)
    )


# The unknown type's rate and loss where it lands, after the drawn (rate, loss) rows.
_UNKNOWN_DRAW = np.array([[1.0, 100.0]])


def make_network_domain(rng: np.random.Generator, n_nodes: int = 2) -> DomainInfo:
    """A network of binary nodes (online/offline) under source/target attackers.

    Known types are labeled src{i}-tgt{j}; local types (i == j) draw a success
    rate in U(0.5, 0.6), remote types in U(0.2, 0.3); every known type draws a
    loss in U(60, 70).  A type's rate is 0 against configurations whose target
    node is offline.  The unknown type deals loss 100 with certainty against
    any configuration with node 0 online, and nothing otherwise.

    Taking a node offline costs 50: sc(s, a) = 50 * (number of nodes online in
    ``s`` and offline in ``a``) at weight 1.  Parameters are drawn once, at construction.
    ``n_nodes`` is an integer by ``is_index``.

    What follows from ``n_nodes`` alone is built once per node count and
    shared: every n-node domain holds the same ``ConfigSpace`` object, and
    the node masks, the pattern of configurations each type can hit and the
    draws' bounds are kept, read-only, for the last ``NETWORK_CACHE_SIZES``
    node counts.  A call computes only its draws, the rate and loss tables
    (checked once, whole, by ``AttackerTypeSpec.from_tables``) and ``sc``,
    which is S^2 and never kept.
    """
    if not (is_index(n_nodes) and n_nodes >= 1):
        raise DomainError(f"n_nodes must be an integer >= 1, got {n_nodes!r}")
    net = _network_structure(int(n_nodes))
    # One call draws, for each source and each target, the rate and then the
    # loss: the same doubles, in the same order, as one scalar draw each.
    draws = np.concatenate((rng.uniform(net.low, net.high).reshape(-1, 2), _UNKNOWN_DRAW))
    mu, loss = draws[:, :1] * net.hits, draws[:, 1:] * net.hits
    types = AttackerTypeSpec.from_tables(net.ids, net.unknown, mu, loss)
    sc = net.online.dot(net.offline)  # nodes online in s and offline in a
    sc *= OFFLINE_COST
    return DomainInfo(net.space, types, sc, WEB_M, WEB_GAMMA)


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
        json_integer(self.t_start, "scenario phase start", least=0)
        json_integer(self.t_end, "scenario phase end")
        if self.mode not in (STATIC_DIST, MOST_ADVERSE):
            raise DomainError(f"unknown phase mode {self.mode!r}")
        if self.t_end <= self.t_start:
            raise DomainError(f"bad phase window [{self.t_start}, {self.t_end})")
        if self.mode == STATIC_DIST:
            if not self.dist:
                raise DomainError("static_dist phase needs a type distribution")
            per_state = {} if self.per_state_dist is None else self.per_state_dist
            if not isinstance(per_state, dict):
                raise DomainError(f"per_state_dist must be a map, got {per_state!r}")
            for d in [self.dist, *per_state.values()]:
                if not isinstance(d, dict):
                    raise DomainError(f"phase distribution must be a map, got {d!r}")
                weights = [json_number(v, "phase weight") for v in d.values()]
                # Written so that a NaN weight fails too.
                if not (all(v >= 0 for v in weights) and abs(sum(weights) - 1.0) <= 1e-9):
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
        json_integer(self.horizon, "scenario T", least=1)
        if not 0.0 <= json_number(self.sc_multiplier, "scenario sc_multiplier") < np.inf:
            raise DomainError(
                f"scenario sc_multiplier must be finite and >= 0, got {self.sc_multiplier!r}"
            )
        variant = self.domain_variant
        if variant is not None and not (isinstance(variant, str) and variant):
            raise DomainError(f"domain variant must be a non-empty string, got {variant!r}")
        ordered = sorted(self.phases, key=lambda p: p.t_start)
        cursor = 0
        for phase in ordered:
            if phase.t_start != cursor:
                raise DomainError(f"phases must partition [0, {self.horizon}) with no gaps")
            cursor = phase.t_end
        if cursor != self.horizon:
            raise DomainError(f"phases must cover [0, {self.horizon}) exactly")
        object.__setattr__(self, "phases", tuple(ordered))


class StepRecord(NamedTuple):
    t: int
    state: str
    action: str
    attacker_type: str
    phi: int
    reward: float


# A step builds its record's fields as a tuple: NamedTuple's own __new__ costs
# twice as much, and a module-level name saves the attribute lookup.
_new_tuple = tuple.__new__


class Uniforms:
    """Uniforms drawn ahead for a run of steps; ``random()`` hands out the next.

    ``MTDEnvironment.step`` takes one in place of the generator.  A call past
    the last drawn value raises ``StopIteration``; it never returns a value.
    A step that makes that call raises ``DomainError`` instead and changes
    neither the time, the state nor the move counts.
    """

    __slots__ = ("random",)

    def __init__(self, values: np.ndarray):
        self.random = iter(values.tolist()).__next__


class MTDEnvironment:
    """Stateful simulator: one iteration of a domain played against a scenario.

    The scenario is resolved against the domain once, here: a ``static_dist``
    phase becomes, for each state, the type indices and the cumulative
    distribution of its weights in the distribution's own key order (a
    ``per_state_dist`` row replaces ``dist`` in its state), and unknown labels
    and type ids are rejected.  A step of such a phase draws the type, then the
    success flag.  The type draw inverts the state's CDF at one uniform, with
    the CDF and the search ``Generator.choice(p=)`` uses, so a seed draws the
    same types and leaves the generator in the same state as ``choice`` would.
    The success rates, losses, switching costs and ``M`` are held as Python
    floats, so a step's reward is the same IEEE arithmetic as on the domain's
    arrays.

    A ``most_adverse`` step draws only the success flag.  The attacker counts
    the defender's past (state, action) pairs in ``moves``, estimates its
    policy at the current state with add-one smoothing,
    pi_hat(a|s) = (n(s, a) + 1) / (n(s) + S), and plays the type with the most
    expected damage sum_a pi_hat(a|s) * mu(t, a) * l(t, a); ties go to the
    earliest declared type.  The visit totals n(s) are kept as Python ints,
    recounted from ``moves`` when a ``most_adverse`` phase begins and counted
    by its steps: n(s) + S is the exact sum of the smoothed counts, so the
    estimate divides by it without summing them.
    """

    def __init__(self, domain: DomainInfo, scenario: Scenario, start_state: int = 0):
        if not (is_index(start_state) and 0 <= start_state < domain.n_configs):
            raise DomainError(f"start state {start_state!r} is not a configuration index")
        self._labels, self._type_ids = domain.space.labels(), domain.type_ids()
        self._mu, self._loss = domain.mu_table.tolist(), domain.loss_table.tolist()
        self._sc, self._M = domain.sc.tolist(), float(domain.M)

        def draw_table(dist: dict[str, float]) -> tuple[list[int], list[float]]:
            cdf = np.array(list(dist.values()), dtype=float).cumsum()
            cdf /= cdf[-1]  # as Generator.choice normalises its CDF
            return [domain.type_index(i) for i in dist], cdf.tolist()

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
        # The step reads these as attributes: the current phase's end and draws.
        self._phase, self._phase_end, self._draws = 0, self._phase_ends[0], self._phase_draws[0]
        self._horizon, self._n = scenario.horizon, domain.n_configs
        self._moves = np.zeros((domain.n_configs, domain.n_configs), dtype=int)
        self._visits = [0] * domain.n_configs  # n(s), read only in a most_adverse phase
        self._damage = domain.damage_table
        # A step counts through these views, one 1-D view per row: a memoryview
        # item update, unlike a numpy one, makes no numpy scalar, and an int
        # index is cheaper than a tuple.  They write through to ``_moves``.
        self._move_rows = [memoryview(row) for row in self._moves]
        self.domain = domain
        self.scenario = scenario
        self.state = start_state
        self.t = 0

    @property
    def moves(self) -> np.ndarray:
        """The (S, A) counts of the defender's past (state, action) pairs.

        The array itself, which every step updates in place; it cannot be
        rebound.  Write nothing into it: a ``most_adverse`` phase keeps its row
        sums from the phase's start on.
        """
        return self._moves

    def uniforms(self, k: int, rng: np.random.Generator) -> Uniforms:
        """The uniforms the next ``k`` steps draw, in one ``rng.random(n)`` call.

        A ``static_dist`` step draws two (the type, then the success flag) and
        a ``most_adverse`` step one, so ``n`` follows from the steps' times
        alone, whatever actions they take.  A ``k`` that is not an integer
        >= 0, or that runs past the horizon, is rejected before anything is
        drawn.
        """
        if not is_index(k) or k < 0:
            raise DomainError(f"step count must be an integer >= 0, got {k!r}")
        stop = self.t + k
        if stop > self._horizon:
            raise DomainError("scenario horizon exhausted")
        n, start = 0, 0
        for end, draws in zip(self._phase_ends, self._phase_draws):
            steps = min(end, stop) - max(start, self.t)
            if steps > 0:
                n += steps if draws is None else 2 * steps
            start = end
        return Uniforms(rng.random(n))

    def step(self, action: int, rng: np.random.Generator | Uniforms) -> StepRecord:
        t = self.t
        if t == self._phase_end:  # the last phase ends at the horizon
            if t == self._horizon:
                raise DomainError("scenario horizon exhausted")
            self._phase += 1
            self._phase_end = self._phase_ends[self._phase]
            self._draws = self._phase_draws[self._phase]
            if self._draws is None:
                self._visits = self._moves.sum(axis=1).tolist()
        if not ((type(action) is int or is_index(action)) and 0 <= action < self._n):
            raise DomainError(f"action {action!r} is not a configuration index")
        s, draws, random = self.state, self._draws, rng.random
        try:
            if draws is None:
                draw = random()  # first: a step that fails must count no visit
                smoothed = self._moves[s] + 1.0
                smoothed /= self._visits[s] + self._n
                tau = int(self._damage.dot(smoothed).argmax())  # the BLAS call of @
                self._visits[s] += 1
            else:
                types, cdf = draws[s]
                tau = types[bisect_right(cdf, random())]
                draw = random()
            phi = 1 if draw < self._mu[tau][action] else 0
        except StopIteration:
            # Let through, it would end a calling ``map`` or generator as if it had run out.
            raise DomainError("pre-drawn uniforms exhausted") from None
        # Python floats throughout, so the reward is a float without a float() call.
        reward = self._M - (self._loss[tau][action] if phi else 0.0) - self._sc[s][action]
        labels = self._labels
        record = _new_tuple(
            StepRecord, (t, labels[s], labels[action], self._type_ids[tau], phi, reward)
        )
        self._move_rows[s][action] += 1
        self.state = action
        self.t = t + 1
        return record


# ---------------------------------------------------------------------------
# Built-in scenarios and JSON IO
# ---------------------------------------------------------------------------

_WEB_MIX = {"mainstream-hacker": 0.5, "database-hacker": 0.35, "unknown": 0.15}
_WEB_UNKNOWN_SURGE = {"mainstream-hacker": 0.1, "database-hacker": 0.0, "unknown": 0.9}
_NET_MIX = {"src0-tgt0": 0.2, "src0-tgt1": 0.3, "src1-tgt0": 0.3, "src1-tgt1": 0.2}
_NET_UNKNOWN_SURGE = {"unknown": 1.0}


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


def _most_adverse(name: str) -> Scenario:
    return Scenario(name, 1000, (ScenarioPhase(0, 1000, MOST_ADVERSE),))


def _web_dh_postgres(name: str) -> Scenario:
    phases = (ScenarioPhase(0, 1000, STATIC_DIST, _WEB_MIX),)
    return Scenario(name, 1000, phases, domain_variant="pg-only-dh")


WEB_DOMAIN = "web"
NETWORK_DOMAIN = "network"

# Each built-in scenario: the built-in domain it is written for, and the
# factory that builds it from its name.
BUILTIN_SCENARIOS = {
    "web-evolving": (WEB_DOMAIN, lambda n: _evolving(n, _WEB_MIX, _WEB_UNKNOWN_SURGE)),
    "web-most-adverse": (WEB_DOMAIN, _most_adverse),
    "web-evolving-3xsc": (
        WEB_DOMAIN, lambda n: _evolving(n, _WEB_MIX, _WEB_UNKNOWN_SURGE, sc_multiplier=3.0)
    ),
    "web-dh-postgres": (WEB_DOMAIN, _web_dh_postgres),
    "net-evolving": (NETWORK_DOMAIN, lambda n: _evolving(n, _NET_MIX, _NET_UNKNOWN_SURGE)),
    "net-most-adverse": (NETWORK_DOMAIN, _most_adverse),
    "net-evolving-3xsc": (
        NETWORK_DOMAIN, lambda n: _evolving(n, _NET_MIX, _NET_UNKNOWN_SURGE, sc_multiplier=3.0)
    ),
}


def builtin_scenario(name: str) -> Scenario:
    try:
        _, make = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise DomainError(
            f"unknown scenario {name!r}; built-ins: {sorted(BUILTIN_SCENARIOS)}"
        ) from None
    return make(name)


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
        data["sc_multiplier"] = float(scenario.sc_multiplier)
    if scenario.domain_variant is not None:
        data["domain_variant"] = scenario.domain_variant
    return data


def scenario_from_dict(data: dict, name: str = "custom") -> Scenario:
    """Map scenario JSON onto ``Scenario`` and its phases, which check their own fields."""
    with input_errors("scenario JSON"):
        phases = tuple(
            ScenarioPhase(p["start"], p["end"], p.get("mode", STATIC_DIST), p.get("dist"),
                          p.get("per_state_dist"))
            for p in data["phases"]
        )
        return Scenario(name, data["T"], phases, data.get("sc_multiplier", 1.0),
                        data.get("domain_variant"))


def load_scenario(path: str) -> Scenario:
    name = os.path.splitext(os.path.basename(path))[0]
    return scenario_from_dict(read_json(path, "scenario JSON"), name=name)


def save_scenario(scenario: Scenario, path: str) -> None:
    write_json(path, scenario_to_dict(scenario), indent=2)
