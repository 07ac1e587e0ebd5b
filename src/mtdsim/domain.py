"""Factored configuration spaces, attacker types, and defender reward model.

A system configuration is a tuple of factor values (one value per factor),
e.g. ``("PHP", "MySQL")``.  Actions name the configuration to switch to, so
the action space equals the configuration space and transitions are
deterministic: the successor of any state under action ``a`` is ``a``.

The defender's per-step reward is

    R(s, a) = M - al(s, a) - alpha * sc(s, a)

where ``al`` is the expected attack loss under the current belief over
attacker types and ``sc`` is the configuration switching cost.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product

import numpy as np

LABEL_SEP = "|"


class DomainError(ValueError):
    """Raised for malformed domain definitions, labels, or indices."""


@dataclass(frozen=True)
class FactorSpec:
    """One state factor: a name and its ordered value labels."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise DomainError(f"factor {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise DomainError(f"factor {self.name!r} has duplicate values")
        if any(LABEL_SEP in v for v in self.values):
            raise DomainError(f"factor {self.name!r}: values may not contain {LABEL_SEP!r}")


@dataclass(frozen=True)
class ConfigSpace:
    """Cartesian product of factors with a flat, order-stable enumeration.

    Configurations are enumerated in C order (last factor varies fastest);
    the flat index of a configuration is its position in that enumeration.
    The labels and the label -> index map are built once, here.
    """

    factors: tuple[FactorSpec, ...]
    configs: tuple[tuple[str, ...], ...] = field(init=False)
    _labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _label_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.factors:
            raise DomainError("configuration space needs at least one factor")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise DomainError("factor names must be unique")
        configs = tuple(product(*(f.values for f in self.factors)))
        labels = tuple(LABEL_SEP.join(c) for c in configs)
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_label_index", {lab: i for i, lab in enumerate(labels)})

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    def label(self, index: int) -> str:
        return self._labels[index]

    def index_of_label(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise DomainError(
                f"unknown configuration label {label!r}; expected one of {', '.join(self._labels)}"
            ) from None

    def labels(self) -> list[str]:
        return list(self._labels)


@dataclass(frozen=True)
class AttackerTypeSpec:
    """An attacker type: per-configuration success rate and defender loss.

    ``mu[c]`` is the probability an attack by this type succeeds against
    configuration ``c``; ``loss[c]`` is the (positive) defender loss if it
    does.  ``is_unknown`` marks the catch-all type used for attackers absent
    from the defender's threat catalogue.
    """

    id: str
    is_unknown: bool
    mu: np.ndarray
    loss: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        loss = np.asarray(self.loss, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "loss", loss)
        if mu.shape != loss.shape:
            raise DomainError(f"type {self.id!r}: mu and loss shapes differ")
        if np.any(~np.isfinite(mu)) or np.any((mu < 0) | (mu > 1)):
            raise DomainError(f"type {self.id!r}: mu must lie in [0, 1]")
        if np.any(~np.isfinite(loss)) or np.any(loss < 0):
            raise DomainError(f"type {self.id!r}: losses must be finite and >= 0")

    @classmethod
    def from_maps(
        cls,
        space: ConfigSpace,
        type_id: str,
        is_unknown: bool,
        mu_map: dict[str, float],
        loss_map: dict[str, float],
    ) -> "AttackerTypeSpec":
        """Build from label-keyed maps; missing labels mean no capability (0)."""
        mu, loss = np.zeros(space.n_configs), np.zeros(space.n_configs)
        for name, table, values in (("mu", mu, mu_map), ("loss", loss, loss_map)):
            for label, value in values.items():
                table[space.index_of_label(label)] = json_number(value, f"{type_id} {name}")
        return cls(type_id, is_unknown, mu, loss)


@dataclass
class DomainInfo:
    """A complete defender problem: configurations, threats, costs, constants.

    Immutable by convention after construction.  ``sc[s, a]`` is the switching
    cost of taking action ``a`` in state ``s``; ``alpha`` weights it in the
    reward.  ``gamma`` is the discount used by planning components.  The type
    ids and the id -> index map are built once, here.
    """

    space: ConfigSpace
    types: tuple[AttackerTypeSpec, ...]
    sc: np.ndarray
    M: float
    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        self.types = tuple(self.types)
        n = self.space.n_configs
        self.sc = np.asarray(self.sc, dtype=float)
        if self.sc.shape != (n, n):
            raise DomainError(f"switching cost table must be {n}x{n}")
        if np.any(~np.isfinite(self.sc)) or np.any(self.sc < 0):
            raise DomainError("switching costs must be finite and >= 0")
        if not np.isfinite(self.M):
            raise DomainError("M must be finite")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError("gamma must lie in [0, 1)")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise DomainError("alpha must be finite and >= 0")
        self._type_ids = tuple(t.id for t in self.types)
        self._type_index = {type_id: i for i, type_id in enumerate(self._type_ids)}
        if not self._type_ids:
            raise DomainError("a domain needs at least one attacker type")
        if len(self._type_index) != len(self._type_ids):
            raise DomainError("attacker type ids must be unique")
        if sum(t.is_unknown for t in self.types) > 1:
            raise DomainError("at most one unknown attacker type")
        for t in self.types:
            if t.mu.shape != (n,):
                raise DomainError(f"type {t.id!r}: tables must cover all {n} configurations")
        # Dense views used by the solvers; types indexed in declaration order.
        self.mu_table = np.stack([t.mu for t in self.types])
        self.loss_table = np.stack([t.loss for t in self.types])
        # Expected damage mu(t, a) * l(t, a) of an attack by t on configuration a.
        self.damage_table = self.mu_table * self.loss_table
        unknowns = [i for i, t in enumerate(self.types) if t.is_unknown]
        self.unknown_index = unknowns[0] if unknowns else None

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def n_configs(self) -> int:
        return self.space.n_configs

    def type_index(self, type_id: str) -> int:
        try:
            return self._type_index[type_id]
        except KeyError:
            raise DomainError(f"unknown attacker type {type_id!r}") from None

    def type_ids(self) -> list[str]:
        return list(self._type_ids)


def cvss_to_params(exploitability_score: float, impact_score: float) -> tuple[float, float]:
    """Map CVSS subscores to model parameters: mu = 0.1*ES, loss = 10*IS.

    Both scores live on the CVSS [0, 10] scale; losses are stored positive.
    """
    es = float(exploitability_score)
    iscore = float(impact_score)
    if not (np.isfinite(es) and 0.0 <= es <= 10.0):
        raise DomainError(f"exploitability score {es} outside [0, 10]")
    if not (np.isfinite(iscore) and 0.0 <= iscore <= 10.0):
        raise DomainError(f"impact score {iscore} outside [0, 10]")
    return 0.1 * es, 10.0 * iscore


def attacker_types_from_cvss_csv(space: ConfigSpace, path: str) -> list[AttackerTypeSpec]:
    """Build attacker types from a CVSS CSV.

    Columns: config_label, attacker_type, ES, IS — one row per
    (configuration, type, vulnerability).  A type's mu/loss against a
    configuration are the averages of 0.1*ES and 10*IS over its rows for that
    configuration; absent pairs mean no capability, and ``from_maps`` rejects
    an unknown configuration label.  A type with id ``unknown`` becomes the
    catch-all unknown type.
    """
    sums: dict[str, dict[str, list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh, input_errors("CVSS CSV"):
        reader = csv.DictReader(fh)
        required = {"config_label", "attacker_type", "ES", "IS"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DomainError(f"CVSS CSV must have columns {sorted(required)}")
        for row in reader:
            mu, loss = cvss_to_params(float(row["ES"]), float(row["IS"]))
            cell = sums.setdefault(row["attacker_type"], {}).setdefault(
                row["config_label"], [0.0, 0.0, 0]
            )
            cell[0] += mu
            cell[1] += loss
            cell[2] += 1
    types = []
    for type_id in sorted(sums):
        mu_map = {lab: vals[0] / vals[2] for lab, vals in sums[type_id].items()}
        loss_map = {lab: vals[1] / vals[2] for lab, vals in sums[type_id].items()}
        types.append(
            AttackerTypeSpec.from_maps(space, type_id, type_id == "unknown", mu_map, loss_map)
        )
    return types


# ---------------------------------------------------------------------------
# Reward model (expected losses under a belief over attacker types)
# ---------------------------------------------------------------------------


def expected_attack_loss_table(domain: DomainInfo, posterior_table: np.ndarray) -> np.ndarray:
    """al(s, a) = sum_t P(t|s,a) mu(t, a) l(t, a) for a full (n_types, S, A) belief table."""
    p = np.asarray(posterior_table, dtype=float)
    n, s = domain.n_types, domain.n_configs
    if p.shape != (n, s, s):
        raise DomainError(f"posterior table must have shape ({n}, {s}, {s})")
    # target configuration of (s, a) is a, so weight by the damage at column a
    return np.einsum("tsa,ta->sa", p, domain.damage_table)


def expected_reward_table(domain: DomainInfo, posterior_table: np.ndarray) -> np.ndarray:
    """R(s, a) = M - al(s, a) - alpha * sc(s, a): the one reward model."""
    return domain.M - expected_attack_loss_table(domain, posterior_table) - domain.alpha * domain.sc


# No caller in the package; kept for the benchmark's tracer, which wraps
# alp.success_prob_table (bench/tracing.py).
def success_prob_table(domain: DomainInfo, posterior_table: np.ndarray) -> np.ndarray:
    """Attack success probability sum_t P(t|s,a) mu(t, a), clamped to [0, 1]."""
    p = np.asarray(posterior_table, dtype=float)
    return np.clip(np.einsum("tsa,ta->sa", p, domain.mu_table), 0.0, 1.0)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def domain_to_dict(domain: DomainInfo) -> dict:
    labels = domain.space.labels()
    return {
        "factors": [{"name": f.name, "values": list(f.values)} for f in domain.space.factors],
        "attacker_types": [
            {
                "id": t.id,
                "unknown": t.is_unknown,
                "mu": {lab: float(v) for lab, v in zip(labels, t.mu)},
                "loss": {lab: float(v) for lab, v in zip(labels, t.loss)},
            }
            for t in domain.types
        ],
        "switching_cost": {
            s_lab: {a_lab: float(domain.sc[i, j]) for j, a_lab in enumerate(labels)}
            for i, s_lab in enumerate(labels)
        },
        "M": float(domain.M),
        "gamma": float(domain.gamma),
    }


def write_json(path: str, data, **json_options) -> None:
    """Write ``data`` as JSON in UTF-8 with LF line endings and a trailing newline.

    Every JSON file the program writes goes through here; ``json_options``
    (indent, key order) pass to ``json.dump``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, **json_options)
        fh.write("\n")


def json_number(value, what: str) -> float:
    """A JSON number as a float; float() would also take true and "0.9"."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, got {value!r}")
    return float(value)


def json_integer(value, what: str) -> int:
    """A JSON integer; int() would also truncate 10.9 and take true and "10"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


@contextmanager
def input_errors(what: str):
    """Raise what reading a malformed ``what`` throws (missing key, wrong type) as DomainError."""
    try:
        yield
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"{what} missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed {what}: {exc}") from None


def domain_from_dict(data: dict, alpha: float = 1.0) -> DomainInfo:
    with input_errors("domain JSON"):
        factors = tuple(
            FactorSpec(f["name"], tuple(f["values"])) for f in data["factors"]
        )
        space = ConfigSpace(factors)
        types = []
        for t in data["attacker_types"]:
            unknown = t.get("unknown", False)
            if not isinstance(unknown, bool):
                raise DomainError(f"type {t['id']!r}: 'unknown' must be true or false")
            types.append(AttackerTypeSpec.from_maps(space, t["id"], unknown, t["mu"], t["loss"]))
        labels = space.labels()
        sc_map = data["switching_cost"]
        sc = np.zeros((space.n_configs, space.n_configs))
        for i, s_lab in enumerate(labels):
            if s_lab not in sc_map:
                raise DomainError(f"switching_cost missing state {s_lab!r}")
            for j, a_lab in enumerate(labels):
                if a_lab not in sc_map[s_lab]:
                    raise DomainError(f"switching_cost missing pair ({s_lab!r}, {a_lab!r})")
                sc[i, j] = json_number(sc_map[s_lab][a_lab], f"switching cost {s_lab}->{a_lab}")
        M, gamma = json_number(data["M"], "M"), json_number(data["gamma"], "gamma")
        return DomainInfo(space, tuple(types), sc, M, gamma, alpha)


def save_domain(domain: DomainInfo, path: str) -> None:
    write_json(path, domain_to_dict(domain), indent=2)


def load_domain(path: str, alpha: float = 1.0) -> DomainInfo:
    with open(path, encoding="utf-8") as fh, input_errors("domain JSON"):
        data = json.load(fh)
    return domain_from_dict(data, alpha=alpha)
