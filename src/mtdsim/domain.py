"""Factored configuration spaces, attacker types, and defender reward model.

A system configuration is a tuple of factor values (one value per factor),
e.g. ``("PHP", "MySQL")``.  Actions name the configuration to switch to, so
the action space equals the configuration space and transitions are
deterministic: the successor of any state under action ``a`` is ``a``.

The defender's per-step reward is

    R(s, a) = M - al(s, a) - sc(s, a)

where ``al`` is the expected attack loss under the current belief over
attacker types and ``sc`` is the configuration switching cost, which
``harness.resolve_domain`` weights once for a run.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product

import numpy as np

try:  # einsum's C entry point, which np.einsum(..., optimize=False) calls
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _c_einsum

LABEL_SEP = "|"


class DomainError(ValueError):
    """Raised for malformed domain definitions, labels, or indices."""


@dataclass(frozen=True)
class FactorSpec:
    """One state factor: a name and its ordered value labels (a list is kept as a tuple)."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise DomainError(f"factor name must be a string, got {self.name!r}")
        # tuple() would split a string into letters
        if not isinstance(self.values, (list, tuple)) or not all(
            isinstance(v, str) for v in self.values
        ):
            raise DomainError(
                f"factor {self.name!r}: values must be a list or tuple of strings, "
                f"got {self.values!r}"
            )
        object.__setattr__(self, "values", tuple(self.values))
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
        if not (is_index(index) and 0 <= index < len(self._labels)):
            raise DomainError(f"{index!r} is not a configuration index")
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
        if not isinstance(self.id, str):  # scenarios name types by string key
            raise DomainError(f"attacker type id must be a string, got {self.id!r}")
        if not isinstance(self.is_unknown, bool):
            raise DomainError(f"type {self.id!r}: 'unknown' must be true or false")
        mu = np.asarray(self.mu, dtype=float)
        loss = np.asarray(self.loss, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "loss", loss)
        if mu.shape != loss.shape:
            raise DomainError(f"type {self.id!r}: mu and loss shapes differ")
        # One least and one greatest entry per array; a NaN gives NaN, which fails
        # every comparison.
        if not (extremum(mu, 0.0) >= 0.0 and extremum(mu, 1.0, greatest=True) <= 1.0):
            raise DomainError(f"type {self.id!r}: mu must lie in [0, 1]")
        if not (extremum(loss, 0.0) >= 0.0 and extremum(loss, 0.0, greatest=True) < np.inf):
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
    cost of taking action ``a`` in state ``s``, as the reward charges it.
    ``gamma`` is the discount used by planning components.  The type ids, the
    id -> index map and ``unit_exponent``, the ``math.frexp`` exponent e of the
    largest reward size (the planner's unit 2^e), are built once, here.
    """

    space: ConfigSpace
    types: tuple[AttackerTypeSpec, ...]
    sc: np.ndarray
    M: float
    gamma: float

    def __post_init__(self) -> None:
        self.types = tuple(self.types)
        n = self.space.n_configs
        self.sc = np.asarray(self.sc, dtype=float)
        if self.sc.shape != (n, n):
            raise DomainError(f"switching cost table must be {n}x{n}")
        largest_sc = extremum(self.sc, 0.0, greatest=True)
        if not (extremum(self.sc, 0.0) >= 0.0 and largest_sc < np.inf):
            raise DomainError("switching costs must be finite and >= 0")
        if not np.isfinite(json_number(self.M, "M")):
            raise DomainError("M must be finite")
        if not 0.0 <= json_number(self.gamma, "gamma") < 1.0:
            raise DomainError("gamma must lie in [0, 1)")
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
        self.mu_table = np.array([t.mu for t in self.types])  # np.stack costs 3x as much
        self.loss_table = np.array([t.loss for t in self.types])
        # Expected damage mu(t, a) * l(t, a) of an attack by t on configuration a.
        self.damage_table = self.mu_table * self.loss_table
        unknowns = [i for i, t in enumerate(self.types) if t.is_unknown]
        self.unknown_index = unknowns[0] if unknowns else None
        low = self.M - extremum(self.damage_table, 0.0, greatest=True) - largest_sc
        reach = max(abs(self.M), abs(low))
        if not reach / (1.0 - self.gamma) < np.inf:
            raise DomainError(
                f"rewards from M {self.M!r} less damage and scaled switching costs, "
                f"over 1 - gamma ({self.gamma!r}), are not finite"
            )
        self.unit_exponent = math.frexp(reach)[1]

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


def _belief_table(domain: DomainInfo, posterior_table: np.ndarray) -> np.ndarray:
    """``posterior_table`` as a float64 array (by ``float_array``) of shape (n_types, S, A)."""
    p = float_array(posterior_table, 3)
    n, s = domain.n_types, domain.n_configs
    if p.shape != (n, s, s):
        raise DomainError(f"posterior table must have shape ({n}, {s}, {s})")
    return p


def expected_attack_loss_table(domain: DomainInfo, posterior_table: np.ndarray) -> np.ndarray:
    """al(s, a) = sum_t P(t|s,a) mu(t, a) l(t, a) for a full (n_types, S, A) belief table."""
    # target configuration of (s, a) is a, so weight by the damage at column a
    return _c_einsum("tsa,ta->sa", _belief_table(domain, posterior_table), domain.damage_table)


def expected_reward_table(domain: DomainInfo, posterior_table: np.ndarray) -> np.ndarray:
    """R(s, a) = M - al(s, a) - sc(s, a): the one reward model."""
    return domain.M - expected_attack_loss_table(domain, posterior_table) - domain.sc


# No caller in the package; kept for the benchmark's tracer, which wraps
# alp.success_prob_table (bench/tracing.py).
def success_prob_table(domain: DomainInfo, posterior_table: np.ndarray) -> np.ndarray:
    """Attack success probability sum_t P(t|s,a) mu(t, a), clamped to [0, 1]."""
    p = _belief_table(domain, posterior_table)
    return np.clip(_c_einsum("tsa,ta->sa", p, domain.mu_table), 0.0, 1.0)


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
    (indent, key order) pass to ``json.dumps``.  A NaN or infinity, which is
    not JSON, raises ``DomainError`` before the file is opened.
    """
    try:
        text = json.dumps(data, allow_nan=False, **json_options)
    except ValueError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def read_json(path: str, what: str):
    """The JSON in the UTF-8 file ``path``; a malformed ``what`` raises ``DomainError``."""
    with open(path, encoding="utf-8") as fh, input_errors(what):
        return json.load(fh)


def json_number(value, what: str) -> float:
    """A JSON number as a float; float() would also take true and "0.9"."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer with too many digits for a float
        raise DomainError(f"{what} is past float range") from None


def json_integer(value, what: str, least: int | None = None) -> int:
    """A JSON integer, >= ``least`` if given; int() would truncate 10.9 and take true and "10"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{what} must be >= {least}")
    return value


_FLOAT64 = np.dtype(np.float64)


def float_array(value, ndim: int) -> np.ndarray:
    """``value`` itself if it is a float64 ndarray of rank ``ndim``, else converted.

    The test costs three attribute reads, where ``np.asarray`` and
    ``np.atleast_1d`` would cost about a microsecond to hand back the same
    array.  A conversion is ``np.asarray(value, dtype=float)``, raised to 1-D
    when ``ndim`` is 1; its rank is the caller's to check.
    """
    if type(value) is np.ndarray and value.dtype is _FLOAT64 and value.ndim == ndim:
        return value
    array = np.asarray(value, dtype=float)
    return np.atleast_1d(array) if ndim == 1 else array


def extremum(values: np.ndarray, empty, greatest: bool = False):
    """The least entry of ``values`` (the greatest if ``greatest``), or ``empty`` if it has none.

    Read by index, ``argmin``/``argmax`` then ``.item``: on the planner's
    arrays of a few dozen entries that costs less than half of a ufunc
    reduction (``np.minimum.reduce``, ``ndarray.min``), and gives the same
    value.  A NaN entry gives NaN, as in the reduction, since the index
    stops at the first NaN; otherwise the entry equals the reduction's
    extreme, and may differ from it only in the sign of a zero.  A
    multi-dimensional array is read flat.  The entry comes back as a Python
    scalar: a float from a float array, an int from an integer one.
    """
    if not values.size:
        return empty
    return values.item(values.argmax() if greatest else values.argmin())


def is_index(value) -> bool:
    """A Python or numpy integer, not a boolean: the rule for every index into a table."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool  # bool is final


def is_index_array(values: np.ndarray, n: int) -> bool:
    """The array form of ``is_index``: 1-D, of an integer (not boolean) dtype, in [0, n)."""
    if values.ndim != 1 or values.dtype.kind not in "iu":
        return False
    if values.size == 0:
        return True
    return extremum(values, 0) >= 0 and extremum(values, 0, greatest=True) < n


@contextmanager
def input_errors(what: str):
    """Raise what reading a malformed ``what`` throws (missing key, wrong type) as DomainError."""
    try:
        yield
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"{what} missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed {what}: {exc}") from None


def domain_from_dict(data: dict) -> DomainInfo:
    """Map domain JSON onto the types, which check their own fields; only keys,
    labels and a cost for every pair are checked here."""
    with input_errors("domain JSON"):
        space = ConfigSpace(tuple(FactorSpec(f["name"], f["values"]) for f in data["factors"]))
        types = [
            AttackerTypeSpec.from_maps(space, t["id"], t.get("unknown", False), t["mu"], t["loss"])
            for t in data["attacker_types"]
        ]
        labels = space.labels()
        sc_map = data["switching_cost"]
        for s_lab in labels:
            if s_lab not in sc_map:
                raise DomainError(f"switching_cost missing state {s_lab!r}")
        sc = np.zeros((space.n_configs, space.n_configs))
        given = np.zeros(sc.shape, dtype=bool)
        for s_lab, row in sc_map.items():  # an unknown label raises, as in the type maps
            i = space.index_of_label(s_lab)
            for a_lab, value in row.items():
                j = space.index_of_label(a_lab)
                sc[i, j] = json_number(value, f"switching cost {s_lab}->{a_lab}")
                given[i, j] = True
        if not given.all():
            i, j = np.argwhere(~given)[0]
            raise DomainError(f"switching_cost missing pair ({labels[i]!r}, {labels[j]!r})")
        return DomainInfo(space, tuple(types), sc, data["M"], data["gamma"])


def save_domain(domain: DomainInfo, path: str) -> None:
    write_json(path, domain_to_dict(domain), indent=2)


def load_domain(path: str) -> DomainInfo:
    return domain_from_dict(read_json(path, "domain JSON"))
