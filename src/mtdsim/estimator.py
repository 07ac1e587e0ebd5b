"""Online attacker-type estimation from observed attack successes.

The defender keeps a count ``n[tau, s, a]`` of successful attacks by type
``tau`` observed while taking action ``a`` in state ``s``.  Every update
first divides all counts by a decay factor ``beta >= 1`` (older observations
weigh less) and then increments the matching cell when the step's attack
succeeded.

The belief over types at a pair (s, a) normalizes the success counts against
each type's success rate: a type that succeeds often relative to how often it
*would* succeed is likely the one attacking.  The unknown catch-all type has
no catalogued rate and scores with rate 1.
"""

from __future__ import annotations

import json

import numpy as np

from .domain import DomainError, DomainInfo, input_errors, json_number, write_json

COUNT_FLOOR = 1e-12
DEFAULT_BETA = 2.0


def check_beta(beta: float) -> None:
    """Raise ``DomainError`` unless the decay factor is finite and >= 1."""
    if not 1.0 <= beta < np.inf:  # a NaN fails too
        raise DomainError("decay factor beta must be finite and >= 1")


class ThreatEstimator:
    """Decayed success counts and the derived attacker-type posterior."""

    def __init__(self, domain: DomainInfo, beta: float = DEFAULT_BETA):
        check_beta(beta)
        self.domain = domain
        self.beta = float(beta)
        n, s = domain.n_types, domain.n_configs
        self.counts = np.zeros((n, s, s))
        # Scoring rates: catalogued types use their true success rate, the
        # unknown type scores with rate 1 (no catalogue entry to compare to).
        eff = domain.mu_table.copy()
        if domain.unknown_index is not None:
            eff[domain.unknown_index, :] = 1.0
        self._eff_mu = eff  # (n_types, A); rate against the pair's target a
        # The belief where no type scores: uniform over the types capable
        # against the target a, or all zeros if none is.
        capable = eff > 0.0
        n_capable = capable.sum(axis=0)  # (A,)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._fallback = np.where(n_capable > 0, capable / n_capable, 0.0)  # (n_types, A)

    def update(self, tau: int, state: int, action: int, phi: int) -> None:
        """Decay all counts by beta, then credit the cell on a success.

        Decayed counts below a tiny floor are snapped to zero so that
        abandoned cells genuinely forget (a pure ratio would otherwise stay
        concentrated forever regardless of decay).
        """
        self.counts /= self.beta
        self.counts[self.counts < COUNT_FLOOR] = 0.0
        if phi:
            if not 0 <= tau < self.domain.n_types:
                raise DomainError(f"type index {tau} out of range")
            self.counts[tau, state, action] += 1.0

    def posterior(self, state: int, action: int) -> np.ndarray:
        """Belief over attacker types for the pair (state, action).

        Scores are n / rate for types whose rate against the target is
        positive (the unknown type always scores, with rate 1).  If every
        score is zero the belief falls back to uniform over the types capable
        of succeeding against the target — or all zeros if none are.
        """
        return self.posterior_table()[:, state, action]

    def posterior_table(self) -> np.ndarray:
        """Full (n_types, S, A) belief table; see :meth:`posterior`."""
        eff = self._eff_mu[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(eff > 0.0, self.counts / eff, 0.0)
            totals = scores.sum(axis=0)  # (S, A)
            return np.where(totals > 0.0, scores / totals, self._fallback[:, None, :])

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "type_ids": self.domain.type_ids(),
            "state_labels": self.domain.space.labels(),
            "counts": self.counts.tolist(),
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, domain: DomainInfo, data: dict) -> "ThreatEstimator":
        with input_errors("estimator JSON"):
            est = cls(domain, beta=json_number(data["beta"], "estimator beta"))
            if data.get("type_ids") != domain.type_ids():
                raise DomainError("estimator checkpoint does not match the domain's types")
            if data.get("state_labels") != domain.space.labels():
                raise DomainError("estimator checkpoint does not match the domain's labels")
            cells = np.asarray(data["counts"], dtype=object)
            counts = np.array([json_number(v, "estimator count") for v in cells.flat])
            counts = counts.reshape(cells.shape)
        if counts.shape != est.counts.shape:
            raise DomainError("estimator checkpoint count table has the wrong shape")
        if np.any(counts < 0) or np.any(~np.isfinite(counts)):
            raise DomainError("estimator checkpoint counts must be finite and >= 0")
        est.counts = counts
        return est

    @classmethod
    def load(cls, domain: DomainInfo, path: str) -> "ThreatEstimator":
        with open(path, encoding="utf-8") as fh, input_errors("estimator JSON"):
            data = json.load(fh)
        return cls.from_dict(domain, data)
