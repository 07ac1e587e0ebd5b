"""Online attacker-type estimation from observed attack successes.

The defender keeps a count ``n[tau, s, a]`` of successful attacks by type
``tau`` observed while taking action ``a`` in state ``s``.  Every update
first divides all counts by a decay factor ``beta >= 1`` (older observations
weigh less) and then increments the matching cell when the step's attack
succeeded.  Types, states and actions are indices by ``domain.is_index`` (a
Python or numpy integer, not a boolean) in range; a credited update or a
posterior read raises ``DomainError`` for anything else.

The belief over types at a pair (s, a) normalizes the success counts against
each type's success rate: a type that succeeds often relative to how often it
*would* succeed is likely the one attacking.  The unknown catch-all type has
no catalogued rate and scores with rate 1.

The table is built without an ``np.errstate`` context, since it evaluates
no 0 / 0 and no x / 0: a type that cannot score holds the rate +inf, and a
count over +inf is +0.0; a cell where no type scores is not divided at all
and keeps the fallback belief.

The estimator alone decides whether an update moved the belief.  It keeps
the posterior table it last handed out, read-only, and an update marks that
table stale only when the belief may have moved:

- on a credited success;
- when a count snaps to zero.  The estimator keeps the smallest nonzero
  count, which decays bitwise as every count does; correctly rounded division
  is monotone, so no count snaps unless that one does.  Only a snap or a
  credit to its cell recounts it; other credits keep it or lower it to 1.0;
- on any decay when beta is not a power of two, since scores and totals of a
  cell with two or more nonzero types may then round differently.

A power-of-two beta scales every score and total exactly, so its decays
leave the bytes of the table as they were.  ``posterior_table`` rebuilds a
stale table and, when the rebuild equals the table it last handed out, keeps
and returns that same object.  The table holds no NaN and no -0.0, so equal
values are equal bytes: the object changes exactly when the bytes do.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    DomainError, DomainInfo, input_errors, is_index, json_number, read_json, write_json
)

COUNT_FLOOR = 1e-12
DEFAULT_BETA = 2.0


def check_beta(beta: float) -> None:
    """Raise ``DomainError`` unless the decay factor is a finite number >= 1."""
    if not 1.0 <= json_number(beta, "decay factor beta") < np.inf:  # a NaN fails too
        raise DomainError("decay factor beta must be finite and >= 1")


class ThreatEstimator:
    """Decayed success counts and the derived attacker-type posterior.

    ``counts`` is read-only to callers: only ``update`` and ``from_dict``
    write it, and both reset what the estimator keeps.
    """

    def __init__(self, domain: DomainInfo, beta: float = DEFAULT_BETA):
        check_beta(beta)
        self.domain = domain
        self.beta = float(beta)
        self._exact_decay = math.frexp(self.beta)[0] == 0.5  # beta is a power of two
        self._n_types, self._n_configs = n, s = domain.n_types, domain.n_configs
        self._counts = np.zeros((n, s, s))
        self._counts_view = self._counts.view()
        self._counts_view.flags.writeable = False
        # Scoring rates: catalogued types use their true success rate, the
        # unknown type scores with rate 1 (no catalogue entry to compare to).
        eff = domain.mu_table.copy()
        if domain.unknown_index is not None:
            eff[domain.unknown_index, :] = 1.0
        capable = eff > 0.0
        # Rates against the pair's target a, +inf for a type that cannot
        # score: a count divided by +inf is +0.0, so such a type scores 0.
        self._rates = np.where(capable, eff, np.inf)[:, None, :]  # (n_types, 1, A)
        # The belief where no type scores: uniform over the types capable
        # against the target a, or all zeros if none is.
        n_capable = capable.sum(axis=0)  # (A,)
        fallback = np.divide(capable, n_capable, out=np.zeros(eff.shape), where=n_capable > 0)
        self._fallback = np.repeat(fallback[:, None, :], s, axis=1)  # (n_types, S, A)
        self._table: np.ndarray | None = None  # the table last handed out
        self._recount()

    @property
    def counts(self) -> np.ndarray:
        """The (n_types, S, A) decayed success counts, as a read-only view."""
        return self._counts_view

    def _recount(self) -> None:
        """Re-derive the smallest nonzero count, and mark the kept table stale.

        ``update`` calls it only after a snap or a credit to that count's cell."""
        nonzero = self._counts[self._counts > 0.0]
        self._least = float(np.minimum.reduce(nonzero, initial=math.inf))
        self._stale = True  # posterior_table rebuilds on demand

    def _check_cell(self, state: int, action: int) -> None:
        # A negative index would read or credit state S-1, and a boolean every state.
        S, int_state = self._n_configs, type(state) is int or is_index(state)
        if not (int_state and (type(action) is int or is_index(action))
                and 0 <= state < S and 0 <= action < S):
            raise DomainError(f"cell ({state!r}, {action!r}) out of range")

    def update(self, tau: int, state: int, action: int, phi: int) -> None:
        """Decay all counts by beta, then credit the cell on a success.

        Decayed counts below a tiny floor are snapped to zero so that
        abandoned cells genuinely forget (a pure ratio would otherwise stay
        concentrated forever regardless of decay).  The kept posterior table
        is marked stale only when the update may move the belief (see the
        module docstring).
        """
        if phi:
            if not ((type(tau) is int or is_index(tau)) and 0 <= tau < self._n_types):
                raise DomainError(f"type index {tau!r} out of range")
            self._check_cell(state, action)
        if self._least < math.inf:  # an all-zero table decays to itself: +0 / beta is +0
            self._counts /= self.beta
        least = self._least / self.beta  # bitwise the smallest count after the decay
        snapped = least < COUNT_FLOOR
        if snapped:
            self._counts[self._counts < COUNT_FLOOR] = 0.0
        if phi:
            held = self._counts.item(tau, state, action)
            self._counts[tau, state, action] = held + 1.0
        if snapped or phi and held == least:  # the least count may now sit in another cell
            self._recount()
        elif phi:  # any other cell held more than least, or was empty and holds 1.0 now
            self._least, self._stale = min(least, held + 1.0), True
        else:
            self._least = least
            if least < math.inf and not self._exact_decay:
                self._stale = True

    def posterior(self, state: int, action: int) -> np.ndarray:
        """Belief over attacker types for the pair (state, action).

        Scores are n / rate for types whose rate against the target is
        positive (the unknown type always scores, with rate 1).  If every
        score is zero the belief falls back to uniform over the types capable
        of succeeding against the target — or all zeros if none are.
        """
        self._check_cell(state, action)
        return self.posterior_table()[:, state, action]

    def posterior_table(self) -> np.ndarray:
        """Full (n_types, S, A) belief table, read-only; see :meth:`posterior`.

        The same object is returned until an update moves the belief: a
        stale table is rebuilt, and a rebuild equal to the table last handed
        out is dropped in favour of that table.
        """
        if self._stale:
            scores = self._counts / self._rates
            totals = np.add.reduce(scores, axis=0)  # (S, A)
            table = np.divide(scores, totals, out=self._fallback.copy(), where=totals > 0.0)
            # The table holds no NaN, so == decides what np.array_equal would.
            if self._table is None or not (table == self._table).all():
                table.flags.writeable = False
                self._table = table
            self._stale = False
        return self._table

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
        """Map a checkpoint onto an estimator; the constructor checks ``beta``."""
        with input_errors("estimator JSON"):
            est = cls(domain, beta=data["beta"])
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
        est._counts[...] = counts
        est._recount()
        return est

    @classmethod
    def load(cls, domain: DomainInfo, path: str) -> "ThreatEstimator":
        return cls.from_dict(domain, read_json(path, "estimator JSON"))
