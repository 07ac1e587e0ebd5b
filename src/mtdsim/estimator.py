"""Online attacker-type estimation from observed attack successes.

The defender keeps a count ``n[tau, s, a]`` of successful attacks by type
``tau`` observed while taking action ``a`` in state ``s``.  Every update
first divides all counts by a decay factor ``beta >= 1`` (older observations
weigh less) and then increments the matching cell when the step's attack
succeeded.  Types, states and actions are indices by ``domain.is_index`` (a
Python or numpy integer, not a boolean) in range; a credited update or a
posterior read raises ``DomainError`` for anything else.

At a power-of-two beta the estimator holds the counts times a power-of-two
scale, and a decay multiplies the scale by beta instead of dividing the
table: O(1) per update, not O(n_types S^2).  A power-of-two scale rounds
nothing (Curtis & Reid, IMA J. Appl. Math. 10, 1972), so every count and
snap is bitwise the one a divided table gives, and so is every score, total
and belief, since the table holds no entry large enough for a score to pass
float range (``_safe_entry``) while the scale exceeds 1.  Before the scale
overflows, or a credit under it would hold such an entry, the table is
divided by the scale and the scale reset to 1; that too is exact, because
every live count is at least ``COUNT_FLOOR`` by then.  Counts too large to
scale, and any other beta, keep the scale at 1, and each decay divides the
table.

The belief over types at a pair (s, a) normalizes the success counts against
each type's success rate: a type that succeeds often relative to how often it
*would* succeed is likely the one attacking.  The unknown catch-all type has
no catalogued rate and scores with rate 1.  A count over a rate so small that
the scores of a cell sum past float range breaks the belief, and
``posterior_table`` raises ``DomainError`` naming the type and the rate.

The table is built without an ``np.errstate`` context, since it evaluates
no 0 / 0 and no x / 0: a type that cannot score holds the rate +inf, and a
count over +inf is +0.0; a cell where no type scores is not divided at all
and keeps the fallback belief.  Only a table with an entry past the safe
entry scores under ``np.errstate(over="ignore")``, to raise on an overflow.

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
    DomainError, DomainInfo, extremum, input_errors, is_index, json_number, read_json, write_json
)

COUNT_FLOOR = 1e-12
DEFAULT_BETA = 2.0


def check_beta(beta: float) -> None:
    """Raise ``DomainError`` unless the decay factor is a finite number >= 1."""
    if not 1.0 <= json_number(beta, "decay factor beta") < np.inf:  # a NaN fails too
        raise DomainError("decay factor beta must be finite and >= 1")


class ThreatEstimator:
    """Decayed success counts and the derived attacker-type posterior.

    Only ``update`` and ``from_dict`` write the counts, and both reset what
    the estimator keeps; ``counts`` hands out a read-only snapshot.
    """

    def __init__(self, domain: DomainInfo, beta: float = DEFAULT_BETA):
        check_beta(beta)
        self.domain = domain
        self.beta = float(beta)
        self._exact_decay = math.frexp(self.beta)[0] == 0.5  # beta is a power of two
        self._n_types, self._n_configs = n, s = domain.n_types, domain.n_configs
        self._scaled = np.zeros((n, s, s))  # the counts times self._scale
        self._scale = 1.0  # a power of two; grows only at a power-of-two beta
        # Scoring rates: catalogued types use their true success rate, the
        # unknown type scores with rate 1 (no catalogue entry to compare to).
        eff = domain.mu_table.copy()
        if domain.unknown_index is not None:
            eff[domain.unknown_index, :] = 1.0
        capable = eff > 0.0
        # Rates against the pair's target a, +inf for a type that cannot
        # score: a count divided by +inf is +0.0, so such a type scores 0.
        self._rates = np.where(capable, eff, np.inf)[:, None, :]  # (n_types, 1, A)
        # While every entry of the table is at most this, no score or total can
        # pass float range: n_types scores of at most 2^1022 / n_types each sum
        # below 2^1023.
        least_rate = extremum(eff[capable], 1.0)
        self._safe_entry = least_rate * (2.0**1022 / n)
        self._top = 0.0  # at least every entry of the table
        # The belief where no type scores: uniform over the types capable
        # against the target a, or all zeros if none is.
        n_capable = capable.sum(axis=0)  # (A,)
        fallback = np.divide(capable, n_capable, out=np.zeros(eff.shape), where=n_capable > 0)
        self._fallback = np.repeat(fallback[:, None, :], s, axis=1)  # (n_types, S, A)
        self._fallback.flags.writeable = False  # handed out as the table while no count lives
        self._table: np.ndarray | None = None  # the table last handed out
        self._least, self._stale = math.inf, True  # no live count: _recount's result, unscanned

    @property
    def counts(self) -> np.ndarray:
        """The (n_types, S, A) decayed success counts: a read-only snapshot, not a live view."""
        counts = self._scaled / self._scale  # exact: the scale is a power of two
        counts.flags.writeable = False
        return counts

    def _recount(self) -> None:
        """Re-derive the smallest nonzero count, and mark the kept table stale.

        ``update`` calls it only after a snap or a credit to that count's cell."""
        self._least = extremum(self._scaled[self._scaled > 0.0], math.inf) / self._scale
        self._stale = True  # posterior_table rebuilds on demand

    def _fold(self) -> None:
        """Divide the table by the scale and reset the scale to 1.

        Exact: the scale exceeds 1 only after a decay, whose snap leaves every
        live count at least ``COUNT_FLOOR``, far above the subnormal range."""
        self._scaled /= self._scale
        self._top /= self._scale
        self._scale = 1.0

    def _check_cell(self, state: int, action: int) -> None:
        # A negative index would read or credit state S-1, and a boolean every state.
        S, int_state = self._n_configs, type(state) is int or is_index(state)
        if not (int_state and (type(action) is int or is_index(action))
                and 0 <= state < S and 0 <= action < S):
            raise DomainError(f"cell ({state!r}, {action!r}) out of range")

    def update(self, tau: int, state: int, action: int, phi: int) -> None:
        """Decay all counts by beta, then credit the cell on a success.

        At a power-of-two beta the decay multiplies the table's scale and
        touches no count (see the module docstring); at any other beta, or
        while the table holds an entry too large to scale, it divides the
        table.  Decayed counts below a tiny floor are snapped to
        zero so that abandoned cells genuinely forget (a pure ratio would
        otherwise stay concentrated forever regardless of decay).  The kept
        posterior table is marked stale only when the update may move the
        belief (see the module docstring).
        """
        if phi:
            if not ((type(tau) is int or is_index(tau)) and 0 <= tau < self._n_types):
                raise DomainError(f"type index {tau!r} out of range")
            self._check_cell(state, action)
        if self._least < math.inf:  # an all-zero table decays to itself: +0 / beta is +0
            if self._exact_decay and self._top <= self._safe_entry:
                scale = self._scale * self.beta
                if scale == math.inf:
                    self._fold()
                    scale = self.beta
                self._scale = scale
            else:  # the scale is 1 here
                self._scaled /= self.beta
                self._top /= self.beta  # division is monotone: still at least every entry
        least = self._least / self.beta  # bitwise the smallest count after the decay
        snapped = least < COUNT_FLOOR
        if snapped:
            self._scaled[self._scaled < COUNT_FLOOR * self._scale] = 0.0
        if phi:
            held = self._scaled.item(tau, state, action) / self._scale
            count = held + 1.0
            scaled = count * self._scale
            if scaled > self._safe_entry and self._scale > 1.0:  # an overflow too
                self._fold()
                scaled = count
            self._scaled[tau, state, action] = scaled
            if scaled > self._top:
                self._top = scaled
        if snapped or phi and held == least:  # the least count may now sit in another cell
            self._recount()
        elif phi:  # any other cell held more than least, or was empty and holds 1.0 now
            self._least, self._stale = min(least, count), True
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
        out is dropped in favour of that table.  While no count is live (a
        fresh estimator, or every count snapped to zero) every cell falls
        back, and the table is the fallback itself, built once at
        construction and never written: no count is scored, and it is
        bitwise the table scoring would give.  Raises ``DomainError`` when
        the scores of a cell sum past float range.
        """
        if self._stale:
            table = self._fallback if self._least == math.inf else self._rebuild()
            # The table holds no NaN and no -0.0, so its bytes decide what == would.
            if self._table is None or (
                table is not self._table and table.tobytes() != self._table.tobytes()
            ):
                table.flags.writeable = False
                self._table = table
            self._stale = False
        return self._table

    def _rebuild(self) -> np.ndarray:
        """The belief table of live counts: scores over totals, the fallback where none scores."""
        if self._top <= self._safe_entry:
            scores, totals = self._scores()
        else:  # a score or a total may pass float range; the scale is 1 here
            with np.errstate(over="ignore"):
                scores, totals = self._scores()
            if not extremum(totals, 0.0, greatest=True) < math.inf:
                self._overflowed(scores, totals)
        return np.divide(scores, totals, out=self._fallback.copy(), where=totals > 0.0)

    def _scores(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n_types, S, A) scores n / rate and their (S, A) totals over the types.

        Under a scale above 1 both are the unscaled ones times the scale,
        exactly: no entry is past ``_safe_entry`` and no live count is below
        ``COUNT_FLOOR``, so none of them overflows or is subnormal, and every
        belief, a quotient of the two, is bitwise the unscaled one.
        """
        scores = self._scaled / self._rates
        return scores, np.add.reduce(scores, axis=0)

    def _overflowed(self, scores: np.ndarray, totals: np.ndarray) -> None:
        """Raise ``DomainError`` for the first cell whose total is past float range."""
        s, a = np.unravel_index(int(totals.argmax()), totals.shape)
        tau = int(scores[:, s, a].argmax())
        count = float(self._scaled[tau, s, a])  # the scale is 1 here
        rate = float(self._rates[tau, 0, a])
        raise DomainError(
            f"type {self.domain.types[tau].id!r}: count {count!r} over success rate "
            f"{rate!r} against {self.domain.space.label(int(a))!r} leaves the belief at "
            f"({int(s)}, {int(a)}) past float range"
        )

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
        """Map a checkpoint onto an estimator; the constructor checks ``beta``.

        The belief is built at the load, so counts that cannot give one (see
        ``posterior_table``) raise ``DomainError`` here, not at a later read.
        """
        with input_errors("estimator JSON"):
            est = cls(domain, beta=data["beta"])
            if data.get("type_ids") != domain.type_ids():
                raise DomainError("estimator checkpoint does not match the domain's types")
            if data.get("state_labels") != domain.space.labels():
                raise DomainError("estimator checkpoint does not match the domain's labels")
            cells = np.asarray(data["counts"], dtype=object)
            counts = np.array([json_number(v, "estimator count") for v in cells.flat])
            counts = counts.reshape(cells.shape)
        if counts.shape != est._scaled.shape:
            raise DomainError("estimator checkpoint count table has the wrong shape")
        if np.any(counts < 0) or np.any(~np.isfinite(counts)):
            raise DomainError("estimator checkpoint counts must be finite and >= 0")
        counts += 0.0  # a count of -0.0 becomes +0.0, so the table holds no -0.0
        est._scaled[...] = counts  # a fresh estimator's scale is 1
        est._top = extremum(counts, 0.0, greatest=True)
        est._recount()
        est.posterior_table()  # counts whose belief passes float range fail here
        return est

    @classmethod
    def load(cls, domain: DomainInfo, path: str) -> "ThreatEstimator":
        return cls.from_dict(domain, read_json(path, "estimator JSON"))
