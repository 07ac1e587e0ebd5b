"""Outside-in tracing for the benchmark's traced run.

``Tracer.install()`` wraps public mtdsim names where the program looks them
up (module globals and class attributes) so that every call records a span:
a name, a start, an end, the span that was open when it began, and the index
of the simulated step it belongs to.  Spans stay in memory; ``spans()``
returns them once the run is over.  ``uninstall()`` puts every original back.

Only the traced process ever calls ``install()``; the untraced run leaves every
module attribute untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from mtdsim import alp, environments, estimator, harness, strategies

OPTIMAL = "optimal"


@dataclass
class Spans:
    """Column-wise spans; ``parent`` is -1 for a span with no enclosing span."""

    name: list[str] = field(default_factory=list)
    start_ns: list[int] = field(default_factory=list)
    end_ns: list[int] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    step: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.name)


def tableau_cells(problem) -> int:
    """Cells of the phase-1 tableau ``lp.solve_lp`` allocates, from the problem's shape.

    Computed, not measured: free variables split in two, finite lower and upper
    bounds add a range row, and every row whose shifted bound is negative gets
    an artificial column.
    """
    lo, up = problem.lower, problem.upper
    lo_fin, up_fin = np.isfinite(lo), np.isfinite(up)
    n_u = problem.n_vars + int(np.count_nonzero(~lo_fin & ~up_fin))
    offset = np.where(lo_fin, lo, np.where(up_fin, up, 0.0))
    n_art = int(np.count_nonzero(problem.bounds - problem.rows @ offset < 0))
    m = problem.n_rows + int(np.count_nonzero(lo_fin & up_fin))
    return (m + 1) * (n_u + m + n_art + 1)


class Tracer:
    def __init__(self) -> None:
        self._spans = Spans()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.next_step = 0  # index of the simulated step that has not run yet
        self._last_policy = None
        # Counts and sizes observed at the wrapped boundaries.
        self.lp_status: list[str] = []
        self.lp_cells: list[int] = []
        self.alp_rows: list[int] = []
        self.policy_changes = 0
        self.counts_bytes: list[int] = []
        self.resample_trials: list[int] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, *, observed=False, enter=None, leave=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observed`` marks calls that observe the step just taken, so their span
        carries the previous step's index.  ``enter(args)`` runs before the call,
        ``leave(args, result)`` after its span has closed.
        """
        original = vars(owner)[attr]
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            index = len(spans.name)
            spans.name.append(name)
            spans.parent.append(stack[-1] if stack else -1)
            spans.step.append(self.next_step - 1 if observed else self.next_step)
            spans.start_ns.append(0)
            spans.end_ns.append(0)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.start_ns[index] = start
                spans.end_ns[index] = end
            if leave is not None:
                leave(args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        w = self._wrap

        def run_starts(args) -> None:  # every strategy run starts on a fresh env
            self.next_step = args[1].t
            self._last_policy = None

        def step_begins(args) -> None:
            self.next_step = args[0].t

        def step_ends(args, _result) -> None:
            self.next_step = args[0].t

        def policy_made(_args, policy) -> None:
            if self._last_policy is not None and not np.array_equal(policy, self._last_policy):
                self.policy_changes += 1
            self._last_policy = policy

        for fn in ("ata_fmdp_run", "run_fpl_mtd", "run_eps_greedy", "run_urs"):
            w(strategies, fn, f"strategies.{fn}", enter=run_starts)
        w(strategies, "build_alp", "alp.build_alp",
          leave=lambda a, r: self.alp_rows.append(r.lp.n_rows))
        w(strategies, "solve_alp", "alp.solve_alp")
        w(strategies, "extract_policy", "alp.extract_policy", leave=policy_made)

        def lp_solved(args, solution) -> None:
            self.lp_status.append(solution.status)
            self.lp_cells.append(tableau_cells(args[0]))

        w(alp, "solve_lp", "lp.solve_lp", leave=lp_solved)
        for fn in ("success_prob_table", "expected_attack_loss_table", "expected_reward_table"):
            w(alp, fn, f"domain.{fn}")

        w(estimator.ThreatEstimator, "posterior_table", "estimator.posterior_table")
        w(estimator.ThreatEstimator, "update", "estimator.update", observed=True,
          leave=lambda a, r: self.counts_bytes.append(a[0].counts.nbytes))
        # The step span is labelled by the env's own clock; calls after it see t + 1.
        w(environments.MTDEnvironment, "step", "environments.step",
          enter=step_begins, leave=step_ends)

        w(strategies.FplMtdStrategy, "update", "strategies.fpl.update", observed=True)
        w(strategies.FplMtdStrategy, "resample_count", "strategies.fpl.resample_count",
          observed=True, leave=lambda a, r: self.resample_trials.append(r))
        w(strategies.EpsGreedyStrategy, "select", "strategies.eps_greedy.select")
        w(strategies.EpsGreedyStrategy, "update", "strategies.eps_greedy.update", observed=True)
        w(harness, "hindsight_bounds", "harness.hindsight_bounds")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> Spans:
        return self._spans


# -- per-layer metrics --------------------------------------------------------

US = 1e-3  # ns -> us


@dataclass(frozen=True)
class Metric:
    value: float | None  # None: the layer had no calls in this run
    unit: str


def cold_solve_ms(n_nodes: int, seed: int, repeats: int) -> float:
    """Median ms of a cold ``lp.solve_lp`` on the zero-observation ALP of an n-node network."""
    domain = environments.make_network_domain(np.random.default_rng(seed), n_nodes=n_nodes)
    problem = alp.build_alp(domain, harness.cold_posterior_table(domain)).lp
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        solution = alp.solve_lp(problem)
        times.append((time.perf_counter_ns() - start) * 1e-6)
        if solution.status != OPTIMAL:
            raise RuntimeError(f"cold {n_nodes}-node solve ended {solution.status}")
    return float(np.median(times))


def _p(values, q: float) -> float | None:
    return float(np.percentile(values, q)) if len(values) else None


def _mean(values) -> float | None:
    return float(np.mean(values)) if len(values) else None


def layer_metrics(
    tracer: Tracer, episodes: int, overhead_ratio: float | None
) -> dict[str, Metric]:
    """Per-layer metrics from the spans of ``episodes`` traced episodes.

    A timing whose layer had no calls is ``None``: not observed.
    """
    sp = tracer.spans()
    start = np.array(sp.start_ns, dtype=np.int64)
    dur = np.array(sp.end_ns, dtype=np.int64) - start
    parent = np.array(sp.parent, dtype=np.int64)
    step = np.array(sp.step, dtype=np.int64)
    nested = parent >= 0
    self_ns = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(sp))
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(sp.name):
        by_name.setdefault(name, []).append(i)

    def idx(*names: str) -> np.ndarray:
        return np.array(sorted(i for n in names for i in by_name.get(n, ())), dtype=np.int64)

    def us(*names: str) -> np.ndarray:
        return dur[idx(*names)] * US

    def keyed(name: str) -> dict[tuple[int, int], int]:
        return {(int(parent[i]), int(step[i])): int(i) for i in idx(name)}

    runs = idx("strategies.ata_fmdp_run", "strategies.run_fpl_mtd",
               "strategies.run_eps_greedy", "strategies.run_urs")
    tables = ("domain.success_prob_table", "domain.expected_attack_loss_table",
              "domain.expected_reward_table")
    build = idx("alp.build_alp")
    lp_us = us("lp.solve_lp")
    step_us = us("environments.step")

    # A re-plan spans posterior_table .. extract_policy of one step of one run.
    posts, policies = keyed("estimator.posterior_table"), keyed("alp.extract_policy")
    replan_us = [
        (start[i] + dur[i] - start[posts[k]]) * US for k, i in policies.items() if k in posts
    ]
    replans = len(policies)

    # Strategy steps are the env steps made directly inside a strategy run;
    # hindsight steps sit under harness.hindsight_bounds instead.
    strategy_steps = int(np.count_nonzero(np.isin(parent[idx("environments.step")], runs)))
    eps_step_ns: dict[tuple[int, int], int] = {}
    for i in idx("strategies.eps_greedy.select", "strategies.eps_greedy.update"):
        key = (int(parent[i]), int(step[i]))
        eps_step_ns[key] = eps_step_ns.get(key, 0) + int(dur[i])

    def largest(values: list[int]) -> float | None:
        return float(max(values)) if values else None

    nonoptimal = sum(status != OPTIMAL for status in tracer.lp_status)
    return {
        "lp.solve_lp.calls": Metric(lp_us.size / episodes, "1/episode"),
        "lp.solve_lp.us_p50": Metric(_p(lp_us, 50), "us"),
        "lp.solve_lp.us_p90": Metric(_p(lp_us, 90), "us"),
        "lp.solve_lp.nonoptimal": Metric(float(nonoptimal) if lp_us.size else None, "count"),
        "lp.solve_lp.share": Metric(
            float(lp_us.sum() / (dur[runs].sum() * US)) if lp_us.size else None, "ratio"
        ),
        "lp.tableau_cells": Metric(largest(tracer.lp_cells), "cells_computed"),
        "alp.build_alp.us_p50": Metric(_p(dur[build] * US, 50), "us"),
        "alp.build_alp.self_us_p50": Metric(_p(self_ns[build] * US, 50), "us"),
        "alp.rows": Metric(largest(tracer.alp_rows), "count"),
        "alp.extract_policy.us_p50": Metric(_p(us("alp.extract_policy"), 50), "us"),
        "domain.tables.calls": Metric(us(*tables).size / episodes, "1/episode"),
        "domain.tables.us_p50": Metric(_p(us(*tables), 50), "us"),
        "estimator.posterior_table.us_p50": Metric(_p(us("estimator.posterior_table"), 50), "us"),
        "estimator.update.us_p50": Metric(_p(us("estimator.update"), 50), "us"),
        "estimator.counts_bytes": Metric(largest(tracer.counts_bytes), "bytes"),
        "planner.replans": Metric(replans / episodes, "1/episode"),
        "planner.policy_changes": Metric(tracer.policy_changes / episodes, "1/episode"),
        "planner.policy_change_ratio": Metric(
            tracer.policy_changes / replans if replans else None, "ratio"
        ),
        "planner.replan_us_p50": Metric(_p(replan_us, 50), "us"),
        "environments.step.calls": Metric(step_us.size / episodes, "1/episode"),
        "environments.step.us_p50": Metric(_p(step_us, 50), "us"),
        "strategies.fpl.update.us_p50": Metric(_p(us("strategies.fpl.update"), 50), "us"),
        "strategies.fpl.resample_trials_mean": Metric(_mean(tracer.resample_trials), "trials"),
        "strategies.eps_greedy.us_p50": Metric(
            _p([ns * US for ns in eps_step_ns.values()], 50), "us"
        ),
        "strategies.loop_self_us": Metric(
            float(self_ns[runs].sum() * US / strategy_steps) if strategy_steps else None,
            "us/step",
        ),
        "harness.hindsight_bounds.s": Metric(
            _p(us("harness.hindsight_bounds") * 1e-6, 50), "s"
        ),
        "trace.overhead_ratio": Metric(overhead_ratio, "ratio"),
    }
