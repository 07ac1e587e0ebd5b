"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import record_references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mtdsim import alp, estimator, environments, harness, strategies  # noqa: E402

TINY_HORIZON = 4
POOL = 2
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WRAPPED_OWNERS = (
    strategies,
    alp,
    harness,
    estimator.ThreatEstimator,
    environments.MTDEnvironment,
    strategies.FplMtdStrategy,
    strategies.EpsGreedyStrategy,
)


def attributes() -> dict:
    return {(owner.__name__, k): v for owner in WRAPPED_OWNERS for k, v in vars(owner).items()}


ORIGINAL = attributes()


def wrapped_names() -> list:
    """Attributes that differ from the ones seen when this file was imported."""
    current = attributes()
    return [key for key in ORIGINAL if current.get(key) is not ORIGINAL[key]]


def tiny(name: str):
    workload = dataclasses.replace(workloads.WORKLOADS[name], horizon=TINY_HORIZON)
    return workload, record_references.references(workload, POOL)["episodes"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_named_metric(name, trace):
    workload, refs = tiny(name)
    result = run.benchmark(workload, seed=1, seconds=0.0, trace=trace, references=refs)
    kind = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK[kind])
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert all(unit == units[metric] for metric, (_, unit) in result["metrics"].items())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_EPISODES
    if not trace:
        assert all(value > 0 for value, _ in result["metrics"].values())


def test_layers_without_calls_are_not_observed():
    workload, refs = tiny("bandits-web")
    result = run.benchmark(workload, seed=0, seconds=0.0, trace=True, references=refs)
    metrics = result["metrics"]
    assert metrics["lp.solve_lp.us_p50"][0] is None
    assert metrics["lp.solve_lp.calls"][0] == 0
    assert metrics["environments.step.calls"][0] == 3 * 5 * TINY_HORIZON


def test_reference_mismatch_counts_as_a_failed_episode():
    workload, refs = tiny("replan-web")
    refs["0"] = dict(refs["0"], digest="0" * 64)
    result = run.benchmark(workload, seed=0, seconds=0.0, trace=False, references=refs)
    failures = [e.failure for e in result["episodes"] if e.failure]
    assert not result["correct"]
    assert result["failed"] == len(failures) >= 1
    assert all("digest" in failure for failure in failures)


def test_untraced_run_leaves_modules_and_classes_unwrapped():
    workload, refs = tiny("replan-web")
    seen_during = []

    def play(horizon, seed):
        seen_during.extend(wrapped_names())
        return workloads.WORKLOADS["replan-web"].play_fn(horizon, seed)

    before = attributes()
    run.benchmark(dataclasses.replace(workload, play_fn=play), seed=0, seconds=0.0,
                  trace=False, references=refs)
    assert seen_during == []
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_run_wraps_while_it_runs_and_restores_afterwards():
    workload, refs = tiny("replan-web")
    seen_during = []

    def play(horizon, seed):
        seen_during.extend(wrapped_names())
        return workloads.WORKLOADS["replan-web"].play_fn(horizon, seed)

    before = attributes()
    run.benchmark(dataclasses.replace(workload, play_fn=play), seed=0, seconds=0.0,
                  trace=True, references=refs)
    assert ("mtdsim.strategies", "build_alp") in seen_during
    assert ("MTDEnvironment", "step") in seen_during
    after = attributes()
    assert all(after[key] is before[key] for key in before)


def test_spans_share_the_step_index_and_self_time_excludes_children():
    workload, refs = tiny("replan-web")
    with tracing.Tracer() as tracer:
        workload.play(0)
    sp = tracer.spans()
    steps = {}
    for name, step, parent in zip(sp.name, sp.step, sp.parent):
        if parent >= 0 and sp.name[parent] == "strategies.ata_fmdp_run":
            steps.setdefault(step, []).append(name)
    # Every simulated step re-plans, steps the env and observes the outcome.
    assert sorted(steps) == list(range(TINY_HORIZON))
    for names in steps.values():
        assert names == [
            "estimator.posterior_table",
            "alp.build_alp",
            "alp.solve_alp",
            "alp.extract_policy",
            "environments.step",
            "estimator.update",
        ]
    build = sp.name.index("alp.build_alp")
    children = [i for i, p in enumerate(sp.parent) if p == build]
    assert children and all(sp.name[i].startswith("domain.") for i in children)
    assert all(sp.start_ns[build] <= sp.start_ns[i] <= sp.end_ns[i] <= sp.end_ns[build]
               for i in children)


@pytest.mark.parametrize("n_nodes", [2, 3])
def test_tableau_cells_match_the_tableau_the_solver_builds(monkeypatch, n_nodes):
    from mtdsim import lp

    shapes = []
    run_simplex = lp._run_simplex

    def spy(tab, basis, max_iter):
        shapes.append(tab.shape)
        return run_simplex(tab, basis, max_iter)

    monkeypatch.setattr(lp, "_run_simplex", spy)
    domain = environments.make_network_domain(np.random.default_rng(0), n_nodes=n_nodes)
    problem = alp.build_alp(domain, harness.cold_posterior_table(domain)).lp
    assert lp.solve_lp(problem).status == lp.OPTIMAL
    rows, cols = shapes[0]  # phase 1, the widest tableau
    assert tracing.tableau_cells(problem) == rows * cols


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in [*BENCH_DIR.glob("*.py"), BENCH_DIR / "references.json"]:
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replan-web", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
