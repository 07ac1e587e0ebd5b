"""Acceptance suite: one test per shipped claim, one printed PASS/FAIL line each.

Each test prints its measured numbers before asserting, so the full scoreboard
is visible in the pytest report (``-rPx`` is set in pyproject.toml) whether or
not every criterion holds on this build.

Reward-comparison criteria (1-5) use 10 iterations x 1000 steps with the
default hyperparameters (seed 10, beta 2, reopt every step); property criteria
(6-10) are exact oracle checks, and 6, 8, 9 and 10 are the ``harness.check_*``
definitions that ``mtdsim verify`` also runs; criterion 11 is byte-level
reproducibility.
"""

import time

import numpy as np

from mtdsim.harness import (
    ExperimentConfig,
    check_alp_vs_value_iteration,
    check_estimator_recovery,
    check_linear_regret,
    check_value_loss_bound,
    run_experiment,
)

from oracles import compare_simplex_to_vertices

STRATEGIES = ("ata-fmdp", "fpl", "eps-greedy", "urs")


def _line(ok: bool, name: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _mean(scenario: str, strategy: str, alpha: float, start_state: int = 0) -> float:
    config = ExperimentConfig(
        scenario=scenario,
        strategy=strategy,
        alpha=alpha,
        start_state=start_state,
        include_hindsight=False,
    )
    if scenario.startswith("net"):
        config.domain = "network"
    return run_experiment(config).mean_avg_reward


def _records(scenario: str, alpha: float, start_state: int = 0):
    config = ExperimentConfig(
        scenario=scenario,
        strategy="ata-fmdp",
        alpha=alpha,
        start_state=start_state,
        include_hindsight=False,
    )
    if scenario.startswith("net"):
        config.domain = "network"
    return run_experiment(config).iteration_records


def _split(label: str) -> tuple[str, str]:
    lang, db = label.split("|")
    return lang, db


def test_criterion_01_web_evolving_reward_margins():
    means = {
        s: {a: _mean("web-evolving", s, a) for a in (0.0, 0.5, 1.0)} for s in STRATEGIES
    }
    pooled = {s: float(np.mean(list(per_alpha.values()))) for s, per_alpha in means.items()}
    at1 = {s: means[s][1.0] for s in STRATEGIES}
    margins = {s: at1["ata-fmdp"] / at1[s] - 1.0 for s in STRATEGIES if s != "ata-fmdp"}
    ordering = all(pooled["ata-fmdp"] > pooled[s] for s in STRATEGIES if s != "ata-fmdp")
    ok = (
        ordering
        and margins["fpl"] >= 0.05
        and margins["eps-greedy"] >= 0.20
        and margins["urs"] >= 0.35
    )
    detail = "; ".join(
        f"{s}: a0={means[s][0.0]:.1f} a05={means[s][0.5]:.1f} a1={means[s][1.0]:.1f} "
        f"pooled={pooled[s]:.1f}"
        for s in STRATEGIES
    )
    detail += (
        f"; margins at alpha=1 vs fpl/eps/urs = "
        f"{margins['fpl']:.1%}/{margins['eps-greedy']:.1%}/{margins['urs']:.1%} "
        f"(need 5%/20%/35%)"
    )
    assert _line(ok, "criterion-01 web-evolving margins", detail)


def test_criterion_02_web_most_adverse_strictly_best():
    means = {s: _mean("web-most-adverse", s, 1.0) for s in STRATEGIES}
    margins = {s: means["ata-fmdp"] / means[s] - 1.0 for s in STRATEGIES if s != "ata-fmdp"}
    ok = all(m >= 0.05 for m in margins.values())
    detail = (
        f"means {', '.join(f'{s}={v:.1f}' for s, v in means.items())}; "
        f"margins {', '.join(f'{s}={m:.1%}' for s, m in margins.items())} (need 5% each)"
    )
    assert _line(ok, "criterion-02 web-most-adverse margins", detail)


def test_criterion_03_network_evolving_margins_and_node0_shutdown():
    means = {s: _mean("net-evolving", s, 1.0) for s in STRATEGIES}
    margins = {s: means["ata-fmdp"] / means[s] - 1.0 for s in STRATEGIES if s != "ata-fmdp"}
    fractions = []
    for records in _records("net-evolving", 1.0):
        window = [r for r in records if 330 + 50 <= r.t < 660]
        offline = sum(1 for r in window if r.action.split("|")[0] == "0")
        fractions.append(offline / len(window))
    min_frac = min(fractions)
    ok = all(m >= 0.05 for m in margins.values()) and min_frac >= 0.80
    detail = (
        f"means {', '.join(f'{s}={v:.1f}' for s, v in means.items())}; "
        f"margins {', '.join(f'{s}={m:.1%}' for s, m in margins.items())} (need 5%); "
        f"min node0-offline fraction in [380,660) = {min_frac:.3f} (need 0.80)"
    )
    assert _line(ok, "criterion-03 net-evolving margins and node0 shutdown", detail)


def test_criterion_04_database_switches_all_go_to_mysql():
    # PostgreSQL-only attacker in the unknown slot; start at PHP|Postgres.
    db_switches = to_mysql = python_steps = steps = 0
    for records in _records("web-dh-postgres", 0.5, start_state=1):
        for rec in records:
            if rec.t < 100:
                continue
            steps += 1
            s_lang, s_db = _split(rec.state)
            a_lang, a_db = _split(rec.action)
            if a_lang == "Python":
                python_steps += 1
            if s_db != a_db:
                db_switches += 1
                if a_db == "MySQL":
                    to_mysql += 1
    mysql_frac = to_mysql / db_switches if db_switches else float("nan")
    python_share = python_steps / steps
    ok = db_switches > 0 and mysql_frac == 1.0 and 0.40 <= python_share <= 0.60
    detail = (
        f"{to_mysql}/{db_switches} database switches landed on MySQL "
        f"({mysql_frac:.1%}, need 100%); language Python share {python_share:.3f} "
        f"(need 0.40-0.60); {steps} post-burn-in steps"
    )
    assert _line(ok, "criterion-04 postgres-only threat response", detail)


def test_criterion_05_tripled_switching_costs_separate_urs():
    means = {s: _mean("web-evolving-3xsc", s, 1.0) for s in STRATEGIES}
    ok = means["urs"] < 30.0 and all(
        means[s] > 100.0 for s in ("ata-fmdp", "fpl", "eps-greedy")
    )
    detail = (
        f"means {', '.join(f'{s}={v:.1f}' for s, v in means.items())} "
        f"(need urs<30, others>100)"
    )
    assert _line(ok, "criterion-05 tripled-sc separation", detail)


def test_criterion_06_alp_matches_value_iteration():
    start = time.perf_counter()
    check = check_alp_vs_value_iteration()
    elapsed = time.perf_counter() - start
    detail = f"{check.detail}, {elapsed*1e3:.0f} ms (need <1s)"
    assert _line(check.ok and elapsed < 1.0, "criterion-06 exact-basis planner", detail)


def test_criterion_07_simplex_agrees_with_vertex_enumeration():
    mismatches = compare_simplex_to_vertices(200, seed=10, tol=1e-6)
    ok = mismatches == []
    detail = f"{200 - len(mismatches)}/200 random LPs agree (objective 1e-6, statuses)"
    if mismatches:
        detail += f"; first mismatch: {mismatches[0]}"
    assert _line(ok, "criterion-07 simplex vs vertex enumeration", detail)


def test_criterion_08_estimator_recovers_attack_distribution():
    check = check_estimator_recovery()
    assert _line(check.ok, "criterion-08 estimator recovery", check.detail)


def test_criterion_09_value_loss_within_reward_gap_bound():
    check = check_value_loss_bound()
    assert _line(check.ok, "criterion-09 value-loss bound", check.detail)


def test_criterion_10_policy_regret_grows_linearly():
    check = check_linear_regret()
    assert _line(check.ok, "criterion-10 linear policy regret", check.detail)


def test_criterion_11_identical_configs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(
            ExperimentConfig(
                strategy="ata-fmdp",
                timesteps=120,
                iterations=2,
                out_dir=str(out),
                include_hindsight=False,
            )
        )
        outputs.append((out / "steps.csv").read_bytes())
    ok = outputs[0] == outputs[1] and bool(outputs[0])
    detail = f"two identical runs, steps.csv {len(outputs[0])} bytes each, equal={ok}"
    assert _line(ok, "criterion-11 byte-identical runs", detail)
