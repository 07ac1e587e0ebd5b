"""Tests for the command-line interface.

Most tests call ``main`` in-process and inspect stdout/stderr via capsys;
one subprocess test covers the installed console script, or ``python -m
mtdsim`` where the package is importable but not installed.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from math import nan
from pathlib import Path

import numpy as np
import pytest

from mtdsim import alp as alp_module
from mtdsim.cli import _parse_reopt_period, build_parser, main
from mtdsim.domain import domain_to_dict
from mtdsim.environments import builtin_scenario, make_web_app_domain, scenario_to_dict
from mtdsim.estimator import ThreatEstimator
from mtdsim.harness import ExperimentConfig
from mtdsim.lp import NumericalError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_reopt_period_parsing(capsys):
    assert _parse_reopt_period("never") is None
    assert _parse_reopt_period("NONE") is None
    assert _parse_reopt_period("inf") is None
    assert _parse_reopt_period("7") == 7
    assert _parse_reopt_period("0") == 0  # the harness rejects it, as in the API
    with pytest.raises(ValueError):
        _parse_reopt_period("sometimes")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--reopt-period", "sometimes"])
    assert exc.value.code == 2
    assert "error: argument --reopt-period: invalid" in capsys.readouterr().err


def test_run_writes_outputs_and_prints_the_summary(tmp_path, capsys):
    out = tmp_path / "runout"
    code = main(
        [
            "run",
            "--strategy", "urs",
            "--timesteps", "8",
            "--iterations", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "strategy=urs" in text and "mean_avg_reward=" in text
    assert "hindsight: best_static=" in text and "worst_static=" in text
    assert f"wrote steps.csv, rolling.csv, summary.csv, meta.json to {out}" in text
    for name in ("steps.csv", "rolling.csv", "summary.csv", "meta.json"):
        assert (out / name).exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--beta", "inf"],
        ["--strategy", "fpl", "--fpl-rate", "inf"],
        ["--strategy", "urs", "--fpl-rate", "inf"],  # unused by urs, but meta.json records it
        ["--strategy", "urs", "--beta", "0.5"],
        ["--strategy", "ata-fmdp", "--epsilon", "1.5"],
        ["--strategy", "eps-greedy", "--fpl-lmax", "0"],
    ],
    ids=["beta-inf", "fpl-rate-inf", "unused-fpl-rate-inf", "unused-beta-below-one",
         "unused-epsilon-above-one", "unused-fpl-lmax-zero"],
)
def test_run_rejects_non_finite_hyperparameters(flags, tmp_path, capsys):
    # Every hyperparameter is checked before the first step, so nothing is written.
    out = tmp_path / "runout"
    argv = ["run", *flags, "--timesteps", "50", "--iterations", "2", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_run_adaptive_planner_with_plan_once_and_start_state(capsys):
    code = main(
        [
            "run",
            "--strategy", "ata-fmdp",
            "--reopt-period", "never",
            "--timesteps", "5",
            "--iterations", "1",
            "--start-state", "Python|Postgres",
        ]
    )
    assert code == 0
    assert "strategy=ata-fmdp" in capsys.readouterr().out
    assert main(["run", "--start-state", "foo", "--timesteps", "1", "--iterations", "1"]) == 2
    err = capsys.readouterr().err
    assert "'foo'" in err and "PHP|MySQL, PHP|Postgres, Python|MySQL, Python|Postgres" in err


def test_run_static_strategy_label(capsys):
    code = main(
        [
            "run",
            "--strategy", "static:Python|Postgres",
            "--timesteps", "4",
            "--iterations", "1",
        ]
    )
    assert code == 0
    assert "strategy=static:Python|Postgres" in capsys.readouterr().out
    assert main(["run", "--strategy", "static:foo", "--timesteps", "1", "--iterations", "1"]) == 2
    err = capsys.readouterr().err
    assert "'foo'" in err and "PHP|MySQL, PHP|Postgres, Python|MySQL, Python|Postgres" in err


def test_hindsight_prints_and_writes_the_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        [
            "hindsight",
            "--timesteps", "6",
            "--iterations", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("static:") == 4
    assert "best_static=" in text and "worst_static=" in text
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "config,mean_avg_reward"
    assert len(lines) == 5
    assert lines[1].startswith("PHP|MySQL,")


def test_verify_passes_all_property_checks(capsys):
    code = main(
        ["verify", "--samples", "2000", "--perturbations", "5", "--runs", "200"]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "4/4 checks passed" in text
    assert text.count("PASS") == 4 and "FAIL" not in text


def test_dump_lp_emits_the_program_on_stdout(capsys):
    code = main(["dump-lp"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"basis", "objective", "rows", "theta"}
    assert len(data["rows"]) == 16
    assert len(data["objective"]) == 5
    assert "language=PHP" in data["basis"]


def test_dump_lp_state_basis_to_file(tmp_path, capsys):
    out = tmp_path / "program.json"
    code = main(["dump-lp", "--basis", "state", "--out", str(out)])
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    data = json.loads(out.read_text(encoding="utf-8"))
    assert "language=PHP,database=MySQL" in data["basis"]
    assert len(data["rows"]) == 16


def test_dump_lp_accepts_an_estimator_state_file(tmp_path, capsys):
    web = make_web_app_domain()
    est = ThreatEstimator(web)
    rng = np.random.default_rng(0)
    for _ in range(25):
        est.update(int(rng.integers(3)), int(rng.integers(4)), int(rng.integers(4)), 1)
    path = tmp_path / "estimator.json"
    est.save(str(path))
    code = main(["dump-lp", "--estimator", str(path)])
    assert code == 0
    heated = json.loads(capsys.readouterr().out)
    capsys.readouterr()
    main(["dump-lp"])
    cold = json.loads(capsys.readouterr().out)
    assert heated["rows"] != cold["rows"]  # observations moved the constraints


def test_unknown_scenario_exits_with_a_domain_error(capsys):
    code = main(["run", "--scenario", "no-such-scenario"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no-such-scenario" in err


def test_a_solver_that_cannot_tell_exits_with_an_error_line(monkeypatch, capsys):
    def breaks_down(*args, **kwargs):
        raise NumericalError("phase 1 stopped unbounded after 3 pivots", 3, 0.5)

    monkeypatch.setattr(alp_module, "solve_lp", breaks_down)
    assert main(["run", "--iterations", "1", "--timesteps", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "phase 1 stopped unbounded" in err


def test_run_plays_a_network_scenario_on_the_network_domain_by_default(tmp_path, capsys):
    out = tmp_path / "net"
    argv = ["run", "--scenario", "net-most-adverse", "--timesteps", "5", "--iterations", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = (out / "steps.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("0,0,1|1,")  # network labels, starting with every node online
    labels = {"1|1", "1|0", "0|1", "0|0"}
    assert all({row.split(",")[2], row.split(",")[3]} <= labels for row in lines[1:])
    assert json.loads((out / "meta.json").read_text(encoding="utf-8"))["domain"] == "network"


def test_a_builtin_scenario_with_the_other_domain_exits_with_a_domain_error(capsys):
    assert main(["run", "--scenario", "net-evolving", "--domain", "web"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "written for the 'network' domain" in err


def test_unknown_domain_exits_with_a_domain_error(capsys):
    code = main(["hindsight", "--domain", "mainframe"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_parser_defaults_are_the_experiment_config_defaults():
    args = vars(build_parser().parse_args(["run"]))
    config = dataclasses.asdict(ExperimentConfig())
    shared = sorted(set(args) & set(config))
    assert len(shared) == 15
    assert {k: args[k] for k in shared} == {k: config[k] for k in shared}


def _malformed_inputs():
    scenario = scenario_to_dict(builtin_scenario("web-evolving"))
    domain = domain_to_dict(make_web_app_domain())
    estimator = ThreatEstimator(make_web_app_domain()).to_dict()
    no_beta = {k: v for k, v in estimator.items() if k != "beta"}
    no_counts = {k: v for k, v in estimator.items() if k != "counts"}
    bad_phase = {"start": 0, "end": scenario["T"], "dist": 5}
    mix = {"mainstream-hacker": 0.5, "database-hacker": 0.5}
    # Only a string flag marks a catch-all type, and bool("false") is True.
    string_unknown = [
        {**t, "unknown": "false" if t["id"] == "mainstream-hacker" else False}
        for t in domain["attacker_types"]
    ]

    def one_phase(**fields):
        return {**scenario, "phases": [{"start": 0, "end": scenario["T"], **fields}]}

    def window(T, start, end):  # a scenario that is valid once its numbers are truncated
        return {"T": T, "phases": [{"start": start, "end": end, "dist": mix}]}

    # float() reads a JSON true as 1.0 and a string "0.9" as 0.9; a number must be a number.
    def first_mu(value):
        first, *rest = domain["attacker_types"]
        first = {**first, "mu": {**first["mu"], "PHP|MySQL": value}}
        return {**domain, "attacker_types": [first, *rest]}

    def first_switching_cost(value):
        costs = domain["switching_cost"]
        row = {**costs["PHP|MySQL"], "PHP|Postgres": value}
        return {**domain, "switching_cost": {**costs, "PHP|MySQL": row}}

    def multiplier(value):
        return {**scenario, "sc_multiplier": value}

    def first_count(value):
        counts = estimator["counts"]
        cell = [[[value, *counts[0][0][1:]], *counts[0][1:]], *counts[1:]]
        return {**estimator, "counts": cell}

    return {
        "scenario-T-not-a-number": ("run", "--scenario", {**scenario, "T": "abc"}),
        "scenario-not-json": ("run", "--scenario", "{not json"),
        "scenario-dist-not-a-map": ("run", "--scenario", {**scenario, "phases": [bad_phase]}),
        "scenario-nan-weight": ("run", "--scenario", one_phase(dist={**mix, "unknown": nan})),
        "scenario-unknown-type": ("run", "--scenario", one_phase(dist={**mix, "nobody": 0.0})),
        "scenario-T-not-an-integer": ("run", "--scenario", window(10.9, 0, 10)),
        "scenario-start-not-an-integer": ("run", "--scenario", window(10, 0.7, 10)),
        "scenario-end-not-an-integer": ("run", "--scenario", window(10, 0, 10.2)),
        "scenario-boolean-weight": ("run", "--scenario", one_phase(dist={"unknown": True})),
        "scenario-sc-multiplier-boolean": ("run", "--scenario", multiplier(True)),
        "scenario-sc-multiplier-string": ("run", "--scenario", multiplier("2.5")),
        "scenario-sc-multiplier-negative": ("run", "--scenario", multiplier(-1.0)),
        "scenario-sc-multiplier-infinite": ("run", "--scenario", multiplier(float("inf"))),
        "scenario-unknown-label": (
            "run", "--scenario", one_phase(dist=mix, per_state_dist={"PHP|MySQl": mix}),
        ),
        "domain-M-not-a-number": ("run", "--domain", {**domain, "M": "abc"}),
        "domain-M-boolean": ("run", "--domain", {**domain, "M": True}),
        "domain-M-infinite": ("run", "--domain", {**domain, "M": float("inf")}),  # Infinity
        "domain-rewards-past-float-range": ("run", "--domain", {**domain, "M": -1e308}),
        # Integers that Python reads exactly but float() cannot hold.
        "domain-M-integer-past-float-range": ("run", "--domain", {**domain, "M": 10**400}),
        "domain-mu-integer-past-float-range": ("run", "--domain", first_mu(10**399)),
        "domain-gamma-string": ("run", "--domain", {**domain, "gamma": "0.9"}),
        "domain-mu-boolean": ("run", "--domain", first_mu(True)),
        "domain-switching-cost-boolean": ("run", "--domain", first_switching_cost(True)),
        "domain-factors-not-a-list": ("run", "--domain", {**domain, "factors": 5}),
        "domain-unknown-not-a-boolean": (
            "run", "--domain", {**domain, "attacker_types": string_unknown},
        ),
        "domain-no-attacker-types": (
            "run", "--domain", {**domain, "attacker_types": []},
            "--scenario", "web-most-adverse", "--strategy", "urs",
        ),
        "estimator-without-beta": ("dump-lp", "--estimator", no_beta),
        "estimator-without-counts": ("dump-lp", "--estimator", no_counts),
        "estimator-beta-string": ("dump-lp", "--estimator", {**estimator, "beta": "3"}),
        "estimator-count-boolean": ("dump-lp", "--estimator", first_count(True)),
        "estimator-count-string": ("dump-lp", "--estimator", first_count("1.5")),
    }


@pytest.mark.parametrize("case", sorted(_malformed_inputs()))
def test_malformed_json_input_exits_with_a_domain_error(case, tmp_path, capsys):
    command, option, content, *extra = _malformed_inputs()[case]
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    sizes = ["--timesteps", "1", "--iterations", "1"] if command == "run" else []
    assert main([command, option, str(path), *extra, *sizes]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_a_web_domain_with_large_rewards_plans(tmp_path):
    # Rewards near 2e9: phase 1 of the first ALP starts at a residual of 8e9
    # and ends at 4.8e-7, which is rounding, not infeasibility.
    path = tmp_path / "web.json"
    path.write_text(json.dumps({**domain_to_dict(make_web_app_domain()), "M": 2e9}))
    sizes = ["--iterations", "1", "--timesteps", "20"]
    assert main(["run", "--domain", str(path), "--scenario", "web-evolving", *sizes]) == 0


def test_a_web_domain_past_the_edge_of_gamma_exits_with_an_error_line(tmp_path, capsys):
    # At gamma = 1 - 1e-10 the stay rows' coefficients fall below FEAS_TOL,
    # so the solver cannot tell the first ALP's status.
    path = tmp_path / "web.json"
    path.write_text(json.dumps({**domain_to_dict(make_web_app_domain()), "gamma": 1.0 - 1e-10}))
    sizes = ["--iterations", "1", "--timesteps", "1"]
    assert main(["run", "--domain", str(path), *sizes]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: approximate LP: phase 1 stopped optimal after 0 pivots")
    assert "no proof of infeasibility (4 of 16 rows, 5 basis functions)" in err


def test_a_domain_whose_values_pass_float_range_exits_with_a_domain_error(tmp_path, capsys):
    # M 1e308 at gamma 0.9: values up to 1e309, which the domain rejects.
    path = tmp_path / "web.json"
    path.write_text(json.dumps({**domain_to_dict(make_web_app_domain()), "M": 1e308}))
    sizes = ["--iterations", "1", "--timesteps", "1"]
    assert main(["run", "--strategy", "urs", "--domain", str(path), *sizes]) == 2
    assert "over 1 - gamma (0.9), are not finite" in capsys.readouterr().err


def test_nan_fpl_rate_exits_with_a_domain_error(capsys):
    argv = ["run", "--strategy", "fpl", "--fpl-rate", "nan", "--timesteps", "1"]
    assert main([*argv, "--iterations", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "sizes", [("--iterations", "0"), ("--timesteps", "0"), ("--timesteps", "1001")]
)
def test_hindsight_rejects_sizes_that_run_rejects(sizes, capsys):
    assert main(["run", "--strategy", "urs", *sizes]) == 2
    run_error = capsys.readouterr().err
    assert main(["hindsight", *sizes]) == 2
    assert capsys.readouterr().err == run_error


def test_bad_run_sizes_exit_with_the_harness_error(capsys):
    # Parsed as plain integers; the harness checks the API applies reject them.
    sizes = ["--timesteps", "1", "--iterations", "1"]
    for argv, message in (
        (["run", "--reopt-period", "0", *sizes], "reopt_period must be >= 1"),
        (["run", "--seed", "-1", *sizes], "seed must be >= 0"),
        (["hindsight", "--seed", "-1", *sizes], "seed must be >= 0"),
        (["dump-lp", "--seed", "-1"], "seed must be >= 0"),
        (["verify", "--seed", "-1"], "seed must be >= 0"),
        (["verify", "--samples", "0"], "samples must be >= 1"),
        (["verify", "--perturbations", "0"], "perturbations must be >= 1"),
        (["verify", "--runs", "-1"], "n_runs must be >= 1"),
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error:") and message in err, argv
        assert "PASS" not in out and "FAIL" not in out, argv


def test_verify_with_no_runs_exits_before_printing_a_verdict(capsys):
    assert main(["verify", "--runs", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "n_runs must be >= 1" in err


@pytest.mark.parametrize(
    "bad",
    [
        ["--seed", "-1"],
        ["--samples", "0"],
        ["--perturbations", "0"],
        ["--runs", "0"],
        ["--samples", "200000", "--runs", "0"],
    ],
)
def test_verify_rejects_a_bad_size_before_running_any_check(bad, monkeypatch, capsys):
    def not_called(*args):
        raise AssertionError("a check ran before the sizes were checked")

    for name in (
        "check_alp_vs_policy_iteration",
        "check_estimator_recovery",
        "check_value_loss_bound",
        "check_linear_regret",
    ):
        monkeypatch.setattr(f"mtdsim.cli.{name}", not_called)
    assert main(["verify", *bad]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "must be >= " in err


@pytest.mark.parametrize(
    "option", [("--timesteps", "0"), ("--iterations", "-3"), ("--start-state", "nope")]
)
def test_dump_lp_rejects_the_episode_options_it_does_not_read(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump-lp", *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


UNUSABLE_PATHS = {  # argv for a scratch directory d that holds one empty file d/file
    "dump-lp-estimator-missing": lambda d: ["dump-lp", "--estimator", f"{d}/missing.json"],
    "run-scenario-is-a-directory": lambda d: ["run", "--scenario", d],
    "run-domain-is-a-directory": lambda d: ["run", "--domain", d],
    "run-out-is-a-file": lambda d: ["run", "--strategy", "urs", "--out", f"{d}/file"],
    "hindsight-out-in-a-missing-directory": lambda d: ["hindsight", "--out", f"{d}/no/x.csv"],
    "dump-lp-out-in-a-missing-directory": lambda d: ["dump-lp", "--out", f"{d}/no/x.json"],
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_PATHS))
def test_unusable_paths_exit_with_an_error_message(case, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    argv = UNUSABLE_PATHS[case](str(tmp_path))
    sizes = ["--timesteps", "1", "--iterations", "1"] if argv[0] != "dump-lp" else []
    assert main([*argv, *sizes]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_console_script_entry_point():
    command = ["mtdsim"] if shutil.which("mtdsim") else [sys.executable, "-m", "mtdsim"]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [*command, "run", "--strategy", "urs", "--timesteps", "3", "--iterations", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert proc.returncode == 0
    assert "strategy=urs" in proc.stdout


def test_the_readme_command_block_runs(tmp_path):
    # The sh block under "Command line", each command as a shell reads it,
    # with run and hindsight cut to one short iteration (argparse keeps the
    # last value of a repeated option).
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    short = " --timesteps 50 --iterations 1"
    script = "\n".join(
        ['mtdsim() { "$PYTHON" -m mtdsim "$@"; }']
        + [line + short if line.split()[:2] in (["mtdsim", "run"], ["mtdsim", "hindsight"])
           else line for line in lines]
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["bash", "-e", "-c", script],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHON": sys.executable},
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results" / "steps.csv").is_file() and (tmp_path / "statics.csv").is_file()
