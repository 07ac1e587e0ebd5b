"""Tests for the command-line interface.

Most tests call ``main`` in-process and inspect stdout/stderr via capsys;
one subprocess test covers the installed console script, or ``python -m
mtdsim`` where the package is importable but not installed.
"""

import argparse
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

from mtdsim.cli import _parse_reopt_period, build_parser, main
from mtdsim.domain import domain_to_dict
from mtdsim.environments import builtin_scenario, make_web_app_domain, scenario_to_dict
from mtdsim.estimator import ThreatEstimator
from mtdsim.harness import ExperimentConfig

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_reopt_period_parsing():
    assert _parse_reopt_period("never") is None
    assert _parse_reopt_period("NONE") is None
    assert _parse_reopt_period("inf") is None
    assert _parse_reopt_period("7") == 7
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_reopt_period("0")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_reopt_period("sometimes")


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
        "scenario-unknown-label": (
            "run", "--scenario", one_phase(dist=mix, per_state_dist={"PHP|MySQl": mix}),
        ),
        "domain-M-not-a-number": ("run", "--domain", {**domain, "M": "abc"}),
        "domain-M-boolean": ("run", "--domain", {**domain, "M": True}),
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


def test_bad_reopt_period_is_an_argparse_error(capsys):
    for argv in (
        ["run", "--reopt-period", "0"],
        ["run", "--seed", "-1"],
        ["hindsight", "--seed", "-1"],
        ["dump-lp", "--seed", "-1"],
        ["verify", "--seed", "-1"],
        ["verify", "--samples", "0"],
        ["verify", "--perturbations", "0"],
        ["verify", "--runs", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"error: argument {argv[1]}:" in capsys.readouterr().err, argv


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
