"""Tests for the command-line interface.

Most tests call ``main`` in-process and inspect stdout/stderr via capsys;
one subprocess test covers the installed console script, or ``python -m
mtdsim`` where the package is importable but not installed.
"""

import argparse
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mtdsim.cli import _parse_reopt_period, main
from mtdsim.environments import make_web_app_domain
from mtdsim.estimator import ThreatEstimator


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


def test_bad_reopt_period_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--reopt-period", "0"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    command = ["mtdsim"] if shutil.which("mtdsim") else [sys.executable, "-m", "mtdsim"]
    proc = subprocess.run(
        [*command, "run", "--strategy", "urs", "--timesteps", "3", "--iterations", "1"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "strategy=urs" in proc.stdout
