"""Byte-identity of the program's output files.

Each hash in ``GOLDEN_STEPS_SHA256`` pins ``steps.csv`` of an ``ata-fmdp`` run
(seed 10, 2 iterations, no hindsight) on one built-in scenario.
``GOLDEN_CLI_SHA256`` pins every file that ``mtdsim run`` and
``mtdsim hindsight`` write for one baseline run with a non-default start
state.  ``GOLDEN_DUMP_LP_SHA256`` pins the stdout of ``mtdsim dump-lp`` for
both bases on one web and one network scenario, and for the factored basis
under a seeded estimator checkpoint.  A change that is meant to leave
behaviour alone must leave these hashes alone; a change that is meant to
alter behaviour updates them and says why.
"""

import hashlib

import numpy as np
import pytest

from mtdsim.cli import main
from mtdsim.environments import make_web_app_domain
from mtdsim.estimator import ThreatEstimator
from mtdsim.harness import ExperimentConfig, run_experiment

GOLDEN_STEPS_SHA256 = {
    "net-evolving": "00bf2e629d48d6060b1ceb0cd79fe39bece7616624d7f4991a3709e998f51111",
    "net-evolving-3xsc": "ec2662f2a1ccc45874dbfe3d30dae6e461750e8fa68eaff8489cef15592574d3",
    "net-most-adverse": "8a637e4c8646c2321fa263f71748ce417c8df20149454a7ded6b2abe7656484f",
    "web-dh-postgres": "7035ffab61209c3327a07087a4e730b8392b0f74cefe4e19d07d63ef91b2549f",
    "web-evolving": "f49085ee682db14492ec41cde07bb6060a96d16035d29e814a2635fd3e76dd42",
    "web-evolving-3xsc": "c29d710a066640ed0483426e86876ba10027f6f52d6544ff402ac16a4a254314",
    "web-most-adverse": "6b99e823018579c7fc3277d1e33b356968115725df7f9c9705214cbe4c23793f",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_STEPS_SHA256))
def test_ata_fmdp_steps_csv_is_byte_identical(tmp_path, scenario):
    run_experiment(
        ExperimentConfig(
            domain="network" if scenario.startswith("net-") else "web",
            scenario=scenario,
            strategy="ata-fmdp",
            iterations=2,
            seed=10,
            include_hindsight=False,
            out_dir=str(tmp_path),
        )
    )
    digest = hashlib.sha256((tmp_path / "steps.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_STEPS_SHA256[scenario]


GOLDEN_CLI_SHA256 = {
    "run/steps.csv": "067fd3c1c262d205f1de405986bc103fba67c8b80eb772c6e184707479956a9c",
    "run/rolling.csv": "95d54537c5347409f29eb7c29b29a77b7a0a1e34acedc020d45530ef8bd117fb",
    "run/summary.csv": "257ac36d4a64e2a2513ec2a911b4dbc8c5d076bdf67953a1ad85e35b5df2e757",
    "run/meta.json": "53a51c0a820d7185845a1f0cbbe9ae7302ccbce871bd3b4ac7fdf645a31f25ea",
    "hindsight.csv": "0630a6658ea18090b2ea3455d9748bb208ce6dde7b4bb489b1ec5b848ac4b9d2",
}


def test_cli_output_files_are_byte_identical(tmp_path, capsys):
    assert main(["run", "--strategy", "fpl", "--start-state", "Python|MySQL",
                 "--iterations", "2", "--seed", "10", "--out", str(tmp_path / "run")]) == 0
    assert main(["hindsight", "--iterations", "2",
                 "--out", str(tmp_path / "hindsight.csv")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_CLI_SHA256
    }
    assert digests == GOLDEN_CLI_SHA256


GOLDEN_DUMP_LP_SHA256 = {
    "web-factored": "98d7d043a6a7e958da66078e63f1b036bf6080425828648e7f70317cc755753a",
    "web-state": "8f6351766453a38ac16183cc37af0aeb673dd9149a1ea1100f352adbd9499813",
    "net-factored": "c3864ad548a66b74d9c94d175e14b474f985504064728d1c8881927c134769a8",
    "net-state": "4b72eeafb39c03abb9bc791d6c9bbe73d2a49f7d52be6a3867822dc354b83c3f",
    "web-factored-estimator": "4bbe2f3b038945c9f2951c1dbaf5a81844a5518df7a1dfe451550f869093f8fc",
}


def _dump_lp_argv(case: str, tmp_path) -> list[str]:
    argv = ["dump-lp", "--basis", "state" if case.endswith("-state") else "factored"]
    if case.startswith("net-"):
        argv += ["--domain", "network", "--scenario", "net-evolving"]
    else:
        argv += ["--domain", "web", "--scenario", "web-evolving"]
    if case.endswith("-estimator"):
        estimator = ThreatEstimator(make_web_app_domain())
        rng = np.random.default_rng(10)
        for _ in range(40):
            tau, state, action = (int(v) for v in rng.integers((3, 4, 4)))
            estimator.update(tau, state, action, int(rng.random() < 0.6))
        estimator.save(str(tmp_path / "estimator.json"))
        argv += ["--estimator", str(tmp_path / "estimator.json")]
    return argv


@pytest.mark.parametrize("case", sorted(GOLDEN_DUMP_LP_SHA256))
def test_dump_lp_stdout_is_byte_identical(tmp_path, capsys, case):
    assert main(_dump_lp_argv(case, tmp_path)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_DUMP_LP_SHA256[case]
