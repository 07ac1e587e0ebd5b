"""Byte-identity of the adaptive planner's step log on every built-in scenario.

Each hash pins ``steps.csv`` of an ``ata-fmdp`` run (seed 10, 2 iterations,
no hindsight).  A change to the planner or the LP solver that is meant to
leave behaviour alone must leave these hashes alone; a change that is meant
to alter behaviour updates them and says why.
"""

import hashlib

import pytest

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
