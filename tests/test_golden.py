"""Byte-identity of the program's output files.

Each hash in ``GOLDEN_STEPS_SHA256`` pins ``steps.csv`` of an ``ata-fmdp`` run
(seed 10, 2 iterations, no hindsight) on one built-in scenario;
``GOLDEN_CUSTOM_STEPS_SHA256`` pins the same file for ``ata-fmdp`` and ``fpl``
on ``CUSTOM_SCENARIO``, a scenario JSON the test writes.
``GOLDEN_CLI_SHA256`` pins every file that ``mtdsim run`` and
``mtdsim hindsight`` write for one baseline run with a non-default start
state; ``GOLDEN_HINDSIGHT_SHA256`` pins the stdout and ``--out`` CSV of
``mtdsim hindsight`` on the network with a non-default start state and size.
``GOLDEN_DUMP_LP_SHA256`` pins the stdout of ``mtdsim dump-lp`` for
both bases on one web and one network scenario, and for the factored basis
under a seeded estimator checkpoint.  ``GOLDEN_SOLVE_LP_SHA256`` pins the
status, ``x`` bytes and basis of a cold ``solve_lp`` on the cold-posterior ALP
of the web domain (both bases) and of 2-, 3- and 4-node networks, and of a
warm re-solve from that basis after a perturbed posterior.  ``GOLDEN_SAVED_SHA256``
pins the files that ``save_domain``, ``save_scenario``, ``ThreatEstimator.save``
and ``mtdsim dump-lp --out`` write.  A change that is meant to leave
behaviour alone must leave these hashes alone; a change that is meant to
alter behaviour updates them and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from mtdsim.alp import build_alp, build_state_basis
from mtdsim.cli import main
from mtdsim.domain import save_domain
from mtdsim.environments import (
    builtin_scenario,
    make_network_domain,
    make_web_app_domain,
    save_scenario,
    scenario_from_dict,
)
from mtdsim.estimator import ThreatEstimator
from mtdsim.harness import (
    ExperimentConfig,
    cold_posterior_table,
    perturb_posterior_table,
    run_experiment,
)
from mtdsim.lp import solve_lp

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


# Reaches what no built-in scenario does: type keys out of domain order, a
# per-state override, a static phase followed by a most-adverse one, and a
# non-integer switching-cost multiplier.
CUSTOM_SCENARIO = {
    "T": 300,
    "phases": [
        {
            "start": 0,
            "end": 150,
            "mode": "static_dist",
            "dist": {"unknown": 0.2, "database-hacker": 0.3, "mainstream-hacker": 0.5},
            "per_state_dist": {
                "Python|Postgres": {
                    "unknown": 0.5, "mainstream-hacker": 0.3, "database-hacker": 0.2,
                },
                "PHP|Postgres": {
                    "database-hacker": 0.6, "unknown": 0.1, "mainstream-hacker": 0.3,
                },
            },
        },
        {"start": 150, "end": 300, "mode": "most_adverse"},
    ],
    "sc_multiplier": 2.5,
}

GOLDEN_CUSTOM_STEPS_SHA256 = {
    "ata-fmdp": "dafdd156212ad22fab918ff4f8d0af471ccae8a4a56dfc5e2dc905ea606539ec",
    "fpl": "9e034c7a0217f0583ebafb8a56f5df9302a233f1f7b0a65e421508ad538d4c2c",
}


@pytest.mark.parametrize("strategy", sorted(GOLDEN_CUSTOM_STEPS_SHA256))
def test_custom_scenario_steps_csv_is_byte_identical(tmp_path, strategy):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(CUSTOM_SCENARIO))
    run_experiment(
        ExperimentConfig(
            scenario=str(path),
            strategy=strategy,
            iterations=2,
            seed=10,
            include_hindsight=False,
            out_dir=str(tmp_path / "out"),
        )
    )
    digest = hashlib.sha256((tmp_path / "out" / "steps.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CUSTOM_STEPS_SHA256[strategy]


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


GOLDEN_HINDSIGHT_SHA256 = {
    "stdout": "067c27e1cbc3dc5302e1c23bd1d4e9be03e507a888f7c378fdbce7273dae08b3",
    "hindsight.csv": "92ec44aa3d2e10722d5c1ad7f2fd59005b9e5a4f7f0b95186245dab2f6f9dfb2",
}


def test_hindsight_with_a_start_state_and_size_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "hindsight.csv"
    assert main(["hindsight", "--domain", "network", "--scenario", "net-evolving",
                 "--start-state", "0|1", "--timesteps", "200", "--iterations", "2",
                 "--out", str(path)]) == 0
    *table, wrote = capsys.readouterr().out.splitlines(keepends=True)
    assert wrote == f"wrote {path}\n"  # the one line that names the temporary path
    digests = {
        "stdout": hashlib.sha256("".join(table).encode()).hexdigest(),
        "hindsight.csv": hashlib.sha256(path.read_bytes()).hexdigest(),
    }
    assert digests == GOLDEN_HINDSIGHT_SHA256


GOLDEN_DUMP_LP_SHA256 = {
    "web-factored": "98d7d043a6a7e958da66078e63f1b036bf6080425828648e7f70317cc755753a",
    "web-state": "8f6351766453a38ac16183cc37af0aeb673dd9149a1ea1100f352adbd9499813",
    "net-factored": "c3864ad548a66b74d9c94d175e14b474f985504064728d1c8881927c134769a8",
    "net-state": "4b72eeafb39c03abb9bc791d6c9bbe73d2a49f7d52be6a3867822dc354b83c3f",
    "web-factored-estimator": "4bbe2f3b038945c9f2951c1dbaf5a81844a5518df7a1dfe451550f869093f8fc",
}


def _seeded_estimator() -> ThreatEstimator:
    """A web-domain estimator after 40 seeded updates."""
    estimator = ThreatEstimator(make_web_app_domain())
    rng = np.random.default_rng(10)
    for _ in range(40):
        tau, state, action = (int(v) for v in rng.integers((3, 4, 4)))
        estimator.update(tau, state, action, int(rng.random() < 0.6))
    return estimator


def _dump_lp_argv(case: str, tmp_path) -> list[str]:
    argv = ["dump-lp", "--basis", "state" if case.endswith("-state") else "factored"]
    if case.startswith("net-"):
        argv += ["--domain", "network", "--scenario", "net-evolving"]
    else:
        argv += ["--domain", "web", "--scenario", "web-evolving"]
    if case.endswith("-estimator"):
        _seeded_estimator().save(str(tmp_path / "estimator.json"))
        argv += ["--estimator", str(tmp_path / "estimator.json")]
    return argv


@pytest.mark.parametrize("case", sorted(GOLDEN_DUMP_LP_SHA256))
def test_dump_lp_stdout_is_byte_identical(tmp_path, capsys, case):
    assert main(_dump_lp_argv(case, tmp_path)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_DUMP_LP_SHA256[case]


SAVERS = {  # case -> writer of the file at the given path
    "domain-web": lambda path: save_domain(make_web_app_domain(), path),
    "domain-net2": lambda path: save_domain(
        make_network_domain(np.random.default_rng(0), n_nodes=2), path
    ),
    "scenario-web-dh-postgres": lambda path: save_scenario(
        builtin_scenario("web-dh-postgres"), path
    ),
    "scenario-custom": lambda path: save_scenario(scenario_from_dict(CUSTOM_SCENARIO), path),
    "estimator": lambda path: _seeded_estimator().save(path),
    "dump-lp-out": lambda path: main(["dump-lp", "--out", path]),
}

GOLDEN_SAVED_SHA256 = {
    "domain-net2": "0c95f1dc08005b4e36cc337a5755be73b55719d8e580cef2c6404cfaa083e2bf",
    "domain-web": "255515fa9748c885d6a21655f37431d9f74050e767d0691f74675c574512df20",
    "dump-lp-out": "98d7d043a6a7e958da66078e63f1b036bf6080425828648e7f70317cc755753a",
    "estimator": "c0d0981c4faac7d46f3e18810b04b9dcba33ce8e9a1dd0fe45e756ae2c50dc64",
    "scenario-custom": "80bb0172dede8f4c2cdb720f8d7144ea6e249b6961370457885388dd09d46ca3",
    "scenario-web-dh-postgres": "3556e218719792784828f3dfadddb1e4de0dedbd55abd38c675f23f0acfd3b63",
}


@pytest.mark.parametrize("case", sorted(SAVERS))
def test_saved_files_are_byte_identical(tmp_path, capsys, case):
    path = tmp_path / "saved.json"
    SAVERS[case](str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SAVED_SHA256[case]


def _solver_pin_problem(case: str):
    """The cold-posterior ALP of ``case`` and the same ALP under a perturbed posterior.

    The perturbation keeps the cold optimal basis on three cases and forces a
    cold fallback on web-state and net4, so both paths of a warm solve are pinned.
    """
    if case.startswith("web-"):
        domain = make_web_app_domain()
        basis = build_state_basis(domain.space) if case == "web-state" else None
    else:
        domain = make_network_domain(np.random.default_rng(0), n_nodes=int(case[-1]))
        basis = None
    cold = build_alp(domain, cold_posterior_table(domain), basis)
    rng = np.random.default_rng(1)
    posterior = perturb_posterior_table(cold_posterior_table(domain), rng, 0.2)
    return cold.lp, build_alp(domain, posterior, previous=cold).lp


def _solution_digest(solution) -> str:
    h = hashlib.sha256()
    h.update(solution.status.encode())
    h.update(solution.x.tobytes())
    h.update(repr((solution.basis, solution.warm)).encode())
    return h.hexdigest()


GOLDEN_SOLVE_LP_SHA256 = {
    "net2": [
        "a0bcb9e449768678ee12fc2057bff73302e2a065898ca9f1fb1d365de0700f5c",
        "6a07a784886ec2cac2daf19355c06a60fd30414e23e9f40328640c4b8c9bb679",
    ],
    "net3": [
        "95696dbd79e3b249630397331470a15209baabae4908d71abbfb6000a803a7b4",
        "dbd66fd752693a23772875d0f2a5c1537c3ed1d21686d90837f86ddcaac52214",
    ],
    "net4": [
        "6f0a919daac483bca8cfceea45fb61314a1b85724fd53ff601bba3714b3bb646",
        "cbd9f8ac70b3ca44e4bd21c346ee22274258ae583730844ecc2bf2da30b1e408",
    ],
    "web-factored": [
        "fdf077cc235373dc4fe6e82f332c55a5ed65cf77f7666d1079e6192ade3e681b",
        "ababc41a3c482a07bfefc6a31084d9aeee3d03887654fc28269f07e03f594b3e",
    ],
    "web-state": [
        "8461cf1e1d9b1328f34af9332e33a341beb146b60b3141a4418581dfa1be338a",
        "6b74e51feb135ad8cb6862475c4f12caddecad71a45ff60e6a7650f578b8e781",
    ],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVE_LP_SHA256))
def test_solve_lp_solutions_are_byte_identical(case):
    cold_lp, perturbed_lp = _solver_pin_problem(case)
    cold = solve_lp(cold_lp)
    warm = solve_lp(perturbed_lp, start=cold.basis)
    assert [_solution_digest(cold), _solution_digest(warm)] == GOLDEN_SOLVE_LP_SHA256[case]
