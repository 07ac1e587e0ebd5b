"""Byte-identity of the program's output files.

Each hash in ``GOLDEN_STEPS_SHA256`` pins ``steps.csv`` of an ``ata-fmdp`` run
(seed 10, 2 iterations, no hindsight) on one built-in scenario;
``GOLDEN_CUSTOM_STEPS_SHA256`` pins the same file for ``ata-fmdp``, ``fpl``,
``eps-greedy``, ``urs`` and one ``static:<label>`` run on ``CUSTOM_SCENARIO``,
a scenario JSON the test writes.
``GOLDEN_CLI_SHA256`` pins every file that ``mtdsim run`` and
``mtdsim hindsight`` write for one baseline run with a non-default start
state; ``GOLDEN_ALPHA_RUN_SHA256`` pins ``steps.csv``, ``summary.csv`` and
``meta.json`` of two ``mtdsim run`` calls at a switching-cost weight other
than 1. ``GOLDEN_HINDSIGHT_SHA256`` pins the stdout and ``--out`` CSV of
``mtdsim hindsight`` on the network with a non-default start state and size.
``GOLDEN_DUMP_LP_SHA256`` pins the stdout of ``mtdsim dump-lp`` for
both bases on one web and one network scenario, for the factored basis
under a seeded estimator checkpoint, and at alpha 0.5 on ``web-dh-postgres``.
``GOLDEN_SOLVE_LP_SHA256`` pins the status, ``x`` bytes and basis of a cold
``solve_lp`` on the cold-posterior ALP of the web domain (both bases) and of
2- to 5-node networks, and of a warm re-solve from that basis after a perturbed
posterior; ``GOLDEN_SOLVE_LP_PIVOTS`` pins the pivot counts of the same two
solves.  ``GOLDEN_SAVED_SHA256``
pins the files that ``save_domain``, ``save_scenario``, ``ThreatEstimator.save``
and ``mtdsim dump-lp --out`` write.  A change that is meant to leave
behaviour alone must leave these hashes alone; a change that is meant to
alter behaviour updates them and says why.
"""

import hashlib
import json
from functools import cache

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
from oracles import certified_x

GOLDEN_STEPS_SHA256 = {
    "net-evolving": "00bf2e629d48d6060b1ceb0cd79fe39bece7616624d7f4991a3709e998f51111",
    "net-evolving-3xsc": "ec2662f2a1ccc45874dbfe3d30dae6e461750e8fa68eaff8489cef15592574d3",
    "net-most-adverse": "8a637e4c8646c2321fa263f71748ce417c8df20149454a7ded6b2abe7656484f",
    "web-dh-postgres": "bff24b23802f7d9c17d50d79e3a7c5d0747102dcab7db0aefc65294508fe315e",
    "web-evolving": "f49085ee682db14492ec41cde07bb6060a96d16035d29e814a2635fd3e76dd42",
    "web-evolving-3xsc": "c29d710a066640ed0483426e86876ba10027f6f52d6544ff402ac16a4a254314",
    "web-most-adverse": "6b99e823018579c7fc3277d1e33b356968115725df7f9c9705214cbe4c23793f",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_STEPS_SHA256))
def test_ata_fmdp_steps_csv_is_byte_identical(tmp_path, scenario):
    run_experiment(
        ExperimentConfig(
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
    "eps-greedy": "9defb41c07b77ddb517a07d1bd300d1aea74d4e8e1bacca1962fc81cf3701efb",
    "urs": "f69b69164dd2b089751672e203a992f1d0af1f380982cb0fb9d3274bc1891772",
    "static:PHP|Postgres": "bb11a8934daf075f52a7097232b5de3a2dfe1df94c1ce4d0358c48dfe98e51d1",
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


GOLDEN_ALPHA_RUN_SHA256 = {
    "web/steps.csv": "32413744be183095c76b3f59547447f62088cfb237da68670e2cb14c8ce14444",
    "web/summary.csv": "8eb851f96bcc1af5a527e9a3253e65169e54c47fe71e4ef868050c30c373b51f",
    "web/meta.json": "e2781a6ef816daf4598bfbf028ddff23c1c89bd221c0b149ef7ac66c4b4b8d3d",
    "net/steps.csv": "1a904a2cd907bd3d4c89e73b238748cf8873667ee6fe26e9d592a39f26bf0643",
    "net/summary.csv": "9561e393e1dc7c110de479084f86c089060bff0393e4504172d00806ae8f574b",
    "net/meta.json": "535b260c622df63212a415cf4589580bead1d55773b8776064778e5753241f70",
}
# case -> (scenario, alpha, strategy); alpha != 1, where a misplaced weight shows.
ALPHA_RUNS = {
    "web": ("web-evolving-3xsc", "0.5", "ata-fmdp"),
    "net": ("net-evolving", "2.5", "fpl"),
}


@pytest.mark.parametrize("case", sorted(ALPHA_RUNS))
def test_run_at_alpha_other_than_one_is_byte_identical(tmp_path, capsys, case):
    scenario, alpha, strategy = ALPHA_RUNS[case]
    out = tmp_path / case
    assert main(["run", "--scenario", scenario, "--alpha", alpha, "--strategy", strategy,
                 "--timesteps", "300", "--iterations", "2", "--out", str(out)]) == 0
    for name in ("steps.csv", "summary.csv", "meta.json"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_ALPHA_RUN_SHA256[f"{case}/{name}"], name


GOLDEN_HINDSIGHT_SHA256 = {
    "stdout": "067c27e1cbc3dc5302e1c23bd1d4e9be03e507a888f7c378fdbce7273dae08b3",
    "hindsight.csv": "92ec44aa3d2e10722d5c1ad7f2fd59005b9e5a4f7f0b95186245dab2f6f9dfb2",
}


def test_hindsight_with_a_start_state_and_size_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "hindsight.csv"
    assert main(["hindsight", "--scenario", "net-evolving",
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
    "web-dh-postgres-alpha": "f288eaace4f2ae2f88cf19d025fbe1f0935d7cb4ded8759ea77b11fc8fd939da",
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
    if case.endswith("-alpha"):
        return argv + ["--scenario", case.removesuffix("-alpha"), "--alpha", "0.5"]
    argv += ["--scenario", case.split("-")[0] + "-evolving"]  # web-evolving or net-evolving
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

    The perturbation keeps the cold optimal basis on three cases and fails its
    re-check on net4, net5 and web-state, which restart the dual simplex from
    it, so both paths of a warm solve are pinned.
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


@cache
def _pinned_solutions(case: str):
    """The cold solve of ``case`` and the re-solve started from its certificate."""
    cold_lp, perturbed_lp = _solver_pin_problem(case)
    cold = solve_lp(cold_lp)
    return cold, solve_lp(perturbed_lp, start=cold)


def _solution_digest(solution) -> str:
    h = hashlib.sha256()
    h.update(solution.status.encode())
    h.update(solution.x.tobytes())
    h.update(repr((solution.basis, solution.warm)).encode())
    return h.hexdigest()


# Every optimal x is solved from its basis's tight system, so a digest moves
# with the final basis, not with the pivots that reached it.
GOLDEN_SOLVE_LP_SHA256 = {
    "net2": [
        "70e0184b180623adc9f2f1ce779ff8b4f1e6a52ec0cf52f3a876c8771bd23590",
        "6a07a784886ec2cac2daf19355c06a60fd30414e23e9f40328640c4b8c9bb679",
    ],
    "net3": [
        "5c90e28ad520ae922ba629b5483e36e7679659a21d90ce01673201bce530fe30",
        "dbd66fd752693a23772875d0f2a5c1537c3ed1d21686d90837f86ddcaac52214",
    ],
    "net4": [
        "4c303f57ea5154f992ef9d5b641ca4b42b55137979d940d515649d3f88462d22",
        "59ced817087b4e3b90005b8f00643e4a3a950e6fc8d7d0dc90afe8fbba69b4f6",
    ],
    "net5": [
        "8a49e2092b37efd670ed55d95de2668356961cc757d57508e84e415f5a288277",
        "7de497bd6e8ca6a358abd36b94368be513b2c329499f9e0189474a10bf4ff548",
    ],
    "web-factored": [
        "9afa9b289d1a924855fd496e2240e832c5411294d6660f5b71c2057cab03c2ac",
        "ababc41a3c482a07bfefc6a31084d9aeee3d03887654fc28269f07e03f594b3e",
    ],
    "web-state": [
        "bd8694ef6ef5f533fc965db8d25693b727d4d5b5bd2a3cc7610663d402fa426e",
        "bce644fd942dc1d8baa8945c8a8f93d9505ad221fbcf62dd40e5b111f5db3160",
    ],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVE_LP_SHA256))
def test_solve_lp_solutions_are_byte_identical(case):
    cold, warm = _pinned_solutions(case)
    assert [_solution_digest(cold), _solution_digest(warm)] == GOLDEN_SOLVE_LP_SHA256[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVE_LP_SHA256))
def test_pinned_solutions_are_their_certificates_vertices(case):
    for problem, solution in zip(_solver_pin_problem(case), _pinned_solutions(case)):
        assert solution.x.tobytes() == certified_x(problem, solution).tobytes()


# Pivots of the cold solve and of the warm re-solve (0 when the start basis
# held, else the dual restart's), counted with the dense rank-one pivot: equal
# counts mean the pivot path did not move.
GOLDEN_SOLVE_LP_PIVOTS = {
    "net2": [23, 0],
    "net3": [77, 0],
    "net4": [291, 20],
    "net5": [1051, 55],
    "web-factored": [20, 0],
    "web-state": [29, 1],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVE_LP_PIVOTS))
def test_solve_lp_pivot_counts_are_pinned(case):
    cold, warm = _pinned_solutions(case)
    assert [cold.pivots, warm.pivots] == GOLDEN_SOLVE_LP_PIVOTS[case]
