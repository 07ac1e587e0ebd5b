"""The benchmark's committed references hold for the program as it stands.

Plays the first ``SEEDS`` recorded episode seeds of every workload in
``bench/workloads.py`` at the horizon committed in ``bench/references.json``
and checks each episode's step-record digest and mean rewards against that
file, which it only reads.  A hot-path change that moves a single bit of a
record fails here, not only in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = 3


@pytest.mark.parametrize("seed", range(SEEDS))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_episode_matches_the_committed_reference(name, seed):
    workload = workloads.WORKLOADS[name]
    reference = run.load_references(name, workload.horizon)[str(seed)]
    experiments = workload.play(seed)
    assert workloads.digest(experiments) == reference["digest"]
    assert [exp.mean_reward for exp in experiments] == reference["mean_reward"]
