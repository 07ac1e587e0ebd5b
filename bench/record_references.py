"""Record each workload's reference step-record digest and mean reward per episode seed.

    python3 bench/record_references.py

Rewrites ``bench/references.json``, which ``run.py`` checks every episode
against.  Re-record only for a change that is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys

import run

POOL = 32  # episode seeds 0..POOL-1; a run's episodes cycle through them


def references(workload, pool: int) -> dict:
    """``{"horizon": ..., "episodes": {seed: {"digest": ..., "mean_reward": [...]}}}``."""
    import workloads

    episodes = {}
    for seed in range(pool):
        experiments = workload.play(seed)
        episodes[str(seed)] = {
            "digest": workloads.digest(experiments),
            "mean_reward": [exp.mean_reward for exp in experiments],
        }
    return {"horizon": workload.horizon, "episodes": episodes}


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.BENCH_DIR)]
    import workloads

    data = {}
    for name, workload in workloads.WORKLOADS.items():
        data[name] = references(workload, POOL)
        print(f"{name}: {POOL} episode seeds recorded", flush=True)
    run.REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
