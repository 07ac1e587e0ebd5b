"""mtdsim benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload replan-web --seed 0 --seconds 20 --trace 0

Plays episodes of one workload (see ``workloads.py``) back to back for
``--seconds`` and checks each against the step-record digest and mean reward
recorded for its seed in ``references.json``.  The last line of stdout is one
JSON object: ``correct``, ``attempted`` and ``failed`` episodes, and the
metrics.  ``--trace 0`` reports the end-to-end metrics (``steps_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` spends half the time untraced and
half traced (see ``tracing.py``) and reports the per-layer metrics.  Each run
also writes its result, with provenance, under ``bench/results/``.

Exits 2 without a result when the mtdsim sources are not next to the
benchmark (``src/mtdsim``) or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
RESULTS_DIR = BENCH_DIR / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_EPISODES = 3  # a median needs a few, however short the run
SETUP_REPEATS = 9
# Cold-solve scaling curve: network nodes -> repeats.  Five nodes take 10 s or
# more per solve, so the curve stops at four and records five as not run.
COLD_SOLVE_REPEATS = {2: 21, 3: 9, 4: 3}

# Host-speed calibration.  On a shared host the same episode can take twice as
# long from one minute to the next (neighbours compete for the core), which
# swamps any change worth measuring.  A fixed kernel of interpreter-bound and
# memory-bound numpy work, unrelated to mtdsim, is timed around every episode
# and setup probe; timings are scaled to the speed at which one kernel pass
# takes CALIBRATION_REFERENCE_S.  The raw host timings are kept in the result.
CALIBRATION_ITERATIONS = 2000
CALIBRATION_UPDATES = 5
CALIBRATION_PASSES = 8
CALIBRATION_REFERENCE_S = 0.003

# Run in a fresh interpreter: the import of mtdsim (through workloads) and the
# construction before the first step, then the calibration kernel.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].setup({seed})
setup_s = time.perf_counter() - start
import run
print(setup_s, run.calibration_s())
"""


@dataclass
class Episode:
    seed: int
    steps: int
    seconds: float  # host wall time
    digest: str | None = None
    mean_reward: list[float] | None = None
    failure: str | None = None
    host_speed: float = 1.0  # calibration reference time over the time measured next to it

    @property
    def steps_per_s(self) -> float:
        """Steps per second at the reference host speed."""
        return self.steps / (self.seconds * self.host_speed)


def _calibration_kernel() -> float:
    import numpy as np

    # Interpreter-bound half: dict updates and tiny-array calls.
    a = np.linspace(0.0, 1.0, 16)
    m = np.outer(a, a)
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        key = i % 97
        table[key] = table.get(key, 0.0) + float(a[i % 16])
        if i % 8 == 0:
            acc += float(np.argmax(m @ a))
    # Memory-bound half: rank-one updates of a 1 MiB array, as a simplex pivot does.
    tab = np.ones((256, 512))
    for r in range(CALIBRATION_UPDATES):
        tab -= np.outer(tab[:, r] * 1e-9, tab[r])
    return acc + float(tab[0, 0])


def calibration_s() -> float:
    """Mean seconds of one pass of the calibration kernel, right now."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_PASSES):
        _calibration_kernel()
    return (time.perf_counter() - start) / CALIBRATION_PASSES


def play_episode(workload, seed: int, references: dict) -> Episode:
    """One timed episode; digest and reference check happen after the clock stops."""
    import workloads

    start = time.perf_counter()
    try:
        experiments = workload.play(seed)
    except Exception as exc:  # a raising run is a failed operation; the benchmark goes on
        return Episode(seed, 0, time.perf_counter() - start,
                       failure=f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    episode = Episode(
        seed,
        sum(exp.steps for exp in experiments),
        elapsed,
        workloads.digest(experiments),
        [exp.mean_reward for exp in experiments],
    )
    ref = references.get(str(seed))
    if ref is None:
        episode.failure = "no reference recorded for this seed"
    elif ref["digest"] != episode.digest:
        episode.failure = "step-record digest differs from the reference"
    elif ref["mean_reward"] != episode.mean_reward:
        episode.failure = "mean reward differs from the reference"
    return episode


def play_for(workload, seed: int, seconds: float, references: dict) -> list[Episode]:
    """Play episodes until ``seconds`` have passed, calibrating between them.

    Episode seeds cycle through the recorded ones, starting at ``seed``.
    """
    episodes: list[Episode] = []
    deadline = time.perf_counter() + seconds
    before = calibration_s()
    while len(episodes) < MIN_EPISODES or time.perf_counter() < deadline:
        episode_seed = (seed + len(episodes)) % len(references)
        episode = play_episode(workload, episode_seed, references)
        after = calibration_s()
        episode.host_speed = 2 * CALIBRATION_REFERENCE_S / (before + after)
        before = after
        if episode.failure:
            print(f"episode seed {episode.seed} failed: {episode.failure}", file=sys.stderr)
        episodes.append(episode)
    return episodes


def median_rate(episodes: list[Episode], raw: bool = False) -> float:
    """Median steps per second over the episodes that did not fail.

    ``raw`` gives host seconds instead of seconds at the reference speed.
    """
    rates = [e.steps / e.seconds if raw else e.steps_per_s for e in episodes if not e.failure]
    return statistics.median(rates) if rates else 0.0


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """(host seconds, host speed) of each setup probe, calibrated in the probe's process."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        setup_s, calibration = (float(v) for v in out.stdout.split()[-2:])
        samples.append((setup_s, CALIBRATION_REFERENCE_S / calibration))
    return samples


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def provenance(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def benchmark(workload, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    """Run one workload and return its result: counts, metrics and episodes.

    ``references`` maps episode seeds (as strings) to the recorded ``digest``
    and ``mean_reward``; episode seeds cycle through its keys' range.
    """
    if not trace:
        episodes = play_for(workload, seed, seconds, references)
        setup = measure_setup(workload.name, seed)
        metrics = {
            "steps_per_s": (median_rate(episodes), "1/s"),
            "setup_s": (statistics.median(host * speed for host, speed in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {
            "host_steps_per_s": median_rate(episodes, raw=True),
            "host_setup_s": statistics.median(host for host, _ in setup),
            "setup_samples": setup,
        }
    else:
        import tracing

        untraced = play_for(workload, seed, seconds / 2, references)
        cold = {n: tracing.cold_solve_ms(n, seed, reps) for n, reps in COLD_SOLVE_REPEATS.items()}
        with tracing.Tracer() as tracer:
            traced = play_for(workload, seed, seconds / 2, references)
        rate = median_rate(traced)
        overhead = median_rate(untraced) / rate if rate else None
        layers = tracing.layer_metrics(tracer, len(traced), overhead)
        for n in COLD_SOLVE_REPEATS:
            layers[f"lp.cold_solve_ms.n{n}"] = tracing.Metric(cold[n], "ms")
        metrics = {name: (m.value, m.unit) for name, m in layers.items()}
        episodes = untraced + traced
        extra = {"traced_episodes": len(traced), "cold_solve_not_run": ["n5", "n6"],
                 "spans": tracer.spans()}
    failed = sum(1 for e in episodes if e.failure)
    return {
        "correct": failed == 0,
        "attempted": len(episodes),
        "failed": failed,
        "metrics": metrics,
        "episodes": episodes,
        **extra,
    }


def write_result(result: dict, name: str, seed: int, trace: bool, prov: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    spans = result.pop("spans", None)
    if spans is not None:
        with gzip.open(f"{stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(asdict(spans), fh)
    record = {
        "workload": name,
        "provenance": prov,
        **result,
        # A value of None marks a layer with no calls in this run: not observed.
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "episodes": [asdict(e) for e in result["episodes"]],
    }
    path = Path(f"{stem}.json")
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def load_references(name: str, horizon: int) -> dict:
    data = json.loads(REFERENCES.read_text(encoding="utf-8"))[name]
    if data["horizon"] != horizon:
        raise ValueError(f"references for {name} were recorded at horizon {data['horizon']}")
    return data["episodes"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    for var in THREAD_VARS:  # before numpy loads; the setup probes inherit it
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import mtdsim
        import workloads
    except ImportError as exc:
        print(f"cannot import mtdsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(mtdsim.__file__).resolve().parent != SRC / "mtdsim":
        print(f"mtdsim imported from {mtdsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    references = load_references(workload.name, workload.horizon)

    result = benchmark(workload, args.seed, args.seconds, bool(args.trace), references)
    prov = provenance(args.seed)
    path = write_result(result, workload.name, args.seed, bool(args.trace), prov)

    episodes = result["episodes"]
    print(f"workload {workload.name}: {len(episodes)} episodes, "
          f"{sum(e.steps for e in episodes)} steps, closed loop, 1 caller")
    for name, (value, unit) in result["metrics"].items():
        if value is None:
            print(f"{name} not observed")
        else:
            print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} episodes)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"result written to {path.relative_to(ROOT)}")
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
