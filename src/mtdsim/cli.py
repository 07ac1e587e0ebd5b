"""Command-line interface: experiment runs, hindsight bounds, property checks, LP dumps."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .alp import alp_to_dict, build_alp, build_state_basis
from .domain import DomainError, write_json
from .estimator import ThreatEstimator
from .harness import (
    CHECK_PERTURBATIONS,
    CHECK_RUNS,
    CHECK_SAMPLES,
    ExperimentConfig,
    check_alp_vs_value_iteration,
    check_estimator_recovery,
    check_linear_regret,
    check_value_loss_bound,
    cold_posterior_table,
    hindsight_bounds,
    resolve_domain,
    resolve_run,
    resolve_scenario,
    run_experiment,
    write_hindsight_csv,
)

DEFAULTS = ExperimentConfig()


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _parse_reopt_period(text: str) -> int | None:
    """A period of at least 1, or 'never' (also 'none'/'inf') to plan only once."""
    return None if text.lower() in ("never", "none", "inf") else _int_at_least(1)(text)


def _add_selector_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--domain", default=DEFAULTS.domain,
                        help="'web', 'network', or a domain JSON file (default: %(default)s)")
    parser.add_argument("--scenario", default=DEFAULTS.scenario,
                        help="built-in scenario name or a scenario JSON file")
    parser.add_argument("--alpha", type=float, default=DEFAULTS.alpha,
                        help="switching-cost weight (default: %(default)s)")
    parser.add_argument("--seed", type=_int_at_least(0), default=DEFAULTS.seed)


def _add_episode_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timesteps", type=int, default=DEFAULTS.timesteps,
                        help="steps per iteration (default: the scenario horizon)")
    parser.add_argument("--iterations", type=int, default=DEFAULTS.iterations)
    parser.add_argument("--start-state", default=DEFAULTS.start_state, metavar="LABEL",
                        help="starting configuration label (default: first enumerated)")


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment configuration named by the parsed arguments, field by field."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names})


def cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    result = run_experiment(config)
    print(
        f"strategy={config.strategy} alpha={config.alpha} "
        f"mean_avg_reward={result.mean_avg_reward:.3f} "
        f"std_avg_reward={result.std_avg_reward:.3f}"
    )
    if result.static_table:
        best_label = max(result.static_table, key=result.static_table.get)
        worst_label = min(result.static_table, key=result.static_table.get)
        print(
            f"hindsight: best_static={result.best_static:.3f} ({best_label}) "
            f"worst_static={result.worst_static:.3f} ({worst_label})"
        )
    if config.out_dir is not None:
        print(f"wrote steps.csv, rolling.csv, summary.csv, meta.json to {config.out_dir}")
    return 0


def cmd_hindsight(args: argparse.Namespace) -> int:
    run = resolve_run(_config(args))
    run.static_table = hindsight_bounds(run)
    for label, value in run.static_table.items():
        print(f"static:{label} mean_avg_reward={value:.3f}")
    print(f"best_static={run.best_static:.3f} worst_static={run.worst_static:.3f}")
    if args.out is not None:
        write_hindsight_csv(args.out, run.static_table)
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = [
        check_alp_vs_value_iteration(args.seed),
        check_estimator_recovery(args.seed, args.samples),
        check_value_loss_bound(args.seed, args.perturbations),
        check_linear_regret(args.seed, args.runs),
    ]
    for result in results:
        print(result.line())
    passed = sum(result.ok for result in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def cmd_dump_lp(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args.scenario)
    domain = resolve_domain(args.domain, scenario, args.alpha, args.seed)
    if args.estimator is not None:
        posterior = ThreatEstimator.load(domain, args.estimator).posterior_table()
    else:
        posterior = cold_posterior_table(domain)
    basis = build_state_basis(domain.space) if args.basis == "state" else None  # None: factored
    data = alp_to_dict(build_alp(domain, posterior, basis))
    if args.out == "-":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        write_json(args.out, data, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtdsim",
        description="Moving-target-defense switching experiments: adaptive planner vs. baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one strategy over a scenario and summarize")
    _add_selector_args(p_run)
    _add_episode_args(p_run)
    p_run.add_argument("--strategy", default=DEFAULTS.strategy,
                       help="ata-fmdp, fpl, eps-greedy, urs, or static:<config-label>")
    p_run.add_argument("--reopt-period", type=_parse_reopt_period, default=DEFAULTS.reopt_period,
                       help="re-plan every N steps, or 'never' (default: %(default)s)")
    p_run.add_argument("--out", dest="out_dir", default=DEFAULTS.out_dir,
                       help="directory for CSV/JSON outputs")
    p_run.add_argument("--beta", type=float, default=DEFAULTS.beta,
                       help="count decay (default: %(default)s)")
    p_run.add_argument("--epsilon", type=float, default=DEFAULTS.epsilon)
    p_run.add_argument("--fpl-explore", type=float, default=DEFAULTS.fpl_explore)
    p_run.add_argument("--fpl-rate", type=float, default=DEFAULTS.fpl_rate)
    p_run.add_argument("--fpl-lmax", type=int, default=DEFAULTS.fpl_lmax)
    p_run.set_defaults(func=cmd_run)

    p_hind = sub.add_parser("hindsight", help="average reward of every static configuration")
    _add_selector_args(p_hind)
    _add_episode_args(p_hind)
    p_hind.add_argument("--out", default=None, help="CSV file for the per-config table")
    p_hind.set_defaults(func=cmd_hindsight)

    p_verify = sub.add_parser("verify", help="run the property-check suite")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=10)
    p_verify.add_argument("--samples", type=_int_at_least(1), default=CHECK_SAMPLES,
                          help="estimator Monte-Carlo samples")
    p_verify.add_argument("--perturbations", type=_int_at_least(1), default=CHECK_PERTURBATIONS,
                          help="posterior perturbations for the value-loss bound")
    p_verify.add_argument("--runs", type=_int_at_least(1), default=CHECK_RUNS,
                          help="runs per horizon for the linear-regret fit")
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump-lp", help="emit the assembled approximate LP as JSON")
    _add_selector_args(p_dump)
    p_dump.add_argument("--basis", choices=("factored", "state"), default="factored")
    p_dump.add_argument("--estimator", default=None,
                        help="estimator-state JSON to derive the posterior from")
    p_dump.add_argument("--out", default="-", help="output file, or '-' for stdout")
    p_dump.set_defaults(func=cmd_dump_lp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
