#!/usr/bin/env python3
"""Compare the approximate-LP planner against exact value iteration.

With one indicator per configuration the LP reproduces value iteration to
numerical precision; with the factored basis (one indicator per factor
value) the values are upper bounds and the greedy policy usually agrees.
The demo prints both value tables, the policies, and one assembled
constraint row so the LP's structure is visible.
"""

import argparse

import numpy as np

from mtdsim.alp import (
    build_alp,
    build_basis,
    build_state_basis,
    extract_policy,
    solve_alp,
    value_estimates,
    value_iteration,
)
from mtdsim.environments import make_web_app_domain
from mtdsim.harness import cold_posterior_table, random_posterior_table


def show(domain, posterior, title):
    space = domain.space
    v_star, pi_star = value_iteration(domain, posterior)

    print(f"--- {title} ---")
    print(f"{'config':<16} {'V (exact)':>12} {'V (state)':>12} {'V (factored)':>13}")
    values, policies = {}, {}
    for name, basis in (("state", build_state_basis(space)), ("factored", build_basis(space))):
        alp = build_alp(domain, posterior, basis)
        weights = solve_alp(alp)
        values[name] = value_estimates(alp, weights)
        policies[name] = extract_policy(domain, weights, posterior, alp.activations)
    for s in range(space.n_configs):
        print(
            f"{space.label(s):<16} {v_star[s]:>12.4f} {values['state'][s]:>12.4f} "
            f"{values['factored'][s]:>13.4f}"
        )
    print(f"state-basis max error vs exact: {np.max(np.abs(values['state'] - v_star)):.2e}")
    for name in ("state", "factored"):
        labels = [space.label(a) for a in policies[name]]
        match = "matches VI" if np.array_equal(policies[name], pi_star) else "differs from VI"
        print(f"{name} policy: {labels} ({match})")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=10)
    args = parser.parse_args()

    web = make_web_app_domain(alpha=1.0)
    show(web, cold_posterior_table(web), "cold-start belief (uniform over types)")
    show(
        web,
        random_posterior_table(web, np.random.default_rng(args.seed)),
        f"random belief (seed {args.seed})",
    )

    alp = build_alp(web, cold_posterior_table(web))
    print("one assembled constraint (state PHP|MySQL, action Python|Postgres):")
    i = alp.pairs.index((0, 3))
    names = [f.describe(web.space) for f in alp.basis.functions]
    terms = ", ".join(f"{c:+.3f}*w[{n}]" for c, n in zip(alp.lp.rows[i], names))
    print(f"  {terms} <= {alp.lp.bounds[i]:.3f}")


if __name__ == "__main__":
    main()
