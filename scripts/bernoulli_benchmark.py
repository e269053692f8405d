"""Benchmark run: solve the two-atom Bernoulli instance, then stress the
policy against the exact oracle, a Monte Carlo replay, and baseline rules.

Writes surface.json / boundaries.csv / value_layers.csv into --out and
prints a small comparison table.
"""

import argparse
import os

from scipy.special import logit

import seqtest as st


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cost", type=float, default=0.05)
    ap.add_argument("--replicates", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--grid-size", type=int, default=2001)
    ap.add_argument("--out", default="out/bernoulli_benchmark")
    args = ap.parse_args()

    prior = st.make_prior([float(logit(0.3)), float(logit(0.7))], [1.0, 1.0], 0.0)
    family = st.make_named_family("bernoulli")
    horizon = st.choose_horizon(args.cost)
    surface = st.solve(prior, family, args.cost, horizon, grid_size=args.grid_size)

    os.makedirs(args.out, exist_ok=True)
    st.write_surface_json(surface, os.path.join(args.out, "surface.json"))
    st.write_boundaries_csv(surface, os.path.join(args.out, "boundaries.csv"))
    st.write_value_layers_csv(surface, os.path.join(args.out, "value_layers.csv"))

    root_pi = prior.mass_above_threshold
    v0 = st.value_at(surface, 0, root_pi)
    print(f"solved horizon={horizon} grid={surface.pi_grid.size}")
    print(f"value at root pi={root_pi:.3f}: {v0:.8f}")
    print(f"boundaries at n=0: ({surface.b1[0]:.4f}, {surface.b2[0]:.4f})")

    oracle = st.brute_force_value(prior, family, args.cost, horizon)
    reach = st.enumerate_reachable_pis(prior, family, horizon)
    exact_surf = st.solve(prior, family, args.cost, horizon, grid_size=201, include=reach)
    print(
        f"oracle horizon={horizon}: {oracle:.12f}  "
        f"(solver on reachable grid: {st.value_at(exact_surf, 0, root_pi):.12f})"
    )

    print(f"\n{'rule':<22} {'mean cost':>10} {'std err':>9} {'mean tau':>9}")
    rep = st.simulate_policy(surface, prior, family, args.replicates, args.seed)
    print(f"{'solved policy':<22} {rep.mean_cost:>10.5f} {rep.std_error:>9.5f} {rep.mean_stopping_time:>9.3f}")
    for rule in (st.FixedSampleRule(0), st.FixedSampleRule(1), st.FixedSampleRule(3),
                 st.ThresholdRule(0.2, 0.8, horizon)):
        alt = st.simulate_alternative(rule, prior, family, args.cost, args.replicates, args.seed)
        name = f"fixed K={rule.size}" if isinstance(rule, st.FixedSampleRule) else "threshold 0.2/0.8"
        print(f"{name:<22} {alt.mean_cost:>10.5f} {alt.std_error:>9.5f} {alt.mean_stopping_time:>9.3f}")
    print(f"\nsolved value for reference: {v0:.5f} (no rule should beat it beyond noise)")


if __name__ == "__main__":
    main()
