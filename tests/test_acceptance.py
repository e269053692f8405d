"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them on success).  Tolerances and runtime budgets are fixed here, not
calibrated at run time.
"""

import time

import numpy as np
import pytest
from scipy.special import logit

import seqtest as st

SEED = 20260808


def _line(tag, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}{suffix}")


def _bundled_priors():
    """Three priors per bundled model: the 3-atom default first, then a
    two-atom and a wider variant."""
    gv = lambda sigmas, sigma0: st.make_prior(
        sorted(s**-2.0 for s in sigmas), [1.0] * len(sigmas), sigma0**-2.0
    )
    return {
        "gaussian-mean": [
            st.make_prior([-1.0, 0.2, 1.2], [0.3, 0.4, 0.3], 0.0),
            st.make_prior([-0.9, 0.8], [1.0, 1.0], 0.0),
            st.make_prior([-1.4, -0.5, 0.4, 1.3], [1.0, 2.0, 2.0, 1.0], 0.0),
        ],
        "bernoulli": [
            st.make_prior([-1.2, 0.3, 1.0], [1.0, 2.0, 1.0], 0.0),
            st.make_prior([float(logit(0.3)), float(logit(0.7))], [1.0, 1.0], 0.0),
            st.make_prior([-1.6, -0.3, 0.5, 1.4], [1.0, 1.0, 1.0, 1.0], 0.0),
        ],
        "binomial(3)": [
            st.make_prior([-1.1, 0.2, 0.9], [1.0, 2.0, 1.0], 0.0),
            st.make_prior([-0.8, 0.7], [1.0, 1.0], 0.0),
            st.make_prior([-1.3, -0.4, 0.3, 1.1], [1.0, 1.0, 1.0, 1.0], 0.0),
        ],
        "exponential-rate": [
            st.make_prior([0.5, 1.0, 2.0], [1.0, 1.0, 1.0], 0.8),
            st.make_prior([0.6, 1.8], [1.0, 1.0], 1.0),
            st.make_prior([0.4, 0.8, 1.3, 2.2], [1.0, 1.0, 1.0, 1.0], 1.0),
        ],
        "gaussian-variance": [
            gv((0.8, 1.0, 1.6), 1.2),
            gv((0.7, 1.5), 1.0),
            gv((0.6, 0.9, 1.3, 2.0), 1.1),
        ],
    }


def _sample_prior(rng, n_atoms_range=(2, 5), window=(-1.5, 1.5)):
    k = int(rng.integers(n_atoms_range[0], n_atoms_range[1] + 1))
    while True:
        atoms = np.sort(rng.uniform(window[0], window[1], size=k))
        if k == 1 or np.min(np.diff(atoms)) > 0.05:
            break
    weights = rng.uniform(0.2, 1.0, size=k)
    theta0 = float(rng.uniform(atoms[0], atoms[-1] - 1e-6))
    return st.make_prior(atoms, weights, theta0)


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    priors = [_sample_prior(rng) for _ in range(5)]
    worst = 0.0
    for model in ("bernoulli", "binomial(2)"):
        family = st.make_named_family(model)
        for prior in priors:
            for cost in (0.05, 0.1, 0.25):
                for horizon in range(1, 6):
                    oracle = st.brute_force_value(prior, family, cost, horizon)
                    reach = st.enumerate_reachable_pis(prior, family, horizon)
                    surf = st.solve(prior, family, cost, horizon, grid_size=201, include=reach)
                    got = st.value_at(surf, 0, prior.mass_above_threshold)
                    worst = max(worst, abs(got - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _line("01 oracle-equivalence", ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_concavity():
    t0 = time.perf_counter()
    cost = 0.1
    horizon = st.choose_horizon(cost)
    worst = -np.inf
    for model, priors in _bundled_priors().items():
        prior = priors[0]
        family = st.family_for_prior(model, prior)
        surf = st.solve(prior, family, cost, horizon, grid_size=2001)
        rep = st.check_concavity(surf, tol=1e-8)
        worst = max(worst, rep.worst_violation)
        assert rep.passed, f"concavity failed on {model}: {rep.worst_violation}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _line("02 concavity", ok, f"worst defect {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_concentration():
    worst = -np.inf
    for model, priors in _bundled_priors().items():
        for prior in priors:
            family = st.family_for_prior(model, prior)
            a = 0.5 * (float(prior.atoms[0]) + prior.theta0)
            b = 0.5 * (float(prior.atoms[-1]) + prior.theta0)
            for pi in (0.25, 0.5, 0.75):
                rep = st.check_concentration(prior, family, pi, a, b, 15, tol=1e-8)
                worst = max(worst, rep.worst_violation)
                assert rep.passed, f"concentration failed on {model} at pi={pi}"
    _line("03 concentration", True, f"worst increase {worst:.2e}")


def test_criterion_04_level_spread():
    worst = -np.inf
    for model, priors in _bundled_priors().items():
        for prior in priors:
            family = st.family_for_prior(model, prior)
            rep = st.check_level_spread(prior, family, 0.25, 0.75, 15, tol=1e-8)
            worst = max(worst, rep.worst_violation)
            assert rep.passed, f"level spread failed on {model}"
            if prior.n_atoms == 2:
                spreads = [
                    st.y_of_pi(prior, family, n, 0.75) - st.y_of_pi(prior, family, n, 0.25)
                    for n in range(16)
                ]
                assert max(spreads) - min(spreads) <= 1e-10, f"two-atom spread moved on {model}"
    _line("04 level-spread", True, f"worst decrease {worst:.2e}")


def _convex_order_instances():
    rng = np.random.default_rng(SEED + 5)
    bern = [(_sample_prior(rng, (2, 6), (-2.0, 2.0)), "bernoulli") for _ in range(3)]
    exp_singleton = (st.make_prior([0.5, 0.9, 2.0], [1.0, 1.0, 1.0], 1.0), "exponential-rate")
    gv_singleton = (
        st.make_prior(sorted(s**-2.0 for s in (0.7, 1.5, 2.5)), [1.0, 1.0, 1.0], 1.0),
        "gaussian-variance",
    )
    return bern + [exp_singleton, gv_singleton]


def test_criterion_05_convex_order():
    worst = -np.inf
    for prior, model in _convex_order_instances():
        family = st.family_for_prior(model, prior)
        for m, n in ((0, 1), (0, 5), (2, 8)):
            for pi in (0.3, 0.5, 0.7):
                rep = st.check_convex_order(prior, family, pi, m, n, tol=1e-8)
                worst = max(worst, rep.worst_violation)
                assert rep.passed, f"convex order failed on {model} (m={m}, n={n}, pi={pi})"
    _line("05 convex-order", True, f"worst stop-loss excess {worst:.2e}")


def test_criterion_06_time_monotonicity():
    cost = 0.05
    horizon = st.choose_horizon(cost)
    rng = np.random.default_rng(SEED + 6)
    instances = _convex_order_instances() + [
        (_sample_prior(rng, (2, 6), (-1.8, 1.8)), "gaussian-mean") for _ in range(2)
    ]
    worst = -np.inf
    for prior, model in instances:
        family = st.family_for_prior(model, prior)
        surf = st.solve(prior, family, cost, horizon, grid_size=1001)
        rep = st.check_time_monotonicity(surf, tol=1e-6)
        worst = max(worst, rep.worst_violation)
        assert rep.passed, f"time monotonicity failed on {model}"
    _line("06 time-monotonicity", True, f"worst decrease {worst:.2e}")


def test_criterion_07_binomial_reduction():
    priors = [
        st.make_prior([float(logit(0.3)), float(logit(0.7))], [1.0, 1.0], 0.0),
        st.make_prior([-1.0, -0.1, 1.0], [1.0, 2.0, 1.0], 0.0),
        st.make_prior([-1.5, -0.4, 0.3, 1.1], [1.0, 1.0, 2.0, 1.0], 0.0),
    ]
    worst = -np.inf
    for n_trials in (1, 2, 3):
        for prior in priors:
            rep = st.check_binomial_reduction(n_trials, prior, 0.05, grid_size=2001, tol=1e-6)
            worst = max(worst, rep.worst_violation)
            assert rep.passed, f"binomial reduction failed at N={n_trials}"
    _line("07 binomial-reduction", True, f"worst gap {worst:.2e}")


def test_criterion_08_monte_carlo_consistency():
    t0 = time.perf_counter()
    prior = st.make_prior([float(logit(0.3)), float(logit(0.7))], [1.0, 1.0], 0.0)
    family = st.make_named_family("bernoulli")
    surf = st.solve(prior, family, 0.05, st.choose_horizon(0.05), grid_size=2001)
    v0 = st.value_at(surf, 0, prior.mass_above_threshold)

    rep = st.simulate_policy(surf, prior, family, 100_000, seed=SEED)
    gap = abs(rep.mean_cost - v0)
    assert gap <= 3 * rep.std_error, f"policy mean {rep.mean_cost} vs value {v0}"

    rules = [st.FixedSampleRule(0), st.FixedSampleRule(1), st.FixedSampleRule(3),
             st.ThresholdRule(0.2, 0.8, surf.horizon)]
    for rule in rules:
        alt = st.simulate_alternative(rule, prior, family, 0.05, 100_000, seed=SEED + 1)
        assert alt.mean_cost + 3 * alt.std_error >= v0, f"rule {rule} beat the solved value"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _line("08 monte-carlo", ok, f"policy gap {gap:.2e} <= 3se, {elapsed:.1f}s")
    assert ok


def test_criterion_09_trivial_regime():
    for cost in (0.5, 0.6):
        for model in ("bernoulli", "gaussian-mean"):
            prior = _bundled_priors()[model][0]
            family = st.family_for_prior(model, prior)
            surf = st.solve(prior, family, cost, 4, grid_size=801)
            g = st.gain(surf.pi_grid)
            for n in range(surf.horizon + 1):
                assert np.array_equal(surf.values[n], g), f"V != gain at c={cost} on {model}"
            rep = st.simulate_policy(surf, prior, family, 5_000, seed=SEED)
            assert rep.mean_stopping_time == 0.0
    _line("09 trivial-regime", True, "V == gain exactly; all replicates stop at 0")


def test_criterion_10_conjecture_probe():
    t0 = time.perf_counter()
    reports = st.conjecture_probe(
        list(st.PROBE_WINDOWS), cost=0.05, trials=200, seed=SEED, grid_size=501
    )
    elapsed = time.perf_counter() - t0
    findings = [r for r in reports if not r.passed]
    ok = len(reports) == 200 and elapsed < 600.0
    _line(
        "10 conjecture-probe",
        ok,
        f"{len(findings)} findings in 200 trials, {elapsed:.0f}s",
    )
    for f in findings:
        # a finding is acceptable; it must surface its reproduction data
        assert f.instance["atoms"] and f.instance["seed"] == SEED
        print(f"[acceptance]    finding: {f.to_json()}")
    assert len(reports) == 200
    assert elapsed < 600.0
