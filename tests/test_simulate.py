import math
import tracemalloc

import numpy as np
import pytest

import seqtest as st
from seqtest.simulate import _BLOCK


def plain_bernoulli_recursion(c, horizon, t1=0.3, t2=0.7, pi=0.5):
    """Independent reference recursion in original success probabilities.

    Uses no log-space machinery, no exponential-family structure: the
    posterior after s successes in n trials comes from plain Bernoulli
    likelihoods, and nodes are memoized on (n, s).
    """
    memo = {}

    def V(n, s):
        if (n, s) not in memo:
            l1 = t1**s * (1 - t1) ** (n - s)
            l2 = t2**s * (1 - t2) ** (n - s)
            p = pi * l2 / (pi * l2 + (1 - pi) * l1)
            g = min(p, 1 - p)
            if n == horizon:
                memo[n, s] = g
            else:
                p1 = p * t2 + (1 - p) * t1
                memo[n, s] = min(g, c + p1 * V(n + 1, s + 1) + (1 - p1) * V(n + 1, s))
        return memo[n, s]

    return V(0, 0)


class TestBruteForce:
    def test_large_cost_is_gain_at_root(self, benchmark_prior, bernoulli_family):
        got = st.brute_force_value(benchmark_prior, bernoulli_family, 0.6, 3)
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_horizon_one_formula(self, benchmark_prior, bernoulli_family):
        got = st.brute_force_value(benchmark_prior, bernoulli_family, 0.05, 1)
        # one application of the recursion: gain(0.7) = gain(0.3) = 0.3
        assert got == pytest.approx(min(0.5, 0.05 + 0.3), abs=1e-13)

    def test_frozen_benchmark_constant(self, benchmark_prior, bernoulli_family):
        got = st.brute_force_value(benchmark_prior, bernoulli_family, 0.05, 4)
        assert got == pytest.approx(0.337, abs=1e-12)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
    def test_agrees_with_plain_probability_recursion(self, benchmark_prior, bernoulli_family, horizon):
        got = st.brute_force_value(benchmark_prior, bernoulli_family, 0.05, horizon)
        want = plain_bernoulli_recursion(0.05, horizon)
        assert got == pytest.approx(want, abs=1e-12)

    def test_continuous_scheme_rejected(self, three_atom_prior, gaussian_mean_family):
        with pytest.raises(ValueError, match="finite outcomes"):
            st.brute_force_value(three_atom_prior, gaussian_mean_family, 0.05, 3)

    def test_tree_size_guard(self, benchmark_prior, tmp_path):
        # square roots of primes: every multiset of outcomes has its own sum
        path = tmp_path / "scheme.csv"
        path.write_text("x,h\n" + "".join(f"{math.sqrt(p)!r},1.0\n" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)))
        fam = st.family_from_scheme_csv(path)
        with pytest.raises(ValueError, match="tree too large"):
            st.brute_force_value(benchmark_prior, fam, 0.05, 30)

    def test_production_horizon_agrees_with_plain_probability_recursion(self, benchmark_prior, bernoulli_family):
        got = st.brute_force_value(benchmark_prior, bernoulli_family, 0.01, 60)
        want = plain_bernoulli_recursion(0.01, 60)
        assert got == pytest.approx(want, abs=1e-12)

    # exact values from an (n, successes) lattice recursion written apart from the package
    @pytest.mark.parametrize(
        "model, exact", [("bernoulli", 0.1851715394429389), ("binomial(3)", 0.10782007669771786)]
    )
    def test_grid_error_at_production_horizon(self, model, exact):
        prior = st.make_prior([-1.5, -0.9, -0.3, 0.3, 0.9, 1.5], [1.0] * 6, 0.0)
        family = st.make_named_family(model)
        oracle = st.brute_force_value(prior, family, 0.01, 60)
        assert oracle == pytest.approx(exact, abs=1e-12)
        surface = st.solve(prior, family, 0.01, 60, grid_size=2001)
        assert abs(st.value_at(surface, 0, prior.mass_above_threshold) - oracle) <= 1e-5


class TestSimulatePolicy:
    def test_large_cost_stops_immediately(self, benchmark_prior, bernoulli_family):
        surf = st.solve(benchmark_prior, bernoulli_family, 0.6, 3, grid_size=301)
        rep = st.simulate_policy(surf, benchmark_prior, bernoulli_family, 20_000, seed=9)
        assert rep.mean_stopping_time == 0.0
        assert rep.capped == 0
        # with tau = 0 everywhere the loss is a pure decision indicator
        assert abs(rep.mean_cost - 0.5) <= 3 * rep.std_error

    def test_near_certain_prior_stops_fast(self, bernoulli_family):
        prior = st.make_prior([-0.85, 0.85], [0.001, 0.999], 0.0)
        surf = st.solve(prior, bernoulli_family, 0.05, 12, grid_size=2001)
        rep = st.simulate_policy(surf, prior, bernoulli_family, 5_000, seed=2)
        assert rep.mean_stopping_time == 0.0

    def test_consistent_with_value(self, benchmark_surface, benchmark_prior, bernoulli_family):
        rep = st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 100_000, seed=42)
        v0 = st.value_at(benchmark_surface, 0, benchmark_prior.mass_above_threshold)
        assert abs(rep.mean_cost - v0) <= 3 * rep.std_error

    def test_bit_identical_reports(self, benchmark_surface, benchmark_prior, bernoulli_family):
        a = st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 10_000, seed=5)
        b = st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 10_000, seed=5)
        assert a == b

    def test_decomposition_identity(self, benchmark_surface, benchmark_prior, bernoulli_family):
        rep = st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 30_000, seed=8)
        rebuilt = rep.error_rates[0] + rep.error_rates[1] + benchmark_surface.cost * rep.mean_stopping_time
        assert abs(rep.mean_cost - rebuilt) <= 1e-12

    def test_trace_file(self, benchmark_surface, benchmark_prior, bernoulli_family, tmp_path):
        path = tmp_path / "trace.csv"
        rep = st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 50, seed=1, trace_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "replicate,theta,tau,decision,loss"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[4]) >= 0.0

    def test_replicates_validated(self, benchmark_surface, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match="replicates"):
            st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 0, seed=1)

    def test_continuous_model_consistency(self, three_atom_prior):
        fam = st.family_for_prior("gaussian-mean", three_atom_prior)
        surf = st.solve(three_atom_prior, fam, 0.1, 6, grid_size=801)
        rep = st.simulate_policy(surf, three_atom_prior, fam, 20_000, seed=3)
        v0 = st.value_at(surf, 0, three_atom_prior.mass_above_threshold)
        assert abs(rep.mean_cost - v0) <= 3 * rep.std_error


class TestReplicateStreams:
    """Replicate r's path depends only on (seed, r), never on the replicate count."""

    @pytest.fixture(scope="class")
    def replays(self, benchmark_surface, benchmark_prior, bernoulli_family, three_atom_prior):
        gm_family = st.family_for_prior("gaussian-mean", three_atom_prior)
        gm_surface = st.solve(three_atom_prior, gm_family, 0.1, 6, grid_size=801)
        rule = st.ThresholdRule(0.2, 0.8, benchmark_surface.horizon)
        return {
            "policy": lambda r, path: st.simulate_policy(
                benchmark_surface, benchmark_prior, bernoulli_family, r, 1, path),
            "threshold": lambda r, path: st.simulate_alternative(
                rule, benchmark_prior, bernoulli_family, 0.05, r, 1, path),
            "gaussian-mean": lambda r, path: st.simulate_policy(gm_surface, three_atom_prior, gm_family, r, 1, path),
        }

    @pytest.mark.parametrize("case", ["policy", "threshold", "gaussian-mean"])
    @pytest.mark.parametrize("fewer, more", [(50, _BLOCK + 60), (_BLOCK + 3, 2 * _BLOCK + 1)])
    def test_trace_rows_do_not_depend_on_replicate_count(self, tmp_path, replays, case, fewer, more):
        rows = {}
        for replicates in (fewer, more):
            path = tmp_path / f"trace-{replicates}.csv"
            replays[case](replicates, path)
            rows[replicates] = path.read_text().splitlines()[1:]
        assert len(rows[fewer]) == fewer and len(rows[more]) == more
        assert rows[more][:fewer] == rows[fewer]
        # the rows differ among themselves, so the comparison is not vacuous
        assert len({row.split(",", 1)[1] for row in rows[fewer]}) > 1


class TestBoundedMemory:
    """The replay's traced peak is bounded by its block size, not replicates x horizon."""

    @pytest.mark.parametrize("model", ["bernoulli", "binomial(3)"])
    def test_peak_of_long_horizon_replay(self, model):
        prior = st.make_prior([-1.5, -0.9, -0.3, 0.3, 0.9, 1.5], [1.0] * 6, 0.0)
        family = st.make_named_family(model)
        horizon = st.choose_horizon(0.005)
        assert horizon == 120
        surface = st.solve(prior, family, 0.005, horizon, grid_size=501)
        tracemalloc.start()
        try:
            st.simulate_policy(surface, prior, family, 100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a replicates x horizon observation matrix alone would be 96 MB
        assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


class TestAlternativeRules:
    def test_fixed_zero_stops_immediately(self, benchmark_prior, bernoulli_family):
        rep = st.simulate_alternative(
            st.FixedSampleRule(0), benchmark_prior, bernoulli_family, 0.05, 20_000, seed=4
        )
        assert rep.mean_stopping_time == 0.0
        assert abs(rep.mean_cost - 0.5) <= 3 * rep.std_error

    def test_fixed_one_wastes_cost_when_stopping_is_best(self, benchmark_prior, bernoulli_family):
        rep = st.simulate_alternative(
            st.FixedSampleRule(1), benchmark_prior, bernoulli_family, 0.6, 20_000, seed=4
        )
        # pays 0.6 for an observation that cannot repay it
        assert rep.mean_cost >= 0.5

    @pytest.mark.parametrize("K", [0, 1, 3])
    def test_no_free_lunch_fixed(self, benchmark_surface, benchmark_prior, bernoulli_family, K):
        rep = st.simulate_alternative(
            st.FixedSampleRule(K), benchmark_prior, bernoulli_family, 0.05, 50_000, seed=6
        )
        v0 = st.value_at(benchmark_surface, 0, benchmark_prior.mass_above_threshold)
        assert rep.mean_cost + 3 * rep.std_error >= v0

    def test_no_free_lunch_threshold(self, benchmark_surface, benchmark_prior, bernoulli_family):
        rule = st.ThresholdRule(0.2, 0.8, benchmark_surface.horizon)
        rep = st.simulate_alternative(rule, benchmark_prior, bernoulli_family, 0.05, 50_000, seed=6)
        v0 = st.value_at(benchmark_surface, 0, benchmark_prior.mass_above_threshold)
        assert rep.mean_cost + 3 * rep.std_error >= v0

    def test_report_serializes(self, benchmark_prior, bernoulli_family):
        rep = st.simulate_alternative(
            st.FixedSampleRule(2), benchmark_prior, bernoulli_family, 0.05, 100, seed=1
        )
        import json

        payload = json.loads(rep.to_json())
        assert payload["replicates"] == 100
        assert len(payload["error_rates"]) == 2


class TestReachableEnumeration:
    def test_counts_for_bernoulli(self, benchmark_prior, bernoulli_family):
        reach = st.enumerate_reachable_pis(benchmark_prior, bernoulli_family, 3)
        # sums 0..n at each n <= 3: at most 1+2+3+4 states
        assert 0 < reach.size <= 10
        assert np.all((reach > 0) & (reach < 1))

    def test_requires_finite_scheme(self, three_atom_prior, gaussian_mean_family):
        with pytest.raises(ValueError, match="finite outcomes"):
            st.enumerate_reachable_pis(three_atom_prior, gaussian_mean_family, 3)
