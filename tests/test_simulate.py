import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, logit

import seqtest as st
from seqtest import simulate as simulate_mod
from seqtest.priors import _Ctx, _log_odds, _y_of_logit
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

    @pytest.mark.parametrize("rule", ["policy", "threshold:0.2,0.8"])
    def test_report_matches_its_trace(self, solved, tmp_path, rule):
        prior, family, surface = solved["gaussian-mean"]
        path = tmp_path / "trace.csv"
        if rule == "policy":
            rep = st.simulate_policy(surface, prior, family, 5000, 4, path)
        else:
            rep = st.simulate_alternative(st.ThresholdRule(0.2, 0.8, 12), prior, family, 0.02, 5000, 4, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        theta = np.array([float(row[1]) for row in rows])
        tau = np.array([int(row[2]) for row in rows])
        decision = np.array([int(row[3]) for row in rows])
        loss = [float(row[4]) for row in rows]
        # the report sums over outcomes, the replicate-level reference over rows
        assert math.isclose(math.fsum(loss) / len(rows), rep.mean_cost, rel_tol=1e-15, abs_tol=0.0)
        assert math.isclose(np.std(loss, ddof=1) / math.sqrt(5000), rep.std_error, rel_tol=1e-12, abs_tol=0.0)
        assert rep.error_rates == (np.sum((decision == 1) & (theta <= prior.theta0)) / 5000,
                                   np.sum((decision == 0) & (theta > prior.theta0)) / 5000)
        assert rep.mean_stopping_time == tau.sum() / 5000
        assert rep.capped == np.sum(tau == (surface.horizon if rule == "policy" else 12))
        assert 0 < rep.capped < 5000 and 0 < rep.error_rates[0] and 0 < rep.error_rates[1]

    def test_replicates_validated(self, benchmark_surface, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match="replicates"):
            st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 0, seed=1)

    def test_continuous_model_consistency(self, three_atom_prior):
        fam = st.family_for_prior("gaussian-mean", three_atom_prior)
        surf = st.solve(three_atom_prior, fam, 0.1, 6, grid_size=801)
        rep = st.simulate_policy(surf, three_atom_prior, fam, 20_000, seed=3)
        v0 = st.value_at(surf, 0, three_atom_prior.mass_above_threshold)
        assert abs(rep.mean_cost - v0) <= 3 * rep.std_error


class TestProvenance:
    """A surface replays only against the model and prior it was solved for."""

    @pytest.fixture(scope="class")
    def surface(self, bernoulli_family):
        prior = st.make_prior([-0.8, 0.8], [1.0, 1.0], 0.0)
        return st.solve(prior, bernoulli_family, 0.1, 6, grid_size=101)

    @pytest.mark.parametrize("model, atoms, message", [
        pytest.param("bernoulli", [-2.0, -1.9, 0.8, 2.0], "^surface was solved for another prior "
                     r"\(its atoms, weights or theta0 differ\)$", id="prior"),
        pytest.param("binomial(3)", [-0.8, 0.8], "^surface was solved for model 'bernoulli', not model "
                     r"'binomial\(3\)'$", id="model"),
    ])
    def test_other_model_or_prior_is_refused(self, surface, model, atoms, message):
        prior = st.make_prior(atoms, [1.0] * len(atoms), 0.0)
        with pytest.raises(ValueError, match=message):
            st.simulate_policy(surface, prior, st.make_named_family(model), 100, seed=1)

    @pytest.mark.parametrize("weights", [[3.0, 3.0], [0.1, 0.1]])
    def test_scaled_weights_are_the_same_prior(self, surface, bernoulli_family, weights):
        # the surface records 0.5, 0.5; these normalize to 0.5000000000000001 or 0.49999999999999994 each
        report = st.simulate_policy(surface, st.make_prior([-0.8, 0.8], weights, 0.0), bernoulli_family, 100, seed=1)
        assert report == st.simulate_policy(surface, st.make_prior([-0.8, 0.8], [1.0, 1.0], 0.0), bernoulli_family,
                                            100, seed=1)

    def test_other_weights_are_refused(self, surface, bernoulli_family):
        with pytest.raises(ValueError, match=r"^surface was solved for another prior \(its atoms, weights or theta0 "
                                             r"differ\)$"):
            st.simulate_policy(surface, st.make_prior([-0.8, 0.8], [1.0, 2.0], 0.0), bernoulli_family, 100, seed=1)

    def test_file_without_provenance_replays_unchecked(self, surface, tmp_path):
        path = tmp_path / "surface.json"
        st.write_surface_json(dataclasses.replace(surface, provenance=None), path)
        back = st.read_surface_json(path)
        assert back.provenance is None
        prior = st.make_prior([-2.0, -1.9, 0.8, 2.0], [1.0] * 4, 0.0)
        report = st.simulate_policy(back, prior, st.make_named_family("binomial(3)"), 100, seed=1)
        assert report.replicates == 100


# a block size for tests that cross block boundaries: the replays stay small
SMALL_BLOCK = 1000


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
    @pytest.mark.parametrize("fewer, more", [(50, SMALL_BLOCK + 60), (SMALL_BLOCK + 3, 2 * SMALL_BLOCK + 1)])
    def test_trace_rows_do_not_depend_on_replicate_count(self, tmp_path, monkeypatch, replays, case, fewer, more):
        monkeypatch.setattr(simulate_mod, "_BLOCK", SMALL_BLOCK)
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

    def test_peak_does_not_grow_with_replicates(self):
        prior = st.make_prior([-1.5, -0.9, -0.3, 0.3, 0.9, 1.5], [1.0] * 6, 0.0)
        family = st.make_named_family("bernoulli")
        surface = st.solve(prior, family, 0.005, 120, grid_size=501)
        tracemalloc.start()
        try:
            st.simulate_policy(surface, prior, family, 1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per-replicate (theta, tau, decision) arrays and their losses alone would take over 30 MB here
        assert peak < 12 * 2**20, f"traced peak {peak / 2**20:.1f} MB"

    def test_trace_over_budget_refused_before_allocating(self, benchmark_surface, benchmark_prior, bernoulli_family,
                                                         tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^a trace of 40000000 replicates needs more than 100000000 values; "
                                                 "lower the replicates or drop the trace$"):
                st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 40_000_000, 0, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"
        assert not path.exists()
        # 3 values per replicate: theta, tau and the decision; the budget
        # just holds the band table, 2 atoms x 3 thresholds x the halvings per layer
        budget = (benchmark_surface.horizon + 1) * 3 * simulate_mod._BAND_HALVINGS * 2
        monkeypatch.setattr(simulate_mod, "_MAX_VALUES", budget)
        st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, budget // 3, 0, path)
        with pytest.raises(ValueError, match=f"^a trace of {budget // 3 + 1} replicates"):
            st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, budget // 3 + 1, 0, path)
        # without a trace nothing grows with the replicate count
        st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, budget // 3 + 1, 0)

    @pytest.mark.parametrize("rule", [st.FixedSampleRule(10**12), st.ThresholdRule(0.2, 0.8, 10**12)],
                             ids=["fixed", "threshold"])
    def test_cap_over_budget_refused_before_allocating(self, benchmark_prior, bernoulli_family, rule):
        message = ("^a rule cap of 1000000000000 steps needs a band table of more than 100000000 values "
                   "for 2 atoms; lower the cap$")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                st.simulate_alternative(rule, benchmark_prior, bernoulli_family, 0.05, 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"

    def test_cap_budget_counts_the_band_table(self, benchmark_prior, bernoulli_family, monkeypatch):
        # 2 atoms x 3 thresholds x the halvings per layer; cap 10 has 11 layers
        monkeypatch.setattr(simulate_mod, "_MAX_VALUES", 11 * 3 * simulate_mod._BAND_HALVINGS * 2)
        st.simulate_alternative(st.FixedSampleRule(10), benchmark_prior, bernoulli_family, 0.05, 10, 0)
        with pytest.raises(ValueError, match="^a rule cap of 11 steps"):
            st.simulate_alternative(st.FixedSampleRule(11), benchmark_prior, bernoulli_family, 0.05, 10, 0)


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


def replay_by_pi(stop_fn, cap):
    """The replay as it was before level-curve thresholds.

    A drop-in for ``simulate._replay`` that ignores the thresholds it is
    handed: every running row computes pi = expit(log-odds) at every step
    and ``stop_fn(n, pi)`` decides.  It makes the same keyed draws: the
    parameter at slot 0, and at step n one observation for each row still
    running, through ``family.sampler`` at slot n + 1.  It returns what
    ``_replay`` returns: the replicates counted per (2 accept + (theta >
    theta0), tau), and when ``traced`` each one's theta and flat index into
    that table.
    """

    def replay(lo, hi, ya, yb, ctx, prior, family, seed, replicates, traced=False):
        keys = simulate_mod._row_keys(seed, np.arange(replicates))
        thetas = prior.atoms[simulate_mod._draw_thetas(prior, keys)]
        y = np.zeros(keys.size)
        tau = np.full(keys.size, cap, dtype=int)
        accept = np.zeros(keys.size, dtype=int)
        rows = np.arange(keys.size)
        for n in range(cap + 1):
            pi_now = expit(_log_odds(ctx, n, y[rows]))
            stop_now = stop_fn(n, pi_now) if n < cap else np.full(pi_now.shape, True)
            stopping = rows[stop_now]
            tau[stopping] = n
            accept[stopping] = pi_now[stop_now] > 0.5
            rows = rows[~stop_now]
            if not rows.size:
                break
            y[rows] += family.sampler(thetas[rows], simulate_mod._KeyedUniforms(keys[rows], n + 1), rows.size)
        codes = (2 * accept + (thetas > prior.theta0)) * (cap + 1) + tau
        table = np.bincount(codes, minlength=4 * (cap + 1)).reshape(4, cap + 1)
        return table, (thetas, codes) if traced else None

    return replay


SIX = ([-1.5, -0.9, -0.3, 0.3, 0.9, 1.5], [1.0, 2.0, 1.0, 1.0, 0.5, 1.0], 0.0)
SIX_POSITIVE = ([0.4, 0.7, 1.0, 1.4, 1.9, 2.5], [1.0, 2.0, 1.0, 1.0, 0.5, 1.0], 1.2)
MODEL_PRIORS = {
    "bernoulli": SIX,
    "binomial(3)": SIX,
    "gaussian-mean": SIX,
    "exponential-rate": SIX_POSITIVE,
    "gaussian-variance": SIX_POSITIVE,
}
# atoms a hair either side of theta0, and a near-flat middle with faint far
# atoms: the log-odds slope falls to 2e-3 and 2e-4
STRESS_PRIORS = {
    "gaussian-mean-narrow": ("gaussian-mean", ([-2.0, -1e-3, 1e-3, 2.0], [1.0, 1.0, 1.0, 1.0], 0.0)),
    "bernoulli-faint-tails": ("bernoulli", ([-2.4, -1e-4, 1e-4, 2.4], [1e-6, 1.0, 1.0, 1e-6], 0.0)),
}


@pytest.fixture(scope="module")
def solved():
    out = {}
    for model, spec in MODEL_PRIORS.items():
        prior = st.make_prior(*spec)
        family = st.family_for_prior(model, prior)
        out[model] = (prior, family, st.solve(prior, family, 0.02, 30, grid_size=501))
    return out


class TestKeyedDraws:
    """Every draw is a function of (seed, replicate, step), so the block size never shows."""

    @pytest.mark.parametrize("model", list(MODEL_PRIORS))
    @pytest.mark.parametrize("rule", ["policy", "threshold:0.2,0.8"])
    def test_results_do_not_depend_on_block_size(self, solved, tmp_path, monkeypatch, model, rule):
        prior, family, surface = solved[model]
        threshold = st.ThresholdRule(0.2, 0.8, surface.horizon)
        runs = []
        for block in (1000, 8191, _BLOCK):
            monkeypatch.setattr(simulate_mod, "_BLOCK", block)
            path = tmp_path / f"trace-{block}.csv"
            if rule == "policy":
                report = st.simulate_policy(surface, prior, family, 9000, 13, path)
            else:
                report = st.simulate_alternative(threshold, prior, family, 0.02, 9000, 13, path)
            runs.append((report, path.read_bytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert 0 < runs[0][0].mean_stopping_time

    @pytest.mark.parametrize("model", ["bernoulli", "gaussian-mean"])
    def test_pool_replayed_between_blocks(self, solved, tmp_path, monkeypatch, model):
        # 1000-row blocks each hand about 120 stragglers to the pool, which
        # fills after nine blocks and is replayed before the last of twelve
        prior, family, _ = solved[model]
        rule = st.ThresholdRule(0.1, 0.9, 30)
        advance = simulate_mod._advance
        runs = []
        for block in (1000, 8191, _BLOCK):
            phases = []

            def logged(run, until, *args):
                phases.append(until)
                return advance(run, until, *args)

            monkeypatch.setattr(simulate_mod, "_BLOCK", block)
            monkeypatch.setattr(simulate_mod, "_advance", logged)
            path = tmp_path / f"trace-{block}.csv"
            report = st.simulate_alternative(rule, prior, family, 0.02, 12_000, 13, path)
            runs.append((report, path.read_bytes()))
            if block == 1000:
                # the pool (until = 0) is replayed, and a block follows
                assert block // 8 in phases[phases.index(0) + 1:]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert 0 < runs[0][0].mean_stopping_time

    def test_rows_held_stay_under_two_blocks(self, solved, monkeypatch):
        prior, family, _ = solved["bernoulli"]
        block = 1000
        monkeypatch.setattr(simulate_mod, "_BLOCK", block)
        advance = simulate_mod._advance
        pooled, held, flushes = [0], [], []

        def logged(run, until, *args):
            # a run's rows counted by their keys, which every run carries
            keys = run[0]
            if until:
                # a block: its own rows beside the stragglers waiting in the pool
                held.append(keys.size + pooled[0])
                rest = advance(run, until, *args)
                pooled[0] += rest[0].size
                return rest
            # the pool, replayed whole
            assert keys.size == pooled[0]
            held.append(keys.size)
            flushes.append(keys.size)
            pooled[0] = 0
            return advance(run, until, *args)

        monkeypatch.setattr(simulate_mod, "_advance", logged)
        st.simulate_alternative(st.ThresholdRule(0.1, 0.9, 30), prior, family, 0.02, 30_000, 3)
        assert pooled[0] == 0 and len(flushes) >= 3
        assert max(held) <= 2 * block

    def test_replicate_indices_carried_only_for_a_trace(self, solved, tmp_path, monkeypatch):
        prior, family, surface = solved["bernoulli"]
        advance = simulate_mod._advance
        carried = []

        def logged(run, until, *args):
            carried.append(run[4] is not None)
            return advance(run, until, *args)

        monkeypatch.setattr(simulate_mod, "_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(simulate_mod, "_advance", logged)
        st.simulate_policy(surface, prior, family, 2500, 1)
        assert carried and not any(carried)
        carried.clear()
        st.simulate_policy(surface, prior, family, 2500, 1, tmp_path / "trace.csv")
        assert carried and all(carried)

    @pytest.mark.parametrize("rule", ["policy", "threshold:0.2,0.8", "fixed:3"])
    def test_quadrature_replay_draws_only_for_running_rows(self, solved, rule):
        # one sampler draw per replicate and step taken: the draws add up to
        # tau over the replicates; 70001 replicates cross two block ends and
        # the straggler pool
        prior, family, surface = solved["gaussian-mean"]
        draws = [0]

        def counted(u, rng, size=None):
            out = family.sampler(u, rng, size)
            draws[0] += np.size(out)
            return out

        counting = dataclasses.replace(family, sampler=counted)
        replicates = 70_001
        if rule == "policy":
            report = st.simulate_policy(surface, prior, counting, replicates, 1)
        else:
            rules = {"threshold:0.2,0.8": st.ThresholdRule(0.2, 0.8, surface.horizon), "fixed:3": st.FixedSampleRule(3)}
            report = st.simulate_alternative(rules[rule], prior, counting, 0.02, replicates, 1)
        # the report's mean is the integer sum of tau divided by the replicate count
        assert draws[0] / replicates == report.mean_stopping_time

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_per_row_slots_match_scalar_slots(self, dtype):
        keys = simulate_mod._row_keys(7, np.arange(257))
        slots = [0, 1, 2, 3, *(2**k for k in range(2, 63)), 2**63 - 2, 2**63 - 1]
        if dtype is np.uint64:
            slots += [2**63, 2**64 - 3, 2**64 - 2, 2**64 - 1]
        # (slot + 1) GOLDEN reaches past 2^64 from slot 1 on, and slot + 1 itself wraps at 2^64 - 1
        assert (slots[1] + 1) * simulate_mod._GOLDEN >= 2**64

        def by_int_slot(keys, slot):
            # output slot + 1 of SplitMix64, its offset reduced mod 2^64 in Python ints
            return simulate_mod._unit(simulate_mod._mix(keys + np.uint64((slot + 1) * simulate_mod._GOLDEN % 2**64)))

        for slot in slots:
            want = by_int_slot(keys, slot)
            np.testing.assert_array_equal(simulate_mod._KeyedUniforms(keys, slot).random(), want)
            per_row = simulate_mod._KeyedUniforms(keys, np.full(keys.size, slot, dtype=dtype)).random()
            np.testing.assert_array_equal(per_row, want)
        mixed = np.array(slots, dtype=dtype)
        per_row = simulate_mod._KeyedUniforms(keys[: mixed.size], mixed).random()
        want = [by_int_slot(keys[i : i + 1], slot)[0] for i, slot in enumerate(slots)]
        np.testing.assert_array_equal(per_row, want)

    @pytest.mark.parametrize("weights", [SIX[1], [1.0] * 6, [1e-9, 1.0, 3.0, 1e-3, 2.0, 0.7]])
    def test_theta_index_matches_searchsorted(self, monkeypatch, weights):
        prior = st.make_prior(SIX[0], weights, 0.0)
        cdf = np.cumsum(np.exp(prior.log_weights))
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [2.0**-53, 0.5, 1.0 - 2.0**-53],
                            np.random.default_rng(0).random(1000)])

        class FixedUniforms:
            def __init__(self, keys, slot):
                assert slot == 0

            def random(self, size=None):
                return u

        monkeypatch.setattr(simulate_mod, "_KeyedUniforms", FixedUniforms)
        got = simulate_mod._draw_thetas(prior, np.zeros(u.size, dtype=np.uint64))
        want = np.minimum(np.searchsorted(cdf, u, side="right"), prior.n_atoms - 1)
        np.testing.assert_array_equal(got, want)

    def test_uniforms_lie_strictly_inside_the_unit_interval(self):
        ends = np.array([0, 1, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, 2**64 - 1], dtype=np.uint64)
        u = simulate_mod._unit(ends)
        assert np.all((u > 0.0) & (u < 1.0))
        assert u[0] == u[2] == 2.0**-53 and u[-1] == u[-2] == 1.0 - 2.0**-53
        keys = simulate_mod._row_keys(2**64 - 1, np.arange(100_000))
        for slot in (0, 1, 120):
            u = simulate_mod._KeyedUniforms(keys, slot).random()
            assert np.all((u > 0.0) & (u < 1.0))
            assert stats.kstest(u, "uniform").pvalue > 1e-3

    def test_parameter_frequencies_match_prior_weights(self):
        prior = st.make_prior(*SIX)
        idx = simulate_mod._draw_thetas(prior, simulate_mod._row_keys(3, np.arange(200_000)))
        counts = np.bincount(idx, minlength=prior.n_atoms)
        assert counts.size == prior.n_atoms and counts.sum() == idx.size
        expected = idx.size * np.exp(prior.log_weights)
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.999, prior.n_atoms - 1)

    def test_replay_emits_no_warnings(self, solved):
        # the hash wraps around uint64 on purpose
        prior, family, surface = solved["binomial(3)"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st.simulate_policy(surface, prior, family, 2000, 2**64 - 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_is_rejected(self, benchmark_surface, benchmark_prior, bernoulli_family, seed):
        message = ("^seed must be a non-negative integer, got -1$" if seed < 0
                   else r"seed must be an integer in \[0, 2\*\*64\)")
        with pytest.raises(ValueError, match=message):
            st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family, 10, seed)
        with pytest.raises(ValueError, match=message):
            st.simulate_alternative(st.FixedSampleRule(1), benchmark_prior, bernoulli_family, 0.05, 10, seed)


# a five-outcome model with non-integer outcomes, as a ``--scheme`` file states it
FIVE_OUTCOMES = ([-1.5, -0.25, 0.5, 1.75, 3.0], [0.2, 1.0, 2.0, 1.0, 0.1])
# atoms at -40 and 40 put every threshold at 2^52 and at 0
WIDE_ATOMS = [-40.0, -1.5, -0.3, 0.0, 0.9, 2.2, 40.0]


class TestThresholdDraws:
    """A finite model's draws from its threshold table equal ``family.sampler``'s bit for bit."""

    @pytest.fixture(scope="class", params=["bernoulli", "binomial(3)", "binomial(12)", "custom"])
    def family(self, request, tmp_path_factory):
        if request.param != "custom":
            return st.make_named_family(request.param)
        path = tmp_path_factory.mktemp("scheme") / "scheme.csv"
        path.write_text("x,h\n" + "".join(f"{x},{h}\n" for x, h in zip(*FIVE_OUTCOMES)))
        return st.family_from_scheme_csv(path)

    @staticmethod
    def sampled(family, atoms, words):
        """``family.sampler`` at the uniforms ``_unit`` makes of ``words``."""
        u = simulate_mod._unit(words.copy())

        class Given:
            def random(self, size=None):
                return u

        return family.sampler(atoms, Given(), u.size)

    def test_draws_either_side_of_each_threshold(self, family):
        atoms = np.array(WIDE_ATOMS)
        points = family.scheme.points
        table = simulate_mod._thresholds(family.scheme, atoms)
        assert table.shape == (points.size - 1, atoms.size) and table.dtype == np.uint64
        assert np.all(table[:, 0] == 2**52) and np.all(table[:, -1] == 0)
        assert np.all(np.diff(table.astype(float), axis=0) >= 0)
        rng = np.random.default_rng(0)
        for j, i in np.ndindex(table.shape):
            t = int(table[j, i])
            ks = np.array([k for k in (t - 1, t, 0, 2**52 - 1) if 0 <= k < 2**52], dtype=np.uint64)
            # the low 12 bits, which _unit drops, are random
            words = (ks << np.uint64(12)) | rng.integers(0, 2**12, ks.size, dtype=np.uint64)
            want = self.sampled(family, np.full(ks.size, atoms[i]), words)
            got = simulate_mod._outcomes(points, table, np.full(ks.size, i), words.copy())
            np.testing.assert_array_equal(got, want)
            # T is the least k at which the draw passes points[j]
            assert [bool(w > points[j]) for w in want] == [k >= t for k in ks.tolist()]

    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 17, 5000])
    def test_keyed_draws_match_the_sampler(self, family, rows):
        prior = st.make_prior(WIDE_ATOMS, [1.0] * len(WIDE_ATOMS), 0.5)
        rng = np.random.default_rng(rows)
        keys = rng.integers(0, 2**64, rows, dtype=np.uint64)
        idx = rng.integers(0, prior.n_atoms, rows)
        draw = simulate_mod._drawer(prior, family)
        # a slot shared by the rows, and one slot per row as in the straggler pool
        for n in (0, 1, 118, rng.integers(0, 200, rows)):
            want = family.sampler(prior.atoms[idx], simulate_mod._KeyedUniforms(keys, n + 1), rows)
            np.testing.assert_array_equal(draw(idx, keys, n), want)

    def test_finite_replay_makes_no_sampler_calls(self, family):
        prior = st.make_prior(*SIX)
        calls = []

        def counted(u, rng, size=None):
            calls.append(np.shape(u))
            return family.sampler(u, rng, size)

        rule = st.ThresholdRule(0.2, 0.8, 20)
        want = st.simulate_alternative(rule, prior, family, 0.02, 3000, 1)
        got = st.simulate_alternative(rule, prior, dataclasses.replace(family, sampler=counted), 0.02, 3000, 1)
        assert got == want
        assert calls == []


def bisected_thresholds(family, atoms):
    """Reference table for ``_thresholds``: for every (outcome j, atom i), a plain
    integer bisection for the least k in [0, 2^52] at which ``family.sampler``,
    handed ``_unit`` of a word whose top 52 bits are k, draws above points[j]."""
    inner = family.scheme.points[:-1, None]
    u = np.broadcast_to(atoms, (inner.size, atoms.size))
    lo = np.zeros(u.shape, dtype=np.uint64)
    hi = np.full(u.shape, 2**52, dtype=np.uint64)
    while np.any(lo < hi):
        mid = lo + (hi - lo) // np.uint64(2)
        above = TestThresholdDraws.sampled(family, u, mid << np.uint64(12)) > inner
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, np.minimum(mid + np.uint64(1), hi))
    return lo


class TestThresholdTable:
    """``_thresholds`` reads each entry off the outcome CDF as a bisection through the sampler finds it."""

    @staticmethod
    def scheme_family(tmp_path, xs, hs):
        path = tmp_path / "scheme.csv"
        path.write_text("x,h\n" + "".join(f"{x!r},{h!r}\n" for x, h in zip(xs, hs)))
        return st.family_from_scheme_csv(path)

    @pytest.mark.parametrize("name", ["bernoulli", "binomial(3)", "binomial(12)", "binomial(60)"])
    @pytest.mark.parametrize("atoms", [WIDE_ATOMS, [-5.0, 5.0], [0.4 + 1e-3 * i for i in range(6)]],
                             ids=["wide", "pm5", "1e-3-apart"])
    def test_named_models(self, name, atoms):
        family = st.make_named_family(name)
        atoms = np.array(atoms)
        np.testing.assert_array_equal(simulate_mod._thresholds(family.scheme, atoms),
                                      bisected_thresholds(family, atoms))

    @pytest.mark.parametrize("atoms", [WIDE_ATOMS, [-5.0, 5.0], [-0.7 + 1e-3 * i for i in range(6)]],
                             ids=["wide", "pm5", "1e-3-apart"])
    def test_base_weights_spanning_e300(self, tmp_path, atoms):
        logs = [300.0, -300.0, 12.5, -150.0, 0.0, 299.0, -7.0]
        family = self.scheme_family(tmp_path, [-3.0, -2.0, -0.5, 0.25, 1.0, 4.0, 9.5], [math.exp(v) for v in logs])
        atoms = np.array(atoms)
        np.testing.assert_array_equal(simulate_mod._thresholds(family.scheme, atoms),
                                      bisected_thresholds(family, atoms))

    def test_one_outcome_gives_an_empty_table(self, tmp_path):
        family = self.scheme_family(tmp_path, [2.5], [3.0])
        table = simulate_mod._thresholds(family.scheme, np.array(WIDE_ATOMS))
        assert table.shape == (0, len(WIDE_ATOMS)) and table.dtype == np.uint64
        prior = st.make_prior(*SIX)
        draw = simulate_mod._drawer(prior, family)
        keys = np.arange(5, dtype=np.uint64)
        np.testing.assert_array_equal(draw(np.arange(5), keys, 0), np.full(5, 2.5))


class TestLevelCurveReplay:
    """Stopping by y against per-layer level curves decides as the per-row pi replay does."""

    def _both(self, tmp_path, monkeypatch, stop_fn, cap, replay):
        level_curve_replay = simulate_mod._replay
        monkeypatch.setattr(simulate_mod, "_replay", replay_by_pi(stop_fn, cap))
        want = replay(tmp_path / "want.csv")
        monkeypatch.setattr(simulate_mod, "_replay", level_curve_replay)
        got = replay(tmp_path / "got.csv")
        assert got == want
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        return got

    @pytest.mark.parametrize("model", list(MODEL_PRIORS))
    def test_policy_matches_pi_replay(self, solved, tmp_path, monkeypatch, model):
        prior, family, surface = solved[model]
        b1, b2 = surface.b1, surface.b2
        rep = self._both(
            tmp_path, monkeypatch, lambda n, pi: ~((b1[n] < pi) & (pi < b2[n])), surface.horizon,
            lambda path: st.simulate_policy(surface, prior, family, 3000, 11, path))
        assert 0 < rep.mean_stopping_time < surface.horizon

    @pytest.mark.parametrize("model", ["bernoulli", "gaussian-mean", "exponential-rate"])
    @pytest.mark.parametrize(
        "rule, stop_fn",
        [
            (st.FixedSampleRule(0), lambda n, pi: np.full(pi.shape, True)),
            (st.FixedSampleRule(3), lambda n, pi: np.full(pi.shape, n >= 3)),
            (st.ThresholdRule(0.2, 0.8, 30), lambda n, pi: (pi <= 0.2) | (pi >= 0.8)),
            (st.ThresholdRule(0.5, 0.5, 30), lambda n, pi: (pi <= 0.5) | (pi >= 0.5)),
            (st.ThresholdRule(0.0, 1.0, 20), lambda n, pi: (pi <= 0.0) | (pi >= 1.0)),
            (st.ThresholdRule(1e-13, 1.0 - 1e-13, 20), lambda n, pi: (pi <= 1e-13) | (pi >= 1.0 - 1e-13)),
        ],
        ids=["fixed:0", "fixed:3", "threshold:0.2,0.8", "threshold:0.5,0.5", "threshold:0,1", "threshold:1e-13"],
    )
    def test_rules_match_pi_replay(self, solved, tmp_path, monkeypatch, model, rule, stop_fn):
        prior, family, _ = solved[model]
        self._both(tmp_path, monkeypatch, stop_fn, rule.cap,
                   lambda path: st.simulate_alternative(rule, prior, family, 0.02, 2000, 5, path))

    @pytest.mark.parametrize("model", ["bernoulli", "gaussian-variance"])
    def test_boundaries_at_zero_and_one(self, solved, tmp_path, monkeypatch, model):
        prior, family, surface = solved[model]
        b1, b2 = surface.b1.copy(), surface.b2.copy()
        b1[::3] = 0.0
        b2[1::3] = 1.0
        b1[2::5], b2[2::5] = 0.0, 1.0
        edged = dataclasses.replace(surface, b1=b1, b2=b2)
        self._both(tmp_path, monkeypatch, lambda n, pi: ~((b1[n] < pi) & (pi < b2[n])), edged.horizon,
                   lambda path: st.simulate_policy(edged, prior, family, 3000, 2, path))

    def test_several_blocks(self, benchmark_surface, benchmark_prior, bernoulli_family, tmp_path, monkeypatch):
        # a symmetric prior puts bernoulli sums exactly on pi = 1/2: ties at every even n
        monkeypatch.setattr(simulate_mod, "_BLOCK", SMALL_BLOCK)
        b1, b2 = benchmark_surface.b1, benchmark_surface.b2
        rep = self._both(
            tmp_path, monkeypatch, lambda n, pi: ~((b1[n] < pi) & (pi < b2[n])), benchmark_surface.horizon,
            lambda path: st.simulate_policy(benchmark_surface, benchmark_prior, bernoulli_family,
                                            2 * SMALL_BLOCK + 500, 4, path))
        assert rep.replicates == 2 * SMALL_BLOCK + 500

    @pytest.mark.parametrize(
        "rule", [st.ThresholdRule(0.5, 0.5, 12), st.FixedSampleRule(2)], ids=["threshold:0.5,0.5", "fixed:2"]
    )
    def test_log_odds_only_inside_bands(self, benchmark_prior, bernoulli_family, monkeypatch, rule):
        # the symmetric prior puts pi exactly at 1/2 on y = n / 2: those rows
        # need pi to stop (threshold) or to decide (fixed size)
        # a 4800-row block leaves a last block of 200 rows, which goes
        # straight to the straggler pool: those rows pass one layer per row
        ctx = _Ctx(benchmark_prior, bernoulli_family)
        for block in (_BLOCK, 4800):
            calls = []

            def counted(ctx, n, y, slope=False):
                calls.append((n, np.array(y)))
                return _log_odds(ctx, n, y, slope)

            monkeypatch.setattr(simulate_mod, "_BLOCK", block)
            monkeypatch.setattr(simulate_mod, "_log_odds", counted)
            st.simulate_alternative(rule, benchmark_prior, bernoulli_family, 0.05, 5000, 3)
            monkeypatch.undo()
            # the band set-up evaluates its residuals for every layer at once
            # (n of shape (layers, 1)); the replay loop then passes one layer
            # shared by its rows, or one layer per row
            replay = [(np.broadcast_to(n, y.shape), y) for n, y in calls if np.ndim(n) < 2]
            assert replay
            assert any(np.ndim(n) == 1 for n, _ in calls) == (block != _BLOCK)
            for layers, ys in replay:
                for n in np.unique(layers):
                    y = ys[layers == n]
                    lo, hi = rule.band(n) if n < rule.cap else (np.inf, np.inf)
                    a, b = simulate_mod._level_bands(ctx, int(n), [lo, hi, 0.5])
                    assert np.all(np.any((y[:, None] >= a) & (y[:, None] <= b), axis=1))
            # every row stops at n = 0 or 2 and needs pi at most twice: to stop and to decide
            assert sum(y.size for _, y in replay) <= 2 * 5000


# ulp steps either side of a level-curve point, and multiples of the band's half-width
ULP_STEPS = np.arange(-6, 7)
HALF_WIDTHS = np.array([-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0])
SWEEP_PIS = [1.01e-12, 5e-4, 0.3, 0.5, 0.9995, 1.0 - 1.01e-12]


class TestLevelBands:
    @pytest.fixture(scope="class", params=[*MODEL_PRIORS, *STRESS_PRIORS])
    def ctx(self, request):
        model, spec = STRESS_PRIORS.get(request.param, (request.param, MODEL_PRIORS.get(request.param)))
        prior = st.make_prior(*spec)
        return _Ctx(prior, st.family_for_prior(model, prior))

    @staticmethod
    def _decide(ctx, n, y, p, a, b):
        """pi > p and pi >= p as the replay makes them: by y outside [a, b], by pi inside."""
        near = (y >= a) & (y <= b)
        pi = expit(_log_odds(ctx, n, y))
        return np.where(near, pi > p, y > b), np.where(near, pi >= p, y > b)

    @pytest.mark.parametrize("n", [0, 30, 120])
    @pytest.mark.parametrize("p", SWEEP_PIS)
    def test_threshold_matches_direct_test(self, ctx, n, p):
        # p and its neighbouring double towards 1/2: near 1, expit rounds onto
        # a grid coarser than the doubles, which hits one of the two exactly
        # over a range of y
        for p in (p, np.nextafter(p, 0.0 if p >= 0.5 else 1.0)):
            a, b = simulate_mod._level_bands(ctx, n, p)
            y_p = float(_y_of_logit(ctx, n, logit(p)))
            delta = 0.5 * (b - a)
            assert y_p - delta == pytest.approx(a, rel=1e-12, abs=1e-12)
            # a ladder from four half-widths halving down to the ulp scale: a
            # narrower band than the rounding needs leaves some rung decided wrongly
            ladder = 4.0 * delta * 0.5 ** np.arange(48)
            y = np.concatenate([y_p + ULP_STEPS * np.spacing(y_p), y_p + HALF_WIDTHS * delta,
                                y_p - ladder, y_p + ladder])
            pi = expit(_log_odds(ctx, n, y))
            gt, ge = self._decide(ctx, n, y, p, a, b)
            np.testing.assert_array_equal(gt, pi > p)
            np.testing.assert_array_equal(ge, pi >= p)
            # the points two and four half-widths out are decided by y alone
            outside = np.abs(y - y_p) > 1.5 * delta
            assert np.count_nonzero(outside) == 8 and not np.any((y[outside] >= a) & (y[outside] <= b))

    # Largest half-width over p = 1.01e-12 and 1 - 1.01e-12, relative to
    # max(1, |y|), at n = 0 / 30 / 120.  "gap" divides the margin by the atom
    # gap across theta0 alone; "means" by the larger bound from the side-wise
    # posterior means at the ends of the band, as _level_bands now does.
    #
    #   prior                   gap                      means
    #   bernoulli               7.6e-4  3.4e-4  1.3e-4   2.5e-4  1.1e-4  4.9e-5
    #   binomial(3)             7.6e-4  1.6e-4  5.2e-5   2.5e-4  5.5e-5  5.1e-5
    #   gaussian-mean           7.6e-4  3.6e-4  2.5e-4   2.5e-4  1.7e-4  2.5e-4
    #   exponential-rate        9.5e-4  1.8e-2  3.2e-4   2.5e-4  4.7e-3  1.0e-4
    #   gaussian-variance       9.5e-4  1.9e-3  9.6e-4   2.5e-4  5.1e-4  2.6e-4
    #   gaussian-mean-narrow    2.5e-1  8.0e-2  2.6e-2   2.5e-4  8.0e-5  2.6e-5
    #   bernoulli-faint-tails   2.0     8.9e-1  3.3e-1   1.7e-4  7.4e-5  2.7e-5
    @pytest.mark.parametrize("model", list(MODEL_PRIORS))
    def test_bands_are_thin(self, model):
        prior = st.make_prior(*MODEL_PRIORS[model])
        ctx = _Ctx(prior, st.family_for_prior(model, prior))
        p = np.array([5e-4, 0.3, 0.5, 0.9995])
        for n in (0, 30, 120):
            a, b = simulate_mod._level_bands(ctx, n, p)
            y_p = _y_of_logit(ctx, n, logit(p))
            assert np.all(0.5 * (b - a) <= 1e-6 * np.maximum(1.0, np.abs(y_p)))

    @pytest.mark.parametrize("name", list(STRESS_PRIORS))
    def test_bands_are_thin_with_a_small_atom_gap(self, name):
        # the atom gap alone bounds the slope loosely here: bands of 2.0 |y|
        model, spec = STRESS_PRIORS[name]
        prior = st.make_prior(*spec)
        ctx = _Ctx(prior, st.family_for_prior(model, prior))
        p = np.array([1.01e-12, 1.0 - 1.01e-12])
        for n in (0, 30, 120):
            a, b = simulate_mod._level_bands(ctx, n, p)
            y_p = _y_of_logit(ctx, n, logit(p))
            assert np.all(0.5 * (b - a) <= 1e-3 * np.maximum(1.0, np.abs(y_p)))

    @pytest.mark.parametrize("p", [0.0, 1e-13, 1.0 - 1e-13, 1.0])
    def test_thresholds_outside_invertible_range(self, ctx, p):
        n = 30
        a, b = simulate_mod._level_bands(ctx, n, p)
        # the band runs on to infinity on the side of the unreachable end
        assert (a == -np.inf) if p < 0.5 else (b == np.inf)
        edge = b if p < 0.5 else a
        y = edge + np.array([-1.0, 1.0]) * max(1.0, abs(edge)) * 1e-6
        y = np.concatenate([y, edge + np.linspace(-50.0, 50.0, 41)])
        gt, ge = self._decide(ctx, n, y, p, a, b)
        pi = expit(_log_odds(ctx, n, y))
        np.testing.assert_array_equal(gt, pi > p)
        np.testing.assert_array_equal(ge, pi >= p)

    def test_infinite_thresholds_need_no_band(self, ctx):
        a, b = simulate_mod._level_bands(ctx, np.arange(4)[:, None], [[-np.inf, np.inf]] * 4)
        np.testing.assert_array_equal(a, [[-np.inf, np.inf]] * 4)
        np.testing.assert_array_equal(b, a)


class TestRuleValidation:
    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            st.FixedSampleRule(-1)

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.5, 0.5), (0.2, 0.8)])
    def test_threshold_accepts(self, low, high):
        assert st.ThresholdRule(low, high, 4).band(0) == (low, high)

    @pytest.mark.parametrize(
        "low, high", [(0.8, 0.2), (math.nan, 0.5), (0.2, math.nan), (-0.1, 0.5), (0.5, 1.1), (-math.inf, math.inf)]
    )
    def test_threshold_rejects_bad_interval(self, low, high):
        with pytest.raises(ValueError, match="0 <= low <= high <= 1"):
            st.ThresholdRule(low, high, 4)

    def test_threshold_rejects_negative_cap(self):
        with pytest.raises(ValueError, match="threshold rule cap must be a non-negative integer, got -3"):
            st.ThresholdRule(0.2, 0.8, -3)
