import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

import seqtest as st
from conftest import traced_peak
from seqtest import families as families_mod
from seqtest.families import ObservationScheme

ALL_MODELS = ["gaussian-mean", "bernoulli", "binomial(3)", "exponential-rate", "gaussian-variance"]


def build(name):
    return st.make_named_family(name)


class TestLogPartition:
    def test_gaussian_mean_closed_form(self):
        fam = build("gaussian-mean")
        assert st.log_partition(fam, 3.0) == pytest.approx(4.5, abs=0)

    def test_bernoulli_at_zero(self):
        fam = build("bernoulli")
        assert st.log_partition(fam, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_two_point_scheme_by_hand(self, tmp_path):
        path = tmp_path / "scheme.csv"
        path.write_text("x,h\n0,1\n1,1\n")
        fam = st.family_from_scheme_csv(path)
        assert st.log_partition(fam, 1.0) == pytest.approx(math.log(1.0 + math.e), abs=1e-14)

    def test_domain_violation(self):
        fam = build("exponential-rate")
        with pytest.raises(ValueError, match="natural domain"):
            st.log_partition(fam, -1.0)
        with pytest.raises(ValueError, match="natural domain"):
            st.log_partition(fam, 0.0)  # boundary of the open interval is rejected


class TestNamedFamilies:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            st.make_named_family("weibull")

    def test_binomial_requires_valid_count(self):
        with pytest.raises(ValueError, match="binomial trial count N must be a positive integer, got 0"):
            st.make_named_family("binomial(0)")
        with pytest.raises(ValueError, match="trial count"):
            st.make_named_family("binomial")

    def test_bernoulli_is_binomial_one(self):
        bern, one = build("bernoulli"), build("binomial(1)")
        assert (bern.name, one.name) == ("bernoulli", "binomial(1)")
        u = np.linspace(-30.0, 30.0, 61)
        for a, b in ((bern.scheme.points, one.scheme.points), (bern.scheme.log_mass, one.scheme.log_mass),
                     (bern.log_partition(u), one.log_partition(u))):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name, params, message", [
        ("bernoulli", {"nodes": 5}, "^nodes applies only to the quadrature models "
         r"\(gaussian-mean, exponential-rate, gaussian-variance\), not 'bernoulli'$"),
        ("binomial(3)", {"nodes": 0}, "nodes applies only to the quadrature models .* not 'binomial\\(3\\)'$"),
        ("binomial(3)", {"n": 3}, "^model 'binomial\\(3\\)' takes no params, got n$"),
        # no quadrature window can be set: family_for_prior sizes it from the prior
        *((model, {window: 1.0}, f"^model '{model}' takes only nodes, got {window}$")
          for model in ("gaussian-mean", "exponential-rate", "gaussian-variance")
          for window in ("center", "min_rate", "min_precision")),
        ("exponential-rate", {"center": 0.0, "size": 3},
         "^model 'exponential-rate' takes only nodes, got center, size$"),
    ])
    def test_params_checked_against_the_model(self, name, params, message):
        with pytest.raises(ValueError, match=message):
            st.make_named_family(name, params)
        with pytest.raises(ValueError, match=message):
            st.family_for_prior(name, np.array([0.5, 1.5]), params)


class TestModelSizeLimits:
    """A model size that cannot be built is refused in one line before anything is allocated."""

    # a budget of 100^2 values stands in for 10^8 in the node-count cases
    @pytest.mark.parametrize("name, params, budget, message", [
        ("binomial(1030)", None, 10**8, "binomial trial count N must be at most 1029, got 1030: "
         "C(N, N/2) overflows a double beyond it"),
        ("binomial(1000000000000)", None, 10**8, "binomial trial count N must be at most 1029, got 1000000000000: "
         "C(N, N/2) overflows a double beyond it"),
        *(("gaussian-mean", {"nodes": nodes}, 10**8, f"nodes for model 'gaussian-mean' must be at most 370, "
           f"got {nodes}: the Gauss-Hermite weights underflow beyond it") for nodes in (371, 500)),
        *((model, {"nodes": 101}, 100**2, f"nodes for model '{model}' must be at most 100, got 101: "
           "a rule is built from a nodes x nodes matrix, over the budget of 10000 values")
          for model in ("gaussian-mean", "exponential-rate", "gaussian-variance")),
    ])
    def test_refused_before_allocating(self, monkeypatch, name, params, budget, message):
        monkeypatch.setattr(families_mod, "_MAX_VALUES", budget)

        def refused():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                    st.make_named_family(name, params)

        peak = traced_peak(refused)
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"

    def test_largest_sizes_build_without_warnings(self, monkeypatch):
        monkeypatch.setattr(families_mod, "_MAX_VALUES", 370**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build("binomial(1029)").scheme.n_points == 1030
            for model in ("gaussian-mean", "exponential-rate", "gaussian-variance"):
                assert st.make_named_family(model, {"nodes": 370}).scheme.n_points == 370


class TestGaussRuleCache:
    @pytest.mark.parametrize("model, atoms, theta0", [("gaussian-mean", [-1.0, 0.4, 1.5], 0.0),
                                                      ("exponential-rate", [0.6, 1.1, 2.5], 1.0),
                                                      ("gaussian-variance", [0.6, 1.1, 2.5], 1.0)])
    def test_builds_with_and_without_the_cache_agree(self, model, atoms, theta0):
        prior = st.make_prior(atoms, [1.0, 2.0, 1.0], theta0)
        families_mod._gauss_rule.cache_clear()
        fresh = st.family_for_prior(model, prior)
        cached = st.family_for_prior(model, prior)
        assert families_mod._gauss_rule.cache_info().hits >= 1
        for a, b in ((fresh.scheme.points, cached.scheme.points),
                     (fresh.scheme.base_weights, cached.scheme.base_weights),
                     (fresh.scheme.log_mass, cached.scheme.log_mass)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind, build", [("hermite", np.polynomial.hermite.hermgauss),
                                             ("legendre", np.polynomial.legendre.leggauss)])
    def test_cached_rule_is_numpys_and_read_only(self, kind, build):
        rule = families_mod._gauss_rule(kind, 128)
        for got, want in zip(rule, build(128)):
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0
        assert families_mod._gauss_rule(kind, 128) is rule


class TestSampler:
    def test_bernoulli_symmetric_coin(self):
        fam = build("bernoulli")
        rng = np.random.default_rng(11)
        draws = st.sample_observation(fam, 0.0, rng, size=100_000)
        assert abs(draws.mean() - 0.5) < 0.005

    def test_gaussian_mean(self):
        fam = build("gaussian-mean")
        rng = np.random.default_rng(12)
        draws = st.sample_observation(fam, 1.0, rng, size=100_000)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_exponential_rate_negated_mean(self):
        fam = build("exponential-rate")
        rng = np.random.default_rng(13)
        draws = st.sample_observation(fam, 2.0, rng, size=100_000)
        assert abs(draws.mean() - (-0.5)) < 0.005

    @pytest.mark.parametrize("name,u", [("binomial(3)", 0.4), ("gaussian-variance", 1.3)])
    def test_sampler_matches_mean_identity(self, name, u):
        # empirical mean against the finite-difference derivative of B
        fam = build(name)
        rng = np.random.default_rng(14)
        draws = st.sample_observation(fam, u, rng, size=200_000)
        h = 1e-5
        b_prime = (st.log_partition(fam, u + h) - st.log_partition(fam, u - h)) / (2 * h)
        sd = draws.std()
        assert abs(draws.mean() - b_prime) < 4.0 * sd / math.sqrt(draws.size)

    @pytest.mark.parametrize("u", [0.3, -40.0])
    def test_custom_scheme_outcome_frequencies(self, tmp_path, u):
        path = tmp_path / "scheme.csv"
        path.write_text("x,h\n-1,1\n0.5,2\n2,0.5\n")
        fam = st.family_from_scheme_csv(path)
        draws = st.sample_observation(fam, u, np.random.default_rng(15), size=200_000)
        probs = np.exp(fam.scheme.log_mass + u * fam.scheme.points - st.log_partition(fam, u))
        counts = np.array([np.count_nonzero(draws == x) for x in fam.scheme.points])
        assert counts.sum() == draws.size
        expected = draws.size * probs
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.999, probs.size - 1)

    @pytest.mark.parametrize("scheme", [
        build("bernoulli").scheme,
        build("binomial(12)").scheme,
        ObservationScheme("finite", [-1.5, -0.25, 0.5, 1.75, 3.0], np.exp([300.0, -300.0, 5.0, -80.0, 250.0])),
    ], ids=["bernoulli", "binomial(12)", "weights-e^300"])
    def test_outcome_cdf_columns_do_not_depend_on_the_shape(self, scheme):
        # the replay's threshold table builds the CDF at the prior's atoms and
        # the sampler at each row's atom: each column must come out the same
        atoms = np.array([-40.0, -1.5, -0.3, 0.0, 1e-3, 2e-3, 0.9, 2.2, 40.0])
        want = families_mod._outcome_cdf(scheme, atoms)
        assert want.shape == (scheme.n_points, atoms.size)
        rng = np.random.default_rng(16)
        for shape in [(1,), (7,), (8, 9), (3, 17, 5), (5000,)]:
            idx = rng.integers(0, atoms.size, shape)
            got = families_mod._outcome_cdf(scheme, atoms[idx])
            np.testing.assert_array_equal(got, want[:, idx])
            # one atom broadcast with stride 0
            i = idx.flat[0]
            np.testing.assert_array_equal(families_mod._outcome_cdf(scheme, np.broadcast_to(atoms[i], shape)),
                                          want[:, np.full(shape, i)])
        for i, atom in enumerate(atoms):
            np.testing.assert_array_equal(families_mod._outcome_cdf(scheme, atom), want[:, i])

    def test_deterministic_given_rng_state(self):
        fam = build("gaussian-variance")
        a = st.sample_observation(fam, 1.0, np.random.default_rng(5), size=10)
        b = st.sample_observation(fam, 1.0, np.random.default_rng(5), size=10)
        np.testing.assert_array_equal(a, b)


def _test_points(family):
    lo, hi = family.scheme_domain or (-3.0, 3.0)
    lo = max(lo, -3.0)
    hi = min(hi, 4.0)
    return np.linspace(lo, hi, 9)


class TestStructure:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_log_partition_convex(self, name):
        fam = build(name)
        us = _test_points(fam)
        for i in range(len(us) - 2):
            u1, u2, u3 = us[i], us[i + 1], us[i + 2]
            lam = (u3 - u2) / (u3 - u1)
            chord = lam * st.log_partition(fam, u1) + (1 - lam) * st.log_partition(fam, u3)
            assert st.log_partition(fam, u2) <= chord + 1e-12

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_normalization_under_scheme(self, name):
        fam = build(name)
        tol = 1e-12 if fam.scheme.kind == "finite" else 1e-11
        for u in _test_points(fam):
            total = np.exp(fam.scheme.log_mass + u * fam.scheme.points - st.log_partition(fam, u)).sum()
            assert abs(total - 1.0) < tol

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_mean_identity_finite_difference(self, name):
        fam = build(name)
        for u in _test_points(fam):
            probs = np.exp(fam.scheme.log_mass + u * fam.scheme.points - st.log_partition(fam, u))
            scheme_mean = float(probs @ fam.scheme.points)
            h = 1e-5
            b_prime = (st.log_partition(fam, u + h) - st.log_partition(fam, u - h)) / (2 * h)
            assert scheme_mean == pytest.approx(b_prime, abs=1e-7)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_monotone_expectation_of_indicators(self, name):
        # E[1{X >= t}] is non-decreasing in the parameter for every t
        fam = build(name)
        us = _test_points(fam)
        x = fam.scheme.points
        thresholds = np.quantile(x, [0.1, 0.35, 0.6, 0.85])
        for t in thresholds:
            sel = x >= t
            vals = [
                np.exp(fam.scheme.log_mass[sel] + u * x[sel] - st.log_partition(fam, u)).sum()
                for u in us
            ]
            assert np.all(np.diff(vals) >= -1e-12)


class TestSchemeValidation:
    def test_nodes_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ObservationScheme(kind="finite", points=np.array([1.0, 1.0]), base_weights=np.array([1.0, 1.0]))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ObservationScheme(kind="finite", points=np.array([0.0, 1.0]), base_weights=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("points", [[0.0, math.inf], [-math.inf, 1.0], [0.0, math.nan]])
    def test_points_must_be_finite(self, points):
        with pytest.raises(ValueError, match="^scheme points must be finite$"):
            ObservationScheme(kind="finite", points=np.array(points), base_weights=np.array([1.0, 1.0]))

    def test_scheme_csv_with_infinite_outcome(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x,h\n0,1\ninf,1\n")
        with pytest.raises(ValueError, match=r"^scheme points must be finite, got row 'inf,1'$"):
            st.family_from_scheme_csv(path)

    @pytest.mark.parametrize("row, column", [("1,inf", "base weights"), ("1,nan", "base weights"),
                                             ("inf,1", "points"), ("-inf,1", "points"), ("nan,nan", "points")])
    def test_scheme_csv_refuses_non_finite_row(self, tmp_path, row, column):
        path = tmp_path / "s.csv"
        path.write_text(f"x,h\n0,1\n{row}\n")
        with pytest.raises(ValueError) as info:
            st.family_from_scheme_csv(path)
        assert str(info.value) == f"scheme {column} must be finite, got row {row!r}"

    @pytest.mark.parametrize("row", ["1,abc", "1", "1,1,1"])
    def test_scheme_csv_quotes_malformed_row(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"x,h\n0,1\n{row}\n")
        with pytest.raises(ValueError) as info:
            st.family_from_scheme_csv(path)
        assert str(info.value) == f"malformed scheme row: {row!r}"

    def test_scheme_csv_errors(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("x,weight\n0,1\n")
        with pytest.raises(ValueError, match="header 'x,h'"):
            st.family_from_scheme_csv(bad_header)
        dup = tmp_path / "b.csv"
        dup.write_text("x,h\n0,1\n0,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            st.family_from_scheme_csv(dup)
        nonpos = tmp_path / "c.csv"
        nonpos.write_text("x,h\n0,1\n1,-2\n")
        with pytest.raises(ValueError, match="strictly positive"):
            st.family_from_scheme_csv(nonpos)

    def test_scheme_csv_round_trip_behaviour(self, tmp_path):
        # a skewed three-point die; checking the custom loader against a
        # direct log-sum-exp of its rows
        path = tmp_path / "die.csv"
        path.write_text("x,h\n-1,0.5\n0,1.0\n2,0.25\n")
        fam = st.family_from_scheme_csv(path)
        u = 0.7
        direct = math.log(
            0.5 * math.exp(-u) + 1.0 + 0.25 * math.exp(2 * u)
        )
        assert st.log_partition(fam, u) == pytest.approx(direct, abs=1e-13)
        rng = np.random.default_rng(3)
        draws = st.sample_observation(fam, 0.0, rng, size=50_000)
        assert set(np.unique(draws)) <= {-1.0, 0.0, 2.0}


def test_family_for_prior_sizes_windows():
    prior = st.make_prior([0.6, 1.1, 2.5], [1, 1, 1], 1.0)
    fam = st.family_for_prior("exponential-rate", prior)
    st.validate_prior_for_family(prior, fam)
    # default window starts at 0.25, so a smaller atom is rejected there
    small = st.make_prior([0.05, 1.0], [1, 1], 0.5)
    with pytest.raises(ValueError, match="scheme window"):
        st.validate_prior_for_family(small, st.make_named_family("exponential-rate"))
    fam_small = st.family_for_prior("exponential-rate", small)
    st.validate_prior_for_family(small, fam_small)


# every public count: the test id, the count's name in the error, the rule it
# must meet, and a call passing the count v (p the prior, f its bernoulli
# family, s a solved surface)
_COUNT_SITES = [
    ("posterior", "observation count n", "a non-negative integer", lambda v, p, f, s: st.posterior(p, f, v, 0.0)),
    ("log_odds_of_y", "observation count n", "a non-negative integer",
     lambda v, p, f, s: st.log_odds_of_y(p, f, v, 0.0)),
    ("pi_of_y", "observation count n", "a non-negative integer", lambda v, p, f, s: st.pi_of_y(p, f, v, 0.0)),
    ("y_of_pi", "observation count n", "a non-negative integer", lambda v, p, f, s: st.y_of_pi(p, f, v, 0.5)),
    ("transition_distribution", "observation count n", "a non-negative integer",
     lambda v, p, f, s: st.transition_distribution(p, f, v, 0.5)),
    ("make_grid", "grid size", "an integer >= 3", lambda v, p, f, s: st.make_grid(v)),
    ("bellman_step", "observation count n", "a non-negative integer",
     lambda v, p, f, s: st.bellman_step(s.values[1], v, s.pi_grid, p, f, s.cost)),
    ("solve", "horizon", "a positive integer", lambda v, p, f, s: st.solve(p, f, 0.1, v, 101)),
    ("policy_decide", "time index n", "a non-negative integer", lambda v, p, f, s: st.policy_decide(s, v, 0.5)),
    ("value_at", "time index n", "a non-negative integer", lambda v, p, f, s: st.value_at(s, v, 0.5)),
    ("brute_force_value", "horizon", "a non-negative integer",
     lambda v, p, f, s: st.brute_force_value(p, f, 0.1, v)),
    ("enumerate_reachable_pis", "horizon", "a non-negative integer",
     lambda v, p, f, s: st.enumerate_reachable_pis(p, f, v)),
    ("replicates", "replicates", "a positive integer", lambda v, p, f, s: st.simulate_policy(s, p, f, v, 0)),
    ("seed", "seed", "a non-negative integer", lambda v, p, f, s: st.simulate_policy(s, p, f, 10, v)),
    ("FixedSampleRule", "fixed sample size", "a non-negative integer", lambda v, p, f, s: st.FixedSampleRule(v)),
    ("ThresholdRule", "threshold rule cap", "a non-negative integer",
     lambda v, p, f, s: st.ThresholdRule(0.2, 0.8, v)),
    ("check_concentration", "n_max", "a non-negative integer",
     lambda v, p, f, s: st.check_concentration(p, f, 0.5, -0.5, 0.5, v)),
    ("check_level_spread", "n_max", "a non-negative integer",
     lambda v, p, f, s: st.check_level_spread(p, f, 0.3, 0.7, v)),
    ("check_convex_order-m", "convex order time m", "a non-negative integer",
     lambda v, p, f, s: st.check_convex_order(p, f, 0.5, v, 5)),
    ("check_convex_order-n", "convex order time n", "a non-negative integer",
     lambda v, p, f, s: st.check_convex_order(p, f, 0.5, 0, v)),
    ("check_time_monotonicity", "burn", "a non-negative integer",
     lambda v, p, f, s: st.check_time_monotonicity(s, burn=v)),
    ("check_binomial_reduction-N", "binomial reduction N", "a positive integer",
     lambda v, p, f, s: st.check_binomial_reduction(v, p, 0.1, 101)),
    ("conjecture_probe-trials", "probe trials", "a positive integer",
     lambda v, p, f, s: st.conjecture_probe(["bernoulli"], trials=v, grid_size=101)),
    ("conjecture_probe-seed", "probe seed", "a non-negative integer",
     lambda v, p, f, s: st.conjecture_probe(["bernoulli"], trials=1, seed=v, grid_size=101)),
    ("make_named_family-nodes", "nodes for model 'gaussian-mean'", "a positive integer",
     lambda v, p, f, s: st.make_named_family("gaussian-mean", {"nodes": v})),
]


class TestCountRule:
    """Every count refuses a fraction, a bool and a negative value with one message."""

    @pytest.mark.parametrize("value", [1.5, True, -1])
    @pytest.mark.parametrize("name, kind, call", [pytest.param(*site[1:], id=site[0]) for site in _COUNT_SITES])
    def test_refused(self, benchmark_prior, bernoulli_family, benchmark_surface, name, kind, call, value):
        message = "^" + re.escape(f"{name} must be {kind}, got {value!r}") + "$"
        with pytest.raises(ValueError, match=message):
            call(value, benchmark_prior, bernoulli_family, benchmark_surface)

    def test_numpy_integers_pass_as_ints(self, benchmark_prior, bernoulli_family, benchmark_surface):
        state = st.posterior(benchmark_prior, bernoulli_family, np.int64(2), 1.0)
        assert type(state.n) is int and state.n == 2
        assert st.make_grid(np.int32(5)).size == 5
        assert st.ThresholdRule(0.2, 0.8, np.uint8(7)).cap == 7 and type(st.FixedSampleRule(np.int64(3)).cap) is int
        assert st.value_at(benchmark_surface, np.int64(0), 0.5) == st.value_at(benchmark_surface, 0, 0.5)
        # a report records the count as an int, so it serializes
        for report in (st.check_level_spread(benchmark_prior, bernoulli_family, 0.3, 0.7, np.int64(3)),
                       st.check_convex_order(benchmark_prior, bernoulli_family, 0.5, np.int64(0), np.int64(2))):
            assert json.loads(report.to_json())["instance"]["model"] == "bernoulli"
