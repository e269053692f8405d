import json
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy.special import expit, logit

import seqtest as st
from conftest import BENCH_ATOMS, FIVE_MODELS, traced_peak
from seqtest import checks as checks_mod
from seqtest import solver as solver_mod
from seqtest.checks import PROBE_WINDOWS, sample_random_prior
from seqtest.priors import (_Ctx, _log_odds, _lse_last, _predictive, _sum_rows, _transition, _unnorm_log_weights,
                            _y_of_logit)
from seqtest.solver import _backward


class TestConcavity:
    def test_gain_surface_has_zero_violation(self, benchmark_prior, bernoulli_family):
        surf = st.solve(benchmark_prior, bernoulli_family, 0.6, 3, grid_size=401)
        rep = st.check_concavity(surf)
        assert rep.passed
        assert rep.worst_violation <= 1e-15  # roundoff at the gain kink

    def test_injected_convex_bump_is_flagged(self, benchmark_surface):
        values = benchmark_surface.values.copy()
        n, j = 2, 700
        values[n, j] -= 1e-4
        broken = replace(benchmark_surface, values=values)
        rep = st.check_concavity(broken)
        assert not rep.passed
        assert rep.location["n"] == n
        assert rep.location["pi"] == pytest.approx(benchmark_surface.pi_grid[j], abs=1e-12)

    def test_solved_surface_passes_tight(self, benchmark_surface):
        rep = st.check_concavity(benchmark_surface, tol=1e-8)
        assert rep.passed
        assert rep.worst_violation < 1e-12


class TestConcentration:
    def test_two_atom_masses_constant(self, benchmark_prior, bernoulli_family):
        # with one atom per side, the mass below any cut between the atoms
        # is pinned at 1 - pi along the level curve
        rep = st.check_concentration(benchmark_prior, bernoulli_family, 0.4, -0.5, 0.5, 10)
        assert rep.passed
        assert abs(rep.worst_violation) < 1e-12

    def test_cut_below_support_is_constant_zero(self, three_atom_prior, gaussian_mean_family):
        prior = st.make_prior([-1.0, 1.0], [1.0, 1.0], 0.5)
        rep = st.check_concentration(prior, gaussian_mean_family, 0.3, -2.0, 0.7, 8)
        assert rep.passed

    def test_three_atom_strictly_decreasing(self, three_atom_prior, gaussian_mean_family):
        rep = st.check_concentration(three_atom_prior, gaussian_mean_family, 0.5, -0.5, 0.5, 10)
        assert rep.passed
        seq = [
            st.mass_below(
                st.posterior(
                    three_atom_prior,
                    gaussian_mean_family,
                    n,
                    st.y_of_pi(three_atom_prior, gaussian_mean_family, n, 0.5),
                ),
                -0.5,
            )
            for n in range(11)
        ]
        assert np.all(np.diff(seq) < 0)

    def test_cut_must_straddle_threshold(self, three_atom_prior, gaussian_mean_family):
        with pytest.raises(ValueError, match="a < theta0 < b"):
            st.check_concentration(three_atom_prior, gaussian_mean_family, 0.5, 0.1, 0.5, 5)
        with pytest.raises(ValueError, match="a < theta0 < b"):
            st.check_concentration(three_atom_prior, gaussian_mean_family, 0.5, -0.5, -0.1, 5)


class TestLevelSpread:
    def test_two_atom_spread_exactly_constant(self, gaussian_mean_family):
        th1, th2 = -0.7, 1.1
        prior = st.make_prior([th1, th2], [1.0, 1.0], 0.0)
        spreads = [
            st.y_of_pi(prior, gaussian_mean_family, n, 0.7) - st.y_of_pi(prior, gaussian_mean_family, n, 0.3)
            for n in range(11)
        ]
        want = (logit(0.7) - logit(0.3)) / (th2 - th1)
        np.testing.assert_allclose(spreads, want, atol=1e-10)
        rep = st.check_level_spread(prior, gaussian_mean_family, 0.3, 0.7, 10)
        assert rep.passed
        assert max(spreads) - min(spreads) <= 1e-10

    def test_equal_levels_give_zero_spread(self, three_atom_prior, gaussian_mean_family):
        rep = st.check_level_spread(three_atom_prior, gaussian_mean_family, 0.5, 0.5, 6)
        assert rep.passed
        assert rep.worst_violation <= 0.0

    def test_three_atom_non_decreasing(self, three_atom_prior, gaussian_mean_family):
        rep = st.check_level_spread(three_atom_prior, gaussian_mean_family, 0.3, 0.7, 10)
        assert rep.passed

    def test_order_validated(self, three_atom_prior, gaussian_mean_family):
        with pytest.raises(ValueError, match="pi1"):
            st.check_level_spread(three_atom_prior, gaussian_mean_family, 0.7, 0.3, 5)


def concentration_by_layers(prior, family, pi, a, b, n_max):
    """The concentration check's worst increase, one public scalar call per layer."""
    below, above = [], []
    for n in range(n_max + 1):
        state = st.posterior(prior, family, n, st.y_of_pi(prior, family, n, pi))
        below.append(st.mass_below(state, a))
        above.append(1.0 - st.mass_below(state, b))
    return max(np.max(np.diff(below)), np.max(np.diff(above)))


def spread_by_layers(prior, family, pi1, pi2, n_max):
    """The level-spread check's worst decrease, one public scalar call per layer and level."""
    spreads = [st.y_of_pi(prior, family, n, pi2) - st.y_of_pi(prior, family, n, pi1) for n in range(n_max + 1)]
    dec = -np.diff(spreads)
    return float(np.max(dec)) if dec.size else 0.0


SIX = ([-1.5, -0.9, -0.3, 0.3, 0.9, 1.5], [1.0, 2.0, 1.0, 1.0, 0.5, 1.0], 0.0)
SIX_POSITIVE = ([0.4, 0.7, 1.0, 1.4, 1.9, 2.5], [1.0, 2.0, 1.0, 1.0, 0.5, 1.0], 1.2)
# each model's prior and concentration cuts (a, b), one cut below the support
BATCHED_CASES = {
    "bernoulli": (SIX, (-0.5, 0.5)),
    "binomial(3)": (SIX, (-2.0, 1.0)),
    "gaussian-mean": (SIX, (-0.5, 0.5)),
    "exponential-rate": (SIX_POSITIVE, (0.8, 1.6)),
    "gaussian-variance": (SIX_POSITIVE, (0.8, 3.0)),
}


class TestBatchedLevelCurveChecks:
    """One batched inversion gives the worst violations of the per-layer scalar calls."""

    @pytest.mark.parametrize("model", list(BATCHED_CASES))
    @pytest.mark.parametrize("pi", [0.05, 0.5, 0.9])
    def test_concentration_matches_scalar_loop(self, model, pi):
        spec, (a, b) = BATCHED_CASES[model]
        prior = st.make_prior(*spec)
        family = st.family_for_prior(model, prior)
        rep = st.check_concentration(prior, family, pi, a, b, 30)
        assert abs(rep.worst_violation - concentration_by_layers(prior, family, pi, a, b, 30)) <= 1e-15

    @pytest.mark.parametrize("model", list(BATCHED_CASES))
    @pytest.mark.parametrize("pi1, pi2", [(0.3, 0.7), (0.01, 0.999), (0.5, 0.5)])
    def test_level_spread_matches_scalar_loop(self, model, pi1, pi2):
        prior = st.make_prior(*BATCHED_CASES[model][0])
        family = st.family_for_prior(model, prior)
        for n_max in (0, 30):
            rep = st.check_level_spread(prior, family, pi1, pi2, n_max)
            assert abs(rep.worst_violation - spread_by_layers(prior, family, pi1, pi2, n_max)) <= 1e-15

    def test_levels_outside_invertible_range_are_refused(self, three_atom_prior, gaussian_mean_family):
        with pytest.raises(ValueError, match="level curve out of numerical range"):
            st.check_level_spread(three_atom_prior, gaussian_mean_family, 1e-13, 0.5, 4)
        with pytest.raises(ValueError, match="level curve out of numerical range"):
            st.check_concentration(three_atom_prior, gaussian_mean_family, 1.0 - 1e-13, -0.5, 0.5, 4)

    def test_negative_n_max_is_refused(self, three_atom_prior, gaussian_mean_family):
        with pytest.raises(ValueError, match="^n_max must be a non-negative integer, got -1$"):
            st.check_level_spread(three_atom_prior, gaussian_mean_family, 0.3, 0.7, -1)
        with pytest.raises(ValueError, match="^n_max must be a non-negative integer, got -1$"):
            st.check_concentration(three_atom_prior, gaussian_mean_family, 0.5, -0.5, 0.5, -1)

    @pytest.mark.parametrize("model", list(BATCHED_CASES))
    def test_single_layer_has_nothing_to_compare(self, model):
        # n_max = 0 leaves no layer to compare with layer 0, as in the level-spread check
        spec, (a, b) = BATCHED_CASES[model]
        prior = st.make_prior(*spec)
        rep = st.check_concentration(prior, st.family_for_prior(model, prior), 0.5, a, b, 0)
        assert (rep.worst_violation, rep.passed, rep.location) == (0.0, True, None)


def level_curve_check(check, prior, n_max):
    """The level-spread or concentration check on bernoulli, cutting at the prior's outermost atoms."""
    family = st.make_named_family("bernoulli")
    if check == "level-spread":
        return st.check_level_spread(prior, family, 0.3, 0.7, n_max)
    return st.check_concentration(prior, family, 0.5, prior.atoms[0], prior.atoms[-1] - 1e-9, n_max)


class TestLevelCurveBudget:
    """A level-curve table that would take over _MAX_VALUES doubles is refused before it is allocated."""

    BUDGET = 10**6

    @pytest.mark.parametrize("check, levels", [("level-spread", 2), ("concentration", 1)])
    @pytest.mark.parametrize("atoms, theta0", [
        pytest.param(BENCH_ATOMS, 0.0, id="2-atoms"),
        pytest.param(SIX[0], 0.0, id="6-atoms"),
        pytest.param(list(np.linspace(-1.6, 1.6, 40)), -1.5, id="40-atoms-2-below"),
    ])
    def test_largest_admitted_table_stays_in_budget(self, monkeypatch, check, levels, atoms, theta0):
        monkeypatch.setattr(checks_mod, "_MAX_VALUES", self.BUDGET)
        prior = st.make_prior(atoms, np.ones(len(atoms)), theta0)
        n_max = self.BUDGET // (levels * (16 + 9 * prior.n_atoms)) - 1
        peak = traced_peak(lambda: level_curve_check(check, prior, n_max))
        assert peak <= 8 * self.BUDGET, f"traced peak {peak / 2**20:.1f} MB at n_max {n_max}"
        message = (f"^n_max {n_max + 1} needs a level-curve table over the budget of {self.BUDGET} values "
                   f"for {levels} level\\(s\\) and {prior.n_atoms} atoms; lower n_max$")

        def refused():
            with pytest.raises(ValueError, match=message):
                level_curve_check(check, prior, n_max + 1)

        peak = traced_peak(refused)
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"


class TestBinomialReductionBudget:
    """A batch whose stacked states would take over _MAX_VALUES doubles is refused before anything is solved."""

    def test_refused_one_point_over_the_budget(self, benchmark_prior, monkeypatch):
        # 2 atoms x N = 4 states x 201 points; the surface, 7 x 201 values at c = 0.1, fits too
        monkeypatch.setattr(checks_mod, "_MAX_VALUES", 2 * 4 * 201)
        assert st.check_binomial_reduction(4, benchmark_prior, 0.1, grid_size=201).passed
        message = ("^binomial reduction N = 4 on 202 grid points needs stacked batch states over the budget of "
                   "1608 values for 2 atoms; lower N or the grid size$")

        def refused():
            with pytest.raises(ValueError, match=message):
                st.check_binomial_reduction(4, benchmark_prior, 0.1, grid_size=202)

        assert traced_peak(refused) < 2**16


class TestLevelCurveCheckDefaults:
    """The three level-curve checks own the defaults the command line used to hold."""

    @pytest.mark.parametrize("model", FIVE_MODELS)
    def test_defaults_are_the_old_command_line_values(self, five_model_priors, model):
        prior, family = five_model_priors[model]
        a = 0.5 * (float(prior.atoms[0]) + prior.theta0)
        b = 0.5 * (float(prior.atoms[-1]) + prior.theta0)
        assert st.check_concentration(prior, family) == st.check_concentration(prior, family, 0.5, a, b, 15)
        assert st.check_level_spread(prior, family) == st.check_level_spread(prior, family, 0.3, 0.7, 15)
        assert st.check_convex_order(prior, family) == st.check_convex_order(prior, family, 0.5, 0, 5)


class TestConvexOrder:
    def test_same_time_is_exact_equality(self, benchmark_prior, bernoulli_family):
        rep = st.check_convex_order(benchmark_prior, bernoulli_family, 0.4, 3, 3)
        assert rep.passed
        assert rep.worst_violation == 0.0

    def test_bernoulli_any_prior(self, bernoulli_family):
        prior = st.make_prior([-1.4, -0.2, 0.5, 1.3], [1.0, 2.0, 2.0, 1.0], 0.0)
        for m, n in ((0, 1), (0, 5), (2, 8)):
            rep = st.check_convex_order(prior, bernoulli_family, 0.5, m, n)
            assert rep.passed

    def test_exponential_rate_singleton_upper(self):
        prior = st.make_prior([0.5, 0.9, 2.0], [1.0, 1.0, 1.0], 1.0)
        fam = st.family_for_prior("exponential-rate", prior)
        for m, n in ((0, 1), (0, 5), (2, 8)):
            rep = st.check_convex_order(prior, fam, 0.5, m, n)
            assert rep.passed

    def test_gaussian_variance_singleton_small_sigma_side(self):
        # original-coordinate lower side {sigma <= sigma0} is the upper side
        # in natural coordinates; keep it a singleton
        sigmas, sigma0 = (0.7, 1.5, 2.5), 1.0
        atoms = sorted(s**-2.0 for s in sigmas)
        prior = st.make_prior(atoms, [1.0, 1.0, 1.0], sigma0**-2.0)
        fam = st.family_for_prior("gaussian-variance", prior)
        for m, n in ((0, 1), (0, 5), (2, 8)):
            rep = st.check_convex_order(prior, fam, 0.5, m, n)
            assert rep.passed

    def test_m_after_n_rejected(self, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match="m <= n"):
            st.check_convex_order(benchmark_prior, bernoulli_family, 0.5, 5, 2)

    def test_negative_m_rejected(self, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match=r"^convex order time m must be a non-negative integer, got -3$"):
            st.check_convex_order(benchmark_prior, bernoulli_family, 0.5, -3, 5)

    def test_level_outside_invertible_range_rejected(self, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match="level curve out of numerical range"):
            st.check_convex_order(benchmark_prior, bernoulli_family, 1e-300, 0, 5)


class TestTimeMonotonicity:
    def test_gain_everywhere_passes(self, benchmark_prior, bernoulli_family):
        surf = st.solve(benchmark_prior, bernoulli_family, 0.6, 8, grid_size=301)
        rep = st.check_time_monotonicity(surf)
        assert rep.passed
        assert rep.worst_violation <= 0.0

    def test_benchmark_surface(self, benchmark_surface):
        rep = st.check_time_monotonicity(benchmark_surface)
        assert rep.passed

    def test_gaussian_mean_surface(self, three_atom_prior):
        fam = st.family_for_prior("gaussian-mean", three_atom_prior)
        surf = st.solve(three_atom_prior, fam, 0.1, st.choose_horizon(0.1), grid_size=801)
        rep = st.check_time_monotonicity(surf)
        assert rep.passed

    def test_injected_decrease_is_flagged(self, benchmark_surface):
        values = benchmark_surface.values.copy()
        values[3, 900] = values[2, 900] - 1e-3  # layer 3 dips below layer 2
        broken = replace(benchmark_surface, values=values)
        rep = st.check_time_monotonicity(broken)
        assert not rep.passed
        assert rep.location["kind"] == "value"
        assert rep.location["n"] == 2

    def test_short_horizon_reports_trivially(self, benchmark_prior, bernoulli_family):
        surf = st.solve(benchmark_prior, bernoulli_family, 0.2, 3, grid_size=301)
        rep = st.check_time_monotonicity(surf)  # burn 4 exceeds horizon 3
        assert rep.passed
        assert "note" in rep.instance

    def test_negative_burn_rejected(self, benchmark_surface):
        with pytest.raises(ValueError, match="^burn must be a non-negative integer, got -3$"):
            st.check_time_monotonicity(benchmark_surface, burn=-3)

    def test_default_burn(self):
        assert st.default_burn(12) == 4
        assert st.default_burn(40) == 8


class TestBinomialReduction:
    def test_batch_of_one_is_identical(self, benchmark_prior):
        rep = st.check_binomial_reduction(1, benchmark_prior, 0.05, grid_size=801)
        assert rep.passed
        assert rep.worst_violation == 0.0

    def test_batch_of_two(self, benchmark_prior):
        rep = st.check_binomial_reduction(2, benchmark_prior, 0.05, grid_size=2001)
        assert rep.passed

    def test_batch_of_three_three_atoms(self, three_atom_prior):
        rep = st.check_binomial_reduction(3, three_atom_prior, 0.1, grid_size=2001)
        assert rep.passed

    def test_batch_validated(self, benchmark_prior):
        with pytest.raises(ValueError, match="binomial reduction N must be a positive integer, got 0"):
            st.check_binomial_reduction(0, benchmark_prior, 0.05)


def batched_layers_by_paths(prior, grid, horizon, batch, cost):
    """Bernoulli layers at batch ends, cost once per batch, summed path by path.

    Reference for the solver's backward loop at ``steps=batch``: every
    length-``batch`` observation path is enumerated and its mass is the
    product of the one-step predictives along it, accumulated in log space,
    so no intermediate layer is interpolated.
    """
    ctx = _Ctx(prior, st.make_named_family("bernoulli"))
    g = st.gain(grid)
    interior = grid[1:-1]
    values = np.empty((horizon + 1, grid.size))
    values[horizon] = g
    for n in range(horizon - 1, -1, -1):
        m0 = n * batch
        y0 = _y_of_logit(ctx, m0, logit(interior))
        cont = np.zeros(interior.size)
        for path in product(range(ctx.points.size), repeat=batch):
            y = y0
            log_w = np.zeros(interior.size)
            for j, k in enumerate(path):
                z = _unnorm_log_weights(ctx, m0 + j, y)
                lw = z - _lse_last(z)[..., None]
                log_w = log_w + _lse_last(lw + ctx.ux[k]) + ctx.log_mass[k]
                y = y + ctx.points[k]
            next_pi = expit(_log_odds(ctx, m0 + batch, y))
            cont += np.exp(log_w) * np.interp(next_pi, grid, values[n + 1])
        values[n, 1:-1] = np.minimum(g[1:-1], cost + cont)
        values[n, 0] = 0.0
        values[n, -1] = 0.0
    return values


def continuation_by_states(ctx, grid, a, b, n, next_layer, steps):
    """``solver._continuation`` with one ``_predictive`` or ``_transition`` call per state.

    The reference for the stacked states: paths with one outcome sum merge
    into one state, their masses added in the order the paths are
    enumerated, and each state's outcomes join the running sum in turn.
    """
    paths = {0.0: (1.0, _y_of_logit(ctx, n, logit(grid[a:b])))}
    for m in range(n, n + steps - 1):
        merged = {}
        for s, (mass, y) in paths.items():
            for xs, preds in _predictive(ctx, m, y):
                for x, pred in zip(xs, preds):
                    key = s + float(x)
                    if key in merged:
                        total, first = merged[key]
                        merged[key] = (total + mass * pred, first)
                    else:
                        merged[key] = (mass * pred, y + x)
        paths = merged
    cont = 0.0
    for mass, y in paths.values():
        for pred, next_pi in _transition(ctx, n + steps - 1, y):
            terms = mass * pred * np.interp(next_pi, grid, next_layer)
            terms[0] += cont
            cont = _sum_rows(terms)
    return cont


# the priors of acceptance criterion 07
CRITERION_07_PRIORS = [
    st.make_prior([float(logit(0.3)), float(logit(0.7))], [1.0, 1.0], 0.0),
    st.make_prior([-1.0, -0.1, 1.0], [1.0, 2.0, 1.0], 0.0),
    st.make_prior([-1.5, -0.4, 0.3, 1.1], [1.0, 1.0, 2.0, 1.0], 0.0),
]
# ten atoms a side: numpy sums 8 or more terms of a single point pairwise
TWENTY_ATOMS = st.make_prior(np.linspace(-2.0, 2.0, 20), [1.0, 2.0, 0.5, 1.0] * 5, 0.0)


class TestBatchedBackwardLoop:
    """The solver's backward loop, several observations per layer, against path enumeration."""

    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    @pytest.mark.parametrize("prior", CRITERION_07_PRIORS, ids=["two-atom", "three-atom", "four-atom"])
    def test_matches_path_enumeration(self, prior, batch):
        grid = st.make_grid(2001)
        ctx = _Ctx(prior, st.make_named_family("bernoulli"))
        got = _backward(ctx, grid, 12, 0.05, steps=batch)
        want = batched_layers_by_paths(prior, grid, 12, batch, 0.05)
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("model, steps", [("bernoulli", 6), ("bernoulli", 14), ("binomial(3)", 4),
                                              ("binomial(12)", 2), ("binomial(12)", 3)])
    def test_paths_with_one_outcome_sum_merge(self, model, steps, monkeypatch):
        # the states after m of a batch's steps are the m (K - 1) + 1 outcome
        # sums, not the K^m paths; each intermediate step takes all of them in
        # one call, and the last step takes them one call each
        family = st.make_named_family(model)
        k = family.scheme.n_points
        calls = []
        for name in ("_predictive", "_transition"):
            def counted(ctx, n, y, kernel=getattr(solver_mod, name), name=name):
                calls.append((name, n, np.shape(y)))
                return kernel(ctx, n, y)
            monkeypatch.setattr(solver_mod, name, counted)
        grid = st.make_grid(201)
        ctx = _Ctx(CRITERION_07_PRIORS[1], family)
        got = solver_mod._continuation(ctx, grid, 1, 200, 5, st.gain(grid), steps)
        want = [("_predictive", 5 + m, (m * (k - 1) + 1, 199)) for m in range(steps - 1)]
        assert calls == want + [("_transition", 5 + steps - 1, (199,))] * ((steps - 1) * (k - 1) + 1)
        monkeypatch.undo()
        assert np.array_equal(got, continuation_by_states(ctx, grid, 1, 200, 5, st.gain(grid), steps))

    @pytest.mark.parametrize("model, steps", [("bernoulli", 2), ("bernoulli", 9), ("binomial(3)", 3),
                                              ("binomial(3)", 5), ("binomial(12)", 2), ("binomial(12)", 3)])
    @pytest.mark.parametrize("prior", CRITERION_07_PRIORS + [TWENTY_ATOMS],
                             ids=["two-atom", "three-atom", "four-atom", "twenty-atom"])
    @pytest.mark.parametrize("a, b", [(1, 200), (57, 58), (3, 11)], ids=["all", "one-point", "eight-points"])
    def test_stacked_states_match_one_call_per_state(self, prior, model, steps, a, b):
        """Every mass and sum adds in the per-state order, so the states stacked in one call give
        its values bit for bit, for one point and for a side of 8 or more atoms too."""
        ctx = _Ctx(prior, st.make_named_family(model))
        grid = st.make_grid(201)
        layer = st.solve(prior, st.make_named_family(model), 0.05, 2, 201).values[0]
        got = solver_mod._continuation(ctx, grid, a, b, 4, layer, steps)
        assert np.array_equal(got, continuation_by_states(ctx, grid, a, b, 4, layer, steps))

    @pytest.mark.parametrize("steps", [3, 5])
    @pytest.mark.parametrize("prior", [CRITERION_07_PRIORS[0], TWENTY_ATOMS], ids=["two-atom", "twenty-atom"])
    def test_merged_state_keeps_the_first_paths_y(self, prior, steps):
        # at n = 0 the level-curve y is small, so (y + 1) + 2 and (y + 2) + 1 can round apart:
        # a merged state's y is the first path's, in the per-state order
        family = st.make_named_family("binomial(3)")
        grid = st.make_grid(201)
        layer = st.solve(prior, family, 0.05, 8, 201).values[4]
        got = solver_mod._continuation(_Ctx(prior, family), grid, 1, 200, 0, layer, steps)
        assert np.array_equal(got, continuation_by_states(_Ctx(prior, family), grid, 1, 200, 0, layer, steps))

    @pytest.mark.parametrize("model", ["bernoulli", "binomial(3)"])
    @pytest.mark.parametrize("prior", CRITERION_07_PRIORS, ids=["two-atom", "three-atom", "four-atom"])
    def test_single_step_is_solve(self, prior, model):
        family = st.family_for_prior(model, prior)
        grid = st.make_grid(2001)
        values = _backward(_Ctx(prior, family), grid, 12, 0.05)
        assert np.array_equal(values, st.solve(prior, family, 0.05, 12, 2001).values)


def concavity_by_layers(surface, tol=1e-8):
    """``check_concavity`` as a scan layer by layer: a later layer is kept only if strictly worse."""
    grid = surface.pi_grid
    h = float(np.max(np.diff(grid)))
    worst, loc = -math.inf, None
    for n, layer in enumerate(surface.values):
        span = grid[2:] - grid[:-2]
        lam = (grid[2:] - grid[1:-1]) / span
        chord = lam * layer[:-2] + (1.0 - lam) * layer[2:]
        defect = chord - layer[1:-1]
        j = int(np.argmax(defect))
        if defect[j] > worst:
            worst = float(defect[j])
            loc = {"n": n, "pi": float(grid[j + 1])}
    instance = {"horizon": surface.horizon, "grid_size": int(grid.size), "cost": surface.cost}
    return checks_mod._report("concavity", instance, worst, tol + h * h, loc)


def time_monotonicity_by_layers(surface, tol=1e-6, burn=None):
    """``check_time_monotonicity`` with its value part scanned layer by layer."""
    if burn is None:
        burn = st.default_burn(surface.horizon)
    limit = surface.horizon - burn
    instance = {"horizon": surface.horizon, "cost": surface.cost, "grid_size": int(surface.pi_grid.size),
                "burn": int(burn)}
    if limit < 1:
        return checks_mod._report("time-monotonicity", {**instance, "note": "horizon too short for burn"}, 0.0, tol)
    worst, loc = -math.inf, None
    for n in range(limit):
        drop = surface.values[n] - surface.values[n + 1]
        j = int(np.argmax(drop))
        if drop[j] > worst:
            worst = float(drop[j])
            loc = {"kind": "value", "n": n, "pi": float(surface.pi_grid[j])}
    cell = 1.5 * float(np.max(np.diff(surface.pi_grid)))
    b1_drop = surface.b1[:limit] - surface.b1[1 : limit + 1]
    b2_rise = surface.b2[1 : limit + 1] - surface.b2[:limit]
    for kind, move in (("b1", b1_drop), ("b2", b2_rise)):
        excess = move - cell
        j = int(np.argmax(excess))
        if excess[j] > worst:
            worst = float(excess[j])
            loc = {"kind": kind, "n": int(j)}
    return checks_mod._report("time-monotonicity", instance, worst, tol, loc)


def reduction_by_layers(v_binom, v_bern, grid):
    """The binomial-reduction check's worst difference and its place, scanned layer by layer."""
    worst, loc = -math.inf, None
    for n in range(v_binom.shape[0]):
        diff = np.abs(v_binom[n] - v_bern[n])
        j = int(np.argmax(diff))
        if diff[j] > worst:
            worst = float(diff[j])
            loc = {"n": n, "pi": float(grid[j])}
    return worst, loc


class TestWholeSurfaceScan:
    """One argmax over the whole surface reports what the layer-by-layer scans reported."""

    def test_worst_takes_the_first_of_equal_maxima(self, rng):
        a = rng.integers(0, 4, size=(6, 9)).astype(float)
        worst, (n, j) = checks_mod._worst(a)
        assert worst == 3.0 and (n, j) == divmod(int(np.flatnonzero(a == 3.0)[0]), 9)
        assert checks_mod._worst(np.array([[-np.inf, -np.inf]])) == (-math.inf, (0, 0))

    @pytest.mark.parametrize("tol", [None, 0.0])
    def test_concavity(self, five_model_surfaces, tol):
        kw = {} if tol is None else {"tol": tol}
        for surface in five_model_surfaces.values():
            assert st.check_concavity(surface, **kw).to_json() == concavity_by_layers(surface, **kw).to_json()

    @pytest.mark.parametrize("burn", [None, 0, 3])
    @pytest.mark.parametrize("tol", [1e-6, 0.0])
    def test_time_monotonicity(self, five_model_surfaces, burn, tol):
        for surface in five_model_surfaces.values():
            got = st.check_time_monotonicity(surface, tol, burn)
            assert got.to_json() == time_monotonicity_by_layers(surface, tol, burn).to_json()

    def test_injected_defects_are_located(self, five_model_surfaces):
        j = five_model_surfaces["bernoulli"].pi_grid.size // 10
        for name in ("dip", "equal-maxima"):
            surface = five_model_surfaces[f"bernoulli/{name}"]
            assert st.check_concavity(surface).location["n"] == 2
            rep = st.check_time_monotonicity(surface, burn=0)
            assert rep.location == {"kind": "value", "n": 1, "pi": float(surface.pi_grid[j])}
        # the ties are real: the first layer of each pair is reported
        v = five_model_surfaces["bernoulli/equal-maxima"].values
        drop = v[:-1] - v[1:]
        assert drop[1, j] == drop[5, j] == np.max(drop)
        defect = 0.5 * (v[:, j - 1] + v[:, j + 1]) - v[:, j]
        assert defect[2] == defect[6] > 0

    @pytest.mark.parametrize("defect", [None, "dip", "equal-maxima"])
    def test_binomial_reduction(self, benchmark_prior, monkeypatch, defect):
        # the defects reach the check through its solve and backward loop
        solve, backward = checks_mod.solve, checks_mod._backward
        seen = {}

        def damage(values, bump):
            values = values.copy()
            if defect is not None:
                values[2, values.shape[1] // 3] += bump
            if defect == "equal-maxima":
                values[5:7] = values[1:3]
            return values

        def damaged_solve(*args):
            surface = solve(*args)
            seen["binom"] = damage(surface.values, 0.0)
            return replace(surface, values=seen["binom"])

        def damaged_backward(*args, **kw):
            seen["bern"] = damage(backward(*args, **kw), 1e-3)
            return seen["bern"]

        monkeypatch.setattr(checks_mod, "solve", damaged_solve)
        monkeypatch.setattr(checks_mod, "_backward", damaged_backward)
        rep = st.check_binomial_reduction(2, benchmark_prior, 0.05, grid_size=401, tol=0.0)
        worst, loc = reduction_by_layers(seen["binom"], seen["bern"], st.make_grid(401))
        assert (rep.worst_violation, rep.location) == (worst, loc)
        if defect is not None:
            assert loc["n"] == 2


class TestConjectureProbe:
    def test_zero_trials(self):
        with pytest.raises(ValueError, match="probe trials must be a positive integer, got 0"):
            st.conjecture_probe(["bernoulli"], trials=0, seed=1)

    def test_bernoulli_probe_clean(self):
        reports = st.conjecture_probe(["bernoulli"], trials=4, seed=3, grid_size=301)
        assert len(reports) == 4
        assert all(r.passed for r in reports)
        assert all(not r.asserted for r in reports)

    def test_deterministic_given_seed(self):
        a = st.conjecture_probe(["bernoulli", "exponential-rate"], trials=4, seed=7, grid_size=301)
        b = st.conjecture_probe(["bernoulli", "exponential-rate"], trials=4, seed=7, grid_size=301)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_reports_carry_reproduction_data(self):
        (rep,) = st.conjecture_probe(["binomial(3)"], trials=1, seed=11, grid_size=301)
        for key in ("trial", "seed", "model", "atoms", "weights", "theta0", "cost", "grid_size", "horizon"):
            assert key in rep.instance
        parsed = json.loads(rep.to_json())
        assert parsed["check"] == "conjecture-probe"

    def test_sampled_priors_are_two_sided(self, rng):
        for _ in range(20):
            prior = sample_random_prior(rng, PROBE_WINDOWS["bernoulli"])
            assert np.any(prior.atoms <= prior.theta0)
            assert np.any(prior.atoms > prior.theta0)
            assert 2 <= prior.n_atoms <= 10


class TestViolationScaling:
    def test_grid_refinement_does_not_inflate_violations(self, benchmark_prior, bernoulli_family):
        coarse = st.solve(benchmark_prior, bernoulli_family, 0.05, 8, grid_size=501)
        fine = st.solve(benchmark_prior, bernoulli_family, 0.05, 8, grid_size=1001)
        for check in (st.check_concavity, st.check_time_monotonicity):
            vc = check(coarse).worst_violation
            vf = check(fine).worst_violation
            assert vf <= max(vc, 0.0) + 2.0 * check(fine).tolerance


class TestCheckReport:
    def test_json_shape(self, benchmark_surface):
        rep = st.check_concavity(benchmark_surface)
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "check",
            "instance",
            "worst_violation",
            "tolerance",
            "passed",
            "location",
            "asserted",
        }
        assert payload["passed"] is True

    def test_pass_iff_within_tolerance(self, benchmark_surface):
        rep = st.check_concavity(benchmark_surface)
        assert rep.passed == (rep.worst_violation <= rep.tolerance)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_tolerance_must_be_finite_and_non_negative(self, benchmark_prior, bernoulli_family, tol):
        # nan and infinity are not JSON, an infinite tolerance passes every check and a negative one fails it
        checks = [
            lambda: st.check_convex_order(benchmark_prior, bernoulli_family, 0.5, 0, 3, tol),
            lambda: st.check_concentration(benchmark_prior, bernoulli_family, 0.5, -0.5, 0.5, 3, tol),
            lambda: st.check_level_spread(benchmark_prior, bernoulli_family, 0.3, 0.7, 3, tol),
            lambda: st.check_binomial_reduction(2, benchmark_prior, 0.25, 101, tol),
        ]
        for check in checks:
            with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, got {tol!r}$"):
                check()
        # the concavity check adds its allowance h^2 to a tolerance that is legal
        surface = st.solve(benchmark_prior, bernoulli_family, 0.25, 8, grid_size=101)
        for check in (st.check_time_monotonicity, st.check_concavity):
            with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, got {tol!r}$"):
                check(surface, tol)

    def test_tolerance_is_refused_before_any_work(self, benchmark_prior, bernoulli_family, benchmark_surface,
                                                  monkeypatch):
        # a check that did its work first would reach one of these; at N = 1029 that is over 10 s of solving
        def work(*args, **kw):
            raise AssertionError("the check did work before refusing its tolerance")

        for name in ("solve", "_backward", "_level_curves", "transition_distribution", "_worst"):
            monkeypatch.setattr(checks_mod, name, work)
        checks = [
            lambda: st.check_convex_order(benchmark_prior, bernoulli_family, 0.5, 0, 3, math.nan),
            lambda: st.check_concentration(benchmark_prior, bernoulli_family, 0.5, -0.5, 0.5, 3, math.nan),
            lambda: st.check_level_spread(benchmark_prior, bernoulli_family, 0.3, 0.7, 3, math.nan),
            lambda: st.check_binomial_reduction(1029, benchmark_prior, 0.1, tol=math.nan),
            lambda: st.check_time_monotonicity(benchmark_surface, math.nan),
            lambda: st.check_concavity(benchmark_surface, math.nan),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got nan$"):
                check()

    def test_zero_tolerance_is_legal(self, benchmark_prior, bernoulli_family):
        rep = st.check_convex_order(benchmark_prior, bernoulli_family, 0.5, 0, 3, 0.0)
        assert rep.tolerance == 0.0 and rep.passed == (rep.worst_violation <= 0.0)
