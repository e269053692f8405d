import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import seqtest as st
from conftest import BENCH_ATOMS, FIVE_MODELS, traced_peak
from seqtest import priors as priors_mod
from seqtest import solver as solver_mod
from seqtest.checks import PROBE_WINDOWS, sample_random_prior
from seqtest.priors import _Ctx
from seqtest.solver import STOP_TOL

# exact tree value of the benchmark instance (two atoms at the natural
# logits of 0.3/0.7, equal weights, threshold 0, c = 0.05, horizon 4),
# cross-checked against an independent plain-probability recursion in
# test_simulate.py
BENCH_H4_VALUE = 0.337


class TestBellmanStep:
    def test_large_cost_returns_gain(self, benchmark_prior, bernoulli_family):
        grid = st.make_grid(201)
        g = st.gain(grid)
        out = st.bellman_step(g, 0, grid, benchmark_prior, bernoulli_family, 0.5)
        np.testing.assert_array_equal(out, g)

    def test_zero_next_layer(self, benchmark_prior, bernoulli_family):
        grid = st.make_grid(201)
        out = st.bellman_step(np.zeros_like(grid), 2, grid, benchmark_prior, bernoulli_family, 0.07)
        want = np.minimum(st.gain(grid), 0.07)
        want[0] = want[-1] = 0.0
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_one_step_hand_enumeration(self, benchmark_prior, bernoulli_family):
        # at pi = 1/2 the posterior weights are (1/2, 1/2); the next
        # probability is 0.7 on a success and 0.3 on a failure, each with
        # predictive probability 1/2, so the continuation value from the
        # terminal gain layer is 0.05 + 0.3 = 0.35 < 0.5
        grid = st.make_grid(2001)
        out = st.bellman_step(st.gain(grid), 3, grid, benchmark_prior, bernoulli_family, 0.05)
        j = int(np.searchsorted(grid, 0.5))
        assert out[j] == pytest.approx(0.35, abs=1e-12)

    def test_mismatched_grid_rejected(self, benchmark_prior, bernoulli_family):
        grid = st.make_grid(201)
        with pytest.raises(ValueError, match="same grid"):
            st.bellman_step(np.zeros(100), 0, grid, benchmark_prior, bernoulli_family, 0.1)

    def test_negative_time_rejected(self, benchmark_prior, bernoulli_family):
        grid = st.make_grid(201)
        with pytest.raises(ValueError, match="^observation count n must be a non-negative integer, got -1$"):
            st.bellman_step(st.gain(grid), -1, grid, benchmark_prior, bernoulli_family, 0.1)

    @pytest.mark.parametrize("cost", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_cost_rejected(self, benchmark_prior, bernoulli_family, cost):
        grid = st.make_grid(201)
        with pytest.raises(ValueError, match=f"^cost must be positive and finite, got {cost!r}$"):
            st.bellman_step(st.gain(grid), 0, grid, benchmark_prior, bernoulli_family, cost)

    @pytest.mark.parametrize("grid", [
        # the step treats a grid's ends as pi = 0 and 1, so any other grid would give wrong values silently
        pytest.param(st.make_grid(11)[::-1], id="falling"),
        pytest.param(np.linspace(0.2, 0.8, 7), id="not-0-to-1"),
        pytest.param(np.array([0.0, 1.0]), id="two-points"),
        pytest.param(np.array([0.0, 0.25, np.nan, 0.75, 1.0]), id="nan"),
        pytest.param(st.make_grid(11).reshape(1, 11), id="two-dimensional"),
    ])
    def test_grid_that_does_not_increase_from_0_to_1_is_refused(self, benchmark_prior, bernoulli_family, grid):
        message = "^grid must be a flat array of at least 3 points that increase strictly from 0 to 1$"
        with pytest.raises(ValueError, match=message):
            st.bellman_step(st.gain(grid), 0, grid, benchmark_prior, bernoulli_family, 0.05)


class TestSolve:
    def test_horizon_zero_rejected(self, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match="horizon"):
            st.solve(benchmark_prior, bernoulli_family, 0.05, 0)

    def test_nonpositive_cost_rejected(self, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match="cost must be positive"):
            st.solve(benchmark_prior, bernoulli_family, 0.0, 3)

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, benchmark_prior, bernoulli_family, cost):
        message = f"^cost must be positive and finite, got {cost!r}$"
        with pytest.raises(ValueError, match=message):
            st.solve(benchmark_prior, bernoulli_family, cost, 3)
        with pytest.raises(ValueError, match=message):
            st.choose_horizon(cost)
        with pytest.raises(ValueError, match=message):
            st.brute_force_value(benchmark_prior, bernoulli_family, cost, 3)
        with pytest.raises(ValueError, match=message):
            st.simulate_alternative(st.FixedSampleRule(1), benchmark_prior, bernoulli_family, cost, 10, 0)

    def test_horizon_one_is_single_step(self, benchmark_prior, bernoulli_family):
        surf = st.solve(benchmark_prior, bernoulli_family, 0.1, 1, grid_size=301)
        grid = surf.pi_grid
        step = st.bellman_step(st.gain(grid), 0, grid, benchmark_prior, bernoulli_family, 0.1)
        np.testing.assert_array_equal(surf.values[0], step)
        np.testing.assert_array_equal(surf.values[1], st.gain(grid))

    def test_large_cost_surface_is_gain(self, benchmark_prior, bernoulli_family):
        surf = st.solve(benchmark_prior, bernoulli_family, 0.6, 4, grid_size=301)
        for n in range(5):
            np.testing.assert_array_equal(surf.values[n], st.gain(surf.pi_grid))
        np.testing.assert_array_equal(surf.b1, 0.5)
        np.testing.assert_array_equal(surf.b2, 0.5)

    def test_matches_oracle_on_reachable_grid(self, benchmark_prior, bernoulli_family):
        reach = st.enumerate_reachable_pis(benchmark_prior, bernoulli_family, 4)
        surf = st.solve(benchmark_prior, bernoulli_family, 0.05, 4, grid_size=201, include=reach)
        v0 = st.value_at(surf, 0, benchmark_prior.mass_above_threshold)
        oracle = st.brute_force_value(benchmark_prior, bernoulli_family, 0.05, 4)
        assert oracle == pytest.approx(BENCH_H4_VALUE, abs=1e-12)
        assert v0 == pytest.approx(oracle, abs=1e-9)

    def test_plain_grid_oracle_gap_is_small(self, benchmark_prior, bernoulli_family):
        # without splicing the reachable probabilities into the grid, the
        # gap is interpolation-limited; measured well under this bound
        surf = st.solve(benchmark_prior, bernoulli_family, 0.05, 4, grid_size=2001)
        v0 = st.value_at(surf, 0, benchmark_prior.mass_above_threshold)
        oracle = st.brute_force_value(benchmark_prior, bernoulli_family, 0.05, 4)
        assert abs(v0 - oracle) <= 1e-4

    @pytest.mark.parametrize("model", FIVE_MODELS)
    def test_one_step_consistency_bitwise(self, five_model_surfaces, five_model_priors, model):
        surf = five_model_surfaces[model]
        prior, family = five_model_priors[model]
        for n in range(surf.horizon):
            redo = st.bellman_step(surf.values[n + 1], n, surf.pi_grid, prior, family, surf.cost)
            np.testing.assert_array_equal(redo, surf.values[n], err_msg=f"layer {n}")

    def test_dominance_invariants(self, benchmark_surface):
        g = st.gain(benchmark_surface.pi_grid)
        assert np.all(benchmark_surface.values <= g + 1e-12)
        assert np.all(benchmark_surface.values >= -1e-15)
        np.testing.assert_array_equal(benchmark_surface.values[:, 0], 0.0)
        np.testing.assert_array_equal(benchmark_surface.values[:, -1], 0.0)
        np.testing.assert_array_equal(benchmark_surface.values[-1], g)

    def test_continuation_bounded_by_expected_next_gain(self, benchmark_prior, bernoulli_family, benchmark_surface):
        surf = benchmark_surface
        for pi in (0.3, 0.5, 0.65):
            next_pi, w = st.transition_distribution(benchmark_prior, bernoulli_family, 0, pi)
            bound = surf.cost + float(w @ st.gain(next_pi))
            assert st.value_at(surf, 0, pi) <= bound + 1e-10

    def test_more_horizon_never_hurts(self, benchmark_prior, bernoulli_family):
        a = st.solve(benchmark_prior, bernoulli_family, 0.05, 6, grid_size=501)
        b = st.solve(benchmark_prior, bernoulli_family, 0.05, 7, grid_size=501)
        for n in range(7):
            assert np.all(b.values[n] <= a.values[n] + 1e-12)

    def test_continuation_set_is_an_interval(self, benchmark_surface):
        g = st.gain(benchmark_surface.pi_grid)
        for layer in benchmark_surface.values:
            cont = np.nonzero(layer < g - STOP_TOL)[0]
            if cont.size:
                assert np.array_equal(cont, np.arange(cont[0], cont[-1] + 1))

    def test_concave_layers(self, benchmark_surface):
        rep = st.check_concavity(benchmark_surface, tol=1e-8)
        assert rep.passed

    def test_cosine_grid(self, benchmark_prior, bernoulli_family):
        surf = st.solve(benchmark_prior, bernoulli_family, 0.1, 3, grid_size=301, grid_kind="cosine")
        assert 0.5 in surf.pi_grid
        assert surf.values.shape == (4, 301)


def full_grid_step(ctx, grid, n, next_layer, cost, steps=1):
    """``_step`` without the stopping certificate: the continuation at every interior point."""
    g = st.gain(grid)
    out = np.empty_like(g)
    cont = solver_mod._continuation(ctx, grid, 1, grid.size - 1, n, next_layer, steps)
    out[1:-1] = np.minimum(g[1:-1], cost + cont)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def full_grid_backward(ctx, grid, horizon, cost, steps=1):
    values = np.empty((horizon + 1, grid.size))
    values[horizon] = st.gain(grid)
    for n in range(horizon - 1, -1, -1):
        values[n] = full_grid_step(ctx, grid, n * steps, values[n + 1], cost, steps)
    return values


def seeded_prior(model, seed, per_side=3):
    """Atoms uniform in the model's probe window, ``per_side`` either side of their median."""
    rng = np.random.default_rng(seed)
    atoms = np.sort(rng.uniform(*PROBE_WINDOWS[model], size=2 * per_side))
    theta0 = float(0.5 * (atoms[per_side - 1] + atoms[per_side]))
    return st.make_prior(atoms, rng.uniform(0.5, 2.0, size=atoms.size), theta0)


def random_prior(model, seed):
    return sample_random_prior(np.random.default_rng([seed, 17]), PROBE_WINDOWS[model])


# boundaries that move out by 0.3 in pi over 12 layers, from 1/2 at the horizon
FAST_MOVING_CASES = [
    pytest.param(model, lambda model=model: seeded_prior(model, 7), 0.05, 12, lambda: st.make_grid(2001), steps,
                 id=f"{name}-fast-moving")
    for model, steps, name in (("binomial(3)", 1, "binomial3"), ("bernoulli", 3, "bernoulli-steps-3"))
]


# (model, prior, cost, horizon, grid, steps); costs 0.6 stop every layer,
# 1e-10 lies below the certificate's margin, so every layer falls back
CERTIFICATE_CASES = [
    *(pytest.param(m, lambda m=m: seeded_prior(m, 7), 0.05, 12, lambda: st.make_grid(501), 1, id=f"{m}-six")
      for m in FIVE_MODELS),
    *(pytest.param(m, lambda m=m: random_prior(m, 3), 0.05, 8, lambda: st.make_grid(501), 1, id=f"{m}-random")
      for m in FIVE_MODELS),
    pytest.param("bernoulli", lambda: seeded_prior("bernoulli", 5, 10), 0.05, 8, lambda: st.make_grid(501), 1,
                 id="bernoulli-20-atoms"),
    pytest.param("gaussian-mean", lambda: seeded_prior("gaussian-mean", 5, 10), 0.05, 6,
                 lambda: st.make_grid(501), 1, id="gaussian-mean-20-atoms"),
    pytest.param("bernoulli", lambda: seeded_prior("bernoulli", 11), 0.01, 60, lambda: st.make_grid(2001), 1,
                 id="bernoulli-2001-c0.01"),
    pytest.param("gaussian-mean", lambda: seeded_prior("gaussian-mean", 11), 0.05, 4,
                 lambda: st.make_grid(2001), 1, id="gaussian-mean-2001"),
    pytest.param("exponential-rate", lambda: seeded_prior("exponential-rate", 11), 0.01, 10,
                 lambda: st.make_grid(501), 1, id="exponential-rate-c0.01"),
    pytest.param("binomial(3)", lambda: seeded_prior("binomial(3)", 13), 0.05, 12, lambda: st.make_grid(400), 1,
                 id="binomial3-even-grid"),
    pytest.param("gaussian-variance", lambda: seeded_prior("gaussian-variance", 13), 0.05, 8,
                 lambda: st.make_grid(301, "cosine", include=(0.123, 0.4567, 0.8)), 1, id="cosine-include"),
    pytest.param("gaussian-variance", lambda: seeded_prior("gaussian-variance", 17), 0.6, 4,
                 lambda: st.make_grid(501), 1, id="c0.6-stops-everywhere"),
    pytest.param("bernoulli", lambda: seeded_prior("bernoulli", 17), 1e-10, 4, lambda: st.make_grid(501), 1,
                 id="cost-below-margin"),
    pytest.param("gaussian-mean", lambda: seeded_prior("gaussian-mean", 17), 1e-10, 2, lambda: st.make_grid(301), 1,
                 id="gaussian-mean-cost-below-margin"),
    pytest.param("bernoulli", lambda: seeded_prior("bernoulli", 19), 0.05, 4, lambda: st.make_grid(501), 3,
                 id="bernoulli-steps-3"),
    pytest.param("binomial(3)", lambda: seeded_prior("binomial(3)", 19), 0.05, 4, lambda: st.make_grid(501), 3,
                 id="binomial3-steps-3"),
    *FAST_MOVING_CASES,
]


class TestStoppingCertificate:
    """``_step`` computes the continuation on one range of points; the rest stop by concavity."""

    @pytest.mark.parametrize("model, make_prior, cost, horizon, make_grid, steps", CERTIFICATE_CASES)
    def test_matches_full_grid_step(self, model, make_prior, cost, horizon, make_grid, steps):
        prior, grid = make_prior(), make_grid()
        ctx = _Ctx(prior, st.family_for_prior(model, prior))
        got = solver_mod._backward(ctx, grid, horizon, cost, steps)
        np.testing.assert_array_equal(got, full_grid_backward(ctx, grid, horizon, cost, steps))

    # steps = 3 on a 128-node model follows 128**2 paths per point: 4-5 s for one layer of 5 points
    @pytest.mark.parametrize("model, grid_size, horizon, steps", [
        pytest.param("gaussian-mean", 501, 6, 1, id="gaussian-mean-steps-1"),
        pytest.param("gaussian-variance", 301, 4, 1, id="gaussian-variance-steps-1"),
        pytest.param("bernoulli", 501, 4, 3, id="bernoulli-steps-3"),
        pytest.param("binomial(3)", 301, 4, 3, id="binomial3-steps-3"),
    ])
    # chunks of one outcome; of three at 499 points of six atoms and more on shorter ranges,
    # so most do not divide 128; of all outcomes
    @pytest.mark.parametrize("budget", [1, 3 * 6 * 499, 2**40], ids=["one-outcome", "mixed", "all-outcomes"])
    def test_chunk_budget_keeps_every_bit(self, model, grid_size, horizon, steps, budget, monkeypatch):
        """The outcomes' chunk size moves no bit: the certificate's ranges and the whole grid
        under another budget give the default budget's surface."""
        prior = seeded_prior(model, 7)
        ctx = _Ctx(prior, st.family_for_prior(model, prior))
        grid = st.make_grid(grid_size)
        want = solver_mod._backward(ctx, grid, horizon, 0.05, steps)
        monkeypatch.setattr(priors_mod, "_CHUNK_VALUES", budget)
        np.testing.assert_array_equal(solver_mod._backward(ctx, grid, horizon, 0.05, steps), want)
        np.testing.assert_array_equal(full_grid_backward(ctx, grid, horizon, 0.05, steps), want)

    @pytest.mark.parametrize("model, make_prior, cost, horizon, make_grid, steps", FAST_MOVING_CASES)
    def test_range_follows_the_last_boundary_move(self, model, make_prior, cost, horizon, make_grid, steps,
                                                  monkeypatch):
        """Each range starts as wide as the boundary's last move predicts, so few layers widen it:
        26 and 29 expectation calls over the 12 layers, 46 each when the range was padded by 16
        cells alone."""
        prior, grid = make_prior(), make_grid()
        ctx = _Ctx(prior, st.family_for_prior(model, prior))
        sizes = count_inverted_points(monkeypatch)
        solver_mod._backward(ctx, grid, horizon, cost, steps)
        assert len(sizes) <= 32, sizes

    def test_layer_with_a_dip_falls_back_to_the_whole_grid(self, benchmark_prior, bernoulli_family, monkeypatch):
        # the layer is 0 on [0.19, 0.23]: from pi = 0.1 a success moves to 0.206, so pi = 0.1 continues,
        # while every point between it and the dip stops; no concavity certificate covers that
        grid = st.make_grid(501)
        layer = st.gain(grid)
        layer[(grid >= 0.19) & (grid <= 0.23)] = 0.0
        sizes = count_inverted_points(monkeypatch)
        got = st.bellman_step(layer, 3, grid, benchmark_prior, bernoulli_family, 0.05)
        assert sizes == [(3, grid.size - 2)]
        want = full_grid_step(_Ctx(benchmark_prior, bernoulli_family), grid, 3, layer, 0.05)
        np.testing.assert_array_equal(got, want)
        j = int(np.searchsorted(grid, 0.1))
        assert got[j] < st.gain(grid[j]) and got[j - 20] == st.gain(grid[j - 20])

    def test_cost_at_or_below_margin_falls_back(self, benchmark_prior, bernoulli_family, monkeypatch):
        sizes = count_inverted_points(monkeypatch)
        st.solve(benchmark_prior, bernoulli_family, solver_mod._STOP_MARGIN, 4, 501)
        assert sizes == [(n, 499) for n in (3, 2, 1, 0)]

    def test_continuous_solve_inverts_fewer_points(self, five_model_priors, monkeypatch):
        prior, family = five_model_priors["gaussian-mean"]
        sizes = count_inverted_points(monkeypatch)
        surface = st.solve(prior, family, 0.05, st.choose_horizon(0.05), 501)
        per_layer = np.bincount([n for n, _ in sizes], weights=[k for _, k in sizes], minlength=surface.horizon)
        assert per_layer.size == surface.horizon
        assert np.all(per_layer < surface.pi_grid.size - 2), per_layer


def count_inverted_points(monkeypatch):
    """Record (n, number of points) for every level-curve inversion ``solver`` runs."""
    sizes = []
    inner = solver_mod._y_of_logit

    def counted(ctx, n, target):
        sizes.append((n, np.size(target)))
        return inner(ctx, n, target)

    monkeypatch.setattr(solver_mod, "_y_of_logit", counted)
    return sizes


class TestSurfaceBudget:
    """A surface over _MAX_VALUES doubles is refused before anything is allocated."""

    @pytest.mark.parametrize("cost, explicit, quoted", [(0.1, 600_000_000_000, "600000000000"),
                                                         (1e-12, None, "600000000000"),
                                                         (1e-300, None, "6.00e+299")])
    def test_refused_before_allocating(self, benchmark_prior, bernoulli_family, cost, explicit, quoted):
        horizon = explicit or st.choose_horizon(cost)
        message = f"^a surface of horizon {re.escape(quoted)} on 2001 grid points exceeds the budget of 100000000"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                st.solve(benchmark_prior, bernoulli_family, cost, horizon)
            if explicit is None:
                with pytest.raises(ValueError, match=message):
                    st.check_binomial_reduction(2, benchmark_prior, cost)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("include, points", [((), 400_000), ([0.123, 0.456], 400_002)])
    def test_refused_before_the_grid_is_built(self, benchmark_prior, bernoulli_family, monkeypatch, include, points):
        # the grid alone would take 3.2 MB
        monkeypatch.setattr(solver_mod, "_MAX_VALUES", 10**4)
        message = f"^a surface of horizon 1 on {points} grid points exceeds the budget of 10000 values"

        def refused():
            with pytest.raises(ValueError, match=message):
                st.solve(benchmark_prior, bernoulli_family, 0.1, 1, 400_000, include=include)

        peak = traced_peak(refused)
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"

    def test_budget_counts_every_layer(self, benchmark_prior, bernoulli_family, monkeypatch):
        monkeypatch.setattr(solver_mod, "_MAX_VALUES", 11 * 101)
        assert st.solve(benchmark_prior, bernoulli_family, 0.1, 10, 101).values.size == 11 * 101
        with pytest.raises(ValueError, match="^a surface of horizon 11 on 101 grid points exceeds the budget of 1111"):
            st.solve(benchmark_prior, bernoulli_family, 0.1, 11, 101)


class TestBoundaries:
    def test_strict_continuation_for_small_cost(self, benchmark_surface):
        assert benchmark_surface.b1[0] < 0.5 < benchmark_surface.b2[0]

    def test_terminal_layer_collapses(self, benchmark_surface):
        assert benchmark_surface.b1[-1] == 0.5
        assert benchmark_surface.b2[-1] == 0.5

    def test_bracket_half(self, benchmark_surface):
        assert np.all(benchmark_surface.b1 <= 0.5)
        assert np.all(benchmark_surface.b2 >= 0.5)

    def test_extract_matches_stored(self, benchmark_surface):
        b1, b2 = st.extract_boundaries(benchmark_surface)
        np.testing.assert_array_equal(b1, benchmark_surface.b1)
        np.testing.assert_array_equal(b2, benchmark_surface.b2)

    def test_array_scan_matches_layer_scan(self, five_model_surfaces, benchmark_surface):
        surfaces = list(five_model_surfaces.values())
        # a grid without 1/2, a cosine grid, layers stopped nowhere, near the ends and everywhere
        for grid in (st.make_grid(400), st.make_grid(301, "cosine")):
            g = st.gain(grid)
            values = np.tile(g, (4, 1))
            values[1] -= 0.01
            values[2, 3:-3] -= 0.01
            surfaces.append(replace(benchmark_surface, horizon=3, pi_grid=grid, values=values))
        for surface in surfaces:
            want = boundaries_by_layers(surface.values, surface.pi_grid)
            got = st.extract_boundaries(surface)
            assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


def boundaries_by_layers(values, grid):
    """``extract_boundaries`` as a scan layer by layer."""
    g = st.gain(grid)
    i_lo = int(np.searchsorted(grid, 0.5, side="right")) - 1
    i_hi = int(np.searchsorted(grid, 0.5, side="left"))
    b1 = np.empty(values.shape[0])
    b2 = np.empty(values.shape[0])
    for n, layer in enumerate(values):
        stopped = layer >= g - STOP_TOL
        if stopped.all():
            b1[n] = 0.5
            b2[n] = 0.5
            continue
        lo_idx = np.nonzero(stopped[: i_lo + 1])[0]
        hi_idx = np.nonzero(stopped[i_hi:])[0]
        b1[n] = grid[lo_idx[-1]] if lo_idx.size else 0.5
        b2[n] = grid[i_hi + hi_idx[0]] if hi_idx.size else 0.5
    return b1, b2


class TestPolicyDecide:
    def test_deep_in_stop_region(self, benchmark_surface):
        d = st.policy_decide(benchmark_surface, 0, 0.999)
        assert d.action == "stop" and d.accept == 1

    def test_continue_at_centre(self, benchmark_surface):
        assert st.policy_decide(benchmark_surface, 0, 0.5).action == "continue"

    def test_tie_goes_to_lower_hypothesis(self, benchmark_prior, bernoulli_family):
        surf = st.solve(benchmark_prior, bernoulli_family, 0.6, 2, grid_size=301)
        d = st.policy_decide(surf, 0, 0.5)
        assert d.action == "stop" and d.accept == 0

    def test_terminal_forces_stop(self, benchmark_surface):
        d = st.policy_decide(benchmark_surface, benchmark_surface.horizon, 0.5)
        assert d.action == "stop"

    def test_out_of_range_layer(self, benchmark_surface):
        with pytest.raises(ValueError, match="horizon"):
            st.policy_decide(benchmark_surface, benchmark_surface.horizon + 1, 0.5)


class TestProbabilityArgument:
    """``policy_decide`` and ``value_at`` refuse a pi outside [0, 1] and take its endpoints."""

    @pytest.mark.parametrize("read", [st.policy_decide, st.value_at], ids=["policy_decide", "value_at"])
    @pytest.mark.parametrize("pi", [-0.1, 1.7, math.nan, math.inf, -math.inf])
    def test_refused(self, benchmark_surface, read, pi):
        with pytest.raises(ValueError, match=r"^probability pi must lie in \[0, 1\], got "):
            read(benchmark_surface, 0, pi)

    @pytest.mark.parametrize("pi", [0.0, 1.0])
    def test_endpoints_are_legal(self, benchmark_surface, pi):
        d = st.policy_decide(benchmark_surface, 0, pi)
        assert d.action == "stop" and d.accept == int(pi)
        assert st.value_at(benchmark_surface, 0, pi) == benchmark_surface.values[0][-1 if pi else 0]


class TestChooseHorizon:
    def test_arithmetic(self):
        assert st.choose_horizon(0.25, 0.25) == 3
        assert st.choose_horizon(0.05, 0.1) == 12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            st.choose_horizon(0.0)
        with pytest.raises(ValueError):
            st.choose_horizon(0.1, 0.0)

    @pytest.mark.parametrize("cost, slack", [(1e-320, 0.1), (5e-324, 0.1), (1e-10, 1e300)])
    def test_rejects_overflowing_horizon(self, cost, slack):
        message = "^" + re.escape(f"cost {cost!r} with slack {slack!r} gives no finite horizon")
        with pytest.raises(ValueError, match=message):
            st.choose_horizon(cost, slack)

    def test_truncation_bias_decays_geometrically(self, benchmark_prior, bernoulli_family):
        # the bias at the chosen horizon is far below the slack target, and
        # each doubling shrinks it by orders of magnitude (measured:
        # ~2.9e-4 at N=12, ~1.6e-6 at N=24, ~5e-11 at N=48)
        vals = {}
        for N in (12, 24, 48):
            s = st.solve(benchmark_prior, bernoulli_family, 0.05, N, grid_size=2001)
            vals[N] = st.value_at(s, 0, 0.5)
        assert vals[24] <= vals[12] + 1e-12
        assert abs(vals[12] - vals[24]) < 1e-3
        assert abs(vals[24] - vals[48]) < 1e-5


class TestSurfaceIO:
    def test_surface_json_round_trip(self, benchmark_surface, tmp_path):
        path = tmp_path / "surface.json"
        st.write_surface_json(benchmark_surface, path)
        back = st.read_surface_json(path)
        assert back.cost == benchmark_surface.cost
        assert back.horizon == benchmark_surface.horizon
        np.testing.assert_array_equal(back.pi_grid, benchmark_surface.pi_grid)
        np.testing.assert_array_equal(back.values, benchmark_surface.values)
        np.testing.assert_array_equal(back.b1, benchmark_surface.b1)
        np.testing.assert_array_equal(back.b2, benchmark_surface.b2)
        # solve records the model and prior, and the file carries them back
        assert back.provenance == benchmark_surface.provenance == {
            "model": "bernoulli",
            "prior": {"atoms": list(BENCH_ATOMS), "weights": [0.5, 0.5], "theta0": 0.0},
        }

    @pytest.mark.parametrize("provenance", [None, {"model": "bernoulli", "prior": {"atoms": [-0.8, 0.8]}}])
    def test_writer_bytes_match_element_by_element_writer(self, benchmark_surface, tmp_path, provenance):
        # floats whose text form is easy to get wrong: signed zero, subnormals, 17-digit reprs
        values = benchmark_surface.values.copy()
        values[0, 1:7] = [-0.0, 5e-324, 2.2250738585072014e-308, 1.0 / 3.0, 0.1 + 0.2, 1e-17]
        surface = replace(benchmark_surface, values=values, provenance=provenance)
        reference = {
            "cost": surface.cost,
            "horizon": surface.horizon,
            "pi_grid": [float(v) for v in surface.pi_grid],
            "values": [float(v) for v in np.asarray(surface.values).ravel()],
            "b1": [float(v) for v in surface.b1],
            "b2": [float(v) for v in surface.b2],
        }
        if provenance is not None:
            reference["provenance"] = provenance
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        with open(old, "w", encoding="utf-8") as fh:
            json.dump(reference, fh)
            fh.write("\n")
        st.write_surface_json(surface, new)
        assert new.read_bytes() == old.read_bytes()
        back = st.read_surface_json(new)
        for name in ("pi_grid", "values", "b1", "b2"):
            assert getattr(back, name).tobytes() == np.asarray(getattr(surface, name), dtype=float).tobytes()
        assert (back.cost, back.horizon, back.provenance) == (surface.cost, surface.horizon, provenance)

    @pytest.mark.parametrize("case", ["gain-layer", "negative-zero-ends", "cosine-grid"])
    def test_writer_bytes_where_layers_meet_the_gain(self, benchmark_prior, bernoulli_family, tmp_path, case):
        # the writer cuts each layer's ends from the gain's text; the bytes stay those of json.dump
        kind = "cosine" if case == "cosine-grid" else "uniform"
        surface = st.solve(benchmark_prior, bernoulli_family, 0.05, 8, grid_size=301, grid_kind=kind)
        values = surface.values.copy()
        if case == "gain-layer":
            values[3] = st.gain(surface.pi_grid)
        elif case == "negative-zero-ends":
            values[2, 0] = values[5, -1] = -0.0
            values[4, 0] = values[4, -1] = -0.0
        surface = replace(surface, values=values)
        # -0.0 equals the gain's 0.0 but is not its text; layers 2 and 5 keep the gain's 0.0 at their other end,
        # which is cut from the gain's text
        assert values[2, -1].tobytes() == values[5, 0].tobytes() == st.gain(0.0).tobytes()
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        with open(old, "w", encoding="utf-8") as fh:
            json.dump({"cost": surface.cost, "horizon": surface.horizon, "pi_grid": surface.pi_grid.tolist(),
                       "values": values.ravel().tolist(), "b1": surface.b1.tolist(), "b2": surface.b2.tolist(),
                       "provenance": surface.provenance}, fh)
            fh.write("\n")
        st.write_surface_json(surface, new)
        assert new.read_bytes() == old.read_bytes()
        if case == "negative-zero-ends":
            assert new.read_text().count("-0.0") == 4

    def test_values_of_another_shape_are_refused_before_writing(self, benchmark_surface, tmp_path):
        path = tmp_path / "surface.json"
        with pytest.raises(ValueError, match=r"^surface values have shape \(1, 2001\), not"):
            st.write_surface_json(replace(benchmark_surface, values=benchmark_surface.values[:1]), path)
        assert not path.exists()

    @pytest.mark.parametrize("field, bad", [("values", math.nan), ("values", math.inf), ("b1", math.nan),
                                            ("cost", math.inf)])
    def test_non_finite_number_is_refused_before_writing(self, benchmark_surface, tmp_path, field, bad):
        if field == "cost":
            surface = replace(benchmark_surface, cost=bad)
        else:
            arr = getattr(benchmark_surface, field).copy()
            arr.flat[3] = bad
            surface = replace(benchmark_surface, **{field: arr})
        path = tmp_path / "surface.json"
        with pytest.raises(ValueError, match="non-finite|not JSON compliant"):
            st.write_surface_json(surface, path)
        assert not path.exists()

    def test_non_finite_provenance_is_refused_before_writing(self, benchmark_surface, tmp_path):
        path = tmp_path / "surface.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            st.write_surface_json(replace(benchmark_surface, provenance={"prior": {"weights": [0.0, math.nan]}}), path)
        assert not path.exists()

    def test_boundaries_csv_round_trip(self, benchmark_surface, tmp_path):
        path = tmp_path / "boundaries.csv"
        st.write_boundaries_csv(benchmark_surface, path)
        b1, b2 = st.read_boundaries_csv(path)
        np.testing.assert_array_equal(b1, benchmark_surface.b1)
        np.testing.assert_array_equal(b2, benchmark_surface.b2)

    @pytest.mark.parametrize("row", ["1,0.1", "1,0.1,0.9,0", "1,abc,0.9", "one,0.1,0.9"])
    def test_boundaries_csv_quotes_malformed_row(self, tmp_path, row):
        path = tmp_path / "boundaries.csv"
        path.write_text(f"n,b1,b2\n0,0.1,0.9\n{row}\n")
        with pytest.raises(ValueError) as info:
            st.read_boundaries_csv(path)
        assert str(info.value) == f"malformed boundaries row: {row!r}"

    def test_value_layers_shape(self, benchmark_surface, tmp_path):
        path = tmp_path / "value_layers.csv"
        st.write_value_layers_csv(benchmark_surface, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + (benchmark_surface.horizon + 1) * benchmark_surface.pi_grid.size


class TestGrid:
    def test_minimum_size(self):
        with pytest.raises(ValueError, match="grid size"):
            st.make_grid(2)

    def test_include_points_spliced(self):
        grid = st.make_grid(11, include=(0.123,))
        assert 0.123 in grid
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)

    def test_include_must_be_interior(self):
        with pytest.raises(ValueError, match="strictly inside"):
            st.make_grid(11, include=(0.0,))

    @pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
    def test_include_refuses_non_finite_points(self, point, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match="strictly inside"):
            st.make_grid(11, include=(0.3, point))
        with pytest.raises(ValueError, match="strictly inside"):
            st.solve(benchmark_prior, bernoulli_family, 0.1, 3, 5, include=[point])
