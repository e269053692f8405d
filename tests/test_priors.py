import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import expit, logit

import seqtest as st
from seqtest import priors as priors_mod


class TestMakePrior:
    def test_normalizes_weights(self):
        prior = st.make_prior([-1.0, 1.0], [1.0, 1.0], 0.0)
        np.testing.assert_allclose(prior.log_weights, [-math.log(2)] * 2, atol=1e-15)

    def test_one_sided_support_rejected(self):
        with pytest.raises(ValueError, match="degenerate prior"):
            st.make_prior([0.3], [1.0], 0.5)
        with pytest.raises(ValueError, match="degenerate prior"):
            st.make_prior([0.6, 0.9], [1.0, 1.0], 0.5)

    def test_atom_at_threshold_counts_as_lower_side(self, gaussian_mean_family):
        prior = st.make_prior([-1.0, 0.0, 2.0], [1.0, 2.0, 1.0], 0.0)
        assert st.pi_of_y(prior, gaussian_mean_family, 0, 0.0) == pytest.approx(0.25, abs=1e-14)

    def test_non_increasing_atoms_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            st.make_prior([1.0, -1.0], [1.0, 1.0], 0.0)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            st.make_prior([-1.0, 1.0], [1.0, 0.0], 0.0)

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(ValueError, match="^prior weights must be finite$"):
            st.make_prior([-1.0, 1.0], [1.0, weight], 0.0)

    @pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta0_rejected(self, theta0):
        with pytest.raises(ValueError, match=f"^prior theta0 must be finite, got {theta0!r}$"):
            st.make_prior([-1.0, 1.0], [1.0, 1.0], theta0)

    @pytest.mark.parametrize("atoms, log_weights", [
        ([-1.0, 1.0], [0.0, -math.inf]),
        ([-1.0, 1.0], [0.0, math.nan]),
        ([-1.0, math.inf], [-math.log(2), -math.log(2)]),
    ], ids=["log-weight-minus-inf", "log-weight-nan", "atom-inf"])
    def test_prior_refuses_non_finite_entries(self, atoms, log_weights):
        with pytest.raises(ValueError, match="^prior atoms and log weights must be finite$"):
            st.Prior(atoms=np.array(atoms), log_weights=np.array(log_weights), theta0=0.0)


class TestPosterior:
    def test_zero_data_returns_prior(self, benchmark_prior, bernoulli_family):
        state = st.posterior(benchmark_prior, bernoulli_family, 0, 0.0)
        np.testing.assert_allclose(state.log_weights, benchmark_prior.log_weights, atol=1e-15)

    def test_symmetric_atoms_stay_balanced(self, gaussian_mean_family):
        prior = st.make_prior([-1.0, 1.0], [1.0, 1.0], 0.0)
        state = st.posterior(prior, gaussian_mean_family, 2, 0.0)
        assert state.log_weights[0] == pytest.approx(state.log_weights[1], abs=1e-15)

    def test_weight_ratio_one_observation(self, gaussian_mean_family):
        prior = st.make_prior([-1.0, 1.0], [1.0, 1.0], 0.0)
        state = st.posterior(prior, gaussian_mean_family, 1, 1.0)
        ratio = math.exp(state.log_weights[1] - state.log_weights[0])
        assert ratio == pytest.approx(math.e**2, rel=1e-13)

    def test_reconstruction_invariant(self, three_atom_prior, gaussian_mean_family):
        n, y = 5, 1.7
        state = st.posterior(three_atom_prior, gaussian_mean_family, n, y)
        raw = three_atom_prior.log_weights + three_atom_prior.atoms * y - n * (
            0.5 * three_atom_prior.atoms**2
        )
        from scipy.special import logsumexp

        np.testing.assert_allclose(state.log_weights, raw - logsumexp(raw), atol=1e-12)
        assert abs(logsumexp(state.log_weights)) < 1e-12

    def test_sufficiency_under_permutation(self, three_atom_prior, gaussian_mean_family):
        # folding observations in any order lands on the same posterior
        rng = np.random.default_rng(0)
        obs = rng.normal(size=12)
        for perm_seed in (1, 2):
            perm = np.random.default_rng(perm_seed).permutation(obs)
            a = st.posterior(three_atom_prior, gaussian_mean_family, obs.size, float(sum(obs)))
            b = st.posterior(three_atom_prior, gaussian_mean_family, obs.size, float(sum(perm)))
            np.testing.assert_allclose(a.log_weights, b.log_weights, atol=1e-12)


class TestPiOfY:
    def test_prior_mass_at_origin(self, three_atom_prior, gaussian_mean_family):
        want = three_atom_prior.mass_above_threshold
        assert st.pi_of_y(three_atom_prior, gaussian_mean_family, 0, 0.0) == pytest.approx(want, abs=1e-14)

    def test_two_atom_closed_form(self, gaussian_mean_family):
        prior = st.make_prior([-1.0, 1.0], [1.0, 1.0], 0.0)
        got = st.pi_of_y(prior, gaussian_mean_family, 0, 3.0)
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-6.0)), abs=1e-14)

    def test_saturation_far_out(self, gaussian_mean_family):
        prior = st.make_prior([-1.0, 1.0], [1.0, 1.0], 0.0)
        for n in (0, 3):
            assert st.pi_of_y(prior, gaussian_mean_family, n, 50.0) > 0.999
            assert st.pi_of_y(prior, gaussian_mean_family, n, -50.0) < 0.001

    def test_strictly_increasing_in_y(self, three_atom_prior, gaussian_mean_family):
        ys = np.linspace(-6, 6, 41)
        vals = st.pi_of_y(three_atom_prior, gaussian_mean_family, 4, ys)
        assert np.all(np.diff(vals) > 0)


class TestYOfPi:
    def test_root_of_prior_mass(self, three_atom_prior, gaussian_mean_family):
        pi0 = three_atom_prior.mass_above_threshold
        assert st.y_of_pi(three_atom_prior, gaussian_mean_family, 0, pi0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_two_atom_closed_form(self, gaussian_mean_family, n):
        th1, th2, pi0 = -0.6, 0.9, 0.35
        prior = st.make_prior([th1, th2], [1.0 - pi0, pi0], 0.0)
        B = lambda u: 0.5 * u * u
        for pi in (0.2, 0.5, 0.77):
            want = ((logit(pi) - logit(pi0)) + n * (B(th2) - B(th1))) / (th2 - th1)
            got = st.y_of_pi(prior, gaussian_mean_family, n, pi)
            assert got == pytest.approx(want, abs=1e-10)

    def test_round_trip(self, three_atom_prior, bernoulli_family):
        for n in (0, 2, 9):
            for pi in (0.01, 0.3, 0.5, 0.9, 0.999):
                y = st.y_of_pi(three_atom_prior, bernoulli_family, n, pi)
                assert abs(st.pi_of_y(three_atom_prior, bernoulli_family, n, y) - pi) <= 1e-10

    def test_out_of_range(self, three_atom_prior, bernoulli_family):
        with pytest.raises(ValueError, match="level curve out of numerical range"):
            st.y_of_pi(three_atom_prior, bernoulli_family, 0, 1e-13)
        with pytest.raises(ValueError, match="level curve out of numerical range"):
            st.y_of_pi(three_atom_prior, bernoulli_family, 0, 1.0)
        with pytest.raises(ValueError, match="level curve out of numerical range"):
            st.y_of_pi(three_atom_prior, bernoulli_family, 0, [0.5, math.nan])

    def test_level_curves_ordered(self, three_atom_prior, gaussian_mean_family):
        for n in (0, 4):
            ys = [st.y_of_pi(three_atom_prior, gaussian_mean_family, n, p) for p in (0.2, 0.4, 0.6, 0.8)]
            assert np.all(np.diff(ys) > 0)


def _bisection_reference(ctx, n, target):
    """The level-curve inversion this package used before Newton: 80 bisections."""
    t = np.asarray(target, dtype=float)
    gap = ctx.atoms[ctx.split] - ctx.atoms[ctx.split - 1]
    span = ctx.atoms[-1] - ctx.atoms[0]
    d = t - float(_trailing_log_odds(ctx, n, 0.0)[0])
    y_lo = np.minimum(d / span, d / gap)
    y_hi = np.maximum(d / span, d / gap)
    for _ in range(80):
        mid = 0.5 * (y_lo + y_hi)
        up = _trailing_log_odds(ctx, n, mid)[0] < t
        y_lo = np.where(up, mid, y_lo)
        y_hi = np.where(up, y_hi, mid)
    return 0.5 * (y_lo + y_hi)


def _trailing_lse(z, u=None):
    """The kernel as it was with the atoms on the trailing axis.

    Log-sum-exp over the last axis and, with ``u``, the mean of ``u`` under
    the weights exp(z) as a matrix-vector product.
    """
    m = np.max(z, axis=-1)
    e = np.exp(z - m[..., None])
    s = np.sum(e, axis=-1)
    if u is None:
        return m + np.log(s)
    return m + np.log(s), (e @ u) / s


def _trailing_log_odds(ctx, n, y):
    """Log-odds at (n, y) and its slope from ``_trailing_lse``."""
    z = priors_mod._unnorm_log_weights(ctx, n, y)
    r_up, m_up = _trailing_lse(z[..., ctx.up], ctx.atoms[ctx.up])
    r_lo, m_lo = _trailing_lse(z[..., ctx.lo], ctx.atoms[ctx.lo])
    return r_up - r_lo, m_up - m_lo


def _trailing_transition(ctx, n, y):
    """``_transition``'s (predictive mass, next pi) pairs from ``_trailing_lse``,
    its weights normalised by one log-sum-exp over all atoms."""
    z = priors_mod._unnorm_log_weights(ctx, n, y)
    lw = z - _trailing_lse(z)[..., None]
    steps = []
    for k, x in enumerate(ctx.points):
        z_next = priors_mod._unnorm_log_weights(ctx, n + 1, y + x)
        steps.append((np.exp(_trailing_lse(lw + ctx.ux[k]) + ctx.log_mass[k]),
                      expit(_trailing_lse(z_next[..., ctx.up]) - _trailing_lse(z_next[..., ctx.lo]))))
    return steps


def _trailing_predictive(ctx, n, y):
    """``_predictive``'s masses as they were with the atoms on the trailing axis:
    the side-wise norm of ``_side_lse_mean``, then ``_lse_last`` per outcome."""
    z = priors_mod._unnorm_log_weights(ctx, n, y)
    norm = np.logaddexp(priors_mod._side_lse_mean(ctx, ctx.up, n, y)[0],
                        priors_mod._side_lse_mean(ctx, ctx.lo, n, y)[0])
    lw = z - norm[..., None]
    return [np.exp(priors_mod._lse_last(lw + ctx.ux[k]) + ctx.log_mass[k]) for k in range(ctx.points.size)]


def _joined(chunks):
    """The chunks of ``_transition`` or ``_predictive`` joined along the outcome axis."""
    return tuple(np.concatenate(v) for v in zip(*chunks))


SIX_ATOMS = ([-1.5, -0.9, -0.3, 0.3, 0.9, 1.5], [1.0, 2.0, 1.0, 1.0, 0.5, 1.0], 0.0)
SIX_POSITIVE_ATOMS = ([0.4, 0.7, 1.0, 1.4, 1.9, 2.5], [1.0, 2.0, 1.0, 1.0, 0.5, 1.0], 1.2)
INVERSION_CASES = [
    ("bernoulli", SIX_ATOMS),
    ("binomial(3)", SIX_ATOMS),
    ("gaussian-mean", SIX_ATOMS),
    ("exponential-rate", SIX_POSITIVE_ATOMS),
    ("gaussian-variance", SIX_POSITIVE_ATOMS),
    # atoms a hair either side of theta0: slope near the root as small as 2e-3
    ("gaussian-mean", ([-2.0, -1e-3, 1e-3, 2.0], [1.0, 1.0, 1.0, 1.0], 0.0)),
    # near-flat middle with faint far atoms: the slope ranges over 2e-4 .. 4.8
    ("bernoulli", ([-2.4, -1e-4, 1e-4, 2.4], [1e-6, 1.0, 1.0, 1e-6], 0.0)),
    # ten atoms a side: numpy sums 8 or more terms of a single point pairwise
    ("bernoulli", (np.linspace(-2.0, 2.0, 20).tolist(), [1.0, 2.0, 0.5, 1.0] * 5, 0.0)),
]
INVERSION_IDS = ["bernoulli", "binomial3", "gaussian-mean", "exponential-rate", "gaussian-variance",
                 "gaussian-mean-narrow", "bernoulli-faint-tails", "bernoulli-twenty-atoms"]
TWENTY_ATOMS = INVERSION_CASES[-1][1]
CHUNK_CASES = [("gaussian-mean", SIX_ATOMS), ("gaussian-mean", TWENTY_ATOMS), ("bernoulli", TWENTY_ATOMS)]
CHUNK_IDS = ["gaussian-mean", "gaussian-mean-twenty-atoms", "bernoulli-twenty-atoms"]
# the solver's 2001-point grid interior (0.5 included) plus both ends of the
# invertible range
INVERSION_PIS = np.concatenate([[1.01e-12], np.linspace(0.0, 1.0, 2001)[1:-1], [1.0 - 1.01e-12]])


class TestLevelCurveInversion:
    @pytest.mark.parametrize("model, spec", INVERSION_CASES, ids=INVERSION_IDS)
    @pytest.mark.parametrize("n", [0, 1, 30, 60, 120])
    def test_matches_bisection_and_hits_target(self, model, spec, n, monkeypatch):
        prior = st.make_prior(*spec)
        ctx = priors_mod._Ctx(prior, st.family_for_prior(model, prior))
        t = logit(INVERSION_PIS)
        passes = []
        log_odds = priors_mod._log_odds

        def counted(ctx, n, y, slope=False):
            passes.append(slope)
            return log_odds(ctx, n, y, slope)

        monkeypatch.setattr(priors_mod, "_log_odds", counted)
        y = priors_mod._y_of_logit(ctx, n, t)
        monkeypatch.undo()
        # one log-odds pass at y = 0 for the bracket, then one per Newton step; no point may hit the cap
        assert len(passes) - 1 < priors_mod._NEWTON_CAP
        y_ref = _bisection_reference(ctx, n, t)
        assert np.all(np.abs(y - y_ref) <= 1e-11 * np.maximum(1.0, np.abs(y_ref)))
        resid = np.abs(priors_mod._log_odds(ctx, n, y) - t)
        assert np.all(resid <= 2e-13 * np.maximum(1.0, np.abs(t)))
        assert np.all(np.diff(y) > 0)

    # mean slope evaluations per point over n = 30, 60, 120, measured 2.76, 1.55, 1.34, 2.55 and 3.14;
    # 5.40, 4.44, 1.85, 4.99 and 5.33 from the tangent at y = 0 with a confirming evaluation
    @pytest.mark.parametrize("model, spec, bound", [
        (*case, bound) for case, bound in zip(INVERSION_CASES[:5], (3.0, 1.7, 1.5, 2.8, 3.4))
    ], ids=INVERSION_IDS[:5])
    def test_six_atom_inversions_take_few_evaluations(self, model, spec, bound, monkeypatch):
        prior = st.make_prior(*spec)
        ctx = priors_mod._Ctx(prior, st.family_for_prior(model, prior))
        t = logit(INVERSION_PIS)
        points = count_slope_points(monkeypatch)
        for n in (30, 60, 120):
            priors_mod._y_of_logit(ctx, n, t)
        assert sum(points) / (3 * t.size) < bound

    @pytest.mark.parametrize("model, spec", [
        ("bernoulli", ([-0.8, 0.8], [1.0, 1.0], 0.0)),
        ("gaussian-mean", ([-1.0, 0.3], [1.0, 3.0], 0.0)),
        ("exponential-rate", ([0.5, 2.0], [2.0, 1.0], 1.0)),
    ], ids=["bernoulli", "gaussian-mean", "exponential-rate"])
    def test_two_atom_prior_inverts_in_one_evaluation(self, model, spec, monkeypatch):
        """The start is the two atoms' level curve, the root itself, and a side of one atom gives
        Newton's step an error bound of 0, so each point takes one slope evaluation."""
        prior = st.make_prior(*spec)
        ctx = priors_mod._Ctx(prior, st.family_for_prior(model, prior))
        t = logit(INVERSION_PIS)
        for n in (0, 1, 30, 120, np.array([[0], [7], [60]])):
            points = count_slope_points(monkeypatch)
            y = priors_mod._y_of_logit(ctx, n, t)
            monkeypatch.undo()
            assert points == [np.broadcast(n, t).size]
            resid = np.abs(priors_mod._log_odds(ctx, n, y) - t)
            assert np.all(resid <= 2e-13 * np.maximum(1.0, np.abs(t)))

    @pytest.mark.parametrize("model, spec", INVERSION_CASES, ids=INVERSION_IDS)
    def test_array_of_layers_matches_layer_by_layer(self, model, spec):
        prior = st.make_prior(*spec)
        ctx = priors_mod._Ctx(prior, st.family_for_prior(model, prior))
        ns = np.array([0, 1, 30, 60, 120])
        t = logit(INVERSION_PIS)
        y = priors_mod._y_of_logit(ctx, ns[:, None], t)
        assert y.shape == (ns.size, t.size)
        for n, row in zip(ns, y):
            assert np.array_equal(row, priors_mod._y_of_logit(ctx, int(n), t))

    @pytest.mark.parametrize("model, spec", INVERSION_CASES, ids=INVERSION_IDS)
    def test_atoms_leading_kernel_matches_trailing_reference(self, model, spec):
        prior = st.make_prior(*spec)
        ctx = priors_mod._Ctx(prior, st.family_for_prior(model, prior))
        ns = np.array([0, 30, 120])
        y_layers = priors_mod._y_of_logit(ctx, ns[:, None], logit(INVERSION_PIS))
        cases = [(ns[:, None], y_layers)]
        for n, row in zip(ns, y_layers):
            cases.append((int(n), row))
            cases.extend((int(n), float(row[k])) for k in (0, row.size // 2, -1))

        def close(got, want):
            assert np.shape(got) == np.shape(want)
            return np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

        for n, y in cases:
            r, s = priors_mod._log_odds(ctx, n, y, slope=True)
            r_ref, s_ref = _trailing_log_odds(ctx, n, y)
            assert close(r, r_ref) and close(s, s_ref)
            # every 20th point, ends included, keeps the 128-outcome schemes quick
            y = y[..., ::20] if np.ndim(y) else y
            pred_ref, next_pi_ref = (np.stack(v) for v in zip(*_trailing_transition(ctx, n, y)))
            pred, next_pi = _joined(priors_mod._transition(ctx, n, y))
            assert close(pred, pred_ref)
            # next pi keeps the trailing layout, bit for bit
            assert np.array_equal(next_pi, next_pi_ref)

    @pytest.mark.parametrize("model, spec", INVERSION_CASES, ids=INVERSION_IDS)
    def test_predictive_masses_match_trailing_reference(self, model, spec):
        prior = st.make_prior(*spec)
        ctx = priors_mod._Ctx(prior, st.family_for_prior(model, prior))
        ns = np.array([0, 30, 120])
        # every 20th point, ends included, keeps the 128-outcome schemes quick
        y_layers = priors_mod._y_of_logit(ctx, ns[:, None], logit(INVERSION_PIS))[:, ::20]
        cases = [(ns[:, None], y_layers)]
        for n, row in zip(ns, y_layers):
            cases.append((int(n), row))
            cases.extend((int(n), float(row[k])) for k in (0, row.size // 2, -1))
        for n, y in cases:
            x, masses = _joined(priors_mod._predictive(ctx, n, y))
            assert np.array_equal(x, ctx.points)
            masses_ref = np.stack(_trailing_predictive(ctx, n, y))
            assert masses.shape == masses_ref.shape
            if prior.n_atoms < 8:
                # numpy sums fewer than 8 trailing terms in order, as the leading axis does
                assert np.array_equal(masses, masses_ref)
            else:
                assert np.all(np.abs(masses - masses_ref) <= 1e-13 * np.maximum(1.0, np.abs(masses_ref)))

    @pytest.mark.parametrize("model, spec", CHUNK_CASES, ids=CHUNK_IDS)
    @pytest.mark.parametrize("outcomes", [1, 5, None], ids=["one-outcome", "five-outcomes", "all-outcomes"])
    def test_chunk_edges_keep_every_bit(self, model, spec, outcomes, monkeypatch):
        """Chunks of one outcome, of a size that does not divide the outcome count, and of all
        outcomes give the default chunks' masses and next pi bit for bit, and the trailing
        references' next pi, and masses below 8 atoms."""
        prior = st.make_prior(*spec)
        ctx = priors_mod._Ctx(prior, st.family_for_prior(model, prior))
        ns = np.array([0, 30, 120])
        y_layers = priors_mod._y_of_logit(ctx, ns[:, None], logit(INVERSION_PIS))[:, ::40]
        cases = [(ns[:, None], y_layers), (30, y_layers[1]), (30, float(y_layers[1, 7]))]
        for n, y in cases:
            pred_ref = np.stack(_trailing_predictive(ctx, n, y))
            next_pi_ref = np.stack([next_pi for _, next_pi in _trailing_transition(ctx, n, y)])
            default = _joined(priors_mod._transition(ctx, n, y))
            # a budget of that many outcomes' atoms at every state gives chunks of exactly that many outcomes
            per_outcome = prior.n_atoms * np.broadcast(n, y).size
            monkeypatch.setattr(priors_mod, "_CHUNK_VALUES", (outcomes or ctx.points.size) * per_outcome)
            sizes = [x.size for x, _ in priors_mod._predictive(ctx, n, y)]
            want = outcomes or ctx.points.size
            assert sizes[:-1] == [want] * (len(sizes) - 1) and 0 < sizes[-1] <= want
            pred, next_pi = _joined(priors_mod._transition(ctx, n, y))
            monkeypatch.undo()
            assert np.array_equal(pred, default[0]) and np.array_equal(next_pi, default[1])
            assert np.array_equal(next_pi, next_pi_ref)
            if prior.n_atoms < 8:
                assert np.array_equal(pred, pred_ref)
            else:
                assert np.all(np.abs(pred - pred_ref) <= 1e-13 * np.maximum(1.0, np.abs(pred_ref)))

    def test_chunks_stay_within_the_budget(self, five_model_priors):
        prior, family = five_model_priors["gaussian-mean"]
        ctx = priors_mod._Ctx(prior, family)
        for size in (1, 6, 499, 1999):
            y = np.linspace(-1.0, 1.0, size)
            sizes = [x.size for x, _ in priors_mod._predictive(ctx, 3, y)]
            assert sum(sizes) == ctx.points.size
            per_chunk = max(1, priors_mod._CHUNK_VALUES // (prior.n_atoms * size))
            assert sizes == [per_chunk] * (len(sizes) - 1) + [sizes[-1]]
            assert per_chunk == 1 or per_chunk * prior.n_atoms * size <= priors_mod._CHUNK_VALUES
        # a single state takes every outcome in one chunk
        assert [x.size for x, _ in priors_mod._predictive(ctx, 3, 0.2)] == [ctx.points.size]

    @pytest.mark.parametrize("model, spec", INVERSION_CASES, ids=INVERSION_IDS)
    def test_scalar_input_returns_float(self, model, spec):
        prior = st.make_prior(*spec)
        fam = st.family_for_prior(model, prior)
        for pi in (1.01e-12, 0.5, 1.0 - 1.01e-12):
            y = st.y_of_pi(prior, fam, 30, pi)
            assert isinstance(y, float)
            assert y == st.y_of_pi(prior, fam, 30, np.array([pi]))[0]

    def test_slope_matches_finite_difference(self, three_atom_prior, bernoulli_family):
        ctx = priors_mod._Ctx(three_atom_prior, bernoulli_family)
        y = np.linspace(-8.0, 8.0, 17)
        _, slope = priors_mod._log_odds(ctx, 7, y, slope=True)
        h = 1e-6
        fd = (priors_mod._log_odds(ctx, 7, y + h) - priors_mod._log_odds(ctx, 7, y - h)) / (2 * h)
        np.testing.assert_allclose(slope, fd, rtol=1e-8)


def count_slope_points(monkeypatch):
    """Record the number of points of every log-odds evaluation that also takes the slope."""
    points = []
    log_odds = priors_mod._log_odds

    def counted(ctx, n, y, slope=False):
        if slope:
            points.append(np.size(y))
        return log_odds(ctx, n, y, slope)

    monkeypatch.setattr(priors_mod, "_log_odds", counted)
    return points


class TestPriorFamilyGate:
    """Every entry that reads the posterior refuses a prior atom its family does not admit."""

    @pytest.mark.parametrize("atom", [-0.5, 0.0])
    @pytest.mark.parametrize("entry", [
        pytest.param(lambda p, f, g: st.y_of_pi(p, f, 1, 0.5), id="y_of_pi"),
        pytest.param(lambda p, f, g: st.pi_of_y(p, f, 1, -0.3), id="pi_of_y"),
        pytest.param(lambda p, f, g: st.log_odds_of_y(p, f, 1, -0.3), id="log_odds_of_y"),
        pytest.param(lambda p, f, g: st.posterior(p, f, 1, -0.3), id="posterior"),
        pytest.param(lambda p, f, g: st.bellman_step(st.gain(g), 0, g, p, f, 0.1), id="bellman_step"),
        pytest.param(lambda p, f, g: st.check_concentration(p, f, 0.5, 0.5, 1.8, 3), id="check_concentration"),
        pytest.param(lambda p, f, g: st.check_level_spread(p, f, 0.3, 0.7, 3), id="check_level_spread"),
    ])
    def test_atom_outside_natural_domain(self, entry, atom):
        family = st.make_named_family("exponential-rate")
        prior = st.make_prior([atom, 1.0, 2.0], [1.0, 1.0, 1.0], 1.5)
        message = r"^prior atom outside natural domain \(0\.0, inf\) of model 'exponential-rate'$"
        with pytest.raises(ValueError, match=message):
            entry(prior, family, st.make_grid(11))


class TestMassBelow:
    def test_extremes(self, three_atom_prior, gaussian_mean_family):
        state = st.posterior(three_atom_prior, gaussian_mean_family, 0, 0.0)
        assert st.mass_below(state, -5.0) == 0.0
        assert st.mass_below(state, 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_interior_cut(self, gaussian_mean_family):
        prior = st.make_prior([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25], 0.0)
        state = st.posterior(prior, gaussian_mean_family, 0, 0.0)
        assert st.mass_below(state, 0.0) == pytest.approx(0.75, abs=1e-14)


class TestTransitionDistribution:
    @pytest.mark.parametrize("model", ["bernoulli", "gaussian-mean", "exponential-rate", "gaussian-variance"])
    def test_martingale_and_normalization(self, model):
        if model in ("exponential-rate", "gaussian-variance"):
            prior = st.make_prior([0.5, 1.0, 2.0], [1.0, 1.0, 1.0], 0.8)
        else:
            prior = st.make_prior([-1.0, -0.1, 1.0], [1.0, 1.0, 1.0], 0.0)
        fam = st.family_for_prior(model, prior)
        for n in (0, 5, 20):
            for pi in (0.1, 0.3, 0.5, 0.7, 0.9):
                next_pi, w = st.transition_distribution(prior, fam, n, pi)
                assert abs(w.sum() - 1.0) <= 1e-10
                assert abs(float(w @ next_pi) - pi) <= 1e-10

    def test_bernoulli_upward_move_in_original_coordinates(self, benchmark_prior, bernoulli_family):
        # P(upper | next observation = 1) written with the original
        # success probabilities, computed by hand
        pi = 0.5
        thetas = np.array([0.3, 0.7])
        w = np.array([0.5, 0.5])
        want_up = (w[1] * thetas[1]) / float(w @ thetas)
        next_pi, weights = st.transition_distribution(benchmark_prior, bernoulli_family, 0, pi)
        assert next_pi[1] == pytest.approx(want_up, abs=1e-12)
        assert weights[1] == pytest.approx(float(w @ thetas), abs=1e-12)

    def test_bernoulli_two_support_points(self, benchmark_prior, bernoulli_family):
        next_pi, w = st.transition_distribution(benchmark_prior, bernoulli_family, 3, 0.4)
        assert next_pi.shape == (2,)
        assert w.shape == (2,)

    def test_negative_time_rejected(self, benchmark_prior, bernoulli_family):
        with pytest.raises(ValueError, match="^observation count n must be a non-negative integer, got -3$"):
            st.transition_distribution(benchmark_prior, bernoulli_family, -3, 0.5)

    @pytest.mark.parametrize("pi", [1e-300, 1e-12, 1.0 - 1e-13, math.nan])
    def test_level_outside_invertible_range_rejected(self, benchmark_prior, bernoulli_family, pi):
        with pytest.raises(ValueError, match="level curve out of numerical range"):
            st.transition_distribution(benchmark_prior, bernoulli_family, 0, pi)


@settings(max_examples=40, deadline=None)
@given(
    pi=hs.floats(0.001, 0.999),
    n=hs.integers(0, 12),
    spread=hs.floats(0.2, 2.5),
)
def test_round_trip_property(pi, n, spread):
    prior = st.make_prior([-spread, 0.4 * spread], [1.0, 1.5], 0.0)
    fam = st.make_named_family("bernoulli")
    y = st.y_of_pi(prior, fam, n, pi)
    assert abs(st.pi_of_y(prior, fam, n, y) - pi) <= 1e-10


class TestPriorCsv:
    def test_round_trip(self, tmp_path):
        prior = st.make_prior([-1.2, 0.3, 0.9], [0.2, 0.5, 0.3], 0.1)
        path = tmp_path / "p.csv"
        st.save_prior_csv(prior, path)
        back = st.load_prior_csv(path)
        np.testing.assert_array_equal(back.atoms, prior.atoms)
        np.testing.assert_allclose(back.log_weights, prior.log_weights, atol=1e-15)
        assert back.theta0 == prior.theta0

    def test_unnormalized_weights_accepted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# theta0=0.0\nu,w\n-1.0,3\n1.0,3\n")
        prior = st.load_prior_csv(path)
        assert prior.mass_above_threshold == pytest.approx(0.5, abs=1e-15)

    def test_rows_sorted_by_atom(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# theta0=0.0\nu,w\n1.0,1\n-1.0,1\n")
        prior = st.load_prior_csv(path)
        np.testing.assert_array_equal(prior.atoms, [-1.0, 1.0])

    def test_missing_theta0(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("u,w\n-1.0,1\n1.0,1\n")
        with pytest.raises(ValueError, match="theta0"):
            st.load_prior_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# theta0=0.0\nu,weight\n-1.0,1\n")
        with pytest.raises(ValueError, match="header 'u,w'"):
            st.load_prior_csv(path)

    def test_duplicate_atoms(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# theta0=0.0\nu,w\n-1.0,1\n-1.0,1\n1.0,1\n")
        with pytest.raises(ValueError, match="duplicate"):
            st.load_prior_csv(path)

    @pytest.mark.parametrize("theta0", ["nan", "inf"])
    def test_non_finite_theta0(self, tmp_path, theta0):
        path = tmp_path / "p.csv"
        path.write_text(f"# theta0={theta0}\nu,w\n-1.0,1\n1.0,1\n")
        with pytest.raises(ValueError, match=f"^prior theta0 must be finite, got {theta0}$"):
            st.load_prior_csv(path)

    def test_second_theta0_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# theta0=0.0\nu,w\n-1.0,1\n# theta0=5.0\n1.0,1\n")
        with pytest.raises(ValueError, match="^prior file has a second theta0 metadata line: '# theta0=5.0'$"):
            st.load_prior_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1.0,abc", "malformed prior row: '1.0,abc'"),
        ("1.0", "malformed prior row: '1.0'"),
        ("1.0,1,2", "malformed prior row: '1.0,1,2'"),
        ("inf,1", "prior atoms must be finite, got row 'inf,1'"),
        ("1.0,nan", "prior weights must be finite, got row '1.0,nan'"),
        ("1.0,0", "prior weights must be strictly positive, got row '1.0,0'"),
        ("-1.0,2", "prior file contains duplicate u values, got row '-1.0,2'"),
    ])
    def test_bad_row_is_quoted(self, tmp_path, row, message):
        path = tmp_path / "p.csv"
        path.write_text(f"# theta0=0.0\nu,w\n-1.0,1\n{row}\n")
        with pytest.raises(ValueError) as info:
            st.load_prior_csv(path)
        assert str(info.value) == message
