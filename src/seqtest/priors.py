"""Atomic priors on the natural parameter and exact posterior propagation.

The prior mu is a finite atomic measure with a threshold theta0 splitting
the hypotheses "parameter <= theta0" vs "parameter > theta0" (an atom
exactly at theta0 belongs to the lower side).  Because the running sum of
observations y is sufficient, the posterior after n observations is an
exact reweighting of the atoms:

    log w_i(n, y) = log w_i + u_i * y - n * B(u_i) - Z(n, y).

The posterior probability of the upper side, pi = q(n, y), is a strictly
increasing bijection from y onto (0, 1) for each fixed n; its inverse
y(n, pi) defines the pi-level curves.  All computations are done through
side-wise log-sum-exp so neither side ever underflows.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit, logsumexp

from .families import NaturalFamily, _count, _read_rows, _require_in_domain

__all__ = [
    "Prior",
    "PosteriorState",
    "make_prior",
    "load_prior_csv",
    "validate_prior_for_family",
    "posterior",
    "log_odds_of_y",
    "pi_of_y",
    "y_of_pi",
    "mass_below",
    "transition_distribution",
    "LEVEL_EPS",
]

# pi values outside (LEVEL_EPS, 1 - LEVEL_EPS) cannot be inverted reliably
LEVEL_EPS = 1e-12
# doubles a chunk of outcomes may take in one temporary of ``_predictive`` or
# ``_transition``: 2**13 doubles, 64 KB
_CHUNK_VALUES = 2**13


@dataclass(frozen=True)
class Prior:
    """Finite atomic prior: strictly increasing atoms, normalized log weights."""

    atoms: np.ndarray
    log_weights: np.ndarray
    theta0: float

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        lw = np.asarray(self.log_weights, dtype=float)
        if atoms.ndim != 1 or atoms.shape != lw.shape or atoms.size == 0:
            raise ValueError("prior atoms and log weights must be matching non-empty 1-d arrays")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(lw))):
            raise ValueError("prior atoms and log weights must be finite")
        if not np.isfinite(self.theta0):
            raise ValueError(f"prior theta0 must be finite, got {self.theta0!r}")
        if not np.all(np.diff(atoms) > 0):
            raise ValueError("prior atoms must be strictly increasing")
        if abs(logsumexp(lw)) > 1e-9:
            raise ValueError("prior log weights must be normalized; use make_prior")
        if not (np.any(atoms <= self.theta0) and np.any(atoms > self.theta0)):
            raise ValueError("degenerate prior: needs mass on both sides of theta0")
        atoms.setflags(write=False)
        lw.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "log_weights", lw)

    @property
    def n_atoms(self) -> int:
        return self.atoms.size

    @property
    def upper_mask(self) -> np.ndarray:
        return self.atoms > self.theta0

    @property
    def mass_above_threshold(self) -> float:
        """Prior probability of the upper hypothesis, q(0, 0)."""
        return float(np.exp(logsumexp(self.log_weights[self.upper_mask])))


@dataclass(frozen=True)
class PosteriorState:
    """Posterior of the parameter after n observations summing to y."""

    n: int
    y: float
    atoms: np.ndarray
    log_weights: np.ndarray


def make_prior(atoms, weights, theta0: float) -> Prior:
    """Normalize positive weights into a Prior, validating its shape."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if atoms.ndim != 1 or weights.shape != atoms.shape:
        raise ValueError("prior atoms and weights must be matching 1-d arrays")
    if not np.all(np.isfinite(weights)):
        raise ValueError("prior weights must be finite")
    if not np.all(weights > 0):
        raise ValueError("prior weights must be strictly positive")
    lw = np.log(weights)
    lw = lw - logsumexp(lw)
    return Prior(atoms=atoms, log_weights=lw, theta0=float(theta0))


def load_prior_csv(path) -> Prior:
    """Read a prior file: metadata line ``# theta0=<v>``, header ``u,w``, rows.

    Weights need not be pre-normalized.  Rows are sorted by atom; duplicate
    atoms are rejected.
    """
    comments, atoms, weights = _read_rows(path, "prior", ("u", "w"), ("atoms", "weights"))
    found = [line for line in comments if line.lstrip("#").strip().startswith("theta0")]
    if not found:
        raise ValueError("prior file is missing the '# theta0=<value>' metadata line")
    if len(found) > 1:
        raise ValueError(f"prior file has a second theta0 metadata line: {found[1]!r}")
    try:
        theta0 = float(found[0].split("=", 1)[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed theta0 metadata line: {found[0]!r}") from exc
    return make_prior(atoms, weights, theta0)


def save_prior_csv(prior: Prior, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# theta0={float(prior.theta0)!r}\n")
        fh.write("u,w\n")
        for u, lw in zip(prior.atoms, prior.log_weights):
            fh.write(f"{float(u)!r},{float(np.exp(lw))!r}\n")


def validate_prior_for_family(prior: Prior, family: NaturalFamily):
    """Reject priors whose atoms leave the natural domain or scheme window.

    Support touching the boundary of the natural domain is rejected rather
    than special-cased.  ``_Ctx`` calls it, so every posterior computation
    passes this check.
    """
    _require_in_domain(family.natural_domain, family.name, prior.atoms, "prior atom")
    if family.scheme_domain is not None:
        slo, shi = family.scheme_domain
        if not (np.all(prior.atoms >= slo) and np.all(prior.atoms <= shi)):
            raise ValueError(
                f"prior atom outside the accurate scheme window {family.scheme_domain} of "
                f"model '{family.name}'; rebuild the family with family_for_prior"
            )


# ---------------------------------------------------------------------------
# internal vectorized core (shared with the solver)
# ---------------------------------------------------------------------------


def _lse_last(z):
    """Log-sum-exp over the trailing axis, the atom axis of ``_unnorm_log_weights``.

    Its one caller is next pi in ``_transition``, which keeps this layout so
    that the surfaces stay bit for bit: each point's atoms are summed over
    the trailing axis as they were one outcome at a time, however many
    outcomes share the call.  The log-odds and side-wise means come from
    ``_side_lse_mean`` and the predictive masses from ``_predictive``, both
    with the atoms on the leading axis.
    """
    m = np.max(z, axis=-1)
    e = np.exp(z - m[..., None])
    s = np.sum(e, axis=-1)
    return m + np.log(s)


class _Ctx:
    """Precomputed per-(prior, family) arrays for the hot paths, for a prior the family admits."""

    __slots__ = ("atoms", "lw0", "B_atoms", "split", "up", "lo", "points", "log_mass", "ux")

    def __init__(self, prior: Prior, family: NaturalFamily):
        validate_prior_for_family(prior, family)
        self.atoms = prior.atoms
        self.lw0 = prior.log_weights
        self.B_atoms = np.asarray(family.log_partition(prior.atoms), dtype=float)
        # atoms are sorted, so the upper side is a contiguous suffix
        self.split = int(np.searchsorted(self.atoms, prior.theta0, side="right"))
        self.up = slice(self.split, None)
        self.lo = slice(0, self.split)
        self.points = family.scheme.points
        self.log_mass = family.scheme.log_mass
        # (K, A) table of u_i * x_k - B(u_i), reused across layers
        self.ux = np.multiply.outer(self.points, self.atoms) - self.B_atoms


def _unnorm_log_weights(ctx: _Ctx, n, y):
    """log w_i + u_i y - n B(u_i); an array ``n`` pairs with ``y`` entry by entry."""
    return ctx.lw0 + np.multiply.outer(np.asarray(y, dtype=float), ctx.atoms) - np.multiply.outer(n, ctx.B_atoms)


def _side_lse_mean(ctx: _Ctx, side: slice, n, y):
    """One side's log-sum-exp of the unnormalised log weights at (n, y), and its mean of u.

    ``side`` is ``ctx.up`` or ``ctx.lo``.  The atoms lead: z = (lw0 - n B)
    + u y is laid out (A, ...) with the points behind, and max and sum reduce
    over axis 0.  numpy reduces a short trailing axis slowly: on a 2-core VM
    (numpy 2.4) max and sum take 240 and 86 us over the last axis of a
    (1999, 3) array, and 4 and 5 us over the first axis of a (3, 1999) one.
    The mean of u under the weights exp(z) is the row-wise sum of u_i e_i
    over the atoms, not a matrix-vector product.  Both sums add the atoms in
    order (``_sum_rows``), so each point's arithmetic does not depend on how
    many points share the call: a batched inversion equals the
    layer-by-layer one bit for bit.  An array ``n`` pairs with ``y`` entry
    by entry.
    """
    col = (-1,) + (1,) * max(np.ndim(n), np.ndim(y))
    u = ctx.atoms[side].reshape(col)
    e = u * y + (ctx.lw0[side].reshape(col) - ctx.B_atoms[side].reshape(col) * n)
    m = e.max(axis=0)
    e -= m
    np.exp(e, out=e)
    s = _sum_rows(e)
    e *= u
    return m + np.log(s), _sum_rows(e) / s


def _sum_rows(e):
    """Sum over the leading axis into a new array, adding the rows in order.

    numpy does so for every point of a row-major array when there are
    several, but sums a single point's terms pairwise once there are 8 or
    more of them, and so it does along any axis that lies contiguous in
    memory, such as the leading axis of a transposed array.
    """
    if e.size == e.shape[0] >= 8:
        return functools.reduce(np.add, e)
    return e.sum(axis=0)


def _log_odds(ctx: _Ctx, n, y, slope: bool = False):
    """Log-odds of the upper side at (n, y); with ``slope``, also its y-derivative.

    Both sides come from ``_side_lse_mean``, the kernel of the Newton
    inversion, so the replay, the oracle's lattice and ``log_odds_of_y`` read
    the log-odds with the arithmetic that placed the level curves.  The
    derivative is E_up[u] - E_lo[u], the difference of the side-wise
    posterior means of the atoms.
    """
    r_up, m_up = _side_lse_mean(ctx, ctx.up, n, y)
    r_lo, m_lo = _side_lse_mean(ctx, ctx.lo, n, y)
    return (r_up - r_lo, m_up - m_lo) if slope else r_up - r_lo


# Newton iterations per point never exceed this; the stop test below ends
# every point well before it
_NEWTON_CAP = 80
# relative step, step error bound or bracket width at which a level-curve point is converged
_NEWTON_TOL = 8 * np.finfo(float).eps


def _y_of_logit(ctx: _Ctx, n: int, target):
    """Invert y -> log-odds by Newton's method safeguarded inside a bracket.

    The slope E_up[u] - E_lo[u] lies between the atom gap across theta0 and
    the span of the atoms, so the root lies between (t - r0) / span and
    (t - r0) / gap, with r0 the log-odds at y = 0.  The first iterate is the
    level curve of the two atoms either side of theta0, clipped into that
    bracket: (t - (lw_s - lw_s-1) + n (B_s - B_s-1)) / gap for the first
    upper atom s.  The posterior concentrates on those two atoms along a
    level curve, so this line is the curve's asymptote.  Every step moves
    one end of the bracket to the iterate by the sign of the residual, and
    a Newton step that would leave the bracket takes its midpoint instead.
    Only points still running are evaluated again.

    A point stops once its bracket, its Newton step delta, or the error
    bound of that step is within 8 ulp of max(1, |y|): near y = 0 the
    rounding of the log-odds is absolute, and where the slope is tiny the
    steps stall above 8 ulp while the midpoints close the bracket.  The
    bound is W^2 s delta^2 / (8 gap^2), with s the slope at the iterate and
    W the wider side's atom range.  The slope is at least gap everywhere, so
    the root lies within |f| / gap = s |delta| / gap of the iterate, f the
    residual; the second derivative Var_up(u) - Var_lo(u) is at most W^2 / 4
    in size (Popoviciu's inequality); so Newton's step lands within
    W^2 / 8 (s delta / gap)^2 / s of the root, and is taken without another
    evaluation.  Each pass takes the log-odds and the slope from
    ``_side_lse_mean``, with the atoms on the leading axis; the pass at
    y = 0 takes the log-odds alone.  An array ``n`` broadcast against
    ``target`` inverts several layers in one pass; each point's start and
    arithmetic depend only on its own (n, t), so the result equals the
    layer-by-layer one bit for bit.

    Measured on the five named models with six atoms, n in {0, 1, 30, 60,
    120} and the 2001-point grid plus pi = 1.01e-12 and 1 - 1.01e-12: 1.0-4.1
    slope evaluations per point (1.0-5.7 from the tangent at y = 0 with a
    confirming evaluation) and at most 5 for any point; at most 12 with
    atoms 1e-4 either side of theta0 (29 before); one on a two-atom prior.
    The residual |log-odds(y) - t| stays within 8.1e-14 max(1, |t|).
    """
    t = np.asarray(target, dtype=float)
    layers = isinstance(n, np.ndarray)
    if layers:
        n, t = np.broadcast_arrays(n, t)
        n = n.ravel()
    tf = np.atleast_1d(t).ravel()
    s = ctx.split
    u, lw0, b = ctx.atoms, ctx.lw0, ctx.B_atoms
    gap = u[s] - u[s - 1]
    span = u[-1] - u[0]
    wide = max(u[-1] - u[s], u[s - 1] - u[0])
    curv = wide * wide / (8.0 * gap * gap)
    d = tf - _log_odds(ctx, n, 0.0)
    lo = np.minimum(d / span, d / gap)
    hi = np.maximum(d / span, d / gap)
    y = np.clip((tf - (lw0[s] - lw0[s - 1]) + n * (b[s] - b[s - 1])) / gap, lo, hi)
    idx = np.arange(d.size)
    for _ in range(_NEWTON_CAP):
        if idx.size == 0:
            break
        ya = y[idx]
        r, slope = _log_odds(ctx, n[idx] if layers else n, ya, slope=True)
        f = r - tf[idx]
        la = np.where(f < 0, ya, lo[idx])
        ha = np.where(f > 0, ya, hi[idx])
        step = f / slope
        scale = _NEWTON_TOL * np.maximum(1.0, np.abs(ya))
        small = np.minimum(np.abs(step), curv * slope * step * step) <= scale
        newton = ya - step
        inside = small | ((newton > la) & (newton < ha))
        y[idx] = np.where(inside, newton, 0.5 * (la + ha))
        lo[idx] = la
        hi[idx] = ha
        idx = idx[~(small | (ha - la <= scale))]
    return y.reshape(t.shape)


def _predictive(ctx: _Ctx, n, y):
    """Yield (outcomes, predictive masses) from (n, y), one chunk of outcomes at a time.

    Outcome x_k has mass sum_i w_i(n, y) exp{u_i x_k - B(u_i)} times the
    scheme's point mass.  ``n`` is a count, and ``y`` a scalar or an array
    of states.  Each chunk is a 1-d array of consecutive outcomes and their
    (k, ...) masses, k outcomes by the states' shape; a chunk holds
    max(1, ``_CHUNK_VALUES`` // (A P)) outcomes for A atoms and P states, so
    each of its temporaries stays within ``_CHUNK_VALUES`` doubles unless one
    outcome alone exceeds them.

    The normalised log weights are laid out once per call as (A, 1, ...),
    with the atoms on the leading axis; each chunk adds its columns of
    ``ctx.ux`` and reduces max and sum over axis 0, adding the atoms in order
    (``_sum_rows``).  So each mass is the same whatever the chunk size, and
    with fewer than 8 atoms that is the order in which numpy sums a trailing
    atom axis, so the masses equal the trailing-axis ones bit for bit; from
    8 atoms on numpy sums a trailing axis pairwise.
    """
    col = (-1,) + (1,) * np.ndim(y)
    norm = np.logaddexp(_side_lse_mean(ctx, ctx.up, n, y)[0], _side_lse_mean(ctx, ctx.lo, n, y)[0])
    lw = ctx.lw0.reshape(col) + ctx.atoms.reshape(col) * y - ctx.B_atoms.reshape(col) * n - norm
    lw = lw[:, None]
    size = max(1, _CHUNK_VALUES // lw.size)
    for k in range(0, ctx.points.size, size):
        ks = slice(k, k + size)
        ux = ctx.ux[ks].T.reshape((ctx.atoms.size,) + col)
        # row-major, so that the sums over axis 0 add the atoms in order
        z = np.add(lw, ux, out=np.empty(np.broadcast_shapes(lw.shape, ux.shape)))
        m = z.max(axis=0)
        z -= m
        np.exp(z, out=z)
        yield ctx.points[ks], np.exp(m + np.log(_sum_rows(z)) + ctx.log_mass[ks].reshape(col))


def _transition(ctx: _Ctx, n, y):
    """Yield (predictive masses, next pi) from (n, y), one chunk of outcomes at a time.

    For outcome x_k the chain moves to q(n+1, y + x_k) with the mass
    ``_predictive`` gives it; both arrays are (k, ...), k outcomes of
    ``_predictive``'s chunk by the states' shape.  Next pi takes each side's
    log-sum-exp over the trailing atom axis (``_lse_last``), so its bits do
    not depend on the chunk size.
    """
    col = (-1,) + (1,) * np.ndim(y)
    for x, pred in _predictive(ctx, n, y):
        z_next = _unnorm_log_weights(ctx, n + 1, y + x.reshape(col))
        yield pred, expit(_lse_last(z_next[..., ctx.up]) - _lse_last(z_next[..., ctx.lo]))


def _level_logit(pi):
    """logit(pi) for a level-curve inversion, refusing pi (nan too) outside
    (LEVEL_EPS, 1 - LEVEL_EPS), where the inversion is not reliable."""
    pi = np.asarray(pi, dtype=float)
    if not np.all((pi > LEVEL_EPS) & (pi < 1.0 - LEVEL_EPS)):
        raise ValueError("level curve out of numerical range: pi must lie in (1e-12, 1-1e-12)")
    return logit(pi)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def posterior(prior: Prior, family: NaturalFamily, n: int, y: float) -> PosteriorState:
    """Posterior state at (n, y): exact reweighting of the prior atoms."""
    n = _count(n, "observation count n")
    z = _unnorm_log_weights(_Ctx(prior, family), n, float(y))
    return PosteriorState(n=n, y=float(y), atoms=prior.atoms, log_weights=z - logsumexp(z))


def log_odds_of_y(prior: Prior, family: NaturalFamily, n: int, y):
    """log-odds of the upper hypothesis at (n, y); increasing in y."""
    out = _log_odds(_Ctx(prior, family), _count(n, "observation count n"), y)
    return float(out) if np.ndim(y) == 0 else out


def pi_of_y(prior: Prior, family: NaturalFamily, n: int, y):
    """Posterior mass of the upper hypothesis, q(n, y) in (0, 1)."""
    out = expit(log_odds_of_y(prior, family, n, y))
    return float(out) if np.ndim(y) == 0 else out


def y_of_pi(prior: Prior, family: NaturalFamily, n: int, pi):
    """Level-curve coordinate: the unique y with q(n, y) = pi."""
    out = _y_of_logit(_Ctx(prior, family), _count(n, "observation count n"), _level_logit(pi))
    return float(out) if np.ndim(pi) == 0 else out


def mass_below(state: PosteriorState, a: float) -> float:
    """Posterior probability that the parameter is <= a."""
    sel = state.atoms <= a
    if not sel.any():
        return 0.0
    return float(np.exp(logsumexp(state.log_weights[sel])))


def transition_distribution(prior: Prior, family: NaturalFamily, n: int, pi: float):
    """One-step law of the posterior-probability process from (n, pi).

    Returns ``(next_pi, weights)`` arrays over the scheme's outcomes: for
    outcome x the chain moves to q(n+1, y + x) with predictive weight
    sum_i w_i(n, y) * h(x) p_{u_i}(x) (times the quadrature weight for
    continuous schemes).  Weights sum to 1 up to scheme accuracy and the
    weighted mean of next_pi equals pi (martingale property).  n and pi have
    ``y_of_pi``'s ranges.
    """
    n = _count(n, "observation count n")
    ctx = _Ctx(prior, family)
    y = float(_y_of_logit(ctx, n, _level_logit(pi)))
    weights, next_pi = (np.concatenate(v) for v in zip(*_transition(ctx, n, y)))
    return next_pi, weights
