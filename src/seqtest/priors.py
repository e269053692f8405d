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

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit, logsumexp

from .families import NaturalFamily

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
    theta0 = None
    rows = []
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("theta0"):
                    try:
                        theta0 = float(body.split("=", 1)[1])
                    except (IndexError, ValueError) as exc:
                        raise ValueError(f"malformed theta0 metadata line: {line!r}") from exc
                continue
            if not header_seen:
                if [c.strip() for c in line.split(",")] != ["u", "w"]:
                    raise ValueError(f"prior file must have header 'u,w', got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"malformed prior row: {line!r}")
            rows.append((float(parts[0]), float(parts[1])))
    if theta0 is None:
        raise ValueError("prior file is missing the '# theta0=<value>' metadata line")
    if not rows:
        raise ValueError("prior file has no atom rows")
    rows.sort(key=lambda r: r[0])
    atoms = np.array([r[0] for r in rows])
    if np.any(np.diff(atoms) == 0):
        raise ValueError("prior file contains duplicate atoms (column u)")
    weights = np.array([r[1] for r in rows])
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
    than special-cased.
    """
    lo, hi = family.natural_domain
    if not (np.all(prior.atoms > lo) and np.all(prior.atoms < hi)):
        raise ValueError(
            f"prior atom outside natural domain {family.natural_domain} of model '{family.name}'"
        )
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
    """Log-sum-exp over the trailing axis, lean enough for the hot loops."""
    m = np.max(z, axis=-1)
    return m + np.log(np.sum(np.exp(z - m[..., None]), axis=-1))


class _Ctx:
    """Precomputed per-(prior, family) arrays for the hot paths."""

    __slots__ = ("atoms", "lw0", "B_atoms", "split", "plus", "minus", "points", "log_mass", "ux")

    def __init__(self, prior: Prior, family: NaturalFamily):
        self.atoms = prior.atoms
        self.lw0 = prior.log_weights
        self.B_atoms = np.asarray(family.log_partition(prior.atoms), dtype=float)
        self.plus = prior.upper_mask
        self.minus = ~self.plus
        # atoms are sorted, so the upper side is a contiguous suffix
        self.split = int(np.searchsorted(self.atoms, prior.theta0, side="right"))
        self.points = family.scheme.points
        self.log_mass = family.scheme.log_mass
        # (K, A) table of u_i * x_k - B(u_i), reused across layers
        self.ux = np.multiply.outer(self.points, self.atoms) - self.B_atoms


def _unnorm_log_weights(ctx: _Ctx, n: int, y):
    return ctx.lw0 + np.multiply.outer(np.asarray(y, dtype=float), ctx.atoms) - n * ctx.B_atoms


def _log_odds(ctx: _Ctx, n: int, y):
    z = _unnorm_log_weights(ctx, n, y)
    return _lse_last(z[..., ctx.split :]) - _lse_last(z[..., : ctx.split])


def _y_of_logit(ctx: _Ctx, n: int, target):
    """Invert y -> log-odds by 80 bisections inside an a-priori bracket.

    The slope of the log-odds in y is E_up[u] - E_lo[u], which lies between
    the atom gap across theta0 and the span of the atoms, so the root lies
    between (t - r0) / span and (t - r0) / gap, with r0 the log-odds at y = 0.
    Bisection avoids the flat saturated tails that defeat derivative-based
    methods.
    """
    t = np.asarray(target, dtype=float)
    gap = ctx.atoms[ctx.split] - ctx.atoms[ctx.split - 1]
    span = ctx.atoms[-1] - ctx.atoms[0]
    d = t - float(_log_odds(ctx, n, 0.0))
    y_lo = np.minimum(d / span, d / gap)
    y_hi = np.maximum(d / span, d / gap)
    for _ in range(80):
        mid = 0.5 * (y_lo + y_hi)
        r = _log_odds(ctx, n, mid)
        up = r < t
        y_lo = np.where(up, mid, y_lo)
        y_hi = np.where(up, y_hi, mid)
    return 0.5 * (y_lo + y_hi)


def _transition(ctx: _Ctx, n: int, y):
    """Yield (predictive mass, next pi) for each scheme outcome from (n, y).

    For outcome x_k the chain moves to q(n+1, y + x_k) with predictive mass
    sum_i w_i(n, y) exp{u_i x_k - B(u_i)} times the scheme's point mass.
    ``y`` may be a scalar or an array of states.
    """
    z = _unnorm_log_weights(ctx, n, y)
    lw = z - _lse_last(z)[..., None]
    for k in range(ctx.points.size):
        pred = np.exp(_lse_last(lw + ctx.ux[k]) + ctx.log_mass[k])
        yield pred, expit(_log_odds(ctx, n + 1, y + ctx.points[k]))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def posterior(prior: Prior, family: NaturalFamily, n: int, y: float) -> PosteriorState:
    """Posterior state at (n, y): exact reweighting of the prior atoms."""
    if n < 0:
        raise ValueError("observation count n must be non-negative")
    ctx = _Ctx(prior, family)
    z = _unnorm_log_weights(ctx, n, float(y))
    return PosteriorState(
        n=int(n), y=float(y), atoms=prior.atoms, log_weights=z - logsumexp(z)
    )


def log_odds_of_y(prior: Prior, family: NaturalFamily, n: int, y):
    """log-odds of the upper hypothesis at (n, y); increasing in y."""
    if n < 0:
        raise ValueError("observation count n must be non-negative")
    out = _log_odds(_Ctx(prior, family), n, y)
    return float(out) if np.ndim(y) == 0 else out


def pi_of_y(prior: Prior, family: NaturalFamily, n: int, y):
    """Posterior mass of the upper hypothesis, q(n, y) in (0, 1)."""
    out = expit(log_odds_of_y(prior, family, n, y))
    return float(out) if np.ndim(y) == 0 else out


def y_of_pi(prior: Prior, family: NaturalFamily, n: int, pi):
    """Level-curve coordinate: the unique y with q(n, y) = pi."""
    if n < 0:
        raise ValueError("observation count n must be non-negative")
    pi_arr = np.asarray(pi, dtype=float)
    if np.any(pi_arr <= LEVEL_EPS) or np.any(pi_arr >= 1.0 - LEVEL_EPS):
        raise ValueError("level curve out of numerical range: pi must lie in (1e-12, 1-1e-12)")
    out = _y_of_logit(_Ctx(prior, family), n, logit(pi_arr))
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
    weighted mean of next_pi equals pi (martingale property).
    """
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie strictly in (0, 1)")
    validate_prior_for_family(prior, family)
    ctx = _Ctx(prior, family)
    y = float(_y_of_logit(ctx, n, np.asarray(logit(pi), dtype=float)))
    weights, next_pi = (np.array(v) for v in zip(*_transition(ctx, n, y)))
    return next_pi, weights
