"""Natural exponential-family observation models.

Every model here is a density exp{u*x - B(u)} against a base measure nu,
wrapped in a :class:`NaturalFamily`.  The support of nu is represented by an
:class:`ObservationScheme` holding a finite weighted point set: the exact
outcomes for discrete models, or a fixed quadrature rule standing in for a
continuous base measure.  Downstream posterior-predictive expectations are
therefore plain finite sums for every model, and all mass computations run
in log space (u*y - n*B(u) spans hundreds of nats for moderate n).

Named constructors cover the standard models, each stated in its natural
parameter u and the sufficient statistic x it observes:

* ``gaussian-mean``      observations N(u, 1); B(u) = u^2/2
* ``bernoulli``          u = logit(p); B(u) = log(1+e^u)
* ``binomial(N)``        counts 0..N with base weights C(N,x)
* ``exponential-rate``   x = -X for X ~ Exp(u); B(u) = -log u
* ``gaussian-variance``  x = -X^2/2 for X ~ N(0, s^2), u = s^-2, so a
                         small s is a large u; B(u) = -log(u)/2
"""

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import logsumexp, ndtri

__all__ = [
    "ObservationScheme",
    "NaturalFamily",
    "log_partition",
    "sample_observation",
    "make_named_family",
    "family_for_prior",
    "family_from_scheme_csv",
]

# doubles a surface, a level-curve table, a quadrature rule's companion
# matrix or the replay's band table may hold: 800 MB
_MAX_VALUES = 10**8
# numpy's Gauss-Hermite rule keeps every weight positive and finite up to
# this many nodes; at 371 a weight underflows to 0, and from 372 on the rule
# holds nans
_HERMITE_MAX_NODES = 370


@dataclass(frozen=True)
class ObservationScheme:
    """Finite weighted representation of the base measure's support.

    kind "finite": ``points`` are the actual outcomes and ``base_weights``
    the base-measure masses h(x).  kind "continuous": ``points`` are
    quadrature nodes, ``base_weights`` the quadrature weights, and
    ``log_base_density`` evaluates log h(x).  ``log_mass[k]`` is the log of
    the total point mass at node k, so that the probability (or quadrature
    weight) of node k under parameter u is exp{log_mass[k] + u*x_k - B(u)}.
    """

    kind: str
    points: np.ndarray
    base_weights: np.ndarray
    log_base_density: Callable | None = None
    log_mass: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("finite", "continuous"):
            raise ValueError(f"scheme kind must be 'finite' or 'continuous', got {self.kind!r}")
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.base_weights, dtype=float)
        if pts.ndim != 1 or pts.shape != w.shape or pts.size == 0:
            raise ValueError("scheme points and base weights must be matching non-empty 1-d arrays")
        if not np.all(np.isfinite(pts)):
            raise ValueError("scheme points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("scheme points must be distinct and strictly increasing")
        if not np.all(w > 0):
            raise ValueError("scheme base weights must be strictly positive")
        if not np.all(np.isfinite(w)):
            raise ValueError("scheme base weights overflowed; reduce the node count")
        if self.kind == "continuous" and self.log_base_density is None:
            raise ValueError("continuous scheme requires a log base-density evaluator")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "base_weights", w)
        lm = np.log(w)
        if self.kind == "continuous":
            lm = lm + self.log_base_density(pts)
        lm.setflags(write=False)
        object.__setattr__(self, "log_mass", lm)

    @property
    def n_points(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class NaturalFamily:
    """Observation model p_u(x) = exp{u*x - B(u)} against a base measure.

    Immutable after construction; safe for shared concurrent use.
    ``sampler(u, rng, size)`` is the model's inverse CDF applied to
    ``rng.random(size)`` (to ``rng.random(np.shape(u))`` when ``size`` is
    None): it reads nothing from ``rng`` but those uniforms, so any object
    with a ``random(size)`` method can supply them, and the family holds no
    mutable state.  ``scheme_domain``, when set, is the open parameter range
    over which the (quadrature) scheme keeps the transition law's mass and
    mean to ~1e-13; priors with atoms outside it are rejected by the engine.
    Kinked value layers integrate less well: the gap to the closed-form last
    layer reaches 1.25e-3 on gaussian-mean at 128 nodes.
    """

    name: str
    log_partition: Callable
    natural_domain: tuple
    scheme: ObservationScheme
    sampler: Callable
    scheme_domain: tuple | None = None


def _require_in_domain(domain: tuple, name: str, u, what: str = "parameter"):
    """Refuse any ``u`` outside the open natural ``domain`` of model ``name``; ``what`` words the error."""
    lo, hi = domain
    u = np.asarray(u, dtype=float)
    if not (np.all(u > lo) and np.all(u < hi)):
        raise ValueError(f"{what} outside natural domain {domain} of model '{name}'")


def log_partition(family: NaturalFamily, u):
    """B(u), the log normalizer of the family at natural parameter u."""
    _require_in_domain(family.natural_domain, family.name, u)
    out = family.log_partition(np.asarray(u, dtype=float))
    return float(out) if np.ndim(u) == 0 else out


def _inverse_cdf(quantile):
    """The sampler drawing ``quantile(u, U)`` at the uniforms U = rng.random(size).

    ``size`` is the shape of the draws, as for a numpy Generator, and ``u``
    is broadcast to it.
    """

    def sampler(u, rng, size=None):
        u = np.asarray(u, dtype=float)
        U = np.asarray(rng.random(u.shape if size is None else size))
        return quantile(np.broadcast_to(u, U.shape), U)

    return sampler


def sample_observation(family: NaturalFamily, u, rng, size=None):
    """Draw observations with law P(X in A | parameter u); deterministic given rng.

    Each draw is the model's inverse CDF at one uniform from ``rng.random``.
    """
    _require_in_domain(family.natural_domain, family.name, u)
    return family.sampler(u, rng, size)


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------


def _quadrature_family(name, x, w, log_h, B, quantile, window) -> NaturalFamily:
    """Continuous family: B(u) on the natural domain ``_QUADRATURE`` states for
    ``name``, the base log-density ``log_h`` integrated by the rule of nodes
    ``x`` and weights ``w``, draws ``quantile(u, U)``, and ``window`` the
    scheme's accurate parameter range."""
    scheme = ObservationScheme(kind="continuous", points=x, base_weights=w, log_base_density=log_h)
    return NaturalFamily(name, B, _QUADRATURE[name][1], scheme, _inverse_cdf(quantile), window)


def _outcome_cdf(scheme: ObservationScheme, u):
    """Partial sums of a finite scheme's outcome masses at each parameter in ``u``.

    The masses are taken up to a common factor per parameter, with the
    outcomes on the leading axis and summed in place down it, so ``cdf[-1]``
    is the total.  Each column is computed from its own parameter alone, so
    it does not depend on the shape ``u`` is broadcast to; the replay's
    threshold table (``simulate._thresholds``) relies on that.
    """
    log_mass = scheme.log_mass
    z = np.multiply.outer(scheme.points, u)
    z += log_mass.reshape(log_mass.shape + (1,) * np.ndim(u))
    z -= z.max(axis=0)
    cdf = np.exp(z, out=z)
    for k in range(1, log_mass.size):
        cdf[k] += cdf[k - 1]
    return cdf


def _finite_family(name, scheme: ObservationScheme, log_partition_fn):
    """Finite-outcome family on the whole real line, sampled by its outcome CDF."""
    points = scheme.points

    def quantile(u, U):
        # the index counts the partial sums below U times the total
        cdf = _outcome_cdf(scheme, u)
        return points[np.sum(U * cdf[-1] > cdf[:-1], axis=0)]

    return NaturalFamily(
        name=name,
        log_partition=log_partition_fn,
        natural_domain=(-math.inf, math.inf),
        scheme=scheme,
        sampler=_inverse_cdf(quantile),
    )


@functools.lru_cache(maxsize=8)
def _gauss_rule(kind: str, nodes: int):
    """The Gauss-Hermite ("hermite") or Gauss-Legendre ("legendre") rule of
    ``nodes`` points as read-only arrays, kept across family builds.

    numpy takes about 16 ms to build a 128-point rule, nearly the whole
    cost of a continuous ``family_for_prior``, and the probe builds one
    family per random prior.
    """
    build = np.polynomial.hermite.hermgauss if kind == "hermite" else np.polynomial.legendre.leggauss
    rule = build(nodes)
    for a in rule:
        a.setflags(write=False)
    return rule


def _graded_legendre(nodes: int, T: float, a: float):
    """Nodes x = -a t^2 at the Gauss-Legendre points t of (0, T), in increasing x,
    and their weights 2a t dt."""
    g, gw = _gauss_rule("legendre", nodes)
    t = 0.5 * T * (g + 1.0)
    tw = 0.5 * T * gw
    x = -a * t * t
    w = 2.0 * a * t * tw
    order = np.argsort(x)
    return x[order], w[order]


def _gaussian_mean(nodes: int, center: float = 0.0) -> NaturalFamily:
    # Gauss-Hermite nodes recentred at `center`; at 128 nodes the transition
    # law's mass and mean hold to ~1e-13 for parameters within roughly +-10
    # of the center, kinked value layers only to ~1e-3.
    if nodes > _HERMITE_MAX_NODES:
        raise ValueError(f"nodes for model 'gaussian-mean' must be at most {_HERMITE_MAX_NODES}, got {nodes}: "
                         "the Gauss-Hermite weights underflow beyond it")
    s, w = _gauss_rule("hermite", nodes)
    x = center + math.sqrt(2.0) * s
    base = np.exp(np.log(w) + s * s + 0.5 * math.log(2.0))
    return _quadrature_family("gaussian-mean", x, base,
                              log_h=lambda t: -0.5 * t * t - 0.5 * math.log(2.0 * math.pi),
                              B=lambda u: 0.5 * u * u, quantile=lambda u, U: u + ndtri(U),
                              window=(center - 10.0, center + 10.0))


def _binomial(n: int, name: str | None = None) -> NaturalFamily:
    """Counts 0..N out of ``n`` trials; ``n = 1`` under the name "bernoulli" is that model.

    N is at most 1029: C(1030, 515) exceeds the largest double.
    """
    n = _count(n, "binomial trial count N", 1)
    if n > 1029:
        raise ValueError(f"binomial trial count N must be at most 1029, got {n}: "
                         "C(N, N/2) overflows a double beyond it")
    pts = np.arange(n + 1, dtype=float)
    weights = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    scheme = ObservationScheme(kind="finite", points=pts, base_weights=weights)
    return _finite_family(name or f"binomial({n})", scheme, lambda u: n * np.logaddexp(0.0, u))


def _exponential_rate(nodes: int, min_rate: float = 0.25) -> NaturalFamily:
    # Stored observation is -X; support (-inf, 0) with h = 1.  Nodes are
    # graded as x = -t^2 so the boundary layer near 0 is resolved for the
    # whole rate range [min_rate, inf); window sized so that the truncated
    # tail mass is below 1e-17 at u = min_rate.
    x, w = _graded_legendre(nodes, math.sqrt(40.0 / min_rate), 1.0)
    return _quadrature_family("exponential-rate", x, w, log_h=lambda s: np.zeros_like(s),
                              B=lambda u: -np.log(u), quantile=lambda u, U: np.log1p(-U) / u,
                              window=(min_rate, math.inf))


def _gaussian_variance(nodes: int, min_precision: float = 0.25) -> NaturalFamily:
    # Stored observation is -X^2/2, natural parameter u = sigma^-2 (note the
    # order reversal: small original sigma means LARGE u).  Support is
    # (-inf, 0) with h(x) = (-pi*x)^(-1/2); nodes graded as x = -t^2/2 which
    # turns the integrand into a half-Gaussian in t.
    x, w = _graded_legendre(nodes, 9.0 / math.sqrt(min_precision), 0.5)
    return _quadrature_family("gaussian-variance", x, w, log_h=lambda s: -0.5 * np.log(-np.pi * s),
                              B=lambda u: -0.5 * np.log(u), quantile=lambda u, U: -np.square(ndtri(U)) / (2.0 * u),
                              window=(min_precision, math.inf))


# The quadrature models: each one's constructor, whose defaults give the window
# make_named_family builds, its natural domain, and its window as family_for_prior
# sizes it from the prior's atoms.  The finite models, bernoulli and binomial(N),
# take no params and have the whole real line.
_QUADRATURE = {
    "gaussian-mean": (_gaussian_mean, (-math.inf, math.inf), lambda atoms: 0.5 * (atoms.min() + atoms.max())),
    "exponential-rate": (_exponential_rate, (0.0, math.inf), lambda atoms: float(atoms.min())),
    "gaussian-variance": (_gaussian_variance, (0.0, math.inf), lambda atoms: float(atoms.min())),
}
_BINOMIAL_RE = re.compile(r"^binomial\((\d+)\)$")


def make_named_family(name: str, params: dict | None = None) -> NaturalFamily:
    """Build one of the named models, e.g. ``make_named_family("binomial(3)")``.

    bernoulli and binomial(N) take no params.  The quadrature models take
    ``nodes`` alone (default 128) and get the default window, centred at 0
    for gaussian-mean and from 0.25 up for the other two; ``family_for_prior``
    sizes it from a prior instead.
    Sizes that cannot be built are refused before anything is: N above
    1029, gaussian-mean above 370 nodes and any model above 10^4 nodes.
    Priors and thresholds are natural parameters; for gaussian-variance
    u = s^-2, so "s <= s0" is the upper side u > s0^-2.
    """
    return _named_family(name, params or {})


def _named_family(name: str, params: dict, atoms=None) -> NaturalFamily:
    """The model ``name`` with ``params`` checked; a quadrature model's window is sized from ``atoms`` if given."""
    base = name.strip()
    if base in _QUADRATURE:
        build, domain, window = _QUADRATURE[base]
        if atoms is not None:
            _require_in_domain(domain, base, atoms, "prior atom")
        unknown = sorted(set(params) - {"nodes"})
        if unknown:
            raise ValueError(f"model '{base}' takes only nodes, got {', '.join(unknown)}")
        nodes = _count(params.get("nodes", 128), f"nodes for model '{base}'", 1)
        # numpy builds a rule from a nodes x nodes companion matrix
        if nodes * nodes > _MAX_VALUES:
            raise ValueError(f"nodes for model '{base}' must be at most {math.isqrt(_MAX_VALUES)}, got {nodes}: "
                             f"a rule is built from a nodes x nodes matrix, over the budget of {_MAX_VALUES} values")
        return build(nodes) if atoms is None else build(nodes, window(atoms))
    m = _BINOMIAL_RE.match(base)
    if not (m or base in ("bernoulli", "binomial")):
        raise ValueError(f"unknown model '{name}'")
    if "nodes" in params:
        raise ValueError(f"nodes applies only to the quadrature models ({', '.join(_QUADRATURE)}), not '{base}'")
    if params:
        raise ValueError(f"model '{base}' takes no params, got {', '.join(sorted(params))}")
    if base == "binomial":
        raise ValueError("binomial requires a trial count, e.g. 'binomial(3)'")
    return _binomial(int(m.group(1))) if m else _binomial(1, "bernoulli")


def family_for_prior(name: str, atoms, params: dict | None = None) -> NaturalFamily:
    """Named family with its scheme window sized from the prior's atoms.

    ``atoms`` may be an array of natural parameters or anything with an
    ``atoms`` attribute, and ``params`` are those of ``make_named_family``.
    Finite-outcome models have no window to size.  An atom outside the
    model's natural domain is refused in the words of
    ``validate_prior_for_family``; the posterior code checks the rest.
    """
    return _named_family(name, params or {}, np.asarray(getattr(atoms, "atoms", atoms), dtype=float))


def _count(value, name: str, least: int = 0) -> int:
    """``value`` as an int, refusing a bool, a value that is not an integer
    (Python's or numpy's) and one below ``least``; ``name`` words the error."""
    try:
        count = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return count


def _positive_finite(value, name: str = "cost") -> float:
    """``value`` as a float, refusing zero, negative, nan and infinite values; ``name`` words the error."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _read_rows(path, what: str, header: tuple, names: tuple):
    """``(comments, first, second)`` from a CSV of ``#`` lines, the header
    ``header`` and rows of two finite numbers, the second positive and the first
    never repeated; the columns come sorted by the first.  Errors name the file
    as ``what`` and the columns by ``names``, and quote the row at fault.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    comments = [line for line in lines if line.startswith("#")]
    table = [line for line in lines if not line.startswith("#")]
    if table and [c.strip() for c in table[0].split(",")] != list(header):
        raise ValueError(f"{what} file must have header '{','.join(header)}', got {table[0]!r}")
    rows = {}
    for line in table[1:]:
        try:
            a, b = (float(c) for c in line.split(","))
        except ValueError:
            raise ValueError(f"malformed {what} row: {line!r}") from None
        for value, name in zip((a, b), names):
            if not math.isfinite(value):
                raise ValueError(f"{what} {name} must be finite, got row {line!r}")
        if not b > 0:
            raise ValueError(f"{what} {names[1]} must be strictly positive, got row {line!r}")
        if a in rows:
            raise ValueError(f"{what} file contains duplicate {header[0]} values, got row {line!r}")
        rows[a] = b
    if not rows:
        raise ValueError(f"{what} file has no data rows")
    first = sorted(rows)
    return comments, np.array(first), np.array([rows[a] for a in first])


def family_from_scheme_csv(path) -> NaturalFamily:
    """Finite family named "custom" from a CSV with header ``x,h`` (x and h finite, h > 0).

    B(u) is computed by log-sum-exp over the outcomes, so the natural
    domain is the whole real line.
    """
    _, xs, hs = _read_rows(path, "scheme", ("x", "h"), ("points", "base weights"))
    scheme = ObservationScheme(kind="finite", points=xs, base_weights=hs)
    log_h = np.log(hs)

    def B(u):
        u = np.asarray(u, dtype=float)
        return logsumexp(log_h + np.multiply.outer(u, xs), axis=-1)

    return _finite_family("custom", scheme, B)
