"""Bayesian sequential testing of one-sided composite hypotheses.

Exact posterior propagation for natural exponential-family observations
under finite atomic priors, a backward-induction solver for the optimal
stopping value surface and boundaries, numerical certification of the
surface's structural properties, and Monte Carlo policy evaluation against
an exact lattice oracle.
"""

from .families import (
    NaturalFamily,
    ObservationScheme,
    family_for_prior,
    family_from_scheme_csv,
    log_partition,
    make_named_family,
    sample_observation,
)
from .priors import (
    PosteriorState,
    Prior,
    load_prior_csv,
    log_odds_of_y,
    make_prior,
    mass_below,
    pi_of_y,
    posterior,
    save_prior_csv,
    transition_distribution,
    validate_prior_for_family,
    y_of_pi,
)
from .solver import (
    PolicyDecision,
    ValueSurface,
    bellman_step,
    brute_force_value,
    choose_horizon,
    enumerate_reachable_pis,
    extract_boundaries,
    gain,
    make_grid,
    policy_decide,
    read_boundaries_csv,
    read_surface_json,
    solve,
    value_at,
    write_boundaries_csv,
    write_surface_json,
    write_value_layers_csv,
)
from .checks import (
    PROBE_WINDOWS,
    CheckReport,
    check_binomial_reduction,
    check_concavity,
    check_concentration,
    check_convex_order,
    check_level_spread,
    check_time_monotonicity,
    conjecture_probe,
    default_burn,
    sample_random_prior,
)
from .simulate import (
    FixedSampleRule,
    SimulationReport,
    ThresholdRule,
    simulate_alternative,
    simulate_policy,
)

__version__ = "0.1.0"
