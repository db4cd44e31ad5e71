"""grunlab: a numerical laboratory for halfspace-mass inequalities.

Computes r-powered centroids, sectional volume profiles and halfspace mass
ratios of convex bodies and concave profiles, evaluates the sharp constants
of the Grunbaum inequality family, reproduces their equality cases exactly,
and probes sharpness with seeded falsification sweeps and extremal search.
"""

from importlib import resources

from .bodies import (
    Ball,
    Box,
    HistogramProfile,
    McEstimate,
    McSpec,
    Polytope2D,
    Polytope3D,
    Revolution,
    RoundTrip,
    SectionProfile,
    Simplex,
    body_from_json,
    body_to_json,
    centroid,
    exact_section_profile,
    halfspace_fraction,
    mc_halfspace_fraction,
    mc_section_profile,
    r_centroid_point,
    revolve,
    revolve_roundtrip,
    section_profile,
    section_volume,
    support_interval,
    verify_grunbaum_r,
    verify_makai_fradelizi,
    verify_minkowski_radon,
)
from .bounds import (
    CentroidDomination,
    ComparisonAffine,
    ComparisonValidation,
    SharpBound,
    build_comparison_affine,
    centroid_domination_check,
    classic_bounds,
    functional_bound,
    functional_root_limit,
    grunbaum_r_bound,
    jensen_bbl_bound,
    validate_comparison,
    verify_functional,
)
from .errors import (
    ConvergenceError,
    DegenerateBodyError,
    DegenerateProfileError,
    DomainError,
    FloatRangeError,
    GrunlabError,
    ParameterError,
    PreconditionError,
    ProfileError,
)
from .profiles import (
    BallSectionProfile,
    ConcaveProfile,
    ConcavityCheck,
    ConstantProfile,
    DecreasingPowerProfile,
    IncreasingPowerProfile,
    PiecewiseLinear,
    PowerProfile,
    SuperlevelCheck,
    alpha_centroid,
    evaluate,
    moment_integral,
    p_concavity_check,
    power_profile,
    powered_integral,
    profile_from_json,
    profile_to_json,
    reflect,
    superlevel_masses,
    superlevel_measure_concavity_check,
    tail_mass_ratio,
    tail_masses,
)
from .quadrature import unit_ball_volume
from .reports import TheoremReport, make_report, reports_to_csv
from .search import (
    SearchConfig,
    SearchResult,
    SweepTable,
    minimize_tail_ratio,
    profile_hash,
    random_concave,
    sweep,
    tail_ratio_grid,
)

__version__ = "0.1.0"


def fixture_path(name):
    """Filesystem path of a bundled fixture JSON (e.g. 'cone3.json')."""
    return resources.files(__package__) / "fixtures" / name
