"""Exact Ehrhart polynomials of hypersimplices, their roots, and rigorous
certification of the root strip -n/d < Re < 0."""

from .bounds import (
    ContourSpec,
    MarginReport,
    aida_bound,
    check_aida,
    check_d4_sum_bound,
    check_h_negative,
    check_hidari,
    check_migi,
    default_beta_grid,
    f_term_modulus,
    phi,
    rouche_margin,
)
from .campaign import CampaignConfig, CampaignRow, VerificationReport, run_campaign
from .ehrhart import (
    HypersimplexParams,
    binomial,
    ehrhart_polynomial,
    evaluate_exact,
    normalized_volume,
    term_polynomial,
)
from .lattice import CountQuery, count_points, count_points_naive, in_sublattice
from .polynomial import RationalPolynomial
from .roots import (
    RootSet,
    SolverConfig,
    evaluate_scaled,
    find_roots,
    find_roots_many,
    log_derivative,
    residual,
)
from .stability import (
    StabilityVerdict,
    StripVerdict,
    inclusion_strip,
    reflect_polynomial,
    routh_hurwitz,
    shift_polynomial,
    verify_half_plane,
    verify_strip,
    verify_strip_many,
)
from .svgplot import emit_svg, write_group_svgs

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "CampaignRow",
    "ContourSpec",
    "CountQuery",
    "HypersimplexParams",
    "MarginReport",
    "RationalPolynomial",
    "RootSet",
    "SolverConfig",
    "StabilityVerdict",
    "StripVerdict",
    "VerificationReport",
    "aida_bound",
    "binomial",
    "check_aida",
    "check_d4_sum_bound",
    "check_h_negative",
    "check_hidari",
    "check_migi",
    "count_points",
    "count_points_naive",
    "default_beta_grid",
    "ehrhart_polynomial",
    "emit_svg",
    "evaluate_exact",
    "evaluate_scaled",
    "f_term_modulus",
    "find_roots",
    "find_roots_many",
    "in_sublattice",
    "inclusion_strip",
    "log_derivative",
    "normalized_volume",
    "phi",
    "reflect_polynomial",
    "residual",
    "rouche_margin",
    "routh_hurwitz",
    "run_campaign",
    "shift_polynomial",
    "term_polynomial",
    "verify_half_plane",
    "verify_strip",
    "verify_strip_many",
    "write_group_svgs",
]
