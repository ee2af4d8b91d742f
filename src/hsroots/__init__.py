"""Exact Ehrhart polynomials of hypersimplices, their roots, and rigorous
certification of the root strip -n/d < Re < 0.

Importing the package loads none of its submodules and not numpy. Each
public name, and each submodule (`hsroots.roots`, `hsroots.stability`, ...),
is imported on first use through the module `__getattr__` (PEP 562) and kept
in the package namespace from then on. The exact layer (`ehrhart`,
`lattice`, `polynomial`) runs without numpy; the first name from `roots`,
`stability`, `bounds` or `campaign` loads it.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "bounds": (
        "ContourSpec", "MarginReport", "aida_bound", "check_aida", "check_d4_sum_bound",
        "check_h_negative", "check_hidari", "check_migi", "default_beta_grid",
        "f_term_modulus", "phi", "rouche_margin",
    ),
    "campaign": ("CampaignConfig", "CampaignRow", "VerificationReport", "run_campaign"),
    "ehrhart": ("HypersimplexParams", "ehrhart_polynomial", "normalized_volume", "term_polynomial"),
    "lattice": ("CountQuery", "count_points", "count_points_naive"),
    "polynomial": ("RationalPolynomial",),
    "roots": ("RootSet", "SolverConfig", "find_roots", "find_roots_many", "residual"),
    "stability": (
        "StabilityVerdict", "StripVerdict", "inclusion_strip", "reflect_polynomial",
        "routh_hurwitz", "shift_polynomial", "verify_half_plane", "verify_strip",
        "verify_strip_many",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "errors")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
