"""Simultaneous root finding for the hypersimplex counting polynomial.

The polynomial is evaluated in product form (never from expanded monomial
coefficients): each alternating-sum term is a product of n-1 linear factors,
accumulated together with its derivative under a shared power-of-two
exponent.  That keeps full relative accuracy at degrees where expanded
coefficients would overflow doubles.  One batched evaluator, `_eval_vec`,
does this for all d terms and a whole array of points at once; each point
gets the same bits alone as in any batch.  The solver sweeps, the residual
certificates, the real-axis snap and the single-point functions
(`evaluate_scaled`, `log_derivative`, `residual`) all call it.

The solver is the Ehrlich-Aberth simultaneous iteration with deterministic,
seed-rotated initial points on circles read off the coefficient Newton
polygon; each sweep evaluates only the roots that have not yet converged.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import mpmath as mp
import numpy as np

from .ehrhart import HypersimplexParams, ehrhart_polynomial
from .errors import EvaluationAtRoot
from .scaled import ScaledComplex

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap, relative residual target, and seed for initial placement.

    tolerance=None selects 1e-10 for degrees up to 59 and 1e-8 above, where
    conditioning is worse.
    """

    max_iterations: int = 200
    tolerance: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError("tolerance must be positive")

    def resolved_tolerance(self, degree: int) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-10 if degree < 60 else 1e-8


@dataclass(frozen=True)
class RootSet:
    """All complex roots (with multiplicity), each with a residual certificate."""

    roots: Tuple[complex, ...]
    residuals: Tuple[float, ...]
    iterations: int
    converged: bool

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def _log2_int(value: int) -> float:
    shift = max(0, value.bit_length() - 60)
    return math.log2(value >> shift) + shift


def _log2_fraction(value: Fraction) -> float:
    if value == 0:
        return -math.inf
    return _log2_int(abs(value.numerator)) - _log2_int(value.denominator)


def _int_mantissa_exponent(value: int) -> Tuple[float, int]:
    shift = max(0, value.bit_length() - 60)
    return float(value >> shift if shift else value), shift


def _point_sums(params: HypersimplexParams, z: complex):
    """Scaled (n-1)! * p(z) and (n-1)! * p'(z) at one point (`_eval_vec` of size 1)."""
    S, Sp, E = _eval_vec(params.d, params.n, np.array([complex(z)]))
    exponent = int(E[0])
    return ScaledComplex(S[0], exponent), ScaledComplex(Sp[0], exponent)


def evaluate_scaled(params: HypersimplexParams, z: complex) -> ScaledComplex:
    """Value of the counting polynomial at a complex point, in scaled form."""
    total, _ = _point_sums(params, z)
    return total / ScaledComplex.from_int(math.factorial(params.n - 1))


def log_derivative(params: HypersimplexParams, z: complex) -> complex:
    """p'(z)/p(z), accumulated by the product rule so vanishing factors are safe."""
    total, total_d = _point_sums(params, z)
    if total.is_zero:
        raise EvaluationAtRoot(f"polynomial value vanished at {z}")
    return (total_d / total).to_complex()


def _coefficient_logs(params: HypersimplexParams) -> np.ndarray:
    poly = ehrhart_polynomial(params)
    return np.array([_log2_fraction(c) for c in poly.coeffs], dtype=float)


def _initial_points(params: HypersimplexParams, seed: int) -> np.ndarray:
    """Deterministic starting points on Newton-polygon circles.

    The upper convex hull of (k, log2|c_k|) partitions the degree into
    annuli whose radii estimate the root moduli; angles are equally spaced
    with a seed-derived irrational rotation so the start breaks the real-axis
    symmetry of the polynomial.
    """
    logs = _coefficient_logs(params)
    degree = params.n - 1
    pts = [(k, lk) for k, lk in enumerate(logs) if lk != -math.inf]
    hull = []
    for k, y in pts:
        while len(hull) >= 2:
            (k1, y1), (k2, y2) = hull[-2], hull[-1]
            # pop middle points on or below the chord (upper hull)
            if (y2 - y1) * (k - k1) <= (y - y1) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append((k, y))
    radii = np.empty(degree)
    pos = 0
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        r = 2.0 ** ((y1 - y2) / (k2 - k1))
        radii[pos:pos + (k2 - k1)] = r
        pos += k2 - k1
    phase = 2.0 * math.pi * math.modf(_GOLDEN * (seed + 1))[0]
    angles = 2.0 * math.pi * (np.arange(degree) + 0.5) / degree + phase
    return radii * np.exp(1j * angles)


def _eval_vec(d: int, n: int, z: np.ndarray):
    """Vectorized product-form evaluation with shared power-of-two exponents.

    Returns mantissas (S, Sp) and the per-point exponent E so that
    (n-1)! * p(z) = S * 2**E and (n-1)! * p'(z) = Sp * 2**E.

    The d alternating-sum terms are rows of (d, len(z)) arrays, built up
    one linear factor at a time.  A row is rescaled by powers of two when
    any of its entries strays beyond 2**+-200; that multiplies the others by
    exactly 1, so every point gets the same bits whether it is evaluated
    alone or in a batch.
    """
    index = np.arange(d)[:, None]
    # complex constants spare numpy a cast per operation; the values are exact
    slope = (d - index).astype(complex)
    offsets = (np.arange(1, n)[:, None, None] - index).astype(complex)
    slope_z = slope * z[None, :]
    prod = np.ones(slope_z.shape, dtype=complex)
    prod_d = np.zeros(slope_z.shape, dtype=complex)
    exps = np.zeros(slope_z.shape, dtype=np.int64)
    for k in range(1, n):
        factor = slope_z + offsets[k - 1]
        # out of place on purpose: numpy's in-place complex multiply rounds
        # differently on a one-element array, which would break batch-independence
        prod_d = prod_d * factor + prod * slope
        prod = prod * factor
        if k % 16 == 0 or k == n - 1:
            mag = np.maximum(np.abs(prod), np.abs(prod_d))
            _, e = np.frexp(mag)
            adjust = np.where(np.abs(e) > 200, e, 0)
            rows = adjust.any(axis=1)
            if rows.any():
                adjust = adjust[rows]
                scale = np.ldexp(1.0, -adjust)
                prod[rows] *= scale
                prod_d[rows] *= scale
                exps[rows] += adjust
    acc = acc_d = acc_e = None
    for s in range(d):
        cm, ce = _int_mantissa_exponent(math.comb(n, s))
        if s % 2:
            cm = -cm
        term = prod[s] * cm
        term_d = prod_d[s] * cm
        term_e = exps[s] + ce
        if acc is None:
            acc, acc_d, acc_e = term, term_d, term_e
            continue
        top = np.maximum(acc_e, term_e)
        down_old = np.ldexp(1.0, np.maximum(acc_e - top, -1074).astype(np.int32))
        down_new = np.ldexp(1.0, np.maximum(term_e - top, -1074).astype(np.int32))
        acc = acc * down_old + term * down_new
        acc_d = acc_d * down_old + term_d * down_new
        acc_e = top
    return acc, acc_d, acc_e


def _residual_logs(
    coeff_logs: np.ndarray, value_log2: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """residual = |p(z)| / sum_k |c_k| |z|^k, all in log2 space."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logz = np.log2(np.abs(z))
        k = np.arange(coeff_logs.shape[0])[:, None]
        terms = coeff_logs[:, None] + k * logz[None, :]
    terms[0, :] = coeff_logs[0]  # k=0 term is |c_0| even at z=0
    np.nan_to_num(terms, copy=False, nan=-np.inf)  # 0 * log(0) rows at z=0
    top = terms.max(axis=0)
    # summed row after row, as sum(axis=0) does for two or more points (it
    # sums a single column pairwise), so a point's residual is batch-independent
    denom = top + np.log2(np.cumsum(np.exp2(terms - top[None, :]), axis=0)[-1])
    return np.exp2(value_log2 - denom)


def _values_log2(mantissa: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log2(np.abs(mantissa)) + exponent


def _extended_precision_roots(params: HypersimplexParams) -> Optional[np.ndarray]:
    """Root approximations at a working precision sized to the coefficients.

    Near the root cloud of strongly cancelling instances (n close to 2d with
    large d) the alternating sum loses more digits than a double carries, so
    the simultaneous iteration is repeated on the exact coefficients with
    enough guard bits to cover the coefficient spread.
    """
    poly = ehrhart_polynomial(params)
    logs = [_log2_fraction(c) for c in poly.coeffs if c != 0]
    spread = max(logs) - min(logs)
    extraprec = int(1.5 * max(spread, 0.0)) + 96
    try:
        with mp.workprec(extraprec + 70):
            cs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in reversed(poly.coeffs)]
            found = mp.polyroots(cs, maxsteps=400, extraprec=extraprec)
    except mp.libmp.NoConvergence:
        return None
    return np.array([complex(float(mp.re(r)), float(mp.im(r))) for r in found])


def _residuals(params: HypersimplexParams, coeff_logs: np.ndarray, z: np.ndarray) -> np.ndarray:
    S, _, E = _eval_vec(params.d, params.n, z)
    value_log2 = _values_log2(S, E) - _log2_int(math.factorial(params.n - 1))
    return _residual_logs(coeff_logs, value_log2, z)


def _finish(params, z, tol, iterations, clean_exit, coeff_logs) -> RootSet:
    residuals = _residuals(params, coeff_logs, z)

    # snap numerically-real roots onto the axis when the certificate allows
    snapped = z.copy()
    near = np.flatnonzero(
        (z.imag != 0) & (np.abs(z.imag) <= 10 * tol * (1 + np.abs(z.real)))
    )
    if near.size:
        candidates = z.real[near].astype(complex)
        snap_residuals = _residuals(params, coeff_logs, candidates)
        ok = snap_residuals <= tol
        snapped[near[ok]] = candidates[ok]
        residuals[near[ok]] = snap_residuals[ok]
    order = np.lexsort((snapped.imag, snapped.real))
    snapped = snapped[order]
    residuals = residuals[order]

    converged = bool(clean_exit and (residuals <= tol).all())
    return RootSet(
        roots=tuple(complex(v) for v in snapped),
        residuals=tuple(float(r) for r in residuals),
        iterations=iterations,
        converged=converged,
    )


def find_roots(
    params: HypersimplexParams, config: Optional[SolverConfig] = None
) -> RootSet:
    """All n-1 complex roots by Ehrlich-Aberth iteration.

    Deterministic given the seed.  Convergence demands both a small final
    correction and a residual certificate at or below the tolerance.  If the
    double-precision sweep cannot meet that (evaluation noise exceeds the
    target when the alternating sum cancels too deeply), the roots are
    recomputed once at extended precision; `iterations` always reports the
    double-precision sweeps.  Failing both, the best iterate is returned
    with converged=False.
    """
    config = config or SolverConfig()
    d, n = params.d, params.n
    degree = n - 1
    tol = config.resolved_tolerance(degree)
    coeff_logs = _coefficient_logs(params)

    z = _initial_points(params, config.seed)
    active = np.ones(degree, dtype=bool)
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        idx = np.flatnonzero(active)
        z_active = z[idx]
        S, Sp, _ = _eval_vec(d, n, z_active)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = S / Sp  # shared exponent cancels in p/p'
        w[~np.isfinite(w)] = 0.0
        diff = z_active[:, None] - z[None, :]
        diff[np.arange(idx.size), idx] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * repulsion
        with np.errstate(divide="ignore", invalid="ignore"):
            correction = np.where(denom != 0, w / denom, w)
        correction[~np.isfinite(correction)] = 0.0
        z[idx] = z_active - correction
        done = np.abs(correction) <= tol * (1.0 + np.abs(z[idx]))
        active[idx[done]] = False
        if not active.any():
            break

    result = _finish(params, z, tol, iterations, not active.any(), coeff_logs)
    if result.converged:
        return result
    fallback = _extended_precision_roots(params)
    if fallback is None:
        return result
    retried = _finish(params, fallback, tol, iterations, True, coeff_logs)
    return retried if retried.converged else result


def residual(params: HypersimplexParams, root: complex) -> float:
    """Relative backward error |p(root)| / sum_k |c_k| |root|^k."""
    coeff_logs = _coefficient_logs(params)
    return float(_residuals(params, coeff_logs, np.array([complex(root)]))[0])
