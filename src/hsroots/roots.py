"""Simultaneous root finding for the hypersimplex counting polynomial.

The polynomial is evaluated in product form (never from expanded monomial
coefficients): each alternating-sum term is a product of n-1 linear factors,
accumulated together with its derivative under a shared power-of-two
exponent.  That keeps full relative accuracy at degrees where expanded
coefficients would overflow doubles.  One factor loop, `_term_products`,
builds all d terms for a whole array of points at once, each point with the
same bits alone as in any batch.  `_eval_vec` sums them for the solver, the
residual certificates, the real-axis snap and the single-point functions
(`evaluate_scaled`, `log_derivative`, `residual`); `bounds` takes its
modulus ratios from the same terms.

The solver is the Ehrlich-Aberth simultaneous iteration with deterministic,
seed-rotated initial points on circles read off the coefficient Newton
polygon; each sweep evaluates only the roots that have not yet converged.
The evaluator also returns the summed moduli of the alternating-sum terms,
which bound its rounding error.  Near n = 2d the sum cancels below that
noise floor; a root whose value sinks into the noise leaves the double
sweep, and the iterates are then refined by further sweeps whose Newton
ratios come from a fixed-point Gaussian-integer Horner scheme on the exact
integer coefficients (`_horner_fixed`).  Only each ratio is rounded to
double; the repulsion and the update stay in doubles.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .ehrhart import HypersimplexParams, ehrhart_polynomial
from .errors import EvaluationAtRoot, InvalidParams
from .scaled import ScaledComplex
from .stability import _integer_coefficients

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
            raise InvalidParams("max_iterations must be >= 1")
        if self.tolerance is not None and not self.tolerance > 0:
            raise InvalidParams("tolerance must be positive")

    def resolved_tolerance(self, degree: int) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-10 if degree < 60 else 1e-8


@dataclass(frozen=True)
class RootSet:
    """All complex roots (with multiplicity), each with a residual certificate.

    `iterations` counts the double-precision sweeps.  When the roots were
    refined with exact coefficients, `extended_bits` is the fixed-point
    precision of that refinement and `extended_sweeps` its sweep count;
    otherwise they are None and 0.
    """

    roots: Tuple[complex, ...]
    residuals: Tuple[float, ...]
    iterations: int
    converged: bool
    extended_bits: Optional[int] = None
    extended_sweeps: int = 0

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
    S, Sp, E, _ = _eval_vec(params.d, params.n, np.array([complex(z)]))
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


def _term_products(d: int, n: int, z: np.ndarray):
    """The d alternating-sum terms and their derivatives in scaled form.

    Row s of the (d, len(z)) arrays holds prod_{k=1}^{n-1} ((d-s)z + k - s)
    as prod[s] * 2**exps[s] and its z-derivative as prod_d[s] * 2**exps[s],
    built up one linear factor at a time (a vanishing factor leaves an exact
    0).  A row is rescaled by powers of two when any of its entries strays
    beyond 2**+-200; that multiplies the others by exactly 1, so every point
    gets the same bits whether it is evaluated alone or in a batch.
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
    return prod, prod_d, exps


def _eval_vec(d: int, n: int, z: np.ndarray):
    """Vectorized product-form evaluation with shared power-of-two exponents.

    Returns mantissas (S, Sp), the per-point exponent E so that
    (n-1)! * p(z) = S * 2**E and (n-1)! * p'(z) = Sp * 2**E, and the
    magnitude A = sum_s C(n, s) |term_s| * 2**-E of the alternating sum's
    terms (from `_term_products`), which scales the rounding error of S.
    """
    prod, prod_d, exps = _term_products(d, n, z)
    index = np.arange(d)[:, None]
    cm, ce = (
        np.array(column)[:, None]
        for column in zip(*(_int_mantissa_exponent(math.comb(n, s)) for s in range(d)))
    )
    # the binomial mantissas are real, so multiplying them in one broadcast
    # rounds as multiplying row by row does
    signed = np.where(index % 2, -cm, cm)
    terms, terms_d, term_exps = prod * signed, prod_d * signed, exps + ce
    # the sum over s keeps the running maximum of the term exponents
    tops = np.maximum.accumulate(term_exps, axis=0)
    down_old = np.ldexp(1.0, np.maximum(tops[:-1] - tops[1:], -1074).astype(np.int32))
    down_new = np.ldexp(1.0, np.maximum(term_exps[1:] - tops[1:], -1074).astype(np.int32))
    acc, acc_d, acc_e = terms[0], terms_d[0], tops[-1]
    for s in range(1, d):
        acc = acc * down_old[s - 1] + terms[s] * down_new[s - 1]
        acc_d = acc_d * down_old[s - 1] + terms_d[s] * down_new[s - 1]
    shift = np.maximum(term_exps - acc_e, -1100).astype(np.int32)
    # summed row after row, so that a point's A is batch-independent
    magnitude = np.cumsum(np.ldexp(np.abs(prod) * cm, shift), axis=0)[-1]
    return acc, acc_d, acc_e, magnitude


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


def _residuals(params: HypersimplexParams, coeff_logs: np.ndarray, z: np.ndarray) -> np.ndarray:
    S, _, E, _ = _eval_vec(params.d, params.n, z)
    value_log2 = _values_log2(S, E) - _log2_int(math.factorial(params.n - 1))
    return _residual_logs(coeff_logs, value_log2, z)


def _to_fixed(value: float, bits: int) -> int:
    """floor(value * 2**bits); exact when value has no bits below 2**-bits."""
    num, den = value.as_integer_ratio()
    return (num << bits) // den


def _horner_fixed(coeffs: list, x: int, y: int, bits: int) -> Tuple[int, int, int, int]:
    """p and p' at z = (x + iy) / 2**bits by Horner's rule on Gaussian integers.

    `coeffs` are integers, lowest degree first.  Returns (P_re, P_im, D_re,
    D_im), the fixed-point values of p(z) and p'(z) scaled by 2**bits.  Each
    Horner step truncates its product with z once per component, so with
    N = len(coeffs) - 1 and G = sum_{j<N} |z|**j the truncation errors are
    |P / 2**bits - p(z)| <= 2**(1-bits) * G and
    |D / 2**bits - p'(z)| <= 2**(1-bits) * N * G.
    """
    x_plus_y, y_minus_x = x + y, y - x
    pr, pi = coeffs[-1] << bits, 0
    dr = di = 0
    for c in reversed(coeffs[:-1]):
        # (a + ib)(x + iy) from three products: with k = x(a + b), the real
        # part is k - b(x + y) and the imaginary part k + a(y - x)
        k = x * (dr + di)
        dr, di = ((k - di * x_plus_y) >> bits) + pr, ((k + dr * y_minus_x) >> bits) + pi
        k = x * (pr + pi)
        pr, pi = ((k - pi * x_plus_y) >> bits) + (c << bits), (k + pr * y_minus_x) >> bits
    return pr, pi, dr, di


def _exact_ratios(coeffs: list, bits: int, points: np.ndarray):
    """Newton ratios p/p' from `_horner_fixed`, each rounded once to double.

    Python's int / int division rounds correctly; a ratio it cannot
    represent comes back non-finite, as a double ratio would.  No point is
    noise-limited.
    """
    w = np.empty(points.size, dtype=complex)
    for i, z in enumerate(points):
        pr, pi, dr, di = _horner_fixed(
            coeffs, _to_fixed(z.real, bits), _to_fixed(z.imag, bits), bits
        )
        norm = dr * dr + di * di
        try:
            w[i] = complex((pr * dr + pi * di) / norm, (pi * dr - pr * di) / norm)
        except (ZeroDivisionError, OverflowError):
            w[i] = math.inf
    return w, np.zeros(points.size, dtype=bool)


def _ea_sweeps(z: np.ndarray, ratios, tol: float, max_sweeps: int) -> Tuple[int, bool]:
    """Ehrlich-Aberth sweeps that move z in place; returns (sweeps, settled).

    `ratios(points)` returns the Newton ratios p/p' at the points and a mask
    of the points where p is below its evaluation noise.  A root leaves the
    sweep once its correction is at most tol * (1 + |z|), or once it is
    noise-limited: from there its corrections only wander.  `settled` is
    True when every root left by the correction test.
    """
    active = np.ones(z.size, dtype=bool)
    noise_limited = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        idx = np.flatnonzero(active)
        z_active = z[idx]
        w, noisy = ratios(z_active)
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
        noise_limited |= bool((noisy & ~done).any())
        active[idx[done | noisy]] = False
        if not active.any():
            break
    return sweeps, not (noise_limited or active.any())


def _double_ratios(d: int, n: int, points: np.ndarray):
    """Newton ratios from `_eval_vec`, and where |S| is within its rounding noise.

    Each term of the alternating sum carries about n roundings and the sum
    d more, so |S| <= 4 (n + d) 2**-53 A means S may be all noise.
    """
    S, Sp, _, A = _eval_vec(d, n, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = S / Sp  # shared exponent cancels in p/p'
    return w, np.abs(S) <= 4 * (n + d) * 2.0**-53 * A


def _finish(
    params, z, tol, iterations, clean_exit, coeff_logs, extended_bits=None, extended_sweeps=0
) -> RootSet:
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
        extended_bits=extended_bits,
        extended_sweeps=extended_sweeps,
    )


def find_roots(
    params: HypersimplexParams, config: Optional[SolverConfig] = None
) -> RootSet:
    """All n-1 complex roots by Ehrlich-Aberth iteration.

    Deterministic given the seed.  Convergence demands both a small final
    correction and a residual certificate at or below the tolerance.  The
    sweeps first run in doubles; a root whose product-form value sinks into
    its rounding noise (the alternating sum cancels deeply near n = 2d) stops
    there.  If any root stopped that way, or the double result misses the
    certificate, the same iterates are refined by further sweeps whose
    Newton ratios come from exact integer coefficients in fixed point, with
    1.5 times the coefficients' log2 spread plus 96 fractional bits.
    `iterations` counts the double sweeps, `extended_bits` and
    `extended_sweeps` the refinement.  A result that still misses the
    certificate is returned with converged=False.
    """
    config = config or SolverConfig()
    d, n = params.d, params.n
    degree = n - 1
    tol = config.resolved_tolerance(degree)
    coeff_logs = _coefficient_logs(params)

    z = _initial_points(params, config.seed)
    iterations, settled = _ea_sweeps(
        z, lambda points: _double_ratios(d, n, points), tol, config.max_iterations
    )
    if settled:
        result = _finish(params, z, tol, iterations, True, coeff_logs)
        if result.converged:
            return result

    finite = coeff_logs[np.isfinite(coeff_logs)]
    bits = int(1.5 * max(finite.max() - finite.min(), 0.0)) + 96
    coeffs = _integer_coefficients(ehrhart_polynomial(params))
    sweeps, settled = _ea_sweeps(
        z,
        lambda points: _exact_ratios(coeffs, bits, points),
        tol,
        config.max_iterations,
    )
    return _finish(params, z, tol, iterations, settled, coeff_logs, bits, sweeps)


def residual(params: HypersimplexParams, root: complex) -> float:
    """Relative backward error |p(root)| / sum_k |c_k| |root|^k."""
    coeff_logs = _coefficient_logs(params)
    return float(_residuals(params, coeff_logs, np.array([complex(root)]))[0])
