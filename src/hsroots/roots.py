"""Simultaneous root finding for the hypersimplex counting polynomial.

The polynomial is evaluated in product form (never from expanded monomial
coefficients): each alternating-sum term is a product of n-1 linear factors,
accumulated together with its derivative under a shared power-of-two
exponent.  That keeps full relative accuracy at degrees where expanded
coefficients would overflow doubles.  One factor loop, `_term_products`,
builds the terms for a whole array of points at once, each point with the
same bits alone as in any batch.  `_eval_vec` aligns all d terms and their
derivatives to one exponent, the largest term exponent of the point, and
sums them row after row, for the solver, the residual certificates, the
real-axis snap and the single-point functions, which read one point of its
output: `evaluate_scaled` as a plain (mantissa, exponent) pair,
`log_derivative` and `residual`.  `bounds` takes its modulus ratios from
the same loop, asking only for the rows it compares and for values without
derivatives.  In its error mode the loop also carries a rigorous bound on
each term's rounding error, from which `_value_bounds` bounds |p(z)| from
above; with `_distance_product_lower` it gives the float pass of
`stability.verify_strip` its only two float bounds.

The solver is the Ehrlich-Aberth simultaneous iteration, started on one
seed-rotated circle around the centroid of the roots (Aberth 1973), which
all lie close to it; each sweep evaluates only the roots still moving.
The evaluator also returns the summed moduli of the alternating-sum terms,
which bound its rounding error.  Near n = 2d the sum cancels below that
noise floor; a root whose value sinks into the noise leaves the double
sweep, and the iterates are then refined by further sweeps whose Newton
ratios come from fixed-point p and p' on the exact integer coefficients,
each from `_gaussian_horner`, the one Gaussian-integer Horner loop, which
the exact disks of `stability` run too.  Only each ratio is rounded to
double; the repulsion and the update stay in doubles.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .ehrhart import HypersimplexParams, ehrhart_polynomial
from .errors import EvaluationAtRoot, InvalidParams
from .polynomial import _integer_coefficients

_GOLDEN = 0.6180339887498949
# unit roundoff of doubles and the constants of `_value_bounds`
_U = 2.0**-53
_U_ROUND = _U / (1 - _U)
_SQRT5_U = math.sqrt(5) * _U * (1 + 2.0**-50)  # rounded up past sqrt(5) u
_CM_REL = 2.0**-52
_TINY = 2.0**-1070


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
        if self.tolerance is not None and not 0 < self.tolerance < math.inf:
            raise InvalidParams(f"tolerance must be positive and finite, got {self.tolerance}")

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


def evaluate_scaled(params: HypersimplexParams, z: complex) -> Tuple[complex, int]:
    """(mantissa, exponent) with p(z) = mantissa * 2**exponent, from `_eval_vec`
    of size 1, so values beyond the double range keep their exponent."""
    S, _, E, _ = _eval_vec(params.d, params.n, np.array([complex(z)]))
    mantissa, exponent = _int_mantissa_exponent(math.factorial(params.n - 1))
    return complex(S[0] / mantissa), int(E[0]) - exponent


def log_derivative(params: HypersimplexParams, z: complex) -> complex:
    """p'(z)/p(z), accumulated by the product rule so vanishing factors are safe."""
    S, Sp, _, _ = _eval_vec(params.d, params.n, np.array([complex(z)]))
    if S[0] == 0:
        raise EvaluationAtRoot(f"polynomial value vanished at {z}")
    return complex(Sp[0] / S[0])  # the shared exponent cancels


def _coefficient_logs(params: HypersimplexParams) -> np.ndarray:
    poly = ehrhart_polynomial(params)
    return np.array([_log2_fraction(c) for c in poly.coeffs], dtype=float)


def _initial_points(params: HypersimplexParams, seed: int) -> np.ndarray:
    """Deterministic starting points on one circle around the root centroid.

    Aberth's start: the centre c = -c_{N-1} / (N c_N) is the mean of the
    roots, and the radius (|p(c)| / |c_N|)^(1/N) is the geometric mean of
    their distances from c, measured from c + i/2 instead when c is itself
    a root (c = -1 at n = 2d).  Angles are equally spaced with a
    seed-derived irrational rotation, so the start breaks the real-axis
    symmetry of the polynomial.
    """
    poly = ehrhart_polynomial(params)
    degree = params.n - 1
    lead = poly.coeffs[-1]
    centre = float(-poly.coeffs[-2] / (degree * lead))
    for point in (centre, complex(centre, 0.5)):
        S, _, E, _ = _eval_vec(params.d, params.n, np.array([complex(point)]))
        if S[0] != 0:
            break
    log_dist = _values_log2(S, E)[0] - _log2_int(math.factorial(degree)) - _log2_fraction(lead)
    phase = 2.0 * math.pi * math.modf(_GOLDEN * (seed + 1))[0]
    angles = 2.0 * math.pi * (np.arange(degree) + 0.5) / degree + phase
    return centre + 2.0 ** (log_dist / degree) * np.exp(1j * angles)


def _term_products(d: int, n: int, z: np.ndarray, rows=None, mode: str = "derivative"):
    """The alternating-sum terms and their derivatives in scaled form.

    Row j of the (len(rows), len(z)) arrays holds term s = rows[j] (all d
    terms when rows is None), prod_{k=1}^{n-1} ((d-s)z + k - s), as
    prod[j] * 2**exps[j] and its z-derivative as prod_d[j] * 2**exps[j],
    built up one linear factor at a time (a vanishing factor leaves an exact
    0).  An entry is rescaled by a power of two when it strays beyond
    2**+-200, and the other entries are left alone, so every point and every
    row gets the same bits whether it is built alone or in a batch.  Returns
    (prod, prod_d, exps).

    mode="value" never builds prod_d and returns None in its place; the
    rescale test then looks at |prod| alone, so prod and exps may differ
    from the full call by a power of two that cancels in prod * 2**exps.
    mode="error" builds the same values as mode="value" up to that power of
    two, and returns in place of prod_d a real array mu that bounds
    |true term - computed term| in the same scale (see `_value_bounds` for
    the recurrence); the rescale test looks at max(|prod|, mu).  The default
    and value-only modes run no operation of the error mode.
    """
    derivative, error = mode == "derivative", mode == "error"
    index = np.arange(d)[:, None] if rows is None else np.array(rows)[:, None]
    # complex constants spare numpy a cast per operation; the values are exact
    slope = (d - index).astype(complex)
    offsets = (np.arange(1, n)[:, None, None] - index).astype(complex)
    slope_z = slope * z[None, :]
    prod = np.ones(slope_z.shape, dtype=complex)
    prod_d = np.zeros(slope_z.shape, dtype=complex) if derivative else None
    if error:
        mu = np.zeros(slope_z.shape)
        # mu's update mu (m_k + e_k) + |prod|_1 (e_k + sqrt5 u m_k) of
        # `_value_bounds`, with m_k = f_abs (1 + 4u) + 2**-536 and
        # e_k = slope_err + u/(1-u) m_k: each bracket is a row's constant
        # plus a constant times f_abs
        slope_err = _SQRT5_U * (d - index) * (np.abs(z.real) + np.abs(z.imag))[None, :]
        grow = (1 + _U_ROUND) * (1 + 4 * _U)
        grow_err = slope_err + (1 + _U_ROUND) * 2.0**-536
        fresh = (_U_ROUND + _SQRT5_U) * (1 + 4 * _U)
        fresh_err = slope_err + (_U_ROUND + _SQRT5_U) * 2.0**-536
    exps = np.zeros(slope_z.shape, dtype=np.int64)
    for k in range(1, n):
        factor = slope_z + offsets[k - 1]
        # out of place on purpose: numpy's in-place complex multiply rounds
        # differently on a one-element array, which would break batch-independence
        if derivative:
            prod_d = prod_d * factor + prod * slope
        elif error:
            re, im = factor.real, factor.imag
            f_abs = np.sqrt(re * re + im * im)
            p_mod = np.abs(prod.real) + np.abs(prod.imag)
            mu = mu * (grow_err + grow * f_abs) + p_mod * (fresh_err + fresh * f_abs) + _TINY
        prod = prod * factor
        if k % 16 == 0 or k == n - 1:
            mag = np.abs(prod)
            if derivative:
                mag = np.maximum(mag, np.abs(prod_d))
            elif error:
                mag = np.maximum(mag, mu)
            _, e = np.frexp(mag)
            adjust = np.where(np.abs(e) > 200, e, 0)
            stray = adjust.any(axis=1)
            if stray.any():
                adjust = adjust[stray]
                scale = np.ldexp(1.0, -adjust)
                prod[stray] *= scale
                if derivative:
                    prod_d[stray] *= scale
                elif error:
                    mu[stray] = mu[stray] * scale + _TINY
                exps[stray] += adjust
    return prod, (mu if error else prod_d), exps


def _binomial_rows(d: int, n: int):
    """Double mantissas cm and exponents ce of C(n, s), s < d, as (d, 1)
    columns, and the mantissas with the alternating sign."""
    cm, ce = (
        np.array(column)[:, None]
        for column in zip(*(_int_mantissa_exponent(math.comb(n, s)) for s in range(d)))
    )
    return cm, ce, np.where(np.arange(d)[:, None] % 2, -cm, cm)


def _alignment(term_exps: np.ndarray):
    """One exponent for the sum, the largest term exponent of each point,
    the row shifts down to it, and the powers of two that apply them."""
    acc_e = term_exps.max(axis=0)
    shift = term_exps - acc_e
    return acc_e, shift, np.ldexp(1.0, np.maximum(shift, -1074).astype(np.int32))


def _eval_vec(d: int, n: int, z: np.ndarray):
    """Vectorized product-form evaluation with shared power-of-two exponents.

    Returns mantissas (S, Sp), the per-point exponent E so that
    (n-1)! * p(z) = S * 2**E and (n-1)! * p'(z) = Sp * 2**E, and the
    magnitude A = sum_s C(n, s) |term_s| * 2**-E of the alternating sum's
    terms (from `_term_products`), which scales the rounding error of S.
    x -> 1 - x maps the hypersimplex (d, n) onto (n - d, n), so both have
    the same polynomial; the sum runs over the fewer terms, min(d, n - d).
    """
    d = min(d, n - d)
    prod, prod_d, exps = _term_products(d, n, z)
    # the binomial mantissas are real, so multiplying them in one broadcast
    # rounds as multiplying row by row does
    cm, ce, signed = _binomial_rows(d, n)
    terms, terms_d, term_exps = prod * signed, prod_d * signed, exps + ce
    # one exponent for the sum: every row is aligned to the largest term
    # exponent, and the rows are summed one after another, so that a point's
    # sums are batch-independent
    acc_e, _, scale = _alignment(term_exps)
    acc = np.cumsum(terms * scale, axis=0)[-1]
    acc_d = np.cumsum(terms_d * scale, axis=0)[-1]
    magnitude = np.cumsum(np.abs(prod) * cm * scale, axis=0)[-1]
    return acc, acc_d, acc_e, magnitude


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings."""
    return k * _U / (1 - k * _U)


def _value_bounds(d: int, n: int, z: np.ndarray):
    """Rigorous upper bounds on |p(z)| from the product form.

    Returns (B, E) with (n-1)! |p(z)| <= B * 2**E at each point z (taken
    exactly as the double it is), or B non-finite where nothing is bounded.
    The value is `_eval_vec`'s sum S, built by the same operations from
    `_term_products` in its error mode, and B = c (|S|_1 + err), where
    |x|_1 = |Re x| + |Im x| >= |x| (no hypot is needed) and err adds up a
    bound on every rounding, with u = 2**-53:

    1. each factor f = (d-s)z + (k-s) is computed as
       f^ = fl(fl((d-s) z) + (k-s)), so |f^ - f| <= e_k =
       sqrt5 u |d-s| |z|_1 + u/(1-u) m_k, where
       m_k = sqrt(Re f^**2 + Im f^**2)(1 + 4u) + 2**-536 >= |f^| covers the
       four roundings of that modulus and underflow in its squares;
    2. each complex multiply, (d-s) z and the real binomial mantissas
       included (numpy promotes them to complex), is within sqrt5 u of the
       exact product (Brent, Percival and Zimmermann 2007), which covers a
       fused multiply-add too; an underflow adds at most 2**-1073 to it;
    3. so the running bound mu on |term - prod| obeys mu_0 = 0 and
       mu_k = mu_{k-1} (m_k + e_k) + |prod_{k-1}|_1 (e_k + sqrt5 u m_k),
       plus 2**-1070 for underflow, also after each power-of-two rescale;
       m_k is a true modulus bound, not |f^_k|_1, because mu is multiplied
       by it at every step and sqrt(2)**n would compound;
    4. the binomial mantissa cm of `_int_mantissa_exponent` truncates C(n, s)
       below 2**-59 of itself and rounds once, so the true mantissa is
       within 2**-52 cm of it;
    5. the signed multiply prod * (+-cm) adds sqrt5 u |prod|_1 cm;
    6. the row alignment by a power of two is exact but for 2**-1074 where
       the result is subnormal; where `max(..., -1074)` clamps the shift, the
       full magnitude of the row, computed and true, is added instead;
    7. the `cumsum` over the d rows adds gamma_{d-1} times the sum of the
       aligned rows' |.|_1 (any summation order);
    8. the bound's own arithmetic adds, multiplies and scales nonnegative
       doubles along chains of fewer than K = 8(n + d) + 64 operations, so it
       rounds low by less than a factor (1 - u)**K; the final safety factor
       c = 1 + 2 gamma_K makes up for that.
    """
    d = min(d, n - d)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        prod, mu, exps = _term_products(d, n, z, mode="error")
        cm, ce, signed = _binomial_rows(d, n)
        acc_e, shift, scale = _alignment(exps + ce)
        rows = prod * signed * scale
        acc = np.cumsum(rows, axis=0)[-1]
        p_mod = (np.abs(prod.real) + np.abs(prod.imag)) * cm
        row_err = mu * cm * (1 + _CM_REL) + p_mod * (_CM_REL + _SQRT5_U)
        aligned_mod = np.abs(rows.real) + np.abs(rows.imag)
        clamped = shift < -1074
        row_err = np.where(clamped, (p_mod + 2 * row_err) * scale + aligned_mod, row_err * scale)
        err = row_err.sum(axis=0) + d * _TINY + _gamma(d - 1) * aligned_mod.sum(axis=0)
        bound = (np.abs(acc.real) + np.abs(acc.imag) + err) * (1 + 2 * _gamma(8 * (n + d) + 64))
    return bound, acc_e


def _distance_product_lower(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(m, e) with m * 2**e <= prod_{j != i} |z_i - z_j|**2 for each i;
    m = 0 where a squared distance is 0, subnormal or non-finite.

    A squared distance fl(fl(dx)**2 + fl(dy)**2) of at least 2**-1021 is
    within 6 roundings of the exact one (an underflow in one square costs
    less than one more), and the frexp-scaled product, in chunks whose
    mantissa products stay normal, rounds less than twice per factor: the
    result is deflated by 1 - gamma_{8N}.
    """
    count = z.size
    with np.errstate(over="ignore", invalid="ignore"):
        dx = z.real[:, None] - z.real[None, :]
        dy = z.imag[:, None] - z.imag[None, :]
        sq = dx * dx + dy * dy
    np.fill_diagonal(sq, 1.0)
    usable = (np.isfinite(sq) & (sq >= 2.0**-1021)).all(axis=1)
    mant, exp = np.frexp(np.where(usable[:, None], sq, 1.0))
    m = np.ones(count)
    e = exp.sum(axis=1)
    for start in range(0, count, 512):  # 512 mantissas in [1/2, 1) stay normal
        part, part_e = np.frexp(mant[:, start:start + 512].prod(axis=1))
        m, m_e = np.frexp(m * part)
        e += part_e + m_e
    return np.where(usable, m * (1 - _gamma(8 * count)), 0.0), e


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


def _gaussian_horner(coeffs: list, x: int, y: int, shift: int) -> Tuple[int, int]:
    """sum_k coeffs[k] z**k at z = (x + iy) / 2**shift by Horner's rule on
    Gaussian integers; returns its real and imaginary parts.

    `coeffs` are integers, lowest degree first, scaled by the caller: with
    c_k << b and shift b the result is p(z) 2**b in fixed point, and with
    c_k << (B(N-k)) and shift 0 it is p((x + iy) / 2**B) 2**(BN) exactly.
    Each of the N = len(coeffs) - 1 steps multiplies by z and truncates once
    per component, so the result is within 2 sum_{j<N} |z|**j of the exact
    sum.
    """
    x_plus_y, y_minus_x = x + y, y - x
    re, im = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        # (a + ib)(x + iy) from three products: with k = x(a + b), the real
        # part is k - b(x + y) and the imaginary part k + a(y - x)
        k = x * (re + im)
        re, im = ((k - im * x_plus_y) >> shift) + c, (k + re * y_minus_x) >> shift
    return re, im


def _exact_ratios(values: list, slopes: list, bits: int, points: np.ndarray):
    """Newton ratios p/p' from `_gaussian_horner`, each rounded once to double.

    `values` are the integer coefficients c_k << bits of p and `slopes` the
    coefficients (k c_k) << bits of p', so with N the degree of p the
    fixed-point values P and D at z = (x + iy) / 2**bits obey
    |P / 2**bits - p(z)| <= 2**(1-bits) sum_{j<N} |z|**j and
    |D / 2**bits - p'(z)| <= 2**(1-bits) sum_{j<N-1} |z|**j.
    Python's int / int division rounds correctly; a ratio it cannot
    represent comes back non-finite, as a double ratio would.  No point is
    noise-limited.
    """
    w = np.empty(points.size, dtype=complex)
    for i, z in enumerate(points):
        x, y = _to_fixed(z.real, bits), _to_fixed(z.imag, bits)
        pr, pi = _gaussian_horner(values, x, y, bits)
        dr, di = _gaussian_horner(slopes, x, y, bits)
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

    Deterministic given the seed, which only rotates the starting circle
    around the root centroid.  Convergence demands both a small final
    correction and a residual certificate at or below the tolerance.  The
    sweeps first run in doubles; a root whose product-form value sinks into
    its rounding noise (the alternating sum cancels deeply near n = 2d) stops
    there.  If any root stopped that way, or the double result misses the
    certificate, the same iterates are refined by further sweeps whose
    Newton ratios come from exact integer coefficients in fixed point, with
    1.5 times the coefficients' log2 spread plus 96 fractional bits (see
    `_exact_ratios`).
    `iterations` counts the double sweeps, `extended_bits` and
    `extended_sweeps` the refinement.  A result that still misses the
    certificate is returned with converged=False.
    """
    config = config or SolverConfig()
    d, n = min(params.d, params.n - params.d), params.n  # the rows `_eval_vec` sums
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
    values = [c << bits for c in coeffs]
    slopes = [(k * c) << bits for k, c in enumerate(coeffs)][1:]
    sweeps, settled = _ea_sweeps(
        z,
        lambda points: _exact_ratios(values, slopes, bits, points),
        tol,
        config.max_iterations,
    )
    return _finish(params, z, tol, iterations, settled, coeff_logs, bits, sweeps)


def residual(params: HypersimplexParams, root: complex) -> float:
    """Relative backward error |p(root)| / sum_k |c_k| |root|^k."""
    coeff_logs = _coefficient_logs(params)
    return float(_residuals(params, coeff_logs, np.array([complex(root)]))[0])
