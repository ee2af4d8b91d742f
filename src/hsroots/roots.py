"""Simultaneous root finding for the hypersimplex counting polynomial.

The polynomial is evaluated in product form (never from expanded monomial
coefficients): each alternating-sum term is a product of n-1 linear factors,
accumulated together with its derivative under a shared power-of-two
exponent.  That keeps full relative accuracy at degrees where expanded
coefficients would overflow doubles.  One factor loop, `_term_products`,
builds the terms for a whole array of points at once, each point with the
same bits alone as in any batch; the points' n comes as (n, count) runs,
n descending, and a point stops after its own n - 1 factors while the
others go on.  `_aligned_terms` runs it on the min(d, n - d) terms and
aligns them to the point's largest term exponent; `_eval_vec` sums them
and their derivatives row after row, for the solver, the residual
certificates, the real-axis snap and the single-point functions
`evaluate_scaled`, `log_derivative` and `residual`.  `bounds` takes its
modulus ratios from the same loop, as values without derivatives.  In
its error mode the loop also carries a rigorous bound on each term's
rounding error, from which `_value_bounds` bounds |p(z)| from above; with
`_distance_product_lower` it gives `stability`'s strip certificate its
only two float bounds.
`_lockstep` drives the solves and certificates of many pairs in rounds, and
`_evaluate`, its packing plan, cuts each round's points into calls of one
row count min(d, n - d), whole pairs, n descending.

By Ehrhart-Macdonald reciprocity -1, ..., -k, k = (n-1) // min(d, n - d),
are exact roots of every p (`ehrhart.pinned_roots`, checked by exact
division on every build).  The solver pins them: it sweeps only the
M = N - k free roots, those of the quotient q = p / ((z + 1) ... (z + k)),
with Newton ratios q/q' = 1 / (p'/p - sum_m 1 / (z + m)) from the same
product-form values and the repulsion among the free roots alone, and
returns the -m exactly, with residual 0.  The sweeps are the Ehrlich-Aberth
simultaneous iteration, started on one seed-rotated ellipse around the
centroid of the free roots, which all lie close to it: Aberth's (1973)
circle, stretched along the real axis to their exact second moment where
that is positive (see `_initial_points`); each sweep evaluates only the
roots still moving.  A solve (`_solve`) is a generator that yields each
array of points where it needs p and receives `_eval_vec`'s output, one
request per step: its start, each double sweep, and its certificates
together with their real-axis snap candidates.  So
`find_roots_many` runs the sweeps of many pairs under `_lockstep`, with one
`_eval_vec` call per row count min(d, n - d) and round; `find_roots` is
that driver on one pair.  The evaluator also returns a noise floor from
the summed moduli of the alternating-sum terms, which bound its rounding
error.  Near n = 2d the sum cancels below that floor; a root whose value
sinks into the noise leaves the double sweep, and the iterates are then
refined by further sweeps whose Newton ratios come from fixed-point q and
q' on the quotient's exact integer coefficients, each from
`_gaussian_horner`, the one Gaussian-integer Horner loop, which the exact
disks of `stability` run too.  Only each ratio is rounded to double; the
repulsion and the update stay in doubles.

On the diagonal n = 2d, where that cancellation is deepest, the solver
runs no sweep: p(z) = (z + 1) Q((z + 1)**2) with deg Q = d - 1
(`_half_degree_factor`, checked exactly on every call), Q's coefficients
span a few bits, and its roots w are the eigenvalues of its companion
matrix (`np.roots`), with no start point, seed or iteration cap.  They map
back to -1 +- sqrt(w), and the residual certificates and the real-axis
snap are taken on p as everywhere else.
"""

import cmath
import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .ehrhart import HypersimplexParams, _integer, ehrhart_polynomial, pinned_roots
from .errors import DomainViolation, EvaluationAtRoot, InvalidParams, StructureViolation
from .polynomial import _integer_coefficients, _taylor_shift

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
    conditioning is worse.  At n = 2d only the tolerance counts: the roots
    come from an eigenvalue solve with no start point and no sweeps (see
    `find_roots`), so the seed and the cap have no effect there.
    """

    max_iterations: int = 200
    tolerance: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iterations", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.max_iterations < 1:
            raise InvalidParams("max_iterations must be >= 1")
        if self.tolerance is not None:
            if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real):
                raise InvalidParams(f"tolerance must be a real number, got {self.tolerance!r}")
            object.__setattr__(self, "tolerance", float(self.tolerance))
            if not 0 < self.tolerance < math.inf:
                raise InvalidParams(f"tolerance must be positive and finite, got {self.tolerance}")

    def resolved_tolerance(self, degree: int) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return 1e-10 if degree < 60 else 1e-8


@dataclass(frozen=True)
class RootSet:
    """All complex roots (with multiplicity), each with a residual certificate.

    The pinned roots -1, ..., -k are exact, with residual 0.0.  `iterations`
    counts the double-precision sweeps of the free roots; it is 0 where
    every root is pinned and at n = 2d, where no sweep runs (see
    `find_roots`).  When the roots were refined with exact coefficients,
    `extended_bits` is the fixed-point precision of that refinement and
    `extended_sweeps` its sweep count; otherwise they are None and 0.
    `seconds` is the wall time spent on the pair (see `find_roots_many`); it
    varies from run to run, so equality and repr leave it out.
    """

    roots: Tuple[complex, ...]
    residuals: Tuple[float, ...]
    iterations: int
    converged: bool
    extended_bits: Optional[int] = None
    extended_sweeps: int = 0
    seconds: float = field(default=0.0, repr=False, compare=False)

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


def _point(d: int, n: int, z) -> np.ndarray:
    """z as an array of one point, for d |z| + n <= 2**51, where 16 factors
    between rescales stay finite, else DomainViolation (a NaN z too): the
    domain of every single-point function, here and in `bounds`."""
    z = complex(z)
    if not (cmath.isfinite(z) and d * abs(z) + n <= 2**51):
        raise DomainViolation(f"need a finite z with d|z| + n <= 2**51, got z={z}")
    return np.array([z])


def evaluate_scaled(params: HypersimplexParams, z: complex) -> Tuple[complex, int]:
    """(mantissa, exponent) with p(z) = mantissa * 2**exponent, from `_eval_vec`
    of size 1, so values beyond the double range keep their exponent; z as
    `_point` takes it."""
    S, _, E, _ = _eval_vec(params.d, params.n, _point(params.d, params.n, z))
    mantissa, exponent = _int_mantissa_exponent(math.factorial(params.n - 1))
    return complex(S[0] / mantissa), int(E[0]) - exponent


def log_derivative(params: HypersimplexParams, z: complex) -> complex:
    """p'(z)/p(z), accumulated by the product rule so vanishing factors are
    safe; z as `_point` takes it, and DomainViolation where the ratio
    itself overflows doubles."""
    S, Sp, _, _ = _eval_vec(params.d, params.n, _point(params.d, params.n, z))
    if S[0] == 0:
        raise EvaluationAtRoot(f"polynomial value vanished at {z}")
    with np.errstate(over="ignore"):
        ratio = complex(Sp[0] / S[0])  # the shared exponent cancels
    if not cmath.isfinite(ratio):
        raise DomainViolation(f"p'/p overflows doubles at z={z}")
    return ratio


def _coefficient_logs(params: HypersimplexParams) -> np.ndarray:
    poly = ehrhart_polynomial(params)
    return np.array([_log2_fraction(c) for c in poly.coeffs], dtype=float)


def _initial_points(params: HypersimplexParams, seed: int):
    """Deterministic starting points for the free roots, on one ellipse
    around their centroid.

    A step of the solve (see `_solve`): it yields c and c + i/2 in one
    request for p, and returns the start points.  The free roots are the
    M = N - k roots of the quotient q(z) = p(z) / ((z + 1) ... (z + k)) of
    `ehrhart.pinned_roots`; where every root is pinned (d = 1 or n - d = 1)
    there are none, and nothing is asked.

    Aberth's start for q: with s1 = -c_{N-1}/c_N and e2 = c_{N-2}/c_N, the
    sum and second elementary symmetric function of all N roots, the centre
    c = (s1 + k(k+1)/2) / M is the mean of the free roots, and
    rho = (|q(c)| / |c_N|)^(1/M), |q(c)| = |p(c)| / prod_m |c + m|, is the
    geometric mean of their distances from c, measured from c + i/2
    instead when p(c) = 0 (c = -1 at n = 2d, a pinned root, where
    `find_roots` solves through `_half_degree_roots` instead).  The points
    are c + a cos(theta_k) + i b sin(theta_k) with a = rho + h and
    b = rho - h, h = M2 / (2 M rho), where by Newton's identities
    M2 = sum (z_i - c)^2 = P2 - M c^2 exactly over the free roots, with
    their power sum P2 = s1^2 - 2 e2 - sum_m m^2.  Then a + b = 2 rho keeps
    rho the geometric mean distance of the points, and, since
    sum_k exp(2i theta_k) = 0 for M >= 3, their second moment is
    M (a^2 - b^2) / 2 = M2: the ellipse is as long along the real axis as
    the free roots are.  h is capped at 3 rho / 4 (b >= rho / 4), and is 0,
    the circle of radius rho, where M2 <= 0 or M <= 2.  The angles theta_k
    are equally spaced and all turned by the seed-derived irrational
    rotation frac(golden ratio (seed + 1)) of a turn, so the start breaks
    the real-axis symmetry of the polynomial.
    """
    coeffs = ehrhart_polynomial(params).coeffs
    pinned, _ = pinned_roots(params)
    degree = params.n - 1 - pinned
    if degree == 0:
        return np.empty(0, dtype=complex)
    lead = coeffs[-1]
    s1 = -coeffs[-2] / lead
    free_sum = s1 + pinned * (pinned + 1) // 2
    centre = float(free_sum / degree)
    S, _, E, _ = yield np.array([centre, complex(centre, 0.5)])
    at = 0 if S[0] != 0 else 1
    pinned_logs = np.log2(np.abs(complex(centre, 0.5 * at) + np.arange(1, pinned + 1))).sum()
    log_dist = (
        _values_log2(S, E)[at]
        - _log2_int(math.factorial(params.n - 1))
        - _log2_fraction(lead)
        - pinned_logs
    )
    rho = 2.0 ** (log_dist / degree)
    h = 0.0
    if degree >= 3:
        power = s1 * s1 - 2 * coeffs[-3] / lead - pinned * (pinned + 1) * (2 * pinned + 1) // 6
        moment = power - free_sum * free_sum / degree
        h = min(max(float(moment) / (2 * degree * rho), 0.0), 0.75 * rho)
    phase = 2.0 * math.pi * math.modf(_GOLDEN * (seed + 1))[0]
    unit = np.exp(1j * (2.0 * math.pi * (np.arange(degree) + 0.5) / degree + phase))
    # at h = 0 this rounds exactly as centre + rho * unit, the circle
    return centre + (rho + h) * unit.real + 1j * ((rho - h) * unit.imag)


def _runs(n, size: int) -> list:
    """n as (n, count) runs over `size` points: a plain int is one run."""
    return [(n, size)] if isinstance(n, numbers.Integral) else n


def _term_products(d: int, n, z: np.ndarray, mode: str = "derivative"):
    """The alternating-sum terms and their derivatives in scaled form.

    Row s of the (d, len(z)) arrays holds term s,
    prod_{k=1}^{n-1} ((d-s)z + k - s), as prod[s] * 2**exps[s] and its
    z-derivative as prod_d[s] * 2**exps[s], built up one linear factor at a
    time (a vanishing factor leaves an exact 0).  n is an int or (n, count)
    runs along z (see `_runs`) with n non-increasing, so that the points
    still multiplying at factor k are a prefix of the columns.  An entry is
    rescaled by a power of two when it strays beyond 2**+-200, tested at
    every 16th factor and at its own last factor n - 1; the other entries
    are left alone, so every point gets the same bits whether it is built
    alone or in a batch.  Returns (prod, prod_d, exps).

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
    runs = _runs(n, z.size)
    if any(later > value for (value, _), (later, _) in zip(runs, runs[1:])):
        raise ValueError("n must be non-increasing along z")
    # ends maps each last factor k = n - 1, ascending, to the number of
    # points still multiplying after it; runs of one n share their end
    ends, after = {}, z.size
    for value, count in reversed(runs):
        after -= count
        ends[value - 1] = after
    if after != 0:
        raise ValueError(f"the runs count {z.size - after} points, z has {z.size}")
    index = np.arange(d)[:, None]
    # complex constants spare numpy a cast per operation; the values are exact
    slope = (d - index).astype(complex)
    offsets = (np.arange(1, runs[0][0])[:, None, None] - index).astype(complex)
    slope_z = slope * z[None, :]
    prod = np.ones(slope_z.shape, dtype=complex)
    prod_d = np.zeros(slope_z.shape, dtype=complex) if derivative else None
    mu = grow_err = fresh_err = None
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
    all_exps = exps = np.zeros(slope_z.shape, dtype=np.int64)
    # prod and the second array of the points past their last factor, filled
    # from the right; a view would keep each shrinking array alive
    done = [None if a is None else np.empty_like(a) for a in (prod, prod_d if derivative else mu)]
    live, k = z.size, 0
    for end, after in ends.items():
        for k in range(k + 1, end + 1):
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
            if k % 16 == 0 and k < end:
                _rescale(0, prod, prod_d, mu, exps)
        # the points ending here get their last rescale; at a 16th factor all do
        _rescale(0 if end % 16 == 0 else after, prod, prod_d, mu, exps)
        for out, a in zip(done, (prod, prod_d if derivative else mu)):
            if a is not None:
                out[:, after:live] = a[:, after:]
        live = after
        # exps shrinks as a view: its writes land in all_exps
        slope_z, prod, prod_d, mu, grow_err, fresh_err, exps = (
            None if a is None else a[:, :live]
            for a in (slope_z, prod, prod_d, mu, grow_err, fresh_err, exps)
        )
    return done[0], done[1], all_exps


def _rescale(first: int, prod, prod_d, mu, exps):
    """In place, scale by a power of two each entry of the columns from
    `first` on that strays beyond 2**+-200 (in |prod|, or its max with
    |prod_d| or mu, whichever `_term_products` builds), and book the power
    in exps; the other entries are left alone."""
    tail = np.s_[:, first:]
    mag = np.abs(prod[tail])
    if prod_d is not None:
        mag = np.maximum(mag, np.abs(prod_d[tail]))
    elif mu is not None:
        mag = np.maximum(mag, mu[tail])
    _, e = np.frexp(mag)
    stray = np.abs(e) > 200
    if stray.any():
        adjust = e[stray]
        scale = np.ldexp(1.0, -adjust)
        for part in (prod, prod_d):
            if part is not None:
                part[tail][stray] = part[tail][stray] * scale
        if mu is not None:
            mu[tail][stray] = mu[tail][stray] * scale + _TINY
        exps[tail][stray] += adjust


@functools.lru_cache(maxsize=None)
def _binomial_column(n: int, rows: int):
    """The double mantissas and exponents of C(n, s), s < rows, as two
    read-only arrays, memoised for every call at n with that many rows."""
    mantissas, exponents = zip(*(_int_mantissa_exponent(math.comb(n, s)) for s in range(rows)))
    column = np.array(mantissas), np.array(exponents, dtype=np.int64)
    for part in column:
        part.setflags(write=False)
    return column


def _per_point(columns: list, runs: list) -> np.ndarray:
    """One column per run, side by side, repeated over the run's points."""
    return np.repeat(np.stack(columns, axis=-1), [count for _, count in runs], axis=-1)


def _aligned_terms(d: int, n, z: np.ndarray, mode: str):
    """The rows of the alternating sum at z, aligned to one exponent per point.

    x -> 1 - x maps the hypersimplex (d, n) onto (n - d, n), so both have
    the same polynomial; the sum runs over the fewer terms, rows =
    min(d, n - d), chosen here and nowhere else, the same for every run of
    n (an int or runs, see `_runs`).  prod and second come from
    `_term_products` in `mode`; cm holds the double mantissas of C(n, s),
    s < rows, one column per point, and signed the same with the
    alternating sign.  acc_e is the largest term exponent of each point,
    shift the row shifts down to it, and scale the powers of two that apply
    them.  Returns (rows, prod, second, cm, signed, acc_e, shift, scale).
    """
    runs = _runs(n, z.size)
    rows = min(d, runs[-1][0] - d)
    if any(min(d, value - d) != rows for value, _ in runs):
        raise ValueError(f"the points of one call need one row count, got d={d} and runs {runs}")
    prod, second, exps = _term_products(rows, runs, z, mode=mode)
    columns = [_binomial_column(value, rows) for value, _ in runs]
    cm, ce = (_per_point(part, runs) for part in zip(*columns))
    signed = np.where(np.arange(rows)[:, None] % 2, -cm, cm)
    term_exps = exps + ce
    acc_e = term_exps.max(axis=0)
    shift = term_exps - acc_e
    scale = np.ldexp(1.0, np.maximum(shift, -1074).astype(np.int32))
    return rows, prod, second, cm, signed, acc_e, shift, scale


def _eval_vec(d: int, n, z: np.ndarray):
    """Vectorized product-form evaluation with shared power-of-two exponents.

    Returns mantissas (S, Sp), the per-point exponent E so that
    (n-1)! * p(z) = S * 2**E and (n-1)! * p'(z) = Sp * 2**E, and the noise
    floor 4 (n + rows) 2**-53 A of S, with A = sum_s C(n, s) |term_s| * 2**-E
    over the rows of `_aligned_terms`: each term carries about n roundings
    and the sum rows more, so |S| <= floor means S may be all noise.  n is
    an int or the points' (n, count) runs, as `_aligned_terms` takes it:
    each point gets the bits it gets alone.
    """
    runs = _runs(n, z.size)
    rows, prod, prod_d, cm, signed, acc_e, _, scale = _aligned_terms(d, runs, z, "derivative")
    # the binomial mantissas are real, so multiplying them in one broadcast
    # rounds as multiplying row by row does; the rows are summed one after
    # another, so that a point's sums are batch-independent; the last rows
    # are copied, as views would keep the whole cumulative sums alive
    acc = np.cumsum(prod * signed * scale, axis=0)[-1].copy()
    acc_d = np.cumsum(prod_d * signed * scale, axis=0)[-1].copy()
    magnitude = np.cumsum(np.abs(prod) * cm * scale, axis=0)[-1]
    noise = _per_point([4 * (value + rows) * 2.0**-53 for value, _ in runs], runs)
    return acc, acc_d, acc_e, noise * magnitude


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings."""
    return k * _U / (1 - k * _U)


def _value_bounds(d: int, n, z: np.ndarray):
    """Rigorous upper bounds on |p(z)| from the product form.

    Returns (B, E) with (n-1)! |p(z)| <= B * 2**E at each point z (taken
    exactly as the double it is), or B non-finite where nothing is bounded.
    n is an int or the points' (n, count) runs, as `_eval_vec` takes it, so
    `_evaluate` packs these calls as it packs the solver's: each point
    gets the bits it gets alone.  The value is `_eval_vec`'s sum S, built by
    the same operations from `_aligned_terms` in its error mode, and
    B = c (|S|_1 + err), where
    |x|_1 = |Re x| + |Im x| >= |x| (no hypot is needed) and err adds up a
    bound on every rounding, with u = 2**-53 and d the row count
    min(d, n - d) that `_aligned_terms` returns:

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
       c = 1 + 2 gamma_K makes up for that, built per point from its own n.
    """
    runs = _runs(n, z.size)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        d, prod, mu, cm, signed, acc_e, shift, scale = _aligned_terms(d, runs, z, "error")
        rows = prod * signed * scale
        acc = np.cumsum(rows, axis=0)[-1]
        p_mod = (np.abs(prod.real) + np.abs(prod.imag)) * cm
        row_err = mu * cm * (1 + _CM_REL) + p_mod * (_CM_REL + _SQRT5_U)
        aligned_mod = np.abs(rows.real) + np.abs(rows.imag)
        clamped = shift < -1074
        row_err = np.where(clamped, (p_mod + 2 * row_err) * scale + aligned_mod, row_err * scale)
        err = row_err.sum(axis=0) + d * _TINY + _gamma(d - 1) * aligned_mod.sum(axis=0)
        safety = _per_point([1 + 2 * _gamma(8 * (value + d) + 64) for value, _ in runs], runs)
        bound = (np.abs(acc.real) + np.abs(acc.imag) + err) * safety
    return bound, acc_e


def _distance_product_lower(z: np.ndarray, count: Optional[int] = None):
    """(m, e) with m * 2**e <= prod_{j != i} |z_i - z_j|**2 over all N
    points z_j, for each of the first `count` points z_i (all N when None);
    m = 0 where a squared distance is 0, subnormal or non-finite.

    A squared distance fl(fl(dx)**2 + fl(dy)**2) of at least 2**-1021 is
    within 6 roundings of the exact one (an underflow in one square costs
    less than one more), and the frexp-scaled product, in chunks whose
    mantissa products stay normal, rounds less than twice per factor: the
    result is deflated by 1 - gamma_{8N}.
    """
    rows = z[:count]
    with np.errstate(over="ignore", invalid="ignore"):
        dx = rows.real[:, None] - z.real[None, :]
        dy = rows.imag[:, None] - z.imag[None, :]
        sq = dx * dx + dy * dy
    np.fill_diagonal(sq, 1.0)
    usable = (np.isfinite(sq) & (sq >= 2.0**-1021)).all(axis=1)
    mant, exp = np.frexp(np.where(usable[:, None], sq, 1.0))
    m = np.ones(rows.size)
    e = exp.sum(axis=1)
    for start in range(0, z.size, 512):  # 512 mantissas in [1/2, 1) stay normal
        part, part_e = np.frexp(mant[:, start:start + 512].prod(axis=1))
        m, m_e = np.frexp(m * part)
        e += part_e + m_e
    return np.where(usable, m * (1 - _gamma(8 * z.size)), 0.0), e


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


def _residuals(params: HypersimplexParams, coeff_logs: np.ndarray, z: np.ndarray, values):
    """The residuals at z from `_eval_vec`'s output `values` there."""
    S, _, E, _ = values
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


def _exact_ratios(values: list, slopes: list, bits: int, points: np.ndarray, _answer):
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


def _ea_sweeps(z: np.ndarray, ratios, tol: float, max_sweeps: int):
    """Ehrlich-Aberth sweeps that move z in place; returns (sweeps, settled).

    Each sweep yields the roots still moving and, from them and what is
    sent back, `ratios(points, answer)` returns the Newton ratios at them
    and a mask of the points where p is below its evaluation noise.  A root
    leaves the sweep once its correction is at most tol * (1 + |z|), or once
    it is noise-limited: from there its corrections only wander.  `settled`
    is True when every root left by the correction test; an empty z takes
    no sweep.
    """
    active = np.ones(z.size, dtype=bool)
    noise_limited = False
    sweeps = 0
    while active.any() and sweeps < max_sweeps:
        sweeps += 1
        idx = np.flatnonzero(active)
        z_active = z[idx]
        w, noisy = ratios(z_active, (yield z_active))
        w[~np.isfinite(w)] = 0.0
        denom = 1.0 - w * _repulsion(z_active, z, idx)
        with np.errstate(divide="ignore", invalid="ignore"):
            correction = np.where(denom != 0, w / denom, w)
        correction[~np.isfinite(correction)] = 0.0
        z[idx] = z_active - correction
        done = np.abs(correction) <= tol * (1.0 + np.abs(z[idx]))
        noise_limited |= bool((noisy & ~done).any())
        active[idx[done | noisy]] = False
    return sweeps, not (noise_limited or active.any())


def _repulsion(z_active: np.ndarray, z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1 / (z_i - z_j) for each i in idx, z_active = z[idx].  A
    function of its own, so that its len(idx) x len(z) array is freed before
    `_ea_sweeps` yields again: in lockstep every pair's sweeps wait at once."""
    diff = z_active[:, None] - z[None, :]
    diff[np.arange(idx.size), idx] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1.0 / diff).sum(axis=1)


def _sweep_here(sweeps):
    """Run `_ea_sweeps` whose `ratios` evaluate at the points themselves,
    answering each sweep with None; returns what it returns."""
    try:
        next(sweeps)
        while True:
            sweeps.send(None)
    except StopIteration as stop:
        return stop.value


def _double_ratios(exact: np.ndarray, points: np.ndarray, values):
    """Newton ratios q/q' of q(z) = p(z) / prod_m (z + m) over the pinned
    roots -m in `exact`, as 1 / (p'/p - sum_m 1 / (z + m)) from
    `_eval_vec`'s output at the points, and where |S| is at most its noise
    floor."""
    S, Sp, _, floor = values
    with np.errstate(divide="ignore", invalid="ignore"):
        poles = (1.0 / (points[:, None] - exact)).sum(axis=1)
        w = 1.0 / (Sp / S - poles)  # the shared exponent cancels in p'/p
    return w, np.abs(S) <= floor


def _half_degree_factor(params: HypersimplexParams) -> list:
    """Integer coefficients of Q, lowest degree first, such that
    p(z) = (z + 1) Q((z + 1)**2) up to a positive factor.

    At n = 2d the hypersimplex is Gorenstein (De Negri and Hibi 1997), so
    p(-2 - z) = -p(z): q(y) = p(y - 1) is odd, and Q(y**2) = q(y) / y.  q
    comes exactly from `_taylor_shift` on p's integer coefficients, and every
    even coefficient of q is checked to be 0 on each call, so the factor rests
    on that check, not on the theorem.  Where one is not 0 (every pair with
    n != 2d) this raises StructureViolation.
    """
    shifted = _taylor_shift(_integer_coefficients(ehrhart_polynomial(params)), -1)
    if any(shifted[0::2]):
        raise StructureViolation(
            f"p(y - 1) has a nonzero even coefficient at (d, n) = ({params.d}, {params.n})"
        )
    return shifted[1::2]


def _half_degree_roots(params: HypersimplexParams, tol: float, coeff_logs) -> RootSet:
    """The roots at n = 2d from the M = d - 1 roots w of Q (`_half_degree_factor`).

    Q's coefficients are divided by the largest one; their log2 spread
    stays below 5.4 bits up to d = 300, where p's spans hundreds, so the
    eigenvalues of Q's companion matrix (`np.roots`) are its roots to
    backward stability (Edelman and Murakami 1995): no sweep and no start
    point, so the seed plays no part.  w is made complex before its square
    root, which would be NaN at a negative real double.  Each w gives
    z = -1 +- sqrt(w), and z = -1 completes the n - 1 roots (at d = 1, Q is
    a constant with no root); `_finish` certifies them on p itself.
    """
    factor = _half_degree_factor(params)
    top = max(map(abs, factor))
    w = np.roots([c / top for c in reversed(factor)]).astype(complex)
    root = np.sqrt(w)
    z = np.concatenate(([-1.0 + 0j], -1 + root, -1 - root))
    return (yield from _finish(params, z, tol, 0, True, coeff_logs))


def _finish(
    params, z, tol, iterations, clean_exit, coeff_logs, extended_bits=None, extended_sweeps=0
):
    """The roots z, snapped and sorted, with their residual certificates:
    the last step of the solve, one request for p at z followed by the
    real-axis snap candidates, the real parts of the roots near the axis."""
    near = np.flatnonzero(
        (z.imag != 0) & (np.abs(z.imag) <= 10 * tol * (1 + np.abs(z.real)))
    )
    candidates = z.real[near].astype(complex)
    points = np.concatenate((z, candidates))
    residuals = _residuals(params, coeff_logs, points, (yield points))
    residuals, snap_residuals = residuals[:z.size], residuals[z.size:]

    # snap numerically-real roots onto the axis when the certificate allows
    ok = snap_residuals <= tol
    snapped = z.copy()
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


def _solve(params: HypersimplexParams, config: SolverConfig):
    """One pair's solve, as `find_roots` describes it, as a generator: it
    yields each array of points where it needs p and p' in product form,
    receives `_eval_vec`'s output there, and returns the RootSet.  The
    exact refinement computes its own ratios, and the half-degree path asks
    for p only at its certificates."""
    d, n = params.d, params.n
    tol = config.resolved_tolerance(n - 1)
    coeff_logs = _coefficient_logs(params)
    if n == 2 * d:
        return (yield from _half_degree_roots(params, tol, coeff_logs))

    pinned, quotient = pinned_roots(params)
    exact = -np.arange(1, pinned + 1) + 0j
    z = yield from _initial_points(params, config.seed)
    ratios = functools.partial(_double_ratios, exact)
    iterations, settled = yield from _ea_sweeps(z, ratios, tol, config.max_iterations)
    if settled:
        result = yield from _finish(
            params, np.concatenate((z, exact)), tol, iterations, True, coeff_logs
        )
        if result.converged:
            return result

    logs = [_log2_int(abs(c)) for c in quotient if c]
    bits = int(1.5 * (max(logs) - min(logs))) + 96
    values = [c << bits for c in quotient]
    slopes = [(k * c) << bits for k, c in enumerate(quotient)][1:]
    ratios = functools.partial(_exact_ratios, values, slopes, bits)
    sweeps, settled = _sweep_here(_ea_sweeps(z, ratios, tol, config.max_iterations))
    return (
        yield from _finish(
            params, np.concatenate((z, exact)), tol, iterations, settled, coeff_logs, bits, sweeps
        )
    )


# The most rows x points one evaluator call of `_evaluate` takes from
# several pairs; a larger request gets a call of its own, as alone.
# Packing changes no bit, and the cap holds memory, not time: uncapped, a
# numeric paper grid d = 4..10 peaked at 49.4 MB RSS against 40.3 MB
# (certified d = 4..7: 33.9 against 32.8 MB), no faster beyond noise.
_BATCH_ENTRIES = 1 << 12


def _evaluate(evaluator, params_list: Sequence, requests: dict, seconds: list) -> dict:
    """Each request's share of `evaluator`, `_eval_vec` or `_value_bounds`.

    `requests` maps i to the points of pair params_list[i].  They are taken
    by row count min(d, n - d), n descending and i, and cut into calls
    evaluator(rows, runs, z) of one row count and at most `_BATCH_ENTRIES`
    entries, rows x points (or one request alone), with whole pairs and each
    pair's n as one (n, count) run; every output array is sliced back per
    request.  Each call's time is shared out in `seconds` by products,
    rows x (n - 1) per point.  If a call raises, each of its requests gets
    the exception."""
    keys = {}
    for i in requests:
        d, n = params_list[i].d, params_list[i].n
        keys[i] = (min(d, n - d), n)
    calls, entries = [], 0
    for i in sorted(requests, key=lambda i: (keys[i][0], -keys[i][1], i)):
        rows, size = keys[i][0], requests[i].size
        if not calls or calls[-1][0] != rows or entries + size * rows > _BATCH_ENTRIES:
            calls.append((rows, []))
            entries = 0
        calls[-1][1].append(i)
        entries += size * rows
    answers = {}
    for rows, members in calls:
        runs = [(keys[i][1], requests[i].size) for i in members]
        start = time.perf_counter()
        try:
            out = evaluator(rows, runs, np.concatenate([requests[i] for i in members]))
        except Exception as exc:  # ends what this call's pairs were doing
            out = exc
        elapsed, total = time.perf_counter() - start, sum(c * (n - 1) for n, c in runs)
        lo, failed = 0, isinstance(out, Exception)
        for i, (n, count) in zip(members, runs):
            answers[i] = out if failed else tuple(a[lo:lo + count] for a in out)
            seconds[i] += elapsed * (count * (n - 1)) / total
            lo += count
    return answers


def _lockstep(evaluator, params_list: Sequence, steps: Sequence) -> list:
    """Drives one step generator per pair in rounds: each step yields the
    points where it needs `evaluator`, all the round's points go to
    `_evaluate`, and each step gets its share back by `send`, or by `throw`
    the exception of its call.  Returns, in input order, what each step
    returned, with `seconds` its own steps plus its share of each call, or
    the exception that ended it: one raised by its own step ends no other."""
    outcomes = [None] * len(steps)
    seconds = [0.0] * len(steps)
    live = dict(enumerate(steps))
    answers = dict.fromkeys(live)
    while live:
        requests = {}
        for i, step in list(live.items()):
            start = time.perf_counter()
            answer = answers[i]
            try:
                if isinstance(answer, Exception):  # its evaluator call failed
                    requests[i] = step.throw(answer)
                else:
                    requests[i] = step.send(answer)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:  # the pair ends here; the others go on
                outcomes[i] = exc
            seconds[i] += time.perf_counter() - start
            if i not in requests:
                del live[i]
        answers = _evaluate(evaluator, params_list, requests, seconds)
    return [
        outcome if isinstance(outcome, Exception) else replace(outcome, seconds=spent)
        for outcome, spent in zip(outcomes, seconds)
    ]


def _only(outcomes: list):
    """The one outcome of a single-pair `_lockstep`, or raise what ended it."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def find_roots_many(
    params_list: Sequence[HypersimplexParams], config: Optional[SolverConfig] = None
) -> list:
    """`find_roots` for every pair, each solve (`_solve`) a step of `_lockstep`.

    A pair asks for p at its two start points, at each double sweep over its
    free roots still moving, and at its residual certificates with their
    snap candidates: iterations + 2 requests (one more when its settled
    double result misses the certificate), one at n = 2d and where every
    root is pinned.  Each point gets the bits it gets alone, so every
    RootSet is the one `find_roots` returns.
    Returns each pair's RootSet, or the exception that ended its solve.
    """
    config = config or SolverConfig()
    return _lockstep(_eval_vec, params_list, [_solve(params, config) for params in params_list])


def find_roots(
    params: HypersimplexParams, config: Optional[SolverConfig] = None
) -> RootSet:
    """All n-1 complex roots, by Ehrlich-Aberth iteration off the diagonal.

    The roots -1, ..., -k of `ehrhart.pinned_roots` are returned exactly;
    the sweeps move only the M = n - 1 - k free roots, the roots of the
    quotient q, and none run where M = 0 (d = 1 or n - d = 1).
    Deterministic given the seed, which only turns the start points along
    their ellipse around the free roots' centroid (`_initial_points`).
    Convergence demands both a small final correction and a residual
    certificate on p at or below the tolerance, at all n - 1 roots.  The
    sweeps first run in doubles; a root whose product-form value sinks into
    its rounding noise (the alternating sum cancels deeply near n = 2d)
    stops there.  If any root stopped that way, or the double result misses
    the certificate, the same iterates are refined by further sweeps whose
    Newton ratios come from q's exact integer coefficients in fixed point,
    with 1.5 times those coefficients' log2 spread plus 96 fractional bits
    (see `_exact_ratios`).  `iterations` counts the double sweeps,
    `extended_bits` and `extended_sweeps` the refinement.  A result that
    still misses the certificate is returned with converged=False.

    At n = 2d the roots come instead from the eigenvalues of the companion
    matrix of the half-degree factor Q, with no sweep and no refinement
    (`_half_degree_roots`), and the one pinned root -1 exactly: the seed and
    the iteration cap play no part, `iterations` is 0 and `extended_bits`
    None, and only the residual certificate decides convergence.  Only that
    input property selects the path.

    This is `find_roots_many` on the one pair, raising what ended its solve.
    """
    return _only(find_roots_many([params], config))


def residual(params: HypersimplexParams, root: complex) -> float:
    """Relative backward error |p(root)| / sum_k |c_k| |root|^k; root as
    `_point` takes it."""
    z = _point(params.d, params.n, root)
    values = _eval_vec(params.d, params.n, z)
    return float(_residuals(params, _coefficient_logs(params), z, values)[0])
