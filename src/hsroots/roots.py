"""Simultaneous root finding for the hypersimplex counting polynomial.

The polynomial is evaluated in product form (never from expanded monomial
coefficients): each alternating-sum term is a product of n-1 linear factors,
accumulated together with its derivative under a shared power-of-two
exponent.  That keeps full relative accuracy at degrees where expanded
coefficients would overflow doubles.  One factor loop, `_term_products`,
builds the terms for a whole array of points at once, each point with the
same bits alone as in any batch; the points' n comes as (n, count) runs,
n descending, and a point stops after its own steps while the others go
on.  With its derivative it multiplies the factors two at a time,
(y + j)(y + n - j) = w**2 - (n/2 - j)**2 with w = y + n/2, so a term takes
(n - 1) // 2 steps; its value-only and error modes, which `bounds` and
the strip certificate read, keep one factor a step, which is more
accurate beside a real-axis zero of a factor.  `_aligned_terms` runs it
on the min(d, n - d) terms and aligns them to the point's largest term
exponent; `_eval_vec` sums them and their derivatives row after row, for
the solver's sweeps, and `_eval_values` sums the value-only terms for the
residual certificates, the real-axis snap and `residual`.  `bounds` takes
its modulus ratios from the same loop, as values without derivatives.  In
its error mode the loop also carries a rigorous bound on each term's
rounding error, from which `_value_bounds` bounds |p(z)| from above; with
`_distance_product_lower` it gives `stability`'s strip certificate its
only two float bounds.
`_lockstep` drives the solves and certificates of many pairs in rounds, and
`_packed`, its packing plan, cuts each round's points into calls of one
kind (evaluator) and row count min(d, n - d), whole pairs, n descending.

By Ehrhart-Macdonald reciprocity -1, ..., -k, k = (n-1) // min(d, n - d),
are exact roots of every p (`ehrhart.pinned_roots`, checked by exact
division on every build).  The solver pins them: it sweeps only the
M = N - k free roots, those of the quotient q = p / ((z + 1) ... (z + k)),
with Newton ratios q/q' = 1 / (p'/p - sum_m 1 / (z + m)) from the same
product-form values and the repulsion among the free roots alone, and
returns the -m exactly, with residual 0, never evaluated.  The sweeps are
the Ehrlich-Aberth simultaneous iteration, started on one seed-rotated
ellipse around the centroid of the free roots, which all lie close to it:
Aberth's (1973) circle, stretched along the real axis to their exact
second moment where that is positive, all read off q's integers (see
`_initial_points`); each sweep evaluates only the roots still moving.  A
solve (`_solve`) is a generator: it hands the driver its free roots, pinned
count, tolerance and cap once as a `_Sweep`, gets (sweeps, settled) back
when they are done, and then asks for p's values at its certificates, the
free roots with their real-axis snap candidates.  The driver (`_Sweeps`)
keeps the free roots of every sweeping pair in one padded array that stays
in place across rounds, and each round takes one sweep of all of them: the
round's `_eval_vec` calls, one per row count min(d, n - d) and cap, on
contiguous slices of the points still moving, then one Ehrlich-Aberth
update of every such point in a fixed number of array operations per
chunk, each point with the bits it gets alone.  So `find_roots_many` runs
the sweeps of many pairs in lockstep, and `find_roots` is that driver on
one pair.  `_eval_vec` also returns a noise floor from the summed moduli of
the alternating-sum terms, which bound its rounding error.  Near n = 2d the
sum cancels below that floor; a root whose value sinks into the noise leaves
the double sweep, and the iterates are then refined by further sweeps of the
same update whose Newton ratios come from fixed-point q and q' on the
quotient's exact integer coefficients (`_exact_ratios`, pair by pair), each
from `_gaussian_horner`, the one Gaussian-integer Horner loop, which the
exact disks of `stability` run too.  Only each ratio is rounded to double;
the repulsion and the update stay in doubles, and each exact sweep is one
round with no evaluator call.

On the diagonal n = 2d, where that cancellation is deepest, the solver
runs no sweep: p(z) = (z + 1) Q((z + 1)**2) with deg Q = d - 1
(`_half_degree_factor`, checked exactly on every call), Q's coefficients
span a few bits, and its roots w are the eigenvalues of its companion
matrix (`np.roots`), with no start point, seed or iteration cap.  They map
back to -1 +- sqrt(w), and the residual certificates and the real-axis
snap are taken on p as everywhere else.  Every exact step here works on
the integers C_k of P = (n-1)! p that the build keeps (`ehrhart`), the
scale in which `_eval_vec` returns its values.
"""

import cmath
import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .ehrhart import HypersimplexParams, _ehrhart_cached, _integer, _term_rows, pinned_roots
from .errors import DomainViolation, InvalidParams, StructureViolation
from .polynomial import _taylor_shift

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


def _int_mantissa_exponent(value: int) -> Tuple[float, int]:
    shift = max(0, value.bit_length() - 60)
    return float(value >> shift if shift else value), shift


def _point(d: int, n: int, z) -> np.ndarray:
    """z as an array of one point, for d |z| + n <= 2**51, where the 8 pairs
    (or 16 single factors) of `_term_products` between rescales stay below
    2**1020, else DomainViolation (a NaN z too): the domain of every
    single-point function, here and in `bounds`."""
    z = complex(z)
    if not (cmath.isfinite(z) and d * abs(z) + n <= 2**51):
        raise DomainViolation(f"need a finite z with d|z| + n <= 2**51, got z={z}")
    return np.array([z])


def _coefficient_logs(params: HypersimplexParams) -> np.ndarray:
    """log2 |C_k| of P = (n-1)! p, lowest first; no C_k is 0, as
    hypersimplices are Ehrhart positive (Ferroni 2021)."""
    coeffs = _ehrhart_cached(params.d, params.n).coeffs
    return np.array([_log2_int(abs(c)) for c in coeffs], dtype=float)


def _initial_points(params: HypersimplexParams, seed: int) -> np.ndarray:
    """Deterministic starting points for the free roots, on one ellipse
    around their centroid.

    The free roots are the M = N - k roots of the quotient
    q(z) = p(z) / ((z + 1) ... (z + k)) of `ehrhart.pinned_roots`, none
    where every root is pinned (d = 1 or n - d = 1); nothing is evaluated
    in product form.

    Aberth's start for q: with q's top coefficients q_M, q_{M-1}, q_{M-2}
    (`pinned_roots`' integers), s1 = -q_{M-1}/q_M and e2 = q_{M-2}/q_M, the
    sum and second elementary symmetric function of the free roots, the
    centre c = s1 / M, rounded to the double x / 2**B, is their mean, and
    rho = (|q(c)| / |q_M|)^(1/M) is the geometric mean of their distances
    from c.  q(c) 2**(BM) comes exactly from `_gaussian_horner` at shift 0
    on q's integers, q_j shifted by B(M - j) (B >= 1), so
    log2 rho = (log2 |q(c) 2**(BM)| - BM - log2 |q_M|) / M.  A pinned root
    -m is no root of q, so q(c) = 0 only where c is a free root itself;
    there the distances are measured from c + i/2, exactly the same way.
    The points are c + a cos(theta_k) + i b sin(theta_k) with a = rho + h and
    b = rho - h, h = M2 / (2 M rho), where by Newton's identities
    M2 = sum (z_i - c)^2 = P2 - M c^2 exactly over the free roots, with
    their power sum P2 = s1^2 - 2 e2.  Then a + b = 2 rho keeps rho the
    geometric mean distance of the points, and, since
    sum_k exp(2i theta_k) = 0 for M >= 3, their second moment is
    M (a^2 - b^2) / 2 = M2: the ellipse is as long along the real axis as
    the free roots are.  h is capped at 3 rho / 4 (b >= rho / 4), and is 0,
    the circle of radius rho, where M2 <= 0 or M <= 2.  The angles theta_k
    are equally spaced and all turned by the seed-derived irrational
    rotation frac(golden ratio (seed + 1)) of a turn, so the start breaks
    the real-axis symmetry of the polynomial.
    """
    _, quotient = pinned_roots(params)
    degree = len(quotient) - 1
    if degree == 0:
        return np.empty(0, dtype=complex)
    top, second = quotient[-1], quotient[-2]
    centre = -second / (top * degree)  # int true division: the exact quotient, rounded once
    bits = max(1, centre.as_integer_ratio()[1].bit_length() - 1)
    x = _to_fixed(centre, bits)
    scaled = [c << (bits * (degree - k)) for k, c in enumerate(quotient)]
    re, im = _gaussian_horner(scaled, x, 0, 0)
    if re == 0:  # c is a root of q: measure from c + i/2
        re, im = _gaussian_horner(scaled, x, 1 << (bits - 1), 0)
    log_dist = _log2_int(re * re + im * im) / 2 - bits * degree - _log2_int(abs(quotient[-1]))
    rho = 2.0 ** (log_dist / degree)
    h = 0.0
    if degree >= 3:
        # M2 = (M - 1) s1**2 / M - 2 e2 over one integer denominator, rounded once
        moment = ((degree - 1) * second**2 - 2 * degree * top * quotient[-3]) / (
            degree * top**2
        )
        h = min(max(moment / (2 * degree * rho), 0.0), 0.75 * rho)
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
    prod_{k=1}^{n-1} (y + k) with y = (d-s)z - s, as prod[s] * 2**exps[s]
    and its z-derivative as prod_d[s] * 2**exps[s] (a vanishing factor
    leaves an exact 0).  n is an int or (n, count) runs along z (see
    `_runs`) with n non-increasing, so that the points still multiplying
    at step k are a prefix of the columns.

    The default mode multiplies the factors in symmetric pairs: with
    w = y + n/2 and m_j = n/2 - j, (y + j)(y + n - j) = w**2 - m_j**2, whose
    z-derivative is 2(d-s)w for every j.  So w, v = w**2 and dv = 2(d-s)w
    are built once, and each of the (n - 1) // 2 steps j is
    factor = v - m_j**2, prod_d = prod_d factor + prod dv,
    prod = prod factor, with the squares m_j**2 one column per point (exact
    in doubles for n <= 2**26).  For even n the middle factor y + n/2 = w
    has no partner: prod starts at w and prod_d at d - s, else at 1 and 0.
    An entry is rescaled by a power of two when max(|prod|, |prod_d|)
    strays beyond 2**+-200, tested at every 8th pair and at its own last
    pair; the other entries are left alone, so every point gets the same
    bits whether it is built alone or in a batch.  Within `_point`'s domain d|z| + n <= 2**51,
    |factor| + |dv| <= (d|z| + n)**2 <= 2**102 (rows <= n/2), so 8 pairs
    from below 2**200 stay below 2**1020.  Returns (prod, prod_d, exps).

    mode="value" and mode="error" multiply one linear factor y + k at a
    time and rescale at every 16th factor and at the last, n - 1.  Pairing
    rounds w once at magnitude n/2, so beside a real-axis zero of a factor
    a pair loses up to about n/2 in relative accuracy: at the nudged pole of
    the low horizontal edge of (3, 6), lam = 1e-12, the modulus ratio of
    `bounds` would be 3.8e-12 off the exact one, against 1e-15 one factor a
    step.  The sampled ratios of `bounds` and the rigorous bound of
    `_value_bounds` would pay that; the solver does not evaluate at the
    pinned roots, the real zeros every term shares.  mode="value" never
    builds prod_d and returns None in its place; the rescale test then
    looks at |prod| alone, so prod and exps may differ from the full call
    by a power of two that cancels in prod * 2**exps.  mode="error" builds
    the same values as mode="value" up to that power of two, and returns in
    place of prod_d a real array mu that bounds |true term - computed term|
    in the same scale (see `_value_bounds` for the recurrence); the rescale
    test looks at max(|prod|, mu).  The default and value-only modes run no
    operation of the error mode.
    """
    derivative, error = mode == "derivative", mode == "error"
    runs = _runs(n, z.size)
    if any(later > value for (value, _), (later, _) in zip(runs, runs[1:])):
        raise ValueError("n must be non-increasing along z")
    # a step is a pair in the default mode, else a factor; ends maps each
    # last step, ascending, to the number of points still multiplying after
    # it, and runs with one last step share their end
    grid = 8 if derivative else 16
    ends, after = {}, z.size
    for value, count in reversed(runs):
        after -= count
        ends[(value - 1) // 2 if derivative else value - 1] = after
    if after != 0:
        raise ValueError(f"the runs count {z.size - after} points, z has {z.size}")
    index = np.arange(d)[:, None]
    # complex constants spare numpy a cast per operation; the values are exact
    slope = (d - index).astype(complex)
    slope_z = slope * z[None, :]
    v = dv = squares = offsets = prod_d = mu = grow_err = fresh_err = None
    if derivative:
        halves = _per_point([value / 2 for value, _ in runs], runs)
        w = slope_z + (halves - index).astype(complex)
        v, dv = w * w, (2 * slope) * w
        j = np.arange(1, (runs[0][0] + 1) // 2)
        m = _per_point([value / 2 - j for value, _ in runs], runs)
        squares = (m * m).astype(complex)
        odd = _per_point([value % 2 == 1 for value, _ in runs], runs)
        prod, prod_d = np.where(odd, 1 + 0j, w), np.where(odd, 0j, slope)
        slope_z = None
    else:
        offsets = (np.arange(1, runs[0][0])[:, None, None] - index).astype(complex)
        prod = np.ones(slope_z.shape, dtype=complex)
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
    all_exps = exps = np.zeros(prod.shape, dtype=np.int64)
    # prod and the second array of the points past their last step, filled
    # from the right; a view would keep each shrinking array alive
    done = [None if a is None else np.empty_like(a) for a in (prod, prod_d if derivative else mu)]
    live, k = z.size, 0
    for end, after in ends.items():
        for k in range(k + 1, end + 1):
            # out of place on purpose: numpy's in-place complex multiply rounds
            # differently on a one-element array, which would break batch-independence
            if derivative:
                factor = v - squares[k - 1]
                prod_d = prod_d * factor + prod * dv
            else:
                factor = slope_z + offsets[k - 1]
            if error:
                re, im = factor.real, factor.imag
                f_abs = np.sqrt(re * re + im * im)
                p_mod = np.abs(prod.real) + np.abs(prod.imag)
                mu = mu * (grow_err + grow * f_abs) + p_mod * (fresh_err + fresh * f_abs) + _TINY
            prod = prod * factor
            if k % grid == 0 and k < end:
                _rescale(0, prod, prod_d, mu, exps)
        # the points ending here get their last rescale; at a positive
        # multiple of the grid all do
        _rescale(0 if end and end % grid == 0 else after, prod, prod_d, mu, exps)
        for out, a in zip(done, (prod, prod_d if derivative else mu)):
            if a is not None:
                out[:, after:live] = a[:, after:]
        live = after
        # exps shrinks as a view: its writes land in all_exps
        slope_z, v, dv, squares, prod, prod_d, mu, grow_err, fresh_err, exps = (
            None if a is None else a[:, :live]
            for a in (slope_z, v, dv, squares, prod, prod_d, mu, grow_err, fresh_err, exps)
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
    min(d, n - d) of `ehrhart._term_rows`, the same for every run of n (an
    int or runs, see `_runs`).  prod and second come from
    `_term_products` in `mode`; cm holds the double mantissas of C(n, s),
    s < rows, one column per point, and signed the same with the
    alternating sign.  acc_e is the largest term exponent of each point,
    shift the row shifts down to it, and scale the powers of two that apply
    them.  Returns (rows, prod, second, cm, signed, acc_e, shift, scale).
    """
    runs = _runs(n, z.size)
    rows = _term_rows(d, runs[-1][0])
    if any(_term_rows(d, value) != rows for value, _ in runs):
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
    ((n - 1) // 2 pair steps of `_term_products`, two each) and the sum
    rows more, so |S| <= floor means S may be all noise.  A pair
    w**2 - m**2 rounds relative to |w|**2 + m**2, not to its own modulus:
    beside a real-axis zero of a factor its term loses up to about n/2 in
    relative accuracy, which the floor does not count; pinned roots still
    give an exact 0.  n is an int or the points' (n, count) runs, as
    `_aligned_terms` takes it: each point gets the bits it gets alone.
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


def _eval_values(d: int, n, z: np.ndarray):
    """(S, E) with (n-1)! * p(z) = S * 2**E, summed as `_eval_vec` sums it
    from `_aligned_terms` in value mode, one factor a step and no
    derivative: what the residual certificates read.  n is an int or the
    points' (n, count) runs, as `_eval_vec` takes it: each point gets the
    bits it gets alone."""
    _, prod, _, _, signed, acc_e, _, scale = _aligned_terms(d, _runs(n, z.size), z, "value")
    return np.cumsum(prod * signed * scale, axis=0)[-1].copy(), acc_e


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


def _residuals(coeff_logs: np.ndarray, z: np.ndarray, values) -> np.ndarray:
    """residual = |P(z)| / sum_k |C_k| |z|^k, all in log2 space, from
    `_eval_values`' output `values` at z and `coeff_logs`, the log2 |C_k|."""
    S, E = values
    with np.errstate(divide="ignore", invalid="ignore"):
        value_logs = np.log2(np.abs(S)) + E
        logz = np.log2(np.abs(z))
        k = np.arange(coeff_logs.shape[0])[:, None]
        terms = coeff_logs[:, None] + k * logz[None, :]
    terms[0, :] = coeff_logs[0]  # k=0 term is |C_0| even at z=0
    np.nan_to_num(terms, copy=False, nan=-np.inf)  # 0 * log(0) rows at z=0
    top = terms.max(axis=0)
    # summed row after row, as sum(axis=0) does for two or more points (it
    # sums a single column pairwise), so a point's residual is batch-independent
    denom = top + np.log2(np.cumsum(np.exp2(terms - top[None, :]), axis=0)[-1])
    return np.exp2(value_logs - denom)


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


def _exact_ratios(values: list, slopes: list, bits: int, points: np.ndarray) -> np.ndarray:
    """Newton ratios p/p' at the points from `_gaussian_horner`, each rounded
    once to double: the exact refinement's ratios (see `_Sweep`).

    `values` are the integer coefficients c_k << bits of p and `slopes` the
    coefficients (k c_k) << bits of p', so with N the degree of p the
    fixed-point values P and D at z = (x + iy) / 2**bits obey
    |P / 2**bits - p(z)| <= 2**(1-bits) sum_{j<N} |z|**j and
    |D / 2**bits - p'(z)| <= 2**(1-bits) sum_{j<N-1} |z|**j.
    Python's int / int division rounds correctly; a ratio it cannot
    represent comes back non-finite, as a double ratio would.
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
    return w


def _half_degree_factor(params: HypersimplexParams) -> list:
    """Integer coefficients of Q, lowest degree first, such that
    p(z) = (z + 1) Q((z + 1)**2) up to a positive factor.

    At n = 2d the hypersimplex is Gorenstein (De Negri and Hibi 1997), so
    p(-2 - z) = -p(z): q(y) = p(y - 1) is odd, and Q(y**2) = q(y) / y.  q
    comes exactly from `_taylor_shift` on the integers of (n-1)! p, and every
    even coefficient of q is checked to be 0 on each call, so the factor rests
    on that check, not on the theorem.  Where one is not 0 (every pair with
    n != 2d) this raises StructureViolation.
    """
    shifted = _taylor_shift(_ehrhart_cached(params.d, params.n).coeffs, -1)
    if any(shifted[0::2]):
        raise StructureViolation(
            f"p(y - 1) has a nonzero even coefficient at (d, n) = ({params.d}, {params.n})"
        )
    return shifted[1::2]


def _half_degree_roots(params: HypersimplexParams, tol: float) -> RootSet:
    """The roots at n = 2d from the M = d - 1 roots w of Q (`_half_degree_factor`).

    Q's coefficients are divided by the largest one; their log2 spread
    stays below 5.4 bits up to d = 300, where p's spans hundreds, so the
    eigenvalues of Q's companion matrix (`np.roots`) are its roots to
    backward stability (Edelman and Murakami 1995): no sweep and no start
    point, so the seed plays no part.  w is made complex before its square
    root, which would be NaN at a negative real double.  Each w gives
    z = -1 +- sqrt(w) (at d = 1, Q is a constant with no root); `_finish`
    adds the pinned root z = -1 and certifies the others on p itself.
    """
    factor = _half_degree_factor(params)
    top = max(map(abs, factor))
    w = np.roots([c / top for c in reversed(factor)]).astype(complex)
    root = np.sqrt(w)
    z = np.concatenate((-1 + root, -1 - root))
    return (yield from _finish(params, z, tol, 0, True))


def _finish(params, z, tol, iterations, clean_exit, extended_bits=None, extended_sweeps=0):
    """The free roots z and the pinned -1, ..., -k of `pinned_roots` (exact,
    residual 0.0, never evaluated), snapped and sorted, with their residual
    certificates: the last step of the solve, one request for p's values
    (`_eval_values`) at z and its real-axis snap candidates, the real parts
    of the free roots near the axis, and none where z is empty.  Where p's
    coefficients cancel, far points meet this backward error (at (30, 65),
    0.11 (1 + |z|) from any root), so converged needs `clean_exit`, the
    sweeps' correction test, too."""
    near = np.flatnonzero(
        (z.imag != 0) & (np.abs(z.imag) <= 10 * tol * (1 + np.abs(z.real)))
    )
    candidates = z.real[near].astype(complex)
    points = np.concatenate((z, candidates))
    measured = np.empty(0)
    if points.size:
        measured = _residuals(_coefficient_logs(params), points, (yield _eval_values, points))
    pinned, _ = pinned_roots(params)
    snapped = np.concatenate((z, -np.arange(1, pinned + 1) + 0j))
    residuals = np.concatenate((measured[:z.size], np.zeros(pinned)))

    # snap numerically-real roots onto the axis when the certificate allows
    ok = measured[z.size:] <= tol
    snapped[near[ok]] = candidates[ok]
    residuals[near[ok]] = measured[z.size:][ok]
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


@dataclass(frozen=True, eq=False)
class _Sweep:
    """A solve's request for Ehrlich-Aberth sweeps of its free roots z,
    which `_lockstep` moves in place and answers with (sweeps, settled).

    Each sweep moves the roots still moving by one update of `_Sweeps`,
    with Newton ratios q/q' from `_eval_vec` and the `pinned` roots
    -1, ..., -k, or, where `exact` is (values, slopes, bits), from
    `_exact_ratios` on q's fixed-point coefficients.  A root leaves once its
    correction is at most tol (1 + |z|), or once it is noise-limited (|p|
    at most `_eval_vec`'s floor): from there its corrections only wander.
    After `cap` sweeps every root stops.  `settled` is True when every root
    left by the correction test; an empty z takes no sweep.
    """

    z: np.ndarray
    pinned: int
    tol: float
    cap: int
    exact: Optional[tuple] = None


def _solve(params: HypersimplexParams, config: SolverConfig):
    """One pair's solve, as `find_roots` describes it, as a step of
    `_lockstep`: it hands the driver its free roots once for the double
    sweeps, and once more for the exact refinement's, as a `_Sweep`, asks
    for p's values at its certificates (`_finish`), and returns the
    RootSet.  The start is read off q's integers, and the half-degree path
    asks for p only at its certificates."""
    d, n = params.d, params.n
    tol = config.resolved_tolerance(n - 1)
    if n == 2 * d:
        return (yield from _half_degree_roots(params, tol))

    pinned, quotient = pinned_roots(params)
    z = _initial_points(params, config.seed)
    iterations, settled = yield _Sweep(z, pinned, tol, config.max_iterations)
    if settled:
        result = yield from _finish(params, z, tol, iterations, True)
        if result.converged:
            return result

    logs = [_log2_int(abs(c)) for c in quotient if c]
    bits = int(1.5 * (max(logs) - min(logs))) + 96
    values = [c << bits for c in quotient]
    slopes = [(k * c) << bits for k, c in enumerate(quotient)][1:]
    exact = (values, slopes, bits)
    sweeps, settled = yield _Sweep(z, pinned, tol, config.max_iterations, exact)
    return (yield from _finish(params, z, tol, iterations, settled, bits, sweeps))


# The most entries one array call of the driver takes: rows x points in an
# evaluator call of several pairs (a larger request gets a call of its own,
# as alone), and points x padded width in a temporary of the sweep update.
# Neither changes a bit, and the cap holds memory, not time: uncapped, a
# numeric paper grid d = 4..10 peaked at 49.4 MB RSS against 40.3 MB
# (certified d = 4..7: 33.9 against 32.8 MB), no faster beyond noise.
_BATCH_ENTRIES = 1 << 12

# -0 is the identity of addition, also beside a zero sum, so entries of a
# row set to it leave the row's running sum bit for bit as it was
_NEG_ZERO = complex(-0.0, -0.0)


def _packing_key(params: HypersimplexParams, i: int) -> tuple:
    """Where pair i of params goes in a round: by row count min(d, n - d),
    then n descending, then i."""
    return _term_rows(params.d, params.n), -params.n, i


def _packed(items) -> list:
    """Cuts `items`, (key, rows, member, size) in packing order, into calls
    (key, members): consecutive members of one key, up to `_BATCH_ENTRIES`
    entries rows x points, and a larger member alone."""
    calls, entries = [], 0
    for key, rows, member, size in items:
        if not calls or calls[-1][0] != key or entries + size * rows > _BATCH_ENTRIES:
            calls.append((key, []))
            entries = 0
        calls[-1][1].append(member)
        entries += size * rows
    return calls


def _call(evaluator, rows: int, runs: list, z: np.ndarray, members: list, seconds: list):
    """evaluator(rows, runs, z), or the exception it raised; its time is
    shared out in `seconds` to `members`, one per run, by products,
    rows x (n - 1) per point."""
    start = time.perf_counter()
    try:
        out = evaluator(rows, runs, z)
    except Exception as exc:  # ends what this call's pairs were doing
        out = exc
    elapsed, total = time.perf_counter() - start, sum(c * (n - 1) for n, c in runs)
    for i, (n, count) in zip(members, runs):
        seconds[i] += elapsed * (count * (n - 1)) / total
    return out


def _evaluate(params_list: Sequence, requests: dict, seconds: list) -> dict:
    """Each request's share of its evaluator.

    `requests` maps i to (evaluator, points) of pair params_list[i]; the
    evaluator, `_eval_values` or `_value_bounds`, is the request's kind.
    They are taken by kind, in order of first request, then row count
    min(d, n - d), n descending and i, and cut by `_packed` into calls
    evaluator(rows, runs, z) of one kind and row count, with whole pairs and
    each pair's n as one (n, count) run; every output array is sliced back
    per request, and the time shared out by `_call`.  If a call raises,
    each of its requests gets the exception."""
    kinds = list(dict.fromkeys(evaluator for evaluator, _ in requests.values()))
    keys = {i: (kinds.index(requests[i][0]), *_packing_key(params_list[i], i)) for i in requests}
    answers = {}
    for (kind, rows), members in _packed(
        (keys[i][:2], keys[i][1], i, requests[i][1].size) for i in sorted(requests, key=keys.get)
    ):
        runs = [(params_list[i].n, requests[i][1].size) for i in members]
        z = np.concatenate([requests[i][1] for i in members])
        out = _call(kinds[kind], rows, runs, z, members, seconds)
        lo = 0
        for i, (_, count) in zip(members, runs):
            answers[i] = out if isinstance(out, Exception) else tuple(a[lo:lo + count] for a in out)
            lo += count
    return answers


class _Sweeps:
    """The sweeps of every pair of `_lockstep` that asked for them (`_Sweep`),
    one array step a round.

    Row r of `table` holds one pair's free roots, then inf up to the width
    of the widest pair, and `moving` marks the free roots still moving; the
    pinned -1, ..., -k are the same for every pair, so they come from one
    shared row.  The rows are in packing order, double ratios before exact
    ones, then row count min(d, n - d), n descending and input order, so
    each `_eval_vec` call of a round, cut by `_packed`, takes one contiguous
    slice of the round's moving points.  The table stays in place across
    rounds; it is rebuilt only when pairs join or leave.

    A round takes the Newton ratios w of every moving point, from
    1 / (p'/p - sum_m 1 / (z + m)) in doubles or, for an exact row, from
    `_exact_ratios` pair by pair, sets w to 0 where it is not finite, and
    moves the point by the correction w / (1 - w sum_{j != i} 1 / (z_i - z_j)),
    over the pair's free roots, or by w where that denominator is 0, and not
    at all where the correction is not finite, all from the round's old
    points.  Every step but the two sums is elementwise, and the sums
    (`_sums`) run along the row in order, so each point gets the bits it
    gets alone, whatever the padding or the chunks of at most
    `_BATCH_ENTRIES` entries that bound the update's temporaries.
    """

    def __init__(self, params_list: Sequence, seconds: list):
        self.params_list, self.seconds = params_list, seconds
        self.requests = {}  # pair -> its _Sweep, in row order
        self.table = np.empty((0, 0), dtype=complex)
        self.moving = np.empty((0, 0), dtype=bool)
        self.sweeps = np.empty(0, dtype=np.int64)
        self.noisy = np.empty(0, dtype=bool)
        self._take([])

    def __contains__(self, i) -> bool:
        return i in self.requests

    def join(self, joining: dict) -> dict:
        """Adds the pairs of `joining`, i -> _Sweep; returns the answers of
        those with no free root, which take no sweep."""
        answers = {i: (0, True) for i, request in joining.items() if not request.z.size}
        new = {i: request for i, request in joining.items() if request.z.size}
        if new:
            old = len(self.requests)
            self.requests.update(new)
            width = max(request.z.size for request in self.requests.values())
            table = np.full((len(self.requests), width), complex(math.inf))
            moving = np.zeros(table.shape, dtype=bool)
            table[:old, :self.table.shape[1]] = self.table
            moving[:old, :self.moving.shape[1]] = self.moving
            for r, request in enumerate(new.values(), start=old):
                table[r, :request.z.size] = request.z
                moving[r, :request.z.size] = True
            self.table, self.moving = table, moving
            self.sweeps = np.concatenate((self.sweeps, np.zeros(len(new), dtype=np.int64)))
            self.noisy = np.concatenate((self.noisy, np.zeros(len(new), dtype=bool)))
            keys = [
                (request.exact is not None, *_packing_key(self.params_list[i], i))
                for i, request in self.requests.items()
            ]
            self._take(sorted(range(len(keys)), key=keys.__getitem__))
        return answers

    def _take(self, index):
        """Keeps the rows `index`, in that order, and their per-row constants."""
        index = np.asarray(index, dtype=np.intp)
        members = list(self.requests)
        members = [members[r] for r in index]
        self.requests = {i: self.requests[i] for i in members}
        params = [self.params_list[i] for i in members]
        self.n = [p.n for p in params]
        self.rows = [_term_rows(p.d, p.n) for p in params]
        requests = list(self.requests.values())
        self.doubles = sum(request.exact is None for request in requests)
        self.free = np.array([request.z.size for request in requests], dtype=np.intp)
        self.pinned = np.array([request.pinned for request in requests], dtype=np.intp)
        self.tol = np.array([request.tol for request in requests], dtype=float)
        self.cap = np.array([request.cap for request in requests], dtype=np.int64)
        width = int(self.free.max(initial=0))
        self.table, self.moving = self.table[index, :width], self.moving[index, :width]
        self.sweeps, self.noisy = self.sweeps[index], self.noisy[index]

    def round(self) -> dict:
        """One sweep of every row; returns the answers of the pairs whose
        sweeps ended: (sweeps, settled), or the exception of their failed
        `_eval_vec` call or `_exact_ratios`, which ends exactly those pairs."""
        if not self.requests:
            return {}
        start, spent = time.perf_counter(), 0.0
        members = list(self.requests)
        width = self.table.shape[1]
        flat = np.flatnonzero(self.moving)
        owner, column = np.divmod(flat, width)
        z = self.table.ravel()[flat]
        counts = np.bincount(owner, minlength=len(members)).tolist()
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        self.sweeps += 1
        failed = {}
        split = bounds[self.doubles]
        S, Sp, floor = np.empty(split, dtype=complex), np.empty(split, dtype=complex), np.empty(split)
        calls = _packed((self.rows[r], self.rows[r], r, counts[r]) for r in range(self.doubles))
        for rows, rs in calls:
            lo, hi = bounds[rs[0]], bounds[rs[-1] + 1]
            runs = [(self.n[r], counts[r]) for r in rs]
            call_start = time.perf_counter()
            out = _call(_eval_vec, rows, runs, z[lo:hi], [members[r] for r in rs], self.seconds)
            spent += time.perf_counter() - call_start
            if isinstance(out, Exception):
                failed.update(dict.fromkeys(rs, out))
                S[lo:hi] = Sp[lo:hi] = floor[lo:hi] = math.nan
            else:
                S[lo:hi], Sp[lo:hi], _, floor[lo:hi] = out
        w = np.empty(z.size, dtype=complex)
        for r in range(self.doubles, len(members)):
            lo, hi = bounds[r], bounds[r + 1]
            ratio_start = time.perf_counter()
            try:
                w[lo:hi] = _exact_ratios(*self.requests[members[r]].exact, z[lo:hi])
            except Exception as exc:  # ends this pair's sweeps; the others go on
                failed[r] = exc
                w[lo:hi] = math.nan
            elapsed = time.perf_counter() - ratio_start
            self.seconds[members[r]] += elapsed
            spent += elapsed

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            repulsion, poles = self._sums(z, owner, column, bounds)
            w[:split] = 1.0 / (Sp / S - poles[:split])  # the shared exponent cancels in p'/p
            w[~np.isfinite(w)] = 0.0
            denom = 1.0 - w * repulsion
            correction = np.where(denom != 0, w / denom, w)
        correction[~np.isfinite(correction)] = 0.0
        z -= correction
        done = np.abs(correction) <= self.tol[owner] * (1.0 + np.abs(z))
        noisy = np.zeros(z.size, dtype=bool)
        noisy[:split] = np.abs(S) <= floor
        self.table.ravel()[flat] = z
        self.noisy[owner[noisy & ~done]] = True
        self.moving.ravel()[flat[done | noisy]] = False

        left = self.moving.any(axis=1)
        ended = ~left | (self.sweeps >= self.cap)
        ended[list(failed)] = True
        answers = {}
        for r in np.flatnonzero(ended).tolist():
            request = self.requests[members[r]]
            if r in failed:
                answers[members[r]] = failed[r]
                continue
            request.z[:] = self.table[r, :request.z.size]
            answers[members[r]] = int(self.sweeps[r]), not (self.noisy[r] or left[r])
        share = (time.perf_counter() - start - spent) / z.size
        for i, count in zip(members, counts):
            self.seconds[i] += share * count
        if answers:
            self._take(np.flatnonzero(~ended))
        return answers

    def _sums(self, z: np.ndarray, owner: np.ndarray, column: np.ndarray, bounds: list):
        """For each moving point z_i, in row owner[i] at column column[i],
        sum_{j != i} 1 / (z_i - z_j) over its row's free roots and
        sum_m 1 / (z_i + m) over its pair's pinned roots, each a running sum
        along the row (`np.cumsum`) read at the pair's own last entry, with
        -0 in place of the term j = i, so no padding enters it.  Row r's
        points are z[bounds[r]:bounds[r + 1]]; they go in chunks of whole
        rows, as wide as their widest, of at most `_BATCH_ENTRIES` entries,
        and a larger row alone, as it would be alone."""
        repulsion = np.empty(z.size, dtype=complex)
        poles = np.empty(z.size, dtype=complex)
        pinned = -np.arange(self.pinned.max() + 1) + 0j  # column 0 stands for no pole
        widths = np.maximum(self.free, self.pinned + 1).tolist()
        count = np.arange(z.size)
        first = 0
        while first < len(widths):
            last, width = first + 1, widths[first]
            while last < len(widths):
                wider = max(width, widths[last])
                if (bounds[last + 1] - bounds[first]) * wider > _BATCH_ENTRIES:
                    break
                last, width = last + 1, wider
            part = slice(bounds[first], bounds[last])
            first = last
            own = owner[part]
            here = count[:own.size]
            free, k = self.free[own], self.pinned[own]
            inverse = 1.0 / (z[part, None] - self.table[own, :free.max()])
            inverse[here, column[part]] = _NEG_ZERO
            repulsion[part] = np.cumsum(inverse, axis=1)[here, free - 1]
            inverse = 1.0 / (z[part, None] - pinned[:k.max() + 1])
            inverse[:, 0] = _NEG_ZERO
            poles[part] = np.cumsum(inverse, axis=1)[here, k]
        return repulsion, poles


def _lockstep(params_list: Sequence, steps: Sequence) -> list:
    """Drives one step generator per pair in rounds.

    A step yields what it needs next: (evaluator, points), a `_Sweep`, or
    None.  Each round, the evaluator requests of all steps go to
    `_evaluate`, and every sweeping pair takes one sweep in `_Sweeps.round`.
    A step gets its share of its call back by `send`, or by `throw` the
    exception of that call; (sweeps, settled) once its sweeps end, so it
    waits one round per sweep; and None for None, in the next round with
    no call.  Returns, in input order, what each step returned, with
    `seconds` its own steps plus its share of each call and of each sweep
    update, by its moving points, or the exception that ended it: one
    raised by its own step ends no other."""
    outcomes = [None] * len(steps)
    seconds = [0.0] * len(steps)
    sweeps = _Sweeps(params_list, seconds)
    live = dict(enumerate(steps))
    answers = dict.fromkeys(live)
    while live:
        requests = {}
        for i, step in list(live.items()):
            if i in sweeps:
                continue
            start = time.perf_counter()
            answer = answers[i]
            try:
                if isinstance(answer, Exception):  # its call failed
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
        answers = dict.fromkeys(requests)
        answers.update(sweeps.join({i: r for i, r in requests.items() if isinstance(r, _Sweep)}))
        asked = {i: r for i, r in requests.items() if isinstance(r, tuple)}
        answers.update(_evaluate(params_list, asked, seconds))
        answers.update(sweeps.round())
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

    The pairs sweep in lockstep: each round takes one double or exact sweep
    of every pair still sweeping, in one array step (`_Sweeps`), with one
    `_eval_vec` call per row count min(d, n - d) and cap on the free roots
    still moving; an exact sweep makes no call.  A pair off the diagonal
    is evaluated in iterations + 1 rounds: in each round of its double
    sweeps, and in one `_eval_values` call for its residual certificates on
    the free roots with their snap candidates (one more when its settled
    double result misses the certificate); at n = 2d only in that one, and
    nowhere where every root is pinned (M = 0).  The start and the pinned
    roots are never evaluated.  Each point gets the bits it gets alone, in
    any batch and any chunk of the update, so every RootSet is the one
    `find_roots` returns.  Returns each pair's RootSet, or the exception
    that ended its solve; a failed call ends exactly the pairs in it.
    """
    config = config or SolverConfig()
    return _lockstep(params_list, [_solve(params, config) for params in params_list])


def find_roots(
    params: HypersimplexParams, config: Optional[SolverConfig] = None
) -> RootSet:
    """All n-1 complex roots, by Ehrlich-Aberth iteration off the diagonal.

    The roots -1, ..., -k of `ehrhart.pinned_roots` are returned exactly,
    with residual 0.0 and never evaluated; the sweeps move only the
    M = n - 1 - k free roots, the roots of the quotient q, and none run,
    and nothing is evaluated, where M = 0 (d = 1 or n - d = 1).
    Deterministic given the seed, which only turns the start points along
    their ellipse around the free roots' centroid (`_initial_points`, read
    off q's integers exactly).  Convergence demands both a small final
    correction and a residual certificate on p at or below the tolerance,
    at all M free roots: the certificate, a backward error relative to p's
    coefficients, is met far from any root where they cancel (see
    `_finish`), evaluated in value mode (`_eval_values`).  The sweeps first
    run in doubles; a root whose product-form value sinks into its rounding
    noise (the alternating sum cancels deeply near n = 2d) stops there.  If
    any root stopped that way, even with the certificate met, or the double
    result misses it, the same iterates are refined by further sweeps of the
    same Ehrlich-Aberth update (`_Sweeps`) whose Newton ratios come from q's
    exact integer coefficients in fixed point, with 1.5 times those
    coefficients' log2 spread plus 96 fractional bits (see
    `_exact_ratios`).  `iterations` counts the double sweeps,
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
    values = _eval_values(params.d, params.n, z)
    return float(_residuals(_coefficient_logs(params), z, values)[0])
