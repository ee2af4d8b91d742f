"""Sampled checks of the contour-comparison machinery.

The root localization argument compares the dominant product term against
the sum of the remaining ones on the boundary of a rectangle.  This module
evaluates those modulus ratios at concrete sample points: monotonicity in
the order parameter on the right and left edges, the explicit bound on the
horizontal edges, boundary margins for the comparison itself, and the
inequality chain used for the d >= 4 half-plane results.  The sampled checks
are numerical evidence, not proof; the d >= 4 sum bound is decided in exact
rationals.

The product terms come from the factor loop of `roots` (`_term_products`),
in its value-only mode: no derivative rows are built.  `_ratios` evaluates
the modulus ratios of all d rows on blocks of up to `_BLOCK` points, and
`rouche_margin` sums them.  A row's bits do not depend on the other rows,
so `phi` and `f_term_modulus` (a log2 modulus, so it keeps values beyond
the double range) read row s of one such call of size 1, as `check_aida`
does through `phi`.  The contour samples are made block by block as
arrays (`ContourSpec.sample_blocks`).

The monotonicity checks never build a full product.  Both orders they
compare are products over one arithmetic progression of factors
(d-s)z + j - s, and their edges lie a whole number apart, so the factors
common to both orders cancel in the quotient Q of the two ratios: about 4n
factors per height leave at most 2d (`_log2_quotient`).  Every factor has
real coefficients, so Q is even in the height: the checks evaluate the
distinct magnitudes |t| of their heights alone (the default grid's are
built as they are, given heights are folded by a sort).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .ehrhart import HypersimplexParams, _integer
from .errors import DivisionByZeroTerm, DomainViolation, HypothesisViolation, InvalidParams
from .roots import _point, _term_products

RELATIVE_SLACK = 1e-12  # a strict inequality must clear this margin to "pass"
_LOG2_PASS = math.log2(1.0 - RELATIVE_SLACK)
_BLOCK = 4096  # points per evaluator call

IMAGINARY_AXIS = "imaginary_axis"
LEFT_EDGE = "left_edge"
HORIZONTAL_EDGE = "horizontal_edge"
_KINDS = (IMAGINARY_AXIS, LEFT_EDGE, HORIZONTAL_EDGE)


def _validate_indices(n: int, d: int, s: int, smallest: int = 0) -> Tuple[int, int, int]:
    """n, d and s as plain ints (see `ehrhart._integer`), checked, (d, n)
    as `HypersimplexParams` checks them."""
    s = _integer("s", s)
    params = HypersimplexParams(d, n)
    n, d = params.n, params.d
    if not smallest <= s <= d - 1:
        raise DomainViolation(f"need {smallest} <= s <= d-1, got (n={n}, d={d}, s={s})")
    return n, d, s


def _log2_terms(n: int, d: int, z: np.ndarray) -> np.ndarray:
    """log2 |C(n,s) prod_{k=1}^{n-1} ((d-s)z + k - s)| for s = 0..d-1 as a
    (d, len(z)) array, -inf where a factor vanishes; batch-independent like
    `_term_products`."""
    # terms beyond the double range overflow to inf or NaN; callers fail on those
    with np.errstate(over="ignore", invalid="ignore"):
        prod, _, exps = _term_products(d, n, z, mode="value")
    log_binom = np.array([math.log2(math.comb(n, s)) for s in range(d)])
    with np.errstate(divide="ignore"):
        return np.log2(np.abs(prod)) + exps + log_binom[:, None]


def _ratios(n: int, d: int, z: np.ndarray) -> np.ndarray:
    """phi for s = 0..d-1 as a (d, len(z)) array, by exponent difference
    from row 0, the dominant term."""
    logs = _log2_terms(n, d, z)
    poles = np.flatnonzero(logs[0] == -np.inf)
    if poles.size:
        raise DivisionByZeroTerm(f"dominant term vanishes at z={complex(z[poles[0]])}")
    gap = logs - logs[0]
    ratios = np.exp2(np.minimum(gap, 1020.0))
    ratios[gap > 1020] = np.inf
    ratios[0] = 1.0
    return ratios


def f_term_modulus(n: int, d: int, s: int, z: complex) -> float:
    """log2 |C(n,s) * ((d-s)z + n-1-s) ... ((d-s)z + 1-s)|, -inf where a
    factor vanishes; a log keeps moduli beyond the double range.  z must
    be finite with d |z| + n <= 2**51 (DomainViolation)."""
    n, d, s = _validate_indices(n, d, s)
    return float(_log2_terms(n, d, _point(d, n, z))[s, 0])


def phi(n: int, d: int, s: int, z: complex) -> float:
    """Modulus ratio of the s-th product term to the dominant (s=0) one;
    z must be finite with d |z| + n <= 2**51 (DomainViolation)."""
    n, d, s = _validate_indices(n, d, s)
    return float(_ratios(n, d, _point(d, n, z))[s, 0])


def default_beta_grid(n: int, points: int = 400):
    """0 plus `points` log-spaced magnitudes in [1e-3, 1e2]*n, both signs."""
    magnitudes = _beta_magnitudes(n, points)
    return np.concatenate((magnitudes, -magnitudes[1:])).tolist()


def _beta_magnitudes(n: int, points: int) -> np.ndarray:
    """0 and the positive half of `default_beta_grid`, ascending: the
    distinct magnitudes the checks evaluate on it."""
    n, points = _integer("n", n), _integer("points", points)
    if n < 2:
        raise InvalidParams(f"the beta grid needs n >= 2, got n={n}")
    return np.concatenate(([0.0], n * _beta_powers(points)))


@functools.lru_cache(maxsize=8)
def _beta_powers(points: int) -> np.ndarray:
    """10.0 ** t for `points` steps t from -3 to 2, as a read-only array.
    Each power is taken in Python floats, on purpose: np.power does not
    round every one of them the same way."""
    if points < 2:
        raise DomainViolation(f"the beta grid needs at least 2 points, got {points}")
    powers = np.array([10.0 ** (-3.0 + 5.0 * i / (points - 1)) for i in range(points)])
    powers.setflags(write=False)
    return powers


def _magnitudes(n: int, beta_samples) -> np.ndarray:
    """The distinct |t| a check evaluates, ascending: those of the default
    grid at n when beta_samples is None, else those of the samples, with
    DomainViolation when they are not 1-D, there is none or one is not
    finite, which would give a vacuous pass or NaN ratios."""
    if beta_samples is None:
        return _beta_magnitudes(n, 400)
    t = np.asarray(beta_samples, dtype=float)
    if t.ndim != 1:
        raise DomainViolation(f"the heights must be 1-D, got shape {t.shape}")
    t = np.sort(np.abs(t))
    if t.size == 0:
        raise DomainViolation("need at least one height")
    if not np.isfinite(t[-1]):  # sorted, an inf or NaN comes last
        raise DomainViolation(f"the heights must be finite, got {t[-1]}")
    return t[np.concatenate(([True], t[1:] != t[:-1]))]


def _strictly_less(lhs: float, rhs: float) -> bool:
    return lhs < rhs * (1.0 - RELATIVE_SLACK)


def _outside(lo: int, hi: int, other_lo: int, other_hi: int) -> list:
    """The integers of [lo, hi] outside the nonempty [other_lo, other_hi], ascending."""
    return [*range(lo, min(hi, other_lo - 1) + 1), *range(max(lo, other_hi + 1), hi + 1)]


def _log2_quotient(n: int, d: int, s: int, n_next: int, p: int, q: int, delta: int, t):
    """log2 Q, Q = phi_s(n_next, z + delta) / phi_s(n, z) at z = p/q + i*t,
    from the factors the two orders do not share (see `_ratio_falls`), for
    integers p, q > 0 and delta; -inf or inf where one of them vanishes.
    t lies in the domain of `_ratio_falls`, where |factor|**2 <= 2**104."""
    weight, square, slope2 = [], [], []  # per factor left: +-1/2, real part**2, slope**2
    for row, sign in ((s, 0.5), (0, -0.5)):
        slope = d - row
        lo, hi = 1 + slope * delta, n_next - 1 + slope * delta
        for side, js in ((sign, _outside(lo, hi, 1, n - 1)), (-sign, _outside(1, n - 1, lo, hi))):
            for j in js:
                # one rounding from integers, so that a vanishing factor is exactly 0
                real = (slope * p + (j - row) * q) / q
                weight.append(side)
                square.append(real * real)
                slope2.append(slope * slope)
    square, slope2 = np.array(square)[:, None], np.array(slope2, dtype=float)[:, None]
    with np.errstate(divide="ignore"):
        logs = np.log2(square + slope2 * (t * t))
    return math.log2(math.comb(n_next, s) / math.comb(n, s)) + np.dot(weight, logs)


def _ratio_falls(n: int, d: int, s: int, n_next: int, re, re_next, t) -> bool:
    """Whether phi_s of order n_next at re_next + i*t is strictly below phi_s of
    order n at re + i*t at every height t where not both of them vanish.

    Every factor is (d-s)z + j - s for one row s.  With z' = z + delta, an
    integer, the factor k of order n_next at z' is the factor
    j = k + (d-s)delta at z, so the orders multiply the same progression
    over J' = [1 + (d-s)delta, n_next - 1 + (d-s)delta] and J = [1, n-1].
    Their quotient Q keeps, of row s, the factors of J' outside J above the
    line and those of J outside J' below it, of row 0 the other way round,
    times C(n_next, s) / C(n, s); the check passes iff log2 Q stays below
    log2(1 - RELATIVE_SLACK).  On the right edge (delta = 0, n_next = n + 1)
    one factor per row is left, j = n; on the left edge (delta = -1,
    n_next = n + d) row s keeps j in [1 - (d-s), 0] and [n, n + s - 1],
    row 0 keeps j in [1 - d, 0].

    re and re_next are exact rationals (an int, a Fraction, or a float read
    exactly) a whole number apart, else ValueError.  The largest height
    must lie in the domain of `phi` for both orders (DomainViolation).  Row
    s vanishes only at t = 0, on j0 = s - (d-s)re: both ratios vanish
    there, and the height is skipped, when j0 is an integer in J and J'.
    """
    (p, q), (p_next, q_next) = re.as_integer_ratio(), re_next.as_integer_ratio()
    delta, rest = divmod(p_next - p, q)
    if q_next != q or rest:
        raise ValueError(f"the edges must be a whole number apart, got {re} and {re_next}")
    t = np.asarray(t, dtype=float)
    top = float(np.abs(t).max())
    for order, x in ((n, re), (n_next, re_next)):
        _point(d, order, complex(x, top))
    j0, rest = divmod(s * q - (d - s) * p, q)
    shift = (d - s) * delta
    if rest == 0 and max(1, 1 + shift) <= j0 <= min(n - 1, n_next - 1 + shift):
        t = t[t != 0]
    return bool((_log2_quotient(n, d, s, n_next, p, q, delta, t) < _LOG2_PASS).all())


def check_migi(n: int, d: int, s: int, beta_samples=None) -> bool:
    """On the imaginary axis, the ratio for order n+1 sits strictly below
    the ratio for order n, at every sampled height.

    Samples where both ratios vanish exactly (the origin, where every s >= 1
    term has a zero factor) are degenerate for a strict comparison and are
    skipped.  beta_samples must be 1-D, finite and not empty, with
    d |z| + n + 1 <= 2**51 at the largest (DomainViolation).
    """
    n, d, s = _validate_indices(n, d, s, smallest=1)
    return _ratio_falls(n, d, s, n + 1, 0, 0, _magnitudes(n, beta_samples))


def check_hidari(n: int, d: int, s: int, beta_samples=None) -> bool:
    """On the left edge, the ratio for order n+d sits strictly below the
    ratio for order n; each order is evaluated on its own edge Re = -n/d.

    Requires n >= d^2 - 2, the hypothesis under which the comparison holds.
    Heights where both ratios vanish (t = 0 when d divides s*n) are skipped.
    beta_samples must be 1-D, finite and not empty, with d |z| + n + d <=
    2**51 at the largest, z on the edge of order n + d (DomainViolation).
    """
    n, d, s = _validate_indices(n, d, s, smallest=1)
    if n < d * d - 2:
        raise HypothesisViolation(f"need n >= d^2 - 2 = {d * d - 2}, got n={n}")
    edge, edge_next = Fraction(-n, d), Fraction(-n - d, d)
    return _ratio_falls(n, d, s, n + d, edge, edge_next, _magnitudes(n, beta_samples))


def aida_bound(n: int, d: int, s: int, lam: float) -> float:
    """The explicit horizontal-edge bound C(n,s)(((d-s)^2 + 1/lam^2)/d^2)^((n-1)/2)."""
    n, d, s = _validate_indices(n, d, s, smallest=1)
    # a NaN lam would compare as false, an infinite one gives a NaN ratio
    if not (math.isfinite(lam) and lam != 0):
        raise DomainViolation(f"lam must be finite and nonzero, got {lam}")
    log2bound = math.log2(math.comb(n, s)) + 0.5 * (n - 1) * math.log2(
        ((d - s) ** 2 + 1.0 / (lam * lam)) / (d * d)
    )
    return 2.0 ** log2bound


def check_aida(n: int, d: int, s: int, alpha: float, lam: float) -> bool:
    """At z = -alpha + i*lam*n with 0 <= alpha <= n/d, the ratio stays
    strictly below the explicit bound."""
    bound = aida_bound(n, d, s, lam)
    if not 0 <= alpha <= n / d:
        raise DomainViolation(f"need 0 <= alpha <= n/d = {n / d:.6g}, got {alpha}")
    return _strictly_less(phi(n, d, s, complex(-alpha, lam * n)), bound)


@dataclass(frozen=True)
class ContourSpec:
    """One edge of the comparison rectangle and how to sample it.

    kind selects the edge: the imaginary axis (z = i*beta), the left edge
    (z = -n/d + i*beta), or a horizontal edge (z = -alpha + i*lam*n with the
    sign of lam picking top or bottom).  range covers the free parameter
    (beta for vertical edges, alpha in [0, n/d] for horizontal ones); when
    omitted, vertical edges span [-lam*n, lam*n] and horizontal ones the
    full [0, n/d].
    """

    kind: str
    d: int
    n: int
    range: Optional[Tuple[float, float]] = None
    lam: float = math.sqrt(2.0)
    samples: int = 1001

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainViolation(f"unknown contour kind {self.kind!r}")
        params = HypersimplexParams(self.d, self.n)
        object.__setattr__(self, "d", params.d)
        object.__setattr__(self, "n", params.n)
        object.__setattr__(self, "samples", _integer("samples", self.samples))
        if self.samples < 2:
            raise DomainViolation("need at least 2 samples")
        lo, hi = self.resolved_range()
        # a non-finite value would make NaN samples, whose ratios compare as false
        if not all(map(math.isfinite, (self.lam, lo, hi, hi - lo))):
            raise DomainViolation(
                f"lam, the range and its width must be finite, got lam={self.lam}, ({lo}, {hi})"
            )
        if self.kind == HORIZONTAL_EDGE:
            if self.lam == 0:
                raise DomainViolation("horizontal edge needs lam != 0")
            if not (0 <= lo <= hi <= self.n / self.d + 1e-12):
                raise DomainViolation(
                    f"horizontal range must lie in [0, n/d], got ({lo}, {hi})"
                )

    def resolved_range(self) -> Tuple[float, float]:
        if self.range is not None:
            return self.range
        if self.kind == HORIZONTAL_EDGE:
            return (0.0, self.n / self.d)
        span = abs(self.lam) * self.n
        return (-span, span)

    def sample_blocks(self, size: int):
        """The samples at t = lo + step*i, i = 0..samples-1, as complex arrays
        of at most `size` points: i*t, -n/d + i*t or -t + i*lam*n by kind."""
        lo, hi = self.resolved_range()
        step = (hi - lo) / (self.samples - 1)
        for start in range(0, self.samples, size):
            t = lo + step * np.arange(start, min(start + size, self.samples))
            z = np.empty(t.size, dtype=complex)
            if self.kind == HORIZONTAL_EDGE:
                z.real, z.imag = -t, self.lam * self.n
            else:
                z.real = 0.0 if self.kind == IMAGINARY_AXIS else -self.n / self.d
                z.imag = t
            yield z


@dataclass(frozen=True)
class MarginReport:
    """Worst sampled ratio sum on a contour edge; passed means max < 1."""

    max_ratio: float
    argmax_point: complex
    nudged: int = 0

    @property
    def passed(self) -> bool:
        return _strictly_less(self.max_ratio, 1.0)


def rouche_margin(spec: ContourSpec) -> MarginReport:
    """Max over the edge samples of the sum of the s >= 1 modulus ratios.

    passed=True (max strictly below 1 with slack) is sampled evidence that
    the dominant term controls the boundary, hence that the comparison
    argument localizes all roots inside the rectangle; it is not a proof.
    Sample points within 1e-9 of a zero of the dominant term are nudged by
    1e-6 and counted in `nudged`.  A NaN ratio sum (the terms overflowed)
    fails the edge like an infinite one: the first such sample is reported
    as the argmax with max_ratio NaN.
    """
    d, n = spec.d, spec.n
    max_ratio = 0.0
    argmax = complex(0.0, 0.0)
    nudged = 0
    for z in spec.sample_blocks(_BLOCK):
        # zeros of the dominant term sit at -k/d, k = 1..n-1
        k = np.rint(-z.real * d)
        near = (np.abs(z.imag) < 1e-9) & (1 <= k) & (k <= n - 1)
        near &= np.abs(z.real + k / d) < 1e-9
        z.real[near] += 1e-6
        nudged += int(near.sum())
        ratios = _ratios(n, d, z)
        total = sum(ratios[1:], np.zeros(z.size))  # row after row, in s order
        best = int(np.argmax(total))  # np.argmax ranks a NaN sum above all others
        if not total[best] <= max_ratio and not math.isnan(max_ratio):
            max_ratio = float(total[best])
            argmax = complex(z[best])
    return MarginReport(max_ratio=max_ratio, argmax_point=argmax, nudged=nudged)


def geometric_factorial_sum(d: int) -> Fraction:
    """Exact partial sum of (2/3)^s / s! over s = 1..d-1."""
    return sum(
        (Fraction(2 ** s, 3 ** s * math.factorial(s)) for s in range(1, d)),
        Fraction(0),
    )


def ratio_bound(d: int) -> Fraction:
    """(2d-1)(d-1)^2 / (d(2d^2 - 5d + 4)), strictly below 1 for d >= 4."""
    return Fraction((2 * d - 1) * (d - 1) ** 2, d * (2 * d * d - 5 * d + 4))


def check_d4_sum_bound(d: int) -> bool:
    """The two d >= 4 half-plane ingredients on the right side, exactly.

    The partial sum S_{d-1} of (2/3)^s/s! over s = 1..d-1 stays strictly
    below its limit e^(2/3) - 1: every term of the series is positive, so
    S_{d-1} < S_{d-1} + (2/3)^d/d! = S_d <= e^(2/3) - 1, and the certificate
    is one rational comparison.  The per-term growth ratio stays strictly
    below 1, also as a rational.
    """
    d = _integer("d", d)
    if d < 4:
        raise HypothesisViolation(f"need d >= 4, got {d}")
    partial = geometric_factorial_sum(d)
    next_term = Fraction(2 ** d, 3 ** d * math.factorial(d))
    return partial < partial + next_term and ratio_bound(d) < 1


def h_value(d: int, s: float) -> float:
    """log((d-1) (d^2+2d)^s / Gamma(s+1) * ((d-s)/d)^((d-s)(d+1)))."""
    return (
        math.log(d - 1)
        + s * math.log(d * d + 2 * d)
        - math.lgamma(s + 1)
        + (d - s) * (d + 1) * math.log((d - s) / d)
    )


def h_endpoint_chain_bound(d: int) -> Fraction:
    """Exact value of 2^6 * 6^(d-2) * (d-1) / ((d+1)! * d^3) from the s=d-2 chain."""
    return Fraction(2 ** 6 * 6 ** (d - 2) * (d - 1), math.factorial(d + 1) * d ** 3)


def check_h_negative(d: int) -> bool:
    """Negativity of the left-edge exponent function at both endpoints.

    Convexity in s reduces the claim to s=1 and s=d-2; the check runs over
    every integer s in between as well, as a belt-and-braces check.
    """
    d = _integer("d", d)
    if d < 4:
        raise HypothesisViolation(f"need d >= 4, got {d}")
    return all(h_value(d, s) < -RELATIVE_SLACK for s in range(1, d - 1))
