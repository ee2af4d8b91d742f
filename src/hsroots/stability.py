"""Root-location certificates: inclusion disks and the exact Routh table.

Every verdict rests on integer arithmetic or on rigorous error bounds.
Given numeric approximations of all the roots, a side of the strip is first
tried with Weierstrass inclusion disks around them; the disks can only
prove a side.  The pinned roots -1, ..., -k (`ehrhart.pinned_roots`) lie
inside the strip, as k < n/d, and need no disk: when the given roots hold
every one of them exactly, `verify_strip` builds disks of radius
(N - k) |W_i| around the N - k others only, else around all N.  One loop,
`_disks`, decides every disk side in integers by `_inside`: on the disk's
float radius bound when it has one, else on its exact radius from the
points' dyadic values, with p evaluated by `roots._gaussian_horner` at
shift 0, the solver's own exact Horner loop.
`verify_strip_many` gives each disk the bound `_float_radii` builds from two
rigorous float bounds, on |p(z_i)| (`roots._value_bounds`) and on the
distance product (`roots._distance_product_lower`).  Each pair's
certificate is a step generator (`_certify`) run by the solver's own
driver (`roots._lockstep`), whose one request names its pair and
`_value_bounds`, so the value bounds of all pairs come in batches: one
call per row count min(d, n - d).  `verify_strip` is that driver on one
pair, and `inclusion_strip` gives no disk a float bound.  A
side the disks do not prove, and every call without roots, goes to the
Routh table, whose rows are rescaled only by positive constants (their
gcd), which preserves the sign structure the table's first column
encodes.  A zero leading element is reported as Boundary, never perturbed.
The disks, the shift and the table run on the integers of P = (n-1)! p
(`ehrhart`); the public functions on a `RationalPolynomial` clear denominators.
"""

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite
from typing import Optional, Sequence, Tuple

import numpy as np

from .ehrhart import HypersimplexParams, _ehrhart_cached
from .errors import ZeroPolynomial
from .polynomial import RationalPolynomial, _integer_coefficients, _taylor_shift
from .roots import (
    _distance_product_lower, _gaussian_horner, _lockstep, _only, _to_fixed, _value_bounds
)

STABLE = "Stable"
UNSTABLE = "Unstable"
BOUNDARY = "Boundary"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of one half-plane test.

    Stable: every root has strictly negative real part.
    Unstable: at least one root with positive real part.
    Boundary: the exact table produced a zero leading element (a root on the
    dividing axis, or a symmetric pair) and counting cannot proceed.

    `certifier` names the proof: "routh" for the Routh table, "inclusion"
    for the inclusion disks, which only ever prove Stable.
    """

    status: str
    witness: Optional[str] = None
    certifier: str = "routh"

    @property
    def is_stable(self) -> bool:
        return self.status == STABLE


@dataclass(frozen=True)
class StripVerdict:
    """Joint verdict for the open strip -n/d < Re < 0.

    `seconds` is the wall time spent on the pair (see `roots._lockstep`);
    it varies from run to run, so equality and repr leave it out.
    """

    left_ok: StabilityVerdict
    right_ok: StabilityVerdict
    seconds: float = field(default=0.0, repr=False, compare=False)

    @property
    def overall(self) -> bool:
        return self.left_ok.is_stable and self.right_ok.is_stable


def shift_polynomial(poly: RationalPolynomial, c) -> RationalPolynomial:
    """Exact Taylor shift: returns q with q(z) = p(z + c); p itself when c == 0.

    With c = a/b and L the lcm of p's denominators, `_taylor_shift` shifts
    the integers L p to L b**N p(z + c), each then divided by L b**N once;
    internal code shifts the integers of P = (n-1)! p with it directly.
    """
    c = Fraction(c)
    if c == 0 or poly.is_zero:
        return poly
    coeffs = _integer_coefficients(poly)
    scale = coeffs[-1] / poly.leading_coefficient * c.denominator**poly.degree
    return RationalPolynomial(
        [v / scale for v in _taylor_shift(coeffs, c.numerator, c.denominator)]
    )


def reflect_polynomial(poly: RationalPolynomial) -> RationalPolynomial:
    """Returns q with q(z) = p(-z): negate the odd-degree coefficients."""
    return RationalPolynomial(
        [-c if k % 2 else c for k, c in enumerate(poly.coeffs)]
    )


def _reduce_row(row: list) -> list:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def routh_hurwitz(poly: RationalPolynomial) -> StabilityVerdict:
    """Classify the roots of a real polynomial against the left half-plane.

    Builds the classical Routh table exactly.  Sign changes in the first
    column count roots with positive real part.  A full zero row signals a
    factor whose roots are symmetric about the origin; it is replaced, as in
    the classical procedure, by the derivative of the auxiliary polynomial
    of the row above (an exact step), and the presence of such a factor
    rules out Stable.  A zero leading element in a nonzero row stops the
    count and yields Boundary with the offending row as witness.
    """
    if poly.is_zero or poly.degree < 1:
        raise ZeroPolynomial("stability test needs degree >= 1")
    return _routh_table(_integer_coefficients(poly))


def _routh_table(coeffs: list) -> StabilityVerdict:
    """`routh_hurwitz` on integer coefficients, lowest first, at any positive scale."""
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    deg = len(coeffs) - 1

    # row i holds the coefficients of degree deg-i, deg-i-2, ...
    descending = coeffs[::-1]
    row_prev = _reduce_row(descending[0::2])
    row_cur = _reduce_row(descending[1::2])
    leading = [row_prev[0]]
    symmetric_factor = False

    for index in range(1, deg + 1):
        if not row_cur or all(v == 0 for v in row_cur):
            # auxiliary polynomial A(z) from the row above, at degree k;
            # its derivative restores the row without perturbation
            symmetric_factor = True
            k = deg - index + 1
            row_cur = _reduce_row(
                [(k - 2 * j) * v for j, v in enumerate(row_prev) if k - 2 * j >= 1]
            )
        if row_cur[0] == 0:
            return StabilityVerdict(
                BOUNDARY, witness=f"zero leading element in table row {index}"
            )
        leading.append(row_cur[0])
        if index == deg:
            break
        a, b = row_cur[0], row_prev[0]
        width = (deg - index - 1) // 2 + 1
        nxt = [
            a * (row_prev[j + 1] if j + 1 < len(row_prev) else 0)
            - b * (row_cur[j + 1] if j + 1 < len(row_cur) else 0)
            for j in range(width)
        ]
        if a < 0:
            nxt = [-v for v in nxt]  # keep the row a positive multiple of the true one
        nxt = _reduce_row(nxt)
        row_prev, row_cur = row_cur, nxt

    changes = sum(
        1 for x, y in zip(leading, leading[1:]) if (x > 0) != (y > 0)
    )
    if changes:
        return StabilityVerdict(
            UNSTABLE, witness=f"{changes} sign change(s) in the first column"
        )
    if symmetric_factor:
        # no right-half-plane roots among the symmetric factor: it lies on the axis
        return StabilityVerdict(BOUNDARY, witness="origin-symmetric factor on the axis")
    return StabilityVerdict(STABLE)


def _dyadic(points: Sequence[complex]) -> Tuple[list, int]:
    """The points exactly as Gaussian integers over one power of two.

    Returns ([(x_i, y_i)], bits) with z_i = (x_i + i y_i) / 2**bits; every
    finite double is a dyadic rational, so `_to_fixed` rounds nothing.
    """
    values = [v for z in points for v in (z.real, z.imag)]
    bits = max(v.as_integer_ratio()[1].bit_length() for v in values) - 1
    ints = [_to_fixed(v, bits) for v in values]
    return list(zip(ints[0::2], ints[1::2])), bits


def _inside(
    lower: Fraction, upper: Fraction, x: int, x_den: int, radius_sq: int, scale: int
) -> Tuple[bool, bool]:
    """Whether the disk of radius sqrt(radius_sq / scale) / x_den around
    Re = x / x_den lies inside Re > lower, and inside Re < upper: each gap is
    an integer over (edge denominator) x_den, so both compare squared integers."""
    left = lower.denominator * x - lower.numerator * x_den
    right = upper.numerator * x_den - upper.denominator * x
    return (
        left > 0 and radius_sq * lower.denominator**2 < scale * left * left,
        right > 0 and radius_sq * upper.denominator**2 < scale * right * right,
    )


def _disk_points(degree: int, points: Sequence[complex]) -> Optional[list]:
    """The points as complex numbers when they can carry inclusion disks:
    N = degree of them, finite and distinct (as doubles, hence as dyadic
    rationals); None otherwise."""
    points = [complex(z) for z in points]
    if degree < 1 or len(points) != degree or not all(map(cmath.isfinite, points)):
        return None
    return points if len(set(points)) == degree else None


def _float_radii(lead: int, points: list, values: tuple) -> list:
    """Per disk, the float bound on it as (x, x_den, radius_sq, scale):
    Re z_i = x / x_den and (M |W_i| x_den)**2 <= radius_sq / scale.

    `values` is `roots._value_bounds`'s output at the first M points, the
    disk centres (see `_disks`), V_i >= |P(z_i)| for P = (n-1)! p, as
    `_certify` gets it from a batched call, and `lead` is P's leading
    coefficient C_N.  With D_i <= prod_{j != i} |z_i - z_j|**2 over all the
    points from `roots._distance_product_lower`, the bound is
    M**2 V_i**2 x_den**2 / (C_N**2 D_i), a ratio of integers since V_i, D_i
    and Re z_i are dyadic.  The entry is None where V_i is not finite; where
    D_i = 0 the scale is 0, and `_inside` proves nothing on it.
    """
    z = np.array(points)
    value, value_e = values
    count = value.size
    dist, dist_e = _distance_product_lower(z, count)
    lead_sq, degree_sq = lead * lead, count * count
    radii = []
    rows = zip(
        z.real[:count].tolist(), value.tolist(), value_e.tolist(), dist.tolist(), dist_e.tolist()
    )
    for re, v, v_e, m, m_e in rows:
        if not isfinite(v):
            radii.append(None)
            continue
        x, x_den = re.as_integer_ratio()
        v, v_den = v.as_integer_ratio()
        m, m_den = m.as_integer_ratio()
        # every denominator is a power of two: V_i = v 2**a, D_i = m 2**b,
        # x_den = 2**B, and the bound reads N^2 v^2 2**(2a + 2B - b) / (C_N^2 m)
        shift = 2 * (v_e - v_den.bit_length() + x_den.bit_length()) - m_e + m_den.bit_length() - 1
        radius_sq = degree_sq * v * v << max(shift, 0)
        scale = lead_sq * m << max(-shift, 0)
        radii.append((x, x_den, radius_sq, scale))
    return radii


def _disks(
    coeffs: Sequence[int], points: list, lower: Fraction, upper: Fraction, first: list
) -> Tuple[bool, bool]:
    """Whether the disk of radius M |W_i| around each of the first
    M = len(first) points lies inside Re > lower, and inside Re < upper.

    p has the integer coefficients `coeffs`, lowest first (or any positive
    multiple of them).  The other N - M points must be exact roots of p
    inside both sides (`_certify` puts the pinned roots -1, ..., -k there):
    the roots of p divided by their linear factors lie in these M disks
    (see `inclusion_strip`), with W_i unchanged, so the disks prove a side
    for every root.  `_inside` decides each disk side on first[i], a radius
    bound from `_float_radii`, when that entry is present.  Only a side
    still open and not proven by it gets the exact radius: each double is
    taken exactly as (x_i + i y_i) / 2**B, p(z_i) 2**(BN) comes from
    `roots._gaussian_horner` at shift 0 and prod_{j != i} (z_i - z_j)
    2**(B(N-1)) over all N points from an exact product.  The loop stops
    once both sides fail.
    """
    degree, count, lead = len(coeffs) - 1, len(first), coeffs[-1]
    left = right = True
    nodes = None
    for i, bound in enumerate(first):
        proven = _inside(lower, upper, *bound) if bound else (False, False)
        test_left, test_right = left and not proven[0], right and not proven[1]
        if not (test_left or test_right):
            continue
        if nodes is None:
            nodes, bits = _dyadic(points)
            # c_k 2**(B(N-k)): Horner on x + iy then yields p(z) 2**(BN)
            scaled = [c << (bits * (degree - k)) for k, c in enumerate(coeffs)]
        x, y = nodes[i]
        pr, pi = _gaussian_horner(scaled, x, y, 0)
        qr, qi = 1, 0
        for j, (u, v) in enumerate(nodes):
            if j != i:
                a, b = x - u, y - v
                qr, qi = qr * a - qi * b, qr * b + qi * a
        # W_i = P / (a_N Q 2**B): M |W_i| 2**B = sqrt(radius_sq / scale)
        radius_sq = count * count * (pr * pr + pi * pi)
        scale = lead * lead * (qr * qr + qi * qi)
        in_left, in_right = _inside(lower, upper, x, 1 << bits, radius_sq, scale)
        left, right = in_left if test_left else left, in_right if test_right else right
        if not (left or right):
            break
    return left, right


def inclusion_strip(
    poly: RationalPolynomial, points: Sequence[complex], lower, upper
) -> Tuple[bool, bool]:
    """Whether inclusion disks around `points` prove lower < Re < upper.

    Returns (left, right): left is True when every root of poly provably
    has Re > lower, right when every root provably has Re < upper.  False
    proves nothing either way.

    The certificate.  Let N be the degree, a_N the leading coefficient and
    z_1..z_N distinct points, and set
    W_i = p(z_i) / (a_N prod_{j != i} (z_i - z_j)).  The polynomial
    p(t) - a_N prod_j (t - z_j) has degree below N and equals p(z_i) at
    each z_i, so Lagrange interpolation on the N points gives, for t not a
    point, p(t) / (a_N prod_j (t - z_j)) = 1 + sum_i W_i / (t - z_i).  At a
    root t of p the left side is 0, so sum_i |W_i| / |t - z_i| >= 1 and some
    term is at least 1/N: |t - z_i| <= N |W_i|.  A root equal to a point
    lies in that point's disk.  So every root lies in the union of the
    closed disks D(z_i, N |W_i|) (Braess and Hadeler 1973), and a side is
    proven when every disk lies strictly inside it:
    Re z_i - N |W_i| > lower, or Re z_i + N |W_i| < upper.

    The points need not be accurate, only distinct; the disks are merely
    larger for poor ones.  Every disk is tested exactly: `_disks` gets no
    float bound.  Non-finite or repeated points, or a point count other than
    N, prove nothing.
    """
    points = _disk_points(poly.degree, points)
    if points is None:
        return False, False
    coeffs = _integer_coefficients(poly)
    return _disks(coeffs, points, Fraction(lower), Fraction(upper), [None] * len(points))


def verify_half_plane(params: HypersimplexParams, c, side: str) -> StabilityVerdict:
    """Certify that every root has Re < c (side='left_of') or Re > c ('right_of').

    The Routh table runs on b**N P(z + c), c = a/b, from `_taylor_shift` on
    the integers of P = (n-1)! p, or for 'right_of' on b**N P(c - z).
    """
    c = Fraction(c)
    if side not in ("left_of", "right_of"):
        raise ValueError(f"side must be 'left_of' or 'right_of', got {side!r}")
    coeffs = _taylor_shift(_ehrhart_cached(params.d, params.n).coeffs, c.numerator, c.denominator)
    if side == "right_of":
        coeffs = [-v if k % 2 else v for k, v in enumerate(coeffs)]
    return _routh_table(coeffs)


def _free_first(points: list, pinned: int) -> Tuple[list, int]:
    """The points with the free ones first, and how many are free: the
    pinned roots -1, ..., -pinned go last when every one of them is among
    the points exactly, and all N points are free otherwise."""
    exact = [complex(-m) for m in range(1, pinned + 1)]
    known = set(exact)
    free = [z for z in points if z not in known]
    if len(free) != len(points) - pinned:
        return points, len(points)
    return free + exact, len(free)


def _certify(params: HypersimplexParams, roots):
    """One pair's `verify_strip` as a step of `roots._lockstep`: the domain
    check and the build; when the roots can carry disks (`_disk_points`),
    one request for the value bounds at the free ones (`_free_first`), then
    `_float_radii` and `_disks` on them, all on the integers of
    P = (n-1)! p; the Routh table for any side still open."""
    params.require_conjecture_domain()
    build = _ehrhart_cached(params.d, params.n)
    bound = Fraction(params.n, params.d)
    points = None if roots is None else _disk_points(params.degree, roots)
    left_in = right_in = False
    if points is not None:
        points, count = _free_first(points, build.pinned)
        first = []
        if count:
            values = yield _value_bounds, params, np.array(points[:count])
            first = _float_radii(build.coeffs[-1], points, values)
        left_in, right_in = _disks(build.coeffs, points, -bound, Fraction(0), first)
    included = StabilityVerdict(STABLE, certifier="inclusion")
    right = included if right_in else verify_half_plane(params, 0, "left_of")
    left = included if left_in else verify_half_plane(params, -bound, "right_of")
    return StripVerdict(left_ok=left, right_ok=right)


def verify_strip_many(pairs: Sequence[HypersimplexParams], roots_list: Sequence) -> list:
    """`verify_strip` for every pair, each certificate (`_certify`) a step
    of `roots._lockstep`.

    roots_list[i] holds the numeric roots of pairs[i], or None.  The
    value bounds come from the solver's packing plan, one `_value_bounds`
    call per row count min(d, n - d) and cap, each point with the bits it
    gets alone, so every verdict is the one `verify_strip` gives.  Returns
    each pair's StripVerdict, or the exception that ended it; a failed
    call ends the pairs in it.
    """
    return _lockstep([_certify(*pair) for pair in zip(pairs, roots_list, strict=True)])


def verify_strip(
    params: HypersimplexParams, roots: Optional[Sequence[complex]] = None
) -> StripVerdict:
    """Exact certification of the open strip -n/d < Re(root) < 0.

    Requires the standing assumption 2d <= n.  Given numeric approximations
    of all n-1 roots (e.g. `find_roots(params).roots`), each side is first
    tried with the inclusion disks of `inclusion_strip`, under the same
    checks of the points, around the free roots only when every pinned root
    -1, ..., -k is among them exactly (see `_disks`).  `_disks` decides
    each disk side first on the float radius bound of `_float_radii`; a
    disk whose bound already lies inside a side counts for that side, and
    only a side still open gets the exact radius.  The verdict is the one
    the exact test alone would give.  A side the disks do not prove, or
    both sides when no roots are given, goes to the Routh table of
    `verify_half_plane`: the right test applies it to the polynomial itself
    (Re < 0), the left test to q(z) = p(-z - n/d) (Re > -n/d).
    Unstable and Boundary verdicts only ever come from the table.

    This is `verify_strip_many` on the one pair, raising what ended it.
    """
    return _only(verify_strip_many([params], [roots]))
