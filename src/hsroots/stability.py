"""Exact root-location certificates: inclusion disks and the Routh table.

All verdicts are computed in integer arithmetic after clearing denominators.
Given numeric approximations of all the roots, `inclusion_strip` proves a
side of the strip from Weierstrass inclusion disks around them, evaluated
exactly on the points' dyadic values; the disks can only prove a side.  A
side they do not prove, and every call without roots, goes to the Routh
table, whose rows are rescaled only by positive constants (their gcd), which
preserves the sign structure the table's first column encodes.  A zero
leading element is reported as Boundary, never perturbed.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Tuple

from .ehrhart import HypersimplexParams, ehrhart_polynomial
from .errors import ZeroPolynomial
from .polynomial import RationalPolynomial

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
    """Joint verdict for the open strip -n/d < Re < 0."""

    left_ok: StabilityVerdict
    right_ok: StabilityVerdict
    overall: bool


def shift_polynomial(poly: RationalPolynomial, c) -> RationalPolynomial:
    """Exact Taylor shift: returns q with q(z) = p(z + c)."""
    c = Fraction(c)
    coeffs = list(poly.coeffs)
    deg = len(coeffs) - 1
    # repeated synthetic division by (z - (-c)) accumulates the shifted coefficients
    for i in range(deg):
        for j in range(deg - 1, i - 1, -1):
            coeffs[j] += c * coeffs[j + 1]
    return RationalPolynomial(coeffs)


def reflect_polynomial(poly: RationalPolynomial) -> RationalPolynomial:
    """Returns q with q(z) = p(-z): negate the odd-degree coefficients."""
    return RationalPolynomial(
        [-c if k % 2 else c for k, c in enumerate(poly.coeffs)]
    )


def _integer_coefficients(poly: RationalPolynomial) -> list:
    """Scale by the positive lcm of denominators; same roots, integer entries."""
    lcm = 1
    for c in poly.coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    return [int(c * lcm) for c in poly.coeffs]


def _reduce_row(row: list) -> list:
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return [v // g for v in row]
    return row


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
    coeffs = _integer_coefficients(poly)
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
    finite double is a dyadic rational, so nothing is rounded.
    """
    parts = [v.as_integer_ratio() for z in points for v in (z.real, z.imag)]
    bits = max(den.bit_length() for _, den in parts) - 1
    ints = [num << (bits + 1 - den.bit_length()) for num, den in parts]
    return list(zip(ints[0::2], ints[1::2])), bits


def _inside(gap: int, denominator: int, radius_sq: int, scale: int) -> bool:
    """gap / (denominator 2**b) > sqrt(radius_sq / scale) / 2**b, in integers."""
    return gap > 0 and radius_sq * denominator * denominator < scale * gap * gap


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
    larger for poor ones.  Each double is taken exactly as
    (x_i + i y_i) / 2**B; p(z_i) 2**(BN) comes from Gaussian-integer Horner
    on the integer coefficients and prod_{j != i} (z_i - z_j) 2**(B(N-1))
    from an exact product, so each disk test compares squared integers and
    no float enters the verdict.  Non-finite or repeated points, or a point
    count other than N, prove nothing.
    """
    degree = poly.degree
    points = [complex(z) for z in points]
    if degree < 1 or len(points) != degree or not all(map(cmath.isfinite, points)):
        return False, False
    nodes, bits = _dyadic(points)
    if len(set(nodes)) != degree:
        return False, False
    coeffs = _integer_coefficients(poly)
    lead = coeffs[-1]
    # c_k 2**(B(N-k)): Horner on x + iy then yields p(z) 2**(BN)
    scaled = [c << (bits * (degree - k)) for k, c in enumerate(coeffs[:-1])]
    lower, upper = Fraction(lower), Fraction(upper)
    # the edges as integers over 2**B: lower = low / (den_low 2**B), likewise upper
    low, high = lower.numerator << bits, upper.numerator << bits
    left = right = True
    for i, (x, y) in enumerate(nodes):
        pr, pi = lead, 0
        for c in reversed(scaled):
            pr, pi = pr * x - pi * y + c, pr * y + pi * x
        qr, qi = 1, 0
        for j, (u, v) in enumerate(nodes):
            if j != i:
                a, b = x - u, y - v
                qr, qi = qr * a - qi * b, qr * b + qi * a
        # W_i = P / (a_N Q 2**B), so N |W_i| < gap / (den 2**B) iff
        # N^2 |P|^2 den^2 < a_N^2 |Q|^2 gap^2 with gap > 0
        radius_sq = degree * degree * (pr * pr + pi * pi)
        scale = lead * lead * (qr * qr + qi * qi)
        left = left and _inside(
            lower.denominator * x - low, lower.denominator, radius_sq, scale
        )
        right = right and _inside(
            high - upper.denominator * x, upper.denominator, radius_sq, scale
        )
        if not (left or right):
            break
    return left, right


def verify_half_plane(
    params: HypersimplexParams, c, side: str
) -> StabilityVerdict:
    """Certify that every root has Re < c (side='left_of') or Re > c ('right_of')."""
    c = Fraction(c)
    poly = ehrhart_polynomial(params)
    if side == "left_of":
        # roots of p(z + c) are the roots of p shifted left by c
        return routh_hurwitz(shift_polynomial(poly, c))
    if side == "right_of":
        # q(z) = p(-z + c): Re(root of p) > c iff q is stable
        return routh_hurwitz(reflect_polynomial(shift_polynomial(poly, c)))
    raise ValueError(f"side must be 'left_of' or 'right_of', got {side!r}")


def verify_strip(
    params: HypersimplexParams, roots: Optional[Sequence[complex]] = None
) -> StripVerdict:
    """Exact certification of the open strip -n/d < Re(root) < 0.

    Requires the standing assumption 2d <= n.  Given numeric approximations
    of all n-1 roots (e.g. `find_roots(params).roots`), each side is first
    tried with the inclusion disks of `inclusion_strip`.  A side they do not
    prove, or both sides when no roots are given, goes to the Routh table:
    the right test applies it to the polynomial itself, the left test to
    q(z) = p(-z - n/d), which maps the half-plane Re > -n/d onto Re < 0.
    Unstable and Boundary verdicts only ever come from the table.
    """
    params.require_conjecture_domain()
    poly = ehrhart_polynomial(params)
    bound = Fraction(params.n, params.d)
    left_in, right_in = (
        (False, False) if roots is None else inclusion_strip(poly, roots, -bound, 0)
    )
    included = StabilityVerdict(STABLE, certifier="inclusion")
    right = included if right_in else routh_hurwitz(poly)
    if left_in:
        left = included
    else:
        left = routh_hurwitz(reflect_polynomial(shift_polynomial(poly, -bound)))
    return StripVerdict(
        left_ok=left,
        right_ok=right,
        overall=left.is_stable and right.is_stable,
    )
