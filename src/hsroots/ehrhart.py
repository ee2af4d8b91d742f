"""Exact Ehrhart polynomial of the hypersimplex.

The hypersimplex with parameters (d, n) is the convex hull of all 0/1
vectors in R^n with exactly d ones.  Its lattice-point counting polynomial
is the alternating sum over s = 0..d-1 of C(n, s) C((d-s)m + n-1-s, n-1),
and term s is C(n, s) r_s((d-s)m) / (n-1)! for the one family

    r_s(x) = prod_{j=1-s}^{n-1-s} (x + j),
    r_s = r_{s-1} (x + 1 - s) / (x + n - s).

r_0 is the rising factorial (x + 1)...(x + n - 1), built in O(n^2)
big-integer operations; each next r_s costs one exact synthetic division
and one multiply by a linear factor, O(n) each, so p takes O(n^2 + dn).
Each build then divides the k = (n-1) // min(d, n - d) reciprocity roots
-1, ..., -k out of (n-1)! p by k more synthetic divisions, O(kn), and keeps
the quotient (`pinned_roots`), all in exact integers: `roots` and
`stability` work on P = (n-1)! p, and p's Fractions serve `ehrhart_polynomial`.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from typing import Tuple

from .errors import ConjectureDomain, InvalidParams, InvalidTermIndex, StructureViolation
from .polynomial import RationalPolynomial


def _integer(name: str, value) -> int:
    """value as a plain int: any integer type (numpy's too) but not bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParams(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class HypersimplexParams:
    """The pair (d, n) with 1 <= d < n.

    Operations tied to the root-strip conjecture additionally require the
    standing assumption 2d <= n; use `require_conjecture_domain` for those.
    """

    d: int
    n: int

    def __post_init__(self):
        for name in ("d", "n"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 1 <= self.d < self.n:
            raise InvalidParams(f"need 1 <= d < n, got (d={self.d}, n={self.n})")

    @property
    def degree(self) -> int:
        """Degree of the counting polynomial: n - 1."""
        return self.n - 1

    def require_conjecture_domain(self):
        if 2 * self.d > self.n:
            raise ConjectureDomain(
                f"root-strip operations require 2d <= n, got (d={self.d}, n={self.n}); "
                f"use the complement d -> n-d first"
            )


def binomial(a: int, k: int) -> int:
    """Generalized binomial coefficient C(a, k) for any integer a, k >= 0.

    Defined by the falling factorial a(a-1)...(a-k+1) / k!, which is an
    exact integer for every integer a (e.g. C(-1, 2) = 1).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if a >= 0:
        return math.comb(a, k)
    # C(a, k) = (-1)^k C(k - a - 1, k) for negative a
    return (-1) ** k * math.comb(k - a - 1, k)


def _times_linear(coeffs: list, c: int) -> list:
    """Coefficients (lowest first) of coeffs(x) * (x + c)."""
    return [a * c + b for a, b in zip(coeffs + [0], [0] + coeffs)]


def _divide_linear(coeffs: list, c: int) -> list:
    """Exact quotient of coeffs(x) by (x + c), by synthetic division.

    Raises StructureViolation unless (x + c) divides coeffs(x).
    """
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for j in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[j] - c * carry
        quotient[j - 1] = carry
    if coeffs[0] != c * carry:
        raise StructureViolation(
            f"x + {c} does not divide a polynomial of degree {len(coeffs) - 1}"
        )
    return quotient


def _shifted_rising(n: int, count: int):
    """Yield r_s(x) = prod_{j=1-s}^{n-1-s} (x + j) for s = 0..count-1 as
    integer coefficients, lowest first; count <= n."""
    r = [1]
    for j in range(1, n):
        r = _times_linear(r, j)
    yield r
    for s in range(1, count):
        r = _times_linear(_divide_linear(r, n - s), 1 - s)
        yield r


def _add_term(total: list, r: list, weight: int, slope: int):
    """total[j] += weight * slope^j * r[j]: adds weight * r(slope * m)."""
    for j, c in enumerate(r):
        total[j] += weight * c
        weight *= slope


def _over_factorial(ints: list, n: int) -> RationalPolynomial:
    fact = math.factorial(n - 1)
    return RationalPolynomial([Fraction(c, fact) for c in ints])


def term_polynomial(params: HypersimplexParams, s: int) -> RationalPolynomial:
    """One summand of the counting polynomial: C(n,s) * C((d-s)m + n-1-s, n-1).

    Expanded exactly in m; degree n-1.  For s >= 1 the product contains the
    factor ((d-s)m + s - s), so the value at m = 0 is 0.
    """
    d, n, s = params.d, params.n, _integer("s", s)
    if not 0 <= s <= d - 1:
        raise InvalidTermIndex(f"need 0 <= s <= d-1 = {d - 1}, got s={s}")
    r = next(islice(_shifted_rising(n, s + 1), s, None))
    total = [0] * n
    _add_term(total, r, math.comb(n, s), d - s)
    return _over_factorial(total, n)


def _term_rows(d: int, n: int) -> int:
    """min(d, n - d), the number of alternating-sum terms to run: x -> 1 - x
    maps Delta(d, n) onto Delta(n - d, n), which has the same polynomial.  The
    one rule for `pinned_roots`' count and the rows and packing key of `roots`."""
    return min(d, n - d)


@dataclass(frozen=True)
class _Build:
    """One pair's exact build: P = (n-1)! p's integer coefficients, lowest
    first, the count k of p's reciprocity roots -1, ..., -k, and the integers
    of P(x) / ((x + 1) ... (x + k)); `poly`, p, is made once, on first use."""

    coeffs: tuple
    pinned: int
    quotient: tuple

    @cached_property
    def poly(self) -> RationalPolynomial:
        return _over_factorial(self.coeffs, len(self.coeffs))


@lru_cache(maxsize=None)
def _ehrhart_cached(d: int, n: int) -> _Build:
    total = [0] * n
    for s, r in enumerate(_shifted_rising(n, d)):
        _add_term(total, r, (-1) ** s * math.comb(n, s), d - s)
    # every factor (d - s)x + j - s with j = s + (d - s)m <= n - 1 is (d - s)(x + m),
    # so each term holds x + m for m <= k; the exact divisions check it
    pinned = (n - 1) // _term_rows(d, n)
    quotient = total
    for m in range(1, pinned + 1):
        quotient = _divide_linear(quotient, m)
    return _Build(tuple(total), pinned, tuple(quotient))


def ehrhart_polynomial(params: HypersimplexParams) -> RationalPolynomial:
    """The exact lattice-point counting polynomial of the hypersimplex (d, n).

    Alternating sum of `term_polynomial` over s = 0..d-1; degree n-1,
    constant term exactly 1, positive leading coefficient.
    """
    return _ehrhart_cached(params.d, params.n).poly


def pinned_roots(params: HypersimplexParams) -> Tuple[int, tuple]:
    """(k, q): p(x) = q(x) (x + 1) ... (x + k) / (n-1)! exactly, with q's
    integer coefficients lowest first and k = (n-1) // min(d, n - d).

    By Ehrhart-Macdonald reciprocity, (-1)**(n-1) p(-m) counts the interior
    lattice points of m Delta(d, n), and there are none while dm < n; in
    product form every term has the factor (d - s)(x + m) for m <= k.  The
    build divides (x + 1), ..., (x + k) out of (n-1)! p exactly and raises
    StructureViolation on a nonzero remainder, so the roots -1, ..., -k rest
    on that division, made on every build.  At 2d <= n, k < n/d: the roots
    lie inside the strip -n/d < Re < 0.
    """
    build = _ehrhart_cached(params.d, params.n)
    return build.pinned, build.quotient


def evaluate_exact(poly: RationalPolynomial, m) -> Fraction:
    """Exact Horner evaluation at an integer or rational point."""
    return poly.evaluate(Fraction(m))


def normalized_volume(params: HypersimplexParams) -> Fraction:
    """Leading coefficient of the counting polynomial.

    Equals (number of permutations of n-1 letters with d-1 descents) / (n-1)!.
    """
    return ehrhart_polynomial(params).leading_coefficient
