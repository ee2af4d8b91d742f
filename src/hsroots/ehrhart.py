"""Exact Ehrhart polynomial of the hypersimplex.

The hypersimplex with parameters (d, n) is the convex hull of all 0/1
vectors in R^n with exactly d ones.  Its lattice-point counting polynomial
is an alternating sum of d binomial-coefficient terms; each term expands
into a product of n-1 linear factors divided by (n-1)!.  Everything here is
computed in exact big-integer / rational arithmetic.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConjectureDomain, InvalidParams, InvalidTermIndex
from .polynomial import RationalPolynomial


@dataclass(frozen=True)
class HypersimplexParams:
    """The pair (d, n) with 1 <= d < n.

    Operations tied to the root-strip conjecture additionally require the
    standing assumption 2d <= n; use `require_conjecture_domain` for those.
    """

    d: int
    n: int

    def __post_init__(self):
        if not isinstance(self.d, int) or not isinstance(self.n, int):
            raise InvalidParams(f"d and n must be integers, got ({self.d!r}, {self.n!r})")
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


def _expand_term_integer(d: int, n: int, s: int) -> list:
    """Integer coefficients of C(n,s) * prod_{k=1}^{n-1} ((d-s)m + k - s)."""
    slope = d - s
    coeffs = [math.comb(n, s)]
    for k in range(1, n):
        shift = k - s
        prev = coeffs
        coeffs = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            coeffs[i] += c * shift
            coeffs[i + 1] += c * slope
    return coeffs


def term_polynomial(params: HypersimplexParams, s: int) -> RationalPolynomial:
    """One summand of the counting polynomial: C(n,s) * C((d-s)m + n-1-s, n-1).

    Expanded exactly in m; degree n-1.  For s >= 1 the product contains the
    factor ((d-s)m + s - s), so the value at m = 0 is 0.
    """
    d, n = params.d, params.n
    if not 0 <= s <= d - 1:
        raise InvalidTermIndex(f"need 0 <= s <= d-1 = {d - 1}, got s={s}")
    ints = _expand_term_integer(d, n, s)
    fact = math.factorial(n - 1)
    return RationalPolynomial([Fraction(c, fact) for c in ints])


@lru_cache(maxsize=None)
def _ehrhart_cached(d: int, n: int) -> RationalPolynomial:
    total = [0] * n
    for s in range(d):
        term = _expand_term_integer(d, n, s)
        sign = -1 if s % 2 else 1
        for i, c in enumerate(term):
            total[i] += sign * c
    fact = math.factorial(n - 1)
    return RationalPolynomial([Fraction(c, fact) for c in total])


def ehrhart_polynomial(params: HypersimplexParams) -> RationalPolynomial:
    """The exact lattice-point counting polynomial of the hypersimplex (d, n).

    Alternating sum of `term_polynomial` over s = 0..d-1; degree n-1,
    constant term exactly 1, positive leading coefficient.
    """
    return _ehrhart_cached(params.d, params.n)


def evaluate_exact(poly: RationalPolynomial, m) -> Fraction:
    """Exact Horner evaluation at an integer or rational point."""
    return poly.evaluate(Fraction(m))


def normalized_volume(params: HypersimplexParams) -> Fraction:
    """Leading coefficient of the counting polynomial.

    Equals (number of permutations of n-1 letters with d-1 descents) / (n-1)!.
    """
    return ehrhart_polynomial(params).leading_coefficient
