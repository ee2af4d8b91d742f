"""Dense polynomials with exact rational coefficients.

Coefficients are stored ascending (index k holds the coefficient of m^k) as
`fractions.Fraction` values, which keeps every entry in lowest terms with a
positive denominator.  Instances are immutable and safe to share.  Internal
code works on the integers of P = (n-1)! p instead (see `ehrhart`).
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Integral


@dataclass(frozen=True)
class RationalPolynomial:
    """Immutable dense polynomial over exact rationals."""

    coeffs: tuple

    def __post_init__(self):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def evaluate(self, x):
        """Horner evaluation; exact when x is an integer (numpy's too) or a
        Fraction."""
        if isinstance(x, Integral):
            x = Fraction(operator.index(x))
        acc = Fraction(0) if isinstance(x, Fraction) else 0.0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.evaluate(x)

    def __repr__(self):
        if self.is_zero:
            return "RationalPolynomial(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}" if k == 0 else f"{c}*m^{k}")
        return "RationalPolynomial(" + " + ".join(parts) + ")"


def _integer_coefficients(poly: RationalPolynomial) -> list:
    """Scale by the positive lcm of denominators; same roots, integer entries."""
    scale = lcm(*(c.denominator for c in poly.coeffs))
    return [int(c * scale) for c in poly.coeffs]


def _taylor_shift(coeffs: list, a: int, b: int = 1) -> list:
    """Integer coefficients of b**N p(z + a/b), lowest degree first, from the
    integer coefficients of p, N = len(coeffs) - 1.

    Scaling c_k by b**(N-k) gives r(t) = b**N p(t / b); repeated synthetic
    division by t + a turns r(t) into r(t + a); and r(bz + a) = b**N p(z + a/b)
    has the coefficients of r(t + a) times b**k.  Nothing is divided.
    """
    degree = len(coeffs) - 1
    out = [c * b ** (degree - k) for k, c in enumerate(coeffs)]
    for i in range(degree if a else 0):  # a shift by 0 adds only zeros
        for j in range(degree - 1, i - 1, -1):
            out[j] += a * out[j + 1]
    return [c * b**k for k, c in enumerate(out)]
