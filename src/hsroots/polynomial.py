"""Dense polynomials with exact rational coefficients.

Coefficients are stored ascending (index k holds the coefficient of m^k) as
`fractions.Fraction` values, which keeps every entry in lowest terms with a
positive denominator.  Instances are immutable and safe to share.
"""

from fractions import Fraction
from math import gcd


class RationalPolynomial:
    """Immutable dense polynomial over exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

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
        """Horner evaluation; exact when x is an int or Fraction."""
        if isinstance(x, int):
            x = Fraction(x)
        acc = Fraction(0) if isinstance(x, Fraction) else 0.0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.evaluate(x)

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return RationalPolynomial([-c for c in self.coeffs])

    def __add__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return RationalPolynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __repr__(self):
        if self.is_zero:
            return "RationalPolynomial(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}" if k == 0 else f"{c}*m^{k}")
        return "RationalPolynomial(" + " + ".join(parts) + ")"


def _coerce(value) -> RationalPolynomial:
    if isinstance(value, RationalPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalPolynomial([value])
    raise TypeError(f"cannot coerce {type(value).__name__} to RationalPolynomial")


def _integer_coefficients(poly: RationalPolynomial) -> list:
    """Scale by the positive lcm of denominators; same roots, integer entries."""
    lcm = 1
    for c in poly.coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    return [int(c * lcm) for c in poly.coeffs]
