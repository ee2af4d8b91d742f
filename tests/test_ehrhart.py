import math
from fractions import Fraction

import numpy as np
import pytest

from hsroots.ehrhart import (
    HypersimplexParams,
    _divide_linear,
    ehrhart_polynomial,
    normalized_volume,
    pinned_roots,
    term_polynomial,
)
from hsroots.errors import InvalidParams, InvalidTermIndex, StructureViolation
from hsroots.lattice import CountQuery, count_points
from hsroots.polynomial import RationalPolynomial


def eulerian_number(n: int, k: int) -> int:
    """Permutations of n letters with k descents, by the explicit alternating sum."""
    return sum((-1) ** i * math.comb(n + 1, i) * (k + 1 - i) ** n for i in range(k + 1))


def expand_term_reference(d: int, n: int, s: int) -> list:
    """Integer coefficients of C(n,s) * prod_{k=1}^{n-1} ((d-s)m + k - s),
    expanded one linear factor at a time: O(n^2) per term, independent of
    the recurrence the package uses."""
    slope = d - s
    coeffs = [math.comb(n, s)]
    for shift in range(1 - s, n - s):
        coeffs = [a * shift + b * slope for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def reference_coeffs(ints: list, n: int) -> tuple:
    return tuple(Fraction(c, math.factorial(n - 1)) for c in ints)


def reference_polynomial(d: int, n: int) -> tuple:
    total = [0] * n
    for s in range(d):
        for j, c in enumerate(expand_term_reference(d, n, s)):
            total[j] += (-1) ** s * c
    return reference_coeffs(total, n)


def test_build_matches_the_factor_by_factor_expansion():
    pairs = [(d, n) for n in range(2, 41) for d in range(1, n)]
    pairs += [(9, n) for n in range(96, 100)] + [(22, 44), (75, 150)]
    for d, n in pairs:
        poly = ehrhart_polynomial(HypersimplexParams(d, n))
        assert poly.coeffs == reference_polynomial(d, n), (d, n)


def test_term_polynomial_matches_the_factor_by_factor_expansion():
    for n in range(2, 21):
        for d in range(1, n):
            params = HypersimplexParams(d, n)
            for s in range(d):
                expected = reference_coeffs(expand_term_reference(d, n, s), n)
                assert term_polynomial(params, s).coeffs == expected, (d, n, s)


def test_divide_linear_is_exact_or_raises():
    # (x + 1)(x + 2)(x - 3) = x^3 - 7x - 6
    cubic = [-6, -7, 0, 1]
    assert _divide_linear(cubic, 2) == [-3, -2, 1]
    assert _divide_linear(cubic, -3) == [2, 3, 1]
    for c in (3, 0, -1, -2):
        with pytest.raises(StructureViolation):
            _divide_linear(cubic, c)
    # a remainder only in the constant term
    with pytest.raises(StructureViolation):
        _divide_linear([3, 1], 2)


def test_term_polynomial_simplex():
    # d=1, n=3, s=0: C(m+2, 2) = (m^2 + 3m + 2)/2
    poly = term_polynomial(HypersimplexParams(1, 3), 0)
    assert poly == RationalPolynomial([1, Fraction(3, 2), Fraction(1, 2)])


def test_rational_polynomial_is_a_frozen_value():
    poly = RationalPolynomial([1, 2])
    with pytest.raises(AttributeError):
        poly.coeffs = (Fraction(3),)
    assert poly.coeffs == (Fraction(1), Fraction(2))
    # normalised on construction: Fractions, trailing zeros stripped
    same = RationalPolynomial([Fraction(1), 2, 0])
    assert poly == same and hash(poly) == hash(same)
    assert poly != poly.coeffs
    assert repr(RationalPolynomial([1, Fraction(-3, 2), 0, 2])) == (
        "RationalPolynomial(1 + -3/2*m^1 + 2*m^3)"
    )
    assert repr(RationalPolynomial([0, 0])) == "RationalPolynomial(0)"


def test_term_polynomial_vanishes_at_zero_for_positive_s():
    poly = term_polynomial(HypersimplexParams(3, 6), 1)
    assert poly.evaluate(0) == 0


def test_term_polynomial_d2_n4_s1():
    # 4*C(m+2, 3) = (2m^3 + 6m^2 + 4m)/3, confirmed at m = 1, 2, 3 against
    # the direct integer value of the binomial coefficient.
    poly = term_polynomial(HypersimplexParams(2, 4), 1)
    assert poly == RationalPolynomial([0, Fraction(4, 3), 2, Fraction(2, 3)])
    for m in (1, 2, 3):
        assert poly.evaluate(m) == 4 * math.comb(m + 2, 3)


def test_term_polynomial_index_out_of_range():
    with pytest.raises(InvalidTermIndex):
        term_polynomial(HypersimplexParams(3, 6), 3)
    with pytest.raises(InvalidTermIndex):
        term_polynomial(HypersimplexParams(3, 6), -1)


def test_term_polynomial_index_must_be_an_integer():
    params = HypersimplexParams(3, 6)
    for s in (1.0, True, "1"):
        with pytest.raises(InvalidParams, match="must be an integer"):
            term_polynomial(params, s)
    assert term_polynomial(params, np.int64(2)).coeffs == term_polynomial(params, 2).coeffs


def test_ehrhart_3_6_regression():
    # (11m^5 + 55m^4 + 115m^3 + 125m^2 + 74m + 20)/20, which factors as
    # (1/20)(m+1)(11(m+1)^4 + 5(m+1)^2 + 4); verify both forms.
    poly = ehrhart_polynomial(HypersimplexParams(3, 6))
    expected = RationalPolynomial(
        [1, Fraction(74, 20), Fraction(125, 20), Fraction(115, 20), Fraction(55, 20), Fraction(11, 20)]
    )
    assert poly == expected
    for m in range(6):  # six points pin a quintic
        u = m + 1
        assert poly.evaluate(m) == Fraction(11 * u**5 + 5 * u**3 + 4 * u, 20)


def test_ehrhart_simplex_is_binomial():
    # d=1, n=4: C(m+3, 3) = (m^3 + 6m^2 + 11m + 6)/6
    poly = ehrhart_polynomial(HypersimplexParams(1, 4))
    assert poly == RationalPolynomial(
        [1, Fraction(11, 6), 1, Fraction(1, 6)]
    )


def test_ehrhart_d2_n4_matches_binomial_difference():
    # C(2m+3, 3) - 4*C(m+2, 3), checked by exact evaluation at m = 0..4
    poly = ehrhart_polynomial(HypersimplexParams(2, 4))
    for m in range(5):
        expected = math.comb(2 * m + 3, 3) - 4 * math.comb(m + 2, 3)
        assert poly.evaluate(m) == expected


def test_ehrhart_rejects_bad_params():
    with pytest.raises(InvalidParams):
        HypersimplexParams(5, 4)
    with pytest.raises(InvalidParams):
        HypersimplexParams(0, 4)
    with pytest.raises(InvalidParams):
        HypersimplexParams(4, 4)
    with pytest.raises(InvalidParams):
        HypersimplexParams(3.0, 7)


def test_params_take_any_integer_type_but_bool():
    # bool subclasses int, but a flag is not a hypersimplex parameter
    for d, n in ((True, 3), (1, True), (np.True_, 3)):
        with pytest.raises(InvalidParams, match="must be an integer"):
            HypersimplexParams(d, n)
    params = HypersimplexParams(np.int64(2), np.uint8(5))
    assert type(params.d) is int and type(params.n) is int
    assert params == HypersimplexParams(2, 5)
    assert ehrhart_polynomial(params) is ehrhart_polynomial(HypersimplexParams(2, 5))


def test_evaluate_exact_examples():
    p24 = ehrhart_polynomial(HypersimplexParams(2, 4))
    assert p24(1) == 6  # the C(4,2) vertices
    assert p24(0) == 1
    assert p24(2) == 19  # brute-force count, see lattice tests


def test_normalized_volume_examples():
    assert normalized_volume(HypersimplexParams(3, 6)) == Fraction(11, 20)
    assert normalized_volume(HypersimplexParams(1, 5)) == Fraction(1, 24)
    assert normalized_volume(HypersimplexParams(2, 4)) == Fraction(2, 3)


def test_normalized_volume_is_eulerian_over_factorial():
    for n in range(2, 9):
        for d in range(1, n):
            vol = normalized_volume(HypersimplexParams(d, n))
            assert vol == Fraction(eulerian_number(n - 1, d - 1), math.factorial(n - 1))


def test_structure_invariants_small_range():
    for n in range(2, 10):
        for d in range(1, n):
            poly = ehrhart_polynomial(HypersimplexParams(d, n))
            assert poly.degree == n - 1
            assert poly.constant_term == 1
            assert poly.leading_coefficient > 0


def test_value_at_one_counts_vertices():
    for n in range(2, 10):
        for d in range(1, n):
            poly = ehrhart_polynomial(HypersimplexParams(d, n))
            assert poly.evaluate(1) == math.comb(n, d)


def test_complement_symmetry():
    for n in range(2, 10):
        for d in range(1, n):
            p = ehrhart_polynomial(HypersimplexParams(d, n))
            q = ehrhart_polynomial(HypersimplexParams(n - d, n))
            for m in range(7):
                assert p.evaluate(m) == q.evaluate(m)


def test_reciprocity_against_strict_count():
    # (-1)^(n-1) p(-m) equals the number of interior points of the m-th dilation
    for n in range(2, 8):
        for d in range(1, n):
            poly = ehrhart_polynomial(HypersimplexParams(d, n))
            for m in range(1, 5):
                interior = count_points(CountQuery(d, n, m, strict=True))
                assert (-1) ** (n - 1) * poly.evaluate(-m) == interior


def test_term_values_at_zero():
    for (d, n) in [(2, 5), (3, 7), (4, 9)]:
        params = HypersimplexParams(d, n)
        assert term_polynomial(params, 0).evaluate(0) == 1
        for s in range(1, d):
            assert term_polynomial(params, s).evaluate(0) == 0


def integer_roots_in(coeffs: list, lo: int, hi: int) -> list:
    """The integers m in [lo, hi] with sum_k coeffs[k] m**k == 0, exactly."""
    return [m for m in range(lo, hi + 1) if sum(c * m**k for k, c in enumerate(coeffs)) == 0]


def test_reciprocity_roots_are_pinned_exactly():
    # p(-m) = 0 exactly for m <= k = (n-1) // min(d, n-d): m Delta(d, n) has
    # no interior lattice point while m min(d, n-d) < n; the quotient keeps
    # p's other roots and has no integer root left in [-n, 0]
    for n in range(2, 31):
        for d in range(1, n):
            params = HypersimplexParams(d, n)
            poly = ehrhart_polynomial(params)
            pinned, quotient = pinned_roots(params)
            assert pinned == (n - 1) // min(d, n - d), (d, n)
            assert len(quotient) == n - pinned, (d, n)
            for m in range(1, pinned + 1):
                assert poly(-m) == 0, (d, n, m)
            assert integer_roots_in(list(quotient), -n, 0) == [], (d, n)
            # quotient times (x + 1) ... (x + k) is (n-1)! p again
            product = list(quotient)
            for m in range(1, pinned + 1):
                product = [a * m + b for a, b in zip(product + [0], [0] + product)]
            assert tuple(Fraction(c, math.factorial(n - 1)) for c in product) == poly.coeffs


@pytest.mark.parametrize("d,n", [(2, 5), (3, 7), (4, 20), (9, 96), (22, 45)])
def test_deflating_past_the_pinned_roots_raises(d, n):
    # -(k + 1) is no root: with k = (n-1) // d, (k + 1) d >= n, and m Delta(d, n)
    # has interior points; one more exact division leaves a remainder
    pinned, quotient = pinned_roots(HypersimplexParams(d, n))
    assert (pinned + 1) * d >= n
    with pytest.raises(StructureViolation, match=f"x \\+ {pinned + 1} does not divide"):
        _divide_linear(list(quotient), pinned + 1)
