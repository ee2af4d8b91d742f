import math
from fractions import Fraction

import numpy as np
import pytest

import hsroots.bounds
from hsroots.bounds import (
    ContourSpec,
    MarginReport,
    aida_bound,
    check_aida,
    check_d4_sum_bound,
    check_h_negative,
    check_migi,
    check_hidari,
    geometric_factorial_sum,
    h_endpoint_chain_bound,
    h_value,
    phi,
    ratio_bound,
    rouche_margin,
    RELATIVE_SLACK,
    _heights,
    _log2_quotient,
    _log2_terms,
    _powers,
    _ratio_falls,
    _ratios,
)
from hsroots.errors import (
    DivisionByZeroTerm,
    DomainViolation,
    HypothesisViolation,
    InvalidParams,
)
from hsroots.roots import _point


def phi_7_3_1_closed_form(beta: float) -> float:
    """Closed radicand form of the (n=7, d=3, s=1) imaginary-axis ratio."""
    b2 = beta * beta
    return (1792.0 / 2187.0) * math.sqrt(
        9.0
        * (b2 + 25.0 / 4.0)
        * (b2 + 9.0 / 4.0)
        * (b2 + 1.0 / 4.0)
        * b2
        / (
            16.0
            * (b2 + 25.0 / 9.0)
            * (b2 + 16.0 / 9.0)
            * (b2 + 4.0 / 9.0)
            * (b2 + 1.0 / 9.0)
        )
    )


def log2_term(n: int, d: int, s: int, z: complex) -> float:
    """Row s of `_log2_terms` at the one point `_point` makes of z."""
    return float(_log2_terms(n, d, _point(d, n, z))[s, 0])


def test_log2_terms_constant_product():
    # n=3, d=1, s=0 at z=0: |2 * 1| = 2
    assert 2.0 ** log2_term(3, 1, 0, 0j) == pytest.approx(2.0, rel=1e-14)


def test_log2_terms_zero_factor():
    assert log2_term(6, 3, 1, 0j) == -math.inf


def test_log2_terms_match_radicand_structure():
    # n=7, d=3, s=2 at z = i*beta: 21*sqrt((b^2+16)(b^2+9)(b^2+4)(b^2+1)^2 b^2)
    for beta in (0.5, 1.0, 2.0, 7.5):
        b2 = beta * beta
        expected = 21.0 * math.sqrt(
            (b2 + 16) * (b2 + 9) * (b2 + 4) * (b2 + 1) ** 2 * b2
        )
        got = 2.0 ** log2_term(7, 3, 2, complex(0, beta))
        assert got == pytest.approx(expected, rel=1e-10)


def test_phi_s0_is_one():
    assert phi(9, 4, 0, complex(0.3, 1.2)) == 1.0


def test_phi_vanishing_numerator():
    assert phi(7, 3, 1, 0j) == 0.0


def test_phi_closed_form_prefactor():
    for beta in (0.1, 0.7, 1.0, 3.0, 10.0, 40.0):
        got = phi(7, 3, 1, complex(0, beta))
        assert got == pytest.approx(phi_7_3_1_closed_form(beta), rel=1e-10)


def test_phi_conjugation_symmetry():
    for (n, d, s) in [(8, 3, 2), (11, 4, 1), (15, 5, 3)]:
        for z in (complex(-0.3, 1.4), complex(-2.0, 0.25), complex(0.1, 7.0)):
            assert phi(n, d, s, z) == phi(n, d, s, z.conjugate())


def test_phi_pole_raises():
    with pytest.raises(DivisionByZeroTerm):
        phi(7, 3, 1, complex(-1.0 / 3.0, 0.0))


def test_single_point_ratios_reject_points_beyond_the_double_range():
    # past d|z| + n = 2**51 the products may overflow between rescales and
    # came back as NaN; a vanishing factor still gives -inf and 0
    edge = (2.0**51 - 7) / 3
    for z in (complex("nan"), complex(0, math.inf), 1e300 + 0j, 1e200 + 0j, complex(0, 2 * edge)):
        for call in (phi, log2_term):
            with pytest.raises(DomainViolation, match="2\\*\\*51"):
                call(7, 3, 1, z)
    assert math.isfinite(log2_term(7, 3, 1, complex(0, edge)))
    assert math.isfinite(phi(7, 3, 1, complex(0, edge)))
    assert log2_term(6, 3, 1, 0j) == -math.inf
    assert phi(7, 3, 1, 0j) == 0.0
    # a modulus beyond the double range is finite as a log: at z = 1000i,
    # |3z + 1| ... |3z + 199| is about 2**2300
    expected = sum(math.log2(abs(3000j + k)) for k in range(1, 200))
    assert log2_term(200, 3, 0, 1000j) == pytest.approx(expected, rel=1e-13)
    assert expected > 2000
    with pytest.raises(DomainViolation, match="2\\*\\*51"):
        check_aida(7, 3, 1, 1.0, 1e300)


def test_beta_grid_matches_the_python_loop():
    # n times the memoised powers rounds as n * 10.0 ** t does
    assert not _powers().flags.writeable
    for n in range(2, 200):
        out = [0.0] + [n * 10.0 ** (-3.0 + 5.0 * i / 399) for i in range(400)]
        assert _heights(n).tobytes() == np.array(out).tobytes(), n


def test_check_migi_examples():
    grid = [7 * 10 ** t for t in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    for n, d, s in ((7, 3, 1), (7, 3, 2), (10, 4, 3)):
        assert check_migi(n, d, s) is True
        assert _ratio_falls(n, d, s, n + 1, 0, 0, grid) is True


def test_check_migi_default_grid():
    assert check_migi(7, 3, 1) is True
    assert check_migi(12, 5, 4) is True


def test_ratio_falls_fails_on_the_swapped_orders():
    # migi at (3, 7) holds, so asking order 7 to sit below order 8 must fail,
    # at every height but 0, where both ratios vanish and the height is skipped
    assert check_migi(7, 3, 1) is True
    heights = _heights(7)
    assert _ratio_falls(8, 3, 1, 7, 0, 0, heights) is False
    assert _ratio_falls(8, 3, 1, 7, 0, 0, [0.0]) is True
    for height in heights[1:]:
        assert _ratio_falls(8, 3, 1, 7, 0, 0, [height]) is False, height


def test_monotone_checks_make_no_product_call_on_the_distinct_magnitudes(monkeypatch):
    calls = []

    def quotient(n, d, s, n_next, p, q, delta, t):
        calls.append(t.copy())
        return _log2_quotient(n, d, s, n_next, p, q, delta, t)

    def products(*args, **kwargs):
        raise AssertionError("a monotone check built a full product")

    monkeypatch.setattr(hsroots.bounds, "_log2_quotient", quotient)
    monkeypatch.setattr(hsroots.bounds, "_term_products", products)
    assert check_migi(7, 3, 1) is True
    assert check_hidari(14, 4, 2) is True
    assert check_hidari(15, 4, 1) is True
    # t = 0, where both ratios vanish (always for migi, for hidari where d | s n),
    # is skipped; at (4, 15, 1) it is evaluated
    migi, hidari, evaluated = calls
    assert migi.tobytes() == _heights(7)[1:].tobytes()
    assert hidari.tobytes() == _heights(14)[1:].tobytes()
    assert evaluated.tobytes() == _heights(15).tobytes()


def test_monotone_checks_reject_heights_beyond_the_double_range():
    # past d|z| + n = 2**51, the domain of phi, the product form overflowed:
    # 1e60 warned "invalid value encountered in subtract", 1e150 and 1e300
    # returned False; the checks now refuse such heights before any work
    migi = (7, 3, 1, 8, 0, 0)
    hidari = (7, 3, 1, 10, Fraction(-7, 3), Fraction(-10, 3))
    for height in (1e20, 1e60, 1e150, -1e300):
        for orders in (migi, hidari):
            with pytest.raises(DomainViolation, match="2\\*\\*51"):
                _ratio_falls(*orders, [1.0, height])
    edge = (2**51 - 8) // 3  # 3 edge + 8 = 2**51 for migi's order n + 1 = 8
    assert _ratio_falls(*migi, [0.0, float(edge)]) is True
    with pytest.raises(DomainViolation, match="2\\*\\*51"):
        _ratio_falls(*migi, [float(edge + 1)])
    # an n whose largest height 100 n is past the domain, as a CLI --n can give
    for check in (check_migi, check_hidari):
        with pytest.raises(DomainViolation, match="2\\*\\*51"):
            check(2**45, 3, 1)


def ratio_falls_oracle(larger: np.ndarray, smaller: np.ndarray) -> bool:
    """The product-form comparison of the ratios of two orders at each height,
    heights where both vanish exactly skipped."""
    both_zero = (smaller == 0.0) & (larger == 0.0)
    return bool((both_zero | (smaller < larger * (1.0 - RELATIVE_SLACK))).all())


def log2_quotient(n: int, d: int, s: int, n_next: int, re, re_next, t) -> np.ndarray:
    """`_log2_quotient` between the edges re and re_next, exact rationals."""
    re = Fraction(re)
    delta = Fraction(re_next) - re
    assert delta.denominator == 1
    return _log2_quotient(n, d, s, n_next, re.numerator, re.denominator, int(delta), np.asarray(t))


def monotone_cases(d_values, n_max: int):
    """(n, d, s, n_next, re, re_next) of every migi and hidari check with
    2d <= n <= n_max."""
    for d in d_values:
        for n in range(2 * d, n_max + 1):
            orders = [(n + 1, 0, 0)]
            if n >= d * d - 2:
                orders.append((n + d, Fraction(-n, d), Fraction(-n - d, d)))
            for s in range(1, d):
                for order in orders:
                    yield (n, d, s) + order


def test_quotient_matches_the_product_form_oracle():
    # phi of each order from the product form, at the float edge -n/d as the
    # checks built it; verdicts equal, the swapped orders too, and log2 Q
    # within 1e-12 of log2 phi_next - log2 phi wherever both ratios are nonzero
    checks = {0: check_migi, -1: check_hidari}
    for n, d, s, n_next, re, re_next in monotone_cases(range(2, 9), 60):
        t = _heights(n)
        larger = _ratios(n, d, float(re) + 1j * t)[s]
        smaller = _ratios(n_next, d, float(re_next) + 1j * t)[s]
        case = (n, d, s, n_next)
        assert checks[re_next - re](n, d, s) is ratio_falls_oracle(larger, smaller), case
        swapped = _ratio_falls(n_next, d, s, n, re_next, re, t)
        assert swapped is ratio_falls_oracle(smaller, larger), case
        nonzero = (larger > 0) & (smaller > 0)
        expected = np.log2(smaller[nonzero]) - np.log2(larger[nonzero])
        got = log2_quotient(n, d, s, n_next, re, re_next, t)
        assert np.abs(got[nonzero] - expected).max() <= 1e-12, case
        back = log2_quotient(n_next, d, s, n, re_next, re, t)
        assert np.abs(back[nonzero] + expected).max() <= 1e-12, case
        # every factor has real coefficients: Q is even in the height
        assert log2_quotient(n, d, s, n_next, re, re_next, -t).tobytes() == got.tobytes()


def test_both_ratios_vanish_at_zero_exactly_where_the_integers_say():
    # hidari at (d, n, s) = (4, 14, 2): 4 | 2 * 14, so the factor j = 9 of
    # row 2 vanishes at t = 0 in both orders, and the height is skipped
    edge, edge_next = Fraction(-14, 4), Fraction(-18, 4)
    for order, re in ((14, edge), (18, edge_next)):
        assert _ratios(order, 4, np.array([complex(re)]))[2, 0] == 0.0
    assert _ratio_falls(14, 4, 2, 18, edge, edge_next, [0.0]) is True
    assert _ratio_falls(18, 4, 2, 14, edge_next, edge, [0.0]) is True
    # at (4, 15, 1) neither ratio vanishes: t = 0 is a height like any other
    edge, edge_next = Fraction(-15, 4), Fraction(-19, 4)
    at_zero = log2_quotient(15, 4, 1, 19, edge, edge_next, np.array([0.0]))
    assert at_zero[0] < 0 and _ratio_falls(15, 4, 1, 19, edge, edge_next, [0.0]) is True
    assert _ratio_falls(19, 4, 1, 15, edge_next, edge, [0.0]) is False
    # the edges of the two orders must be a whole number apart
    with pytest.raises(ValueError, match="whole number apart"):
        _ratio_falls(14, 4, 2, 18, edge, Fraction(-17, 4), [1.0])


def test_ratios_are_even_in_the_height_bit_for_bit():
    # at the migi and hidari orders every row of the product-form ratios
    # takes the same bits at re - i*t as at re + i*t, as the factors have
    # real coefficients; the checks' quotient Q is even in t the same way
    for d in (3, 4, 5):
        for n in range(2 * d, 42):
            grid = _heights(n)
            orders = [(n, 0.0), (n + 1, 0.0)]
            if n >= d * d - 2:
                orders += [(n, -n / d), (n + d, -(n + d) / d)]
            for order, re in orders:
                up = _ratios(order, d, re + 1j * grid)
                down = _ratios(order, d, re - 1j * grid)
                assert up.tobytes() == down.tobytes(), (d, n, order, re)


def test_check_migi_rejects_s_zero():
    with pytest.raises(DomainViolation):
        check_migi(7, 3, 0)


def test_index_checks_require_a_hypersimplex_pair():
    # (3, 3) satisfies s <= d - 1 < n but is no pair 1 <= d < n
    for n, d in ((3, 3), (5, 0), (4, 6)):
        calls = (
            lambda: phi(n, d, 1, 1j),
            lambda: check_migi(n, d, 1),
            lambda: check_hidari(n, d, 1),
            lambda: aida_bound(n, d, 1, math.sqrt(2)),
            lambda: check_aida(n, d, 1, 0.0, math.sqrt(2)),
        )
        for call in calls:
            with pytest.raises(InvalidParams, match="1 <= d < n"):
                call()


def test_integer_arguments_must_be_integers():
    # a float or bool index is refused like a bad pair, before any evaluation
    calls = (
        lambda: phi(7.0, 3, 1, 1j),
        lambda: phi(7.5, 3, 1, 1j),
        lambda: phi(7, True, 1, 1j),
        lambda: check_migi(7, 3, 1.0),
        lambda: check_hidari(14, 4, 2.0),
        lambda: aida_bound(7, 3.0, 1, math.sqrt(2)),
        lambda: check_aida(7, 3, 1.0, 1.0, 1.4),
        lambda: check_d4_sum_bound(4.5),
        lambda: check_d4_sum_bound(4.0),
        lambda: check_h_negative(5.0),
    )
    for call in calls:
        with pytest.raises(InvalidParams, match="must be an integer"):
            call()


def test_numpy_integer_arguments_match_plain_ints():
    i = np.int64
    assert phi(i(7), i(3), i(2), 0.5 + 2j) == phi(7, 3, 2, 0.5 + 2j)
    assert check_migi(i(7), i(3), i(1)) is check_migi(7, 3, 1) is True
    assert check_hidari(i(14), i(4), i(2)) is check_hidari(14, 4, 2) is True
    assert aida_bound(i(7), i(3), i(1), 1.4) == aida_bound(7, 3, 1, 1.4)
    assert check_aida(i(7), i(3), i(1), 1.0, 1.4) is check_aida(7, 3, 1, 1.0, 1.4)
    assert check_d4_sum_bound(i(5)) is check_d4_sum_bound(5) is True
    assert check_h_negative(i(5)) is check_h_negative(5) is True


def test_check_hidari_examples():
    assert check_hidari(7, 3, 1) is True
    assert check_hidari(14, 4, 2) is True


def test_check_hidari_full_invariant_range():
    for d in range(2, 6):
        for n in range(max(2 * d, d * d - 2), 31):
            for s in range(1, d):
                assert check_hidari(n, d, s), (d, n, s)


def test_check_hidari_hypothesis():
    with pytest.raises(HypothesisViolation):
        check_hidari(6, 3, 1)


def test_check_aida_case3_bounds():
    assert aida_bound(7, 3, 1, math.sqrt(2)) == pytest.approx(7.0 / 8.0, rel=1e-10)
    assert aida_bound(7, 3, 2, math.sqrt(2)) == pytest.approx(7.0 / 72.0, rel=1e-10)
    assert check_aida(7, 3, 1, 1.0, math.sqrt(2)) is True
    assert check_aida(7, 3, 2, 0.0, math.sqrt(2)) is True


def test_check_aida_domain():
    with pytest.raises(DomainViolation):
        check_aida(8, 4, 0, 1.0, math.sqrt(2))
    with pytest.raises(DomainViolation):
        check_aida(7, 3, 1, 5.0, math.sqrt(2))  # alpha > n/d
    with pytest.raises(DomainViolation):
        check_aida(7, 3, 1, 1.0, 0.0)


def test_check_aida_rejects_non_finite_lambda():
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainViolation, match="finite"):
            aida_bound(7, 3, 1, lam)
        with pytest.raises(DomainViolation, match="finite"):
            check_aida(7, 3, 1, 1.0, lam)


def test_rouche_margin_imaginary_axis_n7():
    spec = ContourSpec("imaginary_axis", 3, 7, range=(-70.0, 70.0), samples=2001)
    report = rouche_margin(spec)
    assert report.passed
    assert report.max_ratio < 1792.0 / 2187.0 + 14.0 / 81.0 + 1e-9


def test_rouche_margin_horizontal_edge():
    spec = ContourSpec("horizontal_edge", 3, 7, lam=math.sqrt(2), samples=501)
    report = rouche_margin(spec)
    assert report.passed
    assert report.max_ratio <= 7.0 / 8.0 + 7.0 / 72.0


def test_rouche_margin_simplex_empty_sum():
    report = rouche_margin(ContourSpec("imaginary_axis", 1, 5, samples=101))
    assert report.max_ratio == 0.0
    assert report.passed


def test_rouche_margin_all_edges_d3():
    for n in (7, 12, 30):
        for kind in ("imaginary_axis", "left_edge"):
            assert rouche_margin(ContourSpec(kind, 3, n, samples=301)).passed
        for lam in (math.sqrt(2), -math.sqrt(2)):
            assert rouche_margin(
                ContourSpec("horizontal_edge", 3, n, lam=lam, samples=301)
            ).passed


def test_margin_passed_is_derived_from_max_ratio():
    for d, n in ((3, 7), (5, 10)):
        margin = rouche_margin(ContourSpec("imaginary_axis", d, n, samples=301))
        assert margin.passed == (margin.max_ratio < 1.0 - hsroots.bounds.RELATIVE_SLACK)
    assert rouche_margin(ContourSpec("imaginary_axis", 3, 7, samples=301)).passed
    assert not MarginReport(max_ratio=1.0, argmax_point=0j).passed
    assert not MarginReport(max_ratio=math.nan, argmax_point=0j).passed
    with pytest.raises(TypeError):
        MarginReport(max_ratio=0.5, argmax_point=0j, passed=False)


def test_contour_spec_validation():
    with pytest.raises(DomainViolation):
        ContourSpec("diagonal_edge", 3, 7)
    with pytest.raises(DomainViolation):
        ContourSpec("imaginary_axis", 3, 7, samples=1)
    with pytest.raises(DomainViolation):
        ContourSpec("horizontal_edge", 3, 7, range=(0.0, 5.0))  # beyond n/d
    with pytest.raises(DomainViolation, match="horizontal edge needs lam != 0"):
        ContourSpec("horizontal_edge", 3, 7, lam=0.0)
    # d, n and samples follow the rule of HypersimplexParams: integers, 1 <= d < n
    for d, n in ((0, 5), (6, 3), (4, 4)):
        for kind in ("imaginary_axis", "left_edge", "horizontal_edge"):
            with pytest.raises(InvalidParams, match="1 <= d < n"):
                ContourSpec(kind, d, n)
    for d, n, samples in ((True, 5, 11), (3, 7.0, 11), (3, 7, 11.0), (3, 7, True)):
        with pytest.raises(InvalidParams, match="must be an integer"):
            ContourSpec("imaginary_axis", d, n, samples=samples)
    spec = ContourSpec("imaginary_axis", np.int64(3), np.int64(7), samples=np.int64(301))
    assert type(spec.d) is int and type(spec.samples) is int
    assert rouche_margin(spec) == rouche_margin(ContourSpec("imaginary_axis", 3, 7, samples=301))


def test_check_d4_sum_bound():
    assert check_d4_sum_bound(4) is True
    assert check_d4_sum_bound(10) is True
    assert ratio_bound(4) == Fraction(63, 64)
    with pytest.raises(HypothesisViolation):
        check_d4_sum_bound(3)


def test_partial_sum_is_exact():
    assert geometric_factorial_sum(3) == Fraction(2, 3) + Fraction(4, 18)


def test_check_d4_sum_bound_holds_where_60_digits_cannot_tell():
    # the gap (2/3)^d/d! falls below 1e-60 from d = 44 on
    for d in (44, 60, 200):
        assert check_d4_sum_bound(d) is True
    assert all(check_d4_sum_bound(d) for d in range(4, 301))


def test_partial_sum_lower_bound_matches_mpmath():
    # S_d, the certificate's rational lower bound, lies below e^(2/3) - 1 by
    # less than twice its next term, at 400 digits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(400):
        limit = mp.expm1(mp.mpf(2) / 3)
        for d in range(4, 120):
            lower = geometric_factorial_sum(d + 1)  # S_d
            value = mp.mpf(lower.numerator) / lower.denominator
            tail = 2 * mp.mpf(2) ** (d + 1) / (mp.mpf(3) ** (d + 1) * mp.factorial(d + 1))
            assert geometric_factorial_sum(d) < lower
            assert 0 < limit - value < tail, d


def test_check_h_negative_values():
    assert check_h_negative(4) is True
    assert check_h_negative(5) is True
    # h(4,1) = log(129140163/134217728), exactly log 72 + 15 log(3/4)
    expected = math.log(129140163) - math.log(134217728)
    assert h_value(4, 1) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(HypothesisViolation):
        check_h_negative(3)


def test_h_endpoint_chain_values():
    assert h_endpoint_chain_bound(4) == Fraction(9, 10)
    for d in range(5, 21):
        assert h_endpoint_chain_bound(d) < Fraction(96, 125)


def test_lgamma_matches_factorial_at_integers():
    for s in range(1, 15):
        assert math.lgamma(s + 1) == pytest.approx(
            math.log(math.factorial(s)), rel=1e-13
        )


def log2_term_modulus_oracle(n: int, d: int, s: int, z: complex) -> float:
    """The former scalar evaluator: log2 |C(n,s) prod_k ((d-s)z + k - s)| as a
    sum of per-factor logs; -inf if a factor vanishes."""
    slope = float(d - s)
    im2 = (slope * z.imag) ** 2
    total = 0.0
    for k in range(1, n):
        re = slope * z.real + (k - s)
        m2 = re * re + im2
        if m2 == 0.0:
            return -math.inf
        total += math.log2(m2)
    return math.log2(math.comb(n, s)) + 0.5 * total


def kernel_points(n: int, d: int):
    """Points on the three edges at 0 and 12 log-spaced heights from n/1000
    to 100n of both signs, zeros of some terms (0 for every s >= 1, -1/d
    for s = 0) and points of large modulus."""
    magnitudes = [n * 10.0 ** (-3.0 + 5.0 * i / 11) for i in range(12)]
    beta = [0.0, *magnitudes, *(-b for b in magnitudes)]
    points = [complex(0.0, b) for b in beta] + [complex(-n / d, b) for b in beta]
    points += [complex(-a, math.sqrt(2) * n) for a in np.linspace(0.0, n / d, 7)]
    points += [0j, complex(-1.0 / d, 0.0), complex(-2.0 / d, 0.0)]
    points += [complex(3e6, -4e6), complex(-2e7, 5e7), complex(0.0, -1e8)]
    return np.array(points)


KERNEL_CASES = [(7, 3), (12, 4), (33, 5), (41, 5), (64, 7)]


def test_log2_terms_match_per_factor_oracle():
    for n, d in KERNEL_CASES:
        z = kernel_points(n, d)
        logs = _log2_terms(n, d, z)
        assert logs.shape == (d, z.size)
        for s in range(d):
            for i, point in enumerate(z):
                expected = log2_term_modulus_oracle(n, d, s, complex(point))
                if expected == -math.inf:
                    assert logs[s, i] == -math.inf, (n, d, s, point)
                else:
                    assert abs(logs[s, i] - expected) <= 1e-12 * max(1.0, abs(expected)), (
                        n, d, s, point
                    )
    # the zero-factor points really are zeros
    assert _log2_terms(7, 3, np.array([0j]))[1:, 0].tolist() == [-math.inf, -math.inf]
    assert _log2_terms(7, 3, np.array([complex(-1.0 / 3, 0.0)]))[0, 0] == -math.inf


def test_log2_terms_and_ratios_batch_independent():
    for n, d in KERNEL_CASES:
        z = kernel_points(n, d)
        logs = _log2_terms(n, d, z)
        for i, point in enumerate(z):
            single = _log2_terms(n, d, np.array([point]))[:, 0]
            assert single.tobytes() == logs[:, i].tobytes(), (n, d, point)
        z = z[_log2_terms(n, d, z)[0] > -math.inf]  # phi needs f_0 != 0
        ratios = _ratios(n, d, z)
        for i, point in enumerate(z):
            for s in range(d):
                value = phi(n, d, s, complex(point))
                assert np.float64(value).tobytes() == ratios[s, i].tobytes(), (n, d, s, point)


def test_ratios_pole_anywhere_in_batch_raises():
    z = np.array([complex(0.0, 1.0), complex(-1.0 / 3.0, 0.0), complex(0.0, 2.0)])
    with pytest.raises(DivisionByZeroTerm, match="-0.333"):
        _ratios(7, 3, z)


def test_rouche_margin_nudges_poles_on_low_horizontal_edge():
    # lam = 1e-12 puts the edge within 1e-9 of the real axis: the five interior
    # samples -k/3, k = 1..5, sit on zeros of the dominant term and are nudged
    report = rouche_margin(ContourSpec("horizontal_edge", 3, 6, lam=1e-12, samples=7))
    assert report.nudged == 5
    assert report.argmax_point == complex(-1.3333323333333333, 6e-12)
    assert report.max_ratio == pytest.approx(1399179.5761218565, rel=1e-12)
    assert not report.passed


def test_blocking_changes_no_bits(monkeypatch):
    specs = [
        ContourSpec("imaginary_axis", 4, 17, samples=301),
        ContourSpec("left_edge", 5, 33, samples=300),
        ContourSpec("horizontal_edge", 3, 6, lam=1e-12, samples=7),
    ]
    whole = [rouche_margin(spec) for spec in specs]
    migi = [check_migi(12, 4, s) for s in range(1, 4)]
    hidari = [check_hidari(23, 5, s) for s in range(1, 5)]
    monkeypatch.setattr(hsroots.bounds, "_BLOCK", 7)
    assert [rouche_margin(spec) for spec in specs] == whole
    assert [check_migi(12, 4, s) for s in range(1, 4)] == migi
    assert [check_hidari(23, 5, s) for s in range(1, 5)] == hidari


def sample_formula(spec: ContourSpec) -> list:
    """The edge samples one point at a time: t = lo + step*i, then the point."""
    lo, hi = spec.resolved_range()
    step = (hi - lo) / (spec.samples - 1)
    points = []
    for i in range(spec.samples):
        t = lo + step * i
        if spec.kind == "imaginary_axis":
            points.append(complex(0.0, t))
        elif spec.kind == "left_edge":
            points.append(complex(-spec.n / spec.d, t))
        else:
            points.append(complex(-t, spec.lam * spec.n))
    return points


def test_sample_blocks_match_the_formula_bit_for_bit():
    specs = [
        ContourSpec("imaginary_axis", 3, 7, samples=1001),
        ContourSpec("imaginary_axis", 4, 17, range=(50.0, -30.0), samples=301),
        ContourSpec("left_edge", 5, 33, samples=300),
        ContourSpec("left_edge", 3, 12, range=(9.5, -0.7), samples=13),
        ContourSpec("horizontal_edge", 3, 7, samples=501),
        ContourSpec("horizontal_edge", 4, 13, lam=-math.sqrt(2), samples=10),
        ContourSpec("horizontal_edge", 3, 6, lam=1e-12, samples=7),
    ]
    for spec in specs:
        expected = np.array(sample_formula(spec))
        for size in (1, 7, 4096):
            blocks = list(spec.sample_blocks(size))
            assert all(0 < block.size <= size for block in blocks)
            got = np.concatenate(blocks)
            assert got.tobytes() == expected.tobytes(), (spec, size)
    # t = 0 on a horizontal edge gives the real part -0.0, as complex(-t, .) does
    first = next(ContourSpec("horizontal_edge", 3, 7, samples=5).sample_blocks(2))
    assert first[0].real == 0.0 and math.copysign(1.0, first[0].real) == -1.0


def test_contour_spec_rejects_non_finite_values():
    for kwargs in (
        dict(lam=math.nan),
        dict(lam=math.inf),
        dict(lam=-math.inf),
        dict(range=(-math.inf, math.inf)),
        dict(range=(0.0, math.nan)),
        dict(lam=1e308),  # the default range (-lam*n, lam*n) overflows
        dict(range=(-1e308, 1e308)),  # the width overflows
    ):
        for kind in ("imaginary_axis", "left_edge"):
            with pytest.raises(DomainViolation, match="finite"):
                ContourSpec(kind, 3, 7, **kwargs)
    with pytest.raises(DomainViolation, match="finite"):
        ContourSpec("horizontal_edge", 3, 7, lam=math.nan)


def test_rouche_margin_fails_on_an_overflowed_ratio_sum(monkeypatch):
    # the terms overflow at heights of 1e297 and above, so every sample but
    # t = 0 has a NaN ratio sum; none of them may be skipped
    with np.errstate(over="ignore", invalid="ignore"):
        report = rouche_margin(ContourSpec("imaginary_axis", 3, 40, range=(0.0, 1e300)))
        assert math.isnan(report.max_ratio) and not report.passed
        assert report.argmax_point == complex(0.0, 1e297)
        # a later block whose only finite sum is 0 keeps the first NaN sample
        monkeypatch.setattr(hsroots.bounds, "_BLOCK", 7)
        report = rouche_margin(ContourSpec("imaginary_axis", 3, 40, range=(-1e300, 0.0)))
        assert math.isnan(report.max_ratio) and not report.passed
        assert report.argmax_point == complex(0.0, -1e300)
