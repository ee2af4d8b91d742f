import math
from fractions import Fraction

import numpy as np
import pytest

import hsroots.bounds
from hsroots.bounds import (
    ContourSpec,
    aida_bound,
    check_aida,
    check_d4_sum_bound,
    check_h_negative,
    check_migi,
    check_hidari,
    default_beta_grid,
    f_term_modulus,
    geometric_factorial_sum,
    h_endpoint_chain_bound,
    h_value,
    phi,
    ratio_bound,
    rouche_margin,
    _log2_terms,
    _ratios,
)
from hsroots.errors import DivisionByZeroTerm, DomainViolation, HypothesisViolation


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


def test_f_term_modulus_constant_product():
    # n=3, d=1, s=0 at z=0: |2 * 1| = 2
    assert f_term_modulus(3, 1, 0, 0j).to_float() == pytest.approx(2.0, rel=1e-14)


def test_f_term_modulus_zero_factor():
    assert f_term_modulus(6, 3, 1, 0j).is_zero


def test_f_term_modulus_matches_radicand_structure():
    # n=7, d=3, s=2 at z = i*beta: 21*sqrt((b^2+16)(b^2+9)(b^2+4)(b^2+1)^2 b^2)
    for beta in (0.5, 1.0, 2.0, 7.5):
        b2 = beta * beta
        expected = 21.0 * math.sqrt(
            (b2 + 16) * (b2 + 9) * (b2 + 4) * (b2 + 1) ** 2 * b2
        )
        got = f_term_modulus(7, 3, 2, complex(0, beta)).to_float()
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


def test_default_beta_grid_shape():
    grid = default_beta_grid(7)
    assert len(grid) == 801
    assert grid[0] == 0.0
    assert min(grid) == -max(grid)
    assert max(grid) == pytest.approx(7 * 100.0)


def test_check_migi_examples():
    grid = [7 * 10 ** t for t in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    assert check_migi(7, 3, 1, grid) is True
    assert check_migi(7, 3, 2, grid) is True
    assert check_migi(10, 4, 3, grid) is True


def test_check_migi_default_grid():
    assert check_migi(7, 3, 1) is True
    assert check_migi(12, 5, 4) is True


def test_check_migi_rejects_s_zero():
    with pytest.raises(DomainViolation):
        check_migi(7, 3, 0)


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


def test_contour_spec_validation():
    with pytest.raises(DomainViolation):
        ContourSpec("diagonal_edge", 3, 7)
    with pytest.raises(DomainViolation):
        ContourSpec("imaginary_axis", 3, 7, samples=1)
    with pytest.raises(DomainViolation):
        ContourSpec("horizontal_edge", 3, 7, range=(0.0, 5.0))  # beyond n/d


def test_check_d4_sum_bound():
    assert check_d4_sum_bound(4) is True
    assert check_d4_sum_bound(10) is True
    assert ratio_bound(4) == Fraction(63, 64)
    with pytest.raises(HypothesisViolation):
        check_d4_sum_bound(3)


def test_partial_sum_is_exact():
    assert geometric_factorial_sum(3) == Fraction(2, 3) + Fraction(4, 18)


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
    """Points on the three edges at default-grid heights, zeros of some terms
    (0 for every s >= 1, -1/d for s = 0) and points of large modulus."""
    beta = default_beta_grid(n, 12)
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
