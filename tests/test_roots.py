import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from hsroots.ehrhart import HypersimplexParams, ehrhart_polynomial, evaluate_exact
from hsroots.errors import EvaluationAtRoot
from hsroots.polynomial import RationalPolynomial
from hsroots.roots import (
    RootSet,
    SolverConfig,
    _eval_vec,
    _horner_fixed,
    _int_mantissa_exponent,
    _to_fixed,
    evaluate_scaled,
    find_roots,
    log_derivative,
    residual,
)
from hsroots.stability import _integer_coefficients


def gaussian_eval(poly, re: Fraction, im: Fraction):
    """Exact evaluation at re + im*i using Fraction pairs."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(poly.coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def delta_3_6_roots():
    """The five roots from the factored quintic: -1 and -1 +- sqrt(w) with
    11 w^2 + 5 w + 4 = 0."""
    disc = cmath.sqrt(25 - 4 * 11 * 4)  # sqrt(-151)
    out = [complex(-1.0, 0.0)]
    for w in ((-5 + disc) / 22, (-5 - disc) / 22):
        root = cmath.sqrt(w)
        out.extend([-1 + root, -1 - root])
    return out


def match_distance(got, expected):
    """Max over expected points of the distance to the closest returned root."""
    return max(min(abs(g - e) for g in got) for e in expected)


def test_evaluate_scaled_at_zero_is_one():
    val = evaluate_scaled(HypersimplexParams(3, 6), 0j).to_complex()
    assert val == pytest.approx(1.0, rel=1e-14)


def test_evaluate_scaled_at_known_roots():
    assert abs(evaluate_scaled(HypersimplexParams(3, 6), -1 + 0j).to_complex()) < 1e-12
    assert abs(evaluate_scaled(HypersimplexParams(1, 4), -2 + 0j).to_complex()) < 1e-12


def test_evaluate_scaled_matches_exact_rational():
    # product-form evaluation vs exact rational recomputation, paper-campaign
    # shapes (d <= 10); relative 1e-12
    points = [Fraction(0), Fraction(1), Fraction(5), Fraction(1, 2), Fraction(7, 3)]
    for d, n in [(1, 7), (2, 11), (3, 17), (4, 24), (6, 18), (8, 33), (10, 40), (10, 20)]:
        params = HypersimplexParams(d, n)
        poly = ehrhart_polynomial(params)
        for z in points:
            exact = float(evaluate_exact(poly, z))
            got = evaluate_scaled(params, complex(z)).to_complex().real
            assert got == pytest.approx(exact, rel=1e-12)


def test_evaluate_scaled_matches_exact_at_integers():
    for d, n in [(2, 9), (3, 21), (5, 35), (7, 40)]:
        params = HypersimplexParams(d, n)
        poly = ehrhart_polynomial(params)
        for m in range(6):
            exact = float(evaluate_exact(poly, m))
            got = evaluate_scaled(params, complex(m)).to_complex().real
            assert got == pytest.approx(exact, rel=1e-12)


def test_log_derivative_simplex_values():
    # d=1, n=3: p = (m+1)(m+2)/2, so p'/p at 0 is 1 + 1/2
    assert log_derivative(HypersimplexParams(1, 3), 0j) == pytest.approx(1.5)
    # d=1, n=4 at 1: 1/2 + 1/3 + 1/4
    assert log_derivative(HypersimplexParams(1, 4), 1 + 0j) == pytest.approx(13 / 12)


def test_log_derivative_at_gaussian_point_matches_exact():
    params = HypersimplexParams(2, 4)
    poly = ehrhart_polynomial(params)
    deriv_coeffs = [k * c for k, c in enumerate(poly.coeffs)][1:]
    from hsroots.polynomial import RationalPolynomial

    deriv = RationalPolynomial(deriv_coeffs)
    p_re, p_im = gaussian_eval(poly, Fraction(0), Fraction(1))
    d_re, d_im = gaussian_eval(deriv, Fraction(0), Fraction(1))
    denom = p_re * p_re + p_im * p_im
    expected = complex(
        float((d_re * p_re + d_im * p_im) / denom),
        float((d_im * p_re - d_re * p_im) / denom),
    )
    got = log_derivative(params, 1j)
    assert got == pytest.approx(expected, rel=1e-10)


def test_log_derivative_raises_at_exact_root():
    # -1 is an exact root of the d=1 polynomials and the sum vanishes exactly
    with pytest.raises(EvaluationAtRoot):
        log_derivative(HypersimplexParams(1, 3), -1 + 0j)


def test_find_roots_simplex():
    rs = find_roots(HypersimplexParams(1, 5))
    assert rs.converged
    assert len(rs.roots) == 4
    expected = [-4.0, -3.0, -2.0, -1.0]
    for root, want in zip(rs.roots, expected):
        assert root == pytest.approx(want, abs=1e-10)
        assert root.imag == 0.0


def test_find_roots_delta_3_6_closed_form():
    rs = find_roots(HypersimplexParams(3, 6))
    assert rs.converged
    assert match_distance(rs.roots, delta_3_6_roots()) < 1e-9
    # all five satisfy |(a+1)^2| < 1
    assert all(abs((r + 1) ** 2) < 1 for r in rs.roots)


def test_find_roots_strip_d2_n4():
    rs = find_roots(HypersimplexParams(2, 4))
    assert rs.converged
    assert all(-2 < r.real < 0 for r in rs.roots)


def test_root_count_and_conjugate_closure():
    for d, n in [(2, 7), (3, 10), (4, 13)]:
        config = SolverConfig()
        rs = find_roots(HypersimplexParams(d, n), config)
        tol = config.resolved_tolerance(n - 1)
        assert len(rs.roots) == n - 1
        for r in rs.roots:
            if abs(r.imag) > tol:
                partner = min(abs(r.conjugate() - other) for other in rs.roots)
                assert partner <= 10 * tol


def test_root_sum_and_product_match_coefficients():
    for d, n in [(2, 6), (3, 9), (5, 14)]:
        params = HypersimplexParams(d, n)
        poly = ehrhart_polynomial(params)
        rs = find_roots(params)
        assert rs.converged
        total = sum(rs.roots)
        expected_sum = -float(poly.coeffs[-2] / poly.coeffs[-1])
        assert total.real == pytest.approx(expected_sum, rel=1e-8)
        assert abs(total.imag) < 1e-8 * (1 + abs(expected_sum))
        prod = 1 + 0j
        for r in rs.roots:
            prod *= r
        expected_prod = float((-1) ** (n - 1) * poly.coeffs[0] / poly.coeffs[-1])
        assert prod.real == pytest.approx(expected_prod, rel=1e-8)


def test_roots_inside_coarse_disc():
    # every root within |z + 1/2| <= (n-1)(n - 3/2) for conjecture-domain pairs
    for d, n in [(1, 6), (2, 8), (3, 11), (5, 12)]:
        rs = find_roots(HypersimplexParams(d, n))
        bound = (n - 1) * (n - 1.5)
        assert all(abs(r + 0.5) <= bound for r in rs.roots)


def test_find_roots_deterministic_per_seed():
    a = find_roots(HypersimplexParams(4, 11), SolverConfig(seed=7))
    b = find_roots(HypersimplexParams(4, 11), SolverConfig(seed=7))
    assert a.roots == b.roots
    c = find_roots(HypersimplexParams(4, 11), SolverConfig(seed=8))
    assert match_distance(c.roots, a.roots) < 1e-8


def test_degree_one():
    rs = find_roots(HypersimplexParams(1, 2))
    assert rs.converged
    assert rs.roots[0] == pytest.approx(-1.0, abs=1e-12)


def test_find_roots_deep_cancellation_falls_back():
    # at n = 2d the alternating sum cancels past double precision; the
    # extended-precision retry must still deliver certified roots in-strip
    rs = find_roots(HypersimplexParams(15, 30))
    assert rs.converged
    assert len(rs.roots) == 29
    assert all(-2.0 < r.real < 0.0 for r in rs.roots)


def test_residual_values():
    assert residual(HypersimplexParams(1, 3), -1 + 0j) < 1e-15
    assert residual(HypersimplexParams(3, 6), -1 + 0j) <= 1e-14
    far = residual(HypersimplexParams(3, 6), 0j)
    assert 0.5 < far <= 1.5  # p(0)=1 and the perturbation bound is |c_0|


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=-1e-9)


def test_rootset_max_residual():
    rs = RootSet(roots=(1j,), residuals=(1e-12,), iterations=3, converged=True)
    assert rs.max_residual == 1e-12
    assert rs.extended_bits is None and rs.extended_sweeps == 0


def loop_eval(d, n, z):
    """The evaluator with one pass over the points per alternating-sum term:
    the same float operations as `_eval_vec`, in the same order."""
    acc = acc_d = acc_e = None
    terms = []
    for s in range(d):
        slope = float(d - s)
        prod = np.ones(z.shape[0], dtype=complex)
        prod_d = np.zeros(z.shape[0], dtype=complex)
        exps = np.zeros(z.shape[0], dtype=np.int64)
        for k in range(1, n):
            factor = slope * z + (k - s)
            prod_d = prod_d * factor + prod * slope
            prod = prod * factor
            if k % 16 == 0 or k == n - 1:
                _, e = np.frexp(np.maximum(np.abs(prod), np.abs(prod_d)))
                adjust = np.where(np.abs(e) > 200, e, 0)
                if adjust.any():
                    scale = np.ldexp(1.0, -adjust)
                    prod = prod * scale
                    prod_d = prod_d * scale
                    exps += adjust
        cm, ce = _int_mantissa_exponent(math.comb(n, s))
        terms.append((np.abs(prod) * cm, exps + ce))
        if s % 2:
            cm = -cm
        term, term_d, term_e = prod * cm, prod_d * cm, exps + ce
        if acc is None:
            acc, acc_d, acc_e = term, term_d, term_e
            continue
        top = np.maximum(acc_e, term_e)
        down_old = np.ldexp(1.0, np.maximum(acc_e - top, -1074).astype(np.int32))
        down_new = np.ldexp(1.0, np.maximum(term_e - top, -1074).astype(np.int32))
        acc = acc * down_old + term * down_new
        acc_d = acc_d * down_old + term_d * down_new
        acc_e = top
    magnitude = 0.0
    for mag, e in terms:
        magnitude = magnitude + np.ldexp(mag, np.maximum(e - acc_e, -1100).astype(np.int32))
    return acc, acc_d, acc_e, magnitude


def mixed_points(d, n):
    """Points in the root strip, from near the real axis to far above it."""
    re = -n / (2 * d) + np.linspace(-0.4, 0.4, 5) * n / d
    im = np.array([1e-3, 0.3, 4.0, 60.0])
    return (re[:, None] + 1j * im[None, :]).ravel()


def as_bytes(triple):
    return [a.tobytes() for a in triple]


@pytest.mark.parametrize("d,n", [(1, 5), (3, 6), (7, 63), (22, 44)])
def test_eval_vec_matches_loop_reference(d, n):
    z = mixed_points(d, n)
    assert as_bytes(_eval_vec(d, n, z)) == as_bytes(loop_eval(d, n, z))


@pytest.mark.parametrize("d,n", [(1, 5), (7, 63), (22, 44)])
def test_eval_vec_batch_equals_single(d, n):
    z = mixed_points(d, n)
    batch = _eval_vec(d, n, z)
    singles = [_eval_vec(d, n, z[i:i + 1]) for i in range(z.size)]
    if n > 16:
        # points that need rescaling at different factors share the term
        # rows, so rows are rescaled with some of their entries left alone
        assert len({int(one[2][0]) for one in singles}) > 1
    for i, one in enumerate(singles):
        assert as_bytes(one) == as_bytes(tuple(a[i:i + 1] for a in batch))


@pytest.mark.parametrize("d,n", [(3, 6), (7, 53), (10, 40)])
def test_residual_matches_find_roots_bitwise(d, n):
    params = HypersimplexParams(d, n)
    rs = find_roots(params)
    assert any(r.imag == 0 for r in rs.roots)  # includes roots snapped to the axis
    for root, res in zip(rs.roots, rs.residuals):
        assert residual(params, root) == res


def test_eval_vec_noise_magnitude():
    # A sums the moduli of the terms whose signed sum is S, so |S| <= A up to
    # rounding, with equality when there is a single term
    S, _, _, A = _eval_vec(22, 44, mixed_points(22, 44))
    assert (np.abs(S) <= A * (1 + 1e-12)).all()
    S, _, _, A = _eval_vec(1, 5, np.array([2.0 + 1j]))
    assert A[0] == abs(S[0])
    # exact sum of the term moduli at a real point
    d, n, z = 3, 6, 1
    exact = sum(
        math.comb(n, s) * abs(math.prod((d - s) * z + k - s for k in range(1, n)))
        for s in range(d)
    )
    _, _, E, A = _eval_vec(d, n, np.array([complex(z)]))
    assert math.ldexp(A[0], int(E[0])) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("d,n", [(16, 32), (22, 44)])
def test_horner_fixed_within_truncation_bound(d, n):
    coeffs = _integer_coefficients(ehrhart_polynomial(HypersimplexParams(d, n)))
    degree = len(coeffs) - 1
    poly = RationalPolynomial(coeffs)
    deriv = RationalPolynomial([k * c for k, c in enumerate(coeffs)][1:])
    bits = 128
    unit = Fraction(1, 2**bits)
    for z in mixed_points(d, n):
        x, y = _to_fixed(z.real, bits), _to_fixed(z.imag, bits)
        re, im = x * unit, y * unit
        assert (re, im) == (Fraction(z.real), Fraction(z.imag))  # exact point
        pr, pi, dr, di = _horner_fixed(coeffs, x, y, bits)
        # the stated bounds, with |re| + |im| >= |z| in the geometric sum
        geometric = sum((abs(re) + abs(im)) ** j for j in range(degree))
        for (got_re, got_im), oracle, bound in (
            ((pr, pi), poly, 2 * unit * geometric),
            ((dr, di), deriv, 2 * unit * degree * geometric),
        ):
            want_re, want_im = gaussian_eval(oracle, re, im)
            err2 = (got_re * unit - want_re) ** 2 + (got_im * unit - want_im) ** 2
            assert err2 <= bound**2
            # the bound is far below the value, so the check has teeth
            assert bound**2 < (want_re**2 + want_im**2) * Fraction(1, 2**80)


def test_find_roots_refines_noise_limited_iterates():
    # at (16, 32) the double sweep hits the evaluation noise and the iterates
    # are refined with exact coefficients; compare with an independent solver
    params = HypersimplexParams(16, 32)
    rs = find_roots(params)
    assert rs.converged
    assert rs.extended_bits is not None and rs.extended_sweeps > 0
    assert rs.iterations < SolverConfig().max_iterations
    poly = ehrhart_polynomial(params)
    with mp.workprec(256):
        cs = [mp.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
        reference = [complex(r) for r in mp.polyroots(cs, maxsteps=400, extraprec=256)]
    for ours, theirs in ((rs.roots, reference), (reference, rs.roots)):
        for root in ours:
            assert min(abs(root - other) for other in theirs) <= 1e-12 * (1 + abs(root))


@pytest.mark.parametrize("d,n", [(7, 63), (9, 96)])
def test_find_roots_stays_in_doubles_off_the_diagonal(d, n):
    for seed in range(3):
        rs = find_roots(HypersimplexParams(d, n), SolverConfig(seed=seed))
        assert rs.converged
        assert rs.extended_bits is None and rs.extended_sweeps == 0


def test_find_roots_diagonal_d40_in_strip():
    rs = find_roots(HypersimplexParams(40, 80))
    assert rs.converged
    assert len(rs.roots) == 79
    assert all(-2.0 < r.real < 0.0 for r in rs.roots)
