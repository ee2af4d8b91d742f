import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import hsroots.ehrhart
import hsroots.stability
from hsroots.campaign import CampaignConfig, run_campaign
from hsroots.ehrhart import HypersimplexParams, ehrhart_polynomial, pinned_roots
from hsroots.errors import ConjectureDomain, ZeroPolynomial
from hsroots.polynomial import RationalPolynomial, _integer_coefficients, _taylor_shift
from hsroots.roots import _distance_product_lower, _value_bounds, find_roots, find_roots_many
from hsroots.stability import (
    _disks,
    _dyadic,
    _float_radii,
    _inside,
    inclusion_strip,
    reflect_polynomial,
    routh_hurwitz,
    shift_polynomial,
    StabilityVerdict,
    StripVerdict,
    verify_half_plane,
    verify_strip,
    verify_strip_many,
)


def product(factors) -> RationalPolynomial:
    """The exact product of polynomials given as coefficient lists (ints or
    floats), lowest degree first."""
    coeffs = [Fraction(1)]
    for factor in factors:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * Fraction(b)
        coeffs = out
    return RationalPolynomial(coeffs)


def test_shift_examples():
    assert shift_polynomial(RationalPolynomial([1, 1]), 1) == RationalPolynomial([2, 1])
    assert shift_polynomial(RationalPolynomial([0, 0, 1]), -1) == RationalPolynomial([1, -2, 1])


def test_taylor_shift_scales_by_the_denominator_power():
    # a shift by a/b returns b**N p(z + a/b) in integers: 4 (z + 1/2)**2
    # = 4z^2 + 4z + 1, and 27 ((z - 2/3)^3 + 1) = 27z^3 - 54z^2 + 36z + 19
    assert _taylor_shift([0, 0, 1], 1, 2) == [1, 4, 4]
    assert _taylor_shift([1, 0, 0, 1], -2, 3) == [19, 36, -54, 27]
    assert _taylor_shift([5, -3, 2], 4) == [25, 13, 2]  # 2(z+4)^2 - 3(z+4) + 5


def test_shift_moves_root_to_origin():
    poly = ehrhart_polynomial(HypersimplexParams(3, 6))
    shifted = shift_polynomial(poly, -1)  # -1 is a root
    assert shifted.constant_term == 0


def test_reflect_examples():
    assert reflect_polynomial(RationalPolynomial([1, 1])) == RationalPolynomial([1, -1])
    assert reflect_polynomial(RationalPolynomial([1, 1, 1])) == RationalPolynomial([1, -1, 1])


def test_reflect_is_involution():
    poly = ehrhart_polynomial(HypersimplexParams(2, 4))
    assert reflect_polynomial(reflect_polynomial(poly)) == poly


def test_shift_reflect_evaluation_identity():
    # q = reflect(shift(p, c)) must satisfy q(t) = p(-t + c) at random rationals
    rng = random.Random(20240917)
    poly = ehrhart_polynomial(HypersimplexParams(3, 7))
    for _ in range(10):
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        q = reflect_polynomial(shift_polynomial(poly, c))
        assert q.evaluate(t) == poly.evaluate(-t + c)


def test_routh_simple_cases():
    assert routh_hurwitz(RationalPolynomial([2, 3, 1])).status == "Stable"  # roots -1, -2
    assert routh_hurwitz(RationalPolynomial([-1, 0, 1])).status == "Unstable"  # roots +-1
    assert routh_hurwitz(RationalPolynomial([1, 0, 1])).status == "Boundary"  # roots +-i


def test_routh_rejects_degenerate():
    with pytest.raises(ZeroPolynomial):
        routh_hurwitz(RationalPolynomial([]))
    with pytest.raises(ZeroPolynomial):
        routh_hurwitz(RationalPolynomial([5]))


def test_routh_degree_one():
    assert routh_hurwitz(RationalPolynomial([1, 1])).status == "Stable"
    assert routh_hurwitz(RationalPolynomial([-1, 1])).status == "Unstable"
    assert routh_hurwitz(RationalPolynomial([0, 1])).status == "Boundary"


def test_routh_root_at_origin_is_boundary():
    # z(z+1): root on the axis
    assert routh_hurwitz(RationalPolynomial([0, 1, 1])).status == "Boundary"


def test_routh_matches_root_classification_random():
    # build degree <= 8 integer polynomials from known root locations and
    # compare the verdict with the construction; axis roots excluded.
    # Draws whose exact table degenerates (zero leading element, possible
    # even off-axis, e.g. when the roots sum to zero) are redrawn -- but a
    # degenerate table must never occur for a genuinely stable polynomial.
    rng = random.Random(7041)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 1000
        degree = rng.randint(2, 8)
        factors = [[rng.choice([1, 2, 3])]]
        any_rhp = False
        remaining = degree
        while remaining > 0:
            if remaining >= 2 and rng.random() < 0.4:
                re = rng.choice([-3, -2, -1, 1, 2])
                im = rng.randint(1, 3)
                # (z - (re+i*im))(z - (re-i*im)) = z^2 - 2*re*z + re^2 + im^2
                factors.append([re * re + im * im, -2 * re, 1])
                any_rhp |= re > 0
                remaining -= 2
            else:
                r = rng.choice([-4, -3, -2, -1, 1, 2, 3])
                factors.append([-r, 1])
                any_rhp |= r > 0
                remaining -= 1
        verdict = routh_hurwitz(product(factors))
        if verdict.status == "Boundary":
            assert any_rhp, "degenerate table reported for a stable polynomial"
            continue
        assert verdict.status == ("Unstable" if any_rhp else "Stable")
        checked += 1


def test_stable_implies_positive_coefficients():
    rng = random.Random(5512)
    for _ in range(60):
        degree = rng.randint(1, 7)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
        poly = RationalPolynomial(coeffs)
        if poly.degree < 1:
            continue
        verdict = routh_hurwitz(poly)
        if verdict.status == "Stable":
            assert all(c > 0 for c in poly.coeffs)


def test_verify_strip_known_cases():
    for d, n in ((2, 4), (3, 6), (1, 5)):
        params = HypersimplexParams(d, n)
        routh = verify_strip(params)
        assert routh.overall is True
        assert routh.left_ok.certifier == routh.right_ok.certifier == "routh"
        disks = verify_strip(params, find_roots(params).roots)
        assert disks.overall is True
        assert disks.left_ok.certifier == disks.right_ok.certifier == "inclusion"


def test_inclusion_leaves_unstable_side_unproven():
    # (z - 1)(z + 1) with its exact roots: the disks have radius 0, and the
    # root at +1 keeps the right side from being proven; Routh finds it
    poly = RationalPolynomial([-1, 0, 1])
    assert inclusion_strip(poly, [1, -1], -2, 0) == (True, False)
    assert routh_hurwitz(poly).status == "Unstable"


def test_inclusion_disk_touching_the_edge_proves_nothing():
    # (z + 1)(z + 3) at the points -5/4 and -11/4: W = -/+ 7/24 and the
    # disks D(-5/4, 7/12), D(-11/4, 7/12) reach exactly down to -10/3
    poly = RationalPolynomial([3, 4, 1])
    points = [-1.25, -2.75]
    assert inclusion_strip(poly, points, Fraction(-10, 3), 0) == (False, True)
    assert inclusion_strip(poly, points, Fraction(-10, 3) - Fraction(1, 10**30), 0) == (
        True,
        True,
    )
    # the right edge: the first disk reaches up to -2/3
    assert inclusion_strip(poly, points, -4, Fraction(-2, 3)) == (True, False)
    assert inclusion_strip(poly, points, -4, Fraction(-2, 3) + Fraction(1, 10**30)) == (
        True,
        True,
    )


def test_inclusion_never_proves_a_side_a_root_is_outside():
    # polynomials built from known roots, points at random distances from
    # them, random strips: a proven side must hold for every true root
    rng = random.Random(3088)
    proven = 0
    for _ in range(300):
        roots, degree = [], rng.randint(1, 7)
        while len(roots) < degree:
            re, im = rng.randint(-6, 2), rng.choice([0, 0, 1, 2])
            roots.extend([complex(re, im), complex(re, -im)] if im else [complex(re)])
        poly = product(
            [r.real**2 + r.imag**2, -2 * r.real, 1] if r.imag else [-r.real, 1]
            for r in roots
            if r.imag >= 0
        )
        noise = 10.0 ** -rng.randint(0, 12)
        points = [
            r + complex(rng.uniform(-noise, noise), rng.uniform(-noise, noise)) for r in roots
        ]
        # edges up to one unit beyond the extreme roots, or cutting into them
        lower = min(int(r.real) for r in roots) - Fraction(rng.randint(-5, 20), 20)
        upper = max(int(r.real) for r in roots) + Fraction(rng.randint(-5, 20), 20)
        left, right = inclusion_strip(poly, points, lower, upper)
        if left:
            assert all(r.real > lower for r in roots), (roots, points, lower)
        if right:
            assert all(r.real < upper for r in roots), (roots, points, upper)
        proven += left + right
    assert proven > 100  # the disks do prove most sides that hold


@pytest.mark.parametrize(
    "spoil",
    [
        lambda roots: [roots[1]] + roots[1:],  # a repeated point
        lambda roots: [complex(math.nan, 0.0)] + roots[1:],
        lambda roots: [complex(math.inf, 0.0)] + roots[1:],
        lambda roots: roots[:-1],  # one point short
        lambda roots: roots + [complex(-1.0, 0.0)],  # one point too many
    ],
    ids=["repeated", "nan", "inf", "short", "long"],
)
def test_verify_strip_falls_back_to_routh(spoil):
    params = HypersimplexParams(4, 10)
    roots = spoil(list(find_roots(params).roots))
    bound = Fraction(params.n, params.d)
    assert inclusion_strip(ehrhart_polynomial(params), roots, -bound, 0) == (False, False)
    verdict = verify_strip(params, roots)
    assert verdict == verify_strip(params)
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "routh"


def test_verify_strip_moved_root_falls_back_and_stays_stable():
    params = HypersimplexParams(4, 10)
    roots = list(find_roots(params).roots)
    roots[0] += 0.5
    verdict = verify_strip(params, roots)
    assert verdict.overall is True
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "routh"
    assert verdict == verify_strip(params)


def test_verify_strip_rejects_out_of_domain():
    with pytest.raises(ConjectureDomain):
        verify_strip(HypersimplexParams(3, 5))


def test_verify_strip_many_agrees_with_verify_strip_and_isolates_failures(monkeypatch):
    # the certified d = 4..5 grid in one call, with a repeated root, whose
    # points carry no disks, so both sides go to Routh, and a pair outside
    # the conjecture domain, which fails alone
    grid = [HypersimplexParams(d, n) for d, n in CampaignConfig(d_min=4, d_max=5).pairs()]
    roots = [rs.roots for rs in find_roots_many(grid)]
    alone = [verify_strip(params, r) for params, r in zip(grid, roots)]
    assert all(verdict.overall for verdict in alone)
    repeated, outside = HypersimplexParams(4, 10), HypersimplexParams(3, 5)
    spoiled = list(roots[grid.index(repeated)])
    spoiled[0] = spoiled[1]
    pairs, lists = grid + [repeated, outside], roots + [spoiled, find_roots(outside).roots]
    many = verify_strip_many(pairs, lists)
    assert many[:len(grid)] == alone
    assert many[-2] == verify_strip(repeated)
    assert many[-2].left_ok.certifier == many[-2].right_ok.certifier == "routh"
    assert isinstance(many[-1], ConjectureDomain)

    # a failed value-bound call ends the pairs in it, all d = 4 pairs of row
    # count 4, and no other pair
    real, failed = hsroots.stability._value_bounds, []

    def flaky(d, runs, z):
        if any(n == 9 for n, _ in runs):
            failed.append([n for n, _ in runs])
            raise RuntimeError("bounds exploded")
        return real(d, runs, z)

    monkeypatch.setattr(hsroots.stability, "_value_bounds", flaky)
    many = verify_strip_many(grid, roots)
    assert failed == [list(range(24, 7, -1))]  # one call, whole pairs, n descending
    for params, verdict, expected in zip(grid, many, alone):
        if params.d == 4:
            assert isinstance(verdict, RuntimeError), params
        else:
            assert verdict == expected, params


def test_verify_half_plane_threshold_instances():
    assert verify_half_plane(HypersimplexParams(4, 45), 1, "left_of").status == "Stable"
    assert verify_half_plane(HypersimplexParams(4, 24), -6, "right_of").status == "Stable"
    assert verify_half_plane(HypersimplexParams(1, 3), 0, "right_of").status == "Unstable"


def test_verify_half_plane_side_validation():
    with pytest.raises(ValueError):
        verify_half_plane(HypersimplexParams(2, 5), 0, "above")


# The float-first disks: `stability._float_radii` turns two float bounds,
# `roots._value_bounds` on |p(z_i)| and `roots._distance_product_lower` on
# prod |z_i - z_j|**2, into an integer radius bound per disk, and `_disks`
# decides each disk side on it before it builds the exact radius.


def dyadic_horner(coeffs, x: int, y: int, bits: int):
    """p(z) 2**(BN) for z = (x + iy) / 2**B, B = bits, N = degree, by
    Gaussian-integer Horner on integer coefficients."""
    degree = len(coeffs) - 1
    pr, pi = coeffs[-1], 0
    for k in range(degree - 1, -1, -1):
        c = coeffs[k] << (bits * (degree - k))
        pr, pi = pr * x - pi * y + c, pr * y + pi * x
    return pr, pi


def exact_scaled_value_sq(int_coeffs, z: complex) -> Fraction:
    """|(n-1)! p(z)|**2 exactly, at z taken as the double it is."""
    [(x, y)], bits = _dyadic([z])
    pr, pi = dyadic_horner(int_coeffs, x, y, bits)
    return Fraction(pr * pr + pi * pi, 1 << (2 * bits * (len(int_coeffs) - 1)))


def exact_radius_sq(poly, points, i) -> Fraction:
    """(N |W_i|)**2 exactly, W_i = p(z_i) / (a_N prod_{j != i} (z_i - z_j))."""
    nodes, bits = _dyadic(points)
    coeffs = _integer_coefficients(poly)
    degree = len(coeffs) - 1
    x, y = nodes[i]
    pr, pi = dyadic_horner(coeffs, x, y, bits)
    qr, qi = 1, 0
    for j, (u, v) in enumerate(nodes):
        if j != i:
            a, b = x - u, y - v
            qr, qi = qr * a - qi * b, qr * b + qi * a
    # P = p(z_i) 2**(BN), Q = prod 2**(B(N-1)): N |W_i| = N |P| / (|a_N| |Q| 2**B)
    numerator = degree * degree * (pr * pr + pi * pi)
    return Fraction(numerator, coeffs[-1] ** 2 * (qr * qr + qi * qi) << (2 * bits))


def scaled_coefficients(d, n):
    """The integer coefficients of (n-1)! p."""
    fact = math.factorial(n - 1)
    return [int(c * fact) for c in ehrhart_polynomial(HypersimplexParams(d, n)).coeffs]


def assert_value_bounds_hold(d, n, points):
    coeffs = scaled_coefficients(d, n)
    bound, exponent = _value_bounds(d, n, np.array(points, dtype=complex))
    for z, b, e in zip(points, bound, exponent):
        if not math.isfinite(b):
            continue
        assert (Fraction(b) * Fraction(2) ** int(e)) ** 2 >= exact_scaled_value_sq(coeffs, z), (
            d,
            n,
            z,
        )


def random_points(rng, d, n, count):
    """Points around the root strip, from the real axis to far above it, at
    magnitudes from 1e-3 to beyond the roots."""
    out = []
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-3, math.log10(2 * n / d))
        out.append(complex(rng.uniform(-1.2, 0.2) * n / d, rng.choice([0, 1, -1]) * rng.random() * scale))
    return out


@pytest.mark.parametrize(
    "d,n", [(1, 5), (2, 9), (3, 20), (4, 41), (7, 63), (10, 40), (22, 44), (9, 100)]
)
def test_value_bounds_hold_at_random_points(d, n):
    rng = random.Random(1000 * d + n)
    assert_value_bounds_hold(d, n, random_points(rng, d, n, 400))


@pytest.mark.parametrize("d,n", [(3, 20), (5, 31), (7, 40), (12, 30)])
def test_value_bounds_hold_on_and_beside_factor_zeros(d, n):
    # z = (s - k) / (d - s) zeroes one factor of term s; the nearest double
    # and its neighbours leave that factor as rounding error only, and a
    # subnormal imaginary part adds underflow
    rows = min(d, n - d)
    zeros = sorted({(s - k) / (d - s) for s in range(rows) for k in range(1, n)})
    points = [
        complex(re, 0.0)
        for zeta in zeros
        for re in (np.nextafter(zeta, -math.inf), zeta, np.nextafter(zeta, math.inf))
    ]
    points += [complex(zeta, 2.0**-30) for zeta in zeros]
    points += [complex(zeta, 1e-310) for zeta in zeros[::7]]
    assert_value_bounds_hold(d, n, points)


def float_radii(params, centres, points=None):
    """`_float_radii` on the value bounds of one `_value_bounds` call at the
    disk centres, the first points (all of them when points is None)."""
    points = centres if points is None else points
    values = _value_bounds(params.d, params.n, np.array(centres))
    return _float_radii(scaled_coefficients(params.d, params.n)[-1], points, values)


def assert_float_pass_sound(params, roots):
    """Every float radius bound of `float_radii` is at least the exact
    radius of its disk, and `_disks` gives the same verdict with the float
    bounds as with the exact test alone."""
    poly = ehrhart_polynomial(params)
    bound = Fraction(params.n, params.d)
    first = float_radii(params, roots)
    for i, entry in enumerate(first):
        if entry is None or entry[3] == 0:
            continue
        _, x_den, radius_sq, scale = entry
        assert Fraction(radius_sq, scale * x_den * x_den) >= exact_radius_sq(poly, roots, i), i
    coeffs = scaled_coefficients(params.d, params.n)
    exact_only = _disks(coeffs, roots, -bound, Fraction(0), [None] * len(roots))
    assert _disks(coeffs, roots, -bound, Fraction(0), first) == exact_only


def test_value_and_radius_bounds_hold_at_noise_limited_roots():
    params = HypersimplexParams(30, 60)
    roots = list(find_roots(params).roots)
    assert_value_bounds_hold(30, 60, roots)
    assert_float_pass_sound(params, roots)


def perturbed_roots(d, n, noise):
    rng = random.Random(d * n)
    return [
        z * complex(1 + rng.uniform(-noise, noise), rng.uniform(-noise, noise))
        for z in find_roots(HypersimplexParams(d, n)).roots
    ]


PERTURBED = [(4, 12, 1e-3), (6, 40, 1e-9), (9, 100, 0.0), (16, 32, 1e-12)]


def float_radius_sq(params, poly, points):
    """N**2 V_i**2 / (E**2 D_i) in Fractions, E = (n-1)! a_N: the squared
    radius bound the two float bounds give.  Every V_i must be finite and
    every D_i positive."""
    z = np.array(points)
    value, value_e = _value_bounds(params.d, params.n, z)
    dist, dist_e = _distance_product_lower(z)
    assert np.isfinite(value).all() and (dist > 0).all()
    lead = poly.leading_coefficient * math.factorial(params.n - 1)
    return [
        (len(points) * Fraction(v)) ** 2 * Fraction(2) ** (2 * int(v_e) - int(m_e)) / (lead**2 * Fraction(m))
        for v, v_e, m, m_e in zip(value, value_e, dist, dist_e)
    ]


@pytest.mark.parametrize("d,n,noise", PERTURBED)
def test_radius_bounds_hold_around_perturbed_roots(d, n, noise):
    params = HypersimplexParams(d, n)
    poly = ehrhart_polynomial(params)
    roots = perturbed_roots(d, n, noise)
    assert_float_pass_sound(params, roots)
    # every point gets both float bounds, and its entry is exactly the
    # radius bound they give, over the dyadic Re z_i
    first = float_radii(params, roots)
    for z, entry, radius_sq in zip(roots, first, float_radius_sq(params, poly, roots)):
        assert entry is not None and entry[3] > 0, z
        x, x_den, bound_sq, scale = entry
        assert Fraction(x, x_den) == Fraction(z.real), z
        assert Fraction(bound_sq, scale * x_den * x_den) == radius_sq, z


@pytest.mark.parametrize("d,n,noise", PERTURBED + [(30, 60, 0.0)])
def test_distance_product_lower_holds(d, n, noise):
    points = perturbed_roots(d, n, noise)
    mantissa, exponent = _distance_product_lower(np.array(points))
    nodes, bits = _dyadic(points)
    for i, ((x, y), m, e) in enumerate(zip(nodes, mantissa, exponent)):
        product = 1
        for j, (u, v) in enumerate(nodes):
            if j != i:
                product *= (x - u) ** 2 + (y - v) ** 2
        exact = Fraction(product, 1 << (2 * bits * (len(points) - 1)))
        assert 0 < Fraction(m) * Fraction(2) ** int(e) <= exact, i


def test_float_pass_leaves_both_sides_open_without_a_distance_bound():
    # 1e-160 apart, the squared distance 1e-320 is subnormal: D_i = 0
    params = HypersimplexParams(4, 12)
    points = [0j, 1e-160 + 0j] + list(find_roots(params).roots)[2:]
    first = float_radii(params, points)
    for entry in first[:2]:
        assert entry[3] == 0
        assert _inside(Fraction(-3), Fraction(0), *entry) == (False, False)


def test_disks_take_each_side_from_the_float_bound_or_the_exact_radius():
    # the disks of the touching-edge example, radius 7/12, as float entries
    # (x, x_den, radius_sq, scale): the first proves Re > -4 but reaches
    # exactly up to -2/3; a bound 10 times too loose proves nothing here
    poly = RationalPolynomial([3, 4, 1])
    points = [-1.25 + 0j, -2.75 + 0j]
    exact = [(-5, 4, 49 * 16, 144), (-11, 4, 49 * 16, 144)]
    loose = [(x, x_den, radius_sq * 100, scale) for x, x_den, radius_sq, scale in exact]
    for first in (exact, loose, [exact[0], None], [None, loose[1]], [None, None]):
        coeffs = _integer_coefficients(poly)
        assert _disks(coeffs, points, Fraction(-4), Fraction(-2, 3), first) == (True, False)
        assert _disks(coeffs, points, Fraction(-10, 3), Fraction(0), first) == (False, True)


def test_float_pass_skips_a_point_without_a_value_bound():
    # |p(1e200)| overflows the product form: V_0 is not finite, the entry is
    # None, the exact disk fails both sides and Routh certifies the strip
    params = HypersimplexParams(4, 12)
    points = [complex(1e200)] + list(find_roots(params).roots)[1:]
    assert float_radii(params, points)[0] is None
    verdict = verify_strip(params, points)
    assert verdict.overall is True
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "routh"


def float_proven(params, roots):
    """The disks whose float bound proves the left and the right side."""
    bound = Fraction(params.n, params.d)
    sides = [
        _inside(-bound, Fraction(0), *entry) if entry else (False, False)
        for entry in float_radii(params, roots)
    ]
    return [i for i, s in enumerate(sides) if s[0]], [i for i, s in enumerate(sides) if s[1]]


def test_float_disks_leave_some_to_the_exact_test():
    # the alternating sum cancels deeply on the diagonal: the float bounds
    # miss some disks there, and the exact test still proves both sides
    params = HypersimplexParams(30, 60)
    roots = find_roots(params).roots
    left, right = float_proven(params, roots)
    assert 0 < len(left) < len(roots) and 0 < len(right) < len(roots)
    verdict = verify_strip(params, roots)
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "inclusion"
    assert verdict.overall
    bound = Fraction(params.n, params.d)
    assert inclusion_strip(ehrhart_polynomial(params), roots, -bound, 0) == (True, True)


@pytest.mark.parametrize("d,n", [(4, n) for n in range(8, 25)] + [(9, 96)])
def test_float_proven_disks_are_exactly_proven(d, n):
    params = HypersimplexParams(d, n)
    roots = list(find_roots(params).roots)
    left, right = float_proven(params, roots)
    assert left and right
    assert_float_pass_sound(params, roots)


def test_strip_verdict_overall_is_derived_from_its_sides():
    params = HypersimplexParams(3, 7)
    verdict = verify_strip(params, find_roots(params).roots)
    assert verdict.overall is True
    assert verdict.left_ok.is_stable and verdict.right_ok.is_stable
    unstable = StabilityVerdict("Unstable")
    assert not StripVerdict(verdict.left_ok, unstable).overall
    assert not StripVerdict(unstable, verdict.right_ok).overall
    with pytest.raises(TypeError):
        StripVerdict(verdict.left_ok, verdict.right_ok, overall=False)


# The pinned roots: -1, ..., -k are exact roots of p inside the strip, so
# `_certify` puts them last and builds disks of radius M |W_i| around the
# M = N - k free points only, when every -m is among the given roots.


def value_bound_sizes(monkeypatch):
    """The sizes of the `_value_bounds` requests the certificates make."""
    sizes, real = [], hsroots.stability._value_bounds

    def counted(d, runs, z):
        sizes.append(z.size)
        return real(d, runs, z)

    monkeypatch.setattr(hsroots.stability, "_value_bounds", counted)
    return sizes


@pytest.mark.parametrize("d,n", [(4, 20), (5, 17), (9, 96), (10, 20)])
def test_certificate_skips_the_pinned_roots(d, n, monkeypatch):
    params = HypersimplexParams(d, n)
    pinned, _ = pinned_roots(params)
    rs = find_roots(params)
    exact = [complex(-m) for m in range(1, pinned + 1)]
    assert all(rs.roots.count(z) == 1 for z in exact)
    assert all(rs.residuals[rs.roots.index(z)] == 0.0 for z in exact)
    sizes = value_bound_sizes(monkeypatch)
    verdict = verify_strip(params, rs.roots)
    assert sizes == [n - 1 - pinned]
    assert verdict.overall
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "inclusion"
    # the M disks are those of the quotient q around the free points, built
    # independently from q's coefficients: each float radius bound is at
    # least the exact radius M |W_i| there, and the sides agree
    coeffs = scaled_coefficients(d, n)
    quotient = RationalPolynomial(pinned_roots(params)[1])
    free = [z for z in rs.roots if z not in exact]
    first = float_radii(params, free, free + exact)
    for i, (_, x_den, radius_sq, scale) in enumerate(first):
        assert Fraction(radius_sq, scale * x_den * x_den) >= exact_radius_sq(quotient, free, i), i
    bound = Fraction(n, d)
    sides = inclusion_strip(quotient, free, -bound, 0)
    assert sides == (True, True)
    assert _disks(coeffs, free + exact, -bound, Fraction(0), [None] * len(free)) == sides


@pytest.mark.parametrize("d,n,m", [(4, 20, 1), (4, 20, 4), (9, 96, 7)])
def test_a_pinned_root_off_by_one_ulp_falls_back_to_all_disks(d, n, m, monkeypatch):
    # -m moved by one ulp is no longer the exact root: all N points carry
    # disks, as before the pinning, and the verdict is the same
    params = HypersimplexParams(d, n)
    roots = list(find_roots(params).roots)
    pinned_verdict = verify_strip(params, roots)
    at = roots.index(complex(-m))
    for moved in (np.nextafter(-m, -math.inf), np.nextafter(-m, math.inf)):
        roots[at] = complex(moved)
        sizes = value_bound_sizes(monkeypatch)
        verdict = verify_strip(params, roots)
        assert sizes == [n - 1]
        assert verdict == pinned_verdict
        assert verdict.left_ok.certifier == verdict.right_ok.certifier == "inclusion"


def test_a_free_point_on_a_pinned_root_proves_no_side(monkeypatch):
    # a free point equal to -1 repeats a point: no disk is built, Routh
    # decides both sides; and as a disk centre next to the pinned -1 its
    # distance product and exact radius are 0, so neither bound proves a side
    params = HypersimplexParams(4, 20)
    coeffs = scaled_coefficients(4, 20)
    bound = Fraction(params.n, params.d)
    roots = list(find_roots(params).roots)
    exact = [complex(-m) for m in range(1, 5)]
    free = [z for z in roots if z not in exact]
    assert len(free) == 15
    spoiled = [complex(-1)] + free[1:] + exact
    sizes = value_bound_sizes(monkeypatch)
    verdict = verify_strip(params, spoiled)
    assert sizes == []
    assert verdict == verify_strip(params)
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "routh"
    first = float_radii(params, spoiled[:15], spoiled)
    assert first[0][3] == 0
    assert _disks(coeffs, spoiled, -bound, Fraction(0), [None] * 15) == (False, False)
    assert _disks(coeffs, spoiled, -bound, Fraction(0), first) == (False, False)


@pytest.mark.parametrize("d,n", [(1, 5), (1, 12)])
def test_every_root_pinned_needs_no_disk(d, n, monkeypatch):
    # at d = 1 the roots are exactly -1, ..., -(n-1), all inside the strip
    params = HypersimplexParams(d, n)
    sizes = value_bound_sizes(monkeypatch)
    verdict = verify_strip(params, find_roots(params).roots)
    assert sizes == []
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "inclusion"
    assert verdict.overall and verify_strip(params).overall


@pytest.mark.parametrize("d,n", [(4, 20), (9, 96)])
def test_distance_product_rows_of_the_free_points(d, n):
    # the first `count` rows, each over all N points, bit for bit as in the full call
    z = np.array(find_roots(HypersimplexParams(d, n)).roots)
    full = _distance_product_lower(z)
    for count in (0, 1, z.size // 2, z.size):
        part = _distance_product_lower(z, count)
        for a, b in zip(part, full):
            assert a.tobytes() == b[:count].tobytes()


# The internal code works on the integers of P = (n-1)! p that each build
# keeps; p's Fractions (`ehrhart._over_factorial`) are made only for the
# public functions on a RationalPolynomial.


def test_the_internal_path_builds_no_fraction_polynomial(monkeypatch):
    tall = HypersimplexParams(4, 24)
    pairs = [HypersimplexParams(9, 96)] + [HypersimplexParams(d, 2 * d) for d in range(4, 9)]

    def verdicts():
        report = run_campaign(CampaignConfig(d_min=4, d_max=5, certify=True))
        solved = find_roots_many(pairs)
        return (
            [replace(row, millis=0.0) for row in report.rows],
            report.errors,
            solved,
            verify_strip_many(pairs, [rs.roots for rs in solved]),
            verify_strip(tall),
            [verify_half_plane(tall, Fraction(-7, 3), side) for side in ("left_of", "right_of")],
        )

    expected = verdicts()

    def no_fractions(ints, n):
        raise AssertionError("a Fraction polynomial was built")

    hsroots.ehrhart._ehrhart_cached.cache_clear()
    monkeypatch.setattr(hsroots.ehrhart, "_over_factorial", no_fractions)
    got = verdicts()
    assert got == expected
    assert not got[1] and all(row.certified for row in got[0])
    assert got[4].left_ok.certifier == got[4].right_ok.certifier == "routh"


def test_integer_routh_path_matches_the_public_fraction_path():
    # verify_half_plane shifts and reflects the integers of (n-1)! p; the
    # public functions do the same on p's Fractions, and every status and
    # witness agree, Boundary included: d = 1 has the roots -1, ..., -(n-1)
    statuses = set()
    for n in range(2, 31):
        for d in range(1, min(7, n)):
            params = HypersimplexParams(d, n)
            poly = ehrhart_polynomial(params)
            edge = Fraction(-n, d)
            for c in (Fraction(0), edge, edge + Fraction(1, 7), Fraction(-1)):
                shifted = shift_polynomial(poly, c)
                public = {
                    "left_of": routh_hurwitz(shifted),
                    "right_of": routh_hurwitz(reflect_polynomial(shifted)),
                }
                for side, verdict in public.items():
                    assert verify_half_plane(params, c, side) == verdict, (d, n, c, side)
                    statuses.add(verdict.status)
    assert statuses == {"Stable", "Unstable", "Boundary"}
