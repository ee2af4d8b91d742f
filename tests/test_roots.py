import cmath
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

import hsroots.roots
from hsroots.campaign import CampaignConfig
from hsroots.ehrhart import (
    HypersimplexParams,
    _ehrhart_cached,
    ehrhart_polynomial,
    pinned_roots,
)
from hsroots.errors import DomainViolation, InvalidParams, StructureViolation
from hsroots.polynomial import RationalPolynomial
from hsroots.roots import (
    _GOLDEN,
    RootSet,
    SolverConfig,
    _aligned_terms,
    _binomial_column,
    _eval_vec,
    _gaussian_horner,
    _half_degree_factor,
    _initial_points,
    _int_mantissa_exponent,
    _lockstep,
    _log2_int,
    _point,
    _to_fixed,
    _value_bounds,
    find_roots,
    find_roots_many,
    residual,
)
from hsroots.stability import _dyadic, _integer_coefficients, verify_strip


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


def _log2_fraction(value: Fraction) -> float:
    return _log2_int(abs(value.numerator)) - _log2_int(value.denominator)


def match_distance(got, expected):
    """Max over expected points of the distance to the closest returned root."""
    return max(min(abs(g - e) for g in got) for e in expected)


def eval_at(params, z):
    """`_eval_vec` at the one point `_point` makes of z: (S, Sp, E) with
    P(z) = S 2**E and P'(z) = Sp 2**E, P = (n-1)! p."""
    S, Sp, E, _ = _eval_vec(params.d, params.n, _point(params.d, params.n, z))
    return complex(S[0]), complex(Sp[0]), int(E[0])


def log_derivative(params, z):
    """p'(z)/p(z) from one `eval_at`; the shared exponent cancels."""
    S, Sp, _ = eval_at(params, z)
    return Sp / S


def test_evaluate_scaled_at_zero_is_one():
    S, _, E = eval_at(HypersimplexParams(3, 6), 0j)
    assert S * 2.0**E / math.factorial(5) == pytest.approx(1.0, rel=1e-14)


def test_evaluate_scaled_at_known_roots():
    for params, root in ((HypersimplexParams(3, 6), -1 + 0j), (HypersimplexParams(1, 4), -2 + 0j)):
        S, _, E = eval_at(params, root)
        assert abs(S * 2.0**E) / math.factorial(params.n - 1) < 1e-12


def test_evaluate_scaled_matches_exact_rational():
    # product-form evaluation vs exact rational recomputation, paper-campaign
    # shapes (d <= 10); relative 1e-12
    points = [Fraction(0), Fraction(1), Fraction(5), Fraction(1, 2), Fraction(7, 3)]
    for d, n in [(1, 7), (2, 11), (3, 17), (4, 24), (6, 18), (8, 33), (10, 40), (10, 20)]:
        params = HypersimplexParams(d, n)
        poly = ehrhart_polynomial(params)
        for z in points:
            exact = float(poly(z) * math.factorial(n - 1))
            S, _, E = eval_at(params, complex(z))
            assert (S * 2.0**E).real == pytest.approx(exact, rel=1e-12)


def test_evaluate_scaled_matches_exact_at_integers():
    for d, n in [(2, 9), (3, 21), (5, 35), (7, 40)]:
        params = HypersimplexParams(d, n)
        poly = ehrhart_polynomial(params)
        for m in range(6):
            exact = float(poly(m) * math.factorial(n - 1))
            S, _, E = eval_at(params, complex(m))
            assert (S * 2.0**E).real == pytest.approx(exact, rel=1e-12)


def test_evaluate_scaled_beyond_double_range():
    # p(1000) is about 2**1116 at (10, 150), beyond the double range, and
    # 2**773 at (4, 120); the exponent carries what a double would overflow
    for d, n in [(10, 150), (4, 120)]:
        params = HypersimplexParams(d, n)
        S, _, E = eval_at(params, 1000 + 0j)
        expected = _log2_fraction(ehrhart_polynomial(params)(1000) * math.factorial(n - 1))
        assert math.log2(abs(S)) + E == pytest.approx(expected, rel=1e-12)


def test_single_point_functions_raise_beyond_their_range():
    # the single-point functions hold for d |z| + n <= 2**51, as `bounds.phi`
    # does: at (7, 63) the product form keeps its exponent at z = 1e14, while
    # 1e18 is past the bound (7e18 > 2**51) though it would still evaluate,
    # and at 1e19 sixteen factors overflow between two rescales
    params = HypersimplexParams(7, 63)
    S, _, E = eval_at(params, 1e14)
    expected = _log2_fraction(ehrhart_polynomial(params)(10**14) * math.factorial(62))
    assert math.log2(abs(S)) + E == pytest.approx(expected, rel=1e-12)
    assert log_derivative(params, 1e14) == pytest.approx(62e-14, rel=1e-12)
    assert residual(params, 1e14) == pytest.approx(1.0, rel=1e-9)
    for z in (1e18, 1e18j, -1e18 + 3j, 1e19, complex(math.nan, 0), complex(0, math.inf)):
        for function in (eval_at, residual):
            with pytest.raises(DomainViolation, match=r"d\|z\| \+ n <= 2\*\*51"):
                function(params, z)
    # the edge itself: at (1, 3), z = -(2**51 - 3) is in and one more is out
    simplex = HypersimplexParams(1, 3)
    S, _, E = eval_at(simplex, -(2.0**51 - 3))
    edge = ehrhart_polynomial(simplex)(-(2**51 - 3)) * math.factorial(2)
    assert S * 2.0**E == pytest.approx(float(edge), rel=1e-15)
    with pytest.raises(DomainViolation):
        eval_at(simplex, -(2.0**51 - 2))


def test_log_derivative_simplex_values():
    # d=1, n=3: p = (m+1)(m+2)/2, so p'/p at 0 is 1 + 1/2
    assert log_derivative(HypersimplexParams(1, 3), 0j) == pytest.approx(1.5)
    # d=1, n=4 at 1: 1/2 + 1/3 + 1/4
    assert log_derivative(HypersimplexParams(1, 4), 1 + 0j) == pytest.approx(13 / 12)


def test_log_derivative_at_gaussian_point_matches_exact():
    params = HypersimplexParams(2, 4)
    poly = ehrhart_polynomial(params)
    deriv = RationalPolynomial([k * c for k, c in enumerate(poly.coeffs)][1:])
    p_re, p_im = gaussian_eval(poly, Fraction(0), Fraction(1))
    d_re, d_im = gaussian_eval(deriv, Fraction(0), Fraction(1))
    denom = p_re * p_re + p_im * p_im
    expected = complex(
        float((d_re * p_re + d_im * p_im) / denom),
        float((d_im * p_re - d_re * p_im) / denom),
    )
    assert log_derivative(params, 1j) == pytest.approx(expected, rel=1e-10)


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


def record_rounds(monkeypatch) -> list:
    """Patches the solver's evaluators, `_exact_ratios` and the end of each
    driver round (`_Sweeps.round`); returns the list that gets, round by
    round, the (name, rows, runs, points) of each call made in it.  The last
    entry is the empty round after the driver stops."""
    rounds = [[]]
    for name in ("_eval_vec", "_eval_values", "_exact_ratios"):
        real = getattr(hsroots.roots, name)

        def recorded(*args, name=name, real=real):
            rows, runs = (None, None) if name == "_exact_ratios" else args[:2]
            rounds[-1].append((name, rows, runs, args[-1].size))
            return real(*args)

        monkeypatch.setattr(hsroots.roots, name, recorded)
    real_round = hsroots.roots._Sweeps.round

    def closing(self):
        answers = real_round(self)
        rounds.append([])
        return answers

    monkeypatch.setattr(hsroots.roots._Sweeps, "round", closing)
    return rounds


def test_find_roots_takes_one_evaluator_call_per_step(monkeypatch):
    # calls are packed by whole pairs, so a pair's own points beyond
    # _BATCH_ENTRIES rows x points still take one call: one `_eval_vec` call
    # per round of double sweeps, on the roots still moving, and one
    # `_eval_values` call for the certificates with their snap candidates,
    # as when solved alone, and so does its sweep update; the start asks
    # for nothing
    monkeypatch.setattr(hsroots.roots, "_BATCH_ENTRIES", 8)
    rounds = record_rounds(monkeypatch)
    rs = find_roots(HypersimplexParams(4, 20))
    assert rs.extended_bits is None and rs.iterations > 1
    assert len(rounds) == rs.iterations + 3 and rounds[-2:] == [[], []]
    sweeps = [calls for calls in rounds[:rs.iterations]]
    assert all(len(calls) == 1 and calls[0][:2] == ("_eval_vec", 4) for calls in sweeps)
    sizes = [calls[0][3] for calls in sweeps]
    # first every free root: 19 - 4, as -1..-4 are pinned; then the ones still moving
    assert sizes[0] == 15 and sizes == sorted(sizes, reverse=True) and sizes[-1] < 15
    ((name, rows, runs, size),) = rounds[rs.iterations]
    assert (name, rows, runs) == ("_eval_values", 4, [(20, size)]) and size >= 15
    assert {complex(-m) for m in range(1, 5)} <= set(rs.roots)
    monkeypatch.undo()
    assert repr(find_roots(HypersimplexParams(4, 20))) == repr(rs)


def test_find_roots_many_makes_one_request_per_step(monkeypatch):
    # a pair off the diagonal is evaluated in iterations + 1 rounds, one
    # call a round: in the `_eval_vec` call of its row count in each round
    # of double sweeps, then in one `_eval_values` call for its
    # certificates with their snap candidates, also when it is refined in
    # exact arithmetic, as at (15, 31), whose exact sweeps take one round
    # each; at n = 2d the roots are Q's eigenvalues mapped back, so only
    # the certificates are evaluated, and at (1, 3) every root is pinned,
    # so nothing is
    grid = CampaignConfig(d_min=4, d_max=5).pairs() + ((15, 31), (1, 3), (2, 4))
    params = [HypersimplexParams(d, n) for d, n in grid]
    rounds = record_rounds(monkeypatch)
    solved = find_roots_many(params)
    assert solved[grid.index((15, 31))].extended_bits is not None
    for (d, n), rs in zip(grid, solved):
        assert rs.converged, (d, n)
        seen = [
            (r, name)
            for r, calls in enumerate(rounds)
            for name, rows, runs, _ in calls
            if rows == min(d, n - d) and any(m == n for m, _ in runs)
        ]
        if d == 1:
            expected = []
        elif n == 2 * d:
            expected = [(0, "_eval_values")]
        else:
            expected = [(r, "_eval_vec") for r in range(rs.iterations)]
            expected.append((rs.iterations + rs.extended_sweeps, "_eval_values"))
        assert seen == expected, (d, n)


@dataclass(frozen=True)
class Toy:
    """A toy step's result: what it saw, with the driver's `seconds`."""

    seen: tuple
    seconds: float = field(default=0.0, compare=False)


class Doubler:
    """A toy evaluator, the kind of the requests that name it: doubles its
    points, or raises on calls of row count `fail_rows`, and records each
    call's (rows, runs)."""

    def __init__(self, fail_rows=None):
        self.fail_rows, self.calls = fail_rows, []

    def __call__(self, rows, runs, z):
        self.calls.append((rows, runs))
        if rows == self.fail_rows:
            raise RuntimeError(f"toy call of row count {rows}")
        return (2 * z,)


def toy_step(kind, points, rounds=1):
    """Asks `kind` `rounds` times for its points and returns every answer seen."""
    seen = []
    for _ in range(rounds):
        (value,) = yield kind, np.array(points, dtype=complex)
        seen.append(tuple(value.tolist()))
    return Toy(tuple(seen))


def toy_driver(steps, pairs):
    """`_lockstep` over `steps`, one per (d, n) of `pairs`."""
    return _lockstep([HypersimplexParams(d, n) for d, n in pairs], steps)


def test_lockstep_ends_only_the_step_that_raises():
    def broken():
        raise ValueError("broken on its first send")
        yield  # a generator that never reaches its yield

    toy = Doubler()
    pairs = [(3, 7), (3, 7), (3, 7)]
    out = toy_driver([toy_step(toy, [1j], 2), broken(), toy_step(toy, [2.0], 2)], pairs)
    assert isinstance(out[1], ValueError)
    assert out[0] == Toy(((2j,), (2j,))) and out[2] == Toy(((4.0,), (4.0,)))
    assert toy.calls == [(3, [(7, 1), (7, 1)])] * 2


def test_lockstep_throws_a_failed_call_into_exactly_its_steps():
    # the exception is thrown at the yield, so a step may catch it; sent as
    # a value it would be unpacked as an answer and fail there instead
    def catching(points):
        try:
            yield toy, np.array(points, dtype=complex)
        except RuntimeError as exc:
            return Toy((str(exc),))
        return Toy(("answered",))

    toy = Doubler(fail_rows=3)
    pairs = [(3, 7), (2, 7), (3, 8), (2, 9)]
    steps = [catching([1.0]), catching([2.0]), toy_step(toy, [3.0]), toy_step(toy, [4.0])]
    out = toy_driver(steps, pairs)
    assert toy.calls == [(2, [(9, 1), (7, 1)]), (3, [(8, 1), (7, 1)])]
    assert out[0] == Toy(("toy call of row count 3",)) and out[1] == Toy(("answered",))
    assert isinstance(out[2], RuntimeError) and str(out[2]) == "toy call of row count 3"
    assert out[3] == Toy(((8.0,),))


def test_lockstep_returns_in_input_order_with_seconds():
    # the calls take the pairs by row count and n descending, the results
    # come back in input order, each with its own steps and call shares
    toy = Doubler()
    pairs = [(2, 5), (3, 9), (2, 8), (4, 9), (3, 7)]
    steps = [toy_step(toy, [complex(k, k)], rounds=k + 1) for k in range(len(pairs))]
    out = toy_driver(steps, pairs)
    for k, result in enumerate(out):
        assert result == Toy(((complex(2 * k, 2 * k),),) * (k + 1)), k
        assert result.seconds > 0, k
    assert toy.calls[:3] == [(2, [(8, 1), (5, 1)]), (3, [(9, 1), (7, 1)]), (4, [(9, 1)])]
    assert len(toy.calls) == 3 + 3 + 3 + 2 + 1  # the row counts still asking, round by round


def test_lockstep_packs_calls_by_kind_and_row_count():
    # requests of two kinds never share a call, not even at one row count;
    # the kinds go in the order of their first request, each by row count,
    # then n descending
    first, second, order = Doubler(), Doubler(), []

    def named(name, toy):
        def evaluator(*args):
            order.append(name)
            return toy(*args)
        return evaluator

    kinds = [named("first", first), named("second", second)]
    pairs = [(3, 7), (2, 7), (3, 8), (2, 9), (3, 9)]
    steps = [toy_step(kinds[kind], [float(k)], 2) for k, kind in enumerate([0, 1, 1, 0, 0])]
    out = toy_driver(steps, pairs)
    assert out == [Toy(((2.0 * k,),) * 2) for k in range(len(pairs))]
    assert first.calls == [(2, [(9, 1)]), (3, [(9, 1), (7, 1)])] * 2
    assert second.calls == [(2, [(7, 1)]), (3, [(8, 1)])] * 2
    assert order == ["first", "first", "second", "second"] * 2


def test_lockstep_makes_no_call_for_a_step_that_never_yields():
    def direct(value):
        return Toy((value,))
        yield

    toy = Doubler()
    out = toy_driver([direct(1), direct(2)], [(3, 7), (2, 7)])
    assert out == [Toy((1,)), Toy((2,))] and toy.calls == []
    out = toy_driver([direct(1), toy_step(toy, [5.0])], [(3, 7), (2, 7)])
    assert out == [Toy((1,)), Toy(((10.0,),))] and toy.calls == [(2, [(7, 1)])]


def test_lockstep_answers_a_none_request_with_none_and_no_call():
    # None asks for no evaluation: the step gets None back in the next round,
    # and a round in which every step says None makes no call at all
    def sometimes(points):
        first = yield None
        (value,) = yield toy, np.array(points, dtype=complex)
        last = yield None
        return Toy((first, tuple(value.tolist()), last))

    toy = Doubler()
    out = toy_driver([sometimes([1.0]), toy_step(toy, [2.0], 3)], [(3, 7), (2, 7)])
    assert out == [Toy((None, (2.0,), None)), Toy(((4.0,),) * 3)]
    assert toy.calls == [(2, [(7, 1)]), (2, [(7, 1)]), (3, [(7, 1)]), (2, [(7, 1)])]
    toy = Doubler()
    out = toy_driver([sometimes([1.0])], [(3, 7)])
    assert out == [Toy((None, (2.0,), None))] and toy.calls == [(3, [(7, 1)])]


def test_each_pair_books_its_share_of_the_sweep_update(monkeypatch):
    # the update's time goes to the pairs of its round, by their moving
    # points: with the update slowed by 5 ms a round, a pair alone books at
    # least 5 ms per double sweep, and a batch books each round's 5 ms
    # among its pairs
    real = hsroots.roots._Sweeps._sums

    def slow(*args):
        time.sleep(0.005)
        return real(*args)

    monkeypatch.setattr(hsroots.roots._Sweeps, "_sums", slow)
    alone = find_roots(HypersimplexParams(4, 20))
    assert alone.seconds >= 0.005 * alone.iterations > 0
    solved = find_roots_many([HypersimplexParams(4, n) for n in (9, 20, 24)])
    assert sum(rs.seconds for rs in solved) >= 0.005 * max(rs.iterations for rs in solved)


def test_degree_one():
    rs = find_roots(HypersimplexParams(1, 2))
    assert rs.converged
    assert rs.roots[0] == pytest.approx(-1.0, abs=1e-12)


def test_find_roots_deep_cancellation_falls_back():
    # next to the diagonal the alternating sum cancels past double precision;
    # the extended-precision retry must still deliver certified roots in-strip
    rs = find_roots(HypersimplexParams(15, 31))
    assert rs.converged
    assert len(rs.roots) == 30
    assert all(-31 / 15 < r.real < 0.0 for r in rs.roots)


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
    # an infinite tolerance would accept every correction and every residual
    for tolerance in (math.inf, math.nan, 0.0):
        with pytest.raises(InvalidParams, match="tolerance must be positive"):
            SolverConfig(tolerance=tolerance)


def test_solver_config_takes_integers_only():
    # 2.5 sweeps used to reach `range` as a bare TypeError, and True ran one sweep
    for name in ("max_iterations", "seed"):
        for value in (2.5, True, "3", None):
            with pytest.raises(InvalidParams, match=f"{name} must be an integer"):
                SolverConfig(**{name: value})
    config = SolverConfig(max_iterations=np.int64(50), seed=np.int32(3))
    assert type(config.max_iterations) is int and type(config.seed) is int
    assert config == SolverConfig(max_iterations=50, seed=3)


def test_solver_config_takes_real_tolerances_only():
    # True used to pass as tolerance 1, and "1e-9" to raise a bare TypeError
    for value in (True, False, "1e-9", 1e-9j, [1e-9]):
        with pytest.raises(InvalidParams, match="tolerance must be a real number"):
            SolverConfig(tolerance=value)
    for value in (np.float64(1e-9), np.float32(0.5), Fraction(1, 2**30), 1):
        config = SolverConfig(tolerance=value)
        assert type(config.tolerance) is float and config.tolerance == float(value)
        assert config.resolved_tolerance(10) == float(value)


def test_rootset_max_residual():
    rs = RootSet(roots=(1j,), residuals=(1e-12,), iterations=3, converged=True)
    assert rs.max_residual == 1e-12
    assert rs.extended_bits is None and rs.extended_sweeps == 0


def noise_scale(d, n):
    """The factor 4 (n + d) 2**-53 that `_eval_vec` puts on the summed term
    moduli A to make its noise floor, for d <= n / 2."""
    return 4 * (n + d) * 2.0**-53


def loop_eval(d, n, z):
    """The evaluator with one pass over the points per alternating-sum term:
    the same float operations as `_eval_vec`, in the same order, for
    d <= n / 2 and n >= 3.  Each step multiplies the pair of factors
    (y + j)(y + n - j) = w**2 - (n/2 - j)**2 with w = y + n/2 and
    y = (d-s)z - s; for even n the term starts at the middle factor w."""
    acc = acc_d = acc_e = None
    terms = []
    for s in range(d):
        slope = float(d - s)
        w = slope * z + (n / 2 - s)
        v, dv = w * w, 2 * slope * w
        if n % 2:
            prod = np.ones(z.shape[0], dtype=complex)
            prod_d = np.zeros(z.shape[0], dtype=complex)
        else:
            prod, prod_d = w, np.full(z.shape[0], slope, dtype=complex)
        exps = np.zeros(z.shape[0], dtype=np.int64)
        pairs = (n - 1) // 2
        for j in range(1, pairs + 1):
            factor = v - (n / 2 - j) ** 2
            prod_d = prod_d * factor + prod * dv
            prod = prod * factor
            if j % 8 == 0 or j == pairs:
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
    return acc, acc_d, acc_e, noise_scale(d, n) * magnitude


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


def paired_error_bounds(d, n, z):
    """Exact P = (n-1)! p and P' at the double z, and bounds on how far
    `_eval_vec`'s S 2**E and Sp 2**E may lie from them, for d <= n / 2.

    Row s is T = prod_j f_j, the pairs f_j = w**2 - m_j**2 of the linear
    factors, w = (d-s)z + n/2 - s, m_j = n/2 - j, times w for even n.  With
    u = 2**-53, every |.| below taken as the larger |Re| + |Im| and exact
    Fractions throughout:
    - w^ = fl(fl((d-s)z) + n/2 - s) is within dw = 2u((d-s)|z| + |w|);
    - v^ = fl(w^ w^) is within sqrt5 u |w^|**2 of w^**2 (Brent, Percival
      and Zimmermann 2007), so within ev = sqrt5 u (|w| + dw)**2
      + dw (2|w| + dw) of w**2; m_j**2 is exact, so the pair factor
      fl(v^ - m_j**2) is within e_j = (1 + u) ev + u |f_j| of f_j;
    - dv^ = fl(2(d-s) w^) is within edv = 2(d-s)(dw + sqrt5 u (|w| + dw))
      of dv = 2(d-s)w, the z-derivative of every pair.
    Let P_j = prod_{i<=j} |f_i| and Q_j = Q_{j-1}|f_j| + P_{j-1}|dv| bound
    the exact |T_j| and |T'_j|, from P_0 = 1, Q_0 = 0 (odd n) or
    P_0 = |w|, Q_0 = d - s (even n).  Each complex multiply is within
    sqrt5 u and each add within u of its exact result, so by induction
    |T^_j - T_j| <= B_j - P_j and |T'^_j - T'_j| <= D_j - Q_j, where
    B_j = B_{j-1}(|f_j| + e_j)(1 + sqrt5 u) and
    D_j = (D_{j-1}(|f_j| + e_j) + B_{j-1}(|dv| + edv))(1 + u)(1 + sqrt5 u),
    from B_0 = P_0 + (dw for even n) and D_0 = Q_0: the step
    T'^ fl(f^) + T^ dv^ is within D_{j-1}(|f| + e) - Q_{j-1}|f|
    + B_{j-1}(|dv| + edv) - P_{j-1}|dv| before its own roundings.  The
    rescales are exact powers of two.  The binomial mantissa is within
    2**-52 of C(n, s) and the signed multiply rounds within sqrt5 u, so a
    row is within (1 + 5u) C B - C P of C T; the d - 1 complex additions
    of the sum add 2 gamma_{d-1} (1 + 5u) sum C B (2 for |Re| + |Im|
    against the modulus), and a subnormal aligned row 2**-1074 times 2**E.
    """
    u = Fraction(1, 2**53)
    root5u = Fraction(9, 4) * u  # above sqrt5 u, and dyadic
    x, y = Fraction(z.real), Fraction(z.imag)
    size = abs(x) + abs(y)
    sums = [Fraction(0)] * 4  # the error bounds of S and Sp, and sum C B, sum C D
    for s in range(d):
        a, half = d - s, Fraction(n, 2) - s
        wr, wi = a * x + half, a * y
        w, v_re, v_im = abs(wr) + abs(wi), wr * wr - wi * wi, abs(2 * wr * wi)
        dw = 2 * u * (a * size + w)
        ev = root5u * (w + dw) ** 2 + dw * (2 * w + dw)
        dv, edv = 2 * a * w, 2 * a * (dw + root5u * (w + dw))
        if n % 2:
            P, Q, B, D = Fraction(1), Fraction(0), Fraction(1), Fraction(0)
        else:
            P, Q, B, D = w, Fraction(a), w + dw, Fraction(a)
        for j in range(1, (n - 1) // 2 + 1):
            f = abs(v_re - (Fraction(n, 2) - j) ** 2) + v_im
            e = (1 + u) * ev + u * f
            D = (D * (f + e) + B * (dv + edv)) * (1 + u) * (1 + root5u)
            Q = Q * f + P * dv
            B = B * (f + e) * (1 + root5u)
            P = P * f
        c = math.comb(n, s)
        for i, (big, exact) in enumerate(((B, P), (D, Q))):
            sums[i] += (1 + 5 * u) * c * big - c * exact
            sums[2 + i] += c * big
    gamma = (d - 1) * u / (1 - (d - 1) * u)
    coeffs = _ehrhart_cached(d, n).coeffs
    slopes = [k * c for k, c in enumerate(coeffs)][1:]
    exact = [gaussian_eval(RationalPolynomial(c), x, y) for c in (coeffs, slopes)]
    return [
        (value, sums[i] + 2 * gamma * (1 + 5 * u) * sums[2 + i])
        for i, value in enumerate(exact)
    ]


def pair_zero_points(d, n):
    """The zeros z = (s - j)/(d - s) of the linear factors of the rows s,
    each once, and the doubles just above them."""
    zeros = np.unique([(s - j) / (d - s) for s in range(d) for j in range(1, n)])
    return np.concatenate((zeros, np.nextafter(zeros, np.inf))).astype(complex)


@pytest.mark.parametrize(
    "d,n", [(1, 2), (1, 3), (2, 3), (5, 16), (8, 16), (4, 17), (3, 41)]
)
def test_eval_vec_within_the_paired_error_bound_of_exact_values(d, n):
    # S 2**E and Sp 2**E against exact P and P' on the dyadic points, within
    # the bound of `paired_error_bounds`: n = 2 has no pair, n = 3 one pair,
    # even n the middle factor w; beside a pair zero w**2 - m**2 cancels,
    # and far out the terms of n = 41 are rescaled
    z = mixed_points(d, n)
    if n < 20:
        z = np.concatenate((z, pair_zero_points(d, n)))
    S, Sp, E, _ = _eval_vec(d, n, z)
    shift = _aligned_terms(d, n, z, "derivative")[6]
    assert (shift >= -1074).all()  # no aligned row is clamped
    for i, point in enumerate(z):
        scale = Fraction(2) ** int(E[i])
        bounds = paired_error_bounds(d, n, point)
        for got, ((want_re, want_im), bound) in zip((S[i], Sp[i]), bounds):
            bound += d * Fraction(2) ** -1074 * scale  # subnormal aligned rows
            err_re = Fraction(got.real) * scale - want_re
            err_im = Fraction(got.imag) * scale - want_im
            assert err_re**2 + err_im**2 <= bound**2, (point, got)


@pytest.mark.parametrize(
    "d,n",
    [
        (1, 5),
        (7, 63),
        (22, 44),
        pytest.param(7, (63, 33, 30, 20, 17, 14), id="7-mixed"),
        pytest.param(3, (40, 9, 9, 6), id="3-mixed"),
        pytest.param(7, (41, 40, 40, 39, 17), id="7-pairs"),
    ],
)
def test_eval_vec_batch_equals_single(d, n):
    # with (n, count) runs, columns end at pairs on and off the 8-pair
    # rescale grid, each at its own (n - 1) // 2, while longer columns go
    # on; n = 40 and 39 share their 19 pairs, one starting at the middle
    # factor and one not, and n = 17 ends on the grid at pair 8; at 1e5 i
    # the terms of n = 63 stray past 2**200 before the column of n = 30
    # ends at pair 14, and must wait for pair 16 to be rescaled
    ns = n if isinstance(n, tuple) else (n,)
    far = [] if len(ns) == 1 else [1e5j]
    parts = [np.append(mixed_points(d, n), far) for n in ns]
    z = np.concatenate(parts)
    runs = [(pair_n, part.size) for pair_n, part in zip(ns, parts)]
    batch = _eval_vec(d, runs, z)
    point_n = [pair_n for pair_n, count in runs for _ in range(count)]
    singles = [_eval_vec(d, point_n[i], z[i:i + 1]) for i in range(z.size)]
    if max(ns) > 16:
        # points that need rescaling at different factors share the term
        # rows, so rows are rescaled with some of their entries left alone
        assert len({int(one[2][0]) for one in singles}) > 1
    for i, one in enumerate(singles):
        assert as_bytes(one) == as_bytes(tuple(a[i:i + 1] for a in batch))
    start = 0
    for pair_n, part in zip(ns, parts):
        own = tuple(a[start:start + part.size] for a in batch)
        assert as_bytes(_eval_vec(d, pair_n, part)) == as_bytes(own)
        start += part.size
    if len(ns) > 1:
        with pytest.raises(ValueError, match="non-increasing"):
            _eval_vec(d, runs[::-1], np.concatenate(parts[::-1]))
        with pytest.raises(ValueError, match="one row count"):
            _eval_vec(d, [(2 * d, 1), (2 * d - 1, 1)], z[:2])


@pytest.mark.parametrize(
    "d,ns",
    [
        pytest.param(7, (63, 33, 30, 20, 17, 14), id="7-mixed"),
        pytest.param(3, (40, 9, 9, 6), id="3-mixed"),
        pytest.param(22, (44,), id="22-44"),
    ],
)
def test_value_bounds_batch_equals_single(d, ns):
    # the error mode of the factor loop is batch-independent too: on (n, count)
    # runs each point's bound has the bits of its own call and of its pair's
    # call, with columns ending on and off the 16-factor rescale grid, the
    # far point 1e5 i in every run, and the safety factor of each point's n
    parts = [np.append(mixed_points(d, n), 1e5j) for n in ns]
    z = np.concatenate(parts)
    runs = [(n, part.size) for n, part in zip(ns, parts)]
    batch = _value_bounds(d, runs, z)
    point_n = [n for n, count in runs for _ in range(count)]
    for i in range(z.size):
        one = _value_bounds(d, point_n[i], z[i:i + 1])
        assert as_bytes(one) == as_bytes(tuple(a[i:i + 1] for a in batch)), i
    start = 0
    for n, part in zip(ns, parts):
        own = tuple(a[start:start + part.size] for a in batch)
        assert as_bytes(_value_bounds(d, n, part)) == as_bytes(own), n
        start += part.size
    if len(ns) > 1:
        with pytest.raises(ValueError, match="non-increasing"):
            _value_bounds(d, runs[::-1], np.concatenate(parts[::-1]))
    with pytest.raises(ValueError, match="one row count"):
        _value_bounds(d, [(2 * d, 1), (2 * d - 1, 1)], z[:2])


def test_eval_vec_runs_of_equal_n_share_a_call():
    # (3, 10) and (7, 10) both sum three rows at n = 10: two runs of one n
    # end together, and each pair's block is what it gets alone
    low, high = mixed_points(3, 10), mixed_points(7, 10)[:7]
    batch = _eval_vec(3, [(10, low.size), (10, high.size)], np.concatenate([low, high]))
    assert as_bytes(tuple(a[:low.size] for a in batch)) == as_bytes(_eval_vec(3, 10, low))
    assert as_bytes(tuple(a[low.size:] for a in batch)) == as_bytes(_eval_vec(7, 10, high))


@pytest.mark.parametrize("d,n", [(1, 5), (4, 17), (7, 63), (22, 44)])
def test_eval_vec_int_n_is_one_run(d, n):
    z = mixed_points(d, n)
    assert as_bytes(_eval_vec(d, n, z)) == as_bytes(_eval_vec(d, [(n, z.size)], z))
    with pytest.raises(ValueError, match="the runs count"):
        _eval_vec(d, [(n, z.size - 1)], z)


def test_binomial_columns_are_memoised():
    # each (n, rows) column is built once and read by every later call;
    # one lockstep pass over d = 4..5 reads one column per pair
    _binomial_column.cache_clear()
    for n, rows in [(8, 4), (63, 7), (300, 10), (1000, 10)]:
        mantissas, exponents = _binomial_column(n, rows)
        expected = [_int_mantissa_exponent(math.comb(n, s)) for s in range(rows)]
        assert list(zip(mantissas.tolist(), exponents.tolist())) == expected
        assert not mantissas.flags.writeable and not exponents.flags.writeable
    _binomial_column.cache_clear()
    grid = [HypersimplexParams(d, n) for d, n in CampaignConfig(d_min=4, d_max=5).pairs()]
    find_roots_many(grid)
    assert _binomial_column.cache_info().misses == len(grid)
    assert _binomial_column.cache_info().hits > 0


@pytest.mark.parametrize("d,n", [(3, 6), (7, 53), (10, 40)])
def test_residual_matches_find_roots_bitwise(d, n):
    params = HypersimplexParams(d, n)
    rs = find_roots(params)
    assert any(r.imag == 0 for r in rs.roots)  # includes roots snapped to the axis
    for root, res in zip(rs.roots, rs.residuals):
        assert residual(params, root) == res


def test_eval_vec_noise_magnitude():
    # the floor is 4 (n + d) 2**-53 A, where A sums the moduli of the terms
    # whose signed sum is S, so |S| <= A up to rounding, with equality when
    # there is a single term
    S, _, _, floor = _eval_vec(22, 44, mixed_points(22, 44))
    assert (np.abs(S) * noise_scale(22, 44) <= floor * (1 + 1e-12)).all()
    S, _, _, floor = _eval_vec(1, 5, np.array([2.0 + 1j]))
    assert floor[0] == noise_scale(1, 5) * abs(S[0])
    # exact sum of the term moduli at a real point
    d, n, z = 3, 6, 1
    exact = sum(
        math.comb(n, s) * abs(math.prod((d - s) * z + k - s for k in range(1, n)))
        for s in range(d)
    )
    _, _, E, floor = _eval_vec(d, n, np.array([complex(z)]))
    assert math.ldexp(floor[0], int(E[0])) == pytest.approx(noise_scale(d, n) * exact, rel=1e-14)


@pytest.mark.parametrize("d,n", [(16, 32), (22, 44)])
def test_gaussian_horner_exact_at_shift_zero(d, n):
    # with c_k 2**(B(N-k)) and shift 0 the kernel is p(z) 2**(BN) exactly,
    # for the exact disks of `stability`
    coeffs = _integer_coefficients(ehrhart_polynomial(HypersimplexParams(d, n)))
    degree = len(coeffs) - 1
    poly = RationalPolynomial(coeffs)
    points = list(find_roots(HypersimplexParams(d, n)).roots) + list(mixed_points(d, n))
    nodes, bits = _dyadic(points)
    scaled = [c << (bits * (degree - k)) for k, c in enumerate(coeffs)]
    scale = 2 ** (bits * degree)
    for z, (x, y) in zip(points, nodes):
        re, im = Fraction(x, 2**bits), Fraction(y, 2**bits)
        assert (re, im) == (Fraction(z.real), Fraction(z.imag))  # exact point
        want_re, want_im = gaussian_eval(poly, re, im)
        assert _gaussian_horner(scaled, x, y, 0) == (want_re * scale, want_im * scale)


@pytest.mark.parametrize("d,n", [(16, 32), (22, 44)])
def test_gaussian_horner_within_truncation_bound(d, n):
    # the fixed-point p and p' of `_exact_ratios`, against its stated bounds
    coeffs = _integer_coefficients(ehrhart_polynomial(HypersimplexParams(d, n)))
    degree = len(coeffs) - 1
    poly = RationalPolynomial(coeffs)
    deriv = RationalPolynomial([k * c for k, c in enumerate(coeffs)][1:])
    bits = 128
    unit = Fraction(1, 2**bits)
    values = [c << bits for c in coeffs]
    slopes = [(k * c) << bits for k, c in enumerate(coeffs)][1:]
    for z in mixed_points(d, n):
        x, y = _to_fixed(z.real, bits), _to_fixed(z.imag, bits)
        re, im = x * unit, y * unit
        assert (re, im) == (Fraction(z.real), Fraction(z.imag))  # exact point
        # the stated bounds, with |re| + |im| >= |z| in the geometric sums
        modulus = abs(re) + abs(im)
        for coefficients, oracle, steps in ((values, poly, degree), (slopes, deriv, degree - 1)):
            got_re, got_im = _gaussian_horner(coefficients, x, y, bits)
            bound = 2 * unit * sum(modulus**j for j in range(steps))
            want_re, want_im = gaussian_eval(oracle, re, im)
            err2 = (got_re * unit - want_re) ** 2 + (got_im * unit - want_im) ** 2
            assert err2 <= bound**2
            # the bound is far below the value, so the check has teeth
            assert bound**2 < (want_re**2 + want_im**2) * Fraction(1, 2**80)


def mirror_gap(roots) -> float:
    """The largest distance, relative to 1 + |z|, from the mirror -2 - conj(z)
    of a root z to the nearest root."""
    z = np.array(roots)
    gaps = np.abs((-2 - z.conj())[:, None] - z[None, :]).min(axis=1)
    return float((gaps / (1 + np.abs(z))).max())


def test_diagonal_roots_are_mirror_symmetric():
    # at n = 2d, p(-z) = -p(z - 2) (Delta(d, 2d) is Gorenstein), so the roots
    # come in quartets z, conj(z), -2 - z, -2 - conj(z); find_roots builds
    # them as -1 +- sqrt(w) from the roots w of Q (`_half_degree_factor`), so
    # the diagonal half checks that construction, not the solver's accuracy
    for d in range(2, 41):
        assert mirror_gap(find_roots(HypersimplexParams(d, 2 * d)).roots) <= 1e-9
    # off the diagonal the roots are not symmetric about Re = -1
    for d, n in ((4, 9), (7, 15)):
        assert mirror_gap(find_roots(HypersimplexParams(d, n)).roots) > 0.1


def assert_matches_mpmath(params, roots):
    """Every root within 1e-12 (1 + |z|) of a root from mp.polyroots on the
    exact coefficients of p, and back."""
    mp = pytest.importorskip("mpmath")
    poly = ehrhart_polynomial(params)
    with mp.workprec(256):
        cs = [mp.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
        reference = [complex(r) for r in mp.polyroots(cs, maxsteps=400, extraprec=256)]
    for ours, theirs in ((roots, reference), (reference, roots)):
        for root in ours:
            assert min(abs(root - other) for other in theirs) <= 1e-12 * (1 + abs(root))


def test_find_roots_refines_noise_limited_iterates():
    # at (16, 33) the double sweep hits the evaluation noise and the iterates
    # are refined with exact coefficients; compare with an independent solver
    params = HypersimplexParams(16, 33)
    rs = find_roots(params)
    assert rs.converged
    assert rs.extended_bits is not None and rs.extended_sweeps > 0
    assert rs.iterations < SolverConfig().max_iterations
    assert_matches_mpmath(params, rs.roots)


def test_each_exact_sweep_is_one_round_without_a_request(monkeypatch):
    # the refinement's ratios need no evaluation: each of its sweeps is one
    # driver round with no evaluator call, only the pair's `_exact_ratios`
    # on all its free roots, between the rounds of its double sweeps and
    # that of its certificates
    rounds = record_rounds(monkeypatch)
    rs = find_roots(HypersimplexParams(15, 31))
    assert rs.converged and rs.extended_sweeps > 0
    names = [[name for name, *_ in calls] for calls in rounds]
    # each double sweep, the exact sweeps, the certificates, the round in
    # which the solve returns, and the empty one after the driver stops;
    # the start asks for nothing
    expected = [["_eval_vec"]] * rs.iterations + [["_exact_ratios"]] * rs.extended_sweeps
    assert names == expected + [["_eval_values"], [], []]
    assert rounds[rs.iterations][0][3] == 30 - pinned_roots(HypersimplexParams(15, 31))[0]


def test_a_failed_exact_sweep_ends_only_its_own_pair(monkeypatch):
    # (15, 31) and (16, 33) are both refined in fixed point, and their exact
    # sweeps share the array step of one round; an exception in the second
    # exact ratios of the first ends that pair alone, the other's exact
    # ratios still run in that round, and every other RootSet is the one
    # find_roots returns on its own
    grid = [(15, 31), (16, 33), (4, 20), (5, 10), (1, 3)]
    params = [HypersimplexParams(d, n) for d, n in grid]
    alone = [find_roots(p) for p in params]
    assert alone[1].extended_bits is not None
    doomed = len(pinned_roots(params[0])[1])
    real, calls = hsroots.roots._exact_ratios, []

    def flaky(values, slopes, bits, points):
        calls.append(len(values) == doomed)
        if calls[-1] and calls.count(True) == 2:
            raise ArithmeticError("fixed point failed")
        return real(values, slopes, bits, points)

    monkeypatch.setattr(hsroots.roots, "_exact_ratios", flaky)
    solved = find_roots_many(params)
    assert isinstance(solved[0], ArithmeticError)
    assert solved[1:] == alone[1:]
    assert calls == [True, True, False] + [False] * (alone[1].extended_sweeps - 1)


MIXED_GRID = CampaignConfig(d_min=4, d_max=5).pairs() + (
    (15, 31), (16, 33), (9, 96), (2, 64), (1, 3), (2, 4)
)
CAPPED_GRID = ((4, 20), (5, 12), (15, 31), (2, 64), (2, 4), (1, 3))


@pytest.mark.parametrize("entries", [None, 256])
def test_find_roots_many_equals_find_roots_on_a_mixed_grid(entries, monkeypatch):
    # every pair gets the RootSet find_roots gives it alone, repr for repr:
    # the paper grid d = 4..5, (15, 31) and (16, 33) refined in fixed
    # point, the tall (9, 96), (2, 64) with its centre pinned, (1, 3) with
    # every root pinned and the diagonal (2, 4); and at max_iterations = 3,
    # where (4, 20) stops at the cap and is refined.  With `_BATCH_ENTRIES`
    # at 256 the sweep update's chunks hold a few small pairs each, padded
    # to the widest, and every larger pair alone, and each row count's sweep
    # points go to several calls
    configs = [(MIXED_GRID, SolverConfig()), (CAPPED_GRID, SolverConfig(max_iterations=3))]
    alone = [[find_roots(HypersimplexParams(d, n), config) for d, n in grid] for grid, config in configs]
    stopped = alone[1][CAPPED_GRID.index((4, 20))]
    assert stopped.iterations == 3 and stopped.extended_bits is not None
    if entries is not None:
        monkeypatch.setattr(hsroots.roots, "_BATCH_ENTRIES", entries)
    for (grid, config), expected in zip(configs, alone):
        solved = find_roots_many([HypersimplexParams(d, n) for d, n in grid], config)
        assert list(map(repr, solved)) == list(map(repr, expected))


def test_a_failed_sweep_call_ends_exactly_its_pairs(monkeypatch):
    # with `_BATCH_ENTRIES` at 128 each sweep round cuts the d = 4 pairs into
    # several `_eval_vec` calls; the one holding (4, 9) in the second round
    # fails, which ends exactly the pairs of that call, and every other
    # pair, of row count 4 too, gets the RootSet find_roots gives it alone
    grid = CampaignConfig(d_min=4, d_max=5).pairs()
    params = [HypersimplexParams(d, n) for d, n in grid]
    alone = [find_roots(p) for p in params]
    monkeypatch.setattr(hsroots.roots, "_BATCH_ENTRIES", 128)
    real, holding, failed = hsroots.roots._eval_vec, [], []

    def flaky(rows, runs, z):
        holding.append(rows == 4 and any(n == 9 for n, _ in runs))
        if holding[-1] and holding.count(True) == 2:
            failed.extend(n for n, _ in runs)
            raise RuntimeError("sweep call failed")
        return real(rows, runs, z)

    monkeypatch.setattr(hsroots.roots, "_eval_vec", flaky)
    solved = find_roots_many(params)
    assert 9 in failed and 1 < len(failed) < len([n for d, n in grid if d == 4 and n != 8])
    for (d, n), rs, own in zip(grid, solved, alone):
        if d == 4 and n in failed:
            assert isinstance(rs, RuntimeError) and str(rs) == "sweep call failed", n
        else:
            assert repr(rs) == repr(own), (d, n)


@pytest.mark.parametrize("d,n", [(30, 61), (25, 51)])
def test_refined_roots_prove_the_strip_by_inclusion(d, n):
    # the double iterates are noise-limited, yet they meet the residual
    # certificate; at (30, 61) they lie up to 3.5e-2 (1 + |z|) from the
    # refined roots, too far for the inclusion disks, so only the refined
    # roots prove both sides without the Routh table
    params = HypersimplexParams(d, n)
    rs = find_roots(params)
    assert rs.converged and rs.extended_bits is not None
    verdict = verify_strip(params, rs.roots)
    assert verdict.overall
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "inclusion"


@pytest.mark.parametrize("d", [8, 16, 24])
def test_diagonal_roots_come_from_the_half_degree_factor(d):
    # at n = 2d the roots are -1 and -1 +- sqrt(w) for the roots w of Q, found
    # in doubles with no exact refinement; mpmath solves p itself
    params = HypersimplexParams(d, 2 * d)
    rs = find_roots(params)
    assert rs.converged
    assert rs.extended_bits is None and rs.extended_sweeps == 0
    assert len(rs.roots) == 2 * d - 1 and -1 in rs.roots
    assert_matches_mpmath(params, rs.roots)


@pytest.mark.parametrize("d", [4, 16, 40])
def test_diagonal_roots_do_not_depend_on_the_seed(d):
    # at n = 2d the roots are the eigenvalues of Q's companion matrix mapped
    # back, with no start point and no sweep: every seed gives one RootSet,
    # whose conjugate pairs are exact
    params = HypersimplexParams(d, 2 * d)
    first = find_roots(params, SolverConfig(seed=0))
    assert first.converged and first.iterations == 0
    assert set(first.roots) == {z.conjugate() for z in first.roots}
    for seed in range(1, 4):
        assert find_roots(params, SolverConfig(seed=seed)) == first, (d, seed)


def test_half_degree_factor_of_the_smallest_diagonals():
    # d = 1: p(z) = z + 1 and Q is a constant; d = 2: Q is linear, with the
    # root w = -1/2, so the roots are -1 and -1 +- i / sqrt(2)
    assert len(_half_degree_factor(HypersimplexParams(1, 2))) == 1
    rs = find_roots(HypersimplexParams(1, 2))
    assert rs.roots == (-1,) and rs.converged and rs.iterations == 0
    factor = _half_degree_factor(HypersimplexParams(2, 4))
    assert len(factor) == 2 and Fraction(-factor[0], factor[1]) == Fraction(-1, 2)
    rs = find_roots(HypersimplexParams(2, 4))
    assert rs.converged
    expected = (complex(-1, -math.sqrt(0.5)), -1, complex(-1, math.sqrt(0.5)))
    assert rs.roots == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("d", [1, 2, 8, 15])
def test_half_degree_factor_rejects_a_pair_off_the_diagonal(d):
    # p(y - 1) has a nonzero even coefficient at n = 2d + 1: no factor Q exists
    # there, and the check that guards the n = 2d path says so
    with pytest.raises(StructureViolation, match="nonzero even coefficient"):
        _half_degree_factor(HypersimplexParams(d, 2 * d + 1))


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


def start_shape(params):
    """The centre c = -q_{M-1} / (M q_M) of the start and the exact second
    moment M2 = sum (z_i - c)^2 of the M free roots, read off the
    quotient q of `pinned_roots` itself: its power sum is
    s1^2 - 2 e2 with s1 = -q_{M-1} / q_M and e2 = q_{M-2} / q_M (Newton's
    identities)."""
    _, quotient = pinned_roots(params)
    degree = len(quotient) - 1
    s1 = Fraction(-quotient[-2], quotient[-1])
    e2 = Fraction(quotient[-3], quotient[-1]) if degree > 1 else 0
    return float(s1 / degree), s1 * s1 - 2 * e2 - s1 * s1 / degree


def free_roots(params, roots):
    """The roots other than the pinned -1, ..., -k."""
    pinned, _ = pinned_roots(params)
    exact = {complex(-m) for m in range(1, pinned + 1)}
    return [r for r in roots if r not in exact]


def ellipse_axes(points, centre):
    """Semi-axes (a, b) of points c + a cos(theta_k) + i b sin(theta_k) with
    N >= 3 equally spaced angles, where sum cos^2 = sum sin^2 = N / 2."""
    offsets = points - centre
    return tuple(math.sqrt(2 * np.mean(part**2)) for part in (offsets.real, offsets.imag))


def mean_radius(points, centre):
    """(a + b) / 2 of the start, the geometric mean distance of its points
    from the centre over a full turn; for N <= 2 the start is a circle."""
    if len(points) <= 2:
        return np.abs(points - centre)
    return sum(ellipse_axes(points, centre)) / 2


def geometric_mean_distance(roots, point):
    return math.exp(sum(math.log(abs(r - point)) for r in roots) / len(roots))


def second_moment(points):
    return sum((z - sum(points) / len(points)) ** 2 for z in points)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 8), (4, 11), (7, 30), (9, 96), (2, 64), (4, 144)])
def test_initial_points_on_aberth_circle(d, n):
    # Aberth's centre and radius for the quotient: the mean of the free roots
    # and (a + b) / 2 their geometric mean distance from it, both read off
    # the polynomial before any sweep, whether the start is stretched or
    # not; at (2, 64) and (4, 144) the centre is a pinned root, where p
    # vanishes but q does not, so the distances are still taken from c
    params = HypersimplexParams(d, n)
    z = _initial_points(params, 0)
    centre = start_shape(params)[0]
    assert z.size == n - 1 - pinned_roots(params)[0]
    assert abs(z.mean() - centre) <= 1e-12 * abs(centre)
    free = free_roots(params, find_roots(params).roots)
    assert len(free) == z.size
    mean = sum(free) / len(free)
    assert abs(centre - mean) <= 1e-12 * abs(mean)
    assert mean_radius(z, centre) == pytest.approx(
        geometric_mean_distance(free, centre), rel=1e-9
    )


@pytest.mark.parametrize("d,n", [(4, 11), (5, 17), (7, 30), (9, 96)])
def test_initial_points_match_the_second_moment(d, n):
    # stretched along the real axis until sum (z_k - c)^2 is the free roots' own
    params = HypersimplexParams(d, n)
    z = _initial_points(params, 0)
    centre, moment = start_shape(params)
    assert moment > 0
    assert second_moment(z.tolist()) == pytest.approx(float(moment), rel=1e-12)
    free = free_roots(params, find_roots(params).roots)
    assert second_moment(free) == pytest.approx(float(moment), rel=1e-9)
    a, b = ellipse_axes(z, centre)
    assert a > b > (a + b) / 8  # longer along the real axis, above the floor


@pytest.mark.parametrize("d,n", [(2, 4), (3, 6), (8, 16), (13, 26)])
def test_initial_points_when_the_centre_is_a_root(d, n):
    # at n = 2d the free roots are symmetric about -1, a pinned root: their
    # centroid is an exact root of p but not of q, so the radius is still
    # their geometric mean distance from c itself
    params = HypersimplexParams(d, n)
    z = _initial_points(params, 0)
    assert np.isfinite(z).all() and len(set(z.tolist())) == n - 2
    centre = start_shape(params)[0]
    assert centre == -1.0 and eval_at(params, centre)[0] == 0
    rs = find_roots(params)
    assert rs.converged
    assert mean_radius(z, centre) == pytest.approx(
        geometric_mean_distance(free_roots(params, rs.roots), centre), rel=1e-9
    )


@pytest.mark.parametrize(
    "d,n", [(2, 5), (3, 5), (2, 4), (8, 16), (3, 7), (4, 9), (8, 17), (22, 45), (11, 24)]
)
def test_initial_points_fall_back_to_the_circle(d, n):
    # at n = 2d and n = 2d + 1 (and n = 2d + 2 from d = 5) the free roots'
    # second moment is not positive, and at M <= 2 the ellipse would not
    # match it: the start is Aberth's circle
    params = HypersimplexParams(d, n)
    centre, moment = start_shape(params)
    z = _initial_points(params, 0)
    assert z.size <= 2 or moment <= 0
    assert np.abs(z - centre) == pytest.approx(np.full(z.size, abs(z[0] - centre)), rel=1e-12)


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (1, 7), (2, 3), (3, 4), (1, 20), (19, 20)])
def test_pairs_with_every_root_pinned_need_no_start(d, n, monkeypatch):
    # at d = 1 or n - d = 1 every root -1, ..., -(n-1) is pinned: the start
    # is empty, no sweep runs, and nothing is evaluated, not even for the
    # certificates, where each root's residual is exactly 0
    params = HypersimplexParams(d, n)
    assert pinned_roots(params)[0] == n - 1
    assert _initial_points(params, 0).size == 0
    sizes = []
    real = hsroots.roots._eval_vec

    def counted(*args):
        sizes.append(args[2].size)
        return real(*args)

    monkeypatch.setattr(hsroots.roots, "_eval_vec", counted)
    rs = find_roots(params)
    assert sizes == []
    assert rs.roots == tuple(complex(-m) for m in range(n - 1, 0, -1))
    assert rs.residuals == (0.0,) * (n - 1)
    assert rs.iterations == 0 and rs.converged and rs.extended_bits is None


def test_no_pinned_root_is_evaluated(monkeypatch):
    # the solver asks for p only at free points: no point of any evaluator
    # call is a pinned -m of its own pair, and every pinned root comes back
    # with residual exactly 0.0, also at (2, 64), whose centre c = -16 is
    # pinned, and on the diagonal (4, 8)
    grid = CampaignConfig(d_min=4, d_max=5).pairs() + ((2, 64), (4, 8), (9, 96))
    params = [HypersimplexParams(d, n) for d, n in grid]
    real = hsroots.roots._eval_vec
    calls = []

    def recorded(rows, runs, z):
        lo = 0
        for n, count in runs:
            pinned, _ = pinned_roots(HypersimplexParams(rows, n))
            calls.append(np.isin(z[lo:lo + count], -np.arange(1, pinned + 1)).any())
            lo += count
        return real(rows, runs, z)

    monkeypatch.setattr(hsroots.roots, "_eval_vec", recorded)
    solved = find_roots_many(params)
    assert calls and not any(calls)
    for p, rs in zip(params, solved):
        pinned, _ = pinned_roots(p)
        residuals = dict(zip(rs.roots, rs.residuals))
        assert all(residuals[complex(-m)] == 0.0 for m in range(1, pinned + 1)), (p.d, p.n)


@pytest.mark.parametrize("d,n", [(4, 20), (2, 64), (9, 96), (1, 20)])
def test_initial_points_evaluate_nothing(d, n, monkeypatch):
    # the start is read off the quotient's integers alone
    params = HypersimplexParams(d, n)

    def refuses(*args):
        raise AssertionError("the start evaluated p")

    monkeypatch.setattr(hsroots.roots, "_eval_vec", refuses)
    z = _initial_points(params, 0)
    assert z.size == n - 1 - pinned_roots(params)[0] and np.isfinite(z).all()


def test_seed_rotates_the_start_circle():
    # the seed turns theta_k by frac(0.618... (seed + 1)) of a turn and
    # leaves the centre and both axes alone
    params = HypersimplexParams(5, 17)
    centre = start_shape(params)[0]
    base = _initial_points(params, 0)
    a, b = ellipse_axes(base, centre)
    assert a > 1.5 * b

    def unit(points):
        return (points - centre).real / a + 1j * (points - centre).imag / b

    for seed in (1, 2, 7):
        z = _initial_points(params, seed)
        assert abs(z.mean() - centre) <= 1e-12 * abs(centre)
        assert ellipse_axes(z, centre) == pytest.approx((a, b), rel=1e-12)
        turn = math.modf(_GOLDEN * (seed + 1))[0] - math.modf(_GOLDEN)[0]
        rotation = unit(z) / unit(base)
        assert rotation == pytest.approx(np.full(z.size, cmath.exp(2j * math.pi * turn)), abs=1e-9)
        assert abs(rotation[0] - 1) > 0.1


def fraction_start(params, seed):
    """`_initial_points` with the centre and the second moment taken as
    `Fraction`s and then rounded, as the start was first written."""
    roots = hsroots.roots
    _, quotient = pinned_roots(params)
    degree = len(quotient) - 1
    s1 = Fraction(-quotient[-2], quotient[-1])
    centre = float(s1 / degree)
    bits = max(1, centre.as_integer_ratio()[1].bit_length() - 1)
    x = roots._to_fixed(centre, bits)
    scaled = [c << (bits * (degree - k)) for k, c in enumerate(quotient)]
    re, im = roots._gaussian_horner(scaled, x, 0, 0)
    if re == 0:
        re, im = roots._gaussian_horner(scaled, x, 1 << (bits - 1), 0)
    log_dist = (
        roots._log2_int(re * re + im * im) / 2 - bits * degree - roots._log2_int(abs(quotient[-1]))
    )
    rho = 2.0 ** (log_dist / degree)
    h = 0.0
    if degree >= 3:
        moment = s1 * s1 - 2 * Fraction(quotient[-3], quotient[-1]) - s1 * s1 / degree
        h = min(max(float(moment) / (2 * degree * rho), 0.0), 0.75 * rho)
    phase = 2.0 * math.pi * math.modf(_GOLDEN * (seed + 1))[0]
    unit = np.exp(1j * (2.0 * math.pi * (np.arange(degree) + 0.5) / degree + phase))
    return centre + (rho + h) * unit.real + 1j * ((rho - h) * unit.imag)


def test_initial_points_round_as_the_fraction_formula():
    # the centre and the second moment come from int true division, which
    # rounds the exact quotient once, as float() of the Fraction does: every
    # start point keeps its bits, for every pair with d = 2..11 and n <= 129
    # (each with a free root), at seeds 0..3 in turn
    compared = 0
    for d in range(2, 12):
        for n in range(d + 2, 130):
            params, seed = HypersimplexParams(d, n), n % 4
            start = _initial_points(params, seed)
            assert start.tobytes() == fraction_start(params, seed).tobytes(), (d, n, seed)
            compared += 1
    assert compared == 1215


def test_initial_points_keep_the_minor_axis_floor(monkeypatch):
    # the simplex roots -1..-19 lie on the real axis: the moment alone would
    # flatten the ellipse past b = 0, so b stops at rho / 4 and a at 7 rho / 4.
    # Every one of them is pinned, and no quotient of a pair reaches the
    # floor (h / rho is at most 0.685 for d = 2..10, n <= 300, and 0.720 at
    # (2, 2000)), so the quotient here is p itself: k = 0 hands the solver
    # all 19 roots to start and sweep, and its centre c = -10 is a root of
    # that q, so the radius is measured from c + i/2
    params = HypersimplexParams(1, 20)
    assert pinned_roots(params)[0] == 19
    fact = math.factorial(19)
    whole = tuple(int(c * fact) for c in ehrhart_polynomial(params).coeffs)
    monkeypatch.setattr(hsroots.roots, "pinned_roots", lambda _: (0, whole))
    centre = -10.0
    moment = sum((m - centre) ** 2 for m in range(-19, 0))
    rho = geometric_mean_distance(range(-19, 0), complex(centre, 0.5))
    assert moment / (2 * 19 * rho) > 0.75 * rho
    z = _initial_points(params, 0)
    assert z.mean() == pytest.approx(centre, rel=1e-12)
    assert ellipse_axes(z, centre) == pytest.approx((1.75 * rho, 0.25 * rho), rel=1e-9)
    rs = find_roots(params)
    assert rs.converged and rs.iterations > 0
    assert match_distance(rs.roots, list(range(-19, 0))) <= 1e-9


def test_sweep_counts_stay_under_their_ceilings():
    # the moment ellipse took the seed-0 double sweeps from 1736 to 1288 on
    # the paper grid d = 4..7 and from 124 to 61 at (9, 96..99); pinning the
    # roots -1..-k and sweeping only the quotient's took them to 1047 and 53.
    # The ceilings leave about 13% for platform rounding, and sweeping all
    # N roots (1279 and 61) fails both
    grid = CampaignConfig(d_min=4, d_max=7).pairs()
    tall = [(9, n) for n in range(96, 100)]
    for pairs, ceiling in ((grid, 1180), (tall, 60)):
        runs = [find_roots(HypersimplexParams(d, n)) for d, n in pairs]
        assert all(rs.converged for rs in runs)
        assert sum(rs.iterations for rs in runs) <= ceiling


@pytest.mark.parametrize("d,n,rows", [(10, 11, 1), (30, 40, 10), (19, 31, 12), (24, 39, 15)])
def test_find_roots_above_half_uses_the_complement(d, n, rows):
    # x -> 1 - x maps the hypersimplex (d, n) onto (n - d, n): one polynomial,
    # which the solver sums over the fewer terms, noise floor and float disk
    # bounds included; a floor taken with the raw d changes the roots at
    # (19, 31) at seed 3 and (24, 39) at seed 0
    params, fewer = HypersimplexParams(d, n), HypersimplexParams(rows, n)
    assert ehrhart_polynomial(params).coeffs == ehrhart_polynomial(fewer).coeffs
    for seed in (0, 3):
        config = SolverConfig(seed=seed)
        rs = find_roots(params, config)
        assert rs.converged
        assert repr(rs) == repr(find_roots(fewer, config))
        for root in rs.roots:
            assert residual(params, root) == residual(fewer, root)
        z = np.array(rs.roots)
        for points in (z, z + 1e-6j):
            assert as_bytes(_value_bounds(d, n, points)) == as_bytes(_value_bounds(rows, n, points))


def test_find_roots_degree_299_stays_in_doubles():
    # the centroid start lets all 299 roots settle in doubles, and the disks
    # around them prove both sides of the strip
    params = HypersimplexParams(10, 300)
    rs = find_roots(params)
    assert rs.converged
    assert rs.extended_bits is None and rs.extended_sweeps == 0
    verdict = verify_strip(params, rs.roots)
    assert verdict.overall
    assert verdict.left_ok.certifier == verdict.right_ok.certifier == "inclusion"
