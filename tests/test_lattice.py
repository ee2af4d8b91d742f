import itertools

import numpy as np
import pytest

from hsroots.ehrhart import HypersimplexParams, ehrhart_polynomial
from hsroots.errors import InvalidParams
from hsroots.lattice import CountQuery, count_points, count_points_naive


def test_count_vertices():
    assert count_points(CountQuery(2, 4, 1)) == 6


def test_count_dilation_two():
    assert count_points(CountQuery(2, 4, 2)) == 19
    # independent in-test enumeration
    brute = sum(
        1 for x in itertools.product(range(3), repeat=4) if sum(x) == 4
    )
    assert brute == 19


def test_count_simplex_stars_and_bars():
    assert count_points(CountQuery(1, 3, 2)) == 6  # C(4, 2)


def test_count_zero_dilation_is_one():
    for d, n in [(1, 2), (2, 4), (3, 7)]:
        assert count_points(CountQuery(d, n, 0)) == 1


def test_dp_matches_naive_enumeration():
    for n in range(2, 6):
        for d in range(1, n):
            for m in range(4):
                for strict in (False, True):
                    q = CountQuery(d, n, m, strict=strict)
                    assert count_points(q) == count_points_naive(q)


def test_naive_guard():
    with pytest.raises(ValueError):
        count_points_naive(CountQuery(3, 30, 3))


def test_formula_agreement_small_grid():
    for n in range(2, 10):
        for d in range(1, n):
            poly = ehrhart_polynomial(HypersimplexParams(d, n))
            for m in range(7):
                assert poly.evaluate(m) == count_points(CountQuery(d, n, m))


def test_complement_count_symmetry():
    for n in range(2, 8):
        for d in range(1, n):
            for m in range(4):
                assert count_points(CountQuery(d, n, m)) == count_points(
                    CountQuery(n - d, n, m)
                )


def test_query_validation():
    with pytest.raises(InvalidParams):
        CountQuery(4, 4, 1)
    with pytest.raises(InvalidParams):
        CountQuery(1, 3, -1)
    # d, n and m follow the integer rule of HypersimplexParams
    for d, n, m in ((True, 3, 1), (2, 5.5, 2), (2.0, 5, 2), (2, 5, 1.0), (2, 5, False)):
        with pytest.raises(InvalidParams, match="must be an integer"):
            CountQuery(d, n, m)
    query = CountQuery(np.int64(2), np.int64(5), np.int32(2))
    assert type(query.d) is int and type(query.m) is int
    assert count_points(query) == count_points(CountQuery(2, 5, 2))


def test_strict_zero_and_one_dilations_empty():
    assert count_points(CountQuery(2, 4, 0, strict=True)) == 0
    assert count_points(CountQuery(2, 4, 1, strict=True)) == 0
