"""Lattice point counting for dilated hypersimplices.

Counts integer vectors with coordinates in [0, m] (or [1, m-1] in strict
mode) summing to d*m.  Deliberately independent of the closed-form
polynomial: a dynamic program over coordinates with the partial sum as
state, plus a guarded naive enumerator that cross-checks the DP.
"""

import itertools
from dataclasses import dataclass

from .ehrhart import HypersimplexParams, _integer
from .errors import InvalidParams

NAIVE_ENUMERATION_LIMIT = 10**7


@dataclass(frozen=True)
class CountQuery:
    """A single counting request: dilation m of the (d, n) hypersimplex."""

    d: int
    n: int
    m: int
    strict: bool = False

    def __post_init__(self):
        params = HypersimplexParams(self.d, self.n)
        object.__setattr__(self, "d", params.d)
        object.__setattr__(self, "n", params.n)
        object.__setattr__(self, "m", _integer("m", self.m))
        if self.m < 0:
            raise InvalidParams(f"dilation must be nonnegative, got m={self.m}")


def _bounded_sum_count(n: int, lo: int, hi: int, target: int) -> int:
    """Number of integer vectors of length n with lo <= x_i <= hi, sum = target."""
    if hi < lo:
        return 0
    # shift to [0, width] so the DP state is a plain list index
    width = hi - lo
    target -= n * lo
    if target < 0 or target > n * width:
        return 0
    ways = [0] * (target + 1)
    ways[0] = 1
    for _ in range(n):
        new = [0] * (target + 1)
        running = 0
        for t in range(target + 1):
            running += ways[t]
            if t > width:
                running -= ways[t - width - 1]
            new[t] = running
        ways = new
    return ways[target]


def count_points(query: CountQuery) -> int:
    """Exact number of lattice points of the m-th dilation (interior if strict)."""
    d, n, m = query.d, query.n, query.m
    if query.strict:
        # substitute y_i = x_i - 1: bounds [0, m-2], target d*m - n
        return _bounded_sum_count(n, 0, m - 2, d * m - n)
    return _bounded_sum_count(n, 0, m, d * m)


def count_points_naive(query: CountQuery) -> int:
    """Full enumeration over the coordinate box; the DP's independent check.

    Guarded: refuses boxes with more than NAIVE_ENUMERATION_LIMIT vectors.
    """
    d, n, m = query.d, query.n, query.m
    lo, hi = (1, m - 1) if query.strict else (0, m)
    if hi < lo:
        return 0
    if (hi - lo + 1) ** n > NAIVE_ENUMERATION_LIMIT:
        raise ValueError(
            f"naive enumeration of {(hi - lo + 1)}^{n} vectors exceeds the guard"
        )
    target = d * m
    return sum(1 for x in itertools.product(range(lo, hi + 1), repeat=n) if sum(x) == target)
