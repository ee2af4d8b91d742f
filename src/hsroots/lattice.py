"""Brute-force lattice point counting for dilated hypersimplices.

Counts integer vectors with coordinates in [0, m] (or [1, m-1] in strict
mode) summing to d*m.  Deliberately independent of the closed-form
polynomial: a dynamic program over coordinates with the partial sum as
state, plus a guarded naive enumerator that cross-checks the DP.
"""

import itertools
from dataclasses import dataclass

from .ehrhart import _integer
from .errors import DimensionMismatch, InvalidParams

NAIVE_ENUMERATION_LIMIT = 10**7


@dataclass(frozen=True)
class CountQuery:
    """A single counting request: dilation m of the (d, n) hypersimplex."""

    d: int
    n: int
    m: int
    strict: bool = False

    def __post_init__(self):
        for name in ("d", "n", "m"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 1 <= self.d < self.n:
            raise InvalidParams(f"need 1 <= d < n, got (d={self.d}, n={self.n})")
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


def in_sublattice(x, d: int) -> bool:
    """Membership in the sublattice spanned by the hypersimplex vertices.

    That lattice is exactly the integer vectors whose coordinate sum is
    divisible by d (differences of vertices give all e_i - e_j, and d*e_1
    is reachable, so the coordinate sum mod d is the only invariant).
    """
    x = list(x)
    if len(x) <= d:
        raise DimensionMismatch(f"vector length {len(x)} must exceed d={d}")
    return sum(x) % d == 0
