"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall time.  Criterion 3 has two tiers; the full tier (d up to 10, about
six minutes of exact table work) runs when HSR_FULL=1 is set, together with
a numeric sweep of the diagonal n = 2d for d = 4..75 (about three minutes).
"""

import cmath
import math
import os
import time
from contextlib import nullcontext
from fractions import Fraction

import pytest

from hsroots.bounds import (
    ContourSpec,
    aida_bound,
    check_d4_sum_bound,
    check_h_negative,
    check_hidari,
    check_migi,
    h_endpoint_chain_bound,
    h_value,
    ratio_bound,
)
from hsroots.cli import main
from hsroots.ehrhart import HypersimplexParams, ehrhart_polynomial, evaluate_exact
from hsroots.lattice import CountQuery, count_points
from hsroots.polynomial import RationalPolynomial
from hsroots.roots import SolverConfig, find_roots
from hsroots.stability import verify_half_plane, verify_strip


class Stopwatch:
    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            verdict = "PASS" if elapsed < self.budget else "PASS (over budget!)"
            print(f"ACCEPTANCE {self.label}: {verdict} in {elapsed:.1f}s (budget {self.budget:.0f}s)")
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s"
        else:
            print(f"ACCEPTANCE {self.label}: FAIL after {elapsed:.1f}s")
        return False


def test_criterion_1_oracle_equivalence():
    with Stopwatch("1 oracle equivalence", 10):
        for n in range(2, 10):
            for d in range(1, n):
                poly = ehrhart_polynomial(HypersimplexParams(d, n))
                for m in range(7):
                    formula = evaluate_exact(poly, m)
                    oracle = count_points(CountQuery(d, n, m))
                    assert formula == oracle, (d, n, m)


def test_criterion_2_delta_3_6_regression():
    with Stopwatch("2 Delta(3,6) regression", 1):
        poly = ehrhart_polynomial(HypersimplexParams(3, 6))
        u = RationalPolynomial([1, 1])
        u2 = u * u
        factored = Fraction(1, 20) * (u * (11 * u2 * u2 + 5 * u2 + 4))
        assert poly == factored

        disc = cmath.sqrt(complex(25 - 176, 0))  # sqrt(-151)
        expected = [complex(-1, 0)]
        for w in ((-5 + disc) / 22, (-5 - disc) / 22):
            expected.extend([-1 + cmath.sqrt(w), -1 - cmath.sqrt(w)])
        rootset = find_roots(HypersimplexParams(3, 6))
        assert rootset.converged
        for want in expected:
            assert min(abs(got - want) for got in rootset.roots) < 1e-9
        assert all(abs((a + 1) ** 2) < 1 for a in rootset.roots)


def test_criterion_3_strip_certification_smoke():
    with Stopwatch("3 strip certification (smoke, d<=7)", 180):
        for d in range(4, 8):
            for n in range(2 * d, d * d + 2 * d + 1):
                assert verify_strip(HypersimplexParams(d, n)).overall, (d, n)


@pytest.mark.skipif(
    os.environ.get("HSR_FULL") != "1",
    reason="full tier (4<=d<=10, ~6 min of exact tables); set HSR_FULL=1",
)
def test_criterion_3_strip_certification_full():
    with Stopwatch("3 strip certification (full, d<=10)", 2700):
        for d in range(4, 11):
            for n in range(2 * d, d * d + 2 * d + 1):
                assert verify_strip(HypersimplexParams(d, n)).overall, (d, n)


@pytest.mark.skipif(
    os.environ.get("HSR_FULL") != "1",
    reason="full tier (numeric diagonal n = 2d up to d = 75, ~3 min); set HSR_FULL=1",
)
def test_diagonal_numeric_full():
    # deepest cancellation of the alternating sum: every root still meets the
    # residual tolerance, and the largest instance stays within its budget
    config = SolverConfig()
    with Stopwatch("diagonal n = 2d, d = 4..75", 600):
        for d in range(4, 76):
            n = 2 * d
            with Stopwatch("diagonal d = 75", 15) if d == 75 else nullcontext():
                rootset = find_roots(HypersimplexParams(d, n), config)
            assert rootset.converged, d
            assert rootset.max_residual <= config.resolved_tolerance(n - 1), d
            assert all(-n / d < r.real < 0 for r in rootset.roots), d


def test_criterion_4_d3_theorem_instances():
    with Stopwatch("4 d=3 instances, n=6..40", 30):
        for n in range(6, 41):
            params = HypersimplexParams(3, n)
            assert verify_strip(params).overall, n
            rootset = find_roots(params)
            assert rootset.converged, n
            assert all(r <= 1e-8 for r in rootset.residuals), n
            for root in rootset.roots:
                assert -n / 3 + 1e-6 < root.real < -1e-6, (n, root)


def test_criterion_5_half_plane_instances():
    with Stopwatch("5 half-plane thresholds", 120):
        assert verify_half_plane(HypersimplexParams(4, 45), 1, "left_of").is_stable
        assert verify_half_plane(HypersimplexParams(5, 83), 1, "left_of").is_stable
        assert verify_half_plane(
            HypersimplexParams(4, 24), Fraction(-24, 4), "right_of"
        ).is_stable
        assert verify_half_plane(
            HypersimplexParams(5, 35), Fraction(-35, 5), "right_of"
        ).is_stable


def test_criterion_6_lemma_property_suite():
    with Stopwatch("6 lemma property suite", 20):
        for d in range(2, 6):
            for n in range(2 * d, 21):
                for s in range(1, d):
                    assert check_migi(n, d, s), ("migi", d, n, s)
                    if n >= d * d - 2:
                        assert check_hidari(n, d, s), ("hidari", d, n, s)
        lam = math.sqrt(2)
        assert aida_bound(7, 3, 1, lam) == pytest.approx(7 / 8, rel=1e-10)
        assert aida_bound(7, 3, 2, lam) == pytest.approx(7 / 72, rel=1e-10)
        for d in range(4, 21):
            assert check_d4_sum_bound(d), d
            assert check_h_negative(d), d
        assert ratio_bound(4) == Fraction(63, 64)
        assert h_value(4, 1) == pytest.approx(
            math.log(129140163) - math.log(134217728), rel=1e-12
        )
        assert h_endpoint_chain_bound(4) == Fraction(9, 10)
        for d in range(5, 21):
            assert h_endpoint_chain_bound(d) < Fraction(96, 125)


def test_criterion_7_rouche_contour_evidence():
    with Stopwatch("7 contour margins d=3, n=7..30", 30):
        for n in range(7, 31):
            for kind in ("imaginary_axis", "left_edge"):
                report = rouche_margin_edge(kind, n)
                assert report.max_ratio < 1 - 1e-6, (kind, n)
            for lam in (math.sqrt(2), -math.sqrt(2)):
                report = rouche_margin_edge("horizontal_edge", n, lam)
                assert report.max_ratio < 1 - 1e-6, ("horizontal", lam, n)
        top = rouche_margin_edge("imaginary_axis", 7, samples=2001)
        assert top.max_ratio <= 1792 / 2187 + 14 / 81 + 1e-9


def rouche_margin_edge(kind, n, lam=math.sqrt(2), samples=1001):
    from hsroots.bounds import rouche_margin

    return rouche_margin(ContourSpec(kind, 3, n, lam=lam, samples=samples))


def test_criterion_8_campaign_determinism(tmp_path):
    with Stopwatch("8 campaign determinism (threads 1 vs 4)", 600):
        args = [
            "campaign", "--d-min", "4", "--d-max", "7", "--grid", "paper",
            "--certify", "--seed", "0",
        ]
        assert main(args + ["--threads", "1", "--out", str(tmp_path / "t1")]) == 0
        assert main(args + ["--threads", "4", "--out", str(tmp_path / "t4")]) == 0
        for name in ("report.csv", "roots.csv"):
            a = (tmp_path / "t1" / name).read_bytes()
            b = (tmp_path / "t4" / name).read_bytes()
            assert a == b, f"{name} differs between thread counts"
