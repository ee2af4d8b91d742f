"""The benchmark workloads and one measured pass of each.

A workload calls only the library's public entry points.  A pass runs the
whole workload once at one solver seed.  The untraced pass is what a user
runs; the traced pass makes the same calls one layer at a time inside spans
(see tracing.py), so each layer's time and counters can be read off.  The
program receives only the grid and its config; the default worker setting
is kept.
"""

import csv
import math
import signal
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from program import hsroots
from hsroots import (
    CampaignConfig,
    ContourSpec,
    HypersimplexParams,
    SolverConfig,
    check_hidari,
    check_migi,
    ehrhart_polynomial,
    find_roots,
    reflect_polynomial,
    rouche_margin,
    routh_hurwitz,
    run_campaign,
    shift_polynomial,
)
from hsroots.campaign import write_report_csv, write_roots_csv

import reference
from calibration import Stopwatch
from tracing import Tracer, span

# Consecutive passes of a run use solver seeds seed, seed + 4, seed + 8, ...
# The seed only rotates the Ehrlich-Aberth start points by the phase
# frac(0.618 (seed + 1)) of a turn.  A step of 4 moves that phase by 0.47 of
# a turn, so two passes start from nearly opposite rotations.  Sweep counts
# on paper_grid depend smoothly on the phase (their cost-weighted total
# varies by about +-18% over seeds 0..9), and such a pair averages most of
# that out.
SEED_STEP = 4


class TimeLimit(Exception):
    """The run's time limit passed while a pass was running."""


@dataclass
class Outcome:
    """One pass: wall time, per-instance latency, and the gate's verdicts."""

    solver_seed: int
    wall_s: float
    instances: tuple
    calibrated_s: Optional[float] = None
    latency_ms: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    residual_max: float = 0.0
    identical: Optional[bool] = None
    report: object = None
    verdicts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def _aborted(seed, instances, reason, wall_s=0.0) -> Outcome:
    return Outcome(seed, wall_s, instances, failures={key: reason for key in instances})


class _Alarm:
    def __init__(self):
        self.armed = False

    def __call__(self, signum, frame):
        if self.armed:
            self.armed = False
            raise TimeLimit("time limit reached")


def guarded(run, seed: int, instances: tuple, deadline: float) -> Outcome:
    """Run one pass, stopping it at the deadline (time.monotonic()).

    An exception that escapes the pass, the time limit included, fails every
    instance of the pass and is printed to stderr; the benchmark goes on.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return _aborted(seed, instances, "time limit reached before the pass started")
    alarm = _Alarm()
    previous = signal.signal(signal.SIGALRM, alarm)
    start = time.perf_counter()
    outcome = None
    try:
        try:
            alarm.armed = True
            signal.setitimer(signal.ITIMER_REAL, remaining)
            outcome = run()
        finally:
            alarm.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    except Exception as exc:
        if outcome is None:
            traceback.print_exc()
            outcome = _aborted(
                seed, instances, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
            )
    return outcome


def read_roots(path: Path) -> dict:
    """roots.csv as {"d,n": complex array in file order}."""
    grouped = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            key = f"{row['d']},{row['n']}"
            grouped.setdefault(key, []).append(complex(float(row["re"]), float(row["im"])))
    return {key: np.array(values) for key, values in grouped.items()}


def integer_bits(poly) -> int:
    """Largest bit size among the coefficients once denominators are cleared."""
    lcm = 1
    for c in poly.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return max(abs(int(c * lcm)).bit_length() for c in poly.coeffs)


def clear_program_caches():
    """Forget the memoised polynomials, so every pass builds them as a fresh
    process would.  A no-op once the library no longer has that cache."""
    cached = getattr(hsroots.ehrhart, "_ehrhart_cached", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


@dataclass(frozen=True)
class CampaignWorkload:
    """run_campaign over a (d, n) grid, writing report.csv and roots.csv."""

    name: str
    grid: dict
    certify: bool
    nominal_pass_s: float
    why: str

    def config(self, seed: int, output_dir: Optional[Path] = None) -> CampaignConfig:
        return CampaignConfig(
            **self.grid,
            certify=self.certify,
            solver=SolverConfig(seed=seed),
            output_dir=output_dir,
        )

    def instances(self) -> tuple:
        return tuple(f"{d},{n}" for d, n in self.config(0).pairs())

    def run_pass(self, seed: int, out_dir: Path, ref: dict) -> Outcome:
        config = self.config(seed, out_dir)
        with Stopwatch(calibrate=True) as watch:
            report = run_campaign(config)

        roots = read_roots(out_dir / "roots.csv")
        outcome = Outcome(
            seed, watch.wall_s, self.instances(), watch.calibrated_s, report=report
        )
        for row in report.rows:
            key = f"{row.d},{row.n}"
            outcome.latency_ms[key] = row.millis
            outcome.verdicts[key] = row.certified
            outcome.residual_max = max(outcome.residual_max, row.max_residual)
            reason = reference.check_roots(
                ref["pairs"].get(key),
                row.certified,
                row.converged,
                row.max_residual,
                config.solver.resolved_tolerance(row.degree),
                roots.get(key),
            )
            if reason:
                outcome.failures[key] = reason
        for key in outcome.instances:
            if key not in outcome.latency_ms:
                outcome.failures[key] = "no result: " + "; ".join(report.errors)
        outcome.identical = reference.csv_identical(ref, seed, out_dir)
        return outcome

    def run_traced_pass(
        self, seed: int, out_dir: Path, ref: dict, tracer: Tracer, plain: Outcome
    ) -> Outcome:
        """The campaign's calls made one by one, each in its span.

        `plain` is the untraced pass at the same seed: its report is written
        again here, and its verify_strip verdicts must equal the traced ones.
        """
        solver = SolverConfig(seed=seed)
        outcome = Outcome(seed, 0.0, self.instances())
        solved = []
        routh_inputs = []
        start = time.perf_counter()
        with tracer.span("campaign.run"):
            for index, key in enumerate(outcome.instances):
                d, n = map(int, key.split(","))
                began = time.perf_counter()
                try:
                    with tracer.span("campaign.instance", key):
                        params = HypersimplexParams(d, n)
                        with tracer.span("ehrhart.build"):
                            poly = ehrhart_polynomial(params)
                        with tracer.span("roots.find"):
                            rootset = find_roots(params, solver)
                        certified = False
                        if self.certify:
                            params.require_conjecture_domain()
                            with tracer.span("stability.routh_right"):
                                right = routh_hurwitz(poly)
                            with tracer.span("stability.shift"):
                                mirrored = reflect_polynomial(
                                    shift_polynomial(poly, -Fraction(n, d))
                                )
                            with tracer.span("stability.routh_left"):
                                left = routh_hurwitz(mirrored)
                            certified = left.is_stable and right.is_stable
                            routh_inputs.extend((poly, mirrored))
                except TimeLimit:
                    for rest in outcome.instances[index:]:
                        outcome.failures[rest] = "time limit reached"
                    break
                except Exception as exc:
                    outcome.failures[key] = f"{type(exc).__name__}: {exc}"
                    continue
                outcome.latency_ms[key] = (time.perf_counter() - began) * 1000.0
                outcome.verdicts[key] = certified
                solved.append(((d, n), rootset))
            with tracer.span("campaign.write"):
                write_report_csv(out_dir / "report.csv", plain.report)
                write_roots_csv(out_dir / "roots.csv", solved)
        outcome.wall_s = time.perf_counter() - start

        for (d, n), rootset in solved:
            key = f"{d},{n}"
            outcome.residual_max = max(outcome.residual_max, rootset.max_residual)
            reason = reference.check_roots(
                ref["pairs"].get(key),
                outcome.verdicts[key],
                rootset.converged,
                rootset.max_residual,
                solver.resolved_tolerance(n - 1),
                np.array(rootset.roots),
            )
            if reason is None and outcome.verdicts[key] != plain.verdicts.get(key):
                reason = "traced verdict differs from verify_strip"
            if reason:
                outcome.failures[key] = reason
        outcome.identical = reference.csv_identical(ref, seed, out_dir)

        sweeps = [rootset.iterations for _, rootset in solved] or [0]
        outcome.layers = {
            "roots.sweeps_mean": sum(sweeps) / len(sweeps),
            "roots.sweeps_max": max(sweeps),
            "roots.exhausted": sum(
                rootset.iterations >= solver.max_iterations for _, rootset in solved
            ),
            "stability.coeff_bits_max": max(map(integer_bits, routh_inputs), default=0),
        }
        return outcome

    def traced_run(self, seed: int, work: Path, ref: dict, tracer: Tracer, deadline: float):
        """An untraced and a traced pass at the same seed."""
        instances = self.instances()
        plain_dir, traced_dir = work / "plain", work / "traced"
        plain_dir.mkdir()
        traced_dir.mkdir()
        clear_program_caches()
        plain = guarded(lambda: self.run_pass(seed, plain_dir, ref), seed, instances, deadline)
        if plain.report is None:
            return plain, _aborted(seed, instances, "the untraced pass failed")
        clear_program_caches()
        traced = guarded(
            lambda: self.run_traced_pass(seed, traced_dir, ref, tracer, plain),
            seed,
            instances,
            deadline,
        )
        return plain, traced


# Edges of the comparison rectangle: the imaginary axis, the left edge
# Re = -n/d, and the top and bottom horizontal edges.
EDGES = (
    ("imaginary_axis", math.sqrt(2.0)),
    ("left_edge", math.sqrt(2.0)),
    ("horizontal_edge", math.sqrt(2.0)),
    ("horizontal_edge", -math.sqrt(2.0)),
)


@dataclass(frozen=True)
class BoundsWorkload:
    """Sampled contour checks of the bounds module, one (d, n) check set per instance."""

    name: str
    d_values: tuple
    n_max: int
    samples: int
    nominal_pass_s: float
    why: str

    def instances(self) -> tuple:
        return tuple(
            f"{d},{n}" for d in self.d_values for n in range(2 * d, self.n_max + 1)
        )

    def evaluate(self, d: int, n: int, tracer: Optional[Tracer] = None) -> dict:
        """rouche_margin on every edge, check_migi for each s, and check_hidari
        for each s where its hypothesis n >= d^2 - 2 holds."""
        edges = []
        for kind, lam in EDGES:
            with span(tracer, "bounds.rouche"):
                margin = rouche_margin(ContourSpec(kind, d, n, lam=lam, samples=self.samples))
            edges.append([margin.max_ratio, margin.passed, margin.nudged])
        migi, hidari = [], []
        for s in range(1, d):
            with span(tracer, "bounds.monotone"):
                migi.append(check_migi(n, d, s))
            if n >= d * d - 2:
                with span(tracer, "bounds.monotone"):
                    hidari.append(check_hidari(n, d, s))
        return {"edges": edges, "migi": migi, "hidari": hidari}

    def run_pass(
        self, seed: int, out_dir: Path, ref: dict, tracer: Optional[Tracer] = None
    ) -> Outcome:
        """Every instance in order; out_dir is unused, as bounds writes no files.
        The untraced pass is calibrated, the traced one is not."""
        outcome = Outcome(seed, 0.0, self.instances())
        results = {}
        with Stopwatch(calibrate=tracer is None) as watch, span(tracer, "bounds.run"):
            for index, key in enumerate(outcome.instances):
                d, n = map(int, key.split(","))
                began = time.perf_counter()
                try:
                    with span(tracer, "bounds.instance", key):
                        results[key] = self.evaluate(d, n, tracer)
                except TimeLimit:
                    for rest in outcome.instances[index:]:
                        outcome.failures[rest] = "time limit reached"
                    break
                except Exception as exc:
                    outcome.failures[key] = f"{type(exc).__name__}: {exc}"
                    continue
                outcome.latency_ms[key] = (time.perf_counter() - began) * 1000.0
        outcome.wall_s, outcome.calibrated_s = watch.wall_s, watch.calibrated_s

        for key, result in results.items():
            reason = reference.check_bounds(ref["instances"].get(key), result)
            if reason:
                outcome.failures[key] = reason
        outcome.layers = {
            "bounds.ratio_evals": sum(
                len(EDGES) * self.samples * (int(key.split(",")[0]) - 1) for key in results
            ),
            "bounds.nudged": sum(edge[2] for r in results.values() for edge in r["edges"]),
        }
        return outcome

    def traced_run(self, seed: int, work: Path, ref: dict, tracer: Tracer, deadline: float):
        instances = self.instances()
        plain = guarded(lambda: self.run_pass(seed, work, ref), seed, instances, deadline)
        traced = guarded(
            lambda: self.run_pass(seed, work, ref, tracer), seed, instances, deadline
        )
        return plain, traced


WORKLOADS = {
    w.name: w
    for w in (
        CampaignWorkload(
            "paper_grid",
            dict(d_min=4, d_max=7, n_rule="paper_grid"),
            certify=True,
            nominal_pass_s=10.0,
            why=(
                "The paper's headline verification and the workload of acceptance "
                "criterion 8: 130 small pairs of mixed cost, about 60% find_roots "
                "double sweeps and 30% Routh tables; p90 has 26 samples beyond it."
            ),
        ),
        CampaignWorkload(
            "diagonal",
            dict(d_min=4, d_max=22, n_rule="diagonal"),
            certify=False,
            nominal_pass_s=22.0,
            why=(
                "roots used another way: d <= 15 converge in doubles, d = 16..22 burn "
                "all 200 sweeps and restart in mp.polyroots; stability is never "
                "called, so a Routh change must show nothing here."
            ),
        ),
        CampaignWorkload(
            "tall_certify",
            dict(d_min=9, d_max=9, n_rule="range", n_min=96, n_max=99),
            certify=True,
            nominal_pass_s=20.0,
            why=(
                "Stands in for the HSR_FULL=1 tier: exact Routh tables with huge "
                "entries take about 85% of the time, find_roots about 13%, so a "
                "stability gain shows and a roots-only gain barely does."
            ),
        ),
        BoundsWorkload(
            "bounds_contour",
            d_values=(3, 4, 5),
            n_max=41,
            samples=1001,
            nominal_pass_s=21.0,
            why=(
                "The campaign never calls bounds, and _log2_term_modulus is the third "
                "copy of the product-form evaluator: a slowdown there must show. "
                "n runs to 41 so 102 instances leave ten beyond p90."
            ),
        ),
    )
}
