"""Batch verification over (d, n) grids with CSV artifacts.

Each pair is processed independently, one after another: numeric roots
with residual certificates, plus the exact strip certificate when
requested.  The certificate starts from those roots: inclusion disks
around them, bounded in floating point with a rigorous error term and
tested in exact integers where that bound falls short, prove a side of the
strip, and only a side they cannot prove runs the Routh table
(`stability.verify_strip`).  Results are gathered, sorted by (d, n), and
written as `report.csv` and `roots.csv`; `hsroots plot` draws the roots as
SVG scatter plots.  File contents are deterministic for a given
configuration and seed, byte for byte from run to run: wall-clock timings
are reported on the console and kept out of the CSV (its millis column is
pinned to 0).
"""

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from .ehrhart import HypersimplexParams
from .errors import HsrootsError, InvalidParams
from .roots import RootSet, SolverConfig, find_roots
from .stability import verify_strip

PAPER_GRID = "paper_grid"
DIAGONAL = "diagonal"
RANGE = "range"

REPORT_HEADER = "d,n,degree,certified,re_min,re_max,im_max,max_residual,millis"
ROOTS_HEADER = "d,n,root_index,re,im,residual"


@dataclass(frozen=True)
class CampaignConfig:
    """Grid shape, solver settings, and output destination for a batch run."""

    d_min: int
    d_max: int
    n_rule: str = PAPER_GRID
    n_min: Optional[int] = None
    n_max: Optional[int] = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    certify: bool = True
    output_dir: Optional[Path] = None

    def __post_init__(self):
        if self.d_min < 1 or self.d_max < self.d_min:
            raise InvalidParams(f"need 1 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if self.n_rule not in (PAPER_GRID, DIAGONAL, RANGE):
            raise InvalidParams(f"unknown n_rule {self.n_rule!r}")
        if self.n_rule == RANGE and (self.n_min is None or self.n_max is None):
            raise InvalidParams("range rule needs n_min and n_max")
        if not self.pairs():
            span = f"d in {self.d_min}..{self.d_max}, n in {self.n_min}..{self.n_max}"
            raise InvalidParams(f"the grid has no pair with n > d ({span})")

    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        out = []
        for d in range(self.d_min, self.d_max + 1):
            if self.n_rule == PAPER_GRID:
                ns = range(2 * d, d * d + 2 * d + 1)
            elif self.n_rule == DIAGONAL:
                ns = (2 * d,)
            else:
                ns = range(self.n_min, self.n_max + 1)
            out.extend((d, n) for n in ns if n > d)
        return tuple(sorted(out))


@dataclass(frozen=True)
class CampaignRow:
    """Per-(d, n) outcome: exact verdict, numeric extrema, timing."""

    d: int
    n: int
    degree: int
    certified: bool
    re_min: float
    re_max: float
    im_max: float
    max_residual: float
    millis: float
    converged: bool


@dataclass(frozen=True)
class VerificationReport:
    rows: Tuple[CampaignRow, ...]
    errors: Tuple[str, ...]

    @property
    def certified_count(self) -> int:
        return sum(1 for r in self.rows if r.certified)

    @property
    def all_certified(self) -> bool:
        return not self.errors and all(r.certified for r in self.rows)

    @property
    def numeric_pass(self) -> bool:
        """Every instance converged with all roots strictly inside the strip."""
        return not self.errors and all(
            r.converged and r.re_min > -r.n / r.d and r.re_max < 0 for r in self.rows
        )


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def _solve_pair(d: int, n: int, solver: SolverConfig, certify: bool):
    start = time.perf_counter()
    params = HypersimplexParams(d, n)
    rootset = find_roots(params, solver)
    certified = False
    if certify:
        certified = verify_strip(params, rootset.roots).overall
    millis = (time.perf_counter() - start) * 1000.0
    row = CampaignRow(
        d=d,
        n=n,
        degree=n - 1,
        certified=certified,
        re_min=min(r.real for r in rootset.roots),
        re_max=max(r.real for r in rootset.roots),
        im_max=max(abs(r.imag) for r in rootset.roots),
        max_residual=rootset.max_residual,
        millis=millis,
        converged=rootset.converged,
    )
    return row, rootset


def run_campaign(config: CampaignConfig) -> VerificationReport:
    """Process every pair of the grid; write CSV artifacts if output_dir set.

    The output directory is made first, so a bad path fails before any work.
    Partial results are still flushed when instances error; the report
    carries the error descriptions and the console summary marks FAILURE.
    """
    out = None if config.output_dir is None else Path(config.output_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    results = {}
    errors = []
    for d, n in config.pairs():
        try:
            results[d, n] = _solve_pair(d, n, config.solver, config.certify)
        except (HsrootsError, ValueError) as exc:
            errors.append(f"d={d} n={n}: {exc}")
        except Exception:  # any other failure is reported; the other pairs still flush
            errors.append(f"d={d} n={n}: {traceback.format_exc().rstrip()}")

    rows = tuple(results[pair][0] for pair in sorted(results))
    report = VerificationReport(rows=rows, errors=tuple(errors))

    if out is not None:
        write_report_csv(out / "report.csv", report)
        write_roots_csv(out / "roots.csv", [(pair, results[pair][1]) for pair in sorted(results)])
    return report


def write_report_csv(path: Path, report: VerificationReport):
    lines = [REPORT_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    str(r.d),
                    str(r.n),
                    str(r.degree),
                    "true" if r.certified else "false",
                    _format_float(r.re_min),
                    _format_float(r.re_max),
                    _format_float(r.im_max),
                    _format_float(r.max_residual),
                    "0",  # pinned: timings vary from run to run; the CSV must not
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def roots_csv_lines(d: int, n: int, rootset: RootSet):
    for index, (root, res) in enumerate(zip(rootset.roots, rootset.residuals)):
        yield ",".join(
            [
                str(d),
                str(n),
                str(index),
                _format_float(root.real),
                _format_float(root.imag),
                _format_float(res),
            ]
        )


def write_roots_csv(path: Path, solved):
    lines = [ROOTS_HEADER]
    for (d, n), rootset in solved:
        lines.extend(roots_csv_lines(d, n, rootset))
    Path(path).write_text("\n".join(lines) + "\n")
