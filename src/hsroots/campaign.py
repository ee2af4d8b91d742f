"""Batch verification over (d, n) grids with CSV artifacts.

The pairs are solved together, in lockstep (`roots.find_roots_many`):
each round takes one sweep of every pair still sweeping in one array step,
evaluating p once for all pairs of one row count min(d, n - d) (under a
memory cap), and the residual certificates asked for in that round in one
value-only call per row count; every pair gets the roots and residual
certificates that `find_roots` gives it alone.  Then the pairs that solved
get the exact strip certificate together when requested
(`stability.verify_strip_many`), run by the solver's own driver
(`roots._lockstep`).  It starts from those
roots: inclusion disks around them, bounded in floating point with a
rigorous error term (one batched value-bound call per row count for the
whole grid) and tested in exact integers where that bound falls short,
prove a side of the strip, and only a side they cannot prove runs the
Routh table.  Each pair gets the verdict `verify_strip` gives it alone.

A large grid is split into W parts, one process each (`_parts`): W is the
number of usable CPUs, but at most one part per `_PART_WORK` units of
estimated work (`_work`, min(d, n - d) (n - 1)**2 a pair), and 1 where the
"fork" start method is missing.  The pairs go to the parts greedily,
largest work first, each to the part with the least work so far.  The
first part is solved in this process and each other in a forked child,
which sends back its rows, RootSets and error lines (formatted there:
tracebacks do not pickle).  As every pair gets the bits it gets alone, the
split changes no byte of the output.  At W = 1 nothing is forked and
`multiprocessing` is not imported.  A child that dies turns exactly its
part's pairs into error lines; if this process raises, its children are
killed and joined first.

Results are gathered in (d, n) order and written as `report.csv` and
`roots.csv`.  File contents are deterministic for a given configuration
and seed, byte for byte from run to run: wall-clock timings are reported
on the console and kept out of the CSV (its millis column is pinned to 0).
"""

import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from .ehrhart import HypersimplexParams, _integer
from .errors import HsrootsError, InvalidParams
from .roots import RootSet, SolverConfig, find_roots_many
from .stability import StripVerdict, verify_strip_many

PAPER_GRID = "paper_grid"
DIAGONAL = "diagonal"
RANGE = "range"

REPORT_HEADER = "d,n,degree,certified,re_min,re_max,im_max,max_residual,millis"
ROOTS_HEADER = "d,n,root_index,re,im,residual"

# The estimated work (`_work`) that fills one part: a grid gets at most one
# part per this much work, so a grid of less than twice it runs in one
# process.  A second process costs about 5 ms (fork, pipe, join), so the
# split pays from a size that depends on the grid's kind: on numeric
# diagonal grids d = 2..k it lost or tied up to 468k units and won in every
# alternating pair from 629k, on range grids d = 2..10 it won from about
# 184k.
_PART_WORK = 300_000


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
        given = [name for name in ("n_min", "n_max") if getattr(self, name) is not None]
        for name in ("d_min", "d_max", *given):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.d_min < 1 or self.d_max < self.d_min:
            raise InvalidParams(f"need 1 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if self.n_rule not in (PAPER_GRID, DIAGONAL, RANGE):
            raise InvalidParams(f"unknown n_rule {self.n_rule!r}")
        if self.n_rule == RANGE and (self.n_min is None or self.n_max is None):
            raise InvalidParams("range rule needs n_min and n_max")
        if self.n_rule != RANGE and given:
            raise InvalidParams(f"n_min/n_max apply to the range rule only, not {self.n_rule!r}")
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
    """Per-(d, n) outcome: exact verdict, numeric extrema, timing.

    `millis` is the pair's share of the wall time: its own solver and
    certificate steps, its share of each batched evaluation by the products
    it took there, and of each sweep update by its points still moving (see
    `roots._lockstep`).
    """

    d: int
    n: int
    certified: bool
    re_min: float
    re_max: float
    im_max: float
    max_residual: float
    millis: float
    converged: bool

    @property
    def degree(self) -> int:
        return self.n - 1


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


def _error_line(d: int, n: int, exc: Exception) -> str:
    if isinstance(exc, (HsrootsError, ValueError)):
        return f"d={d} n={n}: {exc}"
    # any other failure is reported with its traceback; the other pairs still flush
    return f"d={d} n={n}: " + "".join(traceback.format_exception(exc)).rstrip()


def _row(
    params: HypersimplexParams, rootset: RootSet, verdict: Optional[StripVerdict]
) -> CampaignRow:
    """The pair's row from its roots and, when certified, its verdict."""
    return CampaignRow(
        d=params.d,
        n=params.n,
        certified=verdict is not None and verdict.overall,
        re_min=min(r.real for r in rootset.roots),
        re_max=max(r.real for r in rootset.roots),
        im_max=max(abs(r.imag) for r in rootset.roots),
        max_residual=rootset.max_residual,
        millis=(rootset.seconds + (0.0 if verdict is None else verdict.seconds)) * 1000.0,
        converged=rootset.converged,
    )


def _work(params: HypersimplexParams) -> int:
    """A pair's estimated cost: its row count min(d, n - d) times its
    degree squared, the size of one product-form sweep of its roots."""
    return min(params.d, params.n - params.d) * (params.n - 1) ** 2


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parts(grid) -> list:
    """The grid's indices in W parts (see the module docstring), each in
    input order.  Ties in work go in input order, and a pair goes to the
    first of the parts tied for the least work."""
    works = [_work(params) for params in grid]
    count = 1
    if hasattr(os, "fork"):
        count = max(1, min(_usable_cpus(), sum(works) // _PART_WORK, len(grid)))
    loads, parts = [0] * count, [[] for _ in range(count)]
    for i in sorted(range(len(grid)), key=lambda i: -works[i]):
        k = loads.index(min(loads))
        loads[k] += works[i]
        parts[k].append(i)
    return [sorted(part) for part in parts]


def _solve_part(grid, config: CampaignConfig) -> list:
    """Each pair's (row, RootSet), or its error line, in grid order."""
    solved = find_roots_many(grid, config.solver)
    verdicts = [None] * len(grid)
    if config.certify:
        ok = [i for i, outcome in enumerate(solved) if isinstance(outcome, RootSet)]
        checked = verify_strip_many([grid[i] for i in ok], [solved[i].roots for i in ok])
        for i, verdict in zip(ok, checked):
            verdicts[i] = verdict
    outcomes = []
    for params, outcome, verdict in zip(grid, solved, verdicts):
        try:
            for failure in (outcome, verdict):
                if isinstance(failure, Exception):
                    raise failure
            outcomes.append((_row(params, outcome, verdict), outcome))
        except Exception as exc:  # any failure in one pair is reported; the others go on
            outcomes.append(_error_line(params.d, params.n, exc))
    return outcomes


def _send_part(sender, grid, config: CampaignConfig):
    """A child's whole run: its part's outcomes, sent to the parent."""
    sender.send(_solve_part(grid, config))


def _run_parts(grid, parts, config: CampaignConfig) -> list:
    """Each part's `_solve_part` outcomes: the first part solved here, every
    other in a forked child of its own.  A child that dies before it sends
    turns its pairs into error lines; if this process raises, its children
    are killed and joined before the exception goes on."""
    if len(parts) == 1:
        return [_solve_part(grid, config)]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for part in parts[1:]:
            receiver, sender = context.Pipe(duplex=False)
            args = (sender, [grid[i] for i in part], config)
            child = context.Process(target=_send_part, args=args)
            child.start()
            children.append((child, receiver))
            sender.close()  # so that a child's death reads as EOF here
        outcomes = [_solve_part([grid[i] for i in parts[0]], config)]
        for (child, receiver), part in zip(children, parts[1:]):
            try:
                sent = receiver.recv()
            except EOFError:
                sent = None
            child.join()
            if sent is None:  # the child died before it sent
                sent = [
                    f"d={grid[i].d} n={grid[i].n}: its worker process exited with code "
                    f"{child.exitcode} before sending a result"
                    for i in part
                ]
            outcomes.append(sent)
        return outcomes
    finally:
        for child, receiver in children:  # all joined, unless this process raised
            receiver.close()
            if child.exitcode is None:
                child.kill()
            child.join()


def run_campaign(config: CampaignConfig) -> VerificationReport:
    """Process every pair of the grid; write CSV artifacts if output_dir set.

    The output directory is made first, so a bad path fails before any work.
    Partial results are still flushed when instances error; the report
    carries the error descriptions and the console summary marks FAILURE.
    """
    out = None if config.output_dir is None else Path(config.output_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    grid = [HypersimplexParams(d, n) for d, n in config.pairs()]  # in grid order: `pairs` sorts
    parts = _parts(grid)
    outcomes = [None] * len(grid)
    for part, solved in zip(parts, _run_parts(grid, parts, config)):
        for i, outcome in zip(part, solved):
            outcomes[i] = outcome
    results = [outcome for outcome in outcomes if not isinstance(outcome, str)]
    report = VerificationReport(
        rows=tuple(row for row, _ in results),
        errors=tuple(outcome for outcome in outcomes if isinstance(outcome, str)),
    )

    if out is not None:
        write_report_csv(out / "report.csv", report)
        write_roots_csv(out / "roots.csv", [((r.d, r.n), rootset) for r, rootset in results])
    return report


def write_report_csv(path: Path, report: VerificationReport):
    lines = [REPORT_HEADER]
    for r in report.rows:
        lines.append(
            # the millis column is pinned to 0: timings vary from run to run; the CSV must not
            "%d,%d,%d,%s,%.17g,%.17g,%.17g,%.17g,0"
            % (
                r.d, r.n, r.degree, "true" if r.certified else "false",
                r.re_min, r.re_max, r.im_max, r.max_residual,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def roots_csv_lines(d: int, n: int, rootset: RootSet):
    for index, (root, res) in enumerate(zip(rootset.roots, rootset.residuals)):
        yield "%d,%d,%d,%.17g,%.17g,%.17g" % (d, n, index, root.real, root.imag, res)


def write_roots_csv(path: Path, solved):
    lines = [ROOTS_HEADER]
    for (d, n), rootset in solved:
        lines.extend(roots_csv_lines(d, n, rootset))
    Path(path).write_text("\n".join(lines) + "\n")
