import math
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import hsroots.campaign
import hsroots.roots
import hsroots.stability
from hsroots.campaign import (
    DIAGONAL,
    PAPER_GRID,
    ROOTS_HEADER,
    CampaignConfig,
    CampaignRow,
    VerificationReport,
    _parts,
    _row,
    _work,
    roots_csv_lines,
    run_campaign,
    write_report_csv,
)
from hsroots.ehrhart import HypersimplexParams
from hsroots.errors import InvalidParams
from hsroots.roots import RootSet, SolverConfig, find_roots, find_roots_many


@pytest.fixture
def two_parts(monkeypatch):
    """Every grid of two or more pairs runs in two processes, this one and
    one forked child."""
    monkeypatch.setattr(hsroots.campaign, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(hsroots.campaign, "_PART_WORK", 1)


def grid_of(config):
    return [HypersimplexParams(d, n) for d, n in config.pairs()]


def test_pairs_paper_grid():
    config = CampaignConfig(d_min=4, d_max=5, output_dir=None)
    pairs = config.pairs()
    assert pairs[0] == (4, 8)
    assert pairs[-1] == (5, 35)
    assert len(pairs) == 17 + 26


def test_pairs_diagonal():
    config = CampaignConfig(d_min=4, d_max=7, n_rule="diagonal", output_dir=None)
    assert config.pairs() == ((4, 8), (5, 10), (6, 12), (7, 14))


def test_pairs_range_drops_invalid():
    config = CampaignConfig(
        d_min=3, d_max=3, n_rule="range", n_min=2, n_max=5, output_dir=None
    )
    assert config.pairs() == ((3, 4), (3, 5))


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(d_min=0, d_max=3)
    with pytest.raises(ValueError):
        CampaignConfig(d_min=2, d_max=1)
    with pytest.raises(ValueError):
        CampaignConfig(d_min=1, d_max=2, n_rule="spiral")
    with pytest.raises(ValueError):
        CampaignConfig(d_min=1, d_max=2, n_rule="range")
    with pytest.raises(InvalidParams):
        CampaignConfig(d_min=0, d_max=3)
    # the grid bounds follow the integer rule of HypersimplexParams
    for bad in (
        dict(d_min=4.5, d_max=5),
        dict(d_min=True, d_max=True),
        dict(d_min=3, d_max=3, n_rule="range", n_min=4.0, n_max=5),
        dict(d_min=3, d_max=3, n_rule="range", n_min=4, n_max=True),
    ):
        with pytest.raises(InvalidParams, match="must be an integer"):
            CampaignConfig(**bad)
    config = CampaignConfig(
        d_min=np.int64(3), d_max=np.int64(3), n_rule="range", n_min=np.int64(4), n_max=5
    )
    assert type(config.d_min) is int and type(config.n_min) is int
    assert config.pairs() == ((3, 4), (3, 5))


def test_config_rejects_empty_grid():
    with pytest.raises(InvalidParams, match="no pair"):
        CampaignConfig(d_min=4, d_max=10, n_rule="range", n_min=50, n_max=10)
    with pytest.raises(InvalidParams, match="no pair"):
        CampaignConfig(d_min=5, d_max=6, n_rule="range", n_min=2, n_max=5)  # all n <= d


def test_config_rejects_n_bounds_outside_the_range_rule():
    # the paper and diagonal grids choose their own n, so bounds on n would
    # be ignored without a word
    for rule in (PAPER_GRID, DIAGONAL):
        for given in (dict(n_min=50), dict(n_max=60), dict(n_min=50, n_max=60)):
            with pytest.raises(InvalidParams, match="apply to the range rule only"):
                CampaignConfig(d_min=4, d_max=4, n_rule=rule, **given)
    assert CampaignConfig(d_min=4, d_max=4, n_rule=DIAGONAL).pairs() == ((4, 8),)


def test_report_rows_sorted_and_consistent(tmp_path):
    config = CampaignConfig(
        d_min=2, d_max=3, certify=True, output_dir=tmp_path / "out"
    )
    report = run_campaign(config)
    keys = [(r.d, r.n) for r in report.rows]
    assert keys == sorted(keys)
    assert report.all_certified
    for row in report.rows:
        assert row.certified
        assert row.converged
        assert -row.n / row.d < row.re_min <= row.re_max < 0
        assert row.degree == row.n - 1
    with pytest.raises(TypeError):  # the degree is derived from n, never given
        CampaignRow(**{**asdict(report.rows[0]), "degree": 3})
    roots_lines = (tmp_path / "out" / "roots.csv").read_text().strip().splitlines()
    assert len(roots_lines) - 1 == sum(r.degree for r in report.rows)


def test_campaign_byte_identical_across_runs(tmp_path):
    base = dict(d_min=2, d_max=3, certify=True, solver=SolverConfig(seed=3))
    run_campaign(CampaignConfig(**base, output_dir=tmp_path / "a"))
    run_campaign(CampaignConfig(**base, output_dir=tmp_path / "b"))
    for name in ("report.csv", "roots.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_campaign_partial_results_on_error(tmp_path):
    # certify on a range including pairs with 2d > n: those error, the rest flush
    config = CampaignConfig(
        d_min=3, d_max=3, n_rule="range", n_min=4, n_max=7,
        certify=True, output_dir=tmp_path / "out",
    )
    report = run_campaign(config)
    assert len(report.errors) == 2  # n = 4, 5 violate 2d <= n
    assert [(r.d, r.n) for r in report.rows] == [(3, 6), (3, 7)]
    assert (tmp_path / "out" / "report.csv").exists()
    assert not report.all_certified


def test_campaign_survives_unexpected_error(tmp_path, monkeypatch):
    real_initial_points = hsroots.roots._initial_points

    def flaky(params, seed):
        if (params.d, params.n) == (2, 5):
            raise RuntimeError("solver exploded")
        return real_initial_points(params, seed)

    monkeypatch.setattr(hsroots.roots, "_initial_points", flaky)
    config = CampaignConfig(d_min=2, d_max=2, certify=False, output_dir=tmp_path / "out")
    report = run_campaign(config)
    assert len(report.errors) == 1
    assert report.errors[0].startswith("d=2 n=5: ")
    assert "RuntimeError: solver exploded" in report.errors[0]
    kept = [(2, 4), (2, 6), (2, 7), (2, 8)]
    assert [(r.d, r.n) for r in report.rows] == kept
    report_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert [tuple(map(int, line.split(",")[:2])) for line in report_lines[1:]] == kept
    roots_lines = (tmp_path / "out" / "roots.csv").read_text().splitlines()
    assert len(roots_lines) - 1 == sum(n - 1 for _, n in kept)


@pytest.mark.parametrize("seed", [0, 3])
def test_campaign_solves_each_pair_as_find_roots_does(tmp_path, monkeypatch, seed):
    # the lockstep rounds evaluate all pairs of one row count together, at
    # mixed n (rows 14: (14, 29..31) and (15, 29)); each pair still gets the
    # RootSet it gets alone, through d > n/2, the diagonal and the refinement,
    # also where a round's calls take a few pairs each or one pair alone
    config = CampaignConfig(
        d_min=14, d_max=15, n_rule="range", n_min=27, n_max=31, certify=False,
        solver=SolverConfig(seed=seed), output_dir=tmp_path,
    )
    grid = [HypersimplexParams(d, n) for d, n in config.pairs()]
    alone = [find_roots(params, config.solver) for params in grid]
    assert any(2 * p.d > p.n for p in grid) and any(2 * p.d == p.n for p in grid)
    assert alone[grid.index(HypersimplexParams(15, 31))].extended_bits is not None
    assert list(map(repr, find_roots_many(grid, config.solver))) == list(map(repr, alone))
    with monkeypatch.context() as patch:
        patch.setattr(hsroots.roots, "_BATCH_ENTRIES", 100)
        assert list(map(repr, find_roots_many(grid, config.solver))) == list(map(repr, alone))

    report = run_campaign(config)
    expected = [_row(params, rs, None) for params, rs in zip(grid, alone)]
    assert [repr(replace(row, millis=0.0)) for row in report.rows] == [
        repr(replace(row, millis=0.0)) for row in expected
    ]
    lines = [ROOTS_HEADER]
    for params, rs in zip(grid, alone):
        lines.extend(roots_csv_lines(params.d, params.n, rs))
    assert (tmp_path / "roots.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("step", ["_finish", "_eval_vec"])
def test_campaign_pair_failing_mid_round_leaves_the_others(tmp_path, monkeypatch, step):
    # (4, 9) fails in its own last step, or in the `_eval_vec` call of its
    # last (sixth) sweep round, which it shares with every other pair of row
    # count 4 (all d = 4) still sweeping, which end with it, while the
    # diagonal (4, 8), the pairs of row count 4 done sweeping (after five
    # sweeps) and those of row count 5 go on
    base = dict(d_min=4, d_max=5, certify=True)
    run_campaign(CampaignConfig(**base, output_dir=tmp_path / "all"))
    row_four = [HypersimplexParams(4, n) for n in range(9, 25)]
    sweeping = [p.n for p, rs in zip(row_four, find_roots_many(row_four)) if rs.iterations >= 6]
    real_step, real_eval_vec = getattr(hsroots.roots, step), hsroots.roots._eval_vec
    evaluations, failed_at, failed_n = [], [], []

    def counted(*args):
        evaluations.append(args)
        return real_eval_vec(*args)

    def holds_9(call):
        return any(n == 9 for n, _ in call[1])

    def fails(*args):
        if step == "_finish":
            return args[0].n == 9
        # at the sixth sweep of (4, 9): its first five calls go through
        return holds_9(args) and sum(map(holds_9, evaluations)) == 5

    def flaky(*args):
        if fails(*args):
            failed_at.append(len(evaluations))
            failed_n.append({9} if step == "_finish" else {n for n, _ in args[1]})
            raise RuntimeError("step exploded")
        return (counted if step == "_eval_vec" else real_step)(*args)

    monkeypatch.setattr(hsroots.roots, "_eval_vec", counted)
    monkeypatch.setattr(hsroots.roots, step, flaky)
    report = run_campaign(CampaignConfig(**base, output_dir=tmp_path / "one_failed"))
    # it failed once, while other pairs still had rounds to go
    assert len(failed_at) == 1 and 0 < failed_at[0] < len(evaluations)
    failed = sorted(failed_n[0])
    assert failed == ([9] if step == "_finish" else sweeping)
    assert 9 in failed and 1 < len(sweeping) < len(row_four)
    assert [error.split(": ", 1)[0] for error in report.errors] == [f"d=4 n={n}" for n in failed]
    assert all("RuntimeError: step exploded" in error for error in report.errors)
    for name in ("report.csv", "roots.csv"):
        everything = (tmp_path / "all" / name).read_text().splitlines()
        kept = everything[:1] + [
            line for line in everything[1:]
            if not any(line.startswith(f"4,{n},") for n in failed)
        ]
        assert len(kept) < len(everything)
        assert (tmp_path / "one_failed" / name).read_text().splitlines() == kept


def test_campaign_evaluates_each_row_count_once_per_round(monkeypatch):
    # a round makes at most one product-form evaluation per row count for
    # the sweeps of all pairs, in derivative mode, and one for their
    # certificates with their snap candidates, in value mode; the start
    # evaluates nothing, the sweeps run in rounds 0..sweeps - 1 and the
    # certificates in rounds 0..sweeps.  Solved one pair after another,
    # this grid took 486 evaluations
    # the recorder sees only this process's calls: keep the grid in it
    monkeypatch.setattr(hsroots.campaign, "_usable_cpus", lambda: 1)
    config = CampaignConfig(d_min=4, d_max=5, certify=False)
    off_diagonal = [HypersimplexParams(d, n) for d, n in config.pairs() if n != 2 * d]
    solved = find_roots_many(off_diagonal, config.solver)
    assert all(rs.extended_bits is None for rs in solved)
    sweeps = max(rs.iterations for rs in solved)
    row_counts = {min(p.d, p.n - p.d) for p in off_diagonal}
    modes = []
    real = hsroots.roots._term_products

    def counted(*args, **kwargs):
        modes.append(kwargs.get("mode", "derivative"))
        return real(*args, **kwargs)

    monkeypatch.setattr(hsroots.roots, "_term_products", counted)
    run_campaign(config)
    assert set(modes) == {"derivative", "value"}
    assert modes.count("derivative") <= sweeps * len(row_counts)
    assert modes.count("value") <= (sweeps + 1) * len(row_counts)


def test_campaign_certifies_each_row_count_in_one_batched_call(monkeypatch):
    # the certificates' value bounds are packed by the solver's plan: on
    # d = 4..5 one error-mode factor loop per `_value_bounds` call, at most
    # two per row count for the whole grid (2 in all), where certifying
    # pair by pair took one per pair (43); the solver's sweeps stay in
    # derivative mode and its residual certificates in value mode
    # the recorders see only this process's calls: keep the grid in it
    monkeypatch.setattr(hsroots.campaign, "_usable_cpus", lambda: 1)
    config = CampaignConfig(d_min=4, d_max=5, certify=True)
    row_counts = {min(d, n - d) for d, n in config.pairs()}
    modes, bound_calls = [], []
    real_products, real_bounds = hsroots.roots._term_products, hsroots.stability._value_bounds

    def counted_products(*args, **kwargs):
        modes.append(kwargs.get("mode", "derivative"))
        return real_products(*args, **kwargs)

    def counted_bounds(*args):
        bound_calls.append(args)
        return real_bounds(*args)

    monkeypatch.setattr(hsroots.roots, "_term_products", counted_products)
    monkeypatch.setattr(hsroots.stability, "_value_bounds", counted_bounds)
    report = run_campaign(config)
    assert report.all_certified
    assert set(modes) == {"derivative", "value", "error"}
    assert 0 < modes.count("error") == len(bound_calls) <= 2 * len(row_counts) < len(config.pairs())


def test_campaign_certificate_failing_in_its_batched_call_leaves_the_others(tmp_path, monkeypatch):
    # the value-bound call holding (4, 9) holds every d = 4 pair: those
    # pairs are reported as errors, and the pairs of row count 5 are still
    # certified and written
    base = dict(d_min=4, d_max=5, certify=True)
    run_campaign(CampaignConfig(**base, output_dir=tmp_path / "all"))
    real = hsroots.stability._value_bounds

    def flaky(d, runs, z):
        if any(n == 9 for n, _ in runs):
            raise RuntimeError("bounds exploded")
        return real(d, runs, z)

    monkeypatch.setattr(hsroots.stability, "_value_bounds", flaky)
    report = run_campaign(CampaignConfig(**base, output_dir=tmp_path / "one_failed"))
    failed = list(range(8, 25))
    assert [error.split(": ", 1)[0] for error in report.errors] == [f"d=4 n={n}" for n in failed]
    assert all("RuntimeError: bounds exploded" in error for error in report.errors)
    assert {row.d for row in report.rows} == {5} and all(row.certified for row in report.rows)
    for name in ("report.csv", "roots.csv"):
        everything = (tmp_path / "all" / name).read_text().splitlines()
        kept = everything[:1] + [line for line in everything[1:] if not line.startswith("4,")]
        assert (tmp_path / "one_failed" / name).read_text().splitlines() == kept


def test_numeric_pass_property(tmp_path):
    config = CampaignConfig(d_min=4, d_max=4, n_rule="diagonal", certify=False, output_dir=None)
    report = run_campaign(config)
    assert report.numeric_pass
    assert report.certified_count == 0


def test_parts_balance_the_work_and_keep_small_grids_whole(monkeypatch):
    paper = grid_of(CampaignConfig(d_min=4, d_max=7))
    diagonal = grid_of(CampaignConfig(d_min=4, d_max=22, n_rule=DIAGONAL))
    assert sum(map(_work, diagonal)) < 2 * hsroots.campaign._PART_WORK
    assert sum(map(_work, paper)) >= 2 * hsroots.campaign._PART_WORK
    for cpus, parts in ((1, 1), (2, 2), (8, sum(map(_work, paper)) // hsroots.campaign._PART_WORK)):
        monkeypatch.setattr(hsroots.campaign, "_usable_cpus", lambda: cpus)
        split = _parts(paper)
        assert len(split) == parts
        assert sorted(i for part in split for i in part) == list(range(len(paper)))
        assert all(part == sorted(part) for part in split)  # each in input order
        loads = [sum(_work(paper[i]) for i in part) for part in split]
        assert max(loads) - min(loads) <= max(map(_work, paper))
        assert len(_parts(diagonal)) == 1
    # greedy, largest first, ties in input order, each to the first least-loaded part
    monkeypatch.setattr(hsroots.campaign, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(hsroots.campaign, "_PART_WORK", 1)
    twins = [HypersimplexParams(2, 5), HypersimplexParams(3, 5), HypersimplexParams(2, 4)]
    assert [_work(p) for p in twins] == [32, 32, 18]
    assert _parts(twins) == [[0, 2], [1]]
    monkeypatch.delattr(os, "fork")  # no "fork" start method: one process
    assert _parts(paper) == [list(range(len(paper)))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_campaign_writes_the_bytes_of_one_process(tmp_path, monkeypatch, seed):
    # certified pairs, numeric ones that fail the strip's domain (2d > n)
    # and the diagonal, in two parts that each hold some of every kind
    config = CampaignConfig(
        d_min=3, d_max=6, n_rule="range", n_min=7, n_max=14, certify=True,
        solver=SolverConfig(seed=seed),
    )
    with monkeypatch.context() as patch:
        patch.setattr(hsroots.campaign, "_usable_cpus", lambda: 1)
        whole = run_campaign(replace(config, output_dir=tmp_path / "one"))
    monkeypatch.setattr(hsroots.campaign, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(hsroots.campaign, "_PART_WORK", 1)
    grid = grid_of(config)
    parent, child = _parts(grid)
    errors = {i for i, p in enumerate(grid) if 2 * p.d > p.n}
    assert errors & set(parent) and errors & set(child)
    assert set(child) - errors and set(parent) - errors
    split = run_campaign(replace(config, output_dir=tmp_path / "two"))
    assert split.errors == whole.errors and len(split.errors) == len(errors)
    assert [replace(row, millis=0.0) for row in split.rows] == [
        replace(row, millis=0.0) for row in whole.rows
    ]
    for name in ("report.csv", "roots.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_child_that_dies_turns_its_part_into_error_lines(tmp_path, monkeypatch, two_parts):
    config = CampaignConfig(d_min=2, d_max=3, certify=True)
    whole = run_campaign(replace(config, output_dir=tmp_path / "all"))
    grid = grid_of(config)
    _, lost = _parts(grid)
    real, parent = hsroots.campaign._solve_part, os.getpid()

    def dies_in_the_child(part, config):
        if os.getpid() != parent:
            os._exit(3)
        return real(part, config)

    monkeypatch.setattr(hsroots.campaign, "_solve_part", dies_in_the_child)
    report = run_campaign(replace(config, output_dir=tmp_path / "died"))
    assert report.errors == tuple(
        f"d={grid[i].d} n={grid[i].n}: its worker process exited with code 3 "
        "before sending a result"
        for i in lost
    )
    gone = {(grid[i].d, grid[i].n) for i in lost}
    kept = [(row.d, row.n) for row in whole.rows if (row.d, row.n) not in gone]
    assert [(row.d, row.n) for row in report.rows] == kept != []
    prefixes = tuple(f"{d},{n}," for d, n in gone)
    for name in ("report.csv", "roots.csv"):
        everything = (tmp_path / "all" / name).read_text().splitlines()
        written = (tmp_path / "died" / name).read_text().splitlines()
        assert written == [line for line in everything if not line.startswith(prefixes)]


@pytest.mark.parametrize(
    "owner, name, refused",
    [
        (multiprocessing.process.BaseProcess, "start", 1),
        (multiprocessing.process.BaseProcess, "start", 2),
        (multiprocessing.context.BaseContext, "Pipe", 1),
    ],
    ids=["one-start", "every-start", "one-pipe"],
)
def test_parts_whose_process_cannot_start_are_solved_here(
    tmp_path, monkeypatch, owner, name, refused
):
    # three parts; for the first `refused` children no process or no pipe
    # can be made (the system is out of process ids or files), so this
    # process solves their parts after its own; a child that did start is
    # still received and joined (see `no_process_left_running`), and the
    # bytes are those of one process
    config = CampaignConfig(d_min=2, d_max=4, certify=True)
    with monkeypatch.context() as patch:
        patch.setattr(hsroots.campaign, "_usable_cpus", lambda: 1)
        whole = run_campaign(replace(config, output_dir=tmp_path / "one"))
    monkeypatch.setattr(hsroots.campaign, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(hsroots.campaign, "_PART_WORK", 1)
    assert len(_parts(grid_of(config))) == 3
    real, calls = getattr(owner, name), []

    def refusing(self, *args, **kwargs):
        calls.append(self)
        if len(calls) <= refused:
            raise BlockingIOError(f"{name}: resource temporarily unavailable")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, refusing)
    split = run_campaign(replace(config, output_dir=tmp_path / "three"))
    assert len(calls) == 2 and split.errors == whole.errors == ()
    for csv in ("report.csv", "roots.csv"):
        assert (tmp_path / "three" / csv).read_bytes() == (tmp_path / "one" / csv).read_bytes()


def test_error_in_this_process_kills_and_joins_the_child(monkeypatch, two_parts):
    parent = os.getpid()

    def fails_here_hangs_there(part, config):
        if os.getpid() != parent:
            time.sleep(60)
        raise RuntimeError("this part exploded")

    monkeypatch.setattr(hsroots.campaign, "_solve_part", fails_here_hangs_there)
    started = time.perf_counter()
    with pytest.raises(RuntimeError, match="this part exploded"):
        run_campaign(CampaignConfig(d_min=2, d_max=3, certify=False))
    assert time.perf_counter() - started < 30  # killed, not waited for
    assert multiprocessing.active_children() == []


def test_imports_and_one_process_runs_load_no_multiprocessing():
    src = str(Path(hsroots.campaign.__file__).resolve().parents[1])
    code = (
        "import sys, hsroots, hsroots.campaign as c\n"
        "loaded = [sorted(m for m in sys.modules if m.startswith('multiprocessing'))]\n"
        "c.run_campaign(c.CampaignConfig(d_min=2, d_max=3, n_rule='diagonal'))\n"
        "loaded.append(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
        "print(loaded)"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[[], []]"


def test_csv_floats_keep_17_significant_digits(tmp_path):
    # one %-format a line gives the bytes of f"{x:.17g}" a field
    values = [-0.0, 5e-324, math.inf, -math.inf, math.nan, 1e300, 0.1, -2.5]
    rootset = RootSet(
        roots=tuple(complex(x, y) for x, y in zip(values, reversed(values))),
        residuals=tuple(values),
        iterations=0,
        converged=True,
    )
    assert list(roots_csv_lines(4, 9, rootset)) == [
        ",".join(["4", "9", str(k), f"{z.real:.17g}", f"{z.imag:.17g}", f"{r:.17g}"])
        for k, (z, r) in enumerate(zip(rootset.roots, rootset.residuals))
    ]
    assert next(roots_csv_lines(4, 9, rootset)) == "4,9,0,-0,-2.5,-0"
    rows = tuple(
        CampaignRow(d=4, n=9, certified=k % 2 == 0, re_min=values[k], re_max=values[k + 1],
                    im_max=values[k + 2], max_residual=values[k + 3], millis=12.5,
                    converged=True)
        for k in range(len(values) - 3)
    )
    write_report_csv(tmp_path / "report.csv", VerificationReport(rows=rows, errors=()))
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[1:] == [
        ",".join(["4", "9", "8", "true" if r.certified else "false",
                  *(f"{x:.17g}" for x in (r.re_min, r.re_max, r.im_max, r.max_residual)), "0"])
        for r in rows
    ]
    assert lines[1] == "4,9,8,true,-0,4.9406564584124654e-324,inf,-inf,0"
    assert lines[3] == "4,9,8,true,inf,-inf,nan,1.0000000000000001e+300,0"
