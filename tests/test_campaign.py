from dataclasses import asdict, replace

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
    _row,
    roots_csv_lines,
    run_campaign,
)
from hsroots.ehrhart import HypersimplexParams
from hsroots.errors import InvalidParams
from hsroots.roots import SolverConfig, find_roots, find_roots_many


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
    # (4, 9) fails in its own last step, or in the evaluator call it shares
    # with the other pairs of row count 4 (all d = 4), which end with it,
    # while the pairs of row count 5 go on
    base = dict(d_min=4, d_max=5, certify=True)
    run_campaign(CampaignConfig(**base, output_dir=tmp_path / "all"))
    real_step, real_eval_vec = getattr(hsroots.roots, step), hsroots.roots._eval_vec
    evaluations, failed_at, failed_n = [], [], []

    def counted(*args):
        evaluations.append(args)
        return real_eval_vec(*args)

    def fails(*args):
        if step == "_finish":
            return args[0].n == 9
        # from the first sweep of (4, 9) on, past its two start points
        return sum(count for n, count in args[1] if n == 9) > 2

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
    assert 9 in failed and (len(failed) > 1) == (step == "_eval_vec")
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
    # a round makes one product-form evaluation per row count for the start
    # points, a sweep, or the certificates with their snap candidates of all
    # pairs; solved one pair after another, this grid took 486 evaluations
    config = CampaignConfig(d_min=4, d_max=5, certify=False)
    off_diagonal = [HypersimplexParams(d, n) for d, n in config.pairs() if n != 2 * d]
    solved = find_roots_many(off_diagonal, config.solver)
    assert all(rs.extended_bits is None for rs in solved)
    sweeps = max(rs.iterations for rs in solved)
    row_counts = {min(p.d, p.n - p.d) for p in off_diagonal}
    calls = []
    real = hsroots.roots._term_products

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hsroots.roots, "_term_products", counted)
    run_campaign(config)
    assert len(calls) <= (sweeps + 4) * len(row_counts)


def test_campaign_certifies_each_row_count_in_one_batched_call(monkeypatch):
    # the certificates' value bounds are packed by the solver's plan: on
    # d = 4..5 one error-mode factor loop per `_value_bounds` call, at most
    # two per row count for the whole grid (2 in all), where certifying
    # pair by pair took one per pair (43); the solver's stay in derivative mode
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
    assert set(modes) == {"derivative", "error"}
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
