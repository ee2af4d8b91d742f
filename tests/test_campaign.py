import pytest

import hsroots.campaign
from hsroots.campaign import (
    CampaignConfig,
    run_campaign,
)
from hsroots.errors import InvalidParams
from hsroots.roots import SolverConfig


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


def test_config_rejects_empty_grid():
    with pytest.raises(InvalidParams, match="no pair"):
        CampaignConfig(d_min=4, d_max=10, n_rule="range", n_min=50, n_max=10)
    with pytest.raises(InvalidParams, match="no pair"):
        CampaignConfig(d_min=5, d_max=6, n_rule="range", n_min=2, n_max=5)  # all n <= d


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
    real_find_roots = hsroots.campaign.find_roots

    def flaky(params, solver):
        if (params.d, params.n) == (2, 5):
            raise RuntimeError("solver exploded")
        return real_find_roots(params, solver)

    monkeypatch.setattr(hsroots.campaign, "find_roots", flaky)
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


def test_campaign_svg_outputs(tmp_path):
    config = CampaignConfig(
        d_min=1, d_max=2, n_rule="diagonal", certify=True,
        output_dir=tmp_path / "out", svg=True,
    )
    run_campaign(config)
    assert (tmp_path / "out" / "roots_d1.svg").exists()
    assert (tmp_path / "out" / "roots_d2.svg").exists()


def test_numeric_pass_property(tmp_path):
    config = CampaignConfig(d_min=4, d_max=4, n_rule="diagonal", certify=False, output_dir=None)
    report = run_campaign(config)
    assert report.numeric_pass
    assert report.certified_count == 0
