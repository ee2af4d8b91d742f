import json

import hsroots.stability
from hsroots.cli import main
from hsroots.ehrhart import HypersimplexParams
from hsroots.roots import SolverConfig, find_roots


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_plain(capsys):
    code, out, _ = run(capsys, "poly", "--d", "1", "--n", "3")
    assert code == 0
    assert out.strip() == "1, 3/2, 1/2"


def test_poly_plain_3_6(capsys):
    code, out, _ = run(capsys, "poly", "--d", "3", "--n", "6")
    assert code == 0
    assert out.strip() == "1, 37/10, 25/4, 23/4, 11/4, 11/20"


def test_poly_csv(capsys):
    code, out, _ = run(capsys, "poly", "--d", "1", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,numerator,denominator"
    assert lines[1] == "0,1,1"
    assert lines[2] == "1,3,2"
    assert lines[3] == "2,1,2"


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "--d", "2", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 3
    assert data["coefficients"][0] == "1"


def test_poly_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "poly", "--d", "5", "--n", "4")
    assert code == 2
    assert "error" in err


def test_count_examples(capsys):
    assert run(capsys, "count", "--d", "2", "--n", "4", "--m", "2")[1].strip() == "19"
    assert run(capsys, "count", "--d", "2", "--n", "4", "--m", "1")[1].strip() == "6"
    assert run(capsys, "count", "--d", "2", "--n", "4", "--m", "0")[1].strip() == "1"


def test_count_strict_and_json(capsys):
    code, out, _ = run(
        capsys, "count", "--d", "2", "--n", "4", "--m", "3", "--strict", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["strict"] is True
    assert data["count"] == "6"  # (-1)^3 * p(-3) for the d=2, n=4 cubic


def test_roots_simplex_rows(capsys):
    code, out, _ = run(capsys, "roots", "--d", "1", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,n,root_index,re,im,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert [float(r[3]) for r in rows] == [-3.0, -2.0, -1.0]
    assert all(float(r[4]) == 0.0 for r in rows)


def test_roots_3_6_contains_minus_one(capsys):
    code, out, _ = run(capsys, "roots", "--d", "3", "--n", "6")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 5
    assert any(float(r[3]) == -1.0 and float(r[4]) == 0.0 for r in rows)


def test_roots_strip_d2_n4(capsys):
    code, out, _ = run(capsys, "roots", "--d", "2", "--n", "4")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(-2.0 < float(r[3]) < 0.0 for r in rows)


def test_roots_invalid_values_exit_2(capsys):
    code, out, err = run(capsys, "roots", "--d", "3", "--n", "6", "--tolerance", "-1")
    assert (code, out) == (2, "")
    assert "tolerance must be positive" in err
    code, _, err = run(capsys, "roots", "--d", "3", "--n", "6", "--max-iter", "0")
    assert code == 2
    assert "max_iterations" in err


def test_roots_warning_counts_exact_sweeps(capsys):
    # one double sweep cannot settle, so the exact refinement runs, also for one sweep
    rootset = find_roots(HypersimplexParams(3, 40), SolverConfig(max_iterations=1))
    assert rootset.extended_bits is not None and not rootset.converged
    code, _, err = run(capsys, "roots", "--d", "3", "--n", "40", "--max-iter", "1")
    assert code == 3
    assert err == (
        f"warning: not converged after 1 iterations and {rootset.extended_sweeps} exact "
        f"sweeps at {rootset.extended_bits} fractional bits "
        f"(max residual {rootset.max_residual:.3e})\n"
    )


def test_roots_to_file(tmp_path, capsys):
    target = tmp_path / "r.csv"
    code, out, _ = run(capsys, "roots", "--d", "2", "--n", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("d,n,root_index")


def test_verify_certified(capsys):
    code, out, _ = run(capsys, "verify", "--d", "3", "--n", "6")
    assert code == 0
    assert out.strip() == "CERTIFIED"


def test_verify_tall_pair_certified_by_the_disks(capsys, monkeypatch):
    # degree 95: the inclusion disks prove both sides, so no Routh table runs
    def no_table(poly):
        raise AssertionError("the Routh table ran")

    monkeypatch.setattr(hsroots.stability, "routh_hurwitz", no_table)
    code, out, _ = run(capsys, "verify", "--d", "9", "--n", "96")
    assert code == 0
    assert out.strip() == "CERTIFIED"


def test_verify_out_of_domain_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--d", "3", "--n", "5")
    assert code == 2
    assert "2d <= n" in err


def test_bounds_commands(capsys):
    assert run(capsys, "bounds", "migi", "--d", "3", "--n", "6", "--s", "1")[0] == 0
    assert run(capsys, "bounds", "hidari", "--d", "3", "--n", "7", "--s", "1")[0] == 0
    assert (
        run(
            capsys,
            "bounds", "aida", "--d", "3", "--n", "7", "--s", "1",
            "--alpha", "1.0", "--lambda", "1.4142135623730951",
        )[0]
        == 0
    )
    assert run(capsys, "bounds", "d4sum", "--d", "4")[0] == 0
    assert run(capsys, "bounds", "hneg", "--d", "5")[0] == 0


def test_bounds_rouche_output(capsys):
    code, out, _ = run(
        capsys,
        "bounds", "rouche", "--d", "3", "--n", "7",
        "--edge", "imaginary", "--samples", "2001", "--beta-max", "70",
    )
    assert code == 0
    assert "PASS" in out
    assert "max_ratio=" in out


def test_bounds_hypothesis_violation_exit_2(capsys):
    code, _, err = run(capsys, "bounds", "hidari", "--d", "3", "--n", "6", "--s", "1")
    assert code == 2
    assert "d^2 - 2" in err


def test_campaign_simplex_range(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "campaign", "--d-min", "1", "--d-max", "1",
        "--grid", "range", "--n-min", "2", "--n-max", "6",
        "--certify", "--out", str(tmp_path / "camp"),
    )
    assert code == 0
    assert "5/5 certified" in out
    report = (tmp_path / "camp" / "report.csv").read_text().strip().splitlines()
    assert report[0] == "d,n,degree,certified,re_min,re_max,im_max,max_residual,millis"
    assert len(report) == 6
    assert all(line.split(",")[3] == "true" for line in report[1:])
    roots = (tmp_path / "camp" / "roots.csv").read_text().strip().splitlines()
    assert len(roots) - 1 == sum(n - 1 for n in range(2, 7))


def test_campaign_numeric_only_exit_1(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "campaign", "--d-min", "4", "--d-max", "5", "--grid", "diagonal",
        "--out", str(tmp_path / "camp"),
    )
    assert code == 1
    assert "numeric only" in out


def test_campaign_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "d_min": 1,
                "d_max": 1,
                "grid": "range",
                "n_min": 2,
                "n_max": 9,
                "certify": True,
                "out": str(tmp_path / "from_config"),
            }
        )
    )
    code, _, _ = run(
        capsys, "campaign", "--config", str(config), "--n-max", "4"
    )  # flag overrides n_max=9
    assert code == 0
    report = (tmp_path / "from_config" / "report.csv").read_text().strip().splitlines()
    assert len(report) == 1 + 3  # n in {2, 3, 4}


def test_campaign_invalid_values_exit_2(tmp_path, capsys):
    out_dir = str(tmp_path / "camp")
    for argv, message in (
        (["--d-min", "0"], "d_min"),
        (["--d-min", "3", "--d-max", "2"], "d_min"),
        (["--grid", "range"], "n_min and n_max"),
        (["--grid", "range", "--n-min", "50", "--n-max", "10", "--certify"], "no pair"),
        (["--d-min", "4", "--d-max", "4", "--max-iter", "0"], "max_iterations"),
    ):
        code, out, err = run(capsys, "campaign", *argv, "--out", out_dir)
        assert code == 2, argv
        assert message in err, argv
        assert "certified" not in out, argv
    assert not (tmp_path / "camp").exists()


def test_plot_simplex_points(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "campaign", "--d-min", "1", "--d-max", "1",
        "--grid", "range", "--n-min", "4", "--n-max", "4",
        "--certify", "--out", str(tmp_path / "camp"),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "plot", "--roots", str(tmp_path / "camp" / "roots.csv"),
        "--out", str(tmp_path / "figs"),
    )
    assert code == 0
    svg = (tmp_path / "figs" / "roots_d1.svg").read_text()
    assert svg.count("<circle") == 3
    assert "Re=0" in svg and "Re=-4/1" in svg


def test_plot_empty_roots_file(tmp_path, capsys):
    empty = tmp_path / "roots.csv"
    empty.write_text("d,n,root_index,re,im,residual\n")
    code, out, _ = run(capsys, "plot", "--roots", str(empty), "--out", str(tmp_path / "figs"))
    assert code == 0
    svg = (tmp_path / "figs" / "roots_empty.svg").read_text()
    assert "<circle" not in svg
    assert "<line" in svg  # axes only
