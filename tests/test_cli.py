import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hsroots
import hsroots.campaign
import hsroots.cli
import hsroots.stability
from hsroots.campaign import CampaignConfig, run_campaign
from hsroots.cli import _campaign_config, build_parser, main
from hsroots.ehrhart import HypersimplexParams
from hsroots.roots import SolverConfig, find_roots
from hsroots.stability import BOUNDARY, STABLE, UNSTABLE, StabilityVerdict, StripVerdict


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


def test_roots_above_half_as_the_complement(capsys):
    # (10, 11) has the polynomial of (1, 11), whose roots are -1..-10
    code, out, _ = run(capsys, "roots", "--d", "10", "--n", "11")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[3]) for r in rows] == [float(k) for k in range(-10, 0)]
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
    code, out, err = run(capsys, "roots", "--d", "4", "--n", "8", "--tolerance", "inf")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "tolerance must be positive" in err


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


def test_roots_warning_on_the_diagonal_gives_the_missed_tolerance(capsys):
    # at n = 2d no sweep runs, so the warning names the residual and the
    # tolerance it missed instead of a sweep count
    config = SolverConfig(tolerance=1e-30)
    rootset = find_roots(HypersimplexParams(4, 8), config)
    assert rootset.iterations == 0 and not rootset.converged
    code, out, err = run(capsys, "roots", "--d", "4", "--n", "8", "--tolerance", "1e-30")
    assert code == 3 and out.startswith("d,n,root_index")
    assert err == (
        f"warning: not converged: max residual {rootset.max_residual:.3e} "
        "above the tolerance 1.000e-30\n"
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
    def no_table(coeffs):
        raise AssertionError("the Routh table ran")

    monkeypatch.setattr(hsroots.stability, "_routh_table", no_table)
    code, out, _ = run(capsys, "verify", "--d", "9", "--n", "96")
    assert code == 0
    assert out.strip() == "CERTIFIED"


def test_verify_reports_each_failed_side(capsys, monkeypatch):
    # every real pair certifies, so the failure lines run only on made-up verdicts
    stable = StabilityVerdict(STABLE)
    for left, right, expected in (
        (stable, StabilityVerdict(BOUNDARY), "BOUNDARY"),
        (StabilityVerdict(UNSTABLE), stable, "FAILED(left)"),
        (stable, StabilityVerdict(UNSTABLE), "FAILED(right)"),
    ):
        verdict = StripVerdict(left, right)
        monkeypatch.setattr(hsroots.stability, "verify_strip", lambda params, roots: verdict)
        code, out, _ = run(capsys, "verify", "--d", "3", "--n", "6")
        assert (code, out.strip()) == (3, expected)


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


def test_bounds_d4sum_beyond_60_digits_passes(capsys):
    code, out, _ = run(capsys, "bounds", "d4sum", "--d", "60")
    assert code == 0
    assert out == "d4sum d=60: PASS\n"


def test_bounds_aida_non_finite_lambda_exit_2(capsys):
    base = ("bounds", "aida", "--d", "3", "--n", "7", "--s", "1", "--alpha", "1.0", "--lambda")
    for lam in ("nan", "inf"):
        code, out, err = run(capsys, *base, lam)
        assert code == 2, lam
        assert out == "" and err.startswith("error:") and "finite" in err
    # a finite lambda too large for the product-form terms: was FAIL, exit 3
    code, out, err = run(capsys, *base, "1e300")
    assert code == 2 and out == "" and "2**51" in err


def test_bounds_rouche_output(capsys):
    code, out, _ = run(
        capsys,
        "bounds", "rouche", "--d", "3", "--n", "7",
        "--edge", "imaginary", "--samples", "2001", "--beta-max", "70",
    )
    assert code == 0
    assert "PASS" in out
    assert "max_ratio=" in out


def test_bounds_rouche_horizontal_edges_ignore_the_sign_of_lambda(capsys):
    outputs = {}
    for edge in ("top", "bottom"):
        for lam in ("1.4142135623730951", "-1.4142135623730951"):
            code, out, _ = run(
                capsys, "bounds", "rouche", "--d", "3", "--n", "7", "--edge", edge, "--lambda", lam
            )
            assert code == 0
            outputs[edge, lam] = out
    assert outputs["top", "1.4142135623730951"] == outputs["top", "-1.4142135623730951"]
    assert outputs["bottom", "1.4142135623730951"] == outputs["bottom", "-1.4142135623730951"]
    assert "edge=top" in outputs["top", "-1.4142135623730951"]
    assert "+9.89949i" in outputs["top", "-1.4142135623730951"]
    assert "-9.89949i" in outputs["bottom", "1.4142135623730951"]


def test_bounds_rouche_non_finite_values_exit_2(capsys):
    base = ("bounds", "rouche", "--edge")
    for extra, reason in (
        (("imaginary", "--d", "3", "--n", "7", "--lambda", "nan"), "finite"),
        (("imaginary", "--d", "3", "--n", "7", "--lambda", "inf"), "finite"),
        (("left", "--d", "3", "--n", "7", "--beta-max", "inf"), "finite"),
        (("top", "--d", "3", "--n", "7", "--lambda", "nan"), "finite"),
        (("top", "--d", "3", "--n", "7", "--lambda", "0"), "horizontal edge needs lam != 0"),
        (("imaginary", "--d", "0", "--n", "5"), "1 <= d < n"),
        (("left", "--d", "0", "--n", "5"), "1 <= d < n"),
        (("imaginary", "--d", "6", "--n", "3"), "1 <= d < n"),
    ):
        code, out, err = run(capsys, *base, *extra)
        assert code == 2, extra
        assert err.startswith("error: ") and err.count("\n") == 1, extra
        assert reason in err and "PASS" not in out


def test_bounds_rouche_overflow_fails(capsys):
    # every sample but beta = 0 overflows to a NaN ratio sum, which fails the edge
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run(
            capsys,
            "bounds", "rouche", "--d", "3", "--n", "40", "--edge", "imaginary",
            "--beta-max", "1e300",
        )
    assert code == 3
    assert "max_ratio=nan" in out and "FAIL" in out


def test_bounds_rouche_overflow_warns_nothing_from_numpy(capsys):
    # the same overflow, with no errstate here: any numpy warning would raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys,
            "bounds", "rouche", "--d", "3", "--n", "40", "--edge", "imaginary",
            "--beta-max", "1e300",
        )
    assert code == 3 and "FAIL" in out
    assert err == "note: the ratio terms overflow doubles at the sampled heights\n"


def test_public_names_resolve():
    for name in hsroots.__all__:
        getattr(hsroots, name)
    assert "ScaledComplex" not in hsroots.__all__
    assert not hasattr(hsroots, "ScaledComplex") and not hasattr(hsroots, "scaled")


def fresh_python(*args):
    """Run a fresh interpreter that imports hsroots from this checkout."""
    src = str(Path(hsroots.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_python_dash_m_runs_the_cli():
    assert fresh_python("-m", "hsroots", "--help").startswith("usage: hsroots")


# the last line printed: the heavy modules and the hsroots submodules loaded
_LOADED = """
print(json.dumps([
    sorted({"numpy", "mpmath"} & set(sys.modules)),
    sorted(m for m in sys.modules if m.startswith("hsroots.")),
]))
"""


@pytest.mark.parametrize(
    "statement, heavy, submodules",
    [
        pytest.param("pass", [], [], id="import"),
        pytest.param(
            "hsroots.ehrhart_polynomial(hsroots.HypersimplexParams(3, 7))",
            [], ["ehrhart", "errors", "polynomial"], id="ehrhart_polynomial",
        ),
        pytest.param(
            "hsroots.normalized_volume(hsroots.HypersimplexParams(3, 7))",
            [], ["ehrhart", "errors", "polynomial"], id="normalized_volume",
        ),
        pytest.param(
            "hsroots.count_points(hsroots.CountQuery(2, 4, 3))",
            [], ["ehrhart", "errors", "lattice", "polynomial"], id="count_points",
        ),
        pytest.param(
            "hsroots.cli.main(['poly', '--d', '3', '--n', '6'])",
            [], ["cli", "ehrhart", "errors", "polynomial"], id="cli_poly",
        ),
        pytest.param(
            "hsroots.cli.main(['count', '--d', '2', '--n', '4', '--m', '3'])",
            [], ["cli", "ehrhart", "errors", "lattice", "polynomial"], id="cli_count",
        ),
        pytest.param(
            "with contextlib.suppress(SystemExit): hsroots.cli.main(['--help'])",
            [], ["cli", "errors"], id="cli_help",
        ),
        pytest.param(
            "with contextlib.suppress(SystemExit): hsroots.cli.main(['roots', '--d', 'x'])",
            [], ["cli", "errors"], id="cli_bad_args",
        ),
        # the hook really loads: the solver's first name brings numpy in
        pytest.param(
            "hsroots.find_roots",
            ["numpy"], ["ehrhart", "errors", "polynomial", "roots"], id="find_roots",
        ),
    ],
)
def test_import_loads_only_what_is_used(statement, heavy, submodules):
    out = fresh_python("-c", f"import contextlib, json, sys, hsroots\n{statement}\n{_LOADED}")
    loaded = json.loads(out.splitlines()[-1])
    assert loaded == [heavy, [f"hsroots.{name}" for name in submodules]]


def test_public_surface_in_a_fresh_interpreter():
    out = fresh_python("-c", """
import json, sys
import hsroots
names = dir(hsroots)
resolved = [hsroots.roots.__name__, hsroots.stability.__name__]
same = [
    getattr(hsroots, name) is getattr(sys.modules[f"hsroots.{module}"], name)
    for name, module in hsroots._SOURCE.items()
]
star = {}
exec("from hsroots import *", star)
try:
    hsroots.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "all": hsroots.__all__,
    "table": [name for names in hsroots._EXPORTS.values() for name in names],
    "dir": names,
    "resolved": resolved,
    "star": sorted(set(star) - {"__builtins__"}),
    "same": all(same),
    "missing": missing,
}))
""")
    surface = json.loads(out)
    submodules = [
        "bounds", "campaign", "cli", "ehrhart", "errors",
        "lattice", "polynomial", "roots", "stability",
    ]
    assert surface["all"] == sorted(surface["table"])
    assert len(set(surface["table"])) == len(surface["table"]) == 38
    assert set(surface["dir"]) >= {*surface["all"], *submodules}
    assert surface["resolved"] == ["hsroots.roots", "hsroots.stability"]
    assert surface["star"] == surface["all"]
    assert surface["same"]
    assert surface["missing"] == "module 'hsroots' has no attribute 'no_such_name'"


def readme_block(heading, language):
    """The first ```language block after the README line `heading`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text[text.index(f"\n{heading}\n"):]
    start = after.index(f"```{language}\n") + len(language) + 4
    return after[start:after.index("```", start)]


def test_readme_library_sketch_runs():
    exec(readme_block("## Library sketch", "python"), {})


def test_readme_cli_lines_parse():
    # a command or flag the docs show but the parser lacks fails here
    lines = [line for line in readme_block("## CLI", "sh").splitlines() if line.startswith("hsroots ")]
    assert len(lines) > 10
    for line in lines:
        argv = re.sub(r"\[[^]]*\]", "", line.split("#")[0]).split()[1:]
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_bounds_pair_outside_the_domain_exit_2(capsys):
    for argv in (
        ("migi", "--d", "3", "--n", "3", "--s", "1"),
        ("hidari", "--d", "3", "--n", "3", "--s", "1"),
        ("aida", "--d", "3", "--n", "3", "--s", "1", "--alpha", "0"),
        ("migi", "--d", "0", "--n", "5", "--s", "1"),
    ):
        code, out, err = run(capsys, "bounds", *argv)
        assert_one_error_line(code, out, err)
        assert "1 <= d < n" in err, argv


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


def test_campaign_errored_instance_exits_3_and_keeps_the_rest(tmp_path, capsys):
    # (2, 3) is outside 2d <= n, so certifying it raises; (2, 4) and (2, 5)
    # are still certified and written
    code, out, err = run(
        capsys,
        "campaign", "--grid", "range", "--d-min", "2", "--d-max", "2",
        "--n-min", "3", "--n-max", "5", "--certify", "--out", str(tmp_path / "camp"),
    )
    assert code == 3
    assert "FAILURE: 1 instance(s) errored" in err
    assert "d=2 n=3" in err
    assert "d=2 n=4" in out and "d=2 n=5" in out
    report = (tmp_path / "camp" / "report.csv").read_text().strip().splitlines()
    assert [line.split(",")[:2] for line in report[1:]] == [["2", "4"], ["2", "5"]]


def test_campaign_invalid_values_exit_2(tmp_path, capsys):
    out_dir = str(tmp_path / "camp")
    for argv, message in (
        (["--d-min", "0"], "d_min"),
        (["--d-min", "3", "--d-max", "2"], "d_min"),
        (["--grid", "range"], "n_min and n_max"),
        (["--grid", "range", "--n-min", "50", "--n-max", "10", "--certify"], "no pair"),
        (
            ["--grid", "diagonal", "--d-min", "4", "--d-max", "4",
             "--n-min", "50", "--n-max", "60"],
            "apply to the range rule only",
        ),
        (["--d-min", "4", "--d-max", "4", "--n-max", "60"], "apply to the range rule only"),
        (["--d-min", "4", "--d-max", "4", "--max-iter", "0"], "max_iterations"),
    ):
        code, out, err = run(capsys, "campaign", *argv, "--out", out_dir)
        assert code == 2, argv
        assert message in err, argv
        assert "certified" not in out, argv
    assert not (tmp_path / "camp").exists()


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_campaign_solver_values_from_flags_or_config_agree(tmp_path, capsys):
    # the flags and a library CampaignConfig with the same values write the same
    # bytes; one sweep cannot converge, so the exit code shows that max_iter arrived
    code, out, _ = run(
        capsys,
        "campaign", "--d-min", "2", "--d-max", "2",
        "--grid", "range", "--n-min", "5", "--n-max", "7",
        "--max-iter", "1", "--tolerance", "1e-9", "--seed", "3",
        "--out", str(tmp_path / "flags"),
    )
    assert code == 3
    assert "NOT CONVERGED" in out
    run_campaign(
        CampaignConfig(
            d_min=2, d_max=2, n_rule="range", n_min=5, n_max=7, certify=False,
            solver=SolverConfig(max_iterations=1, tolerance=1e-9, seed=3),
            output_dir=tmp_path / "library",
        )
    )
    for name in ("report.csv", "roots.csv"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "library" / name).read_bytes()


def test_campaign_defaults_live_in_the_parser():
    config = _campaign_config(build_parser().parse_args(["campaign"]))
    assert (config.d_min, config.d_max) == (4, 10)
    assert config.n_rule == "paper_grid"
    assert config.output_dir == Path("campaign_out")
    assert not config.certify
    assert config.solver == SolverConfig()


def test_unusable_paths_exit_2(tmp_path, capsys, monkeypatch):
    existing_file = tmp_path / "taken"
    existing_file.write_text("")
    solved = []
    monkeypatch.setattr(hsroots.campaign, "find_roots_many", lambda *a: solved.append(a))
    for argv in (
        ["roots", "--d", "2", "--n", "5", "--out", str(tmp_path)],
        ["campaign", "--d-min", "2", "--d-max", "2", "--grid", "diagonal",
         "--out", str(existing_file)],
    ):
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
    assert existing_file.read_text() == ""
    assert solved == []  # the campaign's --out failed before the first pair
