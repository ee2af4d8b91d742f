"""Command-line surface: single-instance queries, batch campaigns, plots.

Exit codes: 0 success/certified, 1 numeric-only pass without certification,
2 invalid arguments, 3 verification failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .bounds import (
    ContourSpec,
    check_aida,
    check_d4_sum_bound,
    check_h_negative,
    check_hidari,
    check_migi,
    rouche_margin,
)
from .campaign import ROOTS_HEADER, CampaignConfig, roots_csv_lines, run_campaign
from .ehrhart import HypersimplexParams, ehrhart_polynomial
from .errors import HsrootsError
from .lattice import CountQuery, count_points
from .roots import SolverConfig, find_roots
from .stability import verify_strip
from .svgplot import write_group_svgs

EXIT_OK = 0
EXIT_NUMERIC_ONLY = 1
EXIT_BAD_ARGS = 2
EXIT_FAILED = 3


def _solver_from_args(args) -> SolverConfig:
    kwargs = {}
    if getattr(args, "max_iter", None) is not None:
        kwargs["max_iterations"] = args.max_iter
    if getattr(args, "tolerance", None) is not None:
        kwargs["tolerance"] = args.tolerance
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return SolverConfig(**kwargs)


def cmd_poly(args) -> int:
    poly = ehrhart_polynomial(HypersimplexParams(args.d, args.n))
    coeffs = list(poly.coeffs)
    if args.format == "plain":
        print(", ".join(str(c) for c in coeffs))
    elif args.format == "csv":
        print("k,numerator,denominator")
        for k, c in enumerate(coeffs):
            print(f"{k},{c.numerator},{c.denominator}")
    else:
        print(
            json.dumps(
                {
                    "d": args.d,
                    "n": args.n,
                    "degree": poly.degree,
                    "coefficients": [str(c) for c in coeffs],
                }
            )
        )
    return EXIT_OK


def cmd_count(args) -> int:
    value = count_points(CountQuery(args.d, args.n, args.m, strict=args.strict))
    if args.format == "json":
        print(
            json.dumps(
                {"d": args.d, "n": args.n, "m": args.m, "strict": args.strict, "count": str(value)}
            )
        )
    else:
        print(value)
    return EXIT_OK


def cmd_roots(args) -> int:
    params = HypersimplexParams(args.d, args.n)
    rootset = find_roots(params, _solver_from_args(args))
    text = "\n".join([ROOTS_HEADER, *roots_csv_lines(args.d, args.n, rootset)]) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not rootset.converged:
        sweeps = f"{rootset.iterations} iterations"
        if rootset.extended_bits is not None:
            sweeps += (
                f" and {rootset.extended_sweeps} exact sweeps at "
                f"{rootset.extended_bits} fractional bits"
            )
        print(
            f"warning: not converged after {sweeps} "
            f"(max residual {rootset.max_residual:.3e})",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    params = HypersimplexParams(args.d, args.n)
    params.require_conjecture_domain()
    verdict = verify_strip(params, find_roots(params).roots)
    if verdict.overall:
        print("CERTIFIED")
        return EXIT_OK
    if verdict.left_ok.status == "Boundary" or verdict.right_ok.status == "Boundary":
        print("BOUNDARY")
    elif not verdict.left_ok.is_stable:
        print("FAILED(left)")
    else:
        print("FAILED(right)")
    return EXIT_FAILED


def cmd_bounds(args) -> int:
    sub = args.bound_check
    if sub == "migi":
        passed = check_migi(args.n, args.d, args.s)
        print(f"migi d={args.d} n={args.n} s={args.s}: {'PASS' if passed else 'FAIL'}")
    elif sub == "hidari":
        passed = check_hidari(args.n, args.d, args.s)
        print(f"hidari d={args.d} n={args.n} s={args.s}: {'PASS' if passed else 'FAIL'}")
    elif sub == "aida":
        lam = args.lam if args.lam is not None else math.sqrt(2.0)
        passed = check_aida(args.n, args.d, args.s, args.alpha, lam)
        print(
            f"aida d={args.d} n={args.n} s={args.s} alpha={args.alpha} lambda={lam:g}: "
            f"{'PASS' if passed else 'FAIL'}"
        )
    elif sub == "rouche":
        kind = {
            "imaginary": "imaginary_axis",
            "left": "left_edge",
            "top": "horizontal_edge",
            "bottom": "horizontal_edge",
        }[args.edge]
        lam = args.lam if args.lam is not None else math.sqrt(2.0)
        if args.edge == "bottom":
            lam = -abs(lam)
        rng = (-args.beta_max, args.beta_max) if args.beta_max is not None else None
        report = rouche_margin(
            ContourSpec(kind, args.d, args.n, range=rng, lam=lam, samples=args.samples)
        )
        passed = report.passed
        print(
            f"rouche d={args.d} n={args.n} edge={args.edge}: "
            f"max_ratio={report.max_ratio:.12g} at "
            f"{report.argmax_point.real:.6g}{report.argmax_point.imag:+.6g}i, "
            f"{'PASS' if passed else 'FAIL'}"
        )
    elif sub == "d4sum":
        passed = check_d4_sum_bound(args.d)
        print(f"d4sum d={args.d}: {'PASS' if passed else 'FAIL'}")
    else:  # hneg
        passed = check_h_negative(args.d)
        print(f"hneg d={args.d}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAILED


def _campaign_config(args) -> CampaignConfig:
    file_conf = {}
    if args.config:
        file_conf = json.loads(Path(args.config).read_text())

    def pick(flag_value, key, default=None):
        if flag_value is not None:
            return flag_value
        return file_conf.get(key, default)

    grid_names = {"paper": "paper_grid", "diagonal": "diagonal", "range": "range"}
    grid = pick(args.grid, "grid", "paper")
    solver = SolverConfig(
        max_iterations=pick(args.max_iter, "max_iter", 200),
        tolerance=pick(args.tolerance, "tolerance"),
        seed=pick(args.seed, "seed", 0),
    )
    certify = args.certify or bool(file_conf.get("certify", False))
    return CampaignConfig(
        d_min=pick(args.d_min, "d_min", 4),
        d_max=pick(args.d_max, "d_max", 10),
        n_rule=grid_names.get(grid, grid),
        n_min=pick(args.n_min, "n_min"),
        n_max=pick(args.n_max, "n_max"),
        solver=solver,
        certify=certify,
        output_dir=Path(pick(args.out, "out", "campaign_out")),
        svg=args.svg or bool(file_conf.get("svg", False)),
    )


def cmd_campaign(args) -> int:
    config = _campaign_config(args)
    report = run_campaign(config)
    for row in report.rows:
        mark = "certified" if row.certified else ("ok" if row.converged else "NOT CONVERGED")
        print(
            f"d={row.d} n={row.n} degree={row.degree} {mark} "
            f"re=[{row.re_min:.6g}, {row.re_max:.6g}] |im|<={row.im_max:.6g} "
            f"res={row.max_residual:.2e} {row.millis:.0f}ms"
        )
    if report.errors:
        print(f"FAILURE: {len(report.errors)} instance(s) errored", file=sys.stderr)
        for message in report.errors:
            print(f"  {message}", file=sys.stderr)
        return EXIT_FAILED
    total = len(report.rows)
    if config.certify:
        print(f"summary: {report.certified_count}/{total} certified")
        return EXIT_OK if report.all_certified else EXIT_FAILED
    print(f"summary: {total} instances, numeric only")
    return EXIT_NUMERIC_ONLY if report.numeric_pass else EXIT_FAILED


def cmd_plot(args) -> int:
    written = write_group_svgs(Path(args.roots), Path(args.out))
    for path in written:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsroots",
        description="Hypersimplex counting polynomials, their roots, and "
        "exact root-strip certification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_dn(p):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    p_poly = commands.add_parser("poly", help="print exact coefficients")
    add_dn(p_poly)
    p_poly.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p_poly.set_defaults(func=cmd_poly)

    p_count = commands.add_parser("count", help="brute-force lattice point count")
    add_dn(p_count)
    p_count.add_argument("--m", type=int, required=True)
    p_count.add_argument("--strict", action="store_true", help="count interior points")
    p_count.add_argument("--format", choices=("plain", "json"), default="plain")
    p_count.set_defaults(func=cmd_count)

    p_roots = commands.add_parser("roots", help="numeric roots as CSV")
    add_dn(p_roots)
    p_roots.add_argument("--tolerance", type=float)
    p_roots.add_argument("--max-iter", type=int)
    p_roots.add_argument("--seed", type=int)
    p_roots.add_argument("--out", help="write CSV here instead of stdout")
    p_roots.set_defaults(func=cmd_roots)

    p_verify = commands.add_parser("verify", help="exact strip certification")
    add_dn(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = commands.add_parser("bounds", help="sampled bound checks")
    checks = p_bounds.add_subparsers(dest="bound_check", required=True)
    for name in ("migi", "hidari"):
        sp = checks.add_parser(name)
        add_dn(sp)
        sp.add_argument("--s", type=int, required=True)
    sp = checks.add_parser("aida")
    add_dn(sp)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp = checks.add_parser("rouche")
    add_dn(sp)
    sp.add_argument("--edge", choices=("imaginary", "left", "top", "bottom"), required=True)
    sp.add_argument("--samples", type=int, default=1001)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--beta-max", type=float)
    for name in ("d4sum", "hneg"):
        sp = checks.add_parser(name)
        sp.add_argument("--d", type=int, required=True)
    p_bounds.set_defaults(func=cmd_bounds)

    p_campaign = commands.add_parser("campaign", help="batch verification over a grid")
    p_campaign.add_argument("--d-min", type=int)
    p_campaign.add_argument("--d-max", type=int)
    p_campaign.add_argument("--grid", choices=("paper", "diagonal", "range"))
    p_campaign.add_argument("--n-min", type=int)
    p_campaign.add_argument("--n-max", type=int)
    p_campaign.add_argument("--tolerance", type=float)
    p_campaign.add_argument("--max-iter", type=int)
    p_campaign.add_argument("--seed", type=int)
    p_campaign.add_argument("--certify", action="store_true", help="run the exact strip test")
    p_campaign.add_argument("--svg", action="store_true", help="emit per-d SVG scatter")
    p_campaign.add_argument("--out", help="output directory")
    p_campaign.add_argument("--config", help="JSON config file; flags override")
    p_campaign.set_defaults(func=cmd_campaign)

    p_plot = commands.add_parser("plot", help="SVG scatter from a roots CSV")
    p_plot.add_argument("--roots", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HsrootsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
