"""Command-line surface: single-instance queries and batch campaigns.

A campaign is configured by flags alone.  Each command imports the layers
it runs, so `poly`, `count`, `--help` and argument errors load no numpy.

Exit codes: 0 success/certified, 1 numeric-only pass without certification,
2 invalid arguments or an unreadable/unwritable path, 3 verification failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import HsrootsError

EXIT_OK = 0
EXIT_NUMERIC_ONLY = 1
EXIT_BAD_ARGS = 2
EXIT_FAILED = 3


# the flags that set a SolverConfig field
_SOLVER_FIELDS = {"max_iter": "max_iterations", "tolerance": "tolerance", "seed": "seed"}


def _solver_config(args):
    """A SolverConfig from the solver flags that were given; SolverConfig
    supplies the defaults."""
    from .roots import SolverConfig

    given = {field: getattr(args, key) for key, field in _SOLVER_FIELDS.items()}
    return SolverConfig(**{field: value for field, value in given.items() if value is not None})


def cmd_poly(args) -> int:
    from .ehrhart import HypersimplexParams, ehrhart_polynomial

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
    from .lattice import CountQuery, count_points

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
    from .campaign import ROOTS_HEADER, roots_csv_lines
    from .ehrhart import HypersimplexParams
    from .roots import find_roots

    params = HypersimplexParams(args.d, args.n)
    config = _solver_config(args)
    rootset = find_roots(params, config)
    text = "\n".join([ROOTS_HEADER, *roots_csv_lines(args.d, args.n, rootset)]) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not rootset.converged:
        if rootset.iterations == 0 and rootset.extended_bits is None:
            # no sweep ran (n = 2d), so only the residual certificate failed
            tolerance = config.resolved_tolerance(params.degree)
            detail = (
                f": max residual {rootset.max_residual:.3e} above the tolerance {tolerance:.3e}"
            )
        else:
            sweeps = f"{rootset.iterations} iterations"
            if rootset.extended_bits is not None:
                sweeps += (
                    f" and {rootset.extended_sweeps} exact sweeps at "
                    f"{rootset.extended_bits} fractional bits"
                )
            detail = f" after {sweeps} (max residual {rootset.max_residual:.3e})"
        print(f"warning: not converged{detail}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    from .ehrhart import HypersimplexParams
    from .roots import find_roots
    from .stability import BOUNDARY, verify_strip

    params = HypersimplexParams(args.d, args.n)
    params.require_conjecture_domain()
    verdict = verify_strip(params, find_roots(params).roots)
    if verdict.overall:
        print("CERTIFIED")
        return EXIT_OK
    if BOUNDARY in (verdict.left_ok.status, verdict.right_ok.status):
        print("BOUNDARY")
    elif not verdict.left_ok.is_stable:
        print("FAILED(left)")
    else:
        print("FAILED(right)")
    return EXIT_FAILED


def cmd_bounds(args) -> int:
    from .bounds import (
        ContourSpec,
        check_aida,
        check_d4_sum_bound,
        check_h_negative,
        check_hidari,
        check_migi,
        rouche_margin,
    )

    sub = args.bound_check
    if sub in ("migi", "hidari"):
        passed = {"migi": check_migi, "hidari": check_hidari}[sub](args.n, args.d, args.s)
        print(f"{sub} d={args.d} n={args.n} s={args.s}: {'PASS' if passed else 'FAIL'}")
    elif sub == "aida":
        passed = check_aida(args.n, args.d, args.s, args.alpha, args.lam)
        print(
            f"aida d={args.d} n={args.n} s={args.s} alpha={args.alpha} lambda={args.lam:g}: "
            f"{'PASS' if passed else 'FAIL'}"
        )
    elif sub == "rouche":
        kinds = {"imaginary": "imaginary_axis", "left": "left_edge"}
        kind = kinds.get(args.edge, "horizontal_edge")
        lam = args.lam
        if kind == "horizontal_edge":  # the edge, not the sign of lambda, picks top or bottom
            lam = math.copysign(lam, 1.0 if args.edge == "top" else -1.0)
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
        if math.isnan(report.max_ratio):
            print(
                "note: the ratio terms overflow doubles at the sampled heights",
                file=sys.stderr,
            )
    else:
        passed = {"d4sum": check_d4_sum_bound, "hneg": check_h_negative}[sub](args.d)
        print(f"{sub} d={args.d}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAILED


def _campaign_config(args):
    from .campaign import CampaignConfig

    return CampaignConfig(
        d_min=args.d_min,
        d_max=args.d_max,
        n_rule="paper_grid" if args.grid == "paper" else args.grid,
        n_min=args.n_min,
        n_max=args.n_max,
        solver=_solver_config(args),
        certify=args.certify,
        output_dir=Path(args.out),
    )


def cmd_campaign(args) -> int:
    from .campaign import run_campaign

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

    p_count = commands.add_parser("count", help="lattice point count by dynamic programming")
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
    sp.add_argument("--lambda", dest="lam", type=float, default=math.sqrt(2.0))
    sp = checks.add_parser("rouche")
    add_dn(sp)
    sp.add_argument("--edge", choices=("imaginary", "left", "top", "bottom"), required=True)
    sp.add_argument("--samples", type=int, default=1001)
    sp.add_argument("--lambda", dest="lam", type=float, default=math.sqrt(2.0))
    sp.add_argument("--beta-max", type=float)
    for name in ("d4sum", "hneg"):
        sp = checks.add_parser(name)
        sp.add_argument("--d", type=int, required=True)
    p_bounds.set_defaults(func=cmd_bounds)

    p_campaign = commands.add_parser("campaign", help="batch verification over a grid")
    p_campaign.add_argument("--d-min", type=int, default=4)
    p_campaign.add_argument("--d-max", type=int, default=10)
    p_campaign.add_argument("--grid", choices=("paper", "diagonal", "range"), default="paper")
    p_campaign.add_argument("--n-min", type=int)
    p_campaign.add_argument("--n-max", type=int)
    p_campaign.add_argument("--tolerance", type=float)
    p_campaign.add_argument("--max-iter", type=int)
    p_campaign.add_argument("--seed", type=int)
    p_campaign.add_argument("--certify", action="store_true", help="run the exact strip test")
    p_campaign.add_argument("--out", default="campaign_out", help="output directory")
    p_campaign.set_defaults(func=cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HsrootsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
