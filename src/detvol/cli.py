"""Command-line interface.

Subcommands: check, constants, enumerate, sweep, pd.  Exit codes are the
machine contract: 0 for holds/vacuous, 2 for bound_inconclusive (or an
enumeration with violations), 1 for input errors.  Table output truncates
reals to --precision digits; csv/json always carry full precision and the
determinant as an exact decimal string.  Exact integers are printed through
``Decimal``, whose conversion to a string is exempt from the interpreter's
int-to-str digit limit (W(20000)'s determinant has 11k digits).
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal

from . import diagram as dgm
from . import families as fam
from . import verify
from .hypvol import bipyramid_volume, constants
from .multigraph import spanning_tree_count


def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    dflt = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--format", default=dflt("table"),
                        choices=("table", "csv", "json"))
    parser.add_argument("--precision", type=int, default=dflt(12), metavar="DIGITS",
                        help="digits shown in table output (6..15, default 12)")
    parser.add_argument("--workers", type=int, default=dflt(None),
                        help="worker processes for sweeps (env DETVOL_WORKERS)")
    parser.add_argument("--oracle-cap", type=int,
                        default=dflt(verify.DEFAULT_ORACLE_CAP),
                        help="max crossings for the matrix-tree determinant cross-check")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="detvol",
        description="Exact determinants and volume bounds for alternating link families.",
    )
    _common_flags(p, suppress=False)
    # flags are accepted after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common], help="check one family member")
    c.add_argument("spec", help="R(a1,...)  B(a1,b1,...)  P(a1,...)  W(n)")

    sub.add_parser("constants", parents=[common],
                   help="print the constants and a bipyramid volume table")

    e = sub.add_parser("enumerate", parents=[common],
                       help="pretzel enumeration up to a twist-region count")
    e.add_argument("--t-max", type=int, default=6)
    e.add_argument("--t-min", type=int, default=3)
    e.add_argument("--rule", default="montesinos", choices=("general", "montesinos"))

    s = sub.add_parser("sweep", parents=[common],
                       help="check every family member up to a crossing cap")
    s.add_argument("--family", required=True, choices=("R", "B", "P", "W"))
    s.add_argument("--sum-max", type=int, required=True,
                   help="total crossing number cap")

    d = sub.add_parser("pd", parents=[common],
                       help="analyze a diagram from a PD file")
    d.add_argument("file", help="PD text ('X a b c d' lines) or JSON array of 4-tuples")
    return p


def _fmt(x: float | None, digits: int) -> str:
    return "-" if x is None else f"{x:.{digits}g}"


def _print_report(r: verify.BoundReport, args) -> None:
    if args.format == "csv":
        print(verify.reports_to_csv([r]), end="")
        return
    if args.format == "json":
        print(verify.reports_to_json([r]))
        return
    d = args.precision
    print(f"spec              {r.spec}")
    print(f"family            {fam.family_name(r.spec)}")
    print(f"crossings         {r.crossing_count}")
    print(f"twist regions     {r.twist_count}")
    print(f"det               {Decimal(r.det)}")
    print(f"2*pi*log(det)     {_fmt(r.two_pi_log_det, d)}")
    for name, value in r.bounds:
        print(f"bound {name:<12} {_fmt(value, d)}")
    print(f"best bound        {_fmt(r.best_bound, d)}")
    print(f"margin            {_fmt(r.margin, d)}")
    print(f"status            {r.hyperbolic_status}" + (f" ({r.reason})" if r.reason else ""))
    print(f"verdict           {r.verdict}")


def cmd_check(args) -> int:
    spec = fam.parse_spec(args.spec)
    report = verify.check(spec, oracle_cap=args.oracle_cap)
    _print_report(report, args)
    return 0 if report.verdict in ("holds", "vacuous") else 2


def cmd_constants(args) -> int:
    k = constants()
    d = args.precision
    rows = [
        ("v4", k.v4.value, "1.01494"),
        ("v8", k.v8.value, "3.66386237"),
        ("gamma", k.gamma.value, "1.4253"),
        ("xi", k.xi.value, "5.0296"),
        ("zeta", k.zeta.value, "3.2099"),
    ]
    print(f"{'name':<8}{'value':<22}reference")
    for name, value, ref in rows:
        print(f"{name:<8}{value:<22.{d}f}{ref}")
    print()
    print("bipyramid volumes")
    for n in range(2, 13):
        print(f"  vol(B_{n:<2}) = {bipyramid_volume(n).value:.{d}f}")
    return 0


def cmd_enumerate(args) -> int:
    if args.t_max > 8:
        print(
            f"warning: t-max={args.t_max} explores a large frontier; "
            "expect a long run",
            file=sys.stderr,
        )
    report = verify.enumerate_pretzels(
        args.t_max,
        t_min=args.t_min,
        oracle_cap=args.oracle_cap,
        rule=args.rule,
    )
    print(report.summary())
    for arr, margin in report.violations[:50]:
        print(f"  VIOLATION {fam.Pretzel(arr)}: margin {margin:.6g}")
    return 0 if not report.violations else 2


def cmd_sweep(args) -> int:
    reports = verify.sweep(
        args.family,
        args.sum_max,
        oracle_cap=args.oracle_cap,
        workers=args.workers,
    )
    if args.format == "json":
        print(verify.reports_to_json(reports))
    elif args.format == "csv":
        print(verify.reports_to_csv(reports), end="")
    else:
        d = args.precision
        for r in reports:
            print(
                f"{str(r.spec):<28} det {Decimal(r.det)!s:<14} "
                f"margin {_fmt(r.margin, min(d, 6)):<12} {r.verdict}"
            )
    return 0


def cmd_pd(args) -> int:
    with open(args.file) as f:
        text = f.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        pd = dgm.parse_pd_json(text)
    else:
        pd = dgm.parse_pd_text(text)
    verify.require_oracle_size(pd.crossing_count)
    diag = dgm.analyze(pd)
    print(f"crossings     {diag.crossing_count}")
    print(f"faces         {diag.faces.counts}")
    print(f"twist regions {diag.twist_count}")
    print(f"tau(shaded)   {Decimal(spanning_tree_count(diag.shaded))}")
    print(f"tau(white)    {Decimal(spanning_tree_count(diag.white))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers is None:
            env = os.environ.get("DETVOL_WORKERS", "1")
            try:
                args.workers = int(env)
            except ValueError:
                raise ValueError(f"DETVOL_WORKERS must be an integer, got {env!r}") from None
        if not (6 <= args.precision <= 15):
            raise ValueError("precision must be in [6, 15]")
        if args.workers < 1:
            raise ValueError("workers must be >= 1")
        handler = {
            "check": cmd_check,
            "constants": cmd_constants,
            "enumerate": cmd_enumerate,
            "sweep": cmd_sweep,
            "pd": cmd_pd,
        }[args.command]
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
