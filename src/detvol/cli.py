"""Command-line interface.

Subcommands: check, constants, enumerate, sweep, pd, each with its own
options after its name.  Exit codes are the machine contract: 0 for
holds/vacuous, 2 for bound_inconclusive (a check, a sweep with any such row,
or an enumeration with violations), 1 for input and usage errors, 141 when
stdout's reader closes the pipe.  The check table truncates reals to
--precision digits and the sweep table to 6; csv/json carry full precision
and the determinant as an exact decimal string.  Exact integers are printed
through ``Decimal``, whose conversion to a string is exempt from the
interpreter's int-to-str digit limit (W(20000)'s determinant has 11k digits).
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal

from . import diagram as dgm
from . import families as fam
from . import verify
from .hypvol import GAMMA, V4, V8, XI, ZETA, bipyramid_volume
from .multigraph import spanning_tree_count

# enumerate lists this many violations, then counts the rest
MAX_VIOLATION_LINES = 50
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left
# pd reads at most this many bytes of a file, as UTF-8.  The largest PD that
# pd accepts, 400 crossings (verify.MAX_ORACLE_CROSSINGS), is 7-9 KB in either
# format with labels under 800 and tens of KB with long labels, so a longer
# file is refused after this much is read, not held whole in memory.
MAX_PD_FILE_BYTES = 1 << 20


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every input error; 2 means bound_inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(
        prog="detvol",
        description="Exact determinants and volume bounds for alternating link families.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # each subcommand declares exactly the options its handler reads
    fmt = dict(default="table", choices=("table", "csv", "json"))
    precision = dict(type=int, default=12, choices=range(6, 16), metavar="DIGITS",
                     help="digits shown in table output (6..15, default 12)")
    oracle_cap = dict(type=int, default=verify.DEFAULT_ORACLE_CAP,
                      help="max crossings for the matrix-tree determinant cross-check")

    c = sub.add_parser("check", help="check one family member")
    c.add_argument("spec", help="R(a1,...)  B(a1,b1,...)  P(a1,...)  W(n)")
    c.add_argument("--format", **fmt)
    c.add_argument("--precision", **precision)
    c.add_argument("--oracle-cap", **oracle_cap)
    c.set_defaults(handler=cmd_check)

    k = sub.add_parser("constants", help="print the constants and a bipyramid volume table")
    k.add_argument("--precision", **precision)
    k.set_defaults(handler=cmd_constants)

    e = sub.add_parser("enumerate", help="pretzel enumeration up to a twist-region count")
    e.add_argument("--t-max", type=int, default=6)
    e.add_argument("--t-min", type=int, default=3)
    e.add_argument("--oracle-cap", **oracle_cap)
    e.set_defaults(handler=cmd_enumerate)

    s = sub.add_parser("sweep", help="check every family member up to a crossing cap")
    s.add_argument("--family", required=True, choices=("R", "B", "P", "W"))
    s.add_argument("--sum-max", type=int, required=True,
                   help="total crossing number cap")
    s.add_argument("--format", **fmt)
    s.add_argument("--workers", type=int, default=1, help="worker processes")
    s.add_argument("--oracle-cap", **oracle_cap)
    s.set_defaults(handler=cmd_sweep)

    d = sub.add_parser("pd", help="analyze a diagram from a PD file")
    d.add_argument("file", help="PD text ('X a b c d' lines) or JSON array of 4-tuples")
    d.set_defaults(handler=cmd_pd)
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
    for name, value in r.bounds.items():
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
    d = args.precision
    rows = [
        ("v4", V4.value, "1.01494"),
        ("v8", V8.value, "3.66386237"),
        ("gamma", GAMMA.value, "1.4253"),
        ("xi", XI.value, "5.0296"),
        ("zeta", ZETA.value, "3.2099"),
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
    if 8 < args.t_max <= verify.MAX_ENUMERATION_T:
        print(
            f"warning: t-max={args.t_max} explores a large frontier; "
            "expect a long run",
            file=sys.stderr,
        )
    report = verify.enumerate_pretzels(args.t_max, t_min=args.t_min, oracle_cap=args.oracle_cap)
    print(report.summary())
    for arr, margin in report.violations[:MAX_VIOLATION_LINES]:
        print(f"  VIOLATION {fam.Pretzel(arr)}: margin {margin:.6g}")
    if len(report.violations) > MAX_VIOLATION_LINES:
        print(f"  ... and {len(report.violations) - MAX_VIOLATION_LINES} more")
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
        for r in reports:
            print(
                f"{str(r.spec):<28} det {Decimal(r.det)!s:<14} "
                f"margin {_fmt(r.margin, 6):<12} {r.verdict}"
            )
    return 2 if any(r.verdict == "bound_inconclusive" for r in reports) else 0


def cmd_pd(args) -> int:
    with open(args.file, "rb") as f:
        data = f.read(MAX_PD_FILE_BYTES + 1)
    if len(data) > MAX_PD_FILE_BYTES:
        raise ValueError(f"PD file is over the limit of {MAX_PD_FILE_BYTES} bytes")
    text = data.decode()
    stripped = text.lstrip()
    if stripped.startswith("["):
        pd = dgm.parse_pd_json(text)
    else:
        pd = dgm.parse_pd_text(text)
    verify.require_oracle_size(pd.crossing_count)
    diag = dgm.analyze(pd)
    print(f"crossings     {pd.crossing_count}")
    print(f"faces         {dict(diag.faces)}")
    print(f"twist regions {diag.twist_count}")
    print(f"tau(shaded)   {Decimal(spanning_tree_count(diag.shaded))}")
    print(f"tau(white)    {Decimal(spanning_tree_count(diag.white))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit; let that write succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
