"""Command-line front end: spectra, regularized zeta values, torsion
reports and the verification suite, emitted as deterministic JSON or CSV.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from . import besselx, torsion, verify, zetareg
from .numerics import BracketError, FitError, QuadratureError

SCHEMA = "zetacan/1"


# ----------------------------------------------------------------------
# Deterministic serialization: floats always printed with 17 significant
# digits, keys in construction order.
# ----------------------------------------------------------------------

def _render(obj, out):
    if isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(", ")
            out.write(f'"{k}": ')
            _render(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(", ")
            _render(v, out)
        out.write("]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, float):
        out.write(format(obj, ".17g"))
    elif isinstance(obj, int):
        out.write(str(obj))
    elif obj is None:
        out.write("null")
    else:
        out.write('"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"')


def dumps(obj) -> str:
    buf = io.StringIO()
    _render(obj, buf)
    return buf.getvalue()


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    spectrum = besselx.spectrum(args.m, args.n_max, args.k_max, tol=args.root_tol)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["eigenvalue", "m", "n", "k", "lambda", "multiplicity",
                    "residual"])
        for e in spectrum.entries:
            w.writerow([format(e.eigenvalue, ".17g"), args.m, e.order, e.k,
                        format(e.lam, ".17g"), e.multiplicity, format(e.residual, ".3e")])
        _emit(buf.getvalue(), args.out)
    else:
        doc = {
            "schema": SCHEMA,
            "kind": "spectrum",
            "m": args.m,
            "n_orders": args.n_max,
            "k_max": args.k_max,
            "zero_mode_multiplicity": args.m + 1,
            "entries": [
                {"eigenvalue": e.eigenvalue, "n": e.order, "k": e.k, "lambda": e.lam,
                 "multiplicity": e.multiplicity, "residual": e.residual}
                for e in spectrum.entries
            ],
        }
        _emit(dumps(doc), args.out)
    return 0


def cmd_zeta(args) -> int:
    check = tuple(r for r in args.check_routes.split(",") if r) \
        if args.check_routes else ()
    rep = zetareg.zeta_canonical(args.m, route=args.route, check_routes=check)
    doc = {"schema": SCHEMA, "kind": "zeta"}
    doc.update(rep.as_dict())
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["m", "zeta0", "zeta0_prime", "det_reg", "route"])
        w.writerow([args.m, format(rep.zeta0, ".17g"),
                    format(rep.zeta0_prime, ".17g"),
                    format(rep.det_reg, ".17g"), rep.route])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(dumps(doc), args.out)
    return 0


def cmd_torsion(args) -> int:
    rep = torsion.torsion_g(args.m)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["m", "Tg", "zeta0_prime", "discrepancy"])
        w.writerow([args.m, format(rep.Tg, ".17g"),
                    format(rep.zeta0_prime, ".17g"),
                    format(rep.discrepancy, ".3e")])
        _emit(buf.getvalue(), args.out)
    else:
        doc = {"schema": SCHEMA, "kind": "torsion"}
        doc.update(rep.as_dict())
        _emit(dumps(doc), args.out)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    text = verify.format_results(results)
    _emit(text, args.out)
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zetacan",
        description="Spectral zeta and analytic torsion of canonical "
                    "metrics on the projective line.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_m=True):
        if need_m:
            sp.add_argument("--m", type=_nonnegative_int, required=True,
                            help="twist degree of O(m)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("spectrum", help="eigenvalue table")
    common(sp)
    sp.add_argument("--n-max", type=_positive_int, default=20,
                    help="number of canonical orders")
    sp.add_argument("--k-max", type=_positive_int, default=50,
                    help="zeros per order")
    sp.add_argument("--root-tol", type=_positive_float, default=1e-12)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("zeta", help="regularized zeta report")
    common(sp)
    sp.add_argument("--route", choices=("closed", "profile", "contour"),
                    default="closed")
    sp.add_argument("--check-routes", default="",
                    help="comma-separated extra routes to cross-check")
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("torsion", help="generalized analytic torsion report")
    common(sp)
    sp.set_defaults(func=cmd_torsion)

    sp = sub.add_parser("verify", help="run the invariant suite")
    common(sp, need_m=False)
    sp.add_argument("--suite", default="all",
                    choices=sorted(verify.SUITES) + ["all"])
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (BracketError, QuadratureError, FitError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
