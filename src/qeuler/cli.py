"""Command-line front end.

Subcommands: euler-table, lvalue, zeta, verify, theorem5.  Exact inputs
(q, s on the p-adic side) are rational strings like "6/1"; floats are
accepted only for s, x, q on the archimedean side.  Exit codes: 0 all
checks pass / value computed, 1 verification failure or non-convergence,
2 invalid input.

Serialization rules: rationals as "num/den" strings (never floats),
p-adic values as {"residue", "mod", "valuation"}, complex values as
{"re", "im"} float strings.  JSON output is key-sorted so identical
configurations reproduce byte-identical records.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .errors import NoConvergence, QEulerError, TruncationNotConverged
from .euler import euler_number_classical, euler_number_q
from .kernel import QParam
from .lfunc import SeriesBudget, l_pq, padic_to_dict, theorem5_verify
from .padic import TeichChar, embed
from .suites import run_suite, theorem5_checks
from .zeta import ArchParams, ComplexChar, l_q_complex, zeta_Eq


def _parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse(kind, text: str, what: str):
    """kind(text) for a number read inside a command, invalid input on failure."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise QEulerError(f"not a {what}: {text!r}") from exc


def _fmt_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _fmt_complex(z: complex) -> dict:
    return {"re": repr(float(z.real)), "im": repr(float(z.imag))}


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(record, out_path) -> None:
    _emit(json.dumps(record, sort_keys=True, indent=2) + "\n", out_path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="q-Euler number laboratory: exact identities, regularized "
        "complex l-values, and p-adic interpolation with a staged verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("euler-table", help="tabulate q-Euler numbers")
    t.add_argument("--q", type=_parse_q, required=True, help="deformation parameter NUM/DEN (1/1 = classical)")
    t.add_argument("--max-m", type=int, default=4)
    t.add_argument("--p", type=int, default=None, help="odd prime; adds an embedded residue column")
    t.add_argument("--N", type=int, default=6, help="embedding precision")
    t.add_argument("--format", choices=("json", "csv", "text"), default="text")
    t.add_argument("--out", default=None)

    z = sub.add_parser("zeta", help="regularized alternating q-zeta value")
    z.add_argument("--s", type=float, required=True)
    z.add_argument("--s-im", type=float, default=0.0)
    z.add_argument("--x", type=float, required=True)
    z.add_argument("--q", type=float, required=True, help="real q in (0,1)")
    z.add_argument("--eps", type=float, default=1e-13)
    z.add_argument("--max-terms", type=int, default=200000)
    z.add_argument("--format", choices=("json", "text"), default="text")
    z.add_argument("--out", default=None)

    lv = sub.add_parser("lvalue", help="one l-function value (p-adic or complex)")
    lv.add_argument("--side", choices=("padic", "complex"), required=True)
    lv.add_argument("--s", required=True, help="exact rational for padic, float for complex")
    lv.add_argument("--s-im", type=float, default=0.0, help="imaginary part (complex side)")
    lv.add_argument("--t", type=int, default=0, help="Teichmuller exponent (padic side)")
    lv.add_argument("--p", type=int, default=5)
    lv.add_argument("--q", required=True, help="NUM/DEN (padic) or float (complex)")
    lv.add_argument("--F", type=int, default=None, help="odd multiple of p (default p)")
    lv.add_argument("--N", type=int, default=None, help="working precision")
    lv.add_argument("--M", type=int, default=4, help="target precision")
    lv.add_argument("--kmax", type=int, default=60)
    lv.add_argument("--chi", default="trivial", help="trivial or quad:F (complex side)")
    lv.add_argument("--eps", type=float, default=1e-13)
    lv.add_argument("--format", choices=("json", "text"), default="text")
    lv.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", choices=("exact-identities", "complex", "padic", "theorem5", "all"))
    v.add_argument("--r", type=int, default=None, help="restrict the theorem5 suite to one power")
    v.add_argument("--n", type=int, default=None, help="restrict the theorem5 suite to one block count")
    v.add_argument("--p", type=int, default=None, help="odd prime (theorem5 suite; default 5)")
    v.add_argument("--q", type=_parse_q, default=None, help="NUM/DEN (theorem5 suite; default 6)")
    v.add_argument("--M", type=int, default=None, help="target precision (theorem5 suite; default 4)")
    v.add_argument("--kmax", type=int, default=None, help="series term cap (theorem5 suite; default 60)")
    v.add_argument("--format", choices=("json", "csv", "text"), default="text")
    v.add_argument("--out", default=None)

    th = sub.add_parser("theorem5", help="staged verification of the p-adic expansion identity")
    th.add_argument("--r", type=int, default=None, help="power (default: grid {1,2,3})")
    th.add_argument("--n", type=int, default=None, help="even block count (default: grid {2,4})")
    th.add_argument("--p", type=int, default=5)
    th.add_argument("--q", type=_parse_q, default=Fraction(6))
    th.add_argument("--M", type=int, default=4, help="target precision")
    th.add_argument("--N", type=int, default=None, help="working precision")
    th.add_argument("--kmax", type=int, default=60)
    th.add_argument("--format", choices=("json", "text"), default="json")
    th.add_argument("--out", default=None)

    return parser


def _cmd_euler_table(args) -> int:
    if args.max_m < 0:
        raise QEulerError("--max-m must be >= 0")
    rows = []
    for m in range(args.max_m + 1):
        value = euler_number_classical(m) if args.q == 1 else euler_number_q(m, args.q)
        row = {"m": m, "value": _fmt_rational(value)}
        if args.p is not None:
            row.update(padic_to_dict(embed(value, args.p, args.N)))
        rows.append(row)
    config = {
        "command": "euler-table",
        "q": _fmt_rational(args.q),
        "max_m": args.max_m,
        "p": args.p,
        "N": args.N if args.p is not None else None,
    }
    if args.format == "json":
        _emit_json({"config": config, "rows": rows}, args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        fields = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"q-Euler numbers for q = {_fmt_rational(args.q)}"]
        for row in rows:
            extra = f"  ({row['residue']} mod {row['mod']})" if "residue" in row else ""
            lines.append(f"  m={row['m']}: {row['value']}{extra}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_zeta(args) -> int:
    s = complex(args.s, args.s_im)
    if s.imag == 0:
        s = s.real
    params = ArchParams(q=args.q, eps=args.eps, max_terms=args.max_terms)
    value = zeta_Eq(s, args.x, params)
    record = {
        "config": {
            "command": "zeta",
            "s": repr(args.s),
            "s_im": repr(args.s_im),
            "x": repr(args.x),
            "q": repr(args.q),
            "eps": repr(args.eps),
            "max_terms": args.max_terms,
        },
        "value": _fmt_complex(value),
    }
    if args.format == "json":
        _emit_json(record, args.out)
    else:
        _emit(f"zeta({s}, x={args.x}; q={args.q}) = {value}\n", args.out)
    return 0


def _parse_chi(text: str) -> ComplexChar:
    if text == "trivial":
        return ComplexChar.trivial()
    if text.startswith("quad:"):
        return ComplexChar.quadratic(_parse(int, text.split(":", 1)[1], "modulus"))
    raise QEulerError(f"unknown character {text!r}; use 'trivial' or 'quad:F'")


def _cmd_lvalue(args) -> int:
    if args.side == "padic":
        q = QParam(_parse(Fraction, args.q, "rational number"), args.p)
        s_frac = _parse(Fraction, args.s, "rational number")
        s = int(s_frac) if s_frac.denominator == 1 else s_frac
        F = args.F if args.F is not None else args.p
        budget = SeriesBudget(target=args.M, max_terms=args.kmax)
        chi = TeichChar(args.p, args.t)
        value = l_pq(s, chi, F, q, budget, args.N)
        record = {
            "config": {
                "command": "lvalue",
                "side": "padic",
                "s": _fmt_rational(s_frac),
                "t": args.t,
                "p": args.p,
                "q": _fmt_rational(q.value),
                "F": F,
                "N": args.N,
                "M": args.M,
                "kmax": args.kmax,
            },
            "value": padic_to_dict(value),
            "precision": value.precision,
        }
        text = f"l_p(s={_fmt_rational(s_frac)}, w^{chi.exponent}; p={args.p}, q={_fmt_rational(q.value)}) = {value.render()}\n"
    else:
        s_re = _parse(float, args.s, "real number")
        q_re = _parse(float, args.q, "real number")
        s = complex(s_re, args.s_im)
        if s.imag == 0:
            s = s.real
        chi = _parse_chi(args.chi)
        params = ArchParams(q=q_re, eps=args.eps)
        value = l_q_complex(s, chi, params)
        record = {
            "config": {
                "command": "lvalue",
                "side": "complex",
                "s": repr(s_re),
                "s_im": repr(args.s_im),
                "chi": args.chi,
                "q": repr(q_re),
                "eps": repr(args.eps),
            },
            "value": _fmt_complex(value),
        }
        text = f"l(s={s}, chi={args.chi}; q={args.q}) = {value}\n"
    if args.format == "json":
        _emit_json(record, args.out)
    else:
        _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    grid = {
        "rs": None if args.r is None else (args.r,),
        "ns": None if args.n is None else (args.n,),
        "p": args.p,
        "qnum": args.q,
        "target": args.M,
        "max_terms": args.kmax,
    }
    grid = {key: value for key, value in grid.items() if value is not None}
    if not grid:
        checks = run_suite(args.suite)
    elif args.suite == "theorem5":
        checks = theorem5_checks(**grid)
    else:
        raise QEulerError("--r, --n, --p, --q, --M and --kmax apply only to the theorem5 suite")
    passed = all(c.passed for c in checks)
    if args.format == "json":
        record = {
            "suite": args.suite,
            "passed": passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ],
        }
        _emit_json(record, args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "passed", "detail"])
        for c in checks:
            writer.writerow([c.name, c.passed, c.detail])
        _emit(buf.getvalue(), args.out)
    else:
        lines = [c.line() for c in checks]
        lines.append(f"{'OK' if passed else 'FAILED'}: {sum(c.passed for c in checks)}/{len(checks)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed else 1


def _report_text(report) -> str:
    lines = [
        f"expansion identity at r={report.r}, n={report.n}, p={report.prime}, "
        f"q={_fmt_rational(report.q)}, target p^{report.target}",
        f"  lhs = {report.lhs.render()}",
        f"  rhs = {report.rhs.render()}",
        f"  agreement valuation {'>=' if report.agreement_saturated else '='} "
        f"{report.agreement_valuation}",
    ]
    for s in report.stages:
        mark = "ok" if s.passed else "FAIL"
        extra = ""
        if s.agreement_valuation is not None:
            extra = f" (v{'>=' if s.saturated else '='}{s.agreement_valuation})"
        tag = " [diagnostic]" if s.diagnostic else ""
        lines.append(f"  stage {s.name}{tag}: {mark}{extra}")
    note = report.localization_note()
    if note:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"


def _cmd_theorem5(args) -> int:
    q = QParam(args.q, args.p)
    budget = SeriesBudget(target=args.M, max_terms=args.kmax)
    rs = [args.r] if args.r is not None else [1, 2, 3]
    ns = [args.n] if args.n is not None else [2, 4]
    reports = [theorem5_verify(r, n, q, budget, args.N) for r in rs for n in ns]
    ok = all(rep.acceptable for rep in reports)
    if args.format == "json":
        record = {
            "acceptable": ok,
            "reports": [rep.to_dict() for rep in reports],
        }
        _emit_json(record, args.out)
    else:
        _emit("".join(_report_text(rep) for rep in reports), args.out)
    return 0 if ok else 1


_HANDLERS = {
    "euler-table": _cmd_euler_table,
    "zeta": _cmd_zeta,
    "lvalue": _cmd_lvalue,
    "verify": _cmd_verify,
    "theorem5": _cmd_theorem5,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (NoConvergence, TruncationNotConverged) as exc:
        print(f"computation did not converge: {exc}", file=sys.stderr)
        return 1
    except QEulerError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
