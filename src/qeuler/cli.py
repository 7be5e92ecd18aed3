"""Command-line front end.

Subcommands: euler-table, lvalue, zeta, verify, theorem5.  Exact inputs
(q, s on the p-adic side) are rational strings like "6/1"; floats are
accepted only for s, x, q on the archimedean side.  Exit codes: 0 all
checks pass / value computed, 1 verification failure or non-convergence,
2 invalid input.

Each handler describes its result three ways: a JSON record, a text
report and, for euler-table and verify, a CSV table.  One writer,
``_emit``, builds only the one that --format names and writes it to
--out or to stdout; an --out that cannot be written is invalid input.
A well-formed command line is read straight from the argument table, and
any other goes to the argparse parser built from that table, whose usage,
help and error text those are.
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
import re
import sys
from fractions import Fraction

from .errors import NoConvergence, QEulerError, TruncationNotConverged
from .euler import euler_number_classical, euler_number_q
from .kernel import QParam
from .lfunc import SeriesBudget, l_pq, padic_to_dict, theorem5_verify
from .padic import TeichChar, embed
from .suites import SUITES, run_suite, theorem5_checks
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


def _emit(args, record, text, table=None) -> None:
    """Write a command's result as --format asks, to --out or to stdout:
    the record as key-sorted JSON, the table (a header row, then one row
    per line) as CSV, or the text as it stands.  Each of the three is a
    function of no arguments, and only the one --format names is called."""
    if args.format == "json":
        text = json.dumps(record(), sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(table())
        text = buf.getvalue()
    else:
        text = text()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise QEulerError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# Each command's help line and its arguments as (name, add_argument
# keywords), read both by the argparse parser and by _read_args.
_COMMANDS = {
    "euler-table": (
        "tabulate q-Euler numbers",
        (
            ("--q", dict(type=_parse_q, required=True, help="deformation parameter NUM/DEN (1/1 = classical)")),
            ("--max-m", dict(type=int, default=4)),
            ("--p", dict(type=int, default=None, help="odd prime; adds an embedded residue column")),
            ("--N", dict(type=int, default=6, help="embedding precision")),
            ("--format", dict(choices=("json", "csv", "text"), default="text")),
            ("--out", dict(default=None)),
        ),
    ),
    "zeta": (
        "regularized alternating q-zeta value",
        (
            ("--s", dict(type=float, required=True)),
            ("--s-im", dict(type=float, default=0.0)),
            ("--x", dict(type=float, required=True)),
            ("--q", dict(type=float, required=True, help="real q in (0,1)")),
            ("--eps", dict(type=float, default=1e-13)),
            ("--max-terms", dict(type=int, default=200000)),
            ("--format", dict(choices=("json", "text"), default="text")),
            ("--out", dict(default=None)),
        ),
    ),
    "lvalue": (
        "one l-function value (p-adic or complex)",
        (
            ("--side", dict(choices=("padic", "complex"), required=True)),
            ("--s", dict(required=True, help="exact rational for padic, float for complex")),
            ("--s-im", dict(type=float, help="imaginary part (complex side; default 0)")),
            ("--t", dict(type=int, help="Teichmuller exponent (padic side; default 0)")),
            ("--p", dict(type=int, help="odd prime (padic side; default 5)")),
            ("--q", dict(required=True, help="NUM/DEN (padic) or float (complex)")),
            ("--F", dict(type=int, help="odd multiple of p (padic side; default p)")),
            ("--N", dict(type=int, help="working precision (padic side)")),
            ("--M", dict(type=int, help="target precision (padic side; default 4)")),
            ("--kmax", dict(type=int, help="series term cap (padic side; default 60)")),
            ("--chi", dict(help="trivial or quad:F (complex side; default trivial)")),
            ("--eps", dict(type=float, help="stopping tolerance (complex side; default 1e-13)")),
            ("--format", dict(choices=("json", "text"), default="text")),
            ("--out", dict(default=None)),
        ),
    ),
    "verify": (
        "run a named verification suite",
        (
            ("suite", dict(choices=(*SUITES, "all"))),
            ("--r", dict(type=int, default=None, help="restrict the theorem5 suite to one power")),
            ("--n", dict(type=int, default=None, help="restrict the theorem5 suite to one block count")),
            ("--p", dict(type=int, default=None, help="odd prime (theorem5 suite; default 5)")),
            ("--q", dict(type=_parse_q, default=None, help="NUM/DEN (theorem5 suite; default 6)")),
            ("--M", dict(type=int, default=None, help="target precision (theorem5 suite; default 4)")),
            ("--kmax", dict(type=int, default=None, help="series term cap (theorem5 suite; default 60)")),
            ("--format", dict(choices=("json", "csv", "text"), default="text")),
            ("--out", dict(default=None)),
        ),
    ),
    "theorem5": (
        "staged verification of the p-adic expansion identity",
        (
            ("--r", dict(type=int, default=None, help="power (default: grid {1,2,3})")),
            ("--n", dict(type=int, default=None, help="even block count (default: grid {2,4})")),
            ("--p", dict(type=int, default=5)),
            ("--q", dict(type=_parse_q, default=Fraction(6))),
            ("--M", dict(type=int, default=4, help="target precision")),
            ("--N", dict(type=int, default=None, help="working precision")),
            ("--kmax", dict(type=int, default=60)),
            ("--format", dict(choices=("json", "text"), default="json")),
            ("--out", dict(default=None)),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="q-Euler number laboratory: exact identities, regularized "
        "complex l-values, and p-adic interpolation with a staged verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, options in arguments:
            command_parser.add_argument(name, **options)
    return parser


# argparse's negative-number pattern: no option string of the table looks
# like a negative number, so argparse reads a token of this form as a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(token: str) -> bool:
    return token.startswith("-") and not _NEGATIVE_NUMBER.match(token)


def _read_args(command: str, tokens: list) -> argparse.Namespace | None:
    """`qeuler command *tokens` as the argparse parser reads it, read
    straight from the argument table, or None unless tokens are plain:
    each option an exact table name followed by a value that is a negative
    number or does not start with "-", at most one positional, every
    required argument present, and every value one that its type and
    choices accept."""
    entries = dict(_COMMANDS[command][1])
    positional = next((name for name in entries if not name.startswith("-")), None)
    read = {}
    rest = iter(tokens)
    for token in rest:
        if _is_option(token):
            name, text = token, next(rest, None)
            if name not in entries or text is None or _is_option(text):
                return None
        elif positional is None or positional in read:
            return None
        else:
            name, text = positional, token
        options = entries[name]
        try:
            value = options["type"](text) if "type" in options else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        read[name] = value  # a repeated option keeps its last value
    if any(name not in read and options.get("required", name == positional) for name, options in entries.items()):
        return None
    return argparse.Namespace(
        command=command,
        **{name.lstrip("-").replace("-", "_"): read.get(name, options.get("default")) for name, options in entries.items()},
    )


def _parse_args(argv=None) -> argparse.Namespace:
    """argv parsed as `qeuler` parses it.

    A well-formed command line is read by _read_args and builds no
    parser.  Any other (no command or an unknown one, help, an
    abbreviation, `--name=value`, a value starting with "-" that is not a
    negative number, a missing, stray or invalid argument) goes to the
    argparse parser, whose
    namespace, usage, help and errors those are.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args = _read_args(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


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

    def text():
        lines = [f"q-Euler numbers for q = {_fmt_rational(args.q)}"]
        for row in rows:
            extra = f"  ({row['residue']} mod {row['mod']})" if "residue" in row else ""
            lines.append(f"  m={row['m']}: {row['value']}{extra}")
        return "\n".join(lines) + "\n"

    _emit(
        args,
        lambda: {"config": config, "rows": rows},
        text,
        lambda: [list(rows[0]), *(list(row.values()) for row in rows)],
    )
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
    _emit(args, lambda: record, lambda: f"zeta({s}, x={args.x}; q={args.q}) = {value}\n")
    return 0


def _parse_chi(text: str) -> ComplexChar:
    if text == "trivial":
        return ComplexChar.trivial()
    if text.startswith("quad:"):
        return ComplexChar.quadratic(_parse(int, text.split(":", 1)[1], "modulus"))
    raise QEulerError(f"unknown character {text!r}; use 'trivial' or 'quad:F'")


# the lvalue flags that belong to one side only, with their defaults
_LVALUE_FLAGS = {
    "padic": {"t": 0, "p": 5, "F": None, "N": None, "M": 4, "kmax": 60},
    "complex": {"s_im": 0.0, "chi": "trivial", "eps": 1e-13},
}


def _cmd_lvalue(args) -> int:
    for side, flags in _LVALUE_FLAGS.items():
        for name, default in flags.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif side != args.side:
                raise QEulerError(f"--{name.replace('_', '-')} applies only to the {side} side")
    if args.side == "padic":
        q = QParam(_parse(Fraction, args.q, "rational number"), args.p)
        s = _parse(Fraction, args.s, "rational number")
        F = args.F if args.F is not None else args.p
        budget = SeriesBudget(target=args.M, max_terms=args.kmax)
        chi = TeichChar(args.p, args.t)
        value = l_pq(s, chi, F, q, budget, args.N)
        record = {
            "config": {
                "command": "lvalue",
                "side": "padic",
                "s": _fmt_rational(s),
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
        text = f"l_p(s={_fmt_rational(s)}, w^{chi.exponent}; p={args.p}, q={_fmt_rational(q.value)}) = {value.render()}\n"
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
    _emit(args, lambda: record, lambda: text)
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

    def record():
        return {
            "suite": args.suite,
            "passed": passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        }

    def text():
        lines = [c.line() for c in checks]
        lines.append(f"{'OK' if passed else 'FAILED'}: {sum(c.passed for c in checks)}/{len(checks)} checks passed")
        return "\n".join(lines) + "\n"

    _emit(
        args,
        record,
        text,
        lambda: [["name", "passed", "detail"], *([c.name, c.passed, c.detail] for c in checks)],
    )
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
    _emit(
        args,
        lambda: {"acceptable": ok, "reports": [rep.to_dict() for rep in reports]},
        lambda: "".join(_report_text(rep) for rep in reports),
    )
    return 0 if ok else 1


_HANDLERS = {
    "euler-table": _cmd_euler_table,
    "zeta": _cmd_zeta,
    "lvalue": _cmd_lvalue,
    "verify": _cmd_verify,
    "theorem5": _cmd_theorem5,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
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
