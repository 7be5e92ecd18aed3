"""Sweep the p-adic and exact layers' public values into one sorted JSON file.

Usage:

    python3 scripts/equivalence_sweep.py SRC OUT

imports ``qeuler`` from the directory SRC (the ``src`` of some checkout)
and writes to OUT, for every point of a fixed grid, either
``[residue, precision]`` or ``{"raised": <exception type>}`` of ``H_pq``,
``K_pq``, ``T_pq``, ``l_pq`` and ``K_pq_chi`` (at F = p and 3p, and with a
character over another prime), ``gen_euler_teich`` (every character,
-1 <= n <= 15, precision 0, 1, 3 and 8, so that a negative order and a
precision of no digit meet in both orders of its checks), ``theorem5_lhs``, ``theorem5_rhs`` and
``theorem5_rhs_weighted``, plus
``theorem5_verify(...).to_dict()`` (also at p = 101, and at p = 5 to
target 20, and the type and message of what it raises under two term
limits too short for its series, as for ``theorem5_rhs`` and
``theorem5_rhs_weighted`` there), and ``"num/den"`` of
the exact ``euler_number_q``, ``euler_poly_q``, the three
``alt_power_sum`` forms, ``fermionic_riemann`` and ``theorem5_lhs_exact``
on a grid of inputs that every revision accepts.  The exact-identity
suite's own grid adds the booleans of the three binomial predicates, the
convolution right-hand side (``qeuler.euler.convolution_rhs``) and both
sides of every ``distribution_check``.  Last come the report lines of
every suite in ``qeuler.suites.SUITES``, read through ``run_suite``, and
the exit code and stdout of ``qeuler.cli.main`` for every subcommand in
each of its --format choices, one run that exits 1 and two that exit 2
(stderr is not recorded, so a reworded error message leaves the hash
alone).  The archimedean section records the ``repr`` of ``zeta_Eq``,
``partial_zeta_Hq``, ``partial_zeta_Hq_series``, ``l_q_complex`` and
``gen_euler_complex`` (or the type of what they raise) on a grid of
valid inputs, so a change to ``zeta`` can show its floats bit for bit.
Two checkouts compute the same values when their files are
byte-identical, so running it on both sides of a change and comparing
the sha256 printed at the end is an equivalence check.  Before that total
it prints one sha256 per section (``padic``, ``exact``, ``identities``,
``suite``, ``cli`` and ``arch``, as ``sweep_diff.group`` names them), of
that section's entries written the same way, so a moved value names its
section; ``tests/test_equivalence_sweep.py`` compares these lines with
``tests/sweep_digests.json``.  Everything runs in one process, in
a fixed order, so the per-process series caches fill the same way on both
sides.  Apart from ``sweep_diff.py`` beside it, nothing outside SRC and
OUT is read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from sweep_diff import group

# (p, q): q = 1, integral and non-integral q, and v_p(q - 1) = 1 and 2
POINTS = [
    (5, Fraction(6)),
    (5, Fraction(26)),
    (5, Fraction(31, 6)),
    (5, Fraction(1)),
    (7, Fraction(8)),
    (7, Fraction(50)),
    (31, Fraction(32)),
]
# (target, working precision, max_terms): the default margin, no margin, a
# short term limit, and a high target that few series reach
BUDGETS = [(4, None, 60), (3, 3, 60), (4, 10, 8), (8, 8, 6)]
# (r, n): n = 10 gives [pn]_q the valuation 2 at p = 5
EXPANSION_POINTS = [(1, 2), (2, 2), (2, 4), (3, 4), (1, 10)]
# (p, q, r, n, target): a large prime, where the engine's left-hand side
# and block sums run over 200 terms, and a deep target, where the series
# terms carry residues of high valuation
ENGINE_POINTS = [
    (101, Fraction(102), 2, 2, 4),
    (5, Fraction(6), 2, 2, 20),
    (5, Fraction(1), 2, 2, 20),
]
# (target, working precision, max_terms): term limits at which the block
# series of theorem5_verify certify at no point, and at some only
SHORT_BUDGETS = [(8, 8, 6), (4, 4, 7)]
# exact layer: negative, zero, near-one, integral and non-integral q
EXACT_QS = [Fraction(1, 2), Fraction(2, 3), Fraction(6), Fraction(-3, 7),
            Fraction(32, 31), Fraction(0), Fraction(26), Fraction(31, 6)]
# archimedean layer: q from the head-only regime to near one, negative
# integer, zero, half-integer and complex s, shifts, classes and characters;
# s = -30 (|c| = 1e30 at q = 9/10) and 0.5 + 300i reach the tail after the
# limit-subtracted head's _HEAD_MIN terms
ARCH_QS = [Fraction(1, 2), Fraction(1, 4), Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)]
ARCH_SS = [-3, -2, -1, 0, 0.5, 1.5, complex(0.5, 14), -30, complex(0.5, 300)]
ARCH_XS = [1.0, 1 / 3, 2.0]
ARCH_CLASSES = [(1, 3), (2, 3), (1, 5), (4, 5)]
ARCH_CHARS = ["trivial", "quad:3", "quad:7"]


def exponents(qe, p):
    """Integer, Fraction and PadicApprox exponents; 2 and Fraction(2) share
    one series cache entry, so the one that comes first fills it."""
    return [-2, 1, 2, 3, Fraction(2), Fraction(1, 2), Fraction(-3, 2),
            qe.embed(Fraction(1, 3), p, 10), qe.PadicApprox(p, 1 + p, 6)]


def residues(F, p):
    return [a for a in (1, 2, F - 2, F - 1) if a % p] if F == p else [1, 2, p + 1, F - 1]


def outcome(qe, compute, message=False):
    try:
        value = compute()
    except qe.QEulerError as exc:
        if message:
            return {"raised": type(exc).__name__, "message": str(exc)}
        return {"raised": type(exc).__name__}
    if isinstance(value, qe.PadicApprox):
        return [value.residue, value.precision]
    return value.to_dict()


def sweep(qe) -> dict:
    out = {}
    for p, qv in POINTS:
        q = qe.QParam(qv, p)
        for target, precision, max_terms in BUDGETS:
            budget = qe.SeriesBudget(target, max_terms)
            at = f"p={p} q={qv} budget={target},{precision},{max_terms}"

            def put(name, compute):
                out[f"{at} {name}"] = outcome(qe, compute)

            for F in (p, 3 * p):
                for s in exponents(qe, p):
                    for a in residues(F, p):
                        put(f"H s={s} a={a} F={F}", lambda: qe.H_pq(s, a, F, q, budget, precision))
                        for n in (2, 4):
                            put(f"K n={n} s={s} a={a} F={F}",
                                lambda: qe.K_pq(n, s, a, F, q, budget, precision))
                            put(f"T n={n} s={s} a={a} F={F}",
                                lambda: qe.T_pq(n, s, a, F, q, budget, precision))
            for F in (p, 3 * p):
                for s in exponents(qe, p):
                    for t in (0, 1, 2):
                        chi = qe.TeichChar(p, t)
                        put(f"l s={s} t={t} F={F}", lambda: qe.l_pq(s, chi, F, q, budget, precision))
                        for n in (2, 4):
                            put(f"K_chi n={n} s={s} t={t} F={F}",
                                lambda: qe.K_pq_chi(n, s, chi, F, q, budget, precision))
            for r, n in EXPANSION_POINTS:
                put(f"lhs r={r} n={n}", lambda: qe.theorem5_lhs(
                    r, n, q, target + 6 if precision is None else precision))
                put(f"rhs r={r} n={n}", lambda: qe.theorem5_rhs(r, n, q, budget, precision))
                put(f"rhs_weighted r={r} n={n}",
                    lambda: qe.theorem5_rhs_weighted(r, n, q, budget, precision))
                put(f"verify r={r} n={n}", lambda: qe.theorem5_verify(r, n, q, budget, precision))
        for precision in (0, 1, 3, 8):
            for t in range(p - 1):
                for n in range(-1, 16):
                    out[f"p={p} q={qv} gen_euler N={precision} t={t} n={n}"] = outcome(
                        qe, lambda: qe.gen_euler_teich(n, qe.TeichChar(p, t), q, precision))
        # invalid input: a residue at p, an even F, no working digit, and a
        # character over another prime (at a budget where every series
        # certifies, so the character is the only fault)
        budget = qe.SeriesBudget(4)
        at = f"p={p} q={qv} invalid"
        out[f"{at} H a=p"] = outcome(qe, lambda: qe.H_pq(1, p, 3 * p, q, budget))
        out[f"{at} H F=2p"] = outcome(qe, lambda: qe.H_pq(1, 1, 2 * p, q, budget))
        out[f"{at} rhs N=0"] = outcome(qe, lambda: qe.theorem5_rhs(2, 2, q, budget, 0))
        for t in (0, 2):
            chi = qe.TeichChar(7 if p != 7 else 5, t)
            out[f"{at} l chi over another prime t={t}"] = outcome(
                qe, lambda: qe.l_pq(2, chi, p, q, budget))
            out[f"{at} K_chi chi over another prime t={t}"] = outcome(
                qe, lambda: qe.K_pq_chi(2, 2, chi, p, q, budget))
    for p, qv, r, n, target in ENGINE_POINTS:
        q, budget = qe.QParam(qv, p), qe.SeriesBudget(target)
        out[f"p={p} q={qv} budget={target} verify r={r} n={n}"] = outcome(
            qe, lambda: qe.theorem5_verify(r, n, q, budget))
    for p, qv in POINTS:
        q = qe.QParam(qv, p)
        for target, precision, max_terms in SHORT_BUDGETS:
            budget = qe.SeriesBudget(target, max_terms)
            at = f"p={p} q={qv} budget={target},{precision},{max_terms}"
            for r, n in EXPANSION_POINTS:
                out[f"{at} verify message r={r} n={n}"] = outcome(
                    qe, lambda: qe.theorem5_verify(r, n, q, budget, precision), message=True)
                out[f"{at} rhs message r={r} n={n}"] = outcome(
                    qe, lambda: qe.theorem5_rhs(r, n, q, budget, precision), message=True)
                out[f"{at} rhs_weighted message r={r} n={n}"] = outcome(
                    qe, lambda: qe.theorem5_rhs_weighted(r, n, q, budget, precision), message=True)
    return out


def exact_sweep(qe) -> dict:
    out = {}

    def put(name, value):
        out[f"exact {name}"] = f"{value.numerator}/{value.denominator}"

    for qv in EXACT_QS:
        for m in range(21):
            put(f"q={qv} euler_number m={m}", qe.euler_number_q(m, qv))
        for f in (1, 3, 5):
            for a in range(8):
                for n in range(13):
                    put(f"q={qv} euler_poly n={n} a={a} f={f}",
                        qe.euler_poly_q(n, qe.PolyArg(a, f, qv)))
    for qv in EXACT_QS + [Fraction(1)]:
        for n in range(15):
            for m in range(9):
                put(f"q={qv} alt_power_sum n={n} m={m}", qe.alt_power_sum(n, m, qv))
                if qv != 1:
                    put(f"q={qv} alt_power_sum_closed n={n} m={m}",
                        qe.alt_power_sum_closed(n, m, qv))
                    put(f"q={qv} alt_power_sum_polyform n={n} m={m}",
                        qe.alt_power_sum_polyform(n, m, qv))
    for p, qv in POINTS:
        q = qe.QParam(qv, p)
        for r, n in EXPANSION_POINTS:
            put(f"p={p} q={qv} lhs r={r} n={n}", qe.theorem5_lhs_exact(r, n, q))
        if qv == 1:
            continue
        for level in (1, 2, 3):
            if p**level > 400:
                break
            for m in range(5):
                put(f"p={p} q={qv} fermionic m={m} level={level}",
                    qe.fermionic_riemann(m, q, level))
    return out


def identity_sweep(qe) -> dict:
    out = {}

    def put(name, value):
        out[f"identities {name}"] = (
            value if isinstance(value, (bool, str)) else f"{value.numerator}/{value.denominator}"
        )

    # binomial_identity_checks' grid, limit 10
    for r in range(1, 11):
        for j in range(11):
            for k in range(11):
                if r >= 2:
                    put(f"merge r={r} j={j} k={k}", qe.binom_product_merge(r, j, k))
                    if j + k > 0:
                        put(f"shift r={r} j={j} k={k}", qe.binom_product_shift(r, j, k))
                put(f"tail r={r} j={j} k={k}", qe.binom_tail_merge(r, j, k))
    for qv in EXACT_QS:
        for n in range(11):
            for a in range(7):
                put(f"q={qv} convolution_rhs n={n} a={a}", Fraction(*qe.euler.convolution_rhs(n, a, qv)))
        for n in range(7):
            for m in (1, 3, 5):
                for a, f in ((0, 1), (1, 3), (2, 5)):
                    rep = qe.distribution_check(n, m, qe.PolyArg(a, f, qv))
                    at = f"q={qv} distribution n={n} m={m} x={a}/{f}"
                    put(f"{at} passed", rep.passed)
                    put(f"{at} lhs", rep.lhs)
                    put(f"{at} rhs", rep.rhs)
    return out


def suite_sweep(qe) -> dict:
    return {
        f"suite {name} {check.name}": check.line()
        for name in qe.suites.SUITES
        for check in qe.suites.run_suite(name)
    }


CLI_RUNS = [
    *(["euler-table", "--q", "6/1", "--max-m", "4", "--format", f] for f in ("text", "json", "csv")),
    *(["euler-table", "--q", "1/1", "--max-m", "3", "--p", "5", "--N", "4", "--format", f]
      for f in ("text", "json", "csv")),
    *(["zeta", "--s", "-1", "--x", "1.0", "--q", "0.5", "--format", f] for f in ("text", "json")),
    *(["lvalue", "--side", "padic", "--s", "-2", "--t", "2", "--p", "5", "--q", "6/1", "--M", "4",
       "--format", f] for f in ("text", "json")),
    *(["lvalue", "--side", "complex", "--s", "-1", "--q", "0.5", "--format", f]
      for f in ("text", "json")),
    *(["verify", "exact-identities", "--format", f] for f in ("text", "json", "csv")),
    *(["verify", "theorem5", "--r", "2", "--n", "2", "--format", f] for f in ("text", "json", "csv")),
    *(["theorem5", "--r", "2", "--n", "2", "--format", f] for f in ("text", "json")),
    # below the target: exits 1
    ["lvalue", "--side", "padic", "--s", "2", "--t", "1", "--p", "5", "--q", "6/1", "--N", "3",
     "--M", "4"],
    # invalid input: a grid flag on another suite, and a --format choice argparse rejects
    ["verify", "padic", "--p", "7"],
    ["zeta", "--s", "0", "--x", "1.0", "--q", "0.5", "--format", "csv"],
]


def arch_sweep(qe) -> dict:
    out = {}

    def put(name, compute):
        try:
            value = repr(compute())
        except qe.QEulerError as exc:
            value = {"raised": type(exc).__name__}
        out[f"arch {name}"] = value

    def character(name):
        return qe.ComplexChar.trivial() if name == "trivial" else qe.ComplexChar.quadratic(int(name[5:]))

    for qv in ARCH_QS:
        params = qe.ArchParams(float(qv))
        for s in ARCH_SS:
            for x in ARCH_XS:
                put(f"q={qv} zeta s={s} x={x!r}", lambda: qe.zeta_Eq(s, x, params))
            for a, f in ARCH_CLASSES:
                put(f"q={qv} H s={s} a={a} f={f}", lambda: qe.partial_zeta_Hq(s, a, f, params))
                put(f"q={qv} H_series s={s} a={a} f={f}",
                    lambda: qe.partial_zeta_Hq_series(s, a, f, params))
            for chi in ARCH_CHARS:
                put(f"q={qv} l s={s} chi={chi}", lambda: qe.l_q_complex(s, character(chi), params))
        for k in range(4):
            for chi in ARCH_CHARS:
                put(f"q={qv} gen_euler k={k} chi={chi}",
                    lambda: qe.gen_euler_complex(k, character(chi), qv))
    return out


def cli_sweep(qe) -> dict:
    out = {}
    for argv in CLI_RUNS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = qe.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out[f"cli {' '.join(argv)}"] = {"exit": code, "stdout": stdout.getvalue()}
    return out


def digest(values: dict) -> tuple:
    """(sha256, text) of the sweep file that holds `values`."""
    text = json.dumps(values, sort_keys=True, indent=0) + "\n"
    return hashlib.sha256(text.encode()).hexdigest(), text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that contains the qeuler package")
    parser.add_argument("out", help="JSON file to write")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import qeuler as qe
    import qeuler.cli  # binds qe.cli
    import qeuler.suites  # binds qe.suites

    if Path(qe.__file__).resolve().parent != src / "qeuler":
        sys.exit(f"equivalence_sweep: imported {qe.__file__}, not the package under {src}")
    if hasattr(sys, "set_int_max_str_digits"):  # theorem5_lhs_exact runs to 40,000 digits
        sys.set_int_max_str_digits(0)
    values = (sweep(qe) | exact_sweep(qe) | identity_sweep(qe) | suite_sweep(qe) | cli_sweep(qe)
              | arch_sweep(qe))
    sections = {}
    for key, value in values.items():
        sections.setdefault(group(key)[0], {})[key] = value
    for name, entries in sorted(sections.items()):
        print(f"{digest(entries)[0]}  section {name} ({len(entries)} entries)")
    total, text = digest(values)
    Path(args.out).write_text(text)
    print(f"{total}  {args.out} ({text.count(chr(10)) - 1} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
