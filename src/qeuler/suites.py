"""Named verification suites driven by the CLI and the acceptance tests.

:data:`SUITES` maps each suite name to its check functions, in order.
Each check function runs a fixed grid and returns a list of
:class:`CheckResult`; a check compares an implementation path against an
independent oracle (direct summation, exact identity, higher-precision
recomputation, doubled truncation limit) and records a one-line outcome.
Only :func:`theorem5_checks` takes its grid as arguments.  Grid iteration
order is deterministic, so output ordering is stable regardless of how
the checks are scheduled.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .errors import QEulerError
from .euler import (
    PolyArg,
    _alt_power_sums,
    _closed_form_pairs,
    _convolution_pairs,
    _distribution_pairs,
    _euler_row_pairs,
    _fermionic_sums,
    _poly_form_pairs,
    convolution_rhs,  # unused here: the tests and the sweep script read suites.convolution_rhs
    euler_number_q,
    euler_poly_q,
)
from .kernel import (
    QParam,
    _identity_rows,
    _merge_holds,
    _pascal_rows,
    _shift_holds,
    _tail_holds,
    _Value,
    padic_valuation_int,
    q_int,
)
from .lfunc import (
    H_pq,
    K_pq_chi,
    SeriesBudget,
    T_pq_chi,
    l_pq,
    theorem5_verify,
)
from .padic import TeichChar, agreement, embed, teichmuller
from .zeta import ArchParams, ComplexChar, gen_euler_complex, l_q_complex, zeta_Eq


class CheckResult(_Value):
    _fields = __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set(name, passed, detail)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}  {self.detail}".rstrip()


def _check(name, passed, detail="") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# -- exact identity suite ---------------------------------------------------


def _grid_checks(name, qs, points, holds_at, detail):
    """One check per q in qs: holds_at(q), the predicate of that q's grid,
    at every grid point, with the failing points listed in grid order."""
    out = []
    for qv in qs:
        holds = holds_at(qv)
        bad = [point for point in points if not holds(*point)]
        out.append(
            _check(f"{name}[q={qv}]", not bad, detail + (f", failures: {bad}" if bad else ""))
        )
    return out


_ALT_NS, _ALT_MS = range(1, 13), range(1, 11)


def _forms_agree_at(qv):
    """The alternating-sum predicate at one q: the direct sums of the whole
    grid come from one pass, each m's closed and polynomial forms from one
    row over n, and each form is compared with them cross-multiplied."""
    u, v = qv.numerator, qv.denominator
    direct = _alt_power_sums(_ALT_NS, _ALT_MS, u, v)
    holds = {}
    for m in _ALT_MS:
        rows = zip(_ALT_NS, _closed_form_pairs(m, _ALT_NS, u, v), _poly_form_pairs(m, _ALT_NS, u, v))
        for n, (closed, closed_den), (poly, poly_den) in rows:
            num, den = direct[n, m]
            holds[n, m] = num * closed_den == closed * den and num * poly_den == poly * den
    return lambda *point: holds[point]


def alternating_sum_checks():
    """Direct alternating power sum == closed form == polynomial form,
    exactly, over the whole grid."""
    return _grid_checks(
        "alternating-sum-forms",
        (Fraction(1, 2), Fraction(2, 3), Fraction(6)),
        [(n, m) for n in _ALT_NS for m in _ALT_MS],
        _forms_agree_at,
        "n<=12, m<=10",
    )


_CONV_NS, _CONV_AS = range(11), range(7)


def _convolution_holds_at(qv):
    """The convolution predicate at one q: for each n, both sides over the
    row of points a, compared cross-multiplied."""
    u, v = qv.numerator, qv.denominator
    holds = {}
    for n in _CONV_NS:
        rows = zip(_CONV_AS, _euler_row_pairs(n, _CONV_AS, u, v), _convolution_pairs(n, _CONV_AS, u, v))
        for a, (lhs, lhs_den), (num, den) in rows:
            holds[n, a] = lhs * den == num * lhs_den
    return lambda *point: holds[point]


def convolution_checks():
    """Euler polynomial at integer points == its binomial convolution,
    compared cross-multiplied."""
    return _grid_checks(
        "euler-convolution",
        (Fraction(1, 2), Fraction(6)),
        [(n, a) for n in _CONV_NS for a in _CONV_AS],
        _convolution_holds_at,
        "n<=10, a<=6",
    )


def binomial_identity_checks():
    """The three named binomial-coefficient identities on exhaustive grids:
    each r's binomial rows are read once, then each identity sweeps its
    (j, k) grid."""
    size = 11
    grid = [(j, k) for j in range(size) for k in range(size)]
    pascal = _pascal_rows(size)
    rows = {r: _identity_rows(r, size) for r in range(1, 11)}
    # grid[0] is (0, 0), outside the shift's domain j + k > 0
    shift_ok = all(_shift_holds(r, grid[1:], rows[r], pascal) for r in range(2, 11))
    merge_ok = all(_merge_holds(r, grid, rows[r], pascal) for r in range(2, 11))
    tail_ok = all(_tail_holds(r, grid, rows[r], pascal) for r in range(1, 11))
    return [
        _check("binom-product-shift", shift_ok, "r,j,k <= 10"),
        _check("binom-product-merge", merge_ok, "r,j,k <= 10"),
        _check("binom-tail-merge", tail_ok, "r,j,k <= 10"),
    ]


_DIST_NS, _DIST_MS, _DIST_XS = range(7), (1, 3, 5), ((0, 1), (1, 3), (2, 5))


def _distribution_holds_at(qv):
    """The distribution predicate at one q: for each (n, x), one left side
    and the row of right sides over m, compared cross-multiplied."""
    u, v = qv.numerator, qv.denominator
    holds = {}
    for n in _DIST_NS:
        for a, f in _DIST_XS:
            (lhs, lhs_den), rhs = _distribution_pairs(n, _DIST_MS, a, f, u, v)
            for m, (num, den) in zip(_DIST_MS, rhs):
                holds[n, m, a, f] = lhs * den == num * lhs_den
    return lambda *point: holds[point]


def distribution_checks():
    """Multiplication theorem, exactly, at x in {0, 1/3, 2/5}."""
    return _grid_checks(
        "distribution-relation",
        (Fraction(1, 2), Fraction(6)),
        [(n, m, a, f) for n in _DIST_NS for m in _DIST_MS for a, f in _DIST_XS],
        _distribution_holds_at,
        "n<=6, m in (1, 3, 5), x in {0, 1/3, 2/5}",
    )


# -- complex suite ----------------------------------------------------------

TOL = 1e-8


def _worst(errors) -> float:
    """The largest error, or nan when any error is nan (max() would drop
    it), so that a nan anywhere fails the `worst < TOL` test."""
    return math.nan if any(math.isnan(e) for e in errors) else max(0.0, *errors)


def zeta_interpolation_checks():
    """Regularized zeta at negative integers vs exact Euler polynomials,
    plus one fractional-shift case with an exactly representable base."""
    out = []
    for qv in (Fraction(1, 2), Fraction(1, 4)):
        params = ArchParams(q=float(qv))
        errors = [
            abs(float(euler_poly_q(k, PolyArg(x, 1, qv))) - zeta_Eq(-k, float(x), params))
            for k in range(7)
            for x in (1, 2)
        ]
        worst = _worst(errors)
        out.append(
            _check(
                f"zeta-negative-integers[q={qv}]",
                worst < TOL,
                f"k<=6, x in {{1,2}}, worst |err| = {worst:.2e}",
            )
        )
    exact = float(euler_poly_q(2, PolyArg(1, 3, Fraction(1, 2))))
    err = abs(zeta_Eq(-2, 1 / 3, ArchParams(q=0.5**3)) - exact)
    out.append(_check("zeta-fractional-shift", err < TOL, f"x=1/3, base q^3, |err| = {err:.2e}"))
    return out


def l_value_checks():
    """l-values at negative integers vs the generalized Euler numbers."""
    params = ArchParams(q=0.5)
    out = []
    for chi, label in ((ComplexChar.trivial(), "trivial"), (ComplexChar.quadratic(3), "quad3")):
        errors = [
            abs(l_q_complex(-k, chi, params) - gen_euler_complex(k, chi, Fraction(1, 2)))
            for k in range(1, 6)
        ]
        worst = _worst(errors)
        out.append(
            _check(
                f"l-value-interpolation[{label}]",
                worst < TOL,
                f"k in 1..5, q=1/2, worst |err| = {worst:.2e}",
            )
        )
    return out


# -- p-adic suite -----------------------------------------------------------

# every p-adic check runs at the one point p = 5, q = 6
P, Q = 5, Fraction(6)

# the fermionic oracle sums mod p^_GAP_DIGITS, above every gap it reports
_GAP_DIGITS = 20


def _fermionic_gaps(ms, q: QParam, levels) -> dict:
    """{(m, level): v_p(fermionic_riemann(m, q, level) - E_{m,q})}, exactly.

    The Riemann sums come from `_fermionic_sums`' one direct pass mod
    M = p^_GAP_DIGITS, with exact denominators.  The gap's numerator is
    then known mod M, and a nonzero residue has the numerator's valuation;
    a zero residue is read again from the exact sum."""
    p, qv = q.prime, q.value
    mod, out = p**_GAP_DIGITS, {}
    for (m, level), (num, den) in _fermionic_sums(ms, q, levels, mod).items():
        target = euler_number_q(m, qv)
        gap = (num * target.denominator - target.numerator * den) % mod
        if not gap:
            num, den = _fermionic_sums((m,), q, (level,))[m, level]
            gap = num * target.denominator - target.numerator * den
        out[m, level] = padic_valuation_int(gap, p) - padic_valuation_int(den * target.denominator, p)
    return out


def fermionic_checks():
    """Riemann sums of the alternating-measure integral converge to the
    q-Euler numbers with p-adic gap >= level - 1."""
    levels = (2, 3, 4)
    gaps = _fermionic_gaps(range(5), QParam(Q, P), levels)
    out = []
    for m in range(5):
        per_level = {level: gaps[m, level] for level in levels}
        ok = all(gap >= level - 1 for level, gap in per_level.items())
        out.append(_check(f"fermionic-oracle[m={m}]", ok, f"v_gap per level {per_level}"))
    return out


def _agreement_check(name, target, pairs, detail):
    """Passes when every (lhs, rhs) pair agrees to p^(target-1); the detail
    names the worst agreement."""
    sat, val = min((sat, val) for val, sat in (agreement(lhs, rhs) for lhs, rhs in pairs))
    return _check(
        name, sat or val >= target - 1, f"{detail}; worst agreement {'>=' if sat else '='}{val}"
    )


def interpolation_checks():
    """Negative-integer values of the p-adic partial function and
    l-function vs their exact q-Euler counterparts."""
    q = QParam(Q, P)
    target, precision = 6, 12
    budget = SeriesBudget(target=target)
    # [p]_q, q^p and the Teichmueller values are read once for every (n, a)
    p_int, q_p = q_int(P, Q), Q**P
    omega = {a: teichmuller(a, P, precision) for a in range(1, P)}

    def partial_values(n, a):
        lhs = H_pq(-n, a, P, q, budget, precision)
        hq = Fraction((-1) ** a, 2) * p_int**n * euler_poly_q(n, PolyArg(a, P, Q))
        return lhs, omega[a] ** (-n) * embed(hq, P, precision)

    def l_value(n):
        lhs = l_pq(-n, TeichChar(P, n), P, q, budget, precision)
        exact = euler_number_q(n, Q) - p_int**n * euler_number_q(n, q_p)
        return lhs, embed(exact, P, precision).reduce(target)

    return [
        _agreement_check(
            "partial-function-interpolation",
            target,
            (partial_values(n, a) for n in range(1, 5) for a in range(1, P)),
            "n<=4, all residues",
        ),
        _agreement_check(
            "l-function-interpolation",
            target,
            (l_value(n) for n in range(1, 5)),
            f"n<=4, exponent n mod {P - 1}",
        ),
    ]


def congruence_checks():
    """Unit-exponent l-values: integrality, constancy mod p, and the
    shift-by-p congruence."""
    q = QParam(Q, P)
    budget = SeriesBudget(target=4)
    chi = TeichChar(P, 0)
    samples = [0, 1, 5, Fraction(3, 2), Fraction(1, 2)]
    values = [l_pq(s, chi, P, q, budget) for s in samples]
    integral = all(v.valuation_at_least(0) for v in values)
    congruent = all(agreement(values[0].reduce(1), v.reduce(1))[1] for v in values[1:])
    shifts = [
        agreement(l_pq(k, chi, P, q, budget).reduce(1), l_pq(k + P, chi, P, q, budget).reduce(1))[1]
        for k in (1, 2, 3)
    ]
    return [
        _check("l-values-integral", integral, f"s in {samples}"),
        _check("l-values-constant-mod-p", congruent, "pairwise congruent mod p"),
        _check("l-values-shift-congruence", all(shifts), f"l(k) == l(k+{P}) mod {P}, k in 1..3"),
    ]


def truncation_soundness_checks():
    """Doubling the hard truncation limit must not change any reported
    value modulo its reported precision."""
    q = QParam(Q, P)
    # (label, value as a function of the budget)
    values = [
        (f"l(s={s})", partial(l_pq, s, TeichChar(P, 2), P, q)) for s in (1, 2, 3, Fraction(1, 2))
    ]
    values += [
        (f"{name}(n={n},s={s})", partial(series, n, s, TeichChar(P, -s), P, q))
        for n, s in ((2, 1), (2, 3), (4, 2))
        for name, series in (("T", T_pq_chi), ("K", K_pq_chi))
    ]
    values += [(f"H(a={a})", partial(H_pq, 2, a, P, q)) for a in range(1, P)]
    base, doubled = SeriesBudget(target=4, max_terms=60), SeriesBudget(target=4, max_terms=120)
    bad = [label for label, at in values if not agreement(at(base), at(doubled))[1]]
    return [
        _check(
            "truncation-soundness",
            not bad,
            "doubled max_terms" + (f", changed: {bad}" if bad else ", all values stable"),
        )
    ]


# -- expansion engine suite -------------------------------------------------


# the plain assembly may fail at q != 1 (the gap is localized, not a
# failure); the weighted assembly that localizes it must pass
_KEY_STAGES = ("alternating-block-series", "double-series-reindexing", "residue-weighted-assembly")


def theorem5_checks(p=5, qnum=6, rs=(1, 2, 3), ns=(2, 4), target=4, max_terms=60):
    """Run the expansion engine over the grid.  A point passes when its
    oracle stages and its residue-weighted assembly verify at target
    precision and the assembled identity either holds at target precision
    or is localized with digits."""
    q = QParam(Fraction(qnum), p)
    budget = SeriesBudget(target=target, max_terms=max_terms)
    out = []
    for r in sorted(rs):
        for n in sorted(ns):
            report = theorem5_verify(r, n, q, budget)
            failed = [s.name for s in report.stages if s.name in _KEY_STAGES and not s.passed]
            if failed:
                # the weighted assembly is diagnostic, so no first failing stage names it
                note = report.localization_note()
                detail = f"failing key stage: {', '.join(failed)}" + (f"; {note}" if note else "")
            elif report.identity_holds:
                detail = f"identity holds, agreement >= {report.agreement_valuation}"
            elif report.acceptable:
                detail = (
                    f"agreement = {report.agreement_valuation} < {target}; "
                    + (report.localization_note() or "")
                )
            else:
                detail = f"unlocalized failure: {report.localization_note()}"
            out.append(
                _check(
                    f"expansion[q={qnum}, r={r}, n={n}]",
                    not failed and report.acceptable,
                    detail,
                )
            )
    return out


SUITES = {
    "exact-identities": (
        alternating_sum_checks,
        convolution_checks,
        binomial_identity_checks,
        distribution_checks,
    ),
    "complex": (zeta_interpolation_checks, l_value_checks),
    "padic": (
        fermionic_checks,
        interpolation_checks,
        congruence_checks,
        truncation_soundness_checks,
    ),
    # the default grid, then its q = 1 degeneration (the classical path)
    "theorem5": (theorem5_checks, partial(theorem5_checks, qnum=1, rs=(2,), ns=(2,))),
}


def _run_checks(checks) -> list:
    """The results of one check function.  A QEulerError raised inside it
    is an internal fault of the code under check, not a bad input, so it
    becomes one failing result named after the check function."""
    try:
        return checks()
    except QEulerError as exc:
        name = getattr(checks, "func", checks).__name__
        return [_check(name, False, f"{type(exc).__name__}: {exc}")]


def run_suite(name: str):
    """Run one named suite, or all of them in registry order."""
    if name != "all" and name not in SUITES:
        raise QEulerError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    names = SUITES if name == "all" else (name,)
    return [check for key in names for checks in SUITES[key] for check in _run_checks(checks)]
