"""Named verification suites driven by the CLI and the acceptance tests.

Each suite function returns a list of :class:`CheckResult`; a check
compares an implementation path against an independent oracle (direct
summation, exact identity, higher-precision recomputation, doubled
truncation limit) and records a one-line outcome.  Grid iteration order
is deterministic, so output ordering is stable regardless of how the
checks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import QEulerError
from .euler import (
    PolyArg,
    _over_lcm,
    alt_power_sum,
    alt_power_sum_closed,
    alt_power_sum_polyform,
    distribution_check,
    euler_number_q,
    euler_poly_q,
    fermionic_riemann,
)
from .kernel import (
    QParam,
    binom_int,
    binom_product_merge,
    binom_product_shift,
    binom_tail_merge,
    padic_valuation,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}  {self.detail}".rstrip()


def _check(name, passed, detail="") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# -- exact identity suite ---------------------------------------------------


def alternating_sum_checks(max_n=12, max_m=10, qs=(Fraction(1, 2), Fraction(2, 3), Fraction(6))):
    """Direct alternating power sum == closed form == polynomial form,
    exactly, over the whole grid."""
    out = []
    for qv in qs:
        bad = []
        for n in range(1, max_n + 1):
            for m in range(1, max_m + 1):
                direct = alt_power_sum(n, m, qv)
                if direct != alt_power_sum_closed(n, m, qv) or direct != alt_power_sum_polyform(n, m, qv):
                    bad.append((n, m))
        out.append(
            _check(
                f"alternating-sum-forms[q={qv}]",
                not bad,
                f"n<={max_n}, m<={max_m}" + (f", failures: {bad}" if bad else ""),
            )
        )
    return out


def convolution_rhs(n: int, a: int, q) -> tuple:
    """sum_{j<=n} binom(n,j) q^(ja) E_{j,q} [a]_q^(n-j) as an unreduced
    (numerator, denominator) pair of ints, for a >= 0.

    With q = u/v, [a]_q v^a is an integer (v^(a-1) clears the denominator
    of 1 + q + ... + q^(a-1)) and q^(ja) = u^(ja) / v^(ja), so
    v^(an) q^(ja) [a]_q^(n-j) is the integer u^(ja) ([a]_q v^a)^(n-j), and
    every term lies over v^(an) lcm(den E_j).
    """
    qv = Fraction(q)
    u, v = qv.numerator, qv.denominator
    nums, den = _over_lcm([euler_number_q(j, qv) for j in range(n + 1)])
    vb = (q_int(a, qv) * v**a).numerator
    num = sum(
        binom_int(n, j) * u ** (j * a) * vb ** (n - j) * e for j, e in enumerate(nums)
    )
    return num, v ** (a * n) * den


def convolution_checks(max_n=10, max_a=6, qs=(Fraction(1, 2), Fraction(6))):
    """Euler polynomial at integer points == its binomial convolution,
    compared cross-multiplied."""
    out = []
    for qv in qs:
        bad = []
        for n in range(max_n + 1):
            for a in range(max_a + 1):
                lhs = euler_poly_q(n, PolyArg(a, 1, qv))
                num, den = convolution_rhs(n, a, qv)
                if lhs.numerator * den != num * lhs.denominator:
                    bad.append((n, a))
        out.append(
            _check(
                f"euler-convolution[q={qv}]",
                not bad,
                f"n<={max_n}, a<={max_a}" + (f", failures: {bad}" if bad else ""),
            )
        )
    return out


def binomial_identity_checks(limit=10):
    """The three named binomial-coefficient identities on exhaustive grids."""
    shift_ok = all(
        binom_product_shift(r, j, k)
        for r in range(2, limit + 1)
        for j in range(limit + 1)
        for k in range(limit + 1)
        if j + k > 0 and r != 1 - k
    )
    merge_ok = all(
        binom_product_merge(r, j, k)
        for r in range(2, limit + 1)
        for j in range(limit + 1)
        for k in range(limit + 1)
    )
    tail_ok = all(
        binom_tail_merge(r, j, k)
        for r in range(1, limit + 1)
        for j in range(limit + 1)
        for k in range(limit + 1)
    )
    return [
        _check("binom-product-shift", shift_ok, f"r,j,k <= {limit}"),
        _check("binom-product-merge", merge_ok, f"r,j,k <= {limit}"),
        _check("binom-tail-merge", tail_ok, f"r,j,k <= {limit}"),
    ]


def distribution_checks(max_n=6, ms=(1, 3, 5), qs=(Fraction(1, 2), Fraction(6))):
    """Multiplication theorem, exactly, at x in {0, 1/3, 2/5}."""
    out = []
    for qv in qs:
        bad = []
        for n in range(max_n + 1):
            for m in ms:
                for (a, f) in ((0, 1), (1, 3), (2, 5)):
                    rep = distribution_check(n, m, PolyArg(a, f, qv))
                    if not rep.passed:
                        bad.append((n, m, a, f))
        out.append(
            _check(
                f"distribution-relation[q={qv}]",
                not bad,
                f"n<={max_n}, m in {ms}, x in {{0, 1/3, 2/5}}"
                + (f", failures: {bad}" if bad else ""),
            )
        )
    return out


def suite_exact_identities():
    return (
        alternating_sum_checks()
        + convolution_checks()
        + binomial_identity_checks()
        + distribution_checks()
    )


# -- complex suite ----------------------------------------------------------


def zeta_interpolation_checks(tol=1e-8):
    """Regularized zeta at negative integers vs exact Euler polynomials,
    plus one fractional-shift case with an exactly representable base."""
    out = []
    for qv in (Fraction(1, 2), Fraction(1, 4)):
        params = ArchParams(q=float(qv))
        worst = 0.0
        for k in range(7):
            for x in (1, 2):
                exact = float(euler_poly_q(k, PolyArg(x, 1, qv)))
                approx = zeta_Eq(-k, float(x), params)
                worst = max(worst, abs(approx - exact))
        out.append(
            _check(
                f"zeta-negative-integers[q={qv}]",
                worst < tol,
                f"k<=6, x in {{1,2}}, worst |err| = {worst:.2e}",
            )
        )
    base = Fraction(1, 2)
    exact = float(euler_poly_q(2, PolyArg(1, 3, base)))
    approx = zeta_Eq(-2, 1 / 3, ArchParams(q=float(base) ** 3))
    err = abs(approx - exact)
    out.append(_check("zeta-fractional-shift", err < tol, f"x=1/3, base q^3, |err| = {err:.2e}"))
    return out


def l_value_checks(tol=1e-8):
    """l-values at negative integers vs the generalized Euler numbers."""
    out = []
    qv = Fraction(1, 2)
    params = ArchParams(q=float(qv))
    for chi, label in ((ComplexChar.trivial(), "trivial"), (ComplexChar.quadratic(3), "quad3")):
        worst = 0.0
        for k in range(1, 6):
            approx = l_q_complex(-k, chi, params)
            exact = gen_euler_complex(k, chi, qv)
            worst = max(worst, abs(approx - exact))
        out.append(
            _check(
                f"l-value-interpolation[{label}]",
                worst < tol,
                f"k in 1..5, q=1/2, worst |err| = {worst:.2e}",
            )
        )
    return out


def suite_complex():
    return zeta_interpolation_checks() + l_value_checks()


# -- p-adic suite -----------------------------------------------------------


def fermionic_checks(p=5, qnum=6, max_m=4, levels=(2, 3, 4)):
    """Riemann sums of the alternating-measure integral converge to the
    q-Euler numbers with p-adic gap >= level - 1."""
    q = QParam(Fraction(qnum), p)
    out = []
    for m in range(max_m + 1):
        target = euler_number_q(m, q.value)
        gaps = []
        ok = True
        for level in levels:
            gap = padic_valuation(fermionic_riemann(m, q, level) - target, p)
            gaps.append(gap)
            if gap < level - 1:
                ok = False
        out.append(
            _check(
                f"fermionic-oracle[m={m}]",
                ok,
                "v_gap per level " + str(dict(zip(levels, gaps))),
            )
        )
    return out


def interpolation_checks(p=5, qnum=6, max_n=4, target=6, precision=12):
    """Negative-integer values of the p-adic partial function and
    l-function vs their exact q-Euler counterparts."""
    q = QParam(Fraction(qnum), p)
    budget = SeriesBudget(target=target)
    out = []
    worst = None
    for n in range(1, max_n + 1):
        for a in range(1, p):
            lhs = H_pq(-n, a, p, q, budget, precision)
            hq = Fraction((-1) ** a, 2) * q_int(p, q.value) ** n * euler_poly_q(n, PolyArg(a, p, q.value))
            rhs = teichmuller(a, p, precision) ** (-n) * embed(hq, p, precision)
            val, sat = agreement(lhs, rhs)
            if worst is None or (sat, val) < worst:
                worst = (sat, val)
    sat, val = worst
    out.append(
        _check(
            "partial-function-interpolation",
            sat or val >= target - 1,
            f"n<=4, all residues; worst agreement {'>=' if sat else '='}{val}",
        )
    )
    worst = None
    for n in range(1, max_n + 1):
        chi = TeichChar(p, n)
        lhs = l_pq(-n, chi, p, q, budget, precision)
        rhs = embed(
            euler_number_q(n, q.value) - q_int(p, q.value) ** n * euler_number_q(n, q.value**p),
            p,
            precision,
        ).reduce(target)
        val, sat = agreement(lhs, rhs)
        if worst is None or (sat, val) < worst:
            worst = (sat, val)
    sat, val = worst
    out.append(
        _check(
            "l-function-interpolation",
            sat or val >= target - 1,
            f"n<=4, exponent n mod {p - 1}; worst agreement {'>=' if sat else '='}{val}",
        )
    )
    return out


def congruence_checks(p=5, qnum=6, target=4, precision=None):
    """Unit-exponent l-values: integrality, constancy mod p, and the
    shift-by-p congruence."""
    q = QParam(Fraction(qnum), p)
    budget = SeriesBudget(target=target)
    chi = TeichChar(p, 0)
    samples = [0, 1, 5, Fraction(3, 2), Fraction(1, 2)]
    values = [l_pq(s, chi, p, q, budget, precision) for s in samples]
    integral = all(v.valuation_at_least(0) for v in values)
    congruent = all(
        agreement(values[0].reduce(1), v.reduce(1))[1] for v in values[1:]
    )
    shift_ok = True
    for k in (1, 2, 3):
        va = l_pq(k, chi, p, q, budget, precision)
        vb = l_pq(k + p, chi, p, q, budget, precision)
        if not agreement(va.reduce(1), vb.reduce(1))[1]:
            shift_ok = False
    return [
        _check("l-values-integral", integral, f"s in {samples}"),
        _check("l-values-constant-mod-p", congruent, "pairwise congruent mod p"),
        _check("l-values-shift-congruence", shift_ok, f"l(k) == l(k+{p}) mod {p}, k in 1..3"),
    ]


def truncation_soundness_checks(p=5, qnum=6, target=4):
    """Doubling the hard truncation limit must not change any reported
    value modulo its reported precision."""
    q = QParam(Fraction(qnum), p)
    base = SeriesBudget(target=target, max_terms=60)
    doubled = SeriesBudget(target=target, max_terms=120)
    bad = []
    for s in (1, 2, 3, Fraction(1, 2)):
        chi = TeichChar(p, 2)
        a = agreement(l_pq(s, chi, p, q, base), l_pq(s, chi, p, q, doubled))
        if not a[1]:
            bad.append(f"l(s={s})")
    for (n, s) in ((2, 1), (2, 3), (4, 2)):
        chi = TeichChar(p, -s)
        if not agreement(
            T_pq_chi(n, s, chi, p, q, base), T_pq_chi(n, s, chi, p, q, doubled)
        )[1]:
            bad.append(f"T(n={n},s={s})")
        if not agreement(
            K_pq_chi(n, s, chi, p, q, base), K_pq_chi(n, s, chi, p, q, doubled)
        )[1]:
            bad.append(f"K(n={n},s={s})")
    for a in range(1, p):
        if not agreement(
            H_pq(2, a, p, q, base), H_pq(2, a, p, q, doubled)
        )[1]:
            bad.append(f"H(a={a})")
    return [
        _check(
            "truncation-soundness",
            not bad,
            "doubled max_terms" + (f", changed: {bad}" if bad else ", all values stable"),
        )
    ]


def suite_padic():
    return (
        fermionic_checks()
        + interpolation_checks()
        + congruence_checks()
        + truncation_soundness_checks()
    )


# -- expansion engine suite -------------------------------------------------


_KEY_STAGES = ("alternating-block-series", "double-series-reindexing")


def theorem5_checks(p=5, qnum=6, rs=(1, 2, 3), ns=(2, 4), target=4, max_terms=60):
    """Run the expansion engine over the grid.  A point passes when its
    oracle stages verify at target precision and the assembled identity
    either holds at target precision or is localized with digits."""
    q = QParam(Fraction(qnum), p)
    budget = SeriesBudget(target=target, max_terms=max_terms)
    out = []
    for r in sorted(rs):
        for n in sorted(ns):
            report = theorem5_verify(r, n, q, budget)
            stage_ok = all(s.passed for s in report.stages if s.name in _KEY_STAGES)
            if report.identity_holds:
                detail = f"identity holds, agreement >= {report.agreement_valuation}"
            elif report.acceptable and stage_ok:
                detail = (
                    f"agreement = {report.agreement_valuation} < {target}; "
                    + (report.localization_note() or "")
                )
            else:
                detail = f"unlocalized failure: {report.localization_note()}"
            out.append(
                _check(
                    f"expansion[q={qnum}, r={r}, n={n}]",
                    stage_ok and report.acceptable,
                    detail,
                )
            )
    return out


def suite_theorem5():
    # the default grid, then its q = 1 degeneration (the classical path)
    return theorem5_checks() + theorem5_checks(qnum=1, rs=(2,), ns=(2,))


SUITES = {
    "exact-identities": suite_exact_identities,
    "complex": suite_complex,
    "padic": suite_padic,
    "theorem5": suite_theorem5,
}


def run_suite(name: str):
    """Run one named suite, or all of them."""
    if name == "all":
        out = []
        for key in ("exact-identities", "complex", "padic", "theorem5"):
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise QEulerError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
