"""Failure paths of the verification suites: one mutation each, seen by
`suites`, must turn exactly the named `qeuler verify <suite>` lines to
FAIL, with these detail strings."""

import math
from fractions import Fraction

from qeuler import l_pq, l_q_complex, lfunc, suites, teichmuller, zeta_Eq
from qeuler.cli import main


def _fail_lines(capsys, suite):
    """The FAIL lines of `verify <suite>`, after checking that the summary
    line and the exit code say the same."""
    code = main(["verify", suite])
    *lines, summary = capsys.readouterr().out.splitlines()
    failing = [line for line in lines if line.startswith("FAIL")]
    assert summary == f"FAILED: {len(lines) - len(failing)}/{len(lines)} checks passed"
    assert code == 1
    return failing


def test_grid_failures_are_listed_in_grid_order(monkeypatch, capsys):
    # the polynomial form, as a row of (numerator, denominator) pairs over
    # n, off by 1 at two points
    right = suites._poly_form_pairs

    def off(m, ns, u, v):
        return [(num + den * ((n, m) in {(7, 3), (2, 9)}), den) for n, (num, den) in zip(ns, right(m, ns, u, v))]

    monkeypatch.setattr(suites, "_poly_form_pairs", off)
    assert _fail_lines(capsys, "exact-identities") == [
        f"FAIL  alternating-sum-forms[q={q}]  n<=12, m<=10, failures: [(2, 9), (7, 3)]"
        for q in ("1/2", "2/3", "6")
    ]


def test_a_perturbed_zeta_fails_only_the_zeta_lines(monkeypatch, capsys):
    monkeypatch.setattr(suites, "zeta_Eq", lambda s, x, params: zeta_Eq(s, x, params) + 1e-6)
    assert _fail_lines(capsys, "complex") == [
        "FAIL  zeta-negative-integers[q=1/2]  k<=6, x in {1,2}, worst |err| = 1.00e-06",
        "FAIL  zeta-negative-integers[q=1/4]  k<=6, x in {1,2}, worst |err| = 1.00e-06",
        "FAIL  zeta-fractional-shift  x=1/3, base q^3, |err| = 1.00e-06",
    ]


def test_a_wrong_teichmuller_value_fails_partial_interpolation(monkeypatch, capsys):
    # w(2) off by p^3: every n <= 4 is a p-unit, so w(2)^(-n) agrees to v = 3
    def wrong(a, p, precision):
        return teichmuller(a, p, precision) + (p**3 if a == 2 else 0)

    monkeypatch.setattr(suites, "teichmuller", wrong)
    assert _fail_lines(capsys, "padic") == [
        "FAIL  partial-function-interpolation  n<=4, all residues; worst agreement =3",
    ]


def test_a_truncation_dependent_l_value_is_named(monkeypatch, capsys):
    # only the doubled budget moves, so the congruence checks still pass
    def drifting(s, chi, F, q, budget, precision=None):
        value = l_pq(s, chi, F, q, budget, precision)
        return value + 1 if s == Fraction(1, 2) and budget.max_terms == 120 else value

    monkeypatch.setattr(suites, "l_pq", drifting)
    assert _fail_lines(capsys, "padic") == [
        "FAIL  truncation-soundness  doubled max_terms, changed: ['l(s=1/2)']",
    ]


def test_a_nan_error_fails_instead_of_vanishing_from_the_worst(monkeypatch, capsys):
    # max() drops a nan that is not its first argument, which would report
    # worst |err| = 0 and PASS; one nan point must fail its whole check
    def zeta_nan(s, x, params):
        return math.nan if s == -3 else zeta_Eq(s, x, params)

    def l_nan(s, chi, params):
        return complex(math.nan, 0.0) if s == -2 else l_q_complex(s, chi, params)

    monkeypatch.setattr(suites, "zeta_Eq", zeta_nan)
    monkeypatch.setattr(suites, "l_q_complex", l_nan)
    assert _fail_lines(capsys, "complex") == [
        "FAIL  zeta-negative-integers[q=1/2]  k<=6, x in {1,2}, worst |err| = nan",
        "FAIL  zeta-negative-integers[q=1/4]  k<=6, x in {1,2}, worst |err| = nan",
        "FAIL  l-value-interpolation[trivial]  k in 1..5, q=1/2, worst |err| = nan",
        "FAIL  l-value-interpolation[quad3]  k in 1..5, q=1/2, worst |err| = nan",
    ]


def test_a_wrong_weighted_assembly_table_fails_the_expansion_lines(monkeypatch, capsys):
    # P(2) off by 1 breaks the residue-weighted assembly at r <= 2 (agreement
    # 1 and 2 < 4); the plain assembly already fails there by design, so
    # only the weighted stage's pass bit can fail these lines
    right = lfunc._Residues._power_sum

    def off(self, m):
        return (right(self, m) + (m == 2)) % self.mod

    monkeypatch.setattr(lfunc._Residues, "_power_sum", off)
    lfunc._residues.cache_clear()
    lfunc._series.cache_clear()
    try:
        failing = _fail_lines(capsys, "theorem5")
    finally:  # no table that holds the wrong sum outlives the test
        lfunc._residues.cache_clear()
        lfunc._series.cache_clear()
    assert failing == [
        f"FAIL  expansion[q=6, r={r}, n={n}]  failing key stage: residue-weighted-assembly; "
        "first failing stage: character-sum-assembly"
        for r in (1, 2)
        for n in (2, 4)
    ]


def test_an_error_inside_a_check_fails_that_check(monkeypatch, capsys):
    # [5]_6 + 1/5 puts 5 in the partial function's exact value, which then
    # cannot be embedded in Z_5: an internal fault, so one FAIL line named
    # after the check that raised and exit 1, not an input error and exit 2
    right = suites.q_int
    monkeypatch.setattr(suites, "q_int", lambda x, q: right(x, q) + (Fraction(1, 5) if x == 5 else 0))
    assert _fail_lines(capsys, "all") == [
        "FAIL  interpolation_checks  DenominatorDivisibleByP: 6038064/60466175 has negative "
        "5-adic valuation and cannot live in Z_5",
    ]
    # a grid the user gives is still checked as input
    assert main(["verify", "theorem5", "--p", "4"]) == 2
    assert capsys.readouterr().err.startswith("invalid input:")
