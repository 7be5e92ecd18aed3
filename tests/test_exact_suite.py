"""The exact-identity suite: its integer forms against the Fraction
formulations they replace, and mutations that must each turn the matching
`qeuler verify exact-identities` line to FAIL."""

import math
from fractions import Fraction

import pytest

from qeuler import (
    OutOfDomain,
    PolyArg,
    QIsOne,
    binom_int,
    euler,
    euler_number_q,
    euler_poly_q,
    kernel,
    q_int,
    suites,
)
from qeuler.cli import main

QS = (Fraction(1, 2), Fraction(6), Fraction(2, 3), Fraction(-3, 7), Fraction(32, 31), Fraction(0))


def _convolution_fraction_rhs(n, a, q):
    """sum_j binom(n,j) q^(ja) E_{j,q} [a]_q^(n-j), one Fraction at a time."""
    return sum(
        binom_int(n, j) * q ** (j * a) * euler_number_q(j, q) * q_int(a, q) ** (n - j)
        for j in range(n + 1)
    )


@pytest.mark.parametrize("q", QS, ids=str)
def test_convolution_rhs_matches_fraction_sum(q):
    for n in range(13):
        for a in range(8):
            num, den = euler.convolution_rhs(n, a, q)
            want = _convolution_fraction_rhs(n, a, q)
            assert Fraction(num, den) == want == euler_poly_q(n, PolyArg(a, 1, q)), (n, a)


def _failing(capsys):
    """Names of the FAIL lines of `verify exact-identities`, after checking
    that the exit code says the same."""
    code = main(["verify", "exact-identities"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[:-1]]
    assert len(rows) == 10
    failing = sorted(name for verdict, name, *_ in rows if verdict == "FAIL")
    assert code == (1 if failing else 0)
    return failing


def test_unmutated_suite_passes(capsys):
    assert _failing(capsys) == []


def _wrong_binomial(n, k):
    return binom_int(n, k) + ((n, k) == (5, 2))


def test_a_wrong_binomial_fails_the_convolution(monkeypatch, capsys):
    # the closed form is the convolution at (m, n), so it reads the same sum
    monkeypatch.setattr(euler, "_binom", _wrong_binomial)
    assert _failing(capsys) == [
        "alternating-sum-forms[q=1/2]",
        "alternating-sum-forms[q=2/3]",
        "alternating-sum-forms[q=6]",
        "euler-convolution[q=1/2]",
        "euler-convolution[q=6]",
    ]


def test_a_wrong_binomial_fails_the_identities(monkeypatch, capsys):
    # the identity predicates read their binomials from the kernel's memo
    monkeypatch.setattr(kernel, "_binom", _wrong_binomial)
    assert _failing(capsys) == ["binom-product-merge", "binom-product-shift", "binom-tail-merge"]


def test_a_wrong_euler_number_fails_its_convolution(monkeypatch, capsys):
    # the convolution, and the closed form through it, read E_0..E_n over
    # their lcm from the Euler layer's table
    right = euler._euler_numbers_over_lcm

    def wrong(n, u, v):
        nums, den = right(n, u, v)
        if n >= 3 and (u, v) == (6, 1):  # E_{3,6} + 1
            nums = nums[:3] + (nums[3] + den,) + nums[4:]
        return nums, den

    monkeypatch.setattr(euler, "_euler_numbers_over_lcm", wrong)
    assert _failing(capsys) == ["alternating-sum-forms[q=6]", "euler-convolution[q=6]"]


def test_a_wrong_euler_row_fails_the_grids_that_read_it(monkeypatch, capsys):
    # W_2 of every row off by one: the polynomial form, the convolution's
    # left side and both sides of the distribution relation read E_{m,q}(a)
    # from the row
    right = euler._euler_row

    def wrong(m, u, v):
        W, num0, den = right(m, u, v)
        return (W[:2] + (W[2] + 1,) + W[3:] if m >= 2 else W), num0, den

    monkeypatch.setattr(euler, "_euler_row", wrong)
    assert _failing(capsys) == [
        "alternating-sum-forms[q=1/2]",
        "alternating-sum-forms[q=2/3]",
        "alternating-sum-forms[q=6]",
        "distribution-relation[q=1/2]",
        "distribution-relation[q=6]",
        "euler-convolution[q=1/2]",
        "euler-convolution[q=6]",
    ]


@pytest.mark.parametrize("q, error", [(1, QIsOne), (-1, OutOfDomain)])
def test_convolution_rhs_checks_q_before_the_table(monkeypatch, q, error):
    def unread(*args):
        raise AssertionError("table read")

    monkeypatch.setattr(euler, "_euler_numbers_over_lcm", unread)
    with pytest.raises(error):
        euler.convolution_rhs(3, 2, q)


@pytest.mark.parametrize(
    "n, a, q",
    [(-1, 2, Fraction(1, 2)), (3, -1, Fraction(6)), (2, 1.0, Fraction(6)), (True, 1, Fraction(6)), (2.0, 1, Fraction(6))],
    ids=str,
)
def test_convolution_rhs_checks_its_order_and_point_before_the_table(monkeypatch, n, a, q):
    def unread(*args):
        raise AssertionError("table read")

    monkeypatch.setattr(euler, "_euler_numbers_over_lcm", unread)
    with pytest.raises(OutOfDomain):
        euler.convolution_rhs(n, a, q)


def test_the_euler_numbers_stay_off_the_row(monkeypatch, capsys):
    # d_2 = 2v^2 + u^2 in place of v^2 + u^2 in every row.  The convolution
    # holds for any sequence put in place of 1/(1 + q^k), so its lines fail
    # only because E_{j,q} comes from the tree sum, not from the row
    def wrong(m, u, v):
        dens = [v**k + u**k + (v**k if k == 2 else 0) for k in range(m + 1)]
        D = math.prod(dens)
        W = tuple(math.comb(m, k) * v**k * (D // d) for k, d in enumerate(dens))
        return W, 2 * v**m * sum((-1) ** k * w for k, w in enumerate(W)), (v - u) ** m * D

    monkeypatch.setattr(euler, "_euler_row", wrong)
    assert _failing(capsys) == [
        "alternating-sum-forms[q=1/2]",
        "alternating-sum-forms[q=2/3]",
        "alternating-sum-forms[q=6]",
        "distribution-relation[q=1/2]",
        "distribution-relation[q=6]",
        "euler-convolution[q=1/2]",
        "euler-convolution[q=6]",
    ]


def test_a_flipped_distribution_sign_fails_its_relation(monkeypatch, capsys):
    # the j = 1 term of m = 5 at x = 2/5 is E_{n,q^25}(7/25), the point a = 7
    # of the right-hand side's combination in base q^25
    right = euler._euler_row_pairs

    def flipped(m, points, u, v, f=1):
        pairs = zip(points, right(m, points, u, v, f))
        return [((-num if (a, f, u, v) == (7, 25, 6, 1) else num), den) for a, (num, den) in pairs]

    monkeypatch.setattr(euler, "_euler_row_pairs", flipped)
    assert _failing(capsys) == ["distribution-relation[q=6]"]


def test_a_wrong_power_row_entry_fails_the_direct_sums(monkeypatch):
    # B_4^2 off by one in the direct kernel's power row: B_4 is 15, 65 and
    # 259 at q = 1/2, 2/3 and 6, the fermionic oracle's q.  The power row is
    # the kernel's only two-argument pow, so the mutant patches that name
    def wrong(b, m, *mod):
        return pow(b, m, *mod) + (not mod and m == 2 and b in {15, 65, 259})

    monkeypatch.setattr(euler, "pow", wrong, raising=False)
    assert [c.name for c in suites.run_suite("all") if not c.passed] == [
        "alternating-sum-forms[q=1/2]",
        "alternating-sum-forms[q=2/3]",
        "alternating-sum-forms[q=6]",
        "fermionic-oracle[m=2]",
    ]


def test_the_distribution_grid_reads_one_left_side_per_q_n_x(monkeypatch):
    # 2 q x 7 n x 3 x rows, each one left side and three right sides; one
    # left side and one right side per (q, n, m, x) would be 252 reads
    calls = []
    right = euler._euler_row_pairs

    def counted(*args):
        calls.append(args)
        return right(*args)

    monkeypatch.setattr(euler, "_euler_row_pairs", counted)
    assert all(check.passed for check in suites.distribution_checks())
    assert len(calls) <= 168
