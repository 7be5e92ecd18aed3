"""q-Euler numbers/polynomials, alternating sums, the fermionic oracle."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import (
    OutOfDomain,
    PolyArg,
    QIsOne,
    QParam,
    alt_power_sum,
    alt_power_sum_closed,
    alt_power_sum_polyform,
    binom_int,
    distribution_check,
    euler,
    euler_number_classical,
    euler_number_q,
    euler_poly_classical,
    euler_poly_q,
    fermionic_riemann,
    padic_valuation,
    q_int,
    q_int_neg,
    suites,
)
from qeuler.cli import main

QS = (Fraction(1, 2), Fraction(2, 3), Fraction(6))
# the grid of the reference-oracle tests: a negative q, a q close to 1
# whose powers grow large, and q = 0, where 0^0 = 1 matters
ORACLE_QS = QS + (Fraction(-3, 7), Fraction(32, 31), Fraction(0))


def _series_euler_numbers(order):
    """Independent oracle: coefficients of 2/(exp(t) + 1) by exact power
    series division; returns E_0..E_order."""
    # denominator exp(t) + 1 has coefficients a_0 = 2, a_n = 1/n!
    a = [Fraction(2)] + [Fraction(1, math.factorial(n)) for n in range(1, order + 1)]
    b = []
    for n in range(order + 1):
        acc = Fraction(2) if n == 0 else Fraction(0)
        acc -= sum(b[k] * a[n - k] for k in range(n))
        b.append(acc / a[0])
    return [math.factorial(n) * b[n] for n in range(order + 1)]


def test_classical_numbers_match_series_expansion():
    oracle = _series_euler_numbers(8)
    assert oracle[0] == 1 and oracle[1] == Fraction(-1, 2) and oracle[2] == 0
    for n in range(9):
        assert euler_number_classical(n) == oracle[n]


@pytest.mark.parametrize("n", range(13))
def test_classical_path_against_sympy(n):
    # sympy.euler(n, x) is the Euler polynomial, sympy.euler(n, 0) its constant term
    def rational(v):
        return Fraction(int(v.p), int(v.q))

    for x in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3)):
        want = sympy.euler(n, sympy.Rational(x.numerator, x.denominator))
        assert euler_poly_classical(n, x) == rational(want)
    assert euler_number_classical(n) == rational(sympy.euler(n, 0))


def test_classical_functional_equation():
    for n in range(9):
        for x in (Fraction(0), Fraction(1, 2), Fraction(3)):
            lhs = euler_poly_classical(n, x + 1) + euler_poly_classical(n, x)
            assert lhs == 2 * x**n


def test_euler_number_q_low_orders():
    for q in QS:
        assert euler_number_q(0, q) == 1
        assert euler_number_q(1, q) == -1 / (1 + q)
        assert euler_number_q(2, q) == (q - 1) / ((1 + q) * (1 + q**2))
    assert euler_number_q(1, Fraction(6)) == Fraction(-1, 7)
    assert euler_number_q(2, Fraction(6)) == Fraction(5, 259)


def test_euler_number_q_rejects_one():
    with pytest.raises(QIsOne):
        euler_number_q(3, 1)
    with pytest.raises(QIsOne):
        euler_poly_q(3, PolyArg(1, 1, Fraction(1)))


def test_euler_poly_reduces_to_number_at_zero():
    for q in QS:
        for n in range(7):
            assert euler_poly_q(n, PolyArg(0, 1, q)) == euler_number_q(n, q)


def test_euler_poly_order_zero():
    assert euler_poly_q(0, PolyArg(2, 5, Fraction(1, 2))) == 1


def test_euler_poly_at_one():
    # convolution oracle: E_{1,q}(1) = [1]_q + q E_{1,q}
    for q in QS:
        want = 1 + q * euler_number_q(1, q)
        assert euler_poly_q(1, PolyArg(1, 1, q)) == want == 1 / (1 + q)


def test_convolution_identity():
    for q in (Fraction(1, 2), Fraction(6)):
        for n in range(11):
            for a in range(7):
                lhs = euler_poly_q(n, PolyArg(a, 1, q))
                rhs = sum(
                    binom_int(n, j) * q ** (j * a) * euler_number_q(j, q) * q_int(a, q) ** (n - j)
                    for j in range(n + 1)
                )
                assert lhs == rhs


def test_alt_power_sum_direct_values():
    assert alt_power_sum(1, 3, Fraction(6)) == 0
    for q in QS:
        assert alt_power_sum(2, 1, q) == -2
    assert alt_power_sum(3, 1, 2) == 4  # 2(0 - 1 + 3)


def test_alt_power_sum_closed_values():
    for q in QS:
        assert alt_power_sum_closed(1, 1, q) == 0
        assert alt_power_sum_closed(2, 1, q) == -2
    assert alt_power_sum_closed(4, 3, Fraction(2, 3)) == alt_power_sum(4, 3, Fraction(2, 3))


def test_alt_power_sum_polyform_values():
    for q in QS:
        assert alt_power_sum_polyform(1, 1, q) == 0
    assert alt_power_sum_polyform(2, 2, Fraction(6)) == alt_power_sum(2, 2, Fraction(6))


def test_alternating_sum_three_forms_agree():
    # q = -2 included: its denominators 1 + q^i never vanish
    for q in QS + (Fraction(-2),):
        for n in range(1, 13):
            for m in range(1, 11):
                direct = alt_power_sum(n, m, q)
                assert direct == alt_power_sum_closed(n, m, q)
                assert direct == alt_power_sum_polyform(n, m, q)


def test_q_to_one_limit():
    for m in range(7):
        classical = euler_number_classical(m)
        gaps = [abs(euler_number_q(m, 1 + Fraction(1, t)) - classical) for t in (10, 100, 1000)]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < Fraction(1, 100)


def test_distribution_trivial_modulus():
    rep = distribution_check(3, 1, PolyArg(1, 3, Fraction(1, 2)))
    assert rep.passed and rep.lhs == rep.rhs


def test_distribution_examples():
    assert distribution_check(1, 3, PolyArg(0, 1, Fraction(2))).passed
    assert distribution_check(4, 5, PolyArg(1, 3, Fraction(1, 2))).passed


def test_distribution_rejects_even_modulus():
    with pytest.raises(OutOfDomain):
        distribution_check(1, 2, PolyArg(0, 1, Fraction(2)))


def test_polyarg_validation():
    with pytest.raises(OutOfDomain):
        PolyArg(-1, 3, Fraction(2))
    with pytest.raises(OutOfDomain):
        PolyArg(1, 4, Fraction(2))


def test_fermionic_zeroth_moment():
    # direct-summation oracle: the x-sum telescopes to 1, so the value
    # is exactly 2/(1 + q^(p^L)); it tends to 1 with gap valuation L+1
    q = QParam(Fraction(6), 5)
    for level in (1, 2):
        got = fermionic_riemann(0, q, level)
        assert got == 2 / (1 + Fraction(6) ** 5**level)
        assert padic_valuation(got - 1, 5) == level + 1


def test_fermionic_first_moment_convergence():
    q = QParam(Fraction(6), 5)
    gap = fermionic_riemann(1, q, 3) - euler_number_q(1, Fraction(6))
    assert padic_valuation(gap, 5) >= 3


def test_fermionic_gap_nondecreasing_in_level():
    q = QParam(Fraction(6), 5)
    for m in range(4):
        target = euler_number_q(m, Fraction(6))
        gaps = [
            padic_valuation(fermionic_riemann(m, q, level) - target, 5)
            for level in (1, 2, 3)
        ]
        assert gaps[0] <= gaps[1] <= gaps[2]


def test_fermionic_gap_slack_at_most_one():
    # measured convergence slack: v_5(gap) >= level - c with c <= 1
    q = QParam(Fraction(6), 5)
    slack = 0
    for m in range(7):
        target = euler_number_q(m, Fraction(6))
        for level in (2, 3):
            gap = padic_valuation(fermionic_riemann(m, q, level) - target, 5)
            slack = max(slack, level - gap)
    assert slack <= 1, f"measured slack c = {slack}"


def test_fermionic_requires_prime_context():
    with pytest.raises(OutOfDomain):
        fermionic_riemann(1, QParam(Fraction(6)), 2)


# every integer argument of the exact layer: (its valid value, the call
# with that argument set to x)
EXACT_INT_ARGUMENTS = {
    "binom_int n": (5, lambda x: binom_int(x, 2)),
    "binom_int k": (2, lambda x: binom_int(5, x)),
    "q_int x": (2, lambda x: q_int(x, Fraction(6))),
    "q_int_neg x": (2, lambda x: q_int_neg(x, Fraction(6))),
    "euler_number_q m": (2, lambda x: euler_number_q(x, Fraction(6))),
    "euler_number_classical n": (2, lambda x: euler_number_classical(x)),
    "euler_poly_classical n": (2, lambda x: euler_poly_classical(x, 1)),
    "euler_poly_q n": (2, lambda x: euler_poly_q(x, PolyArg(1, 1, Fraction(1, 2)))),
    "PolyArg a": (1, lambda x: PolyArg(x, 1, Fraction(1, 2))),
    "PolyArg f": (3, lambda x: PolyArg(1, x, Fraction(1, 2))),
    "alt_power_sum n": (2, lambda x: alt_power_sum(x, 2, Fraction(1, 2))),
    "alt_power_sum m": (2, lambda x: alt_power_sum(2, x, Fraction(1, 2))),
    "alt_power_sum_closed n": (2, lambda x: alt_power_sum_closed(x, 2, Fraction(1, 2))),
    "alt_power_sum_polyform m": (2, lambda x: alt_power_sum_polyform(2, x, Fraction(1, 2))),
    "distribution_check n": (2, lambda x: distribution_check(x, 3, PolyArg(1, 1, Fraction(1, 2)))),
    "distribution_check m": (3, lambda x: distribution_check(2, x, PolyArg(1, 1, Fraction(1, 2)))),
    "fermionic_riemann m": (2, lambda x: fermionic_riemann(x, QParam(Fraction(6), 5), 1)),
    "fermionic_riemann level": (1, lambda x: fermionic_riemann(2, QParam(Fraction(6), 5), x)),
}


@pytest.mark.parametrize("name", EXACT_INT_ARGUMENTS)
def test_non_int_integer_arguments_rejected(name):
    # 2.5 gave q_int a float and q_int_neg a complex, True gave q_int 1,
    # binom_int(2.5, 2) failed an assert and the rest raised a bare TypeError
    valid, call = EXACT_INT_ARGUMENTS[name]
    call(valid)
    for x in (valid + 0.5, float(valid), True, Fraction(valid), Fraction(2 * valid + 1, 2)):
        with pytest.raises(OutOfDomain, match="must be an int"):
            call(x)


# -- reference oracles: the defining formulas, summed one Fraction term at a
# time, against which the integer-numerator sums are checked exactly


def _euler_poly_loop(n, a, f, q):
    total = Fraction(0)
    for k in range(n + 1):
        total += binom_int(n, k) * (-(q**a)) ** k / (1 + q ** (f * k))
    return 2 * (Fraction(1) / (1 - q**f)) ** n * total


def _euler_number_loop(m, q):
    total = Fraction(0)
    for i in range(m + 1):
        total += Fraction(binom_int(m, i) * (-1) ** i, 1) / (1 + q**i)
    return 2 * (Fraction(1) / (1 - q)) ** m * total


def _alt_power_sum_loop(n, m, q):
    return 2 * sum(((-1) ** l) * q_int(l, q) ** m for l in range(n))


def _closed_loop(n, m, q):
    sign = (-1) ** (n + 1)
    acc = Fraction(0)
    for l in range(m):
        acc += binom_int(m, l) * q ** (n * l) * _euler_number_loop(l, q) * q_int(n, q) ** (m - l)
    return sign * acc + (sign * q ** (n * m) + 1) * _euler_number_loop(m, q)


def _polyform_loop(n, m, q):
    return (-1) ** (n + 1) * _euler_poly_loop(m, n, 1, q) + _euler_number_loop(m, q)


def _fermionic_loop(m, q, level):
    qv, count = q.value, q.prime**level
    total = sum((-1) ** x * q_int(x, qv) ** m for x in range(count))
    return Fraction(2) / q_int(2, qv) / q_int_neg(count, qv) * total


def _same(got, want):
    return isinstance(got, Fraction) and got == want


def _closed_fraction_sum(n, m, q):
    """The closed form as one Fraction product and add per term, each an
    integer times E_{l,q}, over y^m."""
    qn, bn = q**n, q_int(n, q)
    x, y = qn.numerator, qn.denominator
    w = bn.numerator * (y // bn.denominator)
    acc = sum(binom_int(m, l) * x**l * w ** (m - l) * euler_number_q(l, q) for l in range(m + 1))
    return Fraction((-1) ** (n + 1), y**m) * acc + euler_number_q(m, q)


def _distribution_fraction_rhs(n, m, arg, poly=euler_poly_q):
    """[m]_{q'}^n sum_j (-1)^j E_{n,q'^m}((j + x)/m), one Fraction at a time."""
    return q_int(m, arg.q**arg.f) ** n * sum(
        (-1) ** j * poly(n, PolyArg(j * arg.f + arg.a, m * arg.f, arg.q)) for j in range(m)
    )


@pytest.mark.parametrize("q", ORACLE_QS, ids=str)
def test_euler_numbers_match_loop_oracle(q):
    for m in range(15):
        assert _same(euler_number_q(m, q), _euler_number_loop(m, q)), m


@pytest.mark.parametrize("q", ORACLE_QS, ids=str)
def test_euler_polys_match_loop_oracle(q):
    for f in (1, 3, 5, 15):
        for a in range(8):
            for n in range(15):
                got = euler_poly_q(n, PolyArg(a, f, q))
                assert _same(got, _euler_poly_loop(n, a, f, q)), (n, a, f)


def _euler_poly_fraction_sum(n, a, f, q):
    """E_{n,q^f}(a/f) as the sum of its n+1 summands, one reduced Fraction
    added at a time, with Q = q^f = U/V and q^a = x/y."""
    U, V, x, y = q.numerator**f, q.denominator**f, q.numerator**a, q.denominator**a
    total = sum(
        Fraction(math.comb(n, k) * (-x) ** k * y ** (n - k) * V**k, V**k + U**k)
        for k in range(n + 1)
    )
    return Fraction(2 * V**n, (V - U) ** n * y**n) * total


TREE_QS = (Fraction(0), Fraction(-3, 7), Fraction(2, 3), Fraction(6), Fraction(31, 6))


@pytest.mark.parametrize("q", TREE_QS, ids=str)
def test_euler_poly_tree_sum_matches_fraction_sum(q):
    # the unreduced balanced-tree sum reduces to the per-term Fraction sum
    for f in (1, 3, 5):
        for a in range(15):
            for n in range(21):
                got = euler_poly_q(n, PolyArg(a, f, q))
                assert _same(got, _euler_poly_fraction_sum(n, a, f, q)), (n, a, f)


def test_euler_poly_tree_sum_matches_fraction_sum_at_order_60():
    q = Fraction(31, 6)
    assert _same(euler_poly_q(60, PolyArg(7, 3, q)), _euler_poly_fraction_sum(60, 7, 3, q))


@pytest.mark.parametrize("q", ORACLE_QS + (Fraction(1),), ids=str)
def test_alternating_sums_match_loop_oracles(q):
    for n in range(15):
        for m in range(9):
            want = _alt_power_sum_loop(n, m, q)
            assert _same(alt_power_sum(n, m, q), want), (n, m)
            if q != 1:
                assert _same(alt_power_sum_closed(n, m, q), _closed_loop(n, m, q)), (n, m)
                assert _same(alt_power_sum_polyform(n, m, q), _polyform_loop(n, m, q)), (n, m)


@pytest.mark.parametrize("q", ORACLE_QS, ids=str)
def test_closed_form_matches_fraction_sum(q):
    for n in range(15):
        for m in range(21):
            assert _same(alt_power_sum_closed(n, m, q), _closed_fraction_sum(n, m, q)), (n, m)


@pytest.mark.parametrize("q", ORACLE_QS, ids=str)
def test_distribution_matches_fraction_sum(q):
    for n in range(8):
        for m in (1, 3, 5, 7):
            for a, f in ((0, 1), (1, 3), (2, 5), (4, 3)):
                arg = PolyArg(a, f, q)
                rep = distribution_check(n, m, arg)
                assert _same(rep.lhs, euler_poly_q(n, arg)), (n, m, a, f)
                assert _same(rep.rhs, _distribution_fraction_rhs(n, m, arg)), (n, m, a, f)
                assert rep.passed is (rep.lhs == rep.rhs) is True


def test_failing_distribution_reports_its_rhs(monkeypatch):
    # negate the j = 1 term of m = 5 at x = 2/5, E_{n,q^25}(7/25): the sign
    # of the point a = 7 in the right-hand side's combination in base q^25
    import qeuler.euler

    right = qeuler.euler._euler_row_pairs

    def flipped_pairs(m, points, u, v, f=1):
        pairs = zip(points, right(m, points, u, v, f))
        return [((-num if (a, f) == (7, 25) else num), den) for a, (num, den) in pairs]

    def flipped(n, arg):
        # euler_poly_q reads the patched row too, so the oracle reads right
        value = Fraction(*right(n, (arg.a,), arg.q.numerator, arg.q.denominator, arg.f)[0])
        return -value if (arg.a, arg.f) == (7, 25) else value

    monkeypatch.setattr(qeuler.euler, "_euler_row_pairs", flipped_pairs)
    for n in range(4):
        arg = PolyArg(2, 5, Fraction(6))
        rep = distribution_check(n, 5, arg)
        assert not rep.passed and rep.lhs != rep.rhs
        assert _same(rep.rhs, _distribution_fraction_rhs(n, 5, arg, flipped))


def test_fermionic_matches_loop_oracle_at_non_integral_q():
    # q = 31/6 has denominator v = 6, so [x]_q = B_x / 6^(x-1) is not integral
    for qv, p in ((Fraction(31, 6), 5), (Fraction(6), 5)):
        q = QParam(qv, p)
        for m in range(5):
            assert _same(fermionic_riemann(m, q, 3), _fermionic_loop(m, q, 3)), (qv, m)


def test_q_minus_one_rejected():
    q = Fraction(-1)
    for call in (
        lambda: euler_number_q(3, q),
        lambda: euler_poly_q(3, PolyArg(1, 3, q)),
        lambda: alt_power_sum_closed(3, 2, q),
        lambda: alt_power_sum_polyform(3, 2, q),
        lambda: q_int_neg(3, q),
    ):
        with pytest.raises(OutOfDomain):
            call()
    # the direct sum never divides by 1 + q: [l]_{-1} is 1 at odd l, else 0
    assert alt_power_sum(4, 2, q) == -4 == _alt_power_sum_loop(4, 2, q)


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_poly_q(2, Fraction(1, 2)),
        lambda: distribution_check(2, 3, Fraction(1, 2)),
        lambda: fermionic_riemann(2, Fraction(6), 2),
    ],
    ids=["euler_poly_q", "distribution_check", "fermionic_riemann"],
)
def test_a_bare_fraction_for_a_poly_arg_or_qparam_is_out_of_domain(call):
    with pytest.raises(OutOfDomain):
        call()


def test_negative_orders_rejected():
    q = Fraction(1, 2)
    for fn in (alt_power_sum, alt_power_sum_closed, alt_power_sum_polyform):
        for n, m in ((3, -1), (-2, 2), (-1, 0)):
            with pytest.raises(OutOfDomain):
                fn(n, m, q)
    with pytest.raises(OutOfDomain):
        fermionic_riemann(-1, QParam(Fraction(6), 5), 2)


def test_euler_table_at_q_minus_one_exits_two(capsys):
    code = main(["euler-table", "--q", "-1", "--max-m", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("invalid input:")


def test_python_dash_m_runs_the_cli():
    import qeuler

    env = dict(os.environ, PYTHONPATH=str(Path(qeuler.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "qeuler", "euler-table", "--q", "-1", "--max-m", "3"]
    bad = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert bad.returncode == 2 and bad.stderr.startswith("invalid input:")
    argv[-3:] = ["6", "--max-m", "2"]
    good = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert good.returncode == 0 and "5/259" in good.stdout


@pytest.mark.parametrize("q", ORACLE_QS + (Fraction(1),), ids=str)
def test_one_direct_pass_gives_every_prefix(q):
    # the accumulator after term l is the sum at n = l + 1, for every m at once
    sums = euler._alt_power_sums(range(16), range(9), q.numerator, q.denominator)
    assert set(sums) == {(n, m) for n in range(16) for m in range(9)}
    for (n, m), pair in sums.items():
        assert Fraction(*pair) == _alt_power_sum_loop(n, m, q), (n, m)


_SIGNED_POINTS = (
    ((1, 0), (-1, 3), (1, 7)),
    ((-1, 4), (1, 4), (1, 1)),
    ((1, 2), (-1, 7), (1, 12), (-1, 17), (1, 22)),
    ((-2, 5), (3, 0)),
)


@pytest.mark.parametrize("q", TREE_QS, ids=str)
def test_a_signed_combination_is_the_sum_of_its_values(q):
    for f in (1, 3, 5):
        for points in _SIGNED_POINTS:
            for n in range(13):
                u, v = q.numerator, q.denominator
                got = sum(s * Fraction(*euler._euler_row_pairs(n, (a,), u, v, f)[0]) for s, a in points)
                want = sum(s * _euler_poly_fraction_sum(n, a, f, q) for s, a in points)
                assert got == want, (n, points, f)


@pytest.mark.parametrize("q", ORACLE_QS + (Fraction(1),), ids=str)
def test_a_pass_mod_m_is_the_exact_pass_mod_m(q):
    u, v = q.numerator, q.denominator
    exact = euler._alt_power_sums(range(16), range(9), u, v)
    for mod in (5**3, 2**7 * 3):
        reduced = euler._alt_power_sums(range(16), range(9), u, v, mod)
        for key, (num, den) in exact.items():
            assert reduced[key][1] == den and (reduced[key][0] - num) % mod == 0, (mod, key)


def _horner_alt_power_sums(ends, ms, u, v, mod=None):
    """The one-pass Horner loop that the row kernel replaced, kept as its
    oracle: after term l, accumulator m is the numerator at n = l + 1."""
    ends, ms = set(ends), tuple(ms)
    vms = [pow(v, m, mod) for m in ms]
    accs = [0] * len(ms)
    out = {}
    b, vl = 0, 1  # b = B_l, vl = v^l
    for l in range(max(ends) + 1):
        if l in ends:
            for m, acc in zip(ms, accs):
                out[l, m] = 2 * acc, v ** (max(l - 2, 0) * m)
        sign = -1 if l % 2 else 1
        accs = [acc * vm + sign * pow(b, m, mod) for acc, vm, m in zip(accs, vms, ms)]
        b, vl = vl + u * b, vl * v
        if mod:
            accs, b, vl = [acc % mod for acc in accs], b % mod, vl % mod
    return out


@settings(max_examples=300, deadline=None)
@given(
    ends=st.lists(st.integers(0, 24), min_size=1, max_size=6),
    ms=st.lists(st.integers(0, 8), min_size=1, max_size=4),
    u=st.integers(-12, 12),
    v=st.integers(1, 12),
    mod=st.sampled_from([None, 5**3, 7**2, 2**7 * 3]),
)
@example(ends=[0, 1, 1], ms=[0, 0], u=0, v=1, mod=None)
@example(ends=[1, 7, 7, 13], ms=[0, 3], u=-5, v=2, mod=2**7 * 3)
@example(ends=[24, 2], ms=[5, 1], u=1, v=6, mod=2**7 * 3)
def test_the_row_kernel_is_the_horner_loop(ends, ms, u, v, mod):
    # v = 2 and v = 6 share a factor with 2^7 * 3, so no inverse of v mod
    # mod exists: the kernel must take none
    assert euler._alt_power_sums(ends, ms, u, v, mod) == _horner_alt_power_sums(ends, ms, u, v, mod)


@pytest.mark.parametrize("q", (Fraction(1, 2), Fraction(6), Fraction(-3, 7)), ids=str)
def test_the_distribution_row_is_each_single_check(q):
    # one left side for the row of m, each right side the single check's
    for n in range(6):
        for a, f in ((0, 1), (1, 3), (2, 5), (4, 3)):
            lhs, rhs = euler._distribution_pairs(n, (1, 3, 5, 7), a, f, q.numerator, q.denominator)
            for m, pair in zip((1, 3, 5, 7), rhs, strict=True):
                rep = distribution_check(n, m, PolyArg(a, f, q))
                assert rep.passed and rep.lhs == Fraction(*lhs) == Fraction(*pair), (n, m, a, f)


@pytest.mark.parametrize("q", QS + (Fraction(-3, 7), Fraction(0)), ids=str)
def test_the_euler_row_is_the_tree_sum_at_every_grid_point(q):
    u, v = q.numerator, q.denominator
    for m in range(11):
        _, num0, den = euler._euler_row(m, u, v)
        assert Fraction(num0, den) == euler_number_q(m, q), m
        for a, pair in zip(range(13), euler._euler_row_pairs(m, range(13), u, v), strict=True):
            assert Fraction(*pair) == _euler_poly_fraction_sum(m, a, 1, q), (m, a)
        for n, pair in zip(range(1, 13), suites._poly_form_pairs(m, range(1, 13), u, v), strict=True):
            assert Fraction(*pair) == _polyform_loop(n, m, q), (n, m)


@pytest.mark.parametrize("qv", (Fraction(6), Fraction(11, 6), Fraction(26)), ids=str)
def test_the_oracle_reads_the_exact_gap_valuations(qv):
    q = QParam(qv, 5)
    levels = range(1, 5)
    gaps = suites._fermionic_gaps(range(6), q, levels)
    for (m, level), pair in euler._fermionic_sums(range(6), q, levels).items():
        assert gaps[m, level] == padic_valuation(Fraction(*pair) - euler_number_q(m, qv), 5), (m, level)


@pytest.mark.parametrize("digits", (1, 3))
def test_a_gap_that_vanishes_mod_p_to_the_k_is_read_exactly(monkeypatch, digits):
    lines = [check.line() for check in suites.fermionic_checks()]
    exact = []

    def counted(ms, q, levels, mod=None):
        if mod is None:
            exact.append((tuple(ms), tuple(levels)))
        return euler._fermionic_sums(ms, q, levels, mod)

    monkeypatch.setattr(suites, "_fermionic_sums", counted)
    assert [check.line() for check in suites.fermionic_checks()] == lines and exact == []
    monkeypatch.setattr(suites, "_GAP_DIGITS", digits)
    assert [check.line() for check in suites.fermionic_checks()] == lines
    # every reported gap is at least 2, so at K = 1 every residue vanishes
    assert len(exact) == 15 if digits == 1 else 0 < len(exact) < 15


@pytest.mark.parametrize("qv", (Fraction(6), Fraction(31, 6), Fraction(1, 4)), ids=str)
def test_one_pass_fermionic_sums_are_the_riemann_sums_at_each_level(qv):
    q = QParam(qv, 3 if qv == Fraction(1, 4) else 5)
    levels = (1, 2, 3)
    sums = euler._fermionic_sums(range(6), q, levels)
    assert set(sums) == {(m, level) for m in range(6) for level in levels}
    for (m, level), pair in sums.items():
        assert Fraction(*pair) == _fermionic_loop(m, q, level), (m, level)
    # the modulus path: the same denominators, numerators congruent mod mod
    for mod in (q.prime**3, q.prime**20):
        reduced = euler._fermionic_sums(range(6), q, levels, mod)
        assert set(reduced) == set(sums)
        for key, (num, den) in sums.items():
            assert reduced[key][1] == den and (reduced[key][0] - num) % mod == 0, (mod, key)
