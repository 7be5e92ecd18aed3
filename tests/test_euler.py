"""q-Euler numbers/polynomials, alternating sums, the fermionic oracle."""

import math
from fractions import Fraction

import pytest
import sympy

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
    euler_number_classical,
    euler_number_q,
    euler_poly_classical,
    euler_poly_q,
    fermionic_riemann,
    padic_valuation,
    q_int,
)

QS = (Fraction(1, 2), Fraction(2, 3), Fraction(6))


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
