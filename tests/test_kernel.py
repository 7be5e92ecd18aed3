"""Kernel: binomials, q-integers, valuations, named identities."""

import math
from fractions import Fraction
from functools import cache

import pytest
import sympy

from qeuler import (
    ComplexChar,
    H_pq,
    OutOfDomain,
    QIsOne,
    QParam,
    SeriesBudget,
    TeichChar,
    binom_int,
    binom_product_merge,
    binom_product_shift,
    binom_tail_merge,
    embed,
    padic_valuation,
    q_int,
    q_int_neg,
)
from qeuler import (
    PolyArg,
    alt_power_sum,
    alt_power_sum_closed,
    alt_power_sum_polyform,
    euler_number_q,
    euler_poly_classical,
    gen_euler_complex,
    kernel,
    suites,
)
from qeuler.kernel import _is_odd_prime, as_fraction


def test_binom_small_pascal():
    assert binom_int(5, 2) == 10


def test_binom_negative_upper_index():
    # product formula (-2)(-3)(-4)/6
    assert binom_int(-2, 3) == -4


@pytest.mark.parametrize("n", [-7, -1, 0, 3, 12])
def test_binom_empty_product(n):
    assert binom_int(n, 0) == 1


def test_binom_rejects_negative_lower():
    with pytest.raises(OutOfDomain):
        binom_int(3, -1)


def test_binom_reflection_identity():
    # binom(-r, k) == (-1)^k binom(r+k-1, k); a real test because the
    # implementation uses the falling-factorial product, not reflection.
    for r in range(1, 13):
        for k in range(13):
            assert binom_int(-r, k) == (-1) ** k * binom_int(r + k - 1, k)


def test_binom_matches_math_comb_for_nonnegative():
    for n in range(12):
        for k in range(12):
            assert binom_int(n, k) == math.comb(n, k)


def test_q_int_examples():
    assert q_int(3, 2) == 7  # 1 + 2 + 4
    assert q_int(0, Fraction(7, 3)) == 0
    assert q_int(4, 1) == 4  # q = 1 degenerates to x


def test_q_int_matches_geometric_sum():
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(6), Fraction(-2)):
        for x in range(9):
            assert q_int(x, q) == sum(q**i for i in range(x))


def test_q_int_product_property():
    for q in (Fraction(1, 2), Fraction(6), Fraction(-3, 7)):
        for x in range(12):
            assert q_int(x, q) * (1 - q) == 1 - q**x


def test_q_int_neg_examples():
    # alternating geometric sum: 1 + (-2) = -1
    assert q_int_neg(2, 2) == -1
    for q in (Fraction(1, 2), Fraction(6), Fraction(5, 3)):
        assert q_int_neg(1, q) == 1  # (1+q)/(1+q)
    # direct substitution oracle: (1 - (-2)^3)/(1 + 2) = 9/3
    assert q_int_neg(3, 2) == 3


def test_q_int_neg_matches_alternating_sum():
    for q in (Fraction(1, 2), Fraction(6), Fraction(2, 3)):
        for x in range(9):
            assert q_int_neg(x, q) == sum((-q) ** i for i in range(x))


def test_q_int_neg_rejects_q_one():
    with pytest.raises(QIsOne):
        q_int_neg(3, 1)


def test_qparam_validation():
    QParam(Fraction(6), 5)  # v_5(5) = 1, fine
    QParam(Fraction(11, 6), 5)  # v_5(5/6) = 1, fine
    QParam(Fraction(1), 5)  # q = 1 has v_5(0) = inf
    with pytest.raises(OutOfDomain):
        QParam(Fraction(3), 5)  # v_5(2) = 0
    with pytest.raises(OutOfDomain):
        QParam(Fraction(6, 5), 5)  # p divides the denominator
    with pytest.raises(OutOfDomain):
        QParam(Fraction(6), 4)  # not an odd prime


def test_qparam_hash_follows_equality():
    # the hash is taken once, from the normalized value
    assert QParam(6, 5) == QParam(Fraction(12, 2), 5)
    assert hash(QParam(6, 5)) == hash(QParam(Fraction(12, 2), 5))
    assert hash(QParam(Fraction(11, 6))) == hash(QParam(Fraction(22, 12), None))
    assert len({QParam(6, 5), QParam(Fraction(12, 2), 5), QParam(6), QParam(Fraction(11, 6), 5)}) == 3


def test_padic_valuation():
    assert padic_valuation(50, 5) == 2
    assert padic_valuation(Fraction(4, 25), 5) == -2
    assert padic_valuation(Fraction(0), 5) == math.inf


@pytest.mark.parametrize("x", [0, 1, 7, Fraction(2, 3)])
@pytest.mark.parametrize("p", [1, 0, -5])
def test_padic_valuation_rejects_a_base_below_two(x, p):
    # base 1 divides every integer forever; base 0 divides by zero
    with pytest.raises(OutOfDomain):
        padic_valuation(x, p)


def test_negative_q_integers_reject_q_zero():
    # [x]_q for x < 0 raises q to a negative power
    for fn in (q_int, q_int_neg):
        with pytest.raises(OutOfDomain):
            fn(-2, 0)
        assert fn(2, 0) == 1


def _shift_grid(limit):
    for r in range(2, limit + 1):
        for j in range(limit + 1):
            for k in range(limit + 1):
                if j + k > 0 and r != 1 - k:
                    yield r, j, k


def test_binom_product_shift_exhaustive():
    assert all(binom_product_shift(r, j, k) for r, j, k in _shift_grid(10))


def test_binom_product_merge_exhaustive():
    assert all(
        binom_product_merge(r, j, k)
        for r in range(2, 11)
        for j in range(11)
        for k in range(11)
    )


def test_binom_tail_merge_exhaustive():
    assert all(
        binom_tail_merge(r, j, k)
        for r in range(1, 11)
        for j in range(11)
        for k in range(11)
    )


def test_merge_coefficients_are_binomials_at_every_k_the_assembly_reads():
    # c_k = (r/(r+k)) binom(-r-1, k) = binom(-r, k).  The reindexing stage
    # checks c_k to depth 12 only, while the expansion's assembly reads it
    # up to its truncation index (23 at p = 5, M = 20)
    for r in range(1, 11):
        for k in range(1, 121):
            assert kernel.tail_merge_coefficient(r, k) == binom_int(-r, k), (r, k)


def test_identity_domain_guards():
    with pytest.raises(OutOfDomain):
        binom_product_shift(1, 0, 0)  # j + k == 0
    with pytest.raises(OutOfDomain):
        binom_product_merge(1, 2, 2)  # r < 2
    with pytest.raises(OutOfDomain):
        binom_tail_merge(0, 1, 1)  # r < 1


# -- sympy oracle: both sides of each identity as sympy Rationals, over
# r, j, k <= 14 and past every edge of each domain


@cache
def _sym_binom(n, k):
    return sympy.binomial(n, k)


def _shift_sides(r, j, k):
    lhs = _sym_binom(-r, k) * _sym_binom(1 - r - k, j) / sympy.Integer(r + k - 1)
    rhs = -_sym_binom(-r, k + j - 1) * _sym_binom(k + j, j) / sympy.Integer(j + k)
    return lhs, rhs


def _merge_sides(r, j, k):
    lhs = _sym_binom(-r, k) * _sym_binom(1 - r - k, j) / sympy.Integer(r + k - 1)
    rhs = _sym_binom(-r + 1, k + j) * _sym_binom(k + j, j) / sympy.Integer(r - 1)
    return lhs, rhs


def _tail_sides(r, j, k):
    lhs = sympy.Rational(r, r + k) * _sym_binom(-r - 1, k) * _sym_binom(-r - k, j)
    return lhs, _sym_binom(-r, k + j) * _sym_binom(k + j, j)


# (predicate, its two sides, its domain)
IDENTITY_ORACLES = [
    (binom_product_shift, _shift_sides, lambda r, j, k: min(j, k) >= 0 < j + k and r != 1 - k),
    (binom_product_merge, _merge_sides, lambda r, j, k: r >= 2 and min(j, k) >= 0),
    (binom_tail_merge, _tail_sides, lambda r, j, k: r >= 1 and min(j, k) >= 0),
]


@pytest.mark.parametrize(
    "predicate, sides, in_domain", IDENTITY_ORACLES, ids=["shift", "merge", "tail"]
)
def test_binom_identities_match_sympy(predicate, sides, in_domain):
    checked = 0
    for r in range(-3, 15):
        for j in range(-1, 15):
            for k in range(-1, 15):
                if not in_domain(r, j, k):
                    with pytest.raises(OutOfDomain):
                        predicate(r, j, k)
                    continue
                lhs, rhs = sides(r, j, k)
                assert predicate(r, j, k) is (lhs == rhs), (r, j, k)
                checked += 1
    assert checked > 2500


def test_binom_memo_holds_the_suite_grid():
    # a bounded memo that the suite's grid overflows would evict on every call
    kernel._binom.cache_clear()
    assert all(check.passed for check in suites.binomial_identity_checks())
    info = kernel._binom.cache_info()
    assert info.currsize == 441 < info.maxsize


def test_the_suite_grid_reads_each_binomial_row_once(monkeypatch):
    # the grid reads 1,620 binomials: rows binom(1-r-d, .) once per r, and
    # binom(k+j, j) once; one read per binomial of every point is 13,516
    reads = []
    right = kernel._binom

    def counting(n, k):
        reads.append((n, k))
        return right(n, k)

    monkeypatch.setattr(kernel, "_binom", counting)
    assert all(check.passed for check in suites.binomial_identity_checks())
    assert len(reads) <= 1_620 and len(set(reads)) == 441


def test_binom_identities_fail_on_a_wrong_binomial(monkeypatch):
    # one wrong value (binom(5, 2) = 11) breaks each identity somewhere
    def wrong(n, k):
        return 11 if (n, k) == (5, 2) else binom_int(n, k)

    monkeypatch.setattr(kernel, "_binom", wrong)
    assert not all(binom_product_shift(r, j, k) for r, j, k in _shift_grid(10))
    assert not all(binom_product_merge(r, 2, 3) for r in range(2, 11))
    assert not all(binom_tail_merge(r, 2, 3) for r in range(1, 11))


def test_odd_prime_check_matches_trial_division():
    def trial(p):
        return p > 2 and p % 2 == 1 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))

    assert [p for p in range(-3, 5000) if _is_odd_prime(p)] == [
        p for p in range(-3, 5000) if trial(p)
    ]
    # strong pseudoprimes to the bases 2..7 and to the bases 2..23
    assert not _is_odd_prime(3215031751)
    assert not _is_odd_prime(3825123056546413051)
    assert not _is_odd_prime((2**31 - 1) * (2**61 - 1))
    assert _is_odd_prime(2**61 - 1) and _is_odd_prime(2**89 - 1)


FLOAT_PRIME_INPUTS = [
    lambda: QParam(6, 5.0),
    lambda: TeichChar(5.0, 1),
    lambda: H_pq(3, 1, 5, QParam(6, 5.0), SeriesBudget(3), 5),
    lambda: ComplexChar.quadratic(3.0),
    lambda: embed(1, 5.0, 3),
]


def test_float_prime_rejected_before_and_after_the_int_is_cached():
    # 5.0 == 5 and hash(5.0) == hash(5); the cached answer for the int
    # must not carry over to the float
    _is_odd_prime.cache_clear()
    for _ in range(2):  # on an empty cache, then with 5 and 3 cached
        for make in FLOAT_PRIME_INPUTS:
            with pytest.raises(OutOfDomain):
                make()
        assert _is_odd_prime(5) and _is_odd_prime(3)
    assert not _is_odd_prime(5.0) and not _is_odd_prime(True)


def test_as_fraction_returns_a_fraction_argument_itself():
    x = Fraction(31, 6)
    assert as_fraction(x) is x
    q = QParam(x, 5)
    assert as_fraction(q) is q.value
    assert type(as_fraction(6)) is Fraction and as_fraction(6) == 6

    class Sub(Fraction):
        pass

    # a subclass is converted, so callers always get a plain Fraction
    assert type(as_fraction(Sub(1, 3))) is Fraction and as_fraction(Sub(1, 3)) == Fraction(1, 3)


# every call that reads a rational argument through the kernel's reader:
# QParam, PolyArg, embed, padic_valuation, euler_poly_classical,
# gen_euler_complex, and the functions that read q through as_fraction
RATIONAL_ARGUMENTS = {
    "QParam": lambda x: QParam(x),
    "PolyArg": lambda x: PolyArg(1, 1, x),
    "embed": lambda x: embed(x, 5, 4),
    "padic_valuation": lambda x: padic_valuation(x, 5),
    "euler_poly_classical": lambda x: euler_poly_classical(2, x),
    "gen_euler_complex": lambda x: gen_euler_complex(1, ComplexChar.trivial(), x),
    "q_int": lambda x: q_int(2, x),
    "q_int_neg": lambda x: q_int_neg(2, x),
    "euler_number_q": lambda x: euler_number_q(2, x),
    "alt_power_sum": lambda x: alt_power_sum(3, 2, x),
    "alt_power_sum_closed": lambda x: alt_power_sum_closed(3, 2, x),
    "alt_power_sum_polyform": lambda x: alt_power_sum_polyform(3, 2, x),
}


@pytest.mark.parametrize("name", RATIONAL_ARGUMENTS)
def test_unreadable_rationals_raise_out_of_domain(name):
    # each escaped as a bare TypeError, ValueError or ArithmeticError
    call = RATIONAL_ARGUMENTS[name]
    value = call(Fraction(1, 2))
    for x in (1 / 2, "1/2", " 0.5 "):
        assert call(x) == value
    for x in (None, "x", "1/0", math.inf, math.nan):
        with pytest.raises(OutOfDomain, match="is not a rational number"):
            call(x)
