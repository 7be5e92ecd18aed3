"""Regularized complex zeta/l-values against the exact rational layer."""

import cmath
import json
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qeuler import (
    ArchParams,
    ComplexChar,
    NoConvergence,
    OutOfDomain,
    PolyArg,
    euler_number_q,
    euler_poly_classical,
    euler_poly_q,
    gen_euler_complex,
    l_q_complex,
    partial_zeta_Hq,
    partial_zeta_Hq_series,
    q_int,
    zeta_Eq,
)
from qeuler import zeta as zeta_module
from qeuler.cli import main


def test_zeta_at_zero_is_one():
    params = ArchParams(q=0.5)
    for x in (0.3, 1.0, 2.5):
        assert abs(zeta_Eq(0.0, x, params) - 1.0) < 1e-12


def test_zeta_interpolates_first_polynomial():
    # E_{1,q}(1) = 1/(1+q) = 2/3 at q = 1/2
    got = zeta_Eq(-1, 1.0, ArchParams(q=0.5))
    assert abs(got - 2 / 3) < 1e-9


def test_zeta_interpolates_euler_polynomials():
    for q in (Fraction(1, 2), Fraction(1, 4)):
        params = ArchParams(q=float(q))
        for k in range(7):
            for x in (1, 2):
                exact = float(euler_poly_q(k, PolyArg(x, 1, q)))
                assert abs(zeta_Eq(-k, float(x), params) - exact) < 1e-8


def test_zeta_fractional_shift_against_exact_layer():
    # base (1/2)^3 makes x = 1/3 exactly representable on the exact side
    exact = float(euler_poly_q(2, PolyArg(1, 3, Fraction(1, 2))))
    got = zeta_Eq(-2, 1 / 3, ArchParams(q=0.5**3))
    assert abs(got - exact) < 1e-9


def test_zeta_rejects_bad_inputs():
    with pytest.raises(OutOfDomain):
        zeta_Eq(1.0, 0.0, ArchParams(q=0.5))
    with pytest.raises(OutOfDomain):
        ArchParams(q=1.2)
    with pytest.raises(NoConvergence):
        zeta_Eq(2.0, 1.0, ArchParams(q=0.9, max_terms=5))
    inf, nan = float("inf"), float("nan")
    for eps in (inf, nan):
        with pytest.raises(OutOfDomain):
            ArchParams(q=0.5, eps=eps)
    for s, x in ((nan, 1.0), (complex(1, inf), 1.0), (0.5, inf), (0.5, nan)):
        with pytest.raises(OutOfDomain):
            zeta_Eq(s, x, ArchParams(q=0.5))


def test_shift_below_float_resolution():
    # q**x rounds to 1, so [x]_q rounds to 0: s with Re s > 0 or Im s != 0
    # would need a negative or complex power of 0
    params = ArchParams(0.5)
    for s in (1, 0.5, 1j, -1 + 1j):
        with pytest.raises(OutOfDomain):
            zeta_Eq(s, 1e-300, params)
    # for real s <= 0 the power of 0 is its limit, and E_{k,q}(x) is continuous at 0
    assert zeta_Eq(0, 1e-300, params) == 1
    want = float(euler_number_q(2, Fraction(1, 2)))
    assert abs(zeta_Eq(-2, 1e-300, params) - want) < 1e-12


def test_partial_zeta_two_forms_agree():
    # near q = 1 both forms end in the Euler-Boole tail: the reduction with
    # step 1 in base q^3, the congruence-class series with step 3 in base q
    for q in (0.5, 0.99, 0.999):
        params = ArchParams(q=q)
        for s in (2.5, -1.0, 0.3 + 0.7j):
            a = partial_zeta_Hq(s, 1, 3, params)
            b = partial_zeta_Hq_series(s, 1, 3, params)
            assert abs(a - b) < 1e-8


def test_partial_zeta_negative_integers():
    q = Fraction(1, 2)
    params = ArchParams(q=float(q))
    for n in range(1, 5):
        for a in (1, 2):
            exact = (-1) ** a * float(q_int(3, q)) ** n / 2 * float(
                euler_poly_q(n, PolyArg(a, 3, q))
            )
            got = partial_zeta_Hq(-n, a, 3, params)
            assert abs(got - exact) < 1e-9


def test_trivial_character_reduces_to_zeta():
    params = ArchParams(q=0.5)
    chi = ComplexChar.trivial()
    for s in (-2, 1.5):
        assert abs(l_q_complex(s, chi, params) + zeta_Eq(s, 1.0, params)) < 1e-12


def test_l_value_interpolation():
    q = Fraction(1, 2)
    params = ArchParams(q=float(q))
    for chi in (ComplexChar.trivial(), ComplexChar.quadratic(3)):
        for k in range(1, 6):
            got = l_q_complex(-k, chi, params)
            want = gen_euler_complex(k, chi, q)
            assert abs(got - want) < 1e-8


def test_l_value_finite_at_zero():
    val = l_q_complex(0.0, ComplexChar.quadratic(3), ArchParams(q=0.5))
    assert abs(val) < 10  # finite, no pole on the alternating side


def test_gen_euler_trivial_conductor():
    q = Fraction(1, 2)
    for n in range(5):
        assert gen_euler_complex(n, ComplexChar.trivial(), q) == complex(
            float(euler_number_q(n, q))
        )


@pytest.mark.parametrize("q", [1 - 1e-6, 1 - 1e-9])
@pytest.mark.parametrize("f", [3, 5, 7])
def test_q_int_real_near_one(q, f):
    # 1 - q**f cancels as q -> 1, by 2e-12 to 3e-9 relative at these points
    with mpmath.workdps(50):
        mq = mpmath.mpf(q)
        want = (1 - mq**f) / (1 - mq)
        assert abs(zeta_module._q_int_real(f, q) - want) <= 1e-15 * abs(want)


def test_gen_euler_quadratic_baseline():
    # regression: exact finite sum chi(1) E_{0} - chi(2) E_{0} ... = -2
    got = gen_euler_complex(0, ComplexChar.quadratic(3), Fraction(1, 2))
    assert abs(got - (-2.0)) < 1e-12


def test_quadratic_character_table():
    chi = ComplexChar.quadratic(3)
    assert chi.value(0) == 0 and chi.value(1) == 1 and chi.value(2) == -1
    assert chi.value(4) == 1  # periodic


def test_character_validation():
    with pytest.raises(OutOfDomain):
        ComplexChar(3, (0.0, 1j, 1j))  # not multiplicative: chi(1) != 1
    with pytest.raises(OutOfDomain):
        ComplexChar(2, (0.0, 1.0))  # even conductor
    with pytest.raises(OutOfDomain):
        ComplexChar(3, (0.5, 1.0, -1.0))  # nonzero value at non-unit
    for f in (1, 9, 15, -3, 0):  # the Legendre symbol needs an odd prime
        with pytest.raises(OutOfDomain):
            ComplexChar.quadratic(f)


def test_a_nan_character_value_is_out_of_domain():
    # a NaN compares false with every bound: it passed the unit and
    # multiplicativity checks, and l_q_complex returned (nan+nanj)
    nan = float("nan")
    for f, values in ((3, (0, nan, 1)), (3, (0, 1, complex(-1, nan))), (1, (nan,))):
        with pytest.raises(OutOfDomain):
            ComplexChar(f, values)


@pytest.mark.parametrize(
    "values",
    [("0", "1", "-1"), (0, "x", 1), 5, None, (0, 1j, None), (0, 1, Decimal(-1)), (0, 10**400, -1)],
    ids=["strings", "x", "int", "None", "a None value", "Decimal", "int past float range"],
)
def test_character_values_that_are_no_numbers_are_out_of_domain(values):
    # strings were read by complex(); "x", None, a Decimal mixed with
    # floats and a non-sequence escaped as a bare ValueError or TypeError
    with pytest.raises(OutOfDomain):
        ComplexChar(3, values)


def test_character_values_of_every_number_type_keep_their_values():
    w = cmath.exp(2j * math.pi / 3)
    assert ComplexChar(3, (0, 1, -1)).values == ComplexChar(3, (0.0, Fraction(1), -1 + 0j)).values
    assert ComplexChar(3, (0, True, -1.0)).values == (0j, 1 + 0j, -1 + 0j)
    assert ComplexChar(7, [0, 1, w * w, w, w, w * w, 1]).values[3] == w


PARAMS, CHI = ArchParams(0.5), ComplexChar.quadratic(3)
NOT_PARAMS = (None, 0.5, "0.5", CHI)
NOT_S = ("x", None, "1", Decimal(1), 10**400)

# every argument of a zeta-side entry point that a wrong type (or an int
# past the float range) got past with a bare AttributeError, TypeError,
# ValueError or OverflowError: (its valid value, the call with it set to
# x, the wrong values)
ARCH_ARGUMENTS = {
    "zeta_Eq params": (PARAMS, lambda x: zeta_Eq(0.5, 1.0, x), NOT_PARAMS),
    "partial_zeta_Hq params": (PARAMS, lambda x: partial_zeta_Hq(0.5, 1, 3, x), NOT_PARAMS),
    "partial_zeta_Hq_series params": (PARAMS, lambda x: partial_zeta_Hq_series(0.5, 1, 3, x), NOT_PARAMS),
    "l_q_complex params": (PARAMS, lambda x: l_q_complex(0.5, CHI, x), NOT_PARAMS),
    "l_q_complex chi": (CHI, lambda x: l_q_complex(0.5, x, PARAMS), (None, 3, "quad:3", PARAMS)),
    "gen_euler_complex chi": (CHI, lambda x: gen_euler_complex(2, x, Fraction(1, 2)), (None, 3, PARAMS)),
    "ArchParams q": (0.5, lambda x: ArchParams(x), ("0.5", None, 0.5 + 0j, Decimal("0.5"))),
    "ArchParams eps": (1e-13, lambda x: ArchParams(0.5, x), ("1e-13", None, 1e-13 + 0j, 10**400)),
    "zeta_Eq s": (0.5, lambda x: zeta_Eq(x, 1.0, PARAMS), NOT_S),
    "zeta_Eq x": (1.0, lambda x: zeta_Eq(0.5, x, PARAMS), ("1", 1 + 0j, Decimal(1), None, 10**400)),
    "partial_zeta_Hq s": (0.5, lambda x: partial_zeta_Hq(x, 1, 3, PARAMS), NOT_S),
    "partial_zeta_Hq_series s": (0.5, lambda x: partial_zeta_Hq_series(x, 1, 3, PARAMS), NOT_S),
    "l_q_complex s": (0.5, lambda x: l_q_complex(x, CHI, PARAMS), NOT_S),
    "l_q_complex s at conductor 1": (0.5, lambda x: l_q_complex(x, ComplexChar.trivial(), PARAMS), NOT_S),
}


@pytest.mark.parametrize("name", ARCH_ARGUMENTS)
def test_an_archimedean_argument_of_the_wrong_type_is_out_of_domain(name):
    valid, call, wrong = ARCH_ARGUMENTS[name]
    call(valid)
    for x in wrong:
        with pytest.raises(OutOfDomain):
            call(x)


def test_the_real_and_complex_number_types_stay_accepted():
    # a Fraction or bool reads as the number it is, as before the checks
    assert ArchParams(Fraction(1, 2)).q == Fraction(1, 2)
    assert zeta_Eq(Fraction(-1), Fraction(1), PARAMS) == zeta_Eq(-1.0, 1.0, PARAMS)
    assert zeta_Eq(True, 1.0, PARAMS) == zeta_Eq(1, 1.0, PARAMS)
    assert ArchParams(0.5, Decimal("1e-13")).eps == Decimal("1e-13")


def test_integer_arguments_must_be_ints():
    # a float or bool residue, modulus, term cap, conductor or character
    # argument is OutOfDomain, as in the exact layer, and no value or bare
    # TypeError comes back
    params = ArchParams(0.5)
    for partial in (partial_zeta_Hq, partial_zeta_Hq_series):
        for a, f in ((1.5, 3), (1, 3.0), (True, 3), (1.0, 3), (Fraction(1), 3)):
            with pytest.raises(OutOfDomain):
                partial(1, a, f, params)
    for call in (
        lambda: ArchParams(0.5, max_terms=100.5),
        lambda: ArchParams(0.5, max_terms=True),
        lambda: ComplexChar(3.0, (0, 1, -1)),
        lambda: ComplexChar(True, (1.0,)),
        lambda: ComplexChar.quadratic(3).value(1.5),
        lambda: ComplexChar.quadratic(3).value(True),
    ):
        with pytest.raises(OutOfDomain):
            call()
    # the int forms are accepted
    assert ArchParams(0.5, max_terms=100).max_terms == 100
    assert ComplexChar(3, (0, 1, -1)).value(-1) == -1


def _abel_limit(term, r_values, tail_constant):
    """Independent second regularizer: direct evaluation of
    sum (-1)^n t_n r^n for r < 1 (with the eventually-constant tail summed
    in closed form), extrapolated polynomially to r = 1."""
    points = []
    head = 200  # t_n equals the constant to machine precision well before this
    for r in r_values:
        total = sum((-1) ** n * term(n) * r**n for n in range(head))
        # remaining tail in closed form: tail_constant * sum_{m>=head} (-r)^m
        total += tail_constant * (-r) ** head / (1 + r)
        points.append((r, total))
    # Neville extrapolation to r = 1
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            ys[i] = ((1 - xs[i]) * ys[i + 1] - (1 - xs[i + level]) * ys[i]) / (
                xs[i + level] - xs[i]
            )
    return ys[0]


@pytest.mark.parametrize("s", [2.5, -2.0])
def test_regularization_against_abel_limit(s):
    q, x = 0.5, 1.0
    params = ArchParams(q=q)

    def term(n):
        return ((1.0 - q ** (n + x)) / (1.0 - q)) ** (-s)

    abel = _abel_limit(term, (0.99, 0.999, 0.9999), (1.0 - q) ** s)
    direct = zeta_Eq(s, x, params) / 2.0
    assert abs(abel - direct) < 1e-6


# -- the tail against the direct loop and mpmath -------------------------------


def _direct_loop(s, A, f, params):
    """The limit-subtracted loop alone, summed term by term until
    |t_n - c| < eps: the summation the tail shortens, kept as the oracle
    of everything the head reaches on its own."""
    q = params.q
    limit = complex(1.0 - q) ** s
    total = limit / 2.0
    for n in range(params.max_terms):
        delta = complex((1.0 - q ** (A + f * n)) / (1.0 - q)) ** (-s) - limit
        total += (-1) ** n * delta
        if n >= 2 and abs(delta) < params.eps:
            return total
    raise NoConvergence(f"direct loop: no convergence in {params.max_terms} terms")


def _mp_abel(s, q, A, f, y_split, dps=30):
    """mpmath Abel value of sum_{m>=0} (-1)^m [A + f m]_q^(-s) at `dps`
    digits: direct terms while q^(A + f m) > y_split, then the binomial
    tail.  With y_split below 10^-dps the tail is negligible and this is
    the direct sum alone."""
    with mpmath.workdps(dps):
        s, q, A = mpmath.mpc(s), mpmath.mpf(q), mpmath.mpf(A)
        c = (1 - q) ** s
        total, n = c / 2, 0
        while q ** (A + f * n) > y_split:
            total += (-1) ** n * (((1 - q ** (A + f * n)) / (1 - q)) ** (-s) - c)
            n += 1
        y = q ** (A + f * n)
        tail, b, j = mpmath.mpc(0), mpmath.mpc(1), 0
        while True:
            j += 1
            b *= (-s - j + 1) / j
            term = b * (-y) ** j / (1 + q ** (f * j))
            tail += term
            if b == 0 or abs(term) < mpmath.mpf(10) ** (-dps - 5):
                break
        return complex(total + (-1) ** n * c * tail)


SUITE_QS = (0.5, 0.25, 0.125)
SUITE_S = tuple(-k for k in range(7)) + (0.5, 1.5)


def test_head_is_the_direct_loop_at_suite_points(monkeypatch):
    # Every q <= 1/2 point of the complex suite converges inside the head,
    # so its value is the direct loop's bit for bit (the verify-all bytes).
    chars = (ComplexChar.trivial(), ComplexChar.quadratic(3))
    points = [(s, q) for q in SUITE_QS for s in SUITE_S]

    def values():
        out = []
        for s, q in points:
            params = ArchParams(q=q)
            out += [zeta_Eq(s, x, params) for x in (1.0, 2.0, 1 / 3)]
            out += [l_q_complex(s, chi, params) for chi in chars]
        return out

    got = values()
    monkeypatch.setattr(zeta_module, "_alternating_regularized", _direct_loop)
    assert got == values()


def test_mp_oracle_split_is_exact():
    # the binomial tail is an identity: splitting at 1/4 or summing every
    # term directly gives the same 30-digit value
    for s in (0.5, -2, 0.5 + 14j):
        split = _mp_abel(s, 0.9, 1 / 3, 1, 0.25)
        direct = _mp_abel(s, 0.9, 1 / 3, 1, 1e-35)
        assert abs(split - direct) <= 1e-25 * abs(direct)


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("s", [0.5, 1.5, 0.5 + 14j, -1, 0.5 + 60j, 0.5 + 100j])
def test_near_one_against_mpmath(q, s):
    # At large |s| the tail must wait until its terms shrink from the start:
    # a tail taken at y <= 1/2 alone, at 0.5 + 100i, would sum terms near
    # 1e17 |c| that cancel to O(|c|), and no digit would survive.  The
    # direct-plus-binomial oracle splits where its own tail is as well
    # conditioned; at q = 0.999, where it would sum thousands of terms, the
    # Euler-Boole oracle gives the same value (test_mp_boole_is_the_split_oracle).
    params = ArchParams(q=q)
    for x in (1.0, 1 / 3):
        if q == 0.999:
            want = 2 * _mp_boole(s, q, x, 1)
        else:
            want = 2 * _mp_abel(s, q, x, 1, 0.25 / max(1, abs(s)))
        got = zeta_Eq(s, x, params)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_cli_zeta_near_one_converges(capsys):
    # the direct loop stalled on float cancellation here (|c| = 1e4)
    code = main(["zeta", "--s", "-2", "--x", "1", "--q", "0.99", "--format", "json"])
    value = json.loads(capsys.readouterr().out)["value"]
    exact = float(euler_poly_q(2, PolyArg(1, 1, Fraction(99, 100))))
    assert code == 0
    assert abs(complex(float(value["re"]), float(value["im"])) - exact) < 1e-8


def test_head_and_tail_share_the_term_cap():
    # q = 1 - 1e-6 would need about 693,000 limit-subtracted head terms
    # before y <= 1/2; the Euler-Boole route answers within a cap of 1000
    q = 1 - 1e-6
    want = 2 * _mp_boole(0.5, q, 1.0, 1)
    assert abs(zeta_Eq(0.5, 1.0, ArchParams(q=q, max_terms=1000)) - want) <= 1e-9 * abs(want)
    # its head of 16 terms and the tail's first few share a cap of 20,
    # which runs out before the tail's terms fall below eps
    with pytest.raises(NoConvergence):
        zeta_Eq(0.5, 1.0, ArchParams(q=q, max_terms=20))
    # at q = 9/10 the limit-subtracted head hands its 64 terms (y = 0.0012)
    # to the Euler-Boole tail, which needs a few more terms than the one a
    # cap of 65 leaves
    with pytest.raises(NoConvergence):
        zeta_Eq(0.5, 1.0, ArchParams(q=0.9, max_terms=65))
    assert zeta_Eq(0.5, 1.0, ArchParams(q=0.9, max_terms=75)) == zeta_Eq(
        0.5, 1.0, ArchParams(q=0.9)
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    q=st.floats(0.3, 0.95),
    s=st.floats(-4.0, 4.0),
    # below about 1e-16, 1 - q^x rounds to 0 and [x]_q^(-s) divides by zero
    x=st.floats(1e-12, 3.0),
)
def test_tail_matches_direct_loop(q, s, x):
    params = ArchParams(q=q, max_terms=5000)
    try:
        want = _direct_loop(s, x, 1, params)
    except NoConvergence:
        assume(False)  # the loop stalls on cancellation, nothing to compare
    got = zeta_module._alternating_regularized(s, x, 1, params)
    # E_{k,q}(x) has zeros in x, so the error is measured against the size
    # of the summed terms, |c| = |(1-q)^s|, when that is the larger scale
    scale = max(abs(want), abs(complex(1.0 - q) ** s))
    assert abs(got - want) <= 1e-9 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    # From q ~ 0.97 on, y = q^(x + 64) is still above 1/8 when the head may
    # stop, where a tail taken at large |s| would grow before it shrinks
    q=st.floats(0.97, 0.99),
    re=st.floats(-4.0, 4.0),
    im=st.floats(-120.0, 120.0),
    x=st.floats(1e-3, 3.0),
)
def test_tail_matches_direct_loop_complex_s(q, re, im, x):
    s = complex(re, im)
    params = ArchParams(q=q, max_terms=20000)
    try:
        want = _direct_loop(s, x, 1, params)
    except NoConvergence:
        assume(False)
    got = zeta_module._alternating_regularized(s, x, 1, params)
    scale = max(abs(want), abs(complex(1.0 - q) ** s))
    assert abs(got - want) <= 1e-9 * scale


# -- the Euler-Boole route near q = 1 -------------------------------------------

_EULER_AT_ZERO = {}


def _mp_boole(s, q, A, f, dps=30):
    """mpmath value of sum_{m>=0} (-1)^m [A + f m]_q^(-s) by the Euler-Boole
    formula at `dps` digits: a head of 60 + 3|s| terms, then
    (-1)^N (1/2) sum_k E_k(0) w_k with the weights from mpmath's own Euler
    polynomials and the w_k by Miller's recurrence, summed until a term is
    10^-(dps+5) of the first.  Its head is long enough that the tail's odd
    terms shrink at least tenfold each; test_mp_boole_is_the_split_oracle
    checks it against the direct-plus-binomial oracle where that one is
    affordable."""
    head = 60 + 3 * int(abs(s))
    with mpmath.workdps(dps + 10):
        s, q, A = mpmath.mpc(s), mpmath.mpf(q), mpmath.mpf(A)
        log_q = mpmath.log(q)
        total = mpmath.mpc(0)
        for m in range(head):
            total += (-1) ** m * (-mpmath.expm1((A + f * m) * log_q) / (1 - q)) ** (-s)
        x = (A + f * head) * log_q
        u = [-mpmath.expm1(x) / (1 - q)]
        w = [u[0] ** (-s)]
        tail, c, k = w[0] / 2, -mpmath.exp(x) / (1 - q), 0
        tiny = mpmath.mpf(10) ** (-dps - 5) * abs(w[0])
        while True:
            k += 1
            c *= f * log_q / k
            u.append(c)
            acc = mpmath.fsum(((1 - s) * j - k) * u[j] * w[k - j] for j in range(1, k + 1))
            w.append(acc / (k * u[0]))
            if k % 2:
                if k not in _EULER_AT_ZERO:
                    _EULER_AT_ZERO[k] = mpmath.eulerpoly(k, 0)
                term = _EULER_AT_ZERO[k] * w[k] / 2
                tail += term
                if abs(term) < tiny:
                    return complex(total + (-1) ** head * tail)


def test_mp_boole_is_the_split_oracle():
    for q in (0.9, 0.99):
        for s in (0.5, -2, 0.5 + 14j, -4 + 30j, 3 - 50j):
            for A, f in ((1 / 3, 1), (4, 5)):
                split = _mp_abel(s, q, A, f, 0.25 / max(1, abs(s)))
                assert abs(_mp_boole(s, q, A, f) - split) <= 1e-25 * abs(split)


def test_benchmark_points_near_one():
    # the five values the parent returned wrong with exit 0, off by a
    # relative 2e-8 to 5.5e-5: the exact layer gives them at x = 1 and
    # 50-digit mpmath at x = 1/3
    q = 0.999
    params = ArchParams(q=q)
    for k in (2, 3):
        exact = float(euler_poly_q(k, PolyArg(1, 1, Fraction(q))))
        got = zeta_Eq(-k, 1.0, params)
        assert abs(got - exact) <= 1e-9 * abs(exact)
        want = 2 * _mp_boole(-k, q, 1 / 3, 1, dps=50)
        assert abs(zeta_Eq(-k, 1 / 3, params) - want) <= 1e-9 * abs(want)
    # the conductor-1 l-value is -zeta(s, 1)
    exact = -float(euler_poly_q(2, PolyArg(1, 1, Fraction(q))))
    got = l_q_complex(-2, ComplexChar.trivial(), params)
    assert abs(got - exact) <= 1e-9 * abs(exact)


@pytest.mark.parametrize("q", [0.999, 0.9999])
def test_negative_real_part_near_one(q):
    # |c| = |(1-q)^s| is 1e12 to 1e16 here: the limit-subtracted loop was off
    # by a relative 1.0e-5 to 1.5
    params = ArchParams(q=q)
    s = -4 + 30j
    for x in (1.0, 1 / 3):
        want = 2 * _mp_boole(s, q, x, 1, dps=50)
        assert abs(zeta_Eq(s, x, params) - want) <= 1e-9 * abs(want)


def test_boole_weights_are_the_euler_values():
    weights = zeta_module._BOOLE_WEIGHTS
    assert len(weights) == 64
    for k, weight in enumerate(weights):
        assert weight == float(euler_poly_classical(k, Fraction(0)))


@pytest.mark.parametrize("q", [0.999, 0.9999])
def test_head_must_grow_with_s(q):
    # at |s| ~ 100 the rule's head N + A/f >= 16 + |s| reaches the bound;
    # the head the rule gives at s = 0, and half its head here, leave a
    # tail whose terms stop shrinking above eps
    s, params = -3 + 100j, ArchParams(q=q)
    want = _mp_boole(s, q, 1.0, 1)
    head = zeta_module._boole_head(s, 1.0, 1, q)
    assert head == 116
    got = zeta_module._euler_boole(s, 1.0, 1, params, head)
    assert abs(got - want) <= 1e-9 * abs(want)
    for short in (zeta_module._boole_head(0, 1.0, 1, q), head // 2):
        with pytest.raises(NoConvergence, match="smallest term"):
            zeta_module._euler_boole(s, 1.0, 1, params, short)


def _q_int_float(x, q):
    return -math.expm1(x * math.log(q)) / (1 - q)


@pytest.mark.parametrize("s", [0.5 + 450j, -4 + 5000j])
def test_head_stops_at_the_binomial_handover(s):
    # at q = 9/10 and |s| > 400 the plain head is taken, but it stops where
    # y max(1, |s|) <= 1/2, as the limit-subtracted head's tail starts at
    # n = 64, not at 16 + |s|
    q = 0.9
    params = ArchParams(q=q)
    for x in (1.0, 1 / 3):
        assert zeta_module._boole_head(s, x, 1, q) < 100
        want = 2 * _mp_abel(s, q, x, 1, 0.25 / abs(s))
        assert abs(zeta_Eq(s, x, params) - want) <= 1e-9 * abs(want)


GRID_QS = (0.97, 0.99, 0.999, 0.9999, 0.99999)
GRID_CLASSES = ((1e-3, 1), (1 / 3, 1), (1, 1), (3, 1), (1, 3), (4, 5))
GRID_S = (-4 + 120j, 4 - 120j, -3.76 + 95.9j, -4, 2.5 + 30j, -1 - 7j)


@pytest.mark.parametrize("q", GRID_QS)
def test_near_one_grid_against_mpmath(q):
    # Error bound 1e-10, scaled by the larger of |value| and the head's last
    # term |[A + f N]_q^(-s)|: for Re s < 0 the float head sums terms that
    # large, so a value near a zero (x = 1, s = -4, where E_{4,q}(1) is
    # O(1 - q)) keeps only that absolute accuracy.  Points where the
    # limit-subtracted head still hands over at n = 64 (q = 0.97 with f = 3
    # or 5) check that head and the same tail on the same scale.
    params = ArchParams(q=q)
    for i, (A, f) in enumerate(GRID_CLASSES):
        for s in GRID_S[i % 2 :: 2]:
            want = _mp_boole(s, q, A, f)
            got = zeta_module._alternating_regularized(s, A, f, params)
            head = zeta_module._boole_head(s, A, f, q)
            last = abs(complex(_q_int_float(A + f * head, q)) ** (-s))
            assert abs(got - want) <= 1e-10 * max(abs(want), last), (A, f, s)


# -- one tail after the limit-subtracted head -----------------------------------


@pytest.mark.parametrize("s", [0.5 + 300j, -4 + 400j, 2.5 - 350j])
@pytest.mark.parametrize("A, f", [(1, 1), (1 / 3, 1), (1, 3), (4, 5)])
def test_limit_head_hands_over_to_the_tail(s, A, f):
    # q^(A + 64 f) max(1, |s|) <= 1/2 at q = 9/10, so the limit-subtracted
    # head runs its 64 terms and the Euler-Boole tail at N = 64 adds the rest
    q = 0.9
    want = _mp_abel(s, q, A, f, 0.25 / abs(s))
    got = zeta_module._alternating_regularized(s, A, f, ArchParams(q=q))
    scale = max(abs(want), abs(complex(1.0 - q) ** s))
    assert abs(got - want) <= 1e-9 * scale


@pytest.mark.parametrize("q, A, f", [(0.97, 1, 3), (0.93, 1 / 3, 1)])
def test_unreachable_threshold_is_no_convergence(q, A, f):
    # |c| = |(1-q)^s| is 4.9e45 and 4.4e34 at s = -30: the tail cannot meet the
    # absolute eps at that scale, and a value from the head's 64 terms was
    # off by a relative 73 and 1238 from 60-digit mpmath
    with pytest.raises(NoConvergence):
        zeta_module._alternating_regularized(-30, A, f, ArchParams(q=q))


def test_float_overflow_is_out_of_domain(capsys):
    # [1e-10]_q^(-s) is about 1e390 at s = 40: past the float range
    with pytest.raises(OutOfDomain):
        zeta_Eq(40, 1e-10, ArchParams(0.5))
    # [3]_q^1e6 overflows in partial_zeta_Hq's factor, not in its series
    with pytest.raises(OutOfDomain):
        partial_zeta_Hq(-1e6, 1, 3, ArchParams(1e-3))
    code = main(["zeta", "--s", "40", "--s-im", "1", "--x", "1e-10", "--q", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_shift_below_resolution_of_q_power_near_one():
    # q**x rounds to 1 at x = 1e-17, but the plain head's expm1 form gives
    # [x]_q = 1e-17 to rounding, so the value is summed, not rejected
    want = 2 * _mp_boole(0.5, 0.999, 1e-17, 1)
    assert abs(zeta_Eq(0.5, 1e-17, ArchParams(0.999)) - want) <= 1e-9 * abs(want)


def _tangent_weights(count):
    """E_k(0) for k < count (even) as floats: 1 at k = 0, 0 at even k > 0,
    and (-1)^((k+1)/2) T_k / 2^k at odd k, with the tangent numbers T_k
    from their integer recurrence (Knuth and Buckholtz)."""
    n = count // 2
    t = [0, 1] + [0] * (n - 1)  # t[i] = T_{2i-1}
    for i in range(2, n + 1):
        t[i] = (i - 1) * t[i - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    weights = [1.0] + [0.0] * (2 * n - 1)
    for i in range(1, n + 1):
        weights[2 * i - 1] = (-1) ** i * math.ldexp(float(t[i]), 1 - 2 * i)
    return tuple(weights)


def test_boole_weights_are_the_tangent_number_recurrence():
    assert zeta_module._BOOLE_WEIGHTS == _tangent_weights(64)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("f", [3, 7])
@pytest.mark.parametrize("s", [-2, 0.5, 0.5 + 14j])
def test_an_l_value_is_its_partial_zetas_bit_for_bit(q, f, s):
    # one reduction per l-value sums what the public partial zetas give,
    # in the same order
    params, chi = ArchParams(q), ComplexChar.quadratic(f)
    total = 0j
    for a in range(1, f):
        total += chi.values[a] * partial_zeta_Hq(s, a, f, params)
    want, got = 2.0 * total, l_q_complex(s, chi, params)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_one_l_value_builds_one_base_params(monkeypatch):
    # the base-q^7 params once for all six residues (once per residue before)
    params, built = ArchParams(0.99), []
    init = ArchParams.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ArchParams, "__init__", counted)
    l_q_complex(0.5 + 14j, ComplexChar.quadratic(7), params)
    assert len(built) == 1
