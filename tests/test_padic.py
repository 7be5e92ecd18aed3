"""Capped-precision Z_p arithmetic, Teichmuller lifts, log/exp, powers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qeuler import (
    DenominatorDivisibleByP,
    NotCoprime,
    NotOneUnit,
    OutOfDomain,
    PadicApprox,
    PrecisionExhausted,
    QParam,
    TeichChar,
    agreement,
    angle_bracket,
    binom_int,
    binom_zp,
    embed,
    padic_exp,
    padic_log,
    padic_valuation,
    power_zp,
    teichmuller,
)


def test_embed_half():
    x = embed(Fraction(1, 2), 5, 3)
    assert x.residue == 63  # 2 * 63 == 126 == 1 mod 125
    assert 2 * 63 % 125 == 1


def test_embed_zero_and_pure_power():
    z = embed(0, 5, 4)
    assert z.residue == 0 and z.valuation is None
    assert z.valuation_label == ">=4"
    y = embed(5, 5, 3)
    assert y.residue == 5 and y.valuation == 1


def test_embed_rejects_p_in_denominator():
    with pytest.raises(DenominatorDivisibleByP):
        embed(Fraction(1, 5), 5, 3)


def test_embed_negative_rational():
    x = embed(Fraction(-7, 2), 5, 2)
    assert (2 * x.residue + 7) % 25 == 0


def test_teichmuller_values():
    assert teichmuller(1, 5, 4).residue == 1
    assert teichmuller(2, 5, 2).residue == 7
    w = teichmuller(2, 5, 3)
    assert w.residue == 57
    assert 57 * 57 % 125 == 124  # 57^2 == -1, hence 57^4 == 1 mod 125


def test_teichmuller_defining_properties():
    for p, n in ((5, 6), (7, 4), (5, 1), (11, 1)):
        mod = p**n
        # negative residues and residues at or above p^N lift to the same
        # root of unity as their class mod p
        for a in (*range(1, p), *range(-p + 1, 0), mod + 1, mod + p - 1, 3 * mod + 2):
            if a % p == 0:
                continue
            w = teichmuller(a, p, n)
            assert w.precision == n and 0 <= w.residue < mod
            assert w.residue % p == a % p
            assert pow(w.residue, p - 1, mod) == 1
            assert w.residue == teichmuller(a % p, p, n).residue


def test_teichmuller_rejects_multiples():
    with pytest.raises(NotCoprime):
        teichmuller(10, 5, 3)


def test_teichmuller_multiplicative():
    p, n = 5, 5
    for a in range(1, 10):
        for b in range(1, 10):
            if a % p == 0 or b % p == 0:
                continue
            lhs = teichmuller(a, p, n) * teichmuller(b, p, n)
            rhs = teichmuller(a * b, p, n)
            assert lhs.residue == rhs.residue


def test_log_of_one_is_zero():
    assert padic_log(PadicApprox.one(5, 4)).residue == 0


def test_log_frozen_value():
    # partial sum 5 - 25/2 + 125/3 over exact rationals, reduced mod 5^4
    oracle = Fraction(5) - Fraction(25, 2) + Fraction(125, 3)
    assert embed(oracle, 5, 4).residue == 555
    assert padic_log(embed(6, 5, 4)).residue == 555


def test_log_rejects_non_one_units():
    with pytest.raises(NotOneUnit):
        padic_log(embed(2, 5, 4))


def test_exp_log_round_trips():
    u = embed(6, 5, 4)  # 1 + p
    assert padic_exp(padic_log(u)).residue == u.residue
    x = embed(5, 5, 4)
    assert padic_log(padic_exp(x)).residue == x.residue


def test_exp_trivia_and_domain():
    assert padic_exp(PadicApprox.zero(5, 4)).residue == 1
    with pytest.raises(OutOfDomain):
        padic_exp(embed(3, 5, 4))


def test_exp_is_homomorphism():
    log6 = padic_log(embed(6, 5, 4))
    assert padic_exp(2 * log6).residue == 36


def test_power_zp_trivia():
    u = embed(6, 5, 4)
    assert power_zp(u, 0).residue == 1
    assert power_zp(u, 1).residue == u.residue
    # exp(3 log 6) must equal the direct cube
    assert power_zp(u, embed(3, 5, 4)).residue == 216


def test_power_zp_additive_in_exponent():
    u = embed(11, 5, 8)
    for s1, s2 in ((2, 3), (Fraction(1, 2), 4), (Fraction(3, 2), Fraction(-1, 2))):
        lhs = power_zp(u, embed(Fraction(s1) + Fraction(s2), 5, 8))
        rhs = power_zp(u, embed(Fraction(s1), 5, 8)) * power_zp(u, embed(Fraction(s2), 5, 8))
        val, sat = agreement(lhs, rhs)
        assert sat, (s1, s2, val)


def test_binom_zp_trivia():
    s = embed(Fraction(3, 2), 5, 6)
    assert binom_zp(s, 0).residue == 1
    t = embed(-3, 5, 6)
    assert binom_zp(t, 2).residue == embed(6, 5, binom_zp(t, 2).precision).residue


def test_binom_zp_matches_exact_rational():
    # oracle: the exact rational (-7/2)(-9/2)(-11/2)/6 embedded afterwards
    oracle = Fraction(-7, 2) * Fraction(-9, 2) * Fraction(-11, 2) / 6
    assert oracle == Fraction(-231, 16)
    got = binom_zp(embed(Fraction(-7, 2), 5, 6), 3)
    want = embed(oracle, 5, got.precision)
    assert got.residue == want.residue


def test_binom_zp_matches_binom_int_everywhere():
    for s in (-6, -1, 0, 4, 9):
        for k in range(7):
            got = binom_zp(embed(s, 5, 8), k)
            assert got.residue == embed(binom_int(s, k), 5, got.precision).residue


def test_binom_zp_reports_precision_loss():
    s = embed(Fraction(1, 2), 5, 6)
    # v_5(10!) == 2 is charged, partially offset by the valuation the
    # falling factorial accumulates along the way: net one digit lost.
    got = binom_zp(s, 10)
    assert got.precision == 5
    with pytest.raises(PrecisionExhausted):
        binom_zp(embed(Fraction(1, 2), 5, 2), 25)


def test_angle_bracket_values():
    q = QParam(Fraction(6), 5)
    assert angle_bracket(1, q, 4).residue == 1
    # [2]_6 / w(2) = 7 * 57^{-1} mod 125
    want = 7 * pow(57, -1, 125) % 125
    assert want == 101
    assert angle_bracket(2, q, 3).residue == 101
    for a in range(1, 5):
        assert angle_bracket(a, q, 3).residue % 5 == 1
    with pytest.raises(NotCoprime):
        angle_bracket(5, q, 3)


def test_power_of_q_minus_one_valuation_law():
    # v_p(q^m - 1) = v_p(q - 1) + v_p(m) for q == 1 mod p, odd p
    for q in (Fraction(6), Fraction(11, 6)):
        base = padic_valuation(q - 1, 5)
        for m in range(1, 201):
            assert padic_valuation(q**m - 1, 5) == base + padic_valuation(m, 5)


def test_arithmetic_precision_rules():
    x = embed(Fraction(7, 3), 5, 6)
    y = embed(50, 5, 6)
    assert (x + y).precision == 6
    assert (x * y).precision == 6  # unit times approximate value: no gain
    assert (y * y).precision == 8  # both factors divisible by p^2
    assert (x * 25).precision == 8  # exact scalar is known to all digits
    assert (y / 25).precision == 4 and (y / 25).residue == 2
    with pytest.raises(OutOfDomain):
        x / 5  # unit not divisible by p
    with pytest.raises(PrecisionExhausted):
        PadicApprox.zero(5, 3) / embed(0, 5, 3)  # divisor valuation unknown
    with pytest.raises(OutOfDomain):
        x / y  # quotient would leave Z_p


def test_division_inverts_multiplication():
    x = embed(Fraction(7, 3), 5, 8)
    y = embed(Fraction(12, 7), 5, 8)
    z = (x * y) / y
    val, sat = agreement(z, x.reduce(z.precision))
    assert sat


def test_pow_negative_needs_unit():
    u = embed(7, 5, 6)
    assert (u ** (-1) * u).residue % 5**6 == 1
    with pytest.raises(OutOfDomain):
        embed(5, 5, 6) ** (-1)


def test_precision_soundness_randomized():
    # recomputing with extra working precision and reducing must agree
    rng = random.Random(20240817)
    p, n, extra = 5, 6, 5
    for _ in range(200):
        nums = [rng.randrange(-400, 400) for _ in range(3)]
        dens = [rng.choice([1, 2, 3, 7, 9, 11]) for _ in range(3)]
        fracs = [Fraction(a, b) for a, b in zip(nums, dens)]
        lo = [embed(f, p, n) for f in fracs]
        hi = [embed(f, p, n + extra) for f in fracs]

        def combine(xs):
            t = xs[0] * xs[1] + xs[2]
            t = t * xs[1] - xs[0]
            return t

        a, b = combine(lo), combine(hi)
        cap = min(a.precision, b.precision)
        assert a.residue % p**cap == b.residue % p**cap


def test_digit_rendering():
    x = PadicApprox(5, 290, 4)
    assert x.digits() == (0, 3, 1, 2)
    assert x.render() == "...0 3 1 2 mod 5^4"


def test_reduce_and_guards():
    x = embed(123, 5, 6)
    assert x.reduce(2).residue == 123 % 25
    with pytest.raises(PrecisionExhausted):
        x.reduce(0)
    with pytest.raises(PrecisionExhausted):
        x.reduce(7)
    with pytest.raises(OutOfDomain):
        PadicApprox(4, 1, 2)
    with pytest.raises(OutOfDomain):
        PadicApprox(9, 1, 2)


def test_teich_char_values():
    chi = TeichChar(5, 2)
    assert chi.conductor == 5
    assert chi.value(10, 4).residue == 0
    w2 = teichmuller(2, 5, 4)
    assert chi.value(2, 4).residue == (w2 * w2).residue
    triv = TeichChar(5, 0)
    assert triv.conductor == 1
    assert triv.value(5, 4).residue == 1  # trivial character is 1 even at p
    assert TeichChar(5, 6).exponent == 2  # exponent reduced mod p-1


def test_non_int_residue_and_exponent_rejected():
    # a float residue rendered as "...1.5 0.0 0.0 0.0 mod 5^4", and a float
    # character exponent reached the character sum's pow() as a bare TypeError
    for x in (1.5, 2.0, True, Fraction(2)):
        with pytest.raises(OutOfDomain):
            PadicApprox(5, x, 4)
        with pytest.raises(OutOfDomain):
            TeichChar(5, x)
    assert PadicApprox(5, -1, 2).residue == 24
    assert TeichChar(5, -2).exponent == 2


def test_non_int_teichmuller_residue_rejected():
    # a float residue reached math.gcd as a bare TypeError, and the trivial
    # character and a bool residue returned values
    for x in (2.5, 2.0, True, Fraction(2)):
        with pytest.raises(OutOfDomain):
            teichmuller(x, 5, 4)
        for t in (0, 1):
            with pytest.raises(OutOfDomain):
                TeichChar(5, t).value(x, 4)
    assert teichmuller(2, 5, 4).residue == 182
    assert TeichChar(5, 0).value(2, 4).residue == 1
    assert TeichChar(5, 1).value(10, 4).residue == 0


_UNIT = PadicApprox(5, 6, 4)  # 1 mod 5: a 1-unit


# each of these escaped as a bare AttributeError or TypeError, or in
# power_zp(Fraction(6), 2) returned the Fraction 36
@pytest.mark.parametrize(
    "call",
    [
        lambda: agreement(Fraction(6), _UNIT),
        lambda: agreement(_UNIT, 6),
        lambda: agreement(None, None),
        lambda: padic_log(Fraction(6)),
        lambda: padic_log(6),
        lambda: padic_log(None),
        lambda: padic_exp(Fraction(5)),
        lambda: padic_exp(5),
        lambda: padic_exp(None),
        lambda: power_zp(Fraction(6), 2),
        lambda: power_zp(6, Fraction(1, 2)),
        lambda: power_zp(None, _UNIT),
        lambda: power_zp(_UNIT, 0.5),
        lambda: power_zp(_UNIT, None),
        lambda: binom_zp(Fraction(1, 2), 3),
        lambda: binom_zp(6, 3),
        lambda: binom_zp(None, 3),
        lambda: binom_zp(_UNIT, 2.0),
        lambda: binom_zp(_UNIT, None),
        lambda: angle_bracket(2, Fraction(6), 4),
        lambda: angle_bracket(2, 6, 4),
        lambda: angle_bracket(2, None, 4),
        lambda: angle_bracket(2.0, QParam(Fraction(6), 5), 4),
    ],
    ids=[
        "agreement Fraction", "agreement int", "agreement None",
        "padic_log Fraction", "padic_log int", "padic_log None",
        "padic_exp Fraction", "padic_exp int", "padic_exp None",
        "power_zp Fraction", "power_zp int", "power_zp None",
        "power_zp float s", "power_zp None s",
        "binom_zp Fraction", "binom_zp int", "binom_zp None",
        "binom_zp float k", "binom_zp None k",
        "angle_bracket Fraction q", "angle_bracket int q", "angle_bracket None q",
        "angle_bracket float a",
    ],
)
def test_a_value_that_is_no_padic_approx_is_out_of_domain(call):
    with pytest.raises(OutOfDomain):
        call()


def test_composite_primes_rejected_at_every_boundary():
    composite = 1009 * 1013  # no factor below 1000
    with pytest.raises(OutOfDomain):
        embed(Fraction(1, 2), composite, 3)
    with pytest.raises(OutOfDomain):
        teichmuller(2, composite, 3)
    with pytest.raises(OutOfDomain):
        TeichChar(composite, 1)
    with pytest.raises(OutOfDomain):
        PadicApprox(composite, 1, 2)
    with pytest.raises(OutOfDomain):
        QParam(Fraction(10), prime=9)
    with pytest.raises(OutOfDomain):
        QParam(Fraction(composite + 1), prime=composite)


def test_arithmetic_over_a_large_prime():
    p = 1000003
    x = embed(Fraction(1, 2), p, 3)
    assert (x + x).residue == 1
    assert (x * 2).residue == 1
    assert (x**3 * 8).residue == 1


def test_precision_below_one_rejected():
    for precision in (0, -1):
        with pytest.raises(PrecisionExhausted):
            embed(2, 5, precision)
        with pytest.raises(PrecisionExhausted):
            teichmuller(2, 5, precision)


# -- soundness properties: every op agrees with exact arithmetic ----------
#
# For p-integral rationals x, y embedded at precisions n, m, the result of
# each op must be congruent to the exact rational value modulo
# p**result.precision: the precision a value claims is the invariant every
# reported digit rests on.

PRIMES = st.sampled_from([3, 5, 7, 31])
PRECISIONS = st.integers(1, 12)
SOUNDNESS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def _p_integral(draw, p, unit=False):
    num = draw(st.integers(-(10**6), 10**6))
    den = draw(st.integers(1, 10**4))
    assume(den % p and (not unit or num % p))
    return Fraction(num, den)


def _congruent(result, exact):
    assert result.residue == embed(exact, result.prime, result.precision).residue


@SOUNDNESS
@given(st.data(), PRIMES, PRECISIONS, PRECISIONS)
def test_arithmetic_agrees_with_exact(data, p, n, m):
    a = data.draw(_p_integral(p))
    b = data.draw(_p_integral(p))
    u = data.draw(_p_integral(p, unit=True))
    x, y, w = embed(a, p, n), embed(b, p, m), embed(u, p, m)
    _congruent(x + y, a + b)
    _congruent(x - y, a - b)
    _congruent(x * y, a * b)
    _congruent(x / w, a / u)
    _congruent(x + b, a + b)
    _congruent(b - x, b - a)
    _congruent(x * b, a * b)
    _congruent(x / u, a / u)


@SOUNDNESS
@given(st.data(), PRIMES, PRECISIONS, st.integers(-6, 6))
def test_integer_powers_agree_with_exact(data, p, n, k):
    a = data.draw(_p_integral(p, unit=k < 0))
    x = embed(a, p, n)
    _congruent(x**k, a**k)
    _congruent(power_zp(x, k), a**k)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_powers_match_repeated_products(p):
    # x**k keeps exactly the (residue, precision) that k - 1 products
    # give, zero, unit and non-unit residues alike
    for n in range(1, 7):
        mod = p**n
        for r in {0, 1, 2, p - 1, p, 2 * p + 1, p * p % mod, mod - p, mod - 1}:
            x = PadicApprox(p, r, n)
            assert ((x**0).residue, (x**0).precision) == (1, n)
            acc = x
            for k in range(1, 9):
                y = x**k
                assert (y.residue, y.precision) == (acc.residue, acc.precision), (r, n, k)
                acc = acc * x


def _log_series(z, terms):
    return sum(Fraction((-1) ** (i + 1), i) * z**i for i in range(1, terms))


def _exp_series(x, terms):
    return sum(x**i / math.factorial(i) for i in range(terms))


@SOUNDNESS
@given(st.data(), PRIMES, PRECISIONS)
def test_log_and_exp_agree_with_exact_series(data, p, n):
    # v(z^i / i) >= i - log_p(i) and v(x^i / i!) >= i/2 for v(z), v(x) >= 1,
    # so 2n + 10 terms carry every digit below p**n of the exact value
    t = data.draw(_p_integral(p))
    z = p * t
    _congruent(padic_log(embed(1 + z, p, n)), _log_series(z, 2 * n + 10))
    _congruent(padic_exp(embed(z, p, n)), _exp_series(z, 2 * n + 10))
