"""Exact-rational q-Euler numbers and polynomials.

Everything in this module is evaluated at a concrete rational q in exact
arithmetic; q is never a formal indeterminate.  The q = 1 degeneration is
served by a dedicated classical path (``euler_number_classical`` /
``euler_poly_classical``) built on the functional equation
E_n(x+1) + E_n(x) = 2 x^n, because the q-deformed closed forms divide
by (1 - q).

Fractional arguments only ever occur in the combination E_{n, q^f}(a/f),
where q^{f * (a/f)} = q^a is exact; :class:`PolyArg` packages that shape
so no fractional exponentiation is ever attempted.  Orders, lengths,
moduli, levels and a PolyArg's a and f must be ints (``OutOfDomain``
otherwise, by the kernel's ``_check_int``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import OutOfDomain, QIsOne
from .kernel import QParam, _check_int, as_fraction, q_int, q_int_neg


@dataclass(frozen=True)
class PolyArg:
    """The argument x = a/f of a q-Euler polynomial taken in base q^f.

    Represents the exact evaluation point of E_{n, q^f}(a/f): the base
    is q**f and powers (q^f)^(a/f) are realized as q**a.
    """

    a: int
    f: int
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        _check_int("numerator a", self.a)
        _check_int("denominator f", self.f)
        if self.a < 0:
            raise OutOfDomain(f"numerator a must be >= 0, got {self.a}")
        if self.f < 1 or self.f % 2 == 0:
            raise OutOfDomain(f"denominator f must be odd and positive, got {self.f}")


def _deformed(q, message: str) -> Fraction:
    """q as a Fraction, for a q-deformed form: q = 1 raises QIsOne with
    `message`, and q = -1, where 1 + q^i vanishes at every odd i,
    OutOfDomain."""
    qv = as_fraction(q)
    if qv == 1:
        raise QIsOne(message)
    if qv == -1:
        raise OutOfDomain("q = -1 is outside the domain: 1 + q vanishes")
    return qv


def _check_order(n: int) -> None:
    _check_int("order", n)
    if n < 0:
        raise OutOfDomain("order must be >= 0")


def _check_orders(n: int, m: int) -> None:
    _check_int("length n", n)
    _check_int("order m", m)
    if n < 0 or m < 0:
        raise OutOfDomain(f"length and order must be >= 0, got n = {n}, m = {m}")


def _over_lcm(values: list) -> tuple:
    """Fractions as (numerators, den): integer numerators over den, the lcm
    of their denominators, so sums of them are integer sums."""
    den = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def _tree_sum(terms: list) -> tuple:
    """The sum of (numerator, denominator) int pairs, added pairwise in a
    balanced tree and never reduced, so each addition multiplies operands
    of like size and no gcd is taken on the way."""
    while len(terms) > 1:
        pairs = [(a * d + c * b, b * d) for (a, b), (c, d) in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            pairs.append(terms[-1])
        terms = pairs
    return terms[0]


def euler_number_q(m: int, q) -> Fraction:
    """The q-Euler number E_{m,q} = E_{m,q}(0), exactly.

    E_{m,q} = 2 (1/(1-q))^m sum_{i<=m} binom(m,i) (-1)^i / (1 + q^i).
    """
    _check_order(m)
    qv = _deformed(q, "use euler_number_classical for q = 1")
    return _euler_poly_q(m, 0, 1, qv.numerator, qv.denominator)


@lru_cache(maxsize=None)
def _euler_poly_q(n: int, a: int, f: int, u: int, v: int) -> Fraction:
    # Keyed on q = u/v in lowest terms, so a hit hashes ints, not a Fraction.
    # With Q = q^f = U/V and q^a = x/y, y^n times the k-th summand is the
    # pair binom(n,k) (-x)^k y^(n-k) V^k / (V^k + U^k); the pairs are summed
    # unreduced and the sum is scaled by 2 V^n / ((V - U)^n y^n), reduced once.
    U, V, x, y = u**f, v**f, u**a, v**a
    num, den = _tree_sum(
        [(math.comb(n, k) * (-x) ** k * y ** (n - k) * V**k, V**k + U**k) for k in range(n + 1)]
    )
    return Fraction(2 * V**n * num, (V - U) ** n * y**n * den)


def euler_poly_q(n: int, arg: PolyArg) -> Fraction:
    """The q-Euler polynomial value E_{n, q^f}(a/f), exactly.

    E_{n,q'}(x) = 2 (1/(1-q'))^n sum_k binom(n,k) (-q'^x)^k / (1 + q'^k)
    with q' = q**f and q'^x = q**a.
    """
    _check_order(n)
    _deformed(arg.q, "use euler_poly_classical for q = 1")
    return _euler_poly_q(n, arg.a, arg.f, arg.q.numerator, arg.q.denominator)


@lru_cache(maxsize=None)
def _euler_poly_classical(n: int, x: Fraction) -> Fraction:
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n, k) * _euler_poly_classical(k, x)
    return x**n - acc / 2


def euler_poly_classical(n: int, x) -> Fraction:
    """Classical Euler polynomial E_n(x), defined through the contract
    E_n(x+1) + E_n(x) = 2 x^n with E_0 = 1."""
    _check_order(n)
    return _euler_poly_classical(n, Fraction(x))


def euler_number_classical(n: int) -> Fraction:
    """Classical Euler number E_n = E_n(0); the q -> 1 limit of E_{n,q}."""
    return euler_poly_classical(n, 0)


def alt_power_sum(n: int, m: int, q) -> Fraction:
    """The finite alternating power sum 2 sum_{l<n} (-1)^l [l]_q^m, directly.

    With q = u/v, [l]_q = B_l / v^(l-1) where B_0 = 0 and
    B_(l+1) = v^l + u B_l, so the sum is one integer, built by Horner
    over the common denominator v^((n-2)m), divided once.  At q = 1,
    B_l = l; at m = 0, [0]_q^0 = 0^0 = 1.
    """
    _check_orders(n, m)
    qv = as_fraction(q)
    u, v = qv.numerator, qv.denominator
    vm = v**m
    acc, b, vl = 0, 0, 1  # b = B_l, vl = v^l
    for l in range(n):
        acc = acc * vm + (-(b**m) if l % 2 else b**m)
        b, vl = vl + u * b, vl * v
    # below n = 2 the sum is empty or [0]_q^m, an integer
    return Fraction(2 * acc, v ** (max(n - 2, 0) * m))


@lru_cache(maxsize=None)
def _euler_numbers_over_lcm(m: int, u: int, v: int) -> tuple:
    """E_{0,q}..E_{m,q} at q = u/v as (numerators, den) over their lcm."""
    return _over_lcm([_euler_poly_q(l, 0, 1, u, v) for l in range(m + 1)])


def alt_power_sum_closed(n: int, m: int, q) -> Fraction:
    """Closed form of the alternating power sum through q-Euler numbers:

    (-1)^(n+1) sum_{l<m} binom(m,l) q^(nl) E_{l,q} [n]_q^(m-l)
        + ((-1)^(n+1) q^(nm) + 1) E_{m,q}.

    With q = u/v, q^n = x/y for x = u^n, y = v^n, and [n]_q = w/y for the
    integer w = v (u^n - v^n)/(u - v) = v sum_{i<n} u^i v^(n-1-i), so the
    l-th summand is the integer binom(m,l) x^l w^(m-l) times E_{l,q}, over
    the one denominator y^m; the q^(nm) E_{m,q} part is the summand at
    l = m.  The sum is one integer numerator over y^m lcm(den E_l),
    divided once.
    """
    _check_orders(n, m)
    qv = _deformed(q, "closed form needs q != 1")
    u, v = qv.numerator, qv.denominator
    x, y = u**n, v**n
    w = v * ((x - y) // (u - v))
    nums, den = _euler_numbers_over_lcm(m, u, v)
    acc = sum(math.comb(m, l) * x**l * w ** (m - l) * e for l, e in enumerate(nums))
    ym = y**m
    return Fraction((-1) ** (n + 1) * acc + nums[m] * ym, den * ym)


def alt_power_sum_polyform(n: int, m: int, q) -> Fraction:
    """Polynomial form of the alternating power sum:

    (-1)^(n+1) E_{m,q}(n) + E_{m,q},

    the tail-splitting of the regularized alternating series at n.
    """
    _check_orders(n, m)
    qv = _deformed(q, "polynomial form needs q != 1")
    u, v = qv.numerator, qv.denominator
    return (-1) ** (n + 1) * _euler_poly_q(m, n, 1, u, v) + _euler_poly_q(m, 0, 1, u, v)


@dataclass(frozen=True)
class DistributionCheck:
    """Outcome of one multiplication-theorem instance, both sides exact."""

    passed: bool
    lhs: Fraction
    rhs: Fraction


def distribution_check(n: int, m: int, arg: PolyArg) -> DistributionCheck:
    """Check E_{n,q'}(x) = [m]_{q'}^n sum_{a<m} (-1)^a E_{n,q'^m}((a+x)/m)
    exactly at x = arg.a/arg.f with q' = arg.q**arg.f and odd m.

    The inner arguments (a + x)/m have denominator m*arg.f and are formed
    by PolyArg composition, so both sides stay exact rationals.
    """
    _check_order(n)
    _check_int("modulus m", m)
    if m < 1 or m % 2 == 0:
        raise OutOfDomain(f"modulus m must be odd and positive, got {m}")
    lhs = euler_poly_q(n, arg)
    nums, den = _over_lcm(
        [euler_poly_q(n, PolyArg(j * arg.f + arg.a, m * arg.f, arg.q)) for j in range(m)]
    )
    # one numerator over lcm(den) times [m]_{q'}^n, compared cross-multiplied
    num = sum((-1) ** j * t for j, t in enumerate(nums))
    qm = q_int(m, arg.q**arg.f)
    num, den = num * qm.numerator**n, den * qm.denominator**n
    passed = lhs.numerator * den == num * lhs.denominator
    # equal values have one reduced form, so a passing rhs is lhs itself
    return DistributionCheck(passed, lhs, lhs if passed else Fraction(num, den))


def fermionic_riemann(m: int, q: QParam, level: int) -> Fraction:
    """Level-L Riemann sum of the alternating-measure integral whose
    moments are the q-Euler numbers:

        (2/[2]_q) (1/[p^L]_{-q}) sum_{x < p^L} q^(-x) [x]_q^m (-q)^x.

    Exact rational; converges p-adically to E_{m,q} as the level grows.
    """
    if q.prime is None:
        raise OutOfDomain("fermionic_riemann needs a QParam with prime context")
    _check_int("level", level)
    if level < 1:
        raise OutOfDomain("level must be >= 1")
    _check_order(m)
    qv = q.value
    count = q.prime**level
    # q^(-x) (-q)^x collapses to (-1)^x, so the sum is alt_power_sum / 2
    # and its 1/2 cancels the 2 of 2/[2]_q.
    return alt_power_sum(count, m, qv) / (q_int(2, qv) * q_int_neg(count, qv))
