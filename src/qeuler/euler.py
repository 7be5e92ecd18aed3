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
from fractions import Fraction
from functools import lru_cache

from .errors import OutOfDomain, QIsOne
from .kernel import QParam, _check_int, _Value, as_fraction, q_int, q_int_neg


class PolyArg(_Value):
    """The argument x = a/f of a q-Euler polynomial taken in base q^f.

    Represents the exact evaluation point of E_{n, q^f}(a/f): the base
    is q**f and powers (q^f)^(a/f) are realized as q**a.
    """

    _fields = __slots__ = ("a", "f", "q")

    def __init__(self, a: int, f: int, q: Fraction):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "q", Fraction(q))
        _check_int("numerator a", a)
        _check_int("denominator f", f)
        if a < 0:
            raise OutOfDomain(f"numerator a must be >= 0, got {a}")
        if f < 1 or f % 2 == 0:
            raise OutOfDomain(f"denominator f must be odd and positive, got {f}")


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


def _euler_poly_sum(n: int, points, f: int, u: int, v: int) -> tuple:
    """sum_j s_j E_{n,q^f}(a_j/f) at q = u/v, for points (s_j, a_j) with
    a_j >= 0, as one unreduced (numerator, denominator) pair of ints.

    With Q = q^f = U/V and last = max a_j, v^(n last) times the k-th
    summand of the sum is binom(n,k) V^k / (V^k + U^k) times the integer
    sum_j s_j (-u^a_j)^k v^(a_j (n-k)) v^(n (last - a_j)), built from
    running powers; the n+1 pairs are added in one tree and the sum is
    scaled by 2 V^n / ((V - U)^n v^(n last)).  One point is one value.
    """
    U, V = u**f, v**f
    last = max(a for _, a in points)
    coeffs = [0] * (n + 1)
    for s, a in points:
        x, y = -(u**a), v**a
        # lows[i] = s v^(n (last - a)) y^i, read at i = n - k
        lows = [s * v ** (n * (last - a))]
        for _ in range(n):
            lows.append(lows[-1] * y)
        xk = 1
        for k in range(n + 1):
            coeffs[k] += xk * lows[n - k]
            xk *= x
    terms, Uk, Vk = [], 1, 1
    for k, c in enumerate(coeffs):
        terms.append((math.comb(n, k) * c * Vk, Vk + Uk))
        Uk, Vk = Uk * U, Vk * V
    num, den = _tree_sum(terms)
    return 2 * V**n * num, (V - U) ** n * v ** (n * last) * den


@lru_cache(maxsize=None)
def _euler_poly_q(n: int, a: int, f: int, u: int, v: int) -> Fraction:
    # Keyed on q = u/v in lowest terms, so a hit hashes ints, not a Fraction.
    return Fraction(*_euler_poly_sum(n, ((1, a),), f, u, v))


@lru_cache(maxsize=None)
def _euler_row(m: int, u: int, v: int) -> tuple:
    """(W, num0, den) at q = u/v: W_k = binom(m,k) v^k D/(v^k + u^k) for
    k <= m with D = prod_k (v^k + u^k), E_{m,q}(0) = num0/den, and
    den = (v - u)^m D, so E_{m,q}(a) = 2 v^m sum_k W_k (-u^a)^k v^(a(m-k))
    over den v^(am).  It serves the exact suite's grids, where one row is
    read at many points; a one-shot value is cheaper as a tree sum."""
    dens = [v**k + u**k for k in range(m + 1)]
    D = math.prod(dens)
    W = tuple(math.comb(m, k) * v**k * (D // d) for k, d in enumerate(dens))
    scale = 2 * v**m
    return W, scale * sum(W[::2]) - scale * sum(W[1::2]), (v - u) ** m * D


def _euler_row_pair(m: int, a: int, u: int, v: int) -> tuple:
    """E_{m,q}(a) at q = u/v, a >= 0, as the unreduced pair (numerator,
    den v^(am)) of the cached row: homogeneous Horner in (-u^a, v^a)."""
    W, _, den = _euler_row(m, u, v)
    x, y = -(u**a), v**a
    acc, yk = 0, 1
    for w in reversed(W):  # after W_k, acc = sum_{j>=k} W_j x^(j-k) y^(m-j)
        acc = acc * x + w * yk
        yk *= y
    return 2 * v**m * acc, den * v ** (a * m)


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


def _alt_power_sums(ends, ms, u: int, v: int, mod=None) -> dict:
    """{(n, m): (numerator, denominator)} of 2 sum_{l<n} (-1)^l [l]_q^m at
    q = u/v, for every n in ends and m in ms, from one direct pass.

    [l]_q = B_l / v^(l-1) where B_0 = 0 and B_(l+1) = v^l + u B_l, so each
    sum is one integer over v^((n-2)m), built by Horner up to max(ends):
    the accumulator after term l is the numerator at n = l + 1.  At q = 1,
    B_l = l; at m = 0, [0]_q^0 = 0^0 = 1.  Given an int mod, B_l and the
    accumulators are reduced mod mod on the way, so each numerator is only
    congruent to the exact one mod mod; the denominators stay exact.
    """
    ends, ms = set(ends), tuple(ms)
    vms = [pow(v, m, mod) for m in ms]
    accs = [0] * len(ms)
    out = {}
    b, vl = 0, 1  # b = B_l, vl = v^l
    for l in range(max(ends) + 1):
        if l in ends:
            # below n = 2 the sum is empty or [0]_q^m, an integer
            for m, acc in zip(ms, accs):
                out[l, m] = 2 * acc, v ** (max(l - 2, 0) * m)
        sign = -1 if l % 2 else 1
        accs = [acc * vm + sign * pow(b, m, mod) for acc, vm, m in zip(accs, vms, ms)]
        b, vl = vl + u * b, vl * v
        if mod:
            accs, b, vl = [acc % mod for acc in accs], b % mod, vl % mod
    return out


def alt_power_sum(n: int, m: int, q) -> Fraction:
    """The finite alternating power sum 2 sum_{l<n} (-1)^l [l]_q^m, directly:
    one integer, summed by Horner over the common denominator v^((n-2)m)
    (q = u/v), divided once."""
    _check_orders(n, m)
    qv = as_fraction(q)
    return Fraction(*_alt_power_sums((n,), (m,), qv.numerator, qv.denominator)[n, m])


@lru_cache(maxsize=None)
def _euler_numbers_over_lcm(m: int, u: int, v: int) -> tuple:
    """E_{0,q}..E_{m,q} at q = u/v as (numerators, den) over their lcm."""
    return _over_lcm([_euler_poly_q(l, 0, 1, u, v) for l in range(m + 1)])


def _closed_form_pair(n: int, m: int, u: int, v: int) -> tuple:
    """alt_power_sum_closed at q = u/v != 1 as an unreduced
    (numerator, denominator) pair of ints."""
    x, y = u**n, v**n
    w = v * ((x - y) // (u - v))
    nums, den = _euler_numbers_over_lcm(m, u, v)
    acc = sum(math.comb(m, l) * x**l * w ** (m - l) * e for l, e in enumerate(nums))
    ym = y**m
    return (-1) ** (n + 1) * acc + nums[m] * ym, den * ym


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
    return Fraction(*_closed_form_pair(n, m, qv.numerator, qv.denominator))


def _poly_form_pair(n: int, m: int, u: int, v: int) -> tuple:
    """alt_power_sum_polyform at q = u/v != 1 as an unreduced
    (numerator, denominator) pair of ints, from the cached E_{m,q}(n) and
    E_{m,q}."""
    at_n, at_0 = _euler_poly_q(m, n, 1, u, v), _euler_poly_q(m, 0, 1, u, v)
    return (
        (-1) ** (n + 1) * at_n.numerator * at_0.denominator + at_0.numerator * at_n.denominator,
        at_n.denominator * at_0.denominator,
    )


def alt_power_sum_polyform(n: int, m: int, q) -> Fraction:
    """Polynomial form of the alternating power sum:

    (-1)^(n+1) E_{m,q}(n) + E_{m,q},

    the tail-splitting of the regularized alternating series at n.
    """
    _check_orders(n, m)
    qv = _deformed(q, "polynomial form needs q != 1")
    return Fraction(*_poly_form_pair(n, m, qv.numerator, qv.denominator))


class DistributionCheck(_Value):
    """Outcome of one multiplication-theorem instance, both sides exact."""

    _fields = __slots__ = ("passed", "lhs", "rhs")

    def __init__(self, passed: bool, lhs: Fraction, rhs: Fraction):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


def distribution_check(n: int, m: int, arg: PolyArg) -> DistributionCheck:
    """Check E_{n,q'}(x) = [m]_{q'}^n sum_{a<m} (-1)^a E_{n,q'^m}((a+x)/m)
    exactly at x = arg.a/arg.f with q' = arg.q**arg.f and odd m.

    The inner arguments (a + x)/m are (j arg.f + arg.a)/(m arg.f), so the
    right-hand side is one signed combination of Euler polynomial values
    in base q^(m arg.f): one tree sum, compared cross-multiplied.
    """
    _check_order(n)
    _check_int("modulus m", m)
    if m < 1 or m % 2 == 0:
        raise OutOfDomain(f"modulus m must be odd and positive, got {m}")
    lhs = euler_poly_q(n, arg)
    u, v = arg.q.numerator, arg.q.denominator
    points = [((-1) ** j, j * arg.f + arg.a) for j in range(m)]
    num, den = _euler_poly_sum(n, points, m * arg.f, u, v)
    # [m]_{q'} = V (U^m - V^m)/(U - V) / V^m with q' = U/V, an integer over V^m
    U, V = u**arg.f, v**arg.f
    num, den = num * (V * ((U**m - V**m) // (U - V))) ** n, den * V ** (m * n)
    passed = lhs.numerator * den == num * lhs.denominator
    # equal values have one reduced form, so a passing rhs is lhs itself
    return DistributionCheck(passed, lhs, lhs if passed else Fraction(num, den))


def _fermionic_sums(ms, q: QParam, levels) -> dict:
    """{(m, level): (numerator, denominator)} of fermionic_riemann(m, q,
    level) for every m in ms and level in levels, from one direct pass to
    p^max(levels).

    q^(-x) (-q)^x collapses to (-1)^x, so each Riemann sum is the direct
    alternating sum over x < p^L, divided by [2]_q [p^L]_{-q}; the sum's
    1/2 cancels the 2 of 2/[2]_q.
    """
    qv, out = q.value, {}
    counts = {level: q.prime**level for level in levels}
    sums = _alt_power_sums(counts.values(), ms, qv.numerator, qv.denominator)
    two = q_int(2, qv)
    for level, count in counts.items():
        norm = two * q_int_neg(count, qv)
        for m in ms:
            num, den = sums[count, m]
            out[m, level] = num * norm.denominator, den * norm.numerator
    return out


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
    return Fraction(*_fermionic_sums((m,), q, (level,))[m, level])
