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
from itertools import accumulate, repeat
from operator import neg

from .errors import OutOfDomain, QIsOne
from .kernel import QParam, _binom, _check_int, _rational, _Value, as_fraction, q_int, q_int_neg


class PolyArg(_Value):
    """The argument x = a/f of a q-Euler polynomial taken in base q^f.

    Represents the exact evaluation point of E_{n, q^f}(a/f): the base
    is q**f and powers (q^f)^(a/f) are realized as q**a.
    """

    _fields = __slots__ = ("a", "f", "q")

    def __init__(self, a: int, f: int, q: Fraction):
        self._set(a, f, _rational(q))
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
    return _euler_number_q(m, qv.numerator, qv.denominator)


@lru_cache(maxsize=None)
def _euler_number_q(m: int, u: int, v: int) -> Fraction:
    """E_{m,q} at q = u/v in lowest terms: the pairs binom(m,k) (-1)^k v^k /
    (v^k + u^k) added in one tree, times 2 v^m / (v - u)^m.  It never reads
    the Euler row, so the convolution's right side is independent of it."""
    terms, uk, vk = [], 1, 1
    for k in range(m + 1):
        terms.append(((-1) ** k * math.comb(m, k) * vk, vk + uk))
        uk, vk = uk * u, vk * v
    num, den = _tree_sum(terms)
    return Fraction(2 * v**m * num, (v - u) ** m * den)


@lru_cache(maxsize=None)
def _euler_row(m: int, u: int, v: int) -> tuple:
    """(W, num0, den) at q = u/v: W_k = binom(m,k) v^k D/(v^k + u^k) for
    k <= m with D = prod_k (v^k + u^k), E_{m,q}(0) = num0/den, and
    den = (v - u)^m D, so E_{m,q}(x) at q^x = X/Y is
    2 v^m sum_k W_k (-X)^k Y^(m-k) over den Y^m.  It serves every
    polynomial value; a one-shot Euler number is cheaper as a tree sum."""
    dens = [v**k + u**k for k in range(m + 1)]
    D = math.prod(dens)
    W = tuple(math.comb(m, k) * v**k * (D // d) for k, d in enumerate(dens))
    scale = 2 * v**m
    return W, scale * sum(W[::2]) - scale * sum(W[1::2]), (v - u) ** m * D


def _euler_row_pairs(m: int, points, u: int, v: int, f: int = 1) -> list:
    """E_{m,q^f}(a/f) at q = u/v for each a >= 0 in points, as unreduced
    pairs (numerator, den v^(am)) of the cached row in base q^f = u^f/v^f:
    the row and 2 V^m are read once, then each point takes one homogeneous
    Horner pass in (-u^a, v^a), since (q^f)^(a/f) = q^a."""
    V = v**f
    W, _, den = _euler_row(m, u**f, V)
    scale, W = 2 * V**m, W[::-1]
    out = []
    for a in points:
        x, y = -(u**a), v**a
        acc, yk = 0, 1
        for w in W:  # after W_k, acc = sum_{j>=k} W_j x^(j-k) y^(m-j)
            acc = acc * x + w * yk
            yk *= y
        out.append((scale * acc, den * v ** (a * m)))
    return out


def _poly_form_pairs(m: int, ns, u: int, v: int) -> list:
    """alt_power_sum_polyform at q = u/v != 1 for each n in ns, as unreduced
    (numerator, denominator) pairs of ints, (-1)^(n+1) E_{m,q}(n) + E_{m,q},
    read from the cached Euler row: E_{m,q}(n)'s denominator is E_{m,q}'s
    times v^(nm)."""
    num0 = _euler_row(m, u, v)[1]
    return [
        ((-1) ** (n + 1) * num + num0 * v ** (n * m), den)
        for n, (num, den) in zip(ns, _euler_row_pairs(m, ns, u, v))
    ]


def _check_poly_arg(arg) -> None:
    """A q-deformed polynomial value needs a PolyArg whose q is not 1 or -1."""
    if not isinstance(arg, PolyArg):
        raise OutOfDomain(f"the argument must be a PolyArg, got {arg!r}")
    _deformed(arg.q, "use euler_poly_classical for q = 1")


def euler_poly_q(n: int, arg: PolyArg) -> Fraction:
    """The q-Euler polynomial value E_{n, q^f}(a/f), exactly.

    E_{n,q'}(x) = 2 (1/(1-q'))^n sum_k binom(n,k) (-q'^x)^k / (1 + q'^k)
    with q' = q**f and q'^x = q**a.
    """
    _check_order(n)
    _check_poly_arg(arg)
    return Fraction(*_euler_row_pairs(n, (arg.a,), arg.q.numerator, arg.q.denominator, arg.f)[0])


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
    return _euler_poly_classical(n, _rational(x))


def euler_number_classical(n: int) -> Fraction:
    """Classical Euler number E_n = E_n(0); the q -> 1 limit of E_{n,q}."""
    return euler_poly_classical(n, 0)


def _alt_power_sums(ends, ms, u: int, v: int, mod=None) -> dict:
    """{(n, m): (numerator, denominator)} of 2 sum_{l<n} (-1)^l [l]_q^m at
    q = u/v, for every n in ends and m in ms, a row at a time.

    [l]_q = B_l / v^(l-1) where B_0 = 0 and B_(l+1) = v^l + u B_l, so each
    sum is one integer over v^((n-2)m), the Horner sum
    sum_{l<n} (-1)^l B_l^m v^((n-1-l)m).  One pass builds the row of B_l
    for l < max(ends); each m then takes the row's m-th powers and their
    Horner prefix sums, whose entry n is the numerator at n, by C-level
    maps and accumulate (a plain running sum where v^m = 1).  At q = 1,
    B_l = l; at m = 0, [0]_q^0 = 0^0 = 1.  Given an int mod, B_l and the
    Horner sums are reduced mod mod (a running sum only at its ends), so
    each numerator is only congruent to the exact one mod mod; the
    denominators stay exact.
    """
    ends, ms = sorted(set(ends)), tuple(ms)
    row, b, vl = [], 0, 1  # b = B_l, vl = v^l
    for _ in range(ends[-1]):
        row.append(b)
        b, vl = vl + u * b, vl * v
        if mod:
            b, vl = b % mod, vl % mod
    # below n = 2 the sum is empty or [0]_q^m, an integer
    lows = [(n, max(n - 2, 0)) for n in ends]
    out = {}
    for m in ms:
        terms = list(map(pow, row, repeat(m)))
        terms[1::2] = map(neg, terms[1::2])
        vm = pow(v, m, mod)
        if vm == 1:
            sums = list(accumulate(terms, initial=0))
        elif mod:
            sums = list(accumulate(terms, lambda acc, t: (acc * vm + t) % mod, initial=0))
        else:
            sums = list(accumulate(terms, lambda acc, t: acc * vm + t, initial=0))
        for n, low in lows:
            out[n, m] = 2 * (sums[n] % mod if mod else sums[n]), v ** (low * m)
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
    return _over_lcm([_euler_number_q(l, u, v) for l in range(m + 1)])


def _convolution_pairs(n: int, points, u: int, v: int) -> list:
    """The binomial convolution sum_{j<=n} binom(n,j) q^(ja) E_{j,q} [a]_q^(n-j)
    at q = u/v != 1 for each a >= 0 in points, as unreduced pairs
    (numerator, v^(an) den), for (nums, den) the cached table of E_0..E_n
    over their lcm: with q^a = x/v^a and [a]_q = w/v^a for the integers
    x = u^a and w = v (u^a - v^a)/(u - v), the numerator is
    sum_j binom(n,j) x^j w^(n-j) nums[j], by homogeneous Horner.  The table
    and binom(n, .) are read once, then each point takes one pass."""
    nums, den = _euler_numbers_over_lcm(n, u, v)
    terms = [_binom(n, j) * e for j, e in enumerate(nums)]
    out = []
    for a in points:
        x = u**a
        w = v * ((x - v**a) // (u - v))
        acc, xj = 0, 1
        for t in terms:  # after E_j, acc = sum_{i<=j} binom(n,i) x^i w^(j-i) E_i
            acc = acc * w + t * xj
            xj *= x
        out.append((acc, v ** (a * n) * den))
    return out


def convolution_rhs(n: int, a: int, q) -> tuple:
    """The binomial convolution of E_{n,q}(a), sum_{j<=n} binom(n,j) q^(ja)
    E_{j,q} [a]_q^(n-j), as an unreduced (numerator, denominator) pair of
    ints, for a >= 0 and q != 1, -1."""
    _check_order(n)
    _check_int("point a", a)
    if a < 0:
        raise OutOfDomain(f"point a must be >= 0, got {a}")
    qv = _deformed(q, "use euler_number_classical for q = 1")
    return _convolution_pairs(n, (a,), qv.numerator, qv.denominator)[0]


def _closed_form_pairs(m: int, ns, u: int, v: int) -> list:
    """alt_power_sum_closed at q = u/v != 1 for each n in ns, as unreduced
    (numerator, denominator) pairs of ints: (-1)^(n+1) times the
    convolution at (m, n), plus E_{m,q}, over v^(nm) den."""
    nums, den = _euler_numbers_over_lcm(m, u, v)
    return [
        ((-1) ** (n + 1) * num + nums[m] * v ** (n * m), conv_den)
        for n, (num, conv_den) in zip(ns, _convolution_pairs(m, ns, u, v))
    ]


def alt_power_sum_closed(n: int, m: int, q) -> Fraction:
    """Closed form of the alternating power sum through q-Euler numbers:

    (-1)^(n+1) sum_{l<m} binom(m,l) q^(nl) E_{l,q} [n]_q^(m-l)
        + ((-1)^(n+1) q^(nm) + 1) E_{m,q},

    that is (-1)^(n+1) times the binomial convolution at (m, n), whose
    l = m summand is q^(nm) E_{m,q}, plus E_{m,q}: one integer numerator
    over v^(nm) lcm(den E_l) at q = u/v, divided once.
    """
    _check_orders(n, m)
    qv = _deformed(q, "closed form needs q != 1")
    return Fraction(*_closed_form_pairs(m, (n,), qv.numerator, qv.denominator)[0])


def alt_power_sum_polyform(n: int, m: int, q) -> Fraction:
    """Polynomial form of the alternating power sum:

    (-1)^(n+1) E_{m,q}(n) + E_{m,q},

    the tail-splitting of the regularized alternating series at n.
    """
    _check_orders(n, m)
    qv = _deformed(q, "polynomial form needs q != 1")
    return Fraction(*_poly_form_pairs(m, (n,), qv.numerator, qv.denominator)[0])


class DistributionCheck(_Value):
    """Outcome of one multiplication-theorem instance, both sides exact."""

    _fields = __slots__ = ("passed", "lhs", "rhs")

    def __init__(self, passed: bool, lhs: Fraction, rhs: Fraction):
        self._set(passed, lhs, rhs)


def distribution_check(n: int, m: int, arg: PolyArg) -> DistributionCheck:
    """Check E_{n,q'}(x) = [m]_{q'}^n sum_{a<m} (-1)^a E_{n,q'^m}((a+x)/m)
    exactly at x = arg.a/arg.f with q' = arg.q**arg.f and odd m.

    Both sides come from the row form `_distribution_pairs` at this one m
    and are compared cross-multiplied.
    """
    _check_order(n)
    _check_int("modulus m", m)
    if m < 1 or m % 2 == 0:
        raise OutOfDomain(f"modulus m must be odd and positive, got {m}")
    _check_poly_arg(arg)
    (lhs_num, lhs_den), [(num, den)] = _distribution_pairs(
        n, (m,), arg.a, arg.f, arg.q.numerator, arg.q.denominator
    )
    lhs = Fraction(lhs_num, lhs_den)
    passed = lhs_num * den == num * lhs_den
    # equal values have one reduced form, so a passing rhs is lhs itself
    return DistributionCheck(passed, lhs, lhs if passed else Fraction(num, den))


def _distribution_pairs(n: int, ms, a: int, f: int, u: int, v: int) -> tuple:
    """Both sides of the multiplication theorem at x = a/f and q = u/v != 1,
    for each odd m in ms, as unreduced (numerator, denominator) pairs:
    (E_{n,q^f}(a/f), [its right side at each m]).  The left side is read
    once for the whole row of m.

    The inner arguments (j + x)/m are (j f + a)/(m f), so each right side
    is one signed combination of m values of the Euler row in base
    q^(m f), summed over the last point's denominator.
    """
    lhs = _euler_row_pairs(n, (a,), u, v, f)[0]
    U, V = u**f, v**f
    step = v ** (n * f)
    rhs = []
    for m in ms:
        num = 0
        # the point a_j = j f + a is over den v^(n a_j): Horner in v^(n f)
        # brings each to the last point's den, where the loop leaves den
        for j, (num_j, den) in enumerate(_euler_row_pairs(n, range(a, a + m * f, f), u, v, m * f)):
            num = num * step + (-1) ** j * num_j
        # [m]_{q^f} = V (U^m - V^m)/(U - V) / V^m, an integer over V^m
        rhs.append((num * (V * ((U**m - V**m) // (U - V))) ** n, den * V ** (m * n)))
    return lhs, rhs


def _fermionic_sums(ms, q: QParam, levels, mod=None) -> dict:
    """{(m, level): (numerator, denominator)} of fermionic_riemann(m, q,
    level) for every m in ms and level in levels, from one direct pass to
    p^max(levels).

    q^(-x) (-q)^x collapses to (-1)^x, so each Riemann sum is the direct
    alternating sum over x < p^L, divided by [2]_q [p^L]_{-q}; the sum's
    1/2 cancels the 2 of 2/[2]_q.  A mod goes to _alt_power_sums, so each
    numerator is then only congruent to the exact one mod mod.
    """
    qv, out = q.value, {}
    counts = {level: q.prime**level for level in levels}
    sums = _alt_power_sums(counts.values(), ms, qv.numerator, qv.denominator, mod)
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
    if not isinstance(q, QParam) or q.prime is None:
        raise OutOfDomain("fermionic_riemann needs a QParam with prime context")
    _check_int("level", level)
    if level < 1:
        raise OutOfDomain("level must be >= 1")
    _check_order(m)
    return Fraction(*_fermionic_sums((m,), q, (level,))[m, level])
