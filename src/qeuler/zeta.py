"""Regularized evaluation of the alternating q-zeta and l-functions.

Every infinite series on this side is an alternating series
sum'_{m>=0} (-1)^m t_m with t_m = [A + f m]_q^(-s), whose terms tend
geometrically (rate q^(f m)) to the constant c = (1-q)^s; its value is
*defined* as the Abel value.  A head of N terms is summed directly, and
one tail finishes every sum the head leaves open: the alternating
Euler-Maclaurin (Euler-Boole) formula of Borwein, Calkin and Manna
("Euler-Boole summation revisited", Amer. Math. Monthly 116, 2009),

    sum'_{m>=0} (-1)^m t_{N+m}  =  (1/2) sum_{k>=0} E_k(0) w_k,

w_k the Taylor coefficients at 0 of [A + f N + f t]_q^(-s), from Miller's
power recurrence (Knuth, TAOCP vol. 2, 4.7), and E_k(0) the Euler
polynomials at 0, read from the tangent numbers.  The tail is asymptotic:
it stops at its first term below eps, and raises NoConvergence if its
terms grow again first.

Two heads feed it.  Where q^(A + f _HEAD_MIN) max(1, |s|) <= 1/2 (at
q <= 9/10, every point with |s| < 400), the head is the exact
limit-subtraction

    sum'_{m>=0} (-1)^m t_m  :=  c/2 + sum_{m>=0} (-1)^m (t_m - c),

summed term by term until a term is below eps, for at most _HEAD_MIN
terms (every q <= 1/2 point of the complex suite stops there).  As
_HEAD_MIN is even, that head less c/2 is the plain sum of its terms, and
the tail at N = _HEAD_MIN adds the rest.  Both round at the scale of |c|,
which is huge for Re s << 0: there the tail may not meet the absolute eps
(NoConvergence), and a value it does return is good to about 1e-14 |c|.

Everywhere else, nearer q = 1, where that head would cancel terms of size
|c|, it is N = _boole_head terms summed plainly, [x]_q = -expm1(x log q)
/ (1 - q): about 16 + |s| head terms and, over Re s in [-4, 4] and
|Im s| <= 120, 6 to 42 tail terms (median 16), whatever q, rounding at
the scale of the head's terms rather than |c|.

This is what makes the zeta and l-function definitions meaningful and
computable at arbitrary complex s.  q is restricted to real values in
(0, 1): all bases [A + f m]_q are then positive reals and complex powers
use the principal branch with no cut ambiguity.  A power that leaves the
float range (a base [x]_q that rounds to 0, or a value past 1e308) raises
OutOfDomain.

An integer argument (a partial zeta's residue a and modulus f,
``ArchParams.max_terms``, a ``ComplexChar``'s conductor and the residue
of ``ComplexChar.value``) must be an int, as in the exact layer
(``kernel._check_int``): a float, bool or Fraction raises ``OutOfDomain``.
"""

from __future__ import annotations

import cmath
import math

from .errors import NoConvergence, OutOfDomain
from .euler import PolyArg, euler_poly_q
from .kernel import _check_int, _is_odd_prime, _rational, _Value, q_int

# The limit-subtracted head sums at most this many terms (an even number)
# before the tail takes over; every value it finishes within them (every
# q <= 1/2 point of the complex suite) is the direct loop's bit for bit.
_HEAD_MIN = 64
# The tail's weights E_k(0), k < _BOOLE_TERMS, bound its length.
_BOOLE_TERMS = 64


class ArchParams(_Value):
    """Summation policy for the archimedean side: the real deformation
    parameter q in (0, 1), the tail threshold, and the term cap."""

    _fields = __slots__ = ("q", "eps", "max_terms")

    def __init__(self, q: float, eps: float = 1e-13, max_terms: int = 200000):
        if not 0.0 < q < 1.0:
            raise OutOfDomain(f"q must lie strictly in (0, 1), got {q}")
        if not (math.isfinite(eps) and eps > 0.0):
            raise OutOfDomain(f"tail threshold must be positive and finite, got {eps}")
        _check_int("max_terms", max_terms)
        if max_terms < 3:
            # the tail test starts at n = 2
            raise OutOfDomain(f"max_terms must be >= 3, got {max_terms}")
        self._set(q, eps, max_terms)


def _q_int_real(x: float, q: float) -> float:
    """[x]_q = -expm1(x log q) / (1 - q), where 1 - q**x would cancel."""
    return -math.expm1(x * math.log(q)) / (1.0 - q)


def _float_range(exc: ArithmeticError, q: float, s) -> OutOfDomain:
    return OutOfDomain(f"a power at q = {q}, s = {s} leaves the float range: {exc}")


def _alternating_regularized(s, A, f, params: ArchParams) -> complex:
    """Abel value of sum_{m>=0} (-1)^m [A + f m]_q^(-s): the
    limit-subtracted head of at most _HEAD_MIN terms, or, where it would
    not end by then, the plain head of _boole_head terms, each finished by
    the Euler-Boole tail (see the module docstring).  Head and tail terms
    together count against params.max_terms."""
    q, eps, max_terms = params.q, params.eps, params.max_terms
    try:
        if q ** (A + f * _HEAD_MIN) * max(1.0, abs(s)) > 0.5:
            return _euler_boole(s, A, f, params, _boole_head(s, A, f, q))
        limit = complex(1.0 - q) ** s
        total = limit / 2.0
        for n in range(min(_HEAD_MIN, max_terms)):
            y = q ** (A + f * n)
            delta = complex((1.0 - y) / (1.0 - q)) ** (-s) - limit
            total += (-1) ** n * delta
            if n >= 2 and abs(delta) < eps:
                return total
        return total - limit / 2.0 + _boole_tail(s, A, f, params, _HEAD_MIN)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _float_range(exc, q, s) from exc


def _boole_head(s, A, f, q: float) -> int:
    """Head length N of the plain head: N + A/f >= 16 + |s|, or, if that
    is earlier, the first n with y = q^(A + f n) and y max(1, |s|) <= 1/2.

    Near q = 1 each odd tail term is about |(s + k)(s + k + 1)| /
    (pi (N + A/f))^2 of the one before, so at most 1/pi^2 for k < 16; and
    the smallest term, about e^(-pi (N + A/f - |Im s| / 2)) of the first,
    is below 1e-21 of it.  Further from q = 1 (|s| > 400 at q = 9/10) the
    second bound, which the limit-subtracted head meets by _HEAD_MIN, comes
    first: u(t)^(-s) = c sum_j binom(-s, j) (-y)^j e^(j lam t) then has
    terms that at least halve in j, and the Boole terms of each
    e^(j lam t) fall like (j |lam| / pi)^k, so the head need not grow with
    |s| beyond log(2 |s|) / log(1/q) terms."""
    handover = math.ceil((math.log(0.5 / max(1.0, abs(s))) / math.log(q) - A) / f)
    return max(0, min(math.ceil(16 + abs(s) - A / f), handover))


def _euler_boole(s, A, f, params: ArchParams, head: int) -> complex:
    """sum_{m<N} (-1)^m [A + f m]_q^(-s) plus the Euler-Boole tail at
    N = head, with [x]_q from _q_int_real."""
    tail = _boole_tail(s, A, f, params, head)  # checks the term cap first
    total = 0j
    for m in reversed(range(head)):
        total = complex(_q_int_real(A + f * m, params.q)) ** (-s) - total
    return total + tail


def _boole_tail(s, A, f, params: ArchParams, head: int) -> complex:
    """(-1)^N (1/2) sum_k E_k(0) w_k, N = head, with w_k the Taylor
    coefficients at 0 of u(t)^(-s), u(t) = [A + f N + f t]_q =
    (1 - y e^(lam t)) / (1 - q), y = q^(A + f N), lam = f log q, by Miller's
    power recurrence w_k = (1 / (k u_0)) sum_{j=1}^k ((1 - s) j - k) u_j w_{k-j}.
    The tail stops at its first term below eps; if its terms grow again
    before that, or the term cap (head terms included) or the weights run
    out, NoConvergence names its smallest term."""
    q, eps, max_terms = params.q, params.eps, params.max_terms
    if head >= max_terms:
        raise NoConvergence(f"Euler-Boole head of {head} terms exceeds max_terms = {max_terms}")
    log_q = math.log(q)
    x = (A + f * head) * log_q
    gap = -math.expm1(x)  # 1 - y
    w0 = complex(gap / (1.0 - q)) ** (-s)
    size0 = abs(w0)
    weights = _boole_weights(16)
    lam, one_s = f * log_q, 1.0 - s
    u = -math.exp(x) / gap  # u_j / u_0 = -y lam^j / (j! (1 - y)) for j >= 1
    us, ws = [1.0], [1.0 + 0j]  # u_j / u_0 and w_j / w_0
    tail, smallest = 0.5, math.inf
    for k in range(1, min(_BOOLE_TERMS, max_terms - head)):
        if k == len(weights):
            weights = _boole_weights(2 * k)
        u *= lam / k
        us.append(u)
        acc = 0j
        for j in range(1, k + 1):
            acc += (one_s * j - k) * us[j] * ws[k - j]
        ws.append(acc / k)
        if k % 2:
            term = 0.5 * weights[k] * ws[k]
            tail += term
            bound = abs(term) * size0
            if bound < eps:
                return (-1) ** head * w0 * tail
            if bound >= smallest:
                raise NoConvergence(
                    f"Euler-Boole tail: its smallest term {smallest:.3g} "
                    f"is above the tail threshold {eps}"
                )
            smallest = bound
    raise NoConvergence(
        f"Euler-Boole tail: tail threshold {eps} not reached within {max_terms} terms "
        f"({head} in the head) or {_BOOLE_TERMS} weights; smallest term {smallest:.3g}"
    )


_boole_table = ()  # E_k(0), grown by doubling on first use of each k


def _boole_weights(count: int = _BOOLE_TERMS) -> tuple:
    """The Euler-Boole weights E_k(0) as floats, k < count at least (the
    table doubles from 16 up to _BOOLE_TERMS as the tail reaches further):
    1 at k = 0, 0 at even k > 0, and (-1)^((k+1)/2) T_k / 2^k at odd k,
    with the tangent numbers T_k from their integer recurrence (Knuth and
    Buckholtz)."""
    global _boole_table
    if len(_boole_table) < count:
        n = 8
        while 2 * n < count:
            n *= 2
        t = [0, 1] + [0] * (n - 1)  # t[i] = T_{2i-1}
        for i in range(2, n + 1):
            t[i] = (i - 1) * t[i - 1]
        for i in range(2, n + 1):
            for j in range(i, n + 1):
                t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
        weights = [1.0] + [0.0] * (2 * n - 1)
        for i in range(1, n + 1):
            weights[2 * i - 1] = (-1) ** i * math.ldexp(float(t[i]), 1 - 2 * i)
        _boole_table = tuple(weights)
    return _boole_table


def _check_s(s) -> None:
    if not cmath.isfinite(complex(s)):
        raise OutOfDomain(f"exponent s must be finite, got {s}")


def _check_class(a, f) -> None:
    _check_int("residue", a)
    _check_int("modulus", f)
    if not 0 < a < f or f % 2 == 0:
        raise OutOfDomain("need 0 < a < f with f odd")


def zeta_Eq(s, x: float, params: ArchParams) -> complex:
    """The alternating q-zeta value 2 sum'_{n>=0} (-1)^n [n+x]_q^(-s).

    At negative integers s = -k this interpolates the q-Euler polynomial
    E_{k,q}(x); the series is regularized as described in the module
    docstring.
    """
    if not (math.isfinite(x) and x > 0):
        raise OutOfDomain(f"shift x must be positive and finite, got {x}")
    _check_s(s)
    return 2.0 * _alternating_regularized(s, x, 1, params)


def partial_zeta_Hq(s, a: int, f: int, params: ArchParams) -> complex:
    """Partial q-zeta H_q(s, a:f) over the congruence class a mod f,
    via its reduction (-1)^a [f]_q^(-s) zeta(s, a/f; base q^f) / 2."""
    _check_class(a, f)
    q = params.q
    inner = zeta_Eq(s, a / f, ArchParams(q**f, params.eps, params.max_terms))
    try:
        factor = complex(_q_int_real(f, q)) ** (-s)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _float_range(exc, q, s) from exc
    return (-1) ** a * factor / 2.0 * inner


def partial_zeta_Hq_series(s, a: int, f: int, params: ArchParams) -> complex:
    """The same partial q-zeta from its defining congruence-class series
    sum_{m == a mod f, m > 0} (-1)^m [m]_q^(-s), regularized directly;
    kept as an independent cross-check of the reduction form."""
    _check_class(a, f)
    _check_s(s)
    return (-1) ** a * _alternating_regularized(s, a, f, params)


class ComplexChar(_Value):
    """A Dirichlet character of odd conductor with complex values.

    values[a] is the character at the residue a; root of unity when a is
    coprime to the conductor, zero otherwise, completely multiplicative.
    """

    _fields = __slots__ = ("conductor", "values")

    def __init__(self, conductor: int, values: tuple):
        f = conductor
        _check_int("conductor", f)
        if f < 1 or f % 2 == 0:
            raise OutOfDomain(f"conductor must be odd and positive, got {f}")
        if len(values) != f:
            raise OutOfDomain("need exactly one value per residue class")
        values = tuple(complex(v) for v in values)
        self._set(conductor, values)
        for a in range(f):
            v = values[a]
            if math.gcd(a, f) == 1 and f > 1:
                if abs(abs(v) - 1.0) > 1e-12:
                    raise OutOfDomain(f"value at unit {a} must be a root of unity")
            elif f > 1 and v != 0:
                raise OutOfDomain(f"value at non-unit {a} must vanish")
        for a in range(f):
            for b in range(f):
                lhs = values[a * b % f]
                if abs(lhs - values[a] * values[b]) > 1e-9:
                    raise OutOfDomain("character values are not multiplicative")

    @classmethod
    def trivial(cls) -> "ComplexChar":
        """The conductor-1 character, identically 1."""
        return cls(1, (1.0,))

    @classmethod
    def quadratic(cls, f: int) -> "ComplexChar":
        """The quadratic (Legendre-symbol) character mod an odd prime f."""
        if not _is_odd_prime(f):
            raise OutOfDomain(f"quadratic character needs an odd prime modulus, got {f}")
        vals = []
        for a in range(f):
            if a % f == 0:
                vals.append(0.0)
            else:
                e = pow(a, (f - 1) // 2, f)
                vals.append(1.0 if e == 1 else -1.0)
        return cls(f, tuple(vals))

    def value(self, a: int) -> complex:
        _check_int("residue", a)
        return self.values[a % self.conductor]


def l_q_complex(s, chi: ComplexChar, params: ArchParams) -> complex:
    """Dirichlet-type l-value 2 sum'_{n>=1} chi(n) (-1)^n [n]_q^(-s),
    assembled from partial zetas as 2 sum_a chi(a) H_q(s, a:f).

    The conductor-1 character reduces by reindexing to -zeta(s, 1)."""
    f = chi.conductor
    if f == 1:
        return -zeta_Eq(s, 1.0, params)
    total = 0.0 + 0.0j
    for a in range(1, f):
        cv = chi.value(a)
        if cv != 0:
            total += cv * partial_zeta_Hq(s, a, f, params)
    return 2.0 * total


def gen_euler_complex(k: int, chi: ComplexChar, q) -> complex:
    """Generalized q-Euler number attached to a complex character:

        [f]_q^k sum_{a<f} chi(a) (-1)^a E_{k, q^f}(a/f),

    with the Euler-polynomial values taken exactly from the rational
    layer and only the character values complex."""
    qv = _rational(q)
    if not 0 < qv < 1:
        raise OutOfDomain("exact side needs rational q in (0, 1)")
    f = chi.conductor
    total = 0.0 + 0.0j
    for a in range(f):
        cv = chi.value(a)
        if cv != 0:
            total += cv * (-1) ** a * float(euler_poly_q(k, PolyArg(a, f, qv)))
    return float(q_int(f, qv)) ** k * total
