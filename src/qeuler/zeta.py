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
polynomials at 0, a constant table of 64 doubles from the tangent
numbers.  The tail is asymptotic: it stops at its first term below eps,
and raises NoConvergence if its terms grow again first.

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

An l-value reduces once: l_q_complex checks its arguments, builds the
base-q^f params and takes [f]_q^(-s) once, and sums each residue's
H_q(s, a:f) through the kernel partial_zeta_Hq shares, so its value is
2 sum_a chi(a) partial_zeta_Hq(s, a, f) bit for bit.

Every argument is checked where it enters the public functions, and a
wrong one raises ``OutOfDomain``.  An integer argument (a partial zeta's
residue a and modulus f, ``ArchParams.max_terms``, a ``ComplexChar``'s
conductor and the residue of ``ComplexChar.value``) must be an int, as in
the exact layer (``kernel._check_int``): a float, bool or Fraction is
wrong.  s must mix with a complex and x and q with a float, so a str,
None, Decimal or int past the float range is wrong, and so is a complex x
or q; so are a params that is not an ``ArchParams``, a character that is
not a ``ComplexChar``, and character values that include a NaN.
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
# The tail's weights, the Euler numbers E_k(0) for k < _BOOLE_TERMS (row i
# holds k = 4i to 4i + 3): 1 at k = 0, 0 at even k > 0, and
# (-1)^((k+1)/2) T_k / 2^k at odd k, T_k the tangent numbers, each the
# nearest double.
_BOOLE_WEIGHTS = (
    1.0, -0.5, 0.0, 0.25,
    0.0, -0.5, 0.0, 2.125,
    0.0, -15.5, 0.0, 172.75,
    0.0, -2730.5, 0.0, 58098.0625,
    0.0, -1601145.5, 0.0, 55482645.25,
    0.0, -2361058260.5, 0.0, 121047960103.375,
    0.0, -7358833557075.5, 0.0, 523415219813167.75,
    0.0, -4.306283628160059e+16, 0.0, 4.057755115034603e+18,
    0.0, -4.3416019805247544e+20, 0.0, 5.234765393691163e+22,
    0.0, -7.064829775372775e+24, 0.0, 1.0608406681372981e+27,
    0.0, -1.7627643672862315e+29, 0.0, 3.2256130214981557e+31,
    0.0, -6.471094000344547e+33, 0.0, 1.4175345495307498e+36,
    0.0, -3.378090068258793e+38, 0.0, 8.727938146243367e+40,
    0.0, -2.437199765412252e+43, 0.0, 7.334116960630601e+45,
    0.0, -2.37197970526042e+48, 0.0, 8.224153898716803e+50,
    0.0, -3.049808487357524e+53, 0.0, 1.2069938639388262e+56,
)
_BOOLE_TERMS = len(_BOOLE_WEIGHTS)  # bounds the tail's length


class ArchParams(_Value):
    """Summation policy for the archimedean side: the real deformation
    parameter q in (0, 1), the tail threshold, and the term cap."""

    _fields = __slots__ = ("q", "eps", "max_terms")

    def __init__(self, q: float, eps: float = 1e-13, max_terms: int = 200000):
        # q + 0.0 is the q the float arithmetic will see: a Decimal has none
        if not _holds(lambda: 0.0 < q + 0.0 < 1.0):
            raise OutOfDomain(f"q must lie strictly in (0, 1), got {q!r}")
        if not _holds(lambda: math.isfinite(eps) and eps > 0.0):
            raise OutOfDomain(f"tail threshold must be positive and finite, got {eps!r}")
        _check_int("max_terms", max_terms)
        if max_terms < 3:
            # the tail test starts at n = 2
            raise OutOfDomain(f"max_terms must be >= 3, got {max_terms}")
        self._set(q, eps, max_terms)


def _q_int_real(x: float, q: float) -> float:
    """[x]_q = -expm1(x log q) / (1 - q), where 1 - q**x would cancel."""
    return -math.expm1(x * math.log(q)) / (1.0 - q)


def _holds(test) -> bool:
    """test(), or False where it raises TypeError, for an argument that is
    not the kind of number it reads (a str, None, a Decimal beside a float,
    a complex compared with one), or OverflowError, for an int past the
    float range."""
    try:
        return test()
    except (TypeError, OverflowError):
        return False


def _check_params(params) -> None:
    if not isinstance(params, ArchParams):
        raise OutOfDomain(f"params must be an ArchParams, got {params!r}")


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
        one_q, neg_s = 1.0 - q, -s
        limit = complex(one_q) ** s
        total = limit / 2.0
        for n in range(min(_HEAD_MIN, max_terms)):
            y = q ** (A + f * n)
            delta = complex((1.0 - y) / one_q) ** neg_s - limit
            if n % 2:
                total -= delta
            else:
                total += delta
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
    N = head, with [x]_q as _q_int_real gives it."""
    tail = _boole_tail(s, A, f, params, head)  # checks the term cap first
    q = params.q
    log_q, one_q, neg_s = math.log(q), 1.0 - q, -s
    total = 0j
    for m in reversed(range(head)):
        total = complex(-math.expm1((A + f * m) * log_q) / one_q) ** neg_s - total
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
    lam, one_s = f * log_q, 1.0 - s
    u = -math.exp(x) / gap  # u_j / u_0 = -y lam^j / (j! (1 - y)) for j >= 1
    us, ws = [1.0], [1.0 + 0j]  # u_j / u_0 and w_j / w_0
    tail, smallest = 0.5, math.inf
    for k in range(1, min(_BOOLE_TERMS, max_terms - head)):
        u *= lam / k
        us.append(u)
        acc = 0j
        for j in range(1, k + 1):
            acc += (one_s * j - k) * us[j] * ws[k - j]
        ws.append(acc / k)
        if k % 2:
            term = 0.5 * _BOOLE_WEIGHTS[k] * ws[k]
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


def _check_s(s) -> None:
    # s + 0j, not complex(s): that reads a "1" or a Decimal, which then
    # fail in the series, and fails "x" as a bare ValueError
    if not _holds(lambda: cmath.isfinite(s + 0j)):
        raise OutOfDomain(f"exponent s must be a finite number, got {s!r}")


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
    if not _holds(lambda: math.isfinite(x + 0.0) and x > 0):
        raise OutOfDomain(f"shift x must be positive and finite, got {x!r}")
    _check_s(s)
    _check_params(params)
    return _zeta(s, x, params)


def _zeta(s, x, params: ArchParams) -> complex:
    """zeta_Eq's value on checked arguments."""
    return 2.0 * _alternating_regularized(s, x, 1, params)


def partial_zeta_Hq(s, a: int, f: int, params: ArchParams) -> complex:
    """Partial q-zeta H_q(s, a:f) over the congruence class a mod f,
    via its reduction (-1)^a [f]_q^(-s) zeta(s, a/f; base q^f) / 2."""
    _check_class(a, f)
    _check_s(s)
    _check_params(params)
    return next(_partial_zetas(s, (a,), f, params))


def _partial_zetas(s, residues, f: int, params: ArchParams):
    """H_q(s, a:f) for each a in residues, in order, by partial_zeta_Hq's
    reduction on checked arguments.  The base-q^f params and the factor
    [f]_q^(-s) are made once, the factor after the first zeta value, as
    partial_zeta_Hq orders them: where both would fail, the zeta value's
    error is the one raised."""
    q = params.q
    base = ArchParams(q**f, params.eps, params.max_terms)
    factor = None
    for a in residues:
        inner = _zeta(s, a / f, base)
        if factor is None:
            try:
                factor = complex(_q_int_real(f, q)) ** (-s)
            except (OverflowError, ZeroDivisionError) as exc:
                raise _float_range(exc, q, s) from exc
        yield (-1) ** a * factor / 2.0 * inner


def partial_zeta_Hq_series(s, a: int, f: int, params: ArchParams) -> complex:
    """The same partial q-zeta from its defining congruence-class series
    sum_{m == a mod f, m > 0} (-1)^m [m]_q^(-s), regularized directly;
    kept as an independent cross-check of the reduction form."""
    _check_class(a, f)
    _check_s(s)
    _check_params(params)
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
        # one probe per value, v + 0j as for s: complex() would also read a
        # string such as "1"
        try:
            values = tuple(v + 0j for v in values)
        except (TypeError, OverflowError):
            raise OutOfDomain(f"character values must be numbers, got {values!r}") from None
        if len(values) != f:
            raise OutOfDomain("need exactly one value per residue class")
        self._set(conductor, values)
        # each test fails on a NaN, which compares false with everything
        for a in range(f):
            v = values[a]
            if math.gcd(a, f) == 1 and f > 1:
                if not abs(abs(v) - 1.0) <= 1e-12:
                    raise OutOfDomain(f"value at unit {a} must be a root of unity")
            elif f > 1 and v != 0:
                raise OutOfDomain(f"value at non-unit {a} must vanish")
        for a in range(f):
            for b in range(f):
                lhs = values[a * b % f]
                if not abs(lhs - values[a] * values[b]) <= 1e-9:
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


def _check_char(chi) -> None:
    if not isinstance(chi, ComplexChar):
        raise OutOfDomain(f"character must be a ComplexChar, got {chi!r}")


def l_q_complex(s, chi: ComplexChar, params: ArchParams) -> complex:
    """Dirichlet-type l-value 2 sum'_{n>=1} chi(n) (-1)^n [n]_q^(-s),
    assembled from partial zetas as 2 sum_a chi(a) H_q(s, a:f), each
    H_q(s, a:f) partial_zeta_Hq's value bit for bit.

    The conductor-1 character reduces by reindexing to -zeta(s, 1)."""
    _check_s(s)
    _check_params(params)
    _check_char(chi)
    f, values = chi.conductor, chi.values
    if f == 1:
        return -_zeta(s, 1.0, params)
    units = [a for a in range(1, f) if values[a] != 0]
    total = 0j
    for a, h in zip(units, _partial_zetas(s, units, f, params)):
        total += values[a] * h
    return 2.0 * total


def gen_euler_complex(k: int, chi: ComplexChar, q) -> complex:
    """Generalized q-Euler number attached to a complex character:

        [f]_q^k sum_{a<f} chi(a) (-1)^a E_{k, q^f}(a/f),

    with the Euler-polynomial values taken exactly from the rational
    layer and only the character values complex."""
    qv = _rational(q)
    if not 0 < qv < 1:
        raise OutOfDomain("exact side needs rational q in (0, 1)")
    _check_char(chi)
    f = chi.conductor
    total = 0.0 + 0.0j
    for a in range(f):
        cv = chi.value(a)
        if cv != 0:
            total += cv * (-1) ** a * float(euler_poly_q(k, PolyArg(a, f, qv)))
    return float(q_int(f, qv)) ** k * total
