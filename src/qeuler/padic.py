"""Capped-precision arithmetic over the p-adic integers Z_p.

A :class:`PadicApprox` stores a residue modulo p**precision together with
the guarantee that the true value is congruent to it; arithmetic
propagates the guaranteed absolute precision by the ultrametric rules
and never claims more digits than it can certify.  Exact ints and
Fractions mixed into the arithmetic count as known to unlimited
precision, so multiplying by p**k gains k digits and dividing by it
costs k.

Only Z_p is modeled: values of negative valuation are rejected (the
exact rational layer clears denominators before anything reaches this
module), and p = 2 is out of scope.  Every value checks that its prime
is prime; the check is cached per prime, so arithmetic results pay one
lookup for it.

All values are immutable and all operations pure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DenominatorDivisibleByP,
    NotCoprime,
    NotOneUnit,
    OutOfDomain,
    PrecisionExhausted,
)
from .kernel import QParam, _check_int, _is_odd_prime, _rational, _Value, padic_valuation_int, q_int


def _validate_prime(p: int) -> None:
    if not _is_odd_prime(p):
        raise OutOfDomain(f"only odd primes are supported, got {p}")


def _validate_precision(precision: int) -> None:
    _check_int("precision", precision)
    if precision < 1:
        raise PrecisionExhausted(f"cannot represent a value with {precision} guaranteed digits")


class PadicApprox(_Value):
    """An element of Z_p known modulo p**precision.

    Invariants: 0 <= residue < p**precision and precision >= 1.  The
    valuation is derived from the residue: exact whenever the residue is
    nonzero (then it is < precision), otherwise only the bound
    ">= precision" is known.
    """

    _fields = __slots__ = ("prime", "residue", "precision")

    def __init__(self, prime: int, residue: int, precision: int):
        _validate_prime(prime)
        _validate_precision(precision)
        _check_int("residue", residue)
        self._set(prime, residue % prime**precision, precision)

    # -- structure ---------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    @property
    def valuation(self):
        """Exact valuation as an int, or None when only >= precision is known."""
        if self.residue == 0:
            return None
        return padic_valuation_int(self.residue, self.prime)

    @property
    def valuation_label(self) -> str:
        v = self.valuation
        return f">={self.precision}" if v is None else str(v)

    def valuation_at_least(self, k: int) -> bool:
        """True when the value is certainly divisible by p**k."""
        v = self.valuation
        return (self.precision if v is None else v) >= k

    def digits(self) -> tuple:
        """Base-p digits, least significant first."""
        out = []
        r = self.residue
        for _ in range(self.precision):
            out.append(r % self.prime)
            r //= self.prime
        return tuple(out)

    def render(self) -> str:
        """Digit-string form, e.g. '...0 3 1 2 mod 5^4' (least significant first)."""
        body = " ".join(str(d) for d in self.digits())
        return f"...{body} mod {self.prime}^{self.precision}"

    def __str__(self) -> str:
        return self.render()

    def reduce(self, precision: int) -> "PadicApprox":
        """Forget digits down to the given precision."""
        if precision > self.precision:
            raise PrecisionExhausted(
                f"cannot raise precision from {self.precision} to {precision}"
            )
        return PadicApprox(self.prime, self.residue, precision)

    @classmethod
    def zero(cls, p: int, precision: int) -> "PadicApprox":
        return cls(p, 0, precision)

    @classmethod
    def one(cls, p: int, precision: int) -> "PadicApprox":
        return cls(p, 1, precision)

    # -- arithmetic ----------------------------------------------------

    def _check_same(self, other: "PadicApprox") -> None:
        if self.prime != other.prime:
            raise OutOfDomain(f"prime mismatch: {self.prime} vs {other.prime}")

    def __add__(self, other):
        if isinstance(other, PadicApprox):
            self._check_same(other)
            n = min(self.precision, other.precision)
            return PadicApprox(self.prime, self.residue + other.residue, n)
        if isinstance(other, (int, Fraction)):
            return self + embed(other, self.prime, self.precision)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PadicApprox(self.prime, -self.residue, self.precision)

    def __sub__(self, other):
        if isinstance(other, PadicApprox):
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def _mul_exact(self, c: Fraction) -> "PadicApprox":
        """Multiply by an exactly known rational scalar.

        Gains v_p(c) digits of absolute precision when c is divisible by
        p, costs them when p divides the denominator (in which case the
        value must actually be divisible by that power of p).
        """
        c = Fraction(c)
        p = self.prime
        if c == 0:
            return PadicApprox.zero(p, self.precision)
        m = padic_valuation_int(c.numerator, p) - padic_valuation_int(c.denominator, p)
        unit = c / Fraction(p) ** m
        if m >= 0:
            n2 = self.precision + m
            res = self.residue * p**m
        else:
            n2 = self.precision + m
            if n2 < 1:
                raise PrecisionExhausted(
                    f"dividing by p^{-m} leaves no guaranteed digits"
                )
            shift = p**-m
            if self.residue % shift != 0:
                raise OutOfDomain(
                    f"value with valuation {self.valuation_label} is not divisible by p^{-m}"
                )
            res = self.residue // shift
        mod2 = p**n2
        res = res * unit.numerator % mod2 * pow(unit.denominator, -1, mod2) % mod2
        return PadicApprox(p, res, n2)

    def __mul__(self, other):
        if isinstance(other, PadicApprox):
            self._check_same(other)
            va = self.precision if self.valuation is None else self.valuation
            vb = other.precision if other.valuation is None else other.valuation
            n = min(va + other.precision, vb + self.precision)
            return PadicApprox(self.prime, self.residue * other.residue, n)
        if isinstance(other, (int, Fraction)):
            return self._mul_exact(Fraction(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of a p-adic value by zero")
            return self._mul_exact(1 / c)
        if isinstance(other, PadicApprox):
            self._check_same(other)
            vy = other.valuation
            if vy is None:
                raise PrecisionExhausted(
                    "divisor valuation is indistinguishable from 0 at current precision"
                )
            p = self.prime
            if vy > 0:
                if self.residue != 0 and self.valuation < vy:
                    raise OutOfDomain("quotient would have negative valuation")
                if self.precision - vy < 1 or other.precision - vy < 1:
                    raise PrecisionExhausted("division leaves no guaranteed digits")
                num = PadicApprox(p, self.residue // p**vy, self.precision - vy)
                den = PadicApprox(p, other.residue // p**vy, other.precision - vy)
            else:
                num, den = self, other
            inv = PadicApprox(p, pow(den.residue, -1, den.modulus), den.precision)
            return num * inv
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return embed(other, self.prime, self.precision) / self
        return NotImplemented

    def __pow__(self, k: int):
        """x**k for an int k, x a unit when k < 0.  With x = p^v u, u known
        mod p^(N-v), x^k = p^(kv) u^k is known mod p^(N + (k-1)v) for k >= 1;
        v is N for a zero residue, and 0 after inverting a unit."""
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            if self.valuation != 0:
                raise OutOfDomain(
                    f"cannot invert a value of valuation {self.valuation_label}"
                )
            base = PadicApprox(self.prime, pow(self.residue, -1, self.modulus), self.precision)
            k = -k
        v = base.precision if base.residue == 0 else base.valuation
        precision = base.precision + max(k - 1, 0) * v
        return PadicApprox(base.prime, pow(base.residue, k, base.prime**precision), precision)


def _check_padic(name: str, x) -> None:
    if not isinstance(x, PadicApprox):
        raise OutOfDomain(f"{name} must be a PadicApprox, got {x!r}")


def agreement(x: PadicApprox, y: PadicApprox):
    """Agreement valuation v_p(x - y), capped at the shared precision.

    Returns (valuation, saturated); saturated means the two residues are
    congruent at full shared precision, so only ">= valuation" is known.
    """
    _check_padic("x", x)
    _check_padic("y", y)
    if x.prime != y.prime:
        raise OutOfDomain("prime mismatch")
    cap = min(x.precision, y.precision)
    d = (x.residue - y.residue) % x.prime**cap
    if d == 0:
        return cap, True
    return padic_valuation_int(d, x.prime), False


# -- Z_p constructions ----------------------------------------------------


def embed(r, p: int, precision: int) -> PadicApprox:
    """Embed an exact rational with p-unit denominator into Z_p mod p^N."""
    r = _rational(r)
    _validate_prime(p)
    _validate_precision(precision)
    if r.denominator % p == 0:
        raise DenominatorDivisibleByP(
            f"{r} has negative {p}-adic valuation and cannot live in Z_{p}"
        )
    mod = p**precision
    res = r.numerator % mod * pow(r.denominator, -1, mod) % mod
    return PadicApprox(p, res, precision)


def teichmuller(a: int, p: int, precision: int) -> PadicApprox:
    """The Teichmuller representative w(a): the (p-1)-th root of unity
    congruent to a mod p, in closed form w(a) = a^(p^(N-1)) mod p^N
    (a = w(a) u with u == 1 mod p, and u^(p^(N-1)) == 1 mod p^N).
    """
    _validate_prime(p)
    _validate_precision(precision)
    _check_int("residue", a)
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"{a} is divisible by {p}")
    return PadicApprox(p, pow(a, p ** (precision - 1), p**precision), precision)


def padic_log(u: PadicApprox) -> PadicApprox:
    """log of a 1-unit via the alternating series in z = u - 1.

    The truncation index is derived from the exact valuation bound
    v_p(z^k / k) >= k v_p(z) - log_p k, not by testing terms; the partial
    sum is evaluated in exact rational arithmetic and reduced once.
    """
    _check_padic("u", u)
    p, n = u.prime, u.precision
    if u.residue % p != 1:
        raise NotOneUnit(f"residue {u.residue} is not congruent to 1 mod {p}")
    z = u.residue - 1
    if z == 0:
        return PadicApprox.zero(p, n)
    vz = padic_valuation_int(z, p)
    k = 1
    while not (k * vz >= n and p ** (k * vz - n) >= k):
        k += 1
    total = Fraction(0)
    for i in range(1, k):
        total += Fraction((-1) ** (i + 1) * z**i, i)
    return embed(total, p, n)


def padic_exp(x: PadicApprox) -> PadicApprox:
    """exp of a value of valuation >= 1 (convergent for odd p).

    Truncation from the bound v_p(x^k / k!) >= k v_p(x) - (k-1)/(p-1);
    the partial sum is exact rational, reduced once at the end.
    """
    _check_padic("x", x)
    p, n = x.prime, x.precision
    if x.residue == 0:
        return PadicApprox.one(p, n)
    if x.residue % p != 0:
        raise OutOfDomain("exp needs valuation >= 1")
    vx = padic_valuation_int(x.residue, p)
    k = 1
    while k * vx - Fraction(k - 1, p - 1) < n:
        k += 1
    total = Fraction(0)
    z = x.residue
    for i in range(k):
        total += Fraction(z**i, math.factorial(i))
    return embed(total, p, n)


def power_zp(u: PadicApprox, s) -> PadicApprox:
    """u**s for a 1-unit u and exponent s in Z_p, as exp(s log u).

    Integer exponents take the exact modular-power path and agree with
    repeated multiplication.
    """
    _check_padic("u", u)
    if isinstance(s, int):
        return u**s
    if isinstance(s, Fraction):
        s = embed(s, u.prime, u.precision)
    _check_padic("exponent s", s)
    if u.residue % u.prime != 1:
        raise NotOneUnit(f"residue {u.residue} is not a 1-unit mod {u.prime}")
    return padic_exp(s * padic_log(u))


def binom_zp(s: PadicApprox, k: int) -> PadicApprox:
    """binom(s, k) = s(s-1)...(s-k+1)/k! computed in Z_p.

    Dividing by k! reduces the guaranteed precision by v_p(k!); the
    result carries the reduced precision, and the operation fails with
    PrecisionExhausted when nothing would remain.
    """
    _check_padic("s", s)
    _check_int("lower index", k)
    if k < 0:
        raise OutOfDomain("binomial lower index must be >= 0")
    acc = PadicApprox.one(s.prime, s.precision)
    for i in range(k):
        acc = acc * (s - i)
    return acc / math.factorial(k)


def angle_bracket(a: int, q: QParam, precision: int) -> PadicApprox:
    """The 1-unit <a> = [a]_q / w(a), defined for a coprime to p.

    [a]_q == a == w(a) mod p forces <a> == 1 mod p, which is asserted.
    """
    if not isinstance(q, QParam) or q.prime is None:
        raise OutOfDomain("angle_bracket needs a QParam with prime context")
    _check_int("residue", a)
    p = q.prime
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"{a} is divisible by {p}")
    num = embed(q_int(a, q), p, precision)
    val = num / teichmuller(a, p, precision)
    assert val.residue % p == 1
    return val


class TeichChar(_Value):
    """A power w^t of the Teichmuller character.

    The exponent is reduced mod p-1.  Exponent 0 is the trivial
    character of conductor 1 (value 1 everywhere, including at p);
    otherwise the conductor is p and the value vanishes on multiples
    of p.
    """

    _fields = __slots__ = ("prime", "exponent")

    def __init__(self, prime: int, exponent: int):
        _validate_prime(prime)
        _check_int("character exponent", exponent)
        self._set(prime, exponent % (prime - 1))

    @property
    def conductor(self) -> int:
        return 1 if self.exponent == 0 else self.prime

    @property
    def is_trivial(self) -> bool:
        return self.exponent == 0

    def value(self, a: int, precision: int) -> PadicApprox:
        _check_int("residue", a)
        if self.is_trivial:
            return PadicApprox.one(self.prime, precision)
        if math.gcd(a, self.prime) != 1:
            return PadicApprox.zero(self.prime, precision)
        return teichmuller(a, self.prime, precision) ** self.exponent
