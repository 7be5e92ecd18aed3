"""Exact integer and rational substrate for the whole package.

Binomial coefficients with arbitrary (possibly negative) upper index,
q-integers and their alternating variant, p-adic valuations of exact
numbers, and the deformation-parameter container ``QParam``.  Everything
here is pure and exact: inputs and outputs are ints or Fractions, never
floats, and no operation rounds.  An argument that must be an integer
must be an int (``_check_int``): a float, bool or Fraction is rejected
with ``OutOfDomain``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from .errors import OutOfDomain, QIsOne

# annotations are strings (from __future__), so the alias can be one too
RationalLike = "int | Fraction | QParam"


def _check_int(name: str, x) -> None:
    # a float or bool would pass the range checks, then reach range() or
    # pow() as a bare TypeError or key a cache alike with the int
    if type(x) is not int:
        raise OutOfDomain(f"{name} must be an int, got {x!r}")


def padic_valuation_int(n: int, p: int):
    """v_p(n) for an integer; returns math.inf for n = 0."""
    if n == 0:
        return math.inf
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(x, p: int):
    """v_p of an exact int or Fraction; math.inf for zero."""
    if p < 2:
        raise OutOfDomain(f"a valuation needs a base p >= 2, got {p}")
    x = Fraction(x)
    if x == 0:
        return math.inf
    return padic_valuation_int(x.numerator, p) - padic_valuation_int(x.denominator, p)


# Miller-Rabin to these bases (the first 13 primes) is deterministic
# below 3.3e24 (Sorenson and Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None, typed=True)
def _is_odd_prime(p: int) -> bool:
    """True when p is an odd prime: Miller-Rabin to the bases in
    _WITNESSES, exact below 3.3e24 and a strong probable-prime test above.
    Only an int qualifies (not a bool, nor a float such as 5.0).  typed=True
    guards against a cache that keys 5 and 5.0 alike, which CPython's does not."""
    if type(p) is not int or p < 3 or p % 2 == 0:
        return False
    for w in _WITNESSES:
        if p % w == 0:
            return p == w
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def binom_int(n: int, k: int) -> int:
    """Binomial coefficient n choose k, n an arbitrary integer, k >= 0.

    Computed by the falling-factorial product n(n-1)...(n-k+1)/k!, so
    negative upper indices are first-class and the reflection identity
    binom(-r, k) = (-1)^k binom(r+k-1, k) stays a genuine test rather
    than the definition.
    """
    if type(n) is not int or type(k) is not int:  # one test on the hot path
        _check_int("binomial upper index", n)
        _check_int("binomial lower index", k)
    if k < 0:
        raise OutOfDomain(f"binomial lower index must be >= 0, got {k}")
    num = 1
    for i in range(k):
        num *= n - i
    q, rem = divmod(num, math.factorial(k))
    assert rem == 0
    return q


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``_fields`` and in ``__slots__`` (two
    or more: attrgetter of one name returns no tuple) and sets each once
    in ``__init__`` with ``object.__setattr__``.  Equality (same class
    only), hash and repr are those of a frozen dataclass over the fields;
    assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one C call builds the field tuple: these objects key the series
        # caches, so hash and == are on the hot path
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class QParam(_Value):
    """The deformation parameter q as an exact rational.

    An optional odd-prime context ``prime`` asserts the p-adic closeness
    condition v_p(q - 1) >= 1 (with q = 1 allowed: v_p(0) is infinite)
    and that q is a p-adic unit.  q = 1 itself is legal here; operations
    that divide by (1 - q) reject it individually with ``QIsOne``.
    """

    _fields = ("value", "prime")
    __slots__ = (*_fields, "_hash")

    def __init__(self, value: Fraction, prime: int | None = None):
        value = Fraction(value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "prime", prime)
        if prime is not None:
            if not _is_odd_prime(prime):
                raise OutOfDomain(f"prime context must be an odd prime, got {prime}")
            if padic_valuation_int(value.denominator, prime) != 0:
                raise OutOfDomain(f"q = {value} is not a p-adic integer for p = {prime}")
            if padic_valuation(value - 1, prime) < 1:
                raise OutOfDomain(
                    f"q = {value} violates v_{prime}(q - 1) >= 1"
                )
        # the series caches hash a QParam on every lookup; Fraction.__hash__
        # is not cached, so the field hash is taken once here
        object.__setattr__(self, "_hash", hash((value, prime)))

    def __hash__(self):
        return self._hash

    @property
    def is_one(self) -> bool:
        return self.value == 1


def as_fraction(q: RationalLike) -> Fraction:
    """Normalize an int, Fraction or QParam to the underlying Fraction; a
    Fraction itself (exactly that type, not a subclass) comes back as is."""
    if type(q) is Fraction:
        return q
    if isinstance(q, QParam):
        return q.value
    return Fraction(q)


def q_int(x: int, q: RationalLike) -> Fraction:
    """The q-integer [x]_q = (1 - q^x)/(1 - q) = 1 + q + ... + q^(x-1).

    Degenerates to x itself at q = 1.
    """
    _check_int("x", x)
    qv = as_fraction(q)
    if qv == 1:
        return Fraction(x)
    if qv == 0 and x < 0:
        raise OutOfDomain(f"[{x}]_q needs q != 0")
    return (1 - qv**x) / (1 - qv)


def q_int_neg(x: int, q: RationalLike) -> Fraction:
    """The alternating q-integer [x]_{-q} = 1 - q + q^2 - ... + (-q)^(x-1).

    Evaluated in closed form as (1 - (-q)^x)/(1 + q), which is the exact
    value of the alternating geometric sum.  q = 1 is rejected: every
    caller of this quantity lives on the q-deformed side.  So is q = -1,
    where 1 + q vanishes.
    """
    _check_int("x", x)
    qv = as_fraction(q)
    if qv == 1:
        raise QIsOne("[x]_{-q} is reserved for q != 1")
    if qv == -1:
        raise OutOfDomain("[x]_{-q} is undefined at q = -1")
    if qv == 0 and x < 0:
        raise OutOfDomain(f"[{x}]_{{-q}} needs q != 0")
    return (1 - (-qv) ** x) / (1 + qv)


# --- named binomial-coefficient identities -------------------------------
#
# These predicates are not used by any computation path; they exist so the
# verification suite can cite each identity individually.  Each returns
# the truth of the identity at one exact integer point, comparing the two
# sides cross-multiplied as integers (a/b == c/d iff a d == c b for
# nonzero b, d).  The suite's grid asks for 441 distinct binomials 13,516
# times, so they come from a bounded memo that starts empty.

_binom = lru_cache(maxsize=512)(binom_int)


def binom_product_shift(r: int, j: int, k: int) -> bool:
    """binom(-r,k) binom(1-r-k,j)/(r+k-1) == -binom(-r,k+j-1) binom(k+j,j)/(j+k).

    Requires j, k >= 0, j + k > 0 and r != 1 - k so both sides exist.
    """
    if j < 0 or k < 0 or j + k == 0 or r == 1 - k:
        raise OutOfDomain("identity requires j,k >= 0, j+k > 0, r != 1-k")
    lhs = _binom(-r, k) * _binom(1 - r - k, j)
    rhs = -_binom(-r, k + j - 1) * _binom(k + j, j)
    return lhs * (j + k) == rhs * (r + k - 1)


def binom_product_merge(r: int, j: int, k: int) -> bool:
    """binom(-r,k) binom(1-r-k,j)/(r+k-1) == binom(-r+1,k+j) binom(k+j,j)/(r-1).

    Requires r >= 2 and j, k >= 0 so the divisors are nonzero.
    """
    if r < 2 or j < 0 or k < 0:
        raise OutOfDomain("identity requires r >= 2 and j,k >= 0")
    lhs = _binom(-r, k) * _binom(1 - r - k, j)
    rhs = _binom(-r + 1, k + j) * _binom(k + j, j)
    return lhs * (r - 1) == rhs * (r + k - 1)


def tail_merge_coefficient(r: int, k: int) -> Fraction:
    """(r/(r+k)) binom(-r-1, k); integer-valued by the tail-merge identity."""
    return Fraction(r, r + k) * binom_int(-r - 1, k)


def binom_tail_merge(r: int, j: int, k: int) -> bool:
    """r/(r+k) binom(-r-1,k) binom(-r-k,j) == binom(-r,k+j) binom(k+j,j).

    The coefficient-merging step behind the reindexing of the double
    series in the expansion engine.  Requires r >= 1 and j, k >= 0.
    """
    if r < 1 or j < 0 or k < 0:
        raise OutOfDomain("identity requires r >= 1 and j,k >= 0")
    lhs = r * _binom(-r - 1, k) * _binom(-r - k, j)
    rhs = _binom(-r, k + j) * _binom(k + j, j)
    return lhs == rhs * (r + k)
