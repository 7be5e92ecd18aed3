"""Regularized evaluation of the alternating q-zeta and l-functions.

Every infinite series on this side is an alternating series whose terms
t_n tend geometrically (rate q^n) to the constant c = (1-q)^s; its value
is *defined* as the Abel value, evaluated by the exact limit-subtraction

    sum'_{n>=0} (-1)^n t_n  :=  c/2 + sum_{n>=0} (-1)^n (t_n - c),

where the subtracted series converges absolutely with an a-priori tail
bound q^n/(1-q).  This is what makes the zeta and l-function definitions
meaningful at arbitrary complex s.  q is restricted to real values in
(0, 1): all bases [n+x]_q are then positive reals and complex powers use
the principal branch with no cut ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import NoConvergence, OutOfDomain
from .euler import PolyArg, euler_number_q, euler_poly_q
from .kernel import q_int


@dataclass(frozen=True)
class ArchParams:
    """Summation policy for the archimedean side: the real deformation
    parameter q in (0, 1), the tail threshold, and the term cap."""

    q: float
    eps: float = 1e-13
    max_terms: int = 200000

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise OutOfDomain(f"q must lie strictly in (0, 1), got {self.q}")
        if self.eps <= 0.0:
            raise OutOfDomain("tail threshold must be positive")
        if self.max_terms < 3:
            # the tail test starts at n = 2
            raise OutOfDomain(f"max_terms must be >= 3, got {self.max_terms}")


def _q_int_real(x: float, q: float) -> float:
    return (1.0 - q**x) / (1.0 - q)


def _alternating_regularized(term, limit: complex, params: ArchParams) -> complex:
    """Abel value of sum_{n>=0} (-1)^n term(n) for term(n) -> limit."""
    total = limit / 2.0
    for n in range(params.max_terms):
        delta = term(n) - limit
        total += (-1) ** n * delta
        if n >= 2 and abs(delta) < params.eps:
            return total
    raise NoConvergence(
        f"tail threshold {params.eps} not reached within {params.max_terms} terms"
    )


def zeta_Eq(s, x: float, params: ArchParams) -> complex:
    """The alternating q-zeta value 2 sum'_{n>=0} (-1)^n [n+x]_q^(-s).

    At negative integers s = -k this interpolates the q-Euler polynomial
    E_{k,q}(x); the series is regularized as described in the module
    docstring.
    """
    if x <= 0:
        raise OutOfDomain(f"shift x must be positive, got {x}")
    q = params.q
    limit = complex(1.0 - q) ** s

    def term(n: int) -> complex:
        return complex(_q_int_real(n + x, q)) ** (-s)

    return 2.0 * _alternating_regularized(term, limit, params)


def partial_zeta_Hq(s, a: int, f: int, params: ArchParams) -> complex:
    """Partial q-zeta H_q(s, a:f) over the congruence class a mod f,
    via its reduction (-1)^a [f]_q^(-s) zeta(s, a/f; base q^f) / 2."""
    if not 0 < a < f or f % 2 == 0:
        raise OutOfDomain("need 0 < a < f with f odd")
    q = params.q
    inner = zeta_Eq(s, a / f, replace(params, q=q**f))
    return (-1) ** a * complex(_q_int_real(f, q)) ** (-s) / 2.0 * inner


def partial_zeta_Hq_series(s, a: int, f: int, params: ArchParams) -> complex:
    """The same partial q-zeta from its defining congruence-class series
    sum_{m == a mod f, m > 0} (-1)^m [m]_q^(-s), regularized directly;
    kept as an independent cross-check of the reduction form."""
    if not 0 < a < f or f % 2 == 0:
        raise OutOfDomain("need 0 < a < f with f odd")
    q = params.q
    limit = complex(1.0 - q) ** s

    def term(l: int) -> complex:
        return complex(_q_int_real(a + l * f, q)) ** (-s)

    return (-1) ** a * _alternating_regularized(term, limit, params)


@dataclass(frozen=True)
class ComplexChar:
    """A Dirichlet character of odd conductor with complex values.

    values[a] is the character at the residue a; root of unity when a is
    coprime to the conductor, zero otherwise, completely multiplicative.
    """

    conductor: int
    values: tuple

    def __post_init__(self):
        f = self.conductor
        if f < 1 or f % 2 == 0:
            raise OutOfDomain(f"conductor must be odd and positive, got {f}")
        if len(self.values) != f:
            raise OutOfDomain("need exactly one value per residue class")
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        for a in range(f):
            v = self.values[a]
            if math.gcd(a, f) == 1 and f > 1:
                if abs(abs(v) - 1.0) > 1e-12:
                    raise OutOfDomain(f"value at unit {a} must be a root of unity")
            elif f > 1 and v != 0:
                raise OutOfDomain(f"value at non-unit {a} must vanish")
        for a in range(f):
            for b in range(f):
                lhs = self.values[a * b % f]
                if abs(lhs - self.values[a] * self.values[b]) > 1e-9:
                    raise OutOfDomain("character values are not multiplicative")

    @classmethod
    def trivial(cls) -> "ComplexChar":
        """The conductor-1 character, identically 1."""
        return cls(1, (1.0,))

    @classmethod
    def quadratic(cls, f: int) -> "ComplexChar":
        """The quadratic (Legendre-symbol) character mod an odd prime f."""
        vals = []
        for a in range(f):
            if a % f == 0:
                vals.append(0.0)
            else:
                e = pow(a, (f - 1) // 2, f)
                vals.append(1.0 if e == 1 else -1.0)
        return cls(f, tuple(vals))

    def value(self, a: int) -> complex:
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
    qv = Fraction(q)
    if not 0 < qv < 1:
        raise OutOfDomain("exact side needs rational q in (0, 1)")
    f = chi.conductor
    if f == 1:
        return complex(float(euler_number_q(k, qv)))
    total = 0.0 + 0.0j
    for a in range(f):
        cv = chi.value(a)
        if cv != 0:
            total += cv * (-1) ** a * float(euler_poly_q(k, PolyArg(a, f, qv)))
    return float(q_int(f, qv)) ** k * total
