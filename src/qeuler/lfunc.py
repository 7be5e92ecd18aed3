"""p-adic l-functions for q-Euler numbers and the expansion engine.

The p-adic partial function H, the l-function built from it by a
Teichmuller-character sum, the two correction series T and K that vanish
as q -> 1 (T = 2K for the even n accepted here, so only H and K have a
series body), and the staged verifier for the main expansion identity: the
alternating sum of reciprocal q-integer powers over units below n*p
expanded as a series whose coefficients are p-adic l-values.

Every series runs through one kernel on integer residues mod p**N, the
image of the ring map Z_(p) -> Z/p^N: the q-Euler numbers E_{j,q^F} come
from the integral recurrence

    (1 + Q^m) E_{m,Q} = 2 [m = 0] - sum_{k<m} binom(m, k) Q^k E_{k,Q},

which divides only by 1 + Q^m == 2 (mod p) and serves q = 1 and q != 1
alike.  The exact closed forms of the rational layer remain the oracles
of the verification stages.  A Z_p exponent (a non-integer s) is the one
exception: its p-adic binomial is multiplied by the exact rational
scalar, which adds the scalar's valuation to the term's precision.
Truncated series are certified by a stability window plus an audited
geometric valuation gain per term; results are reported modulo
p**target of their budget, never beyond what the certificate covers.

All computation is pure; verification grids can be evaluated in any
order and merged.  One theorem5_verify call evaluates each series once,
through a memo dict that the call owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import OutOfDomain, TruncationNotConverged
from .euler import (
    PolyArg,
    euler_number_classical,
    euler_number_q,
    euler_poly_classical,
    euler_poly_q,
)
from .kernel import QParam, binom_int, padic_valuation, padic_valuation_int, q_int
from .padic import (
    PadicApprox,
    TeichChar,
    agreement,
    angle_bracket,
    binom_zp,
    embed,
    power_zp,
    teichmuller,
)


@dataclass(frozen=True)
class SeriesBudget:
    """Truncation policy for the p-adic series.

    target: verify modulo p**target.
    max_terms: hard truncation limit.
    window: consecutive negligible terms required before stopping.
    """

    target: int
    max_terms: int = 60
    window: int = 5

    def __post_init__(self):
        if self.target < 1:
            raise OutOfDomain("target precision must be >= 1")
        if not self.max_terms > self.window >= 3:
            raise OutOfDomain("need max_terms > window >= 3")


class _TruncatedSeries:
    """Accumulate a p-adically convergent series under a SeriesBudget.

    Stops once `window` consecutive terms have valuation >= target AND
    the audited bound v(term_k) >= k*gain - slack certifies that the
    entire dropped tail is negligible; raises TruncationNotConverged
    when max_terms is exhausted first.
    """

    def __init__(self, p, precision, budget, gain, label):
        if gain < 1:
            raise OutOfDomain(f"series '{label}' has no geometric valuation gain")
        self.budget = budget
        self.gain = gain
        self.label = label
        self.prime = p
        self.residue = 0  # reduced once, by result()
        self.precision = precision
        self.quiet = 0
        self.slack = 0
        self.used = 0
        self.done = False

    def add(self, index: int, residue: int, precision: int) -> bool:
        """Add term `index`, known as `residue` (already reduced) mod p**precision."""
        self.residue += residue
        self.precision = min(self.precision, precision)
        self.used = index
        v = padic_valuation_int(residue, self.prime) if residue else None
        if v is not None:
            self.slack = max(self.slack, index * self.gain - v)
        negligible = (precision if v is None else v) >= self.budget.target
        self.quiet = self.quiet + 1 if negligible else 0
        tail_ok = (index + 1) * self.gain - self.slack >= self.budget.target
        self.done = self.quiet >= self.budget.window and tail_ok
        return self.done

    def result(self) -> PadicApprox:
        if not self.done:
            raise TruncationNotConverged(
                f"series '{self.label}' not certified within {self.used + 1} terms "
                f"(window {self.budget.window}, target {self.budget.target})"
            )
        return PadicApprox(self.prime, self.residue, self.precision)


def _euler_term(j: int, q: Fraction, f: int) -> Fraction:
    """E_{j, q^f} exactly, with the classical Euler number serving q = 1."""
    if q == 1:
        return euler_number_classical(j)
    return euler_number_q(j, q**f)


def _euler_poly_term(n: int, a: int, f: int, q: Fraction) -> Fraction:
    """E_{n, q^f}(a/f), classical at q = 1."""
    if q == 1:
        return euler_poly_classical(n, Fraction(a, f))
    return euler_poly_q(n, PolyArg(a, f, q))


class _Residues:
    """Residues mod p**precision of what every series here is built from,
    at one (q, F): q itself, Q = q^F, the q-integers [a]_q for a <= F,
    and the q-Euler numbers E_{j,Q}, extended on demand by the integral
    recurrence of the module docstring.
    """

    def __init__(self, q: QParam, F: int, precision: int):
        p = q.prime
        mod = p**precision
        self.qparam = q
        self.F = F
        self.prime = p
        self.precision = precision
        self.mod = mod
        # v_p([F]_q / [a]_q) = v_p(F): [a]_q is a unit and q == 1 (mod p)
        self.gain = padic_valuation_int(F, p)
        self.q = q.value.numerator * pow(q.value.denominator, -1, mod) % mod
        self.Q = pow(self.q, F, mod)
        q_ints, power = [0], 1
        for _ in range(F):
            q_ints.append((q_ints[-1] + power) % mod)
            power = power * self.q % mod
        self.q_ints = q_ints
        self._euler = []
        self._q_powers = []

    def step(self, a: int) -> int:
        """q^a [F]_q / [a]_q, the common ratio of every series at residue a."""
        mod = self.mod
        return pow(self.q, a, mod) * self.q_ints[-1] * pow(self.q_ints[a], -1, mod) % mod

    def euler(self, m: int) -> int:
        """E_{m,Q} mod p**precision."""
        table, powers, mod = self._euler, self._q_powers, self.mod
        while len(table) <= m:
            k = len(table)
            powers.append(pow(self.Q, k, mod))
            acc = sum(math.comb(k, i) * powers[i] * table[i] for i in range(k))
            table.append(((2 if k == 0 else 0) - acc) * pow(1 + powers[k], -1, mod) % mod)
        return table[m]


def _series(label, s, start, gain, coeff, exact_coeff, p, precision, budget):
    """The series kernel: sum_{j >= start} binom(-s, j) c_j, truncated per
    budget, where coeff(j) is c_j mod p**precision.  A Z_p exponent s
    multiplies its p-adic binomial by the exact scalar exact_coeff(j)
    instead, gaining v_p(c_j) digits.  Returns the _TruncatedSeries."""
    series = _TruncatedSeries(p, precision, budget, gain, label)
    mod = p**precision
    for j in range(start, budget.max_terms + 1):
        b = _series_binom(s, j)
        if isinstance(b, int):
            done = series.add(j, b * coeff(j) % mod, precision)
        else:
            term = b * exact_coeff(j)
            done = series.add(j, term.residue, term.precision)
        if done:
            break
    return series


def _require_prime(q: QParam) -> int:
    if q.prime is None:
        raise OutOfDomain("this operation needs a QParam with prime context")
    return q.prime


def _check_residue(a: int, F: int, p: int) -> None:
    if not 0 < a < F:
        raise OutOfDomain(f"need 0 < a < F, got a={a}, F={F}")
    if math.gcd(a, p) != 1:
        raise OutOfDomain(f"residue {a} is not coprime to {p}")
    if F % p != 0 or F % 2 == 0:
        raise OutOfDomain(f"F must be an odd multiple of {p}, got {F}")


def _angle_power(a: int, s, q: QParam, precision: int) -> PadicApprox:
    """<a>^(-s); exact modular power for integer s, exp/log otherwise."""
    ang = angle_bracket(a, q, precision)
    if isinstance(s, int):
        return ang ** (-s)
    return power_zp(ang, -s)


def _series_binom(s, k: int):
    """binom(-s, k) as an exact int (integer s) or a PadicApprox."""
    if isinstance(s, int):
        return binom_int(-s, k)
    return binom_zp(-s, k)


def _as_exponent(s, p: int, precision: int):
    """Normalize a series exponent: ints stay exact, rationals embed."""
    if isinstance(s, int):
        return s
    if isinstance(s, Fraction):
        return embed(s, p, precision)
    if isinstance(s, PadicApprox):
        if s.prime != p:
            raise OutOfDomain("exponent lives over a different prime")
        return s
    raise OutOfDomain(f"unsupported exponent type {type(s).__name__}")


def _default_precision(budget: SeriesBudget, precision) -> int:
    return precision if precision is not None else budget.target + 6


def _partial(label, s, a, F, q: QParam, budget, precision, start, weight) -> PadicApprox:
    """The body shared by H and K:

        ((-1)^a / 2) <a>^(-s) sum_{j >= start} binom(-s, j)
            (q^a [F]_q/[a]_q)^j E_{j,q^F} weight(q^(Fj)),

    with weight a polynomial that works on residues and on exact
    rationals, reported modulo p**budget.target."""
    precision = _default_precision(budget, precision)
    s = _as_exponent(s, q.prime, precision)
    res = _Residues(q, F, precision)
    step, mod = res.step(a), res.mod

    def coeff(j):
        return pow(step, j, mod) * res.euler(j) * weight(pow(res.Q, j, mod))

    def exact_coeff(j):
        qv = q.value
        ratio = q_int(F, qv) / q_int(a, qv)
        return (qv**a * ratio) ** j * _euler_term(j, qv, F) * weight(qv ** (F * j))

    series = _series(label, s, start, res.gain, coeff, exact_coeff, q.prime, precision, budget)
    val = series.result() * _angle_power(a, s, q, precision) * Fraction((-1) ** a, 2)
    return val.reduce(min(val.precision, budget.target))


def H_pq(s, a: int, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """The p-adic partial function

        H(s, a:F) = ((-1)^a / 2) <a>^(-s)
                    sum_{j>=0} binom(-s, j) q^(ja) ([F]_q/[a]_q)^j E_{j, q^F}

    for s in Z_p, F an odd multiple of p, 0 < a < F coprime to p.  At
    s = -n it produces w^(-n)(a) times the exact partial-zeta value.
    Result reported modulo p**budget.target.
    """
    _check_residue(a, F, _require_prime(q))
    return _partial(f"H(a={a})", s, a, F, q, budget, precision, 0, lambda x: 1)


def l_pq(s, chi: TeichChar, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """The p-adic l-value 2 sum_{a<=F, (a,p)=1} chi(a) H(s, a:F) for a
    Teichmuller-power character chi."""
    p = _require_prime(q)
    if chi.prime != p:
        raise OutOfDomain("character prime does not match q's prime context")
    precision = _default_precision(budget, precision)
    residues = [a for a in range(1, F + 1) if math.gcd(a, p) == 1]
    return _char_sum(
        lambda a: H_pq(s, a, F, q, budget, precision), chi, residues, p, precision, budget.target
    )


def gen_euler_teich(n: int, chi: TeichChar, q: QParam, precision: int) -> PadicApprox:
    """Generalized q-Euler number attached to a Teichmuller power:

        [p]_q^n sum_{a<p} chi(a) (-1)^a E_{n, q^p}(a/p),

    a finite sum of exact Euler-polynomial values with p-adic character
    weights.  The trivial character gives E_{n,q} itself.
    """
    p = _require_prime(q)
    if chi.prime != p:
        raise OutOfDomain("character prime does not match q's prime context")
    qv = q.value
    if chi.is_trivial:
        return embed(_euler_term(n, qv, 1), p, precision)
    total = PadicApprox.zero(p, precision)
    scale = q_int(p, qv) ** n
    for a in range(1, p):
        # scale * E is p-integral even at q = 1, where E_n(a/p) alone is not
        term = embed(scale * _euler_poly_term(n, a, p, qv), p, precision)
        total = total + chi.value(a, precision) * (-1) ** a * term
    return total


def _check_even(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise OutOfDomain(f"n must be a positive even integer, got {n}")


def _check_point(r: int, n: int, q: QParam) -> int:
    """Validate an (r, n) point of the expansion identity; returns p."""
    p = _require_prime(q)
    if r < 1:
        raise OutOfDomain("power r must be >= 1")
    _check_even(n)
    return p


def T_pq(n: int, s, a: int, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """The first correction series (vanishing as q -> 1):

        T(s, a:F) = (-1)^a <a>^(-s) sum_{k>=1} binom(-s, k)
                    ([F]_q/[a]_q)^k q^(ak) ((-1)^n q^(nFk) - 1) E_{k, q^F},

    where [a/F]_{q^F}^(-k) is realized exactly as ([F]_q/[a]_q)^k.  For
    the even n accepted here its weight is K's q^(nFk) - 1 and its scale
    twice K's, so T = 2K.
    """
    return 2 * K_pq(n, s, a, F, q, budget, precision)


def K_pq(n: int, s, a: int, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """The second correction series (vanishing as q -> 1):

        K(s, a:F) = ((-1)^a / 2) <a>^(-s) sum_{l>=1} binom(-s, l) q^(al)
                    ([F]_q/[a]_q)^l E_{l, q^F}
                    sum_{j=1}^{l} binom(l, j) [nF]_q^j (q-1)^j.

    The inner sum is (1 + [nF]_q (q-1))^l - 1 = q^(nFl) - 1, the identity
    that the geometric-power-splitting stage checks exactly.
    """
    _check_residue(a, F, _require_prime(q))
    _check_even(n)
    if q.is_one:
        return PadicApprox.zero(q.prime, budget.target)
    return _partial(f"K(a={a})", s, a, F, q, budget, precision, 1, lambda x: x**n - 1)


def _char_sum(fn, chi: TeichChar, residues, p: int, precision: int, target: int) -> PadicApprox:
    """2 sum_a chi(a) fn(a) over the given residues, reported modulo p**target."""
    total = PadicApprox.zero(p, precision)
    for a in residues:
        total = total + chi.value(a, precision) * fn(a)
    total = 2 * total
    return total.reduce(min(total.precision, target))


def T_pq_chi(n: int, s, chi: TeichChar, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """Character sum 2 sum_{a<p} chi(a) T(s, a:F), that is 2 K_pq_chi."""
    return 2 * K_pq_chi(n, s, chi, F, q, budget, precision)


def K_pq_chi(n: int, s, chi: TeichChar, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """Character sum 2 sum_{a<p} chi(a) K(s, a:F)."""
    p = _require_prime(q)
    precision = _default_precision(budget, precision)
    return _char_sum(
        lambda a: K_pq(n, s, a, F, q, budget, precision),
        chi, range(1, p), p, precision, budget.target,
    )


# -- the expansion identity ------------------------------------------------


def theorem5_lhs_exact(r: int, n: int, q: QParam) -> Fraction:
    """The exact rational alternating sum 2 sum (-1)^j / [j]_q^r over
    1 <= j <= n*p with j coprime to p.  Each [j]_q is a p-adic unit, so
    the value is p-integral."""
    p = _check_point(r, n, q)
    qv = q.value
    return 2 * sum(
        Fraction((-1) ** j, 1) / q_int(j, qv) ** r
        for j in range(1, n * p + 1)
        if math.gcd(j, p) == 1
    )


def theorem5_lhs(r: int, n: int, q: QParam, precision: int) -> PadicApprox:
    """The exact alternating power sum embedded into Z_p."""
    return embed(theorem5_lhs_exact(r, n, q), _require_prime(q), precision)


def _merge_coefficient(r: int, k: int) -> Fraction:
    """(r/(r+k)) binom(-r-1, k); integer-valued by the tail-merge identity."""
    return Fraction(r, r + k) * binom_int(-r - 1, k)


def _once(memo: dict, fn, *args):
    """fn(*args), evaluated once per memo: one verify call owns one memo,
    so every series value is shared between the stages that use it."""
    key = (fn, args)
    if key not in memo:
        memo[key] = fn(*args)
    return memo[key]


def _theorem5_rhs(r, n, q, budget, precision, residue_weighted, memo):
    """The plain or residue-weighted expansion side at a checked point,
    with the assembly tail's truncation index.  The weighted assembly
    keeps q^(ak) on each residue's term and halves the T term."""
    p, qv = q.prime, q.value
    precision = _default_precision(budget, precision)
    target = budget.target
    pn_q = q_int(p * n, qv)
    gain = int(padic_valuation(pn_q, p))
    series = _TruncatedSeries(p, precision, budget, gain, "assembly tail")
    for k in range(1, budget.max_terms + 1):
        s, chi = r + k, TeichChar(p, -(r + k))
        inner = PadicApprox.zero(p, precision)
        for a in range(1, p):
            part = _once(memo, H_pq, s, a, p, q, budget, precision)
            part = part + _once(memo, K_pq, n, s, a, p, q, budget, precision)
            weight = qv ** (a * k) if residue_weighted else 1
            inner = inner + chi.value(a, precision) * part * weight
        term = 2 * inner * (_merge_coefficient(r, k) * (-1) ** n) * pn_q**k
        if series.add(k, term.residue, term.precision):
            break
    tail = series.result()
    t_chi = _char_sum(
        lambda a: _once(memo, T_pq, n, r, a, p, q, budget, precision),
        TeichChar(p, -r), range(1, p), p, precision, target,
    )
    if residue_weighted:
        t_chi = t_chi * Fraction(1, 2)
    rhs = -tail - t_chi
    return rhs.reduce(min(rhs.precision, target)), series.used


def theorem5_rhs(r: int, n: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """The expansion-side value

        - sum_{k>=1} (r/(r+k)) binom(-r-1,k) (-1)^n [pn]_q^k
              [ l(r+k, w^(-r-k)) + K(r+k, w^(-r-k)) ]  -  T(r, w^(-r)),

    truncated per budget; term decay is driven by v_p([pn]_q^k) >= k.
    At q = 1 the correction sums vanish and only the l-series remains.
    """
    _check_point(r, n, q)
    val, _ = _theorem5_rhs(r, n, q, budget, precision, False, {})
    return val


def theorem5_rhs_weighted(r: int, n: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """Diagnostic variant of the expansion side that keeps the
    per-residue geometric weight q^(ak) inside each character sum and
    halves the correction-tail term; this is the assembly that the
    per-residue expansion supports exactly.  Coincides with
    :func:`theorem5_rhs` at q = 1."""
    _check_point(r, n, q)
    val, _ = _theorem5_rhs(r, n, q, budget, precision, True, {})
    return val


# -- staged verification ----------------------------------------------------


def _block_sum_exact(r: int, n: int, a: int, F: int, qv: Fraction) -> Fraction:
    """sum_{l<n} (-1)^(Fl+a) / [Fl+a]_q^r, exactly."""
    return sum(
        Fraction((-1) ** (F * l + a), 1) / q_int(F * l + a, qv) ** r for l in range(n)
    )


def _block_series(r, n, a, res: _Residues, budget, label, power_tail):
    """Series expansion of the per-residue block sum (n even):

        -((-1)^a / (2 [a]_q^r)) sum_{s>=1} binom(-r, s) (q^a [F]_q/[a]_q)^s
            [ (-1)^n sum_{l<s} binom(s, l) q^(nFl) E_{l,q^F} [n]_{q^F}^(s-l)
              + ((-1)^n q^(nFs) - 1) E_{s,q^F} ],

    the double Euler series plus, when power_tail, the power-difference
    series.  Returns the _TruncatedSeries."""
    p, mod = res.prime, res.mod
    step = res.step(a)
    unit = -((-1) ** a) * pow(2 * pow(res.q_ints[a], r, mod), -1, mod)
    q_n = pow(res.Q, n, mod)
    h = sum(pow(res.Q, i, mod) for i in range(n)) % mod
    lead, h_pows = [], [1]  # q^(nFl) E_{l,q^F} and [n]_{q^F}^i

    def coeff(s):
        while len(lead) < s:
            lead.append(pow(q_n, len(lead), mod) * res.euler(len(lead)) % mod)
            h_pows.append(h_pows[-1] * h % mod)
        double = sum(math.comb(s, l) * lead[l] * h_pows[s - l] for l in range(s))
        c = (-1) ** n * double
        if power_tail:
            c += ((-1) ** n * pow(q_n, s, mod) - 1) * res.euler(s)
        return unit * pow(step, s, mod) * c

    return _series(label, r, 1, res.gain, coeff, None, p, res.precision, budget)


def _block_sum_series(r, n, a, res: _Residues, budget):
    """The block sum's Euler-series expansion (the odd-n boundary term
    vanishes on this even-n engine), with its truncation index."""
    series = _block_series(r, n, a, res, budget, f"block expansion (a={a})", True)
    total = series.result()
    return total.reduce(min(total.precision, budget.target)), series.used


def _block_sum_t_form(r, n, a, res: _Residues, budget, memo):
    """The regrouped expansion: double Euler series plus the closed
    correction series T in place of the power-difference tail."""
    series = _block_series(r, n, a, res, budget, f"regrouped expansion (a={a})", False)
    w_pow = teichmuller(a, res.prime, res.precision) ** (-r)
    t_val = _once(memo, T_pq, n, r, a, res.F, res.qparam, budget, res.precision)
    total = series.result() - w_pow * t_val * Fraction(1, 2)
    return total.reduce(min(total.precision, budget.target))


def _powers(x: int, y: int, depth: int) -> list:
    """x^i y^(depth-i) for i = 0..depth: the numerators of (x/y)^i over y^depth."""
    return [x**i * y ** (depth - i) for i in range(depth + 1)]


def _reindex_sides(r, n, F, qv, depth, residues):
    """Both sides of the double-series reindexing check, per residue a.

    With g = q^a [F]_q/[a]_q, Y = q^(nF), h = [n]_{q^F} and E_l = E_{l,q^F}
    exact, both double sums are sums of X(k, l) = g^(k+l) Y^l E_l h^k over
    k >= 1, l >= 0, k + l <= depth, times c = (-1)^(a+n) / (2 [a]_q^r).
    The left side (indices s = k + l, l) weighs X(k, l) by
    binom(-r, k+l) binom(k+l, l), the merged right side by
    _merge_coefficient(r, k) binom(-r-k, l).  Every X(k, l) is cleared onto
    one common denominator, together with the denominators of the merge
    coefficients, so each side is an exact integer sum.  Yields (lhs, rhs):
    the two sides' rational values times one nonzero factor per residue.
    """
    qf = qv**F
    y, h = qv ** (n * F), q_int(n, qf)
    eulers = [_euler_term(l, qv, F) for l in range(depth + 1)]
    common = math.lcm(*(e.denominator for e in eulers))
    ye = [
        w * e.numerator * (common // e.denominator)
        for w, e in zip(_powers(y.numerator, y.denominator, depth), eulers)
    ]
    hk = _powers(h.numerator, h.denominator, depth)
    merge = [_merge_coefficient(r, k) for k in range(depth + 1)]
    mu = math.lcm(*(m.denominator for m in merge[1:]))
    merge = [m.numerator * (mu // m.denominator) for m in merge]
    left = [
        [binom_int(-r, k + l) * binom_int(k + l, l) * mu for l in range(depth)]
        for k in range(depth + 1)
    ]
    right = [[merge[k] * binom_int(-r - k, l) for l in range(depth)] for k in range(depth + 1)]
    for a in residues:
        g = qv**a * q_int(F, qv) / q_int(a, qv)
        gp = _powers(g.numerator, g.denominator, depth)
        lhs = rhs = 0
        for l in range(depth):
            ks = range(1, depth - l + 1)
            x = [gp[k + l] * hk[k] for k in ks]
            lhs += ye[l] * sum(left[k][l] * xk for k, xk in zip(ks, x))
            rhs += ye[l] * sum(right[k][l] * xk for k, xk in zip(ks, x))
        yield lhs, rhs


def _reindex_exact_check(r, n, F, qv, depth, residues) -> bool:
    """Exact finite check that merging the double series indices (s, l)
    into (k = s - l, l) with the tail-merge coefficient identity
    preserves the sum, keeping the geometric factor q^(nFl)."""
    return all(lhs == rhs for lhs, rhs in _reindex_sides(r, n, F, qv, depth, residues))


def _power_split_check(n, F, qv, l_max) -> bool:
    """Exact check of q^(nFl) = 1 + sum_{j<=l} binom(l,j) [nF]_q^j (q-1)^j."""
    nf = q_int(n * F, qv)
    for l in range(1, l_max + 1):
        rhs = 1 + sum(binom_int(l, j) * nf**j * (qv - 1) ** j for j in range(1, l + 1))
        if qv ** (n * F * l) != rhs:
            return False
    return True


def _range_reindex_check(direct: Fraction, block_sums) -> bool:
    """Exact check that the coprime-index sum equals its per-residue
    double-sum rearrangement, 2 sum_a sum_{l<n} (-1)^(a+pl) / [a+pl]_q^r."""
    return direct == 2 * sum(block_sums)


@dataclass
class StageResult:
    """Outcome of one derivation stage inside the expansion engine."""

    name: str
    description: str
    passed: bool
    agreement_valuation: int | None = None
    saturated: bool = False
    lhs_digits: str | None = None
    rhs_digits: str | None = None
    diagnostic: bool = False
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "agreement_valuation": self.agreement_valuation,
            "saturated": self.saturated,
            "lhs_digits": self.lhs_digits,
            "rhs_digits": self.rhs_digits,
            "diagnostic": self.diagnostic,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    """Complete audit of the expansion identity at one (r, n) point.

    agreement_valuation is v_p(lhs - rhs) capped at the compared
    precision (saturated=True when the cap was reached); stages carry
    the same measurement for each intermediate derivation step.
    """

    r: int
    n: int
    prime: int
    q: Fraction
    target: int
    working_precision: int
    lhs: PadicApprox
    rhs: PadicApprox
    agreement_valuation: int
    agreement_saturated: bool
    stages: list = field(default_factory=list)
    truncation_indices: dict = field(default_factory=dict)

    @property
    def identity_holds(self) -> bool:
        return self.agreement_saturated or self.agreement_valuation >= self.target

    @property
    def first_failing_stage(self):
        for stage in self.stages:
            if not stage.diagnostic and not stage.passed:
                return stage.name
        return None

    @property
    def acceptable(self) -> bool:
        """True when the identity verifies at target precision, or the
        shortfall is localized to a named stage with both sides' digits
        on record (a documented discrepancy, not a silent one)."""
        if self.identity_holds:
            return True
        name = self.first_failing_stage
        if name is None:
            return False
        stage = next(s for s in self.stages if s.name == name)
        return stage.lhs_digits is not None and stage.rhs_digits is not None

    def localization_note(self):
        if self.identity_holds:
            return None
        name = self.first_failing_stage
        if name is None:
            return "identity fails but every stage passed; audit incomplete"
        note = f"first failing stage: {name}"
        weighted = next((s for s in self.stages if s.diagnostic), None)
        if name == "character-sum-assembly" and weighted is not None and weighted.passed:
            note += (
                "; every per-residue stage and the residue-weighted assembly verify at "
                "full target precision, so the discrepancy is localized to dropping the "
                "per-residue geometric weight (and the tail-term normalization) when the "
                "character sums are assembled"
            )
        return note

    def to_dict(self):
        return {
            "r": self.r,
            "n": self.n,
            "prime": self.prime,
            "q": f"{self.q.numerator}/{self.q.denominator}",
            "target": self.target,
            "working_precision": self.working_precision,
            "lhs": padic_to_dict(self.lhs),
            "rhs": padic_to_dict(self.rhs),
            "agreement_valuation": self.agreement_valuation,
            "agreement_saturated": self.agreement_saturated,
            "identity_holds": self.identity_holds,
            "acceptable": self.acceptable,
            "first_failing_stage": self.first_failing_stage,
            "localization": self.localization_note(),
            "stages": [s.to_dict() for s in self.stages],
            "truncation_indices": dict(sorted(self.truncation_indices.items())),
        }


def padic_to_dict(x: PadicApprox) -> dict:
    """JSON-ready form of a p-adic value."""
    return {
        "residue": str(x.residue),
        "mod": f"{x.prime}^{x.precision}",
        "valuation": x.valuation if x.valuation is not None else f">={x.precision}",
    }


def _padic_stage(name, description, pairs, target, diagnostic=False):
    """Build a StageResult from (label, lhs, rhs) p-adic comparisons,
    keeping the digits of the worst-agreeing pair."""
    worst = None
    details = []
    for label, lhs, rhs in pairs:
        val, sat = agreement(lhs, rhs)
        details.append(f"{label}: v>={val}" if sat else f"{label}: v={val}")
        key = (sat, val)
        if worst is None or key < worst[0]:
            worst = (key, lhs, rhs)
    (sat, val), lhs, rhs = worst
    return StageResult(
        name=name,
        description=description,
        passed=sat or val >= target,
        agreement_valuation=val,
        saturated=sat,
        lhs_digits=lhs.render(),
        rhs_digits=rhs.render(),
        diagnostic=diagnostic,
        detail="; ".join(details),
    )


def _exact_stage(name, description, ok: bool) -> StageResult:
    return StageResult(
        name=name,
        description=description,
        passed=ok,
        detail="exact rational comparison",
    )


def theorem5_verify(r: int, n: int, q: QParam, budget: SeriesBudget, precision=None) -> VerificationReport:
    """Run the full staged verification of the expansion identity at one
    (r, n) point: every intermediate derivation step is checked against
    an independent oracle, then the assembled identity itself is
    measured, with a residue-weighted diagnostic assembly to localize
    any shortfall.  Failures are report content, never exceptions.
    """
    p = _check_point(r, n, q)
    precision = _default_precision(budget, precision)
    F = p
    qv = q.value
    target = budget.target
    stages = []
    trunc = {}
    memo = {}
    res = _Residues(q, F, precision)

    block_sums = [_block_sum_exact(r, n, a, F, qv) for a in range(1, p)]
    pairs_series = []
    pairs_regroup = []
    for a, block in enumerate(block_sums, start=1):
        exact = embed(block, p, precision)
        ser, used = _block_sum_series(r, n, a, res, budget)
        trunc[f"block-expansion/a={a}"] = used
        pairs_series.append((f"a={a}", exact, ser))
        pairs_regroup.append((f"a={a}", exact, _block_sum_t_form(r, n, a, res, budget, memo)))
    stages.append(
        _padic_stage(
            "alternating-block-series",
            "per-residue alternating block sum vs its Euler-series expansion",
            pairs_series,
            target,
        )
    )
    stages.append(
        _padic_stage(
            "correction-tail-regrouping",
            "block sum vs leading double series plus the closed vanishing correction",
            pairs_regroup,
            target,
        )
    )
    depth = 12
    stages.append(
        _exact_stage(
            "double-series-reindexing",
            f"exact reindexing of the double expansion via the coefficient-merge "
            f"identity (depth {depth}, all residues)",
            _reindex_exact_check(r, n, F, qv, depth, range(1, p)),
        )
    )
    stages.append(
        _exact_stage(
            "geometric-power-splitting",
            "exact expansion of q^(nFl) - 1 through scaled q-integer powers (l <= 10)",
            _power_split_check(n, F, qv, 10),
        )
    )
    lhs_exact = theorem5_lhs_exact(r, n, q)
    stages.append(
        _exact_stage(
            "index-range-rearrangement",
            "coprime-index alternating sum equals its per-residue double sum",
            _range_reindex_check(lhs_exact, block_sums),
        )
    )

    lhs = embed(lhs_exact, p, precision)
    rhs, used = _theorem5_rhs(r, n, q, budget, precision, False, memo)
    trunc["assembly"] = used
    val, sat = agreement(lhs, rhs)
    stages.append(
        StageResult(
            name="character-sum-assembly",
            description="alternating power sum vs the assembled l-value expansion",
            passed=sat or val >= target,
            agreement_valuation=val,
            saturated=sat,
            lhs_digits=lhs.render(),
            rhs_digits=rhs.render(),
        )
    )
    rhs_w, used_w = _theorem5_rhs(r, n, q, budget, precision, True, memo)
    trunc["assembly-weighted"] = used_w
    stages.append(
        _padic_stage(
            "residue-weighted-assembly",
            "assembly keeping the per-residue geometric weight inside the character "
            "sums and half-normalizing the correction tail",
            [("weighted", lhs, rhs_w)],
            target,
            diagnostic=True,
        )
    )

    return VerificationReport(
        r=r,
        n=n,
        prime=p,
        q=qv,
        target=target,
        working_precision=precision,
        lhs=lhs,
        rhs=rhs,
        agreement_valuation=val,
        agreement_saturated=sat,
        stages=stages,
        truncation_indices=trunc,
    )
