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
alike.  Truncated series are certified by a stability window plus an audited
geometric valuation gain per term; results are reported modulo
p**target of their budget, never beyond what the certificate covers.

All computation is pure; verification grids can be evaluated in any
order and merged.  Every series at one (q, F, precision) reads one
shared residue table.  Besides q, Q = q^F and the Euler numbers, that
table holds the q-integers [j]_q with one row of their inverses (0 where
p | j), grown as far as it is read, each new stretch by one batch
inversion, the Teichmuller residues w(a), the 1-units <a> = [a]_q / w(a),
one residue-independent base row b_j per (kind, n),
E_{j,Q} for H, (Q^(nj) - 1) E_{j,Q} for K, the double Euler row d_j for
the regrouped expansion and -2 sum_{l<n} (-1)^l [l]_Q^j for the block
expansion, which reads no Euler number and, by E_{j,Q}(x + 1) +
E_{j,Q}(x) = 2 [x]_Q^j, equals d_j plus K's row, each built by running
products, and the alternating q-power sums N(m, i) below.  The series
of residue a sums binom(-r, j) step(a)^j b_j at an integer exponent r.
A Z_p exponent s (a Fraction or a PadicApprox) is summed as the integer
r == s (mod p**sigma), sigma the least of the working precision and s's
own, with every term taken mod p**sigma:
binom(-s, j) == binom(-r, j) (mod p**(sigma - v_p(j!))) while
v_p(step(a)^j b_j) >= j > v_p(j!), and <a>^(p**sigma) == 1
(mod p**(sigma+1)).  As v_p(step(a)) = v_p(F) at every a, where a series
stops does not depend on a: one cached kernel (_series) certifies each
(r, sigma, kind, n) row once, at a = 1, and keeps its coefficients
binom(-r, j) b_j, which H and K (_partial; K at q = 1 is (0, target, 0))
and the verifier's two block stages, at every a < p, evaluate by Horner
at step(a).  No exponent certifies a target above its sigma: there each
series but K at q = 1 raises TruncationNotConverged before its first
term.  The Teichmuller factors of the block stages cancel: the series'
(-1)^a / 2 <a>^(-r) times the stages' -w(a)^(-r) is
-(-1)^a / (2 [a]_q^r), read from the left-hand side's table, so the
verifier takes no w(a) and no <a>.

There is one character sum, sum_a w(a)^t v_a over (residue, precision)
pairs, known to the least precision of the table and the summands (w(a)
is a unit).  l_pq and K_pq_chi sum H or K pairs through it, and
gen_euler_teich the Euler-polynomial values it reads from the H base
row.  The expansion engine's character sums take no series per residue:
term k's two sums, sum_a w(a)^(-s) (H + K)(s, a) at s = r + k with
weights 1 and q^(ak), and the tail sum_a w(a)^(-r) K(r, a), are each a
sum over j < target of the table's alternating q-power sums
N(m, i) = sum_{a<p} (-1)^a q^(ai) [a]_q^(-m), exact mod p**target since
its term j has v_p >= j (_theorem5_sides).  One pass over k scales the
first two by 2 c_k [pn]_q^k on ints.  The engine's working precision
must reach its target, below which none of its series can certify.  The
left-hand side is twice the sum of one signed row (-1)^j [j]_q^(-r),
j <= n*p, the r-th powers of the same inverse row mod p**N, and the
block sum of residue a sums that row over j = a + pl, l < n.  The exact
Euler numbers and polynomials, and the rational closed forms of both
sums, stay outside the engine, as the tests' oracles.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from .errors import OutOfDomain, TruncationNotConverged
from .kernel import QParam, _check_int, _Value, binom_int, padic_valuation_int, q_int
from .kernel import tail_merge_coefficient as _merge_coefficient
from .padic import PadicApprox, TeichChar, _validate_precision, embed, teichmuller


# A series stops only after this many consecutive negligible terms.
_WINDOW = 5


class SeriesBudget(_Value):
    """Truncation policy for the p-adic series.

    target: verify modulo p**target.
    max_terms: hard truncation limit, above the stability window _WINDOW.
    """

    _fields = __slots__ = ("target", "max_terms")

    def __init__(self, target: int, max_terms: int = 60):
        # a budget is part of the series cache key, where 3.0 == 3
        if type(target) is not int or type(max_terms) is not int:
            raise OutOfDomain("budget fields must be ints")
        if target < 1:
            raise OutOfDomain("target precision must be >= 1")
        if not max_terms > _WINDOW:
            raise OutOfDomain(f"need max_terms > {_WINDOW}")
        self._set(target, max_terms)


class _TruncatedSeries:
    """Accumulate a p-adically convergent series under a SeriesBudget.

    Stops once _WINDOW consecutive terms have valuation >= target AND
    the audited bound v(term_k) >= k*gain - slack certifies that the
    entire dropped tail is negligible; raises TruncationNotConverged
    when max_terms is exhausted first.  Every term is known modulo
    p**target at least, and the sum is reported modulo p**target, the
    digits the certificate covers.
    """

    def __init__(self, p, budget, gain, label):
        if gain < 1:
            raise OutOfDomain(f"series '{label}' has no geometric valuation gain")
        self.budget = budget
        self.gain = gain
        self.label = label
        self.prime = p
        self._target_modulus = p**budget.target
        self.residue = 0  # reduced once, by certified()
        self.quiet = 0
        self.slack = 0
        self.used = 0
        self.done = False

    def add(self, index: int, residue: int) -> bool:
        """Add term `index`, known as `residue` (already reduced) mod p**target
        or finer.

        A term is negligible when p**target divides it, zero included.  Its
        valuation v moves the slack only when v < index*gain - slack, that is
        when p**(index*gain - slack) does not divide it; only then is v taken."""
        self.residue += residue
        self.used = index
        negligible = residue % self._target_modulus == 0
        floor = index * self.gain - self.slack
        if floor > 0 and residue % self.prime**floor:
            self.slack = index * self.gain - padic_valuation_int(residue, self.prime)
        self.quiet = self.quiet + 1 if negligible else 0
        tail_ok = (index + 1) * self.gain - self.slack >= self.budget.target
        self.done = self.quiet >= _WINDOW and tail_ok
        return self.done

    def certified(self) -> tuple:
        """(residue, precision) of the sum, mod p**target."""
        if not self.done:
            raise TruncationNotConverged(
                f"series '{self.label}' not certified within {self.used + 1} terms "
                f"(window {_WINDOW}, target {self.budget.target})"
            )
        return self.residue % self._target_modulus, self.budget.target


def _batch_inverse(values: list, mod: int) -> list:
    """[x^(-1) mod mod for x in values], every x a unit, by one modular
    inverse (Montgomery's trick): the prefix products forward, then the
    inverse of their total unwound backward, three products per entry."""
    prefixes, total = [], 1
    for x in values:
        prefixes.append(total)
        total = total * x % mod
    inverse, out = pow(total, -1, mod), [0] * len(values)
    for i in reversed(range(len(values))):
        out[i] = inverse * prefixes[i] % mod
        inverse = inverse * values[i] % mod
    return out


class _Residues:
    """Residues mod p**precision of what every series here is built from,
    at one (q, F): q itself, Q = q^F, and tables that grow on demand under
    one lock.  The q-integers [j]_q, by [j+1]_q = 1 + q [j]_q, start out
    to F, and the one row of inverses [j]_q^(-1) (0 where p | j) next to
    them grows as far as a caller reads, each new stretch by one batch
    inversion: the common ratio step(a) of residue a, the alternating
    q-power sums N(m, i) over the residues a < p and the left-hand side of
    the expansion identity all read it.  The other tables are the q-Euler
    numbers E_{j,Q} (by the integral recurrence of the module docstring),
    the Teichmuller residues w(a) with the 1-units <a> = [a]_q / w(a), and
    one base row per series kind and n.
    """

    def __init__(self, q: QParam, F: int, precision: int):
        p = q.prime
        mod = p**precision
        self.prime = p
        self.precision = precision
        self.mod = mod
        self.F = F
        # v_p([F]_q / [a]_q) = v_p(F): [a]_q is a unit and q == 1 (mod p)
        self.gain = padic_valuation_int(F, p)
        self.q = q.value.numerator * pow(q.value.denominator, -1, mod) % mod
        self.Q = pow(self.q, F, mod)
        self.q_ints, self._inverses = [0], [0]
        self._grow_q_ints(F + 1)
        self._euler = []
        self._q_powers = []
        self._units = {}
        self._bases = {}
        # P(m) for m < len(_power_sums), and per a < p (-1)^a
        # [a]_q^(-len(_power_sums)), with 0 at a = 0; filled on first use
        self._power_sums, self._signed_powers = [], []
        self._alt_rows = {}
        # _residues shares one table per point; reentrant, since a base row
        # extends the Euler table, and the sums N(m, i) the inverse row,
        # while they grow
        self._lock = threading.RLock()

    def _grow_q_ints(self, stop: int) -> None:
        """Extend q_ints to `stop` entries by [j+1]_q = 1 + q [j]_q."""
        ints, q, mod = self.q_ints, self.q, self.mod
        while len(ints) < stop:
            ints.append((1 + q * ints[-1]) % mod)

    def inverses(self, stop: int) -> list:
        """The row [j]_q^(-1) mod p**precision, 0 where p | j, grown to at
        least `stop` entries, the new ones by one batch inversion.  The row
        only ever grows, so its first `stop` entries stay valid to read
        without the lock."""
        row, p = self._inverses, self.prime
        with self._lock:
            if len(row) < stop:
                self._grow_q_ints(stop)
                new = range(len(row), stop)
                inverse = iter(_batch_inverse([self.q_ints[j] for j in new if j % p], self.mod))
                row.extend(next(inverse) if j % p else 0 for j in new)
        return row

    def step(self, a: int) -> int:
        """q^a [F]_q / [a]_q, the common ratio of every series at residue
        a, as [F]_q ([a]_q^(-1) + q - 1), since q^a = 1 + (q - 1) [a]_q."""
        return self.q_ints[self.F] * (self.inverses(a + 1)[a] + self.q - 1) % self.mod

    def steps(self) -> list:
        """[step(a) for 0 < a < p], in one pass over the inverse row."""
        scale, shift, mod = self.q_ints[self.F], self.q - 1, self.mod
        return [scale * (x + shift) % mod for x in self.inverses(self.prime)[1:self.prime]]

    def euler(self, m: int) -> int:
        """E_{m,Q} mod p**precision."""
        table, powers, mod = self._euler, self._q_powers, self.mod
        with self._lock:
            while len(table) <= m:
                k = len(table)
                powers.append(pow(self.Q, k, mod))
                acc = sum(math.comb(k, i) * powers[i] * table[i] for i in range(k))
                table.append(((2 if k == 0 else 0) - acc) * pow(1 + powers[k], -1, mod) % mod)
        return table[m]

    def units(self, a: int):
        """(w(a), <a>) mod p**precision, for 0 < a <= F coprime to p."""
        with self._lock:
            pair = self._units.get(a)
            if pair is None:
                w = teichmuller(a, self.prime, self.precision).residue
                pair = self._units[a] = (w, self.q_ints[a] * pow(w, -1, self.mod) % self.mod)
        return pair

    def alt_sums(self, d: int, stop: int) -> list:
        """The row N(d, 0), N(d + 1, 1), ... grown to at least `stop`
        entries, mod p**precision, of the alternating q-power sums

            N(m, i) = sum_{a<p} (-1)^a q^(ai) [a]_q^(-m),

        for d >= 0.  N(m, 0) = P(m) (_power_sum), and N(m, i + 1) =
        N(m, i) + (q - 1) N(m - 1, i), as q^a = 1 + (q - 1) [a]_q.  So entry
        i of row d is entry i - 1 of row d + 1 plus (q - 1) times its own
        entry i - 1, and the rows d + t, t < stop, grow to stop - t entries
        each, from the top down.  A row d that already has `stop` entries
        is returned as it is: its entry i - 1 was built from row d + 1's,
        so the rows below it are long enough too."""
        mod, rows, q1 = self.mod, self._alt_rows, self.q - 1
        with self._lock:
            if len(rows.get(d, ())) >= stop:
                return rows[d]
            for t in reversed(range(stop)):
                row = rows.get(d + t)
                if row is None:
                    row = rows[d + t] = [self._power_sum(d + t)]
                above = rows.get(d + t + 1)
                while len(row) < stop - t:
                    row.append((above[len(row) - 1] + q1 * row[-1]) % mod)
        return rows[d]

    def _power_sum(self, m: int) -> int:
        """P(m) = sum_{a<p} (-1)^a [a]_q^(-m) mod p**precision, by one
        running power per residue over the inverse row's a < p entries
        (under the lock)."""
        sums, mod, inverses = self._power_sums, self.mod, self.inverses(self.prime)
        if not sums:
            self._signed_powers = [(-1) ** a if a else 0 for a in range(self.prime)]
        while len(sums) <= m:
            sums.append(sum(self._signed_powers) % mod)
            self._signed_powers = [v * w % mod for v, w in zip(self._signed_powers, inverses)]
        return sums[m]

    def base(self, kind: str, n: int, stop: int) -> list:
        """The residue-independent row b_0, b_1, ... of a series kind, grown
        to at least `stop` entries, mod p**precision:

            H       E_{j,Q}                                       (n = 0)
            K       (Q^(nj) - 1) E_{j,Q}
            double  d_j = sum_{l<j} binom(j, l) Q^(nl) E_{l,Q} [n]_Q^(j-l)
            block   -2 sum_{l<n} (-1)^l [l]_Q^j, from no Euler number.

        For even n the block row is the double row plus K's, as both are
        E_{j,Q}(n) - E_{j,Q}(0) for the q-Euler polynomial, so the two
        block stages compare the block sums with two routes to one value.

        The values list, drawn from its generator _base, only ever grows, so
        its first `stop` entries stay valid to read without the lock."""
        with self._lock:
            row = self._bases.get((kind, n))
            if row is None:
                row = self._bases[kind, n] = ([], self._base(kind, n))
            values, source = row
            while len(values) < stop:
                values.append(next(source))
        return values

    def _base(self, kind: str, n: int):
        """The b_j of base(kind, n, .) in order, by running products."""
        mod, Qn = self.mod, pow(self.Q, n, self.mod)
        ints = [sum(pow(self.Q, i, mod) for i in range(l)) % mod for l in range(n + 1)]  # [l]_Q, l <= n
        if kind == "block":  # n is even: E_{j,Q}(n) - E_{j,Q}, from no Euler number
            powers = [(-1) ** l for l in range(n)]
            while True:
                yield -2 * sum(powers) % mod
                powers = [x * y % mod for x, y in zip(powers, ints)]
        Qnj, lead, h_pows, j = 1, [], [1], 0  # Q^(nj), Q^(nl) E_{l,Q}, [n]_Q^i
        while True:
            e = self.euler(j)
            if kind == "H":
                yield e
            elif kind == "K":
                yield (Qnj - 1) * e % mod
            else:  # double
                yield sum(math.comb(j, l) * lead[l] * h_pows[j - l] for l in range(j)) % mod
                lead.append(Qnj * e % mod)
                h_pows.append(h_pows[-1] * ints[n] % mod)
            Qnj, j = Qnj * Qn % mod, j + 1


@lru_cache(maxsize=None, typed=True)
def _residues(q: QParam, F: int, precision: int) -> _Residues:
    """The process's one table per (q, F, precision)."""
    return _Residues(q, F, precision)


# per series kind: its label, and the first index summed (the K, double
# and block base rows vanish at j = 0)
_KINDS = {
    "H": ("H(a={})", 0),
    "K": ("K(a={})", 1),
    "double": ("regrouped expansion (a={})", 1),
    "block": ("block expansion (a={})", 1),
}


@lru_cache(maxsize=None)
def _series(res: _Residues, r: int, sigma: int, kind: str, n: int, budget) -> tuple:
    """The series kernel: the row of `kind` at the integer exponent r for
    every residue of the table res, certified once, as (row, used,
    failure).  The series sum_{j >= start} binom(-r, j) step(a)^j b_j,
    b_j = res.base(kind, n, .), is summed at a = 1 with every term mod
    p**sigma, sigma <= res.precision.  As step(a) / p**v_p(F) is a unit, a
    term's valuation (capped at sigma), and with it every decision of the
    certificate, is the same at every a: so are the terms used, and the
    last `quiet` terms are 0 mod p**target at every a.  row holds
    binom(-r, j) b_j mod p**target for j <= used - quiet (0 below start),
    and the series at a is _horner(row, step(a), p**target).  The base row
    is asked first up to the earliest index that could certify, then
    _WINDOW terms at a time; binom(-r, j+1) = binom(-r, j) (-r-j)/(j+1)
    steps exactly.  A row that does not certify has row None and failure
    its TruncationNotConverged message, the label's residue left as a {}
    field for _row to fill.  Below the target no term can be negligible,
    so that fails before any base row is read."""
    label, start = _KINDS[kind]
    if sigma < budget.target:
        return None, 0, f"series '{label}' not certified: precision {sigma} is below the target {budget.target}"
    series = _TruncatedSeries(res.prime, budget, res.gain, label)
    mod, step, row = res.prime**sigma, res.step(1), [0] * start
    b, power = binom_int(-r, start), pow(step, start, mod)
    j, stop = start, max(start + _WINDOW, -(-budget.target // res.gain))
    while not series.done and j <= budget.max_terms:
        stop = min(stop, budget.max_terms + 1)
        base = res.base(kind, n, stop)
        for j in range(j, stop):
            row.append(b * base[j] % mod)
            if series.add(j, row[-1] * power % mod):
                break
            b, power = b * (-r - j) // (j + 1), power * step % mod
        j, stop = stop, stop + _WINDOW
    try:
        series.certified()
    except TruncationNotConverged as exc:
        return None, series.used, str(exc)
    target = res.prime**budget.target
    return [c % target for c in row[:len(row) - series.quiet]], series.used, None


def _row(res: _Residues, r: int, sigma: int, kind: str, n: int, budget, a: int) -> tuple:
    """(row, used) of _series, or its TruncationNotConverged, labeled with
    the residue a."""
    row, used, failure = _series(res, r, sigma, kind, n, budget)
    if failure is not None:
        raise TruncationNotConverged(failure.format(a))
    return row, used


def _horner(row: list, x: int, mod: int) -> int:
    """sum_j row[j] x^j mod mod."""
    total = 0
    for c in reversed(row):
        total = (total * x + c) % mod
    return total


def _require_prime(q: QParam) -> int:
    # before q.prime is read, where anything else raises a bare AttributeError
    if not isinstance(q, QParam):
        raise OutOfDomain(f"q must be a QParam, got {q!r}")
    if q.prime is None:
        raise OutOfDomain("this operation needs a QParam with prime context")
    return q.prime


def _check_modulus(F: int, p: int) -> None:
    _check_int("F", F)
    if F < 1 or F % p != 0 or F % 2 == 0:
        raise OutOfDomain(f"F must be an odd positive multiple of {p}, got {F}")


def _check_residue(a: int, F: int, p: int) -> None:
    _check_int("residue a", a)
    if not 0 < a < F:
        raise OutOfDomain(f"need 0 < a < F, got a={a}, F={F}")
    if math.gcd(a, p) != 1:
        raise OutOfDomain(f"residue {a} is not coprime to {p}")
    _check_modulus(F, p)


def _check_exponent(s, p: int) -> None:
    # before _representative reads s, where a list raises a bare AttributeError
    if not isinstance(s, (int, Fraction, PadicApprox)):
        raise OutOfDomain(f"unsupported exponent type {type(s).__name__}")
    if isinstance(s, PadicApprox) and s.prime != p:
        raise OutOfDomain("exponent lives over a different prime")


def _check_character(chi: TeichChar, p: int) -> None:
    if not isinstance(chi, TeichChar):
        raise OutOfDomain(f"character must be a TeichChar, got {chi!r}")
    if chi.prime != p:
        raise OutOfDomain("character prime does not match q's prime context")


def _representative(s, p: int, precision: int) -> tuple:
    """(r, sigma) for a checked exponent s: an int r == s (mod p**sigma),
    where sigma is the least of the working precision and s's own.  An
    int is its own representative."""
    if isinstance(s, int):
        return s, precision
    if isinstance(s, Fraction):
        return embed(s, p, precision).residue, precision
    sigma = min(precision, s.precision)
    return s.residue % p**sigma, sigma


def _default_precision(budget: SeriesBudget, precision) -> int:
    if not isinstance(budget, SeriesBudget):
        raise OutOfDomain(f"budget must be a SeriesBudget, got {budget!r}")
    if precision is None:
        return budget.target + 6
    _validate_precision(precision)
    return precision


def _partial(s, a, F, q: QParam, budget, precision, kind, n) -> tuple:
    """H and K, as (residue, precision, terms used) on ints:

        ((-1)^a / 2) <a>^(-s) sum_{j >= start} binom(-s, j)
            (q^a [F]_q/[a]_q)^j b_j,

    b_j the base row of `kind` (_Residues.base): H (n = 0) or K (n even).
    Reported modulo p**budget.target; K vanishes at q = 1, (0, target, 0).
    Every s is summed as its integer representative r mod p**sigma
    (_representative, exact by the module docstring's two congruences),
    as the row of _series evaluated at step(a); (-1)^a / 2 and <a>^(-r)
    are units, so the product is known to the sum's precision.  Equal
    exponents, such as 1, Fraction(1) and True, share one row."""
    if kind == "K" and q.is_one:
        return 0, budget.target, 0
    res = _residues(q, F, precision)
    r, sigma = _representative(s, q.prime, precision)
    row, used = _row(res, r, sigma, kind, n, budget, a)
    mod = q.prime**budget.target
    total = (-1) ** a * pow(2, -1, mod) * _horner(row, res.step(a), mod)
    return total * pow(res.units(a)[1], -r, mod) % mod, budget.target, used


def H_pq(s, a: int, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """The p-adic partial function

        H(s, a:F) = ((-1)^a / 2) <a>^(-s)
                    sum_{j>=0} binom(-s, j) q^(ja) ([F]_q/[a]_q)^j E_{j, q^F}

    for s in Z_p, F an odd multiple of p, 0 < a < F coprime to p.  At
    s = -n it produces w^(-n)(a) times the exact partial-zeta value.
    Result reported modulo p**budget.target.
    """
    _check_residue(a, F, _require_prime(q))
    _check_exponent(s, q.prime)
    value, low, _ = _partial(s, a, F, q, budget, _default_precision(budget, precision), "H", 0)
    return PadicApprox(q.prime, value, low)


def _char_sum(res: _Residues, exponent: int, values) -> tuple:
    """(sum_a w(a)^exponent v_a mod p**low, low) over the pairs
    (a, (v_a, precision of v_a, ...)) in `values`, where low is the least
    precision of the table res and of the summands: w(a) is a unit, so each
    product is known to its summand's precision."""
    mod, e = res.mod, exponent % (res.prime - 1)
    total, low = 0, res.precision
    for a, (v, t, *_) in values:
        total += pow(res.units(a)[0], e, mod) * v
        low = min(low, t)
    return total % res.prime**low, low


def l_pq(s, chi: TeichChar, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """The p-adic l-value 2 sum_{a<=F, (a,p)=1} chi(a) H(s, a:F) for a
    Teichmuller-power character chi."""
    p = _require_prime(q)
    _check_character(chi, p)
    _check_modulus(F, p)
    precision = _default_precision(budget, precision)
    _check_exponent(s, p)
    values = [(a, _partial(s, a, F, q, budget, precision, "H", 0)) for a in range(1, F) if a % p]
    total, low = _char_sum(_residues(q, F, precision), chi.exponent, values)
    return PadicApprox(p, 2 * total, low)


def gen_euler_teich(n: int, chi: TeichChar, q: QParam, precision: int) -> PadicApprox:
    """Generalized q-Euler number attached to a Teichmuller power:

        [p]_q^n sum_{a<p} chi(a) (-1)^a E_{n, q^p}(a/p),

    read from the residue table: the trivial character gives E_{n,q}
    itself, and otherwise [p]_q^n E_{n,q^p}(a/p) = [a]_q^n sum_{k<=n}
    binom(n, k) step(a)^k E_{k,q^p}, one Horner evaluation of the row
    binom(n, k) E_{k,q^p} from the H base row at each step(a) =
    q^a [p]_q/[a]_q, each summand known mod p**precision.
    """
    p = _require_prime(q)
    _check_character(chi, p)
    _check_int("n", n)
    _validate_precision(precision)
    if n < 0:
        raise OutOfDomain("order must be >= 0")
    if chi.is_trivial:
        return PadicApprox(p, _residues(q, 1, precision).euler(n), precision)
    res = _residues(q, p, precision)
    mod, base = res.mod, res.base("H", 0, n + 1)
    row = [math.comb(n, k) * base[k] for k in range(n + 1)]
    values = [(a, ((-1) ** a * pow(res.q_ints[a], n, mod) * _horner(row, step, mod), precision))
              for a, step in enumerate(res.steps(), start=1)]
    return PadicApprox(p, *_char_sum(res, chi.exponent, values))


def _check_even(n: int) -> None:
    _check_int("n", n)
    if n < 2 or n % 2 != 0:
        raise OutOfDomain(f"n must be a positive even integer, got {n}")


def _check_point(r: int, n: int, q: QParam) -> int:
    """Validate an (r, n) point of the expansion identity; returns p."""
    p = _require_prime(q)
    _check_int("power r", r)
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
    _check_exponent(s, q.prime)
    value, low, _ = _partial(s, a, F, q, budget, _default_precision(budget, precision), "K", n)
    return PadicApprox(q.prime, value, low)


def T_pq_chi(n: int, s, chi: TeichChar, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """Character sum 2 sum_{a<p} chi(a) T(s, a:F), that is 2 K_pq_chi."""
    return 2 * K_pq_chi(n, s, chi, F, q, budget, precision)


def K_pq_chi(n: int, s, chi: TeichChar, F: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """Character sum 2 sum_{a<p} chi(a) K(s, a:F)."""
    p = _require_prime(q)
    precision = _default_precision(budget, precision)
    _check_modulus(F, p)
    _check_even(n)
    _check_character(chi, p)
    _check_exponent(s, p)
    values = [(a, _partial(s, a, F, q, budget, precision, "K", n)) for a in range(1, p)]
    total, low = _char_sum(_residues(q, F, precision), chi.exponent, values)
    return PadicApprox(p, 2 * total, low)


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


def _signed_powers(res: _Residues, r: int, n: int) -> list:
    """The row (-1)^j [j]_q^(-r) mod p**precision, j <= n*p, as r-th powers
    of res's inverse row, so 0 where p | j (the odd entries negated, not
    reduced); the left-hand side is twice its sum."""
    stop = n * res.prime + 1
    row = [pow(x, r, res.mod) for x in res.inverses(stop)[:stop]]
    row[1::2] = [-x for x in row[1::2]]
    return row


def _block_indices(a: int, n: int, F: int) -> range:
    """The indices a + Fl, l < n, of the block sum
    sum_{l<n} (-1)^(a+Fl) / [a+Fl]_q^r of residue a."""
    return range(a, a + n * F, F)


def theorem5_lhs(r: int, n: int, q: QParam, precision: int) -> PadicApprox:
    """The alternating power sum of :func:`theorem5_lhs_exact` in Z_p,
    summed on residues mod p**precision."""
    p = _check_point(r, n, q)
    _validate_precision(precision)
    return PadicApprox(p, 2 * sum(_signed_powers(_residues(q, p, precision), r, n)), precision)


def _engine_precision(budget: SeriesBudget, precision) -> int:
    """The expansion engine's working precision.  Every series there has an
    integer exponent, whose terms carry exactly the working precision, so
    below the target none of them can ever certify."""
    precision = _default_precision(budget, precision)
    if precision < budget.target:
        raise OutOfDomain(
            f"working precision {precision} is below the target {budget.target}, "
            f"where no series of the expansion can certify"
        )
    return precision


def _assembly_rows(res: _Residues, n: int, stop: int) -> tuple:
    """(e, t) for j < stop, mod p**precision, from a table res at F = p:
    e_j = [p]_q^j (H_j + K_j) = [p]_q^j Q^(nj) E_{j,Q} and T's row
    t_j = [p]_q^j K_j, over the H and K base rows."""
    mod, H, K = res.mod, res.base("H", 0, stop), res.base("K", n, stop)
    powers = [pow(res.q_ints[res.prime], j, mod) for j in range(stop)]  # [p]_q^j
    return [x * (h + k) % mod for x, h, k in zip(powers, H, K)], [x * k % mod for x, k in zip(powers, K)]


def _coefficients(e: list, s: int) -> list:
    """[binom(-s, j) e_j for j < len(e)]: binom(-s, j+1) = binom(-s, j)
    (-s-j)/(j+1) steps exactly."""
    row, b = [], 1
    for j, x in enumerate(e):
        row.append(b * x)
        b = b * (-s - j) // (j + 1)
    return row


def _table_sum(res: _Residues, coefficients: list, s: int, shift: int) -> int:
    """sum_j binom(-s, j) e_j N(s + j, j + shift) mod p**precision, over the
    row _coefficients(e, s) of a row e of _assembly_rows: twice the
    character sum sum_{a<p} w(a)^(-s) (H + K)(s, a) q^(a shift), exactly
    mod p**len(e) (see _theorem5_sides)."""
    row = res.alt_sums(s - shift, len(coefficients) + shift)
    return sum(c * x for c, x in zip(coefficients, row[shift:])) % res.mod


def _theorem5_sides(r, n, q, budget, precision):
    """The plain and the residue-weighted expansion side at a checked point,
    each as (value, truncation index), from one pass over k.  Term k's two
    character sums at s = r + k, sum_a w(a)^(-s) (H + K)(s, a) with weight
    1 and q^(ak), are read from the alternating q-power sums N of
    _Residues.alt_sums, not from 2(p - 1) series: as w(a)^(-s) <a>^(-s) =
    [a]_q^(-s), H's base row plus K's is Q^(nj) E_{j,Q} and q^(aj) =
    sum_i binom(j, i) (q - 1)^i [a]_q^i, each is

        1/2 sum_j binom(-s, j) [p]_q^j Q^(nj) E_{j,Q} N(s + j, j + shift),

    shift 0 or k (_table_sum, one coefficient row per k).  Term j has
    v_p >= j, as v_p([p]_q) = 1, so the terms j < target give both sums
    exactly mod p**target: an a priori bound with no window, and a budget
    whose max_terms stops short of them raises TruncationNotConverged.  A
    side that has not certified scales its sum by 2 c_k [pn]_q^k on ints,
    the 2 cancelling the 1/2.  T's sum is read from the same table, with
    K's row [p]_q^j (Q^(nj) - 1) E_{j,Q} at s = r and shift 0, as
    2 sum_a w(a)^(-r) K(r, a): the plain side subtracts it twice,
    T(r, w^(-r)), and the weighted side once."""
    p = q.prime
    precision = _engine_precision(budget, precision)
    res = _residues(q, p, precision)
    mod, g = res.mod, padic_valuation_int(p * n, p)  # g = v_p([pn]_q), as q == 1 (mod p)
    target = budget.target
    if target - 1 > budget.max_terms:
        raise TruncationNotConverged(
            f"series 'character sums' not certified: target {target} needs the "
            f"terms j < {target}, beyond max_terms {budget.max_terms}"
        )
    num, den = q_int(p * n, q.value).as_integer_ratio()
    u = num // p**g * pow(den, -1, mod)  # [pn]_q = p^g u
    e, t_row = _assembly_rows(res, n, target)
    plain, weighted = sides = [_TruncatedSeries(p, budget, g, "assembly tail") for _ in range(2)]
    for k in range(1, budget.max_terms + 1):
        c = _merge_coefficient(r, k)  # c_k = p^m c', with (-1)^n = 1 for even n
        m = padic_valuation_int(c.numerator, p)
        scale = (c.numerator // p**m) * pow(c.denominator, -1, mod) * pow(u, k, mod)
        coefficients = _coefficients(e, r + k)
        # the weighted side first: its row N(r, .) grows the plain side's
        # N(r + k, .) with it
        for side, shift in ((weighted, k), (plain, 0)):
            if not side.done:  # term k: c' u^k inner mod p^target, times p^(m + kg)
                inner = _table_sum(res, coefficients, r + k, shift)
                side.add(k, scale * inner % p**target * p ** (m + k * g))
        if plain.done and weighted.done:
            break
    sums = [side.certified() for side in sides]
    t_sum = _table_sum(res, _coefficients(t_row, r), r, 0)
    return [(PadicApprox(p, -v - x * t_sum, target), side.used)
            for (v, _), side, x in zip(sums, sides, (2, 1))]


def theorem5_rhs(r: int, n: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """The expansion-side value

        - sum_{k>=1} (r/(r+k)) binom(-r-1,k) (-1)^n [pn]_q^k
              [ l(r+k, w^(-r-k)) + K(r+k, w^(-r-k)) ]  -  T(r, w^(-r)),

    truncated per budget; term decay is driven by v_p([pn]_q^k) >= k.
    At q = 1 the correction sums vanish and only the l-series remains.
    """
    _check_point(r, n, q)
    return _theorem5_sides(r, n, q, budget, precision)[0][0]


def theorem5_rhs_weighted(r: int, n: int, q: QParam, budget: SeriesBudget, precision=None) -> PadicApprox:
    """Diagnostic variant of the expansion side that keeps the
    per-residue geometric weight q^(ak) inside each character sum and
    halves the correction-tail term; this is the assembly that the
    per-residue expansion supports exactly.  Coincides with
    :func:`theorem5_rhs` at q = 1."""
    _check_point(r, n, q)
    return _theorem5_sides(r, n, q, budget, precision)[1][0]


# -- staged verification ----------------------------------------------------


def _reindex_exact_check(r: int, depth: int) -> bool:
    """Exact check that merging the double series indices (s, l) into
    (k = s - l, l) preserves the sum, for k >= 1 and k + l <= depth.

    Both double sums weigh the same terms g^(k+l) q^(nFl) E_{l,q^F}
    [n]_{q^F}^k (g = q^a [F]_q/[a]_q), the left side by
    binom(-r, k+l) binom(k+l, l) and the merged right side by
    _merge_coefficient(r, k) binom(-r-k, l).  The coefficients depend on
    neither q nor the residue a, so equal tables give equal sums at every
    residue.  This is kernel.binom_tail_merge over the table, with the
    coefficient c = _merge_coefficient(r, k) looked up once per k at call
    time and compared cross-multiplied by its denominator.  The outcome is
    memoized on (r, depth, the _merge_coefficient object read), so a grid
    evaluates it once per r, and a replaced coefficient is checked afresh.
    """
    return _reindex_tables_equal(r, depth, _merge_coefficient)


def _falling_row(n: int, stop: int) -> list:
    """[binom(n, j) for j <= stop] as binom_int defines them: entry j is the
    running falling-factorial product n(n-1)...(n-j+1) divided exactly by
    j!, so the reflection identity stays a test, not the definition."""
    row, num, fact = [1], 1, 1
    for j in range(1, stop + 1):
        num, fact = num * (n - j + 1), fact * j
        row.append(num // fact)
    return row


@lru_cache(maxsize=None)
def _reindex_tables_equal(r: int, depth: int, merge) -> bool:
    """_reindex_exact_check's tables, with the coefficient function merge:
    binom(-r, .) is one row, and binom(-r-k, .) one row per k."""
    left = _falling_row(-r, depth)
    for k in range(1, depth + 1):
        c, right = merge(r, k), _falling_row(-r - k, depth - k)
        for l in range(depth - k + 1):
            if left[k + l] * math.comb(k + l, l) * c.denominator != c.numerator * right[l]:
                return False
    return True


@lru_cache(maxsize=None)
def _pascal_rows_check(l_max: int, binom) -> bool:
    """The rows binom(l, .), l <= l_max, of the binomial function binom
    against those that Pascal's rule builds from binom(0, 0) = 1."""
    row = [1]
    for l in range(1, l_max + 1):
        row = [x + y for x, y in zip([0, *row], [*row, 0])]
        if [binom(l, j) for j in range(l + 1)] != row:
            return False
    return True


def _power_split_check(n, F, qv, l_max) -> bool:
    """Exact check of q^(nFl) = 1 + sum_{j<=l} binom(l,j) [nF]_q^j (q-1)^j
    for l <= l_max.

    This is the binomial theorem (1 + t)^l = sum_j binom(l,j) t^j at
    t = (q - 1) [nF]_q, so it holds as a polynomial identity once both
    factors do: q^e = 1 + (q - 1) [e]_q at e = nF, in Fractions, and the
    rows binom(l, .), l <= l_max, are those that Pascal's rule builds from
    binom(0, 0) = 1.  A wrong binomial fails at q = 1 too, where its term
    carries (q - 1)^j = 0.  The Pascal half depends on no point: it is
    memoized on (l_max, the binom_int object checked), so a replaced
    binom_int is checked afresh; the q^(nF) half runs at every point.
    """
    e = n * F
    return qv**e == 1 + (qv - 1) * q_int(e, qv) and _pascal_rows_check(l_max, binom_int)


def _index_range_check(indices, n: int, p: int, lhs: int, blocks, mod: int) -> bool:
    """The coprime-index sum equals its per-residue double-sum rearrangement
    2 sum_a sum_{l<n} (-1)^(a+pl) / [a+pl]_q^r.  Exactly: (a, l) -> a + pl
    maps the blocks' indices one to one onto the j <= n*p coprime to p,
    which proves the rational identity term by term, as both sides read
    the sign (-1)^j of the same j.  And on the residues summed:
    lhs == 2 sum_a block (mod p**N)."""
    paired = sorted(j for block in indices for j in block) == [j for j in range(1, n * p + 1) if j % p]
    return paired and (lhs - 2 * sum(blocks)) % mod == 0


class StageResult(_Value):
    """Outcome of one derivation stage inside the expansion engine."""

    _fields = __slots__ = (
        "name", "description", "passed", "agreement_valuation", "saturated", "lhs_digits", "rhs_digits",
        "diagnostic", "detail",
    )

    def __init__(
        self,
        name: str,
        description: str,
        passed: bool,
        agreement_valuation: int | None = None,
        saturated: bool = False,
        lhs_digits: str | None = None,
        rhs_digits: str | None = None,
        diagnostic: bool = False,
        detail: str = "",
    ):
        self._set(
            name, description, passed, agreement_valuation, saturated, lhs_digits, rhs_digits, diagnostic, detail
        )

    def to_dict(self):
        # every field is a str, int, bool or None: nothing to copy deeply
        return dict(zip(self._fields, self._key(self)))


class VerificationReport(_Value):
    """Complete audit of the expansion identity at one (r, n) point.

    agreement_valuation is v_p(lhs - rhs) capped at the compared
    precision (saturated=True when the cap was reached); stages carry
    the same measurement for each intermediate derivation step.  A
    report holds a list and a dict, so it has no hash.
    """

    _fields = __slots__ = (
        "r", "n", "prime", "q", "target", "working_precision", "lhs", "rhs", "agreement_valuation",
        "agreement_saturated", "stages", "truncation_indices",
    )

    def __init__(
        self,
        r: int,
        n: int,
        prime: int,
        q: Fraction,
        target: int,
        working_precision: int,
        lhs: PadicApprox,
        rhs: PadicApprox,
        agreement_valuation: int,
        agreement_saturated: bool,
        stages: list | None = None,
        truncation_indices: dict | None = None,
    ):
        self._set(
            r, n, prime, q, target, working_precision, lhs, rhs, agreement_valuation, agreement_saturated,
            [] if stages is None else stages, {} if truncation_indices is None else truncation_indices,
        )

    @property
    def identity_holds(self) -> bool:
        # the assembly stage applied the pass rule to the headline comparison
        return next(s for s in self.stages if s.name == "character-sum-assembly").passed

    def _first_failure(self):
        return next((s for s in self.stages if not s.diagnostic and not s.passed), None)

    @property
    def first_failing_stage(self):
        stage = self._first_failure()
        return None if stage is None else stage.name

    @property
    def acceptable(self) -> bool:
        """True when the identity verifies at target precision, or the
        shortfall is localized to a named stage with both sides' digits
        on record (a documented discrepancy, not a silent one)."""
        if self.identity_holds:
            return True
        stage = self._first_failure()
        return stage is not None and stage.lhs_digits is not None and stage.rhs_digits is not None

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


def _padic_stage(name, description, p, pairs, precision, target, diagnostic=False):
    """Build a StageResult from (label, lhs, rhs) comparisons of residues,
    lhs known mod p**precision and rhs mod p**target, target <= precision:
    the agreement v_p(lhs - rhs), capped at target (saturated when the two
    agree there), keeping the digits of the worst-agreeing pair; a
    comparison labeled None adds nothing to the detail."""
    mod, worst, details = p**target, None, []
    for label, lhs, rhs in pairs:
        d = (lhs - rhs) % mod
        sat, val = d == 0, target if d == 0 else padic_valuation_int(d, p)
        if label is not None:
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
        lhs_digits=PadicApprox(p, lhs, precision).render(),
        rhs_digits=PadicApprox(p, rhs, target).render(),
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
    """Run the staged verification of the expansion identity at one (r, n)
    point; failures are report content, never exceptions.  Each stage's two
    sides (every lhs reads the signed row of _signed_powers; the block
    stages read _series' rows at each step(a), in one pass over the
    residues that builds both stages' comparisons):
    alternating-block-series: each a's block sum vs the block row, which
      reads no Euler number (_Residues.base);
    correction-tail-regrouping: the same vs the double row plus K's;
    double-series-reindexing: binom(-r, k+l) binom(k+l, l) vs c_k binom(-r-k, l)
      to k + l <= 12, though the assembly reads c_k up to k = 23 at M = 20;
    geometric-power-splitting: q^(nF) vs 1 + (q - 1) [nF]_q, which reads back
      q_int's own formula, and binom_int vs Pascal's rule, to l <= 10;
    index-range-rearrangement: the blocks' sorted index ranges vs the j <= n*p
      coprime to p, exactly (both sides read (-1)^j from the one row, so
      signs need no pairing), then lhs vs 2 sum(blocks) mod p**N, implied by
      the index map (detail "exact rational");
    character-sum-assembly: lhs vs _theorem5_sides' plain side, from c_k,
      _assembly_rows and the sums N of _Residues.alt_sums;
    residue-weighted-assembly: lhs vs its weighted side, which localizes a gap.
    Two exact facts do not depend on the point, and each is evaluated once
    per process: the reindexing tables once per (r, depth), memoized on
    (r, depth, the _merge_coefficient object read), and the Pascal rows
    once, on (l_max, the binom_int object checked).  A coefficient or
    binom_int replaced later is a new key, so it is checked afresh.
    """
    p = _check_point(r, n, q)
    precision = _engine_precision(budget, precision)
    F = p
    qv = q.value
    target = budget.target
    stages = []

    res = _residues(q, p, precision)
    mod = res.mod
    row = _signed_powers(res, r, n)
    lhs = PadicApprox(p, 2 * sum(row), precision)
    blocks = [sum(map(row.__getitem__, _block_indices(a, n, F))) % mod for a in range(1, p)]
    indices = (_block_indices(a, n, F) for a in range(1, p))
    rearranged = _index_range_check(indices, n, p, lhs.residue, blocks, mod)
    # the block sum's expansion, and its regrouping into the double series
    # plus w(a)^(-r) T / 2 = w(a)^(-r) K (the odd-n boundary term vanishes);
    # K vanishes at q = 1
    block_row, used = _row(res, r, precision, "block", n, budget, 1)
    regrouped_row = _row(res, r, precision, "double", n, budget, 1)[0]
    if not q.is_one:
        k_row = _row(res, r, precision, "K", n, budget, 1)[0]
        regrouped_row = [x + y for x, y in zip_longest(regrouped_row, k_row, fillvalue=0)]
    trunc = {f"block-expansion/a={a}": used for a in range(1, p)}
    # each series' factor (-1)^a / 2 <a>^(-r) times the block stages'
    # -w(a)^(-r) is -(-1)^a / (2 [a]_q^r) = -row[a] / 2
    low, half = p**target, pow(2, -1, mod)
    block_pairs, regrouped_pairs = [], []
    for a, (block, x) in enumerate(zip(blocks, res.steps()), start=1):
        label, scale = f"a={a}", -half * row[a] % low
        block_pairs.append((label, block, scale * _horner(block_row, x, low)))
        regrouped_pairs.append((label, block, scale * _horner(regrouped_row, x, low)))
    for name, description, pairs in (
        ("alternating-block-series", "per-residue alternating block sum vs its Euler-series expansion", block_pairs),
        ("correction-tail-regrouping", "block sum vs leading double series plus the closed vanishing correction",
         regrouped_pairs),
    ):
        stages.append(_padic_stage(name, description, p, pairs, precision, target))
    # n*p or p entries each, not kept through the assembly's peak
    del row, blocks, block_pairs, regrouped_pairs, pairs
    depth = 12
    for name, description, ok in (
        ("double-series-reindexing", f"exact reindexing of the double expansion via the coefficient-merge "
         f"identity (depth {depth}, all residues)", _reindex_exact_check(r, depth)),
        ("geometric-power-splitting", "exact expansion of q^(nFl) - 1 through scaled q-integer powers (l <= 10)",
         _power_split_check(n, F, qv, 10)),
        ("index-range-rearrangement", "coprime-index alternating sum equals its per-residue double sum", rearranged),
    ):
        stages.append(_exact_stage(name, description, ok))

    sides = _theorem5_sides(r, n, q, budget, precision)
    (rhs, trunc["assembly"]), (rhs_w, trunc["assembly-weighted"]) = sides
    assembly = _padic_stage(
        "character-sum-assembly",
        "alternating power sum vs the assembled l-value expansion",
        p, [(None, lhs.residue, rhs.residue)], precision, target,
    )
    stages.append(assembly)
    stages.append(
        _padic_stage(
            "residue-weighted-assembly",
            "assembly keeping the per-residue geometric weight inside the character "
            "sums and half-normalizing the correction tail",
            p, [("weighted", lhs.residue, rhs_w.residue)], precision, target,
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
        agreement_valuation=assembly.agreement_valuation,
        agreement_saturated=assembly.saturated,
        stages=stages,
        truncation_indices=trunc,
    )
