"""The residue engine of the expansion layer against its exact oracles.

Every series in ``lfunc`` is summed on integer residues mod p^N over the
coefficients step(a)^j b_j, whose base row b_j has one of four kinds: H,
K, the double Euler row of the regrouped expansion, and that row plus K's
for the block expansion.  One cached kernel, ``_series``, certifies each
row once and keeps its coefficients, which ``_partial`` (H and K) and the
verifier's block stages (``_row_sums``) evaluate at every residue; a
per-residue series loop checks that one certificate serves them all.
These tests
keep the exact-rational formulation as the reference: the closed-form
q-Euler numbers for the recurrence table, direct modular powers and sums
for the base rows and step(a), ``teichmuller``/``angle_bracket`` for the
per-point tables,
the Fraction-scalar series loop for H, T, K and l (``binom_zp`` and
``power_zp`` for a Z_p exponent, which the engine sums through an integer
representative), the loop that
multiplies the unit -(-1)^a / (2 [a]_q^r) into every block-series term
for the two block stages, the PadicApprox loops for the character sums
and the assembly, the per-residue H and K series for the assembly's
table of alternating q-power sums, the term-by-term double loop for the
exact reindexing stage, and the rational alternating sum and block sums
for the [j]_q^(-r) table that the left-hand side and the block stages
read.
"""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (
    OutOfDomain,
    PadicApprox,
    PolyArg,
    QParam,
    SeriesBudget,
    TeichChar,
    TruncationNotConverged,
    angle_bracket,
    binom_int,
    binom_zp,
    embed,
    euler_number_classical,
    euler_number_q,
    euler_poly_classical,
    euler_poly_q,
    gen_euler_teich,
    padic_valuation,
    power_zp,
    q_int,
    teichmuller,
    theorem5_rhs,
    theorem5_rhs_weighted,
    theorem5_verify,
)
from qeuler import lfunc
from qeuler.kernel import padic_valuation_int
from qeuler.lfunc import (
    H_pq,
    K_pq,
    K_pq_chi,
    T_pq,
    T_pq_chi,
    _merge_coefficient,
    _Residues,
    _theorem5_sides,
    l_pq,
)
from qeuler.suites import run_suite

RECURRENCE_POINTS = [
    (5, Fraction(6)),
    (5, Fraction(26)),
    (5, Fraction(31, 6)),
    (5, Fraction(1)),
    (7, Fraction(8)),
    (7, Fraction(50)),
    (31, Fraction(32)),
]


def _closed_form(m, qv):
    return euler_number_classical(m) if qv == 1 else euler_number_q(m, qv)


@pytest.mark.parametrize("p, qv", RECURRENCE_POINTS)
def test_recurrence_table_matches_closed_form(p, qv):
    # F = 1 makes Q = q, so the table is E_{m,q} itself
    table = _Residues(QParam(qv, p), 1, 12)
    for m in range(40):
        assert table.euler(m) == embed(_closed_form(m, qv), p, 12).residue, m


@pytest.mark.parametrize("p, qv", [(5, Fraction(6)), (5, Fraction(1)), (31, Fraction(32))])
def test_recurrence_table_at_the_series_base(p, qv):
    # the base the series use: Q = q^F with F = p
    table = _Residues(QParam(qv, p), p, 12)
    for m in range(40):
        assert table.euler(m) == embed(_closed_form(m, qv**p), p, 12).residue, m


def test_shared_table_grows_consistently_across_threads():
    # one table per point is shared by every caller in the process; threads
    # extending it together must build the single-threaded table
    q, depth = QParam(Fraction(32), 31), 80
    shared = _Residues(q, 31, 12)

    def extend():
        for m in range(depth):
            shared.euler(m)

    _grow_in_threads(extend)
    assert shared._euler == [_Residues(q, 31, 12).euler(m) for m in range(depth)]


def _grow_in_threads(work, workers=4):
    """Run work() in `workers` threads released together, at a 1 us switch
    interval so that they interleave inside each table extension."""
    start = threading.Barrier(workers)
    errors = []

    def run():
        start.wait()
        try:
            work()
        except Exception as exc:  # a thread's exception would only warn
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


@pytest.mark.parametrize("p, qv", [(5, Fraction(6)), (5, Fraction(31, 6)), (5, Fraction(1)), (7, Fraction(50))])
@pytest.mark.parametrize("F_over_p", [1, 3])
def test_coefficient_rows_match_direct_powers(p, qv, F_over_p):
    # the H and K base rows' running products against a modular power per term
    F = p * F_over_p
    table = _Residues(QParam(qv, p), F, 10)
    mod = table.mod
    for n in (0, 2, 4):
        def w(x):
            return pow(x, n, mod) - 1 if n else 1

        kind = "K" if n else "H"
        for j in range(30):
            want = table.euler(j) * w(pow(table.Q, j, mod)) % mod
            assert table.base(kind, n, j + 1)[j] == want, (n, j)


@pytest.mark.parametrize("p, qv", [(5, Fraction(6)), (5, Fraction(31, 6)), (7, Fraction(50))])
def test_cached_step_keeps_every_row(p, qv):
    # step(a), the ratio of every series at residue a, is taken once per
    # residue and is q^a [F]_q / [a]_q read afresh; the row of every a < p
    # at once, from the batch inverses, holds the same values
    F = 3 * p
    table = _Residues(QParam(qv, p), F, 8)
    mod, units = table.mod, [a for a in range(1, F) if a % p]
    ratios = [pow(table.q, a, mod) * table.q_ints[F] * pow(table.q_ints[a], -1, mod) % mod for a in units]
    assert _Residues(QParam(qv, p), F, 8).steps() == ratios[:p - 1]
    for a, ratio in zip(units, ratios):
        assert table.step(a) == ratio
    assert sorted(table._steps) == units


@pytest.mark.parametrize("p, qv", [(5, Fraction(6)), (5, Fraction(1)), (7, Fraction(50))])
def test_double_rows_match_the_direct_sum(p, qv):
    # the block series' base rows, summed afresh for each s
    table = _Residues(QParam(qv, p), p, 10)
    mod, Q = table.mod, table.Q
    for n in (2, 4):
        h = sum(pow(Q, i, mod) for i in range(n))
        for power_tail in (False, True):
            kind = "block" if power_tail else "double"
            for s in range(20):
                want = sum(
                    binom_int(s, l) * pow(Q, n * l, mod) * table.euler(l) * h ** (s - l)
                    for l in range(s)
                )
                if power_tail:
                    want += (pow(Q, n * s, mod) - 1) * table.euler(s)
                assert table.base(kind, n, s + 1)[s] == want % mod, (n, power_tail, s)


@pytest.mark.parametrize("p, qv", [(5, Fraction(6)), (5, Fraction(1)), (7, Fraction(50)), (31, Fraction(32))])
def test_unit_table_matches_teichmuller_and_angle_bracket(p, qv):
    q = QParam(qv, p)
    for F in (p, 3 * p):
        table = _Residues(q, F, 9)
        for a in range(1, F):
            if a % p:
                assert table.units(a) == (teichmuller(a, p, 9).residue, angle_bracket(a, q, 9).residue), a


def test_coefficient_rows_grow_consistently_across_threads():
    # the H or K base row, and the double (block at a = 1) base row, which
    # grows the base rows of double and K under it, with each residue's step
    q, depth = QParam(Fraction(32), 31), 40
    rows = [
        (a, kind, n)
        for a in (1, 2, 30)
        for n in (0, 2, 4)
        for kind in ("K" if n else "H", "block" if a == 1 else "double")
    ]
    shared = _Residues(q, 31, 12)

    def extend():
        for j in range(depth):
            for a, kind, n in rows:
                shared.base(kind, n, j + 1)
                shared.step(a)
            shared.units(1 + j % 30)

    _grow_in_threads(extend)
    serial = _Residues(q, 31, 12)
    for a, kind, n in rows:
        assert shared._bases[kind, n][0] == serial.base(kind, n, depth), (a, kind, n)
    assert shared._steps == {a: serial.step(a) for a in (1, 2, 30)}
    assert shared._units == {a: serial.units(a) for a in range(1, 31)}


# -- the Fraction-scalar series, as the engine computed them before ---------


def _euler_term(j, qv, f):
    return euler_number_classical(j) if qv == 1 else euler_number_q(j, qv**f)


def _scalar(kind, n, j, a, F, qv):
    ratio = q_int(F, qv) / q_int(a, qv)
    base = qv ** (j * a) * ratio**j * _euler_term(j, qv, F)
    if kind == "H":
        return base
    if kind == "T":
        return base * ((-1) ** n * qv ** (n * F * j) - 1)
    nf = q_int(n * F, qv)
    return base * sum(binom_int(j, i) * nf**i * (qv - 1) ** i for i in range(1, j + 1))


def _fraction_series(kind, n, s, a, F, q, budget, precision):
    """The series summed with PadicApprox arithmetic, under the same
    stopping rule as the engine's accumulator."""
    p = q.prime
    if kind != "H" and q.value == 1:
        return embed(0, p, budget.target)
    s = embed(s, p, precision) if isinstance(s, Fraction) else s
    gain = int(padic_valuation(q_int(F, q.value) / q_int(a, q.value), p))
    total, quiet, slack, done = embed(0, p, precision), 0, 0, False
    for j in range(0 if kind == "H" else 1, budget.max_terms + 1):
        scalar = _scalar(kind, n, j, a, F, q.value)
        b = binom_int(-s, j) if isinstance(s, int) else binom_zp(-s, j)
        term = embed(b * scalar, p, precision) if isinstance(b, int) else b * scalar
        total = total + term
        v = term.valuation
        if v is not None:
            slack = max(slack, j * gain - v)
        quiet = quiet + 1 if (term.precision if v is None else v) >= budget.target else 0
        done = quiet >= lfunc._WINDOW and (j + 1) * gain - slack >= budget.target
        if done:
            break
    if not done:
        raise TruncationNotConverged(kind)
    sign = Fraction((-1) ** a, 1 if kind == "T" else 2)
    val = total * power_zp(angle_bracket(a, q, precision), -s) * sign
    return val.reduce(min(val.precision, budget.target))


SERIES_POINTS = [(5, Fraction(6)), (5, Fraction(31, 6)), (5, Fraction(1)), (7, Fraction(50))]
EXPONENTS = [-2, 0, 2, Fraction(1, 2), Fraction(3, 2)]


def _pair(x):
    return (x.residue, x.precision)


def _outcome(compute):
    try:
        return _pair(compute())
    except TruncationNotConverged:
        return "not converged"


# (target, working precision): the default margin, and none at all.  With
# no margin a Z_p exponent's p-adic binomial loses v_p(j!) digits; the
# engine's term c_j, known mod p^N with v_p(c_j) >= j, gives them back,
# but the oracle's exact scalar cannot when it vanishes (a classical Euler
# number at q = 1): there the oracle runs with a wide margin instead
BUDGETS = [(4, 10), (3, 3)]
WIDE_ORACLE = (SeriesBudget(target=12), 30)


@pytest.mark.parametrize("target, precision", BUDGETS)
@pytest.mark.parametrize("p, qv", SERIES_POINTS)
def test_series_match_fraction_scalar_formula(p, qv, target, precision):
    # the oracle keeps T's own (-1)^n weight and (-1)^a scale, so this
    # also checks T = 2K at both block counts
    q = QParam(qv, p)
    budget = SeriesBudget(target=target)
    for n in (2, 4):
        for s in EXPONENTS:
            wide = qv == 1 and not isinstance(s, int) and precision == target
            for a in (1, 2, p - 1):
                for kind, fn in (("H", H_pq), ("T", T_pq), ("K", K_pq)):
                    args = (s, a, p, q, budget, precision)
                    if kind != "H":
                        args = (n, *args)
                    got = _outcome(lambda: fn(*args))
                    if wide:
                        want = _fraction_series(kind, n, s, a, p, q, *WIDE_ORACLE)
                        assert got[1] == target, (kind, n, s, a)
                        assert _pair(want.reduce(target)) == got, (kind, n, s, a)
                        continue
                    want = _outcome(lambda: _fraction_series(kind, n, s, a, p, q, budget, precision))
                    assert got == want, (kind, n, s, a)


@pytest.mark.parametrize("p, qv", SERIES_POINTS)
def test_l_value_matches_fraction_scalar_formula(p, qv):
    q = QParam(qv, p)
    budget = SeriesBudget(target=4)
    for s in EXPONENTS:
        chi = TeichChar(p, 2)
        total = embed(0, p, 10)
        for a in range(1, p):
            total = total + chi.value(a, 10) * _fraction_series("H", 0, s, a, p, q, budget, 10)
        want = (2 * total).reduce(min(total.precision, 4))
        assert _pair(l_pq(s, chi, p, q, budget, 10)) == _pair(want), s


# -- the one character sum, against the PadicApprox loops it replaced -------


def _padic_char_sum(fn, chi, residues, p, precision, target):
    """2 sum_a chi(a) fn(a) on PadicApprox values, reduced to the target."""
    total = PadicApprox.zero(p, precision)
    for a in residues:
        total = total + chi.value(a, precision) * fn(a)
    total = 2 * total
    return total.reduce(min(total.precision, target))


def _padic_gen_euler(n, chi, q, precision):
    """gen_euler_teich as a PadicApprox loop over chi.value."""
    p, qv = q.prime, q.value
    if chi.is_trivial:
        return embed(euler_number_classical(n) if qv == 1 else euler_number_q(n, qv), p, precision)
    total = PadicApprox.zero(p, precision)
    scale = q_int(p, qv) ** n
    for a in range(1, p):
        e = euler_poly_classical(n, Fraction(a, p)) if qv == 1 else euler_poly_q(n, PolyArg(a, p, qv))
        total = total + chi.value(a, precision) * (-1) ** a * embed(scale * e, p, precision)
    return total


def _sum_outcome(compute):
    try:
        return _pair(compute())
    except Exception as exc:  # the exception type is part of the contract
        return type(exc).__name__


CHAR_QS = [Fraction(6), Fraction(1), Fraction(11, 6)]
# (budget, working precision): the default margin, none, a short tail, a
# precision below the target (only K at q = 1 certifies, to 2 digits), and
# a term limit that no series meets
CHAR_BUDGETS = [
    (SeriesBudget(4), None),
    (SeriesBudget(3), 3),
    (SeriesBudget(4, 10), 6),
    (SeriesBudget(4), 2),
    (SeriesBudget(8, 6), 8),
]


@pytest.mark.parametrize("F", [5, 15])
@pytest.mark.parametrize("qv", CHAR_QS)
def test_character_sums_match_the_padic_loop(qv, F):
    p, q = 5, QParam(qv, 5)
    for budget, precision in CHAR_BUDGETS:
        working = budget.target + 6 if precision is None else precision
        for s in (-2, 1, 3, Fraction(1, 2), Fraction(-3, 2), PadicApprox(5, 6, 6)):
            for t in (0, 1, 2, 3):
                chi, at = TeichChar(p, t), (budget, precision, s, t)
                want = _sum_outcome(lambda: _padic_char_sum(
                    lambda a: H_pq(s, a, F, q, budget, working),
                    chi, [a for a in range(1, F) if a % p], p, working, budget.target))
                assert _sum_outcome(lambda: l_pq(s, chi, F, q, budget, precision)) == want, at
                for n in (2, 4):
                    want = _sum_outcome(lambda: _padic_char_sum(
                        lambda a: K_pq(n, s, a, F, q, budget, working),
                        chi, range(1, p), p, working, budget.target))
                    assert _sum_outcome(lambda: K_pq_chi(n, s, chi, F, q, budget, precision)) == want, at
                    if not isinstance(want, str):
                        want = _pair(2 * PadicApprox(p, *want))
                    assert _sum_outcome(lambda: T_pq_chi(n, s, chi, F, q, budget, precision)) == want, at


@pytest.mark.parametrize("qv", CHAR_QS)
def test_generalized_euler_numbers_match_the_padic_loop(qv):
    q = QParam(qv, 5)
    for precision in (1, 3, 8):
        for t in range(4):
            for n in range(9):
                want = _pair(_padic_gen_euler(n, TeichChar(5, t), q, precision))
                assert _pair(gen_euler_teich(n, TeichChar(5, t), q, precision)) == want, (precision, t, n)


@pytest.mark.parametrize("qv", [Fraction(6), Fraction(1)])
def test_a_character_over_another_prime_is_rejected(qv):
    # the character sum reads w(a) from the table over q's prime, so only
    # the explicit check keeps a w over 7 out of a sum over 5; the short
    # budget, whose series do not certify, must not get there first
    q = QParam(qv, 5)
    for budget, precision in ((SeriesBudget(4), None), (SeriesBudget(8, 6), 8)):
        for chi in (TeichChar(7, 0), TeichChar(7, 2)):
            with pytest.raises(OutOfDomain):
                l_pq(1, chi, 5, q, budget, precision)
            for fn in (K_pq_chi, T_pq_chi):
                with pytest.raises(OutOfDomain):
                    fn(2, 1, chi, 5, q, budget, precision)
        with pytest.raises(OutOfDomain):
            gen_euler_teich(2, TeichChar(7, 2), q, 4)


def test_equal_qparams_share_one_residue_table():
    lfunc._residues.cache_clear()
    first = lfunc._residues(QParam(6, 5), 5, 4)
    assert lfunc._residues(QParam(Fraction(6), 5), 5, 4) is first
    assert lfunc._residues(QParam(Fraction(12, 2), 5), 5, 4) is first
    assert lfunc._residues.cache_info().currsize == 1
    # q = 36 lies over 5 and 7 alike (35 = 5 * 7): the prime keys tables apart
    assert lfunc._residues(QParam(36, 5), 35, 4) is not lfunc._residues(QParam(36, 7), 35, 4)
    assert lfunc._residues.cache_info().currsize == 3


# -- the integer exponent path against the Z_p one --------------------------

# q = 1 at p = 5 only; v_p(q - 1) = 1 and 2, and non-integral q, at both
EXPONENT_PATH_POINTS = [
    (5, Fraction(6)),
    (5, Fraction(26)),
    (5, Fraction(11, 6)),
    (5, Fraction(1)),
    (7, Fraction(8)),
    (7, Fraction(15, 8)),
]


@pytest.mark.parametrize("p, qv", EXPONENT_PATH_POINTS)
def test_integer_exponents_agree_with_the_zp_binomial_path(p, qv):
    # the engine sums every exponent on exact binomials and a modular power
    # of <a>; the oracle sums Fraction(s), and s embedded as a PadicApprox
    # beyond and below the working precision 10, on binom_zp and
    # exp(s log <a>): one residue, one precision
    q, budget = QParam(qv, p), SeriesBudget(target=4)
    for s in (-2, 1, 2, 3, 5):
        for zp in (Fraction(s), embed(s, p, 12), embed(s, p, 5)):
            for a in range(1, p):
                for kind, fn in (("H", H_pq), ("K", lambda *args: K_pq(2, *args))):
                    want = _pair(_fraction_series(kind, 2, zp, a, p, q, budget, 10))
                    assert _pair(fn(s, a, p, q, budget)) == want, (kind, s, zp, a)
                    assert _pair(fn(zp, a, p, q, budget)) == want, (kind, s, zp, a)


# -- the certificate's valuation shortcut ------------------------------------


class _EveryValuation:
    """The reference rule of the series certificate: it takes the exact
    valuation of every nonzero term, whether or not it can move the slack."""

    def __init__(self, p, budget, gain):
        self.prime, self.budget, self.gain = p, budget, gain
        self.residue = self.quiet = self.slack = self.used = 0
        self.done = False

    def add(self, index, residue):
        self.residue += residue
        self.used = index
        v = padic_valuation_int(residue, self.prime) if residue else None
        if v is not None:
            self.slack = max(self.slack, index * self.gain - v)
        negligible = v is None or v >= self.budget.target
        self.quiet = self.quiet + 1 if negligible else 0
        tail_ok = (index + 1) * self.gain - self.slack >= self.budget.target
        self.done = self.quiet >= lfunc._WINDOW and tail_ok
        return self.done


def _state(series):
    return series.done, series.used, series.slack, series.quiet, series.residue


@st.composite
def _terms(draw, p):
    """Terms as residues: zeros, p**e times a unit below p**d for e up to d
    (so also unreduced multiples of p**d), units."""
    terms = []
    for _ in range(draw(st.integers(1, 24))):
        digits = draw(st.integers(1, 8))
        kind = draw(st.sampled_from(("zero", "multiple", "unit")))
        unit = draw(st.integers(1, p**digits).filter(lambda u: u % p))
        if kind == "zero":
            terms.append(0)
        elif kind == "multiple":
            terms.append(p ** draw(st.integers(1, digits)) * unit)
        else:
            terms.append(unit)
    return terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7]), st.integers(1, 2), st.integers(0, 1))
def test_certificate_shortcut_keeps_the_every_valuation_rule(data, p, gain, start):
    target = data.draw(st.integers(1, 8))
    budget = SeriesBudget(target, 60)
    series = lfunc._TruncatedSeries(p, budget, gain, "property")
    oracle = _EveryValuation(p, budget, gain)
    for index, residue in enumerate(data.draw(_terms(p)), start=start):
        assert series.add(index, residue) == oracle.add(index, residue)
        assert _state(series) == _state(oracle), index


@pytest.mark.parametrize("target, finish", [(6, 5), (8, 7)])
def test_zero_terms_stop_where_the_tail_bound_first_covers_the_target(target, finish):
    # five zero terms from index 1 fill the window at index 5, but at gain 1
    # the dropped tail after index i is bounded only by v >= i + 1
    series = lfunc._TruncatedSeries(5, SeriesBudget(target), 1, "zeros")
    for index in range(1, 20):
        if series.add(index, 0):
            break
    assert series.done and series.used == finish


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([3, 5, 7, 31]), st.integers(1, 12))
def test_batch_inverse_matches_one_inverse_per_entry(data, p, N):
    mod = p**N
    values = data.draw(st.lists(st.integers(1, mod - 1).filter(lambda x: x % p), max_size=50))
    assert lfunc._batch_inverse(values, mod) == [pow(x, -1, mod) for x in values]


# -- the character-sum assembly, as the engine computed it before ----------


def _padic_assembly(r, n, q, budget, precision, residue_weighted):
    """The plain or weighted expansion side summed on PadicApprox values,
    with the Fraction weight q^(ak), under the engine's stopping rule."""
    p, qv = q.prime, q.value
    precision = budget.target + 6 if precision is None else precision
    pn_q = q_int(p * n, qv)
    gain = int(padic_valuation(pn_q, p))
    series = lfunc._TruncatedSeries(p, budget, gain, "assembly tail")
    for k in range(1, budget.max_terms + 1):
        s, chi = r + k, TeichChar(p, -(r + k))
        inner = PadicApprox.zero(p, precision)
        for a in range(1, p):
            part = H_pq(s, a, p, q, budget, precision) + K_pq(n, s, a, p, q, budget, precision)
            weight = qv ** (a * k) if residue_weighted else 1
            inner = inner + chi.value(a, precision) * part * weight
        term = 2 * inner * (_merge_coefficient(r, k) * (-1) ** n) * pn_q**k
        if series.add(k, term.residue):
            break
    tail = PadicApprox(p, *series.certified())
    t_chi = T_pq_chi(n, r, TeichChar(p, -r), p, q, budget, precision)
    if residue_weighted:
        t_chi = t_chi * Fraction(1, 2)
    rhs = -tail - t_chi
    return rhs.reduce(min(rhs.precision, budget.target)), series.used


class _TermLog(lfunc._TruncatedSeries):
    """The series accumulator, logging the terms each assembly-tail instance
    is given: each term gains at least one digit from [pn]_q^k, so the
    reported value alone cannot show a term reduced one digit short."""

    logs = []  # one list per assembly-tail instance, in creation order

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []
        if self.label == "assembly tail":
            self.logs.append(self.log)

    def add(self, index, residue):
        self.log.append((index, residue))
        return super().add(index, residue)


def _assembly_outcome(compute):
    """[(residue, precision, truncation index)] per side, or the exception
    type, and the terms each side's series was given."""
    _TermLog.logs = []
    try:
        sides = compute()
    except Exception as exc:  # the exception type is part of the contract
        return type(exc).__name__, _TermLog.logs
    return [(value.residue, value.precision, used) for value, used in sides], _TermLog.logs


# (budget, working precision): the default margin, none, and a short tail
ASSEMBLY_BUDGETS = [(SeriesBudget(4), None), (SeriesBudget(3), 3), (SeriesBudget(4, 10), 4)]


@pytest.mark.parametrize(
    "p, qv",
    [(5, Fraction(6)), (5, Fraction(1)), (5, Fraction(31, 6)), (7, Fraction(50)), (31, Fraction(32))],
)
def test_assembly_matches_the_padic_loop(monkeypatch, p, qv):
    # both sides of the one pass against the loop run once per side; at
    # p = 5, n = 10 gives [pn]_q the valuation g = 2
    monkeypatch.setattr(lfunc, "_TruncatedSeries", _TermLog)
    q = QParam(qv, p)
    for budget, precision in ASSEMBLY_BUDGETS:
        for r in (1, 2, 3):
            for n in (2, 4, 10) if p == 5 else (2, 4):
                args = (r, n, q, budget, precision)
                plain, plain_log = _assembly_outcome(lambda: [_padic_assembly(*args, False)])
                weighted, weighted_log = _assembly_outcome(lambda: [_padic_assembly(*args, True)])
                if isinstance(plain, str) or isinstance(weighted, str):
                    # a side that raises makes the pass raise, with the same type
                    assert plain == weighted, args
                    want = plain
                else:
                    want = plain + weighted
                assert _assembly_outcome(lambda: _theorem5_sides(*args)) == (want, plain_log + weighted_log), args


def test_one_verify_evaluates_each_series_once(monkeypatch):
    partials, rows, partial, series = [], [], lfunc._partial, lfunc._series

    def counted_partial(*args):
        partials.append(args)
        return partial(*args)

    def counted_series(res, r, sigma, kind, n, budget):
        rows.append(kind)
        return series(res, r, sigma, kind, n, budget)

    def no_teichmuller(*args):
        raise AssertionError(f"teichmuller{args}")

    monkeypatch.setattr(lfunc, "_partial", counted_partial)
    monkeypatch.setattr(lfunc, "_series", counted_series)
    monkeypatch.setattr(lfunc, "teichmuller", no_teichmuller)
    for r, n, q in [(2, 2, QParam(6, 5)), (1, 4, QParam(Fraction(31, 6), 5)), (3, 2, QParam(1, 7))]:
        partials.clear()
        rows.clear()
        report = theorem5_verify(r, n, q, SeriesBudget(4))
        assert report.truncation_indices["assembly"] > 1
        # the assembly reads its character sums from the alternating-sum
        # table, and the block stages read each row once (K vanishes at
        # q = 1), and take no w(a)
        assert partials == [], (r, n, q)
        assert rows == ["block", "double"] + ([] if q.is_one else ["K"]), (r, n, q)
        # T's sum comes from the table too: either side alone sums no series
        rows.clear()
        for side in (theorem5_rhs, theorem5_rhs_weighted):
            side(r, n, q, SeriesBudget(4))
        assert partials == rows == [], (r, n, q)


def test_every_row_is_certified_once():
    # the series of every residue at one (exponent, kind, n) is one row:
    # l_pq at F = 3p sums 10 residues and K_pq_chi 4 on one certificate
    # each, and `verify all` certifies 41 rows, the 24 behind its 96
    # distinct H and K values and the verifier's 20, 3 of them K rows
    # that both read
    q, budget, chi = QParam(6, 5), SeriesBudget(4), TeichChar(5, 1)
    for call in (lambda: l_pq(2, chi, 15, q, budget), lambda: K_pq_chi(2, 3, chi, 5, q, budget)):
        lfunc._series.cache_clear()
        call()
        assert lfunc._series.cache_info().misses == 1
    lfunc._series.cache_clear()
    run_suite("all")
    assert lfunc._series.cache_info().misses == 41


def test_assembly_names_the_series_that_did_not_certify():
    # at target 6 the character sums need the terms j < 6, within the 7
    # allowed, but the assembly tail runs out of its 7 terms first
    with pytest.raises(TruncationNotConverged) as err:
        theorem5_rhs(2, 2, QParam(6, 5), SeriesBudget(6, 6))
    assert str(err.value) == "series 'assembly tail' not certified within 7 terms (window 5, target 6)"
    # at target 8 they need the terms j < 8, beyond max_terms 6
    with pytest.raises(TruncationNotConverged) as err:
        theorem5_rhs(2, 2, QParam(6, 5), SeriesBudget(8, 6))
    assert str(err.value) == (
        "series 'character sums' not certified: target 8 needs the terms j < 8, beyond max_terms 6")


# -- the assembly's alternating-sum table against the series it replaces --

# q = p + 1, q = 1 and a non-integral q at each prime, and v_5(q - 1) = 2
TABLE_POINTS = [
    (5, Fraction(6)), (5, Fraction(1)), (5, Fraction(31, 6)), (5, Fraction(26)),
    (7, Fraction(8)), (7, Fraction(1)), (7, Fraction(15, 8)),
    (31, Fraction(32)), (31, Fraction(1)), (31, Fraction(63, 32)),
]
# (budget, working precision): the default margin, and none at target 6
TABLE_BUDGETS = [(SeriesBudget(4), 10), (SeriesBudget(6), 6)]


def _table_mismatches(res, q, budget, precision):
    """The (r, n, k, shift) at which the table sum _table_sum over res and
    _assembly_rows(res, ...)[0] is not twice the character sum of the (H + K)
    pairs that the assembly summed before, sum_a w(a)^(-s) (H + K)(s, a)
    q^(a shift) by _char_sum over the cached _partial series, mod p^low."""
    p = q.prime
    low = min(precision, budget.target)
    cached = lfunc._residues(q, p, precision)
    mismatches = []
    for n in (2, 4, 10) if p == 5 else (2, 4):
        e = lfunc._assembly_rows(res, n, low)[0]
        for r in (1, 2, 3):
            for k in range(1, 9):
                s = r + k
                pairs = []
                for a in range(1, p):
                    h, h_low, _ = lfunc._partial(s, a, p, q, budget, precision, "H", 0)
                    kk, k_low, _ = lfunc._partial(s, a, p, q, budget, precision, "K", n)
                    pairs.append((a, h + kk, min(h_low, k_low)))
                for shift in (0, k):
                    weighted = [(a, (v * pow(cached.q, a * shift, cached.mod), t)) for a, v, t in pairs]
                    want, want_low = lfunc._char_sum(cached, -s, weighted)
                    assert want_low == low
                    if (lfunc._table_sum(res, lfunc._coefficients(e, s), s, shift) - 2 * want) % p**low:
                        mismatches.append((r, n, k, shift))
    return mismatches


@pytest.mark.parametrize("p, qv", TABLE_POINTS)
def test_alternating_sum_table_matches_the_series_character_sums(p, qv):
    q = QParam(qv, p)
    for budget, precision in TABLE_BUDGETS:
        assert _table_mismatches(_Residues(q, p, precision), q, budget, precision) == [], budget


@pytest.mark.parametrize("mutate", ["euler", "alternating sum"])
def test_alternating_sum_table_check_sees_one_wrong_entry(mutate):
    q, (budget, precision) = QParam(6, 5), TABLE_BUDGETS[0]
    res = _Residues(q, 5, precision)
    if mutate == "euler":
        res.euler(3)
        res._euler[2] += 1  # E_{2,Q}, read through e_2
    else:
        res.alt_sums(1, 14)  # every row the check reads, at full length
        res.alt_sums(2, 1)[3] += 1  # N(5, 3)
    assert _table_mismatches(res, q, budget, precision) != []


def _certified(compute):
    """compute()'s value (a report's dict, or a p-adic value's residue and
    precision), or None when it raised TruncationNotConverged."""
    try:
        value = compute()
    except TruncationNotConverged:
        return None
    return value.to_dict() if isinstance(value, lfunc.VerificationReport) else (value.residue, value.precision)


@pytest.mark.parametrize(
    "p, qv",
    [(5, Fraction(6)), (5, Fraction(26)), (5, Fraction(31, 6)), (5, Fraction(1)),
     (7, Fraction(8)), (7, Fraction(15, 8))],
)
def test_tight_budgets_certify_only_the_wide_budgets_values(p, qv):
    # max_terms < target + 4: the character sums fit, but their series
    # would not have met a window of 5 negligible terms
    q, certified = QParam(qv, p), 0
    for target in range(3, 7):
        for max_terms in range(6, target + 4):
            for precision in (None, target):
                for r, n in [(1, 2), (2, 2), (2, 4), (3, 4), (1, 10)]:
                    for f in (theorem5_verify, theorem5_rhs, theorem5_rhs_weighted):
                        got = _certified(lambda: f(r, n, q, SeriesBudget(target, max_terms), precision))
                        if got is not None:
                            wide = _certified(lambda: f(r, n, q, SeriesBudget(target, 60), precision))
                            assert got == wide, (f.__name__, target, max_terms, precision, r, n)
                            certified += 1
    assert certified > 0


@pytest.mark.parametrize("qv", [Fraction(6), Fraction(26), Fraction(31, 6), Fraction(1)])
def test_a_term_limit_of_7_at_target_4(qv):
    # where H(r + 1, a = 1) ran out of its 8 terms before the table: the
    # verify reports of the wide budget at (r, n) = (1, 10) and (3, 4), and
    # an assembly tail that still needs more at (2, 4)
    q, short, wide = QParam(qv, 5), SeriesBudget(4, 7), SeriesBudget(4)
    for r, n in [(1, 10), (3, 4)]:
        assert theorem5_verify(r, n, q, short, 4).to_dict() == theorem5_verify(r, n, q, wide, 4).to_dict()
    with pytest.raises(TruncationNotConverged) as err:
        theorem5_verify(2, 4, q, short, 4)
    assert str(err.value) == "series 'assembly tail' not certified within 8 terms (window 5, target 4)"


# -- the block stages, as the engine summed them before --------------------


def _direct_doubles(res, n, power_tail, depth):
    """The block series' a-independent factor d_0..d_depth, each summed
    afresh (the power-difference row added when power_tail)."""
    mod, Q = res.mod, res.Q
    h = sum(pow(Q, i, mod) for i in range(n))
    out = []
    for s in range(depth + 1):
        d = sum(binom_int(s, l) * pow(Q, n * l, mod) * res.euler(l) * h ** (s - l) for l in range(s))
        if power_tail:
            d += (pow(Q, n * s, mod) - 1) * res.euler(s)
        out.append(d % mod)
    return out


def _unit_block_series(r, n, a, q, budget, precision, label, power_tail, doubles):
    """The block expansion as a loop that multiplies the unit
    -(-1)^a / (2 [a]_q^r) into every term, binom(-r, s) stepped exactly,
    under the engine's stopping rule; returns the accumulator."""
    res = _Residues(q, q.prime, precision)
    mod, step = res.mod, res.step(a)
    unit = -((-1) ** a) * pow(2 * pow(res.q_ints[a], r, mod), -1, mod)
    series = lfunc._TruncatedSeries(q.prime, budget, res.gain, label)
    b = binom_int(-r, 1)
    for s in range(1, budget.max_terms + 1):
        if series.add(s, b * unit * pow(step, s, mod) * doubles[s] % mod):
            break
        b = b * (-r - s) // (s + 1)
    return series


def _stage_outcome(compute, residue=None):
    """compute()'s (residue, precision, terms used), or the type and
    message of the TruncationNotConverged it raised, with a = 1 in the
    message read as a = `residue` when one is given."""
    try:
        return compute()
    except TruncationNotConverged as exc:
        message = str(exc) if residue is None else str(exc).replace("(a=1)", f"(a={residue})")
        return type(exc).__name__, message


def _block_stage_oracle(r, n, a, q, budget, precision, doubles):
    """Both block stages of residue a by the loop: the outcome of the block
    expansion, and of the regrouped expansion, the double series plus
    -w(a)^(-r) K."""
    p = q.prime

    def block():
        series = _unit_block_series(
            r, n, a, q, budget, precision, f"block expansion (a={a})", True, doubles[True])
        return (*series.certified(), series.used)

    def regrouped():
        series = _unit_block_series(
            r, n, a, q, budget, precision, f"regrouped expansion (a={a})", False, doubles[False])
        total, low = series.certified()
        kk = K_pq(n, r, a, p, q, budget, precision)
        w_pow = pow(teichmuller(a, p, precision).residue, -r, p**precision)
        low = min(low, kk.precision)
        return (total - w_pow * kk.residue) % p**low, low, series.used

    return _stage_outcome(block), _stage_outcome(regrouped)


def _block_stage_engine(r, n, a, q, budget, precision):
    """The same two outcomes from the engine's all-residue rows, read at
    residue a and scaled by -(-1)^a / (2 [a]_q^r) as theorem5_verify scales
    them.  A row that does not certify raises at a = 1 for every residue,
    so its message is read with the label of residue a."""
    p, target = q.prime, budget.target
    res = lfunc._residues(q, p, precision)
    mod = res.mod
    unit = -((-1) ** a) * pow(2 * pow(res.q_ints[a], r, mod), -1, mod)

    def row(kind):
        sums, used = lfunc._row_sums(res, r, kind, n, budget)
        return sums[a - 1], used

    def block():
        value, used = row("block")
        return unit * value % p**target, target, used

    def regrouped():
        double, used = row("double")
        kk = 0 if q.is_one else row("K")[0]
        return unit * (double + kk) % p**target, target, used

    return _stage_outcome(block, a), _stage_outcome(regrouped, a)


# q = p + 1, q = 1 and a non-integral q with v_p(q - 1) >= 1 at each prime
BLOCK_POINTS = [
    (5, Fraction(6)), (5, Fraction(1)), (5, Fraction(31, 6)),
    (7, Fraction(8)), (7, Fraction(1)), (7, Fraction(15, 8)),
    (31, Fraction(32)), (31, Fraction(1)), (31, Fraction(63, 32)),
]
# (budget, working precision): the default margin, none, a short tail, a
# term limit that the block series meet at some points only, and one that
# none meets
BLOCK_BUDGETS = [
    (SeriesBudget(4), None),
    (SeriesBudget(3), 3),
    (SeriesBudget(4, 10), 4),
    (SeriesBudget(4, 7), 4),
    (SeriesBudget(8, 6), 8),
]


def _residue_outcome(res, r, sigma, a, kind, n, budget):
    """The terms used by the series of residue a, summed term by term at
    step(a) mod p^sigma under the engine's certificate, or the type and
    message of what the certificate raises, labeled with the residue "a"."""
    label, start = lfunc._KINDS[kind]
    series = lfunc._TruncatedSeries(res.prime, budget, res.gain, label.format("a"))
    mod, b = res.prime**sigma, binom_int(-r, start)
    for j in range(start, budget.max_terms + 1):
        if series.add(j, b * pow(res.step(a), j, mod) * res.base(kind, n, j + 1)[j] % mod):
            break
        b = b * (-r - j) // (j + 1)
    try:
        series.certified()
    except TruncationNotConverged as exc:
        return type(exc).__name__, str(exc)
    return series.used


def _row_outcome(res, r, sigma, kind, n, budget):
    """The same outcome from the engine's one certificate per row."""
    row, used, failure = lfunc._series(res, r, sigma, kind, n, budget)
    return used if failure is None else ("TruncationNotConverged", failure.format("a"))


@pytest.mark.parametrize("p, qv", BLOCK_POINTS)
def test_each_row_certifies_alike_at_every_residue(p, qv):
    # v_p(step(a)) = v_p(F) at every a, so one certificate serves a row's
    # series at every residue: the same terms used, or the same error, at
    # F = p and 3p, and at Z_p exponents through their representatives
    q, outcomes = QParam(qv, p), set()
    exponents = (1, 2, 3, -1, -4, Fraction(1, 2), Fraction(-7, 3), PadicApprox(p, 6, 9))
    rows = [(kind, n) for n in (2, 4) for kind in ("block", "double", "K")] + [("H", 0)]
    for budget, precision in BLOCK_BUDGETS:
        working = budget.target + 6 if precision is None else precision
        for F in (p, 3 * p):
            res = _Residues(q, F, working)
            for s in exponents:
                r, sigma = lfunc._representative(s, p, working)
                for kind, n in rows if F == p else [("H", 0), ("K", 2), ("K", 4)]:
                    want = _row_outcome(res, r, sigma, kind, n, budget)
                    for a in range(1, F):
                        if a % p:
                            got = _residue_outcome(res, r, sigma, a, kind, n, budget)
                            assert got == want, (budget, F, s, kind, n, a)
                    outcomes.add(want)
    # the grid holds rows that certify and rows that do not
    assert {type(x) for x in outcomes} == {int, tuple}


@pytest.mark.parametrize("p, qv", BLOCK_POINTS)
def test_block_stages_match_the_unit_loop(p, qv):
    q = QParam(qv, p)
    for budget, precision in BLOCK_BUDGETS:
        working = budget.target + 6 if precision is None else precision
        res = _Residues(q, p, working)
        for n in (2, 4):
            doubles = {tail: _direct_doubles(res, n, tail, budget.max_terms) for tail in (False, True)}
            for r in (1, 2, 3):
                wants = [_block_stage_oracle(r, n, a, q, budget, working, doubles) for a in range(1, p)]
                for a, want in enumerate(wants, start=1):
                    assert _block_stage_engine(r, n, a, q, budget, working) == want, (budget, r, n, a)
                # the verifier raises the first failure, block stage before
                # regrouping stage at each residue, or reports the block
                # expansions' terms used (unless a series of its assembly,
                # summed after the blocks, falls short)
                failures = [want for pair in wants for want in pair if isinstance(want[0], str)]
                try:
                    trunc = theorem5_verify(r, n, q, budget, precision).truncation_indices
                    got = [trunc[f"block-expansion/a={a}"] for a in range(1, p)]
                except TruncationNotConverged as exc:
                    got = (type(exc).__name__, str(exc))
                if failures:
                    assert got == failures[0], (budget, r, n)
                elif isinstance(got, tuple):
                    assert got[1].startswith(("series 'H(", "series 'K(", "series 'assembly tail'")), got
                else:
                    assert got == [block[2] for block, _ in wants], (budget, r, n)


# -- the exact reindexing oracle -------------------------------------------


def _reindex_loop(r, n, a, F, qv, depth, merge):
    """Both sides of the reindexing stage, summed term by term."""
    qf = qv**F
    inv_ar = q_int(a, qv) ** (-r)
    ratio = q_int(F, qv) / q_int(a, qv)
    lhs = Fraction(0)
    for s_idx in range(1, depth + 1):
        for l in range(s_idx):
            lhs += (
                binom_int(-r, s_idx)
                * binom_int(s_idx, l)
                * inv_ar
                * ratio**s_idx
                * qv ** (a * s_idx)
                * Fraction((-1) ** a * (-1) ** n, 2)
                * qv ** (n * F * l)
                * _euler_term(l, qv, F)
                * q_int(n, qf) ** (s_idx - l)
            )
    rhs = Fraction(0)
    for k in range(1, depth + 1):
        for l in range(depth - k + 1):
            rhs += (
                merge(r, k)
                * binom_int(-r - k, l)
                * inv_ar
                * q_int(a, qv) ** (-k)
                * qv ** (a * k)
                * (-1) ** n
                * (q_int(F, qv) * q_int(n, qf)) ** k
                * Fraction((-1) ** a, 2)
                * qv ** (a * l)
                * ratio**l
                * _euler_term(l, qv, F)
                * qv ** (n * F * l)
            )
    return lhs, rhs


def _reindex_stage(report):
    return next(s for s in report.stages if s.name == "double-series-reindexing")


def _loop_sides(r, n, F, qv, depth, merge):
    """The loop's two sides at every residue a < F."""
    return [_reindex_loop(r, n, a, F, qv, depth, merge) for a in range(1, F)]


@pytest.mark.parametrize("qv", [Fraction(6), Fraction(1)])
def test_reindex_sides_equal_the_term_loop(qv):
    # the stage compares coefficient tables that hold for every residue
    # and every q; the weighted term loop is the sum they stand for
    for lhs, rhs in _loop_sides(2, 2, 5, qv, 6, lfunc._merge_coefficient):
        assert lhs == rhs
    assert lfunc._reindex_exact_check(2, 6) is True


@pytest.mark.parametrize("error", [1, Fraction(1, 2)])
def test_reindex_stage_fails_on_a_wrong_merge_coefficient(monkeypatch, error):
    right = lfunc._merge_coefficient

    def off_at(row):
        return lambda r, k: right(r, k) + (error if k == row else 0)

    r, n, F, qv, depth = 2, 2, 5, Fraction(6), 6
    wrong = off_at(3)
    for lhs, rhs in _loop_sides(r, n, F, qv, depth, wrong):
        assert lhs != rhs
    monkeypatch.setattr(lfunc, "_merge_coefficient", wrong)
    assert lfunc._reindex_exact_check(r, depth) is False
    report = theorem5_verify(r, n, QParam(qv, F), SeriesBudget(target=4))
    assert _reindex_stage(report).passed is False
    # the first and the last row of the stage's depth-12 table
    for row in (1, 12):
        monkeypatch.setattr(lfunc, "_merge_coefficient", off_at(row))
        assert lfunc._reindex_exact_check(r, 12) is False, row


def test_reindex_stage_passes_with_the_merge_identity():
    report = theorem5_verify(2, 2, QParam(Fraction(6), 5), SeriesBudget(target=4))
    assert _reindex_stage(report).passed is True


# -- the left-hand side and block sums against their rational oracles -----


def _block_sum_exact(r, n, a, F, qv):
    """sum_{l<n} (-1)^(Fl+a) / [Fl+a]_q^r, exactly."""
    return sum(Fraction((-1) ** (F * l + a), 1) / q_int(F * l + a, qv) ** r for l in range(n))


LHS_POINTS = [
    (5, Fraction(1)),
    (5, Fraction(6)),
    (5, Fraction(26)),
    (5, Fraction(11, 6)),
    (7, Fraction(8)),
    (7, Fraction(15, 8)),
    (31, Fraction(1)),
    (31, Fraction(32)),
]


@pytest.mark.parametrize("p, qv", LHS_POINTS)
def test_residue_lhs_and_blocks_match_the_rational_oracles(p, qv):
    q, precision = QParam(qv, p), 12
    mod = p**precision
    for r in (1, 2, 3):
        for n in (2, 4):
            want = embed(lfunc.theorem5_lhs_exact(r, n, q), p, precision)
            assert _pair(lfunc.theorem5_lhs(r, n, q, precision)) == _pair(want), (r, n)
            powers, _ = lfunc._inverse_powers(q, r, n, precision)
            for a in range(1, p):
                block = sum(sign * powers[j] for sign, j in lfunc._block_terms(a, n, p)) % mod
                assert block == embed(_block_sum_exact(r, n, a, p, qv), p, precision).residue, (r, n, a)


@pytest.mark.parametrize("p, qv", [(5, Fraction(6)), (7, Fraction(15, 8))])
def test_verify_reports_the_oracle_lhs(p, qv):
    q = QParam(qv, p)
    report = theorem5_verify(2, 2, q, SeriesBudget(target=4))
    assert _pair(report.lhs) == _pair(embed(lfunc.theorem5_lhs_exact(2, 2, q), p, 10))


def _range_stage(report):
    return next(s for s in report.stages if s.name == "index-range-rearrangement")


def _drop_one(terms):
    return terms[1:]


def _shift_one(terms):
    # stays within 1..np, so the block still reads a table entry
    (sign, j), *rest = terms
    return [(sign, j + 5), *rest]


def _flip_one(terms):
    (sign, j), *rest = terms
    return [(-sign, j), *rest]


@pytest.mark.parametrize("mutate", [_drop_one, _shift_one, _flip_one])
def test_index_range_stage_fails_on_a_broken_block(monkeypatch, mutate):
    right = lfunc._block_terms
    q, budget = QParam(Fraction(6), 5), SeriesBudget(target=4)
    assert _range_stage(theorem5_verify(2, 2, q, budget)).passed is True

    def broken(a, n, F):
        terms = right(a, n, F)
        return mutate(terms) if a == 2 else terms

    monkeypatch.setattr(lfunc, "_block_terms", broken)
    stage = _range_stage(theorem5_verify(2, 2, q, budget))
    assert stage.passed is False
    assert stage.detail == "exact rational comparison"


def test_index_range_check_needs_both_the_index_map_and_the_residues():
    q, r, n, p, precision = QParam(Fraction(6), 5), 2, 2, 5, 10
    mod = p**precision
    powers, lhs_terms = lfunc._inverse_powers(q, r, n, precision)
    block_terms = [lfunc._block_terms(a, n, p) for a in range(1, p)]
    blocks = [sum(sign * powers[j] for sign, j in terms) % mod for terms in block_terms]
    lhs = 2 * sum(sign * powers[j] for sign, j in lhs_terms) % mod
    assert lfunc._index_range_check(lhs_terms, block_terms, lhs, blocks, mod) is True
    # a broken index map fails even where the residues summed are right
    for mutate in (_drop_one, _shift_one, _flip_one):
        broken = [mutate(block_terms[0]), *block_terms[1:]]
        assert lfunc._index_range_check(lhs_terms, broken, lhs, blocks, mod) is False, mutate
    # and a wrong residue fails under the right index map
    assert lfunc._index_range_check(lhs_terms, block_terms, lhs, [blocks[0] + 1, *blocks[1:]], mod) is False
