"""The residue engine of the expansion layer against its exact oracles.

Every series in ``lfunc`` runs on integer residues mod p^N.  These tests
keep the exact-rational formulation as the reference: the closed-form
q-Euler numbers for the recurrence table, the Fraction-scalar series
loop for H, T, K and l, and the term-by-term double loop for the exact
reindexing stage.
"""

import math
from fractions import Fraction

import pytest

from qeuler import (
    QParam,
    SeriesBudget,
    TeichChar,
    TruncationNotConverged,
    binom_int,
    embed,
    euler_number_classical,
    euler_number_q,
    padic_valuation,
    q_int,
    theorem5_verify,
)
from qeuler import lfunc
from qeuler.lfunc import (
    H_pq,
    K_pq,
    T_pq,
    _angle_power,
    _as_exponent,
    _Residues,
    _series_binom,
    l_pq,
)

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
    s = _as_exponent(s, p, precision)
    gain = int(padic_valuation(q_int(F, q.value) / q_int(a, q.value), p))
    total, quiet, slack, done = embed(0, p, precision), 0, 0, False
    for j in range(0 if kind == "H" else 1, budget.max_terms + 1):
        scalar = _scalar(kind, n, j, a, F, q.value)
        b = _series_binom(s, j)
        term = embed(b * scalar, p, precision) if isinstance(b, int) else b * scalar
        total = total + term
        v = term.valuation
        if v is not None:
            slack = max(slack, j * gain - v)
        quiet = quiet + 1 if (term.precision if v is None else v) >= budget.target else 0
        done = quiet >= budget.window and (j + 1) * gain - slack >= budget.target
        if done:
            break
    if not done:
        raise TruncationNotConverged(kind)
    sign = Fraction((-1) ** a, 1 if kind == "T" else 2)
    val = total * _angle_power(a, s, q, precision) * sign
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


# (target, working precision): the default margin, and none at all, where
# a Z_p exponent's p-adic binomial loses digits to v_p(j!) that an exactly
# vanishing classical Euler number does not give back
BUDGETS = [(4, 10), (3, 3)]


@pytest.mark.parametrize("target, precision", BUDGETS)
@pytest.mark.parametrize("p, qv", SERIES_POINTS)
def test_series_match_fraction_scalar_formula(p, qv, target, precision):
    # the oracle keeps T's own (-1)^n weight and (-1)^a scale, so this
    # also checks T = 2K at both block counts
    q = QParam(qv, p)
    budget = SeriesBudget(target=target)
    for n in (2, 4):
        for s in EXPONENTS:
            for a in (1, 2, p - 1):
                for kind, fn in (("H", H_pq), ("T", T_pq), ("K", K_pq)):
                    args = (s, a, p, q, budget, precision)
                    if kind != "H":
                        args = (n, *args)
                    want = _outcome(lambda: _fraction_series(kind, n, s, a, p, q, budget, precision))
                    assert _outcome(lambda: fn(*args)) == want, (kind, n, s, a)


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


def _scale(r, n, a, F, qv, depth, merge):
    """The rational value of one unit of the integer sides at residue a:
    the sign and 1/(2 [a]_q^r) over the cleared common denominator."""
    y, h = qv ** (n * F), q_int(n, qv**F)
    g = qv**a * q_int(F, qv) / q_int(a, qv)
    common = math.lcm(*(_euler_term(l, qv, F).denominator for l in range(depth + 1)))
    mu = math.lcm(*(merge(r, k).denominator for k in range(1, depth + 1)))
    den = 2 * (g.denominator * y.denominator * h.denominator) ** depth * common * mu
    return Fraction((-1) ** (a + n), den) / q_int(a, qv) ** r


def _sides_against_the_loop(r, n, F, qv, depth, merge):
    """Per residue: both sides as rationals, next to the loop's values."""
    sides = lfunc._reindex_sides(r, n, F, qv, depth, range(1, F))
    for a, (lhs, rhs) in zip(range(1, F), sides):
        scale = _scale(r, n, a, F, qv, depth, merge)
        yield (lhs * scale, rhs * scale), _reindex_loop(r, n, a, F, qv, depth, merge)


@pytest.mark.parametrize("qv", [Fraction(6), Fraction(1)])
def test_reindex_sides_equal_the_term_loop(qv):
    merge = lfunc._merge_coefficient
    for sides, want in _sides_against_the_loop(2, 2, 5, qv, 6, merge):
        assert sides == want
        assert want[0] == want[1]


@pytest.mark.parametrize("error", [1, Fraction(1, 2)])
def test_reindex_stage_fails_on_a_wrong_merge_coefficient(monkeypatch, error):
    right = lfunc._merge_coefficient

    def off_by_one(r, k):
        return right(r, k) + (error if k == 3 else 0)

    monkeypatch.setattr(lfunc, "_merge_coefficient", off_by_one)
    r, n, F, qv, depth = 2, 2, 5, Fraction(6), 6
    for sides, want in _sides_against_the_loop(r, n, F, qv, depth, off_by_one):
        assert sides == want
        assert want[0] != want[1]
    report = theorem5_verify(r, n, QParam(qv, F), SeriesBudget(target=4))
    assert _reindex_stage(report).passed is False


def test_reindex_stage_passes_with_the_merge_identity():
    report = theorem5_verify(2, 2, QParam(Fraction(6), 5), SeriesBudget(target=4))
    assert _reindex_stage(report).passed is True
