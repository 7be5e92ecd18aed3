"""p-adic l-function layer and the staged expansion verifier."""

from fractions import Fraction

import pytest

from qeuler import (
    H_pq,
    K_pq,
    K_pq_chi,
    OutOfDomain,
    PadicApprox,
    PolyArg,
    PrecisionExhausted,
    QParam,
    SeriesBudget,
    T_pq,
    T_pq_chi,
    TeichChar,
    TruncationNotConverged,
    agreement,
    binom_int,
    embed,
    euler_number_q,
    euler_poly_q,
    gen_euler_teich,
    l_pq,
    padic_valuation,
    q_int,
    teichmuller,
    theorem5_lhs,
    theorem5_lhs_exact,
    theorem5_rhs,
    theorem5_rhs_weighted,
    theorem5_verify,
)
from qeuler import lfunc
from qeuler.cli import main
from qeuler.lfunc import _power_split_check, _Residues, _series

Q6 = QParam(Fraction(6), 5)
BUDGET = SeriesBudget(target=4)


def test_partial_function_at_zero():
    for a in range(1, 5):
        got = H_pq(0, a, 5, Q6, BUDGET)
        want = embed(Fraction((-1) ** a, 2), 5, got.precision)
        assert got.residue == want.residue


def test_partial_function_first_negative_order():
    # oracle: -[5]_6 E_{1,6^5}(1/5) / 2, exact rational then embedded
    exact = -q_int(5, 6) * euler_poly_q(1, PolyArg(1, 5, Fraction(6))) / 2
    got = H_pq(-1, 1, 5, Q6, BUDGET)
    want = embed(exact, 5, got.precision)  # w(1) = 1
    assert agreement(got, want)[1]


def test_partial_function_interpolates_partial_zeta():
    budget = SeriesBudget(target=6)
    for n in (1, 2, 3):
        for a in range(1, 5):
            lhs = H_pq(-n, a, 5, Q6, budget, 12)
            hq = Fraction((-1) ** a, 2) * q_int(5, 6) ** n * euler_poly_q(
                n, PolyArg(a, 5, Fraction(6))
            )
            rhs = teichmuller(a, 5, 12) ** (-n) * embed(hq, 5, 12)
            val, sat = agreement(lhs, rhs)
            assert sat and val >= 6


def test_partial_function_beyond_minimal_modulus():
    # F = 15, an odd proper multiple of p, is accepted by the same series
    q = Q6
    lhs = H_pq(-1, 2, 15, q, BUDGET, 8)
    hq = Fraction(1, 2) * q_int(15, 6) * euler_poly_q(1, PolyArg(2, 15, Fraction(6)))
    rhs = teichmuller(2, 5, 8) ** (-1) * embed(hq, 5, 8)
    assert agreement(lhs, rhs)[1]


def test_partial_function_guards():
    with pytest.raises(OutOfDomain):
        H_pq(0, 5, 5, Q6, BUDGET)  # a not strictly inside (0, F)
    with pytest.raises(OutOfDomain):
        H_pq(0, 5, 10, Q6, BUDGET)  # F even
    with pytest.raises(OutOfDomain):
        H_pq(0, 2, 6, Q6, BUDGET)  # F not a multiple... even too
    with pytest.raises(OutOfDomain):
        H_pq(0, 1, 5, QParam(Fraction(6)), BUDGET)  # missing prime context
    for F in (0, -5):  # no residue in (0, F], so no H call would see F
        with pytest.raises(OutOfDomain):
            l_pq(1, TeichChar(5, 0), F, Q6, BUDGET)


def test_l_value_interpolation_formula():
    # l(-n, w^n) == E_{n,q} - [p]_q^n E_{n,q^p}
    budget = SeriesBudget(target=6)
    for n in (1, 2, 3, 4):
        lhs = l_pq(-n, TeichChar(5, n), 5, Q6, budget, 12)
        exact = euler_number_q(n, Fraction(6)) - q_int(5, 6) ** n * euler_number_q(
            n, Fraction(6) ** 5
        )
        val, sat = agreement(lhs, embed(exact, 5, 12))
        assert sat and val >= 6


def test_l_value_against_generalized_euler_numbers():
    # l(-n, w^t) == E_{n, w^(t-n)} - [p]^n (w^(t-n))(p) E'_{n, w^(t-n)}
    budget = SeriesBudget(target=4)
    qp = QParam(Fraction(6) ** 5, 5)
    for n in (1, 2, 3):
        for t in range(4):
            lhs = l_pq(-n, TeichChar(5, t), 5, Q6, budget, 10)
            twisted = TeichChar(5, t - n)
            rhs = gen_euler_teich(n, twisted, Q6, 10)
            if twisted.is_trivial:
                rhs = rhs - q_int(5, 6) ** n * gen_euler_teich(n, twisted, qp, 10)
            assert agreement(lhs, rhs)[1], (n, t)


def test_gen_euler_teich_trivial_and_baseline():
    got = gen_euler_teich(3, TeichChar(5, 0), Q6, 8)
    want = embed(euler_number_q(3, Fraction(6)), 5, 8)
    assert got.residue == want.residue
    base = gen_euler_teich(0, TeichChar(5, 0), Q6, 8)
    assert base.residue == 1  # regression baseline


def test_unit_exponent_values_integral_and_constant_mod_p():
    chi = TeichChar(5, 0)
    samples = [0, 1, 2, 5, Fraction(1, 2), Fraction(3, 2)]
    values = [l_pq(s, chi, 5, Q6, BUDGET) for s in samples]
    for v in values:
        assert v.valuation_at_least(0)
    first = values[0].reduce(1)
    for v in values[1:]:
        assert agreement(first, v.reduce(1))[1]


def test_shift_by_p_congruence():
    chi = TeichChar(5, 0)
    for k in (1, 2, 3):
        va = l_pq(k, chi, 5, Q6, BUDGET)
        vb = l_pq(k + 5, chi, 5, Q6, BUDGET)
        assert agreement(va.reduce(1), vb.reduce(1))[1]


def _t_term(n, s, a, F, qv, k):
    ratio = q_int(F, qv) / q_int(a, qv)
    return (
        binom_int(-s, k)
        * ratio**k
        * qv ** (a * k)
        * ((-1) ** n * qv ** (n * F * k) - 1)
        * euler_number_q(k, qv**F)
    )


def test_t_series_term_valuations():
    # k-th term valuation >= k * v([a/F]^{-1}) + v(q^{nFk} - 1) >= k + 2
    for a in (1, 3):
        for k in range(1, 7):
            v = padic_valuation(_t_term(2, 1, a, 5, Fraction(6), k), 5)
            assert v >= k + 2


def test_k_series_inner_term_valuations():
    # j-th inner term valuation >= 2j for q = 6, p = 5
    qv = Fraction(6)
    nf = q_int(10, qv)
    for l in range(1, 8):
        for j in range(1, l + 1):
            v = padic_valuation(binom_int(l, j) * nf**j * (qv - 1) ** j, 5)
            assert v >= 2 * j


def test_t_and_k_vanish_towards_q_one():
    budget = SeriesBudget(target=8)
    t_vals, k_vals = [], []
    for e in (1, 2, 3):
        q = QParam(1 + Fraction(5) ** e, 5)
        tv = T_pq_chi(2, 1, TeichChar(5, 3), 5, q, budget, 14)
        kv = K_pq_chi(2, 1, TeichChar(5, 3), 5, q, budget, 14)
        t_vals.append(tv.valuation if tv.valuation is not None else tv.precision)
        k_vals.append(kv.valuation if kv.valuation is not None else kv.precision)
    assert t_vals[0] < t_vals[1] < t_vals[2]
    assert k_vals[0] < k_vals[1] < k_vals[2]


def test_t_and_k_are_zero_at_q_one():
    q1 = QParam(Fraction(1), 5)
    assert T_pq(2, 1, 1, 5, q1, BUDGET).residue == 0
    assert K_pq(2, 1, 1, 5, q1, BUDGET).residue == 0


def test_correction_series_need_even_order():
    with pytest.raises(OutOfDomain):
        T_pq(3, 1, 1, 5, Q6, BUDGET)
    with pytest.raises(OutOfDomain):
        K_pq(1, 1, 1, 5, Q6, BUDGET)
    # n = 0 is H's series, not a K value, in the character sums as well
    for q in (Q6, QParam(1, 5)):
        for n in (0, 3, -2):
            for fn in (K_pq_chi, T_pq_chi):
                with pytest.raises(OutOfDomain):
                    fn(n, 1, TeichChar(5, 2), 5, q, BUDGET)


def test_character_sum_checks_precision_before_modulus():
    for fn in (K_pq_chi, T_pq_chi):
        with pytest.raises(PrecisionExhausted):
            fn(2, 1, TeichChar(5, 2), 10, Q6, BUDGET, 0)


@pytest.mark.parametrize("s", [[1], {1: 2}, 1.0, PadicApprox(7, 8, 6)])
def test_unsupported_exponent_rejected(s):
    # K and T vanish at q = 1, but their exponent is still checked, and an
    # unhashable one is rejected before it reaches the series cache
    chi = TeichChar(5, 2)
    for q in (Q6, QParam(1, 5)):
        for compute in (
            lambda: H_pq(s, 1, 5, q, BUDGET),
            lambda: K_pq(2, s, 1, 5, q, BUDGET),
            lambda: T_pq(2, s, 1, 5, q, BUDGET),
            lambda: l_pq(s, chi, 5, q, BUDGET),
            lambda: K_pq_chi(2, s, chi, 5, q, BUDGET),
            lambda: T_pq_chi(2, s, chi, 5, q, BUDGET),
        ):
            with pytest.raises(OutOfDomain):
                compute()


def test_alternating_sum_lhs_regression():
    # direct-summation oracle value, frozen
    got = theorem5_lhs_exact(1, 2, Q6)
    assert got == Fraction(-2059846868272977300, 1175113557854070709)
    classical = theorem5_lhs_exact(2, 2, QParam(Fraction(1), 5))
    assert classical == Fraction(-200155, 127008)


def test_alternating_sum_lhs_rearrangement():
    # exact finite reindexing over residue classes
    for (r, n) in ((1, 2), (2, 4)):
        direct = theorem5_lhs_exact(r, n, Q6)
        regrouped = 2 * sum(
            Fraction((-1) ** (a + 5 * l), 1) / q_int(a + 5 * l, 6) ** r
            for a in range(1, 5)
            for l in range(n)
        )
        assert direct == regrouped


def test_expansion_outer_term_decay():
    # v_p([pn]_q^k) >= k (1 + v_p(n)) drives the tail
    for n in (2, 4):
        base = padic_valuation(q_int(5 * n, 6), 5)
        assert base == 1 + padic_valuation(n, 5)
        for k in (1, 2, 3):
            assert padic_valuation(q_int(5 * n, 6) ** k, 5) == k * base


def test_weighted_assembly_matches_exactly():
    # keeping the per-residue geometric weight makes the expansion exact
    for (r, n) in ((1, 2), (2, 2), (3, 4)):
        lhs = theorem5_lhs(r, n, Q6, 10)
        rhs = theorem5_rhs_weighted(r, n, Q6, BUDGET)
        val, sat = agreement(lhs, rhs)
        assert sat and val >= 4, (r, n, val)


def test_plain_assembly_matches_at_q_one():
    q1 = QParam(Fraction(1), 5)
    lhs = theorem5_lhs(2, 2, q1, 10)
    rhs = theorem5_rhs(2, 2, q1, BUDGET)
    val, sat = agreement(lhs, rhs)
    assert sat and val >= 4
    # at q = 1 the weights q^(ak) are 1 and T vanishes: the two assemblies coincide
    weighted = theorem5_rhs_weighted(2, 2, q1, BUDGET)
    assert (weighted.residue, weighted.precision) == (rhs.residue, rhs.precision)


def test_verification_report_structure_and_audit():
    report = theorem5_verify(2, 2, Q6, BUDGET)
    names = [s.name for s in report.stages]
    assert names == [
        "alternating-block-series",
        "correction-tail-regrouping",
        "double-series-reindexing",
        "geometric-power-splitting",
        "index-range-rearrangement",
        "character-sum-assembly",
        "residue-weighted-assembly",
    ]
    # oracle stages verify at full target precision
    for s in report.stages[:5]:
        assert s.passed, s.name
    # agreement valuation never exceeds the compared precisions
    assert report.agreement_valuation <= min(report.lhs.precision, report.rhs.precision)
    assert report.truncation_indices
    _assert_headline_is_the_assembly_stage(report)
    # audit outcome: either the printed identity holds at target precision
    # or the report localizes the first failing stage with digits
    if not report.identity_holds:
        assert report.first_failing_stage == "character-sum-assembly"
        stage = report.stages[5]
        assert stage.lhs_digits and stage.rhs_digits
        assert report.acceptable
        assert "localized" in report.localization_note()
        weighted = report.stages[6]
        assert weighted.diagnostic and weighted.passed


def test_verification_report_classical_limit():
    report = theorem5_verify(2, 2, QParam(Fraction(1), 5), BUDGET)
    assert report.identity_holds
    assert all(s.passed for s in report.stages)
    _assert_headline_is_the_assembly_stage(report)


def _power_split_fraction(n, F, qv, l_max, binom=binom_int):
    """q^(nFl) = 1 + sum_{j<=l} binom(l,j) [nF]_q^j (q-1)^j in Fractions."""
    nf = q_int(n * F, qv)
    return all(
        qv ** (n * F * l) == 1 + sum(binom(l, j) * nf**j * (qv - 1) ** j for j in range(1, l + 1))
        for l in range(1, l_max + 1)
    )


def _binom_off_at(row):
    return lambda n, k: binom_int(n, k) + ((n, k) == row)


POWER_SPLIT_QS = (Fraction(1), Fraction(6), Fraction(26), Fraction(31, 6), Fraction(8))


@pytest.mark.parametrize("qv", POWER_SPLIT_QS, ids=str)
def test_power_split_ints_match_the_fraction_identity(qv, monkeypatch):
    for n, F in ((2, 3), (2, 5), (4, 7)):
        assert _power_split_check(n, F, qv, 10) is _power_split_fraction(n, F, qv, 10) is True
    # one wrong binomial fails the check at every q; the Fraction identity
    # misses it at q = 1, where its term carries the factor (q - 1)^1 = 0
    monkeypatch.setattr(lfunc, "binom_int", _binom_off_at((3, 1)))
    assert _power_split_check(2, 5, qv, 10) is False
    assert _power_split_fraction(2, 5, qv, 10, _binom_off_at((3, 1))) is (qv == 1)


@pytest.mark.parametrize("row", [(1, 0), (3, 1), (10, 10)])
def test_power_split_stage_fails_on_a_wrong_binomial(monkeypatch, row):
    monkeypatch.setattr(lfunc, "binom_int", _binom_off_at(row))
    report = theorem5_verify(2, 2, Q6, BUDGET)
    failed = [s.name for s in report.stages[:5] if not s.passed]
    assert failed == ["geometric-power-splitting"]


def _exact_stages(report):
    names = ("double-series-reindexing", "geometric-power-splitting")
    return {s.name: s.passed for s in report.stages if s.name in names}


def test_the_once_per_process_stages_still_see_a_mutant(monkeypatch):
    # the two point-independent checks are memoized on the function they
    # read, so one replaced after the memo is filled is checked afresh
    both = {"double-series-reindexing": True, "geometric-power-splitting": True}
    assert _exact_stages(theorem5_verify(2, 2, QParam(6, 5), SeriesBudget(4))) == both
    right = lfunc._merge_coefficient
    monkeypatch.setattr(lfunc, "_merge_coefficient", lambda r, k: right(r, k) + (k == 3))
    assert _exact_stages(theorem5_verify(2, 2, QParam(6, 5), SeriesBudget(4))) == {
        **both, "double-series-reindexing": False}
    monkeypatch.undo()
    monkeypatch.setattr(lfunc, "binom_int", _binom_off_at((3, 1)))
    assert _exact_stages(theorem5_verify(2, 2, QParam(6, 5), SeriesBudget(4))) == {
        **both, "geometric-power-splitting": False}
    monkeypatch.undo()
    assert _exact_stages(theorem5_verify(2, 2, QParam(6, 5), SeriesBudget(4))) == both


def test_the_default_grid_reads_few_binomials(monkeypatch, capsys):
    # the reindexing tables are rows and the Pascal rows are checked once
    # per process: 83 calls, where re-deriving both at each of the grid's
    # six points took 1,344
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return binom_int(n, k)

    monkeypatch.setattr(lfunc, "binom_int", counting)
    lfunc._residues.cache_clear()
    lfunc._series.cache_clear()
    assert main(["theorem5", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) <= 100


def _assert_headline_is_the_assembly_stage(report):
    # the report's agreement is the character-sum-assembly stage's record
    stage = next(s for s in report.stages if s.name == "character-sum-assembly")
    assert report.agreement_valuation == stage.agreement_valuation
    assert report.agreement_saturated == stage.saturated
    assert report.identity_holds == stage.passed
    assert stage.passed == (stage.saturated or stage.agreement_valuation >= report.target)
    assert stage.detail == ""


def test_report_serialization_round_trip():
    import json

    report = theorem5_verify(1, 2, Q6, BUDGET)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    again = json.dumps(report.to_dict(), sort_keys=True)
    assert blob == again
    parsed = json.loads(blob)
    assert parsed["prime"] == 5 and parsed["q"] == "6/1"
    assert len(parsed["stages"]) == 7


def test_truncation_not_converged_is_raised():
    tight = SeriesBudget(target=8, max_terms=6)
    with pytest.raises(TruncationNotConverged):
        H_pq(2, 1, 5, Q6, tight)


def test_series_cache_shares_one_entry_for_equal_exponents():
    # 2 == Fraction(2) and 1 == Fraction(1) == True, each hashing alike;
    # every exponent is summed through its integer representative, so equal
    # exponents share one row entry in any order, with one value
    q, budget = QParam(1, 5), SeriesBudget(3)
    for order in ((2, Fraction(2)), (Fraction(2), 2)):
        _series.cache_clear()
        for s in order:
            got = H_pq(s, 1, 5, q, budget, 3)
            assert (got.residue, got.precision) == (122, 3), s
        assert _series.cache_info().currsize == 1, order
    for order in ((1, True, Fraction(1)), (True, Fraction(1), 1)):
        _series.cache_clear()
        assert {H_pq(s, 1, 5, q, budget, 3).render() for s in order} == {"...2 3 3 mod 5^3"}, order
        assert _series.cache_info().currsize == 1, order


def test_zp_exponent_at_q_one_certifies_without_a_precision_margin():
    # the classical Euler numbers E_j vanish for even j >= 2; those terms
    # are zero to the working precision, so they count as negligible and
    # the series certifies every digit of the target
    q1, budget = QParam(1, 5), SeriesBudget(3)
    got = l_pq(Fraction(1, 2), TeichChar(5, 1), 5, q1, budget, 3)
    assert got.render() == "...2 3 3 mod 5^3"
    got = H_pq(Fraction(3, 2), 1, 5, q1, budget, 3)
    assert got.render() == "...2 1 4 mod 5^3"


def test_gen_euler_teich_checks_precision_before_order():
    # one check order for every character, the trivial one included
    for t in range(4):
        with pytest.raises(PrecisionExhausted):
            gen_euler_teich(-1, TeichChar(5, t), Q6, 0)


def test_explicit_precision_below_one_rejected():
    for precision in (0, -1):
        with pytest.raises(PrecisionExhausted):
            H_pq(1, 1, 5, Q6, BUDGET, precision)
        with pytest.raises(PrecisionExhausted):
            l_pq(1, TeichChar(5, 2), 5, Q6, BUDGET, precision)
        with pytest.raises(PrecisionExhausted):
            theorem5_verify(2, 2, Q6, BUDGET, precision)
        # K and T vanish at q = 1, but their working precision is still checked
        for fn in (K_pq, T_pq):
            with pytest.raises(PrecisionExhausted):
                fn(2, 1, 1, 5, QParam(1, 5), BUDGET, precision)


# every public entry point that takes a working precision, at q = 6 and 1
PRECISION_ENTRY_POINTS = {
    "H_pq": lambda q, N: H_pq(1, 1, 5, q, BUDGET, N),
    "K_pq": lambda q, N: K_pq(2, 1, 1, 5, q, BUDGET, N),
    "T_pq": lambda q, N: T_pq(2, 1, 1, 5, q, BUDGET, N),
    "l_pq": lambda q, N: l_pq(1, TeichChar(5, 2), 5, q, BUDGET, N),
    "K_pq_chi": lambda q, N: K_pq_chi(2, 1, TeichChar(5, 2), 5, q, BUDGET, N),
    "T_pq_chi": lambda q, N: T_pq_chi(2, 1, TeichChar(5, 2), 5, q, BUDGET, N),
    "gen_euler_teich": lambda q, N: gen_euler_teich(2, TeichChar(5, 2), q, N),
    "gen_euler_teich trivial": lambda q, N: gen_euler_teich(2, TeichChar(5, 0), q, N),
    "theorem5_lhs": lambda q, N: theorem5_lhs(1, 2, q, N),
    "theorem5_rhs": lambda q, N: theorem5_rhs(1, 2, q, BUDGET, N),
    "theorem5_rhs_weighted": lambda q, N: theorem5_rhs_weighted(1, 2, q, BUDGET, N),
    "theorem5_verify": lambda q, N: theorem5_verify(1, 2, q, BUDGET, N),
    "embed": lambda q, N: embed(q.value, 5, N),
    "teichmuller": lambda q, N: teichmuller(2, 5, N),
    "PadicApprox": lambda q, N: PadicApprox(5, 2, N),
}


@pytest.mark.parametrize("name", PRECISION_ENTRY_POINTS)
def test_non_int_precision_rejected(name):
    # 4.0 and True compare like ints but would reach pow() or a rendering
    # as a float or a bool ("mod 5^True")
    for q in (Q6, QParam(1, 5)):
        for precision in (2.5, 4.0, True, Fraction(4)):
            with pytest.raises(OutOfDomain):
                PRECISION_ENTRY_POINTS[name](q, precision)
        PRECISION_ENTRY_POINTS[name](q, 6)


# every integer argument of a public lfunc entry point: (its valid value,
# the call with that argument set to x), at q = 6 and 1
INT_ARGUMENTS = {
    "H_pq a": (1, lambda q, x: H_pq(2, x, 5, q, BUDGET)),
    "H_pq F": (5, lambda q, x: H_pq(2, 1, x, q, BUDGET)),
    "K_pq n": (2, lambda q, x: K_pq(x, 2, 1, 5, q, BUDGET)),
    "K_pq a": (1, lambda q, x: K_pq(2, 2, x, 5, q, BUDGET)),
    "K_pq F": (5, lambda q, x: K_pq(2, 2, 1, x, q, BUDGET)),
    "T_pq n": (2, lambda q, x: T_pq(x, 2, 1, 5, q, BUDGET)),
    "T_pq a": (1, lambda q, x: T_pq(2, 2, x, 5, q, BUDGET)),
    "T_pq F": (5, lambda q, x: T_pq(2, 2, 1, x, q, BUDGET)),
    "l_pq F": (15, lambda q, x: l_pq(2, TeichChar(5, 2), x, q, BUDGET)),
    "K_pq_chi n": (2, lambda q, x: K_pq_chi(x, 2, TeichChar(5, 2), 5, q, BUDGET)),
    "K_pq_chi F": (5, lambda q, x: K_pq_chi(2, 2, TeichChar(5, 2), x, q, BUDGET)),
    "T_pq_chi n": (2, lambda q, x: T_pq_chi(x, 2, TeichChar(5, 2), 5, q, BUDGET)),
    "T_pq_chi F": (5, lambda q, x: T_pq_chi(2, 2, TeichChar(5, 2), x, q, BUDGET)),
    "gen_euler_teich n": (1, lambda q, x: gen_euler_teich(x, TeichChar(5, 1), q, 4)),
    "gen_euler_teich trivial n": (1, lambda q, x: gen_euler_teich(x, TeichChar(5, 0), q, 4)),
    "theorem5_lhs r": (1, lambda q, x: theorem5_lhs(x, 2, q, 4)),
    "theorem5_lhs n": (2, lambda q, x: theorem5_lhs(2, x, q, 4)),
    "theorem5_lhs_exact r": (1, lambda q, x: theorem5_lhs_exact(x, 2, q)),
    "theorem5_lhs_exact n": (2, lambda q, x: theorem5_lhs_exact(2, x, q)),
    "theorem5_rhs r": (1, lambda q, x: theorem5_rhs(x, 2, q, BUDGET)),
    "theorem5_rhs n": (2, lambda q, x: theorem5_rhs(2, x, q, BUDGET)),
    "theorem5_rhs_weighted r": (1, lambda q, x: theorem5_rhs_weighted(x, 2, q, BUDGET)),
    "theorem5_rhs_weighted n": (2, lambda q, x: theorem5_rhs_weighted(2, x, q, BUDGET)),
    "theorem5_verify r": (1, lambda q, x: theorem5_verify(x, 2, q, BUDGET)),
    "theorem5_verify n": (2, lambda q, x: theorem5_verify(2, x, q, BUDGET)),
}


# every argument of a public lfunc entry point that must be a QParam,
# SeriesBudget or TeichChar: (its valid value, the call with it set to x);
# the budget calls pass a precision, so no default reads the budget first
TYPED_ARGUMENTS = {
    "H_pq q": (Q6, lambda x: H_pq(2, 1, 5, x, BUDGET)),
    "H_pq budget": (BUDGET, lambda x: H_pq(2, 1, 5, Q6, x, 8)),
    "K_pq q": (Q6, lambda x: K_pq(2, 2, 1, 5, x, BUDGET)),
    "K_pq budget": (BUDGET, lambda x: K_pq(2, 2, 1, 5, Q6, x, 8)),
    "K_pq budget at q = 1": (BUDGET, lambda x: K_pq(2, 2, 1, 5, QParam(1, 5), x, 8)),
    "T_pq q": (Q6, lambda x: T_pq(2, 2, 1, 5, x, BUDGET)),
    "T_pq budget": (BUDGET, lambda x: T_pq(2, 2, 1, 5, Q6, x, 8)),
    "l_pq q": (Q6, lambda x: l_pq(2, TeichChar(5, 2), 5, x, BUDGET)),
    "l_pq chi": (TeichChar(5, 2), lambda x: l_pq(2, x, 5, Q6, BUDGET)),
    "l_pq budget": (BUDGET, lambda x: l_pq(2, TeichChar(5, 2), 5, Q6, x, 8)),
    "K_pq_chi q": (Q6, lambda x: K_pq_chi(2, 2, TeichChar(5, 2), 5, x, BUDGET)),
    "K_pq_chi chi": (TeichChar(5, 2), lambda x: K_pq_chi(2, 2, x, 5, Q6, BUDGET)),
    "K_pq_chi budget": (BUDGET, lambda x: K_pq_chi(2, 2, TeichChar(5, 2), 5, Q6, x, 8)),
    "T_pq_chi q": (Q6, lambda x: T_pq_chi(2, 2, TeichChar(5, 2), 5, x, BUDGET)),
    "T_pq_chi chi": (TeichChar(5, 2), lambda x: T_pq_chi(2, 2, x, 5, Q6, BUDGET)),
    "T_pq_chi budget": (BUDGET, lambda x: T_pq_chi(2, 2, TeichChar(5, 2), 5, Q6, x, 8)),
    "gen_euler_teich q": (Q6, lambda x: gen_euler_teich(2, TeichChar(5, 2), x, 4)),
    "gen_euler_teich chi": (TeichChar(5, 2), lambda x: gen_euler_teich(2, x, Q6, 4)),
    "theorem5_lhs_exact q": (Q6, lambda x: theorem5_lhs_exact(2, 2, x)),
    "theorem5_lhs q": (Q6, lambda x: theorem5_lhs(2, 2, x, 4)),
    "theorem5_rhs q": (Q6, lambda x: theorem5_rhs(2, 2, x, BUDGET)),
    "theorem5_rhs budget": (BUDGET, lambda x: theorem5_rhs(2, 2, Q6, x, 8)),
    "theorem5_rhs_weighted q": (Q6, lambda x: theorem5_rhs_weighted(2, 2, x, BUDGET)),
    "theorem5_rhs_weighted budget": (BUDGET, lambda x: theorem5_rhs_weighted(2, 2, Q6, x, 8)),
    "theorem5_verify q": (Q6, lambda x: theorem5_verify(2, 2, x, BUDGET)),
    "theorem5_verify budget": (BUDGET, lambda x: theorem5_verify(2, 2, Q6, x, 8)),
}


@pytest.mark.parametrize("name", TYPED_ARGUMENTS)
def test_an_argument_of_the_wrong_type_is_out_of_domain(name):
    # each raised a bare AttributeError reading .prime, .target or .exponent
    valid, call = TYPED_ARGUMENTS[name]
    call(valid)
    for x in (None, 6, Fraction(6), "6", Q6, BUDGET, TeichChar(5, 2)):
        if type(x) is not type(valid):
            with pytest.raises(OutOfDomain):
                call(x)


def test_non_int_integer_arguments_rejected():
    # 2.0 and True compare like ints: they passed the range checks, then
    # raised a bare TypeError from range() or pow(), reported "r": true, or
    # read a row cached under the equal int; 1.5 gave theorem5_lhs_exact a
    # float sum.  The valid value runs first, so its cache entries exist.
    for q in (Q6, QParam(1, 5)):
        for name, (valid, call) in INT_ARGUMENTS.items():
            call(q, valid)
            for x in (float(valid), valid + 0.5, True, Fraction(valid)):
                with pytest.raises(OutOfDomain):
                    call(q, x)


def test_zp_exponents_below_the_target_do_not_converge():
    # a Z_p exponent is summed as an integer representative to the least of
    # the working precision and its own, so like an int exponent it cannot
    # certify the target below either; K at q = 1 is still (0, target)
    budget = SeriesBudget(target=4)
    for q in (Q6, QParam(1, 5)):
        for s, precision in (
            (Fraction(1, 2), 3),
            (PadicApprox(5, 6, 6), 3),
            (PadicApprox(5, 6, 3), None),
            (PadicApprox(5, 6, 3), 10),
        ):
            calls = [
                lambda: H_pq(s, 1, 5, q, budget, precision),
                lambda: l_pq(s, TeichChar(5, 1), 5, q, budget, precision),
            ]
            if not q.is_one:
                calls.append(lambda: K_pq_chi(2, s, TeichChar(5, 1), 5, q, budget, precision))
            for call in calls:
                with pytest.raises(TruncationNotConverged):
                    call()
            if q.is_one:
                for fn in (K_pq, T_pq):
                    got = fn(2, s, 1, 5, q, budget, precision)
                    assert (got.residue, got.precision) == (0, 4), (s, precision)
                got = K_pq_chi(2, s, TeichChar(5, 1), 5, q, budget, precision)
                assert (got.residue, got.precision) == (0, 3 if precision == 3 else 4), (s, precision)
    # at or above the target the same exponents certify every digit
    assert H_pq(PadicApprox(5, 6, 4), 1, 5, Q6, budget, 4).precision == 4
    assert H_pq(Fraction(1, 2), 1, 5, Q6, budget, 4).precision == 4


def test_below_the_target_fails_before_any_term(monkeypatch):
    # no term of a series below the target can be negligible, so it fails
    # before reading a base row, not after max_terms of them
    def no_row(*args):
        raise AssertionError("a base row was read")

    monkeypatch.setattr(_Residues, "base", no_row)
    budget = SeriesBudget(target=5, max_terms=40)
    for s in (2, -3, Fraction(1, 2), PadicApprox(5, 6, 3)):
        with pytest.raises(TruncationNotConverged, match="precision 3 is below the target 5"):
            H_pq(s, 2, 5, Q6, budget, 3)
        with pytest.raises(TruncationNotConverged, match="^series 'K\\(a=2\\)' not certified"):
            K_pq(2, s, 2, 5, Q6, budget, 3)


def test_engine_precision_below_target_rejected():
    # every series of the expansion engine has an integer exponent, whose
    # terms carry exactly the working precision, so none certifies below
    # the target: that is invalid input, not a failure to converge
    for precision in (2, 3):
        for fn in (theorem5_verify, theorem5_rhs, theorem5_rhs_weighted):
            with pytest.raises(OutOfDomain):
                fn(1, 2, Q6, BUDGET, precision)
    assert theorem5_rhs(1, 2, Q6, BUDGET, 4).precision == 4


def test_doubling_max_terms_is_invisible():
    base = SeriesBudget(target=4, max_terms=60)
    double = SeriesBudget(target=4, max_terms=120)
    for s in (1, 3, Fraction(1, 2)):
        a = l_pq(s, TeichChar(5, 2), 5, Q6, base)
        b = l_pq(s, TeichChar(5, 2), 5, Q6, double)
        assert agreement(a, b)[1]
    ra = theorem5_rhs(2, 2, Q6, base)
    rb = theorem5_rhs(2, 2, Q6, double)
    assert agreement(ra, rb)[1]


def test_budget_validation():
    with pytest.raises(OutOfDomain):
        SeriesBudget(target=0)
    for fields in ({"target": 3.0}, {"target": 4, "max_terms": 60.0}, {"target": True}):
        with pytest.raises(OutOfDomain):
            SeriesBudget(**fields)
    with pytest.raises(OutOfDomain):
        SeriesBudget(target=4, max_terms=5)
    with pytest.raises(TypeError):  # the stability window is fixed
        SeriesBudget(4, 60, 5)
