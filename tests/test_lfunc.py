"""p-adic l-function layer and the staged expansion verifier."""

from fractions import Fraction

import pytest

from qeuler import (
    H_pq,
    K_pq,
    K_pq_chi,
    OutOfDomain,
    PolyArg,
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
    tight = SeriesBudget(target=8, max_terms=5, window=4)
    with pytest.raises(TruncationNotConverged):
        H_pq(2, 1, 5, Q6, tight)


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
    with pytest.raises(OutOfDomain):
        SeriesBudget(target=4, max_terms=5, window=5)
    with pytest.raises(OutOfDomain):
        SeriesBudget(target=4, max_terms=10, window=2)
