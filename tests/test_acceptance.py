"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances and runtime targets are pinned here; nothing is deferred to
later calibration.  The expansion-engine criteria are two-tiered: the
oracle stages must verify at the target valuation, and the assembled
identity must either reach it too or be localized, with digits, to a
named failing stage (a documented discrepancy is an acceptable audit
outcome; a silent one is a failure).
"""

import time
from fractions import Fraction

from qeuler import QParam, SeriesBudget, theorem5_verify
from qeuler.suites import (
    alternating_sum_checks,
    binomial_identity_checks,
    congruence_checks,
    convolution_checks,
    distribution_checks,
    fermionic_checks,
    interpolation_checks,
    l_value_checks,
    truncation_soundness_checks,
    zeta_interpolation_checks,
)

GRID_BUDGET = SeriesBudget(target=4)


def _report(number, name, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    extra = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s){extra}")


def _run_checks(number, name, checks, time_limit=None):
    start = time.perf_counter()
    results = checks()
    elapsed = time.perf_counter() - start
    passed = all(c.passed for c in results)
    timely = time_limit is None or elapsed < time_limit
    failures = [c.name for c in results if not c.passed]
    detail = f"{len(results)} checks"
    if failures:
        detail += f", failing: {failures}"
    if not timely:
        detail += f", over time limit {time_limit}s"
    _report(number, name, passed and timely, elapsed, detail)
    assert passed, failures
    if time_limit is not None:
        assert elapsed < time_limit, f"{elapsed:.2f}s >= {time_limit}s"


def test_criterion_01_exact_identity_suite():
    _run_checks(
        1,
        "alternating-sum identities and convolution (exact)",
        lambda: alternating_sum_checks() + convolution_checks(),
        time_limit=10.0,
    )


def test_criterion_02_binomial_identities():
    _run_checks(
        2,
        "binomial-coefficient identities (exhaustive, r,j,k <= 10)",
        binomial_identity_checks,
        time_limit=1.0,
    )


def test_criterion_03_distribution_relation():
    _run_checks(3, "distribution relation (exact)", distribution_checks)


def test_criterion_04_fermionic_oracle():
    _run_checks(
        4,
        "fermionic Riemann-sum oracle, gap valuation >= level - 1",
        fermionic_checks,
    )


def test_criterion_05_zeta_interpolation():
    _run_checks(
        5,
        "regularized zeta at negative integers within 1e-8",
        zeta_interpolation_checks,
        time_limit=5.0,
    )


def test_criterion_06_l_value_interpolation():
    _run_checks(6, "complex l-values match generalized Euler numbers (1e-8)", l_value_checks)


def test_criterion_07_padic_interpolation():
    _run_checks(
        7,
        "p-adic interpolation, agreement >= M-1 at M=6, N=12",
        interpolation_checks,
        time_limit=30.0,
    )


def test_criterion_08_unit_exponent_congruences():
    _run_checks(8, "unit-exponent l-value congruences", congruence_checks)


def test_criterion_09_truncation_soundness():
    _run_checks(
        9,
        "doubling max_terms changes nothing modulo reported precision",
        truncation_soundness_checks,
    )


def _two_tier(number, name, q, grid, time_limit):
    start = time.perf_counter()
    outcomes = []
    ok = True
    for r, n in grid:
        report = theorem5_verify(r, n, q, GRID_BUDGET)
        oracle_stages = {
            s.name: s for s in report.stages
        }
        tier_a = (
            oracle_stages["alternating-block-series"].passed
            and oracle_stages["double-series-reindexing"].passed
        )
        if report.identity_holds:
            outcomes.append(f"(r={r},n={n}): holds >= {report.target}")
            tier_b = True
        else:
            tier_b = report.acceptable and report.first_failing_stage is not None
            outcomes.append(
                f"(r={r},n={n}): v={report.agreement_valuation}, "
                f"localized to {report.first_failing_stage}"
            )
        ok = ok and tier_a and tier_b
        assert tier_a, f"oracle stage below target at r={r}, n={n}"
        assert tier_b, f"silent disagreement at r={r}, n={n}"
    elapsed = time.perf_counter() - start
    _report(number, name, ok, elapsed, "; ".join(outcomes))
    assert elapsed < time_limit, f"{elapsed:.2f}s >= {time_limit}s"


def test_criterion_10_expansion_engine_grid():
    _two_tier(
        10,
        "expansion engine grid (p=5, q=6, M=4, two-tier)",
        QParam(Fraction(6), 5),
        [(r, n) for r in (1, 2, 3) for n in (2, 4)],
        time_limit=120.0,
    )


def test_criterion_11_expansion_engine_classical():
    _two_tier(
        11,
        "expansion engine at q=1 (classical path, two-tier)",
        QParam(Fraction(1), 5),
        [(2, 2)],
        time_limit=120.0,
    )
