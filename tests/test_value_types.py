"""The package's value types keep the contract of the frozen dataclasses
they replace: equality within one class only, a hash that agrees with it,
dataclass-form repr and no assignment after construction; the engine's
verification report is one too, without a hash, and keeps fresh defaults."""

import pickle
from fractions import Fraction

import pytest

from qeuler import (
    ArchParams,
    ComplexChar,
    DistributionCheck,
    PadicApprox,
    PolyArg,
    QParam,
    SeriesBudget,
    StageResult,
    TeichChar,
    VerificationReport,
)
from qeuler.suites import CheckResult

# each frozen type, the arguments of one value, and that value's repr
# (the repr a frozen dataclass of these fields prints, normalized fields
# included: residue 132 mod 5^3 is 7, exponent 6 mod 4 is 2)
VALUES = [
    (QParam, (Fraction(6), 5), "QParam(value=Fraction(6, 1), prime=5)"),
    (PolyArg, (1, 3, 6), "PolyArg(a=1, f=3, q=Fraction(6, 1))"),
    (
        DistributionCheck,
        (True, Fraction(1, 2), Fraction(1, 2)),
        "DistributionCheck(passed=True, lhs=Fraction(1, 2), rhs=Fraction(1, 2))",
    ),
    (PadicApprox, (5, 132, 3), "PadicApprox(prime=5, residue=7, precision=3)"),
    (TeichChar, (5, 6), "TeichChar(prime=5, exponent=2)"),
    (SeriesBudget, (4, 60), "SeriesBudget(target=4, max_terms=60)"),
    (CheckResult, ("name", True, "detail"), "CheckResult(name='name', passed=True, detail='detail')"),
    (ArchParams, (0.5, 1e-13, 200000), "ArchParams(q=0.5, eps=1e-13, max_terms=200000)"),
    (ComplexChar, (1, (1,)), "ComplexChar(conductor=1, values=((1+0j),))"),
    (
        StageResult,
        ("name", "description", True),
        "StageResult(name='name', description='description', passed=True, agreement_valuation=None, "
        "saturated=False, lhs_digits=None, rhs_digits=None, diagnostic=False, detail='')",
    ),
]

frozen = pytest.mark.parametrize("cls, args, shown", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])


@frozen
def test_equal_fields_give_equal_values_and_hashes(cls, args, shown):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@frozen
def test_another_class_with_the_same_fields_compares_unequal(cls, args, shown):
    other = type("Other", (cls,), {"__slots__": ()})
    value, twin = cls(*args), other(*args)
    assert value != twin and twin != value
    assert value != tuple(getattr(value, name) for name in cls._fields)


@frozen
def test_assignment_and_deletion_raise(cls, args, shown):
    value = cls(*args)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == shown


@frozen
def test_repr_is_dataclass_form(cls, args, shown):
    assert repr(cls(*args)) == shown


@frozen
def test_pickle_round_trip(cls, args, shown):
    value = cls(*args)
    assert pickle.loads(pickle.dumps(value)) == value


def test_stage_result_to_dict_has_its_nine_fields():
    stage = StageResult("name", "description", True)
    assert repr(stage) == (
        "StageResult(name='name', description='description', passed=True, agreement_valuation=None, "
        "saturated=False, lhs_digits=None, rhs_digits=None, diagnostic=False, detail='')"
    )
    assert stage.to_dict() == {
        "name": "name",
        "description": "description",
        "passed": True,
        "agreement_valuation": None,
        "saturated": False,
        "lhs_digits": None,
        "rhs_digits": None,
        "diagnostic": False,
        "detail": "",
    }


def test_verification_reports_do_not_share_defaults():
    one = PadicApprox(5, 1, 4)
    a, b = (VerificationReport(2, 2, 5, Fraction(6), 4, 8, one, one, 4, True) for _ in range(2))
    a.stages.append(StageResult("name", "description", True))
    a.truncation_indices["H"] = 3
    assert b.stages == [] and b.truncation_indices == {}


def _report(stages=None):
    one = PadicApprox(5, 1, 4)
    return VerificationReport(2, 2, 5, Fraction(6), 4, 8, one, one, 4, True, stages, {"assembly": 3})


def test_verification_reports_compare_by_fields():
    stage = StageResult("name", "description", True)
    a, b = _report([stage]), _report([StageResult("name", "description", True)])
    assert a == b and not a != b
    assert a != _report([StageResult("name", "description", False)])
    assert a != _report()


def test_verification_report_fields_cannot_be_assigned_or_deleted():
    report = _report()
    for name in (*VerificationReport._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
        with pytest.raises(AttributeError):
            delattr(report, name)


def test_verification_report_pickle_round_trip():
    report = _report([StageResult("name", "description", True, 4, True, "1", "1")])
    assert pickle.loads(pickle.dumps(report)) == report


def test_verification_reports_are_unhashable():
    # a report holds its stages in a list and its truncation indices in a dict
    with pytest.raises(TypeError):
        hash(_report())
