"""CLI surface: exit codes, serialization, round trips."""

import json
import time
from fractions import Fraction

import pytest

from qeuler import QParam, SeriesBudget, TeichChar, embed, euler_number_q, l_pq, q_int
from qeuler.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_euler_table_text(capsys):
    code, out, _ = run(capsys, "euler-table", "--q", "6/1", "--max-m", "4")
    assert code == 0
    assert "-1/7" in out and "5/259" in out


def test_euler_table_classical(capsys):
    code, out, _ = run(capsys, "euler-table", "--q", "1/1", "--max-m", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[1]["value"] == "-1/2"
    assert rows[2]["value"] == "0/1"


def test_euler_table_empty_grid(capsys):
    code, out, _ = run(capsys, "euler-table", "--q", "6/1", "--max-m", "0", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == [{"m": 0, "value": "1/1"}]


def test_euler_table_with_embedding(capsys):
    code, out, _ = run(
        capsys, "euler-table", "--q", "6/1", "--max-m", "2", "--p", "5", "--N", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,value,residue,mod,valuation"
    assert len(lines) == 4


def test_malformed_q_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["euler-table", "--q", "6//1", "--max-m", "2"])
    assert exc.value.code == 2


def test_invalid_qparam_exits_two(capsys):
    # p divides the denominator of q: rejected before any computation
    code, _, err = run(capsys, "lvalue", "--side", "padic", "--s", "1", "--p", "5", "--q", "1/5")
    assert code == 2
    assert "invalid input" in err


def test_csv_rejected_for_single_values():
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--s", "0", "--x", "1.0", "--q", "0.5", "--format", "csv"])
    assert exc.value.code == 2


def test_zeta_values(capsys):
    code, out, _ = run(capsys, "zeta", "--s", "0", "--x", "1.0", "--q", "0.5", "--format", "json")
    assert code == 0
    value = json.loads(out)["value"]
    assert abs(float(value["re"]) - 1.0) < 1e-12
    code, out, _ = run(capsys, "zeta", "--s", "-1", "--x", "1.0", "--q", "0.5", "--format", "json")
    value = json.loads(out)["value"]
    assert abs(float(value["re"]) - 2 / 3) < 1e-9


def test_zeta_nonconvergence_exits_one(capsys):
    code, _, err = run(
        capsys, "zeta", "--s", "2.0", "--x", "1.0", "--q", "0.9", "--max-terms", "5"
    )
    assert code == 1
    assert "converge" in err


def test_lvalue_padic_matches_library(capsys):
    code, out, _ = run(
        capsys, "lvalue", "--side", "padic", "--s", "-2", "--t", "2", "--p", "5",
        "--q", "6/1", "--M", "6", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    q = QParam(Fraction(6), 5)
    want = l_pq(-2, TeichChar(5, 2), 5, q, SeriesBudget(target=6))
    assert record["value"]["residue"] == str(want.residue)
    # interpolation formula pins the same record
    exact = euler_number_q(2, Fraction(6)) - q_int(5, 6) ** 2 * euler_number_q(2, Fraction(6) ** 5)
    assert record["value"]["residue"] == str(embed(exact, 5, want.precision).residue)


def test_lvalue_complex(capsys):
    code, out, _ = run(
        capsys, "lvalue", "--side", "complex", "--s", "-1", "--chi", "trivial",
        "--q", "0.5", "--format", "json",
    )
    assert code == 0
    value = json.loads(out)["value"]
    assert abs(float(value["re"]) - (-2 / 3)) < 1e-9  # E_{1,1/2} = -1/(1+q)


def test_json_record_reproducible_and_reparseable(capsys):
    argv = ["lvalue", "--side", "padic", "--s", "-2", "--t", "2", "--p", "5",
            "--q", "6/1", "--M", "4", "--format", "json"]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    config = json.loads(first)["config"]
    rebuilt = [
        "lvalue", "--side", config["side"], "--s=" + config["s"], "--t", str(config["t"]),
        "--p", str(config["p"]), "--q", config["q"], "--F", str(config["F"]),
        "--M", str(config["M"]), "--kmax", str(config["kmax"]), "--format", "json",
    ]
    code, third, _ = run(capsys, *rebuilt)
    assert code == 0 and third == first


def test_verify_exact_identities(capsys):
    code, out, _ = run(capsys, "verify", "exact-identities")
    assert code == 0
    assert "OK" in out and "FAIL " not in out


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "exact-identities", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "name,passed,detail"


def test_verify_theorem5_single_point(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem5", "--r", "2", "--n", "2", "--p", "5",
        "--q", "6/1", "--M", "4",
    )
    assert code == 0
    assert "agreement" in out and "expansion[q=6, r=2, n=2]" in out


def test_theorem5_single_point(capsys):
    code, out, _ = run(
        capsys, "theorem5", "--r", "2", "--n", "2", "--p", "5", "--q", "6/1", "--M", "4"
    )
    assert code == 0
    record = json.loads(out)
    assert record["acceptable"] is True
    report = record["reports"][0]
    assert isinstance(report["agreement_valuation"], int)
    assert len(report["stages"]) == 7
    assert report["lhs"]["mod"].startswith("5^")


def test_theorem5_text_format(capsys):
    code, out, _ = run(
        capsys, "theorem5", "--r", "1", "--n", "2", "--q", "6/1", "--M", "4",
        "--format", "text",
    )
    assert code == 0
    assert "agreement valuation" in out
    assert "stage character-sum-assembly" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(
        capsys, "euler-table", "--q", "6/1", "--max-m", "1", "--format", "json",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rows"][1]["value"] == "-1/7"


def test_composite_prime_exits_two_at_once(capsys):
    # 1022117 = 1009 * 1013 has no factor below 1000
    start = time.perf_counter()
    code, _, err = run(
        capsys, "theorem5", "--r", "2", "--n", "2", "--p", "1022117", "--q", "1022118", "--M", "2"
    )
    assert code == 2
    assert "invalid input" in err
    assert time.perf_counter() - start < 5.0


def test_large_prime_embeds_at_once(capsys):
    # 2^61 - 1 is prime; trial division to its square root would hang
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "euler-table", "--q", "6/1", "--max-m", "4", "--p", str(2**61 - 1), "--N", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"][1]["mod"] == f"{2**61 - 1}^2"
    assert time.perf_counter() - start < 5.0


def test_verify_theorem5_routes_grid_flags(capsys):
    # q = 8 is valid at p = 7 only (v_5(8 - 1) = 0), so the grid ran at p = 7
    code, out, _ = run(capsys, "verify", "theorem5", "--p", "7", "--q", "8/1", "--format", "json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == [f"expansion[q=8, r={r}, n={n}]" for r in (1, 2, 3) for n in (2, 4)]


def test_verify_other_suites_reject_grid_flags(capsys):
    code, out, err = run(capsys, "verify", "padic", "--p", "7")
    assert code == 2 and out == ""
    assert "invalid input:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lvalue", "--side", "padic", "--s", "abc", "--q", "6"],
        ["lvalue", "--side", "padic", "--s", "1", "--q", "1/0"],
        ["lvalue", "--side", "complex", "--s", "abc", "--q", "0.5"],
        ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--chi", "quad:x"],
        ["zeta", "--s", "1", "--x", "1", "--q", "0.5", "--max-terms", "0"],
    ],
)
def test_malformed_input_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("invalid input:")
