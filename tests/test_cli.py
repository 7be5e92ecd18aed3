"""CLI surface: exit codes, serialization, round trips."""

import argparse
import contextlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import QParam, SeriesBudget, TeichChar, cli, embed, euler_number_q, l_pq, q_int
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


@pytest.mark.parametrize("s", ["2", "1/2"])
def test_lvalue_below_the_target_exits_one(capsys, s):
    # working precision 3 below the target 4: no exponent's series certifies
    code, out, err = run(
        capsys, "lvalue", "--side", "padic", "--s", s, "--t", "1", "--p", "5",
        "--q", "6/1", "--N", "3", "--M", "4",
    )
    assert code == 1 and out == ""
    assert "not certified" in err


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


# every subcommand with each of its --format choices
OUT_RUNS = [
    (["euler-table", "--q", "6/1", "--max-m", "3", "--p", "5", "--N", "4"], ("text", "json", "csv")),
    (["zeta", "--s", "-1", "--x", "1.0", "--q", "0.5"], ("text", "json")),
    (["lvalue", "--side", "padic", "--s", "-2", "--t", "2", "--p", "5", "--q", "6/1"], ("text", "json")),
    (["lvalue", "--side", "complex", "--s", "-1", "--q", "0.5"], ("text", "json")),
    (["verify", "exact-identities"], ("text", "json", "csv")),
    (["theorem5", "--r", "2", "--n", "2"], ("text", "json")),
]


@pytest.mark.parametrize(
    "argv",
    [[*argv, "--format", f] for argv, formats in OUT_RUNS for f in formats],
    ids=lambda argv: " ".join(argv[:1] + argv[-1:]),
)
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "result"
    code_out, out_out, _ = run(capsys, *argv, "--out", str(target))
    assert code_out == code == 0 and out_out == ""
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [argv for argv, _ in OUT_RUNS], ids=lambda argv: " ".join(argv[:3]))
def test_output_into_a_missing_directory_exits_two(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("invalid input:")
    assert not target.exists()


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
        ["zeta", "--s", "0.5", "--x", "1", "--q", "0.5", "--eps", "inf"],
        ["zeta", "--s", "0.5", "--x", "1", "--q", "0.5", "--eps", "nan"],
        ["zeta", "--s", "nan", "--x", "1", "--q", "0.5"],
        ["zeta", "--s", "1", "--x", "inf", "--q", "0.5"],
        ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--chi", "quad:1"],
        ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--chi", "quad:9"],
        ["euler-table", "--q", "6/1", "--p", "5", "--N", "-1"],
        ["theorem5", "--r", "2", "--n", "2", "--N", "-1"],
        ["lvalue", "--side", "padic", "--s", "1", "--q", "6", "--N", "-1"],
        ["zeta", "--s", "1", "--x", "1e-300", "--q", "0.5"],
        ["lvalue", "--side", "padic", "--s", "1", "--q", "6", "--F", "0"],
        ["lvalue", "--side", "padic", "--s", "1", "--q", "6", "--F", "-5"],
        ["theorem5", "--r", "1", "--n", "2", "--p", "5", "--q", "6", "--M", "4", "--N", "2"],
        ["theorem5", "--r", "1", "--n", "2", "--p", "5", "--q", "6", "--M", "4", "--N", "3"],
        # a flag of the other lvalue side is invalid input, not ignored
        ["lvalue", "--side", "padic", "--s", "1", "--s-im", "2", "--q", "6/1", "--p", "5"],
        ["lvalue", "--side", "padic", "--s", "1", "--q", "6", "--chi", "trivial"],
        ["lvalue", "--side", "padic", "--s", "1", "--q", "6", "--eps", "1e-9"],
        ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--p", "7", "--t", "3", "--M", "9"],
        ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--t", "0"],
        ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--F", "5"],
        ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--N", "6"],
        ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--kmax", "60"],
    ],
)
def test_malformed_input_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("invalid input:")


def _parsed(parse, argv):
    """What one parse of argv does: its namespace or its exit code, with
    what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", vars(parse(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


_PARSER_CASES = [
    [],
    ["-h"],
    ["nope"],
    ["--", "verify", "all"],
    *([command, "-h"] for command in cli._COMMANDS),
    *([command] for command in cli._COMMANDS),
    ["verify", "all", "--format", "xml"],
    ["theorem5", "--r", "x"],
    ["euler-table", "--q", "1/0"],
    ["verify", "all", "stray"],
    ["verify", "all", "--bogus"],
    ["verify", "--", "all"],
    ["verify", "all", "--", "x"],
    ["theorem5", "--r=2"],
    ["theorem5", "--r", "2", "--n", "2"],
    ["verify", "all", "--form", "json"],
    ["verify", "all", "--format"],
    ["verify", "all", "-h", "bogus"],
    ["euler-table", "--q", "6", "extra", "--N", "x"],
    ["lvalue", "--side", "padic", "--s", "2", "--q", "6"],
    ["zeta", "--s", "-2", "--x", "1", "--q", "0.5"],
    ["theorem5", "--r", "1", "--r", "2"],
    ["verify", "--format", "json", "all"],
    ["verify", "all", "all"],
    ["lvalue", "--side", "padic", "--s", "2", "--q", "6", "--t"],
    # argparse takes "-1", "-.5" and "-0.5" as values, "-1e3", "-1/2" and "-h" as options
    ["zeta", "--s", "-.5", "--x", "-1", "--q", "-0.5"],
    ["zeta", "--s", "-1e3", "--x", "1", "--q", "0.5"],
    ["lvalue", "--side", "padic", "--s", "-1/2", "--q", "6"],
    ["lvalue", "--side", "padic", "--s", "-h", "--q", "6"],
    ["verify", "-1"],
]


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_named_command_parses_as_the_full_parser_does(argv):
    # same namespace, or same exit code, usage, help and error text
    full = _parsed(lambda v: cli.build_parser().parse_args(v), argv)
    assert _parsed(cli._parse_args, argv) == full


# the benchmark's six command lines and README's examples without "="
_PLAIN_ARGVS = [
    "verify all --format json",
    "theorem5 --format json",
    "theorem5 --r 2 --n 2 --p 31 --q 32 --M 4",
    "theorem5 --r 2 --n 2 --p 5 --q 6 --M 20",
    "theorem5 --r 2 --n 2 --p 31 --q 1 --M 4",
    "theorem5 --r 2 --n 2 --p 5 --q 1 --M 20",
    "euler-table --q 6/1 --max-m 4 --p 5 --N 6 --format csv",
    "verify all",
    "verify theorem5 --r 2 --n 2 --p 5 --q 6/1 --M 4",
    "verify theorem5 --p 7 --q 8/1",
    "theorem5 --q 6/1 --M 4",
    "zeta --s -1 --x 1.0 --q 0.5 --format json",
    "lvalue --side complex --s -3 --chi quad:3 --q 0.5",
]
_WELL_FORMED = [
    *(line.split() for line in _PLAIN_ARGVS),
    ["zeta", "--s", "1", "--x", "1", "--q", "0.5"],
    ["lvalue", "--side", "padic", "--s", "2", "--q", "6"],
    ["lvalue", "--side", "complex", "--s", "1", "--q", "0.5", "--chi", "quad:3"],
]
_OPTION_STRINGS = sorted({name for _, entries in cli._COMMANDS.values() for name, _ in entries if name.startswith("-")})
_VALUES = ["2", "0", "-2", "-1/2", "-0.5", "-.5", "-1e3", "6/1", "1/0", "0.5", "x", "", "json", "csv", "text", "all", "theorem5", "padic", "complex", "quad:3"]
_TOKENS = [*cli._COMMANDS, *_OPTION_STRINGS, "--form", "--r=2", "-h", "--", *_VALUES]


@st.composite
def _command_lines(draw):
    """Either tokens of the pool, or a well-formed command line with a few
    tokens of the pool inserted, replaced or deleted."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=8))
    argv = list(draw(st.sampled_from(_WELL_FORMED)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "insert pair", "replace", "delete"]))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(_TOKENS)))
        elif edit == "insert pair":
            argv[at:at] = [draw(st.sampled_from(_OPTION_STRINGS)), draw(st.sampled_from(_VALUES))]
        elif at < len(argv):
            argv[at : at + 1] = [draw(st.sampled_from(_TOKENS))] if edit == "replace" else []
    return argv


@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_any_command_line_parses_as_the_full_parser_does(argv):
    full = _parsed(lambda v: cli.build_parser().parse_args(v), argv)
    assert _parsed(cli._parse_args, argv) == full


def test_a_well_formed_command_builds_no_parser(monkeypatch):
    argvs = [line.split() for line in _PLAIN_ARGVS]
    full = [vars(cli.build_parser().parse_args(argv)) for argv in argvs]

    def unbuilt(*args, **kwargs):
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", unbuilt)
    assert [vars(cli._parse_args(argv)) for argv in argvs] == full


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_emit_builds_only_the_format_it_writes(capsys, fmt):
    def unbuilt():
        raise AssertionError("built a format that is not written")

    built = {"json": lambda: {"a": 1}, "text": lambda: "a = 1\n", "csv": lambda: [["a"], [1]]}
    makers = {name: built[name] if name == fmt else unbuilt for name in built}
    cli._emit(argparse.Namespace(format=fmt, out=None), makers["json"], makers["text"], makers["csv"])
    assert capsys.readouterr().out == {"json": '{\n  "a": 1\n}\n', "text": "a = 1\n", "csv": "a\r\n1\r\n"}[fmt]


def test_theorem5_json_renders_no_text_report(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_report_text", lambda report: pytest.fail("text report rendered"))
    code, out, _ = run(capsys, "theorem5", "--r", "2", "--n", "2", "--format", "json")
    assert code == 0 and json.loads(out)["acceptable"]
