"""The benchmark's workloads, their reference outputs and the correctness gate.

An operation is one CLI command or one public-API call, and each runs in
its own fresh interpreter (see ``worker.py``).  CLI operations are judged
byte for byte, plus the exit code, against the references recorded in
``reference/``.  Archimedean operations are judged at 1e-8 relative
against oracles computed here, outside every timed region: the exact
rational layer at negative integers where it can express the point, and
an mpmath evaluation of the same Abel value everywhere else.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mpmath import ceil, log, mp, mpc, mpf

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
EXPECTED = REFERENCE / "expected.json"

REL_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` is "cli", "zeta" (``zeta_Eq``) or "lq"
    (``l_q_complex``); ``args`` is what the worker needs to run it."""

    id: str
    kind: str
    args: dict


def _cli(argv: str) -> Op:
    return Op("qeuler " + argv, "cli", {"argv": argv.split()})


def _exact(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


# The archimedean grid.  q and x are exact rationals that reach the API as
# the nearest doubles; s is a Python literal, so integers reach it as ints,
# 1/2 and 3/2 as floats and 1/2+14i as a complex.
ARCH_QS = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))
ARCH_ZETA_S = ("-3", "-2", "-1", "0.5", "1.5", "(0.5+14j)")
ARCH_ZETA_X = (Fraction(1), Fraction(1, 3))
ARCH_CHARS = ("trivial", "quad:3", "quad:7")
ARCH_L_S = ("-2", "0.5", "(0.5+14j)")


def _archimedean_ops() -> list:
    ops = []
    for q in ARCH_QS:
        for s in ARCH_ZETA_S:
            for x in ARCH_ZETA_X:
                ops.append(
                    Op(
                        f"zeta_Eq q={_exact(q)} s={s} x={_exact(x)}",
                        "zeta",
                        {"q": _exact(q), "s": s, "x": _exact(x)},
                    )
                )
        for chi in ARCH_CHARS:
            for s in ARCH_L_S:
                ops.append(
                    Op(
                        f"l_q_complex q={_exact(q)} chi={chi} s={s}",
                        "lq",
                        {"q": _exact(q), "s": s, "chi": chi},
                    )
                )
    return ops


WORKLOADS = {
    "verify-all": [
        _cli("verify all --format json"),
        _cli("theorem5 --format json"),
    ],
    "expansion-deformed": [
        _cli("theorem5 --r 2 --n 2 --p 31 --q 32 --M 4"),
        _cli("theorem5 --r 2 --n 2 --p 5 --q 6 --M 20"),
    ],
    "expansion-classical": [
        _cli("theorem5 --r 2 --n 2 --p 31 --q 1 --M 4"),
        _cli("theorem5 --r 2 --n 2 --p 5 --q 1 --M 20"),
    ],
    "archimedean-near-one": _archimedean_ops(),
}


def reference_path(op: Op) -> Path:
    """Where the recorded stdout of a CLI operation lives."""
    slug = "_".join(op.args["argv"]).replace("-", "")
    return REFERENCE / f"{slug}.out"


# -- oracles -------------------------------------------------------------------


def _abel(s, q, A, f, dps: int = 30):
    """mpmath Abel value of sum_{m>=0} (-1)^m [A + f m]_q^(-s).

    With c = (1-q)^s the series is c/2 + sum (-1)^m (t_m - c).  The head is
    summed directly until y = q^(A + f N) <= 1/2; the tail expands
    (1 - y q^(f m))^(-s) binomially and sums over m in closed form:
    (-1)^N c sum_{j>=1} binom(-s, j) (-y)^j / (1 + q^(f j)).  At s = -k the
    binomial series ends at j = k, so N = 0 gives the exact closed form.
    """
    with mp.workdps(dps):
        s, q, A = mpc(s), mpf(q), mpf(A)
        c = (1 - q) ** s
        if s.imag == 0 and s.real == int(s.real) and s.real <= 0:
            n_head = 0
        else:
            n_head = max(0, int(ceil((log(mpf(1) / 2) / log(q) - A) / f)))
        head = mpc(0)
        for m in range(n_head):
            head += (-1) ** m * (((1 - q ** (A + f * m)) / (1 - q)) ** (-s) - c)
        y = -(q ** (A + f * n_head))
        tail, b, j = mpc(0), mpc(1), 0
        eps = mpf(10) ** (-dps)
        while True:
            j += 1
            b *= (-s - j + 1) / j
            term = b * y**j / (1 + q ** (f * j))
            tail += term
            if b == 0 or (j > 8 and abs(term) < eps):
                break
        return complex(c / 2 + head + (-1) ** n_head * c * tail)


def _quadratic(f: int, a: int) -> int:
    if a % f == 0:
        return 0
    return 1 if pow(a, (f - 1) // 2, f) == 1 else -1


def _oracle_mpmath(op: Op) -> complex:
    """The same Abel value at the exact double inputs the API receives,
    from the defining series (not the library's reduction formulas)."""
    s, q = complex(ast.literal_eval(op.args["s"])), float(Fraction(op.args["q"]))
    if op.kind == "zeta":
        return 2 * _abel(s, q, float(Fraction(op.args["x"])), 1)
    chi = op.args["chi"]
    if chi == "trivial":
        # sum_{n>=1} (-1)^n [n]^-s = -sum_{m>=0} (-1)^m [1+m]^-s
        return -2 * _abel(s, q, 1, 1)
    f = int(chi.split(":")[1])
    total = 0j
    for a in range(1, f):
        if _quadratic(f, a):
            total += _quadratic(f, a) * (-1) ** a * _abel(s, q, a, f)
    return 2 * total


def oracle(op: Op) -> complex:
    """Reference value of an archimedean operation.

    At negative integers with x = 1 (and for every l-value) the exact
    rational layer gives it: E_{k,q}(1) = euler_poly_q, the l-value
    gen_euler_complex.  Points it cannot express (x = 1/3 would need base
    q^(1/3)) and non-integer s use the mpmath Abel value.
    """
    # imported here: run.py puts the checkout's src/ on sys.path first
    from qeuler import ComplexChar, PolyArg, euler_poly_q, gen_euler_complex

    s = ast.literal_eval(op.args["s"])
    q = Fraction(op.args["q"])
    if isinstance(s, int):
        if op.kind == "zeta" and op.args["x"] == "1/1":
            return complex(float(euler_poly_q(-s, PolyArg(1, 1, q))))
        if op.kind == "lq":
            chi = op.args["chi"]
            char = ComplexChar.trivial() if chi == "trivial" else ComplexChar.quadratic(int(chi[5:]))
            return complex(gen_euler_complex(-s, char, q))
    return _oracle_mpmath(op)


# -- the gate ------------------------------------------------------------------


class Gate:
    """Judges one workload's operation outcomes.

    ``check`` returns None for a correct outcome and a one-line reason
    otherwise.  ``known`` lists the operations that already fail at the
    commit the references were recorded at; they still count as failed,
    but only a failure outside that list makes a run incorrect.
    """

    def __init__(self, workload: str):
        self.ops = WORKLOADS[workload]
        expected = json.loads(EXPECTED.read_text())
        self.known = set(expected["known_failures"])
        self.expected = {}
        for op in self.ops:
            if op.kind == "cli":
                exit_code = expected["cli_exit"][op.id]
                self.expected[op.id] = (exit_code, reference_path(op).read_bytes())
            else:
                self.expected[op.id] = oracle(op)

    def check(self, op_id: str, outcome: dict):
        want = self.expected[op_id]
        if "raised" in outcome:
            return f"raised {outcome['raised']}"
        if isinstance(want, tuple):
            exit_code, stdout = want
            if outcome["exit"] != exit_code:
                return f"exit code {outcome['exit']}, expected {exit_code}"
            if outcome["stdout"].encode() != stdout:
                return "stdout differs from the recorded reference"
            return None
        got = complex(*outcome["value"])
        err = abs(got - want) / abs(want)
        if not err <= REL_TOL:
            return f"relative error {err:.2e} > {REL_TOL:g}"
        return None
