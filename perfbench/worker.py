"""Run one benchmark operation in a fresh interpreter and report it.

Usage: python3 perfbench/worker.py SPEC_JSON LAUNCH_TIME

LAUNCH_TIME is the parent's CLOCK_MONOTONIC reading taken just before it
started this interpreter (the clock is system-wide on Linux), so the set-up
time covers interpreter start-up plus importing ``qeuler`` and
``qeuler.cli``.  The parent puts the checkout's ``src`` first on
PYTHONPATH.  The last line of stdout is one JSON object with the timings,
the operation's outcome and, in traced mode, the per-function statistics.
"""

import sys
import time

_LAUNCH = float(sys.argv[2])

import qeuler  # noqa: E402
import qeuler.cli  # noqa: E402

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - _LAUNCH

import ast  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction workload (big-integer gcd
    and arithmetic, like the library's hot path) that never touches qeuler.

    Eight equal repetitions of about 4 ms each on a 2-vCPU host; shorter
    calibrations tracked the host's speed less well.
    """
    start = time.perf_counter()
    q = Fraction(32, 31)
    for _ in range(8):
        acc = Fraction(0)
        for i in range(1, 201):
            acc += Fraction((-1) ** i, i) / (1 + q ** (i % 40))
    return time.perf_counter() - start


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _character(name: str):
    if name == "trivial":
        return qeuler.ComplexChar.trivial()
    return qeuler.ComplexChar.quadratic(int(name.split(":")[1]))


def run_op(kind: str, args: dict) -> dict:
    """Run one operation through the public CLI or API; never raises."""
    try:
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = qeuler.cli.main(args["argv"])
                except SystemExit as exc:
                    code = exc.code
            return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-500:]}
        s = ast.literal_eval(args["s"])
        params = qeuler.ArchParams(q=float(Fraction(args["q"])))
        if kind == "zeta":
            value = qeuler.zeta_Eq(s, float(Fraction(args["x"])), params)
        else:
            value = qeuler.l_q_complex(s, _character(args["chi"]), params)
        return {"value": [value.real, value.imag]}
    except Exception as exc:  # an operation that fails is a result to report
        return {"raised": type(exc).__name__, "message": str(exc)[:500]}


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    calib_before = None if tracer else calibrate()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    outcome = run_op(spec["kind"], spec["args"])
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    calib_after = None if tracer else calibrate()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "id": spec["id"],
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calib_s": None if tracer else (calib_before + calib_after) / 2,
        "peak_rss_mb": peak_kb / 1024,
        "outcome": outcome,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
