"""One timed pass of a workload in a fresh interpreter.

Usage: python3 worker.py INPUTS OUT [--trace SPANS]

Reads the operation list from INPUTS, imports lagrev (from PYTHONPATH),
runs every operation once and writes the outputs, per-operation times,
the pass wall time and the peak resident set size to OUT as JSON.  With
--trace the lagrev functions are wrapped for the pass, the spans go to
SPANS and the per-layer metrics to OUT; the originals are restored
before the worker exits.  Besides lagrev, the worker imports only the
standard library and tracing.py, so the benchmark's reference code (and
mpmath) never shares a process with the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

from lagrev import cli, expr, inversion, quadint, quadrature, realanalog, series, specfun  # noqa: E402


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _fmt(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _revert_float(op):
    order = op["order"]
    f = inversion.to_funcspec(expr.parse_expr(op["expr"]), order=order)
    ctx = inversion.build_context(f, order)
    q = _z(op["q"])
    w, _tail = inversion.eval_series(ctx.w_series, q)
    p = series.eval_product(series.product_exponents(ctx.a), q)
    return {"c": list(ctx.w_series.coeffs[1:]), "w": w, "p": p}


def _revert_exact(op):
    order = op["order"]
    if op["family"] == "geom":
        c = Fraction(op["c"])
        coeffs = [c**k for k in range(order + 1)]
    else:
        coeffs = [Fraction(x) for x in op["coeffs"]]
    return {"c": series.revert_exact(coeffs, order)[1:]}


def _integral_thm18(op):
    r1 = "inf" if op["r1"] == "inf" else repr(op["r1"])
    argv = ["integral", f"--a1={_fmt(_z(op['a1']))}", f"--b1={_fmt(_z(op['b1']))}",
            f"--c1={_fmt(_z(op['c1']))}", f"--m={op['m']}", f"--r1={r1}",
            f"--r2={op['r2']!r}", "--oracle"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"lagrev integral exited with {rc}")
    d = json.loads(buf.getvalue())
    return {"closed": complex(d["value_re"], d["value_im"]),
            "oracle": complex(d["oracle_re"], d["oracle_im"])}


def _calibration_quadratic(m: str):
    return quadint.QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(m))


def _integral_thm13_1(op):
    q = _calibration_quadratic(op["m"])
    c = _z(op["c"])
    r1, r2 = op["r1"], op["r2"]
    closed = quadint.closed_integral_thm13_1(
        q, c, 1j * r1**0.5, 1j * r2**0.5, log_f=lambda u: u)
    integrand = quadint.f1_integrand(q, c, lambda u: 1.0 + 0j)
    direct, _err = quadrature.quad_oracle(
        integrand, quadint.beta_endpoint(q, r1), quadint.beta_endpoint(q, r2))
    return {"closed": closed, "oracle": direct}


def _thm19(op):
    ctx = realanalog.build_real_context(inversion.to_funcspec(expr.parse_expr("1"), order=8), 8)
    q = _calibration_quadratic(op["m"])
    value = realanalog.thm19_value(ctx, q, op["r1"], op["r2"], 1e-4, 10.0)
    oracle = realanalog.thm19_oracle(ctx, q, op["r1"], op["r2"], 1e-4, 10.0)
    return {"closed": value, "oracle": oracle}


def _special(op):
    fn = inversion.F1_forward if op["fn"] == "F1_forward" else getattr(specfun, op["fn"])
    args = [_z(a) if isinstance(a, list) else a for a in op["args"]]
    return {"value": fn(*args)}


def _verify_all(op):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "--suite", "all", "--json", op["json"]])
    return {"rc": rc}


RUNNERS = {
    "revert_float": _revert_float,
    "revert_exact": _revert_exact,
    "integral_thm18": _integral_thm18,
    "integral_thm13_1": _integral_thm13_1,
    "thm19": _thm19,
    "special": _special,
    "verify_all": _verify_all,
}


def _plain(value):
    """JSON form of an output: complex or float -> [re, im], Fraction -> "p/q"."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):  # an exit code
        return value
    if isinstance(value, (complex, float)):
        z = complex(value)
        return [z.real, z.imag]
    return value


def run_pass(ops: list, tracer=None) -> tuple[float, list]:
    results = []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        runner = RUNNERS[op["kind"]]
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out, err = runner(op), None
        except Exception as exc:  # a failed operation is a measured outcome
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((clock() - t0, out, err))
    return clock() - start, results


def main(argv: list) -> int:
    inputs, out_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    with open(inputs, encoding="utf-8") as fh:
        ops = json.load(fh)

    report = {"unwrapped_before": tracing.wrapped_bindings()}
    tracer = None
    if spans_path is not None:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        wall, results = run_pass(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["unwrapped_after"] = tracing.wrapped_bindings()
    report["wall_s"] = wall
    report["ops"] = [{"t": t, "out": _plain(out), "err": err} for t, out, err in results]
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer.spans)
        report["missing"] = tracer.missing()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["label", "start", "end", "parent", "op", "raised", "probe"],
                       "spans": tracer.spans}, fh)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
