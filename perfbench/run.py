"""The lagrev benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, measures the import time
of lagrev (setup_s), computes an independent reference for every
operation, then runs timed passes over the inputs for about S seconds.
Each pass runs in a fresh interpreter (perfbench/worker.py), so a cache
that survives only inside one process cannot speed up a later pass.

Every output of every pass is checked against its reference.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The lines before it print every
metric by name with its unit, including fail_frac and the sample counts.
Artifacts (inputs, per-pass outputs, spans) go to .perfbench/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
WORKER_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median `import lagrev` time in a fresh interpreter.  One untimed
    import first, so that the byte-code cache is in place as it is for a
    user of an installed package."""
    code = ("import time; t = time.perf_counter(); import lagrev; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def run_worker(inputs: str, out: str, spans: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), inputs, out]
    if spans is not None:
        cmd += ["--trace", spans]
    subprocess.run(cmd, env=_env(), timeout=WORKER_TIMEOUT_S, check=True)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class Tally:
    """Counts attempted and failed operations and the passing margins."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: set = set()  # failures outside the known families
        self.margins: list = []
        self.problems: set = set()  # structural checks that failed

    def record(self, label: str, passed: bool, margin, detail: str, known: bool) -> None:
        self.attempted += 1
        if passed:
            if margin is not None:
                self.margins.append(margin)
            return
        self.failed += 1
        if not known:
            self.unexpected.add(f"{label}: {detail}")

    @property
    def correct(self) -> bool:
        return not self.unexpected and not self.problems

    def margin_min(self) -> float:
        return min(self.margins) if self.margins else reference.MARGIN_CAP


def check_ops_pass(tally: Tally, ops: list, refs: list, result: dict, checker) -> None:
    for i, (op, ref, rec) in enumerate(zip(ops, refs, result["ops"])):
        passed, margin, detail = checker.check(op, rec["out"], rec["err"], ref)
        tally.record(f"op {i} {_describe(op)}", passed, margin, detail, workloads.known_failure(op))


def _describe(op: dict) -> str:
    keys = ("kind", "family", "fn", "form", "order", "m", "a", "decade", "band")
    return " ".join(f"{k}={op[k]}" for k in keys if k in op)


def check_verify_pass(tally: Tally, report_path: str, result: dict, reports: list) -> None:
    """exit code 0, report without `versions` identical across passes,
    each tolerance-compared check within its tolerance."""
    rc = result["ops"][0]["out"]["rc"] if result["ops"][0]["out"] else None
    if result["ops"][0]["err"] is not None or rc != 0:
        tally.problems.add(f"lagrev verify exited with {rc}: {result['ops'][0]['err']}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("versions", None)
    text = json.dumps(report, sort_keys=True)
    if reports and text != reports[0]:
        tally.problems.add("the verification report differs between passes")
    reports.append(text)
    for check in report["checks"]:
        status, err, tol = check["status"], check["max_abs_error"], check["tolerance"]
        if status == "fail":
            tally.record(f"check {check['id']}", False, None, check["notes"], False)
        elif status == "pass":
            tally.record(f"check {check['id']}", True, reference.margin(tol, err), "", False)
        else:  # recorded findings carry no tolerance comparison
            tally.record(f"check {check['id']}", True, None, "", False)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = os.path.join(OUT, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops = workloads.generate(workload, seed)
    inputs = os.path.join(work, "inputs.json")
    with open(inputs, "w", encoding="utf-8") as fh:
        fh.write(workloads.dumps(ops))

    setup_s = None if traced else measure_setup()
    t0 = time.perf_counter()
    refs = reference.build(ops)
    ref_s = time.perf_counter() - t0
    checker = reference.Checker()

    tally = Tally()
    plain, spans_runs, layer_runs, missing = [], [], [], set()
    reports: list = []
    start = time.perf_counter()
    n = 0
    while True:
        trace_this = traced and n % 2 == 1
        pass_inputs = inputs
        report_path = None
        if workload == "verify_all":
            report_path = os.path.join(work, f"report_{n}.json")
            pass_inputs = os.path.join(work, f"inputs_{n}.json")
            with open(pass_inputs, "w", encoding="utf-8") as fh:
                json.dump([dict(ops[0], json=report_path)], fh)
        spans = os.path.join(work, f"spans_{n}.json") if trace_this else None
        t = time.perf_counter()
        result = run_worker(pass_inputs, os.path.join(work, f"pass_{n}.json"), spans)
        last = time.perf_counter() - t
        n += 1
        if result["unwrapped_before"] or result["unwrapped_after"]:
            tally.problems.add("lagrev bindings are not the original functions: "
                                  + ", ".join(result["unwrapped_before"] + result["unwrapped_after"]))
        if workload == "verify_all":
            check_verify_pass(tally, report_path, result, reports)
        else:
            check_ops_pass(tally, ops, refs, result, checker)
        if trace_this:
            spans_runs.append(result)
            layer_runs.append(result["layers"])
            missing.update(result["missing"])
        else:
            plain.append(result)
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_PASSES and (not traced or len(spans_runs) >= MIN_PASSES)
        if enough and elapsed + last > seconds:
            break

    return {
        "workload": workload, "plain": plain, "traced": spans_runs,
        "layers": layer_runs, "missing": sorted(missing), "tally": tally,
        "setup_s": setup_s, "ref_s": ref_s,
    }


def end_to_end(res: dict) -> dict:
    plain, tally = res["plain"], res["tally"]
    walls = [r["wall_s"] for r in plain]
    if res["workload"] == "verify_all":
        # the timed unit is a whole suite pass in a fresh interpreter
        op_times = walls
    else:
        op_times = [o["t"] for r in plain for o in r["ops"]]
    fail_frac = tally.failed / tally.attempted
    return {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1e3 * percentile(op_times, 50), "ms"),
        "op_p90_ms": (1e3 * percentile(op_times, 90), "ms"),
        "pass_frac": (1.0 - fail_frac, "frac"),
        "margin_min": (tally.margin_min(), "log10"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        "setup_s": (res["setup_s"], "s"),
    }, {"passes": len(plain), "op_n": len(op_times), "fail_frac": fail_frac}


def per_layer(res: dict) -> tuple[dict, dict]:
    names = list(res["layers"][0])
    out = {}
    for name in names:
        values = [layers[name] for layers in res["layers"]]
        unit = ("s" if name.endswith("_s") else "ms" if "_ms." in name
                else "count" if name.endswith(("calls", ".fail")) else "ratio")
        out[name] = (statistics.median(values), unit)
    plain = statistics.median(r["wall_s"] for r in res["plain"])
    traced = statistics.median(r["wall_s"] for r in res["traced"])
    out["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    return out, {"passes": len(res["plain"]), "traced_passes": len(res["traced"]),
                 "missing": res["missing"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lagrev", "__init__.py")):
        print(f"perfbench: no lagrev sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = res["tally"]
    if args.trace:
        metrics, info = per_layer(res)
    else:
        metrics, info = end_to_end(res)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations attempted, {tally.failed} failed, "
          f"references built in {res['ref_s']:.2f} s")
    for key, value in info.items():
        print(f"  {key} = {value:.6g} frac" if key == "fail_frac" else f"  {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in sorted(tally.unexpected) + sorted(tally.problems):
        print(f"  UNEXPECTED: {line}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
