"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from lagrev import cli, quadint, series, specfun  # noqa: E402,F401  (cli: every layer loaded, as in the worker)

SEEDED = ("revert_highorder", "integral_oracle", "specfun_edge")


def _strata(ops):
    keys = ("kind", "family", "fn", "form", "order", "m", "a", "decade", "band")
    return [tuple(op.get(k) for k in keys) + (op.get("r1") == "inf",) for op in ops]


@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert workloads.dumps(workloads.generate(workload, 7)) == workloads.dumps(
        workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", SEEDED)
def test_seed_jitters_values_but_not_strata(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert workloads.dumps(a) != workloads.dumps(b)
    assert _strata(a) == _strata(b)
    assert [workloads.known_failure(op) for op in a] == [workloads.known_failure(op) for op in b]


def test_verify_all_ignores_the_seed():
    assert workloads.generate("verify_all", 1) == workloads.generate("verify_all", 99)


def _special_op(fn):
    return next(op for op in workloads.generate("specfun_edge", 3) if op["fn"] == fn)


def test_planted_wrong_value_is_a_failure():
    op = _special_op("inc_beta")
    [ref] = reference.build([op])
    good = complex(ref["value"])
    checker = reference.Checker()
    assert checker.check(op, {"value": [good.real, good.imag]}, None, ref)[0]

    tally = run.Tally()
    bad = good * (1 + 1e-6)
    passed, margin, detail = checker.check(op, {"value": [bad.real, bad.imag]}, None, ref)
    tally.record("planted", passed, margin, detail, workloads.known_failure(op))
    assert not passed and margin is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert not tally.correct


def test_planted_wrong_exact_coefficient_is_a_failure():
    op = next(op for op in workloads.generate("revert_highorder", 3) if op["kind"] == "revert_exact")
    [ref] = reference.build([op])
    coeffs = [f"{c.numerator}/{c.denominator}" for c in ref["c"]]
    assert reference.Checker().check(op, {"c": coeffs}, None, ref)[:2] == (True, reference.MARGIN_CAP)
    coeffs[-1] = "1/3"
    assert not reference.Checker().check(op, {"c": coeffs}, None, ref)[0]


def test_raised_error_is_a_failure():
    op = _special_op("hyp2f1")
    [ref] = reference.build([op])
    assert reference.Checker().check(op, None, "NoConvergence: stalled", ref) == (
        False, None, "NoConvergence: stalled")


def test_known_failure_does_not_make_the_run_incorrect():
    tally = run.Tally()
    tally.record("known", False, None, "NonIntegrable", known=True)
    assert tally.correct and tally.failed == 1


def test_margin_caps_at_error_zero():
    assert reference.margin(1e-10, 0.0) == reference.MARGIN_CAP
    assert reference.margin(1e-10, 1e-30) == reference.MARGIN_CAP
    assert reference.margin(1e-10, 1e-12) == pytest.approx(2.0)
    tally = run.Tally()
    tally.record("exact", True, reference.margin(1e-10, 0.0), "", False)
    assert tally.margin_min() == reference.MARGIN_CAP


def test_wrappers_are_removed_after_a_traced_pass():
    original = quadint.inc_beta
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quadint.inc_beta is specfun.inc_beta is not original
        quadint.beta_r(0.5, 3.0)
    finally:
        tracer.uninstall()
    assert quadint.inc_beta is original is specfun.inc_beta
    assert not hasattr(quadint.inc_beta, "__perfbench_original__")
    assert tracing.wrapped_bindings() == []
    assert tracer.missing() == []

    layers = tracing.layer_metrics(tracer.spans)
    assert layers["quadint.beta_r_calls"] == 1
    assert layers["quadint.inc_beta_per_beta_r"] == 164
    assert layers["quadrature.calls"] > 0 and layers["quadrature.evals_per_call"] > 0
    assert 0 < layers["specfun.inc_beta_quad_share"] < 1


def test_self_time_excludes_child_spans():
    spans = [["quadint.beta_r", 0.0, 10.0, -1, 0, False, None],
             ["specfun.inc_beta", 1.0, 5.0, 0, 0, False, True],
             ["quadrature.quad_oracle", 2.0, 4.0, 1, 0, True, 7]]
    layers = tracing.layer_metrics(spans)
    assert layers["quadint.self_s"] == 6.0
    assert layers["specfun.self_s"] == 2.0
    assert layers["quadrature.self_s"] == 2.0
    assert layers["quadrature.fail"] == 1
    assert layers["quadrature.evals_per_call"] == 7


def test_missing_name_is_reported(monkeypatch):
    monkeypatch.delattr(series, "compose")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing() == ["series.compose"]
    assert tracing.layer_metrics([])["series.compose_per_revert"] == 0.0


def test_untraced_worker_runs_the_original_functions(tmp_path):
    ops = [op for op in workloads.generate("specfun_edge", 1) if op["fn"] == "lambert_w"][:2]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(ops))
    result = run.run_worker(str(inputs), str(tmp_path / "out.json"), None)
    assert result["unwrapped_before"] == [] and result["unwrapped_after"] == []
    assert [o["err"] for o in result["ops"]] == [None, None]
