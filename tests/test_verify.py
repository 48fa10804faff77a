from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from lagrev.errors import DomainError, NoBracket
from lagrev.expr import print_expr
from lagrev.verify import emit_report, run_suite

VALID_STATUSES = {"pass", "fail", "recorded", "skipped"}


@pytest.fixture(scope="module")
def classical():
    return run_suite("classical")


@pytest.fixture(scope="module")
def paper():
    return run_suite("paper")


class TestClassicalSuite:
    def test_all_pass(self, classical):
        assert all(c.status == "pass" for c in classical.checks)

    def test_at_least_fifteen(self, classical):
        assert len(classical.checks) >= 15

    def test_tier(self, classical):
        assert all(c.tier == "A" for c in classical.checks)

    def test_sorted_by_id(self, classical):
        ids = [c.id for c in classical.checks]
        assert ids == sorted(ids)

    def test_pass_iff_below_tolerance(self, classical):
        for c in classical.checks:
            assert (c.status == "pass") == (c.max_abs_error < c.tolerance)


class TestPaperSuite:
    def test_statuses_valid(self, paper):
        assert all(c.status in VALID_STATUSES for c in paper.checks)

    def test_no_failures(self, paper):
        # the recorded entries are findings; nothing should outright fail
        assert not any(c.status == "fail" for c in paper.checks)

    def test_recorded_findings_present(self, paper):
        recorded = {c.id for c in paper.checks if c.status == "recorded"}
        assert "coefficient_prefactor" in recorded
        assert "modular_sum_constant" in recorded
        assert "thm19_small_r_range" in recorded

    def test_fitted_constants_in_notes(self, paper):
        by_id = {c.id: c for c in paper.checks}
        assert "0.3" in by_id["lambert_involution"].notes
        assert "fitted" in by_id["thm20_shift_fit"].notes


class TestNamedChecks:
    def test_eq16(self, paper):
        c = {c.id: c for c in paper.checks}["modular_sum_constant"]
        assert c.status == "recorded"
        assert c.max_abs_error < 1e-8
        assert "-8.413" in c.notes

    def test_eq18(self, paper):
        c = {c.id: c for c in paper.checks}["eta_quartic_derivative"]
        assert c.status == "pass"
        assert c.max_abs_error < 1e-6


class TestReports:
    def test_determinism(self, classical):
        again = run_suite("classical")
        assert asdict(again) == asdict(classical)

    def test_empty_suite(self):
        with pytest.raises(DomainError, match="nosuch"):
            run_suite("nosuch")

    def test_field_order(self, classical):
        d = asdict(classical)
        assert list(d) == ["suite", "tolerance_default", "versions", "checks"]
        assert list(d["versions"]) == ["engine"]
        for c in d["checks"]:
            assert list(c) == [
                "id",
                "tier",
                "status",
                "max_abs_error",
                "tolerance",
                "samples",
                "notes",
            ]

    def test_emit_round_trip(self, classical, tmp_path):
        path = tmp_path / "report.json"
        emit_report(classical, path)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(asdict(classical)))

    def test_tolerance_override(self):
        report = run_suite("classical", tol=1e-6)
        assert report.tolerance_default == 1e-6

    def test_all_suite_contains_both_tiers(self):
        report = run_suite("all")
        tiers = {c.tier for c in report.checks}
        assert tiers == {"A", "B"}

    def test_all_suite_matches_the_golden_report(self, tmp_path):
        # the report of `lagrev verify --suite all --json` without
        # `versions`; a deliberate change to the report updates
        # tests/data/verify_all.json and is listed in CHANGES.md
        path = tmp_path / "report.json"
        emit_report(run_suite("all"), path)
        report = json.loads(path.read_text(encoding="utf-8"))
        del report["versions"]
        golden = (Path(__file__).parent / "data" / "verify_all.json").read_text(encoding="utf-8")
        assert json.dumps(report, indent=2) + "\n" == golden


def test_each_inversion_context_is_built_once(monkeypatch):
    import lagrev.verify as verify

    built = []
    build = verify.build_context

    def counted(f, order):
        built.append(print_expr(f.tree))
        return build(f, order)

    monkeypatch.setattr(verify, "build_context", counted)
    verify._context.cache_clear()
    run_suite("all")
    # each f is reverted once, at one order that serves all of its
    # checks: a check asking for a second order of an f fails here
    assert sorted(built) == ["1", "1+A", "1/(1-A)", "exp(A)"]


def _statuses(report) -> dict:
    return {c.id: c.status for c in report.checks}


def test_recorded_findings_fail_when_their_condition_breaks(monkeypatch):
    import lagrev.verify as verify

    before = _statuses(run_suite("paper"))
    assert before["modular_sum_constant"] == before["fy_sum_real"] == "recorded"
    assert before["pole_sign_convention"] == "recorded"

    inc_beta = verify.inc_beta
    monkeypatch.setattr(verify, "inc_beta", lambda *args: inc_beta(*args) * (1 + 1e-9))
    scaled = _statuses(run_suite("paper"))
    assert scaled["modular_sum_constant"] == scaled["fy_sum_real"] == "fail"
    monkeypatch.undo()

    p_of_z = verify.p_of_z
    monkeypatch.setattr(verify, "p_of_z", lambda ctx, z: -p_of_z(ctx, z))
    assert _statuses(run_suite("paper"))["pole_sign_convention"] == "fail"


def test_appell_reduction_fails_on_a_scaled_appell_f1(monkeypatch):
    import lagrev.verify as verify

    assert _statuses(run_suite("classical"))["appell_reduction"] == "pass"
    appell_f1 = verify.appell_f1
    monkeypatch.setattr(verify, "appell_f1", lambda *args: appell_f1(*args) * (1 + 1e-9))
    assert _statuses(run_suite("classical"))["appell_reduction"] == "fail"


def test_hyp2f1_identities_fail_on_scaled_connection_coefficients(monkeypatch):
    import lagrev.specfun as specfun

    assert _statuses(run_suite("classical"))["hyp2f1_identities"] == "pass"
    rgamma = specfun._rgamma
    # every 1 - z connection coefficient carries two reciprocal gammas
    monkeypatch.setattr(specfun, "_rgamma", lambda x: rgamma(x) * (1 + 1e-9))
    assert _statuses(run_suite("classical"))["hyp2f1_identities"] == "fail"


@pytest.mark.parametrize("name", ["theta3", "eta", "rogers_ramanujan"])
def test_nome_reduction_fails_on_a_scaled_nome_function(monkeypatch, name):
    import lagrev.verify as verify

    assert _statuses(run_suite("classical"))["nome_reduction"] == "pass"
    fn = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: fn(*args) * (1 + 1e-9))
    assert _statuses(run_suite("classical"))["nome_reduction"] == "fail"


def test_hi_prime_error_fails_thm17(monkeypatch):
    # L' and L'' come from the jet of h_i, h'(x) = 1/h_i' from hi_prime:
    # a 1e-9 error in hi_prime shows on the right side alone
    import lagrev.realanalog as realanalog
    import lagrev.verify as verify

    assert _statuses(run_suite("paper"))["thm17_residual"] == "pass"
    hi_prime = realanalog.hi_prime
    monkeypatch.setattr(realanalog, "hi_prime", lambda ctx, A: hi_prime(ctx, A) * (1 + 1e-9))
    verify._context.cache_clear()
    assert _statuses(run_suite("paper"))["thm17_residual"] == "fail"


def test_a_raising_check_body_is_reported_as_a_failure():
    from lagrev.verify import _run_one

    def body():
        raise NoBracket("target outside the range")

    result = _run_one("raises", "B", 1e-8, body)
    assert (result.status, result.max_abs_error, result.samples, result.tolerance) == (
        "fail", float("inf"), 0, 1e-8
    )
    assert result.notes == "NoBracket: target outside the range"
