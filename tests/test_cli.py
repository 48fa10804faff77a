from __future__ import annotations

import cmath
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lagrev
from lagrev import verify
from lagrev.cli import _continued_log, main
from lagrev.errors import BranchError
from lagrev.expr import parse_expr
from lagrev.inversion import build_context, to_funcspec
from lagrev.realanalog import L_of, S_residual, hi_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRevert:
    def test_prints_coefficients(self, capsys):
        code, out, _ = run(capsys, "revert", "--f", "exp(A)", "--order", "3")
        assert code == 0
        assert out.splitlines()[0] == "c = 1, 1, 1.5"

    def test_evaluation_matches_newton(self, capsys):
        code, out, _ = run(capsys, "revert", "--f", "1/(1-A)", "--order", "24", "--q", "0.03,0.01")
        assert code == 0
        err_line = [l for l in out.splitlines() if l.startswith("abs_err")][0]
        assert float(err_line.split("=")[1]) < 1e-10

    def test_bad_expression_is_usage_error(self, capsys):
        code, _, err = run(capsys, "revert", "--f", "exp(", "--order", "3")
        assert code == 1
        assert "error" in err


class TestSpecial:
    def test_successive_calls_share_no_arguments(self, capsys):
        # the parser is built once per process; --arg appends to a copy of
        # its default list
        _, first, _ = run(
            capsys, "special", "--fn", "hyp2f1", *("--arg", "0.5") * 3, "--arg", "0.25"
        )
        _, second, _ = run(capsys, "special", "--fn", "gamma", "--arg", "5")
        code, third, _ = run(
            capsys,
            "integral", "--a1", "-1", "--b1", "0", "--c1", "1",
            "--m", "1/2", "--r1", "inf", "--r2", "1",
        )
        # 2F1(a, b; b; z) = (1-z)^-a
        assert float(first) == pytest.approx(0.75**-0.5, rel=1e-15)
        assert float(second) == pytest.approx(24.0, rel=1e-12)
        assert code == 0 and json.loads(third)["value_re"] == pytest.approx(math.pi / 2, abs=1e-10)

    def test_theta3(self, capsys):
        code, out, _ = run(capsys, "special", "--fn", "theta3", "--arg", "0.1")
        assert code == 0
        assert float(out) == pytest.approx(1.200200002, abs=1e-9)

    def test_lambert(self, capsys):
        code, out, _ = run(capsys, "special", "--fn", "lambert_w", "--arg", f"{math.e}")
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "special", "--fn", "hyp2f1", "--arg", "1")
        assert code == 1


class TestF1:
    def test_inverse(self, capsys):
        code, out, _ = run(capsys, "f1", "--mode", "inverse", "--x", "0.2")
        assert code == 0
        assert float(out) == pytest.approx(1.5693242442231754, abs=1e-12)

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "f1", "--mode", "inverse", "--x", "0.2")
        code, out2, _ = run(capsys, "f1", "--mode", "forward", "--x", out.strip())
        assert code == 0
        assert float(out2) == pytest.approx(0.2, abs=1e-10)

    def test_forward_domain_error_names_the_given_x(self, capsys):
        # the overflow happens at a Newton iterate near 1.2e83
        code, out, err = run(capsys, "f1", "--mode", "forward", "--x", "1e70")
        assert code == 1 and out == ""
        assert err.startswith("lagrev: error: F1_forward at x = (1e+70+0j): ")


class TestIntegral:
    def test_arcsine_calibration(self, capsys):
        code, out, _ = run(
            capsys,
            "integral", "--a1", "-1", "--b1", "0", "--c1", "1",
            "--m", "1/2", "--r1", "inf", "--r2", "3", "--oracle",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value_re"] == pytest.approx(math.pi / 4, abs=1e-10)
        assert payload["oracle_re"] == pytest.approx(math.pi / 4, abs=1e-8)
        assert payload["abs_err"] < 1e-8
        assert payload["branch_phase"] == pytest.approx(-1.0, abs=1e-10)

    def test_infinite_ratio_in_log_bracket_is_domain_error(self, capsys):
        code, out, err = run(
            capsys,
            "integral", "--a1", "-1", "--b1", "0", "--c1", "1",
            "--m", "1/2", "--r1", "inf", "--r2", "3", "--f1", "exp(A)",
        )
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_oracle_at_a_singular_right_end(self, capsys):
        # r2 = inf puts the right end on a root: the oracle takes the
        # integrand at distance d from it
        code, out, _ = run(
            capsys,
            "integral", "--a1", "-1", "--b1", "0", "--c1", "1",
            "--m", "1/2", "--r1", "2", "--r2", "inf", "--oracle",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value_re"] == pytest.approx(-math.pi / 3, abs=1e-10)
        assert payload["abs_err"] < 1e-12

    def test_without_oracle(self, capsys):
        # --r1 is a plain float: it reads inf in any case
        for r1 in ("inf", "INF"):
            code, out, _ = run(
                capsys,
                "integral", "--a1", "-1", "--b1", "0", "--c1", "1",
                "--m", "1/2", "--r1", r1, "--r2", "1",
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["value_re"] == pytest.approx(math.pi / 2, abs=1e-10)
            assert payload["oracle_re"] is None

    @pytest.mark.parametrize("f1", ["1+A", "1+A^2", "exp(A)"])
    def test_f1_oracle_meets_the_closed_form(self, capsys, f1):
        # the oracle's weight p0 = f'/f comes from a jet; a finite-difference
        # slope left ~1e-10 noise that stalled the adaptive quadrature
        code, out, _ = run(
            capsys,
            "integral", "--a1", "-1", "--b1", "0", "--c1", "1", "--m", "1/2",
            "--r1", "2.56", "--r2", "6.25", "--oracle", "--f1", f1,
        )
        assert code == 0
        assert json.loads(out)["abs_err"] < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_log_continues_along_the_segment(self, k):
        # Im(k u) runs over 2 pi k from u1 to u2, where the principal log
        # of e^{k u} jumps
        u1, u2 = 0.3 + 0.2j, -1.5 + 7.9j
        f = lambda u: cmath.exp(k * u)  # noqa: E731
        assert abs(_continued_log(f, u1, u2) - k * u2) < 1e-13 * abs(k * u2)
        assert _continued_log(f, u1, u1) == cmath.log(f(u1))

    @pytest.mark.parametrize("u1", [-1 - 1j, 0j])
    def test_log_through_a_zero_is_a_branch_error(self, u1):
        with pytest.raises(BranchError, match="does not continue past"):
            _continued_log(lambda u: u, u1, 1 + 1j)


class TestReal:
    def test_thm19_two_paths(self, capsys):
        code, out, _ = run(
            capsys, "real", "--op", "thm19", "--lo", "1e-4", "--hi", "10", "--oracle"
        )
        assert code == 0
        err_line = [l for l in out.splitlines() if l.startswith("abs_err")][0]
        assert float(err_line.split("=")[1]) < 1e-8

    def test_f1cross(self, capsys):
        code, out, _ = run(capsys, "real", "--op", "f1cross", "--x", "2.9")
        assert code == 0
        err_line = [l for l in out.splitlines() if l.startswith("abs_err")][0]
        assert float(err_line.split("=")[1]) < 1e-7

    def test_thm20_uses_the_given_bracket(self, capsys):
        # with the default lower end 0.05, L(0.04) would evaluate w outside
        # its radius of convergence 1/e
        code, out, _ = run(
            capsys, "real", "--op", "thm20", "--f", "exp(A)", "--order", "24",
            "--x", "0.04", "--lo", "0.2",
        )
        assert code == 0
        values = dict(l.split(" = ") for l in out.splitlines())
        assert abs(float(values["l1"])) < 1e-12
        assert float(values["residual"]) <= 1e-12

    @pytest.mark.parametrize(
        "op, fn, extra",
        [("hi", hi_of, ()), ("L", L_of, (0.2, 60.0)), ("S", S_residual, (0.2, 60.0))],
    )
    def test_chain_ops_print_the_library_value(self, capsys, op, fn, extra):
        ctx = build_context(to_funcspec(parse_expr("exp(A)"), order=24), 24)
        code, out, _ = run(
            capsys, "real", "--op", op, "--f", "exp(A)", "--x", "0.02", "--lo", "0.2"
        )
        assert code == 0
        assert float(out) == fn(ctx, 0.02, *extra)

    def test_unreachable_band_is_reported(self, capsys):
        code, _, err = run(
            capsys, "real", "--op", "thm19", "--r1", "1", "--r2", "3",
            "--lo", "1e-4", "--hi", "10",
        )
        assert code == 1
        assert "range" in err


class TestVerify:
    def test_classical_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "classical")
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("PASS")) >= 15

    def test_json_schema(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--suite", "classical", "--json", str(path))
        assert code == 0
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert list(payload) == ["suite", "tolerance_default", "versions", "checks"]
        assert all(c["status"] in {"pass", "fail", "recorded", "skipped"} for c in payload["checks"])

    def test_tier_b_failure_exits_three(self, capsys, monkeypatch):
        fails = lambda: verify._Outcome(1.0, 1)  # noqa: E731
        monkeypatch.setattr(verify, "_REGISTRY", [("finding", "B", None, fails)])
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 3
        assert out.startswith("FAIL     finding")
        # a tier-A failure still takes precedence
        verify._REGISTRY.append(("identity", "A", None, fails))
        assert run(capsys, "verify", "--suite", "all")[0] == 2

    def test_engine_version_without_package_metadata(self, tmp_path):
        # a fresh interpreter, as `lagrev verify` runs: importing
        # importlib.metadata cost about 10 % of the verify run
        path = tmp_path / "report.json"
        script = (
            "import json, sys\n"
            "from lagrev import cli\n"
            f"code = cli.main(['verify', '--suite', 'all', '--json', {str(path)!r}])\n"
            "print(json.dumps([code, 'importlib.metadata' in sys.modules]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(lagrev.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert json.loads(done.stdout.splitlines()[-1]) == [0, False]
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["versions"]["engine"] == "lagrev " + lagrev.__version__


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "nosuch")[0] == 1

    @staticmethod
    def _error_line(argv) -> str:
        # a fresh interpreter, so that an uncaught exception would print
        # its traceback to stderr
        env = dict(os.environ, PYTHONPATH=str(Path(lagrev.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "lagrev.cli", *argv], capture_output=True, text=True, env=env
        )
        assert done.returncode == 1
        assert done.stderr.startswith("lagrev: error: ")
        assert "Traceback" not in done.stderr
        return done.stderr

    @pytest.mark.parametrize(
        "argv",
        [["special", "--fn", "gamma", "--arg", "200"], ["f1", "--mode", "inverse", "--x", "1e70"]],
        ids=" ".join,
    )
    def test_overflow_is_an_error_line(self, argv):
        self._error_line(argv)

    @pytest.mark.parametrize(
        "command, named",
        [
            # each of these escaped as a bare traceback: OverflowError at
            # a ** (5/6), in the seed (x/6)^(6/5) and in the tanh-sinh rule,
            # ZeroDivisionError where Newton reaches w = -1e8 and exp(w) = 0
            ("f1 --mode inverse --x inf", "F1_inverse at a = (inf+0j)"),
            ("f1 --mode forward --x 1e300", "F1_forward at x = (1e+300+0j)"),
            (
                "integral --a1 0.5 --b1 nan --c1 3.5e6 --m 1/2 --r1 inf --r2 inf --oracle",
                "b1 must be finite, got (nan+0j)",
            ),
            ("revert --f exp(A) --order 2 --q 2.042754063208072", "q = (2.042754063208072+0j)"),
            # and this one printed nan, from inf * 0 at the nome q = 0
            ("real --op hi --x inf", "finite, got A = inf"),
        ],
    )
    def test_escape_is_an_error_line_naming_its_argument(self, command, named):
        assert named in self._error_line(command.split())

    @pytest.mark.parametrize(
        "command, named",
        [
            # a complex value in a real parameter slot used to escape as a
            # TypeError traceback from a comparison or round() inside specfun
            ("special --fn k_r --arg 1.6,1.29", "k_r takes a real argument 1, got (1.6+1.29j)"),
            (
                "special --fn hyp2f1 --arg 1 --arg 1 --arg 1,1 --arg 0.5",
                "hyp2f1 takes a real argument 3, got (1+1j)",
            ),
            (
                "special --fn inc_beta --arg 0.3 --arg 0.5 --arg 0.5,1",
                "inc_beta takes a real argument 3, got (0.5+1j)",
            ),
            (
                "special --fn appell_f1 --arg 1 --arg 1 --arg 1 --arg 2,-1 --arg 0.1 --arg 0.2",
                "appell_f1 takes a real argument 4, got (2-1j)",
            ),
        ],
    )
    def test_complex_value_in_a_real_slot_is_an_error_line(self, command, named):
        assert named in self._error_line(command.split())

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "revert")[0] == 1


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(l)[1:] for l in block.splitlines() if l.startswith("lagrev ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_examples_exit_zero(argv, capsys, tmp_path):
    if "--json" in argv:
        k = argv.index("--json") + 1
        argv = argv[:k] + [str(tmp_path / argv[k])] + argv[k + 1 :]
    assert run(capsys, *argv)[0] == 0
