import json
import math
import subprocess
import sys

import pytest

from zetacan import cli


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "zetacan.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestZetaCommand:
    def test_m0(self):
        code, out, _ = run_cli("zeta", "--m", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "zetacan/1"
        assert doc["zeta0_exact"] == "-2/3"
        assert doc["zeta0"] == pytest.approx(-2.0 / 3.0)

    def test_m3(self):
        code, out, _ = run_cli("zeta", "--m", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["zeta0"] == pytest.approx(-13.0 / 6.0)

    def test_profile_route(self):
        code, out, _ = run_cli("zeta", "--m", "1", "--route", "profile")
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == "profile"
        assert abs(doc["routes"]["profile"][1]
                   - doc["routes"]["closed"][1]) < 1e-8

    def test_invalid_m(self):
        code, *_ = run_cli("zeta", "--m", "-1")
        assert code == 2

    def test_deterministic_output(self):
        outs = {run_cli("zeta", "--m", "2")[1] for _ in range(2)}
        assert len(outs) == 1


class TestSpectrumCommand:
    def test_csv_shape_and_head(self):
        code, out, _ = run_cli("spectrum", "--m", "0", "--n-max", "5",
                               "--k-max", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eigenvalue,m,n,k,lambda,multiplicity,residual"
        assert len(lines) == 1 + 5 * 10
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(1.8411837813406593 ** 2 / 4.0,
                                                abs=1e-9)

    def test_minimal_run(self):
        code, out, _ = run_cli("spectrum", "--m", "1", "--n-max", "1",
                               "--k-max", "1", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_json_sorted(self):
        code, out, _ = run_cli("spectrum", "--m", "1", "--n-max", "3",
                               "--k-max", "4")
        assert code == 0
        doc = json.loads(out)
        evs = [e["eigenvalue"] for e in doc["entries"]]
        assert evs == sorted(evs)
        assert doc["zero_mode_multiplicity"] == 2


class TestTorsionCommand:
    def test_m1_value(self):
        code, out, _ = run_cli("torsion", "--m", "1")
        assert code == 0
        doc = json.loads(out)
        from zetacan.special import riemann_zeta_prime

        expected = (4.0 * riemann_zeta_prime(-1.0) - 1.0 / 6.0
                    - math.log(9.0 / 4.0))
        assert doc["Tg"] == pytest.approx(expected, abs=1e-12)
        assert abs(doc["discrepancy"]) < 1e-12

    def test_csv(self):
        code, out, _ = run_cli("torsion", "--m", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,Tg,zeta0_prime,discrepancy"


class TestVerifyCommand:
    def test_subset_suite(self):
        code, out, _ = run_cli("verify", "--suite", "quadrature")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_rejected(self):
        code, *_ = run_cli("verify", "--suite", "nope")
        assert code == 2


class TestExitCodes:
    def test_numerical_failure_exits_3(self, monkeypatch):
        from zetacan.numerics import BracketError

        def boom(*a, **k):
            raise BracketError("forced failure")

        monkeypatch.setattr("zetacan.cli.besselx.zeros", boom)
        assert cli.main(["spectrum", "--m", "0", "--n-max", "1",
                         "--k-max", "1"]) == 3

    def test_config_error_exits_2(self, capsys):
        assert cli.main(["zeta", "--m", "-2"]) == 2


class TestImports:
    @pytest.mark.parametrize("argv", [
        ["zeta", "--m", "0"],
        ["spectrum", "--m", "2", "--n-max", "2", "--k-max", "3"],
        ["torsion", "--m", "6"],
        ["verify", "--suite", "all"],
    ])
    def test_command_does_not_import_scipy(self, argv):
        code = ("import sys; from zetacan.cli import main; rc = main(sys.argv[1:]); "
                "sys.stderr.write(repr(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))); sys.exit(rc)")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == "[]"


class TestSerialization:
    def test_float_17_digits(self):
        assert cli.dumps({"x": 1.0 / 3.0}) == '{"x": 0.33333333333333331}'

    def test_nesting_and_types(self):
        doc = {"a": [1, 2.5, None, True], "b": {"c": "s"}}
        assert cli.dumps(doc) == '{"a": [1, 2.5, null, true], "b": {"c": "s"}}'

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli("zeta", "--m", "0", "--out", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["kind"] == "zeta"
