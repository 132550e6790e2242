import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetacan import besselx, cli, verify


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
        code, _, err = run_cli("verify", "--suite", "nope")
        assert code == 2
        assert all(repr(name) in err for name in verify.SUITES)

    def test_format_option_rejected(self, capsys):
        assert cli.main(["verify", "--suite", "quadrature", "--format", "csv"]) == 2
        assert "--format" in capsys.readouterr().err


class TestVerifyZeroTables:
    """A command solves its zeros in one batch, which builds the J and J'
    zero tables once each, to the union of what the batch reads; run_suite
    makes that batch for the selected suites, and no suite reads past it."""

    @staticmethod
    def _run(monkeypatch, suite):
        builds, solves = [], []
        build, newton = besselx._build_zero_table, besselx.newton_brackets
        monkeypatch.setattr(besselx, "_SEQUENCES", {})
        monkeypatch.setattr(besselx, "_build_zero_table",
                            lambda *a: builds.append(a) or build(*a))
        monkeypatch.setattr(besselx, "newton_brackets",
                            lambda *a, **k: solves.append(a) or newton(*a, **k))
        results = verify.run_suite(suite)
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]
        return builds, solves

    def test_all_builds_each_table_once(self, monkeypatch):
        builds, solves = self._run(monkeypatch, "all")
        assert builds == [("j", 22, 61), ("jp", 14, 61)]
        # two table builds, and one lockstep solve of every generic pair
        assert len(solves) == 3

    def test_all_solves_its_zeros_in_one_batch(self, monkeypatch):
        batches = []
        solve = besselx._solve_sequences
        monkeypatch.setattr(besselx, "_solve_sequences",
                            lambda keys: batches.append(keys) or solve(keys))
        self._run(monkeypatch, "all")
        assert len(batches) == 1
        assert {K for *_, K in batches[0]} == {1, 10, 50, 60}

    def test_interlacing_builds_each_table_once(self, monkeypatch):
        builds, _ = self._run(monkeypatch, "interlacing")
        assert builds == [("j", 22, 51), ("jp", 10, 51)]

    @pytest.mark.parametrize("argv,want", [
        (["spectrum", "--m", "0", "--n-max", "20", "--k-max", "10"],
         [("j", 19, 11), ("jp", 19, 11)]),
        (["spectrum", "--m", "30", "--n-max", "4", "--k-max", "50"], [("j", 30, 51)]),
        (["spectrum", "--m", "17", "--n-max", "12", "--k-max", "30"], [("j", 20, 31)]),
        (["zeta", "--m", "40", "--check-routes", "profile,contour"], [("j", 41, 2)]),
    ], ids=["spectrum-20-10-0", "spectrum-4-50-30", "spectrum-12-30-17", "zeta-40"])
    def test_command_builds_each_table_once(self, argv, want, monkeypatch, capsys):
        batches, builds = [], []
        solve, build = besselx._solve_sequences, besselx._build_zero_table
        monkeypatch.setattr(besselx, "_SEQUENCES", {})
        monkeypatch.setattr(besselx, "_solve_sequences",
                            lambda keys: batches.append(keys) or solve(keys))
        monkeypatch.setattr(besselx, "_build_zero_table",
                            lambda *a: builds.append(a) or build(*a))
        assert cli.main(argv) == 0 and capsys.readouterr().out
        assert len(batches) == 1
        assert builds == want


def test_routes_suite_samples_each_twist_degree_once(monkeypatch):
    # run_suite samples the spectral sums' orders of m = 0 and 1 in one
    # complex kernel pass each, and the route checks of m = 0, 1 and 2 read
    # the low orders' rows from them (m = 2 takes one pass of its own)
    from zetacan import zetareg

    calls = []
    kernel = zetareg.bessel_j_complex_many
    monkeypatch.setattr(zetareg, "bessel_j_complex_many",
                        lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(zetareg, "_CONTOUR_SAMPLES", {})
    assert all(r.passed for r in verify.run_suite("routes"))
    assert len(calls) == 3


class TestExitCodes:
    @pytest.mark.parametrize("error", ["BracketError", "QuadratureError", "FitError"])
    def test_numerical_failure_exits_3(self, error, monkeypatch):
        # cli maps every numerical failure to exit 3 through ArithmeticError
        from zetacan import numerics

        cls = getattr(numerics, error)
        assert issubclass(cls, ArithmeticError)

        def boom(*a, **k):
            raise cls("forced failure")

        monkeypatch.setattr("zetacan.cli.besselx.zero_sequences", boom)
        assert cli.main(["spectrum", "--m", "0", "--n-max", "1",
                         "--k-max", "1"]) == 3

    @pytest.mark.parametrize("m,code", [(183, 0), (184, 3)])
    def test_spectrum_range_edge(self, m, code, capsys):
        # from m = 184, L_m underflows to 0 at the first factor zero
        assert cli.main(["spectrum", "--m", str(m), "--n-max", "3", "--k-max", "5"]) == code
        assert ("numerical failure" in capsys.readouterr().err) == (code == 3)

    def test_non_finite_contour_exits_3(self, monkeypatch, capsys):
        from zetacan import zetareg

        def nan_kernel(n_max, z, orders):
            return np.full(np.broadcast_shapes(orders.shape, z.shape), np.nan + 0j)

        monkeypatch.setattr(zetareg, "bessel_j_complex_many", nan_kernel)
        zetareg._CONTOUR_SAMPLES.clear()
        try:
            code = cli.main(["zeta", "--m", "1", "--route", "contour"])
        finally:
            zetareg._CONTOUR_SAMPLES.clear()
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_config_error_exits_2(self, capsys):
        assert cli.main(["zeta", "--m", "-2"]) == 2

    def test_unwritable_out_exits_2(self, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli("torsion", "--m", "1", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["torsion", "--m", "6"],
        ["zeta", "--m", "3"],
    ])
    def test_command_does_not_load_numpy(self, argv):
        # numpy is registered lazily by the package: a command that needs no
        # array must not load it
        code = ("import sys; from zetacan.cli import main; rc = main(sys.argv[1:]); "
                "sys.stderr.write(repr('numpy._core' in sys.modules)); sys.exit(rc)")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == "False"

    @pytest.mark.parametrize("argv, executed", [
        (["--help"], []),
        (["torsion", "--m", "6"], ["special", "numerics", "torsion"]),
        (["spectrum", "--m", "2", "--n-max", "2", "--k-max", "3"],
         ["special", "numerics", "besselx"]),
        (["zeta", "--m", "3", "--check-routes", "profile,contour"],
         ["special", "numerics", "besselx", "zetareg"]),
        (["verify", "--suite", "all"],
         ["special", "numerics", "besselx", "zetareg", "torsion", "verify"]),
    ])
    def test_command_executes_only_its_modules(self, argv, executed):
        # the package registers its modules lazily; one that has not executed
        # is not yet a plain module, and the type check does not execute it
        code = ("import sys, types; from zetacan.cli import main; rc = main(sys.argv[1:]); "
                "sys.stderr.write(' '.join(sorted(n for n, m in sys.modules.items() "
                "if n.split('.')[0] == 'zetacan' and type(m) is types.ModuleType))); "
                "sys.exit(rc)")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr.split() == sorted(
            ["zetacan", "zetacan.cli"] + [f"zetacan.{m}" for m in executed])

    @pytest.mark.parametrize("argv, absent", [
        (["--help"], ["dataclasses", "inspect"]),
        (["torsion", "--m", "6"], ["dataclasses", "inspect"]),
        (["spectrum", "--m", "2", "--n-max", "2", "--k-max", "3"], ["dataclasses"]),
        (["zeta", "--m", "3", "--check-routes", "profile,contour"], ["dataclasses"]),
        (["verify", "--suite", "all"], ["dataclasses"]),
    ])
    def test_command_does_not_load_dataclasses(self, argv, absent):
        # the records are NamedTuples; numpy imports inspect itself, so only
        # the commands that load no numpy are asked not to load inspect
        code = ("import sys; from zetacan.cli import main; rc = main(sys.argv[1:]); "
                f"sys.stderr.write(' '.join(m for m in {absent!r} if m in sys.modules)); "
                "sys.exit(rc)")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv, rc", [
        (["--help"], 0),
        (["torsion", "--m", "6"], 0),
        (["spectrum", "--m", "2", "--n-max", "2", "--k-max", "3"], 0),
        (["zeta", "--m", "3", "--check-routes", "profile,contour"], 0),
        (["verify", "--suite", "all"], 0),
        (["zeta", "--m", "121", "--route", "profile"], 3),
        (["zeta"], 2),
    ])
    def test_main_freezes_the_collector(self, argv, rc):
        # whatever the exit code, main returns with every live object frozen,
        # so the collections at interpreter exit skip them
        code = ("import gc, sys; from zetacan.cli import main; rc = main(sys.argv[1:]); "
                "sys.stderr.write(f'\\n{gc.get_freeze_count() > 0}'); sys.exit(rc)")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == rc
        assert proc.stderr.splitlines()[-1] == "True"

    def test_fresh_process_prints_the_golden_spectrum(self):
        # the goldens run main in process; this one runs to the process's exit
        code = "import sys; from zetacan.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", code, "spectrum", "--m", "2",
                               "--n-max", "6", "--k-max", "8", "--format", "csv"],
                              capture_output=True)
        golden = Path(__file__).parent / "golden" / "spectrum_m2.csv"
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == golden.read_bytes()

    def test_executing_every_module_does_not_load_numpy(self):
        code = ("import sys, types, zetacan.cli, zetacan.special, zetacan.numerics, "
                "zetacan.besselx, zetacan.zetareg, zetacan.torsion, zetacan.verify; "
                "mods = [m for n, m in sys.modules.items() if n.split('.')[0] == 'zetacan']; "
                "sys.stderr.write(repr((len(mods), all(type(m) is types.ModuleType "
                "for m in mods), 'numpy._core' in sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == "(8, True, False)"


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
