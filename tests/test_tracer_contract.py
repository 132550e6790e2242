"""The benchmark tracer's view of the package.

``perfbench/tracer.py`` wraps the functions named in its ``TRACED`` table and
the entries of ``verify.SUITES`` by name.  A rename or deletion of one of
them would break only the traced benchmark run, so this test pins the names.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from zetacan import verify

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


@pytest.mark.parametrize("mod", sorted(tracer.TRACED))
def test_traced_names_exist(mod):
    home = importlib.import_module(f"zetacan.{mod}")
    missing = [name for name in tracer.TRACED[mod]
               if not callable(getattr(home, name, None))]
    assert not missing, f"zetacan.{mod} lacks {missing}"


def test_traced_suites_are_the_verify_suites():
    assert tracer.SUITES == tuple(verify.SUITES)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--m", "17", "--n-max", "4", "--k-max", "10", "--format", "csv"],
    ["zeta", "--m", "10", "--check-routes", "profile,contour"],
    ["torsion", "--m", "6"],
    ["verify", "--suite", "all"],
], ids=["spectrum_cold", "reports-zeta", "reports-torsion", "verify_all"])
def test_traced_stdout_is_untraced_stdout(argv, tmp_path):
    # one command of each benchmark workload, traced and untraced, each in a
    # fresh process: tracing may add spans, never change what is printed
    traced = subprocess.run([sys.executable, str(TRACER_PATH), str(tmp_path / "s.npz"),
                             *argv], capture_output=True)
    plain = subprocess.run([sys.executable, "-m", "zetacan.cli", *argv],
                           capture_output=True)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout and plain.stdout
    assert (tmp_path / "s.npz").exists()
