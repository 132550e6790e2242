"""The benchmark oracle's verdict on the ``spectrum_cold`` commands.

``perfbench/oracle.py`` checks every benchmark command's output against
scipy, sharing no code with zetacan.  No golden covers the exact cells of
the ``spectrum_cold`` workload, so this test runs each of them in process,
in both output formats, and asks the oracle for its verdict.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from zetacan import besselx, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))  # the oracle imports its sibling ``workloads``
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(PERFBENCH))
    return mod


workloads, oracle = _load("workloads"), _load("oracle")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n_max,k_max,m", workloads.SPECTRUM_CELLS)
def test_spectrum_cold_cell_passes_the_oracle(n_max, k_max, m, fmt, monkeypatch, capsys):
    argv = ["spectrum", "--m", str(m), "--n-max", str(n_max), "--k-max", str(k_max),
            "--format", fmt]
    monkeypatch.setattr(besselx, "_SEQUENCES", {})  # solve, as a fresh process does
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert oracle.check(argv, code, out.encode(), err.encode()) == (False, [])
