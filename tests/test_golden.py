"""Golden CLI outputs: spectrum tables, zeta (profile and contour
cross-checks) and torsion reports, and the verify verdicts.

``golden/reports.json`` holds stdout, exit code and the stderr error class
("configuration error", "numerical failure") of ``zeta --m M
--check-routes profile,contour`` and ``torsion --m M`` for M in
{0, 1, 6, 17, 24, 40, 58, 59}, captured from the CLI before the J kernel
and zero solvers were rewritten.  The known failure (profile not certified
from M = 24) must keep failing the same way, and every reported value must
stay where it was.  ``torsion --m 59`` overflowed until the torsion
integrals moved onto [0, 1]; its entry holds the report it prints since.

``golden/spectrum_m{M}.{csv,json}`` hold the exact stdout of ``spectrum --m M
--n-max 6 --k-max 8`` for M in {0, 1, 2, 17, 30}, compared byte for byte.
``golden/verify_all.txt`` holds the 85 verdicts and check names of ``verify
--suite all``; the ``err=`` details are left out, since they may move in the
last digits when an implementation is merged or reordered.
"""

import json
from pathlib import Path

import pytest

from zetacan import cli

DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((DIR / "reports.json").read_text())

# |route - closed|: differences of O(1) values, compared in absolute terms
DIFFERENCES = ("discrepancies", "discrepancy")


def _assert_close(got, want, path, absolute=False):
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for k in want:
            _assert_close(got[k], want[k], f"{path}.{k}", absolute or k in DIFFERENCES)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]", absolute)
    elif isinstance(want, float):
        assert isinstance(got, float), path
        if absolute:
            assert got == pytest.approx(want, rel=0.0, abs=1e-12), path
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want and type(got) is type(want), path


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_report_matches_golden(case, capsys):
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["returncode"]
    assert (err.split(":")[0] if err else None) == case["error"]
    if case["stdout"]:
        _assert_close(json.loads(out), json.loads(case["stdout"]), "$")
    else:
        assert out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("m", [0, 1, 2, 17, 30])
def test_spectrum_matches_golden(m, fmt, capsys):
    code = cli.main(["spectrum", "--m", str(m), "--n-max", "6", "--k-max", "8",
                     "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == (DIR / f"spectrum_m{m}.{fmt}").read_bytes().decode()


def test_verify_verdicts_match_golden(capsys):
    code = cli.main(["verify", "--suite", "all"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "85/85 checks passed"
    verdicts = [line.split("  [")[0] for line in lines[:-1]]
    assert verdicts == (DIR / "verify_all.txt").read_text().splitlines()
