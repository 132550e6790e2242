"""Golden CLI outputs: spectrum tables, zeta (profile and contour
cross-checks) and torsion reports, and the verify verdicts.

``golden/reports.json`` holds stdout, exit code and the stderr error class
("configuration error", "numerical failure") of ``zeta --m M
--check-routes profile,contour``, of ``zeta --m M --route contour`` and of
``torsion --m M`` for every M in 0..64.  The ``--check-routes`` and torsion
entries for M in {0, 1, 6, 17, 24, 40, 58, 59} were captured from the CLI
before the J kernel and zero solvers were rewritten, the other
``--check-routes`` entries before the modified Bessel I side took arrays,
the other torsion entries before the J kernel's Miller loop stopped
allocating, and the ``--route contour`` entries before each m's route
values came from one call.  The ``--check-routes`` entries for M in 0..24
were re-captured when the profile fit pinned d, a and c1 to their closed
values: the profile route moved to within 1.3e-7 of the closed value
(within 6.9e-9 through M = 17), and M = 24 certifies.  The known failure
(profile not certified from M = 25) kept failing the same way until the
re-capture below, and every reported value must stay where it was.
``torsion --m 59`` overflowed until the torsion integrals moved onto
[0, 1]; its entry holds the report it prints since.

``golden/spectrum_m{M}.{csv,json}`` hold the exact stdout of ``spectrum --m M
--n-max 6 --k-max 8`` for M in {0, 1, 2, 17, 30}, compared byte for byte.
``golden/zeta_contour_m{M}.csv`` and ``golden/torsion_m{M}.csv`` hold the
exact stdout of ``zeta --m M --route contour --format csv`` and ``torsion
--m M --format csv`` for M in {0, 1, 6, 24, 64}, compared byte for byte.
The ``zeta_contour`` CSV files and the ``zeta --m 64 --route contour``
entry of ``reports.json`` were re-captured when complex points of the J
kernel began to start their recurrence at their own index, which moved
contour-route values in the last bits (by at most 1.8e-12 in zeta'(0), at
M = 64); the other contour entries stay within 1e-12 of their capture.
The M = 0, 1, 6 and 24 contour CSV files and ``spectrum_m30`` were
re-captured again when large arguments of the J kernel moved to Hankel's
expansion: zeta'(0) moved by at most 2.5e-13 (M = 6), and one lambda of
``spectrum_m30`` moved by 1 ulp, onto the correctly rounded zero.
The M = 24 and 64 contour CSV files and 145 of the 195 ``reports.json``
entries were re-captured when Gauss-Legendre rules came to be computed in
plain floats and the contour's truncation radius came to grow with M
(25 (M + 1), clipped to [240, 720]): every torsion entry whose
``Tg_quadrature`` moved (now within 1.6e-13 of the closed value through
M = 64), and every contour value from M = 9 on, now within 1e-6 of the
closed value through M = 30 and 7.5e-6 at M = 64 (2.1e-3 before).  The
contour entries for M <= 8 moved by at most 2.3e-13.
The M = 0, 1, 6, 24 and 64 contour CSV files and the ``zeta`` entries
for M in 2..64 were re-captured when every order of one M came to share
one contour vertex and the profile fit moved to the window [s, 10 s]: the
contour value moved by at most 2.9e-7 (M = 64), staying within 0.96 to
1.03 times its distance from the closed value; the profile value is within
6.5e-10 of the closed value for every M <= 64; and the ``--check-routes``
commands for M >= 25, which exited 3 with an uncertified profile, now
exit 0.
``spectrum_m{1,2,17,30}``, the M = 24 contour CSV file and the ``zeta``
entries for M in {43, 48, 52, 55, 61} were re-captured when every
cross-product zero came to be bracketed between consecutive factor zeros:
44 lambdas moved by at most 2.4e-16 relative, and the contour value by at
most 5.1e-12, each distance from the closed value unchanged to 5 digits.
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


@pytest.mark.parametrize("m", [0, 1, 6, 24, 64])
@pytest.mark.parametrize("name,argv", [
    ("zeta_contour", ["zeta", "--route", "contour"]), ("torsion", ["torsion"])])
def test_csv_report_matches_golden(name, argv, m, capsys):
    code = cli.main(argv + ["--m", str(m), "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == (DIR / f"{name}_m{m}.csv").read_bytes().decode()


def test_verify_verdicts_match_golden(capsys):
    code = cli.main(["verify", "--suite", "all"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "85/85 checks passed"
    verdicts = [line.split("  [")[0] for line in lines[:-1]]
    assert verdicts == (DIR / "verify_all.txt").read_text().splitlines()
