"""Seeded command blocks for the benchmark workloads.

A workload is an endless sequence of *passes*.  A pass is one block of
`zetacan` command lines (argument lists, without the program name) drawn
from a `random.Random` seeded by the workload name and the run's seed, so
the same seed always yields the same commands.  `run.py` runs whole passes
back to back.

Every pass of a workload asks for nearly the same work whatever the seed,
so run-to-run spread measures the program and the machine, not the draw.
`run.py` starts another pass only while the run is expected to end within
its `--seconds`, judged by the longest pass so far.
"""

from __future__ import annotations

import random

# spectrum_cold cells (n_max, k_max, m).  Together they span n_max in
# [4, 20], k_max in [10, 50] and m in [0, 32], with odd and even m and the
# factorized m = 0 path.  The cells are fixed: moving m by one in the
# (20, 50) cell moved its time by 20%.  Each cell takes about 2.5 s, so
# the median and tail of a run's command times are not a jump between two
# cells' times, and a pass is short enough that a run holds several.  The
# seed picks each command's output format (JSON or CSV) and the order.
# Each command is a fresh process, so its J-zero tables start empty.
SPECTRUM_CELLS = ((20, 10, 0), (4, 50, 30), (12, 30, 17))

# reports: M is uniform on [0, 64], stratified into this many equal strata
# per command kind, one draw per stratum per pass.
REPORT_STRATA = 16
M_MAX_REPORTS = 64

# verify_all: identical `verify --suite all` processes per pass.
VERIFY_REPEATS = 2
VERIFY_CHECKS = 85        # checks printed by "verify --suite all"


def spectrum_cold(rng: random.Random) -> list:
    cmds = [["spectrum", "--m", str(m), "--n-max", str(n_max),
             "--k-max", str(k_max), "--format", rng.choice(("json", "csv"))]
            for n_max, k_max, m in SPECTRUM_CELLS]
    rng.shuffle(cmds)
    return cmds


def reports(rng: random.Random) -> list:
    cmds = []
    width = (M_MAX_REPORTS + 1) / REPORT_STRATA
    for i in range(REPORT_STRATA):
        m = int((i + rng.random()) * width)
        cmds.append(["zeta", "--m", str(m), "--check-routes", "profile,contour"])
    for i in range(REPORT_STRATA):
        m = int((i + rng.random()) * width)
        cmds.append(["torsion", "--m", str(m)])
    rng.shuffle(cmds)
    return cmds


def verify_all(rng: random.Random) -> list:
    return [["verify", "--suite", "all"]] * VERIFY_REPEATS


def work_units(argv) -> int:
    """Units of work one command asks for: zeros, reports or checks."""
    if argv[0] == "spectrum":
        return int(argv[argv.index("--n-max") + 1]) * int(argv[argv.index("--k-max") + 1])
    if argv[0] == "verify":
        return VERIFY_CHECKS
    return 1


# name -> (pass generator, unit of work)
WORKLOADS = {
    "spectrum_cold": (spectrum_cold, "zeros"),
    "reports": (reports, "reports"),
    "verify_all": (verify_all, "checks"),
}


def passes(workload: str, seed: int):
    """Yield the workload's passes for this seed, forever."""
    make, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield make(rng)
