"""zetacan benchmark: CLI wall time per workload, and per-layer time from traces.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--record F]
    python3 perfbench/run.py all [--seed N] [--seconds S] [--record F]
    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

Run from the root of a source checkout.  Each command of a workload runs as
a fresh `zetacan` process (`python3 -c "from zetacan.cli import main ..."`
with `PYTHONPATH=src`), one at a time, in a closed loop with no think time.
Whole passes of the workload (see workloads.py) run while the run is expected
to end within `--seconds`.  Every 2 s a fixed calibration loop gauges the
CPU's speed, with the running command stopped meanwhile; each time metric is
also given scaled to a reference speed (the `_norm` metrics).  Outputs are
checked by oracle.py after the timed loop.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs every command
twice, untraced and under tracer.py, compares the two stdouts byte for byte
and reports the per-layer metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CLI = "import sys; from zetacan.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
HARD_CAP_S = 150.0        # stop starting commands after this, whatever --seconds says
NOTE = ("CPU frequency is not pinned and OS caches are not dropped: the "
        "sandbox forbids changing machine settings.")
# The calibration loop takes CALIB_REF_S on the reference machine (2 vCPUs
# of an Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17).  It runs every
# CALIB_EVERY_S: the speed it samples changes within seconds.
CALIB_REF_S = 0.100
CALIB_EVERY_S = 1.0
_CALIB_X = np.linspace(0.5, 40.0, 4096)
UNITS = {"setup_s": "s", "calib_s": "s", "peak_rss_mb": "MB",
         "wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s", "work_per_s": "1/s",
         "wall_norm_s": "s", "cmd_p50_norm_s": "s", "cmd_tail_norm_s": "s",
         "work_norm_per_s": "1/s"}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "platform": platform.platform(),
            "commit": _git_commit(), "seed": seed, "note": NOTE}


# ----------------------------------------------------------------------
# Running commands
# ----------------------------------------------------------------------

def _child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ZETACAN_THREADS", None)   # the default single-threaded CLI
    return env


def run_command(argv, timeout, spans=None, calib=None):
    """(wall_s, returncode, stdout, stderr); traced when `spans` is a path.

    With a Calibrator, a calibration that falls due while the command runs
    is made with the command stopped (SIGSTOP, then SIGCONT), on the CPU it
    runs on; the stopped time is not part of its wall time.
    """
    head = [sys.executable, str(HERE / "tracer.py"), str(spans)] if spans \
        else [sys.executable, "-c", CLI]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        end = t0 + max(1.0, timeout)
        p = subprocess.Popen(head + list(argv), cwd=ROOT, env=_child_env(),
                             stdout=out, stderr=err)
        rc, paused = None, 0.0
        while rc is None:
            until = min(end, calib.due()) if calib else end
            try:
                rc = p.wait(timeout=max(0.0, until - time.perf_counter()))
            except subprocess.TimeoutExpired:
                if time.perf_counter() >= end:
                    p.kill()
                    p.wait()
                    out.seek(0)
                    return (time.perf_counter() - t0 - paused, None, out.read(),
                            f"timed out after {timeout:.0f} s".encode())
                if calib and time.perf_counter() >= calib.due():
                    paused += calib.run_stopping(p)
        wall = time.perf_counter() - t0 - paused
        out.seek(0)
        err.seek(0)
        return wall, rc, out.read(), err.read()


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of scalar and vector
    `scipy.special.jv` calls, the kind of work zetacan does.  On a shared
    host a CPU's speed changes by 15-35% within seconds to minutes, and this
    loop's time follows it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += special.jv(i % 17, 1.0 + (i % 97) * 0.37)
    for i in range(20):
        acc += float(special.jv(i % 9, _CALIB_X).sum())
    return time.perf_counter() - t0


class Calibrator:
    """Runs `calibrate` every CALIB_EVERY_S and keeps (start, seconds) of
    each run in `runs`."""

    def __init__(self):
        calibrate()                # warm-up, not kept
        self.runs = []
        self.run()

    def run(self):
        self.runs.append((time.perf_counter(), calibrate()))

    def due(self):
        return self.runs[-1][0] + CALIB_EVERY_S

    def run_stopping(self, p):
        """Calibrate with process `p` stopped; returns the seconds it was
        stopped.  If `p` has exited instead, nothing is calibrated."""
        t = time.perf_counter()
        p.send_signal(signal.SIGSTOP)      # reaps `p` instead if it has exited
        if p.returncode is not None:
            return time.perf_counter() - t
        info = os.waitid(os.P_PID, p.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
        if info.si_code == os.CLD_STOPPED:
            self.run()
        p.send_signal(signal.SIGCONT)
        return time.perf_counter() - t

    def factors(self, ops):
        """Per command, CALIB_REF_S over the mean of the calibrations made
        just before it, while it was stopped, and just after it: the factor
        that scales its wall time to the reference machine's speed."""
        out = []
        for op in ops:
            before = [c for t, c in self.runs if t <= op["t0"]][-1:]
            during = [c for t, c in self.runs if op["t0"] < t < op["t1"]]
            after = [c for t, c in self.runs if t >= op["t1"]][:1]
            out.append(CALIB_REF_S / statistics.fmean(before + during + after))
        return out


def _median_quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, q1, q3


def tail(walls):
    """(value, percentile, n): the highest percentile with >= 10 samples above
    it, once there are 20 samples (so it is at least the median).  Below 20
    samples, a quarter of them above it, rounded down: the maximum below 4."""
    xs = sorted(walls)
    n = len(xs)
    k = 10 if n >= 20 else n // 4
    return xs[n - 1 - k], 100.0 * (n - k) / n, n


def run_workload(workload, seed, seconds, traced):
    """Run one workload; returns the result record (see README.md)."""
    # One CPU for this process and every command: each vCPU of a shared host
    # speeds up and slows down on its own, and the calibration must run on
    # the CPU the commands run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    deadline = time.perf_counter() + HARD_CAP_S
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        setup = []
        if not traced:
            for _ in range(SETUP_REPEATS):
                wall, rc, _, err = run_command(["--help"], 60.0)
                if rc != 0:
                    raise RuntimeError(f"zetacan --help exited {rc}: {err[-300:]!r}")
                setup.append(wall)
        calib = None if traced else Calibrator()
        t_start = time.perf_counter()
        ops, pass_walls, span_files, traced_wall = [], [], [], 0.0
        for block in workloads.passes(workload, seed):
            elapsed = time.perf_counter() - t_start
            if pass_walls and elapsed + max(pass_walls) > seconds:
                break
            t_pass = time.perf_counter()
            for argv in block:
                if time.perf_counter() >= deadline:
                    break
                t0 = time.perf_counter()
                wall, rc, out, err = run_command(argv, deadline - t0, calib=calib)
                op = {"argv": argv, "wall": wall, "rc": rc, "out": out, "err": err,
                      "t0": t0, "t1": time.perf_counter(), "pass": len(pass_walls)}
                if traced:
                    spans = scratch / f"spans{len(ops)}.npz"
                    twall, trc, tout, _ = run_command(
                        argv, deadline - time.perf_counter(), spans)
                    op["traced"] = (trc, tout)
                    if spans.is_file():
                        span_files.append(spans)
                    traced_wall += twall
                elif time.perf_counter() >= calib.due():
                    calib.run()
                ops.append(op)
            else:
                pass_walls.append(time.perf_counter() - t_pass)
                continue
            print(f"# hard cap of {HARD_CAP_S:.0f} s reached: pass cut short")
            break
        if calib and ops and calib.runs[-1][0] < ops[-1]["t1"]:
            calib.run()
        result = _evaluate(workload, ops)
        if traced:
            metrics = tracer.layer_metrics(
                span_files, max(1, len(pass_walls)), traced_wall,
                traced_wall - sum(op["wall"] for op in ops))
        else:
            metrics = _end_to_end(workload, ops, len(pass_walls), setup, calib)
            result["calibrations_s"] = [c for _, c in calib.runs]
        result["metrics_all"] = metrics
        result["passes"] = len(pass_walls)
        result["cpu"] = cpu
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _evaluate(workload, ops):
    """Oracle verdicts, outside the timed loop."""
    wrong_any, failures = False, []
    for op in ops:
        wrong, reasons = oracle.check(op["argv"], op["rc"], op["out"], op["err"])
        if "traced" in op and op["traced"] != (op["rc"], op["out"]):
            trc = op["traced"][0]
            reasons = reasons + [f"traced run exits {trc}, untraced {op['rc']}"
                                 if trc != op["rc"] else
                                 "traced stdout differs from untraced stdout"]
        op["ok"] = not reasons
        wrong_any |= wrong
        if reasons:
            failures.append({"cmd": "zetacan " + " ".join(op["argv"]),
                             "reasons": reasons})
    for f in failures:
        print(f"FAIL {f['cmd']}: {'; '.join(f['reasons'])}")
    return {"workload": workload, "correct": not wrong_any, "attempted": len(ops),
            "failed": len(failures), "failures": failures,
            "commands": [[" ".join(op["argv"]), op["wall"], op["rc"]] for op in ops]}


def _end_to_end(workload, ops, passes, setup, calib):
    """Raw wall-time metrics, and the same scaled to the reference speed."""
    for op, f in zip(ops, calib.factors(ops)):
        op["norm"] = op["wall"] * f
    work = sum(workloads.work_units(op["argv"]) for op in ops if op["rc"] == 0)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    unit = workloads.WORKLOADS[workload][1]
    failed = sum(not op["ok"] for op in ops)
    _, pct, n = tail([op["wall"] for op in ops])
    print(f"# cmd_tail_s is p{pct:.1f} of {n} command wall times; "
          f"{passes} whole passes")
    print(f"# work_per_s counts {unit}; fail_share = {failed}/{len(ops)} = "
          f"{failed / len(ops):.3f}")
    vals = {"setup_s": statistics.median(setup),
            "calib_s": statistics.median(c for _, c in calib.runs),
            "peak_rss_mb": rss}
    for key, suffix in (("wall", ""), ("norm", "_norm")):
        walls = [op[key] for op in ops]
        per_pass = [sum(op[key] for op in ops if op["pass"] == i)
                    for i in range(passes)]
        vals[f"wall{suffix}_s"] = statistics.median(per_pass or [sum(walls)])
        vals[f"cmd_p50{suffix}_s"] = statistics.median(walls)
        vals[f"cmd_tail{suffix}_s"] = tail(walls)[0]
        vals[f"work{suffix}_per_s"] = work / sum(walls)
    return {k: (v, UNITS[k]) for k, v in vals.items()}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def _print_metrics(metrics, prefix=""):
    for name, (value, unit) in metrics.items():
        print(f"{prefix}{name:<48} {value:>16.6g} {unit}")


def _record(path, record):
    if path:
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")


def contract(args):
    bench = spec()
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    env = environment(args.seed)
    print("# env " + json.dumps(env))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_metrics(res["metrics_all"], "# ")
    _record(args.record, {"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace,
                          "env": env, **res})
    metrics = {n: {"value": res["metrics_all"][n][0], "unit": res["metrics_all"][n][1]}
               for n in declared}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each run in its own process."""
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    for w in bench["workloads"]:
        for trace in (0, 1):
            kind = "per-layer metrics (traced run)" if trace else "end-to-end metrics"
            print(f"\n== {w['name']}: {kind}, seed {args.seed}, {seconds} s", flush=True)
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            if args.record:
                cmd += ["--record", str(Path(args.record).resolve())]
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                return 1
    return 0


def compare(args):
    """Medians, quartiles and the pairs-rule verdict per workload and metric."""
    bench = spec()
    sides = []
    for path in (args.parent, args.change):
        runs = {}
        for line in Path(path).read_text().splitlines():
            r = json.loads(line)
            if r["trace"] == 0:
                runs.setdefault(r["workload"], []).append(r)
        sides.append(runs)
    print(f"{'workload':<14} {'metric':<12} {'parent med [q1,q3]':>30} "
          f"{'change med [q1,q3]':>30} {'wins':>7}  verdict")
    for w in sorted(set(sides[0]) & set(sides[1])):
        a_runs, b_runs = sides[0][w], sides[1][w]
        b_by_seed = {r["seed"]: r for r in b_runs}
        if all(r["seed"] in b_by_seed for r in a_runs):
            pairs = [(r, b_by_seed[r["seed"]]) for r in a_runs]
        else:
            pairs = list(zip(a_runs, b_runs))
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = [r["metrics_all"][name][0] for r in a_runs]
            b = [r["metrics_all"][name][0] for r in b_runs]
            ma, qa1, qa3 = _median_quartiles(a)
            mb, qb1, qb3 = _median_quartiles(b)
            sign = -1.0 if lower else 1.0      # sign * (change - parent) > 0: better
            wins = sum(sign * (rb["metrics_all"][name][0] - ra["metrics_all"][name][0]) > 0
                       for ra, rb in pairs)
            worse_share = -sign * (mb - ma) / ma if ma else 0.0
            all_better = min(sign * x for x in b) > max(sign * x for x in a)
            spread = (qa3 - qa1) / ma if ma else 0.0
            if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and sign * (mb - ma) > qa3 - qa1):
                verdict = "gain"
            elif spread > bound and not all_better:
                verdict = f"unresolved (parent spread {spread:.2f} > bound {bound})"
            elif worse_share > bound:
                verdict = f"regression ({worse_share:.1%} worse > bound {bound:.0%})"
            else:
                verdict = (f"within bound ({worse_share:.1%} worse)" if worse_share > 0
                           else f"within bound ({-worse_share:.1%} better)")
            if len(pairs) < 10:
                verdict += f"; only {len(pairs)} pairs, a gain needs 10"
            print(f"{w:<14} {name:<12} {ma:>11.4g} [{qa1:.4g},{qa3:.4g}]"
                  f"{'':>2} {mb:>11.4g} [{qb1:.4g},{qb3:.4g}]  "
                  f"{wins:>3}/{len(pairs):<3}  {verdict}")
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "zetacan" / "cli.py").is_file():
        print(f"no zetacan sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        return compare(p.parse_args(argv[1:]))
    if argv[:1] == ["all"]:
        p = argparse.ArgumentParser(prog="run.py all")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=0)
        p.add_argument("--record")
        return run_all(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record")
    return contract(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
