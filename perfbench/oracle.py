"""Output checks that share no code with zetacan.

Zeros come from `scipy.special` (`jn_zeros`/`jnp_zeros` brackets plus
`scipy.optimize.brentq` on the cross product built from `jv`); the zeta and
torsion values come from the closed form built from `math.lgamma`.

`check(argv, returncode, stdout, stderr)` returns `(wrong, reasons)`:
`reasons` lists why the operation failed (empty when it passed), and
`wrong` is True when the command printed a wrong answer: zeros, exact
zeta(0), zeta'(0), T_g or verify verdicts that disagree with the oracle.  A
non-zero exit, a FAIL line of `verify`, or a cross-check route value outside
the tolerance that zetacan's own `verify routes` and `verify pipeline`
suites apply fails the operation without making it wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import numpy as np
from scipy import optimize, special

from workloads import VERIFY_CHECKS

# zeta'(-1) = 1/12 - log A, A the Glaisher-Kinkelin constant.
ZETA_PRIME_MINUS_1 = -0.16542114370045092921

ZERO_RTOL = 1e-11         # |lambda - lambda*| <= ZERO_RTOL * max(1, lambda*)
HEADLINE_TOL = 1e-10      # zeta'(0) and T_g ("pipeline: |T_g - zeta'(0)|")
ROUTE_TOL = {"closed": HEADLINE_TOL,
             "profile": 1e-8,     # "routes: profile vs closed (<= 1e-8)"
             "contour": 1e-6}     # "routes: contour vs closed (<= 1e-6)"
QUADRATURE_TOL = 1e-8     # "pipeline: quadrature T_g within 1e-8"


def zeta_prime_closed(m: int) -> float:
    """zeta'(0) = T_g(m) = 4 zeta'(-1) - 1/6 - log((m+2)^(m+1) / ((m+1)!)^2)."""
    return (4.0 * ZETA_PRIME_MINUS_1 - 1.0 / 6.0
            - ((m + 1) * math.log(m + 2.0) - 2.0 * math.lgamma(m + 2.0)))


def zeta0_exact(m: int) -> Fraction:
    return Fraction(-2, 3) - Fraction(m, 2)


# ----------------------------------------------------------------------
# Cross-product zeros from scipy
# ----------------------------------------------------------------------

def canonical_orders(m: int, count: int) -> list:
    """[(order, multiplicity)]: the low orders up to m/2, then m+1, m+2, ..."""
    if m % 2 == 0:
        low = [(nu, 2) for nu in range(m // 2)] + [(m // 2, 1)]
    else:
        low = [(nu, 2) for nu in range((m + 1) // 2)]
    high = [(m + 1 + i, 2) for i in range(max(0, count - len(low)))]
    return (low + high)[:count]


_ZEROS: dict = {}


def cross_zeros(nu: int, m: int, K: int) -> np.ndarray:
    """First K positive zeros of L_nu = -J_nu J_{nu-m-1} + J_{nu+1} J_{nu-m}."""
    nu = max(nu, m - nu)
    key = (nu, m)
    have = _ZEROS.get(key)
    if have is not None and len(have) >= K:
        return have[:K]
    if m == 0:                      # L = -2 J_nu J_nu'
        z = np.concatenate([special.jn_zeros(nu, K), special.jnp_zeros(nu, K)])
    elif 2 * nu == m:               # L = +-2 J_nu J_{nu+1}
        z = np.concatenate([special.jn_zeros(nu, K), special.jn_zeros(nu + 1, K)])
    else:
        z = _bracketed_zeros(nu, m, K)
    z = np.sort(z)[:K]
    _ZEROS[key] = z
    return z


def _bracketed_zeros(nu: int, m: int, K: int) -> np.ndarray:
    # The zeros of L interlace the merged zeros of J_nu and J_{nu-m}: at most
    # one lies below the first merged zero and exactly one in each gap.
    def L(x):
        return (-special.jv(nu, x) * special.jv(nu - m - 1, x)
                + special.jv(nu + 1, x) * special.jv(nu - m, x))

    merged = np.sort(np.concatenate([special.jn_zeros(nu, K + 2),
                                     special.jn_zeros(abs(nu - m), K + 2)]))
    first = np.geomspace(1e-3 * merged[0], merged[0], 65)[:-1]
    xs = np.concatenate([first, merged])
    ys = L(xs)
    keep = ys != 0.0                # L underflows to 0 close to the origin
    xs, ys = xs[keep], ys[keep]
    out = []
    for i in np.nonzero(np.sign(ys[:-1]) != np.sign(ys[1:]))[0]:
        out.append(optimize.brentq(L, xs[i], xs[i + 1], xtol=1e-14,
                                   rtol=4.0 * np.finfo(float).eps))
        if len(out) == K:
            break
    return np.asarray(out)


# ----------------------------------------------------------------------
# Per-command checks
# ----------------------------------------------------------------------

def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _spectrum_rows(fmt, text):
    """[(eigenvalue, n, k, lambda, multiplicity)] and header fields."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["eigenvalue", "m", "n", "k", "lambda", "multiplicity",
                       "residual"]:
            raise ValueError(f"unexpected CSV header {rows[0]}")
        return [(float(r[0]), int(r[2]), int(r[3]), float(r[4]), int(r[5]))
                for r in rows[1:]], None
    doc = json.loads(text)
    return [(e["eigenvalue"], e["n"], e["k"], e["lambda"], e["multiplicity"])
            for e in doc["entries"]], doc


def check_spectrum(argv, text):
    m = int(_opt(argv, "--m"))
    n_max = int(_opt(argv, "--n-max", 20))
    k_max = int(_opt(argv, "--k-max", 50))
    fmt = _opt(argv, "--format", "json")
    rows, doc = _spectrum_rows(fmt, text)
    bad = []
    if doc is not None:
        want = {"schema": "zetacan/1", "kind": "spectrum", "m": m,
                "n_orders": n_max, "k_max": k_max,
                "zero_mode_multiplicity": m + 1}
        bad += [f"{k}={doc.get(k)!r}, want {v!r}" for k, v in want.items()
                if doc.get(k) != v]
    if len(rows) != n_max * k_max:
        bad.append(f"{len(rows)} entries, want {n_max * k_max}")
    orders = dict(canonical_orders(m, n_max))
    by_order: dict = {}
    for ev, n, k, lam, mult in rows:
        by_order.setdefault(n, []).append((k, lam))
        if orders.get(n) != mult:
            bad.append(f"order {n} multiplicity {mult}, want {orders.get(n)}")
        if ev != lam ** 2 / 4.0:
            bad.append(f"eigenvalue {ev!r} != lambda^2/4 for n={n} k={k}")
    if set(by_order) != set(orders):
        bad.append(f"orders {sorted(by_order)}, want {sorted(orders)}")
    evs = [r[0] for r in rows]
    if any(a > b for a, b in zip(evs, evs[1:])):
        bad.append("entries not sorted by eigenvalue")
    for n, pairs in by_order.items():
        pairs.sort()
        if [k for k, _ in pairs] != list(range(1, len(pairs) + 1)):
            bad.append(f"order {n}: k values are not 1..{len(pairs)}")
            continue
        ref = cross_zeros(n, m, len(pairs))
        if len(ref) != len(pairs):
            bad.append(f"order {n}: scipy found {len(ref)} zeros, want {len(pairs)}")
            continue
        lam = np.array([x for _, x in pairs])
        err = np.abs(lam - ref) / np.maximum(1.0, ref)
        if err.max() > ZERO_RTOL:
            k = int(np.argmax(err)) + 1
            bad.append(f"order {n} zero k={k}: {float(lam[k - 1])!r} vs scipy "
                       f"{float(ref[k - 1])!r} (rel {err.max():.1e} > {ZERO_RTOL:.0e})")
    return bool(bad), bad[:5]


def check_zeta(argv, text):
    m = int(_opt(argv, "--m"))
    doc = json.loads(text)
    target = zeta_prime_closed(m)
    exact = zeta0_exact(m)
    wrong = []
    if Fraction(doc["zeta0_exact"]) != exact:
        wrong.append(f"zeta0_exact {doc['zeta0_exact']} != {exact}")
    if doc["zeta0"] != float(exact):
        wrong.append(f"zeta0 {doc['zeta0']!r} != {float(exact)!r}")
    if abs(doc["zeta0_prime"] - target) > HEADLINE_TOL:
        wrong.append(f"zeta'(0) off by {abs(doc['zeta0_prime'] - target):.1e}")
    if abs(doc["det_reg"] - math.exp(-target)) > 1e-9 * math.exp(-target):
        wrong.append("det_reg != exp(-zeta'(0))")
    misses = []
    for route in ("closed",) + tuple(_opt(argv, "--check-routes", "").split(",")):
        if not route:
            continue
        z0, z0p = doc["routes"][route]
        if z0 != float(exact):
            wrong.append(f"route {route} zeta(0) {z0!r} != {float(exact)!r}")
        err = abs(z0p - target)
        if err > ROUTE_TOL[route]:
            (wrong if route == "closed" else misses).append(
                f"route {route} zeta'(0) off by {err:.1e} > {ROUTE_TOL[route]:.0e}")
    return bool(wrong), wrong + misses


def check_torsion(argv, text):
    m = int(_opt(argv, "--m"))
    doc = json.loads(text)
    target = zeta_prime_closed(m)
    wrong = []
    for key in ("Tg", "zeta0_prime"):
        if abs(doc[key] - target) > HEADLINE_TOL:
            wrong.append(f"{key} off by {abs(doc[key] - target):.1e}")
    gram = [Fraction(m + 2, (k + 1) * (m + 1 - k)) for k in range(m + 1)]
    if doc["gram_entries"] != [float(g) for g in gram]:
        wrong.append("gram_entries != (m+2)/((k+1)(m+1-k))")
    det = float(Fraction((m + 2) ** (m + 1), math.factorial(m + 1) ** 2))
    if abs(doc["gram_det"] - det) > 1e-12 * det:
        wrong.append(f"gram_det {doc['gram_det']!r} != {det!r}")
    misses = []
    err = abs(doc["Tg_quadrature"] - target)
    if err > QUADRATURE_TOL:
        misses.append(f"Tg_quadrature off by {err:.1e} > {QUADRATURE_TOL:.0e}")
    return bool(wrong), wrong + misses


_CHECK_LINE = re.compile(r"^(PASS|FAIL)  (.*?)(?:  \[(.*)\])?$")
_ERR_TOL = re.compile(r"err=(\S+) tol=(\S+)")


def check_verify(argv, text):
    lines = text.rstrip("\n").split("\n")
    wrong, fails = [], []
    checks = [_CHECK_LINE.match(line) for line in lines[:-1]]
    if None in checks or len(checks) != VERIFY_CHECKS:
        wrong.append(f"{len(checks)} check lines, want {VERIFY_CHECKS} "
                     "well-formed ones")
        checks = [c for c in checks if c]
    for c in checks:
        verdict, name, detail = c.groups()
        et = _ERR_TOL.search(detail or "")
        if et and verdict == "PASS" and float(et[1]) > float(et[2]):
            wrong.append(f"PASS with err > tol: {name}")
        if verdict == "FAIL":
            fails.append(f"FAIL {name} [{detail}]")
    n_pass = sum(c.group(1) == "PASS" for c in checks)
    if lines[-1] != f"{n_pass}/{len(checks)} checks passed":
        wrong.append(f"summary line {lines[-1]!r} disagrees with the checks")
    return bool(wrong), wrong + fails


CHECKS = {"spectrum": check_spectrum, "zeta": check_zeta,
          "torsion": check_torsion, "verify": check_verify}


def check(argv, returncode, stdout: bytes, stderr: bytes):
    """(wrong, reasons) for one finished command; see the module docstring."""
    reasons = []
    if returncode != 0:
        msg = stderr.decode(errors="replace").strip().splitlines()
        reasons.append(f"exit {returncode}: {msg[-1] if msg else 'no message'}")
        if not stdout:
            return False, reasons
    try:
        wrong, more = CHECKS[argv[0]](argv, stdout.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return True, reasons + [f"unreadable output: {type(exc).__name__}: {exc}"]
    return wrong, reasons + more
