r"""Verification suites: every invariant the package promises, runnable as
one command.  Each check returns a (name, passed, detail) record; the CLI
prints one line per check and exits non-zero when anything fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import besselx, torsion, zetareg
from .besselx import CrossProductSpec
from .numerics import (ContourSpec, adaptive_quad, mellin_contour_zeta,
                       mellin_zeta_critical_values, AsymptoticProfile,
                       fit_asymptotic_profile, zero_tail_sum)
from .special import (EULER_GAMMA, bessel_i_log, bessel_j, bessel_j_many,
                      riemann_zeta, riemann_zeta_prime, stirling_remainder_r2_sum)

__all__ = ["CheckResult", "SUITES", "run_suite", "format_results"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, value, target, tol):
    err = abs(value - target)
    return CheckResult(name, err <= tol, f"err={err:.3e} tol={tol:.1e}")


def _check_true(name, cond, detail=""):
    return CheckResult(name, bool(cond), detail)


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------

def suite_quadrature():
    out = []
    out.append(_check("quad: circle integral -> 2 log 4",
                      4.0 * torsion.base_integral_circle(), 2.0 * math.log(4.0), 1e-10))
    out.append(_check("quad: FS integral -> 4 (1 - log 2)",
                      4.0 * torsion.base_integral_fs(), 4.0 * (1.0 - math.log(2.0)), 1e-10))
    out.append(_check("quad: gaussian -> sqrt(pi)",
                      adaptive_quad(lambda x: np.exp(-x * x), -8.0, 8.0),
                      math.sqrt(math.pi), 1e-10))
    out.append(_check("quad: int_0^1 x dx -> 1/2",
                      adaptive_quad(lambda x: x, 0.0, 1.0), 0.5, 1e-12))
    # incomplete-gamma reduction of the wedge-contour kernel, sampled, with
    # Gamma(1/2, t) = sqrt(pi) erfc(sqrt t), Gamma(3/2, t) = Gamma(1/2, t)/2 + sqrt(t) e^-t
    for a, t in ((0.5, 0.7), (1.5, 1.3)):
        ctr = ContourSpec(c=0.5, truncation_radius=120.0)
        z, w, _ = ctr.ray_nodes()
        lam = z * z
        vals = np.exp(-lam * t) / (-lam) * (1.0 - lam) ** (-a) * 2.0 * z
        lhs = -float(np.sum(w * vals).imag) / math.pi
        upper = math.sqrt(math.pi) * math.erfc(math.sqrt(t))
        if a == 1.5:
            upper = 0.5 * upper + math.sqrt(t) * math.exp(-t)
        rhs = math.sin(math.pi * a) / math.pi * math.gamma(1.0 - a) * upper
        out.append(_check(f"quad: contour kernel = incomplete gamma (a={a})",
                          lhs, rhs, 1e-8))
    return out


def suite_gram():
    out = []
    worst = 0.0
    for m in range(6):
        for k in range(m + 1):
            worst = max(worst, abs(torsion.gram_entry(m, k)
                                   - float(torsion.gram_entry_closed(m, k))))
    out.append(_check_true("gram: quadrature matches closed form (m <= 5)",
                           worst <= 1e-10, f"worst={worst:.3e}"))
    out.append(_check_true("gram: det(1) = 9/4 exactly",
                           torsion.gram_det_closed(1) == __import__("fractions").Fraction(9, 4)))
    return out


def _alternates(lam, fam_a, fam_b, tol=1e-9) -> bool:
    """True when the sorted zeros alternate between the two factor families."""
    labels = []
    for x in lam:
        in_a = np.min(np.abs(fam_a - x)) < tol
        in_b = np.min(np.abs(fam_b - x)) < tol
        if in_a == in_b:
            return False
        labels.append(0 if in_a else 1)
    return all(a != b for a, b in zip(labels, labels[1:]))


def suite_interlacing(n_max: int = 10, m_max: int = 3, K: int = 50):
    out = []
    worst_res = 0.0
    interlace_ok = True
    simple_ok = True
    for m in range(m_max + 1):
        seen = set()
        for n in range(n_max + 1):
            nu = max(n, m - n)
            if nu in seen:
                continue
            seen.add(nu)
            seq = besselx.zeros(CrossProductSpec(nu, m), K)
            lam = seq.zeros
            worst_res = max(worst_res, float(np.max(seq.residuals / seq.local_scales)))
            factorized = (m == 0) or (m % 2 == 0 and nu == m // 2)
            if factorized:
                # L factors as +-2 J_a J_b: zeros are the union of the two
                # families, which must strictly alternate
                a = nu if m == 0 else m // 2
                fam_a = besselx.bessel_j_zeros(a, K + 2)
                fam_b = (besselx.bessel_jp_zeros(nu, K + 2) if m == 0
                         else besselx.bessel_j_zeros(m // 2 + 1, K + 2))
                if not _alternates(lam, fam_a, fam_b):
                    interlace_ok = False
            else:
                merged = besselx._merged_factor_zeros(nu, m, K + 4)
                counts = [np.sum((merged > lam[i]) & (merged < lam[i + 1]))
                          for i in range(len(lam) - 1)]
                if any(c != 1 for c in counts):
                    interlace_ok = False
                derivs = besselx.cross_L_prime(nu, m, lam[:12])
                signs = np.sign(derivs)
                if np.any(signs == 0) or np.any(signs[1:] * signs[:-1] >= 0):
                    simple_ok = False
    out.append(_check_true(
        f"interlacing: exactly one merged factor zero per gap (n<={n_max}, "
        f"m<={m_max}, K={K})", interlace_ok))
    out.append(_check_true("interlacing: zeros simple, derivative signs alternate",
                           simple_ok))
    out.append(_check_true("interlacing: residual below 1e-10 x local scale",
                           worst_res <= 1e-10, f"worst={worst_res:.3e}"))
    worst_lower = math.inf
    for n in range(1, 21):
        lam1 = besselx.zeros(CrossProductSpec(n + 2, 2), 1).zeros[0]
        worst_lower = min(worst_lower, lam1 - n)
    out.append(_check_true("interlacing: lambda_{n+m,1} >= n (n <= 20, m = 2)",
                           worst_lower >= 0.0, f"min margin={worst_lower:.3f}"))
    sym = np.max(np.abs(besselx.zeros(CrossProductSpec(0, 3), 10).zeros
                        - besselx.zeros(CrossProductSpec(3, 3), 10).zeros))
    out.append(_check_true("interlacing: symmetry Z_n = Z_{m-n}", sym <= 1e-12,
                           f"max diff={sym:.2e}"))
    worst_norm = 0.0
    for m in range(4):
        for nu in range(m + 1, m + 4):
            seq = besselx.zeros(CrossProductSpec(nu, m), 10)
            for lam in seq.zeros:
                if m == 0 and abs(bessel_j(nu, float(lam))) < 1e-8:
                    # m = 0 factorizes as -2 J J'; at the J zeros the factor
                    # in the identity's hypothesis vanishes, so skip them
                    continue
                lhs, rhs = besselx.eigen_norm_check(nu, m, float(lam))
                worst_norm = max(worst_norm, abs(lhs - rhs) / abs(rhs))
    out.append(_check_true("interlacing: derivative-norm identity (<= 1e-6)",
                           worst_norm <= 1e-6, f"worst rel={worst_norm:.3e}"))
    return out


def suite_sumrule(m_max: int = 4, nu_max: int = 8, K: int = 60):
    out = []
    worst2 = worst4 = 0.0
    for m in range(m_max + 1):
        orders = [nu for nu, _ in besselx.canonical_orders(m, nu_max)
                  if nu <= nu_max]
        for nu in orders:
            seq = besselx.zeros(CrossProductSpec(nu, m), K)
            s2 = float(np.sum(seq.zeros ** -2.0)) + zero_tail_sum(
                seq.zeros, K, 1.0, slope=math.pi / 2.0)
            worst2 = max(worst2, abs(s2 - besselx.taylor_sum_rule(
                CrossProductSpec(nu, m), 2)))
            s4 = float(np.sum(seq.zeros ** -4.0)) + zero_tail_sum(
                seq.zeros, K, 2.0, slope=math.pi / 2.0)
            worst4 = max(worst4, abs(s4 - besselx.taylor_sum_rule(
                CrossProductSpec(nu, m), 4)))
    out.append(_check_true(
        f"sumrule: zeros+tail vs Taylor oracle, power 2 (m<={m_max})",
        worst2 <= 1e-6, f"worst={worst2:.3e}"))
    out.append(_check_true("sumrule: power 4", worst4 <= 1e-8,
                           f"worst={worst4:.3e}"))
    return out


def _sine_logp(z):
    y = -1j * z
    return (math.pi * y + np.log1p(-np.exp(-2.0 * math.pi * y))
            - np.log(2.0 * math.pi * y))


def suite_routes():
    out = []
    # classical sine product through both numeric routes
    prof_fit = fit_asymptotic_profile(
        lambda z: -(math.pi * z + math.log1p(-math.exp(-2.0 * math.pi * z))
                    - math.log(2.0 * math.pi * z)), 30.0, 300.0)
    z0, z0p = zetareg.zeta_from_profile(prof_fit)
    out.append(_check("routes: sine profile zeta(0) = -1/2", z0, -0.5, 1e-8))
    out.append(_check("routes: sine profile zeta'(0) = -log 2pi", z0p,
                      -math.log(2.0 * math.pi), 1e-8))
    ctr = ContourSpec(c=0.5, truncation_radius=60.0)
    prof = AsymptoticProfile(d=-math.pi, a=0.5, b=math.log(2.0 * math.pi))
    c0, c0p = mellin_zeta_critical_values(_sine_logp, ctr, prof)
    out.append(_check("routes: sine contour zeta(0)", c0, -0.5, 1e-8))
    out.append(_check("routes: sine contour zeta'(0)", c0p,
                      -math.log(2.0 * math.pi), 1e-8))
    for s, target in ((1.5, riemann_zeta(3.0)), (2.0, riemann_zeta(4.0)),
                      (3.0, riemann_zeta(6.0))):
        out.append(_check(f"routes: sine contour s={s} = zeta({2*s:g})",
                          mellin_contour_zeta(_sine_logp, ctr, s), target, 1e-6))
    # canonical zeta route agreement
    for m in (0, 1, 2):
        rep = zetareg.zeta_canonical(m, check_routes=("profile", "contour"))
        out.append(_check_true(
            f"routes: m={m} profile vs closed (<= 1e-8)",
            rep.discrepancies["profile"] <= 1e-8,
            f"diff={rep.discrepancies['profile']:.3e}"))
        out.append(_check_true(
            f"routes: m={m} contour vs closed (<= 1e-6)",
            rep.discrepancies["contour"] <= 1e-6,
            f"diff={rep.discrepancies['contour']:.3e}"))
    # direct vs contour spectral sums
    for m in (0, 1):
        for s in (1.5, 2.0):
            d = zetareg.spectral_zeta_direct(m, s)
            c = zetareg.spectral_zeta_contour(m, s)
            out.append(_check(f"routes: spectral sum m={m} s={s} direct vs contour",
                              d, c, 1e-5))
    dn_c = zetareg.dirichlet_neumann_block("closed")
    dn_n = zetareg.dirichlet_neumann_block("numeric")
    out.append(_check("routes: Dirichlet block numeric vs closed",
                      dn_n.zeta_D0_prime, dn_c.zeta_D0_prime, 1e-6))
    out.append(_check("routes: Neumann block numeric vs closed",
                      dn_n.zeta_N0_prime, dn_c.zeta_N0_prime, 1e-6))
    return out


def suite_pipeline():
    out = []
    for m in range(7):
        rep = torsion.torsion_g(m)
        out.append(_check_true(
            f"pipeline: |T_g({m}) - zeta'(0)| <= 1e-10",
            abs(rep.discrepancy) <= 1e-10, f"diff={rep.discrepancy:.3e}"))
        out.append(_check_true(
            f"pipeline: quadrature T_g({m}) within 1e-8",
            abs(rep.Tg_quadrature - rep.Tg) <= 1e-8,
            f"diff={rep.Tg_quadrature - rep.Tg:.3e}"))
    can = [torsion.quillen_canonical_log(m) for m in range(7)]
    out.append(_check_true("pipeline: canonical Quillen log m-independent",
                           max(abs(v - can[0]) for v in can) <= 1e-12))
    canq = [torsion.quillen_canonical_log(m, "quadrature") for m in range(7)]
    out.append(_check_true("pipeline: canonical Quillen log m-independent (quad)",
                           max(abs(v - canq[0]) for v in canq) <= 1e-8))
    return out


def suite_constants():
    out = []
    out.append(_check("constants: zeta(0) = -1/2", riemann_zeta(0.0), -0.5, 1e-12))
    out.append(_check("constants: zeta(-1) = -1/12", riemann_zeta(-1.0),
                      -1.0 / 12.0, 1e-12))
    out.append(_check("constants: zeta'(0) = -log(2 pi)/2",
                      riemann_zeta_prime(0.0), -0.5 * math.log(2.0 * math.pi), 1e-12))
    out.append(_check("constants: zeta'(-1)", riemann_zeta_prime(-1.0),
                      -0.16542114370045092921, 1e-12))
    out.append(_check("constants: eta(0) vs Richardson",
                      zetareg._eta_zero_richardson(), zetareg.eta_at_zero(), 1e-7))
    out.append(_check("constants: eta(2) direct vs continued",
                      zetareg.eta_direct(2.0), zetareg.eta_function(2.0), 1e-10))
    r2_target = (2.0 * riemann_zeta_prime(-1.0) - 1.0 / 12.0
                 - EULER_GAMMA / 12.0 + 0.25 * math.log(2.0 * math.pi))
    out.append(_check("constants: sum R2(n) closed decomposition",
                      stirling_remainder_r2_sum(0.0), r2_target, 1e-7))
    fn0, fn0p = zetareg.f_component_closed(3.0 / 8.0, -7.0 / 24.0)
    out.append(_check("constants: F_N(0) = 1/24", fn0, 1.0 / 24.0, 1e-14))
    out.append(_check("constants: F_N'(0) = (gamma - log2 - 7/2)/12", fn0p,
                      (EULER_GAMMA - math.log(2.0) - 3.5) / 12.0, 1e-14))
    fn0n, fn0pn = zetareg._f_values_numeric(3.0 / 8.0, -7.0 / 24.0)
    out.append(_check("constants: F_N'(0) vs numeric derivative", fn0p, fn0pn, 1e-7))
    for m in (0, 1, 3):
        f0, f0p = zetareg.f_component_values(m)
        f0n, f0pn = zetareg._f_values_numeric(
            (2.0 * m * m + 2.0 * m + 1.0) / 4.0, -1.0 / 12.0)
        out.append(_check(f"constants: F_{m}'(0) closed vs numeric", f0p, f0pn, 1e-7))
    for k in (1, 2, 4):
        out.append(_check(f"constants: gamma_{k}(0) closed vs series",
                          zetareg.gamma_k_zero(k), zetareg.gamma_k_function(k, 0.0),
                          1e-7))
    for m in range(7):
        rep = zetareg.zeta_canonical(m)
        t0, t0p = zetareg.zeta_canonical_closed_form(m)
        out.append(_check_true(
            f"constants: zeta(0) m={m} exact", rep.zeta0_exact == t0,
            f"{rep.zeta0_exact}"))
        out.append(_check(f"constants: zeta'(0) m={m} block assembly vs theorem",
                          rep.zeta0_prime, t0p, 1e-12))
    return out


def suite_bessel():
    out = []
    # derivative identities B2/B4 on a log-spaced grid
    worst = 0.0
    for n in (0, 1, 4, 9):
        for x in np.geomspace(0.5, 80.0, 25):
            v = bessel_j_many((n - 1, n, n + 1), float(x))
            d1 = v[n - 1] - (n / x) * v[n]
            d2 = (n / x) * v[n] - v[n + 1]
            worst = max(worst, abs(d1 - d2))
    out.append(_check_true("bessel: recurrence derivative identities (1e-10)",
                           worst <= 1e-10, f"worst={worst:.3e}"))
    worst = 0.0
    for n in (0, 2, 5):
        for x in (1.7, 9.3, 33.0):
            h = 1e-5
            fd = (bessel_j(n, x + h) - bessel_j(n, x - h)) / (2.0 * h)
            v = bessel_j_many((n - 1, n), x)
            worst = max(worst, abs(fd - (v[n - 1] - (n / x) * v[n])))
    out.append(_check_true("bessel: finite differences vs recurrence (1e-6)",
                           worst <= 1e-6, f"worst={worst:.3e}"))
    # series vs large-argument overlap band for I_n
    from .special import _asymptotic_i_log, _series_i_log

    worst = 0.0
    for n in (0, 1, 3):
        for x in (35.0, 60.0, 120.0):
            worst = max(worst, abs(_series_i_log(n, x) - _asymptotic_i_log(n, x)))
    out.append(_check_true("bessel: I series vs large-argument overlap (1e-9)",
                           worst <= 1e-9, f"worst={worst:.3e}"))
    # recurrence residual for I
    worst = 0.0
    for n in (1, 3, 6):
        for x in (0.7, 5.0, 40.0):
            ia = math.exp(bessel_i_log(n - 1, x)[0])
            ib = math.exp(bessel_i_log(n + 1, x)[0])
            ic = math.exp(bessel_i_log(n, x)[0])
            worst = max(worst, abs(ia - ib - (2.0 * n / x) * ic) / max(ia, 1.0))
    out.append(_check_true("bessel: I recurrence residual (1e-10)",
                           worst <= 1e-10, f"worst={worst:.3e}"))
    return out


SUITES = {
    "quadrature": suite_quadrature,
    "gram": suite_gram,
    "interlacing": suite_interlacing,
    "sumrule": suite_sumrule,
    "routes": suite_routes,
    "pipeline": suite_pipeline,
    "constants": suite_constants,
    "bessel": suite_bessel,
}


def run_suite(name: str = "all"):
    """Run one named suite or all of them; returns list of CheckResult."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key]())
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    return SUITES[name]()


def format_results(results) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        lines.append(f"{mark}  {r.name}{detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
