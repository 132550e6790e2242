r"""Verification suites: every invariant the package promises, runnable as
one command.  Each check returns a (name, passed, detail) record; the CLI
prints one line per check and exits non-zero when anything fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import besselx, torsion, zetareg
from .numerics import (ContourSpec, adaptive_quad, mellin_contour_zeta,
                       mellin_zeta_critical_values, AsymptoticProfile,
                       fit_asymptotic_profile, zero_tail_sum)
from .special import (EULER_GAMMA, _asymptotic_i_log, _series_i_log, bessel_i_log,
                      bessel_j, bessel_j_many, riemann_zeta, riemann_zeta_prime,
                      stirling_remainder_r2_sum)

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

_SPECTRAL_SUM_MS = (0, 1)  # twist degrees of the direct vs contour spectral sums


def _zero_solves() -> dict:
    """Suite -> the (pairs, K) zero solves it makes.  The suites read their
    pairs from here, and ``run_suite`` sizes the zero tables for them."""
    return {
        # orders n <= 10 of m <= 3 at K = 50; the first zeros of orders 3..22
        # at m = 2; the symmetry and derivative-norm pairs at K = 10
        "interlacing": (([(nu, m) for m in range(4)
                          for nu in dict.fromkeys(max(n, m - n) for n in range(11))], 50),
                        ([(n, 2) for n in range(3, 23)], 1),
                        ([(3, 3)] + [(nu, m) for m in range(4)
                                     for nu in range(m + 1, m + 4)], 10)),
        # the canonical orders nu <= 8 of m <= 4
        "sumrule": (([(nu, m) for m in range(5)
                      for nu, _ in besselx.canonical_orders(m, 8) if nu <= 8], 60),),
        # the direct spectral sums
        "routes": tuple(([(nu, m) for nu in zetareg._sum_orders(m)], zetareg._DIRECT_K)
                        for m in _SPECTRAL_SUM_MS),
    }


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


def _alternates(lam, fam_a, fam_b) -> bool:
    """True when the sorted zeros alternate between the two factor families
    (a zero belongs to a family within 1e-9)."""
    in_a, in_b = (np.min(np.abs(fam[:, None] - lam), axis=0) < 1e-9 for fam in (fam_a, fam_b))
    return bool(np.all(in_a != in_b) and np.all(in_a[1:] != in_a[:-1]))


def suite_interlacing():
    out = []
    interlace_ok = True
    (keys, K), (firsts, k_first), (norm_keys, k_norm) = _zero_solves()["interlacing"]
    seqs = besselx.zero_sequences(keys, K)
    worst_res = max(float(np.max(seq.residuals / seq.local_scales)) for seq in seqs)
    generic = []
    for (nu, m), seq in zip(keys, seqs):
        lam = seq.zeros
        if besselx._factorized(nu, m):
            # L factors as +-2 J_a J_b: zeros are the union of the two
            # families, which must strictly alternate
            fam_a, fam_b = (besselx._zero_table(kind, order, K)
                            for kind, order in besselx._factor_families(nu, m))
            if not _alternates(lam, fam_a, fam_b):
                interlace_ok = False
        else:
            merged = besselx._merged_factor_zeros(nu, m, K + 2)
            counts = (np.searchsorted(merged, lam[1:], "left")
                      - np.searchsorted(merged, lam[:-1], "right"))
            if np.any(counts != 1):
                interlace_ok = False
            generic.append((nu, m, lam[:12]))
    # derivative signs at the first 12 zeros of every generic order, one pass
    gn, gm, lam = (np.array(a) for a in zip(*generic))
    signs = np.sign(besselx.cross_L_prime(gn[:, None], gm[:, None], lam))
    simple_ok = not (np.any(signs == 0) or np.any(signs[:, 1:] * signs[:, :-1] >= 0))
    out.append(_check_true(
        "interlacing: exactly one merged factor zero per gap (n<=10, m<=3, K=50)",
        interlace_ok))
    out.append(_check_true("interlacing: zeros simple, derivative signs alternate",
                           simple_ok))
    out.append(_check_true("interlacing: residual below 1e-10 x local scale",
                           worst_res <= 1e-10, f"worst={worst_res:.3e}"))
    worst_lower = min(seq.zeros[0] - (n - 2)
                      for (n, _), seq in zip(firsts, besselx.zero_sequences(firsts, k_first)))
    out.append(_check_true("interlacing: lambda_{n+m,1} >= n (n <= 20, m = 2)",
                           worst_lower >= 0.0, f"min margin={worst_lower:.3f}"))
    # one K = 10 solve for the symmetry check and the derivative-norm sweep
    seq, *seqs = besselx.zero_sequences(norm_keys, k_norm)
    # the solver canonicalizes n -> m - n, so the mirror order's own cross
    # product L_0 (m = 3) is evaluated at the zeros solved for L_3
    sym = float(np.max(np.abs(besselx.cross_L(0, 3, seq.zeros)) / seq.local_scales))
    out.append(_check_true("interlacing: symmetry Z_n = Z_{m-n}", sym <= 1e-10,
                           f"worst={sym:.3e}"))
    nu, m = (np.array(a)[:, None] for a in zip(*norm_keys[1:]))
    lam = np.array([seq.zeros for seq in seqs])
    # m = 0 factorizes as -2 J J'; at the J zeros the factor in the
    # identity's hypothesis vanishes, so skip them
    keep = (m != 0) | (np.abs(besselx._j_pair("j", nu, lam)[0]) >= 1e-8)
    nu, m = (np.broadcast_to(a, lam.shape)[keep] for a in (nu, m))
    lhs, rhs = besselx.eigen_norm_check(nu, m, lam[keep])
    worst_norm = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    out.append(_check_true("interlacing: derivative-norm identity (<= 1e-6)",
                           worst_norm <= 1e-6, f"worst rel={worst_norm:.3e}"))
    return out


def suite_sumrule():
    out = []
    worst2 = worst4 = 0.0
    (keys, K), = _zero_solves()["sumrule"]
    for (nu, m), seq in zip(keys, besselx.zero_sequences(keys, K)):
        s2 = float(np.sum(seq.zeros ** -2.0)) + zero_tail_sum(
            seq.zeros, K, 1.0, slope=math.pi / 2.0)
        worst2 = max(worst2, abs(s2 - float(besselx.taylor_sum_rule_exact(nu, m, 2))))
        s4 = float(np.sum(seq.zeros ** -4.0)) + zero_tail_sum(
            seq.zeros, K, 2.0, slope=math.pi / 2.0)
        worst4 = max(worst4, abs(s4 - float(besselx.taylor_sum_rule_exact(nu, m, 4))))
    out.append(_check_true(
        "sumrule: zeros+tail vs Taylor oracle, power 2 (m<=4)",
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
        lambda z: -(math.pi * z + np.log1p(-np.exp(-2.0 * math.pi * z))
                    - np.log(2.0 * math.pi * z)), 30.0, 300.0)
    z0, z0p = zetareg.zeta_from_profile(prof_fit)
    out.append(_check("routes: sine profile zeta(0) = -1/2", z0, -0.5, 1e-8))
    out.append(_check("routes: sine profile zeta'(0) = -log 2pi", z0p,
                      -math.log(2.0 * math.pi), 1e-8))
    ctr = ContourSpec(c=0.5, truncation_radius=60.0)
    sine = _sine_logp(ctr.ray_nodes()[0])
    prof = AsymptoticProfile(d=-math.pi, a=0.5, b=math.log(2.0 * math.pi))
    c0, c0p = mellin_zeta_critical_values(sine, ctr, prof)
    out.append(_check("routes: sine contour zeta(0)", c0, -0.5, 1e-8))
    out.append(_check("routes: sine contour zeta'(0)", c0p,
                      -math.log(2.0 * math.pi), 1e-8))
    for s, target in ((1.5, riemann_zeta(3.0)), (2.0, riemann_zeta(4.0)),
                      (3.0, riemann_zeta(6.0))):
        out.append(_check(f"routes: sine contour s={s} = zeta({2*s:g})",
                          mellin_contour_zeta(sine, ctr, s), target, 1e-6))
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
    for m in _SPECTRAL_SUM_MS:
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
    x = np.geomspace(0.5, 80.0, 25)
    for n in (0, 1, 4, 9):
        v = bessel_j_many((n - 1, n, n + 1), x)
        d1 = v[n - 1] - (n / x) * v[n]
        d2 = (n / x) * v[n] - v[n + 1]
        worst = max(worst, float(np.max(np.abs(d1 - d2))))
    out.append(_check_true("bessel: recurrence derivative identities (1e-10)",
                           worst <= 1e-10, f"worst={worst:.3e}"))
    worst = 0.0
    x, h = np.array([1.7, 9.3, 33.0]), 1e-5
    for n in (0, 2, 5):
        fd = (bessel_j(n, x + h) - bessel_j(n, x - h)) / (2.0 * h)
        v = bessel_j_many((n - 1, n), x)
        worst = max(worst, float(np.max(np.abs(fd - (v[n - 1] - (n / x) * v[n])))))
    out.append(_check_true("bessel: finite differences vs recurrence (1e-6)",
                           worst <= 1e-6, f"worst={worst:.3e}"))
    # series vs large-argument overlap band for I_n
    n, x = np.repeat([0, 1, 3], 3), np.tile([35.0, 60.0, 120.0], 3)
    worst = float(np.max(np.abs(_series_i_log(n, x) - _asymptotic_i_log(n, x))))
    out.append(_check_true("bessel: I series vs large-argument overlap (1e-9)",
                           worst <= 1e-9, f"worst={worst:.3e}"))
    # recurrence residual for I
    n, x = np.array([[1], [3], [6]]), np.array([0.7, 5.0, 40.0])
    ia, ib, ic = np.exp(bessel_i_log(np.stack([n - 1, n + 1, n]), x))
    worst = float(np.max(np.abs(ia - ib - (2.0 * n / x) * ic) / np.maximum(ia, 1.0)))
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
    """Run one named suite or all of them; returns list of CheckResult.

    The J and J' zero tables are sized once, to the union of the selected
    suites' zero solves, before any suite runs, so each is built once.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    names = list(SUITES) if name == "all" else [name]
    solves = _zero_solves()
    besselx.size_zero_tables([req for key in names for req in solves.get(key, ())])
    results = []
    for key in names:
        results.extend(SUITES[key]())
    return results


def format_results(results) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        lines.append(f"{mark}  {r.name}{detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
