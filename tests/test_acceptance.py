"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured margin after the assertions go through.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from zetacan import besselx, torsion, verify, zetareg
from zetacan.numerics import (AsymptoticProfile, ContourSpec,
                              fit_asymptotic_profile,
                              mellin_zeta_critical_values, zero_tail_sum)
from zetacan.special import EULER_GAMMA, bessel_j, riemann_zeta_prime

LOG2 = math.log(2.0)
LOG2PI = math.log(2.0 * math.pi)
ZP1 = riemann_zeta_prime(-1.0)


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_closed_form_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(7):
        rep = zetareg.zeta_canonical(m)
        assert rep.zeta0_exact == Fraction(-2, 3) - Fraction(m, 2)
        closed = (4.0 * ZP1 - 1.0 / 6.0
                  - math.log((m + 2) ** (m + 1) / math.factorial(m + 1) ** 2))
        worst = max(worst, abs(rep.zeta0_prime - closed))
        assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"zeta(0) exact and zeta'(0) within {worst:.1e} for m=0..6 "
               f"({elapsed:.3f}s)")


def test_criterion_2_pipeline_identity():
    t0 = time.perf_counter()
    worst_id = worst_quad = 0.0
    for m in range(7):
        rep = torsion.torsion_g(m)
        worst_id = max(worst_id, abs(rep.discrepancy))
        worst_quad = max(worst_quad, abs(rep.Tg_quadrature - rep.Tg))
    assert worst_id <= 1e-10
    assert worst_quad <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"|T_g - zeta'(0)| <= {worst_id:.1e}, quadrature route within "
               f"{worst_quad:.1e} ({elapsed:.2f}s)")


def test_criterion_3_gram_oracle():
    worst = 0.0
    for m in range(6):
        for k in range(m + 1):
            closed = (m + 2) / ((k + 1) * (m + 1 - k))
            worst = max(worst, abs(torsion.gram_entry(m, k) - closed))
    assert worst <= 1e-10
    assert torsion.gram_det_closed(1) == Fraction(9, 4)
    _report(3, f"gram quadrature within {worst:.1e}; det(1) = 9/4 exact")


def test_criterion_4_quadrature_oracles():
    e1 = abs(4.0 * torsion.base_integral_circle() - 2.0 * math.log(4.0))
    e2 = abs(4.0 * torsion.base_integral_fs() - 4.0 * (1.0 - LOG2))
    assert e1 <= 1e-10 and e2 <= 1e-10
    _report(4, f"circle integral err {e1:.1e}, FS integral err {e2:.1e}")


def test_criterion_5_spectral_correctness():
    t0 = time.perf_counter()
    # (a) interlacing for the first 50 zeros at each n <= 10, m <= 3
    results = verify.suite_interlacing()
    assert all(r.passed for r in results), [r.name for r in results
                                            if not r.passed]
    # (b) sum rules from certified zeros + tail vs Taylor oracle
    worst_sum = 0.0
    for m in range(4):
        for nu, _ in besselx.canonical_orders(m, 6):
            seq = besselx.zeros(nu, m, 60)
            total = float(np.sum(seq.zeros ** -2.0)) + zero_tail_sum(
                seq.zeros, 60, 1.0, slope=math.pi / 2.0)
            exact = besselx.taylor_sum_rule_exact(nu, m, 2)
            worst_sum = max(worst_sum, abs(total - float(exact)))
    assert worst_sum <= 1e-6
    # (c) lambda_{n+m,1} >= n for n = 1..20
    for m in (1, 2, 3):
        for n in range(1, 21):
            lam1 = besselx.zeros(n + m, m, 1).zeros[0]
            assert lam1 >= n
    # (d) derivative-norm identity on the first 10 zeros, n <= 5, m <= 3
    worst_norm = 0.0
    for m in range(4):
        for nu in range(m + 1, m + 6):
            seq = besselx.zeros(nu, m, 10)
            for lam in seq.zeros:
                if m == 0 and abs(bessel_j(nu, float(lam))) < 1e-8:
                    continue  # m = 0 degenerates at the J-factor zeros
                lhs, rhs = besselx.eigen_norm_check(nu, m, float(lam))
                worst_norm = max(worst_norm, abs(lhs - rhs) / abs(rhs))
    assert worst_norm <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, f"interlacing/simplicity ok; sum rule {worst_sum:.1e}; "
               f"lower bounds ok; norm identity {worst_norm:.1e} "
               f"({elapsed:.1f}s)")


def test_criterion_6_regularization_engine():
    # sine product: zeta(0) = -1/2, zeta'(0) = -log 2pi via both routes
    g = lambda z: -(math.pi * z + np.log1p(-np.exp(-2.0 * math.pi * z))
                    - np.log(2.0 * math.pi * z))
    prof = fit_asymptotic_profile(g, 30.0, 300.0)
    z0, z0p = zetareg.zeta_from_profile(prof)
    assert abs(z0 + 0.5) <= 1e-8 and abs(z0p + LOG2PI) <= 1e-8

    def sine_logp(z):
        y = -1j * z
        return (math.pi * y + np.log1p(-np.exp(-2.0 * math.pi * y))
                - np.log(2.0 * math.pi * y))

    ctr = ContourSpec(c=0.5, truncation_radius=60.0)
    c0, c0p = mellin_zeta_critical_values(
        sine_logp(ctr.ray_nodes()[0]), ctr, AsymptoticProfile(d=-math.pi, a=0.5, b=LOG2PI))
    assert abs(c0 + 0.5) <= 1e-8 and abs(c0p + LOG2PI) <= 1e-8

    # Dirichlet / Neumann blocks.  The quoted Dirichlet derivative
    # 2 zeta'(-1) + (1/2) log 2pi + 5/12 lives in the lambda^2/4
    # eigenvalue normalization; in the bare lambda^2 normalization it
    # carries the extra -(1/3) log 2 = -log 4 * zeta_D(0), which the
    # block must supply for the two blocks to assemble to z_0'(0).
    target_d_quarter = 2.0 * ZP1 + 0.5 * LOG2PI + 5.0 / 12.0
    worst_closed = worst_numeric = 0.0
    for route, budget in (("closed", 1e-10), ("numeric", 1e-6)):
        dn = zetareg.dirichlet_neumann_block(route)
        errs = (abs(dn.zeta_D0 - 1.0 / 6.0),
                abs(dn.zeta_D0_prime_quarter - target_d_quarter),
                abs(dn.zeta_N0 + 5.0 / 6.0))
        assert max(errs) <= budget, (route, errs)
        if route == "closed":
            worst_closed = max(errs)
        else:
            worst_numeric = max(errs)
    # the blocks must reproduce the m = 0 assembly exactly
    dn = zetareg.dirichlet_neumann_block()
    z0_m0, z0p_m0 = zetareg.z_m_values(0)
    assert dn.zeta_D0 + dn.zeta_N0 == pytest.approx(float(z0_m0), abs=1e-14)
    assert dn.zeta_D0_prime + dn.zeta_N0_prime == pytest.approx(z0p_m0,
                                                                abs=1e-13)
    _report(6, f"sine product both routes <= 1e-8; D/N closed {worst_closed:.1e}, "
               f"numeric {worst_numeric:.1e}")


def test_criterion_7_constant_blocks():
    errs = {}
    errs["eta0"] = abs(zetareg._eta_zero_richardson() - zetareg.eta_at_zero())
    from zetacan.special import stirling_remainder_r2_sum

    r2_target = (2.0 * ZP1 - 1.0 / 12.0 - EULER_GAMMA / 12.0 + 0.25 * LOG2PI)
    errs["sum_R2"] = abs(stirling_remainder_r2_sum(0.0) - r2_target)
    fn0, fn0p = zetareg.f_component_closed(3.0 / 8.0, -7.0 / 24.0)
    assert fn0 == pytest.approx(1.0 / 24.0, abs=1e-14)
    assert fn0p == pytest.approx((EULER_GAMMA - LOG2 - 3.5) / 12.0, abs=1e-14)
    fn0n, fn0pn = zetareg._f_values_numeric(3.0 / 8.0, -7.0 / 24.0)
    errs["F_N"] = max(abs(fn0 - fn0n), abs(fn0p - fn0pn))
    for m in range(5):
        f0, f0p = zetareg.f_component_values(m)
        f0n, f0pn = zetareg._f_values_numeric(
            (2.0 * m * m + 2.0 * m + 1.0) / 4.0, -1.0 / 12.0)
        errs[f"F_{m}"] = max(abs(f0 - f0n), abs(f0p - f0pn))
    for k in range(1, 7):
        errs[f"gamma_{k}"] = abs(zetareg.gamma_k_function(k, 0.0)
                                 - zetareg.gamma_k_zero(k))
    worst = max(errs.values())
    assert worst <= 1e-7, errs
    _report(7, f"eta(0), sum R2, F and gamma_k blocks all within {worst:.1e}")


def test_criterion_9_verify_suite():
    t0 = time.perf_counter()
    results = verify.run_suite("all")
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed
    assert elapsed < 300.0
    _report(9, f"verify --suite all: {len(results)} checks green in "
               f"{elapsed:.1f}s (< 300s)")
