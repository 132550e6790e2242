import math

import numpy as np
import pytest
from scipy.special import ive, jv

from zetacan import special as sp

LOG_2PI = math.log(2.0 * math.pi)


class TestGamma:
    def test_log_gamma_classical_points(self):
        assert sp.log_gamma(1.0) == 0.0
        assert sp.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert sp.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_log_gamma_domain(self):
        with pytest.raises(ValueError):
            sp.log_gamma(0.0)
        with pytest.raises(ValueError):
            sp.log_gamma(-2.5)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 60, 150])
    def test_r2_bound(self, n):
        # |R2(n)| < |B_4| / (12 n^3) on the positive axis
        assert abs(sp.stirling_remainder_r2(n)) < (1.0 / 30.0) / (12.0 * n ** 3)

    def test_r2_decay_order(self):
        # R2(n) n^3 stays bounded (approaches -B_4/12 = -1/360); beyond
        # n ~ 100 the lgamma cancellation noise dominates the tiny remainder,
        # so the asymptote is probed at moderate n
        vals = [sp.stirling_remainder_r2(float(n)) * n ** 3 for n in (50, 100, 400)]
        assert max(abs(v) for v in vals) < 1.0 / 300.0
        assert vals[1] == pytest.approx(-1.0 / 360.0, abs=1e-6)

    def test_r2_total_closed_decomposition(self):
        target = (2.0 * sp.riemann_zeta_prime(-1.0) - 1.0 / 12.0
                  - sp.EULER_GAMMA / 12.0 + 0.25 * LOG_2PI)
        assert sp.stirling_remainder_r2_sum(0.0) == pytest.approx(target, abs=1e-14)


class TestZeta:
    def test_classical_values(self):
        assert sp.riemann_zeta(0.0) == pytest.approx(-0.5, abs=1e-13)
        assert sp.riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, abs=1e-13)
        assert sp.riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
        assert sp.riemann_zeta_prime(0.0) == pytest.approx(-0.5 * LOG_2PI, abs=1e-13)

    def test_zeta_prime_minus_one(self):
        # zeta'(-1) = 1/12 - log A; Euler-Maclaurin value frozen against an
        # independent high-precision evaluation
        assert sp.riemann_zeta_prime(-1.0) == pytest.approx(
            -0.16542114370045092921, abs=1e-13)

    def test_digamma_against_scipy(self):
        # relative error <= 1e-14, measured against max(|psi|, 0.1) so that
        # the band around the zero of psi at x = 1.4616... is held to an
        # absolute 1e-15
        from scipy.special import digamma

        x = np.concatenate([np.geomspace(0.01, 1e4, 2001),
                            [1.0, 1.4616321449683623, 2.0]])
        got = np.array([sp._digamma(float(v)) for v in x])
        want = digamma(x)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 0.1))

    def test_pole(self):
        with pytest.raises(ValueError):
            sp.riemann_zeta(1.0)
        with pytest.raises(ValueError):
            sp.hurwitz_zeta_prime(1.0, 2.0)

    def test_hurwitz_tail_consistency(self):
        # zeta(s, a) = zeta(s) - sum_{n < a} n^{-s} for integer a
        s = 2.5
        partial = sum(n ** (-s) for n in range(1, 13))
        assert sp.hurwitz_zeta(s, 13.0) == pytest.approx(
            sp.riemann_zeta(s) - partial, rel=1e-13)

    def test_trivial_zero_derivative(self):
        # zeta'(-2) = -zeta(3)/(4 pi^2)
        assert sp.riemann_zeta_prime(-2.0) == pytest.approx(
            -sp.riemann_zeta(3.0) / (4.0 * math.pi ** 2), rel=1e-12)


class TestBesselJ:
    def test_series_constant_term(self):
        assert sp.bessel_j(0, 0.0) == 1.0
        assert sp.bessel_j(3, 0.0) == 0.0

    def test_reflection(self):
        for x in (0.3, 2.7, 11.0, 40.0):
            assert sp.bessel_j(-3, x) == pytest.approx(-sp.bessel_j(3, x), abs=1e-15)
            assert sp.bessel_j(2, -x) == pytest.approx(sp.bessel_j(2, x), abs=1e-15)

    def test_first_zero_of_j0(self):
        assert abs(sp.bessel_j(0, 2.404825557695773)) < 1e-10

    @pytest.mark.parametrize("n,x", [(0, 0.5), (1, 7.0), (5, 30.0), (12, 63.0),
                                     (40, 55.0), (90, 120.0), (200, 250.0)])
    def test_against_scipy(self, n, x):
        ref = jv(n, x)
        scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)))
        assert abs(sp.bessel_j(n, x) - ref) <= 1e-12 * scale

    def test_contract_box_large_argument(self):
        # accuracy at the far corner of the contract box, scaled to the
        # oscillation envelope (point-wise relative error degenerates at
        # the zeros; double precision phase conditioning caps the scaled
        # error near 1e-11 at x = 1e4)
        for n in (0, 50, 200):
            x = 1e4
            ref = jv(n, x)
            scale = math.sqrt(2.0 / (math.pi * x))
            assert abs(sp.bessel_j(n, x) - ref) <= 2e-11 * scale

    def test_derivative_identities_on_log_grid(self):
        # J_n' = J_{n-1} - (n/x) J_n = (n/x) J_n - J_{n+1}
        worst = 0.0
        for n in (1, 3, 8):
            for x in np.geomspace(0.3, 90.0, 40):
                v = sp.bessel_j_many((n - 1, n, n + 1), float(x))
                d1 = v[n - 1] - (n / x) * v[n]
                d2 = (n / x) * v[n] - v[n + 1]
                worst = max(worst, abs(d1 - d2))
        assert worst < 1e-10

    def test_finite_difference_derivative(self):
        h = 1e-5
        for n, x in ((0, 3.3), (4, 17.0)):
            fd = (sp.bessel_j(n, x + h) - sp.bessel_j(n, x - h)) / (2.0 * h)
            assert fd == pytest.approx(sp.bessel_j_prime(n, x), abs=1e-6)

    def test_complex_rotation_identity(self):
        # I_n(y) = i^{-n} J_n(iy) ties the complex evaluator to the real one
        z = np.array([2.0j, 5.0j, 11.0j])
        vals = sp.bessel_j_complex_many((0, 2), z)
        for y, j0, j2 in zip((2.0, 5.0, 11.0), vals[0], vals[2]):
            assert complex(j0) == pytest.approx(
                complex(math.exp(sp.bessel_i_log(0, y)[0])), rel=1e-12)
            assert complex(j2 * 1j ** -2).real == pytest.approx(
                math.exp(sp.bessel_i_log(2, y)[0]), rel=1e-12)

    def test_complex_against_scipy(self):
        z = np.array([1.5 + 0.8j, 20.0 + 9.0j, 60.0 + 25.0j])
        vals = sp.bessel_j_complex_many((0, 1, 4), z)
        for n in (0, 1, 4):
            ref = jv(n, z)
            assert np.max(np.abs(vals[n] - ref) / np.abs(ref)) < 1e-11


class TestKernel:
    """bessel_j_orders: one recurrence for all orders at all points."""

    def test_real_against_scipy(self):
        # orders 0..64 on (0, 300]: relative error where J_n is monotone
        # (x < n, down to tiny x), envelope-scaled where it oscillates
        x = np.concatenate([np.geomspace(1e-8, 1.0, 40), np.linspace(0.05, 300.0, 1500)])
        own = sp.bessel_j_orders(64, x)
        for n in range(65):
            ref = jv(n, x)
            small = (x < n) & (np.abs(ref) > 1e-290)
            rel = np.abs(own[n] - ref) / np.abs(np.where(small, ref, 1.0))
            assert np.max(rel[small], initial=0.0) < 1e-12, n
            scale = np.maximum(np.abs(ref), np.sqrt(2.0 / (np.pi * x)))
            big = x >= n
            assert np.max((np.abs(own[n] - ref) / scale)[big], initial=0.0) < 1e-12, n

    def test_shape_and_zero_argument(self):
        own = sp.bessel_j_orders(3, np.array([[0.0, 2.0], [-2.0, 5.0]]))
        assert own.shape == (4, 2, 2)
        assert list(own[:, 0, 0]) == [1.0, 0.0, 0.0, 0.0]
        assert np.allclose(own[:, 1, 0], jv(np.arange(4), -2.0), rtol=1e-14, atol=1e-16)

    def test_per_point_orders_do_not_couple_points(self):
        # a real value depends only on its own point and top order
        x = np.array([2.5, 40.0, 170.0])
        together = sp.bessel_j_orders(np.array([3, 7, 50]), x)
        for i, n in enumerate((3, 7, 50)):
            alone = sp.bessel_j_orders(n, x[i:i + 1])
            assert np.array_equal(together[:n + 1, i], alone[:, 0])

    def test_complex_bit_identical_to_fixture(self):
        # values captured from the previous complex recurrence at contour
        # nodes of the zeta contour route; the kernel must reproduce them
        # exactly so contour-route results do not move
        from pathlib import Path

        with np.load(Path(__file__).parent / "golden" / "complex_j.npz") as d:
            cases = sorted(k[2:] for k in d.files if k.startswith("z_"))
            assert cases
            for key in cases:
                orders = tuple(int(n) for n in d[f"orders_{key}"])
                vals = sp.bessel_j_complex_many(orders, d[f"z_{key}"])
                got = np.stack([vals[n] for n in orders])
                assert np.array_equal(got, d[f"j_{key}"]), key


class TestBesselILog:
    def test_small_x_leading_term(self):
        for n in (0, 2, 7):
            for x in (1e-3, 1e-2):
                lead = n * math.log(0.5 * x) - math.lgamma(n + 1.0)
                assert sp.bessel_i_log(n, x)[0] - lead == pytest.approx(
                    0.0, abs=x * x)

    def test_large_x_asymptotics_at_50(self):
        x = 50.0
        scaled = math.exp(sp.bessel_i_log(0, x)[0] - x) * math.sqrt(
            2.0 * math.pi * x)
        assert scaled == pytest.approx(1.0 + 1.0 / (8.0 * x), abs=5e-5)

    def test_overflow_free_at_1e5(self):
        lg, sign = sp.bessel_i_log(0, 1e5)
        assert sign == 1
        assert math.isfinite(lg)
        assert lg == pytest.approx(1e5 - 0.5 * math.log(2.0 * math.pi * 1e5),
                                   abs=1e-5)

    @pytest.mark.parametrize("n,x", [(0, 0.7), (3, 12.0), (9, 80.0), (40, 95.0)])
    def test_against_scipy_ive(self, n, x):
        ref = math.log(ive(n, x)) + x
        assert sp.bessel_i_log(n, x)[0] == pytest.approx(ref, abs=5e-13)

    def test_recurrence_residual(self):
        for n in (1, 4, 10):
            for x in (0.9, 8.0, 66.0):
                ia = math.exp(sp.bessel_i_log(n - 1, x)[0])
                ib = math.exp(sp.bessel_i_log(n + 1, x)[0])
                ic = math.exp(sp.bessel_i_log(n, x)[0])
                assert ia - ib == pytest.approx((2.0 * n / x) * ic,
                                                rel=1e-12, abs=1e-12)

    def test_regime_overlap_consistency(self):
        worst = 0.0
        for n in (0, 1, 3):
            for x in (35.0, 60.0, 120.0):
                worst = max(worst, abs(sp._series_i_log(n, x)
                                       - sp._asymptotic_i_log(n, x)))
        assert worst < 1e-9


class TestUniform:
    def test_v1_endpoint_values(self):
        # V1 at z -> 0 (p = 1) is -1/12; at z -> infinity (p = 0) it vanishes
        assert sp.v1_debye(1.0) == pytest.approx(-1.0 / 12.0, abs=1e-15)
        assert sp.v1_debye(0.0) == 0.0

    def test_w_poly_at_origin(self):
        for m in range(5):
            assert sp.uniform_w_poly(m, 1.0) == pytest.approx(
                -(m * (m + 1) / 2.0 + 1.0 / 6.0), abs=1e-14)

    def test_w0_is_u1_plus_v1(self):
        for p in (0.1, 0.45, 0.9):
            assert sp.uniform_w_poly(0, p) == pytest.approx(
                sp.u1_debye(p) + sp.v1_debye(p), abs=1e-15)

    def test_eta_small_z_behavior(self):
        # eta(z) - z eta'(z) ~ log z as z -> 0+ in the ratio sense (the
        # exact small-z form is log(z/2), so the ratio converges like
        # 1 + log 2 / |log z|)
        ratios = []
        for z in (1e-3, 1e-6, 1e-12):
            val = sp.eta_debye_minus_z_eta_prime(z)
            ratio = val / math.log(z)
            assert abs(ratio - 1.0) <= 1.01 * math.log(2.0) / abs(math.log(z))
            ratios.append(ratio)
            assert val == pytest.approx(math.log(0.5 * z), abs=max(z * z, 1e-14))
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_eta_large_z(self):
        # eta(z) - z -> 0 at large z
        for z in (50.0, 500.0):
            assert sp.eta_debye(z) - z == pytest.approx(0.0, abs=1.0 / z)

    def test_uniform_error_scaling(self):
        # relative error O(1/n^2) with the u1 correction: quartering under
        # n doubling
        errs = {}
        for n in (20, 40, 80):
            direct = sp._series_i_log(n, n * 1.0)
            errs[n] = abs(sp.bessel_i_uniform_log(n, 1.0) - direct)
        assert errs[40] / errs[20] == pytest.approx(0.25, abs=0.12)
        assert errs[80] / errs[40] == pytest.approx(0.25, abs=0.12)

    def test_uniform_vs_direct_at_40(self):
        n = 40
        direct = sp._series_i_log(n, n * 1.0)
        assert abs(sp.bessel_i_uniform_log(n, 1.0) - direct) < 3.0 / n ** 2
