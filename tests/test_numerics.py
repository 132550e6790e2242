import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetacan import numerics as num
from zetacan import special as sp


def _j0_series(x: float) -> float:
    # independent series evaluation used as the root-finding oracle
    term, acc, q = 1.0, 1.0, 0.25 * x * x
    for r in range(1, 60):
        term *= -q / (r * r)
        acc += term
        if abs(term) < 1e-18:
            break
    return acc


class TestBrent:
    def test_j0_first_zero(self):
        root = num.brent_root(_j0_series, 2.0, 3.0, tol=1e-13)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)

    def test_sqrt2(self):
        assert num.brent_root(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)

    def test_j1_first_zero(self):
        root = num.brent_root(lambda x: sp.bessel_j(1, x), 3.0, 4.0, tol=1e-13)
        assert root == pytest.approx(3.831705970207512, abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(num.BracketError):
            num.brent_root(lambda x: 1.0 + x * x, -1.0, 1.0)

    @given(st.floats(-3.0, -0.1), st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_root_inside_bracket(self, lo, hi):
        root = num.brent_root(lambda x: math.tanh(x), lo, hi)
        assert lo <= root <= hi


class TestNewtonBrackets:
    def test_sine_roots_in_lockstep(self):
        k = np.arange(1, 21)
        lo, hi = k * math.pi - 1.0, k * math.pi + 1.3
        roots = num.newton_brackets(lambda x, idx: (np.sin(x), np.cos(x)),
                                    lo, hi, np.sin(lo) < 0.0)
        assert np.max(np.abs(roots - k * math.pi) / (k * math.pi)) < 4e-16

    def test_bisection_when_newton_leaves_the_bracket(self):
        # a derivative of the wrong sign sends every Newton step outside
        roots = num.newton_brackets(lambda x, idx: (x ** 3 - 2.0, -np.ones_like(x)),
                                    np.array([0.0]), np.array([3.0]), np.array([True]),
                                    tol=1e-12)
        assert roots[0] == pytest.approx(2.0 ** (1.0 / 3.0), abs=2e-12)

    def test_fdf_gets_bracket_indices(self):
        # the second bracket converges later; fdf must then see only it
        targets = np.array([0.5, 1.7])
        fdf = lambda x, idx: ((x - targets[idx]) ** 3, 3.0 * (x - targets[idx]) ** 2)
        roots = num.newton_brackets(fdf, np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                                    np.array([True, True]), tol=1e-12)
        assert roots == pytest.approx(targets, abs=1e-11)

    def test_not_converged_raises(self):
        # pure bisection (f' = 0) cannot shrink a 1e300-wide bracket in time
        with pytest.raises(num.BracketError):
            num.newton_brackets(lambda x, idx: (x - 0.1, np.zeros_like(x)),
                                np.array([0.0]), np.array([1e300]), np.array([True]))


class TestQuad:
    def test_fs_base_integral(self):
        f = lambda u: (np.log1p(u) - np.log(np.maximum(1.0, u))) / (1.0 + u) ** 2
        # the piece on [1, inf) mapped onto [0, 1] by u = 1/t
        val = (num.adaptive_quad(f, 0.0, 1.0)
               + num.adaptive_quad(lambda t: f(1.0 / t) / t ** 2, 0.0, 1.0))
        assert val == pytest.approx(1.0 - math.log(2.0), abs=1e-10)

    def test_circle_base_integral(self):
        val = num.adaptive_quad(lambda t: math.log(4.0) / (2.0 * math.pi),
                                0.0, 2.0 * math.pi)
        assert val == pytest.approx(math.log(4.0), abs=1e-12)

    def test_polynomial(self):
        assert num.adaptive_quad(lambda x: x, 0.0, 1.0) == pytest.approx(0.5)

    def test_gaussian(self):
        # the truncation error of [-8, 8] is below 1e-28
        assert num.adaptive_quad(lambda x: np.exp(-x * x), -8.0,
                                 8.0) == pytest.approx(math.sqrt(math.pi),
                                                       abs=1e-10)

    def test_contour_panels_share_the_nodes(self):
        x, w = num._leggauss(16)
        assert np.array_equal(num._GL_NODES, x) and np.array_equal(num._GL_WEIGHTS, w)

    def test_unresolved_integrand_raises(self):
        # a jump inside the interval: successive rules differ by O(1/n)
        with pytest.raises(num.QuadratureError):
            num.adaptive_quad(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0)


class TestZeroTails:
    def test_j0_tail_quarter(self):
        from scipy.special import jn_zeros

        zeros = jn_zeros(0, 60)
        total = float(np.sum(zeros[:50] ** -2.0)) + num.zero_tail_sum(
            zeros, 50, 1.0)
        assert total == pytest.approx(0.25, abs=1e-10)

    def test_j0p_tail_eighth(self):
        from scipy.special import jnp_zeros

        zeros = jnp_zeros(0, 60)
        total = float(np.sum(zeros[:50] ** -2.0)) + num.zero_tail_sum(
            zeros, 50, 1.0)
        assert total == pytest.approx(0.125, abs=1e-10)

    def test_diverging_exponent_rejected(self):
        with pytest.raises(num.QuadratureError):
            num.zero_tail_sum(np.arange(1.0, 61.0) * math.pi, 50, 0.4)


class TestProfileFit:
    def test_sinh_profile(self):
        g = lambda z: (math.pi * z + math.log1p(-math.exp(-2.0 * math.pi * z))
                       - math.log(2.0 * math.pi * z))
        prof = num.fit_asymptotic_profile(g, 30.0, 300.0)
        assert prof.d == pytest.approx(math.pi, abs=1e-10)
        assert prof.a == pytest.approx(-0.5, abs=1e-9)
        assert prof.b == pytest.approx(-math.log(2.0 * math.pi), abs=1e-8)
        assert prof.certified(1e-8)

    def test_constant_profile(self):
        prof = num.fit_asymptotic_profile(lambda z: 4.25, 30.0, 300.0)
        assert prof.d == pytest.approx(0.0, abs=1e-12)
        assert prof.a == pytest.approx(0.0, abs=1e-12)
        assert prof.c1 == pytest.approx(0.0, abs=1e-9)
        assert prof.b == pytest.approx(4.25, abs=1e-11)

    @given(st.floats(-2.0, 2.0), st.floats(-1.5, 1.5), st.floats(-3.0, 3.0),
           st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_additivity(self, d, a, b, c1):
        # profile of a product sequence = sum of profiles
        g1 = lambda z: d * z + a * math.log(z * z) + b + c1 / z
        g2 = lambda z: -0.7 * z + 0.3 * math.log(z * z) - 1.1 + 0.4 / z
        p1 = num.fit_asymptotic_profile(g1, 30.0, 300.0, n_nodes=80)
        p2 = num.fit_asymptotic_profile(g2, 30.0, 300.0, n_nodes=80)
        p12 = num.fit_asymptotic_profile(lambda z: g1(z) + g2(z), 30.0, 300.0,
                                         n_nodes=80)
        assert p12.a == pytest.approx(p1.a + p2.a, abs=1e-8)
        assert p12.b == pytest.approx(p1.b + p2.b, abs=1e-7)

    def test_ill_conditioned_raises(self):
        rng = np.random.default_rng(7)
        noisy = lambda z: math.sin(37.0 * z) + rng.normal(0.0, 1.0)
        with pytest.raises(num.FitError):
            num.fit_asymptotic_profile(noisy, 30.0, 300.0,
                                       residual_threshold=1e-8)


def _sine_logp(z):
    y = -1j * z
    return (math.pi * y + np.log1p(-np.exp(-2.0 * math.pi * y))
            - np.log(2.0 * math.pi * y))


class TestContour:
    def test_contour_spec_validation(self):
        with pytest.raises(ValueError):
            num.ContourSpec(c=-1.0)
        with pytest.raises(ValueError):
            num.ContourSpec(c=1.0, half_angle=math.pi / 4.0)

    def test_sine_product_s2(self):
        ctr = num.ContourSpec(c=0.5, truncation_radius=60.0)
        val = num.mellin_contour_zeta(_sine_logp, ctr, 2.0)
        assert val == pytest.approx(math.pi ** 4 / 90.0, abs=1e-10)

    def test_single_zero_product(self):
        a = 3.0
        ctr = num.ContourSpec(c=1.0, truncation_radius=400.0)
        for s in (0.8, 1.5, 2.0):
            val = num.mellin_contour_zeta(
                lambda z: np.log(1.0 - (z / a) ** 2), ctr, s)
            assert val == pytest.approx(a ** (-2.0 * s), abs=2e-12)

    def test_j0_product_rayleigh(self):
        # p = J_0 itself: sum 1/j_{0,k}^4 = 1/32
        ctr = num.ContourSpec(c=1.0, truncation_radius=200.0)
        logp = lambda z: np.log(sp.bessel_j_complex_many((0,), z)[0])
        assert num.mellin_contour_zeta(logp, ctr, 2.0, unwrap=True) == \
            pytest.approx(1.0 / 32.0, abs=1e-10)

    def test_j0_product_s3_vs_direct(self):
        # closes the contour-vs-direct equivalence grid at s = 3
        from scipy.special import jn_zeros

        zeros = jn_zeros(0, 2000)
        direct = float(np.sum(zeros[:1500] ** -6.0)) + num.zero_tail_sum(
            zeros, 1500, 3.0)
        ctr = num.ContourSpec(c=1.0, truncation_radius=200.0)
        logp = lambda z: np.log(sp.bessel_j_complex_many((0,), z)[0])
        assert num.mellin_contour_zeta(logp, ctr, 3.0, unwrap=True) == \
            pytest.approx(direct, abs=1e-9)

    def test_i0prime_product_direct_sum(self):
        # zeros of I_0' ~ J_0' zeros: contour vs direct summation + tail
        from scipy.special import jnp_zeros

        zeros = jnp_zeros(0, 4000)
        s = 1.5
        direct = float(np.sum(zeros[:3000] ** (-2.0 * s))) + num.zero_tail_sum(
            zeros, 3000, s)
        ctr = num.ContourSpec(c=1.0, truncation_radius=240.0)
        logp = lambda z: np.log(2.0 * sp.bessel_j_complex_many((1,), z)[1] / z)
        val = num.mellin_contour_zeta(logp, ctr, s, unwrap=True)
        assert val == pytest.approx(direct, abs=1e-6)

    def test_critical_values_sine(self):
        ctr = num.ContourSpec(c=0.5, truncation_radius=60.0)
        prof = num.AsymptoticProfile(d=-math.pi, a=0.5,
                                     b=math.log(2.0 * math.pi))
        z0, z0p = num.mellin_zeta_critical_values(_sine_logp, ctr, prof)
        assert z0 == pytest.approx(-0.5, abs=1e-12)
        assert z0p == pytest.approx(-math.log(2.0 * math.pi), abs=1e-10)

    def test_requires_s_above_half(self):
        ctr = num.ContourSpec(c=0.5)
        with pytest.raises(ValueError):
            num.mellin_contour_zeta(_sine_logp, ctr, 0.4)


class TestProfileZetaOrientation:
    def test_sine_orientation(self):
        # minus-log profile has (a, b) = (1/2, log 2pi) and the zeta values
        # come out as the classical (-1/2, -log 2pi)
        from zetacan.zetareg import zeta_from_profile

        g = lambda z: -(math.pi * z + math.log1p(-math.exp(-2.0 * math.pi * z))
                        - math.log(2.0 * math.pi * z))
        prof = num.fit_asymptotic_profile(g, 30.0, 300.0)
        z0, z0p = zeta_from_profile(prof)
        assert z0 == pytest.approx(-0.5, abs=1e-9)
        assert z0p == pytest.approx(-math.log(2.0 * math.pi), abs=1e-8)
