import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jn_zeros, jnp_zeros

from zetacan import besselx as bx
from zetacan.numerics import adaptive_quad, zero_tail_sum
from zetacan.special import bessel_j, bessel_j_many, bessel_j_prime


class TestZeroTables:
    @pytest.mark.parametrize("order", [0, 1, 5, 13])
    def test_j_zeros_against_scipy(self, order):
        own = bx.bessel_j_zeros(order, 55)
        ref = jn_zeros(order, 55)
        assert np.max(np.abs(own - ref)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 4])
    def test_jp_zeros_against_scipy(self, order):
        own = bx.bessel_jp_zeros(order, 30)
        ref = jnp_zeros(order, 30)
        assert np.max(np.abs(own - ref)) < 1e-12

    def test_first_zero_ordering(self):
        # j_{n,1} > j'_{n,1} > n for n = 1..10
        for n in range(1, 11):
            j1 = bx.bessel_j_zeros(n, 1)[0]
            jp1 = bx.bessel_jp_zeros(n, 1)[0]
            assert j1 > jp1 > n

    @pytest.mark.parametrize("kind", ["j", "jp"])
    def test_full_tables_against_scipy(self, kind, monkeypatch):
        monkeypatch.setattr(bx, "_ZERO_TABLES", {})
        own_zeros, ref_zeros = ((bx.bessel_j_zeros, jn_zeros) if kind == "j"
                                else (bx.bessel_jp_zeros, jnp_zeros))
        for order in range(65):
            own = own_zeros(order, 80)
            ref = ref_zeros(order, 80)
            assert np.max(np.abs(own - ref) / ref) <= 1e-14, order

    @pytest.mark.parametrize("zeros_of", [bx.bessel_j_zeros, bx.bessel_jp_zeros])
    def test_request_order_does_not_matter(self, zeros_of, monkeypatch):
        requests = [(n, 5 + 3 * n) for n in range(0, 40, 3)]
        monkeypatch.setattr(bx, "_ZERO_TABLES", {})
        ascending = [zeros_of(n, c) for n, c in requests]
        monkeypatch.setattr(bx, "_ZERO_TABLES", {})
        descending = [zeros_of(n, c) for n, c in reversed(requests)][::-1]
        for a, d in zip(ascending, descending):
            assert np.array_equal(a, d)

    def test_growth_builds_once(self, monkeypatch):
        # a request past the table triggers exactly one build, never a
        # cascade of lower-order rebuilds
        builds = []
        build = bx._build_zero_table
        monkeypatch.setattr(bx, "_ZERO_TABLES", {})
        monkeypatch.setattr(bx, "_build_zero_table",
                            lambda *a: builds.append(a) or build(*a))
        for order, count, grows in ((3, 10, True), (2, 10, False), (7, 10, False),
                                    (12, 10, True), (12, 11, True), (0, 40, True),
                                    (25, 5, True), (10, 40, False)):
            before = len(builds)
            assert len(bx.bessel_j_zeros(order, count)) == count
            assert len(builds) - before == int(grows), (order, count)


class TestCrossProducts:
    def test_m0_reduces_to_jjprime(self):
        # L_n(m=0) = -2 J_n J_n' up to the sign convention fixed by the
        # product representation (here L_0 = +2 J_0 J_1 = -2 J_0 J_0')
        for x in (0.7, 3.1, 9.4):
            v = bessel_j_many((0, 1), x)
            assert bx.cross_L(0, 0, x) == pytest.approx(2.0 * v[0] * v[1],
                                                        rel=1e-12, abs=1e-15)

    def test_no_common_zeros_with_factor(self):
        # at x = j_{nu-m,k}: L = -J_nu J_{nu-m-1} != 0
        nu, m = 4, 1
        for x in bx.bessel_j_zeros(nu - m, 8):
            v = bessel_j_many((nu, nu - m - 1), float(x))
            assert bx.cross_L(nu, m, float(x)) == pytest.approx(
                -v[nu] * v[nu - m - 1], rel=1e-10)
            assert abs(bx.cross_L(nu, m, float(x))) > 1e-6

    def test_small_z_slope_of_log_g(self):
        # d log G / d log x -> 2 nu - m - 1 (family) or m + 1 (low orders)
        for nu, m in ((4, 1), (6, 3), (1, 2), (0, 0)):
            e = bx.small_z_exponent(nu, m)
            x1, x2 = 1e-4, 2e-4
            slope = (bx.cross_G_log(nu, m, x2)[0]
                     - bx.cross_G_log(nu, m, x1)[0]) / math.log(2.0)
            assert slope == pytest.approx(e, abs=1e-6)

    def test_small_z_coefficient(self):
        # G_nu(x) / x^e -> l
        for nu, m in ((3, 1), (1, 2), (0, 3)):
            e = bx.small_z_exponent(nu, m)
            l = float(bx.small_z_coefficient(nu, m))
            x = 1e-3
            val = math.exp(bx.cross_G_log(nu, m, x)[0] - e * math.log(x))
            assert val == pytest.approx(l, rel=1e-5)

    def test_large_x_asymptotics(self):
        # log G - (2x - log(pi x)) -> 0: the cross product sums two
        # e^{2x}/(2 pi x) product branches
        for nu, m in ((3, 1), (5, 2)):
            for x in (200.0, 400.0):
                lead = 2.0 * x - math.log(math.pi * x)
                assert bx.cross_G_log(nu, m, x)[0] - lead == pytest.approx(
                    0.0, abs=20.0 / x)

    def test_symmetry_g(self):
        for x in (0.5, 4.0, 33.0):
            assert bx.cross_G_log(1, 3, x)[0] == pytest.approx(
                bx.cross_G_log(2, 3, x)[0], rel=1e-13)

    @pytest.mark.parametrize("nu,m", [(3, 0), (4, 1), (3, 2), (2, 3)])
    def test_parity(self, nu, m):
        # L_nu(-x) = (-1)^e L_nu(x) with e = m+1 mod 2, the i-rotation of
        # the G_n(-z) = (-1)^{m+1} G_n(z) rule
        sign = (-1.0) ** (m + 1)
        for x in (0.8, 5.5):
            assert bx.cross_L(nu, m, -x) == pytest.approx(
                sign * bx.cross_L(nu, m, x), rel=1e-12, abs=1e-16)


class TestZeroSequences:
    def test_spec_00_first_four(self):
        seq = bx.zeros(bx.CrossProductSpec(0, 0), 4)
        expected = [2.404825557695773, 3.831705970207512,
                    5.520078110286311, 7.015586669815619]
        assert np.allclose(seq.zeros, expected, atol=1e-11)

    def test_symmetry_of_sequences(self):
        a = bx.zeros(bx.CrossProductSpec(1, 4), 12).zeros
        b = bx.zeros(bx.CrossProductSpec(3, 4), 12).zeros
        assert np.max(np.abs(a - b)) < 1e-12

    def test_lower_bound_on_first_zero(self):
        for m in (1, 2, 3):
            for n in (1, 5, 12, 20):
                lam1 = bx.zeros(bx.CrossProductSpec(n + m, m), 1).zeros[0]
                assert lam1 >= n

    def test_interlacing_generic(self):
        nu, m, K = 5, 2, 40
        lam = bx.zeros(bx.CrossProductSpec(nu, m), K).zeros
        merged = bx._merged_factor_zeros(nu, m, K + 3)
        for i in range(K - 1):
            inside = np.sum((merged > lam[i]) & (merged < lam[i + 1]))
            assert inside == 1

    def test_residual_scaled(self):
        seq = bx.zeros(bx.CrossProductSpec(4, 3), 30)
        assert np.max(seq.residuals / seq.local_scales) < 1e-10

    def test_certified_count(self):
        seq = bx.zeros(bx.CrossProductSpec(2, 1), 25)
        assert len(seq.zeros) == 25
        assert np.all(np.diff(seq.zeros) > 0)
        assert np.all(seq.zeros > 0)


class TestSumRules:
    def test_exact_00(self):
        assert bx.taylor_sum_rule_exact(bx.CrossProductSpec(0, 0), 2) == \
            Fraction(3, 8)

    def test_newton_identity(self):
        # e2 relation: S4 = S2^2 - 2 e2, checked through the series route
        spec = bx.CrossProductSpec(3, 1)
        series = bx._g_series(3, 1)
        e = min(series)
        l = series[e]
        e1 = series[e + 2] / l
        e2 = series[e + 4] / l
        assert bx.taylor_sum_rule_exact(spec, 4) == e1 * e1 - 2 * e2

    @pytest.mark.parametrize("nu,m", [(0, 0), (2, 1), (5, 2), (3, 3), (8, 4)])
    def test_zero_sum_matches_taylor(self, nu, m):
        K = 60
        seq = bx.zeros(bx.CrossProductSpec(nu, m), K)
        total = float(np.sum(seq.zeros ** -2.0)) + zero_tail_sum(
            seq.zeros, K, 1.0, slope=math.pi / 2.0)
        assert total == pytest.approx(bx.taylor_sum_rule(
            bx.CrossProductSpec(nu, m), 2), abs=1e-6)


class TestSpectrum:
    def test_m0_smallest_eigenvalue(self):
        spec = bx.spectrum(0, 5, 10)
        lam = spec.entries[0]
        assert lam.eigenvalue == pytest.approx(1.8411837813406593 ** 2 / 4.0,
                                               abs=1e-10)
        assert lam.multiplicity == 2
        assert spec.zero_mode_multiplicity == 1

    def test_multiplicity_rules(self):
        # m even: 2 below m/2, 1 at m/2, 2 above m; m odd: all 2
        assert bx.canonical_orders(4, 5) == [(0, 2), (1, 2), (2, 1), (5, 2),
                                             (6, 2)]
        assert bx.canonical_orders(3, 4) == [(0, 2), (1, 2), (4, 2), (5, 2)]
        assert bx.canonical_orders(0, 3) == [(0, 1), (1, 2), (2, 2)]

    def test_counting_monotone_in_cutoff(self):
        spec = bx.spectrum(2, 6, 12)
        cuts = np.linspace(1.0, 60.0, 15)
        counts = [sum(e.multiplicity for e in spec.entries
                      if e.eigenvalue <= c) for c in cuts]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_entries_sorted(self):
        spec = bx.spectrum(1, 4, 8)
        evs = [e.eigenvalue for e in spec.entries]
        assert evs == sorted(evs)


class TestEigenNorm:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agreement(self, m):
        worst = 0.0
        for nu in range(m + 1, m + 6):
            seq = bx.zeros(bx.CrossProductSpec(nu, m), 10)
            for lam in seq.zeros:
                lhs, rhs = bx.eigen_norm_check(nu, m, float(lam))
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-6

    def test_norm_integral_closed_form(self):
        # int_0^1 x J_n(a x)^2 dx = (1/2) J_n'(a)^2 at a = j_{n,1}
        for n in (1, 3):
            a = float(bx.bessel_j_zeros(n, 1)[0])
            val = adaptive_quad(lambda x: x * bessel_j(n, a * x) ** 2, 0.0, 1.0)
            assert val == pytest.approx(0.5 * bessel_j_prime(n, a) ** 2, rel=1e-10)

    def test_probe_continuity_and_norm(self):
        # the physical weight carries max(1,r)^{2m+4} (metric weight
        # r^{-2m} times volume r^{-4}), against which the r^m growth of
        # the outer branch cancels and the closed two-term norm holds
        nu, m = 4, 2
        lam = float(bx.zeros(bx.CrossProductSpec(nu, m), 1).zeros[0])
        left = bx.eigenfunction_radial(nu, m, lam, 1.0 - 1e-9)
        right = bx.eigenfunction_radial(nu, m, lam, 1.0 + 1e-9)
        assert left == pytest.approx(right, abs=1e-7)
        phi = np.vectorize(lambda r: bx.eigenfunction_radial(nu, m, lam, r))
        # the piece on [1, inf) mapped onto [0, 1] by r = 1/t
        norm = (adaptive_quad(lambda r: phi(r) ** 2 * r, 0.0, 1.0)
                + adaptive_quad(lambda t: phi(1.0 / t) ** 2 * t ** (2 * m + 1),
                                0.0, 1.0))
        assert norm > 0.0
        lhs, rhs = bx.eigen_norm_check(nu, m, lam)
        ja = bessel_j(nu, lam)
        jb = bessel_j(nu - m, lam)
        assert 2.0 * (jb / ja) * norm == pytest.approx(rhs, rel=1e-9)
        assert lhs == pytest.approx(rhs, rel=1e-7)


class TestUniformG:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_error_times_n_squared_bounded(self, m):
        errs = {}
        for n in (16, 32, 64):
            errs[n] = max(
                abs(bx.cross_G_uniform_log(n, m, z)
                    - bx.cross_G_log(n + m, m, n * z)[0])
                for z in (0.5, 1.0, 2.0))
        assert errs[16] > errs[32] > errs[64]
        bound = 2.0 * errs[16] * 16 ** 2
        assert errs[32] * 32 ** 2 <= bound
        assert errs[64] * 64 ** 2 <= bound
