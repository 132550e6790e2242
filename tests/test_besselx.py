import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jn_zeros, jnp_zeros

from zetacan import besselx as bx
from zetacan.numerics import BracketError, adaptive_quad, zero_tail_sum
from zetacan.special import bessel_j_many


class TestZeroTables:
    @pytest.mark.parametrize("order", [0, 1, 5, 13])
    def test_j_zeros_against_scipy(self, order):
        own = bx.bessel_j_zeros(order, 55)
        ref = jn_zeros(order, 55)
        assert np.max(np.abs(own - ref)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 4])
    def test_jp_zeros_against_scipy(self, order):
        own = bx._build_zero_table("jp", order, 30)[order]
        ref = jnp_zeros(order, 30)
        assert np.max(np.abs(own - ref)) < 1e-12

    def test_first_zero_ordering(self):
        # j_{n,1} > j'_{n,1} > n for n = 1..10
        jp1 = bx._build_zero_table("jp", 10, 1)[:, 0]
        for n in range(1, 11):
            assert bx.bessel_j_zeros(n, 1)[0] > jp1[n] > n

    @pytest.mark.parametrize("kind", ["j", "jp"])
    def test_full_tables_against_scipy(self, kind):
        ref_zeros = jn_zeros if kind == "j" else jnp_zeros
        table = bx._build_zero_table(kind, 64, 80)
        assert table.shape == (65, 80)
        for order, own in enumerate(table):
            ref = ref_zeros(order, 80)
            assert np.max(np.abs(own - ref) / ref) <= 1e-14, order

    @pytest.mark.parametrize("kind", ["j", "jp"])
    def test_table_size_does_not_move_a_zero(self, kind):
        # tables of different sizes agree bit for bit where they overlap; one
        # asked for at order 0 still spans the 8 orders that its interlacing
        # certification compares
        tables = [bx._build_zero_table(kind, n_top, count)
                  for n_top, count in ((0, 5), (7, 10), (15, 16), (20, 33), (31, 64), (47, 48))]
        assert tables[0].shape == (8, 5)
        for i, a in enumerate(tables):
            for b in tables[i + 1:]:
                rows, cols = min(a.shape[0], b.shape[0]), min(a.shape[1], b.shape[1])
                assert np.array_equal(a[:rows, :cols], b[:rows, :cols]), (a.shape, b.shape)


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
            slope = (bx.cross_G_log(nu, m, x2)
                     - bx.cross_G_log(nu, m, x1)) / math.log(2.0)
            assert slope == pytest.approx(e, abs=1e-6)

    def test_small_z_coefficient(self):
        # G_nu(x) / x^e -> l
        for nu, m in ((3, 1), (1, 2), (0, 3)):
            e = bx.small_z_exponent(nu, m)
            l = float(bx.small_z_coefficient(nu, m))
            x = 1e-3
            val = math.exp(bx.cross_G_log(nu, m, x) - e * math.log(x))
            assert val == pytest.approx(l, rel=1e-5)

    def test_large_x_asymptotics(self):
        # log G - (2x - log(pi x)) -> 0: the cross product sums two
        # e^{2x}/(2 pi x) product branches
        for nu, m in ((3, 1), (5, 2)):
            for x in (200.0, 400.0):
                lead = 2.0 * x - math.log(math.pi * x)
                assert bx.cross_G_log(nu, m, x) - lead == pytest.approx(
                    0.0, abs=20.0 / x)

    def test_symmetry_g(self):
        for x in (0.5, 4.0, 33.0):
            assert bx.cross_G_log(1, 3, x) == pytest.approx(
                bx.cross_G_log(2, 3, x), rel=1e-13)

    def test_many_orders_stay_small(self):
        # 40,000 points with n over 0..250 ask the kernel for 8 orders each;
        # a table of every order up to the call's highest (253 x 40,000
        # values, 81 MB) is never built
        import tracemalloc

        rng = np.random.default_rng(0)
        n, x = rng.integers(0, 251, 40_000), rng.uniform(0.5, 250.0, 40_000)
        tracemalloc.start()
        try:
            L = bx.cross_L(n, 6, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(L))
        assert peak < 20e6, peak

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
        seq = bx.zeros(0, 0, 4)
        expected = [2.404825557695773, 3.831705970207512,
                    5.520078110286311, 7.015586669815619]
        assert np.allclose(seq.zeros, expected, atol=1e-11)

    def test_symmetry_of_sequences(self):
        # zeros() canonicalizes (1, 4) to (3, 4), so evaluate the mirror
        # order's own L_1 at the zeros solved for L_3; L_2 there is not small
        seq = bx.zeros(1, 4, 12)
        assert (seq.n, seq.m) == (3, 4)
        assert np.max(np.abs(bx.cross_L(1, 4, seq.zeros)) / seq.local_scales) < 1e-10
        assert np.min(np.abs(bx.cross_L(2, 4, seq.zeros)) / seq.local_scales) > 1e-3

    def test_lower_bound_on_first_zero(self):
        for m in (1, 2, 3):
            for n in (1, 5, 12, 20):
                lam1 = bx.zeros(n + m, m, 1).zeros[0]
                assert lam1 >= n

    def test_interlacing_generic(self):
        nu, m, K = 5, 2, 40
        lam = bx.zeros(nu, m, K).zeros
        merged = np.sort(np.concatenate([bx.bessel_j_zeros(nu, K + 3),
                                         bx.bessel_j_zeros(nu - m, K + 3)]))
        for i in range(K - 1):
            inside = np.sum((merged > lam[i]) & (merged < lam[i + 1]))
            assert inside == 1

    def test_residual_scaled(self):
        seq = bx.zeros(4, 3, 30)
        assert np.max(seq.residuals / seq.local_scales) < 1e-10

    def test_certified_count(self):
        seq = bx.zeros(2, 1, 25)
        assert len(seq.zeros) == 25
        assert np.all(np.diff(seq.zeros) > 0)
        assert np.all(seq.zeros > 0)

    @pytest.mark.parametrize("n,m,want", [
        (106, 105, 2.3936133510465463), (118, 117, 2.3947417764232854),
        (119, 117, 3.8157044671417943), (118, 118, 3.8157044336166584),
        (150, 150, 3.8190795474039362)])
    def test_lowest_zero_at_large_m(self, n, m, want):
        # 60-digit mpmath bisection; the lowest zero of L_{m+1} lies below
        # every factor zero, where L is below 1e-160 from m = 105 on
        assert bx.zeros(n, m, 1).zeros[0] == pytest.approx(want, rel=1e-13)

    def test_underflow_below_the_first_factor_zero_raises(self):
        # from m = 175, L_{m+1} underflows to 0 at the midpoint of (0, d_1):
        # that is an error, never a zero
        assert bx.zeros(175, 174, 1).zeros[0] == pytest.approx(2.398003153252613, rel=1e-13)
        with pytest.raises(BracketError, match=r"L_176 \(m=175\) underflows"):
            bx.zeros(176, 175, 1)


class TestBatchedSequences:
    """zero_sequences solves many (n, m) pairs at once; batching changes no bit."""

    @staticmethod
    def _orders(m):
        # duplicates, the symmetric pairs (0, m) and (1, m - 1), the middle
        # order m/2 and family orders
        return [0, m, m // 2, m + 1, max(m - 1, 0), m + 3, m + 1, 1, m, m // 2]

    @staticmethod
    def _assert_same(got, want, label):
        for field in bx.SpectralSequence._fields:
            a, b = getattr(got, field), getattr(want, field)
            assert (a == b) if field in ("n", "m") else np.array_equal(a, b), \
                (label, field)

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 17, 30])
    @pytest.mark.parametrize("K", [1, 8, 50])
    def test_batch_equals_solo(self, m, K, monkeypatch):
        monkeypatch.setattr(bx, "_SEQUENCES", {})
        orders = self._orders(m)
        batch = bx.zero_sequences([(n, m) for n in orders], K)
        assert len(batch) == len(orders)
        for n, got in zip(orders, batch):
            monkeypatch.setattr(bx, "_SEQUENCES", {})  # a solo solve, not a memo hit
            solo = bx.zeros(n, m, K)
            assert solo is not got
            assert (got.n, got.m) == (solo.n, solo.m) == (max(n, m - n), m)
            self._assert_same(got, solo, n)
            assert len(got.zeros) == K

    @pytest.mark.parametrize("K", [1, 8, 50])
    def test_mixed_twist_degrees_equal_per_m_calls(self, K, monkeypatch):
        # one batch over six twist degrees, with m = 0 (J J' factors), even m
        # (the middle order's J_{m/2} J_{m/2+1} factors) and odd m, in an
        # order that is neither sorted by m nor by n; an empty memo both times
        degrees = (5, 0, 30, 2, 17, 1)
        pairs = [(n, m) for m in degrees for n in self._orders(m)][::-1]
        monkeypatch.setattr(bx, "_SEQUENCES", {})
        batch = dict(zip(pairs, bx.zero_sequences(pairs, K)))
        for m in degrees:
            monkeypatch.setattr(bx, "_SEQUENCES", {})
            orders = self._orders(m)
            for n, want in zip(orders, bx.zero_sequences([(n, m) for n in orders], K)):
                assert want is not batch[(n, m)]
                self._assert_same(batch[(n, m)], want, (n, m))
        # the pairs of one symmetry class share one result
        assert batch[(0, 30)] is batch[(30, 30)]

    def test_batch_mixing_K_equals_one_pair_calls(self, monkeypatch):
        # one batch over several K, twist degrees and both bracket layouts
        requests = [([(0, 2), (5, 2), (1, 0)], 7), ([(3, 1), (0, 5), (9, 4)], 1),
                    ([(5, 2), (2, 4), (8, 3)], 30)]
        monkeypatch.setattr(bx, "_SEQUENCES", {})
        batch = bx.solve_zero_sequences(requests)
        for (pairs, K), got in zip(requests, batch):
            for pair, seq in zip(pairs, got):
                monkeypatch.setattr(bx, "_SEQUENCES", {})
                self._assert_same(seq, bx.zeros(*pair, K), (pair, K))

    def test_empty_gap_names_its_order(self, monkeypatch):
        # flatten L_7 at its factor zeros: its gaps above d_1 hold no sign change
        cross_L = bx.cross_L

        def flat_7(n, m, x):
            vals = np.array(cross_L(n, m, x))
            vals[np.broadcast_to(n, vals.shape) == 7] = 1.0
            return vals

        monkeypatch.setattr(bx, "cross_L", flat_7)
        monkeypatch.setattr(bx, "_SEQUENCES", {})  # solve, do not recall
        with pytest.raises(BracketError, match=r"L_7 \(m=2\)"):
            bx.zero_sequences([(5, 1), (3, 2), (5, 2), (7, 2), (9, 2), (6, 4)], 6)

    def test_rejects_empty_count(self):
        with pytest.raises(ValueError):
            bx.zero_sequences([(3, 2)], 0)

    def test_rejects_negative_twist_degree(self):
        with pytest.raises(ValueError, match="twist degree"):
            bx.zero_sequences([(1, -1)], 3)
        with pytest.raises(ValueError, match="twist degree"):
            bx.taylor_sum_rule_exact(1, -1)


class TestSequenceMemo:
    """zero_sequences solves each canonical (n, m) once per K and process."""

    PAIRS = [(2, 5), (0, 4), (2, 4), (3, 0), (6, 1)]

    def test_repeat_returns_the_same_object(self, monkeypatch):
        monkeypatch.setattr(bx, "_SEQUENCES", {})
        first = bx.zero_sequences(self.PAIRS, 12)
        monkeypatch.setattr(bx, "_solve_sequences", None)  # a repeat solves nothing
        again = bx.zero_sequences([(3, 5), *self.PAIRS], 12)
        assert again[0] is first[0]  # (3, 5) is the mirror of (2, 5)
        assert all(a is b for a, b in zip(again[1:], first))
        assert bx.zeros(4, 4, 12) is first[1]

    def test_batch_solves_only_the_missing_pairs(self, monkeypatch):
        monkeypatch.setattr(bx, "_SEQUENCES", {})
        solves = []
        solve = bx._solve_sequences
        monkeypatch.setattr(bx, "_solve_sequences",
                            lambda keys: solves.append(keys) or solve(keys))
        bx.zero_sequences(self.PAIRS[:3], 12)
        bx.zero_sequences(self.PAIRS, 12)
        bx.zero_sequences(self.PAIRS, 12)
        bx.zero_sequences(self.PAIRS[:1], 13)
        assert solves == [[(3, 5, 12), (4, 4, 12), (2, 4, 12)], [(3, 0, 12), (6, 1, 12)],
                          [(3, 5, 13)]]
        # one batch of several K solves only what the memo lacks, once each
        bx.solve_zero_sequences([(self.PAIRS, 12), (self.PAIRS[:2], 13), (self.PAIRS[1:2], 7)])
        assert solves[3:] == [[(4, 4, 13), (4, 4, 7)]]

    @pytest.mark.parametrize("K", [1, 7, 40])
    def test_other_K_equals_a_cold_solve(self, K, monkeypatch):
        # a pair memoized at K = 20 and asked for at another K is solved
        # anew; it equals a solve with an empty memo
        monkeypatch.setattr(bx, "_SEQUENCES", {})
        bx.zero_sequences(self.PAIRS, 20)
        warm = bx.zero_sequences(self.PAIRS, K)
        monkeypatch.setattr(bx, "_SEQUENCES", {})
        cold = bx.zero_sequences(self.PAIRS, K)
        for pair, a, b in zip(self.PAIRS, warm, cold):
            assert a is not b and len(a.zeros) == K
            TestBatchedSequences._assert_same(a, b, pair)

    def test_memoized_sequences_are_read_only(self):
        seq = bx.zeros(4, 3, 10)
        for a in (seq.zeros, seq.residuals, seq.local_scales):
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(AttributeError):
            seq.zeros = seq.zeros.copy()


class TestSumRules:
    def test_exact_00(self):
        assert bx.taylor_sum_rule_exact(0, 0, 2) == \
            Fraction(3, 8)

    @staticmethod
    def _g_series(nu, m):
        """Taylor coefficients of G_nu = I_{nu+1} I_{nu-m} + I_nu I_{nu-m-1},
        each product convolved from five terms of each I series."""
        def i_series(order):
            order = abs(order)
            return {order + 2 * r: Fraction(1, 2 ** (order + 2 * r) * math.factorial(r)
                                            * math.factorial(order + r)) for r in range(5)}

        out = {}
        for a, b in ((nu + 1, nu - m), (nu, nu - m - 1)):
            for ea, ca in i_series(a).items():
                for eb, cb in i_series(b).items():
                    out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
        return out

    def test_newton_identity(self):
        # S2 = e1 and S4 = e1^2 - 2 e2 against the series convolved term by
        # term, on both branches (nu >= m + 1 and nu <= m) and mirror orders
        for nu, m in [(3, 1), (0, 0), (4, 2), (2, 4), (5, 5), (9, 3), (1, 2), (0, 7)]:
            series = self._g_series(nu, m)
            e = min(series)
            e1, e2 = series[e + 2] / series[e], series[e + 4] / series[e]
            assert bx.taylor_sum_rule_exact(nu, m, 2) == e1, (nu, m)
            assert bx.taylor_sum_rule_exact(nu, m, 4) == e1 * e1 - 2 * e2, (nu, m)

    @pytest.mark.parametrize("nu,m", [(0, 0), (2, 1), (5, 2), (3, 3), (8, 4)])
    def test_zero_sum_matches_taylor(self, nu, m):
        K = 60
        seq = bx.zeros(nu, m, K)
        total = float(np.sum(seq.zeros ** -2.0)) + zero_tail_sum(
            seq.zeros, K, 1.0, slope=math.pi / 2.0)
        assert total == pytest.approx(float(bx.taylor_sum_rule_exact(nu, m, 2)), abs=1e-6)


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
            seq = bx.zeros(nu, m, 10)
            for lam in seq.zeros:
                lhs, rhs = bx.eigen_norm_check(nu, m, float(lam))
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-6

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_array_equals_scalar_calls(self, m):
        nu = m + 2
        lam = bx.zeros(nu, m, 10).zeros
        lam = lam[np.abs(bessel_j_many((nu,), lam)[nu]) >= 1e-8]
        lhs, rhs = bx.eigen_norm_check(nu, m, lam)
        assert lhs.shape == rhs.shape == lam.shape
        for i, x in enumerate(lam):
            assert bx.eigen_norm_check(nu, m, float(x)) == (lhs[i], rhs[i])

    def test_mixed_arrays_equal_scalar_calls(self):
        # orders and twist degrees as arrays broadcast against the points
        nu = np.array([[4], [2], [6], [3]])
        m = np.array([[1], [0], [3], [2]])
        lam = np.array([bx.zeros(int(n), int(d), 6).zeros
                        for n, d in zip(nu[:, 0], m[:, 0])])
        lam[1] += 0.25  # off the J zeros of the m = 0 order, where J_nu vanishes
        lhs, rhs = bx.eigen_norm_check(nu, m, lam)
        L, dL = bx.cross_L(nu, m, lam), bx.cross_L_prime(nu, m, lam)
        assert lhs.shape == rhs.shape == L.shape == dL.shape == lam.shape
        for (i, k), x in np.ndenumerate(lam):
            n, d = int(nu[i, 0]), int(m[i, 0])
            assert bx.eigen_norm_check(n, d, float(x)) == (lhs[i, k], rhs[i, k])
            assert (bx.cross_L(n, d, float(x)), bx.cross_L_prime(n, d, float(x))) == \
                (L[i, k], dL[i, k])

    def test_norm_integral_closed_form(self):
        # int_0^1 x J_n(a x)^2 dx = (1/2) J_n'(a)^2 at a = j_{n,1}
        for n in (1, 3):
            a = float(bx.bessel_j_zeros(n, 1)[0])
            val = adaptive_quad(lambda x: x * bessel_j_many((n,), a * x)[n] ** 2, 0.0, 1.0)
            v = bessel_j_many((n - 1, n + 1), a)
            jp = 0.5 * (v[n - 1] - v[n + 1])
            assert val == pytest.approx(0.5 * jp ** 2, rel=1e-10)

    def test_probe_continuity_and_norm(self):
        # the physical weight carries max(1,r)^{2m+4} (metric weight
        # r^{-2m} times volume r^{-4}), against which the r^m growth of
        # the outer branch cancels and the closed two-term norm holds
        nu, m = 4, 2
        lam = float(bx.zeros(nu, m, 1).zeros[0])

        def radial(r):
            # J_nu(lam r) inside, the matched J_{nu-m}(lam/r) branch outside
            if r <= 1.0:
                return bessel_j_many((nu,), lam * r)[nu]
            return (bessel_j_many((nu,), lam)[nu] / bessel_j_many((nu - m,), lam)[nu - m] * r ** m
                    * bessel_j_many((nu - m,), lam / r)[nu - m])

        assert radial(1.0 - 1e-9) == pytest.approx(radial(1.0 + 1e-9), abs=1e-7)
        phi = np.vectorize(radial)
        # the piece on [1, inf) mapped onto [0, 1] by r = 1/t
        norm = (adaptive_quad(lambda r: phi(r) ** 2 * r, 0.0, 1.0)
                + adaptive_quad(lambda t: phi(1.0 / t) ** 2 * t ** (2 * m + 1),
                                0.0, 1.0))
        assert norm > 0.0
        lhs, rhs = bx.eigen_norm_check(nu, m, lam)
        ja = bessel_j_many((nu,), lam)[nu]
        jb = bessel_j_many((nu - m,), lam)[nu - m]
        assert 2.0 * (jb / ja) * norm == pytest.approx(rhs, rel=1e-9)
        assert lhs == pytest.approx(rhs, rel=1e-7)
