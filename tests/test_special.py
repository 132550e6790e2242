import math

import numpy as np
import pytest
from scipy.special import ive, jv

from test_kernel_reference import _miller_points
from zetacan import special as sp

LOG_2PI = math.log(2.0 * math.pi)


class TestGamma:
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

    def test_precomputed_corrections_keep_every_bit(self):
        # the Euler-Maclaurin corrections as they were written before their
        # coefficients became module constants: each Bernoulli number
        # converted and divided on every call, each rising factorial
        # multiplied out from 1 and its derivative carried along by the
        # product rule
        def coef(j):
            return float(sp._BERNOULLI[2 * j]) / math.factorial(2 * j)

        def rising(s, m):
            p = 1.0
            for i in range(m):
                p *= s + i
            return p

        def head(s, a, term):
            acc = comp = 0.0
            for k in range(sp._EM_TERMS):
                y = term(k + a) - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
            return acc, sp._EM_TERMS + a

        def hurwitz(s, a):
            acc, w = head(s, a, lambda v: v ** (-s))
            acc += w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** (-s)
            for j in range(1, sp._EM_CORRECTIONS + 1):
                acc += coef(j) * rising(s, 2 * j - 1) * w ** (-s - 2 * j + 1)
            return acc

        def rising_prime(s, m):
            p, dp = 1.0, 0.0
            for i in range(m):
                p, dp = p * (s + i), dp * (s + i) + p
            return dp

        def rising_prime_of_others(s, m):
            # d/ds prod_{i<m} (s+i) as the sum of the products of the others
            return sum(math.prod(s + j for j in range(m) if j != i) for i in range(m))

        def hurwitz_prime(s, a, drising=rising_prime):
            acc, w = head(s, a, lambda v: -math.log(v) * v ** (-s))
            lw = math.log(w)
            acc += w ** (1.0 - s) * (-lw / (s - 1.0) - 1.0 / (s - 1.0) ** 2)
            acc += -0.5 * lw * w ** (-s)
            for j in range(1, sp._EM_CORRECTIONS + 1):
                m = 2 * j - 1
                acc += coef(j) * w ** (-s - 2 * j + 1) * (
                    drising(s, m) - rising(s, m) * lw)
            return acc

        def digamma(x):
            w = sp._EM_TERMS + x
            tail = math.log(w) - 0.5 / w - sum(
                float(sp._BERNOULLI[2 * j]) / (2 * j) * w ** (-2 * j)
                for j in range(1, sp._EM_CORRECTIONS + 1))
            return tail - math.fsum(1.0 / (k + x) for k in range(sp._EM_TERMS))

        rng = np.random.default_rng(27)
        for s, a in zip(rng.uniform(-12.0, 40.0, 2000), rng.uniform(0.01, 100.0, 2000)):
            s, a = float(s), float(a)
            assert sp.hurwitz_zeta.__wrapped__(s, a) == hurwitz(s, a), (s, a)
            assert sp.hurwitz_zeta_prime(s, a) == hurwitz_prime(s, a), (s, a)
            # the running derivative agrees with the sum of products of the others
            assert hurwitz_prime(s, a, rising_prime_of_others) == pytest.approx(
                hurwitz_prime(s, a), rel=1e-14, abs=0.0), (s, a)
            assert sp._digamma(a) == digamma(a), a
        for s in (-12.0, -2.0, -1.0, 0.0, 2.0, 3.0):  # integer s, factors of 0 included
            assert sp.hurwitz_zeta.__wrapped__(s, 1.0) == hurwitz(s, 1.0), s
            assert sp.hurwitz_zeta_prime(s, 1.0) == hurwitz_prime(s, 1.0), s


class TestBesselJ:
    def test_series_constant_term(self):
        assert sp.bessel_j_many((0,), 0.0)[0] == 1.0
        assert sp.bessel_j_many((3,), 0.0)[3] == 0.0

    def test_reflection(self):
        for x in (0.3, 2.7, 11.0, 40.0):
            v = sp.bessel_j_many((-3, 3), x)
            assert v[-3] == pytest.approx(-v[3], abs=1e-15)
            assert sp.bessel_j_many((2,), -x)[2] == pytest.approx(
                sp.bessel_j_many((2,), x)[2], abs=1e-15)

    def test_first_zero_of_j0(self):
        assert abs(sp.bessel_j_many((0,), 2.404825557695773)[0]) < 1e-10

    @pytest.mark.parametrize("n,x", [(0, 0.5), (1, 7.0), (5, 30.0), (12, 63.0),
                                     (40, 55.0), (90, 120.0), (200, 250.0)])
    def test_against_scipy(self, n, x):
        ref = jv(n, x)
        scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)))
        assert abs(sp.bessel_j_many((n,), x)[n] - ref) <= 1e-12 * scale

    def test_contract_box_large_argument(self):
        # accuracy at the far corner of the contract box, scaled to the
        # oscillation envelope (point-wise relative error degenerates at
        # the zeros; double precision phase conditioning caps the scaled
        # error near 1e-11 at x = 1e4)
        for n in (0, 50, 200):
            x = 1e4
            ref = jv(n, x)
            scale = math.sqrt(2.0 / (math.pi * x))
            assert abs(sp.bessel_j_many((n,), x)[n] - ref) <= 2e-11 * scale

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
            fd = (sp.bessel_j_many((n,), x + h)[n] - sp.bessel_j_many((n,), x - h)[n]) / (2.0 * h)
            v = sp.bessel_j_many((n - 1, n + 1), x)
            assert fd == pytest.approx(0.5 * (v[n - 1] - v[n + 1]), abs=1e-6)

    def test_complex_rotation_identity(self):
        # I_n(y) = i^{-n} J_n(iy) ties the complex evaluator to the real one
        z = np.array([2.0j, 5.0j, 11.0j])
        j0s, j2s = sp.bessel_j_complex_many(2, z, np.array([[0], [2]]))
        for y, j0, j2 in zip((2.0, 5.0, 11.0), j0s, j2s):
            assert complex(j0) == pytest.approx(
                complex(math.exp(sp.bessel_i_log(0, y))), rel=1e-12)
            assert complex(j2 * 1j ** -2).real == pytest.approx(
                math.exp(sp.bessel_i_log(2, y)), rel=1e-12)

    def test_complex_against_scipy(self):
        z = np.array([1.5 + 0.8j, 20.0 + 9.0j, 60.0 + 25.0j])
        vals = sp.bessel_j_complex_many(4, z, np.array([[0], [1], [4]]))
        for n, row in zip((0, 1, 4), vals):
            ref = jv(n, z)
            assert np.max(np.abs(row - ref) / np.abs(ref)) < 1e-11

    @pytest.mark.parametrize("x", [np.array([0.4, 3.1, 17.0, 52.5]),
                                   np.array([1.5 + 0.8j, 7.0 - 2.0j, 20.0 + 9.0j])])
    def test_signed_orders_against_scipy(self, x):
        # J_{-k} = (-1)^k J_k from one request of every signed order,
        # real and complex
        q = np.arange(-7, 8)[:, None]
        got = sp.bessel_j_orders(7, x, q)
        ref = jv(q, x)
        scale = np.maximum(np.abs(ref), 1e-3)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref) / scale) < 1e-11
        for k in range(1, 8):
            assert np.array_equal(got[7 - k], (-1) ** k * got[7 + k])


def _table(n_max, x):
    """J_0 .. J_top at every point of x, top the largest of n_max: one
    request of every order, row k holding J_k."""
    x = np.asarray(x)
    orders = np.arange(int(np.max(n_max)) + 1).reshape((-1,) + (1,) * x.ndim)
    return sp.bessel_j_orders(n_max, x, orders)


class TestKernel:
    """bessel_j_orders: one recurrence for all orders at all points."""

    def test_real_against_scipy(self):
        # orders 0..64 on (0, 300]: relative error where J_n is monotone
        # (x < n, down to tiny x), envelope-scaled where it oscillates
        x = np.concatenate([np.geomspace(1e-8, 1.0, 40), np.linspace(0.05, 300.0, 1500)])
        own = _table(64, x)
        for n in range(65):
            ref = jv(n, x)
            small = (x < n) & (np.abs(ref) > 1e-290)
            rel = np.abs(own[n] - ref) / np.abs(np.where(small, ref, 1.0))
            assert np.max(rel[small], initial=0.0) < 1e-12, n
            scale = np.maximum(np.abs(ref), np.sqrt(2.0 / (np.pi * x)))
            big = x >= n
            assert np.max((np.abs(own[n] - ref) / scale)[big], initial=0.0) < 1e-12, n

    def test_shape_and_zero_argument(self):
        own = _table(3, np.array([[0.0, 2.0], [-2.0, 5.0]]))
        assert own.shape == (4, 2, 2)
        assert list(own[:, 0, 0]) == [1.0, 0.0, 0.0, 0.0]
        assert np.allclose(own[:, 1, 0], jv(np.arange(4), -2.0), rtol=1e-14, atol=1e-16)

    def test_per_point_orders_do_not_couple_points(self):
        # a real value depends only on its own point and top order
        x = np.array([2.5, 40.0, 170.0])
        together = _table(np.array([3, 7, 50]), x)
        for i, n in enumerate((3, 7, 50)):
            alone = _table(n, x[i:i + 1])
            assert np.array_equal(together[:n + 1, i], alone[:, 0])

    def test_complex_bit_identical_to_fixture(self):
        # values captured at contour nodes of the zeta contour route, each
        # point starting its recurrence at its own index; the points that
        # keep the Miller recurrence must reproduce them exactly (the
        # others take Hankel's expansion, checked in TestHankelRegime)
        from pathlib import Path

        with np.load(Path(__file__).parent / "golden" / "complex_j.npz") as d:
            cases = sorted(k[2:] for k in d.files if k.startswith("z_"))
            assert cases
            for key in cases:
                orders = tuple(int(n) for n in d[f"orders_{key}"])
                z = d[f"z_{key}"]
                keep = _miller_points(max(orders), z)
                assert keep.any(), key
                got = sp.bessel_j_complex_many(
                    max(orders), z, np.reshape(orders, (-1,) + (1,) * z.ndim))
                assert np.array_equal(got[:, keep], d[f"j_{key}"][:, keep]), key


def _amplitude(x):
    # the size of J_n(x) for n <= |x|/2: sqrt(2 / (pi |x|)) e^{|Im x|}
    return np.sqrt(2.0 / (np.pi * np.abs(x))) * np.exp(np.abs(x.imag))


def _hankel_tops(x, rng):
    # random orders up to the highest a point may ask for in Hankel's
    # regime: |x| / 2, and top^2 |Im x| <= 4 |x|^2 off the real axis
    cap = np.floor(np.minimum(np.abs(x) / 2.0,
                              2.0 * np.abs(x) / np.sqrt(np.maximum(np.abs(x.imag), 1e-300))))
    return np.where(rng.random(x.size) < 0.5, cap, rng.integers(0, cap + 1)).astype(int)


class TestHankelRegime:
    """Points with Re x > 0, |x| >= max(30, 2 top) and top^2 |Im x| <= 4 |x|^2
    take Hankel's expansion for J_0 and J_1 and forward recurrence above."""

    def _assert_against_scipy(self, tops, x):
        got = _table(tops, x)
        for i in range(x.size):
            n = np.arange(tops[i] + 1)
            err = np.max(np.abs(got[n, i] - jv(n, x[i]))) / _amplitude(x[i])
            assert err < 1e-13, (x[i], tops[i], err)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_band_against_scipy(self, cplx):
        rng = np.random.default_rng(11 + cplx)
        x = rng.uniform(30.0, 80.0, 400)
        if cplx:
            x = x * np.exp(1j * rng.uniform(-1.5, 1.5, x.size))
        self._assert_against_scipy(_hankel_tops(x, rng), x)

    def test_threshold_against_scipy(self):
        # |x| = max(30, 2 top) exactly: x = 30 at every top it allows, then
        # x = 2 top, real and at the largest |Im x| the bound allows
        tops = np.concatenate([np.arange(16), np.arange(15, 61), np.arange(15, 61)])
        r = np.maximum(30.0, 2.0 * tops)
        im = np.where(np.arange(tops.size) >= 62, np.minimum(16.0, 0.9 * r), 0.0)
        re = np.sqrt(r * r - im * im)
        x = np.where(np.abs(re + 1j * im) < r, np.nextafter(re, np.inf), re) + 1j * im
        assert np.allclose(np.abs(x), r, rtol=1e-15, atol=0.0)
        assert not _miller_points(tops, x).any()
        self._assert_against_scipy(tops, x)

    def test_agrees_with_miller_on_overlap_band(self):
        # the regimes meet where both are accurate: |x| in [30, 80]
        rng = np.random.default_rng(13)
        x = rng.uniform(30.0, 80.0, 300) * np.exp(1j * rng.uniform(-0.6, 0.6, 300))
        tops = _hankel_tops(x, rng)
        hankel = _table(tops, x)
        miller = np.empty((tops.max() + 1, x.size), dtype=x.dtype)
        sp._miller_rows(tops, x, np.arange(tops.max() + 1)[:, None], miller)
        for i in range(x.size):
            n = np.arange(tops[i] + 1)
            assert np.max(np.abs(hankel[n, i] - miller[n, i])) < 1e-13 * _amplitude(x[i])

    def test_regimes_mix_per_point(self):
        # each point takes its regime from its own x and top, so a batch of
        # both regimes equals one-point calls bit for bit
        x = np.array([29.9, 30.0, 80.0, 80.0, -80.0, 45.0 + 60.0j, 45.0 + 3.0j, 200.0 + 1j])
        tops = np.array([3, 3, 40, 41, 5, 20, 20, 90])
        batch = _table(tops, x)
        for i in range(x.size):
            alone = _table(tops[i], x[i:i + 1])
            assert np.array_equal(batch[:tops[i] + 1, i], alone[:, 0]), i

    def test_rows_above_a_point_top_stay_quiet(self):
        # x = 30 with top 1 in a call whose top is 60: a forward recurrence
        # run to order 60 would grow like Y_60(30); the rows above stay 0
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _table(np.array([1, 60, 0]), np.array([30.0, 1.5, 1e4]))
        assert np.all(np.isfinite(got))
        assert not got[2:, 0].any() and not got[1:, 2].any()
        assert got[:2, 0] == pytest.approx(jv([0, 1], 30.0), rel=0.0, abs=1e-15)


class TestComplexBatch:
    """Rows of one complex kernel pass, each with its own top order."""

    def test_rows_equal_their_solo_calls(self):
        # rows of the contour shape c + r e^{i pi/8}; the short ones keep
        # every |z| near 1, where max(|z|, 1) sets the start
        r = np.linspace(0.0, 1.0, 301) * np.exp(1j * math.pi / 8.0)
        rows = [(0.5, 240.0, (0, 1)), (0.98, 0.02, (3, 5)), (1.0, 0.05, (17, 2)),
                (1.02, 0.0, (1, 40)), (3.7, 120.0, (8, 9)), (12.0, 240.0, (60, 61))]
        z = np.array([c + length * r for c, length, _ in rows])
        tops = np.array([[max(o)] for *_, o in rows])
        batch = sp.bessel_j_complex_many(tops, z, np.arange(62)[:, None, None])
        assert batch.shape == (62, len(rows), r.size)
        for i, top in enumerate(tops[:, 0]):
            solo = sp.bessel_j_complex_many(top, z[i], np.arange(top + 1)[:, None])
            assert np.array_equal(batch[:top + 1, i], solo), i

    def test_negative_orders_reflect(self):
        # J_{-k} = (-1)^k J_k; at z = 0 the odd negative orders give -0.0
        z = np.array([0.0, 1.0 + 1.0j, 40.0 - 3.0j])
        vals = sp.bessel_j_complex_many(5, z, np.arange(-5, 6)[:, None])
        for k in range(6):
            assert np.array_equal(vals[5 - k], (-1) ** k * vals[5 + k]), k
        assert all(np.signbit(vals[5 - k, 0].real) == (k % 2 == 1) for k in range(6))


def _full_rescale(scaled, f, *sums):
    """The whole-array rescale: every point multiplied by its factor, 1e-280
    or 1, and counted where it is 1e-280."""
    hot = np.abs(f) > 1e280
    scale = np.where(hot, 1e-280, 1.0)
    return scaled + hot, tuple(a * scale for a in (f, *sums))


class TestSparseRescale:
    """_rescale touches only the points that overflow, with the factors and
    decisions of the whole-array rescale, on the kernel's flat buffers."""

    @staticmethod
    def _inputs(rng, cplx, shape):
        mag = 10.0 ** rng.uniform(275.0, 285.0, shape)
        if not cplx:
            return mag * rng.choice([-1.0, 1.0], shape)
        f = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, shape))
        # points whose parts both stay below 1e280 while |f| passes it, and
        # points just below and just above the threshold on the axes
        f[:4] = [0.75e280 * (1 + 1j), 0.7e280 * (1 - 1j), 0.99e280j, -1.01e280]
        return f

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("shape", [(300,), (37,)])
    def test_equals_whole_array_rescale(self, cplx, shape):
        rng = np.random.default_rng(7)
        f, fp, s1, s2 = (self._inputs(rng, cplx, shape) for _ in range(4))
        scaled = rng.integers(0, 3, shape).astype(np.int32)
        want_scaled, want = _full_rescale(scaled, f, fp, s1, s2)
        got = f.copy(), fp.copy(), s1.copy(), s2.copy()
        bound, bound_p = sp._rescale(scaled, *got)
        assert 0 < np.sum(np.abs(f) > 1e280) < f.size
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.array_equal(scaled, want_scaled)
        assert (bound, bound_p) == (np.max(np.abs(want[0])), np.max(np.abs(want[1])))


class TestBesselILog:
    def test_small_x_leading_term(self):
        for n in (0, 2, 7):
            for x in (1e-3, 1e-2):
                lead = n * math.log(0.5 * x) - math.lgamma(n + 1.0)
                assert sp.bessel_i_log(n, x) - lead == pytest.approx(
                    0.0, abs=x * x)

    def test_large_x_asymptotics_at_50(self):
        x = 50.0
        scaled = math.exp(sp.bessel_i_log(0, x) - x) * math.sqrt(
            2.0 * math.pi * x)
        assert scaled == pytest.approx(1.0 + 1.0 / (8.0 * x), abs=5e-5)

    def test_overflow_free_at_1e5(self):
        lg = sp.bessel_i_log(0, 1e5)
        assert math.isfinite(lg)
        assert lg == pytest.approx(1e5 - 0.5 * math.log(2.0 * math.pi * 1e5),
                                   abs=1e-5)

    @pytest.mark.parametrize("n,x", [(0, 0.7), (3, 12.0), (9, 80.0), (40, 95.0)])
    def test_against_scipy_ive(self, n, x):
        ref = math.log(ive(n, x)) + x
        assert sp.bessel_i_log(n, x) == pytest.approx(ref, abs=5e-13)

    def test_recurrence_residual(self):
        for n in (1, 4, 10):
            for x in (0.9, 8.0, 66.0):
                ia = math.exp(sp.bessel_i_log(n - 1, x))
                ib = math.exp(sp.bessel_i_log(n + 1, x))
                ic = math.exp(sp.bessel_i_log(n, x))
                assert ia - ib == pytest.approx((2.0 * n / x) * ic,
                                                rel=1e-12, abs=1e-12)

    @staticmethod
    def _one_point_reference(n, x):
        # the one-point loops the array form replaced, term for term
        n = abs(n)
        if x >= max(35.0, 1.2 * n * n):
            mu, term, acc, prev = 4.0 * n * n, 1.0, 1.0, 1.0
            for k in range(1, 30):
                term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
                if abs(term) >= prev:
                    break
                acc += term
                prev = abs(term)
                if abs(term) < 1e-19 * acc:
                    break
            return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(acc)
        q, t, acc, shift, r = 0.25 * x * x, 1.0, 1.0, 0.0, 0
        while True:
            r += 1
            t *= q / (r * (n + r))
            acc += t
            if t < 1e-18 * acc and r > 3:
                break
            if acc > 1e280:
                acc, t, shift = acc * 1e-280, t * 1e-280, shift + 280.0 * math.log(10.0)
        return n * math.log(0.5 * x) - math.lgamma(n + 1.0) + math.log(acc) + shift

    def test_array_equals_scalar_calls(self):
        # mixed orders and both regimes, rescaled series sums among them:
        # each point of one call gets the bits of its own one-point call
        n = np.array([[0], [1], [3], [9], [-9], [40], [60]])
        x = np.array([1e-3, 0.7, 12.0, 35.0, 80.0, 640.0, 3000.0, 1e5])
        got = sp.bessel_i_log(n, x)
        assert got.shape == (7, 8)
        want = [[sp.bessel_i_log(int(k), float(v)) for v in x] for k in n[:, 0]]
        assert np.array_equal(got, np.array(want))
        ref = [[self._one_point_reference(int(k), float(v)) for v in x] for k in n[:, 0]]
        assert np.array_equal(got, np.array(ref))
        assert np.array_equal(got[3], got[4])
        assert np.array_equal(sp.bessel_i_log(n[:, 0], 80.0), got[:, 4])

    def test_regime_overlap_consistency(self):
        worst = 0.0
        x = np.array([35.0, 60.0, 120.0])
        for n in (0, 1, 3):
            n = np.full(x.shape, n)
            worst = max(worst, np.max(np.abs(sp._series_i_log(n, x)
                                             - sp._asymptotic_i_log(n, x))))
        assert worst < 1e-9
