import json
import math
from fractions import Fraction

import numpy as np
import pytest

from zetacan import cli, special, torsion
from zetacan import zetareg as zr
from zetacan.special import EULER_GAMMA, riemann_zeta_prime

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)
LOG2PI = math.log(2.0 * math.pi)
ZP1 = riemann_zeta_prime(-1.0)


class TestSequenceValues:
    def test_i0prime_sequence(self):
        # zeta_{J'_0}(0) = -3/4 and zeta'_{J'_0}(0) = (log 2 - log pi)/2
        z0, z0p = -0.75, 0.5 * LOG2 - 0.5 * LOGPI
        assert z0 == -0.75
        assert z0p == pytest.approx(0.5 * LOG2 - 0.5 * LOGPI, abs=1e-15)
        z0n, z0pn = zr._j0p_sequence_values()
        assert z0n == pytest.approx(z0, abs=1e-9)
        assert z0pn == pytest.approx(z0p, abs=1e-8)

    def test_profile_orientation_flat(self):
        from zetacan.numerics import AsymptoticProfile

        prof = AsymptoticProfile(d=0.0, a=0.0, b=0.0)
        assert zr.zeta_from_profile(prof) == (-0.0, -0.0)

    def test_uncertified_profile_rejected(self):
        from zetacan.numerics import AsymptoticProfile, FitError

        prof = AsymptoticProfile(d=0.0, a=1.0, b=1.0, fit_residual=1.0)
        with pytest.raises(FitError):
            zr.zeta_from_profile(prof)

    @pytest.mark.parametrize("nu,m", [(0, 1), (1, 2), (0, 2), (0, 3)])
    def test_fitted_profile_matches_analytic(self, nu, m):
        # d, a and c1 are pinned from the analytic profile; b is fitted
        fit = list(zr.fitted_profiles(m))[nu]
        ana = zr.analytic_profile(nu, m)
        assert (fit.d, fit.a, fit.c1) == (ana.d, ana.a, ana.c1)
        assert fit.b == pytest.approx(ana.b, abs=1e-11)
        assert fit.fit_residual <= 1e-11

    @pytest.mark.parametrize("m", [0, 1, 2, 17, 33, 64, 120])
    def test_fitted_profiles_keep_the_bits_of_one_order_fits(self, m):
        # the fit of one low order at a time, from a scalar-order evaluation;
        # the batched fit must give every order's profile to the bit
        from zetacan.besselx import cross_G_norm_log, representative
        from zetacan.numerics import AsymptoticProfile, _scaled_lstsq

        def one_order(nu):
            nu = representative(nu, m)
            pinned = zr.analytic_profile(nu, m)
            start = max(80.0, 1.2 * (max(nu, m) + 1) ** 2)
            z = np.geomspace(start, 10.0 * start, 160)
            rest = -cross_G_norm_log(nu, m, z) - (pinned.d * z + pinned.a * np.log(z * z)
                                                  + pinned.c1 / z)
            basis = np.stack([np.ones_like(z)] + [z ** -float(p) for p in range(2, 7)], axis=1)
            coef = _scaled_lstsq(basis, rest)
            return AsymptoticProfile(d=pinned.d, a=pinned.a, b=float(coef[0]), c1=pinned.c1,
                                     fit_residual=float(np.max(np.abs(basis @ coef - rest))))

        got = [[v.hex() for v in p] for p in zr.fitted_profiles(m)]
        assert got == [[v.hex() for v in one_order(nu)] for nu in range(m // 2 + 1)]

    @pytest.mark.parametrize("nu,m", [(2, 1), (1, 2)])
    def test_contour_matches_closed(self, nu, m):
        z0c, z0pc = zr.zeta_from_profile(zr.analytic_profile(nu, m))
        contour, (vals,) = zr._contour_samples(m, [nu])
        z0k, z0pk = zr.mellin_zeta_critical_values(vals, contour, zr.analytic_profile(nu, m))
        assert z0k == pytest.approx(z0c, abs=1e-12)
        assert z0pk == pytest.approx(z0pc, abs=1e-8)


class TestProfileRange:
    """The profile fit on the window [s, 10 s], s = max(80, 1.2 (max(nu, m)
    + 1)^2): within 1e-8 of the closed value through m = 64 and at its
    certified edge, m = 120, FitError (exit 3) past that edge.  The contour
    route is within 1e-6 through m = 34 (1.01e-6 at m = 35), so both route
    tolerances hold through m = 34."""

    @pytest.mark.parametrize("m", [*range(65), zr._PROFILE_M_MAX])
    def test_profile_within_1e8_of_closed(self, m):
        report = zr.zeta_canonical(m, check_routes=("profile",))
        assert report.discrepancies["profile"] <= 1e-8

    @pytest.mark.parametrize("m", range(31))
    def test_contour_within_1e6_of_closed(self, m):
        report = zr.zeta_canonical(m, check_routes=("contour",))
        assert report.discrepancies["contour"] <= 1e-6

    @pytest.mark.parametrize("m,code", [(zr._PROFILE_M_MAX, 0), (zr._PROFILE_M_MAX + 1, 3)])
    def test_certified_range_exit_codes(self, m, code, capsys):
        from zetacan import cli

        assert cli.main(["zeta", "--m", str(m), "--route", "profile"]) == code
        assert ("numerical failure" in capsys.readouterr().err) == (code == 3)

    @pytest.mark.parametrize("m,code", [(127, 0), (128, 3)])
    def test_contour_edge_exit_codes(self, m, code, capsys):
        # the contour route stops where its vertex solve used to fail, so
        # its error (1.5e-3 at m = 128) is never reported with exit 0
        from zetacan import cli

        assert cli.main(["zeta", "--m", str(m), "--route", "contour"]) == code
        assert ("numerical failure" in capsys.readouterr().err) == (code == 3)

    def test_small_z_coefficient_log_past_float_range(self):
        # l underflows a float at m = 200; its log comes from the exact integers
        for nu, m in ((100, 200), (200, 200), (201, 200), (3, 4)):
            l = zr.besselx.small_z_coefficient(nu, m)
            if nu <= m:
                want = (math.log(m + 2.0) - (m + 1) * LOG2 - math.lgamma(nu + 2.0)
                        - math.lgamma(m - nu + 2.0))
            else:
                want = (-(2 * nu - m - 1) * LOG2 - math.lgamma(nu + 1.0)
                        - math.lgamma(nu - m + 0.0))
            assert zr.besselx.small_z_log_coefficient(nu, m) == pytest.approx(want, rel=1e-13)
            assert (float(l) == 0.0) == (m == 200)


class TestComponents:
    def test_a_component_sampled(self):
        # A_m(0) = zeta(-1) + (m/2) zeta(0) = -1/12 - m/4, consistent with
        # the kernel
        from zetacan.special import riemann_zeta

        for m in (0, 2, 5):
            comp = zr.family_components(m)
            assert comp.A0 == pytest.approx(-1.0 / 12.0 - 0.25 * m, abs=1e-14)
            assert comp.A0 == pytest.approx(
                riemann_zeta(-1.0) + 0.5 * m * riemann_zeta(0.0), abs=1e-14)

    def test_gamma_k_values(self):
        # gamma_1(0) = -log Gamma(2) - gamma = -gamma (telescoping series);
        # gamma_2(0) = -log 2 - 2 gamma
        assert zr.gamma_k_zero(1) == pytest.approx(-EULER_GAMMA, abs=1e-15)
        assert zr.gamma_k_zero(2) == pytest.approx(-LOG2 - 2.0 * EULER_GAMMA,
                                                   abs=1e-15)
        for k in (1, 2, 4, 6):
            assert zr.gamma_k_function(k, 0.0) == pytest.approx(
                zr.gamma_k_zero(k), abs=1e-7)

    def test_gamma_k_sampled_s(self):
        # analytic near 0: values at small s stay close to the s = 0 limit
        val = zr.gamma_k_function(2, 0.01)
        assert val == pytest.approx(zr.gamma_k_zero(2), abs=0.05)

    def test_f_neumann_block(self):
        f0, f0p = zr.f_component_closed(3.0 / 8.0, -7.0 / 24.0)
        assert f0 == pytest.approx(1.0 / 24.0, abs=1e-15)
        assert f0p == pytest.approx((EULER_GAMMA - LOG2 - 3.5) / 12.0, abs=1e-15)

    def test_f_family_values(self):
        for m in (0, 1, 4):
            f0, f0p = zr.f_component_values(m)
            assert f0 == pytest.approx((1 + 3 * m + 3 * m * m) / 12.0, abs=1e-14)
            f0n, f0pn = zr._f_values_numeric(
                (2.0 * m * m + 2.0 * m + 1.0) / 4.0, -1.0 / 12.0)
            assert f0p == pytest.approx(f0pn, abs=1e-7)

    def test_f_semiclosed_consistency(self):
        # the s-expression passes through the closed (F(0), F'(0)) pair;
        # the step must stay above the 1/(2s)-pole cancellation noise of
        # s zeta(2s+1)
        alpha, beta = 3.0 / 8.0, -7.0 / 24.0
        f0, f0p = zr.f_component_closed(alpha, beta)
        h = 1e-3
        assert zr.f_component_semiclosed(alpha, beta, 0.0) == pytest.approx(
            f0, abs=1e-14)
        fd = (zr.f_component_semiclosed(alpha, beta, -2 * h)
              - 8.0 * zr.f_component_semiclosed(alpha, beta, -h)
              + 8.0 * zr.f_component_semiclosed(alpha, beta, h)
              - zr.f_component_semiclosed(alpha, beta, 2 * h)) / (12.0 * h)
        assert fd == pytest.approx(f0p, abs=1e-9)


class TestEta:
    def test_eta_at_zero_closed(self):
        assert zr.eta_at_zero() == pytest.approx(
            ZP1 - EULER_GAMMA / 12.0 - 0.25 * LOG2PI, abs=1e-15)
        assert zr.eta_at_zero() == pytest.approx(-0.6729917157, abs=1e-9)

    def test_eta_richardson(self):
        assert zr._eta_zero_richardson() == pytest.approx(zr.eta_at_zero(),
                                                          abs=1e-7)

    def test_eta_direct_vs_continued_at_2(self):
        assert zr.eta_direct(2.0) == pytest.approx(zr.eta_function(2.0),
                                                   abs=1e-10)

    def test_eta_direct_requires_s_above_one(self):
        with pytest.raises(ValueError):
            zr.eta_direct(0.9)


class TestBlocks:
    def test_tail_block_m0(self):
        v0, v0p = zr.zeta_tail_block(0)
        assert v0 == Fraction(1, 6)
        assert v0p == pytest.approx(2.0 * ZP1 + LOG2 / 6.0 + 0.5 * LOGPI
                                    - 1.0 / 12.0, abs=1e-14)

    def test_tail_block_m1_value(self):
        v0, _ = zr.zeta_tail_block(1)
        assert v0 == Fraction(11, 12)

    def test_tail_block_component_consistency(self):
        # the closed block against its assembly from the component values:
        # zeta(0) = -A_m(0) + F_m(0),
        # zeta'(0) = -A_m'(0) + lim(-B_m + P_m) + F_m'(0)
        for m in range(5):
            a = zr.zeta_tail_block(m)
            comp = zr.family_components(m)
            assert float(a[0]) == pytest.approx(-comp.A0 + comp.F0, abs=1e-13)
            assert a[1] == pytest.approx(
                -comp.A0_prime + comp.BP_limit + comp.F0_prime, abs=1e-12)

    def test_low_order_block_values(self):
        vals = zr.low_order_values(2, "closed")
        assert [(nu, w) for nu, w, *_ in vals] == [(0, 2), (1, 1)]
        for nu, w, z0, z0p in vals:
            assert z0 == Fraction(-4, 2)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="unknown route"):
            zr.low_order_values(2, "closd")

    def test_contour_route_solves_zeros_once(self, monkeypatch):
        calls = []
        solve = zr.besselx.zero_sequences

        def counted(*args):
            calls.append(args)
            return solve(*args)

        for key in [k for k in zr._CONTOUR_SAMPLES if k[1] == 4]:
            monkeypatch.delitem(zr._CONTOUR_SAMPLES, key)
        monkeypatch.setattr(zr.besselx, "zero_sequences", counted)
        vals = zr.low_order_values(4, "contour")
        assert len(calls) == 1
        assert [(nu, w) for nu, w, *_ in vals] == [(0, 2), (1, 2), (2, 1)]

    def test_z_m_additivity_exact(self):
        for m in range(8):
            z0, _ = zr.z_m_values(m)
            assert z0 == Fraction(-2, 3) - Fraction(m, 2)


class TestCanonical:
    @pytest.mark.parametrize("m", range(7))
    def test_closed_matches_theorem(self, m):
        rep = zr.zeta_canonical(m)
        t0, t0p = torsion.zeta_canonical_closed_form(m)
        assert rep.zeta0_exact == t0
        assert rep.zeta0_prime == pytest.approx(t0p, abs=1e-12)
        assert rep.det_reg == pytest.approx(math.exp(-rep.zeta0_prime))

    def test_m0_value(self):
        rep = zr.zeta_canonical(0)
        assert rep.zeta0_exact == Fraction(-2, 3)
        assert rep.zeta0_prime == pytest.approx(4.0 * ZP1 - 1.0 / 6.0 - LOG2,
                                                abs=1e-14)

    def test_m1_value(self):
        rep = zr.zeta_canonical(1)
        assert rep.zeta0_prime == pytest.approx(
            4.0 * ZP1 - 1.0 / 6.0 - math.log(9.0 / 4.0), abs=1e-14)

    def test_m3_value(self):
        rep = zr.zeta_canonical(3)
        assert rep.zeta0_exact == Fraction(-13, 6)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_profile_route_agreement(self, m):
        rep = zr.zeta_canonical(m, check_routes=("profile",))
        assert rep.discrepancies["profile"] <= 1e-8

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_contour_route_agreement(self, m):
        rep = zr.zeta_canonical(m, check_routes=("contour",))
        assert rep.discrepancies["contour"] <= 1e-6

    def test_report_serializable(self):
        rep = zr.zeta_canonical(1, check_routes=("profile",))
        doc = json.loads(cli.dumps(rep._asdict()))
        assert doc["zeta0_exact"] == "-7/6"
        assert set(doc["routes"]) == {"closed", "profile"}


class TestDirichletNeumann:
    def test_closed_values(self):
        dn = zr.dirichlet_neumann_block()
        assert dn.zeta_D0 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert dn.zeta_N0 == pytest.approx(-5.0 / 6.0, abs=1e-15)
        assert dn.zeta_N0_prime == pytest.approx(
            2.0 * ZP1 + LOG2 / 6.0 - 0.5 * LOGPI - 7.0 / 12.0, abs=1e-14)

    def test_quarter_convention_dirichlet_constant(self):
        # in the lambda^2/4 normalization the Dirichlet derivative is the
        # quoted 2 zeta'(-1) + (1/2) log 2pi + 5/12
        dn = zr.dirichlet_neumann_block()
        assert dn.zeta_D0_prime_quarter == pytest.approx(
            2.0 * ZP1 + 0.5 * LOG2PI + 5.0 / 12.0, abs=1e-12)

    def test_blocks_assemble_z0(self):
        dn = zr.dirichlet_neumann_block()
        z0, z0p = zr.z_m_values(0)
        assert dn.zeta_D0 + dn.zeta_N0 == pytest.approx(float(z0), abs=1e-14)
        assert dn.zeta_D0_prime + dn.zeta_N0_prime == pytest.approx(z0p,
                                                                    abs=1e-13)
        # z_0'(0) = 4 zeta'(-1) - 1/6 + (1/3) log 2
        assert z0p == pytest.approx(4.0 * ZP1 - 1.0 / 6.0 + LOG2 / 3.0,
                                    abs=1e-13)

    def test_numeric_route(self):
        dn = zr.dirichlet_neumann_block()
        dn_num = zr.dirichlet_neumann_block("numeric")
        assert dn_num.zeta_D0 == pytest.approx(dn.zeta_D0, abs=1e-6)
        assert dn_num.zeta_D0_prime == pytest.approx(dn.zeta_D0_prime, abs=1e-6)
        assert dn_num.zeta_N0 == pytest.approx(dn.zeta_N0, abs=1e-6)
        assert dn_num.zeta_N0_prime == pytest.approx(dn.zeta_N0_prime, abs=1e-6)


@pytest.mark.slow
class TestSpectralSums:
    @pytest.mark.parametrize("m,s", [(0, 1.5), (0, 2.0), (1, 2.0)])
    def test_direct_vs_contour(self, m, s):
        d = zr.spectral_zeta_direct(m, s)
        c = zr.spectral_zeta_contour(m, s)
        assert d == pytest.approx(c, abs=1e-5)


class TestDirectZeroCache:
    def test_one_solve_serves_every_s(self, monkeypatch):
        # the zeros of all 15 orders of m = 1 come from one lockstep solve
        # that the memo of zero_sequences keeps for every later s
        monkeypatch.setattr(zr.besselx, "_SEQUENCES", {})
        solves = []
        solve = zr.besselx._solve_sequences
        monkeypatch.setattr(zr.besselx, "_solve_sequences",
                            lambda keys: solves.append(keys) or solve(keys))
        cold = [zr.spectral_zeta_direct(1, s) for s in (1.5, 2.0)]
        assert zr._sum_orders(1) == [0, *range(2, 16)]  # the low order, then the family
        assert solves == [[(1, 1, 60), *((nu, 1, 60) for nu in range(2, 16))]]
        monkeypatch.setattr(zr.besselx, "_solve_sequences", None)  # a warm call solves nothing
        assert [zr.spectral_zeta_direct(1, s) for s in (1.5, 2.0)] == cold
        seqs = zr.besselx.zero_sequences([(nu, 1) for nu in zr._sum_orders(1)], 60)
        assert all(seq is zr.besselx._SEQUENCES[(seq.n, 1, 60)] for seq in seqs)
        with pytest.raises(ValueError):
            seqs[0].zeros[0] = 0.0


class TestContourSampleCache:
    def test_cold_and_warm_agree(self, monkeypatch):
        zr._CONTOUR_SAMPLES.clear()
        cold = zr.spectral_zeta_contour(1, 1.5)
        cached = dict(zr._CONTOUR_SAMPLES)
        monkeypatch.setattr(zr, "_logp_rows", None)  # a warm call samples nothing
        warm = zr.spectral_zeta_contour(1, 1.5)
        assert zr._CONTOUR_SAMPLES.keys() == cached.keys()
        assert all(zr._CONTOUR_SAMPLES[k] is v for k, v in cached.items())
        assert warm == cold

    def test_m1_pass_rescales_rarely(self, monkeypatch):
        # every complex point starts its recurrence at its own index, so on
        # the 15 x 1072 contour points of m = 1 almost no running value
        # passes 1e280 (a start shared by a row, from its largest |z|, took
        # 391 rescale tests here)
        calls = []
        rescale = special._rescale

        def counted(scaled, f, *rest):
            calls.append(f.dtype.kind == "c")
            return rescale(scaled, f, *rest)

        for key in [k for k in zr._CONTOUR_SAMPLES if k[1] == 1]:
            monkeypatch.delitem(zr._CONTOUR_SAMPLES, key)
        monkeypatch.setattr(special, "_rescale", counted)
        zr.spectral_zeta_contour(1, 2.0)
        assert sum(calls) <= 20

    def test_cached_samples_are_read_only(self):
        contour, vals = zr._contour_samples(1, [0])
        row = zr._CONTOUR_SAMPLES[(1, 1)]  # order 0 of m = 1 is represented by 1
        assert not row.flags.writeable
        assert vals.shape == (1, len(contour.ray_nodes()[0]))
        assert np.array_equal(vals[0], row)
        with pytest.raises(ValueError):
            row[0] = 0.0

    @pytest.mark.parametrize("m", [1, 4])
    def test_batches_equal_one_order_samples(self, m):
        # one batch and one order at a time give the same contour and
        # samples, bit for bit
        orders = list(range(m // 2, m + 6))
        zr._CONTOUR_SAMPLES.clear()
        contour, batch = zr._contour_samples(m, orders)
        zr._CONTOUR_SAMPLES.clear()
        ones = [zr._contour_samples(m, [nu]) for nu in orders]
        zr._CONTOUR_SAMPLES.clear()
        for row, (c, (one,)) in zip(batch, ones):
            assert c == contour and np.array_equal(row, one)

    def test_one_kernel_pass_per_m(self, monkeypatch):
        # every order of one m shares the contour, so the route's samples
        # come from one complex kernel pass, and later s reuse them
        calls = []
        kernel = zr.bessel_j_complex_many
        monkeypatch.setattr(zr, "bessel_j_complex_many",
                            lambda n_max, z, orders: calls.append(z.shape)
                            or kernel(n_max, z, orders))
        monkeypatch.setattr(zr, "_CONTOUR_SAMPLES", {})
        for m in (3, 10, 24):
            zr.z_m_values(m, "contour")
        assert len(calls) == 3 and all(len(shape) == 1 for shape in calls)
        for s in (1.5, 2.0, 3.0):
            zr.spectral_zeta_contour(1, s)
        assert len(calls) == 4

    def test_shared_vertex_below_every_first_zero(self):
        # the first zeros fall from nu = m/2 to their least at nu = m + 1
        for m in (0, 1, 10, 24, 64):
            orders = zr._sum_orders(m)
            first = [seq.zeros[0] for seq in zr.besselx.zero_sequences([(nu, m) for nu in orders], 1)]
            assert min(first) == first[orders.index(m + 1)]
            assert zr._contour(m).c == 0.5 * first[orders.index(m + 1)]
