import json
import math
from fractions import Fraction

import pytest

from zetacan import cli
from zetacan import torsion as tor
from zetacan.special import riemann_zeta_prime

ZP1 = riemann_zeta_prime(-1.0)
LOG2 = math.log(2.0)


class TestBaseIntegrals:
    def test_circle_integral(self):
        # 4x this is the 2 log 4 paper integral
        assert tor.base_integral_circle() == pytest.approx(LOG2, abs=1e-12)
        assert 4.0 * tor.base_integral_circle() == pytest.approx(
            2.0 * math.log(4.0), abs=1e-10)

    def test_fs_integral(self):
        assert 4.0 * tor.base_integral_fs() == pytest.approx(
            4.0 * (1.0 - LOG2), abs=1e-10)


class TestGram:
    @pytest.mark.parametrize("m,k,expected", [
        (1, 0, Fraction(3, 2)),
        (0, 0, Fraction(2)),
        (2, 1, Fraction(1)),
    ])
    def test_entry_closed(self, m, k, expected):
        assert tor.gram_entry_closed(m, k) == expected

    def test_entry_quadrature(self):
        worst = 0.0
        for m in range(6):
            for k in range(m + 1):
                worst = max(worst, abs(tor.gram_entry(m, k)
                                       - float(tor.gram_entry_closed(m, k))))
        assert worst < 1e-10

    @pytest.mark.parametrize("m,expected", [
        (0, Fraction(2)),
        (1, Fraction(9, 4)),
        (3, Fraction(625, 576)),
    ])
    def test_det_closed(self, m, expected):
        assert tor.gram_det_closed(m) == expected

    @pytest.mark.parametrize("m", [0, 5, 59, 200])
    def test_det_closed_is_product_of_entries(self, m):
        prod = Fraction(1)
        for k in range(m + 1):
            prod *= tor.gram_entry_closed(m, k)
        assert tor.gram_det_closed(m) == prod


class TestBottChern:
    def test_ch_part_m0(self):
        assert tor.bott_chern_ch_deg0(0) == 0.0
        assert tor.bott_chern_ch_deg0(0, "quadrature") == pytest.approx(
            0.0, abs=1e-10)

    def test_td_part_m0(self):
        assert tor.bott_chern_td_deg0(0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("m", range(5))
    def test_anomaly_sum(self, m):
        expected = 0.5 * m * m + m + 1.0 / 3.0
        assert tor.quillen_anomaly(m) == pytest.approx(expected, abs=1e-13)
        assert tor.quillen_anomaly(m, "quadrature") == pytest.approx(
            expected, abs=1e-9)

    def test_difference_at_m2(self):
        assert tor.quillen_anomaly(2) == pytest.approx(13.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("fn", [tor.bott_chern_ch_deg0, tor.bott_chern_td_deg0,
                                    tor.quillen_canonical_log])
    def test_unknown_route_rejected(self, fn):
        with pytest.raises(ValueError, match="unknown route"):
            fn(2, "closd")


class TestQuillen:
    def test_canonical_m_independent(self):
        vals = [tor.quillen_canonical_log(m) for m in range(7)]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-12
        valsq = [tor.quillen_canonical_log(m, "quadrature") for m in range(7)]
        assert max(abs(v - valsq[0]) for v in valsq) <= 1e-8

    def test_canonical_value(self):
        assert tor.quillen_canonical_log(0) == pytest.approx(
            1.0 / 6.0 - 4.0 * ZP1, abs=1e-14)

    def test_fs_at_m0(self):
        assert tor.quillen_fs_log(0) == pytest.approx(0.5 - 4.0 * ZP1, abs=1e-14)


class TestTorsion:
    def test_m0(self):
        rep = tor.torsion_g(0)
        assert rep.Tg == pytest.approx(4.0 * ZP1 - 1.0 / 6.0 - LOG2, abs=1e-14)

    def test_m1(self):
        rep = tor.torsion_g(1)
        assert rep.Tg == pytest.approx(4.0 * ZP1 - 1.0 / 6.0
                                       - math.log(9.0 / 4.0), abs=1e-14)

    @pytest.mark.parametrize("m", range(7))
    def test_pipeline_identity(self, m):
        rep = tor.torsion_g(m)
        assert abs(rep.discrepancy) <= 1e-10
        assert abs(rep.Tg_quadrature - rep.Tg) <= 1e-8

    def test_quadrature_within_1e10_through_m300(self):
        # m + 1 logs of Gram entries, each an fsum of one Gauss-Legendre rule
        worst = max(abs(rep.Tg_quadrature - rep.Tg)
                    for rep in map(tor.torsion_g, [*range(0, 300, 23), 298, 300]))
        assert worst <= 1e-10

    @pytest.mark.parametrize("m", [59, 64, 128, 200])
    def test_cli_full_range(self, m, capsys):
        # the Gram integrals on [0, 1] are polynomials: no overflow at any m,
        # and log det is a sum of logs, so no underflow either
        assert cli.main(["torsion", "--m", str(m)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gram_entries"] == [float(tor.gram_entry_closed(m, k))
                                       for k in range(m + 1)]
        assert abs(doc["Tg_quadrature"] - doc["Tg"]) <= 1e-10

    def test_report_fields(self):
        rep = tor.torsion_g(2)
        doc = rep._asdict()
        assert doc["gram_det"] == pytest.approx(float(tor.gram_det_closed(2)))
        assert len(doc["gram_entries"]) == 3
        assert doc["quillen_can_log"] == pytest.approx(1.0 / 6.0 - 4.0 * ZP1)
