r"""Bott-Chern anomaly integrals, Gram determinants, Quillen metrics and
the generalized analytic torsion on the projective line.

Both metrics in play are rotation invariant: the Fubini-Study metric
(smooth) and the canonical metric (continuous, non-smooth exactly on
|z| = 1), with

    h_FS(s,s) = |s|^2 / (1+|z|^2)^m,     omega_FS ~ (1+|z|^2)^{-2},
    h_can(s,s) = |s|^2 / max(1,|z|)^{2m}, omega_can ~ max(1,|z|^4)^{-1}.

Every P^1 integral radializes; the canonical side reduces to a circle
average on |z| = 1 (the first Chern current of the canonical metric is
the uniform measure there) and the smooth side to one-dimensional
integrals split at the kink r = 1, the piece on [1, inf) mapped onto [0, 1]
by r = 1/t, so that every integrand is smooth on [0, 1].  The metrics enter
only through these radial weights, written directly into the integrands of
``gram_entry``, ``base_integral_circle`` and ``base_integral_fs``.  Two base
integrals carry the whole anomaly computation:

    J_can = circle average of u           = log 2,
    J_fs  = int_0^inf u(r) dmu_FS         = 1 - log 2,

with u(r) = log((1+r^2)/max(1,r^2)) the per-O(1) log metric ratio.  The
degree-zero anomaly parts are then

    ch-side: (m^2/2)(J_can + J_fs) + m J_fs = m^2/2 + (1 - log 2) m,
    td-side: (1/3)(J_can + J_fs) + m J_can  = 1/3 + m log 2,

summing to the Quillen anomaly m^2/2 + m + 1/3 between the Fubini-Study
and canonical data.  Combined with the Fubini-Study Quillen constant
m^2/2 + m + 1/2 - 4 zeta'(-1) and the Gram determinant
(m+2)^{m+1}/((m+1)!)^2 of the monomial sections, this yields

    T_g(m) = 4 zeta'(-1) - 1/6 - log( (m+2)^{m+1} / ((m+1)!)^2 ),

independent of the spectral route, which it must (and does) match.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .numerics import adaptive_quad
from .special import riemann_zeta_prime

__all__ = [
    "TorsionReport",
    "metric_log_ratio",
    "base_integral_circle",
    "base_integral_fs",
    "gram_entry",
    "gram_entry_closed",
    "gram_det_closed",
    "zeta_canonical_closed_form",
    "bott_chern_ch_deg0",
    "bott_chern_td_deg0",
    "quillen_fs_log",
    "quillen_canonical_log",
    "torsion_g",
]


def metric_log_ratio(r: float) -> float:
    """u(r) = -log(h_FS / h_can) per O(1) = log((1+r^2)/max(1, r^2)) >= 0."""
    return math.log1p(r * r) - math.log(max(1.0, r * r))


def base_integral_circle() -> float:
    """(1/2 pi) int_0^{2 pi} u(e^{i theta}) d theta; equals log 2."""
    return adaptive_quad(lambda theta: metric_log_ratio(1.0) / (2.0 * math.pi),
                         0.0, 2.0 * math.pi)


def base_integral_fs() -> float:
    """int_0^inf log((1+w)/max(1,w)) dw/(1+w)^2 = 1 - log 2; w = 1/t maps
    its piece on [1, inf) onto its piece on [0, 1]."""
    return 2.0 * adaptive_quad(lambda t: math.log1p(t) / (1.0 + t) ** 2, 0.0, 1.0)


# ----------------------------------------------------------------------
# Gram matrix of the monomial sections
# ----------------------------------------------------------------------

def gram_entry(m: int, k: int) -> float:
    """(z^k, z^k) under the canonical data, by quadrature.

    |z^k|^2 h_can against omega_can radializes to
    int_0^inf 2 r^{2k+1} max(1,r)^{-2m} dr / max(1,r^4), split at the kink;
    r = 1/t turns the upper piece into int_0^1 2 t^{2(m-k)+1} dt.
    """
    if not (0 <= k <= m):
        raise ValueError("require 0 <= k <= m")
    return (adaptive_quad(lambda r: 2.0 * r ** (2 * k + 1), 0.0, 1.0)
            + adaptive_quad(lambda t: 2.0 * t ** (2 * (m - k) + 1), 0.0, 1.0))


def gram_entry_closed(m: int, k: int) -> Fraction:
    """(z^k, z^k) = 1/(k+1) + 1/(m+1-k) = (m+2)/((k+1)(m+1-k)), exact."""
    if not (0 <= k <= m):
        raise ValueError("require 0 <= k <= m")
    return Fraction(m + 2, (k + 1) * (m + 1 - k))


def gram_det_closed(m: int) -> Fraction:
    """(m+2)^{m+1} / ((m+1)!)^2 = prod_k gram_entry_closed(m, k), exact."""
    return Fraction((m + 2) ** (m + 1), math.factorial(m + 1) ** 2)


def _log_gram_det_closed(m: int) -> float:
    """log gram_det_closed(m) = (m+1) log(m+2) - 2 log Gamma(m+2), in floats."""
    return (m + 1) * math.log(m + 2.0) - 2.0 * math.lgamma(m + 2.0)


def zeta_canonical_closed_form(m: int):
    """The theorem's closed forms, assembled independently of the blocks."""
    zeta0 = Fraction(-2, 3) - Fraction(m, 2)
    zeta0_prime = 4.0 * riemann_zeta_prime(-1.0) - 1.0 / 6.0 - _log_gram_det_closed(m)
    return zeta0, zeta0_prime


# ----------------------------------------------------------------------
# Bott-Chern degree-zero pairings
# ----------------------------------------------------------------------

def _base_integrals(route: str):
    """(J_can, J_fs): (log 2, 1 - log 2) for route "closed", by quadrature
    for route "quadrature".  In floats log 2 + (1 - log 2) is exactly 1."""
    if route == "closed":
        return math.log(2.0), 1.0 - math.log(2.0)
    if route == "quadrature":
        return base_integral_circle(), base_integral_fs()
    raise ValueError(f"unknown route {route!r}")


def bott_chern_ch_deg0(m: int, route: str = "closed") -> float:
    """Degree-0 part of int ch~(O(m), h_FS, h_can) Td(TP^1_FS).

    Equals (m^2/2)(J_can + J_fs) + m J_fs = m^2/2 + (1 - log 2) m.
    """
    j_can, j_fs = _base_integrals(route)
    return 0.5 * m * m * (j_can + j_fs) + m * j_fs


def bott_chern_td_deg0(m: int, route: str = "closed") -> float:
    """Degree-0 part of int ch(O(m)_can) Td~(TP^1, h_FS, h_can).

    Equals (1/3)(J_can + J_fs) + m J_can = 1/3 + m log 2.
    """
    j_can, j_fs = _base_integrals(route)
    return (j_can + j_fs) / 3.0 + m * j_can


def quillen_anomaly(m: int, route: str = "closed") -> float:
    """log h_Q(canonical data) - log h_Q(Fubini-Study data)
    = ch-part + td-part = m^2/2 + m + 1/3."""
    return bott_chern_ch_deg0(m, route) + bott_chern_td_deg0(m, route)


# ----------------------------------------------------------------------
# Quillen metrics and torsion
# ----------------------------------------------------------------------

def quillen_fs_log(m: int) -> float:
    """-log h_Q for the all-Fubini-Study data: m^2/2 + m + 1/2 - 4 zeta'(-1).

    This constant comes from the known projective-space torsion pushed
    through the immersion formula; it is consumed here, not re-derived.
    """
    return 0.5 * m * m + m + 0.5 - 4.0 * riemann_zeta_prime(-1.0)


def quillen_canonical_log(m: int, route: str = "closed") -> float:
    """-log h_Q for the canonical data; equals 1/6 - 4 zeta'(-1), m-free."""
    return quillen_fs_log(m) - quillen_anomaly(m, route)


class TorsionReport(NamedTuple):
    m: int
    gram_entries: list
    gram_det: float
    bc_ch_deg0: float
    bc_td_deg0: float
    quillen_fs_log: float
    quillen_can_log: float
    Tg: float
    Tg_quadrature: float
    zeta0_prime: float
    discrepancy: float


def torsion_g(m: int) -> TorsionReport:
    """Generalized analytic torsion of the canonical data on O(m).

    T_g = -(1/6 - 4 zeta'(-1)) - log gram_det, reported both from closed
    forms and with the anomaly and Gram integrals by quadrature (log gram_det
    as a sum of logs, since the product underflows from m ~ 213); the report
    also carries zeta'(0) from the spectral route and the pipeline
    discrepancy T_g - zeta'(0) (the headline identity, numerically 0).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    entries = [float(gram_entry_closed(m, k)) for k in range(m + 1)]
    tg_closed = -quillen_canonical_log(m, "closed") - _log_gram_det_closed(m)
    tg_quad = (-quillen_canonical_log(m, "quadrature")
               - math.fsum(math.log(gram_entry(m, k)) for k in range(m + 1)))
    _, zeta0_prime = zeta_canonical_closed_form(m)
    return TorsionReport(
        m=m,
        gram_entries=entries,
        gram_det=float(gram_det_closed(m)),
        bc_ch_deg0=bott_chern_ch_deg0(m),
        bc_td_deg0=bott_chern_td_deg0(m),
        quillen_fs_log=quillen_fs_log(m),
        quillen_can_log=quillen_canonical_log(m),
        Tg=tg_closed,
        Tg_quadrature=tg_quad,
        zeta0_prime=zeta0_prime,
        discrepancy=tg_closed - zeta0_prime,
    )
