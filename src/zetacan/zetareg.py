r"""Spectral zeta regularization for the singular Laplacian on O(m).

The zeta function over the eigenvalues lambda^2/4 factors through
z_m(s) = sum_n sum_k lambda_{n,k}^{-2s} (zeros with multiplicity), with

    zeta(s) = 4^s z_m(s).

z_m splits into finitely many low orders, handled one sequence at a time
through the asymptotic profile of the cross product (zeta(0) = -a,
zeta'(0) = -b), plus the infinite family of orders >= m+1, regularized
through the component functions

    A_m(s) = zeta(2s-1) + (m/2) zeta(2s),
    B_m, P_m  (combined below through eta and gamma_k),
    F_m(s)    (the contour transform of the uniform 1/n correction w_m),

whose values and s-derivatives at 0 assemble into closed forms for
z_m(0) and z_m'(0).  Every constant here is implemented twice: a closed
expression and a numeric route (profile fits, contour integrals, direct
summation with tail completion) used for cross-validation.

The contour route samples log p of each order on its wedge once per
process.  The orders one caller needs for one m are sampled together: one
zero solve gives every vertex, and the rows of one complex kernel pass give
the samples, since every contour has the same ray nodes up to its vertex.

Values at 0 are kept in exact rational arithmetic where they are rational.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import besselx
from .besselx import cross_G_norm_log, small_z_coefficient, small_z_exponent
from .numerics import (AsymptoticProfile, ContourSpec, FitError,
                       fit_asymptotic_profile, mellin_contour_zeta,
                       mellin_zeta_critical_values, zero_tail_sum)
from .special import (EULER_GAMMA, _j_signed, _log, bessel_i_log,
                      bessel_j_complex_many, hurwitz_zeta, hurwitz_zeta_prime,
                      log_gamma, riemann_zeta, riemann_zeta_prime,
                      stirling_remainder_r2_sum)

__all__ = [
    "FamilyComponents",
    "RegularizationReport",
    "DirichletNeumannBlock",
    "zeta_from_profile",
    "analytic_profile",
    "fitted_profile",
    "low_order_values",
    "zeta_tail_block",
    "z_m_values",
    "zeta_canonical",
    "family_components",
    "eta_function",
    "eta_at_zero",
    "gamma_k_zero",
    "gamma_k_function",
    "f_component_closed",
    "f_component_semiclosed",
    "f_component_values",
    "dirichlet_neumann_block",
    "spectral_zeta_direct",
    "spectral_zeta_contour",
]

_LOG2 = math.log(2.0)
_LOGPI = math.log(math.pi)
_LOG2PI = math.log(2.0 * math.pi)


# ----------------------------------------------------------------------
# Containers
# ----------------------------------------------------------------------

@dataclass
class FamilyComponents:
    """Component values at s = 0 for the order >= m+1 family."""
    m: int
    A0: float
    A0_prime: float
    BP_limit: float
    F0: float
    F0_prime: float
    eta0: float
    gamma_k_0: list

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class RegularizationReport:
    m: int
    zeta0_exact: Fraction
    zeta0: float
    zeta0_prime: float
    det_reg: float
    components: FamilyComponents
    route: str
    routes: dict
    discrepancies: dict

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "zeta0_exact": str(self.zeta0_exact),
            "zeta0": self.zeta0,
            "zeta0_prime": self.zeta0_prime,
            "det_reg": self.det_reg,
            "route": self.route,
            "components": self.components.as_dict(),
            "routes": {k: list(v) for k, v in self.routes.items()},
            "discrepancies": dict(self.discrepancies),
        }


# ----------------------------------------------------------------------
# Profiles of single sequences
# ----------------------------------------------------------------------

def zeta_from_profile(profile: AsymptoticProfile):
    """(zeta(0), zeta'(0)) = (-a, -b) from a certified profile of -log p;
    FitError when the profile is not certified."""
    if not profile.certified():
        raise FitError(
            f"profile not certified: residual {profile.fit_residual:.2e}")
    return -profile.a, -profile.b


def analytic_profile(nu: int, m: int) -> AsymptoticProfile:
    """Exact asymptotic profile of -log( G_nu(z) / (l z^e) ).

    From I_k(z) ~ e^z/sqrt(2 pi z) (1 - (4k^2-1)/(8z) + ...) the cross
    product satisfies G_nu ~ e^{2z}/(pi z) (1 - c1/z + ...), so for the
    family orders nu >= m+1

        a = nu - m/2,
        b = log pi - (2 nu - m - 1) log 2 - log G(nu+1) - log G(nu-m),

    and for 0 <= nu <= m (exponent m+1, coefficient (m+2)/...)

        a = (m+2)/2,
        b = log pi - (m+1) log 2 + log(m+2) - log G(nu+2) - log G(m-nu+2).
    """
    nu = max(nu, m - nu)
    d = -2.0
    if nu >= m + 1:
        a = nu - 0.5 * m
        b = (_LOGPI - (2 * nu - m - 1) * _LOG2
             - log_gamma(nu + 1.0) - log_gamma(float(nu - m)))
        c1 = (4.0 * nu * nu - 4.0 * nu * m + 2.0 * m * m + 2.0 * m + 1.0) / 4.0
    else:
        a = 0.5 * (m + 2)
        b = (_LOGPI - (m + 1) * _LOG2 + math.log(m + 2.0)
             - log_gamma(nu + 2.0) - log_gamma(m - nu + 2.0))
        c1 = (2.0 * nu * nu + 2.0 * nu
              + 2.0 * (m - nu) ** 2 + 2.0 * (m - nu) + 1.0) / 4.0
    return AsymptoticProfile(d=d, a=a, b=b, c1=c1, fit_residual=0.0)


def fitted_profile(nu: int, m: int) -> AsymptoticProfile:
    """Numerical profile of the same function, fitted from log-scaled
    evaluations of the cross product at 160 points of the ray window
    [80, 800], with inverse powers up to z^-5.

    The window sits where the dropped O(1/z^6) model terms are below
    1e-10, so the fitted constant term is good to ~1e-9 even for the
    low orders with O(10) expansion coefficients.
    """
    nu = max(nu, m - nu)
    g = lambda z: -cross_G_norm_log(nu, m, z)
    return fit_asymptotic_profile(g, 80.0, 800.0, n_nodes=160, inverse_degree=5)


# ----------------------------------------------------------------------
# Contour route for single sequences
# ----------------------------------------------------------------------

def _logp_rows(m: int, nus, z: np.ndarray) -> np.ndarray:
    """log p_nu at the points z[i] of the upper contour ray, for each canonical
    order nu = nus[i], from one complex kernel pass over all rows.

    p_nu(z) = L_nu(z) / (l_L z^e) is the normalized cross product (its own
    Hadamard factorization over the real zeros), so contour values come
    from complex-argument J evaluation directly.  The rotation identity
    L_nu(iz) = -i^{2 nu - m - 1} G_nu(z) relates l_L to the modified-side
    coefficient l_G > 0 by a sign sigma: -1 on the orders nu >= m+1 and
    (-1)^(nu+m) on the low orders, which the evaluator must carry so that
    p is positive at the contour vertex (the branch anchor).  Row i reads
    J at orders nu, |nu-m-1|, nu+1 and |nu-m|, and its recurrence starts
    from its own top order nu + 1.
    """
    nu = np.array(nus)
    raw = np.stack([nu, nu - m - 1, nu + 1, nu - m])  # (4, rows)
    j = bessel_j_complex_many(np.abs(raw.T), z)
    a, b, c, d = _j_signed(j, raw[:, :, None], np.arange(len(nus))[:, None],
                           np.arange(z.shape[1]))
    L = -a * b + c * d
    sigma = np.array([-1.0 if n >= m + 1 else (-1.0) ** (n + m) for n in nus])[:, None]
    e = np.array([small_z_exponent(n, m) for n in nus])[:, None]
    log_l = np.array([math.log(float(small_z_coefficient(n, m))) for n in nus])[:, None]
    return np.log(sigma * L) - log_l - e * np.log(z)


# (nu, m) -> (contour, raw log p_nu at its ray nodes, read-only), nu canonical
_CONTOUR_SAMPLES: dict = {}
# complex kernel points per pass, (top + 1) x rows x nodes: a cap on the
# J table of one batch (4 MB), so large m runs in several passes
_BATCH_POINTS = 1 << 18


def _contour_samples(m: int, orders) -> list:
    """[(contour, raw log p_nu at its ray nodes)] for each order of ``orders``,
    sampled once per process and shared read-only by every s and both
    contour functions.  A wedge's vertex is half the order's first zero.

    The orders not yet cached are sampled together: one ``zero_sequences``
    call gives every vertex, and every contour has the same ray nodes up to
    its vertex, so rows of one (rows, nodes) array go through one complex
    kernel pass, as many rows at a time as the J table cap allows.
    """
    nus = [max(nu, m - nu) for nu in orders]
    new = sorted(nu for nu in set(nus) if (nu, m) not in _CONTOUR_SAMPLES)
    if new:
        contours = [ContourSpec(c=0.5 * float(seq.zeros[0]), truncation_radius=240.0)
                    for seq in besselx.zero_sequences([(nu, m) for nu in new], 1)]
        z = np.array([contour.ray_nodes()[0] for contour in contours])
        i = 0
        while i < len(new):
            # rows i..j-1, whose top order is new[j-1] + 1, within the cap
            j = i + 1
            while j < len(new) and (new[j] + 2) * (j + 1 - i) * z.shape[1] <= _BATCH_POINTS:
                j += 1
            vals = _logp_rows(m, new[i:j], z[i:j])
            vals.flags.writeable = False
            for nu, contour, row in zip(new[i:j], contours[i:j], vals):
                _CONTOUR_SAMPLES[(nu, m)] = (contour, row)
            i = j
    return [_CONTOUR_SAMPLES[(nu, m)] for nu in nus]


# ----------------------------------------------------------------------
# eta, gamma_k and F components
# ----------------------------------------------------------------------

def eta_function(s: float) -> float:
    """eta(s) = sum log Gamma(n) n^{-2s} - (1/12) zeta(2s+1), continued.

    Subtracting the Stirling expansion term by term re-expresses eta
    through zeta values and the remainder sum, valid through s = 0:

        eta(s) = -zeta'(2s-1) - zeta(2s-1) + (1/2) zeta'(2s)
                 + (1/2) log(2 pi) zeta(2s) + sum_n R2(n) n^{-2s}.
    """
    if abs(s - 1.0) < 1e-12 or abs(s - 0.5) < 1e-12:
        raise ValueError("eta continuation hits a zeta pole at this s")
    return (-riemann_zeta_prime(2.0 * s - 1.0) - riemann_zeta(2.0 * s - 1.0)
            + 0.5 * riemann_zeta_prime(2.0 * s)
            + 0.5 * _LOG2PI * riemann_zeta(2.0 * s)
            + stirling_remainder_r2_sum(s))


def eta_direct(s: float) -> float:
    """Direct summation of eta(s), convergent for s > 1.

    Terms n <= 4000 are summed directly; the tail of sum log Gamma(n)
    n^{-2s} is completed with the Stirling expansion against Hurwitz zeta
    values (the log-weighted sum sum_{n >= a} log(n) n^{-x} is
    -hurwitz_zeta_prime(x, a)); serves as an independent oracle for the
    continued representation at s > 1.
    """
    if s <= 1.0:
        raise ValueError("direct eta series converges only for s > 1")
    total = 0.0
    for n in range(2, 4001):
        total += math.lgamma(n) * n ** (-2.0 * s)
    a = 4001.0
    total += (-hurwitz_zeta_prime(2.0 * s - 1.0, a)
              - hurwitz_zeta(2.0 * s - 1.0, a)
              + 0.5 * hurwitz_zeta_prime(2.0 * s, a)
              + 0.5 * _LOG2PI * hurwitz_zeta(2.0 * s, a)
              + (1.0 / 12.0) * hurwitz_zeta(2.0 * s + 1.0, a))
    return total - (1.0 / 12.0) * riemann_zeta(2.0 * s + 1.0)


def eta_at_zero() -> float:
    """eta(0) = zeta'(-1) - gamma/12 - (1/4) log(2 pi)."""
    return riemann_zeta_prime(-1.0) - EULER_GAMMA / 12.0 - 0.25 * _LOG2PI


def gamma_k_zero(k: int) -> float:
    """gamma_k(0) = -log Gamma(k+1) - gamma k."""
    return -log_gamma(k + 1.0) - EULER_GAMMA * k


def gamma_k_function(k: int, s: float) -> float:
    """gamma_k(s) = sum_n n^{-2s} (log(1 + k/n) - k/n) by direct summation
    to n = 400 with a series tail; independent oracle for gamma_k_zero."""
    total = 0.0
    for n in range(1, 401):
        total += n ** (-2.0 * s) * (math.log1p(k / n) - k / n)
    for j in range(2, 16):
        coeff = (-1.0) ** (j - 1) * float(k) ** j / j
        total += coeff * hurwitz_zeta(2.0 * s + j, 401.0)
        if abs(coeff) * 401.0 ** (-(2.0 * s + j - 1.0)) < 1e-18:
            break
    return total


def f_component_closed(alpha: float, beta: float):
    """(F(0), F'(0)) for -w(p) = alpha p + beta p^3.

    F(s) = s zeta(2s+1) (Gamma(s+1/2) / (sqrt(pi) Gamma(s+1)))
           (alpha + 2 beta (s + 1/2)); the limit uses
    s zeta(2s+1) -> 1/2 + gamma s and psi(1/2) - psi(1) = -2 log 2.
    """
    f0 = 0.5 * (alpha + beta)
    f0p = (alpha + beta) * (EULER_GAMMA - _LOG2) + beta
    return f0, f0p


def f_component_semiclosed(alpha: float, beta: float, s: float) -> float:
    """F(s) away from 0 from the same closed s-expression."""
    szeta = 0.5 if s == 0.0 else s * riemann_zeta(2.0 * s + 1.0)
    return (szeta * math.gamma(s + 0.5) / (math.sqrt(math.pi) * math.gamma(s + 1.0))
            * (alpha + 2.0 * beta * (s + 0.5)))


def f_component_values(m: int):
    """(F_m(0), F_m'(0)) for the cross-product family: -w_m = A p - p^3/12."""
    big_a = (2.0 * m * m + 2.0 * m + 1.0) / 4.0
    return f_component_closed(big_a, -1.0 / 12.0)


# ----------------------------------------------------------------------
# Family blocks and assembly
# ----------------------------------------------------------------------

def family_components(m: int) -> FamilyComponents:
    """All component values entering the order >= m+1 block at s = 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    a0 = -1.0 / 12.0 - 0.25 * m
    a0p = 2.0 * riemann_zeta_prime(-1.0) - 0.5 * m * _LOG2PI
    gammas = [gamma_k_zero(k) for k in range(1, m + 1)]
    eta0 = eta_at_zero()
    bp = (sum(gammas) + 2.0 * eta0 + 2.0 * riemann_zeta_prime(-1.0)
          + 0.5 * _LOG2PI - _LOG2 / 6.0 - 0.5 * (m - 1) * _LOG2 + 0.5 * _LOGPI)
    f0, f0p = f_component_values(m)
    return FamilyComponents(m=m, A0=a0, A0_prime=a0p, BP_limit=bp,
                            F0=f0, F0_prime=f0p, eta0=eta0, gamma_k_0=gammas)


def zeta_tail_block(m: int):
    """(zeta_{>=m+1}(0), zeta_{>=m+1}'(0)) for the family block.

    zeta(0) = -A_m(0) + F_m(0) = 1/6 + m/2 + m^2/4 exactly;
    zeta'(0) = -A_m'(0) + lim(-B_m + P_m) + F_m'(0)
             = 2 zeta'(-1) - sum_{k<=m} log Gamma(k+1)
               + (1/6 - m(m+1)/2) log 2 + ((m+1)/2) log pi - 1/12.
    """
    value0 = Fraction(1, 6) + Fraction(m, 2) + Fraction(m * m, 4)
    value0_prime = (2.0 * riemann_zeta_prime(-1.0)
                    - sum(log_gamma(k + 1.0) for k in range(1, m + 1))
                    + (1.0 / 6.0 - 0.5 * m * (m + 1)) * _LOG2
                    + 0.5 * (m + 1) * _LOGPI - 1.0 / 12.0)
    return value0, value0_prime


def low_order_values(m: int, route: str = "closed"):
    """[(nu, weight, zeta_nu(0), zeta_nu'(0))] over the low orders, each value
    as ``route`` computed it: from the analytic ("closed") or fitted
    ("profile") profile, order by order in ascending nu, or from contour
    samples of every order taken in one call ("contour")."""
    if route not in ("closed", "profile", "contour"):
        raise ValueError(f"unknown route {route!r}")
    orders = besselx.canonical_orders(m, m // 2 + 1)
    if route == "contour":
        samples = _contour_samples(m, [nu for nu, _ in orders])
        return [(nu, weight, *mellin_zeta_critical_values(vals, contour, analytic_profile(nu, m)))
                for (nu, weight), (contour, vals) in zip(orders, samples)]
    profile = fitted_profile if route == "profile" else analytic_profile
    return [(nu, weight, *zeta_from_profile(profile(nu, m))) for nu, weight in orders]


def z_m_values(m: int, route: str = "closed"):
    """(z_m(0) exact, z_m'(0)): the 4^s-free zeta over all zeros.  Every low
    order's zeta_nu(0) is -(m+2)/2 exactly, whatever the route."""
    tail0, tail0p = zeta_tail_block(m)
    z0 = 2 * tail0
    z0p = 2.0 * tail0p
    for nu, weight, _, z0p_nu in low_order_values(m, route):
        z0 += weight * Fraction(-(m + 2), 2)
        z0p += weight * z0p_nu
    return z0, z0p


def zeta_canonical(m: int, route: str = "closed",
                   check_routes: tuple = ()) -> RegularizationReport:
    """Regularization report for the canonical-metric Laplacian on O(m).

    zeta(0) = -2/3 - m/2 exactly;
    zeta'(0) = z_m'(0) + log 4 * z_m(0)
             = 4 zeta'(-1) - 1/6 - log((m+2)^{m+1} / ((m+1)!)^2).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    routes = {}
    z0_exact = None
    for r in dict.fromkeys(("closed", route) + tuple(check_routes)):
        z0, z0p = z_m_values(m, route=r)
        if r == "closed":
            z0_exact = z0
        routes[r] = (float(z0), z0p + math.log(4.0) * float(z0))
    zeta0_prime = routes[route][1]
    base = routes["closed"]
    discrepancies = {r: abs(v[1] - base[1]) for r, v in routes.items() if r != "closed"}
    return RegularizationReport(
        m=m,
        zeta0_exact=z0_exact,
        zeta0=float(z0_exact),
        zeta0_prime=zeta0_prime,
        det_reg=math.exp(-zeta0_prime),
        components=family_components(m),
        route=route,
        routes=routes,
        discrepancies=discrepancies,
    )


def zeta_canonical_closed_form(m: int):
    """The theorem's closed forms, assembled independently of the blocks."""
    zeta0 = Fraction(-2, 3) - Fraction(m, 2)
    log_gram = (m + 1) * math.log(m + 2.0) - 2.0 * log_gamma(m + 2.0)
    zeta0_prime = 4.0 * riemann_zeta_prime(-1.0) - 1.0 / 6.0 - log_gram
    return zeta0, zeta0_prime


# ----------------------------------------------------------------------
# m = 0: Dirichlet / Neumann split
# ----------------------------------------------------------------------

@dataclass
class DirichletNeumannBlock:
    """Zeta values of the two order-sum blocks of the trivial bundle.

    zeta_D runs over all J zeros (multiplicity 2 for n >= 1), zeta_N over
    all J' zeros.  Values are in the lambda^2 normalization; the
    ``*_quarter`` derivatives refer to the lambda^2/4 eigenvalue
    normalization (adding log 4 * zeta(0)), the form in which the
    Dirichlet constant 2 zeta'(-1) + (1/2) log 2 pi + 5/12 is usually
    quoted.
    """
    zeta_D0: float
    zeta_D0_prime: float
    zeta_N0: float
    zeta_N0_prime: float
    zeta_D0_prime_quarter: float
    zeta_N0_prime_quarter: float
    route: str


def _j0_sequence_values():
    # zeros of J_0: G = I_0, l = 1, e = 0; closed (-1/4, -(1/2) log 2 pi)
    prof = fit_asymptotic_profile(
        lambda z: -bessel_i_log(0, z), 60.0, 600.0, n_nodes=160)
    return zeta_from_profile(prof)


def _j0p_sequence_values():
    # zeros of J_0' = j_{1,k}: G = I_0' = I_1 / (z/2); closed (-3/4, (1/2) log(2/pi))
    prof = fit_asymptotic_profile(
        lambda z: -(bessel_i_log(1, z) + _LOG2 - _log(z)), 60.0, 600.0,
        n_nodes=160)
    return zeta_from_profile(prof)


def dirichlet_neumann_block(route: str = "closed") -> DirichletNeumannBlock:
    """Closed (or numerically validated) m = 0 block values.

    Closed route:
        zeta_D(0) = 1/6,   zeta_D'(0) = 2 zeta'(-1) + (1/2) log 2 pi - (1/3) log 2 + 5/12,
        zeta_N(0) = -5/6,  zeta_N'(0) = 2 zeta'(-1) + (1/6) log 2 - (1/2) log pi - 7/12.

    In the lambda^2/4 normalization the Dirichlet derivative becomes
    2 zeta'(-1) + (1/2) log 2 pi + 5/12 (the -(1/3) log 2 is absorbed by
    log 4 * zeta_D(0)); together the blocks reproduce
    z_0'(0) = 4 zeta'(-1) - 1/6 + (1/3) log 2.
    """
    zp1 = riemann_zeta_prime(-1.0)
    if route == "closed":
        zd0 = 1.0 / 6.0
        zd0p = 2.0 * zp1 + 0.5 * _LOG2PI - _LOG2 / 3.0 + 5.0 / 12.0
        zn0 = -5.0 / 6.0
        zn0p = 2.0 * zp1 + _LOG2 / 6.0 - 0.5 * _LOGPI - 7.0 / 12.0
    elif route == "numeric":
        # Components from their numeric oracles: eta via Richardson of the
        # continued series, F blocks from the closed s-expression
        # differentiated numerically, single sequences from profile fits.
        eta0 = _eta_zero_richardson()
        fd0, fd0p = _f_values_numeric(alpha=-1.0 / 8.0, beta=5.0 / 24.0)
        fn0, fn0p = _f_values_numeric(alpha=3.0 / 8.0, beta=-7.0 / 24.0)
        # lim (-B + P) = eta(0) + (1/2) log 2pi - (1/12) log 2 + zeta'(-1),
        # identical for the Dirichlet and Neumann component splittings.
        bp = eta0 + 0.5 * _LOG2PI - _LOG2 / 12.0 + zp1
        a_d_prime = zp1 - 0.25 * _LOG2PI
        a_n_prime = zp1 + 0.25 * _LOG2PI
        zd_small = -a_d_prime + bp + fd0p
        zn_small = -a_n_prime + bp + fn0p
        j00, j00p = _j0_sequence_values()
        jp0, jp0p = _j0p_sequence_values()
        zd0 = 2.0 * (-(0.5 * (-1.0 / 12.0) + 0.25 * (-0.5)) + fd0) + j00
        zn0 = 2.0 * (-(0.5 * (-1.0 / 12.0) - 0.25 * (-0.5)) + fn0) + jp0
        zd0p = 2.0 * zd_small + j00p
        zn0p = 2.0 * zn_small + jp0p
    else:
        raise ValueError(f"unknown route {route!r}")
    return DirichletNeumannBlock(
        zeta_D0=zd0, zeta_D0_prime=zd0p, zeta_N0=zn0, zeta_N0_prime=zn0p,
        zeta_D0_prime_quarter=zd0p + math.log(4.0) * zd0,
        zeta_N0_prime_quarter=zn0p + math.log(4.0) * zn0,
        route=route)


def _eta_zero_richardson() -> float:
    """eta(0) by Richardson extrapolation of the subtracted series in s.

    eta is analytic at 0, so polynomial extrapolation on a geometric
    ladder of sample points converges rapidly; five points and a quartic
    leave an error well below 1e-9.
    """
    ss = np.array([0.032, 0.016, 0.008, 0.004, 0.002])
    vals = np.array([eta_function(float(s)) for s in ss])
    return float(np.polyfit(ss, vals, 4)[-1])


def _f_values_numeric(alpha: float, beta: float):
    """(F(0), F'(0)) by numeric differentiation of the closed s-expression."""
    h = 1e-3
    f0 = f_component_semiclosed(alpha, beta, 0.0)
    vals = [f_component_semiclosed(alpha, beta, k * h) for k in (-2, -1, 1, 2)]
    f0p = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
    return f0, f0p


# ----------------------------------------------------------------------
# Direct / contour spectral sums at s > 1
# ----------------------------------------------------------------------

def _order_tail_over_n(values_by_n: dict, s: float, n_from: int) -> float:
    """Complete sum over family index n > n_from of per-order zeta values,
    fitting zeta_n(s) ~ alpha n^{1-2s} + beta n^{-2s} + gamma n^{-1-2s}."""
    ns = np.asarray(sorted(values_by_n), dtype=float)
    vals = np.asarray([values_by_n[int(n)] for n in ns])
    basis = np.stack([ns ** (1.0 - 2.0 * s), ns ** (-2.0 * s),
                      ns ** (-1.0 - 2.0 * s)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    a = n_from + 1.0
    return (coef[0] * hurwitz_zeta(2.0 * s - 1.0, a)
            + coef[1] * hurwitz_zeta(2.0 * s, a)
            + coef[2] * hurwitz_zeta(2.0 * s + 1.0, a))


def _sum_orders(m: int) -> list:
    """The orders of a spectral sum: the low orders, then nu = m+1 .. m+14."""
    return [nu for nu, _ in besselx.canonical_orders(m, m // 2 + 1)] + list(range(m + 1, m + 15))


def _spectral_sum(m: int, s: float, order_zetas) -> float:
    """4^s z_m(s) from the per-order values ``order_zetas(orders)`` of the
    ``_sum_orders(m)``: the low orders with their weights, then 2 * sum over
    the family orders, then the n-tail fitted to the last eight."""
    low = besselx.canonical_orders(m, m // 2 + 1)
    vals = order_zetas(_sum_orders(m))
    total = 0.0
    for (nu, weight), val in zip(low, vals):
        total += weight * val
    fam_vals = dict(zip(range(1, 15), vals[len(low):]))
    total += 2.0 * sum(fam_vals.values())
    fit_tail = {n: fam_vals[n] for n in range(7, 15)}
    total += 2.0 * _order_tail_over_n(fit_tail, s, 14)
    return 4.0 ** s * total


_DIRECT_K = 60  # certified zeros per order of the direct spectral sum


def spectral_zeta_direct(m: int, s: float) -> float:
    """zeta(s) = 4^s z_m(s) from 60 (``_DIRECT_K``) certified zeros per order
    plus k- and n-tails, s > 1; the zeros come from one lockstep solve per
    m, which the memo of ``besselx.zero_sequences`` keeps for every later s."""
    if s <= 1.0:
        raise ValueError("direct spectral sum needs s > 1")
    return _spectral_sum(m, s, lambda orders: [
        float(np.sum(seq.zeros ** (-2.0 * s)))
        + zero_tail_sum(seq.zeros, _DIRECT_K, s, slope=math.pi / 2.0)
        for seq in besselx.zero_sequences([(nu, m) for nu in orders], _DIRECT_K)])


def spectral_zeta_contour(m: int, s: float) -> float:
    """Same object with every per-order value from the contour integral."""
    if s <= 1.0:
        raise ValueError("needs s > 1")
    return _spectral_sum(m, s, lambda orders: [
        mellin_contour_zeta(vals, contour, s)
        for contour, vals in _contour_samples(m, orders)])
