r"""Generic numerical engines.

The zero tables and cross-product zeros are polished by
``newton_brackets``: safeguarded Newton steps on f and f' from the Bessel
kernel, clamped to each bracket with a bisection fallback, for all brackets
in lockstep.  ``adaptive_quad`` is Gauss-Legendre on a finite interval,
its node count doubled until two rules agree.  ``brent_root`` wraps
scipy's Brent method and is the one part that needs scipy.  The rest:

* least-squares extraction of the large-argument profile
  ``d z + a log z^2 + b + c1/z + ...`` of a log-product along a real ray,
* tail completion of zero sequences ``lambda_k ~ pi (k + delta)`` with the
  slope pinned to pi and the offset fitted,
* the contour representation of a spectral zeta function along the wedge
  ``Lambda_c = { |arg(z - c)| = pi/8 }``:

  .. math::
      \zeta(s) = \frac{s}{\pi i} \oint_{\Lambda_c} \log p(z)\, z^{-2s-1} dz
               = -\frac{2s}{\pi}\,\mathrm{Im} \int_{\rm upper\ ray} \log p(z)\, z^{-2s-1} dz,

  obtained from the heat-kernel double integral by carrying out the
  t-integration in closed form.  Subtracting the ray-side asymptotics of
  ``log p`` term by term continues the representation through s = 0 and
  yields zeta(0) and zeta'(0) directly.  ``ContourSpec`` fixes the
  half-angle pi/8 and the panel layout; callers choose the vertex c and
  the truncation radius.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .special import hurwitz_zeta

__all__ = [
    "BracketError",
    "QuadratureError",
    "FitError",
    "brent_root",
    "newton_brackets",
    "adaptive_quad",
    "AsymptoticProfile",
    "fit_asymptotic_profile",
    "zero_tail_sum",
    "ContourSpec",
    "mellin_contour_zeta",
    "mellin_zeta_critical_values",
]


class BracketError(ValueError):
    """Root bracket does not straddle a sign change."""


class QuadratureError(RuntimeError):
    """Gauss-Legendre rules did not converge within the node budget."""


class FitError(RuntimeError):
    """Asymptotic-profile fit residual exceeds the certification threshold."""


# ----------------------------------------------------------------------
# Root finding / quadrature
# ----------------------------------------------------------------------

def brent_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of f on [lo, hi] via Brent's method; requires a sign change.

    The returned point always lies inside the initial bracket.  Needs
    scipy; kept only for the benchmark tracer, which wraps it by name.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    from scipy.optimize import brentq

    return brentq(f, lo, hi, xtol=tol, rtol=8.9e-16)


def newton_brackets(fdf, lo, hi, rising, tol: float = 0.0) -> np.ndarray:
    """Roots of f in the brackets [lo, hi] (1-d arrays), all solved in lockstep.

    ``fdf(x, idx)`` returns f and f' at the points x of the brackets idx;
    ``rising`` marks brackets where f < 0 on the lo side.  Each step is a
    Newton step from the current point, replaced by bisection when it
    leaves the bracket, and the bracket shrinks to the side that keeps the
    sign change.  A bracket is done once its step is at most
    tol + 4 eps |x| (the point after that step is returned) or f is
    exactly 0; each root depends only on its own bracket.  Brackets still
    open after 100 steps raise BracketError.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    x = 0.5 * (lo + hi)
    active = np.arange(x.size)
    for _ in range(100):
        if active.size == 0:
            break
        xa = x[active]
        f, df = fdf(xa, active)
        right = (f < 0.0) == rising[active]
        la = np.where(right, xa, lo[active])
        ha = np.where(right, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xa - f / df
        xn = np.where((xn >= la) & (xn <= ha), xn, 0.5 * (la + ha))
        xn = np.where(f == 0.0, xa, xn)
        done = np.abs(xn - xa) <= tol + 4.0 * np.finfo(float).eps * np.abs(xa)
        x[active], lo[active], hi[active] = xn, la, ha
        active = active[~done]
    if active.size:
        raise BracketError(f"{active.size} brackets not converged in 100 steps")
    return x


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def adaptive_quad(f, a: float, b: float) -> float:
    """Integral of a vectorized f over the finite interval [a, b].

    Gauss-Legendre rules with 16, 32, ... nodes until two successive ones
    agree to 1e-13 max(1, |I|); QuadratureError when 1024 nodes are not
    enough.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    prev = math.nan
    for n in (16, 32, 64, 128, 256, 512, 1024):
        x, w = _leggauss(n)
        val = half * float(np.sum(w * f(mid + half * x)))
        diff = abs(val - prev)
        if diff <= 1e-13 * max(1.0, abs(val)):
            return val
        prev = val
    raise QuadratureError(f"Gauss-Legendre rules differ by {diff:.2e} at 1024 nodes")


# ----------------------------------------------------------------------
# Asymptotic profiles
# ----------------------------------------------------------------------

@dataclass
class AsymptoticProfile:
    """Coefficients of g(z) ~ d z + a log(z^2) + b + c1/z (+ ...).

    When g is minus the log of a normalized zero product
    prod (1 + z^2/lambda_k^2) on the positive ray, the attached spectral
    zeta function has zeta(0) = -a and zeta'(0) = -b.
    """
    d: float
    a: float
    b: float
    c1: float = 0.0
    fit_residual: float = 0.0

    def certified(self) -> bool:
        return self.fit_residual <= 1e-8


def _profile_basis(z: np.ndarray, inverse_degree: int) -> np.ndarray:
    cols = [z, np.log(z * z), np.ones_like(z)]
    for p in range(1, inverse_degree + 1):
        cols.append(z ** (-float(p)))
    return np.stack(cols, axis=1)


def fit_asymptotic_profile(g, z_min: float = 30.0, z_max: float = 300.0,
                           n_nodes: int = 200,
                           inverse_degree: int = 4) -> AsymptoticProfile:
    """Least-squares fit of g(z) against {z, log z^2, 1, 1/z, ..., z^-deg}.

    g is called once, on the whole log-spaced grid of the window.  The basis carries
    inverse powers beyond the reported c1 so that the O(1/z^3) model
    error of typical Bessel log-products does not bias the constant term.
    The max-abs residual over the grid is stored on the profile, whose
    ``certified()`` judges it.
    """
    if not (0.0 < z_min < z_max):
        raise ValueError("require 0 < z_min < z_max")
    z = np.geomspace(z_min, z_max, n_nodes)
    vals = np.broadcast_to(np.asarray(g(z), dtype=float), z.shape)
    basis = _profile_basis(z, inverse_degree)
    scale = np.max(np.abs(basis), axis=0)
    coef, *_ = np.linalg.lstsq(basis / scale, vals, rcond=None)
    coef = coef / scale
    resid = float(np.max(np.abs(basis @ coef - vals)))
    return AsymptoticProfile(
        d=float(coef[0]), a=float(coef[1]), b=float(coef[2]),
        c1=float(coef[3]) if inverse_degree >= 1 else 0.0,
        fit_residual=resid)


def zero_tail_sum(zeros, K: int, s: float, slope: float = math.pi) -> float:
    """sum_{k > K} lambda_k^{-2s} for a sequence with lambda_k ~ slope (k + delta).

    The slope is imposed (pi for a single Bessel zero family; pi/2 for
    cross-product sequences, whose zeros interlace the merged zeros of two
    Bessel factors and are therefore twice as dense); the offset delta and
    its 1/k correction are fitted from the last computed zeros, and the
    tail is completed with Hurwitz zeta values.  Requires s > 1/2 and
    K at most len(zeros).
    """
    zeros = np.asarray(zeros, dtype=float)
    if K > len(zeros):
        raise ValueError("K exceeds the number of supplied zeros")
    if s <= 0.5:
        raise QuadratureError("zero tail diverges for s <= 1/2")
    tail_fit = min(len(zeros), 16)
    ks = np.arange(len(zeros) - tail_fit + 1, len(zeros) + 1, dtype=float)
    ys = zeros[-tail_fit:] / slope - ks
    basis = np.stack([np.ones_like(ks), 1.0 / ks, 1.0 / ks ** 2], axis=1)
    (delta, e1, f2), *_ = np.linalg.lstsq(basis, ys, rcond=None)
    # lambda_k = slope (u + e1/u + (f2 + e1 delta)/u^2 + ...), u = k + delta
    a0 = K + 1.0 + delta
    tail = (hurwitz_zeta(2.0 * s, a0)
            - 2.0 * s * e1 * hurwitz_zeta(2.0 * s + 2.0, a0)
            - 2.0 * s * (f2 + e1 * delta) * hurwitz_zeta(2.0 * s + 3.0, a0))
    return slope ** (-2.0 * s) * tail


# ----------------------------------------------------------------------
# Contour Mellin representation along Lambda_c
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = _leggauss(16)
# direction of the upper ray of Lambda_c, arg(z - c) = pi/8
_PHASE = complex(math.cos(math.pi / 8.0), math.sin(math.pi / 8.0))


@dataclass
class ContourSpec:
    """The wedge contour Lambda_c = { |arg(z - c)| = pi/8 }.

    ``c`` must lie strictly between 0 and the smallest zero of the target
    product.  ``truncation_radius`` is where numeric panels stop and the
    fitted asymptotic tail takes over.
    """
    c: float
    truncation_radius: float

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ValueError("contour vertex c must be positive")
        if self.truncation_radius <= 1.0:
            raise ValueError("truncation radius too small")

    def ray_nodes(self):
        """Gauss-Legendre nodes/weights on the upper ray, ordered by r."""
        r, w = _ray_layout(self.truncation_radius)
        return self.c + r * _PHASE, w * _PHASE, r


@functools.lru_cache(maxsize=None)
def _ray_layout(radius: float):
    """(r, w): Gauss-Legendre nodes and weights in arc length r along one ray
    of radius ``radius``, shared read-only by every contour of that radius.

    Panels grow geometrically from length 0.5 at the vertex, capped at
    length 4 so that the phase increment of a log-product between adjacent
    Gauss nodes stays well below pi, which the branch unwrapping relies on.
    """
    edges = [0.0]
    step = 0.5
    r = 0.0
    while r < radius:
        r = min(r + step, radius)
        edges.append(r)
        step = min(step * 1.22, 4.0)
    rs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        rs.append(mid + half * _GL_NODES)
        ws.append(half * _GL_WEIGHTS)
    r, w = np.concatenate(rs), np.concatenate(ws)
    r.flags.writeable = w.flags.writeable = False
    return r, w


def _eval_logp(logp, z: np.ndarray) -> np.ndarray:
    """The samples ``logp`` of log p at the ray nodes z, their imaginary part
    made continuous along the ray; ValueError when there is not one sample
    per node, QuadratureError when a sample is not finite."""
    vals = np.asarray(logp, dtype=np.complex128)
    if vals.shape != z.shape:
        raise ValueError(f"log p sampled at shape {vals.shape}, contour nodes {z.shape}")
    bad = ~np.isfinite(vals)
    if bad.any():
        raise QuadratureError(f"log p is not finite at {int(bad.sum())} of {vals.size} "
                              f"contour nodes, first at z = {complex(z[bad][0]):.6g}")
    im = np.unwrap(vals.imag)
    im -= 2.0 * math.pi * round(im[0] / (2.0 * math.pi))
    return vals.real + 1j * im


def _ray_tail_integrals(z_r: complex, s: float) -> tuple:
    """Closed forms of int_{z_R}^{infty} b(z) z^{-2s-1} dz along the ray, for the
    basis b = z, log z^2, 1, 1/z, 1/z^2 of ``_fit_ray_asymptotics`` in its order.

    Valid for s > 1/2 (the integrands then decay); log z is principal,
    which is the analytic branch on the upper ray.
    """
    def power(w):
        return z_r ** (1.0 - w) / (w - 1.0)

    w = 2.0 * s + 1.0
    logz2 = 2.0 * z_r ** (1.0 - w) * (np.log(z_r) / (w - 1.0) + 1.0 / (w - 1.0) ** 2)
    return power(2.0 * s), logz2, power(w), power(2.0 * s + 2.0), power(2.0 * s + 3.0)


def _fit_ray_asymptotics(z: np.ndarray, vals: np.ndarray, r: np.ndarray,
                         r_lo: float):
    """Complex LS fit of log p ~ A z + B log z^2 + C + D/z + E/z^2 on the ray."""
    sel = r >= r_lo
    zz = z[sel]
    basis = np.stack([zz, np.log(zz * zz), np.ones_like(zz), 1.0 / zz,
                      1.0 / zz ** 2], axis=1)
    scale = np.max(np.abs(basis), axis=0)
    coef, *_ = np.linalg.lstsq(basis / scale, vals[sel], rcond=None)
    return coef / scale


def mellin_contour_zeta(logp, contour: ContourSpec, s: float) -> float:
    """Spectral zeta value sum_k lambda_k^{-2s} from the contour representation.

    ``logp`` holds the analytic continuation of log p (p the normalized zero
    product, real and positive at the vertex) sampled at
    ``contour.ray_nodes()[0]``, the nodes of the upper ray of Lambda_c; its
    imaginary part is made continuous along the ray, so callers may pass a
    principal-branch evaluation of a product.

    Valid for s > 1/2, s != 1 (the s-integration has been carried out in
    closed form; the tail beyond the truncation radius uses ray-side
    asymptotics fitted from the computed samples).
    """
    if s <= 0.5:
        raise ValueError("contour representation needs s > 1/2")
    z, w, r = contour.ray_nodes()
    vals = _eval_logp(logp, z)
    integrand = vals * z ** (-2.0 * s - 1.0)
    i_num = np.sum(w * integrand)
    coef = _fit_ray_asymptotics(z, vals, r, 0.6 * contour.truncation_radius)
    z_r = contour.c + contour.truncation_radius * _PHASE
    i_tail = sum(c * t for c, t in zip(coef, _ray_tail_integrals(z_r, s)))
    return -(2.0 * s / math.pi) * float((i_num + i_tail).imag)


def mellin_zeta_critical_values(logp, contour: ContourSpec,
                                profile: AsymptoticProfile):
    """(zeta(0), zeta'(0)) by analytic continuation of the contour integral.

    ``logp`` holds log p at ``contour.ray_nodes()[0]``, as for
    ``mellin_contour_zeta``.  ``profile`` holds the real-ray coefficients of
    -log G, G the rotated product with purely imaginary zeros; they fix the
    ray-side asymptotics

        log p(z) = i d z - a Log(z^2) + (i pi a - b) - i c1 / z + O(1/z^2)

    on the upper ray.  Subtracting them leaves an integrable remainder q;
    the subtracted part continues in closed form and contributes

        zeta(0)  = -a,
        zeta'(0) = 2 d c / pi + 2 a log c + 2 c1 / (pi c) - (2/pi) Im int q(z) dz / z.
    """
    z, w, r = contour.ray_nodes()
    vals = _eval_logp(logp, z)
    phi = (1j * profile.d * z - profile.a * np.log(z * z)
           + (1j * math.pi * profile.a - profile.b)
           - 1j * profile.c1 / z)
    q = vals - phi
    i_q = np.sum(w * q / z)
    # residual tail: q ~ q2 / z^2 + q3 / z^3, fitted from the outer samples
    # and integrated in closed form
    sel = r >= 0.6 * contour.truncation_radius
    zz = z[sel]
    basis = np.stack([zz ** -2.0, zz ** -3.0], axis=1)
    (q2, q3), *_ = np.linalg.lstsq(basis, q[sel], rcond=None)
    z_r = contour.c + contour.truncation_radius * _PHASE
    i_q += q2 * z_r ** (-2.0) / 2.0 + q3 * z_r ** (-3.0) / 3.0
    zeta0 = -profile.a
    zeta0_prime = (2.0 * profile.d * contour.c / math.pi
                   + 2.0 * profile.a * math.log(contour.c)
                   + 2.0 * profile.c1 / (math.pi * contour.c)
                   - (2.0 / math.pi) * float(i_q.imag))
    return zeta0, zeta0_prime
