r"""Special-function kernel: gamma family, Riemann/Hurwitz zeta and their
s-derivatives, Bessel J of integer order, log-scaled Bessel I, and the Debye
(uniform large-order) ingredients.

Everything here is a pure function of its arguments.  Hurwitz zeta, its
s-derivative and digamma come from one Euler-Maclaurin form; Riemann zeta
values for s < -1/2 go through the functional equation.  Bessel J of integer
order comes from one array-first kernel, ``bessel_j_orders``: a downward
(Miller) recurrence that yields all orders 0..n at every point of a real or
complex array in one pass, normalized by the Neumann series (against
``cos z`` when the imaginary part is large, where the plain Neumann sum
would be ill-conditioned).  ``bessel_j``, ``bessel_j_many``,
``bessel_j_prime`` and ``bessel_j_complex_many`` are thin views of it.

Modified Bessel functions I_n(x) are returned log-scaled, so that cross
products at large order/argument never overflow: large-argument asymptotics
(https://dlmf.nist.gov/10.40) once x >= max(35, 1.2 n^2), where that series
decays, and the power series below.  ``bessel_i_uniform_log`` and the Debye
polynomials give the uniform large-order form (https://dlmf.nist.gov/10.41).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "log_gamma",
    "stirling_remainder_r2",
    "stirling_remainder_r2_sum",
    "hurwitz_zeta",
    "hurwitz_zeta_prime",
    "riemann_zeta",
    "riemann_zeta_prime",
    "bessel_j_orders",
    "bessel_j",
    "bessel_j_many",
    "bessel_j_prime",
    "bessel_j_complex_many",
    "bessel_i_log",
    "bessel_i_uniform_log",
    "eta_debye",
    "eta_debye_minus_z_eta_prime",
    "u1_debye",
    "v1_debye",
    "uniform_w_poly",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# Bernoulli numbers B_2 .. B_28, exact.
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
    26: Fraction(8553103, 6),
    28: Fraction(-23749461029, 870),
}


class SpecialFunctionError(ValueError):
    """Domain or convergence failure in the special-function kernel."""


# ----------------------------------------------------------------------
# Gamma family
# ----------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0.0:
        raise SpecialFunctionError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def stirling_remainder_r2(n: float) -> float:
    """Remainder of the two-term Stirling expansion of log Gamma.

    R2(n) = log Gamma(n) - (n log n - n - (1/2) log n + (1/2) log 2 pi
    + 1/(12 n)).  Satisfies |R2(n)| < |B_4| / (12 n^3) on the positive axis.
    """
    if n <= 0:
        raise SpecialFunctionError("stirling_remainder_r2 requires n > 0")
    return math.lgamma(n) - (
        n * math.log(n) - n - 0.5 * math.log(n)
        + 0.5 * math.log(2.0 * math.pi) + 1.0 / (12.0 * n)
    )


def stirling_remainder_r2_sum(s: float) -> float:
    """sum_{n >= 1} R2(n) n^{-2s}.

    Direct summation up to n = 20, since past that the lgamma cancellation
    in R2(n) adds more noise than value; the tail uses the Stirling series
    R2(n) = sum_{j>=2} B_{2j} / ((2j)(2j-1) n^{2j-1}) summed against Hurwitz
    zeta values.
    """
    total = 0.0
    for n in range(1, 21):
        total += stirling_remainder_r2(float(n)) * n ** (-2.0 * s)
    for j in range(2, 7):
        b = float(_BERNOULLI[2 * j])
        total += b / ((2 * j) * (2 * j - 1)) * hurwitz_zeta(
            2 * j - 1.0 + 2.0 * s, 21.0)
    return total


# ----------------------------------------------------------------------
# Hurwitz / Riemann zeta by Euler-Maclaurin continuation
# ----------------------------------------------------------------------

def _pochhammer(s: float, m: int) -> float:
    p = 1.0
    for i in range(m):
        p *= s + i
    return p


def _pochhammer_prime(s: float, m: int) -> float:
    # d/ds prod_{i<m} (s+i), stable also when one factor vanishes
    total = 0.0
    for i in range(m):
        p = 1.0
        for j in range(m):
            if j != i:
                p *= s + j
        total += p
    return total


def hurwitz_zeta(s: float, a: float = 1.0, n_terms: int = 36, n_corr: int = 12) -> float:
    """Hurwitz zeta(s, a) for real s != 1, a > 0, by Euler-Maclaurin.

    The Euler-Maclaurin form continues the Dirichlet series analytically;
    with the default truncation it is accurate to ~1e-15 (relative) for
    s in roughly [-12, 40].
    """
    if a <= 0.0:
        raise SpecialFunctionError("hurwitz_zeta requires a > 0")
    if s == 1.0:
        raise SpecialFunctionError("zeta has a pole at s = 1")
    acc = 0.0
    comp = 0.0
    for k in range(n_terms):
        term = (k + a) ** (-s)
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    w = n_terms + a
    acc += w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** (-s)
    for j in range(1, n_corr + 1):
        b = float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
        acc += b * _pochhammer(s, 2 * j - 1) * w ** (-s - 2 * j + 1)
    return acc


def hurwitz_zeta_prime(s: float, a: float = 1.0, n_terms: int = 36, n_corr: int = 12) -> float:
    """d/ds of hurwitz_zeta(s, a), same validity range."""
    if a <= 0.0:
        raise SpecialFunctionError("hurwitz_zeta_prime requires a > 0")
    if s == 1.0:
        raise SpecialFunctionError("zeta has a pole at s = 1")
    acc = 0.0
    comp = 0.0
    for k in range(n_terms):
        base = k + a
        term = -math.log(base) * base ** (-s)
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    w = n_terms + a
    lw = math.log(w)
    acc += w ** (1.0 - s) * (-lw / (s - 1.0) - 1.0 / (s - 1.0) ** 2)
    acc += -0.5 * lw * w ** (-s)
    for j in range(1, n_corr + 1):
        b = float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
        m = 2 * j - 1
        acc += b * w ** (-s - 2 * j + 1) * (
            _pochhammer_prime(s, m) - _pochhammer(s, m) * lw
        )
    return acc


def _digamma(x: float) -> float:
    """psi(x) for x > 0, the s -> 1 limit of hurwitz_zeta's Euler-Maclaurin
    form: psi(x) = -lim (zeta(s, x) - 1/(s - 1)), same truncation."""
    w = 36 + x
    tail = math.log(w) - 0.5 / w - sum(
        float(_BERNOULLI[2 * j]) / (2 * j) * w ** (-2 * j) for j in range(1, 13))
    return tail - math.fsum(1.0 / (k + x) for k in range(36))


def riemann_zeta(s: float) -> float:
    """Riemann zeta at real s != 1.

    Euler-Maclaurin for s >= -1/2; the functional equation
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s) below, where the
    direct Euler-Maclaurin sum would cancel catastrophically.
    """
    if s >= -0.5:
        return hurwitz_zeta(s, 1.0)
    if s == round(s) and int(round(s)) % 2 == 0:
        return 0.0
    return (
        2.0 ** s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
        * math.gamma(1.0 - s) * hurwitz_zeta(1.0 - s, 1.0)
    )


def riemann_zeta_prime(s: float) -> float:
    """zeta'(s) at real s != 1, by the differentiated functional equation
    for s < -1/2 (with the trivial zeros handled in closed form)."""
    if s >= -0.5:
        return hurwitz_zeta_prime(s, 1.0)
    if s == round(s) and int(round(s)) % 2 == 0:
        # zeta'(-2k) = (-1)^k (2k)! zeta(2k+1) / (2^(2k+1) pi^(2k))
        k = int(round(-s)) // 2
        return ((-1.0) ** k * math.factorial(2 * k)
                * hurwitz_zeta(2.0 * k + 1.0, 1.0)
                / (2.0 ** (2 * k + 1) * math.pi ** (2 * k)))
    z1 = hurwitz_zeta(1.0 - s, 1.0)
    d1 = hurwitz_zeta_prime(1.0 - s, 1.0)
    val = (2.0 ** s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
           * math.gamma(1.0 - s) * z1)
    logderiv = (math.log(2.0 * math.pi)
                + 0.5 * math.pi / math.tan(0.5 * math.pi * s)
                - _digamma(1.0 - s) - d1 / z1)
    return val * logderiv


# ----------------------------------------------------------------------
# Bessel J, real argument
# ----------------------------------------------------------------------

def _miller_start(n_max, xa):
    # xa = max(|x|, 1); one index past which J is negligible for orders <= n_max
    return np.maximum(n_max, xa) + 12.0 * xa ** (1.0 / 3.0) + 22


def bessel_j_orders(n_max, x) -> np.ndarray:
    """J_0 .. J_n_max at every point of ``x``, shape ``(n_max + 1, *x.shape)``.

    One downward (Miller) recurrence serves all orders and all points, real
    or complex; running sums are rescaled by 1e-280 whenever a value passes
    1e280.  Normalization is the Neumann sum J_0 + 2 sum J_2k = 1, or, for
    complex points with |Im z| > 1 where that sum cancels exponentially,
    cos z = J_0 + 2 sum (-1)^k J_2k.  Complex points all start the
    recurrence at the index set by the largest |z|.  Real points each start
    at their own index, and ``n_max`` may then be an integer array giving
    each point's highest order (rows above it are not accurate there), so a
    real value never depends on the other points of the call.
    """
    x = np.asarray(x)
    cplx = np.iscomplexobj(x)
    x = x.astype(np.complex128 if cplx else np.float64)
    top = int(np.max(n_max))
    out = np.empty((top + 1,) + x.shape, dtype=x.dtype)
    if x.size == 0:
        return out
    zero = x == 0.0
    if zero.any():
        x = np.where(zero, 1.0, x)
    if cplx:
        start = np.full(x.shape, int(_miller_start(top, max(float(np.max(np.abs(x))), 1.0))))
    else:
        start = _miller_start(n_max, np.maximum(np.abs(x), 1.0)).astype(int)
    order = np.argsort(start, axis=None, kind="stable")
    starts, first = np.unique(start.ravel()[order], return_index=True)
    seeds = dict(zip(starts.tolist(), np.split(order, first[1:])))
    f = np.zeros(x.shape, dtype=x.dtype)   # unnormalized J_k
    fp = np.zeros(x.shape, dtype=x.dtype)  # unnormalized J_{k+1}
    neumann = np.zeros(x.shape, dtype=x.dtype)
    cos_norm = np.zeros(x.shape, dtype=x.dtype)
    inv_x = 2.0 / x
    # |f| <= (k+1) max|2/x| |f_{k+1}| + |f_{k+2}|: a bound that spares the
    # rescale test on the steps where no value can have passed 1e280
    growth = float(np.max(np.abs(inv_x)))
    bound = bound_p = 0.0
    for k in range(int(starts[-1]), -1, -1):
        if k in seeds:
            f.flat[seeds[k]] = 1e-30
            bound = max(bound, 1e-30)
        f, fp = (k + 1) * inv_x * f - fp, f
        bound, bound_p = ((k + 1) * growth * bound + bound_p) * (1.0 + 1e-12), bound
        if k <= top:
            out[k] = f
        if k % 2 == 0:
            w = f if k == 0 else 2.0 * f
            neumann = neumann + w
            if cplx:
                cos_norm = cos_norm + (w if (k // 2) % 2 == 0 else -w)
        if bound <= 1e280:
            continue
        big = np.abs(f) > 1e280
        if big.any():
            scale = np.where(big, 1e-280, 1.0)
            f = f * scale
            fp = fp * scale
            neumann = neumann * scale
            cos_norm = cos_norm * scale
            out[k:] *= scale
        bound, bound_p = float(np.max(np.abs(f))), float(np.max(np.abs(fp)))
    if cplx:
        use_cos = np.abs(x.imag) > 1.0
        out = out * np.where(use_cos, np.cos(x), 1.0 + 0.0j) / np.where(use_cos, cos_norm, neumann)
    else:
        out /= neumann
    if zero.any():
        out[:, zero] = 0.0
        out[0, zero] = 1.0
    return out


def bessel_j_many(orders, x) -> dict:
    """{n: J_n(x)} for integer orders (J_{-n} = (-1)^n J_n) from one kernel
    pass; ``x`` is a real scalar or array."""
    orders = [int(n) for n in orders]
    j = bessel_j_orders(max(abs(n) for n in orders), np.asarray(x, dtype=float))
    return {n: -j[-n] if n < 0 and n % 2 else j[abs(n)] for n in orders}


def bessel_j(n: int, x: float) -> float:
    """Bessel J_n(x), integer order."""
    return bessel_j_many((n,), x)[int(n)]


def bessel_j_prime(n: int, x: float) -> float:
    """J_n'(x) = (J_{n-1}(x) - J_{n+1}(x)) / 2."""
    n = int(n)
    v = bessel_j_many((n - 1, n + 1), x)
    return 0.5 * (v[n - 1] - v[n + 1])


def bessel_j_complex_many(orders, z: np.ndarray) -> dict:
    """{n: J_n(z)} for nonnegative integer orders on an array of complex
    points, from one kernel pass.  This is the rotation backend for
    modified Bessel functions at complex argument, I_n(z) = i^{-n} J_n(iz).
    """
    orders = sorted({int(n) for n in orders})
    if orders[0] < 0:
        raise SpecialFunctionError("bessel_j_complex_many requires n >= 0")
    j = bessel_j_orders(orders[-1], np.asarray(z, dtype=np.complex128))
    return {k: j[k] for k in orders}


# ----------------------------------------------------------------------
# Modified Bessel I, log-scaled
# ----------------------------------------------------------------------

def _series_i_log(n: int, x: float) -> float:
    # n >= 0, x > 0. All terms positive: no cancellation at any x; occasional
    # rescale keeps the running sum inside double range.
    lt0 = n * math.log(0.5 * x) - math.lgamma(n + 1.0)
    q = 0.25 * x * x
    t = 1.0
    acc = 1.0
    shift = 0.0
    r = 0
    while True:
        r += 1
        t *= q / (r * (n + r))
        acc += t
        if t < 1e-18 * acc and r > 3:
            break
        if acc > 1e280:
            acc *= 1e-280
            t *= 1e-280
            shift += 280.0 * math.log(10.0)
        if r > 200000:  # pragma: no cover
            raise SpecialFunctionError("I series did not converge")
    return lt0 + math.log(acc) + shift


def _asymptotic_i_log(n: int, x: float) -> float:
    # DLMF 10.40.1; requires x somewhat beyond n^2/2 so the series decays.
    mu = 4.0 * n * n
    term = 1.0
    acc = 1.0
    prev = abs(term)
    for k in range(1, 30):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) >= prev:
            break
        acc += term
        prev = abs(term)
        if abs(term) < 1e-19 * acc:
            break
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(acc)


def bessel_i_log(n: int, x: float):
    """(log I_n(x), sign) for x > 0; sign is always +1 for integer order.

    Large-argument asymptotics once that series actually decays,
    x >= max(35, 1.2 n^2); the power series (all terms positive) below.
    The log scaling never overflows for x <= 1e5.
    """
    n = abs(int(n))
    if x <= 0.0:
        raise SpecialFunctionError("bessel_i_log requires x > 0")
    if x >= max(35.0, 1.2 * n * n):
        return _asymptotic_i_log(n, x), 1
    return _series_i_log(n, x), 1


# ----------------------------------------------------------------------
# Debye (uniform large-order) machinery
# ----------------------------------------------------------------------

def eta_debye(z: float) -> float:
    """eta(z) = sqrt(1+z^2) + log(z / (1 + sqrt(1+z^2))), z > 0."""
    w = math.sqrt(1.0 + z * z)
    return w + math.log(z / (1.0 + w))


def eta_debye_minus_z_eta_prime(z: float) -> float:
    """eta(z) - z eta'(z) = log(z / (1 + sqrt(1+z^2))); -> log(z/2) as z -> 0."""
    return math.log(z / (1.0 + math.sqrt(1.0 + z * z)))


def u1_debye(p: float) -> float:
    """First Debye polynomial u_1(p) = (3p - 5p^3)/24, p = (1+z^2)^(-1/2)."""
    return (3.0 * p - 5.0 * p ** 3) / 24.0


def v1_debye(p: float) -> float:
    """First Debye polynomial for I_n', v_1(p) = -(3/8) p + (7/24) p^3."""
    return -0.375 * p + (7.0 / 24.0) * p ** 3


def uniform_w_poly(m: int, p: float) -> float:
    """1/n coefficient of the uniform expansion of the order-(n+m) cross
    product at argument n z:  w_m(p) = -(2m^2+2m+1) p / 4 + p^3 / 12.

    At p = 1 this is -(m(m+1)/2 + 1/6); at m = 0 it equals u_1 + v_1.
    """
    return -0.25 * (2.0 * m * m + 2.0 * m + 1.0) * p + p ** 3 / 12.0


def bessel_i_uniform_log(n: int, z: float, include_u1: bool = True) -> float:
    """log I_n(n z) by the uniform large-order (Debye) expansion.

    Leading term is O(1/n) accurate; with the u_1/n correction the relative
    error is O(1/n^2), uniformly in z on the positive axis.
    """
    if n <= 0 or z <= 0.0:
        raise SpecialFunctionError("bessel_i_uniform_log requires n, z > 0")
    w = math.sqrt(1.0 + z * z)
    out = n * eta_debye(z) - 0.5 * math.log(2.0 * math.pi * n) - 0.25 * math.log(1.0 + z * z)
    if include_u1:
        out += math.log1p(u1_debye(1.0 / w) / n)
    return out
