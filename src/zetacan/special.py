r"""Special-function kernel: gamma family, Riemann/Hurwitz zeta and their
s-derivatives, Bessel J of integer order, and log-scaled Bessel I.

Everything here is a pure function of its arguments, so the scalar zeta
functions that callers ask for again and again (``hurwitz_zeta``,
``hurwitz_zeta_prime``, ``riemann_zeta_prime``) are memoized.  Hurwitz
zeta, its s-derivative and digamma come from one Euler-Maclaurin form;
Riemann zeta values for s < -1/2 go through the functional equation.

The Bessel layer is array-first.  ``bessel_j_orders`` yields J_0 .. J_n at
every point of a real or complex array from one downward (Miller)
recurrence, normalized by the Neumann series (against ``cos z`` where the
imaginary part is large).  Each point starts the recurrence at its own
index, so its values never depend on the other points of the call and many
contours go through one pass.  ``bessel_j``,
``bessel_j_many`` and ``bessel_j_complex_many`` are thin views of its
table, and ``_j_signed`` is the one reader of negative orders in it.
``bessel_i_log`` gives log I_n(x) for orders and points broadcast together,
so that cross products at large order/argument never overflow:
large-argument asymptotics (https://dlmf.nist.gov/10.40) where x >= max(35,
1.2 n^2), the power series elsewhere, each point taking the steps a
one-point call would.
"""

from __future__ import annotations

import functools
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
    "bessel_j_complex_many",
    "bessel_i_log",
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


# Euler-Maclaurin truncation (direct terms, Bernoulli corrections) shared by
# hurwitz_zeta, hurwitz_zeta_prime and _digamma
_EM_TERMS = 36
_EM_CORRECTIONS = 12


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


@functools.lru_cache(maxsize=1024, typed=True)
def hurwitz_zeta(s: float, a: float = 1.0) -> float:
    """Hurwitz zeta(s, a) for real s != 1, a > 0, by Euler-Maclaurin.

    The Euler-Maclaurin form continues the Dirichlet series analytically;
    with its fixed truncation it is accurate to ~1e-15 (relative) for
    s in roughly [-12, 40].
    """
    if a <= 0.0:
        raise SpecialFunctionError("hurwitz_zeta requires a > 0")
    if s == 1.0:
        raise SpecialFunctionError("zeta has a pole at s = 1")
    acc = 0.0
    comp = 0.0
    for k in range(_EM_TERMS):
        term = (k + a) ** (-s)
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    w = _EM_TERMS + a
    acc += w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** (-s)
    for j in range(1, _EM_CORRECTIONS + 1):
        b = float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
        acc += b * _pochhammer(s, 2 * j - 1) * w ** (-s - 2 * j + 1)
    return acc


@functools.lru_cache(maxsize=1024, typed=True)
def hurwitz_zeta_prime(s: float, a: float = 1.0) -> float:
    """d/ds of hurwitz_zeta(s, a), same validity range."""
    if a <= 0.0:
        raise SpecialFunctionError("hurwitz_zeta_prime requires a > 0")
    if s == 1.0:
        raise SpecialFunctionError("zeta has a pole at s = 1")
    acc = 0.0
    comp = 0.0
    for k in range(_EM_TERMS):
        base = k + a
        term = -math.log(base) * base ** (-s)
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    w = _EM_TERMS + a
    lw = math.log(w)
    acc += w ** (1.0 - s) * (-lw / (s - 1.0) - 1.0 / (s - 1.0) ** 2)
    acc += -0.5 * lw * w ** (-s)
    for j in range(1, _EM_CORRECTIONS + 1):
        b = float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
        m = 2 * j - 1
        acc += b * w ** (-s - 2 * j + 1) * (
            _pochhammer_prime(s, m) - _pochhammer(s, m) * lw
        )
    return acc


def _digamma(x: float) -> float:
    """psi(x) for x > 0, the s -> 1 limit of hurwitz_zeta's Euler-Maclaurin
    form: psi(x) = -lim (zeta(s, x) - 1/(s - 1)), same truncation."""
    w = _EM_TERMS + x
    tail = math.log(w) - 0.5 / w - sum(
        float(_BERNOULLI[2 * j]) / (2 * j) * w ** (-2 * j)
        for j in range(1, _EM_CORRECTIONS + 1))
    return tail - math.fsum(1.0 / (k + x) for k in range(_EM_TERMS))


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


@functools.lru_cache(maxsize=1024, typed=True)
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
# Bessel J
# ----------------------------------------------------------------------

def _rescale(k, out, f, fp, *sums):
    """Multiply f, fp, each of ``sums`` and rows k.. of ``out`` by 1e-280, in
    place, at the points where |f| > 1e280; returns (max |f|, max |fp|), the
    recurrence's new bounds.

    The arrays are the kernel's flat buffers (``out`` has one column per
    point), and each point gets the decision and factor that a rescale of
    the whole array would give it.  The bound on |fp| is taken afresh: the
    caller's running bound may be far above it, and carried on it would set
    off a rescale every few steps.
    """
    hot = np.flatnonzero(np.abs(f) > 1e280)
    for a in (f, fp, *sums):
        a[hot] *= 1e-280
    out[k:, hot] *= 1e-280
    return float(np.abs(f).max()), float(np.abs(fp).max())


def bessel_j_orders(n_max, x) -> np.ndarray:
    """J_0 .. J_n_max at every point of ``x``, shape ``(n_max + 1, *x.shape)``.

    One downward (Miller) recurrence serves all orders and all points, real
    or complex; a point's running sums are rescaled by 1e-280 whenever its
    value passes 1e280.  Normalization is the Neumann sum J_0 + 2 sum J_2k =
    1, or, for complex points with |Im z| > 1 where that sum cancels
    exponentially, cos z = J_0 + 2 sum (-1)^k J_2k.  ``n_max`` may be an
    integer array broadcast against ``x`` giving each point's highest order
    (orders above it are not accurate there).  Every point, real or complex,
    starts the recurrence at its own index, set by its own |x| and highest
    order, so a point's values never depend on the other points of the call,
    and a small |z| is not run up from the start that a large |z| needs.

    A step costs a few ufunc calls whatever the number of points, so the
    loop writes every step into preallocated buffers, in the operation
    order of the plain expressions and so with their bits, and rescales
    only when a running bound on |f| passes 1e280.
    """
    x = np.asarray(x)
    cplx = np.iscomplexobj(x)
    x = x.astype(np.complex128 if cplx else np.float64)
    top = int(np.max(n_max))
    shape = x.shape
    out = np.empty((top + 1, x.size), dtype=x.dtype)
    if x.size == 0:
        return out.reshape((top + 1,) + shape)
    zero = x == 0.0
    if zero.any():
        x = np.where(zero, 1.0, x)
    # each point's start: an index past which J is negligible for its orders
    xa = np.maximum(np.abs(x), 1.0)
    start = (np.maximum(n_max, xa) + 12.0 * xa ** (1.0 / 3.0) + 22).astype(int)
    # the recurrence is pointwise: run it on flat arrays
    x, zero = x.reshape(-1), zero.reshape(-1)
    # points grouped by start index: group g is order[edges[g]:edges[g + 1]]
    order = np.argsort(start, axis=None, kind="stable")
    starts, first = np.unique(start.ravel()[order], return_index=True)
    starts, edges, g = starts.tolist(), first.tolist() + [order.size], len(starts) - 1
    # unnormalized J_k and J_{k+1}, two scratch buffers, the two sums
    f, fp, a, b, neumann, cos_norm = (np.zeros(x.size, dtype=x.dtype) for _ in range(6))
    inv_x = 2.0 / x
    # |f| <= (k+1) max|2/x| |f_{k+1}| + |f_{k+2}|: a bound that spares the
    # rescale test on the steps where no value can have passed 1e280
    growth = float(np.max(np.abs(inv_x)))
    bound = bound_p = 0.0
    for k in range(starts[-1], -1, -1):
        if g >= 0 and k == starts[g]:
            f[order[edges[g]:edges[g + 1]]] = 1e-30
            bound = max(bound, 1e-30)
            g -= 1
        # f_k = (k + 1) * inv_x * f_{k+1} - f_{k+2}; J_{k+2}'s buffer is free next
        np.multiply(k + 1, inv_x, out=a)
        np.multiply(a, f, out=b)
        np.subtract(b, fp, out=a)
        f, fp, a = a, f, fp
        bound, bound_p = ((k + 1) * growth * bound + bound_p) * (1.0 + 1e-12), bound
        if k <= top:
            out[k] = f
        if k % 2 == 0:
            w = f if k == 0 else np.multiply(2.0, f, out=b)
            np.add(neumann, w, out=neumann)
            if cplx:  # cos_norm + (-w) is cos_norm - w, bit for bit
                (np.add if k % 4 == 0 else np.subtract)(cos_norm, w, out=cos_norm)
        if bound > 1e280:
            bound, bound_p = _rescale(k, out, f, fp, neumann, cos_norm)
    if cplx:
        use_cos = np.abs(x.imag) > 1.0
        out *= np.where(use_cos, np.cos(x), 1.0 + 0.0j)
        out /= np.where(use_cos, cos_norm, neumann)
    else:
        out /= neumann
    if zero.any():
        out[:, zero] = 0.0
        out[0, zero] = 1.0
    return out.reshape((top + 1,) + shape)


def _j_signed(j, q, *points) -> np.ndarray:
    """J_q read from the kernel table ``j`` (row k is J_k) at signed orders q,
    by J_{-k} = (-1)^k J_k; q and the index arrays ``points`` into the other
    axes of ``j`` broadcast together."""
    v = j[(np.abs(q),) + points]  # a copy: advanced indexing
    return np.negative(v, out=v, where=(q < 0) & (q % 2 == 1))


def bessel_j_many(orders, x) -> dict:
    """{n: J_n(x)} for integer orders, negative ones too, from one kernel
    pass; ``x`` is a real scalar or array."""
    x = np.asarray(x, dtype=float)
    q = np.array([int(n) for n in orders])
    v = _j_signed(bessel_j_orders(int(np.abs(q).max()), x.ravel()), q[:, None], np.arange(x.size))
    return {n: row.reshape(x.shape)[()] for n, row in zip(q.tolist(), v)}


def bessel_j(n: int, x: float) -> float:
    """Bessel J_n(x), integer order."""
    return bessel_j_many((n,), x)[int(n)]


def bessel_j_complex_many(orders, z: np.ndarray) -> np.ndarray:
    """J_0 .. J_n on an array of complex points from one kernel pass, as the
    kernel's table (row k is J_k(z)), n the largest of ``orders``.  For a 1-d
    ``z``, ``orders`` lists the nonnegative orders needed; for a ``z`` of
    shape (rows, nodes) it has shape (rows, k), the orders each row needs.
    Each point's recurrence starts from its own |z| and its row's largest
    order, so a point equals its one-point call with that order bit for bit.
    This is the rotation backend for modified Bessel functions at complex
    argument, I_n(z) = i^{-n} J_n(iz).
    """
    orders = np.asarray(orders, dtype=int)
    if orders.min() < 0:
        raise SpecialFunctionError("bessel_j_complex_many requires n >= 0")
    return bessel_j_orders(orders.max(axis=-1, keepdims=True),
                           np.asarray(z, dtype=np.complex128))


# ----------------------------------------------------------------------
# Modified Bessel I, log-scaled
# ----------------------------------------------------------------------

# libm's log point by point: numpy's own log can differ from it in the last bit
_log = np.vectorize(math.log, otypes=[float])


def _series_i_log(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    # n >= 0, x > 0, 1-d arrays of one length.  All terms positive: no
    # cancellation at any x.  Each point stops on its own rule and rescales
    # its own running sum, so it gets the bits a one-point call gives it.
    lt0 = n * _log(0.5 * x) - np.array([math.lgamma(k + 1.0) for k in n.tolist()])
    q = 0.25 * x * x
    t, acc, shift = np.ones_like(x), np.ones_like(x), np.zeros_like(x)
    live = np.ones(x.shape, dtype=bool)
    r = 0
    while live.any():
        r += 1
        t = np.where(live, t * (q / (r * (n + r))), t)
        acc = np.where(live, acc + t, acc)
        live &= (r <= 3) | (t >= 1e-18 * acc)
        hot = live & (acc > 1e280)
        if hot.any():
            acc[hot] *= 1e-280
            t[hot] *= 1e-280
            shift[hot] += 280.0 * math.log(10.0)
        if r > 200000:  # pragma: no cover
            raise SpecialFunctionError("I series did not converge")
    return lt0 + _log(acc) + shift


def _asymptotic_i_log(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    # DLMF 10.40.1; requires x somewhat beyond n^2/2 so the series decays.
    # Each point stops where its terms stop decaying or fall below 1e-19.
    mu = 4.0 * n * n
    term, acc, prev = np.ones((3,) + x.shape)
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, 30):
        term = term * (-(mu - (2 * k - 1) ** 2) / (8.0 * k * x))
        live &= np.abs(term) < prev
        acc = np.where(live, acc + term, acc)
        prev = np.abs(term)
        live &= np.abs(term) >= 1e-19 * acc
        if not live.any():
            break
    return x - 0.5 * _log(2.0 * math.pi * x) + _log(acc)


def bessel_i_log(n, x):
    """log I_n(x) for integer orders n and x > 0, broadcast against each other.

    Large-argument asymptotics at the points where that series actually
    decays, x >= max(35, 1.2 n^2); the power series (all terms positive) at
    the others.  The log scaling never overflows for x <= 1e5.
    """
    n, x = np.broadcast_arrays(np.abs(np.asarray(n, dtype=int)), np.asarray(x, dtype=float))
    if np.any(x <= 0.0):
        raise SpecialFunctionError("bessel_i_log requires x > 0")
    big = x >= np.maximum(35.0, 1.2 * n * n)
    out = np.empty(x.shape)
    out[big] = _asymptotic_i_log(n[big], x[big])
    out[~big] = _series_i_log(n[~big], x[~big])
    return out[()]
