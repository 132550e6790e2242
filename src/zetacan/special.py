r"""Special-function kernel: gamma family, Riemann/Hurwitz zeta and their
s-derivatives, Bessel J of integer order, and log-scaled Bessel I.

Everything here is a pure function of its arguments, so the scalar zeta
functions that callers ask for again and again (``hurwitz_zeta``,
``riemann_zeta_prime``) are memoized.  Hurwitz zeta, its s-derivative and
digamma come from one Euler-Maclaurin form; Riemann zeta values for
s < -1/2 go through the functional equation.

The Bessel layer is array-first.  ``bessel_j_orders`` yields J at the
signed orders that each point of a real or complex array asks for, and no
others.  A point far out on the right, |x| >= max(30, 2 n) with n its
highest order, takes Hankel's expansion for J_0 and J_1 and forward
recurrence above; every other point takes one downward (Miller) recurrence,
normalized by the Neumann series (against ``cos z`` where the imaginary
part is large), started at its own index.  Either way its values never
depend on the rest of the call, and many contours go through one pass.
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

from . import np

__all__ = [
    "EULER_GAMMA",
    "stirling_remainder_r2",
    "stirling_remainder_r2_sum",
    "hurwitz_zeta",
    "hurwitz_zeta_prime",
    "riemann_zeta",
    "riemann_zeta_prime",
    "bessel_j_orders",
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
# B_2j / (2j)! and B_2j / (2j), j = 1 .. _EM_CORRECTIONS, as floats
_EM_COEFS = tuple(float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
                  for j in range(1, _EM_CORRECTIONS + 1))
_DIGAMMA_COEFS = tuple(float(_BERNOULLI[2 * j]) / (2 * j)
                       for j in range(1, _EM_CORRECTIONS + 1))


class SpecialFunctionError(ValueError):
    """Domain or convergence failure in the special-function kernel."""


# ----------------------------------------------------------------------
# Gamma family
# ----------------------------------------------------------------------

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

def _em_corrections(s: float):
    """(j, B_2j / (2j)!, p, dp/ds) for j = 1 .. _EM_CORRECTIONS, where
    p = s (s+1) ... (s+2j-2) is the rising factorial as a running product,
    its factors in their order, and dp/ds its running product-rule
    derivative (sound also where a factor vanishes)."""
    p, dp = 1.0, 0.0
    for j, b in enumerate(_EM_COEFS, start=1):
        for i in range(max(2 * j - 3, 0), 2 * j - 1):
            p, dp = p * (s + i), dp * (s + i) + p
        yield j, b, p, dp


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
    for j, b, p, _ in _em_corrections(s):
        acc += b * p * w ** (-s - 2 * j + 1)
    return acc


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
    for j, b, p, dp in _em_corrections(s):
        acc += b * w ** (-s - 2 * j + 1) * (dp - p * lw)
    return acc


def _digamma(x: float) -> float:
    """psi(x) for x > 0, the s -> 1 limit of hurwitz_zeta's Euler-Maclaurin
    form: psi(x) = -lim (zeta(s, x) - 1/(s - 1)), same truncation."""
    w = _EM_TERMS + x
    tail = math.log(w) - 0.5 / w - sum(
        b * w ** (-2 * j) for j, b in enumerate(_DIGAMMA_COEFS, start=1))
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

def _rescale(scaled, f, fp, *sums):
    """Multiply f, fp and each of ``sums`` by 1e-280, in place, at the points
    where |f| > 1e280, and count it in ``scaled``; returns (max |f|,
    max |fp|), the recurrence's new bounds, the one on |fp| taken afresh:
    carried on, it would set off a rescale every few steps."""
    hot = np.flatnonzero(np.abs(f) > 1e280)
    for a in (f, fp, *sums):
        a[hot] *= 1e-280
    scaled[hot] += 1
    return float(np.abs(f).max()), float(np.abs(fp).max())


def bessel_j_orders(n_max, x, orders) -> np.ndarray:
    """J at the signed integer ``orders`` at the points of ``x``, in the shape
    of the two broadcast together, the points' axes last: ``orders`` of shape
    (r, 1) against a 1-d ``x`` asks for r orders at every point, of shape
    (r, x.size) for r orders of each point's own.  J_{-k} = (-1)^k J_k.

    ``n_max``, broadcast against ``x``, is each point's highest order (orders
    above it are not accurate there).  It and the point's x alone pick the
    point's regime: Hankel's (``_hankel_rows``) where Re x > 0,
    |x| >= max(30, 2 n_max) and n_max^2 |Im x| <= 4 |x|^2, else Miller's
    (``_miller_rows``).  So its values never depend on the rest of the call.
    """
    x = np.asarray(x)
    x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64)
    shape = np.broadcast_shapes(np.shape(orders), x.shape)
    if math.prod(shape) == 0:
        return np.empty(shape, dtype=x.dtype)
    x = np.broadcast_to(x, shape[len(shape) - x.ndim:])
    q = np.broadcast_to(orders, shape)
    # rows of requests: (rows, 1) if a row asks one order at every point
    rows = not any(q.strides[len(shape) - x.ndim:])
    q = q[(...,) + (0,) * x.ndim].reshape(-1, 1) if rows else q.reshape(-1, x.size)
    qa = np.abs(q).astype(np.min_scalar_type(int(np.max(np.abs(orders)))))  # radix-sort keys
    odd = (q < 0) & ((qa & 1) == 1)
    tops = np.broadcast_to(n_max, x.shape).reshape(-1)
    x = x.reshape(-1)
    xa = np.abs(x)
    far = (x.real > 0.0) & (xa >= np.maximum(30.0, 2.0 * tops))
    if x.dtype.kind == "c":
        far &= tops * tops * np.abs(x.imag) <= 4.0 * xa * xa
    # Miller's points, then Hankel's by falling highest order, as column
    # blocks of the result; permuted into that order if they do not come so
    key = np.where(far, 1 + tops.max() - tops, 0)
    j = blocks = np.empty((len(qa), x.size), dtype=x.dtype)
    if np.any(key[1:] < key[:-1]):
        cols = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
        x, tops, blocks = x[cols], tops[cols], np.empty_like(j)
        qa = qa if rows else qa[:, cols]
    n = x.size - np.count_nonzero(far)
    for regime, part in ((_miller_rows, slice(n)), (_hankel_rows, slice(n, None))):
        if tops[part].size:
            regime(tops[part], x[part], qa if rows else qa[:, part], blocks[:, part])
    if blocks is not j:
        j[:, cols] = blocks
    if odd.any():
        np.negative(j, out=j, where=odd)
    return j.reshape(shape)


def _by_order(qa, top):
    """The requests ``qa``, (rows, 1) or (rows, points), sorted stably by order
    with one sort, as an index into the (rows, points) result, ([rows],) or
    (rows, points), and the edges lo: order k <= top is lo[k]:lo[k + 1]."""
    at = np.argsort(key := qa.ravel(), kind="stable")
    lo = np.searchsorted(key[at], np.arange(top + 2)).tolist()
    if qa.shape[1] == 1:
        return (at.tolist(),), lo
    rows = at // qa.shape[1]
    pts = (at - rows * qa.shape[1]).astype(np.int32)  # faster than at % points
    return (rows.astype(np.min_scalar_type(len(qa))), pts), lo


def _store(buf, f, index, s):
    """f, the values at every point, into the requests ``s`` of a ``_by_order``
    index: rows of the result, or a buffer that ``result[index] = buf`` places."""
    if len(index) == 1:
        for row in index[0][s]:
            buf[row] = f
    else:
        buf[s] = f[index[1][s]]


def _miller_rows(tops, x, qa, j) -> None:
    """J at the orders ``qa`` (as in ``_by_order``) at the points of the 1-d
    array ``x``, into ``j``, by one downward recurrence from each point's own
    start, set by its |x| and highest order (``tops``).

    Step k stores f into the requests of order k, with the point's count of
    rescales by 1e-280 once there has been one.  Each value then takes the
    factors of the rescales since its store, one at a time, and its point's
    normalization: J_0 + 2 sum J_2k = 1, or, for complex points with
    |Im z| > 1 where that sum cancels, cos z = J_0 + 2 sum (-1)^k J_2k.  So
    it gets the operations, and bits, of a table of all orders.  The steps
    write into preallocated buffers in the order of the plain expressions.
    """
    cplx = x.dtype.kind == "c"
    zero = x == 0.0
    if zero.any():
        x = np.where(zero, 1.0, x)
    # each point's start: an index past which J is negligible for its orders
    xa = np.maximum(np.abs(x), 1.0)
    start = (np.maximum(tops, xa) + 12.0 * xa ** (1.0 / 3.0) + 22).astype(int)
    # points grouped by start index: group g is order[edges[g]:edges[g + 1]]
    order = np.argsort(start, kind="stable")
    starts, first = np.unique(start[order], return_index=True)
    starts, edges, g = starts.tolist(), first.tolist() + [order.size], len(starts) - 1
    # from the highest order asked at least: above the starts f is 0
    top = max(starts[-1], int(qa.max()))
    index, lo = _by_order(qa, top)
    vals = j if len(index) == 1 else np.empty(len(index[0]), dtype=x.dtype)
    # each point's rescale count, and each value's point's count at its store
    scaled, stored = np.zeros(x.size, dtype=np.int32), None
    # unnormalized J_k and J_{k+1}, two scratch buffers, the two sums
    f, fp, a, b, neumann, cos_norm = (np.zeros(x.size, dtype=x.dtype) for _ in range(6))
    inv_x = 2.0 / x
    # |f| <= (k+1) max|2/x| |f_{k+1}| + |f_{k+2}|: a bound that spares most rescale tests
    growth = float(np.max(np.abs(inv_x)))
    bound = bound_p = 0.0
    for k in range(top, -1, -1):
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
        if lo[k] < lo[k + 1]:
            _store(vals, f, index, slice(lo[k], lo[k + 1]))
            if stored is not None:
                _store(stored, scaled, index, slice(lo[k], lo[k + 1]))
        if k % 2 == 0:
            w = f if k == 0 else np.multiply(2.0, f, out=b)
            np.add(neumann, w, out=neumann)
            if cplx:  # cos_norm + (-w) is cos_norm - w, bit for bit
                (np.add if k % 4 == 0 else np.subtract)(cos_norm, w, out=cos_norm)
        if bound > 1e280:
            bound, bound_p = _rescale(scaled, f, fp, neumann, cos_norm)
            stored = np.zeros(vals.shape, dtype=np.int32) if stored is None else stored
    if stored is not None:  # on the points of a row, or on the requests
        counts = scaled if len(index) == 1 else scaled[index[1]]
        hot = np.flatnonzero(counts)
        v, left = vals[..., hot], counts[hot] - stored[..., hot]
        for i in range(int(left.max(initial=0))):
            v[left > i] *= 1e-280
        vals[..., hot] = v
    if vals is not j:
        j[index] = vals
    if cplx:
        use_cos = np.abs(x.imag) > 1.0
        j *= np.where(use_cos, np.cos(x), 1.0 + 0.0j)
        j /= np.where(use_cos, cos_norm, neumann)
    else:
        j /= neumann
    if zero.any():  # J_0(0) = 1, J_k(0) = 0
        np.copyto(j, qa == 0, where=zero)


@functools.lru_cache(maxsize=None)
def _hankel_coefficients() -> np.ndarray:
    # (-1)^j a_{2j}(nu) and (-1)^j a_{2j+1}(nu) of DLMF 10.17.1 for nu = 0, 1
    # and j = 8 .. 0, shape (9, 2 [P, Q], 2 [nu]): Horner's order in 1/x^2.
    # 18 terms: at |x| >= 30 the last one is below 4e-18 of the leading term
    nu, a = np.array([0.0, 1.0]), np.ones((18, 2))
    for k in range(1, 18):
        a[k] = a[k - 1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
    a *= np.array([1.0, 1.0, -1.0, -1.0])[np.arange(18) % 4, None]
    a = a.reshape(9, 2, 2)[::-1].copy()
    a.flags.writeable = False
    return a


def _hankel_rows(tops, x, qa, j) -> None:
    """J at the orders ``qa`` (as in ``_by_order``) at the points of the 1-d
    array ``x``, which have Re x > 0 and |x| >= max(30, 2 tops) and come
    highest order first, into ``j``, 0 above each point's highest order.

    J_0 and J_1 come from Hankel's expansion (DLMF 10.17.3),
    J_nu = sqrt(2/(pi x)) (P_nu cos w - Q_nu sin w) with w = x - nu pi/2 - pi/4,
    cos w and sin w from cos x and sin x; forward recurrence stores J_k into
    the requests of order k, on the prefix of the points with an order k.
    On the real axis it is stable while the order stays below |x|/2; off it,
    the Hankel function that J does not follow grows against J by about
    exp(n^2 |Im x| / (2 |x|^2)) over n steps, below e^2 here.
    """
    top = int(tops[0])
    index, lo = _by_order(qa, top)
    vals = j if len(index) == 1 else np.empty(len(index[0]), dtype=x.dtype)
    w = 1.0 / (x * x)
    pq = np.zeros((2, 2, x.size), dtype=x.dtype)
    for coef in _hankel_coefficients():  # Horner in 1/x^2
        pq *= w
        pq += coef[..., None]
    (p0, p1), (q0, q1) = pq
    q0 /= x
    q1 /= x
    c, s = np.cos(x), np.sin(x)
    cw, sw = math.sqrt(0.5) * (c + s), math.sqrt(0.5) * (s - c)  # cos w, sin w at nu = 0
    amp = np.sqrt(2.0 / (math.pi * x))
    # live[k] points have an order k + 1: a prefix of the points
    live = np.searchsorted(-tops, -np.arange(1, top + 1), side="right")
    inv_x = 2.0 / x
    # J_{k-1} and J_k, formed on the points with an order k; J_1 at w - pi/2
    h_prev, h = amp * (p0 * cw - q0 * sw), amp * (p1 * sw + q1 * cw)
    _store(vals, h_prev, index, slice(lo[0], lo[1]))
    for k in range(1, top + 1):
        _store(vals, h, index, slice(lo[k], lo[k + 1]))
        n = live[k] if k < top else 0
        h_prev[:n] = k * inv_x[:n] * h[:n] - h_prev[:n]
        h, h_prev = h_prev, h
    if vals is not j:
        j[index] = vals
    np.copyto(j, 0.0, where=qa > tops)  # orders above a point's highest


def bessel_j_many(orders, x) -> dict:
    """{n: J_n(x)} for integer orders, negative ones too, from one kernel
    pass; ``x`` is a real scalar or array."""
    x = np.asarray(x, dtype=float)
    q = np.array([int(n) for n in orders])
    v = bessel_j_orders(int(np.abs(q).max()), x, q.reshape((-1,) + (1,) * x.ndim))
    return {n: row[()] for n, row in zip(q.tolist(), v)}


def bessel_j_complex_many(n_max, z, orders) -> np.ndarray:
    """``bessel_j_orders`` at complex points ``z``: the rotation backend for
    modified Bessel functions at complex argument, I_n(z) = i^{-n} J_n(iz)."""
    return bessel_j_orders(n_max, np.asarray(z, dtype=np.complex128), orders)


# ----------------------------------------------------------------------
# Modified Bessel I, log-scaled
# ----------------------------------------------------------------------

def _log(x) -> np.ndarray:
    """libm's log point by point, in x's shape: numpy's own log can differ
    from it in the last bit."""
    x = np.asarray(x, dtype=float)
    return np.array([math.log(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _series_i_log(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    # n >= 0, x > 0, 1-d arrays of one length.  All terms positive: no
    # cancellation at any x.  Each point stops on its own rule and rescales
    # its own running sum, so it gets the bits a one-point call gives it:
    # a point stops once its terms fall, with t < 1e-18 acc, so the smaller
    # terms that the loop still adds to it are below half an ulp of acc.
    lt0 = n * _log(0.5 * x) - np.array([math.lgamma(k + 1.0) for k in n.tolist()])
    q = 0.25 * x * x
    t, acc, shift = np.ones_like(x), np.ones_like(x), np.zeros_like(x)
    live = np.ones(x.shape, dtype=bool)
    r = 0
    while live.any():
        r += 1
        t *= q / (r * (n + r))
        acc += t
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
