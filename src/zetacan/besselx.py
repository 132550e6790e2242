r"""Bessel cross products, their zero sequences, and spectrum assembly.

The singular Laplacian attached to the canonical metric on O(m) over the
projective line has eigenvalues lambda^2/4 where lambda runs over the
positive zeros of the cross products

    L_n(z) = -J_n(z) J_{n-m-1}(z) + J_{n+1}(z) J_{n-m}(z)
           = -z^m d/dz ( z^{-m} J_n(z) J_{n-m}(z) ),

with the symmetry L-zero sets Z_n = Z_{m-n} (the modified rotation
G_n(z) = I_{n+1} I_{n-m} + I_n I_{n-m-1} satisfies G_n = G_{m-n}).  Zeros
are simple, avoid the zeros of both J factors, and interlace the merged
zero set of J_n and J_{n-m}: between consecutive cross-product zeros lies
exactly one merged Bessel zero.  That interlacing supplies the root
brackets used here: every gap is fine-scanned, so a missed sign change
cannot silently drop a zero.  ``zero_sequences`` solves all the (n, m)
pairs a caller asks for, across twist degrees, in one lockstep pass: one
kernel pass probes every pair's gaps, one Newton solve on the analytic
derivative of L_n polishes every bracket, and one pass takes the residuals;
``zeros`` and ``spectrum`` are views of it.  Every solved sequence is kept
for the process, keyed by its canonical (n, m) and K, with read-only
arrays, so a batch solves only the pairs no earlier call solved at its K.
Cross products take arrays of points, with n and m per point: L_n reads
its J orders, negative ones too, from one kernel table, and log G_n its
four I orders from one ``bessel_i_log`` call.

Bessel zeros themselves are generated internally, all orders of a table at
once: sign changes of one kernel pass over a unit grid bracket them, one
lockstep solve polishes them and the interlacing of neighbouring orders
certifies them, so the module has no dependency on tabulated zeros.
``size_zero_tables`` sizes the J and J' tables once for a list of
(pairs, K) solves: ``zero_sequences`` calls it for its own batch, and a
caller that knows its whole workload (``verify.run_suite``) calls it first,
so that each table is built once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import BracketError, newton_brackets
from .special import _j_signed, _log, bessel_i_log, bessel_j_orders

__all__ = [
    "SpectralSequence",
    "SpectrumEntry",
    "Spectrum",
    "bessel_j_zeros",
    "size_zero_tables",
    "cross_L",
    "cross_L_prime",
    "cross_G_log",
    "cross_G_norm_log",
    "small_z_exponent",
    "small_z_coefficient",
    "zero_sequences",
    "zeros",
    "taylor_sum_rule_exact",
    "canonical_orders",
    "spectrum",
    "eigen_norm_check",
]


# ----------------------------------------------------------------------
# Containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSequence:
    """Ordered positive zeros of one cross product L_n (twist degree m, n the
    representative max(n, m - n) of its symmetry class), with |L_n| at each
    zero and the local scale of |L_n| (its larger value at the two
    neighbouring midpoints) that the residual is judged against.  Sequences
    are shared from the per-process memo of ``zero_sequences``: the arrays
    are read-only."""
    n: int
    m: int
    zeros: np.ndarray
    residuals: np.ndarray
    local_scales: np.ndarray


@dataclass(frozen=True)
class SpectrumEntry:
    eigenvalue: float
    multiplicity: int
    order: int
    lam: float
    k: int
    residual: float


@dataclass
class Spectrum:
    """Sorted eigenvalues lambda^2/4 of the singular Laplacian on O(m).

    The zero eigenvalue carries the harmonic multiplicity m + 1 and is
    excluded from all zeta summation.
    """
    m: int
    entries: list
    zero_mode_multiplicity: int


# ----------------------------------------------------------------------
# Bessel zero tables (internal, cached)
# ----------------------------------------------------------------------

_ZERO_TABLES: dict = {}  # "j" / "jp" -> (orders, count) array of zeros


def _j_pair(kind: str, n: np.ndarray, x: np.ndarray):
    """f and f' for f = J_n (kind "j") or f = J_n' (kind "jp"), order n per point.

    J_n' = (J_{n-1} - J_{n+1}) / 2 and J_n'' = -J_n'/x - (1 - n^2/x^2) J_n
    (Bessel's equation); each point's kernel pass stops at its own order n + 1.
    """
    (jn, d), = _j_and_prime((n,), 1, n + 1, x)
    if kind == "j":
        return jn, d
    return d, -d / x - (1.0 - (n / x) ** 2) * jn


def _interlaced(lower: np.ndarray, upper: np.ndarray) -> bool:
    """lower_k < upper_k < lower_{k+1} for every k (rows compared elementwise)."""
    return bool(np.all(lower < upper) and np.all(upper[..., :-1] < lower[..., 1:]))


def _build_zero_table(kind: str, n_top: int, count: int) -> np.ndarray:
    """First ``count`` zeros of J_n (kind "j") or J_n' ("jp"), n = 0..n_top.

    Consecutive zeros of J_n and of J_n' lie more than 3 apart (DLMF
    10.21(vii)), so on a grid of spacing 1 every cell holds at most one zero
    and the k-th sign change of a row brackets its k-th zero.  All brackets
    are polished in one lockstep Newton solve, and the table is certified
    by interlacing across orders: j_{n-1,k} < j_{n,k} < j_{n-1,k+1}, and for
    the derivative zeros (J_0' = -J_1) j'_{1,k} < j'_{0,k} < j'_{1,k+1}.
    """
    x_max = math.pi * (count + 0.5 * n_top + 1.0)
    while True:
        grid = np.arange(1.0, math.ceil(x_max) + 1.0)
        j = bessel_j_orders(n_top + 1, grid)
        if kind == "j":
            vals = j[:-1]
        else:
            vals = 0.5 * (np.concatenate([-j[1:2], j[:-2]]) - j[1:])
        nonneg = vals >= 0.0  # J_n underflows to +0 near the origin
        change = nonneg[:, :-1] != nonneg[:, 1:]
        if np.all(change.sum(axis=1) >= count):
            break
        x_max *= 1.5
    rows, cols = np.nonzero(change & (np.cumsum(change, axis=1) <= count))
    lam = newton_brackets(lambda x, idx: _j_pair(kind, rows[idx], x),
                          grid[cols], grid[cols + 1], ~nonneg[rows, cols], tol=1e-13)
    table = lam.reshape(n_top + 1, count)
    ok = (_interlaced(table[:-1], table[1:]) if kind == "j" else
          _interlaced(table[1:-1], table[2:]) and _interlaced(table[1], table[0]))
    if not ok:
        name = "J_n" if kind == "j" else "J_n'"
        raise BracketError(f"zeros of {name}, n <= {n_top}, fail the interlacing check")
    return table


def _zero_table(kind: str, order: int, count: int) -> np.ndarray:
    """Zeros 1..count of J_|order| or J_|order|', from the cached table.

    The first request builds the table to its own order (8 rows at least)
    and count, all that a one-shot caller such as ``spectrum`` needs.  A
    later request beyond the table rebuilds it once, to the largest order
    and count asked for so far, each rounded up to a size class (a multiple
    of 16), so that callers walking orders and counts upward rebuild it a
    few times, not once per step.  Every zero depends only on its own
    bracket cell and its own kernel pass, so the values depend neither on
    the size of the table nor on the order of the requests.
    """
    order = abs(order)
    table = _ZERO_TABLES.get(kind)
    if table is None:
        table = _ZERO_TABLES[kind] = _build_zero_table(kind, max(order, 7), count)
    rows, have = table.shape
    if order >= rows or count > have:
        rows = -(-max(order + 1, rows) // 16) * 16
        have = -(-max(count, have) // 16) * 16
        table = _ZERO_TABLES[kind] = _build_zero_table(kind, rows - 1, have)
    return table[order, :count].copy()


def bessel_j_zeros(order: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_order (J_{-n} has the same zeros)."""
    return _zero_table("j", order, count)


# ----------------------------------------------------------------------
# Cross products
# ----------------------------------------------------------------------

def _j_and_prime(bases, count, top, x):
    """[(J_k(x), J_k'(x)) for k = b .. b + count - 1, for each b in ``bases``]
    from one kernel pass and one gather, J_k' = (J_{k-1} - J_{k+1})/2,
    negative orders included.  x is a scalar or an array; each base order b
    and ``top``, the highest order a point needs, are integers or integer
    arrays broadcast against x.  A point's pass stops at its own top, so its
    values never depend on the other points of the call."""
    x, top, *bases = np.broadcast_arrays(np.asarray(x, dtype=float), top, *bases)
    j = bessel_j_orders(top.ravel(), x.ravel())
    # each base b reads its orders b - 1 .. b + count
    q = np.concatenate([np.arange(-1, count + 1)[:, None] + b.ravel() for b in bases])
    J = [row[()] for row in _j_signed(j, q, np.arange(x.size)).reshape((-1,) + x.shape)]
    return [(J[i], 0.5 * (J[i - 1] - J[i + 1]))
            for r in range(0, len(J), count + 2) for i in range(r + 1, r + count + 1)]


def _cross_L_pair(n, m, x):
    """(L_n, dL_n/dx) at x (scalar or array) from one kernel pass; the order
    n and twist degree m are integers or integer arrays broadcast against x."""
    n, m = np.asarray(n), np.asarray(m)
    (a, da), (c, dc), (b, db), (d, dd) = _j_and_prime(
        (n, n - m - 1), 2, np.maximum(n + 2, np.abs(n - m - 2)), x)
    return -a * b + c * d, -da * b - a * db + dc * d + c * dd


def cross_L(n, m, x):
    """L_n(x) = -J_n J_{n-m-1} + J_{n+1} J_{n-m} at x (scalar or array); n
    and m are integers or integer arrays broadcast against x."""
    return _cross_L_pair(n, m, x)[0]


def cross_L_prime(n, m, x):
    """dL_n/dx at x, from the analytic J derivatives; arguments as for
    ``cross_L``."""
    return _cross_L_pair(n, m, x)[1]


def cross_G_log(n: int, m: int, x):
    """log G_n(x), G_n = I_{n+1} I_{n-m} + I_n I_{n-m-1}, at x > 0 (scalar or
    array).  Every factor is positive for integer order: the four orders
    come from one ``bessel_i_log`` call, the two products add in log space."""
    x = np.asarray(x, dtype=float)
    a, b, c, d = bessel_i_log(np.reshape([n + 1, n - m, n, n - m - 1], (4,) + (1,) * x.ndim), x)
    return np.logaddexp(a + b, c + d)


def small_z_exponent(n: int, m: int) -> int:
    """Exponent e with G_n(z) ~ l z^e as z -> 0."""
    n = max(n, m - n)
    if n >= m + 1:
        return 2 * n - m - 1
    return m + 1


def small_z_coefficient(n: int, m: int) -> Fraction:
    """Leading coefficient l of G_n(z) = l z^e + o(z^e), exact."""
    n = max(n, m - n)
    if n >= m + 1:
        return Fraction(1, 2 ** (2 * n - m - 1)
                        * math.factorial(n) * math.factorial(n - m - 1))
    num = Fraction(m + 2)
    return num / (2 ** (m + 1) * math.factorial(n + 1) * math.factorial(m + 1 - n))


def cross_G_norm_log(n: int, m: int, x):
    """log of G_n(x) / (l x^e): the normalized product prod (1 + x^2/lambda_k^2).

    Minus this function has the asymptotic profile whose (a, b) encode
    zeta(0) and zeta'(0) of the zero sequence.
    """
    e = small_z_exponent(n, m)
    l = small_z_coefficient(n, m)
    return cross_G_log(n, m, x) - math.log(float(l)) - e * _log(x)


# ----------------------------------------------------------------------
# Zero sequences of L_n
# ----------------------------------------------------------------------

def _factorized(nu: int, m: int) -> bool:
    """True when L_nu is a product of two J factors: m = 0 or 2 nu = m."""
    return m == 0 or 2 * nu == m


def _factor_families(nu: int, m: int):
    """(kind, order) of the two J zero families that make up L_nu's zeros when
    it factorizes (m = 0, or 2 nu = m), else whose merge interlaces them."""
    if m == 0:
        return ("j", nu), ("jp", nu)
    if 2 * nu == m:
        return ("j", nu), ("j", nu + 1)
    return ("j", nu), ("j", nu - m)


def _merged_factor_zeros(nu: int, m: int, count: int) -> np.ndarray:
    return np.sort(np.concatenate([_zero_table(kind, order, count)
                                   for kind, order in _factor_families(nu, m)]))


def _sign_brackets(xs: np.ndarray, vals: np.ndarray):
    """(row, lo, hi, f(lo) < 0) of every sign change along the probe rows.

    A probe that lands on a zero (or where L underflowed near the origin)
    counts only when its two neighbours have opposite signs, as lo == hi.
    """
    a, b = vals[:, :-1], vals[:, 1:]
    on_zero = np.zeros(a.shape, dtype=bool)
    on_zero[:, 1:] = (a[:, 1:] == 0.0) & (vals[:, :-2] * vals[:, 2:] < 0.0)
    rows, cols = np.nonzero(on_zero | ((a != 0.0) & (a * b < 0.0)))
    lo = xs[rows, cols]
    hi = np.where(on_zero[rows, cols], lo, xs[rows, cols + 1])
    return rows, lo, hi, a[rows, cols] < 0.0


def size_zero_tables(requests) -> None:
    """Size the J and J' zero tables once for the (pairs, K) ``requests``.

    Each table grows to the largest order and count the requests read of
    it: K zeros of both factor families of a factorized pair (m = 0, or
    2 n = m), K + 2 of a generic pair's, whose scan reads the factor zeros
    up to the gap above its K-th zero.  A table that already covers them is
    not touched.
    """
    need = {}
    for pairs, K in requests:
        for n, m in pairs:
            count = K if _factorized(n, m) else K + 2
            for kind, order in _factor_families(n, m):
                top, have = need.get(kind, (0, 0))
                need[kind] = max(top, abs(order)), max(have, count)
    for kind, (order, count) in need.items():
        _zero_table(kind, order, count)


# (n, m, K), n canonical -> SpectralSequence, arrays read-only
_SEQUENCES: dict = {}


def zero_sequences(pairs, K: int) -> list:
    """First K positive zeros of L_n (twist degree m) for every (n, m) in ``pairs``.

    The factorized cases (m = 0, where L_n = -2 J_n J_n', and the middle
    order n = m/2 for even m, where L reduces to +-2 J_{m/2} J_{m/2+1})
    read their zeros off the Bessel zero tables.  Otherwise the merged zeros
    of the two J factors bracket the roots: 33 probes scan the gap below the
    smallest factor zero and 13 each following gap, and an empty gap raises
    BracketError naming its order, so the count is certified.  A batch may
    mix twist degrees: ``size_zero_tables`` sizes each zero table once for
    it, one kernel pass probes all pairs, one lockstep Newton solve on the
    analytic L_n' polishes all brackets and one pass takes the residuals.
    A value depends only on its own (n, m) and K, so a batch equals one-pair
    calls bit for bit, and every sequence is solved once per process: the
    memo returns the same object for the same (n, m) and K, and the pairs
    of one symmetry class {n, m - n} share the one solved for max(n, m - n).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    keys = [(max(n, m - n), m) for n, m in pairs]
    if any(m < 0 for _, m in keys):
        raise ValueError("twist degree m must be >= 0")
    missing = [key for key in dict.fromkeys(keys) if key + (K,) not in _SEQUENCES]
    if missing:
        _solve_sequences(missing, K)
    return [_SEQUENCES[(*key, K)] for key in keys]


def _solve_sequences(keys, K: int) -> None:
    """Solve the canonical (n, m) ``keys`` at K in one batch, into the memo."""
    size_zero_tables([(keys, K)])
    generic = [key for key in keys if not _factorized(*key)]
    lam = {key: _merged_factor_zeros(*key, K)[:K] for key in keys if key not in generic}
    if generic:
        gn, gm = np.array(generic).T
        grid = np.array([_merged_factor_zeros(nu, m, K + 2) for nu, m in generic])
        first = np.linspace(0.05 * grid[:, 0], grid[:, 0] * (1 - 1e-12), 33, axis=1)
        gaps = np.linspace(grid[:, :K] * (1 + 1e-13), grid[:, 1:K + 1] * (1 - 1e-13), 13,
                           axis=2).reshape(-1, 13)
        vals = cross_L(gn[:, None], gm[:, None],
                       np.hstack([first, gaps.reshape(len(generic), -1)]))
        rows_below, *below = _sign_brackets(first, vals[:, :33])
        rows, *inside = _sign_brackets(gaps, vals[:, 33:].reshape(-1, 13))
        # each pair takes its gaps in order until K zeros are bracketed
        per_gap = np.bincount(rows, minlength=gaps.shape[0]).reshape(-1, K)
        n_below = np.bincount(rows_below, minlength=len(generic))[:, None]
        scanned = n_below + np.cumsum(per_gap, axis=1) - per_gap < K
        empty = np.argwhere(scanned & (per_gap == 0))
        if empty.size:
            o, i = empty[0]
            raise BracketError(
                f"no sign change of L_{gn[o]} (m={gm[o]}) in factor-zero gap "
                f"({grid[o, i]:.6f}, {grid[o, i + 1]:.6f})")
        keep = scanned.ravel()[rows]
        owner = np.concatenate([rows_below, rows[keep] // K])  # index into generic
        lo, hi, rising = (np.concatenate([u, v[keep]]) for u, v in zip(below, inside))
        root = lo.copy()  # a probe that landed on a zero is that zero
        solve = np.flatnonzero(lo < hi)
        on, om = gn[owner[solve]], gm[owner[solve]]
        root[solve] = newton_brackets(lambda x, idx: _cross_L_pair(on[idx], om[idx], x),
                                      lo[solve], hi[solve], rising[solve], tol=1e-12)
        lam.update((key, np.sort(root[owner == i])[:K]) for i, key in enumerate(generic))

    # residuals at the zeros and local scales at the midpoints, one pass
    z = np.array([lam[key] for key in keys])
    step = z[:, -1:] - z[:, -2:-1] if K > 1 else 1.0
    ext = np.hstack([z[:, :1] * 0.5, z, z[:, -1:] + step])
    mids = 0.5 * (ext[:, :-1] + ext[:, 1:])
    kn, km = np.array(keys).T
    at = np.abs(cross_L(kn[:, None], km[:, None], np.hstack([z, mids])))
    scales = np.maximum(at[:, K:-1], at[:, K + 1:])
    for a in (z, at, scales):
        a.flags.writeable = False
    for i, key in enumerate(keys):
        _SEQUENCES[(*key, K)] = SpectralSequence(*key, z[i], at[i, :K], scales[i])


def zeros(n: int, m: int, K: int) -> SpectralSequence:
    """First K positive zeros of L_n: ``zero_sequences`` for one pair."""
    return zero_sequences([(n, m)], K)[0]


# ----------------------------------------------------------------------
# Taylor-coefficient sum rules
# ----------------------------------------------------------------------

def _i_product(a: int, b: int, p: int) -> Fraction:
    """Coefficient of z^p in I_a(z) I_b(z), orders a, b >= 0, exact:
    (a+b+k+1)_k / (2^p k! (a+k)! (b+k)!) with p = a + b + 2k (DLMF 10.8.3
    at iz), 0 below the leading power."""
    k = (p - a - b) // 2
    if k < 0:
        return Fraction(0)
    return Fraction(math.prod(range(a + b + k + 1, a + b + 2 * k + 1)),
                    2 ** p * math.factorial(k) * math.factorial(a + k) * math.factorial(b + k))


@functools.lru_cache(maxsize=None)
def _power_sums(nu: int, m: int):
    """(sum lambda^-2, sum lambda^-4) of L_nu, from the first three Taylor
    coefficients of G_nu = I_{nu+1} I_{nu-m} + I_nu I_{nu-m-1}, with
    I_{-k} = I_k.  Both products have powers of the parity of m + 1."""
    terms = ((abs(nu + 1), abs(nu - m)), (abs(nu), abs(nu - m - 1)))
    e = min(a + b for a, b in terms)
    l, g1, g2 = (sum(_i_product(a, b, e + 2 * j) for a, b in terms) for j in range(3))
    e1 = g1 / l
    return e1, e1 * e1 - 2 * g2 / l


def taylor_sum_rule_exact(n: int, m: int, power: int = 2) -> Fraction:
    """sum_k lambda_k^{-power} (power 2 or 4) over the zeros of L_n, from
    Taylor coefficients, exact.

    With G_n(z) = l z^e (1 + (g1/l) z^2 + (g2/l) z^4 + ...) and the
    factorization over +- i lambda_k, Newton's identities give
    sum 1/lambda^2 = g1/l and sum 1/lambda^4 = (g1/l)^2 - 2 g2/l.
    G_n = G_{m-n} term by term, so both orders of a symmetry class give the
    same value.
    """
    if power not in (2, 4) or m < 0:
        raise ValueError("require power 2 or 4 and twist degree m >= 0")
    return _power_sums(n, m)[power // 2 - 1]


# ----------------------------------------------------------------------
# Spectrum assembly
# ----------------------------------------------------------------------

def canonical_orders(m: int, count: int):
    """First ``count`` canonical orders with their multiplicities.

    Even m: orders 0..m/2-1 carry multiplicity 2, the self-symmetric order
    m/2 carries 1, and every order >= m+1 carries 2.  Odd m: orders
    0..(m-1)/2 and >= m+1 all carry 2 (each low eigenvalue is shared by the
    symmetric pair Z_n = Z_{m-n}).  m = 0 reduces to multiplicity 1 at
    order 0 and 2 above, matching the trivial-bundle spectrum.
    """
    out = []
    if m % 2 == 0:
        out.extend((nu, 2) for nu in range(0, m // 2))
        out.append((m // 2, 1))
    else:
        out.extend((nu, 2) for nu in range(0, (m - 1) // 2 + 1))
    nu = m + 1
    while len(out) < count:
        out.append((nu, 2))
        nu += 1
    return out[:count]


def spectrum(m: int, n_orders: int, K: int) -> Spectrum:
    """Eigenvalues lambda^2/4 from the first ``n_orders`` canonical orders,
    K zeros each, sorted ascending with multiplicities; the sort is stable,
    so ties keep order-then-k order."""
    if m < 0 or n_orders < 1 or K < 1:
        raise ValueError("require m >= 0 and n_orders, K >= 1")
    entries = []
    orders = canonical_orders(m, n_orders)
    for (nu, mult), seq in zip(orders, zero_sequences([(nu, m) for nu, _ in orders], K)):
        for k, lam in enumerate(seq.zeros, start=1):
            entries.append(SpectrumEntry(
                eigenvalue=float(lam) ** 2 / 4.0, multiplicity=mult,
                order=nu, lam=float(lam), k=k, residual=float(seq.residuals[k - 1])))
    entries.sort(key=lambda e: e.eigenvalue)
    return Spectrum(m=m, entries=entries, zero_mode_multiplicity=m + 1)


# ----------------------------------------------------------------------
# Eigenfunction norm identity
# ----------------------------------------------------------------------

def eigen_norm_check(nu, m, lam):
    """Both sides of  L_nu'(lambda) = 2 (J_{nu-m}/J_nu)(lambda) * I(lambda).

    I is the closed-form squared norm of the radial eigenfunction, J_nu(lam r)
    on r <= 1 and (J_nu(lam)/J_{nu-m}(lam)) r^m J_{nu-m}(lam/r) beyond,
    against the weight r dr / max(1, r)^{2m+4} (the r^m growth cancels):

        I = (1/2) (J_nu'^2 + (1 - nu^2/lam^2) J_nu^2)
          + (J_nu^2 / (2 J_{nu-m}^2)) (J_{nu-m}'^2 + (1 - (nu-m)^2/lam^2) J_{nu-m}^2),

    everything evaluated at lambda, a scalar or an array; nu and m are
    integers or integer arrays broadcast against it, so many orders and twist
    degrees go through one call.  Returns (lhs, rhs); at a true simple zero
    of L_nu they agree.
    """
    nu, m, lam = np.asarray(nu), np.asarray(m), np.asarray(lam, dtype=float)
    lhs = cross_L_prime(nu, m, lam)
    (ja, jap), (jb, jbp) = _j_and_prime((nu, nu - m), 1,
                                        np.maximum(np.abs(nu), np.abs(nu - m)) + 1, lam)
    if np.any(ja == 0.0) or np.any(jb == 0.0):
        raise ValueError("cross-product zeros avoid the factor zeros; "
                         "got a vanishing Bessel factor")
    norm = (0.5 * (jap ** 2 + (1.0 - nu ** 2 / lam ** 2) * ja ** 2)
            + ja ** 2 / (2.0 * jb ** 2)
            * (jbp ** 2 + (1.0 - (nu - m) ** 2 / lam ** 2) * jb ** 2))
    rhs = 2.0 * (jb / ja) * norm
    return lhs, rhs
