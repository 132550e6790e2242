r"""Bessel cross products, their zero sequences, and spectrum assembly.

The singular Laplacian attached to the canonical metric on O(m) over the
projective line has eigenvalues lambda^2/4 where lambda runs over the
positive zeros of the cross products

    L_n(z) = -J_n(z) J_{n-m-1}(z) + J_{n+1}(z) J_{n-m}(z)
           = -z^m d/dz ( z^{-m} J_n(z) J_{n-m}(z) ),

with the symmetry L-zero sets Z_n = Z_{m-n} (the modified rotation
G_n(z) = I_{n+1} I_{n-m} + I_n I_{n-m-1} satisfies G_n = G_{m-n}).  Zeros
are simple, avoid the zeros of both J factors, and interlace the merged
zero set of J_n and J_{n-m}: each gap between consecutive merged Bessel
zeros holds exactly one cross-product zero, and so does the gap below the
first one when n >= m + 1.  Those gaps are the root brackets used here.
``zero_sequences`` solves all the (n, m) pairs a caller asks for, across
twist degrees, in one lockstep pass: one kernel pass takes the sign of L_n
at every merged factor zero, one Newton solve on the analytic derivative
of L_n polishes every bracket, and one pass takes the residuals; ``zeros``
and ``spectrum`` are views of it.  Every solved sequence is kept for the
process, keyed by its canonical (n, m) and K, with read-only arrays, so a
batch solves only the pairs no earlier call solved at its K, and
``solve_zero_sequences`` solves the (pairs, K) requests of a whole
workload (``verify.run_suite``) as one such batch.
Cross products take arrays of points, with n and m per point: L_n asks one
kernel pass for its J orders, negative ones too, and log G_n its four I
orders from one ``bessel_i_log`` call.

Bessel zeros themselves are generated internally, by each solve batch for
itself, all orders of a table at once: sign changes of one kernel pass
over a unit grid bracket them, one lockstep solve polishes them and the
interlacing of neighbouring orders certifies them, so the module has no
dependency on tabulated zeros.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import np
from .numerics import BracketError, newton_brackets
from .special import _log, bessel_i_log, bessel_j_orders

__all__ = [
    "SpectralSequence",
    "SpectrumEntry",
    "Spectrum",
    "bessel_j_zeros",
    "cross_L",
    "cross_L_prime",
    "cross_G_log",
    "cross_G_norm_log",
    "small_z_exponent",
    "small_z_coefficient",
    "small_z_log_coefficient",
    "representative",
    "solve_zero_sequences",
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

class SpectralSequence(NamedTuple):
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


class SpectrumEntry(NamedTuple):
    eigenvalue: float
    multiplicity: int
    order: int
    lam: float
    k: int
    residual: float


class Spectrum(NamedTuple):
    """Sorted eigenvalues lambda^2/4 of the singular Laplacian on O(m).

    The zero eigenvalue carries the harmonic multiplicity m + 1 and is
    excluded from all zeta summation.
    """
    m: int
    entries: list
    zero_mode_multiplicity: int


# ----------------------------------------------------------------------
# Bessel zero tables
# ----------------------------------------------------------------------

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
    """First ``count`` zeros of J_n (kind "j") or J_n' ("jp"), n = 0..max(n_top, 7).

    Consecutive zeros of J_n and of J_n' lie more than 3 apart (DLMF
    10.21(vii)), so on a grid of spacing 1 every cell holds at most one zero
    and the k-th sign change of a row brackets its k-th zero.  All brackets
    are polished in one lockstep Newton solve, and the table is certified
    by interlacing across orders: j_{n-1,k} < j_{n,k} < j_{n-1,k+1}, and for
    the derivative zeros (J_0' = -J_1) j'_{1,k} < j'_{0,k} < j'_{1,k+1}, so
    no table is certified across a single order.  Every zero depends only
    on its own bracket cell and kernel pass: tables of any size agree where
    they overlap.
    """
    n_top = max(n_top, 7)
    x_max = math.pi * (count + 0.5 * n_top + 1.0)
    while True:
        grid = np.arange(1.0, math.ceil(x_max) + 1.0)
        j = bessel_j_orders(n_top + 1, grid, np.arange(n_top + 2)[:, None])
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


def bessel_j_zeros(order: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_order (J_{-n} has the same zeros)."""
    return _build_zero_table("j", abs(order), count)[abs(order)]


# ----------------------------------------------------------------------
# Cross products
# ----------------------------------------------------------------------

def _j_and_prime(bases, count, top, x):
    """[(J_k(x), J_k'(x)) for k = b .. b + count - 1, for each b in ``bases``]
    from one kernel pass, J_k' = (J_{k-1} - J_{k+1})/2, negative orders
    included.  x is a scalar or an array; each base order b and ``top``, each
    point's highest order, are integers or integer arrays broadcast against
    x, so a point's values never depend on the other points of the call."""
    x, top, *bases = np.broadcast_arrays(np.asarray(x, dtype=float), top, *bases)
    # each base b asks for its orders b - 1 .. b + count
    steps = np.arange(-1, count + 1).reshape((-1,) + (1,) * x.ndim)
    J = [row[()] for row in bessel_j_orders(top, x, np.concatenate([steps + b for b in bases]))]
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


def cross_G_log(n, m: int, x):
    """log G_n(x), G_n = I_{n+1} I_{n-m} + I_n I_{n-m-1}, at x > 0 (scalar or
    array); the order n is an integer or an integer array broadcast against
    x.  Every factor is positive for integer order: the four orders come from
    one ``bessel_i_log`` call, the two products add in log space."""
    n, x = np.broadcast_arrays(np.asarray(n), np.asarray(x, dtype=float))
    a, b, c, d = bessel_i_log(np.stack([n + 1, n - m, n, n - m - 1]), x)
    return np.logaddexp(a + b, c + d)


def small_z_exponent(n: int, m: int) -> int:
    """Exponent e with G_n(z) ~ l z^e as z -> 0."""
    n = representative(n, m)
    if n >= m + 1:
        return 2 * n - m - 1
    return m + 1


def small_z_coefficient(n: int, m: int) -> Fraction:
    """Leading coefficient l of G_n(z) = l z^e + o(z^e), exact."""
    n = representative(n, m)
    if n >= m + 1:
        return Fraction(1, 2 ** (2 * n - m - 1)
                        * math.factorial(n) * math.factorial(n - m - 1))
    num = Fraction(m + 2)
    return num / (2 ** (m + 1) * math.factorial(n + 1) * math.factorial(m + 1 - n))


def small_z_log_coefficient(n: int, m: int) -> float:
    """log l, taken as log(numerator) - log(denominator) of the exact l:
    l itself underflows a float from about m = 170 on."""
    l = small_z_coefficient(n, m)
    return math.log(l.numerator) - math.log(l.denominator)


def cross_G_norm_log(n, m: int, x):
    """log of G_n(x) / (l x^e): the normalized product prod (1 + x^2/lambda_k^2);
    n as for ``cross_G_log``, each order with its own l and e (int(k): the
    factorials of l overflow numpy's int64).

    Minus this function has the asymptotic profile whose (a, b) encode
    zeta(0) and zeta'(0) of the zero sequence.
    """
    log_l = np.vectorize(lambda k: small_z_log_coefficient(int(k), m))(n)
    e = np.vectorize(lambda k: small_z_exponent(int(k), m))(n)
    return cross_G_log(n, m, x) - log_l - e * _log(x)


# ----------------------------------------------------------------------
# Zero sequences of L_n
# ----------------------------------------------------------------------

def representative(n: int, m: int) -> int:
    """max(n, m - n): the order that stands for the symmetry class {n, m - n}
    of L_n, whose members share their zeros and profiles."""
    return max(n, m - n)


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


# (n, m, K), n canonical -> SpectralSequence, arrays read-only
_SEQUENCES: dict = {}


def solve_zero_sequences(requests) -> list:
    """``zero_sequences(pairs, K)`` for every (pairs, K) of ``requests``, with
    every sequence that the memo lacks solved in one ``_solve_sequences``
    batch.  A caller that knows its whole workload (``verify.run_suite``)
    calls this first; its later ``zero_sequences`` calls read the memo."""
    if any(K < 1 for _, K in requests):
        raise ValueError("K must be >= 1")
    keys = [[(representative(n, m), m, K) for n, m in pairs] for pairs, K in requests]
    if any(m < 0 for row in keys for _, m, _ in row):
        raise ValueError("twist degree m must be >= 0")
    missing = [key for key in dict.fromkeys(k for row in keys for k in row)
               if key not in _SEQUENCES]
    if missing:
        _solve_sequences(missing)
    return [[_SEQUENCES[key] for key in row] for row in keys]


def zero_sequences(pairs, K: int) -> list:
    """First K positive zeros of L_n (twist degree m) for every (n, m) in ``pairs``.

    The factorized cases (m = 0, where L_n = -2 J_n J_n', and the middle
    order n = m/2 for even m, where L reduces to +-2 J_{m/2} J_{m/2+1})
    read their zeros off the Bessel zero tables.  Otherwise the merged zeros
    d_1 < d_2 < ... of the two J factors bracket the roots, one per gap
    (Dirichlet bracketing: a Dirichlet condition at |z| = 1 splits each
    angular mode into two pieces whose Dirichlet eigenvalues are the d_k,
    and min-max interlaces them with the zeros of L_n): (0, d_1) first when
    n >= m + 1, where L_n has the sign of its small-z term
    -(x/2)^{2n-m-1} / (n! (n-m-1)!) < 0, then (d_k, d_{k+1}).  A gap whose
    ends have the same sign raises BracketError naming its order, so the
    count is certified.  A value depends only on its own (n, m) and K, so a
    batch equals one-pair calls bit for bit, and every sequence is solved
    once per process: the memo returns the same object for the same (n, m)
    and K, and the pairs of one symmetry class {n, m - n} share the one
    solved for max(n, m - n).
    """
    return solve_zero_sequences([(pairs, K)])[0]


def _segments(arrays):
    """(the concatenated ``arrays``, the index of the array of each element)."""
    return np.concatenate(arrays), np.repeat(np.arange(len(arrays)), [len(a) for a in arrays])


def _solve_sequences(keys) -> None:
    """Solve the canonical (n, m, K) ``keys`` in one batch, into the memo.

    The batch builds one J and (for m = 0) one J' zero table, each to the
    largest order and count that it reads: K + 1 zeros of each factor
    family, merged per pair into d_1 < d_2 < ....  One kernel pass
    takes the sign of L at every generic pair's d_1 .. d_{K+1}, one
    lockstep Newton solve on the analytic L_n' polishes every bracket, and
    one pass takes |L_n| at the zeros and at the midpoints between them.
    """
    need = {}
    for n, m, K in keys:
        for kind, order in _factor_families(n, m):
            top, have = need.get(kind, (0, 0))
            need[kind] = max(top, abs(order)), max(have, K + 1)
    tables = {kind: _build_zero_table(kind, *size) for kind, size in need.items()}
    lam, generic, ends = {}, [], []
    for n, m, K in keys:
        d = np.sort(np.concatenate([tables[kind][abs(order), :K + 1]
                                    for kind, order in _factor_families(n, m)]))[:K + 1]
        if _factorized(n, m):
            lam[n, m, K] = d[:K]
        else:
            generic.append((n, m, K))
            ends.append(np.concatenate([[0.0], d]))
    if generic:
        gn, gm, gk = np.array(generic).T
        x, owner = _segments(ends)
        # every end but the 0 in front of each pair's d_1 .. d_{K+1} takes the
        # sign of L there; the 0 takes the sign of the small-z term, -1
        sign = np.full(x.shape, -1.0)
        at = x > 0.0
        sign[at] = np.sign(cross_L(gn[owner[at]], gm[owner[at]], x[at]))
        # the brackets of n >= m + 1 start at (0, d_1), the others at (d_1, d_2)
        first = np.cumsum(gk + 2) - (gk + 2) + (gn <= gm)
        lo = np.concatenate([np.arange(f, f + k) for f, k in zip(first, gk)])
        bad = np.flatnonzero(sign[lo] * sign[lo + 1] >= 0.0)  # signs: no underflow
        if bad.size:
            i = lo[bad[0]]
            raise BracketError(
                f"no sign change of L_{gn[owner[i]]} (m={gm[owner[i]]}) in factor-zero gap "
                f"({x[i]:.6f}, {x[i + 1]:.6f})")
        bn, bm = gn[owner[lo]], gm[owner[lo]]

        def fdf(z, idx):  # zeros are simple: L = 0 with L' subnormal is an underflow
            f, df = _cross_L_pair(bn[idx], bm[idx], z)
            flat = (f == 0.0) & (np.abs(df) < np.finfo(float).tiny)
            if flat.any():
                i = np.argmax(flat)
                raise BracketError(f"L_{bn[idx[i]]} (m={bm[idx[i]]}) underflows to 0 at "
                                   f"x = {z[i]:.6f}")
            return f, df

        root = newton_brackets(fdf, x[lo], x[lo + 1], sign[lo] < 0.0, tol=1e-12)
        lam.update(zip(generic, np.split(root, np.cumsum(gk)[:-1])))

    # residuals at the zeros and local scales at the midpoints, one pass
    pts = []
    for n, m, K in keys:
        z = lam[n, m, K]
        step = z[-1] - z[-2] if K > 1 else 1.0
        ext = np.concatenate([z[:1] * 0.5, z, z[-1:] + step])
        pts.append(np.concatenate([z, 0.5 * (ext[:-1] + ext[1:])]))
    x, owner = _segments(pts)
    kn, km, kk = np.array(keys).T
    at = np.split(np.abs(cross_L(kn[owner], km[owner], x)), np.cumsum(2 * kk + 1)[:-1])
    for (n, m, K), a in zip(keys, at):
        seq = SpectralSequence(n, m, lam[n, m, K], a[:K], np.maximum(a[K:-1], a[K + 1:]))
        for arr in (seq.zeros, seq.residuals, seq.local_scales):
            arr.flags.writeable = False
        _SEQUENCES[n, m, K] = seq


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
