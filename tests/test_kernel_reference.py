"""The J kernel against a frozen copy of an earlier implementation.

``bessel_j_orders`` writes every recurrence step into preallocated buffers
and rescales only the points whose |f| passes 1e280, with its bounds on |f|
and |f'| reset to their maxima after each rescale.  Neither change may move
a bit: the reference below is the kernel as it was before, with a fresh
array per operation and a rescale screened on the float view, whose bound
on a complex |f| is up to 1.5 times too high, and every real output must
equal it bit for bit, NaN and the sign of zero included.

The reference started every complex point of a row at the index of the
row's largest |z|; the kernel now starts each complex point at its own
index, as real points always did.  So each complex point must equal the
reference run on that point alone, as a one-point row, bit for bit.
"""

import math

import numpy as np
import pytest

from zetacan import special as sp


# ----------------------------------------------------------------------
# Reference: the earlier kernel, frozen
# ----------------------------------------------------------------------

def _ref_miller_start(n_max, xa):
    return np.maximum(n_max, xa) + 12.0 * xa ** (1.0 / 3.0) + 22


def _ref_rescale(k, out, f, fp, *sums):
    if f.ndim == 0:
        if abs(f) > 1e280:
            f, fp, *sums = (a * 1e-280 for a in (f, fp, *sums))
            out[k:] *= 1e-280
        return (f, fp, *sums, abs(f), abs(fp))
    wide = 1.5 if f.dtype.kind == "c" else 1.0
    mag = np.abs(f.reshape(-1).view(np.float64))
    hot = np.flatnonzero(mag > 1e280 / wide)
    if hot.size:
        if wide > 1.0:
            hot >>= 1
            hot = hot[np.abs(f.reshape(-1)[hot]) > 1e280]
        for a in (f, fp, *sums):
            a.reshape(-1)[hot] *= 1e-280
        out.reshape(out.shape[0], -1)[k:, hot] *= 1e-280
        mag = np.abs(f.reshape(-1).view(np.float64))
    return (f, fp, *sums, wide * float(mag.max()),
            wide * float(np.abs(fp.reshape(-1).view(np.float64)).max()))


def _ref_bessel_j_orders(n_max, x):
    x = np.asarray(x)
    cplx = np.iscomplexobj(x)
    x = x.astype(np.complex128 if cplx else np.float64, order="C")
    top = int(np.max(n_max))
    out = np.empty((top + 1,) + x.shape, dtype=x.dtype)
    if x.size == 0:
        return out
    zero = x == 0.0
    if zero.any():
        x = np.where(zero, 1.0, x)
    if cplx:
        rows = np.atleast_1d(x)
        xa = np.maximum(np.max(np.abs(rows), axis=-1, keepdims=True), 1.0)
        tops = np.max(np.broadcast_to(n_max, rows.shape), axis=-1, keepdims=True)
        start = np.broadcast_to(_ref_miller_start(tops, xa).astype(int),
                                rows.shape).reshape(x.shape)
    else:
        start = _ref_miller_start(n_max, np.maximum(np.abs(x), 1.0)).astype(int)
    order = np.argsort(start, axis=None, kind="stable")
    starts, first = np.unique(start.ravel()[order], return_index=True)
    starts, edges, g = starts.tolist(), first.tolist() + [order.size], len(starts) - 1
    f = np.zeros(x.shape, dtype=x.dtype)
    fp = np.zeros(x.shape, dtype=x.dtype)
    neumann = np.zeros(x.shape, dtype=x.dtype)
    cos_norm = np.zeros(x.shape, dtype=x.dtype)
    inv_x = 2.0 / x
    growth = float(np.max(np.abs(inv_x)))
    bound = bound_p = 0.0
    for k in range(starts[-1], -1, -1):
        if g >= 0 and k == starts[g]:
            f.flat[order[edges[g]:edges[g + 1]]] = 1e-30
            bound = max(bound, 1e-30)
            g -= 1
        f, fp = (k + 1) * inv_x * f - fp, f
        bound, bound_p = ((k + 1) * growth * bound + bound_p) * (1.0 + 1e-12), bound
        if k <= top:
            out[k] = f
        if k % 2 == 0:
            w = f if k == 0 else 2.0 * f
            neumann = neumann + w
            if cplx:
                cos_norm = cos_norm + (w if (k // 2) % 2 == 0 else -w)
        if bound > 1e280:
            f, fp, neumann, cos_norm, bound, bound_p = _ref_rescale(
                k, out, f, fp, neumann, cos_norm)
    if cplx:
        use_cos = np.abs(x.imag) > 1.0
        out *= np.where(use_cos, np.cos(x), 1.0 + 0.0j)
        out /= np.where(use_cos, cos_norm, neumann)
    else:
        out /= neumann
    if zero.any():
        out[:, zero] = 0.0
        out[0, zero] = 1.0
    return out


# ----------------------------------------------------------------------
# Bit-for-bit comparison on seeded inputs
# ----------------------------------------------------------------------

def _assert_same_bits(n_max, x):
    got = sp.bessel_j_orders(n_max, x)
    want = _ref_bessel_j_orders(n_max, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_points_take_their_one_point_rows(n_max, z):
    # a reference call on z reshaped to (points, 1) runs every point as its
    # own one-point row (test_reshape_is_one_point_calls checks this)
    z = np.asarray(z)
    got = sp.bessel_j_orders(n_max, z)
    want = _ref_bessel_j_orders(np.broadcast_to(n_max, z.shape).reshape(-1, 1),
                                z.reshape(-1, 1))[..., 0]
    assert got.shape == (want.shape[0],) + z.shape
    assert np.array_equal(_bits(got.reshape(want.shape)), _bits(want))


def _real_points(rng):
    return np.concatenate([rng.uniform(-60.0, 250.0, 120), [0.0, -0.0, -3.5, -120.0],
                           10.0 ** rng.uniform(-6.0, 0.0, 40)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_real_per_point_tops(seed):
    rng = np.random.default_rng(seed)
    x = _real_points(rng)
    _assert_same_bits(rng.integers(0, 70, x.size), x)
    _assert_same_bits(int(rng.integers(0, 70)), x)


@pytest.mark.parametrize("seed", [4, 5])
def test_real_small_x_many_rescales(seed):
    # x < 1 with top 60: the running values pass 1e280 over and over
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-3.0, 0.0, 50)
    _assert_same_bits(60, x)
    _assert_same_bits(np.where(rng.random(x.size) < 0.5, 60, 3), x)


@pytest.mark.parametrize("x", [0.0, 2.5, -7.0, 0.01])
def test_real_scalar_and_2d(x):
    _assert_same_bits(5, x)
    _assert_same_bits(40, np.array([[x, 1.0], [-x, 30.0]]))


@pytest.mark.parametrize("seed", [6, 7])
def test_complex_one_row(seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-40.0, 40.0, 200) + 1j * rng.uniform(-30.0, 30.0, 200)
    z[:3] = [0.0, 2.0, 1j]
    _assert_points_take_their_one_point_rows(25, z)


@pytest.mark.parametrize("z", [0.5 - 0.2j, 3.0 + 4.0j, -10.0 - 0.1j])
def test_complex_scalar_takes_its_one_point_row(z):
    # the reference ran a 0-d complex input through numpy's scalar
    # arithmetic, whose complex products can round apart from the array
    # loops that every array input goes through; the kernel now gives a
    # scalar the bits of its one-point row
    got = sp.bessel_j_orders(3, z)
    want = _ref_bessel_j_orders(3, np.array([z]))[:, 0]
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [8, 9])
def test_complex_rows_with_own_tops(seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-20.0, 20.0, (5, 60)) + 1j * rng.uniform(-8.0, 8.0, (5, 60))
    _assert_points_take_their_one_point_rows(rng.integers(0, 50, (5, 1)), z)


def test_reshape_is_one_point_calls():
    # a (points, 1) reference call equals one reference call per point, on
    # the rows up to each point's own top
    rng = np.random.default_rng(10)
    z = np.concatenate([[0.0, 0.3 + 0.1j, 2.0j, 250.0 + 40.0j],
                        rng.uniform(-60.0, 60.0, 8) + 1j * rng.uniform(-20.0, 20.0, 8)])
    tops = rng.integers(0, 64, z.size)
    want = _ref_bessel_j_orders(tops.reshape(-1, 1), z.reshape(-1, 1))[..., 0]
    for i, (x, top) in enumerate(zip(z, tops)):
        one = _ref_bessel_j_orders(int(top), np.array([x]))[:, 0]
        assert np.array_equal(_bits(one), _bits(want[:top + 1, i]))


def test_contour_like_points():
    # contour shapes c + t e^{i pi/8}, |z| from 0.5 to 300, one row each
    t = np.linspace(0.0, 1.0, 400) * np.exp(1j * math.pi / 8.0)
    rows = [(0.5, 3.0, 1), (0.8, 40.0, 7), (2.0, 120.0, 20), (5.0, 300.0, 33),
            (0.5, 300.0, 64)]
    z = np.array([c + length * t for c, length, _ in rows])
    tops = np.array([[top] for *_, top in rows])
    _assert_points_take_their_one_point_rows(tops, z)
    for i, (*_, top) in enumerate(rows):
        _assert_points_take_their_one_point_rows(top, z[i])
