"""The Cephes fresnl port against scipy.special.fresnel, the oracle: bit for
bit on the scipy release whose evaluation order it follows, to a few
rounding errors of the phase on any other, and against mpmath."""
import math

import mpmath
import numpy as np
import pytest
import scipy
from scipy import special

from randpoled._fresnel import _LARGE, _SMALL, _fresnel

EPS = np.finfo(float).eps


def _arguments():
    """Seeded arguments of both signs in the power series (x^2 < 2.5625),
    the auxiliary branch (up to 36974) and the asymptotic one past it; the
    branch edges; the points where the phase reduction changes case,
    x = sqrt(2 (2k + r)), fmod(x^2 / 2, 2) = r; and 0, 1e-300, 5e-324, 1e154."""
    rng = np.random.default_rng(7)
    edge = math.sqrt(_SMALL)
    k = np.arange(0.0, 3000.0)
    parts = [rng.uniform(-1.7, 1.7, 20000), rng.uniform(-40.0, 40.0, 20000),
             rng.uniform(-_LARGE, _LARGE, 5000),
             np.exp(rng.uniform(np.log(_LARGE), np.log(1e7), 5000)),
             [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0),
              np.nextafter(_LARGE, 0.0), _LARGE, np.nextafter(_LARGE, 1e9),
              0.0, 1e-300, 5e-324, 1e154]]
    parts += [np.sqrt(2.0 * (2.0 * k + r)) for r in (0.5, 1.0, 1.5)]
    x = np.concatenate(parts)
    return np.concatenate([x, -x])


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _scipy_at_least(major, minor):
    return tuple(int(p) for p in scipy.__version__.split(".")[:2]) >= (major, minor)


def _sin_is_libm():
    """Whether numpy's sin is the C library's (math.sin), as in scipy's
    Cephes; a vectorized sin of its own would move the last bit."""
    x = np.random.default_rng(0).uniform(-1.6, 1.6, 2000)
    return bool(np.all(np.sin(x) == [math.sin(v) for v in x]))


@pytest.mark.skipif(not _scipy_at_least(1, 17) or not _sin_is_libm(),
                    reason="the evaluation order followed is scipy 1.17's, "
                           "with the C library's sin")
class TestBitForBit:
    def test_arguments(self):
        x = _arguments()
        got, want = _fresnel(x), special.fresnel(x)
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w))

    def test_signed_zero_infinities_nan(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for g, w in zip(_fresnel(x), special.fresnel(x)):
            # scipy negates, so -0 gives +0: copysign would give -0
            assert np.array_equal(np.signbit(g[:4]), np.signbit(w[:4]))
            assert np.array_equal(g[:4], w[:4]) and np.isnan(g[4]) and np.isnan(w[4])

    def test_overflowing_square_is_nan(self):
        # |x| > ~1.34e154: x^2 overflows, and both give NaN without a warning
        x = np.array([2e154, -1e200, 1e300])
        s, c = _fresnel(x)
        assert np.all(np.isnan(s)) and np.all(np.isnan(c))


def test_close_to_scipy():
    # any scipy release: its phase reduction may differ from the one ported,
    # which moves S and C by a few rounding errors of x^2 / 2
    x = _arguments()
    for g, w in zip(_fresnel(x), special.fresnel(x)):
        assert np.all(np.abs(g - w) <= 4 * EPS * (1.0 + np.abs(x)))


def test_close_to_mpmath():
    x = np.concatenate([np.linspace(-2.0, 2.0, 41), np.linspace(-60.0, 60.0, 61),
                        [4e4, -1e5, 3e6]])
    s, c = _fresnel(x)
    want_s = np.array([float(mpmath.fresnels(v)) for v in x])
    want_c = np.array([float(mpmath.fresnelc(v)) for v in x])
    assert np.all(np.abs(s - want_s) <= 4 * EPS * (1.0 + np.abs(x)))
    assert np.all(np.abs(c - want_c) <= 4 * EPS * (1.0 + np.abs(x)))


def test_scalar_in_scalar_out():
    s, c = _fresnel(1.0)
    assert isinstance(s, float) and isinstance(c, float)
    assert (s, c) == tuple(float(v[0]) for v in _fresnel(np.array([1.0])))
    assert _fresnel(-0.0) == (0.0, 0.0)


def test_shape_of_the_spatial_blocks():
    # spatial passes (2, theta rows, omega) stacks: each point as alone
    x = np.random.default_rng(3).uniform(-30.0, 30.0, (2, 20, 201))
    x[0, 3, :50] = 0.3  # a block with points of the power series too
    s, c = _fresnel(x)
    assert s.shape == c.shape == x.shape
    flat = _fresnel(x.ravel())
    assert np.array_equal(s.ravel(), flat[0]) and np.array_equal(c.ravel(), flat[1])
    assert np.array_equal(s[0, 3, 0], _fresnel(0.3)[0])
