"""The brentq port against scipy.optimize, the oracle, by exact equality:
the same points evaluated in the same order, the same result and the same
exceptions."""
import math

import numpy as np
import pytest
from scipy import optimize

from randpoled._brent import _brentq

EPS4 = 4 * np.finfo(float).eps


def _logged(fn):
    """fn, and the list of the points it is called with."""
    calls = []

    def logged(x):
        calls.append(x)
        return fn(x)
    return logged, calls


def _both(port, oracle):
    """(result, exception type) of each of port() and oracle()."""
    out = []
    for solve in (port, oracle):
        try:
            out.append((solve(), None))
        except (ValueError, RuntimeError) as exc:
            out.append((None, type(exc)))
    return out


def _root_battery(seed, n):
    """n (f, a, b) with f(a) and f(b) of opposite signs, brackets in either
    order: smooth, steep, kinked, cusped, staircase (equal values, zero
    divisors) and tiny-valued (underflowing products) functions."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        c, r = rng.uniform(-1.0, 1.0, 2), rng.uniform(-2.0, 2.0)
        fn = [lambda x: (x - r) * (1.0 + c[0] ** 2 + 0.1 * c[1] ** 2 * x * x),
              lambda x: math.tanh(10.0 ** (1.0 + 2.0 * abs(c[0])) * (x - r)),
              lambda x: math.expm1(3.0 * c[0] * (x - r)) if c[0] else x - r,
              lambda x: (x - r) ** 3 + 1e-3 * c[1] ** 2 * (x - r),
              lambda x: 1e-150 * math.atan(x - r),
              lambda x: (x - r) * (1.0 if x < r else 10.0 ** (3.0 * c[0])),
              lambda x: math.copysign(abs(x - r) ** (0.1 + 0.2 * abs(c[0])), x - r),
              lambda x: math.floor(8.0 * (x - r)) + 0.5,
              lambda x: 1e-200 * (x - r)][k % 9]
        a, b = r - rng.uniform(0.01, 3.0), r + rng.uniform(0.01, 3.0)
        yield fn, *((b, a) if rng.random() < 0.5 else (a, b))


class TestBrentq:
    @pytest.mark.parametrize("rtol", [EPS4, 1e-6, 1e-2])
    def test_seeded_battery(self, rtol):
        for fn, a, b in _root_battery(11, 450):
            f_port, port_calls = _logged(fn)
            f_scipy, scipy_calls = _logged(fn)
            got = _brentq(f_port, np.float64(a), np.float64(b), rtol=rtol)
            want = optimize.brentq(f_scipy, np.float64(a), np.float64(b), rtol=rtol)
            assert got == want and type(got) is type(want) is float
            assert port_calls == scipy_calls
            assert all(type(x) is float for x in port_calls)

    def test_match_parameter_call(self):
        # a width-like observable on match_parameter's log probe grid
        probes = np.geomspace(5e-8, 8e-6, 25)
        for goal in (1.3e-7, 7e-7, 2.2e-6):
            def gap(s, goal=goal):
                return 1e-3 / math.sqrt(1.0 + (s / 1e-6) ** 2) - 1e-3 / math.sqrt(
                    1.0 + (goal / 1e-6) ** 2)
            k = np.searchsorted(probes, goal)
            lo, hi = probes[k - 1], probes[k]
            f_port, port_calls = _logged(gap)
            f_scipy, scipy_calls = _logged(gap)
            assert _brentq(f_port, lo, hi, rtol=1e-2) == optimize.brentq(
                f_scipy, lo, hi, rtol=1e-2)
            assert port_calls == scipy_calls

    def test_end_at_a_root(self):
        for a, b in ((0.3, 1.0), (0.0, 0.3), (-0.0, 1.0)):
            def f(x):
                return x - 0.3 if x else -0.0
            assert _brentq(f, a, b) == optimize.brentq(f, a, b)

    def test_raises_like_scipy(self):
        def same_sign(x):
            return x * x + 1.0

        def tiny_same_sign(x):  # f(a) f(b) underflows to 0
            return 1e-200 * (x + 0.3)

        def steep(x):
            return math.tanh(50.0 * (x - 0.3))

        def nan_above(x):
            return float("nan") if x > 0.6 else x - 0.3

        for fn, a, b, kw, exc in ((same_sign, -1.0, 1.0, {}, ValueError),
                                  (tiny_same_sign, 0.0, 1.0, {}, ValueError),
                                  (steep, 0.0, 1.0, {"maxiter": 3}, RuntimeError),
                                  (nan_above, 0.0, 1.0, {}, ValueError)):
            port, oracle = _both(lambda: _brentq(fn, a, b, **kw),
                                 lambda: optimize.brentq(fn, a, b, **kw))
            assert port == oracle == (None, exc)

