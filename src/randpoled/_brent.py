"""Brent's scalar root finder (R. P. Brent, Algorithms for Minimization
without Derivatives, Prentice-Hall, 1973, ch. 4).

A port of scipy's ``brentq`` (its C routine): the same iterates, tolerances
and results, without importing scipy's optimize package (~23 MB resident,
~0.25 s).  The name is private, so bench/tracer.py, which times public
functions, counts the search's calls of f inside the caller's span.
"""

from __future__ import annotations

import math
import sys


def _negative(x: float) -> bool:
    """The sign bit of x, as C's signbit reads it."""
    return math.copysign(1.0, x) < 0


def _brentq(f, a, b, xtol: float = 2e-12,
            rtol: float = 4 * sys.float_info.epsilon, maxiter: int = 100) -> float:
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    f is called with Python floats; the search stops once the bracket is
    shorter than xtol + rtol |x|.  Raises ValueError for a NaN value of f
    or for ends of one sign, RuntimeError after maxiter iterations.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _negative(fpre) == _negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _negative(fpre) != _negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # an infinite or NaN step bisects, as in C
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        limit = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")

