"""Fresnel integrals S(x), C(x) (DLMF 7.2) for f_chirp's closed form.

A vectorized port of Cephes ``fresnl`` (S. L. Moshier, Methods and
Programs for Mathematical Functions, Prentice-Hall, 1989), evaluated in
the order scipy.special.fresnel (1.17) evaluates it: the same rational
approximations, Horner steps, phase reduction and signs, so both give the
same bits, without importing scipy.special (~23 MB resident, ~0.2 s).
"""

from __future__ import annotations

import numpy as np

# x^2 < _SMALL: S = x^3 SN(x^4) / SD(x^4), C = x CN(x^4) / CD(x^4)
_SMALL = 2.5625
# x > _LARGE: the leading term of the asymptotic series
_LARGE = 36974.0


def _stack(*polys):
    """Coefficient rows, highest power first, padded with leading zeros to
    one length: 0 * t + c = c for finite t, so padding changes no
    rounding."""
    width = max(len(p) for p in polys)
    return np.array([(0.0,) * (width - len(p)) + p for p in polys])


# Cephes fresnl.c; a leading 1.0 stands for p1evl's implicit one
_SN = (-2.99181919401019853726E3, 7.08840045257738576863E5, -6.29741486205862506537E7,
       2.54890880573376359104E9, -4.42979518059697779103E10, 3.18016297876567817986E11)
_SD = (1.0, 2.81376268889994315696E2, 4.55847810806532581675E4, 5.17343888770096400730E6,
       4.19320245898111231129E8, 2.24411795645340920940E10, 6.07366389490084639049E11)
_CN = (-4.98843114573573548651E-8, 9.50428062829859605134E-6, -6.45191435683965050962E-4,
       1.88843319396703850064E-2, -2.05525900955013891793E-1, 9.99999999999999998822E-1)
_CD = (3.99982968972495980367E-12, 9.15439215774657478799E-10, 1.25001862479598821474E-7,
       1.22262789024179030997E-5, 8.68029542941784300606E-4, 4.12142090722199792936E-2,
       1.00000000000000000118E0)
_FN = (4.21543555043677546506E-1, 1.43407919780758885261E-1, 1.15220955073585758835E-2,
       3.45017939782574027900E-4, 4.63613749287867322088E-6, 3.05568983790257605827E-8,
       1.02304514164907233465E-10, 1.72010743268161828879E-13, 1.34283276233062758925E-16,
       3.76329711269987889006E-20)
_FD = (1.0, 7.51586398353378947175E-1, 1.16888925859191382142E-1, 6.44051526508858611005E-3,
       1.55934409164153020873E-4, 1.84627567348930545870E-6, 1.12699224763999035261E-8,
       3.60140029589371370404E-11, 5.88754533621578410010E-14, 4.52001434074129701496E-17,
       1.25443237090011264384E-20)
_GN = (5.04442073643383265887E-1, 1.97102833525523411709E-1, 1.87648584092575249293E-2,
       6.84079380915393090172E-4, 1.15138826111884280931E-5, 9.82852443688422223854E-8,
       4.45344415861750144738E-10, 1.08268041139020870318E-12, 1.37555460633261799868E-15,
       8.36354435630677421531E-19, 1.86958710162783235106E-22)
_GD = (1.0, 1.47495759925128324529E0, 3.37748989120019970451E-1, 2.53603741420338795122E-2,
       8.14679107184306179049E-4, 1.27545075667729118702E-5, 1.04314589657571990585E-7,
       4.60680728146520428211E-10, 1.10273215066240270757E-12, 1.38796531259578871258E-15,
       8.39158816283118707363E-19, 1.86958710162783236342E-22)
_SMALL_POLYS = _stack(_SN, _SD, _CN, _CD)
_AUX_POLYS = _stack(_FN, _FD, _GN, _GD)


def _horner(coefs, t, out):
    """The rows of coefs at the points t into out, shape (rows, t.size), each
    by Cephes' polevl: ((c0 t + c1) t + c2) ..."""
    out[:] = coefs[:, :1]
    for c in coefs.T[1:, :, None]:
        out *= t
        out += c
    return out


def _sincospi(h, s, c):
    """sin(pi h) into s and cos(pi h) into c for h >= 0, reduced as Cephes'
    sinpi and cospi reduce them: r = fmod(h, 2), exact, then a sine of pi
    times r near 0."""
    r = np.multiply(h, 0.5)
    np.floor(r, out=r)
    r *= -2.0
    r += h
    np.multiply(np.pi, np.where(r < 0.5, r, np.where(r < 1.5, 1.0 - r, r - 2.0)), out=s)
    np.multiply(np.pi, np.where(r < 1.0, 0.5 - r, r - 1.5), out=c)
    np.sin(s, out=s)
    np.sin(c, out=c)


def _power_series(a, a2):
    """(S, C) for a^2 < _SMALL."""
    sn, sd, cn, cd = _horner(_SMALL_POLYS, a2 * a2, np.empty((4, a.size)))
    sn *= a * a2
    sn /= sd
    cn *= a
    cn /= cd
    return sn, cn


def _auxiliary(a, a2, work):
    """(S, C) for _SMALL <= a^2 and a <= _LARGE, from the auxiliary
    functions f, g of the asymptotic expansion: rows of work, which has six
    rows and is overwritten."""
    f, fd, g, gd, t, u = work
    np.multiply(np.pi, a2, out=t)
    np.multiply(t, t, out=u)
    np.divide(1.0, u, out=u)
    _horner(_AUX_POLYS, u, work[:4])
    f *= u
    f /= fd
    np.subtract(1.0, f, out=f)
    np.divide(1.0, t, out=t)
    g *= t
    g /= gd
    sp, cp = fd, gd
    np.multiply(0.5, a2, out=u)
    _sincospi(u, sp, cp)
    np.multiply(np.pi, a, out=t)
    # S = 1/2 - (f cp + g sp) / t, C = 1/2 + (f sp - g cp) / t
    np.multiply(f, cp, out=u)
    f *= sp
    cp *= g
    g *= sp
    u += g
    u /= t
    np.subtract(0.5, u, out=u)
    f -= cp
    f /= t
    f += 0.5
    return u, f


def _asymptotic(a, a2):
    """(S, C) for a > _LARGE: the leading term, and 1/2 at infinity."""
    sp, cp = np.empty((2, a.size))
    _sincospi(0.5 * a2, sp, cp)
    t = 1.0 / (np.pi * a)
    inf = np.isinf(a)
    return np.where(inf, 0.5, 0.5 - t * cp), np.where(inf, 0.5, 0.5 + t * sp)


def _fresnel(x):
    """(S(x), C(x)) = integrals of (sin, cos)(pi t^2 / 2) over [0, x],
    elementwise; scalar for scalar x."""
    x = np.asarray(x, dtype=float)
    # a, a2 and the auxiliary branch's temporaries are rows of one array:
    # as a dozen separate arrays they made the C heap shrink and regrow on
    # each call, and faulting the pages back in cost as much as the sums
    work = np.empty((8, x.size))
    a, a2 = work[:2]
    np.abs(x.ravel(), out=a)
    # past |x| ~ 1.3e154, x^2 overflows and S, C are NaN, as in Cephes;
    # the auxiliary branch, taken at every point, divides by zero at x = 0,
    # where the power series overwrites it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply(a, a, out=a2)
        small = a2 < _SMALL
        if small.all():
            s, c = _power_series(a, a2)
        else:
            # the auxiliary branch at every point (NaN stays NaN), then
            # the other two where they hold
            s, c = _auxiliary(a, a2, work[2:])
            for mask, branch in ((small, _power_series), (a > _LARGE, _asymptotic)):
                if mask.any():
                    s[mask], c[mask] = branch(a[mask], a2[mask])
    # negate, not copysign: -0.0 gives +0.0, as in Cephes
    neg = (x < 0).ravel()
    np.negative(s, out=s, where=neg)
    np.negative(c, out=c, where=neg)
    s, c = s.reshape(x.shape), c.reshape(x.shape)
    return (float(s), float(c)) if x.ndim == 0 else (s, c)
