"""Stochastic phase-matching function F and its ensemble statistics.

Per-realization values are exact sums over the explicit domain layout;
ensemble averages over the random families are closed forms derived
from the Gaussian characteristic function of the boundary jitter,

    G(dk) = exp(-sigma^2 dk^2 / 4).

All mismatch arguments named ``delta_k`` are detunings from the
quasi-phase-matching design point, delta_k = dk_total - dk0, with the
design relation l0 = pi/dk0.  Pass ``dk0`` explicitly to decouple the
two; by default dk0 = pi/l0.

Everything broadcasts over numpy arrays and is pure (safe for
data-parallel evaluation).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft
from scipy import special

from .structures import PolingStructure, StructureSpec, gen_ideal

# Relative threshold at which removable singularities switch to series
# or exact-summation branches.
SERIES_SWITCH = 1e-6

# Chebyshev tail check: the last _TAIL_TERMS coefficients <= _TAIL_TOL * max.
_TAIL_TERMS = 8
_TAIL_TOL = 1e-11

# erf(z) overflows double precision for |Im z| beyond ~27.
ERF_IM_MAX = 26.0


class PhasematchError(ValueError):
    """Raised for invalid phase-matching arguments."""


def characteristic_g(dk_total, sigma: float):
    """Characteristic function G(dk) = exp(-sigma^2 dk^2 / 4)."""
    return np.exp(-sigma ** 2 * np.asarray(dk_total, dtype=float) ** 2 / 4.0)


def h_factor(delta_k, l0: float, sigma: float, dk0: float):
    """Per-domain transfer factor H = exp(i delta_k l0) G(dk0 + delta_k)."""
    delta_k = np.asarray(delta_k, dtype=float)
    return np.exp(1j * delta_k * l0) * characteristic_g(dk0 + delta_k, sigma)


def _direct_boundary_sum(z, w, dk):
    """S(dk) = sum_n w_n exp(i dk z_n) term by term: fallback and test oracle."""
    return (np.exp(1j * dk[:, None] * z) * w).sum(axis=-1)


def _boundary_sum(z, w, dk):
    """S(dk) = sum_n w_n exp(i dk z_n) for increasing z, real w and 1-D dk.

    The envelope S exp(-i dk z_c) about the layout center has bandwidth
    L/2, so a Chebyshev interpolant of degree P = b + 12 b^(1/3) + 10,
    b = (max dk - min dk) L / 4, resolves it; summed with real cos/sin at
    the P + 1 Chebyshev points, it is carried to dk barycentrically
    (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)).  Grids of at most
    P + 1 points, non-finite grids and unresolved tails take the direct sum.
    """
    lo, hi = (dk.min(), dk.max()) if dk.size else (0.0, 0.0)
    b = 0.25 * (hi - lo) * (z[-1] - z[0])
    p = int(np.ceil(b + 12.0 * np.cbrt(b) + 10.0)) if 0 < b < np.inf else dk.size
    if dk.size <= p + 1:
        return _direct_boundary_sum(z, w, dk)
    mid, half, zc = 0.5 * (lo + hi), 0.5 * (hi - lo), 0.5 * (z[0] + z[-1])
    x = np.sin(0.5 * np.pi * np.arange(-p, p + 1, 2) / p)  # exactly odd
    m = p // 2 + 1
    wc = (w * np.exp(1j * mid * (z - zc))).view(float).reshape(-1, 2)  # re, im
    theta = np.outer(half * x[:m], z - zc)
    c, s = np.cos(theta) @ wc, np.sin(theta) @ wc
    # point j takes c + i s, its mirror p - j takes c - i s
    env = np.empty(p + 1, dtype=complex)
    env[:m] = (c[:, 0] - s[:, 1]) + 1j * (c[:, 1] + s[:, 0])
    env[p + 1 - m:] = ((c[:, 0] + s[:, 1]) + 1j * (c[:, 1] - s[:, 0]))[::-1]
    coef = np.abs(sp_fft.dct(env, type=1))
    if coef[-_TAIL_TERMS:].max() > _TAIL_TOL * coef.max():
        return _direct_boundary_sum(z, w, dk)
    lam = (-1.0) ** np.arange(p + 1)
    lam[[0, -1]] *= 0.5
    t = (dk - mid) / half
    with np.errstate(divide="ignore", invalid="ignore"):
        bary = lam / (t[:, None] - x)
        bary /= bary.sum(axis=1, keepdims=True)
    row, col = np.nonzero(t[:, None] == x)
    bary[row] = 0.0
    bary[row, col] = 1.0
    out = bary @ env.view(float).reshape(-1, 2)
    return (out[:, 0] + 1j * out[:, 1]) * np.exp(1j * dk * zc)


def f_exact(s: PolingStructure, dk_total):
    """Exact phase-matching function of one explicit structure.

    Sum over domains of the chi(2)-weighted plane-wave integral; valid
    for every mismatch including dk_total = 0 (series limit).
    """
    dk = np.asarray(dk_total, dtype=float)
    flat = dk.ravel()
    w = (-1.0) ** np.arange(s.n_domains + 1)
    w[[0, -1]] *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2j / flat * _boundary_sum(s.boundaries, w, flat)
    tiny = np.abs(flat) * s.length < SERIES_SWITCH
    if np.any(tiny):
        # midpoint form, exact to second order in dk * L
        mids = 0.5 * (s.boundaries[1:] + s.boundaries[:-1])
        out[tiny] = (np.exp(1j * flat[tiny][:, None] * mids)
                     * (s.domain_lengths * s.signs)).sum(axis=-1)
    return out[0] if dk.ndim == 0 else out.reshape(dk.shape)


def f_boundary_sum(s: PolingStructure, dk_total):
    """Boundary-sum approximation F = (2i/dk) sum_n (-1)^n exp(i dk z_n).

    Differs from f_exact only by end-face terms of relative order
    1/N_L.  Rejects dk_total = 0.
    """
    dk = np.asarray(dk_total, dtype=float)
    if np.any(dk == 0.0):
        raise PhasematchError("boundary sum undefined at zero mismatch; use f_exact")
    w = (-1.0) ** np.arange(s.n_domains + 1)
    out = 2j / dk.ravel() * _boundary_sum(s.boundaries, w, dk.ravel())
    return out[0] if dk.ndim == 0 else out.reshape(dk.shape)


def _geom_sum(q, m: int, qm=None):
    """sum_{j=0}^{m-1} q^j, qm = q**m if known, with a series branch near q = 1."""
    q = np.asarray(q)
    qm = q ** m if qm is None else qm
    r = q - 1.0
    near = np.abs(r) < SERIES_SWITCH
    qs = np.where(near, 0.5, q)  # dummy away from the pole
    main = (1.0 - qm) / (1.0 - qs)
    series = m * (1.0 + r * (m - 1) / 2.0 + r ** 2 * (m - 1) * (m - 2) / 6.0)
    return np.where(near, series, main)


def avg_f2_rps(delta_k, n_domains: int, l0: float, sigma: float,
               dk0: float | None = None):
    """Ensemble mean of |F|^2 for randomly poled (random-walk) structures.

    Closed geometric form in H; where |1 - H| is numerically
    degenerate the exact lag sum over boundary pairs is used instead.
    """
    dk0 = np.pi / l0 if dk0 is None else dk0
    delta_k = np.asarray(delta_k, dtype=float)
    scalar = delta_k.ndim == 0
    dk = np.atleast_1d(delta_k)
    dk_tot = dk0 + dk
    h = h_factor(dk, l0, sigma, dk0)
    one = 1.0 - h
    out = np.empty(dk.shape, dtype=float)
    ok = np.abs(one) > SERIES_SWITCH
    hh = h[ok]
    bracket = (
        (n_domains + 1) * (1.0 - np.abs(hh) ** 2) / np.abs(1.0 - hh) ** 2
        - 2.0 * np.real(hh * (1.0 - hh ** (n_domains + 1)) / (1.0 - hh) ** 2)
    )
    out[ok] = 4.0 / dk_tot[ok] ** 2 * bracket
    if np.any(~ok):
        lag = np.arange(1, n_domains + 1)
        weight = n_domains + 1 - lag
        for i in np.nonzero(~ok)[0]:
            s = (n_domains + 1) + 2.0 * np.sum(weight * np.real(h[i] ** lag))
            out[i] = 4.0 / dk_tot[i] ** 2 * s
    return float(out[0]) if scalar else out


def avg_f2_rps_asymptotic(delta_k, n_domains: int, l0: float, sigma: float,
                          dk0: float | None = None):
    """Large-disorder asymptote of avg_f2_rps.

    Single-fraction simplification obtained by dropping the bounded
    H^(N_L+1) boundary term of the exact mean, leaving

        4 (N_L+1) (1 - G^2) / [dk_tot^2 |1 - H|^2].

    Valid when v = sigma^2 dk0^2 N_L / 2 >> 1.  Returns
    (values, validity_metric); the caller judges v.  Note the local
    dephasing vanishes as dk_tot -> 0, so the pointwise error grows at
    the small-mismatch edge of the band even when v is large.
    """
    dk0 = np.pi / l0 if dk0 is None else dk0
    delta_k = np.asarray(delta_k, dtype=float)
    dk_tot = dk0 + delta_k
    g = characteristic_g(dk_tot, sigma)
    value = (
        4.0 * (n_domains + 1) / dk_tot ** 2
        * (1.0 - g ** 2) / (1.0 - 2.0 * g * np.cos(delta_k * l0) + g ** 2)
    )
    validity = sigma ** 2 * dk0 ** 2 * n_domains / 2.0
    return value, validity


def _dirichlet(x, m: int):
    """sum_{n=0}^{m-1} exp(i n x), stable at x = 2 pi k."""
    x = np.asarray(x, dtype=float)
    # reduce to the nearest period so the series branch is exact there
    eps = x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))
    near = np.abs(eps) < SERIES_SWITCH
    half = 0.5 * x
    s = np.sin(half)
    main = (
        np.where(near, 1.0, np.sin(m * half))
        / np.where(near, 1.0, s)
        * np.exp(1j * (m - 1) * half)
    )
    series = (
        m * np.exp(1j * (m - 1) * eps / 2.0)
        * (1.0 - (m * m - 1.0) * eps ** 2 / 24.0)
    )
    return np.where(near, series, main)


def avg_f2_weak(delta_k, n_domains: int, l0: float, sigma: float,
                dk0: float | None = None):
    """Ensemble mean of |F|^2 for weakly-random structures.

    Boundaries are independently jittered with the entrance face
    fixed; the exact mean follows from the characteristic function and
    Dirichlet kernels.  Disorder acts as a spectral filter here rather
    than a broadener.
    """
    dk0 = np.pi / l0 if dk0 is None else dk0
    delta_k = np.asarray(delta_k, dtype=float)
    scalar = delta_k.ndim == 0
    dk = np.atleast_1d(delta_k)
    dk_tot = dk0 + dk
    g = characteristic_g(dk_tot, sigma)
    d = _dirichlet(dk * l0, n_domains + 1)
    re_d = np.real(d)
    d2 = np.abs(d) ** 2
    # exact double sum: diagonal + fixed-entrance cross terms
    s = (
        (n_domains + 1)
        + g ** 2 * (d2 - 2.0 * re_d + 1.0 - n_domains)
        + 2.0 * g * (re_d - 1.0)
    )
    out = 4.0 / dk_tot ** 2 * s
    return float(out[0]) if scalar else out


def complex_erf(z):
    """Error function for complex argument, >= 10 significant digits.

    Delegates to the Faddeeva-based scaled complementary error
    function; rejects the overflow region Im(z)^2 - Re(z)^2 > 676,
    where |erf z| itself exceeds double range.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag ** 2 - z.real ** 2 > ERF_IM_MAX ** 2):
        raise PhasematchError(
            f"complex_erf overflow: Im(z)^2 - Re(z)^2 > {ERF_IM_MAX ** 2}")
    out = special.erf(z)
    return complex(out) if out.ndim == 0 else out


def f_chirp(delta_k, n_domains: int, l0: float, zeta_prime: float,
            dk0: float | None = None):
    """Closed-form phase-matching function of a chirped structure.

    Continuum (stationary-phase) limit of the boundary sum for
    z_n = -L + n l0 + zeta' (n - N_L/2)^2 l0^2, expressed through the
    complex error function.  Accurate to a few percent against the
    direct sum across the emission band for the parameter regime of
    interest.
    """
    if zeta_prime == 0.0:
        raise PhasematchError("zeta_prime = 0: use the ideal-structure formulas")
    dk0 = np.pi / l0 if dk0 is None else dk0
    delta_k = np.asarray(delta_k, dtype=float)
    scalar = delta_k.ndim == 0
    dk = np.atleast_1d(delta_k)
    dk_tot = dk0 + dk
    a = np.sqrt(-1j * dk_tot * zeta_prime + 0j) * l0
    beta = dk / (2.0 * dk_tot * zeta_prime * l0)
    pre = (
        2j / dk_tot
        * np.exp(-1j * dk_tot * n_domains * l0)
        * np.exp(1j * dk * l0 * n_domains / 2.0)
        * np.exp(-1j * dk ** 2 / (4.0 * dk_tot * zeta_prime))
    )
    half = n_domains / 2.0
    out = pre * np.sqrt(np.pi) / (2.0 * a) * (
        complex_erf(a * (half + beta)) - complex_erf(a * (-half + beta))
    )
    return complex(out[0]) if scalar else out


def _scaled_geom(a, c, m: int, am, cm):
    """sum_{j=0}^{m-1} a^{m-j} c^j, stable for |a|, |c| <= 1; am = a**m, cm = c**m."""
    diff = c - a
    near = np.abs(diff) < SERIES_SWITCH * np.maximum(np.abs(a), 1e-300)
    safe = np.where(near, a + 1.0, c)  # dummy away from the pole
    main = a * (cm - am) / (safe - a)
    q = np.where(near, diff / np.where(np.abs(a) > 0, a, 1.0), 0.0)
    series = am * m * (
        1.0 + q * (m - 1) / 2.0 + q ** 2 * (m - 1) * (m - 2) / 6.0
    )
    return np.where(near, series, main)


def xcorr_rps(delta_k, delta_k_prime, n_domains: int, l0: float, sigma: float,
              dk0: float | None = None):
    """Cross-correlator <F(dk) F*(dk')> for random-walk structures.

    Exact result of the pairwise boundary average, summed in closed
    geometric form; elements with degenerate denominators fall back to
    the exact lag sum.  Hermitian in (dk, dk') and real nonnegative on
    the diagonal, where it coincides with avg_f2_rps.
    """
    dk0 = np.pi / l0 if dk0 is None else dk0
    scalar = np.ndim(delta_k) == 0 and np.ndim(delta_k_prime) == 0
    dk = np.atleast_1d(np.asarray(delta_k, dtype=float))
    dkp = np.atleast_1d(np.asarray(delta_k_prime, dtype=float))
    dk_tot = dk0 + dk
    dkp_tot = dk0 + dkp
    big_dk = dk_tot - dkp_tot
    # powers of a and b on their own shapes; only c is broadcast
    a = h_factor(dk, l0, sigma, dk0)
    b = np.conj(h_factor(dkp, l0, sigma, dk0))
    c = np.exp(1j * big_dk * l0) * characteristic_g(big_dk, sigma)
    m = n_domains + 1
    am, bm, cm = a ** m, b ** m, c ** m
    bad = (np.abs(1.0 - a) < SERIES_SWITCH) | (np.abs(1.0 - b) < SERIES_SWITCH)
    g0 = _geom_sum(c, m, cm)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (a * g0 - _scaled_geom(a, c, m, am, cm)) / np.where(bad, 1.0, 1.0 - a)
        tb = (b * g0 - _scaled_geom(b, c, m, bm, cm)) / np.where(bad, 1.0, 1.0 - b)
    s = g0 + ta + tb
    if np.any(bad):
        j = np.arange(m)
        lag = np.arange(1, m)
        flat_bad = np.nonzero(bad.ravel())[0]
        sf = s.ravel()
        for idx in flat_bad:
            ai = np.broadcast_to(a, s.shape).flat[idx]
            bi = np.broadcast_to(b, s.shape).flat[idx]
            ci = c.ravel()[idx]
            geo_a = np.concatenate(([0.0], np.cumsum(ai ** lag)))
            geo_b = np.concatenate(([0.0], np.cumsum(bi ** lag)))
            sf[idx] = np.sum(ci ** j * (1.0 + geo_a[m - 1 - j] + geo_b[m - 1 - j]))
        s = sf.reshape(s.shape)
    out = (
        4.0 / (dk_tot * dkp_tot)
        * np.exp(-1j * big_dk * n_domains * l0)
        * s
    )
    return complex(out[0]) if scalar else out


def xcorr_weak(delta_k, delta_k_prime, n_domains: int, l0: float, sigma: float,
               dk0: float | None = None):
    """Cross-correlator <F(dk) F*(dk')> for weakly-random structures."""
    dk0 = np.pi / l0 if dk0 is None else dk0
    dk, dkp = np.broadcast_arrays(
        np.asarray(delta_k, dtype=float), np.asarray(delta_k_prime, dtype=float)
    )
    scalar = dk.ndim == 0
    dk = np.atleast_1d(dk).astype(float)
    dkp = np.atleast_1d(dkp).astype(float)
    dk_tot = dk0 + dk
    dkp_tot = dk0 + dkp
    big_dk = dk_tot - dkp_tot
    m = n_domains + 1
    g = characteristic_g(dk_tot, sigma)
    gp = characteristic_g(dkp_tot, sigma)
    gd = characteristic_g(big_dk, sigma)
    d = _dirichlet(dk * l0, m)
    dp = np.conj(_dirichlet(dkp * l0, m))
    e = _dirichlet(big_dk * l0, m)
    # pairwise boundary average with the entrance face pinned at -L
    s = (
        1.0
        + gd * (e - 1.0)
        + g * gp * ((d - 1.0) * (dp - 1.0) - (e - 1.0))
        + g * (d - 1.0)
        + gp * (dp - 1.0)
    )
    out = (
        4.0 / (dk_tot * dkp_tot)
        * np.exp(-1j * big_dk * n_domains * l0)
        * s
    )
    return complex(out[0]) if scalar else out


def xcorr_chirp(delta_k, delta_k_prime, n_domains: int, l0: float,
                zeta_prime: float, dk0: float | None = None):
    """Cross-correlator for the deterministic chirped structure."""
    fa = f_chirp(delta_k, n_domains, l0, zeta_prime, dk0)
    fb = f_chirp(delta_k_prime, n_domains, l0, zeta_prime, dk0)
    return fa * np.conj(fb)


def response(source, dk_tot):
    """Phase-matching response of any source at total mismatch dk_tot.

    Complex F for a PolingStructure, a chirped spec (closed form) or an
    ideal spec (its gen_ideal layout); real <|F|^2> for the rps and
    weakly-random specs.  Spec detunings are measured from pi/l0, the
    fabricated design point, not the dispersion operating point.
    """
    if isinstance(source, PolingStructure):
        return f_exact(source, dk_tot)
    if not isinstance(source, StructureSpec):
        raise PhasematchError(f"unsupported source {type(source).__name__}")
    if source.kind == "ideal":
        return f_exact(gen_ideal(source.n_domains, source.l0), dk_tot)
    dk0 = np.pi / source.l0
    delta_k = np.asarray(dk_tot, dtype=float) - dk0
    if source.kind == "chirped":
        return f_chirp(delta_k, source.n_domains, source.l0, source.zeta / dk0, dk0)
    mean = avg_f2_rps if source.kind == "rps" else avg_f2_weak
    return mean(delta_k, source.n_domains, source.l0, source.sigma, dk0)
