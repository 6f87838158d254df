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
from scipy import special

from .structures import PolingStructure

# Relative threshold at which removable singularities switch to series
# or exact-summation branches.
SERIES_SWITCH = 1e-6

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


def _boundary_phases(s: PolingStructure, dk_total):
    dk = np.atleast_1d(np.asarray(dk_total, dtype=float))
    return np.exp(1j * dk[..., None] * s.boundaries), dk


def f_exact(s: PolingStructure, dk_total):
    """Exact phase-matching function of one explicit structure.

    Sum over domains of the chi(2)-weighted plane-wave integral; valid
    for every mismatch including dk_total = 0 (series limit).
    """
    scalar = np.isscalar(dk_total) or np.ndim(dk_total) == 0
    E, dk = _boundary_phases(s, dk_total)
    signs = (-1.0) ** np.arange(s.n_domains + 1)
    w = signs.astype(float).copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2j / dk * (E * w).sum(axis=-1)
    tiny = np.abs(dk) * s.length < SERIES_SWITCH
    if np.any(tiny):
        # midpoint form, exact to second order in dk * L
        mids = 0.5 * (s.boundaries[1:] + s.boundaries[:-1])
        dl = s.domain_lengths * s.signs
        Em = np.exp(1j * dk[tiny][..., None] * mids)
        out[tiny] = (Em * dl).sum(axis=-1)
    return out[0] if scalar else out.reshape(np.shape(dk_total))


def f_boundary_sum(s: PolingStructure, dk_total):
    """Boundary-sum approximation F = (2i/dk) sum_n (-1)^n exp(i dk z_n).

    Differs from f_exact only by end-face terms of relative order
    1/N_L.  Rejects dk_total = 0.
    """
    scalar = np.isscalar(dk_total) or np.ndim(dk_total) == 0
    E, dk = _boundary_phases(s, dk_total)
    if np.any(dk == 0.0):
        raise PhasematchError("boundary sum undefined at zero mismatch; use f_exact")
    signs = (-1.0) ** np.arange(s.n_domains + 1)
    out = 2j / dk * (E * signs).sum(axis=-1)
    return out[0] if scalar else out.reshape(np.shape(dk_total))


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
    if dk0 is None:
        dk0 = np.pi / l0
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
    if dk0 is None:
        dk0 = np.pi / l0
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
    if dk0 is None:
        dk0 = np.pi / l0
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
    if dk0 is None:
        dk0 = np.pi / l0
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
    if dk0 is None:
        dk0 = np.pi / l0
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
    if dk0 is None:
        dk0 = np.pi / l0
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
