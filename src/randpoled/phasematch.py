"""Stochastic phase-matching function F and its ensemble statistics.

Per-realization values are exact sums over the explicit domain layout;
ensemble averages over the random-walk family are closed forms derived
from the Gaussian characteristic function of the domain-length step,

    G(dk) = exp(-sigma^2 dk^2 / 4).

All mismatch arguments named ``delta_k`` are detunings from the
quasi-phase-matching design point of the layout, delta_k = dk_total - dk0
with dk0 = pi/l0: the closed forms take (delta_k, N_L, l0) and the
family's own sigma or zeta, as StructureSpec does.

Everything broadcasts over numpy arrays and is pure (safe for
data-parallel evaluation).
"""

from __future__ import annotations

import functools

import numpy as np

from ._fresnel import _fresnel
from .errors import DomainError
from .structures import PolingStructure

# Relative threshold at which removable singularities switch to series
# or exact-summation branches.
SERIES_SWITCH = 1e-6

# Boundary sums: Kaiser-Bessel taps per point and node oversampling.  At 18
# taps the aliases sit below rounding: ~1e-13 of the peak on the scenario
# grids, and ~3e-13 (up to 3e-12) on a dk grid through 0, where F = 2i S / dk
# magnifies the absolute error of S.  14 taps leave ~5e-11 there, 16 ~1e-12.
_TAPS = 18
_OVERSAMPLE = 2.0
# degree of the Chebyshev series in which each tap is a function of the
# point's offset from the nodes (see _tap_table)
_TAP_DEGREE = 12
# plans round layout half-lengths up to steps of 1/_HALF_STEPS octave (2.2 %)
_HALF_STEPS = 32
# avg_f2_rps sums the lags term by term where |m log H| < _LAG_SWITCH: there
# its closed form cancels to (m log H)^2 / 2 and keeps ~1e-16 / |m log H|.
_LAG_SWITCH = 1e-2
_POWER_FLOOR = -42.0  # avg_f2_rps drops H^m below m Re log H = -42: |H^m| < 2^-60
# lag sums take at most this many (element, lag) terms at a time
_LAG_TERMS = 1 << 16
# Boundary sums take longer dk arrays in blocks of this many points, which
# bounds their (nodes x N_L) and (n_dk x N_L) work arrays; spatial's
# correlated_area takes its (theta_i x omega x phi_i) grid in blocks as big.
_BLOCK = 4096


def _detuned(delta_k, l0: float):
    """(scalar?, dk, dk_tot) of a detuning argument: dk as an array of at
    least one dimension and dk_tot = pi / l0 + dk."""
    delta_k = np.asarray(delta_k, dtype=float)
    dk = np.atleast_1d(delta_k)
    return delta_k.ndim == 0, dk, np.pi / l0 + dk


def _direct_boundary_sum(z, w, dk):
    """S(dk) = sum_n w_n exp(i dk z_n) term by term: fallback and test oracle."""
    return (np.exp(1j * dk[:, None] * z) * w).sum(axis=-1)


class BoundaryPlan:
    """The grid-only data of _boundary_sum on one 1-D dk grid: its nodes and
    banded matrix B for each length class of layout.

    A layout's half-length is rounded up to X, a step of 1/_HALF_STEPS
    octave; its nodes t_j = mid + j h, |j| <= m, are spaced h = pi / (2 X),
    twice the Nyquist rate, and each grid point takes the _TAPS nearest,
    weighted (h / a) e^-beta psi(dk - t_j) with the Kaiser-Bessel kernel
    psi(s) = I0(beta sqrt(1 - s^2 / a^2)), a = _TAPS h / 2.  A layout's
    nodes thus depend on its length alone, not on the layouts the plan
    served before.  Grids run in blocks of _BLOCK points; a block with no
    more points than nodes, or with non-finite points, takes the direct sum.
    """

    def __init__(self, dk):
        self.dk = dk
        self._nodes = {}

    def nodes(self, half: float):
        """(h, a, beta, [(block, (mid, m, cols, B) or None)]) for a layout
        of half-length ``half``, built on first use."""
        step = int(np.ceil(_HALF_STEPS * np.log2(half)))
        if step not in self._nodes:
            x = 2.0 ** (step / _HALF_STEPS)
            h = np.pi / (_OVERSAMPLE * x)
            a = 0.5 * _TAPS * h
            # the aliases of the sources |y| <= x start at 2 pi / h - x
            beta = a * (2.0 * _OVERSAMPLE - 1.0) * x
            parts = np.array_split(self.dk, max(1, -(-self.dk.size // _BLOCK)))
            self._nodes[step] = h, a, beta, [(p, _banded(p, h, a, beta)) for p in parts]
        return self._nodes[step]


@functools.cache
def _tap_table(beta: float):
    """(_TAP_DEGREE + 1, _TAPS) Chebyshev coefficients, in t = 2 d - 1, of the
    taps e^-beta psi(s_k) of a point at d = ceil(v) - v in [0, 1) past its
    first node (v in node spacings): as a = _TAPS h / 2, tap k sits at
    s_k / a = 1 - 2 (k + d) / _TAPS.  Fitted from I0 at the Chebyshev nodes
    by the discrete cosine sum: off by <= 7e-16, its largest tap 0.061."""
    n = _TAP_DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    d = 0.5 * (1.0 + np.cos(theta))
    s = 1.0 - 2.0 * (np.arange(_TAPS) + d[:, None]) / _TAPS
    taps = np.i0(beta * np.sqrt(np.maximum(1.0 - s * s, 0.0))) * np.exp(-beta)
    table = 2.0 / n * np.cos(np.outer(np.arange(n), theta)) @ taps
    table[0] *= 0.5
    table.flags.writeable = False  # shared by every plan of this beta
    return table


def _banded(dk, h, a, beta):
    """(mid, m, cols, B) of one block of the grid, or None for the direct sum."""
    if dk.size == 0 or not np.all(np.isfinite(dk)):
        return None
    lo, hi = dk.min(), dk.max()
    m = int(np.ceil(0.5 * (hi - lo) / h)) + _TAPS // 2
    if dk.size <= 2 * m + 1:
        return None
    mid = 0.5 * (lo + hi)
    v = (dk - mid - a) / h  # dk - mid first: d keeps ~1e-16, not ulp(dk) / h
    first = np.ceil(v)
    cols = first.astype(int)[:, None] + np.arange(m, m + _TAPS)  # node j sits at m + j
    # Chebyshev polynomials T_k(t) of the points by the three-term recurrence
    table = _tap_table(beta)
    cheb = np.empty((table.shape[0], dk.size))
    cheb[0] = 1.0
    cheb[1] = 2.0 * (first - v) - 1.0
    for k in range(2, cheb.shape[0]):
        cheb[k] = 2.0 * cheb[1] * cheb[k - 1] - cheb[k - 2]
    return mid, m, cols, cheb.T @ (table * (h / a))


def _boundary_sum(z, w, dk, plan: BoundaryPlan | None = None):
    """S(dk) = sum_n w_n exp(i dk z_n) for increasing z, real w and 1-D dk.

    Type-3 NUFFT (Greengard & Lee, SIAM Rev. 46, 443 (2004); Barnett,
    Magland & af Klinteberg, SIAM J. Sci. Comput. 41, C479 (2019)): about
    the layout center z_c, y = z - z_c, S = e^(i dk z_c) (psi * g) for
    g(t) = sum_n w_n e^(i t y_n) / psi^(y_n), psi^(y) = 2 a sinh(q) / q,
    q = sqrt(beta^2 - a^2 y^2), taken as the trapezoid sum over the nodes
    of ``plan`` (see BoundaryPlan; without one the call builds its own).
    The node rows e^(i j h y), j = 0 .. m, serve nodes j and -j and follow
    from e^(i h y) by doubling, E[k:2k] = E[:k] e^(i k h y).
    """
    if plan is None:
        plan = BoundaryPlan(dk)
    elif plan.dk is not dk and not np.array_equal(plan.dk, dk, equal_nan=True):
        raise DomainError("boundary-sum plan built on another dk grid")
    zc, half = 0.5 * (z[0] + z[-1]), 0.5 * (z[-1] - z[0])
    h, a, beta, blocks = plan.nodes(half)
    y = z - zc
    ay2 = (a * y) ** 2
    q = np.sqrt(beta ** 2 - ay2)
    # w h / psi^(y) but for the (h / a) e^-beta in B; beta - q without cancelling
    c = w * q * np.exp(ay2 / (beta + q))
    step = np.exp(1j * h * y)
    out = []
    for part, block in blocks:
        if block is None:
            out.append(_direct_boundary_sum(z, w, part))
            continue
        mid, m, cols, taps = block
        rows = np.empty((m + 1, y.size), dtype=complex)
        rows[0] = 1.0
        k, rot = 1, step
        while k <= m:
            n = min(k, m + 1 - k)
            np.multiply(rows[:n], rot, out=rows[k:k + n])
            k, rot = k + n, rot * rot
        d = c * np.exp(1j * mid * y)
        g = np.concatenate([np.conj(rows[1:] @ np.conj(d))[::-1], rows @ d])
        out.append(np.einsum("ij,ij->i", taps, g[cols]) * np.exp(1j * part * zc))
    return np.concatenate(out)


def f_exact(s: PolingStructure, dk_total, plan: BoundaryPlan | None = None):
    """Exact phase-matching function of one explicit structure.

    Sum over domains of the chi(2)-weighted plane-wave integral; valid
    for every mismatch including dk_total = 0 (series limit).  ``plan``,
    a BoundaryPlan built on the flattened dk_total, carries the grid-only
    data of the boundary sum across calls; without one the call builds
    its own.  Either way the result is the same to the last bit.
    """
    dk = np.asarray(dk_total, dtype=float)
    flat = dk if dk.ndim == 1 else dk.ravel()  # a plan's grid stays itself
    w = np.ones(s.n_domains + 1)
    w[1::2] = -1.0
    w[[0, -1]] *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2j / flat * _boundary_sum(s.boundaries, w, flat, plan)
    tiny = np.abs(flat) * s.length < SERIES_SWITCH
    if np.any(tiny):
        # midpoint form, exact to second order in dk * L
        mids = 0.5 * (s.boundaries[1:] + s.boundaries[:-1])
        out[tiny] = (np.exp(1j * flat[tiny][:, None] * mids)
                     * (s.domain_lengths * s.signs)).sum(axis=-1)
    return out[0] if dk.ndim == 0 else out.reshape(dk.shape)


def avg_f2_rps(delta_k, n_domains: int, l0: float, sigma: float):
    """Ensemble mean of |F|^2 for randomly poled (random-walk) structures.

    Closed geometric form in log H, exact, through expm1, so neither
    H^(N_L+1) nor 1 - H is rounded; within |(N_L+1) log H| < 1e-2 of
    H = 1, where it cancels, the exact lag sum over boundary pairs is used.
    H is 1 + expm1(log H), and H^(N_L+1) is taken as 0 below e^-42.
    """
    scalar, dk, dk_tot = _detuned(delta_k, l0)
    m = n_domains + 1
    u = 1j * dk * l0 - sigma ** 2 * dk_tot ** 2 / 4.0  # log H, so H^l = exp(l u)
    out = np.empty(dk.shape, dtype=float)
    ok = np.abs(m * u) > _LAG_SWITCH
    # sum_{l=1}^{m-1} (m - l) H^l = H [expm1(m u) - m expm1(u)] / expm1(u)^2
    uk = u[ok]
    e1 = np.expm1(uk)
    em = np.full(uk.shape, -1.0 + 0j)
    live = m * uk.real >= _POWER_FLOOR
    em[live] = np.expm1(m * uk[live])
    t = (1.0 + e1) * (em - m * e1) / e1 ** 2
    out[ok] = 4.0 / dk_tot[ok] ** 2 * (m + 2.0 * np.real(t))
    if np.any(~ok):
        lag = np.arange(1, m)
        powers = np.exp(np.multiply.outer(u[~ok], lag))
        out[~ok] = 4.0 / dk_tot[~ok] ** 2 * (m + 2.0 * np.real(powers) @ (m - lag))
    return float(out[0]) if scalar else out


def f_chirp(delta_k, n_domains: int, l0: float, zeta: float):
    """Closed-form phase-matching function of a chirped structure.

    Takes the chirp zeta of a chirped StructureSpec, whose generated layout
    z_n = -L + n l0 + zeta' (n - N_L/2)^2 l0^2 has zeta' = zeta / dk0.
    Continuum (stationary-phase) limit of its boundary sum, a difference of
    error functions, F = (2i / dk_tot) e^(i phi) sqrt(pi) / (2 a) [erf(a (N_L/2 +
    beta)) - erf(a (beta - N_L/2))], a = sqrt(-i dk_tot zeta') l0, with the
    real phase phi = -dk_tot N_L l0 + dk l0 N_L / 2 - dk^2 / (4 dk_tot zeta').
    The erf arguments lie on the ray e^(-i s pi/4), s = sign(dk_tot zeta'),
    where erf(e^(-i s pi/4) w) = (1 - i s)(C + i s S)(w sqrt(2/pi)) in the
    Fresnel integrals C, S (DLMF 7.2), so with r = |a|,
    F = (2i / dk_tot) e^(i phi) sqrt(pi/2) / r [dC + i s dS].  Accurate to
    a few percent against the direct sum across the emission band for the
    parameter regime of interest.
    """
    scalar, dk, dk_tot, rate, r, dc, ds = _chirp_fresnel(delta_k, n_domains, l0, zeta)
    phi = -dk_tot * n_domains * l0 + dk * l0 * n_domains / 2.0 - dk ** 2 / (4.0 * rate)
    out = 2j / dk_tot * np.sqrt(0.5 * np.pi) / r * np.exp(1j * phi) \
        * (dc + 1j * np.sign(rate) * ds)
    return complex(out[0]) if scalar else out


def f2_chirp(delta_k, n_domains: int, l0: float, zeta: float):
    """|f_chirp|^2 = 2 pi / (dk_tot r)^2 (dC^2 + dS^2), without the phase."""
    scalar, _, dk_tot, _, r, dc, ds = _chirp_fresnel(delta_k, n_domains, l0, zeta)
    out = 2.0 * np.pi / (dk_tot * r) ** 2 * (dc * dc + ds * ds)
    return float(out[0]) if scalar else out


def _chirp_fresnel(delta_k, n_domains: int, l0: float, zeta: float):
    """(scalar?, dk, dk_tot, dk_tot zeta', r, dC, dS) of f_chirp's Fresnel form."""
    if zeta == 0.0:
        raise DomainError("zeta = 0: use the ideal-structure formulas")
    scalar, dk, dk_tot = _detuned(delta_k, l0)
    rate = dk_tot * (zeta / (np.pi / l0))
    r = np.sqrt(np.abs(rate)) * l0
    beta = dk / (2.0 * rate * l0)
    s, c = _fresnel(np.sqrt(2.0 / np.pi) * r * np.stack([n_domains / 2.0 + beta,
                                                         beta - n_domains / 2.0]))
    return scalar, dk, dk_tot, rate, r, c[0] - c[1], s[0] - s[1]


def _geom(z_re, half, sin_half, half_m, sin_half_m, m: int):
    """sum_{j<m} e^(j z) = expm1(m z) / expm1(z), z = z_re + i th != 0, from
    e^(i th/2), sin(th/2) and their values at m th, exact however small z is:
    expm1(z) = e^(i th/2) (expm1(z_re) e^(i th/2) + 2i sin(th/2))."""
    num = np.expm1(m * z_re) * half_m
    num.imag += 2.0 * sin_half_m
    den = np.expm1(z_re) * half
    den.imag += 2.0 * sin_half
    return half_m * np.conj(half) * num / den


def _lag_sum(u, v, w, m: int):
    """sum_{j<m} c^j (1 + A_{m-1-j} + B_{m-1-j}), A_k = sum_{l=1}^k a^l and
    B_k likewise in b, term by term from the logs u, v, w of a, b, c (1-D)."""
    j = np.arange(m)
    out = np.empty(u.shape, dtype=complex)
    step = max(1, _LAG_TERMS // m)
    for lo in range(0, u.size, step):
        part = slice(lo, lo + step)
        geo = np.cumsum(np.exp(np.multiply.outer(u[part], j)), axis=1)
        geo += np.cumsum(np.exp(np.multiply.outer(v[part], j)), axis=1)
        geo -= 1.0
        out[part] = (np.exp(np.multiply.outer(w[part], j)) * geo[:, ::-1]).sum(axis=1)
    return out


def xcorr_rps(delta_k, delta_k_prime, n_domains: int, l0: float, sigma: float):
    """Cross-correlator <F(dk) F*(dk')> for random-walk structures.

    Exact pairwise boundary average 4 e^(-i D N_L l0) / (dk_tot dk'_tot)
    sum_{j<m} c^j (1 + A_{m-1-j} + B_{m-1-j}), A_k = sum_{l=1}^k a^l, B_k
    likewise, for a = H(dk), b = H(dk')*, c = exp(i D l0 - sigma^2 D^2 / 4),
    D = dk - dk', m = N_L + 1.  Its geometric sums are closed forms in the
    exact logs u, v of a, b and log c through expm1; the lags are summed
    term by term where |m u| or |m v| < _LAG_SWITCH, where these cancel,
    and where they are not finite.  Hermitian; on the diagonal it is
    avg_f2_rps.
    """
    scalar, dk, dk_tot = _detuned(delta_k, l0)
    scalar_p, dkp, dkp_tot = _detuned(delta_k_prime, l0)
    m = n_domains + 1
    u = 1j * dk * l0 - sigma ** 2 * dk_tot ** 2 / 4.0  # log a
    v = -1j * dkp * l0 - sigma ** 2 * dkp_tot ** 2 / 4.0  # log b
    half, half_m = np.exp(0.5j * l0 * dk), np.exp(0.5j * m * l0 * dk)
    half_p, half_mp = np.exp(0.5j * l0 * dkp), np.exp(0.5j * m * l0 * dkp)
    delta = dk - dkp
    rho = -sigma ** 2 / 4.0 * delta ** 2  # log c = rho + i D l0
    h = half * np.conj(half_p)  # e^(i D l0 / 2)
    h_m = half_m * np.conj(half_mp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # sines of D itself: Im h would lose small D
        g0 = _geom(rho, h, np.sin(0.5 * l0 * delta),
                   h_m, np.sin(0.5 * m * l0 * delta), m)  # sum_j c^j
        g0[delta == 0] = m
        # sum_j c^j a^(m-1-j) = c^(m-1) sum_j (a / c)^j, likewise in b
        c_m1 = np.exp((m - 1) * rho) * (h_m * np.conj(h)) ** 2
        ga = c_m1 * _geom(u.real - rho, half_p, half_p.imag, half_mp, half_mp.imag, m)
        gb = c_m1 * _geom(v.real - rho, np.conj(half), -half.imag,
                          np.conj(half_m), -half_m.imag, m)
        # sum_j c^j A_{m-1-j} = (ga - g0) e^u / expm1(u), likewise in b
        s = g0 - (ga - g0) * (1.0 / np.expm1(-u)) - (gb - g0) * (1.0 / np.expm1(-v))
    bad = (np.abs(m * u) < _LAG_SWITCH) | (np.abs(m * v) < _LAG_SWITCH) | ~np.isfinite(s)
    if np.any(bad):
        s[bad] = _lag_sum(np.broadcast_to(u, s.shape)[bad],
                          np.broadcast_to(v, s.shape)[bad],
                          (rho + 1j * l0 * delta)[bad], m)
    out = (2.0 / dk_tot * np.exp(-1j * n_domains * l0 * dk)
           * (2.0 / dkp_tot * np.exp(1j * n_domains * l0 * dkp)) * s)
    return complex(out[0]) if scalar and scalar_p else out

