"""Temporal correlations of the photon pair.

Hong-Ou-Mandel (HOM) coincidence traces, sum-frequency intensity
traces, and quadratic spectral-phase fit/compensation, all in the cw-pump
regime where the two-photon state lives on the slice
omega_i = omega_p0 - omega_s (ProcessConfig's constants).  Only trace
math lives here: a source reaches its model through spectra (_f2,
_xcorr), an ensemble draws its layouts through the caller's draw(i),
and every trace takes its delay grid tau explicitly.

For the degenerate same-polarization process the collinear mismatch is
symmetric under exchange of the signal and idler frequencies, so the
cross-correlator entering the HOM trace collapses onto its diagonal,
the mean squared phase-matching function.  This makes the HOM dip a
pure Fourier transform of the spectral density -- the origin of
nonlocal dispersion cancellation: a phase common to signal and idler
leaves the dip unchanged.  The HOM trace of a SpectralSlice reads its
reversed amplitude as the exchanged one, and the analytic ensemble
sum-frequency trace halves its correlator by the same exchange: both
refuse a grid not mirrored about omega_s0 to _MIRROR_TOL of omega_s0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectra import (ProcessConfig, SpectralGrid, SpectralSlice, _cw_slice,
                      _f2, _xcorr, fwhm, map_realizations, two_photon_amplitude)
from .structures import StructureSpec

_TAU_CHUNK = 256
_ROW_BLOCK = 16  # correlator rows per block: its temporaries stay under the resident floor
_MIRROR_TOL = 1e-12  # grid asymmetry about omega_s0, per unit omega_s0, that exchange allows
# largest phase error (rad) that grid rounding may cause in the transform
_PHASE_TOL = 1e-12
WEIGHT_FLOOR = 1e-3  # fraction of peak |Phi|^2 below which phase is meaningless
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # the golden section's shrink factor


@dataclass(frozen=True)
class TemporalTrace:
    """Real-valued trace on a uniform delay grid."""

    tau: np.ndarray
    values: np.ndarray


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _direct_oscillatory_sum(tau: np.ndarray, freq: np.ndarray, amp: np.ndarray):
    """sum_q amp_q exp(-i tau freq_q), chunked over tau."""
    out = np.empty(tau.size, dtype=complex)
    for lo in range(0, tau.size, _TAU_CHUNK):
        hi = min(lo + _TAU_CHUNK, tau.size)
        e = np.exp(-1j * np.outer(tau[lo:hi], freq))
        out[lo:hi] = (e * amp).sum(axis=1)
    return out


def _progression_error(x: np.ndarray) -> float:
    """Largest deviation of x from the arithmetic progression through its ends."""
    step = (x[-1] - x[0]) / (x.size - 1)
    return float(np.max(np.abs(x - (x[0] + step * np.arange(x.size)))))


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n, a size pocketfft transforms fast
    (k is 11-smooth iff it divides 2310^j, 2310 = 2*3*5*7*11, j >= log2 k)."""
    while pow(2310, n.bit_length(), n):
        n += 1
    return n


def _oscillatory_sum(tau: np.ndarray, freq: np.ndarray, amp: np.ndarray):
    """sum_q amp_q exp(-i tau_j freq_q) by a Bluestein chirp-z transform.

    On progressions tau_j = tau_0 + j dtau, freq_q = f_0 + q df the
    kernel exp(-i theta jq), theta = dtau df, is one FFT convolution of
    chirps exp(-i theta k^2 / 2), evaluated from exact integer k.
    Grids with fewer than two points take the direct sum, as do grids
    whose phase error exceeds _PHASE_TOL by either bound: their deviation
    from a progression, or the rounding (2^-52 relative) of the largest
    chirp phase theta max(m, n)^2 / 2.  Rows at tau = 0 are amp.sum()
    exactly.
    """
    m, n = tau.size, freq.size
    if m < 2 or n < 2:
        return _direct_oscillatory_sum(tau, freq, amp)
    theta = (tau[-1] - tau[0]) / (m - 1) * (freq[-1] - freq[0]) / (n - 1)
    drift = np.ptp(tau) * _progression_error(freq) + _progression_error(tau) * np.ptp(freq)
    rounding = abs(theta) * max(m, n) ** 2 / 2 * 2.0 ** -52
    if max(drift, rounding) > _PHASE_TOL:
        return _direct_oscillatory_sum(tau, freq, amp)
    k = np.arange(max(m, n), dtype=float)
    chirp = np.exp(-0.5j * theta * k ** 2)
    size = _next_fast_len(m + n - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
    x = amp * np.exp(-1j * tau[0] * (freq - freq[0])) * chirp[:n]
    conv = np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(kernel))[:m]
    out = np.exp(-1j * tau * freq[0]) * chirp[:m] * conv
    out[tau == 0] = amp.sum()
    return out


def _check_mirror_grid(omega_s: np.ndarray) -> None:
    """Refuse a grid that exchange omega_s <-> omega_i = 2 omega_s0 - omega_s
    does not reverse, to _MIRROR_TOL of omega_s0."""
    omega_s0 = ProcessConfig.omega_s0
    if np.max(np.abs(omega_s + omega_s[::-1] - 2.0 * omega_s0)) > _MIRROR_TOL * omega_s0:
        raise DomainError("exchange-symmetric traces need a grid symmetric "
                          "about omega_s0")


def _hom_weights(source, cfg: ProcessConfig, model, grid: SpectralGrid):
    """Spectral weights W(omega_s) whose transform gives the dip."""
    if isinstance(source, SpectralSlice):
        omega_s, omega_i, phi = source.grid.omega_s, source.omega_i, source.values
        _check_mirror_grid(omega_s)
        # exchange omega_s <-> omega_i reverses the symmetric grid
        return omega_s, omega_s * omega_i * phi * np.conj(phi[::-1]), \
            omega_s * omega_i * np.abs(phi) ** 2
    omega_s = grid.omega_s
    omega_i, *_, dk_tot, g = _cw_slice(cfg, model, omega_s)
    w = omega_s * omega_i * np.abs(g) ** 2 * _f2(source, dk_tot)
    return omega_s, w.astype(complex), w


def hom_trace(source, cfg: ProcessConfig, model, grid: SpectralGrid,
              tau: np.ndarray) -> TemporalTrace:
    """Normalized HOM coincidence rate R_n(tau) = 1 - rho(tau).

    Accepts an explicit structure, an analytic-family spec (ensemble
    average), or a SpectralSlice carrying an arbitrary spectral phase.
    Identical quadrature weights in numerator and denominator make
    R_n(0) vanish exactly for exchange-symmetric amplitudes.
    """
    omega_s, interf, base = _hom_weights(source, cfg, model, grid)
    wq = _trapezoid_weights(omega_s)
    # summed as the complex tau = 0 row is, so that R_n(0) is exactly 0
    r0 = float(np.real((wq * base).astype(complex).sum()))
    if r0 <= 0:
        raise DomainError("empty spectrum: R0 = 0")
    rho = np.real(_oscillatory_sum(tau, 2.0 * (omega_s - cfg.omega_s0), wq * interf)) / r0
    return TemporalTrace(tau, 1.0 - rho)


def entanglement_time(trace: TemporalTrace) -> float:
    """FWHM of the HOM dip 1 - R_n."""
    dip = 1.0 - trace.values
    if dip.max() < 0.1:
        raise DomainError("no dip: depth below 0.1")
    return fwhm(trace.tau, dip)


def _area_normalized(tau: np.ndarray, intensity: np.ndarray) -> TemporalTrace:
    area = np.trapezoid(intensity, tau)
    if area <= 0:
        raise DomainError("sum-frequency trace has zero area")
    return TemporalTrace(tau, intensity / area)


def _slice_trace(slice_: SpectralSlice, tau: np.ndarray) -> TemporalTrace:
    """Area-normalized sum-frequency trace of an amplitude slice."""
    omega_s = slice_.grid.omega_s
    amp = np.sqrt(omega_s * slice_.omega_i) * slice_.values
    field = _oscillatory_sum(tau, omega_s - ProcessConfig.omega_s0,
                             _trapezoid_weights(omega_s) * amp)
    return _area_normalized(tau, np.abs(field) ** 2)


def sumfreq_trace(source, cfg: ProcessConfig, model, grid: SpectralGrid,
                  tau: np.ndarray, compensation: str = "none") -> TemporalTrace:
    """Area-normalized sum-frequency intensity trace I_sum(tau).

    Single realizations and chirped structures go through their
    amplitude slice (to which the compensation mode is applied first).
    An rps spec uses the analytic cross-correlator; only the
    uncompensated trace is available that way -- use
    sumfreq_ensemble_mc for compensated ensemble traces.
    """
    if isinstance(source, StructureSpec) and source.kind == "rps":
        if compensation != "none":
            raise DomainError(
                "analytic ensembles support compensation='none' only; "
                "use sumfreq_ensemble_mc"
            )
        return _sumfreq_ensemble_analytic(source, cfg, model, grid, tau)
    slice_ = source if isinstance(source, SpectralSlice) \
        else two_photon_amplitude(source, cfg, model, grid)
    return _slice_trace(compensate(slice_, compensation), tau)


def _sumfreq_ensemble_analytic(spec: StructureSpec, cfg, model,
                               grid: SpectralGrid, tau: np.ndarray) -> TemporalTrace:
    """I(tau) = Re sum_{q,c} M_qc exp(-i tau (omega_q - omega_c)): on the
    uniform grid, one transform of M's sums over the lags q - c >= 0, as M
    is Hermitian.  On a grid mirrored about omega_s0, exchange omega_s <->
    omega_i makes M_qc the conjugate of M at (n-1-c, n-1-q), at the same lag:
    only c <= min(q, n-1-q) is made, _ROW_BLOCK rows at a time, as 2 Re M_qc."""
    omega_s = grid.omega_s
    _check_mirror_grid(omega_s)
    omega_i, *_, dk_tot, g = _cw_slice(cfg, model, omega_s)
    a = np.sqrt(omega_s * omega_i) * g * _trapezoid_weights(omega_s)
    n = omega_s.size
    lag_sums = np.zeros(n)
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        width = min(r1, n - r0)  # the columns c <= min(q, n-1-q) of these rows
        block = _xcorr(spec, dk_tot[r0:r1, None], dk_tot[None, :width])
        block *= a[r0:r1, None] * np.conj(a[:width])
        for i, q in enumerate(range(r0, r1)):
            c = min(q, n - 1 - q)
            row = 2.0 * block[i, c::-1].real
            row[0] /= 1 + (c == n - 1 - q)  # (q, n-1-q) is its own mirror
            lag_sums[q - c:q + 1] += row
    lag_sums[1:] *= 2.0  # Re(D e^(-i phi)) = Re(conj(D) e^(i phi))
    spacing = (omega_s[-1] - omega_s[0]) / (n - 1)
    intensity = np.real(_oscillatory_sum(tau, np.arange(n) * spacing, lag_sums))
    return _area_normalized(tau, intensity)


def sumfreq_ensemble_mc(draw, cfg: ProcessConfig, model, grid: SpectralGrid,
                        realizations: int, tau: np.ndarray,
                        compensation: str = "none") -> TemporalTrace:
    """Monte Carlo ensemble mean of the sum-frequency traces of the layouts
    draw(0) .. draw(realizations - 1)."""
    if realizations < 1:
        raise DomainError("need at least one realization")

    def observe(g, f):
        slice_ = SpectralSlice(grid, g * f)
        return _slice_trace(compensate(slice_, compensation), tau).values

    traces = map_realizations(draw, realizations, cfg, model, grid, observe)
    return _area_normalized(tau, sum(traces))


def fit_quadratic_phase(slice_: SpectralSlice):
    """Weighted least-squares quadratic fit of the unwrapped phase.

    Samples where |Phi|^2 falls below WEIGHT_FLOOR of its peak are left
    out; each contiguous run above the floor is unwrapped on its own.
    Squared residuals weigh |Phi|^2 (polyfit's w = |Phi|); returns the
    coefficients (c0, c1, c2) of c0 + c1 x + c2 x^2 in
    x = omega_s - omega_s0.
    """
    weights = np.abs(slice_.values) ** 2
    peak = weights.max()
    if peak <= 0:
        raise DomainError("zero amplitude everywhere")
    idx = np.nonzero(weights >= WEIGHT_FLOOR * peak)[0]
    if idx.size < 3:
        raise DomainError("degenerate fit: fewer than three weighted samples")
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
    phase = np.concatenate([np.unwrap(np.angle(slice_.values[r])) for r in runs])
    x = slice_.grid.omega_s[idx] - ProcessConfig.omega_s0
    coeffs = np.polynomial.polynomial.polyfit(x, phase, 2, w=np.sqrt(weights[idx]))
    return tuple(float(c) for c in coeffs)


def _apply_phase(slice_: SpectralSlice, c0: float, c1: float, c2: float):
    x = slice_.grid.omega_s - ProcessConfig.omega_s0
    corr = np.exp(-1j * (c0 + c1 * x + c2 * x ** 2))
    return SpectralSlice(slice_.grid, slice_.values * corr)


def _golden_min(f, lo: float, hi: float, xatol: float):
    """(x, f(x)) at a local minimum of f on [lo, hi], the best point probed,
    by golden-section search (J. Kiefer, Proc. Am. Math. Soc. 4, 502 (1953)):
    each probe after the first two shrinks the bracket by _INV_GOLDEN, until
    it is at most xatol long, so f is called
    2 + ceil(ln(xatol / (hi - lo)) / ln _INV_GOLDEN) times."""
    a, b = lo, hi
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(math.ceil(math.log(xatol / (hi - lo)) / math.log(_INV_GOLDEN))):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def compensate(slice_: SpectralSlice, mode: str) -> SpectralSlice:
    """Spectral-phase compensation of the amplitude slice.

    none      -- identity.
    quadratic -- remove the best quadratic phase: start from the
                 weighted least-squares fit (exact for an injected
                 quadratic) and refine the curvature by a golden-section
                 search for the narrowest sum-frequency trace, keeping the
                 refinement only if it narrows the trace by 1e-3.  A probe
                 whose trace overruns the +-500 fs probe window counts as
                 +inf wide.  This models the best achievable quadratic
                 compensator.
    ideal     -- replace the amplitude by its modulus.
    """
    if mode == "none":
        return slice_
    if mode == "ideal":
        return SpectralSlice(slice_.grid, np.abs(slice_.values))
    if mode != "quadratic":
        raise DomainError(f"unknown compensation mode {mode!r}")
    c0, c1, c2 = fit_quadratic_phase(slice_)
    tau = np.linspace(-500e-15, 500e-15, 4096)  # width probes over +-500 fs

    def width_at(curv: float) -> float:
        trace = _slice_trace(_apply_phase(slice_, c0, c1, curv), tau)
        try:
            return fwhm(trace.tau, trace.values)
        except DomainError:  # wider than the window: never the narrowest
            return math.inf

    weights = np.abs(slice_.values) ** 2
    x = slice_.grid.omega_s - ProcessConfig.omega_s0
    band = np.sqrt(np.sum(weights * x ** 2) / np.sum(weights))
    scale = max(abs(c2), 1.0 / band ** 2)
    base_width = width_at(c2)
    curv, width = _golden_min(width_at, c2 - 5.0 * scale, c2 + 5.0 * scale,
                              scale * 1e-4)
    best = curv if width < base_width * (1.0 - 1e-3) else c2
    return _apply_phase(slice_, c0, c1, best)
