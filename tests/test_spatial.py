from dataclasses import replace

import numpy as np
import pytest

from conftest import angular_grid

from randpoled import RandomSource, StructureSpec, spatial
from randpoled.spatial import (AngularGrid, SpatialError,
                               angular_spectral_density, correlated_area,
                               correlated_width_scan)
from randpoled.dispersion import SPEED_OF_LIGHT
from randpoled.spectra import CHI2_EFFECTIVE, _cw_slice, _f2


@pytest.fixture(scope="module")
def rps(l0):
    return StructureSpec("rps", 700, l0, sigma=2.1e-6)


@pytest.fixture(scope="module")
def cpps(l0):
    return StructureSpec("chirped", 700, l0, zeta=2.5e6)


@pytest.fixture(scope="module")
def agrid(cfg):
    return angular_grid(cfg.omega_s0, n_theta_s=48, theta_max=0.04,
                        n_theta_i=96, n_phi=48, n_omega=151)


class TestGrid:
    def test_default_shapes(self, cfg):
        g = angular_grid(cfg.omega_s0)
        assert g.theta_s.size == 64 and g.theta_i.size == 128
        assert g.phi_i.size == 64 and g.omega_s.size == 201
        assert g.theta_s[0] == 0.0 and g.theta_s[-1] == 0.05

    def test_validation(self, cfg):
        with pytest.raises(SpatialError):
            AngularGrid(np.array([-0.01, 0.0]), np.array([0.0]),
                        np.array([0.0]), np.array([cfg.omega_s0]))
        with pytest.raises(SpatialError):
            AngularGrid(np.zeros((2, 2)), np.array([0.0]),
                        np.array([0.0]), np.array([cfg.omega_s0]))


class TestAngularDensity:
    def test_shape_and_convergence(self, cfg, model, rps, agrid):
        dm = angular_spectral_density(rps, cfg, model, agrid)
        assert dm.shape == (agrid.omega_s.size, agrid.theta_s.size)
        # the idler grids doubled move the density by under 2 % of its peak
        fine = AngularGrid(
            theta_s=agrid.theta_s,
            theta_i=np.linspace(agrid.theta_i[0], agrid.theta_i[-1],
                                2 * agrid.theta_i.size - 1),
            phi_i=np.linspace(0.0, 2.0 * np.pi, 2 * agrid.phi_i.size,
                              endpoint=False),
            omega_s=agrid.omega_s)
        ref = angular_spectral_density(rps, cfg, model, fine)
        assert np.max(np.abs(dm - ref)) / ref.max() < 0.02

    def test_on_axis_measure_zero(self, cfg, model, rps, agrid):
        dm = angular_spectral_density(rps, cfg, model, agrid)
        assert np.all(dm[:, 0] == 0.0)
        assert np.all(dm >= 0.0)

    def test_radial_profile_ring(self, cfg, model, rps, agrid):
        # degenerate backward-mismatch phase matching emits into a cone
        dm = angular_spectral_density(rps, cfg, model, agrid)
        profile = np.trapezoid(dm, agrid.omega_s, axis=0)
        peak = agrid.theta_s[np.argmax(profile)]
        assert peak == pytest.approx(0.023829787234042554, rel=1e-12)

    def test_off_axis_spectral_splitting(self, cfg, model, rps, agrid):
        # at finite angle the spectrum splits into two lobes around
        # degeneracy, so the center drops well below the maxima
        dm = angular_spectral_density(rps, cfg, model, agrid)
        col = dm[:, -1]
        center = col[agrid.omega_s.size // 2]
        assert center < 0.7 * col.max()

    def test_frequency_past_pump_rejected(self, cfg):
        with pytest.raises(SpatialError):
            AngularGrid(np.array([0.0, 0.01]), np.array([0.0, 0.01]),
                        np.array([0.0]),
                        np.array([0.5 * cfg.omega_p0, 1.5 * cfg.omega_p0]))


class TestCorrelatedArea:
    def test_on_axis_isotropic_in_phi(self, cfg, model, rps, agrid):
        area = correlated_area(rps, cfg, model, agrid, theta_s=0.0)
        assert area.shape == (agrid.theta_i.size, agrid.phi_i.size)
        spread = np.ptp(area, axis=1)
        assert np.max(spread) < 1e-9 * area.max()

    def test_off_axis_prefers_opposite_azimuth(self, cfg, model, rps, agrid):
        # transverse momentum balance pushes the idler to phi_i = pi
        # when the signal sits at phi_s = 0
        area = correlated_area(rps, cfg, model, agrid, theta_s=0.015,
                               phi_s=0.0)
        j = np.unravel_index(np.argmax(area), area.shape)[1]
        phi_peak = agrid.phi_i[j]
        assert abs(phi_peak - np.pi) < 2 * (agrid.phi_i[1] - agrid.phi_i[0])

    def test_width_scan_frozen(self, cfg, model, rps, cpps):
        widths = np.array([5e-6, 5e-4])
        om = np.linspace(0.9, 1.1, 101) * cfg.omega_s0
        rows = correlated_width_scan(rps, cfg, model, widths, om)
        assert rows[0]["delta_theta_i"] == pytest.approx(
            0.03309376656187418, rel=1e-10)
        assert rows[1]["delta_theta_i"] == pytest.approx(
            0.00037304263534586324, rel=1e-10)
        rows_c = correlated_width_scan(cpps, cfg, model, widths, om)
        assert rows_c[1]["delta_theta_i"] == pytest.approx(
            0.00037271168364551305, rel=1e-10)

    def test_width_shrinks_with_pump(self, cfg, model, rps):
        widths = np.geomspace(1e-5, 1e-3, 5)
        om = np.linspace(0.9, 1.1, 81) * cfg.omega_s0
        d = [r["delta_theta_i"]
             for r in correlated_width_scan(rps, cfg, model, widths, om)]
        assert all(a > b for a, b in zip(d, d[1:]))
        assert d[0] / d[-1] > 20.0

    def test_rps_matches_chirped_at_wide_pump(self, cfg, model, rps, cpps):
        # pump-diffraction-limited regime: structure details drop out
        om = np.linspace(0.9, 1.1, 81) * cfg.omega_s0
        wr = correlated_width_scan(rps, cfg, model, [3e-4], om)[0]
        wc = correlated_width_scan(cpps, cfg, model, [3e-4], om)[0]
        assert wc["delta_theta_i"] == pytest.approx(
            wr["delta_theta_i"], rel=0.1)

    def test_explicit_structure_accepted(self, cfg, model, rps, agrid):
        s = rps.generate(RandomSource(4))
        area = correlated_area(s, cfg, model, agrid, theta_s=0.0)
        assert np.all(np.isfinite(area))
        assert area.max() > 0

    def test_ideal_spec_matches_its_layout(self, cfg, model, agrid, l0):
        spec = correlated_area(StructureSpec("ideal", 700, l0), cfg, model, agrid)
        layout = correlated_area(StructureSpec("ideal", 700, l0).generate(None), cfg,
                                 model, agrid)
        assert np.array_equal(spec, layout)
        assert layout.max() > 0


def _row_terms(source, cfg, model, om, theta_s, phi_s, th_i, phi_i):
    """Oracle terms of one theta_i row: g2, |F|^2 over omega_s from its own
    spectra._f2 call, and the pump factor over (omega_s, phi_i), from its own
    wavenumbers and coupling |g|^2 = ws wi chi2^2 / (2 c pi)^2 / (ns ni)."""
    wi = cfg.omega_p0 - om
    k_s, k_i = model.wavenumber(om), model.wavenumber(wi)
    k_p = model.wavenumber(np.full_like(om, cfg.omega_p0))
    g2 = (om * wi * CHI2_EFFECTIVE ** 2 / (2 * SPEED_OF_LIGHT * np.pi) ** 2
          / (model.refractive_index(om) * model.refractive_index(wi)))
    f2 = _f2(source, k_p - k_s * np.cos(theta_s) - k_i * np.cos(th_i))
    b = (k_i * np.sin(th_i))[:, None]
    dkx = (k_s * np.sin(theta_s) * np.sin(phi_s))[:, None] + b * np.sin(phi_i)
    dky = (k_s * np.sin(theta_s) * np.cos(phi_s))[:, None] + b * np.cos(phi_i)
    w = cfg.pump_width
    trans = np.exp(-(dkx ** 2 * w ** 2 + dky ** 2 * w ** 2) / 2)
    return g2, f2, trans


class TestWholeGridResponse:
    """The whole-grid spatial layer against per-angle oracles."""

    SPECS = {"rps": dict(sigma=2.1e-6), "chirped": dict(zeta=2.5e6), "ideal": {}}

    @pytest.fixture(scope="class", params=[*SPECS, "explicit"])
    def source(self, request, l0):
        if request.param == "explicit":
            return StructureSpec("rps", 700, l0, sigma=2.1e-6).generate(
                RandomSource(7))
        return StructureSpec(request.param, 700, l0, **self.SPECS[request.param])

    @pytest.mark.parametrize("n_phi", [1, 6])
    def test_correlated_area_matches_per_angle(self, cfg, model, source, n_phi):
        grid = angular_grid(cfg.omega_s0, theta_max=0.04, n_theta_i=24,
                            n_phi=n_phi, n_omega=61)
        for theta_s, phi_s in ((0.0, 0.0), (0.015, 0.4)):
            want = np.empty((grid.theta_i.size, n_phi))
            for j, th_i in enumerate(grid.theta_i):
                g2, f2, trans = _row_terms(source, cfg, model, grid.omega_s,
                                           theta_s, phi_s, th_i, grid.phi_i)
                want[j] = np.sin(th_i) * np.trapezoid(
                    (g2 * f2)[:, None] * trans, grid.omega_s, axis=0)
            if theta_s > 0:
                want *= np.sin(theta_s)
            got = correlated_area(source, cfg, model, grid, theta_s, phi_s)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("n_phi", [1, 6])
    def test_blocked_area_matches_whole_grid(self, cfg, model, source, n_phi):
        # closed forms reduce each theta_i row alone: the same bits; boundary
        # sums build their plan on another dk block
        base = angular_grid(cfg.omega_s0, n_phi=n_phi, n_omega=201)
        rows = spatial._BLOCK // (base.omega_s.size * n_phi)
        assert rows > 1
        exact = isinstance(source, StructureSpec) and source.kind != "ideal"
        for n_theta in (1, rows - 1, rows, rows + 1, 320):
            grid = replace(base, theta_i=np.linspace(2e-3, 0.04, n_theta))
            for theta_s, phi_s in ((0.0, 0.0), (0.015, 0.4)):
                got = correlated_area(source, cfg, model, grid, theta_s, phi_s)
                want = _whole_grid_area(source, cfg, model, grid, theta_s, phi_s)
                assert got.shape == want.shape and want.max() > 0
                if exact:
                    assert np.array_equal(got, want), n_theta
                else:
                    assert np.max(np.abs(got - want)) <= 1e-12 * want.max(), n_theta

    @pytest.mark.parametrize("n_phi", [1, 6])
    def test_angular_density_matches_per_angle(self, cfg, model, source, n_phi):
        grid = angular_grid(cfg.omega_s0, n_theta_s=4, theta_max=0.04,
                            n_theta_i=24, n_phi=n_phi, n_omega=61)
        wt = np.gradient(grid.theta_i)
        dphi = 2 * np.pi / n_phi
        want = np.zeros((grid.omega_s.size, grid.theta_s.size))
        for m, th_s in enumerate(grid.theta_s):
            for j, th_i in enumerate(grid.theta_i):
                g2, f2, trans = _row_terms(source, cfg, model, grid.omega_s,
                                           th_s, 0.0, th_i, grid.phi_i)
                want[:, m] += wt[j] * np.sin(th_i) * g2 * f2 * trans.sum(axis=1) * dphi
            want[:, m] *= np.sin(th_s)
        got = angular_spectral_density(source, cfg, model, grid)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def _whole_grid_area(source, cfg, model, grid, theta_s, phi_s):
    """correlated_area in one shot over the whole (theta_i, omega_s, phi_i)
    grid: the oracle of its theta_i blocks."""
    _, k_s, k_i, k_p, _, g = _cw_slice(cfg, model, grid.omega_s)
    g2 = np.abs(g) ** 2
    f2, trans = spatial._idler_terms(source, cfg, k_s, k_i, k_p, theta_s, phi_s,
                                     grid.theta_i, grid.phi_i)
    integ = np.trapezoid((g2 * f2)[..., None] * trans, grid.omega_s, axis=1)
    values = np.sin(grid.theta_i)[:, None] * integ
    return values * np.sin(theta_s) if theta_s > 0 else values
