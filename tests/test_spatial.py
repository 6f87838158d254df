import numpy as np
import pytest

from randpoled import ProcessConfig, RandomSource, StructureSpec, gen_ideal
from randpoled.spatial import (AngularGrid, SpatialError,
                               angular_spectral_density, correlated_area,
                               correlated_width_scan, pump_transverse_spectrum,
                               radial_photon_density, spatial_amplitude)
from randpoled.spectra import fwhm


@pytest.fixture(scope="module")
def rps(l0):
    return StructureSpec("rps", 700, l0, sigma=2.1e-6)


@pytest.fixture(scope="module")
def cpps(l0):
    return StructureSpec("chirped", 700, l0, zeta=2.5e6)


@pytest.fixture(scope="module")
def agrid(cfg):
    return AngularGrid.default(cfg.omega_s0, n_theta_s=48, theta_max=0.04,
                               n_theta_i=96, n_phi=48, n_omega=151)


class TestGrid:
    def test_default_shapes(self, cfg):
        g = AngularGrid.default(cfg.omega_s0)
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


class TestPumpSpectrum:
    def test_gaussian_form(self, cfg):
        kx, ky = 3.0e4, -1.5e4
        want = np.exp(-(kx ** 2 * cfg.pump_dx ** 2
                        + ky ** 2 * cfg.pump_dy ** 2) / 4.0)
        assert pump_transverse_spectrum(kx, ky, cfg) == pytest.approx(
            want, rel=1e-14)
        assert pump_transverse_spectrum(0.0, 0.0, cfg) == 1.0

    def test_narrower_pump_wider_spectrum(self, cfg):
        from dataclasses import replace
        tight = replace(cfg, pump_dx=cfg.pump_dx / 5, pump_dy=cfg.pump_dy / 5)
        k = 2.0e5
        assert pump_transverse_spectrum(k, 0.0, tight) > \
            pump_transverse_spectrum(k, 0.0, cfg)


class TestAmplitude:
    def test_frozen_value(self, cfg, model, rps):
        s = rps.generate(RandomSource(2))
        amp = spatial_amplitude(
            s, cfg, model, cfg.omega_s0 * 1.02,
            cfg.omega_p0 - cfg.omega_s0 * 1.02, 0.01, 0.0, 0.012, np.pi)
        assert amp == pytest.approx(
            -2.191662577041151e-10 + 2.5192398759277164e-10j, rel=1e-12)

    def test_collinear_matches_longitudinal(self, cfg, model, rps):
        # on-axis emission reduces to the purely longitudinal amplitude
        from randpoled.phasematch import f_exact
        from randpoled.spectra import coupling_g
        s = rps.generate(RandomSource(5))
        ws = cfg.omega_s0 * 0.99
        wi = cfg.omega_p0 - ws
        amp = spatial_amplitude(s, cfg, model, ws, wi, 0.0, 0.0, 0.0, 0.0)
        dk = model.collinear_mismatch(ws, wi)
        want = coupling_g(ws, wi, cfg, model) * cfg.pump_amplitude \
            * f_exact(s, dk)
        assert amp == pytest.approx(want, rel=1e-12)

    def test_ensemble_spec_rejected(self, cfg, model, rps):
        with pytest.raises(SpatialError):
            spatial_amplitude(rps, cfg, model, cfg.omega_s0, cfg.omega_s0,
                              0.0, 0.0, 0.0, 0.0)


class TestAngularDensity:
    def test_shape_and_convergence(self, cfg, model, rps, agrid):
        dm = angular_spectral_density(rps, cfg, model, agrid,
                                      check_convergence=True)
        assert dm.values.shape == (agrid.omega_s.size, agrid.theta_s.size)
        assert dm.meta["converged"]
        assert dm.meta["convergence_error"] < 0.02

    def test_on_axis_measure_zero(self, cfg, model, rps, agrid):
        dm = angular_spectral_density(rps, cfg, model, agrid)
        assert np.all(dm.values[:, 0] == 0.0)
        assert np.all(dm.values >= 0.0)

    def test_radial_profile_ring(self, cfg, model, rps, agrid):
        # degenerate backward-mismatch phase matching emits into a cone
        prof = radial_photon_density(
            angular_spectral_density(rps, cfg, model, agrid))
        assert prof.normalization == "unit-peak"
        peak = prof.coords[0][np.argmax(prof.values)]
        assert peak == pytest.approx(0.023829787234042554, rel=1e-12)
        assert prof.values.max() == 1.0

    def test_off_axis_spectral_splitting(self, cfg, model, rps, agrid):
        # at finite angle the spectrum splits into two lobes around
        # degeneracy, so the center drops well below the maxima
        dm = angular_spectral_density(rps, cfg, model, agrid)
        col = dm.values[:, -1]
        center = col[agrid.omega_s.size // 2]
        assert center < 0.7 * col.max()

    def test_radial_profile_axis_check(self, cfg, model, rps, agrid):
        dm = angular_spectral_density(rps, cfg, model, agrid)
        prof = radial_photon_density(dm)
        with pytest.raises(SpatialError):
            radial_photon_density(prof)

    def test_frequency_past_pump_rejected(self, cfg, model, rps):
        bad = AngularGrid(np.array([0.0, 0.01]), np.array([0.0, 0.01]),
                          np.array([0.0]),
                          np.array([0.5 * cfg.omega_p0, 1.5 * cfg.omega_p0]))
        with pytest.raises(SpatialError):
            angular_spectral_density(rps, cfg, model, bad)


class TestCorrelatedArea:
    def test_on_axis_isotropic_in_phi(self, cfg, model, rps, agrid):
        area = correlated_area(rps, cfg, model, agrid, theta_s=0.0)
        assert area.values.shape == (agrid.theta_i.size, agrid.phi_i.size)
        spread = np.ptp(area.values, axis=1)
        assert np.max(spread) < 1e-9 * area.values.max()

    def test_off_axis_prefers_opposite_azimuth(self, cfg, model, rps, agrid):
        # transverse momentum balance pushes the idler to phi_i = pi
        # when the signal sits at phi_s = 0
        area = correlated_area(rps, cfg, model, agrid, theta_s=0.015,
                               phi_s=0.0)
        j = np.unravel_index(np.argmax(area.values), area.values.shape)[1]
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
        assert np.all(np.isfinite(area.values))
        assert area.values.max() > 0

    def test_ideal_spec_matches_its_layout(self, cfg, model, agrid, l0):
        spec = correlated_area(StructureSpec("ideal", 700, l0), cfg, model, agrid)
        layout = correlated_area(gen_ideal(700, l0), cfg, model, agrid)
        assert np.array_equal(spec.values, layout.values)
        assert layout.values.max() > 0
