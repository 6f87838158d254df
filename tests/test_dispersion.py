import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples

from randpoled import DispersionError, DispersionModel, omega_from_wavelength
from randpoled.dispersion import BAND_MAX, BAND_MIN, wavelength_from_omega


class TestRefractiveIndex:
    def test_reference_value_1550nm_297k(self, model):
        # frozen from an independent 30-digit evaluation of the Jundt
        # (1997) extraordinary Sellmeier at 1.55 um, 23.85 C
        omega = omega_from_wavelength(1.55e-6)
        assert model.refractive_index(omega) == pytest.approx(
            2.1378370647888923, rel=1e-14)

    def test_reference_value_775nm_297k(self, model):
        omega = omega_from_wavelength(0.775e-6)
        assert model.refractive_index(omega) == pytest.approx(
            2.1786731569308162, rel=1e-14)

    def test_normal_dispersion_near_degeneracy(self, model):
        # index decreases with wavelength over the near infrared
        n1 = model.refractive_index(omega_from_wavelength(1.3e-6))
        n2 = model.refractive_index(omega_from_wavelength(1.8e-6))
        assert n1 > n2

    def test_temperature_raises_index(self, cfg):
        cold = DispersionModel(temperature=290.0)
        hot = DispersionModel(temperature=320.0)
        omega = omega_from_wavelength(1.55e-6)
        assert hot.refractive_index(omega) > cold.refractive_index(omega)

    @pytest.mark.parametrize("temperature", [-5.0, 0.0, np.nan, np.inf, -np.inf])
    def test_temperature_must_be_positive_kelvin(self, temperature):
        with pytest.raises(DispersionError, match="positive finite number of kelvin"):
            DispersionModel(temperature=temperature)

    def test_out_of_band_rejected(self, model):
        with pytest.raises(DispersionError):
            model.refractive_index(omega_from_wavelength(0.3e-6))
        with pytest.raises(DispersionError):
            model.refractive_index(omega_from_wavelength(5e-6))

    def test_array_input(self, model):
        lam = np.array([1.3e-6, 1.55e-6, 1.8e-6])
        n = model.refractive_index(omega_from_wavelength(lam))
        assert n.shape == (3,)
        assert np.all((n > 2.0) & (n < 2.3))


class TestMismatch:
    def test_design_mismatch_and_period(self, cfg, model):
        # frozen from the same independent evaluation
        dk0 = model.collinear_mismatch(cfg.omega_s0, cfg.omega_s0)
        assert dk0 == pytest.approx(331071.91503066894, rel=1e-12)
        assert model.qpm_period(cfg.omega_s0, cfg.omega_s0) == pytest.approx(
            9.4891548058335633e-6, rel=1e-12)

    def test_mismatch_symmetric_in_signal_idler(self, cfg, model):
        ws = 1.1 * cfg.omega_s0
        wi = 0.9 * cfg.omega_s0
        assert model.collinear_mismatch(ws, wi) == model.collinear_mismatch(wi, ws)

    def test_mismatch_positive_across_band(self, model):
        # normal dispersion: collinear degenerate mismatch stays positive,
        # so first-order poling is always applicable
        for lam in (1.2e-6, 1.55e-6, 2.0e-6, 3.0e-6):
            w = omega_from_wavelength(lam)
            assert model.collinear_mismatch(w, w) > 0


@given(lam=st.floats(min_value=BAND_MIN * 1.01, max_value=BAND_MAX * 0.99))
@settings(max_examples=examples(50), deadline=None)
def test_wavelength_roundtrip(lam):
    assert wavelength_from_omega(omega_from_wavelength(lam)) == pytest.approx(
        lam, rel=1e-14)


@given(lam=st.floats(min_value=0.5e-6, max_value=3.9e-6))
@settings(max_examples=examples(50), deadline=None)
def test_index_physical_range(lam):
    n = DispersionModel().refractive_index(omega_from_wavelength(lam))
    assert 1.9 < n < 2.5
