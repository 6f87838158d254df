"""Photon-pair simulator for randomly poled and chirped quasi-phase-matched
nonlinear crystals.

The package models spontaneous parametric down-conversion in explicit
domain layouts and their statistical ensembles: spectral densities and
rates, Hong-Ou-Mandel and sum-frequency temporal traces, and
transverse (angular) emission properties, each with closed-form
ensemble averages cross-checked against Monte Carlo sampling.
"""

__version__ = "0.1.0"

from .dispersion import DispersionError, DispersionModel, omega_from_wavelength
from .structures import (PolingStructure, RandomSource, StructureError,
                         StructureSpec, apply_fabrication_error,
                         shuffle_segments)
from .phasematch import (avg_f2_rps, avg_f2_rps_asymptotic, f_boundary_sum,
                         f_chirp, f_exact, xcorr_rps)
from .spectra import (EnsembleStats, ProcessConfig, SpectralGrid,
                      SpectralSlice, ensemble_run, fwhm, joint_density,
                      match_parameter, two_photon_amplitude)
from .temporal import (TemporalTrace, compensate, entanglement_time, hom_trace,
                       sumfreq_ensemble_mc, sumfreq_trace)
from .spatial import (AngularGrid, angular_spectral_density, correlated_area,
                      correlated_width_scan)
from .scenarios import SCENARIOS, ScenarioResult, Table
