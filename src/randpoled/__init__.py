"""Photon-pair simulator for randomly poled, weakly-random and chirped
quasi-phase-matched nonlinear crystals.

The package models spontaneous parametric down-conversion in explicit
domain layouts and their statistical ensembles: spectral densities and
rates, Hong-Ou-Mandel and sum-frequency temporal traces, and
transverse (angular) emission properties, each with closed-form
ensemble averages cross-checked against Monte Carlo sampling.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants
from .dispersion import DispersionError, DispersionModel, omega_from_wavelength
from .structures import (PolingStructure, RandomSource, StructureError,
                         StructureSpec, apply_fabrication_error,
                         domain_length_histogram, gen_chirped, gen_ideal,
                         gen_rps, gen_weakly_random, load_structure,
                         save_structure, shuffle_segments)
from .phasematch import (avg_f2_rps, avg_f2_rps_asymptotic, avg_f2_weak,
                         f_boundary_sum, f_chirp, f_exact, xcorr_chirp,
                         xcorr_rps, xcorr_weak)
from .spectra import (EnsembleStats, ProcessConfig, SpectralGrid,
                      SpectralSlice, ensemble_run, fwhm, joint_density,
                      match_parameter, pair_rate, signal_spectrum,
                      two_photon_amplitude)
from .temporal import (PhaseProfile, TemporalTrace, compensate,
                       dispersion_cancellation_check, entanglement_time,
                       hom_trace, spectral_phase, sumfreq_ensemble_mc,
                       sumfreq_trace)
from .spatial import (AngularDensityMap, AngularGrid, angular_spectral_density,
                      correlated_area, correlated_width_scan,
                      pump_transverse_spectrum, radial_photon_density,
                      spatial_amplitude)
from .scenarios import SCENARIOS, ScenarioResult, Table
