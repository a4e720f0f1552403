"""Ring-polymer and centroid dynamics for Kubo-transformed correlation functions.

A desk-scale numerical laboratory for one-dimensional quantum statistical
dynamics: Monte Carlo sampling of imaginary-time ring polymers, RPMD and
CMD approximate real-time dynamics, and exact grid-based spectral references
to measure them against.
"""

from ._stats import block_standard_error
from .dynamics import (CentroidForceTable, IntegratorConfig, build_centroid_force_table,
                       ring_hamiltonian, rpmd_trajectory)
from .estimators import (band_peaks, cmd_kubo_correlator, rpmd_initial_conditions,
                         rpmd_kubo_correlator, spectrum)
from .model import (PotentialModel, ThermoParams, harmonic, mildly_anharmonic, potential_eval,
                    quartic)
from .oracle import (EigenSystem, GridSpec, diagonalize, discrete_kubo_correlator,
                     exact_kubo_correlator, harmonic_caq_reference, harmonic_swarm_trace,
                     thermal_average)
from .ringpoly import (OBS_P, OBS_Q, OBS_Q2, OBS_Q3, Observable, free_rp_frequencies,
                       log_ring_density, normal_mode_transform, observable_from_label,
                       spring_energy)
from .sampler import (SamplerConfig, draw_momenta, sample_ring_positions,
                      sample_ring_positions_constrained, static_average)
from .series import CorrelationSeries

__version__ = "0.1.0"
