"""Ring-polymer and centroid dynamics for Kubo-transformed correlation functions.

A desk-scale numerical laboratory for one-dimensional quantum statistical
dynamics: Monte Carlo sampling of imaginary-time ring polymers, RPMD and
CMD approximate real-time dynamics, and exact grid-based spectral references
to measure them against.
"""

from .dynamics import (CentroidForceTable, IntegratorConfig, build_centroid_force_table,
                       classical_trajectory, cmd_trajectory, free_ring_polymer_step,
                       ring_hamiltonian, rpmd_step, rpmd_trajectory)
from .estimators import (CENTROID_DELTA, POSITION_DELTA, FilterSpec, band_peaks, block_error,
                         cmd_kubo_correlator, filtered_density_estimate,
                         kubo_momentum_correlator_via_derivative, rpmd_initial_conditions,
                         rpmd_kubo_correlator, spectrum)
from .model import (PotentialModel, ThermoParams, delta_v, harmonic, mildly_anharmonic,
                    potential_eval, potential_grad, quartic)
from .oracle import (EigenSystem, GridSpec, centroid_density_reference, diagonalize,
                     discrete_kubo_correlator, discrete_kubo_transform,
                     exact_kubo_correlator, harmonic_caq_reference, harmonic_j_kernel,
                     harmonic_swarm_trace, thermal_average)
from .ringpoly import (OBS_P, OBS_Q, OBS_Q2, OBS_Q3, Observable, RingPolymerState,
                       centroid_momentum, centroid_observable, centroid_position,
                       free_rp_frequencies, log_ring_density, normal_mode_transform,
                       observable_from_label, spring_energy)
from .sampler import (SamplerConfig, draw_momenta, estimate_static_average,
                      mean_square_position, sample_ring_positions,
                      sample_ring_positions_constrained)
from .series import CorrelationSeries

__version__ = "0.1.0"
