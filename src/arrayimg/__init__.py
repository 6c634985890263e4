"""Narrow-band active-array scattering simulation and sparse imaging."""

from .geometry import (WaveContext, ArrayGeometry, ImageWindow, ReflectivityVector,
                       build_linear_array, build_image_window, place_scatterers)
from .greens import (SensingMatrix, green_homogeneous, green_vector,
                     sensing_matrix, mutual_coherence, theorem1_margin)
from .foldy_lax import (ResponseMatrix, foldy_lax_matrix, solve_exciting_fields,
                        response_matrix_foldy_lax, response_matrix_born,
                        effective_source_vector, simulate_data,
                        multiple_scattering_ratio)
from .sparse_solvers import (SolverParams, SparseSolution, solve_l1_smv,
                             solve_l1_mmv, brute_force_l0, rowsupp,
                             theorem2_error_bound)
from .imaging import (ImagingResult, HybridSystem, select_rank, image_smv,
                      image_mmv, optimal_illuminations, build_hybrid_system,
                      image_hybrid_l1, image_music, image_km)
from .random_medium import (RandomMediumSpec, RandomFieldRealization,
                            autocorrelation_integral, effective_aperture,
                            sample_field, phase_line_integral,
                            green_random, random_green_vector,
                            response_matrix_random, estimate_stability_ratio,
                            paraxial_ratio)
from .experiments import (TrialReport, add_noise, run_scenario,
                          monte_carlo_stability, coherence_report)
from .errors import ConfigurationError, DomainError, ResonanceError

__version__ = "0.1.0"
