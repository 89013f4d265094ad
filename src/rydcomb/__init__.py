"""Reuse-architecture Rydberg array combining simulator.

Structured analog combiners (shared local oscillators and photodiode
adders), alternating-minimization combiner design under finite or
continuous phase resolution, and Monte-Carlo spectral-efficiency
evaluation over clustered mmWave channels.
"""

from .architecture import ReuseArchitecture, diagonal_phases, is_proportional
from .arrays import (ArrayGeometry, array_response, axial_response,
                     upa_response)
from .channel import ChannelParams, Paths, draw_paths
from .errors import (ArchitectureError, ConfigError, GeometryError,
                     NumericError)
from .evaluation import (EvalUnit, ExperimentSpec, ResultRow, ResultTable,
                         combined_gain_eigenvalues, fully_digital_se,
                         pc_architecture, run_convergence, run_experiment,
                         spectral_efficiency)
from .optimizer import (CombinerSolution, OptimizerConfig,
                        alternating_minimize, direct_solve_proportional,
                        quantize_phase)
from .oracles import (DigitalReference, build_wlc, channel_matrix,
                      compose_wrf, generate_channel, optimal_digital_combiner,
                      phase_grid)

__version__ = "0.1.0"

__all__ = [
    "ArchitectureError", "ArrayGeometry", "ChannelParams", "CombinerSolution",
    "ConfigError", "DigitalReference", "EvalUnit", "ExperimentSpec",
    "GeometryError", "NumericError", "OptimizerConfig", "Paths", "ResultRow",
    "ResultTable", "ReuseArchitecture", "alternating_minimize",
    "array_response", "axial_response", "build_wlc", "channel_matrix",
    "combined_gain_eigenvalues", "compose_wrf", "diagonal_phases",
    "direct_solve_proportional", "draw_paths", "fully_digital_se",
    "generate_channel", "is_proportional", "optimal_digital_combiner",
    "pc_architecture", "phase_grid", "quantize_phase", "run_convergence",
    "run_experiment", "spectral_efficiency", "upa_response",
]
