"""Photon-counting Monte Carlo simulator and analytic toolkit for
cavity-enhanced DLCZ atom-photon entanglement memories."""

__version__ = "0.1.0"

from .params import (BOLTZMANN_K, CountsTable, CycleTiming, DecayParams,
                     DetectionChain, EnsembleGeometry, ExperimentParams,
                     coupling_angle, motional_lifetime, repetition_rate,
                     simulated_wall_time)
from .decoherence import fit_decay, retrieval_decay
from .entanglement import (CHSH_SETTINGS, AngleSettings, forward_count_probs,
                           pair_correlation)
from .engine import (TrialRecord, exact_count_probs, iter_trial_records,
                     run_experiment)
from .estimators import (EstimateWithError, bell_S, bell_S_signed,
                         correlation_E, estimate_tables, fidelity_from_S,
                         intrinsic_retrieval_mode, intrinsic_retrieval_qubit,
                         poisson_error, visibility_from_S)
from .repeater import (RateBreakdown, RepeaterParams, calibrate_chi,
                       elementary_probs, swap_chain, sweep_distance,
                       threshold_crossing_distance)
from .config import Config, load_config
from .errors import (ConfigError, DegenerateDataError,
                     DegenerateStatisticsError, DlczError,
                     FitConvergenceError, InsufficientDataError,
                     ParameterError, SchemaError)

__all__ = [name for name in dir() if not name.startswith("_")]
