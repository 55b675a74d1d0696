import subprocess
import sys
from pathlib import Path

import dlczsim

# The package's public names, including the submodules that importing
# the package binds. A name added to or removed from the package shows
# up as an edit here.
PUBLIC_NAMES = [
    "AngleSettings", "BOLTZMANN_K", "CHSH_SETTINGS", "Config", "ConfigError",
    "CountsTable", "CycleTiming", "DecayParams", "DegenerateDataError",
    "DegenerateStatisticsError", "DetectionChain", "DlczError",
    "EnsembleGeometry", "EstimateWithError", "ExperimentParams",
    "FitConvergenceError", "ForwardProbs", "InsufficientDataError",
    "ParameterError",
    "RateBreakdown", "RepeaterParams", "SchemaError", "TrialRecord",
    "bell_S", "bell_S_signed", "calibrate_chi", "config", "correlation_E",
    "coupling_angle", "decoherence", "elementary_probs", "engine",
    "entanglement", "errors", "estimate_tables", "estimators",
    "exact_count_probs", "fidelity_from_S", "fit_decay",
    "forward_count_probs", "intrinsic_retrieval_mode",
    "intrinsic_retrieval_qubit", "iter_trial_records", "load_config",
    "motional_lifetime", "pair_correlation", "params", "poisson_error",
    "repeater", "repetition_rate", "retrieval_decay", "run_experiment",
    "simulated_wall_time", "swap_chain", "sweep_distance",
    "threshold_crossing_distance",
    "visibility_from_S",
]


def test_public_surface_is_pinned_and_importable():
    assert sorted(dlczsim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from dlczsim import {name}", namespace)
        assert namespace[name] is getattr(dlczsim, name)


def test_cli_import_generates_no_dataclass_code():
    # The validated records are built without the dataclasses machinery,
    # whose per-class code generation every command would pay at start-up.
    src = Path(dlczsim.__file__).resolve().parents[1]
    code = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import dlczsim.cli\n"
            "assert 'dataclasses' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
