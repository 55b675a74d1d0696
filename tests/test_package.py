import ast
import glob
import inspect
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import dlczsim
from dlczsim import cli

# The package's public names, including the submodules that importing
# the package binds. A name added to or removed from the package shows
# up as an edit here.
PUBLIC_NAMES = [
    "AngleSettings", "BOLTZMANN_K", "CHSH_SETTINGS", "Config", "ConfigError",
    "CountsTable", "CycleTiming", "DecayParams", "DegenerateDataError",
    "DegenerateStatisticsError", "DetectionChain", "DlczError",
    "EnsembleGeometry", "EstimateWithError", "ExperimentParams",
    "FitConvergenceError", "InsufficientDataError",
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
    "simulated_wall_time", "solve", "swap_chain", "sweep_distance",
    "threshold_crossing_distance",
    "visibility_from_S",
]


def test_public_surface_is_pinned_and_importable():
    assert sorted(dlczsim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from dlczsim import {name}", namespace)
        assert namespace[name] is getattr(dlczsim, name)


# Each search takes only its bracket, the multiplexed probability has one
# law and the pair correlation no phase, so these signatures carry no
# setting that no caller varies.
PINNED_SIGNATURES = {
    "elementary_probs": "(p: 'RepeaterParams') "
                        "-> 'Tuple[float, float, float]'",
    "swap_chain": "(p: 'RepeaterParams') -> 'RateBreakdown'",
    "sweep_distance": "(p: 'RepeaterParams', l_min: 'float', l_max: 'float', "
                      "steps: 'int') -> 'Tuple[List[Tuple[float, "
                      "RateBreakdown]], bool]'",
    "threshold_crossing_distance": "(p: 'RepeaterParams', threshold: 'float', "
                                   "l_min: 'float', l_max: 'float') "
                                   "-> 'float'",
    "solve.find_root": "(f, a, b)",
    "solve.find_minimum": "(f, a, x, b, fx)",
    "TrialRecord.from_outcome": "(outcome: '_Outcome') -> 'TrialRecord'",
    "pair_correlation": "(angles: 'AngleSettings', visibility: 'float') "
                        "-> 'float'",
}


def test_trimmed_signatures_are_pinned():
    for name, signature in PINNED_SIGNATURES.items():
        obj = dlczsim
        for attr in name.split("."):
            obj = getattr(obj, attr)
        assert str(inspect.signature(obj)) == signature, name
    # a trial record holds only what varies from trial to trial
    assert dlczsim.TrialRecord._fields == (
        "stokes_click", "antistokes_click", "pair_created")


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


def test_readme_library_block_runs_verbatim(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md (Library)", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2


def test_readme_shell_block_runs_verbatim(tmp_path, monkeypatch, capsys):
    # every command line of the README's shell block runs as written
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split(
        "\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("dlczsim ")]
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    shutil.copy(root / "sample.conf", tmp_path)
    for line in lines:
        argv = []
        for arg in shlex.split(line)[1:]:
            argv += sorted(glob.glob(arg)) if "*" in arg else [arg]
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)


PACKAGE_DIR = Path(dlczsim.__file__).resolve().parent
# The modules that never import numpy, directly or through the package.
NUMPY_FREE_CORE = ("errors", "params", "solve", "repeater", "config")


def _reached_imports(modules):
    """Every module name that the import statements of the package modules
    ``modules`` reach, following package-relative imports through the
    package (``from . import x`` is module x when x.py exists, else the
    package's ``__init__``)."""
    reached, todo = set(), [f"dlczsim.{name}" for name in modules]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        if not name.startswith("dlczsim"):
            continue
        path = (PACKAGE_DIR / "__init__.py" if name == "dlczsim" else
                PACKAGE_DIR / f"{name.split('.', 1)[1]}.py")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                todo += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                todo.append(node.module)
            elif isinstance(node, ast.ImportFrom) and node.module:
                todo.append(f"dlczsim.{node.module}")
            elif isinstance(node, ast.ImportFrom):
                todo += [f"dlczsim.{alias.name}"
                         if (PACKAGE_DIR / f"{alias.name}.py").is_file()
                         else "dlczsim" for alias in node.names]
    return reached


def test_core_modules_never_import_numpy():
    reached = _reached_imports(NUMPY_FREE_CORE)
    assert {f"dlczsim.{name}" for name in NUMPY_FREE_CORE} <= reached
    assert not {name for name in reached
                if name.partition(".")[0] == "numpy"}, sorted(reached)
    # the walk does see numpy where a module imports it
    assert "numpy" in _reached_imports(["decoherence"])
