import hashlib
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dlczsim import (AngleSettings, CountsTable, ParameterError, bell_S, cli,
                     correlation_E, datafiles, engine, estimators,
                     fidelity_from_S, fit_decay, iter_trial_records,
                     load_config, visibility_from_S)
from dlczsim.cli import main
from dlczsim.datafiles import (COUNTS_COLUMNS, read_counts_csv, read_kv,
                               write_counts_csv)
from dlczsim.errors import read_lines
from dlczsim.estimators import TWO_ROOT_TWO, estimate_tables
from dlczsim.repeater import PRESET_HIGH_RETRIEVAL, _rate_curve

CONFIG = """\
experiment.chi = 0.05
experiment.noise_b = 1e-5
experiment.noise_c = 1e-4
experiment.eta_s = 0.5
experiment.eta_as = 0.5
experiment.visibility = 0.8838834764831843
decay.r0 = 0.77
decay.tau0 = 1e-3

chain.t_oc = 0.20
chain.cavity_loss = 0.13
chain.eta_smf = 0.71
chain.eta_filter = 0.56
chain.eta_mmf = 0.92
chain.eta_d = 0.68

geometry.wavelength = 795e-9
geometry.temperature = 100e-6
geometry.atomic_mass = 1.4446689879e-25
geometry.bd_separation = 5.5e-3
geometry.f_btd = 2
geometry.f0 = 1.5

timing.prep_duration = 42e-3
timing.run_duration = 8e-3
timing.trial_period = 2000e-9
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "lab.conf"
    path.write_text(CONFIG)
    return str(path)


def kv_floats(path):
    entries, _ = read_kv(path)
    out = {}
    for key, value in entries.items():
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def hash_dir(path):
    digests = {}
    for child in sorted(path.iterdir()):
        digests[child.name] = hashlib.sha256(child.read_bytes()).hexdigest()
    return digests


def test_budget_reproduces_detection_chain(config, tmp_path):
    out = tmp_path / "budget"
    assert main(["budget", "--config", config, "--out", str(out)]) == 0
    report = kv_floats(out / "budget.kv")
    assert report["eta_esp"] == pytest.approx(0.606, abs=1e-3)
    assert report["eta_t"] == pytest.approx(0.366, abs=1e-3)
    assert report["eta_td"] == pytest.approx(0.150, abs=2e-3)


def test_lifetime_reports_angle_and_tau(config, tmp_path):
    out = tmp_path / "lifetime"
    assert main(["lifetime", "--config", config, "--out", str(out)]) == 0
    report = kv_floats(out / "lifetime.kv")
    assert report["coupling_angle_deg"] == pytest.approx(0.0525, abs=5e-4)
    assert report["motional_lifetime_s"] == pytest.approx(1.4e-3, abs=1e-4)


@pytest.mark.parametrize("key", ["wavelength", "temperature"])
def test_lifetime_rejects_non_finite_geometry(key, tmp_path, capsys):
    path = tmp_path / "inf.conf"
    path.write_text(CONFIG.replace(
        next(ln for ln in CONFIG.splitlines()
             if ln.startswith(f"geometry.{key} ")),
        f"geometry.{key} = inf"))
    out = tmp_path / "lifetime"
    assert main(["lifetime", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert key in err[0] and "finite" in err[0]
    assert not (out / "lifetime.kv").exists()


@pytest.mark.parametrize("key", ["prep_duration", "run_duration",
                                 "trial_period"])
def test_simulate_rejects_non_finite_timing(key, tmp_path, capsys):
    sample = (Path(__file__).resolve().parents[1] / "sample.conf").read_text()
    line = next((ln for ln in sample.splitlines()
                 if ln.startswith(f"timing.{key} ")), None)
    edited = (sample.replace(line, f"timing.{key} = inf") if line
              else sample + f"timing.{key} = inf\n")
    path = tmp_path / "inf.conf"
    path.write_text(edited)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--seed", "1",
                 "--trials", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert key in err[0] and "finite" in err[0]
    assert not out.exists()


def test_fit_decay_command(config, tmp_path):
    data = tmp_path / "decay.csv"
    data.write_text("t_seconds,R\n0,0.77\n0.00023,0.667\n0.00054,0.50\n")
    out = tmp_path / "fit"
    assert main(["fit-decay", str(data), "--out", str(out)]) == 0
    report = kv_floats(out / "decay_fit.kv")
    assert report["r0"] == pytest.approx(0.77, abs=0.03)
    assert report["tau0_s"] == pytest.approx(1.0e-3, abs=0.15e-3)


def test_fit_decay_does_not_import_numpy_ma(tmp_path):
    # numpy.ma is a costly import that no command needs
    data = tmp_path / "decay.csv"
    data.write_text("t_seconds,R\n0,0.77\n0.00023,0.667\n0.00054,0.50\n")
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from dlczsim.cli import main\n"
            f"assert main(['fit-decay', {str(data)!r}, '--out', "
            f"{str(tmp_path / 'fit')!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("column", ["t_seconds", "R", "sigma_R"])
def test_fit_decay_rejects_non_finite_samples(column, tmp_path, capsys):
    rows = [["0", "0.77", "0.01"], ["0.00023", "0.667", "0.01"],
            ["0.00054", "0.50", "0.01"]]
    rows[1][["t_seconds", "R", "sigma_R"].index(column)] = "inf"
    data = tmp_path / "decay.csv"
    data.write_text("t_seconds,R,sigma_R\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    out = tmp_path / "fit"
    assert main(["fit-decay", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "finite" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column",
                         ["theta_s_deg", "theta_as_deg", "storage_time_s"])
def test_estimate_rejects_non_finite_counts_cells(column, value, tmp_path,
                                                  capsys):
    cells = dict(zip(COUNTS_COLUMNS, "0,0,0,100000,700,720,80,70,10,0"
                     .split(",")))
    cells[column] = value
    data = tmp_path / "counts.csv"
    data.write_text(",".join(cells) + "\n" + ",".join(cells.values()) + "\n")
    out = tmp_path / "est"
    assert main(["estimate", "--eta-td", "0.5", "--replicas", "100",
                 str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {data}: line 2, column {column!r}: {value!r} is not finite"]
    assert not out.exists()


def test_estimate_rejects_negative_storage_time(tmp_path, capsys):
    data = tmp_path / "counts.csv"
    data.write_text(",".join(COUNTS_COLUMNS)
                    + "\n0,0,-0.001,100000,700,720,80,70,10,0\n")
    out = tmp_path / "est"
    assert main(["estimate", "--eta-td", "0.5", "--replicas", "100",
                 str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {data}: line 2: storage_time = -0.001 must be finite and "
        "in [0, inf)"]
    assert not out.exists()


def test_records_reuse_each_settings_outcome_table(config, tmp_path,
                                                    monkeypatch):
    built = []

    def cells(model):
        built.append(model)
        return original(model)

    original = engine._cells
    monkeypatch.setattr(engine, "_cells", cells)
    engine._outcome_table.cache_clear()
    assert main(["simulate", "--config", config, "--seed", "3", "--trials",
                 "1000", "--records", "--out", str(tmp_path / "sim")]) == 0
    assert len(built) == 1
    outcomes, probs = engine._outcome_table(built[0])
    assert isinstance(outcomes, tuple) and not probs.flags.writeable


def test_simulate_writes_counts_with_provenance(config, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--seed", "42",
                 "--trials", "20000", "--t", "0,0.00054",
                 "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["counts_t00_a00.csv", "counts_t01_a00.csv",
                     "run_manifest.kv"]
    tables, provenance = read_counts_csv(out / "counts_t01_a00.csv")
    assert provenance["seed"] == "42"
    assert provenance["stream"] == "v3"
    assert provenance["config_hash"].startswith("sha256:")
    assert tables[0].storage_time == 0.00054
    assert tables[0].n_pulses == 20000


def test_degrees_agree_across_provenance_rows_and_estimates(config,
                                                           tmp_path):
    # math.degrees(math.radians(1.5)) is 1.5000000000000002
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--seed", "5", "--trials",
                 "20000", "--angles", "1.5:1.5", "--out", str(out)]) == 0
    text = (out / "counts_t00_a00.csv").read_text()
    assert "# theta_s_deg = 1.5\n" in text
    assert "# theta_as_deg = 1.5\n" in text
    assert text.splitlines()[-1].startswith("1.5,1.5,")
    assert main(["estimate", "--eta-td", "0.5", "--replicas", "100",
                 str(out / "counts_t00_a00.csv"),
                 "--out", str(tmp_path / "est")]) == 0
    entries, _ = read_kv(tmp_path / "est" / "estimates.kv")
    assert entries["table00.theta_s_deg"] == "1.5"
    assert entries["table00.theta_as_deg"] == "1.5"


def test_simulate_rerun_is_byte_identical(config, tmp_path):
    out = tmp_path / "sim"
    args = ["simulate", "--config", config, "--seed", "7", "--trials",
            "20000", "--out", str(out)]
    assert main(args) == 0
    first = hash_dir(out)
    shutil.rmtree(out)
    assert main(args) == 0
    assert hash_dir(out) == first


def test_simulate_workers_do_not_change_outputs(config, tmp_path):
    out = tmp_path / "sim"
    base = ["simulate", "--config", config, "--seed", "7", "--trials",
            "20000", "--out", str(out)]
    assert main(base + ["--workers", "1"]) == 0
    first = hash_dir(out)
    shutil.rmtree(out)
    assert main(base + ["--workers", "4"]) == 0
    assert hash_dir(out) == first


def test_simulate_records_gate_feed_forward(config, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--seed", "3", "--trials",
                 "5000", "--records", "--out", str(out)]) == 0
    lines = (out / "trials_t00_a00.csv").read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("stokes_click")][0]
    cols = header.split(",")
    s_idx, as_idx = cols.index("stokes_click"), cols.index("antistokes_click")
    rows = [ln.split(",") for ln in lines
            if ln and not ln.startswith(("#", "stokes_click"))]
    assert len(rows) == 5000
    for row in rows:
        if row[as_idx] != "none":
            assert row[s_idx] != "none"


def test_records_row_k_is_trial_k(tmp_path, monkeypatch):
    config = tmp_path / "double.conf"
    config.write_text(CONFIG + "engine.double_pair = true\n")
    monkeypatch.setattr(datafiles, "RECORDS_CHUNK", 7)  # rows cross chunks
    storage_times, angles, trials, seed = (0.0, 0.0005), "0:0,30:15", 3000, 11
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--seed", str(seed),
                 "--trials", str(trials),
                 "--t", ",".join(map(str, storage_times)),
                 "--angles", angles, "--records", "--out", str(out)]) == 0
    cfg = load_config(config)
    assert cfg.double_pair
    for ti, t in enumerate(storage_times):
        for ai, settings in enumerate(cli.parse_angle_plan(angles)):
            provenance, body = read_lines(
                out / f"trials_t{ti:02d}_a{ai:02d}.csv", AssertionError)
            assert float(provenance["t_seconds"]) == t
            assert body[0][1] == "stokes_click,antistokes_click,pair_created"
            expected = [
                f"{r.stokes_click or 'none'},{r.antistokes_click or 'none'},"
                f"{'true' if r.pair_created else 'false'}"
                for r in iter_trial_records(
                    cfg.experiment, t, settings, trials, seed,
                    setting_index=ai, double_pair=cfg.double_pair,
                    run_tag=ti)]
            assert [line for _, line in body[1:]] == expected


def test_records_bytes_do_not_depend_on_the_chunk_size(config, tmp_path,
                                                       monkeypatch):
    argv = ["simulate", "--config", config, "--seed", "3", "--trials",
            "5000", "--records"]
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    # 715 chunks, the last short
    monkeypatch.setattr(datafiles, "RECORDS_CHUNK", 7)
    assert main(argv + ["--out", str(tmp_path / "many")]) == 0
    name = "trials_t00_a00.csv"
    assert ((tmp_path / "one" / name).read_bytes()
            == (tmp_path / "many" / name).read_bytes())


def test_simulate_validation_errors(config, tmp_path):
    out = str(tmp_path / "x")
    assert main(["simulate", "--config", config, "--seed", "1",
                 "--trials", "0", "--out", out]) == 2
    bad = tmp_path / "bad.conf"
    bad.write_text(CONFIG + "experiment.unknown = 1\n")
    assert main(["simulate", "--config", str(bad), "--seed", "1",
                 "--trials", "100", "--out", out]) == 2
    assert main(["simulate", "--config", str(tmp_path / "nope.conf"),
                 "--seed", "1", "--trials", "100", "--out", out]) == 4
    assert main(["simulate", "--config", config, "--seed", "1",
                 "--trials", "100", "--workers", "0", "--out", out]) == 2


def test_estimate_single_matched_file(config, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--seed", "11", "--trials",
                 "200000", "--out", str(out)]) == 0
    est_out = tmp_path / "est"
    assert main(["estimate", str(out / "counts_t00_a00.csv"),
                 "--eta-td", "0.5", "--replicas", "2000",
                 "--out", str(est_out)]) == 0
    report = kv_floats(est_out / "estimates.kv")
    assert report["s.available"] == "false"
    r_q = report["table00.r_qubit"]
    sigma = report["table00.r_qubit_sigma"]
    assert abs(r_q - 0.77) < 4 * sigma
    assert report["table00.r_l"] == pytest.approx(r_q, abs=4 * sigma)
    # retrieval.csv feeds fit-decay directly
    assert (est_out / "retrieval.csv").exists()


def test_estimate_canonical_run_yields_bell_parameter(config, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--seed", "13", "--trials",
                 "200000", "--angles", "canonical", "--out", str(out)]) == 0
    est_out = tmp_path / "est"
    files = sorted(str(p) for p in out.glob("counts_*.csv"))
    assert len(files) == 4
    assert main(["estimate", *files, "--eta-td", "0.5",
                 "--replicas", "2000", "--out", str(est_out)]) == 0
    report = kv_floats(est_out / "estimates.kv")
    assert report["s.available"] == "true"
    assert abs(report["s.value"] - 2.5) < 4 * report["s.sigma"]
    assert report["visibility.value"] == pytest.approx(
        report["s.value"] / (2 * math.sqrt(2)), rel=1e-12)


def _chsh_counts(conf, tmp_path, trials, seed):
    """Counts files of a canonical simulate run, in setting order."""
    out = tmp_path / "sim"
    assert main(["simulate", "--config", conf, "--seed", str(seed),
                 "--trials", str(trials), "--angles", "canonical",
                 "--out", str(out)]) == 0
    return sorted(str(p) for p in out.glob("counts_*.csv"))


def test_chsh_estimate_shares_one_draw_with_s(config, tmp_path):
    files = _chsh_counts(config, tmp_path, 200_000, seed=13)
    replicas, seed = 1000, 21
    assert main(["estimate", *files, "--eta-td", "0.5", "--seed", str(seed),
                 "--replicas", str(replicas),
                 "--out", str(tmp_path / "est")]) == 0
    report = kv_floats(tmp_path / "est" / "estimates.kv")
    tables = [tb for name in files for tb in read_counts_csv(name)[0]]

    # S and everything derived from it are bell_S's, bit for bit
    s = bell_S(tables, n_replicas=replicas, seed=seed)
    assert report["s.value"] == s.value and report["s.sigma"] == s.sigma
    assert report["visibility.value"] == visibility_from_S(s.value)
    assert report["visibility.sigma"] == s.sigma / TWO_ROOT_TWO
    assert report["fidelity.value"] == fidelity_from_S(s.value)
    assert report["fidelity.sigma"] == 0.75 * s.sigma / TWO_ROOT_TWO

    # each E_sigma is the spread of E on its columns of that (R, 8) draw:
    # (matched, crossed) of each table, the only channels E reads
    lam = [n for tb in tables for n in (tb.matched, tb.crossed)]
    draws = np.random.default_rng(seed).poisson(lam, size=(replicas, 8))
    for i, tb in enumerate(tables):
        assert report[f"table{i:02d}.E"] == correlation_E(tb)
        matched, crossed = draws[:, 2 * i:2 * i + 2].T
        total = matched + crossed
        e = (matched - crossed)[total > 0] / total[total > 0]
        assert report[f"table{i:02d}.E_sigma"] == float(np.std(e))


def test_estimate_draws_a_chsh_set_once_and_other_tables_each(
        config, tmp_path, monkeypatch):
    drawn = []

    def poisson_error(estimators, counts, **kwargs):
        drawn.append(len(counts))
        return real(estimators, counts, **kwargs)
    real = estimators.poisson_error
    monkeypatch.setattr(estimators, "poisson_error", poisson_error)
    files = _chsh_counts(config, tmp_path, 1000, seed=3)
    estimate = ["estimate", "--eta-td", "0.5", "--replicas", "100"]
    assert main(estimate + files + ["--out", str(tmp_path / "chsh")]) == 0
    assert drawn == [4]
    drawn.clear()
    assert main(estimate + files[:3] + ["--out", str(tmp_path / "three")]) == 0
    assert drawn == [1, 1, 1]


def test_estimates_kv_reports_estimate_tables_bit_for_bit(config, tmp_path):
    chsh = _chsh_counts(config, tmp_path, 20_000, seed=5)
    out = tmp_path / "matched"
    assert main(["simulate", "--config", config, "--seed", "6", "--trials",
                 "200000", "--t", "0,0.00054", "--out", str(out)]) == 0
    matched = sorted(str(p) for p in out.glob("counts_*.csv"))
    for files in (chsh, matched + chsh[:1]):
        est = tmp_path / f"est{len(files)}"
        assert main(["estimate", *files, "--eta-td", "0.5", "--seed", "4",
                     "--replicas", "500", "--out", str(est)]) == 0
        report = kv_floats(est / "estimates.kv")
        reported = {key: value for key, value in report.items()
                    if key in ("s.value", "s.sigma") or key.startswith(
                        "table") and not key.endswith(("_deg", "_time_s"))}
        tables = [tb for name in files for tb in read_counts_csv(name)[0]]
        expected = {}
        for (i, name), e in estimate_tables(tables, 0.5, n_replicas=500,
                                            seed=4).items():
            if i is None:
                expected.update({"s.value": e.value, "s.sigma": e.sigma})
            else:
                expected.update({f"table{i:02d}.{name}": e.value,
                                 f"table{i:02d}.{name}_sigma": e.sigma})
        assert reported == expected
        assert ("s.value" in reported) == (files is chsh)
        assert ("table00.r_qubit" in reported) == (files is not chsh)


def test_chsh_e_sigma_matches_delta_method_at_bell_point(tmp_path):
    conf = tmp_path / "bell.conf"
    conf.write_text(_sample_conf(experiment__chi="0.02",
                                 experiment__eta_s="1.0",
                                 experiment__eta_as="1.0"))
    files = _chsh_counts(str(conf), tmp_path, 1_000_000, seed=60)
    assert main(["estimate", *files, "--config", str(conf), "--seed", "61",
                 "--replicas", "10000", "--out", str(tmp_path / "est")]) == 0
    report = kv_floats(tmp_path / "est" / "estimates.kv")
    for i, name in enumerate(files):
        (tb,), _ = read_counts_csv(name)
        e = report[f"table{i:02d}.E"]
        delta = math.sqrt((1.0 - e * e) / (tb.c13 + tb.c24 + tb.c14 + tb.c23))
        assert report[f"table{i:02d}.E_sigma"] == pytest.approx(delta,
                                                                rel=0.05)


def test_estimate_schema_error_names_column(config, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta_s_deg,theta_as_deg\n0,0\n")
    assert main(["estimate", str(bad), "--eta-td", "0.5",
                 "--out", str(tmp_path / "e")]) == 2
    assert "storage_time_s" in capsys.readouterr().err


def test_estimate_opens_each_counts_file_once(config, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--seed", "11", "--trials",
                 "1000", "--t", "0,1e-3", "--out", str(out)]) == 0
    inputs = sorted(str(p) for p in out.glob("counts_*.csv"))
    opened = []
    listening = [True]

    def hook(event, args):  # an audit hook stays for the process: disarm
        if listening and event == "open" and isinstance(args[0], str):
            opened.append(args[0])
    sys.addaudithook(hook)
    try:
        assert main(["estimate", *inputs, "--eta-td", "0.5", "--replicas",
                     "100", "--out", str(tmp_path / "est")]) == 0
    finally:
        listening.clear()
    assert [opened.count(name) for name in inputs] == [1, 1]
    # the recorded hash is that of the bytes parsed
    manifest, _ = read_kv(tmp_path / "est" / "run_manifest.kv")
    data = b"".join(Path(name).read_bytes() for name in inputs)
    assert manifest["inputs_hash"] == (
        "sha256:" + hashlib.sha256(data).hexdigest())


def test_estimate_needs_eta_td(config, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--seed", "11",
                 "--trials", "10000", "--out", str(out)]) == 0
    assert main(["estimate", str(out / "counts_t00_a00.csv"),
                 "--out", str(tmp_path / "e")]) == 2
    # the config's chain section is an accepted source for eta_td
    assert main(["estimate", str(out / "counts_t00_a00.csv"),
                 "--config", config, "--out", str(tmp_path / "e2")]) == 0


def test_repeater_sweep_preset(tmp_path):
    out = tmp_path / "sweep"
    assert main(["repeater-sweep", "--preset", "fig8", "--threshold",
                 "1e-4", "--l-min", "2e5", "--l-max", "1.5e6",
                 "--steps", "30", "--out", str(out)]) == 0
    text = (out / "repeater_sweep.csv").read_text()
    assert "cpe" in text and "cie" in text
    assert "calibrated" in text  # chi provenance, never a published value
    summary = kv_floats(out / "repeater_summary.kv")
    ratio = (summary["cpe.threshold_crossing_m"]
             / summary["cie.threshold_crossing_m"])
    assert abs(ratio - 2.3) <= 0.15 * 2.3
    assert summary["cpe.monotone_non_increasing"] == "true"
    # byte-identical rerun
    first = hash_dir(out)
    shutil.rmtree(out)
    assert main(["repeater-sweep", "--preset", "fig8", "--threshold",
                 "1e-4", "--l-min", "2e5", "--l-max", "1.5e6",
                 "--steps", "30", "--out", str(out)]) == 0
    assert hash_dir(out) == first


def test_approx_multiplex_threshold_crosses_the_approximated_curve(
        tmp_path):
    exact, approx = tmp_path / "exact", tmp_path / "approx"
    base = ["repeater-sweep", "--preset", "fig8", "--threshold", "1e-4"]
    assert main(base + ["--out", str(exact)]) == 0
    assert main(base + ["--approx-multiplex", "--out", str(approx)]) == 0
    crossing = kv_floats(approx / "repeater_summary.kv")[
        "cpe.threshold_crossing_m"]
    assert crossing != kv_floats(exact / "repeater_summary.kv")[
        "cpe.threshold_crossing_m"]
    rate = _rate_curve(PRESET_HIGH_RETRIEVAL, True)(crossing).rate
    assert rate == pytest.approx(1e-4, rel=1e-9)


def test_simulate_estimate_fit_round_trip(tmp_path):
    # recover the configured (r0, tau0) through the whole artifact chain;
    # unit visibility so the matched-pair estimator inverts R(t) directly
    cal = tmp_path / "cal.conf"
    cal.write_text(CONFIG.replace(
        "experiment.visibility = 0.8838834764831843",
        "experiment.visibility = 1.0"))
    config = str(cal)
    out = tmp_path / "sim"
    times = [0.0, 0.2e-3, 0.5e-3, 0.9e-3, 1.4e-3, 2.0e-3]
    assert main(["simulate", "--config", config, "--seed", "101",
                 "--trials", "400000",
                 "--t", ",".join(repr(t) for t in times),
                 "--out", str(out)]) == 0
    est_out = tmp_path / "est"
    files = sorted(str(p) for p in out.glob("counts_*.csv"))
    assert main(["estimate", *files, "--eta-td", "0.5", "--replicas",
                 "1000", "--out", str(est_out)]) == 0
    fit_out = tmp_path / "fit"
    assert main(["fit-decay", str(est_out / "retrieval.csv"),
                 "--out", str(fit_out)]) == 0
    report = kv_floats(fit_out / "decay_fit.kv")

    # combined standard errors via a parametric bootstrap of the samples
    samples = []
    for line in (est_out / "retrieval.csv").read_text().splitlines():
        if line and not line.startswith(("#", "t_seconds")):
            t, r, sigma = (float(x) for x in line.split(","))
            samples.append((t, r, sigma))
    rng = np.random.default_rng(0)
    boots = []
    for _ in range(200):
        jittered = [(t, r + sigma * rng.standard_normal(), sigma)
                    for t, r, sigma in samples]
        fitted, _ = fit_decay(jittered)
        boots.append((fitted.r0, fitted.tau0))
    sig_r0 = float(np.std([b[0] for b in boots]))
    sig_tau = float(np.std([b[1] for b in boots]))
    assert abs(report["r0"] - 0.77) < 3 * sig_r0
    assert abs(report["tau0_s"] - 1e-3) < 3 * sig_tau


def test_zero_sigma_retrieval_stays_out_of_the_decay_fit(tmp_path):
    # at 6 ms and 2e5 trials no matched coincidence is seen: r_qubit and
    # every Poisson replica of it are 0, which fit-decay cannot weight
    conf = Path(__file__).resolve().parents[1] / "sample.conf"
    sim, est = tmp_path / "sim", tmp_path / "est"
    assert main(["simulate", "--config", str(conf), "--seed", "3",
                 "--trials", "200000", "--t", "0,0.0003,0.0006,0.006",
                 "--out", str(sim)]) == 0
    assert main(["estimate", "--eta-td", "0.15",
                 *sorted(str(p) for p in sim.glob("counts_*.csv")),
                 "--out", str(est)]) == 0
    report = kv_floats(est / "estimates.kv")
    assert report["table03.storage_time_s"] == 0.006
    assert report["table03.r_qubit"] == report["table03.r_qubit_sigma"] == 0
    rows = [line.split(",")[0] for line in
            (est / "retrieval.csv").read_text().splitlines()[-4:]]
    assert rows == ["t_seconds", "0.0", "0.0003", "0.0006"]
    assert main(["fit-decay", str(est / "retrieval.csv"),
                 "--out", str(tmp_path / "fit")]) == 0


@pytest.mark.parametrize("argv", [
    ["fit-decay", "decay.csv", "--config", "lab.conf"],
    ["fit-decay", "decay.csv", "--seed", "5"],
    ["repeater-sweep", "--preset", "fig8", "--config", "lab.conf"],
    ["simulate", "--config", "lab.conf", "--seed", "1", "--trials", "10",
     "--format", "csv"],
    ["budget", "--config", "lab.conf", "--seed", "1"],
    ["lifetime", "--config", "lab.conf", "--seed", "1"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.conf").write_text(CONFIG)
    (tmp_path / "decay.csv").write_text("t_seconds,R\n0,0.77\n0.0005,0.5\n")
    assert main(argv + ["--out", "out"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_seedless_manifests_record_no_config_or_seed(tmp_path):
    data = tmp_path / "decay.csv"
    data.write_text("t_seconds,R\n0,0.77\n0.00023,0.667\n0.00054,0.50\n")
    fit, sweep = tmp_path / "fit", tmp_path / "sweep"
    assert main(["fit-decay", str(data), "--out", str(fit)]) == 0
    assert main(["repeater-sweep", "--preset", "fig8", "--steps", "5",
                 "--out", str(sweep)]) == 0
    for out in (fit, sweep):
        manifest, _ = read_kv(out / "run_manifest.kv")
        assert manifest["config_path"] == "none"
        assert manifest["config_hash"] == "none"
        assert manifest["seed"] == "none"


def test_link_divisor_is_an_unknown_key(tmp_path, capsys):
    # the links are the swap tree's 2^n leaves; no key selects another layout
    sample = (Path(__file__).resolve().parents[1] / "sample.conf").read_text()
    path = tmp_path / "divisor.conf"
    path.write_text(sample + "repeater.link_divisor = 2^n\n")
    out = tmp_path / "sweep"
    assert main(["repeater-sweep", "--config", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: unknown key 'repeater.link_divisor'"]
    assert not out.exists()


def test_output_directory_defaults_to_the_working_directory(
        tmp_path, monkeypatch, capsys):
    # no environment variable names the output directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DLCZSIM_OUT", str(tmp_path / "env_out"))
    (tmp_path / "lab.conf").write_text(CONFIG)
    assert main(["budget", "--config", "lab.conf"]) == 0
    manifest, _ = read_kv(tmp_path / "run_manifest.kv")
    assert manifest["output_dir"] == "."
    assert manifest["outputs"] == "budget.kv"
    assert (tmp_path / "budget.kv").is_file()
    assert not (tmp_path / "env_out").exists()


def test_cached_parser_leaks_no_state(tmp_path, monkeypatch, capsys):
    """A sequence of calls through the one cached parser parses and writes
    exactly what a freshly built parser gives for each call."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.conf").write_text(CONFIG)
    calls = [
        ["simulate", "--config", "../lab.conf", "--seed", "5",
         "--trials", "2000", "--t", "0,0.0003,0.0008", "--records",
         "--out", "sim"],
        ["simulate", "--config", "../lab.conf", "--seed", "6",
         "--trials", "2000", "--out", "sim2"],
        ["estimate", "--eta-td", "0.5", "--seed", "5", "--replicas", "200",
         "sim/counts_t00_a00.csv", "sim/counts_t01_a00.csv",
         "sim/counts_t02_a00.csv", "--out", "est5"],
        ["estimate", "--eta-td", "0.5", "--replicas", "200",
         "sim/counts_t00_a00.csv", "sim/counts_t01_a00.csv",
         "sim/counts_t02_a00.csv", "--out", "est0"],
        ["estimate", "--eta-td", "0.5", "--bogus", "sim/counts_t00_a00.csv"],
        ["fit-decay", "est0/retrieval.csv", "--out", "fit"],
        ["fit-decay", "est5/retrieval.csv"],
    ]

    def run(parser_for, where):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        seen = []
        for argv in calls:
            try:
                ns = vars(parser_for().parse_args(argv))
            except ParameterError as exc:
                ns = {"error": str(exc)}
            code = main(argv)
            streams = capsys.readouterr()
            files = {str(f): hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in sorted(Path(".").rglob("*")) if f.is_file()}
            seen.append((ns, code, streams.out, streams.err, files))
        return seen

    cached = run(cli._parser, "cached")
    assert cli._parser() is cli._parser()
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "_parser", cli.build_parser)
        assert run(cli.build_parser, "fresh") == cached
    namespaces = [ns for ns, *_ in cached]
    assert namespaces[0]["records"] and not namespaces[1]["records"]
    assert namespaces[2]["seed"] == 5 and namespaces[3]["seed"] == 0
    assert namespaces[4] == {
        "error": "dlczsim: unrecognized arguments: --bogus"}
    assert cached[4][3] == ("error: dlczsim estimate: unrecognized "
                            "arguments: --bogus\n")
    assert [code for _, code, *_ in cached] == [0, 0, 0, 0, 2, 0, 0]


def _sample_conf(**edits):
    """sample.conf with the named ``section__key`` lines replaced, or
    appended when the file does not set that key."""
    text = (Path(__file__).resolve().parents[1] / "sample.conf").read_text()
    for name, value in edits.items():
        key = name.replace("__", ".")
        line = next((ln for ln in text.splitlines()
                     if ln.startswith(f"{key} ")), None)
        text = (text.replace(line, f"{key} = {value}") if line
                else f"{text}{key} = {value}\n")
    return text


@pytest.mark.parametrize("key", ["distance", "attenuation_length",
                                 "fiber_speed"])
def test_repeater_sweep_rejects_non_finite_geometry(key, tmp_path, capsys):
    path = tmp_path / "inf.conf"
    path.write_text(_sample_conf(**{f"repeater__{key}": "inf"}))
    out = tmp_path / "sweep"
    assert main(["repeater-sweep", "--config", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "'repeater'" in err[0] and key in err[0] and "finite" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--l-max", "inf"], ["--l-max", "inf", "--threshold", "1e-4"],
    ["--l-min", "nan"], ["--threshold", "inf"], ["--threshold", "nan"],
    ["--threshold", "0"],
])
def test_repeater_sweep_rejects_non_finite_inputs(flags, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["repeater-sweep", "--preset", "fig8", *flags,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "finite" in err[0]
    assert not out.exists()


# sample.conf with one edit, written as {dir}/<name>.conf for
# INVALID_INPUTS.
EDITED_CONFS = {
    "phase_inf": {"experiment__phase": "inf"},
    "phase_nan": {"experiment__phase": "nan"},
    "loss_hr_nan": {"chain__loss__hr": "nan"},
    "write_duration": {"timing__write_duration": "3e-7"},
}

# Invalid command lines that fail before any output: the exit code each
# gives. {conf} is sample.conf; {dir} holds counts.csv and EDITED_CONFS.
INVALID_INPUTS = {
    "t_nan": ("simulate --config {conf} --seed 1 --trials 10 --t nan", 2),
    "t_inf": ("simulate --config {conf} --seed 1 --trials 10 --t 0,inf", 2),
    "angle_inf": (
        "simulate --config {conf} --seed 1 --trials 10 --angles inf:0", 2),
    "angle_nan": (
        "simulate --config {conf} --seed 1 --trials 10 --angles 0:0,0:nan",
        2),
    "simulate_seed_negative": (
        "simulate --config {conf} --seed -1 --trials 10", 2),
    "estimate_seed_negative": (
        "estimate --eta-td 0.5 --seed -1 {dir}/counts.csv", 2),
    "estimate_missing_input": (
        "estimate --eta-td 0.5 {dir}/counts.csv {dir}/missing.csv", 4),
    "sweep_steps_above_limit": (
        "repeater-sweep --preset fig8 --steps 10001", 2),
    "estimate_eta_td_inf": ("estimate --eta-td inf {dir}/counts.csv", 2),
    "estimate_eta_td_nan": ("estimate --eta-td nan {dir}/counts.csv", 2),
    "estimate_replicas_above_limit": (
        "estimate --eta-td 0.5 --replicas 1000000000 {dir}/counts.csv", 2),
    "estimate_no_stokes_singles_for_mode": (
        "estimate --eta-td 0.5 {dir}/no_d2.csv", 3),
    "estimate_eta_td_tiny": (
        "estimate --eta-td 1e-300 --replicas 100 {dir}/counts.csv", 3),
    "experiment_phase_inf": (
        "simulate --config {dir}/phase_inf.conf --seed 1 --trials 10", 2),
    "experiment_phase_nan": (
        "simulate --config {dir}/phase_nan.conf --seed 1 --trials 10", 2),
    "chain_loss_hr_nan": ("budget --config {dir}/loss_hr_nan.conf", 2),
    "timing_write_duration_unknown": (
        "simulate --config {dir}/write_duration.conf --seed 1 --trials 10",
        2),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_inputs_leave_no_output(case, tmp_path, capsys):
    line, expected = INVALID_INPUTS[case]
    (tmp_path / "x.conf").write_text(_sample_conf())
    for name, edits in EDITED_CONFS.items():
        (tmp_path / f"{name}.conf").write_text(_sample_conf(**edits))
    write_counts_csv(tmp_path / "counts.csv", [CountsTable(
        settings=AngleSettings(0.0, 0.0), storage_time=0.0, n_pulses=1000,
        n_d1=7, n_d2=7, c13=1, c24=1, c14=0, c23=0)], {})
    write_counts_csv(tmp_path / "no_d2.csv", [CountsTable(
        settings=AngleSettings(0.0, 0.0), storage_time=0.0, n_pulses=1000,
        n_d1=1, n_d2=0, c13=0, c24=0, c14=0, c23=0)], {})
    argv = line.format(conf=tmp_path / "x.conf", dir=tmp_path).split()
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)])  # no case is argparse's to reject
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


CYCLE_OVERFLOW = {"timing__prep_duration": "1.7e308",
                  "timing__run_duration": "1.7e308",
                  "timing__trial_period": "1e300"}


@pytest.mark.parametrize("edits", [{"timing__trial_period": "1e-320"},
                                   CYCLE_OVERFLOW])
@pytest.mark.parametrize("command", ["simulate --seed 1 --trials 1000",
                                     "budget"])
def test_cycle_timing_overflow_names_the_timing_section(edits, command,
                                                        tmp_path, capsys):
    """A duty cycle whose trials per run or cycle length is not a finite
    float is a parameter error of the timing section, for every command
    that loads the config."""
    conf = tmp_path / "x.conf"
    conf.write_text(_sample_conf(**edits))
    out = tmp_path / "out"
    assert main(command.split() + ["--config", str(conf),
                                   "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: section 'timing': ")
    assert not out.exists()


# A finite 1.6e308 s cycle of one trial.
WALL_TIME_8E307 = {"timing__prep_duration": "8e307",
                   "timing__run_duration": "8e307",
                   "timing__trial_period": "8e307"}

# Extreme but finite inputs, one command line each, with the exit code
# they give. {conf} is sample.conf with the listed edits; {dir} holds the
# data files written by the test.
EXTREME_INPUTS = {
    "trial_period_1e-320": (  # run_duration / trial_period overflows
        {"timing__trial_period": "1e-320"}, 2,
        "simulate --config {conf} --seed 1 --trials 1000"),
    "cycle_overflow": (  # prep_duration + run_duration overflows
        CYCLE_OVERFLOW, 2, "simulate --config {conf} --seed 1 --trials 1000"),
    "wall_time_1.6e308": (  # one 1.6e308 s cycle
        WALL_TIME_8E307, 0, "simulate --config {conf} --seed 1 --trials 1"),
    "wall_time_overflow_cycles": (  # two cycles of one run
        WALL_TIME_8E307, 3, "simulate --config {conf} --seed 1 --trials 2"),
    "wall_time_overflow_storage_times": (  # one cycle at each of two times
        WALL_TIME_8E307, 3,
        "simulate --config {conf} --seed 1 --trials 1 --t 0,0.001"),
    "decay_tau0_1e-300": (
        {"decay__tau0": "1e-300"}, 0,
        "simulate --config {conf} --seed 1 --trials 1000 --t 0,1e-3"),
    "experiment_chi_near_1": (
        {"experiment__chi": "0.99998"}, 0,
        "simulate --config {conf} --seed 1 --trials 1000 --angles canonical"
        " --records"),
    "eta_as_1e-320": (
        {"experiment__eta_as": "1e-320"}, 0,
        "simulate --config {conf} --seed 1 --trials 1000"),
    "counts_above_poisson_range": (
        {}, 2, "estimate --eta-td 0.5 --replicas 100 {dir}/huge.csv"),
    "one_replica": (
        {}, 2, "estimate --eta-td 0.5 --replicas 1 {dir}/counts.csv"),
    "eta_td_1e-300": (  # finite R = 1e299, whose spread overflows
        {}, 3, "estimate --eta-td 1e-300 --replicas 100 {dir}/counts.csv"),
    "eta_td_1e-310": (  # R itself overflows
        {}, 3, "estimate --eta-td 1e-310 --replicas 100 {dir}/counts.csv"),
    "storage_times_1e-300": ({}, 0, "fit-decay {dir}/tiny_t.csv"),
    "storage_times_1e300": ({}, 0, "fit-decay {dir}/huge_t.csv"),
    "sigma_r_1e-200": ({}, 2, "fit-decay {dir}/tiny_sigma.csv"),  # 1/s^2
    "efficiencies_1e300": ({}, 2, "fit-decay {dir}/huge_r.csv"),
    "temperature_1e-320": (
        {"geometry__temperature": "1e-320"}, 3, "lifetime --config {conf}"),
    "wavelength_1e-320": (  # k overflows: 1 / (dk v_a) would read 0
        {"geometry__wavelength": "1e-320"}, 3, "lifetime --config {conf}"),
    "temperature_1e308": (  # v_a overflows: 1 / (dk v_a) would read 0
        {"geometry__temperature": "1e308"}, 3, "lifetime --config {conf}"),
    "wavelength_1e308": (  # dk v_a is subnormal: 1 / (dk v_a) overflows
        {"geometry__wavelength": "1e308"}, 3, "lifetime --config {conf}"),
    "f_btd_1e-320": (  # 2 f_btd f0 underflows to 0
        {"geometry__f_btd": "1e-320"}, 2, "lifetime --config {conf}"),
    "bd_separation_40": (  # coupling angle 6.67 rad
        {"geometry__bd_separation": "40"}, 2, "lifetime --config {conf}"),
    "t_oc_1e-320": ({"chain__t_oc": "1e-320"}, 0, "budget --config {conf}"),
    "repeater_chi_near_1": (
        {"repeater__chi": "0.999999999"}, 0,
        "repeater-sweep --config {conf} --threshold 1e-300"),
    "repeater_tau0_1e-300": (
        {"repeater__tau0": "1e-300"}, 0,
        "repeater-sweep --config {conf} --threshold 1e-4"),
    "fiber_speed_1e-308": (
        {"repeater__fiber_speed": "1e-308"}, 0,
        "repeater-sweep --config {conf}"),
    "repeater_tau0_inf": (  # a stage time overflows: t / tau0 is NaN
        {"repeater__tau0": "inf", "repeater__nest_level": "1023"}, 0,
        "repeater-sweep --config {conf}"),
    "nest_level_1024": (  # 2^1024 is no float
        {"repeater__nest_level": "1024"}, 2, "repeater-sweep --config {conf}"),
    "modes_1e21": (
        {"repeater__modes": "1000000000000000000000"}, 0,
        "repeater-sweep --config {conf}"),
    "log_grid_overflow": (
        {}, 2, "repeater-sweep --preset fig8 --l-min 1e-320"),
    "link_time_underflow": (  # 1e-320 m / 16 links / 2e8 m/s is 0
        {}, 2, "repeater-sweep --preset fig8 --l-min 1e-320 --l-max 1e-300"),
    "l_max_1e308": (
        {}, 0, "repeater-sweep --preset fig8 --l-max 1e308 --threshold 1e-4"),
}


@pytest.mark.parametrize("key, value", [("f_btd", "1e-320"),
                                        ("bd_separation", "40"),
                                        ("f0", "1e-310")])
def test_lifetime_rejects_a_coupling_angle_past_pi(key, value, tmp_path,
                                                   capsys):
    conf = tmp_path / "x.conf"
    conf.write_text(_sample_conf(**{f"geometry__{key}": value}))
    out = tmp_path / "out"
    assert main(["lifetime", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: section 'geometry': coupling angle "
                             "bd_separation / (2 f_btd f0) = ")
    assert err[0].endswith(f"must be finite and in (0, {math.pi!r}]")
    assert not out.exists()


# One byte that is not UTF-8 in each kind of input file: the command line
# (its input is {bad}), and the file's text before and after that byte.
NON_UTF8_INPUTS = {
    "decay_csv": ("fit-decay {bad}", "t_seconds,R\n0,0.77\n0.00023,0.6",
                  "67\n0.00054,0.50\n"),
    "counts_csv": ("estimate --eta-td 0.5 {bad}",
                   ",".join(COUNTS_COLUMNS) + "\n0,0,0,1000,7,7,1,",
                   ",0,0\n"),
    "config": ("budget --config {bad}", "chain.t_oc = 0.2", "0\n"),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_exits_2_naming_the_byte(case, tmp_path, capsys):
    line, head, tail = NON_UTF8_INPUTS[case]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(head.encode() + b"\xff" + tail.encode())
    out = tmp_path / "out"
    code = main(line.format(bad=bad).split() + ["--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == [f"error: {bad}: byte 0xff at offset {len(head)} is not "
                   "UTF-8"]
    assert not out.exists()


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark of Excel and Notepad


@pytest.mark.parametrize("command, name, report, hash_key", [
    ("budget --config {file}", "lab.conf", "budget.kv", "config_hash"),
    ("estimate --eta-td 0.5 --replicas 200 {file}", "counts.csv",
     "estimates.kv", "inputs_hash"),
    ("fit-decay {file}", "decay.csv", "decay_fit.kv", None),
])
def test_byte_order_mark_is_dropped(command, name, report, hash_key,
                                    tmp_path):
    """A file saved with a BOM gives the report of the same file without
    one; a hash in the manifest still covers the file's raw bytes."""
    (tmp_path / "lab.conf").write_text(CONFIG)
    write_counts_csv(tmp_path / "counts.csv", [CountsTable(
        settings=AngleSettings(0.0, 0.0), storage_time=0.0, n_pulses=1000,
        n_d1=70, n_d2=72, c13=8, c24=7, c14=1, c23=0)], {})
    (tmp_path / "decay.csv").write_text(
        "t_seconds,R\n0,0.77\n0.00023,0.667\n0.00054,0.50\n")
    plain, marked = tmp_path / name, tmp_path / f"bom_{name}"
    marked.write_bytes(BOM + plain.read_bytes())
    reports = []
    for path in (plain, marked):
        out = tmp_path / f"out_{path.name}"
        assert main(command.format(file=path).split()
                    + ["--out", str(out)]) == 0
        reports.append(read_kv(out / report)[0])
        if hash_key:
            manifest, _ = read_kv(out / "run_manifest.kv")
            assert manifest[hash_key] == "sha256:" + hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert reports[0] == reports[1]


def test_byte_order_mark_keeps_byte_offsets(tmp_path, capsys):
    """A byte that is not UTF-8 after a BOM is named at its offset in the
    file: 5 and 0xff for BOM + b"ab\xffc", where decoding as utf-8-sig
    would give 2 and 0xbf."""
    bad = tmp_path / "bad.conf"
    bad.write_bytes(BOM + b"ab\xffc")
    assert main(["budget", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: byte 0xff at offset 5 is not UTF-8"]
    assert not (tmp_path / "out").exists()


# Command lines the parser rejects, each a valid command with one fault.
PARSER_FAULTS = {
    "unknown_flag": "budget --config lab.conf --bogus",
    "missing_seed": "simulate --config lab.conf --trials 10",
    "simulate_missing_config": "simulate --seed 1 --trials 10",
    "lifetime_missing_config": "lifetime",
    "budget_missing_config": "budget",
    "sweep_missing_source": "repeater-sweep",
    "trials_not_an_integer": "simulate --config lab.conf --seed 1 "
                             "--trials x",
    "no_format_flag_csv": "budget --config lab.conf --format csv",
    "no_format_flag_kv": "fit-decay d.csv --format kv",
    "no_grid_flag": "repeater-sweep --preset fig8 --grid log",
}


@pytest.mark.parametrize("case", sorted(PARSER_FAULTS))
def test_parser_faults_print_one_error_line(case, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.conf").write_text(CONFIG)
    code = main(PARSER_FAULTS[case].split() + ["--out", "out"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    command = PARSER_FAULTS[case].split()[0]
    assert len(err) == 1 and err[0].startswith(f"error: dlczsim {command}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["budget", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().err == ""


# An argument that is not UTF-8, as os.fsdecode gives it: the byte 0xff
# becomes the surrogate U+DCFF.
@pytest.mark.parametrize("command, bad", [
    ("budget --config lab.conf --out {bad}", "bad\udcff"),
    ("fit-decay {bad} --out out", "in\udcff.csv"),
])
def test_non_utf8_argument_exits_2_before_writing(command, bad, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.conf").write_text(CONFIG)
    (tmp_path / "in\udcff.csv").write_text(
        "t_seconds,R\n0,0.77\n0.00023,0.667\n0.00054,0.50\n")
    before = sorted(tmp_path.iterdir())
    assert main(command.format(bad=bad).split()) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: dlczsim: argument {bad!r} is not UTF-8"]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.filterwarnings("error")  # a warning is not a clean exit
@pytest.mark.parametrize("case", sorted(EXTREME_INPUTS))
def test_extreme_finite_inputs_exit_cleanly(case, tmp_path, capsys):
    edits, expected, line = EXTREME_INPUTS[case]
    (tmp_path / "x.conf").write_text(_sample_conf(**edits))
    table = dict(settings=AngleSettings(0.0, 0.0), storage_time=0.0,
                 n_pulses=100_000, n_d1=700, n_d2=720, c13=80, c24=70,
                 c14=10, c23=0)
    write_counts_csv(tmp_path / "counts.csv", [CountsTable(**table)], {})
    write_counts_csv(tmp_path / "huge.csv", [CountsTable(**{
        **table, "n_pulses": 10 ** 23, "n_d1": 10 ** 22})], {})
    for name, times in (("tiny_t", "0,1e-300,2e-300,5e-300"),
                        ("huge_t", "0,1e300,2e300,5e300")):
        (tmp_path / f"{name}.csv").write_text("t_seconds,R\n" + "".join(
            f"{t},{r}\n" for t, r in zip(times.split(","),
                                         (0.77, 0.6, 0.5, 0.3))))
    (tmp_path / "tiny_sigma.csv").write_text(
        "t_seconds,R,sigma_R\n0,0.77,1e-200\n0.00023,0.667,1e-200\n"
        "0.00054,0.50,1e-200\n")
    (tmp_path / "huge_r.csv").write_text(
        "t_seconds,R\n0,1e300\n0.001,1e299\n0.002,1e298\n")
    argv = line.format(conf=tmp_path / "x.conf", dir=tmp_path).split()
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code in (0, 2, 3, 4)
    assert code == expected
    if code:
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()
    else:
        assert err == []
    if case == "repeater_tau0_inf":  # rate 0, flagged as underflow
        sweep = (tmp_path / "out" / "repeater_sweep.csv").read_text()
        assert "nan" not in sweep
        rows = [ln for ln in sweep.splitlines() if not ln.startswith("#")]
        assert len(rows) == 81
        assert all(row.split(",")[3] == "0.0" and row.endswith(",true")
                   for row in rows[1:])
    if case == "link_time_underflow":
        assert "gives a link time of 0" in err[0]
