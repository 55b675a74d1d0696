import hashlib
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from dlczsim import AngleSettings, CountsTable, cli, fit_decay
from dlczsim.cli import main
from dlczsim.datafiles import read_counts_csv, read_kv, write_counts_csv

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
                                 "trial_period", "write_duration"])
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
    # csv format variant
    assert main(["fit-decay", str(data), "--out", str(out),
                 "--format", "csv"]) == 0
    assert (out / "decay_fit.csv").exists()


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
    header = [ln for ln in lines if ln.startswith("trial_index")][0]
    cols = header.split(",")
    s_idx, as_idx = cols.index("stokes_click"), cols.index("antistokes_click")
    rows = [ln.split(",") for ln in lines
            if ln and not ln.startswith(("#", "trial_index"))]
    assert len(rows) == 5000
    for row in rows:
        if row[as_idx] != "none":
            assert row[s_idx] != "none"


def test_records_bytes_do_not_depend_on_the_chunk_size(config, tmp_path,
                                                       monkeypatch):
    argv = ["simulate", "--config", config, "--seed", "3", "--trials",
            "5000", "--records"]
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    monkeypatch.setattr(cli, "RECORDS_CHUNK", 7)  # 715 chunks, the last short
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


def test_estimate_schema_error_names_column(config, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta_s_deg,theta_as_deg\n0,0\n")
    assert main(["estimate", str(bad), "--eta-td", "0.5",
                 "--out", str(tmp_path / "e")]) == 2
    assert "storage_time_s" in capsys.readouterr().err


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
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.conf").write_text(CONFIG)
    (tmp_path / "decay.csv").write_text("t_seconds,R\n0,0.77\n0.0005,0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", "out"])
    assert exc.value.code == 2
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


def test_bad_link_divisor_names_the_repeater_section(tmp_path, capsys):
    sample = (Path(__file__).resolve().parents[1] / "sample.conf").read_text()
    path = tmp_path / "divisor.conf"
    path.write_text(sample + "repeater.link_divisor = 4\n")
    out = tmp_path / "sweep"
    assert main(["repeater-sweep", "--config", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "repeater" in err[0] and "link_divisor" in err[0]
    assert not out.exists()


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
        ["fit-decay", "est0/retrieval.csv", "--format", "csv",
         "--out", "fit"],
        ["fit-decay", "est5/retrieval.csv", "--out", "fit"],
    ]

    def run(parser_for, where):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        seen = []
        for argv in calls:
            try:
                ns = vars(parser_for().parse_args(argv))
            except SystemExit as exc:
                ns = {"exit": exc.code}
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
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
    assert namespaces[4] == {"exit": 2}
    assert [code for _, code, *_ in cached] == [0, 0, 0, 0, ("exit", 2),
                                                0, 0]


def _sample_conf(**edits):
    """sample.conf with the named ``section__key`` lines replaced."""
    text = (Path(__file__).resolve().parents[1] / "sample.conf").read_text()
    for name, value in edits.items():
        key = name.replace("__", ".")
        line = next(ln for ln in text.splitlines()
                    if ln.startswith(f"{key} "))
        text = text.replace(line, f"{key} = {value}")
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


# Extreme but finite inputs, one command line each, with the exit code
# they give. {conf} is sample.conf with the listed edits; {dir} holds the
# data files written by the test.
EXTREME_INPUTS = {
    "trial_period_1e-320": (
        {"timing__trial_period": "1e-320"}, 3,
        "simulate --config {conf} --seed 1 --trials 1000"),
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
    "temperature_1e-320": (
        {"geometry__temperature": "1e-320"}, 3, "lifetime --config {conf}"),
    "wavelength_1e-320": (
        {"geometry__wavelength": "1e-320"}, 0, "lifetime --config {conf}"),
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
    "modes_1e21": (
        {"repeater__modes": "1000000000000000000000"}, 0,
        "repeater-sweep --config {conf}"),
    "log_grid_overflow": (
        {}, 2, "repeater-sweep --preset fig8 --l-min 1e-320"),
    "l_max_1e308": (
        {}, 0, "repeater-sweep --preset fig8 --l-max 1e308 --threshold 1e-4"),
}


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
    argv = line.format(conf=tmp_path / "x.conf", dir=tmp_path).split()
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code in (0, 2, 3, 4)
    assert code == expected
    if code:
        assert len(err) == 1 and err[0].startswith("error: ")
    else:
        assert err == []
