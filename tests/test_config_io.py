import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from dlczsim import (AngleSettings, ConfigError, CountsTable, SchemaError,
                     load_config)
from dlczsim.config import DEFAULT_VISIBILITY
from dlczsim.datafiles import (read_counts_csv, read_decay_csv, read_kv,
                               write_counts_csv, write_csv, write_kv)

FULL_CONFIG = """\
# cavity-enhanced memory, measured operating point
experiment.chi = 0.01
experiment.noise_b = 1e-5
experiment.noise_c = 1e-4
experiment.eta_s = 0.15
experiment.eta_as = 0.15
decay.r0 = 0.77
decay.tau0 = 1e-3

chain.t_oc = 0.20
chain.cavity_loss = 0.13
chain.eta_smf = 0.71
chain.eta_filter = 0.56
chain.eta_mmf = 0.92
chain.eta_d = 0.68
chain.loss.bs1 = 0.01
chain.loss.bs2 = 0.03
chain.loss.hr = 0.01
chain.loss.optics = 0.048
chain.loss.arm_escape = 0.032

geometry.wavelength = 795e-9
geometry.temperature = 100e-6
geometry.atomic_mass = 1.4446689879e-25
geometry.bd_separation = 5.5e-3
geometry.f_btd = 2
geometry.f0 = 1.5

timing.prep_duration = 42e-3
timing.run_duration = 8e-3
timing.trial_period = 2000e-9

repeater.nest_level = 4
repeater.modes = 1000
repeater.distance = 1e6
repeater.attenuation_length = 22e3
repeater.fiber_speed = 2e8
repeater.chi = 0.045226195313454
repeater.eta_fc = 0.33
repeater.eta_td = 0.88
repeater.r0 = 0.8
repeater.tau0 = 16
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "experiment.conf"
    path.write_text(FULL_CONFIG)
    return path


def test_load_full_config(config_file):
    cfg = load_config(config_file)
    assert cfg.experiment.chi == 0.01
    assert cfg.experiment.v0 == DEFAULT_VISIBILITY  # default calibration
    assert cfg.experiment.phase == 0.0
    assert cfg.experiment.decay.tau0 == 1e-3
    assert cfg.chain.eta_td == pytest.approx(0.1507, abs=1e-3)
    assert math.fsum(cfg.chain.loss_items.values()) == pytest.approx(0.13)
    assert cfg.geometry.f_btd == 2.0
    assert cfg.timing.trials_per_run == 4000
    assert cfg.timing.write_duration == 300e-9  # default pulse anatomy
    assert cfg.repeater.n_links == 16
    assert cfg.double_pair is False
    digest = hashlib.sha256(config_file.read_bytes()).hexdigest()
    assert cfg.config_hash == f"sha256:{digest}"


def test_eta_s_defaults_to_eta_as(tmp_path):
    path = tmp_path / "sym.conf"
    lines = [ln for ln in FULL_CONFIG.splitlines()
             if not ln.startswith("experiment.eta_s ")]
    path.write_text("\n".join(lines))
    cfg = load_config(path)
    assert cfg.experiment.eta_s == cfg.experiment.eta_as == 0.15


def test_partial_config_sections_are_none(tmp_path):
    path = tmp_path / "chain.conf"
    path.write_text("chain.t_oc = 0.2\nchain.cavity_loss = 0.13\n"
                    "chain.eta_smf = 0.71\nchain.eta_filter = 0.56\n"
                    "chain.eta_mmf = 0.92\nchain.eta_d = 0.68\n")
    cfg = load_config(path)
    assert cfg.chain is not None
    assert cfg.experiment is None
    assert cfg.repeater is None


def test_unknown_key_is_a_hard_error(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text(FULL_CONFIG + "experiment.typo_chi = 0.01\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


@pytest.mark.parametrize("line", [
    "chain.t_oc == 0.2",
    "experiment.chi = zebra",
    "repeater.nest_level = 4.5",
])
def test_unparseable_values_are_hard_errors(tmp_path, line):
    path = tmp_path / "bad.conf"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.conf"
    path.write_text("chain.t_oc = 0.2\nchain.t_oc = 0.3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_missing_required_key(tmp_path):
    path = tmp_path / "missing.conf"
    path.write_text("chain.t_oc = 0.2\n")
    with pytest.raises(ConfigError, match="chain.cavity_loss"):
        load_config(path)


def test_experiment_requires_decay(tmp_path):
    path = tmp_path / "nodecay.conf"
    lines = [ln for ln in FULL_CONFIG.splitlines()
             if not ln.startswith("decay.")]
    path.write_text("\n".join(lines))
    with pytest.raises(ConfigError, match="decay"):
        load_config(path)


def test_loss_items_must_sum_to_cavity_loss(tmp_path):
    path = tmp_path / "loss.conf"
    path.write_text("chain.t_oc = 0.2\nchain.cavity_loss = 0.13\n"
                    "chain.eta_smf = 0.71\nchain.eta_filter = 0.56\n"
                    "chain.eta_mmf = 0.92\nchain.eta_d = 0.68\n"
                    "chain.loss.bs1 = 0.01\n")
    with pytest.raises(ConfigError, match="itemized"):
        load_config(path)


def test_out_of_range_value_names_section(tmp_path):
    path = tmp_path / "range.conf"
    path.write_text(FULL_CONFIG.replace("chain.eta_d = 0.68",
                                        "chain.eta_d = 1.68"))
    with pytest.raises(ConfigError, match="chain"):
        load_config(path)


def make_table(**overrides):
    fields = dict(settings=AngleSettings.from_degrees(0.0, 0.0),
                  storage_time=5.4e-4, n_pulses=10_000, n_d1=70, n_d2=72,
                  c13=8, c24=7, c14=1, c23=0)
    fields.update(overrides)
    return CountsTable(**fields)


def test_counts_roundtrip(tmp_path):
    path = tmp_path / "counts.csv"
    tables = [make_table(),
              make_table(settings=AngleSettings.from_degrees(45.0, 22.5))]
    write_counts_csv(path, tables, {"seed": 7, "config_hash": "sha256:x"})
    loaded, provenance = read_counts_csv(path)
    assert loaded == tables
    assert provenance["seed"] == "7"
    assert provenance["config_hash"] == "sha256:x"


@st.composite
def counts_tables(draw):
    """A valid CountsTable: angles from any non-NaN degrees (the unit of
    the file), any non-NaN storage time, counts >= 0 within the
    singles/coincidence invariants."""
    angle = st.floats(allow_nan=False)
    count = st.integers(min_value=0, max_value=2 ** 70)
    c13, c14, c23, c24 = (draw(count) for _ in range(4))
    n_d1, n_d2 = c13 + c14 + draw(count), c23 + c24 + draw(count)
    return CountsTable(
        settings=AngleSettings.from_degrees(draw(angle), draw(angle)),
        storage_time=draw(st.floats(allow_nan=False)),
        n_pulses=n_d1 + n_d2 + draw(count), n_d1=n_d1, n_d2=n_d2,
        c13=c13, c24=c24, c14=c14, c23=c23)


@given(st.lists(counts_tables(), min_size=1, max_size=4))
def test_counts_roundtrip_property(tmp_path_factory, tables):
    path = tmp_path_factory.mktemp("counts") / "counts.csv"
    write_counts_csv(path, tables, {"seed": 7})
    loaded, _ = read_counts_csv(path)
    assert loaded == tables


def test_counts_schema_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta_s_deg,theta_as_deg,storage_time_s,n_pulses,"
                    "n_d1,n_d2,c13,c24,c14\n0,0,0,100,1,1,0,0,0\n")
    with pytest.raises(SchemaError, match="c23"):
        read_counts_csv(path)


def test_counts_schema_unexpected_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta_s_deg,theta_as_deg,storage_time_s,n_pulses,"
                    "n_d1,n_d2,c13,c24,c14,c23,extra\n"
                    "0,0,0,100,1,1,0,0,0,0,9\n")
    with pytest.raises(SchemaError, match="extra"):
        read_counts_csv(path)


def test_counts_schema_bad_integer(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta_s_deg,theta_as_deg,storage_time_s,n_pulses,"
                    "n_d1,n_d2,c13,c24,c14,c23\n0,0,0,100,1.5,1,0,0,0,0\n")
    with pytest.raises(SchemaError, match="n_d1"):
        read_counts_csv(path)


def test_counts_schema_invariant_violation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta_s_deg,theta_as_deg,storage_time_s,n_pulses,"
                    "n_d1,n_d2,c13,c24,c14,c23\n0,0,0,100,1,1,5,0,0,0\n")
    with pytest.raises(SchemaError, match="line 2"):
        read_counts_csv(path)


def test_decay_csv_two_and_three_columns(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("t_seconds,R\n0,0.77\n0.00023,0.667\n0.00054,0.50\n")
    assert read_decay_csv(path) == [(0.0, 0.77), (0.00023, 0.667),
                                    (0.00054, 0.50)]
    path.write_text("t_seconds,R,sigma_R\n0,0.77,0.01\n")
    assert read_decay_csv(path) == [(0.0, 0.77, 0.01)]


def test_decay_csv_names_missing_column(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("t_seconds,efficiency\n0,0.77\n")
    with pytest.raises(SchemaError, match="R"):
        read_decay_csv(path)


def test_kv_roundtrip(tmp_path):
    path = tmp_path / "report.kv"
    write_kv(path, "budget", {"eta_td": 0.1507, "ok": True},
             {"config_hash": "sha256:y"})
    entries, provenance = read_kv(path)
    assert entries["eta_td"] == "0.1507"
    assert entries["ok"] == "true"
    assert provenance["config_hash"] == "sha256:y"


def test_write_csv_deterministic_bytes(tmp_path):
    rows = [(1, 0.5, "x"), (2, 1e-7, "y")]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, "sweep", ("i", "v", "s"), rows, {"seed": 0})
    write_csv(b, "sweep", ("i", "v", "s"), rows, {"seed": 0})
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_consumes_rows_lazily(tmp_path):
    # chunks larger than the write buffer reach the file as they come;
    # the short header may wait in the buffer until the first chunk
    path = tmp_path / "trials.csv"
    chunks = [f"{i}," + "x" * 20_000 + "\n" for i in range(4)]
    header = "# dlczsim trials v1\n# seed = 0\ni,s\n"
    seen = []

    def rows():
        for i, chunk in enumerate(chunks):
            seen.append(path.read_text())
            yield chunk

    write_csv(path, "trials", ("i", "s"), rows(), {"seed": 0})
    assert header.startswith(seen[0])
    for i in range(1, len(chunks)):
        assert seen[i] == header + "".join(chunks[:i])
    assert path.read_text() == header + "".join(chunks)
