import hashlib
import math
import re

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
    pulse = config_file.with_name("pulse.conf")  # no pulse-duration keys
    for key in ("write_duration", "read_duration", "clean_duration",
                "interval"):
        pulse.write_text(FULL_CONFIG + f"timing.{key} = 3e-7\n")
        with pytest.raises(ConfigError, match=f"unknown key 'timing.{key}'"):
            load_config(pulse)
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


REQUIRED = None
# The config format: every section.key with its type and, for an optional
# key, the value it takes when omitted (as config text).
CONFIG_KEYS = {
    "experiment.chi": ("float", REQUIRED),
    "experiment.noise_b": ("float", REQUIRED),
    "experiment.noise_c": ("float", REQUIRED),
    "experiment.eta_s": ("float", "0.15"),  # = experiment.eta_as
    "experiment.eta_as": ("float", REQUIRED),
    "experiment.visibility": ("float", repr(DEFAULT_VISIBILITY)),
    "experiment.phase": ("float", "0"),
    "decay.r0": ("float", REQUIRED),
    "decay.tau0": ("float", REQUIRED),
    "chain.t_oc": ("float", REQUIRED),
    "chain.cavity_loss": ("float", REQUIRED),
    "chain.eta_smf": ("float", REQUIRED),
    "chain.eta_filter": ("float", REQUIRED),
    "chain.eta_mmf": ("float", REQUIRED),
    "chain.eta_d": ("float", REQUIRED),
    "geometry.wavelength": ("float", REQUIRED),
    "geometry.temperature": ("float", REQUIRED),
    "geometry.atomic_mass": ("float", REQUIRED),
    "geometry.bd_separation": ("float", REQUIRED),
    "geometry.f_btd": ("float", REQUIRED),
    "geometry.f0": ("float", REQUIRED),
    "timing.prep_duration": ("float", REQUIRED),
    "timing.run_duration": ("float", REQUIRED),
    "timing.trial_period": ("float", REQUIRED),
    "engine.double_pair": ("bool", "false"),
    "repeater.nest_level": ("int", REQUIRED),
    "repeater.modes": ("int", REQUIRED),
    "repeater.distance": ("float", REQUIRED),
    "repeater.attenuation_length": ("float", REQUIRED),
    "repeater.fiber_speed": ("float", REQUIRED),
    "repeater.chi": ("float", REQUIRED),
    "repeater.eta_fc": ("float", REQUIRED),
    "repeater.eta_td": ("float", REQUIRED),
    "repeater.r0": ("float", REQUIRED),
    "repeater.tau0": ("float", REQUIRED),
    "repeater.link_divisor": ("str", "2^n"),
}
BAD_VALUE = {"float": "zebra", "int": "4.5", "bool": "yes"}


def test_config_keys_are_pinned(tmp_path):
    """Every key of the format is accepted with its type; a missing
    required key is named, the first of its section's in the order above;
    an omitted optional key takes its default."""
    lines = dict(ln.split(" = ") for ln in FULL_CONFIG.splitlines()
                 if " = " in ln)
    lines.update((key, default) for key, (_, default) in CONFIG_KEYS.items()
                 if key not in lines and default is not REQUIRED)
    assert set(CONFIG_KEYS) <= set(lines)
    path = tmp_path / "keys.conf"

    def load(drop=(), **edits):
        path.write_text("".join(f"{key} = {value}\n"
                                for key, value in {**lines, **edits}.items()
                                if key not in drop))
        return load_config(path)._replace(config_hash="")

    full = load()
    keys = list(CONFIG_KEYS)
    for i, (key, (kind, default)) in enumerate(CONFIG_KEYS.items()):
        section = key.partition(".")[0] + "."
        if default is REQUIRED:
            # missing alone, and with every later required key of its
            # section, as long as the section keeps a key
            later = tuple(k for k in keys[i:] if k.startswith(section)
                          and CONFIG_KEYS[k][1] is REQUIRED)
            for drop in ((key,), later):
                if any(k.startswith(section) and k not in drop
                       for k in lines):
                    with pytest.raises(ConfigError,
                                       match=re.escape(f"'{key}'")):
                        load(drop=drop)
        else:
            assert load(drop=(key,)) == full
        if kind in BAD_VALUE:
            with pytest.raises(ConfigError, match="cannot parse"):
                load(**{key: BAD_VALUE[kind]})
    assert load(**{"repeater.link_divisor": "n"}).repeater.link_divisor == "n"
    for key in ("experiment.v0", "experiment.decay", "chain.loss_items"):
        with pytest.raises(ConfigError, match="unknown key"):
            load(**{key: "1"})


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
    """A valid CountsTable: angles from any finite degrees (the unit of
    the file), any finite storage time >= 0 (a storage time is a delay, so
    ``CountsTable`` rejects a negative one), counts >= 0 within the
    singles/coincidence invariants."""
    angle = st.floats(allow_nan=False, allow_infinity=False)
    count = st.integers(min_value=0, max_value=2 ** 70)
    c13, c14, c23, c24 = (draw(count) for _ in range(4))
    n_d1, n_d2 = c13 + c14 + draw(count), c23 + c24 + draw(count)
    return CountsTable(
        settings=AngleSettings.from_degrees(draw(angle), draw(angle)),
        storage_time=draw(st.floats(min_value=0.0, allow_infinity=False)),
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


COUNTS_HEADER = ("theta_s_deg,theta_as_deg,storage_time_s,n_pulses,"
                 "n_d1,n_d2,c13,c24,c14,c23")
PERMUTED_HEADER = ("c23,n_pulses,theta_as_deg,c14,n_d2,storage_time_s,"
                   "c24,theta_s_deg,c13,n_d1")

# Faulty files, one per case: (reader, text, message). {path} stands for
# the file. Non-finite cells are covered by their own tests.
READER_FAULTS = {
    "counts_no_header": (read_counts_csv, "# seed = 1\n\n",
                         "{path}: no header row found"),
    "counts_empty": (read_counts_csv, "", "{path}: no header row found"),
    "counts_missing": (
        read_counts_csv, COUNTS_HEADER.replace(",c23", "") + "\n",
        "{path}: missing column 'c23'"),
    "counts_missing_first_in_schema_order": (
        read_counts_csv,
        PERMUTED_HEADER.replace(",c14", "").replace(",n_d1", "") + "\n",
        "{path}: missing column 'n_d1'"),
    "counts_unexpected": (read_counts_csv, COUNTS_HEADER + ",extra\n",
                          "{path}: unexpected column 'extra'"),
    "counts_duplicate": (read_counts_csv, COUNTS_HEADER + ",n_d1\n",
                         "{path}: duplicate column 'n_d1'"),
    "counts_missing_before_unexpected": (
        read_counts_csv, "extra," + COUNTS_HEADER.replace(",c24", "") + "\n",
        "{path}: missing column 'c24'"),
    "counts_duplicate_before_unexpected": (
        read_counts_csv, COUNTS_HEADER + ",c13,extra\n",
        "{path}: duplicate column 'c13'"),
    "counts_unexpected_before_duplicate": (
        read_counts_csv, "extra," + COUNTS_HEADER + ",c13\n",
        "{path}: unexpected column 'extra'"),
    "counts_unexpected_twice": (
        read_counts_csv, COUNTS_HEADER + ",extra,extra\n",
        "{path}: unexpected column 'extra'"),
    "counts_short_row": (
        read_counts_csv, COUNTS_HEADER + "\n0,0,0,100,1,1,0,0,0\n",
        "{path}: line 2: expected 10 fields, got 9"),
    "counts_long_row": (
        read_counts_csv, COUNTS_HEADER + "\n0,0,0,100,1,1,0,0,0,0,0\n",
        "{path}: line 2: expected 10 fields, got 11"),
    "counts_short_row_before_bad_cell": (
        read_counts_csv, COUNTS_HEADER + "\nx,0,0,100,1,1,0,0,0\n",
        "{path}: line 2: expected 10 fields, got 9"),
    "counts_line_numbers_count_comments": (
        read_counts_csv, "# seed = 1\n\n" + COUNTS_HEADER
        + "\n0,0,0,100,1,1,0,0,0,0\n\n0,0,0,100,1,1,0,0,0\n",
        "{path}: line 6: expected 10 fields, got 9"),
    "counts_bad_float": (
        read_counts_csv, COUNTS_HEADER + "\n0,abc,0,100,1,1,0,0,0,0\n",
        "{path}: line 2, column 'theta_as_deg': "
        "'abc' is not a number"),
    "counts_empty_float": (
        read_counts_csv, COUNTS_HEADER + "\n0,0,,100,1,1,0,0,0,0\n",
        "{path}: line 2, column 'storage_time_s': "
        "'' is not a number"),
    "counts_bad_int": (
        read_counts_csv, COUNTS_HEADER + "\n0,0,0,100,1.5,1,0,0,0,0\n",
        "{path}: line 2, column 'n_d1': "
        "'1.5' is not an integer"),
    "counts_hex_int": (
        read_counts_csv, COUNTS_HEADER + "\n0,0,0,0x10,1,1,0,0,0,0\n",
        "{path}: line 2, column 'n_pulses': "
        "'0x10' is not an integer"),
    "counts_first_bad_cell_in_schema_order": (
        read_counts_csv, PERMUTED_HEADER + "\nx,0,0,0,1,0,0,y,0,1\n",
        "{path}: line 2, column 'theta_s_deg': "
        "'y' is not a number"),
    "counts_earlier_row_first": (
        read_counts_csv, COUNTS_HEADER
        + "\n0,0,0,100,1,1,0,0,0,q\n0,0,0,100,1,1,0,0,0\n",
        "{path}: line 2, column 'c23': "
        "'q' is not an integer"),
    "counts_invariant": (
        read_counts_csv, COUNTS_HEADER + "\n0,0,0,100,1,1,5,0,0,0\n",
        "{path}: line 2: more D1 coincidences than D1 singles"),
    "counts_negative": (
        read_counts_csv, COUNTS_HEADER + "\n0,0,0,100,-1,1,0,0,0,0\n",
        "{path}: line 2: n_d1 = -1 must be finite and in [0, inf)"),
    "counts_invariant_after_good_row": (
        read_counts_csv, COUNTS_HEADER
        + "\n0,0,0,100,1,1,0,0,0,0\n0,0,0,10,9,9,0,0,0,0\n",
        "{path}: line 3: more Stokes singles than pulses"),
    "counts_invariant_before_later_bad_cell": (
        read_counts_csv, COUNTS_HEADER
        + "\n0,0,0,100,1,1,5,0,0,0\n0,0,0,100,x,1,0,0,0,0\n",
        "{path}: line 2: more D1 coincidences than D1 singles"),
    "decay_no_header": (read_decay_csv, "# t = 0\n",
                        "{path}: no header row found"),
    "decay_missing": (read_decay_csv, "t_seconds,efficiency\n0,0.77\n",
                      "{path}: missing column 'R'"),
    "decay_missing_both": (read_decay_csv, "sigma_R\n0.01\n",
                           "{path}: missing column 't_seconds'"),
    "decay_unexpected": (read_decay_csv, "R,t_seconds,sigma\n0.7,0,0.1\n",
                         "{path}: unexpected column 'sigma'"),
    "decay_duplicate": (read_decay_csv, "t_seconds,R,sigma_R,R\n",
                        "{path}: duplicate column 'R'"),
    "decay_short_row": (read_decay_csv, "t_seconds,R,sigma_R\n0,0.7\n",
                        "{path}: line 2: expected 3 fields, got 2"),
    "decay_long_row": (read_decay_csv, "t_seconds,R\n0,0.77\n1,0.5,0.1\n",
                       "{path}: line 3: expected 2 fields, got 3"),
    "decay_bad_float": (
        read_decay_csv, "t_seconds,R\n0,0.77\n0.001,abc\n",
        "{path}: line 3, column 'R': 'abc' is not a number"),
    "decay_bad_sigma": (
        read_decay_csv, "sigma_R,t_seconds,R\n1e-2%,0,0.77\n",
        "{path}: line 2, column 'sigma_R': '1e-2%' is not a number"),
    "decay_t_parsed_before_r": (
        read_decay_csv, "R,t_seconds\nr,t\n",
        "{path}: line 2, column 't_seconds': 't' is not a number"),
}


@pytest.mark.parametrize("case", sorted(READER_FAULTS))
def test_reader_faults_are_pinned(case, tmp_path):
    reader, text, message = READER_FAULTS[case]
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as info:
        reader(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
def test_decay_reader_rejects_non_finite_cells(value, tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text(f"t_seconds,R\n0,0.77\n0.001,{value}\n")
    with pytest.raises(SchemaError) as info:
        read_decay_csv(path)
    assert str(info.value) == (
        f"{path}: line 3, column 'R': {value!r} is not finite")


def test_reader_values_are_pinned(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("# dlczsim counts v1\n# seed = 7\n# note = a = b\n"
                    + PERMUTED_HEADER + "\n"
                    " 3 ,+100, 1e3,1,7,2.5e-4,2,5,4,1_0 \n\n"
                    "0,10,-45,0,0,0,0,0,0,0\n")
    tables, provenance = read_counts_csv(path)
    assert tables == [
        CountsTable(AngleSettings.from_degrees(5.0, 1000.0), 2.5e-4, 100,
                    10, 7, 4, 2, 1, 3),
        CountsTable(AngleSettings.from_degrees(0.0, -45.0), 0.0, 10,
                    0, 0, 0, 0, 0, 0)]
    assert provenance == {"seed": "7", "note": "a = b"}
    path.write_text("R,t_seconds\n0.77,0\n0.5,5.4e-4\n")
    assert read_decay_csv(path) == [(0.0, 0.77), (5.4e-4, 0.5)]
    path.write_text("sigma_R,R,t_seconds\n0.01,0.77,0\n1_0,5e-1,1E-3\n")
    assert read_decay_csv(path) == [(0.0, 0.77, 0.01), (1e-3, 0.5, 10.0)]
    path.write_text("t_seconds,R,sigma_R\n")
    assert read_decay_csv(path) == []
    path.write_text(COUNTS_HEADER + "\n")
    assert read_counts_csv(path) == ([], {})


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
