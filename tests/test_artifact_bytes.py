"""Byte pins of the simulate/estimate artifacts.

The digests were recorded with the per-trial records writer and the
per-replica resampling loop, before both became columnar. Any change to
the random streams, the float operation order or the text formatting of
these files shows up here.
"""

import hashlib

import pytest

from dlczsim.cli import main

from test_cli import CONFIG

PINNED_DECAY = {
    "counts_t00_a00.csv":
        "4559b67909ac6faa6eb162b8e99ba0f936790823e6435931acd92ffaa69e5f68",
    "counts_t01_a00.csv":
        "243d48ac1c993b343b04c2baa973759e14b17c7293b2972fde5420aa5e108f77",
    "trials_t00_a00.csv":
        "66070a1f6671390e579105517ada065d349910b21f71f009c81e9027e9ed0b98",
    "trials_t01_a00.csv":
        "adea7962c30348d80a7aa9a559efdd0949370fe4b406ae6ee629ad06fe76236b",
    "estimates.kv":
        "182fe3a77ddc4c815ae495348da3722e61ac9908a17f3907dcf55565b007db03",
    "retrieval.csv":
        "974b2fceabc73506020d08f67d4caa8e27480e3a951560ae5342a61224cfff7e",
}

PINNED_CHSH = {
    "estimates.kv":
        "50c4eb8e88b7f6480dc978a72ba0e2d9f20e31f11e6ff4ae344f86e51b5fc3e9",
}


def digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


@pytest.fixture
def double_pair_config(tmp_path):
    path = tmp_path / "double.conf"
    path.write_text(CONFIG + "engine.double_pair = true\n")
    return str(path)


def test_records_and_retrieval_estimates_are_byte_pinned(double_pair_config,
                                                         tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", double_pair_config, "--seed", "7",
                 "--trials", "20000", "--t", "0,0.0005", "--angles", "0:0",
                 "--records", "--out", str(out)]) == 0
    assert main(["estimate", "--config", double_pair_config, "--seed", "3",
                 "--replicas", "2000", "--out", str(out),
                 str(out / "counts_t00_a00.csv"),
                 str(out / "counts_t01_a00.csv")]) == 0
    assert digests(out, PINNED_DECAY) == PINNED_DECAY


def test_bell_estimate_is_byte_pinned(double_pair_config, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", double_pair_config, "--seed", "5",
                 "--trials", "20000", "--angles", "canonical",
                 "--out", str(out)]) == 0
    counts = sorted(str(p) for p in out.glob("counts_*.csv"))
    assert len(counts) == 4
    assert main(["estimate", "--config", double_pair_config, "--seed", "1",
                 "--replicas", "1000", "--out", str(out), *counts]) == 0
    assert digests(out, PINNED_CHSH) == PINNED_CHSH
