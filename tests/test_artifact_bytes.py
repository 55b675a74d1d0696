"""Byte pins of the CLI artifacts.

The digests of everything derived from the engine's counts (simulate's
counts and records, estimate's reports, the fit of its retrieval.csv) were
recorded on random stream v3 with numpy ``RECORDED_NUMPY``: v3 draws each
block's counts with numpy's multinomial (binomial) sampler, which numpy
does not promise to keep across feature releases. The other digests
(budget, lifetime, repeater-sweep and every stdout or manifest that does
not depend on the counts) were recorded before the one artifact emitter
and do not depend on numpy's samplers. Any change to the random streams,
the float operation order or the text formatting of these files shows up
here.
"""

import hashlib

import numpy as np
import pytest

from dlczsim.cli import main

from test_cli import CONFIG

RECORDED_NUMPY = "2.4.6"
MISMATCH = (f"digests recorded with numpy {RECORDED_NUMPY}, running numpy "
            f"{np.__version__}; a changed sampler changes stream v3's bytes")

PINNED_DECAY = {
    "counts_t00_a00.csv":
        "05a573a3defb828f3786a127ef7135205cabf625beb1acfed9cd7e7bc3796694",
    "counts_t01_a00.csv":
        "7bcce11490123b9a22a6b0de161708b7eeddc47b3a9915d7c5d33bd24088f8fa",
    "trials_t00_a00.csv":
        "1dca0ca4f45f90b2ed1c89a15168ecfb8ed7aa54f928829bc7820402a72d7f5c",
    "trials_t01_a00.csv":
        "325c290a076d1a05dc1eca6450f28cdb8b9bed1f64b6cf37c15a073629ad7477",
    "estimates.kv":
        "7edd1cffb822afe2c33a42d50eec6c7cfbfc989ffd27aed5fc98b26f2b18132d",
    "retrieval.csv":
        "bc459f40dc5cc580e730e5aefcb097b7e7943fd0fca6881ddfc1060a2abf7c64",
}

PINNED_CHSH = {
    "estimates.kv":
        "a560381538299a99748c218bb5c53186dac2d686213cb0c2ff55e1e13bfb7eff",
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
    assert digests(out, PINNED_DECAY) == PINNED_DECAY, MISMATCH


def test_bell_estimate_is_byte_pinned(double_pair_config, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", double_pair_config, "--seed", "5",
                 "--trials", "20000", "--angles", "canonical",
                 "--out", str(out)]) == 0
    counts = sorted(str(p) for p in out.glob("counts_*.csv"))
    assert len(counts) == 4
    assert main(["estimate", "--config", double_pair_config, "--seed", "1",
                 "--replicas", "1000", "--out", str(out), *counts]) == 0
    assert digests(out, PINNED_CHSH) == PINNED_CHSH, MISMATCH


# One run of every command with relative paths, so that the manifests
# (config_path, output_dir, inputs) and stdout are pinned too. Each entry:
# output directory, argv.
EVERY_COMMAND = (
    ("budget_kv", ["budget", "--config", "lab.conf"]),
    ("lifetime", ["lifetime", "--config", "lab.conf"]),
    ("sim", ["simulate", "--config", "lab.conf", "--seed", "17",
             "--trials", "20000", "--t", "0,0.0003,0.0008",
             "--records"]),
    ("est", ["estimate", "--config", "lab.conf", "--eta-td", "0.5",
             "--seed", "4", "--replicas", "500", "sim/counts_t00_a00.csv",
             "sim/counts_t01_a00.csv", "sim/counts_t02_a00.csv"]),
    ("fit", ["fit-decay", "est/retrieval.csv"]),
    ("sweep_kv", ["repeater-sweep", "--preset", "fig8",
                  "--threshold", "1e-4"]),
)

PINNED_EVERY_COMMAND = {
    "budget_kv/stdout":
        "44682f78653b503d60d8382f2c56abba2ed57ea52f4d02b7a6666990c727f6a4",
    "budget_kv/budget.kv":
        "31c18019ff7546083b825a1266a177de76aa1c2ef47b5ab789653970d8455ab4",
    "budget_kv/run_manifest.kv":
        "59fcd45f9bd3ad36d5f226209f6dd3398710599ae83592ed68a906a3e426b50c",
    "lifetime/stdout":
        "360ffd3c2d7850904c4330eb85f397c75cfe09d88b35278ca03239dc6b62659d",
    "lifetime/lifetime.kv":
        "9ecdf34f3b3bc9859d4b5d3e89ea6b90bb52d86c3fff631853218f925ffb809d",
    "lifetime/run_manifest.kv":
        "abda2a9ec1bbaa1d5da76ea3d411127efc2b50c2e4a8a91630e92e36335d1092",
    "sim/stdout":
        "024567a5c68257c73e05b28f3bc8daa99382448d4b389be234099a7e1ecdf121",
    "sim/counts_t00_a00.csv":
        "b3aa24ce4bdca069fd3b9411c0ed5da5abd92894e5b8a38f722f89f16571f102",
    "sim/counts_t01_a00.csv":
        "165f822f2e527dbcc2d6d2df32a27e605787c8303cbbc6a2e9b9189e18fb8cbe",
    "sim/counts_t02_a00.csv":
        "4fa478e5bb40200402315425f5f2ab6956cc5b4059a1c7e36c870f6412a96d80",
    "sim/run_manifest.kv":
        "7e4a62d87ec2093ed17db7b57793a78eaa5ffe37e3dd900318b634aaac5a4bb0",
    "sim/trials_t00_a00.csv":
        "1dac8ac6534568ba808ffec3dd90c546b0b064cbc5519f59f9d9edf71c05c52b",
    "sim/trials_t01_a00.csv":
        "52763efd3f57e09d09737123b020af2bb3407e78eab954f7bc8cf01548d37e32",
    "sim/trials_t02_a00.csv":
        "e5a12ef9747baca1844d679731841399286c1442483a79bc38b3db252f00d7b4",
    "est/stdout":
        "9653e073cdb5cb33c1a7fbedc761fb5b60a6d111f1da88e04c21e9ed6872ecf7",
    "est/estimates.kv":
        "7ff6f3b82984ff2edadbeaac6acc34300315bf837a9b3c733cc9f5adc31f5795",
    "est/retrieval.csv":
        "bf46e3179bf6b13b4213c49a8d6e5927d04018a1c8f84e2e816acf6e3379681c",
    "est/run_manifest.kv":
        "3b99724983b7292cd93903a4e83a425eea190cff363dd7e9329ad1c750034fb6",
    "fit/stdout":
        "27140af29e6c0789de71105043e0dd8c54f78ced7fe6d71734e8656ae661d93d",
    "fit/decay_fit.kv":
        "809681d1376ed4eb07f70fcaf9bcf77d558633a3c58c42baad3631574cdce719",
    "fit/run_manifest.kv":
        "3b17a1f49863ff5f13ad380fc6bbca02a83a8bfcfd055644a9d4314f7cb5e798",
    "sweep_kv/stdout":
        "7c1cab9d55901e1e82543e1dfe0649abd2b835d8d1e7aa1430d67f875ade32ae",
    "sweep_kv/repeater_summary.kv":
        "ad3ff56c10d7204e228b78ed83ae4d06347cc1b541793869dda0788eeab99461",
    "sweep_kv/repeater_sweep.csv":
        "ba58c3c87ea0c9877ddbe9234f16e2352378c3f295b0690e907586b427446358",
    "sweep_kv/run_manifest.kv":
        "8b6e2b7c448e13345ab56a81287733bf407d23b403b064645ae0a4d0cf1c994a",
}


def test_every_command_is_byte_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.conf").write_text(CONFIG)
    found = {}
    for out, argv in EVERY_COMMAND:
        assert main(argv + ["--out", out]) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        found[f"{out}/stdout"] = hashlib.sha256(stdout).hexdigest()
        names = sorted(p.name for p in (tmp_path / out).iterdir())
        found.update({f"{out}/{name}": digest for name, digest
                      in digests(tmp_path / out, names).items()})
    assert found == PINNED_EVERY_COMMAND, MISMATCH
