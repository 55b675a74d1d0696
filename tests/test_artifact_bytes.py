"""Byte pins of the CLI artifacts.

The digests of everything derived from the engine's counts (simulate's
counts and records, estimate's reports, the fit of its retrieval.csv) were
recorded on random stream v4 with numpy ``RECORDED_NUMPY``: v4 draws each
setting's counts with numpy's multinomial (binomial) sampler, which numpy
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
            f"{np.__version__}; a changed sampler changes stream v4's bytes")

PINNED_DECAY = {
    "counts_t00_a00.csv":
        "028aad1d1b1f98f2afae96342721294f41fdf486b1055834e75531d2145032c3",
    "counts_t01_a00.csv":
        "1928d6482fa49c1192367a73e779fd42d8da62cc1ea0bce218c6190893d0c3e0",
    "trials_t00_a00.csv":
        "22705ba2731892ad99070a8fccce5d64d938983fa1c6c6edee1aad8c79a84953",
    "trials_t01_a00.csv":
        "dbd29bef5a8fa13220219879cd189552866057641088a5432ba0cb54d82b85bc",
    "estimates.kv":
        "865fc601e0263a11883752f37fb012e53c56411bf766f74f259b7e2939daf233",
    "retrieval.csv":
        "a1de9304a8736eda4896b2cb34987d53d934e8a9fcc031959d6591c8bb299389",
}

PINNED_CHSH = {
    "estimates.kv":
        "2ee2302552726b5c51847b378eb4372782465c151ac6a7c0543f85f4fa66514d",
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
        "61ecd7c292675ffc00ed1949c213ad13e5d93b55261ce1789b0fd833f45ac531",
    "sim/counts_t01_a00.csv":
        "36b4bac8d7e5b34aa7cbd96d14009e52840ce702263e90a31447f352c1f8d019",
    "sim/counts_t02_a00.csv":
        "beb108e8f389470c35332fb01da1a2b1294ce34a6007018c996bc2731e35175a",
    "sim/run_manifest.kv":
        "7e4a62d87ec2093ed17db7b57793a78eaa5ffe37e3dd900318b634aaac5a4bb0",
    "sim/trials_t00_a00.csv":
        "c65bc244cd2342c0be5e195d0a769b3b8bbfdb3a661989151e2d4e627e131b46",
    "sim/trials_t01_a00.csv":
        "1f8bcadb84b237f67195188b5d2fa9caad554408530bfb2e5c32d32e186de00c",
    "sim/trials_t02_a00.csv":
        "32a9380f8034585b13bf7149ecbe2c3a6911e88b2317eb498de185743c7c57c4",
    "est/stdout":
        "966198131aea72e44b9560da25db2a5e372bf651b297f7bb806d9dcee0902cfe",
    "est/estimates.kv":
        "a42ebdb0493010393de9d1a06fa6fe7a9f2ffe18502067b122d20964aaef3386",
    "est/retrieval.csv":
        "ff0fd764b1c606d03f71c6d066fa42b545bce4cf369ed615c9bfdc5a343e5523",
    "est/run_manifest.kv":
        "f0d3a2ee6d414561d33dd607ac4a2fcb761771f9115775545675ead93c0285d4",
    "fit/stdout":
        "6b0cf2692a080e10695d92a2532b9534f80c38c478138ef4527b53228c0bef05",
    "fit/decay_fit.kv":
        "1f32597074b0a0694347221ddb10e68d2231612ae7399ef7c1e658c9430567dd",
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
