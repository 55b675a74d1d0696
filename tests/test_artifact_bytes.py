"""Byte pins of the CLI artifacts.

The simulate/estimate digests were recorded with the per-trial records
writer and the per-replica resampling loop, before both became columnar;
the every-command digests (artifacts, run manifests and stdout) with the
per-command output code, before the one artifact emitter. Any change to
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


# One run of every command with relative paths, so that the manifests
# (config_path, output_dir, inputs) and stdout are pinned too. Each entry:
# output directory, argv.
EVERY_COMMAND = (
    ("budget_kv", ["budget", "--config", "lab.conf"]),
    ("budget_csv", ["budget", "--config", "lab.conf", "--format", "csv"]),
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
    ("sweep_csv", ["repeater-sweep", "--preset", "fig8",
                   "--threshold", "1e-4", "--format", "csv"]),
)

PINNED_EVERY_COMMAND = {
    "budget_kv/stdout":
        "44682f78653b503d60d8382f2c56abba2ed57ea52f4d02b7a6666990c727f6a4",
    "budget_kv/budget.kv":
        "31c18019ff7546083b825a1266a177de76aa1c2ef47b5ab789653970d8455ab4",
    "budget_kv/run_manifest.kv":
        "59fcd45f9bd3ad36d5f226209f6dd3398710599ae83592ed68a906a3e426b50c",
    "budget_csv/stdout":
        "44682f78653b503d60d8382f2c56abba2ed57ea52f4d02b7a6666990c727f6a4",
    "budget_csv/budget.csv":
        "f9fe1f465cdc887e861094187779567e84b054114530d19103babdfafe1d9f1d",
    "budget_csv/run_manifest.kv":
        "cac61257cf1054da0227b3241c1555b04669b87bef2a80426cbbe1bc1341f9b7",
    "lifetime/stdout":
        "360ffd3c2d7850904c4330eb85f397c75cfe09d88b35278ca03239dc6b62659d",
    "lifetime/lifetime.kv":
        "9ecdf34f3b3bc9859d4b5d3e89ea6b90bb52d86c3fff631853218f925ffb809d",
    "lifetime/run_manifest.kv":
        "abda2a9ec1bbaa1d5da76ea3d411127efc2b50c2e4a8a91630e92e36335d1092",
    "sim/stdout":
        "024567a5c68257c73e05b28f3bc8daa99382448d4b389be234099a7e1ecdf121",
    "sim/counts_t00_a00.csv":
        "fb0c0f0ab69efcefc5b41ecb6c829cbf7b557410bcf771ee4745c55e78b58389",
    "sim/counts_t01_a00.csv":
        "e487563c8863522fead8e28f2afbc29be8db5b1a0fe1e469c802d407408d4cc9",
    "sim/counts_t02_a00.csv":
        "944cd24c04f5f9d4f4790ad9ced2b04f58c43e2180b5b2e0763188df8436e28c",
    "sim/run_manifest.kv":
        "7e4a62d87ec2093ed17db7b57793a78eaa5ffe37e3dd900318b634aaac5a4bb0",
    "sim/trials_t00_a00.csv":
        "bde21978edb60e61c9889f9067988b8222ae633883f1efd1a100b7a6c999ffeb",
    "sim/trials_t01_a00.csv":
        "042b60f4b6fd8272db4c369287c3b767769a2b4402b59c557514f7b24ec769c7",
    "sim/trials_t02_a00.csv":
        "b23422df7bdae14c3047645367d2b58183db2bded90590d8b54d0e75100c30ff",
    "est/stdout":
        "3c3ff464cbe72acedcaadc024ece15160397300a7abf6e8804d009ab5d34e64c",
    "est/estimates.kv":
        "5b12dc56da5c398efbd33b6a8d051ce23fa71e31423f342420c004e8e0973447",
    "est/retrieval.csv":
        "857c7d78be031f2e693a5735d7a9294232ad5679b5f021862a8d7033dfa17660",
    "est/run_manifest.kv":
        "5dfee6881fe187c3286211fe8985a75a15205c3a5f5996b01971158cef736774",
    "fit/stdout":
        "2ac640910061583271d0d3a37795a62d0b4d4190dd88a7a421eabc2ee6f89b46",
    "fit/decay_fit.kv":
        "ec9713f6e0540e64a40417237d34e1d0beee71ec65feb8e7ef9395096a89a94c",
    "fit/run_manifest.kv":
        "3b17a1f49863ff5f13ad380fc6bbca02a83a8bfcfd055644a9d4314f7cb5e798",
    "sweep_kv/stdout":
        "7653a5ef2673dbc071eda54acabe7c6182262d064a4fbe53a9743ed3fb519b7f",
    "sweep_kv/repeater_summary.kv":
        "c7991dc0edb32d7c617dc3b07cd6f45fc153156fb0e366ec1c394eaa4c741eda",
    "sweep_kv/repeater_sweep.csv":
        "92c950bf92afefb8e7861e606481013466be441c3afcd99718498bac57c7deed",
    "sweep_kv/run_manifest.kv":
        "8b6e2b7c448e13345ab56a81287733bf407d23b403b064645ae0a4d0cf1c994a",
    "sweep_csv/stdout":
        "7653a5ef2673dbc071eda54acabe7c6182262d064a4fbe53a9743ed3fb519b7f",
    "sweep_csv/repeater_summary.csv":
        "0e9e44bc9f56243a46799a378d68ced6a18076651d082372bfd094a3c72d22a3",
    "sweep_csv/repeater_sweep.csv":
        "92c950bf92afefb8e7861e606481013466be441c3afcd99718498bac57c7deed",
    "sweep_csv/run_manifest.kv":
        "b663c5935bfdf03c31c5f05580ea004b08a608d7634621b0198dcd0351dd71c2",
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
    assert found == PINNED_EVERY_COMMAND
