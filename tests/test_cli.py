import json
import os
import shutil

import numpy as np
import pytest
from test_pipeline import tiny_config

from vimu.cli import main
from vimu.data import Dataset, SynthConfig, make_split, resolve_profile, synth_generate
from vimu.gan import load_discriminator
from vimu.pipeline import (
    derive_seed,
    extract_windows,
    load_window_table,
    run_experiment,
    save_window_table,
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    code = main([
        "synth", "--out", str(root), "--subjects", "2", "--gestures", "2",
        "--trials", "4", "--trial-seconds", "5.0", "--seed", "3",
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def windows_file(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_win") / "w.npz"
    code = main([
        "preprocess", "--dataset", str(dataset_dir), "--out", str(out),
        "--window-ms", "200", "--step-ms", "200", "--decimation", "4",
    ])
    assert code == 0
    return out


def run_config(dataset_dir, out_dir, seed=0, arms="unimodal"):
    return {
        "dataset": str(dataset_dir),
        "out_dir": str(out_dir),
        "arms": [a for a in arms.split(",")],
        "seed": seed,
        "preproc": {"window_ms": 200.0, "step_ms": 200.0, "decimation": 4,
                    "rms_ms": 100.0, "mavg_ms": 100.0, "butter_cutoff_hz": 1.0},
        "gan": {"epochs": 3, "batch_size": 8, "max_pairs": 48, "generator_maps": [4, 2, 1]},
        "classifier": {"batch_size": 16, "epochs": 2, "decay_epochs": [1], "seed": seed},
        "network": {"conv_maps": 2, "lc_maps": 2, "dense_units": 8, "fusion_hidden": 8,
                    "dropout": 0.5},
    }


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["synth"]) == 1  # missing --out
        assert main(["not-a-command"]) == 1

    def test_data_error_is_two(self, tmp_path):
        assert main(["preprocess", "--dataset", str(tmp_path / "missing"), "--out",
                     str(tmp_path / "w.npz")]) == 2

    def test_bad_config_key_is_one(self, dataset_dir, tmp_path):
        cfg = run_config(dataset_dir, tmp_path / "out")
        cfg["bogus"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1


class TestSynthAndPreprocess:
    def test_synth_writes_dataset(self, dataset_dir):
        assert (dataset_dir / "manifest.json").exists()
        assert len(list(dataset_dir.glob("*.gst"))) == 2 * 2 * 4

    def test_preprocess_emits_table(self, windows_file):
        table = load_window_table(windows_file)
        assert table.semg_hgr.shape[0] > 0
        assert table.imu is not None


class TestStagePipeline:
    def test_gan_stage_then_generate(self, windows_file, tmp_path, capsys):
        bundle_dir = tmp_path / "gan"
        code = main([
            "train-gan", "--windows", str(windows_file), "--out", str(bundle_dir),
            "--epochs", "2", "--batch-size", "8", "--max-pairs", "32",
            "--generator-maps", "4,2,1", "--seed", "0",
        ])
        assert code == 0
        assert (bundle_dir / "generator.ckpt").exists()
        assert (bundle_dir / "generator.json").exists()
        critic_cfg, _ = load_discriminator(bundle_dir)
        assert critic_cfg.semg_channels == 8
        virt = tmp_path / "virt.npz"
        assert main(["generate-imu", "--generator", str(bundle_dir),
                     "--windows", str(windows_file), "--out", str(virt)]) == 0
        with np.load(virt) as z:
            table = load_window_table(windows_file)
            assert z["virtual_imu"].shape == (len(table), 10, 3)

    def test_train_clf_and_evaluate(self, windows_file, tmp_path):
        model_dir = tmp_path / "clf"
        code = main([
            "train-clf", "--windows", str(windows_file), "--out", str(model_dir),
            "--epochs", "2", "--batch-size", "16", "--conv-maps", "2", "--lc-maps", "2",
            "--dense-units", "8", "--fusion-hidden", "8", "--seed", "0",
        ])
        assert code == 0
        preds = tmp_path / "preds.csv"
        assert main(["evaluate", "--model", str(model_dir), "--windows", str(windows_file),
                     "--out", str(preds)]) == 0
        lines = preds.read_text().strip().split("\n")
        assert lines[0] == "window_id,true_label,predicted_label,max_prob"
        table = load_window_table(windows_file)
        assert len(lines) == 1 + len(table)


class TestRun:
    def test_run_writes_report(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config(dataset_dir, out)))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["vimu_report"] == 1
        assert "unimodal" in report["arm_summary"]

    def test_seed_env_override(self, dataset_dir, tmp_path):
        out = tmp_path / "outenv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config(dataset_dir, out, seed=0)))
        os.environ["VIMU_SEED"] = "123"
        try:
            assert main(["run", "--config", str(cfg_path)]) == 0
        finally:
            del os.environ["VIMU_SEED"]
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 123

    def test_flag_overrides(self, dataset_dir, tmp_path):
        out = tmp_path / "outflag"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config(dataset_dir, tmp_path / "ignored")))
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 9

    def test_report_reemission(self, dataset_dir, tmp_path):
        out = tmp_path / "outrep"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config(dataset_dir, out)))
        assert main(["run", "--config", str(cfg_path)]) == 0
        out2 = tmp_path / "reemit"
        assert main(["report", "--report", str(out / "report.json"), "--out", str(out2),
                     "--formats", "csv,svg"]) == 0
        assert (out2 / "report.csv").exists() and (out2 / "report.svg").exists()


@pytest.fixture(scope="module")
def gan_bundle(windows_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_gan") / "gan"
    assert main(["train-gan", "--windows", str(windows_file), "--out", str(out), "--epochs", "1",
                 "--batch-size", "8", "--max-pairs", "16", "--generator-maps", "4,2,1"]) == 0
    return out


@pytest.fixture(scope="module")
def clf_bundle(windows_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_clf") / "clf"
    assert main(["train-clf", "--windows", str(windows_file), "--out", str(out), "--epochs", "1",
                 "--batch-size", "16", "--conv-maps", "2", "--lc-maps", "2", "--dense-units", "8",
                 "--fusion-hidden", "8"]) == 0
    return out


def _section(name, **values):
    return lambda cfg: {**cfg, name: {**cfg[name], **values}}


def _without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


# case: (what it corrupts, how, expected exit code, text the message must name)
BAD_INPUTS = {
    "unknown gan key": ("config", _section("gan", bogus=1), 1, "bogus"),
    "window_ms not a number": ("config", _section("preproc", window_ms="abc"), 1, "window_ms"),
    "decay_epochs not a list": ("config", _section("classifier", decay_epochs=5), 1, "decay_epochs"),
    "max_pairs a float": ("config", _section("gan", max_pairs=1.5), 1, "max_pairs"),
    "network not an object": ("config", lambda cfg: {**cfg, "network": [2, 2]}, 1, "ClassifierSpec"),
    "arms not a list": ("config", lambda cfg: {**cfg, "arms": "unimodal"}, 1, "arms"),
    "top-level array": ("config", lambda cfg: [cfg], 1, "JSON object"),
    "generator sidecar lacks imu_stats": ("generator.json", _without("imu_stats"), 2, "imu_stats"),
    "generator sidecar lacks generator": ("generator.json", _without("generator"), 2, "generator"),
    "generator sidecar not an object": ("generator.json", lambda meta: [meta], 2, "JSON object"),
    "classifier sidecar lacks stream_stats": ("classifier.json", _without("stream_stats"), 2,
                                              "stream_stats"),
    "classifier sidecar lacks fusion": ("classifier.json", _without("fusion"), 2, "fusion"),
    "classifier streams a list": ("classifier.json",
                                  lambda meta: {**meta, "streams": list(meta["streams"].values())},
                                  2, "streams"),
    "classifier stream_stats a list": ("classifier.json",
                                       lambda meta: {**meta, "stream_stats": list(meta["stream_stats"])},
                                       2, "stream_stats"),
    "manifest lacks index": ("manifest.json", _without("index"), 2, "index"),
    "manifest index not a list": ("manifest.json", lambda meta: {**meta, "index": 5}, 2, "index"),
    "manifest entry with an extra key": ("manifest.json",
                                         lambda meta: {**meta, "index": [{**meta["index"][0], "note": 1}]
                                                       + meta["index"][1:]},
                                         2, "note"),
    "manifest not JSON": ("manifest.json", lambda meta: "{", 2, "manifest.json"),
    "report lacks per_subject": ("report.json", lambda _: {"vimu_report": 1}, 2, "per_subject"),
}


@pytest.mark.parametrize("target,corrupt,code,needle", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_exit_codes(target, corrupt, code, needle, dataset_dir, windows_file,
                              gan_bundle, clf_bundle, tmp_path, capsys):
    out = str(tmp_path / "out")
    if target == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(corrupt(run_config(dataset_dir, out))))
        argv = ["run", "--config", str(path)]
    elif target == "report.json":
        path = tmp_path / target
        path.write_text(json.dumps(corrupt(None)))
        argv = ["report", "--report", str(path), "--out", out]
    else:
        source = {"generator.json": gan_bundle, "classifier.json": clf_bundle,
                  "manifest.json": dataset_dir}[target]
        copy = tmp_path / "copy"
        shutil.copytree(source, copy)
        doc = corrupt(json.loads((copy / target).read_text()))
        (copy / target).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = {
            "generator.json": ["generate-imu", "--generator", str(copy), "--windows", str(windows_file),
                               "--out", out],
            "classifier.json": ["evaluate", "--model", str(copy), "--windows", str(windows_file),
                                "--out", out],
            "manifest.json": ["preprocess", "--dataset", str(copy), "--out", out],
        }[target]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err and needle in err, err


def test_train_gan_shares_run_generator_path(tmp_path):
    # The staged command on run_experiment's generator cohort, with the seed
    # run_experiment derives, writes the same generator files byte for byte.
    data = tmp_path / "ds"
    synth_generate(SynthConfig(subjects=2, gestures=2, trials=4, trial_seconds=5.0, seed=11), data)
    cfg = tiny_config(data, tmp_path / "run", arms=("virtual_multimodal",))
    assert cfg.gan.snapshot_every is None
    run_experiment(cfg)

    dataset = Dataset(data)
    profile = resolve_profile(cfg.profile, dataset.manifest)
    plan = make_split(dataset.manifest, cfg.experiment, profile)
    table = extract_windows(dataset, profile, cfg.preproc)
    cohort = np.isin(table.subjects, plan.gan_subjects) & np.isin(table.trials, plan.gan_train_trials)
    save_window_table(tmp_path / "cohort.npz", table.select(cohort))
    g = cfg.gan
    assert main([
        "train-gan", "--windows", str(tmp_path / "cohort.npz"), "--out", str(tmp_path / "staged"),
        "--epochs", str(g.epochs), "--batch-size", str(g.batch_size),
        "--learning-rate", repr(g.learning_rate), "--dropout", repr(g.dropout),
        "--loss-variant", g.loss_variant, "--max-pairs", str(g.max_pairs),
        "--generator-maps", ",".join(map(str, g.generator_maps)),
        "--seed", str(derive_seed(cfg.seed, "gan")),
    ]) == 0
    for name in ("generator.ckpt", "discriminator.ckpt", "generator.json", "history.json"):
        staged = (tmp_path / "staged" / name).read_bytes()
        assert staged == (tmp_path / "run" / "gan" / name).read_bytes(), name
