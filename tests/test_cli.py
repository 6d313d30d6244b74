import json
import os
import shutil
import signal
from dataclasses import replace

import numpy as np
import pytest
from test_pipeline import on_subject_training, tiny_config

from vimu import data as vdata
from vimu import fusion, pipeline
from vimu.cli import main
from vimu.data import (
    Dataset,
    SynthConfig,
    make_split,
    read_trial,
    resolve_profile,
    synth_generate,
    write_trial,
)
from vimu.errors import DataError, DivergenceError
from vimu.fusion import ClfTrainConfig
from vimu.gan import GanTrainConfig, load_discriminator
from vimu.pipeline import (
    ClassifierSpec,
    derive_seed,
    extract_windows,
    load_window_table,
    run_experiment,
    save_window_table,
)
from vimu.sigproc import PreprocSpec


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

    def test_synth_onto_a_directory_is_a_data_error(self, tmp_path, capsys):
        blocked = tmp_path / "ds" / "s01_g00_t01.gst"
        blocked.mkdir(parents=True)
        code = main(["synth", "--out", str(tmp_path / "ds"), "--subjects", "2", "--gestures", "2",
                     "--trials", "3", "--trial-seconds", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(blocked) in err
        assert "Traceback" not in err
        assert not (tmp_path / "ds" / "manifest.json").exists()

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

    def test_two_stream_bundle_evaluates(self, windows_file, tmp_path):
        model_dir = tmp_path / "clf2"
        assert main([
            "train-clf", "--windows", str(windows_file), "--out", str(model_dir), "--stream", "semg+imu",
            "--epochs", "1", "--batch-size", "16", "--conv-maps", "2", "--lc-maps", "2",
            "--dense-units", "8", "--fusion-hidden", "8", "--seed", "0",
        ]) == 0
        preds = tmp_path / "preds.csv"
        assert main(["evaluate", "--model", str(model_dir), "--windows", str(windows_file),
                     "--out", str(preds)]) == 0
        lines = preds.read_text().strip().split("\n")
        assert len(lines) == 1 + len(load_window_table(windows_file))
        # A bundle that records no arm (written before train-clf recorded it)
        # is scored on the table's motion windows, as before.
        sidecar = model_dir / "classifier.json"
        meta = json.loads(sidecar.read_text())
        assert meta["extra"].pop("arm") == "real_multimodal"
        sidecar.write_text(json.dumps(meta))
        legacy = tmp_path / "legacy.csv"
        assert main(["evaluate", "--model", str(model_dir), "--windows", str(windows_file),
                     "--out", str(legacy)]) == 0
        assert legacy.read_bytes() == preds.read_bytes()

    def test_virtual_bundle_needs_virtual_to_evaluate(self, windows_file, tmp_path, capsys):
        # A bundle trained on virtual motion is never scored on the table's
        # real motion windows: without --virtual, evaluate exits 2.
        table = load_window_table(windows_file)
        virt = tmp_path / "virt.npz"
        rng = np.random.default_rng(0)
        np.savez(virt, virtual_imu=rng.uniform(-1, 1, table.imu.shape).astype(np.float32))
        model_dir = tmp_path / "clf_virtual"
        assert main([
            "train-clf", "--windows", str(windows_file), "--out", str(model_dir),
            "--stream", "semg+virtual", "--virtual", str(virt),
            "--epochs", "1", "--batch-size", "16", "--conv-maps", "2", "--lc-maps", "2",
            "--dense-units", "8", "--fusion-hidden", "8", "--seed", "0",
        ]) == 0
        assert json.loads((model_dir / "classifier.json").read_text())["extra"]["arm"] == "virtual_multimodal"
        preds = tmp_path / "preds.csv"
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model_dir), "--windows", str(windows_file),
                     "--out", str(preds)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "--virtual" in err, err
        assert not preds.exists()
        short = tmp_path / "short.npz"
        np.savez(short, virtual_imu=np.zeros((3, *table.imu.shape[1:]), np.float32))
        assert main(["evaluate", "--model", str(model_dir), "--windows", str(windows_file),
                     "--virtual", str(short), "--out", str(preds)]) == 2
        assert "do not match" in capsys.readouterr().err
        assert main(["evaluate", "--model", str(model_dir), "--windows", str(windows_file),
                     "--virtual", str(virt), "--out", str(preds)]) == 0
        assert len(preds.read_text().strip().split("\n")) == 1 + len(table)


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


class _Stop(Exception):
    pass


class TestFlagsDefaultToTheConfigClasses:
    """A staged command given only its required flags passes on its config classes' defaults."""

    def passed_on(self, monkeypatch, owner, name, argv) -> tuple:
        """The arguments ``main(argv)`` calls ``owner.name`` with; the call stops the command."""
        calls = []

        def stop(*args):
            calls.append(args)
            raise _Stop

        monkeypatch.setattr(owner, name, stop)
        with pytest.raises(_Stop):
            main(argv)
        (args,) = calls
        return args

    def test_synth(self, tmp_path, monkeypatch):
        cfg, _ = self.passed_on(monkeypatch, vdata, "synth_generate", ["synth", "--out", str(tmp_path)])
        assert cfg == SynthConfig()

    def test_preprocess(self, dataset_dir, tmp_path, monkeypatch):
        _, _, spec = self.passed_on(monkeypatch, pipeline, "extract_windows", [
            "preprocess", "--dataset", str(dataset_dir), "--out", str(tmp_path / "w.npz")])
        assert spec == PreprocSpec()

    def test_train_gan(self, windows_file, tmp_path, monkeypatch):
        _, _, cfg, _ = self.passed_on(monkeypatch, pipeline, "train_generator_bundle", [
            "train-gan", "--windows", str(windows_file), "--out", str(tmp_path / "gan")])
        assert cfg == GanTrainConfig()

    def test_train_clf(self, windows_file, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(ClassifierSpec, "model", lambda spec, *args: specs.append(spec))
        _, _, _, cfg = self.passed_on(monkeypatch, fusion, "train_classifier", [
            "train-clf", "--windows", str(windows_file), "--out", str(tmp_path / "clf")])
        assert specs == [ClassifierSpec()]
        assert cfg == ClfTrainConfig()

    def test_report_writes_every_format(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(REPORT))
        assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "report.csv", "report.json", "report.svg"]


ALL_ARMS = "unimodal,virtual_multimodal,real_multimodal"


def _fail_arms(monkeypatch, errors):
    """Make train_classifier raise ``errors[arm]``, or ``errors[(arm, subject)]``, where one is named.

    For seed-0 configs; a forked helper inherits the patch.
    """
    def fail(arm, subject):
        error = errors.get(arm, errors.get((arm, subject)))
        if error is not None:
            raise error

    on_subject_training(monkeypatch, fail)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestArmHelper:
    """`vimu run` trains the arms that need no generator in a forked helper process."""

    def run(self, dataset_dir, tmp_path, capsys, name, arms=ALL_ARMS):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(run_config(dataset_dir, tmp_path / name, arms=arms)))
        capsys.readouterr()
        code = main(["run", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        _assert_no_child_left()
        return code, err

    def serial_and_forked(self, dataset_dir, tmp_path, capsys, monkeypatch, arms=ALL_ARMS):
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            serial = self.run(dataset_dir, tmp_path, capsys, "serial", arms)
        forked = self.run(dataset_dir, tmp_path, capsys, "forked", arms)
        return serial, forked

    @pytest.mark.parametrize("arms,forks", [
        ("unimodal", 0), ("virtual_multimodal", 0), ("unimodal,real_multimodal", 0),
        ("virtual_multimodal,real_multimodal", 1), (ALL_ARMS, 1),
    ])
    def test_forks_only_beside_a_generator(self, arms, forks, dataset_dir, tmp_path, capsys,
                                           monkeypatch):
        # ``forks`` with OpenBLAS unset; pinned to one thread, a second helper
        # trains the virtual arm's second subject, also in a virtual-only run.
        fork = os.fork
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for blas, expected in (("unset", forks), ("pinned", forks + ("virtual_multimodal" in arms))):
            if blas == "pinned":
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
            calls = []
            monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
            code, err = self.run(dataset_dir, tmp_path, capsys, blas, arms)
            assert (code, err) == (0, "")
            assert len(calls) == expected, blas
            report = json.loads((tmp_path / blas / "report.json").read_text())
            assert sorted(report["per_subject"]) == sorted(arms.split(","))

    def test_helper_arm_divergence_exits_like_the_serial_run(self, dataset_dir, tmp_path, capsys,
                                                               monkeypatch):
        _fail_arms(monkeypatch, {"unimodal": DivergenceError("non-finite classifier loss at epoch 0")})
        serial, forked = self.serial_and_forked(dataset_dir, tmp_path, capsys, monkeypatch)
        assert serial == (3, "divergence: non-finite classifier loss at epoch 0\n")
        assert forked == serial

    def test_generator_error_wins_over_a_helper_error(self, dataset_dir, tmp_path, capsys,
                                                     monkeypatch):
        _fail_arms(monkeypatch, {"unimodal": DataError("helper arm failed")})

        def diverge(*args, **kwargs):
            raise DivergenceError("non-finite generator loss")

        monkeypatch.setattr(pipeline, "train_gan", diverge)
        serial, forked = self.serial_and_forked(dataset_dir, tmp_path, capsys, monkeypatch)
        assert serial == (3, "divergence: non-finite generator loss\n")
        assert forked == serial

    @pytest.mark.parametrize("arms,code,message", [
        (ALL_ARMS, 2, "data error: unimodal failed\n"),
        ("virtual_multimodal,unimodal", 3, "divergence: virtual failed\n"),
    ])
    def test_errors_surface_in_arm_order(self, arms, code, message, dataset_dir, tmp_path, capsys,
                                         monkeypatch):
        _fail_arms(monkeypatch, {"unimodal": DataError("unimodal failed"),
                                 "virtual_multimodal": DivergenceError("virtual failed")})
        serial, forked = self.serial_and_forked(dataset_dir, tmp_path, capsys, monkeypatch, arms)
        assert serial == (code, message)
        assert forked == serial

    def test_a_helper_that_dies_names_its_exit_status(self, dataset_dir, tmp_path, capsys,
                                                     monkeypatch):
        parent = os.getpid()

        def killed(*args, **kwargs):
            assert os.getpid() != parent
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(pipeline, "train_classifier", killed)
        code, err = self.run(dataset_dir, tmp_path, capsys, "out", "unimodal,virtual_multimodal")
        assert code == 2
        assert err == ("data error: the arm helper process ended with exit status -9 "
                       "(killed by signal 9) before reporting the unimodal arm\n")

    # With OpenBLAS set to one thread the two-subject set splits the virtual
    # arm: subject 1 trains in this process, subject 2 in the helper after
    # its generator-free arms.

    def test_a_helper_virtual_error_wins_over_a_later_arm_error(self, dataset_dir, tmp_path, capsys,
                                                                monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        _fail_arms(monkeypatch, {("virtual_multimodal", 2): DivergenceError("virtual subject 2 failed"),
                                 "real_multimodal": DataError("real failed")})
        serial, forked = self.serial_and_forked(dataset_dir, tmp_path, capsys, monkeypatch)
        assert serial == (3, "divergence: virtual subject 2 failed\n")
        assert forked == serial

    def test_the_main_share_error_wins_over_the_helper_share_error(self, dataset_dir, tmp_path, capsys,
                                                                   monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        _fail_arms(monkeypatch, {("virtual_multimodal", 1): DataError("virtual subject 1 failed"),
                                 ("virtual_multimodal", 2): DivergenceError("virtual subject 2 failed")})
        serial, forked = self.serial_and_forked(dataset_dir, tmp_path, capsys, monkeypatch)
        assert serial == (2, "data error: virtual subject 1 failed\n")
        assert forked == serial

    def test_a_helper_killed_in_its_virtual_share_names_the_virtual_arm(self, dataset_dir, tmp_path,
                                                                         capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        parent = os.getpid()

        def kill_helper(arm, subject):
            if (arm, subject) == ("virtual_multimodal", 2):
                assert os.getpid() != parent
                os.kill(os.getpid(), signal.SIGKILL)

        on_subject_training(monkeypatch, kill_helper)
        code, err = self.run(dataset_dir, tmp_path, capsys, "out", ALL_ARMS)
        assert code == 2
        assert err == ("data error: the arm helper process ended with exit status -9 "
                       "(killed by signal 9) before reporting the virtual_multimodal arm\n")


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


def _short_mean(*keys):
    """Cut the ``mean`` vector of the stats at ``keys`` to its first value."""
    def corrupt(meta):
        stats = meta
        for key in keys:
            stats = stats[key]
        stats["mean"] = stats["mean"][:1]
        return meta
    return corrupt


def _widen_last_trial(directory):
    """Rewrite the last indexed trial with 10 muscle channels; the rest keep 8."""
    manifest = json.loads((directory / "manifest.json").read_text())
    path = directory / manifest["index"][-1]["path"]
    record = read_trial(path, manifest["sample_rate_hz"])
    wider = record.semg.with_data(np.tile(record.semg.data, (1, 2))[:, :10])
    write_trial(path, replace(record, semg=wider))


def _virtual_file(directory):
    """A file as `generate-imu` writes it."""
    path = directory / "virtual.npz"
    np.savez(path, virtual_imu=np.zeros((4, 10, 3), dtype=np.float32))
    return str(path)


def _bad_meta_file(directory, windows):
    """The window table with its meta_json cut short."""
    path = directory / "bad_meta.npz"
    with np.load(windows) as table:
        np.savez(path, **{**dict(table), "meta_json": np.str_("{")})
    return str(path)


def _text_file(directory):
    path = directory / "windows.txt"
    path.write_text("not an archive\n")
    return str(path)


# A report as `vimu run` writes it, for the rows that change one key.
REPORT = {
    "vimu_report": 1, "per_subject": {"unimodal": {"1": {"window_accuracy": 0.5,
                                                         "trial_majority_accuracy": 0.5}}},
    "arm_summary": {"unimodal": {"mean": 0.5, "std": 0.0}}, "deltas": {},
    "config_fingerprint": "cafe", "seed": 0, "dataset": "synthetic", "profile": "synthetic",
    "experiment": "exp2",
}

# case: (what it corrupts, how, expected exit code, text the message must name)
BAD_INPUTS = {
    "unknown gan key": ("config", _section("gan", bogus=1), 1, "bogus"),
    "window_ms not a number": ("config", _section("preproc", window_ms="abc"), 1, "window_ms"),
    "decay_epochs not a list": ("config", _section("classifier", decay_epochs=5), 1, "decay_epochs"),
    "max_pairs a float": ("config", _section("gan", max_pairs=1.5), 1, "max_pairs"),
    "network not an object": ("config", lambda cfg: {**cfg, "network": [2, 2]}, 1, "ClassifierSpec"),
    "arms not a list": ("config", lambda cfg: {**cfg, "arms": "unimodal"}, 1, "arms"),
    # keys that earlier versions accepted and no longer exist
    "gan loss_variant": ("config", _section("gan", loss_variant="minimax"), 1, "loss_variant"),
    "gan adam_beta1": ("config", _section("gan", adam_beta1=0.5), 1, "adam_beta1"),
    "classifier initial_lr": ("config", _section("classifier", initial_lr=0.1), 1, "initial_lr"),
    "classifier lr_divisor": ("config", _section("classifier", lr_divisor=10.0), 1, "lr_divisor"),
    "report_formats": ("config", lambda cfg: {**cfg, "report_formats": ["json"]}, 1, "report_formats"),
    "train-gan --loss-variant": ("windows", lambda tmp, windows: [
        "train-gan", "--windows", str(windows), "--out", str(tmp / "out"), "--epochs", "1",
        "--batch-size", "8", "--max-pairs", "16", "--loss-variant", "minimax"], 1,
        "unrecognized arguments: --loss-variant minimax"),
    "top-level array": ("config", lambda cfg: [cfg], 1, "JSON object"),
    "generator sidecar lacks imu_stats": ("generator.json", _without("imu_stats"), 2, "imu_stats"),
    "generator sidecar lacks generator": ("generator.json", _without("generator"), 2, "generator"),
    "generator sidecar not an object": ("generator.json", lambda meta: [meta], 2, "JSON object"),
    "generator semg_stats mean too short": ("generator.json", _short_mean("semg_stats"), 2,
                                            "'mean': (1,)"),
    "generator imu_stats non-finite": ("generator.json",
                                       lambda meta: {**meta, "imu_stats": {
                                           **meta["imu_stats"],
                                           "maximum": [float("nan")] * len(meta["imu_stats"]["maximum"])}},
                                       2, "non-finite"),
    "generator extra a string": ("generator.json", lambda meta: {**meta, "extra": "x"}, 2,
                                 "GeneratorSidecar.extra"),
    "generator sidecar lacks seed": ("generator.json", _without("seed"), 2, "needs 'seed'"),
    "classifier sidecar lacks stream_stats": ("classifier.json", _without("stream_stats"), 2,
                                              "stream_stats"),
    "classifier sidecar lacks fusion": ("classifier.json", _without("fusion"), 2, "fusion"),
    "classifier streams a list": ("classifier.json",
                                  lambda meta: {**meta, "streams": list(meta["streams"].values())},
                                  2, "streams"),
    "classifier stream_stats a list": ("classifier.json",
                                       lambda meta: {**meta, "stream_stats": list(meta["stream_stats"])},
                                       2, "stream_stats"),
    "classifier stream_stats holds a list": ("classifier.json",
                                             lambda meta: {**meta, "stream_stats": {
                                                 **meta["stream_stats"], "semg": [1, 2]}},
                                             2, "ChannelStats"),
    "classifier stream_stats mean too short": ("classifier.json", _short_mean("stream_stats", "semg"), 2,
                                               "'mean': (1,)"),
    "classifier stream_stats lacks a stream": ("classifier.json",
                                               lambda meta: {**meta, "stream_stats": {}}, 2,
                                               "do not match streams ['semg']"),
    "classifier streams name only emg": ("classifier.json",
                                         lambda meta: {**meta, "streams": {"emg": meta["streams"]["semg"]},
                                                       "stream_stats": {"emg": meta["stream_stats"]["semg"]}},
                                         2, "unsupported stream layout"),
    "manifest lacks index": ("manifest.json", _without("index"), 2, "index"),
    "manifest index not a list": ("manifest.json", lambda meta: {**meta, "index": 5}, 2, "index"),
    "manifest entry with an extra key": ("manifest.json",
                                         lambda meta: {**meta, "index": [{**meta["index"][0], "note": 1}]
                                                       + meta["index"][1:]},
                                         2, "note"),
    "manifest not JSON": ("manifest.json", lambda meta: "{", 2, "manifest.json"),
    "manifest sample rate zero": ("manifest.json", lambda meta: {**meta, "sample_rate_hz": 0}, 2,
                                  "sample rate"),
    "manifest semg_channels a string": ("manifest.json", lambda meta: {**meta, "semg_channels": "8"}, 2,
                                        "DatasetManifest.semg_channels"),
    "manifest sample_rate_hz null": ("manifest.json", lambda meta: {**meta, "sample_rate_hz": None}, 2,
                                     "DatasetManifest.sample_rate_hz"),
    "manifest subjects a number": ("manifest.json", lambda meta: {**meta, "subjects": 3}, 2,
                                   "DatasetManifest.subjects"),
    "manifest gesture_labels a number": ("manifest.json", lambda meta: {**meta, "gesture_labels": 2}, 2,
                                         "DatasetManifest.gesture_labels"),
    "manifest trials_per_gesture a string": ("manifest.json",
                                             lambda meta: {**meta, "trials_per_gesture": "2"}, 2,
                                             "DatasetManifest.trials_per_gesture"),
    "one trial wider than the manifest": ("trial", _widen_last_trial, 2,
                                          "10 muscle channels, manifest declares 8"),
    "manifest imu_channels wrong": ("manifest.json", lambda meta: {**meta, "imu_channels": 5}, 2,
                                    "3 motion channels, manifest declares 5"),
    "manifest imu_kind gyro": ("manifest.json", lambda meta: {**meta, "imu_kind": "gyro"}, 2,
                               "motion kind 'acc', manifest declares 'gyro'"),
    "report lacks per_subject": ("report.json", lambda _: {"vimu_report": 1}, 2, "per_subject"),
    "report version 2": ("report.json", lambda _: {**REPORT, "vimu_report": 2}, 2, "report version 2"),
    "report lacks its version": ("report.json", lambda _: _without("vimu_report")(REPORT), 2,
                                 "report version None"),
    "virtual motion given as windows": ("windows", lambda tmp, windows: [
        "train-gan", "--windows", _virtual_file(tmp), "--out", str(tmp / "out")], 2,
        "virtual.npz holds no semg_gan array"),
    "windows not an npz": ("windows", lambda tmp, windows: [
        "train-gan", "--windows", _text_file(tmp), "--out", str(tmp / "out")], 2,
        "windows.txt is not a readable .npz archive"),
    "window metadata not JSON": ("windows", lambda tmp, windows: [
        "train-gan", "--windows", _bad_meta_file(tmp, windows), "--out", str(tmp / "out")], 2,
        "bad_meta.npz: meta_json is not JSON"),
    "virtual motion not an npz": ("windows", lambda tmp, windows: [
        "train-clf", "--windows", str(windows), "--stream", "semg+virtual", "--virtual", _text_file(tmp),
        "--out", str(tmp / "out")], 2, "windows.txt is not a readable .npz archive"),
    "trial_seconds too short": ("synth", ["--trial-seconds", "3", "--subjects", "1",
                                          "--gestures", "2", "--trials", "1"], 1, "trial_seconds"),
    "sample rate zero": ("synth", ["--rate", "0", "--subjects", "1", "--gestures", "2",
                                   "--trials", "1"], 1, "sample_rate_hz"),
}


@pytest.mark.parametrize("target,corrupt,code,needle", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_exit_codes(target, corrupt, code, needle, dataset_dir, windows_file,
                              gan_bundle, clf_bundle, tmp_path, capsys):
    out = str(tmp_path / "out")
    if target == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(corrupt(run_config(dataset_dir, out))))
        argv = ["run", "--config", str(path)]
    elif target == "synth":
        argv = ["synth", "--out", out, *corrupt]
    elif target == "windows":
        argv = corrupt(tmp_path, windows_file)
    elif target == "trial":
        copy = tmp_path / "copy"
        shutil.copytree(dataset_dir, copy)
        corrupt(copy)
        argv = ["preprocess", "--dataset", str(copy), "--out", out, "--window-ms", "200",
                "--step-ms", "200", "--decimation", "4"]
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
    # run_experiment derives, writes the same generator files byte for byte,
    # with and without generator snapshots.
    data = tmp_path / "ds"
    synth_generate(SynthConfig(subjects=2, gestures=2, trials=4, trial_seconds=5.0, seed=11), data)
    base = tiny_config(data, tmp_path / "run", arms=("virtual_multimodal",))
    assert base.gan.snapshot_every is None

    dataset = Dataset(data)
    profile = resolve_profile(base.profile, dataset.manifest)
    plan = make_split(dataset.manifest, base.experiment, profile)
    table = extract_windows(dataset, profile, base.preproc)
    cohort = np.isin(table.subjects, plan.gan_subjects) & np.isin(table.trials, plan.gan_train_trials)
    save_window_table(tmp_path / "cohort.npz", table.select(cohort))
    schedules = {
        "defaults": base.gan,
        "snapshots": replace(base.gan, snapshot_every=2),
    }
    for name, g in schedules.items():
        run_out = tmp_path / f"run_{name}"
        run_experiment(replace(base, out_dir=str(run_out), gan=g))
        argv = [
            "train-gan", "--windows", str(tmp_path / "cohort.npz"), "--out", str(tmp_path / name),
            "--epochs", str(g.epochs), "--batch-size", str(g.batch_size),
            "--learning-rate", repr(g.learning_rate), "--dropout", repr(g.dropout),
            "--max-pairs", str(g.max_pairs),
            "--generator-maps", ",".join(map(str, g.generator_maps)),
            "--seed", str(derive_seed(base.seed, "gan")),
        ]
        if g.snapshot_every is not None:
            argv += ["--snapshot-every", str(g.snapshot_every)]
        assert main(argv) == 0
        history = json.loads((tmp_path / name / "history.json").read_text())
        assert ("selection" in history) == (g.snapshot_every is not None)
        for fname in ("generator.ckpt", "discriminator.ckpt", "generator.json", "history.json"):
            staged = (tmp_path / name / fname).read_bytes()
            assert staged == (run_out / "gan" / fname).read_bytes(), (name, fname)
