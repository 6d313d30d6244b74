import json
import os
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from vimu import pipeline, sigproc
from vimu.data import (
    PROFILES,
    SYNTH_TRIM,
    Dataset,
    SplitPlan,
    SynthConfig,
    make_split,
    manifest_for_profile,
    read_trial,
    synth_generate,
    synthetic_profile,
    trim_trial,
    write_trial,
)
from vimu.errors import ConfigError, DataError, LeakageError
from vimu.gan import load_discriminator
from vimu.pipeline import (
    ClassifierSpec,
    ExperimentConfig,
    MetricsReport,
    aggregate,
    assert_no_leakage,
    compute_accuracy,
    derive_seed,
    desk_config,
    emit_report,
    extract_windows,
    load_window_table,
    render_report_svg,
    run_experiment,
    save_window_table,
    trial_majority_accuracy,
    validate_plan,
)
from vimu.sigproc import PreprocSpec


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    cfg = SynthConfig(subjects=2, gestures=2, trials=4, trial_seconds=5.0, seed=11)
    synth_generate(cfg, root)
    return root


@pytest.fixture(scope="module")
def three_subject_dataset(tmp_path_factory):
    """A tiny set with an odd number of recognition subjects, so the virtual arm splits 2 + 1."""
    root = tmp_path_factory.mktemp("ds3")
    synth_generate(SynthConfig(subjects=3, gestures=2, trials=4, trial_seconds=5.0, seed=11), root)
    return root


def on_subject_training(monkeypatch, hook):
    """Call ``hook(arm, subject)`` before each per-subject classifier training of a seed-0 run.

    The patch is on the module, so a forked helper inherits it.
    """
    role = {derive_seed(0, arm, "sgd", subject): (arm, subject)
            for arm in pipeline.ARMS for subject in range(10)}
    train = pipeline.train_classifier

    def hooked(model, arrays, labels, cfg):
        if cfg.seed in role:
            hook(*role[cfg.seed])
        return train(model, arrays, labels, cfg)

    monkeypatch.setattr(pipeline, "train_classifier", hooked)


def _classifier_files(out_dir):
    """Every classifier.ckpt and classifier.json under out_dir/classifiers, relative to out_dir."""
    return sorted(p.relative_to(out_dir).as_posix() for name in ("classifier.ckpt", "classifier.json")
                  for p in out_dir.glob(f"classifiers/**/{name}"))


def tiny_config(dataset_dir, out_dir, arms=("unimodal",), seed=0):
    from vimu.fusion import ClfTrainConfig
    from vimu.gan import GanTrainConfig

    return ExperimentConfig(
        dataset=str(dataset_dir),
        out_dir=str(out_dir),
        arms=arms,
        seed=seed,
        preproc=PreprocSpec(window_ms=200.0, step_ms=200.0, decimation=4),
        gan=GanTrainConfig(epochs=4, batch_size=8, generator_maps=(4, 2, 1), max_pairs=64),
        classifier=ClfTrainConfig(batch_size=16, epochs=3, decay_epochs=(2,), seed=seed),
        network=ClassifierSpec(conv_maps=2, lc_maps=2, dense_units=8, fusion_hidden=8),
    )


class TestMetrics:
    def test_accuracy_three_of_four(self):
        assert compute_accuracy([0, 1, 2, 3], [0, 1, 2, 0]) == 0.75

    def test_accuracy_all_correct(self):
        assert compute_accuracy([1, 1], [1, 1]) == 1.0

    def test_accuracy_constant_predictor_on_balanced_labels(self):
        labels = [0, 1, 2, 3] * 5
        assert compute_accuracy([0] * 20, labels) == 0.25

    def test_accuracy_empty_rejected(self):
        with pytest.raises(DataError):
            compute_accuracy([], [])

    def test_aggregate_mean_and_sample_std(self):
        mean, std = aggregate([1.0, 0.5])
        assert mean == 0.75
        assert std == pytest.approx(0.3535533905932738)

    def test_aggregate_single_value_zero_std(self):
        assert aggregate([0.8]) == (0.8, 0.0)

    def test_aggregate_permutation_invariant(self):
        vals = [0.3, 0.9, 0.5, 0.7]
        assert aggregate(vals) == aggregate(list(reversed(vals)))

    def test_trial_majority(self):
        preds = [0, 0, 1, 1, 1, 1]
        labels = [0, 0, 0, 1, 1, 1]
        trials = [1, 1, 1, 1, 1, 1]
        assert trial_majority_accuracy(preds, labels, trials) == 1.0


class TestLeakageGuard:
    def plan(self):
        return SplitPlan(
            gan_subjects=[1, 2],
            recognition_subjects=[1, 2],
            gan_train_trials=[1, 3],
            clf_train_trials=[1, 3],
            clf_test_trials=[2, 4],
        )

    def test_clean_tags_pass(self):
        plan = self.plan()
        assert_no_leakage(plan, np.array([1, 2]), np.array([1, 3]), "clf_train")
        assert_no_leakage(plan, np.array([1, 2]), np.array([2, 4]), "clf_test")
        assert_no_leakage(plan, np.array([1, 1]), np.array([1, 3]), "gan")

    def test_test_trial_in_training_caught(self):
        plan = self.plan()
        with pytest.raises(LeakageError):
            assert_no_leakage(plan, np.array([1, 1]), np.array([1, 2]), "clf_train")

    def test_gan_touching_test_trials_caught(self):
        plan = self.plan()
        plan.gan_train_trials = [1, 2]  # deliberately corrupted plan
        with pytest.raises(LeakageError):
            assert_no_leakage(plan, np.array([1]), np.array([2]), "gan")

    def test_overlapping_plan_caught(self):
        plan = self.plan()
        plan.clf_test_trials = [1, 2]  # now overlaps train
        with pytest.raises(LeakageError):
            validate_plan(plan)

    def test_unknown_role(self):
        with pytest.raises(ConfigError):
            assert_no_leakage(self.plan(), np.array([1]), np.array([1]), "nope")


class TestReportEmission:
    def sample_report(self):
        per_subject = {
            "unimodal": {"1": {"window_accuracy": 0.7, "trial_majority_accuracy": 0.8},
                          "2": {"window_accuracy": 0.8, "trial_majority_accuracy": 0.9}},
            "virtual_multimodal": {"1": {"window_accuracy": 0.85, "trial_majority_accuracy": 0.9},
                                    "2": {"window_accuracy": 0.95, "trial_majority_accuracy": 1.0}},
            "real_multimodal": {"1": {"window_accuracy": 0.9, "trial_majority_accuracy": 0.95},
                                 "2": {"window_accuracy": 0.92, "trial_majority_accuracy": 1.0}},
        }
        summary = {
            arm: {"mean": float(np.mean([r["window_accuracy"] for r in rows.values()])),
                  "std": float(np.std([r["window_accuracy"] for r in rows.values()], ddof=1))}
            for arm, rows in per_subject.items()
        }
        return MetricsReport(
            per_subject=per_subject,
            arm_summary=summary,
            deltas={"virtual_minus_unimodal": summary["virtual_multimodal"]["mean"] - summary["unimodal"]["mean"],
                    "real_minus_virtual": summary["real_multimodal"]["mean"] - summary["virtual_multimodal"]["mean"]},
            config_fingerprint="cafe", seed=7, dataset="synthetic", profile="synthetic",
            experiment="exp2",
        )

    def test_json_round_trip(self, tmp_path):
        report = self.sample_report()
        emit_report(report, tmp_path, formats=("json",))
        loaded = MetricsReport.from_dict(json.loads((tmp_path / "report.json").read_text()))
        assert loaded == report

    def test_csv_row_count(self, tmp_path):
        report = self.sample_report()
        emit_report(report, tmp_path, formats=("csv",))
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 2  # header + arms x subjects

    def test_svg_well_formed_with_groups_and_reference(self, tmp_path):
        report = self.sample_report()
        emit_report(report, tmp_path, formats=("svg",))
        tree = ET.parse(tmp_path / "report.svg")
        groups = [e for e in tree.iter() if e.tag.endswith("g") and e.get("class") == "bar-group"]
        assert len(groups) == 3
        refs = [e for e in tree.iter() if e.get("class") == "reference"]
        assert len(refs) == 1

    def test_deltas_match_recomputed_means(self):
        report = self.sample_report()
        assert report.deltas["virtual_minus_unimodal"] == pytest.approx(
            report.arm_summary["virtual_multimodal"]["mean"] - report.arm_summary["unimodal"]["mean"], abs=1e-12
        )

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report(self.sample_report(), tmp_path, formats=("pdf",))


class TestWindowTable:
    def test_save_load_round_trip(self, tiny_dataset, tmp_path):
        ds = Dataset(tiny_dataset)
        profile = synthetic_profile(ds.manifest)
        table = extract_windows(ds, profile, PreprocSpec(window_ms=200.0, step_ms=200.0, decimation=4))
        path = tmp_path / "w.npz"
        save_window_table(path, table)
        loaded = load_window_table(path)
        assert np.array_equal(loaded.semg_hgr, table.semg_hgr)
        assert np.array_equal(loaded.imu, table.imu)
        assert loaded.meta == table.meta

    def test_window_tags_cover_usable_trials(self, tiny_dataset):
        ds = Dataset(tiny_dataset)
        profile = synthetic_profile(ds.manifest)
        table = extract_windows(ds, profile, PreprocSpec(window_ms=200.0, step_ms=200.0, decimation=4))
        assert set(table.trials.tolist()) == {1, 2, 3, 4}
        assert set(table.subjects.tolist()) == {1, 2}


def per_trial_windows(dataset, profile, spec, subjects, trials) -> dict:
    """Window arrays with every chain run on one trial at a time."""
    parts = {"semg_gan": [], "semg_hgr": [], "imu": []}
    tags = {"labels": [], "subjects": [], "trials": [], "origins": []}
    chains = (("semg_gan", sigproc.gan_chain_semg, "semg"), ("semg_hgr", sigproc.hgr_chain_semg, "semg"),
              ("imu", sigproc.imu_chain, "imu"))
    for subject in sorted(subjects):
        for gesture in range(dataset.manifest.gestures):
            for trial in trials:
                record = dataset.load_trial(subject, gesture, trial)
                if profile.trim is not None:
                    record = trim_trial(record, profile.trim.rest_lead_s, profile.trim.action_s)
                for key, chain, payload in chains:
                    windows = sigproc.segment_series(chain(getattr(record, payload), spec), spec)
                    parts[key].append(sigproc.stack_windows(windows))
                n = len(windows)
                tags["labels"] += [gesture] * n
                tags["subjects"] += [subject] * n
                tags["trials"] += [trial] * n
                tags["origins"] += [w.origin_frame for w in windows]
    arrays = {key: np.concatenate(p, axis=0).astype(np.float32) for key, p in parts.items()}
    dtypes = {"labels": np.int32, "subjects": np.int32, "trials": np.int32, "origins": np.int64}
    arrays.update({key: np.asarray(v, dtype=dtypes[key]) for key, v in tags.items()})
    return arrays


def assert_same_windows(table, expected: dict):
    for key, want in expected.items():
        got = getattr(table, key)
        assert got.dtype == want.dtype and got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key


class TestStackedExtraction:
    """extract_windows runs each chain once per run of equal-geometry trials."""

    def test_desk_set_with_subject_and_trial_filter(self, tmp_path):
        synth_generate(SynthConfig(seed=0), tmp_path / "desk")
        ds = Dataset(tmp_path / "desk")
        profile = synthetic_profile(ds.manifest)
        spec = desk_config("").preproc
        table = extract_windows(ds, profile, spec, subjects=[4, 2], trials=[3, 1, 2])
        assert_same_windows(table, per_trial_windows(ds, profile, spec, [4, 2], [3, 1, 2]))

    def test_untrimmed_trials_of_two_lengths(self, tmp_path):
        root = tmp_path / "mixed"
        synth_generate(SynthConfig(subjects=2, gestures=3, trials=2, trial_seconds=5.0, seed=7), root)
        ds = Dataset(root)
        # Shorten some trials so each subject's (gesture, trial) sequence holds
        # several runs of equal length: 1000, 1000 | 900 | 1000 | 900, 900 frames.
        for subject in (1, 2):
            for gesture, trial in ((1, 1), (2, 1), (2, 2)):
                path = root / ds.manifest.entry(subject, gesture, trial).path
                record = read_trial(path, ds.manifest.sample_rate_hz)
                semg, imu = (s.with_data(s.data[:900]) for s in (record.semg, record.imu))
                write_trial(path, replace(record, semg=semg, imu=imu))
        profile = replace(synthetic_profile(ds.manifest), trim=None)
        spec = PreprocSpec(window_ms=200.0, step_ms=100.0, decimation=4)
        table = extract_windows(ds, profile, spec)
        expected = per_trial_windows(ds, profile, spec, [1, 2], [1, 2])
        assert_same_windows(table, expected)
        # the shortened trials hold fewer windows, so the set really splits into several runs
        counts = [int(np.sum((table.subjects == 1) & (table.labels == g) & (table.trials == t)))
                  for g in range(3) for t in (1, 2)]
        assert counts[0] == counts[1] == counts[3] > counts[2] == counts[4] == counts[5]

    def test_peak_memory_stays_under_three_full_rate_copies(self, tmp_path):
        # One subject at the ingest benchmark's geometry, where arrays dominate:
        # 53 gestures x trials 1-2, 600 trimmed frames of 16 muscle and 3 motion
        # channels at 200 Hz. The loaded trials are one full-rate float64 copy
        # and their side-by-side join a second; the chains may add one buffer
        # of their own at a time, and the filters write only decimated frames.
        cfg = SynthConfig(subjects=1, gestures=53, trials=2, semg_channels=16, imu_channels=3,
                          trial_seconds=4.0, seed=1)
        synth_generate(cfg, tmp_path / "ds")
        ds = Dataset(tmp_path / "ds")
        frames = int(SYNTH_TRIM.action_s * cfg.sample_rate_hz)
        full_rate = cfg.gestures * cfg.trials * frames * (cfg.semg_channels + cfg.imu_channels) * 8
        tracemalloc.start()
        try:
            table = extract_windows(ds, synthetic_profile(ds.manifest), desk_config("").preproc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 150 decimated frames per trial hold 29 windows of 10 frames every 5
        assert len(table) == cfg.gestures * cfg.trials * 29
        assert peak < 3 * full_rate, f"peak {peak / full_rate:.2f} x the full-rate trial bytes"


class TestConfig:
    def test_round_trip(self, tiny_dataset, tmp_path):
        cfg = tiny_config(tiny_dataset, tmp_path)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        manifest = Dataset(tiny_dataset).manifest
        assert again.fingerprint(manifest) == cfg.fingerprint(manifest)

    def test_desk_config_survives_json(self):
        # The fingerprint pins the serialized form: a codec change that moved
        # a key or a value's JSON type would change every report's record.
        cfg = desk_config("data", seed=3)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.fingerprint(manifest_for_profile(PROFILES["femg_vpf"])) == (
            "4214c7d2044ee19e5ddb4e68e2f2f6ee3c0017a88bb6960a1d62d807275e95b0"
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"dataset": "x", "bogus": 1})

    def test_no_arms_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="x", arms=())

    def test_derive_seed_stable(self):
        assert derive_seed(0, "gan") == derive_seed(0, "gan")
        assert derive_seed(0, "gan") != derive_seed(0, "clf")
        assert derive_seed(0, "gan") != derive_seed(1, "gan")

    def test_desk_config_builds(self, tiny_dataset):
        cfg = desk_config(str(tiny_dataset))
        assert set(cfg.arms) == {"unimodal", "virtual_multimodal", "real_multimodal"}


class TestRunExperiment:
    def test_unimodal_only_contract(self, tiny_dataset, tmp_path):
        cfg = tiny_config(tiny_dataset, tmp_path / "out", arms=("unimodal",))
        report = run_experiment(cfg)
        assert list(report.per_subject) == ["unimodal"]
        assert sorted(report.per_subject["unimodal"]) == ["1", "2"]
        for row in report.per_subject["unimodal"].values():
            assert 0.0 <= row["window_accuracy"] <= 1.0

    def test_report_does_not_depend_on_where_the_run_starts(self, tiny_dataset, tmp_path, monkeypatch):
        # The same config, naming the dataset relative to the working
        # directory and by its absolute path, writes the same report bytes.
        monkeypatch.chdir(tiny_dataset.parent)
        for name, dataset in (("relative", tiny_dataset.name), ("absolute", str(tiny_dataset))):
            run_experiment(tiny_config(dataset, tmp_path / name))
        report = (tmp_path / "relative" / "report.json").read_bytes()
        assert report == (tmp_path / "absolute" / "report.json").read_bytes()

    def forked_and_serial(self, dataset, tmp_path, monkeypatch, cfg_changes=lambda cfg: cfg,
                          arms=("unimodal", "virtual_multimodal")):
        """Run ``arms`` forked, then without os.fork; both reports and every written file must match.

        OpenBLAS is declared one-threaded, so the forked run splits the virtual arm.
        """
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = run_experiment(cfg_changes(tiny_config(dataset, out1, arms=arms)))
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            r2 = run_experiment(cfg_changes(tiny_config(dataset, out2, arms=arms)))
        assert r1.to_dict() == r2.to_dict()
        classifiers = _classifier_files(out1)
        assert _classifier_files(out2) == classifiers
        for rel in ["report.json", "report.csv", "report.svg",
                    "gan/generator.ckpt", "gan/discriminator.ckpt", *classifiers]:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        return out1, classifiers

    def test_deterministic_report_and_outputs(self, tiny_dataset, tmp_path, monkeypatch):
        # The first run trains its unimodal arm and the second subject of the
        # virtual arm in a forked helper, the second, without os.fork, runs
        # every arm in this process.
        out1, classifiers = self.forked_and_serial(tiny_dataset, tmp_path, monkeypatch)
        assert len(classifiers) == 2 * 2 * 2  # arms x subjects x files
        critic_cfg, _ = load_discriminator(out1 / "gan")
        assert critic_cfg.semg_channels == 8

    @pytest.mark.parametrize("pretrain", [False, True], ids=["per_subject", "pretrain"])
    def test_forked_equals_serial_with_three_subjects(self, pretrain, three_subject_dataset, tmp_path,
                                                      monkeypatch):
        def with_pretrain(cfg):
            cfg.classifier.pretrain = pretrain
            return cfg

        _, classifiers = self.forked_and_serial(three_subject_dataset, tmp_path, monkeypatch,
                                                with_pretrain, arms=pipeline.ARMS)
        assert len(classifiers) == 3 * 3 * 2  # arms x subjects x files

    @pytest.mark.parametrize("blas_env,split", [
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
        ({}, False),
    ], ids=["openblas_1", "omp_1", "openblas_2", "goto_1", "unset"])
    def test_the_helper_trains_the_later_half_of_the_virtual_subjects(self, blas_env, split,
                                                                     three_subject_dataset, tmp_path,
                                                                     monkeypatch):
        # Two pools of BLAS threads on the same cores cost more than the split
        # gains, so the virtual arm stays whole unless OpenBLAS runs one thread.
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in blas_env.items():
            monkeypatch.setenv(name, value)
        log = tmp_path / "trained_by.txt"

        def record(arm, subject):
            with open(log, "a") as fh:
                fh.write(f"{arm} {subject} {os.getpid()}\n")

        on_subject_training(monkeypatch, record)
        run_experiment(tiny_config(three_subject_dataset, tmp_path / "out", arms=pipeline.ARMS))
        pid_of = {}
        for line in log.read_text().splitlines():
            arm, subject, pid = line.split()
            pid_of[arm, int(subject)] = int(pid)
        assert len(pid_of) == 9
        here = os.getpid()
        helper = pid_of["unimodal", 1]
        assert helper != here
        assert {pid_of[arm, s] for arm in ("unimodal", "real_multimodal") for s in (1, 2, 3)} == {helper}
        assert [pid_of["virtual_multimodal", s] for s in (1, 2)] == [here, here]
        if split:  # a second helper, forked once the virtual windows exist
            assert pid_of["virtual_multimodal", 3] not in (here, helper)
        else:
            assert pid_of["virtual_multimodal", 3] == here

    def test_a_pinned_virtual_only_run_splits_like_the_serial_run(self, three_subject_dataset, tmp_path,
                                                                  monkeypatch):
        # With no generator-free arm beside it the virtual arm still splits 2 + 1.
        calls = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        _, classifiers = self.forked_and_serial(three_subject_dataset, tmp_path, monkeypatch,
                                                arms=("virtual_multimodal",))
        assert len(calls) == 1
        assert len(classifiers) == 3 * 2  # subjects x files

    def test_all_arms_report_deltas(self, tiny_dataset, tmp_path):
        cfg = tiny_config(tiny_dataset, tmp_path / "out3",
                          arms=("unimodal", "virtual_multimodal", "real_multimodal"))
        report = run_experiment(cfg)
        assert set(report.deltas) == {"virtual_minus_unimodal", "real_minus_virtual"}
        recomputed = report.arm_summary["virtual_multimodal"]["mean"] - report.arm_summary["unimodal"]["mean"]
        assert report.deltas["virtual_minus_unimodal"] == pytest.approx(recomputed, abs=1e-12)

    def test_nested_seeds_do_not_steer_a_run(self, tiny_dataset, tmp_path):
        # `run` derives the generator's seed and every classifier's seed
        # (pretraining and per subject) from the run seed; only the staged
        # train-gan and train-clf read gan.seed and classifier.seed. A change
        # that makes `run` honour them changes this test on purpose.
        cfg = tiny_config(tiny_dataset, tmp_path / "a", arms=("unimodal", "virtual_multimodal"))
        cfg.classifier.pretrain = True
        other = replace(cfg, gan=replace(cfg.gan, seed=5), classifier=replace(cfg.classifier, seed=7))
        first = run_experiment(cfg)
        second = run_experiment(other)
        assert first.per_subject == second.per_subject
        assert first.config_fingerprint != second.config_fingerprint

    def test_pretrain_path_runs(self, tiny_dataset, tmp_path):
        cfg = tiny_config(tiny_dataset, tmp_path / "outp", arms=("unimodal",))
        cfg.classifier.pretrain = True
        report = run_experiment(cfg)
        assert sorted(report.per_subject["unimodal"]) == ["1", "2"]

    def test_missing_motion_arm_rejected(self, tmp_path):
        root = tmp_path / "noimu"
        cfg = SynthConfig(subjects=2, gestures=2, trials=2, trial_seconds=5.0, imu_channels=1)
        synth_generate(cfg, root)
        # strip motion channels from the manifest to simulate a muscle-only set
        manifest_path = root / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        raw["imu_channels"] = 0
        manifest_path.write_text(json.dumps(raw))
        run_cfg = tiny_config(root, tmp_path / "out4", arms=("real_multimodal",))
        with pytest.raises(DataError):
            run_experiment(run_cfg)
