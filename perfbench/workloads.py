"""The three workloads: inputs made from the seed, one iteration, output checks.

Each workload runs every stage the end-to-end metrics time (extraction,
generator training, synthesis, classifier training, prediction), in very
different proportions, so a change to one layer shows on the workload that
leans on it and stays flat on the others:

* ``desk_run``: ``vimu run`` in-process on the desk config over the default
  synthetic dataset. Tiny tensors; per-call overhead dominates; generator
  training is most of the time. Epochs are cut (see ``DeskRun``) so that
  several runs fit in one measurement.
* ``fullscale_train``: ninapro_db2 geometry (12/36 channels at 2000 Hz,
  k = 20) with full-scale widths and batch 64. GEMM-sized training of the
  generator and of the 40 M-parameter multimodal classifier.
* ``ingest_infer``: a db5-like cohort of 3,180 trials. Each iteration ingests
  106 trials of one subject, looked up in the full manifest, calibrates desk
  models on them briefly and runs eval-mode synthesis and prediction over
  all of their windows.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import vimu.cli
import vimu.data as vdata
import vimu.fusion as fusion
import vimu.gan as gan
import vimu.pipeline as pl
import vimu.sigproc as sig


def _reset(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _flat(arr):
    return arr.reshape(-1, arr.shape[-1])


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _weights_changed(initial: dict, trained: dict) -> bool:
    weights = [name for name in initial if name.endswith(".w")]
    return bool(weights) and all(not np.array_equal(initial[n], trained[n]) for n in weights)


def _train_generator(plan, table, mask, gan_cfg, out_dir):
    """Guarded generator training on the masked window pairs; the bundle is written.

    Returns the bundle, the discriminator, the history and the normalized pairs.
    """
    pl.assert_no_leakage(plan, table.subjects[mask], table.trials[mask], "gan")
    semg_stats = sig.fit_stats(_flat(table.semg_gan[mask]))
    imu_stats = sig.fit_stats(_flat(table.imu[mask]))
    semg_n = sig.apply_norm(table.semg_gan[mask], semg_stats, "zscore").astype(np.float32)
    imu_n = sig.apply_norm(table.imu[mask], imu_stats, "minmax_pm1").astype(np.float32)
    gen, disc, history = gan.train_gan(semg_n, imu_n, gan_cfg)
    k, c1, c2 = table.semg_gan.shape[1], table.semg_gan.shape[2], table.imu.shape[2]
    bundle = gan.GeneratorBundle(gan.GeneratorConfig(k, c1, c2, tconv_maps=gan_cfg.generator_maps),
                                 gen, semg_stats, imu_stats, seed=gan_cfg.seed)
    gan.save_generator_bundle(out_dir, bundle, disc,
                              gan.DiscriminatorConfig(k, c2, conv_maps=gan_cfg.discriminator_maps))
    return bundle, disc, history, semg_n, imu_n


class Workload:
    """Set-up (timed and repeated), iterations (timed), then checks (untimed)."""

    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        # relative to the checkout, so the config fingerprint is the same everywhere
        self.work = Path("perfbench", "out", "work", self.name)

    def setup(self):
        raise NotImplementedError

    def iterate(self, i: int, tracer):
        raise NotImplementedError

    def after_iteration(self, i: int):
        pass

    def checks(self) -> dict:
        raise NotImplementedError

    def quality(self) -> dict | None:
        return None

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


class DeskRun(Workload):
    """``vimu run`` on ``desk_config`` (all three arms, outputs written).

    The full desk schedule (300 generator epochs, 28 classifier epochs) takes
    about 80 s, longer than one measurement. The schedule is cut to the same
    protocol at a fraction of its length, so that a run holds several
    iterations and their median resists the machine's slow spells:
    generator epochs 300 -> 10 with a snapshot every 5, classifier epochs
    28 -> 4 with the decay epochs (16, 24) scaled to (2, 3). Dataset,
    widths, batch sizes, split and arms are the desk config's.
    """

    name = "desk_run"
    GAN_EPOCHS, SNAPSHOT_EVERY = 10, 5
    CLF_EPOCHS, CLF_DECAY = 4, (2, 3)

    def setup(self):
        _reset(self.work)
        self.data = self.work / "data"
        vdata.synth_generate(vdata.SynthConfig(seed=self.seed), self.data)
        cfg = pl.desk_config(str(self.data), seed=self.seed).to_dict()
        cfg["gan"].update(epochs=self.GAN_EPOCHS, snapshot_every=self.SNAPSHOT_EVERY)
        cfg["classifier"].update(epochs=self.CLF_EPOCHS, decay_epochs=list(self.CLF_DECAY))
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        self.cfg = cfg
        self.digests = []

    def _out(self, i: int) -> Path:
        return self.work / f"run{i}"

    def iterate(self, i, tracer):
        with redirect_stdout(io.StringIO()):
            code = vimu.cli.main(["run", "--config", str(self.config), "--out", str(self._out(i))])
        if code != 0:
            raise RuntimeError(f"vimu run exited with code {code}")

    def after_iteration(self, i):
        out = self._out(i)
        files = [out / "report.json"] + sorted(out.rglob("*.ckpt"))
        self.digests.append({p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in files})
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)

    def _report(self) -> dict:
        return json.loads((self._out(0) / "report.json").read_text(encoding="utf-8"))

    def checks(self) -> dict:
        from envinfo import source_digest

        report = self._report()
        accs = [row[key] for arm in report["per_subject"].values() for row in arm.values()
                for key in ("window_accuracy", "trial_majority_accuracy")]
        accs += [s["mean"] for s in report["arm_summary"].values()]
        n_ckpt = sum(1 for name in self.digests[0] if name.endswith(".ckpt"))
        # Digests of earlier processes with the same library source and run
        # config (which holds the seed), kept in the checkout, extend the
        # comparison across runs.
        key = hashlib.sha256((source_digest(self.root) + self.config.read_text(encoding="utf-8"))
                             .encode()).hexdigest()[:16]
        store = Path("perfbench", "out", "digests", f"{self.name}-{key}.json")
        if store.is_file():
            previous = json.loads(store.read_text(encoding="utf-8"))
        else:
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(self.digests[0], indent=1, sort_keys=True), encoding="utf-8")
            previous = self.digests[0]
        return {
            "outputs_written": bool(self.digests[0]) and n_ckpt == 1 + 1 + 3 * 4,
            "outputs_identical_across_iterations": all(d == self.digests[0] for d in self.digests),
            "outputs_identical_across_processes": previous == self.digests[0],
            "accuracies_finite_in_unit_interval": bool(accs) and _all_finite(accs)
            and all(0.0 <= a <= 1.0 for a in accs),
        }

    def quality(self) -> dict:
        """Arm accuracies and the bundle's held-out fidelity; recorded, never gated."""
        report = self._report()
        bundle = gan.load_generator_bundle(self._out(0) / "gan")
        dataset = vdata.Dataset(self.data)
        profile = vdata.resolve_profile("synthetic", dataset.manifest)
        plan = vdata.make_split(dataset.manifest, "exp2", profile)
        table = pl.extract_windows(dataset, profile, sig.PreprocSpec.from_dict(self.cfg["preproc"]),
                                   subjects=plan.recognition_subjects, trials=plan.clf_test_trials)
        virtual = gan.generate_virtual(bundle, gan.normalize_generator_inputs(bundle, table.semg_gan))
        corrs = [float(np.corrcoef(virtual[:, :, c].ravel(), table.imu[:, :, c].ravel())[0, 1])
                 for c in range(table.imu.shape[2])]
        return {
            "arm_accuracy": {arm: s["mean"] for arm, s in report["arm_summary"].items()},
            "virtual_minus_unimodal": report["deltas"].get("virtual_minus_unimodal"),
            "real_minus_virtual": report["deltas"].get("real_minus_virtual"),
            "generator_heldout_corr": float(np.mean(corrs)),
            "heldout_windows": len(table),
            "schedule": {"gan_epochs": self.GAN_EPOCHS, "clf_epochs": self.CLF_EPOCHS},
        }


class FullScaleTrain(Workload):
    """Full-scale widths on ninapro_db2 geometry, a fixed number of steps."""

    name = "fullscale_train"
    SYNTH = dict(subjects=1, gestures=4, trials=4, sample_rate_hz=2000.0,
                 semg_channels=12, imu_channels=36, imu_kind="acc")
    GAN = dict(epochs=1, batch_size=64, max_pairs=256)  # 4 adversarial steps
    CLF_TRAIN, CLF_TEST, CLF_BATCH = 64, 64, 64         # 1 classifier step

    def setup(self):
        _reset(self.work)
        vdata.synth_generate(vdata.SynthConfig(**self.SYNTH, seed=self.seed), self.work / "data")
        self.dataset = vdata.Dataset(self.work / "data")
        self.profile = vdata.resolve_profile("synthetic", self.dataset.manifest)
        self.plan = vdata.make_split(self.dataset.manifest, "exp2", self.profile)
        self.spec = sig.PreprocSpec()
        self.network = pl.ClassifierSpec()
        self.histories = []
        self.last = None

    def iterate(self, i, tracer):
        self.last = None
        plan, seed = self.plan, self.seed
        table = pl.extract_windows(self.dataset, self.profile, self.spec)
        k, c1, c2 = table.semg_gan.shape[1], table.semg_gan.shape[2], table.imu.shape[2]

        gan_mask = np.isin(table.subjects, plan.gan_subjects) & np.isin(table.trials, plan.gan_train_trials)
        bundle, disc, gan_hist, semg_n, imu_n = _train_generator(
            plan, table, gan_mask, gan.GanTrainConfig(**self.GAN, seed=seed), self.work / "gan")

        rng = np.random.default_rng(seed)
        rec = np.isin(table.subjects, plan.recognition_subjects)
        train = rng.choice(np.flatnonzero(rec & np.isin(table.trials, plan.clf_train_trials)),
                           self.CLF_TRAIN, replace=False)
        test = rng.choice(np.flatnonzero(rec & np.isin(table.trials, plan.clf_test_trials)),
                          self.CLF_TEST, replace=False)
        pl.assert_no_leakage(plan, table.subjects[train], table.trials[train], "clf_train")
        pl.assert_no_leakage(plan, table.subjects[test], table.trials[test], "clf_test")
        rows = np.concatenate([train, test])
        virtual = gan.generate_virtual(
            bundle, sig.apply_norm(table.semg_gan[rows], bundle.semg_stats, "zscore"))
        streams = []
        for arr in (table.semg_hgr[rows], virtual):
            stats = sig.fit_stats(_flat(arr[: len(train)]))
            streams.append(sig.apply_norm(arr, stats, "zscore").astype(np.float32))

        fusion_cfg = fusion.FusionConfig(self.dataset.manifest.gestures, self.network.fusion_hidden)
        model = fusion.build_multimodal(self.network.stream(k, c1), self.network.stream(k, c2),
                                        fusion_cfg, seed)
        clf_cfg = fusion.ClfTrainConfig(batch_size=self.CLF_BATCH, epochs=1, decay_epochs=(), seed=seed)
        tracer.arm_hint = "virtual_multimodal"
        _, clf_hist = fusion.train_classifier(model, [s[: len(train)] for s in streams],
                                              table.labels[train], clf_cfg)
        preds, _ = fusion.predict(model, [s[len(train):] for s in streams])
        self.histories.append((gan_hist, clf_hist, preds))
        self.last = dict(semg_n=semg_n, imu_n=imu_n, gen=bundle.params, disc=disc,
                         model=model, k=k, c1=c1, c2=c2, fusion_cfg=fusion_cfg)

    def checks(self) -> dict:
        classes = self.dataset.manifest.gestures
        losses = []
        for gan_hist, clf_hist, _ in self.histories:
            losses += [v for key in ("d_loss", "g_loss", "value") for v in gan_hist[key]]
            losses += clf_hist["loss"]
        last = self.last
        gen0, disc0, _ = gan.train_gan(last["semg_n"], last["imu_n"],
                                       gan.GanTrainConfig(**{**self.GAN, "epochs": 0}, seed=self.seed))
        model0 = fusion.build_multimodal(self.network.stream(last["k"], last["c1"]),
                                         self.network.stream(last["k"], last["c2"]),
                                         last["fusion_cfg"], self.seed)
        return {
            "losses_finite": bool(losses) and _all_finite(losses),
            "generator_weights_changed": _weights_changed(gen0.state_dict(), last["gen"].state_dict()),
            "discriminator_weights_changed": _weights_changed(disc0.state_dict(), last["disc"].state_dict()),
            "classifier_weights_changed": _weights_changed(model0.params.state_dict(),
                                                           last["model"].params.state_dict()),
            "predictions_in_class_range": all(p.min() >= 0 and p.max() < classes
                                              for _, _, p in self.histories),
        }


class IngestInfer(Workload):
    """Thousands of trials in, per-subject calibration, eval-mode forwards over every window."""

    name = "ingest_infer"
    # The synthetic profile keeps a 3 s action slice after a 1 s lead, so 4 s
    # trials hold everything extraction reads.
    SYNTH = dict(subjects=10, gestures=53, trials=6, sample_rate_hz=200.0,
                 semg_channels=16, imu_channels=3, imu_kind="acc", trial_seconds=4.0)
    ACTION_S = 3.0
    GAN = dict(epochs=1, batch_size=16, max_pairs=384, generator_maps=(8, 4, 1), snapshot_every=1)
    NETWORK = dict(conv_maps=8, lc_maps=8, dense_units=32, fusion_hidden=32)
    CLF_TRAIN, CLF_BATCH = 512, 64
    # one iteration ingests one subject's trials 1-2, 3-4 or 5-6: a training
    # and a test trial of every gesture, 106 of the manifest's 3,180 entries
    TRIAL_PAIRS = ((1, 2), (3, 4), (5, 6))
    SUBSET = 300

    def setup(self):
        _reset(self.work)
        vdata.synth_generate(vdata.SynthConfig(**self.SYNTH, seed=self.seed), self.work / "data")
        self.dataset = vdata.Dataset(self.work / "data")
        self.profile = vdata.resolve_profile("synthetic", self.dataset.manifest)
        self.plan = vdata.make_split(self.dataset.manifest, "exp2", self.profile)
        self.spec = pl.desk_config("").preproc
        self.network = pl.ClassifierSpec(**self.NETWORK)
        units = [(s, pair) for s in self.dataset.manifest.subjects for pair in self.TRIAL_PAIRS]
        self.order = [units[j] for j in np.random.default_rng(self.seed).permutation(len(units))]
        self.window_counts = []
        self.first = None

    def expected_windows(self) -> int:
        """Windows per iteration from the synthetic geometry and the segment formula."""
        s, spec = self.SYNTH, self.spec
        action = math.floor(self.ACTION_S * s["sample_rate_hz"] + 1e-9)
        frames = -(-action // spec.decimation)
        rate = s["sample_rate_hz"] / spec.decimation
        k = math.floor(spec.window_ms * rate / 1000.0 + 1e-9)
        step = math.floor(spec.step_ms * rate / 1000.0 + 1e-9)
        return s["gestures"] * len(self.TRIAL_PAIRS[0]) * ((frames - k) // step + 1)

    def iterate(self, i, tracer):
        plan, seed = self.plan, self.seed
        subject, trials = self.order[i % len(self.order)]
        table = pl.extract_windows(self.dataset, self.profile, self.spec, subjects=[subject],
                                   trials=list(trials))
        k, c1, c2 = table.semg_gan.shape[1], table.semg_gan.shape[2], table.imu.shape[2]

        bundle = _train_generator(plan, table, np.isin(table.trials, plan.gan_train_trials),
                                  gan.GanTrainConfig(**self.GAN, seed=seed), self.work / "gan")[0]
        virtual = gan.generate_virtual(bundle, sig.apply_norm(table.semg_gan, bundle.semg_stats, "zscore"))

        train_rows = np.flatnonzero(np.isin(table.trials, plan.clf_train_trials))
        train = np.random.default_rng(seed).choice(train_rows, self.CLF_TRAIN, replace=False)
        test = np.isin(table.trials, plan.clf_test_trials)
        pl.assert_no_leakage(plan, table.subjects[train], table.trials[train], "clf_train")
        pl.assert_no_leakage(plan, table.subjects[test], table.trials[test], "clf_test")
        semg, virt = [sig.apply_norm(arr, sig.fit_stats(_flat(arr[train])), "zscore").astype(np.float32)
                      for arr in (table.semg_hgr, virtual)]

        fusion_cfg = fusion.FusionConfig(self.dataset.manifest.gestures, self.network.fusion_hidden)
        clf_cfg = fusion.ClfTrainConfig(batch_size=self.CLF_BATCH, epochs=1, decay_epochs=(), seed=seed)
        uni = fusion.build_unimodal(self.network.stream(k, c1), fusion_cfg, seed)
        tracer.arm_hint = "unimodal"
        fusion.train_classifier(uni, [semg[train]], table.labels[train], clf_cfg)
        multi = fusion.build_multimodal(self.network.stream(k, c1), self.network.stream(k, c2),
                                        fusion_cfg, seed)
        tracer.arm_hint = "virtual_multimodal"
        fusion.train_classifier(multi, [semg[train], virt[train]], table.labels[train], clf_cfg)
        uni_out = fusion.predict(uni, [semg])
        multi_out = fusion.predict(multi, [semg, virt])
        self.window_counts.append(len(table))
        if self.first is None:
            self.first = dict(uni=uni, multi=multi, semg=semg, virt=virt,
                              uni_out=uni_out, multi_out=multi_out)

    def checks(self) -> dict:
        f = self.first
        cases = ((f["uni"], [f["semg"]], f["uni_out"]),
                 (f["multi"], [f["semg"], f["virt"]], f["multi_out"]))
        repeat_ok = subset_ok = True
        rows = np.sort(np.random.default_rng(self.seed).choice(len(f["semg"]), self.SUBSET, replace=False))
        for model, arrays, (labels, probs) in cases:
            again_labels, again_probs = fusion.predict(model, arrays)
            repeat_ok &= np.array_equal(again_labels, labels) and np.array_equal(again_probs, probs)
            sub_labels, sub_probs = fusion.predict(model, [a[rows] for a in arrays])
            # Row results may differ in the last float32 bits with the GEMM shape.
            subset_ok &= np.array_equal(sub_labels, labels[rows]) and \
                np.allclose(sub_probs, probs[rows], rtol=1e-5, atol=1e-7)
        expected = self.expected_windows()
        return {
            "window_count_matches_geometry": all(n == expected for n in self.window_counts),
            "predictions_identical_between_repeats": bool(repeat_ok),
            "subset_predict_matches_full_batch": bool(subset_ok),
        }


WORKLOADS = {w.name: w for w in (DeskRun, FullScaleTrain, IngestInfer)}
