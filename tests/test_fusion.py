import numpy as np
import pytest

import vimu.fusion
from vimu.errors import ConfigError, DataError
from vimu.fusion import (
    ClfTrainConfig,
    FusionConfig,
    StreamConfig,
    build_model,
    build_multimodal,
    build_unimodal,
    load_classifier_bundle,
    predict,
    save_classifier_bundle,
    stream_layers,
    train_classifier,
)
from vimu.nn import stack_output_shape
from vimu.sigproc import fit_stats


SLIM = dict(conv_maps=4, lc_maps=4, dense_units=16)


def slim_stream(k=10, channels=4, **kw):
    return StreamConfig(k, channels, **{**SLIM, **kw})


def separable_windows(n_per_class=16, classes=4, k=10, channels=4, noise=0.1, seed=0):
    """Windows whose mean pattern identifies the class; easy to memorize."""
    rng = np.random.default_rng(seed)
    patterns = rng.standard_normal((classes, k, channels))
    xs, ys = [], []
    for c in range(classes):
        xs.append(patterns[c][None] + noise * rng.standard_normal((n_per_class, k, channels)))
        ys.extend([c] * n_per_class)
    x = np.concatenate(xs, axis=0).astype(np.float32)
    y = np.asarray(ys)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


class TestBuilders:
    def test_stream_emits_dense_vector_and_concat_width(self):
        semg = StreamConfig(20, 12)
        imu = StreamConfig(20, 36)
        assert semg.dense_units == 512
        model = build_multimodal(slim_stream(channels=12, k=20), slim_stream(channels=36, k=20),
                                 FusionConfig(classes=4, hidden_units=16), seed=0)
        # fusion input width is the sum of stream feature widths
        assert model.params["fusion.fc.w"].data.shape[0] == 2 * SLIM["dense_units"]

    def test_full_scale_stream_flatten_width(self):
        # conv/LC layers preserve 20 x 12; 64 maps -> flatten 15360 -> dense 512
        cfg = StreamConfig(20, 12)
        shapes = stack_output_shape(stream_layers(cfg)[:-3], (1, 20, 12))
        assert shapes == (64, 20, 12)
        full = stack_output_shape(stream_layers(cfg), (1, 20, 12))
        assert full == (512,)

    @pytest.mark.parametrize("k,channels", [(20, 8), (20, 12), (20, 16), (20, 36), (20, 3)])
    def test_spatial_dims_preserved_for_all_geometries(self, k, channels):
        cfg = StreamConfig(k, channels)
        assert stack_output_shape(stream_layers(cfg)[:-3], (1, k, channels))[1:] == (k, channels)

    def test_softmax_output_sums_to_one(self):
        model = build_unimodal(slim_stream(), FusionConfig(classes=5, hidden_units=16), seed=0)
        x = np.random.default_rng(0).standard_normal((6, 10, 4)).astype(np.float32)
        out = model.forward([x], mode="eval")
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert out.data.shape == (6, 5)

    def test_unimodal_parameter_count_is_multimodal_minus_imu_side(self):
        fusion_cfg = FusionConfig(classes=4, hidden_units=16)
        semg_cfg = slim_stream()
        imu_cfg = slim_stream(channels=3)
        multi = build_multimodal(semg_cfg, imu_cfg, fusion_cfg, seed=0)
        uni = build_unimodal(semg_cfg, fusion_cfg, seed=0)
        imu_params = sum(
            p.data.size for name, p in multi.params.trainable() if name.startswith("imu.")
        )
        width_diff = SLIM["dense_units"] * 16  # extra fusion fc rows from the wider concat
        assert uni.params.total_parameters() == multi.params.total_parameters() - imu_params - width_diff

    def test_identical_seed_gives_identical_semg_stream_init(self):
        fusion_cfg = FusionConfig(classes=4, hidden_units=16)
        multi = build_multimodal(slim_stream(), slim_stream(channels=3), fusion_cfg, seed=42)
        uni = build_unimodal(slim_stream(), fusion_cfg, seed=42)
        for name, p in uni.params.trainable():
            if name.startswith("semg."):
                assert np.array_equal(p.data, multi.params[name].data), name

    @pytest.mark.parametrize("seed", [0, 7, 123456789])
    def test_build_model_matches_the_layout_builders(self, seed):
        fusion_cfg = FusionConfig(classes=4, hidden_units=16)
        semg_cfg, imu_cfg = slim_stream(), slim_stream(channels=3)
        pairs = [
            (build_model({"semg": semg_cfg}, fusion_cfg, seed), build_unimodal(semg_cfg, fusion_cfg, seed)),
            (build_model({"semg": semg_cfg, "imu": imu_cfg}, fusion_cfg, seed),
             build_multimodal(semg_cfg, imu_cfg, fusion_cfg, seed)),
        ]
        for built, reference in pairs:
            a, b = built.params.state_dict(), reference.params.state_dict()
            assert list(a) == list(b)
            for name in a:
                assert a[name].tobytes() == b[name].tobytes(), name
            assert built.params.init_record == reference.params.init_record
            assert built.stream_cfgs == reference.stream_cfgs

    def test_build_model_puts_the_muscle_stream_first(self):
        # A sorted-key classifier.json decodes its streams as imu, semg.
        model = build_model({"imu": slim_stream(channels=3), "semg": slim_stream()},
                            FusionConfig(classes=4, hidden_units=16), seed=3)
        assert list(model.stream_cfgs) == ["semg", "imu"]
        assert next(iter(model.params.state_dict())).startswith("semg.")

    def test_build_model_rejects_other_layouts(self):
        for streams in ({"emg": slim_stream()}, {"imu": slim_stream()}, {}):
            with pytest.raises(DataError, match="unsupported stream layout"):
                build_model(streams, FusionConfig(classes=4, hidden_units=16), seed=0)

    def test_mismatched_window_length_rejected(self):
        with pytest.raises(ConfigError):
            build_multimodal(slim_stream(k=10), slim_stream(k=20, channels=3),
                             FusionConfig(classes=4), seed=0)

    def test_stream_independence(self):
        model = build_multimodal(slim_stream(), slim_stream(channels=3),
                                 FusionConfig(classes=4, hidden_units=16), seed=1)
        rng = np.random.default_rng(2)
        semg = rng.standard_normal((4, 10, 4)).astype(np.float32)
        imu = rng.standard_normal((4, 10, 3)).astype(np.float32)
        from vimu.nn.layers import run_stack
        from vimu.fusion import stream_layers as sl

        before = run_stack(sl(model.stream_cfgs["semg"]), model.params,
                           semg[:, None], mode="eval", prefix="semg.").data.copy()
        for name, p in model.params.trainable():
            if name.startswith("imu."):
                p.data = p.data + 123.0
        after = run_stack(sl(model.stream_cfgs["semg"]), model.params,
                          semg[:, None], mode="eval", prefix="semg.").data
        assert np.array_equal(before, after)


class TestTraining:
    def test_learning_rate_trace(self):
        x, y = separable_windows(n_per_class=2, classes=2)
        model = build_unimodal(slim_stream(), FusionConfig(classes=2, hidden_units=16), seed=0)
        _, history = train_classifier(model, [x], y, ClfTrainConfig(batch_size=4, seed=0))
        assert history["lr"] == [0.1] * 16 + [0.01] * 8 + [0.001] * 4

    def test_zero_epochs_leaves_params(self):
        x, y = separable_windows(n_per_class=2, classes=2)
        model = build_unimodal(slim_stream(), FusionConfig(classes=2, hidden_units=16), seed=0)
        before = {name: p.data.copy() for name, p in model.params.trainable()}
        train_classifier(model, [x], y, ClfTrainConfig(epochs=0, decay_epochs=(), seed=0))
        for name, p in model.params.trainable():
            assert np.array_equal(p.data, before[name])

    def test_overfits_small_separable_set(self):
        # 64 windows, 4 classes: the full schedule memorizes the set
        x, y = separable_windows(n_per_class=16, classes=4, seed=3)
        model = build_unimodal(slim_stream(), FusionConfig(classes=4, hidden_units=16), seed=3)
        train_classifier(model, [x], y, ClfTrainConfig(seed=3))
        labels, _ = predict(model, [x])
        assert np.array_equal(labels, y)

    def test_loss_decreases_on_fixed_batch_small_lr(self):
        # five SGD steps on one fixed batch at lr 0.001 (two decays already
        # taken at epoch 0), fixed dropout masks
        from vimu.nn import backprop
        from vimu.nn.losses import cross_entropy_loss
        from vimu.nn.optim import SgdState, sgd_step

        x, y = separable_windows(n_per_class=8, classes=2, seed=4)
        model = build_unimodal(slim_stream(), FusionConfig(classes=2, hidden_units=16), seed=4)
        sgd = SgdState(decay_epochs=(0, 0))

        def batch_loss():
            rng = np.random.default_rng(11)
            probs = model.forward([x], mode="train", rng=rng, update_stats=False)
            return cross_entropy_loss(probs, y)

        losses = [float(batch_loss().data)]
        for _ in range(5):
            loss = batch_loss()
            backprop(loss, model.params)
            sgd_step(sgd, model.params, epoch=0)
            losses.append(float(batch_loss().data))
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_label_out_of_range(self):
        x, _ = separable_windows(n_per_class=2, classes=2)
        model = build_unimodal(slim_stream(), FusionConfig(classes=2, hidden_units=16), seed=0)
        with pytest.raises(DataError):
            train_classifier(model, [x], np.full(len(x), 7), ClfTrainConfig(seed=0))

    def test_empty_training_set(self):
        model = build_unimodal(slim_stream(), FusionConfig(classes=2, hidden_units=16), seed=0)
        with pytest.raises(DataError):
            train_classifier(model, [np.zeros((0, 10, 4), dtype=np.float32)],
                             np.zeros(0, dtype=int), ClfTrainConfig(seed=0))

    def test_seeded_training_reproducible(self):
        x, y = separable_windows(n_per_class=4, classes=2, seed=5)
        cfg = ClfTrainConfig(batch_size=8, epochs=3, decay_epochs=(), seed=5)
        runs = []
        for _ in range(2):
            model = build_unimodal(slim_stream(), FusionConfig(classes=2, hidden_units=16), seed=5)
            train_classifier(model, [x], y, cfg)
            runs.append({name: p.data.copy() for name, p in model.params.trainable()})
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name]), name

    def test_multimodal_training_runs(self):
        xs, y = separable_windows(n_per_class=4, classes=2, seed=6)
        xi, _ = separable_windows(n_per_class=4, classes=2, channels=3, seed=6)
        model = build_multimodal(slim_stream(), slim_stream(channels=3),
                                 FusionConfig(classes=2, hidden_units=16), seed=6)
        _, history = train_classifier(model, [xs, xi], y,
                                      ClfTrainConfig(batch_size=8, epochs=2, decay_epochs=(), seed=6))
        assert len(history["loss"]) == 2

    def test_decay_epochs_validated(self):
        with pytest.raises(ConfigError):
            ClfTrainConfig(epochs=10, decay_epochs=(16, 24))


class TestPretrain:
    def test_pretraining_set_size_is_sum_of_subjects(self):
        xs = [separable_windows(n_per_class=3, classes=2, seed=s)[0] for s in range(3)]
        pooled = np.concatenate(xs, axis=0)
        assert pooled.shape[0] == sum(x.shape[0] for x in xs)

    def test_finetune_not_worse_than_scratch_on_average(self):
        # paired comparison over five seeds: cohort pretraining then a
        # per-subject schedule performs within 2 points of scratch training
        rng = np.random.default_rng(0)
        classes, k, channels = 3, 8, 4
        patterns = rng.standard_normal((classes, k, channels))

        def subject_windows(subject, n_train=18, n_test=24, noise=0.65):
            srng = np.random.default_rng(100 + subject)
            gain = 1.0 + 0.2 * srng.standard_normal()
            xs, ys = [], []
            for c in range(classes):
                base = gain * patterns[c][None]
                xs.append(base + noise * srng.standard_normal((n_train + n_test, k, channels)))
                ys.extend([c] * (n_train + n_test))
            x = np.concatenate(xs).astype(np.float32)
            y = np.asarray(ys)
            train_idx = np.concatenate([np.arange(c * (n_train + n_test), c * (n_train + n_test) + n_train)
                                        for c in range(classes)])
            test_idx = np.setdiff1d(np.arange(len(y)), train_idx)
            return x[train_idx], y[train_idx], x[test_idx], y[test_idx]

        subjects = [subject_windows(s) for s in range(3)]
        pooled_x = np.concatenate([s[0] for s in subjects])
        pooled_y = np.concatenate([s[1] for s in subjects])
        diffs = []
        for seed in range(5):
            cfg = ClfTrainConfig(batch_size=16, epochs=8, decay_epochs=(4, 6), seed=seed)
            fine_accs, scratch_accs = [], []
            for x_tr, y_tr, x_te, y_te in subjects:
                fusion_cfg = FusionConfig(classes=classes, hidden_units=16)
                stream = StreamConfig(k, channels, conv_maps=3, lc_maps=3, dense_units=12)
                fine = build_unimodal(stream, fusion_cfg, seed=seed)
                train_classifier(fine, [pooled_x], pooled_y, cfg)
                train_classifier(fine, [x_tr], y_tr, cfg)
                preds, _ = predict(fine, [x_te])
                fine_accs.append(np.mean(preds == y_te))
                scratch = build_unimodal(stream, fusion_cfg, seed=seed)
                train_classifier(scratch, [x_tr], y_tr, cfg)
                preds, _ = predict(scratch, [x_te])
                scratch_accs.append(np.mean(preds == y_te))
            diffs.append(np.mean(fine_accs) - np.mean(scratch_accs))
        assert np.mean(diffs) >= -0.02, f"finetune vs scratch deltas {diffs}"


class TestPredict:
    def test_tie_breaks_toward_lowest_class(self):
        model = build_unimodal(slim_stream(), FusionConfig(classes=3, hidden_units=16), seed=0)
        # force uniform output by zeroing the final layer
        model.params["fusion.out.w"].data[:] = 0
        model.params["fusion.out.b"].data[:] = 0
        x = np.random.default_rng(1).standard_normal((4, 10, 4)).astype(np.float32)
        labels, probs = predict(model, [x])
        assert np.allclose(probs, 1.0 / 3, atol=1e-6)
        assert np.array_equal(labels, np.zeros(4, dtype=labels.dtype))

    def test_deterministic(self):
        model = build_unimodal(slim_stream(), FusionConfig(classes=4, hidden_units=16), seed=1)
        x = np.random.default_rng(2).standard_normal((8, 10, 4)).astype(np.float32)
        a = predict(model, [x])
        b = predict(model, [x])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_argmax_invariant_to_positive_scaling_of_logits(self):
        model = build_unimodal(slim_stream(), FusionConfig(classes=4, hidden_units=16), seed=2)
        x = np.random.default_rng(3).standard_normal((8, 10, 4)).astype(np.float32)
        labels, _ = predict(model, [x])
        model.params["fusion.out.w"].data *= 3.0
        model.params["fusion.out.b"].data *= 3.0
        scaled, _ = predict(model, [x])
        assert np.array_equal(labels, scaled)

    def test_default_chunks_match_one_batch(self, monkeypatch):
        # 640 windows are two and a half default chunks. A different GEMM
        # height may move the last float32 bit of a probability, never a label.
        model = build_multimodal(slim_stream(), slim_stream(channels=3),
                                 FusionConfig(classes=5, hidden_units=16), seed=4)
        rng = np.random.default_rng(6)
        arrays = [rng.standard_normal((640, 10, c)).astype(np.float32) for c in (4, 3)]
        labels, probs = predict(model, arrays)
        monkeypatch.setattr(vimu.fusion, "EVAL_BATCH", 640)
        whole_labels, whole_probs = predict(model, arrays)
        assert np.array_equal(labels, whole_labels)
        assert np.allclose(probs, whole_probs, rtol=0, atol=1e-6)


class TestBundleIO:
    def test_round_trip_predictions_match(self, tmp_path):
        x, y = separable_windows(n_per_class=4, classes=2, seed=8)
        model = build_unimodal(slim_stream(), FusionConfig(classes=2, hidden_units=16), seed=8)
        train_classifier(model, [x], y, ClfTrainConfig(batch_size=8, epochs=2, decay_epochs=(), seed=8))
        stats = {"semg": fit_stats(x.reshape(-1, 4))}
        save_classifier_bundle(tmp_path, model, stats, seed=8)
        loaded, loaded_stats, _ = load_classifier_bundle(tmp_path)
        a = predict(model, [x])
        b = predict(loaded, [x])
        assert np.array_equal(a[0], b[0])
        assert np.allclose(loaded_stats["semg"].mean, stats["semg"].mean)

    def test_two_stream_round_trip_is_bit_exact(self, tmp_path):
        x, y = separable_windows(n_per_class=4, classes=2, seed=9)
        motion = np.random.default_rng(9).standard_normal((len(x), 10, 3)).astype(np.float32)
        model = build_multimodal(slim_stream(), slim_stream(channels=3),
                                 FusionConfig(classes=2, hidden_units=16), seed=9)
        train_classifier(model, [x, motion], y,
                         ClfTrainConfig(batch_size=8, epochs=2, decay_epochs=(), seed=9))
        stats = {"semg": fit_stats(x), "imu": fit_stats(motion)}
        save_classifier_bundle(tmp_path, model, stats, seed=9)
        loaded, loaded_stats, _ = load_classifier_bundle(tmp_path)
        assert list(loaded.stream_cfgs) == ["semg", "imu"]
        a_labels, a_probs = predict(model, [x, motion])
        b_labels, b_probs = predict(loaded, [x, motion])
        assert np.array_equal(a_labels, b_labels)
        assert a_probs.tobytes() == b_probs.tobytes()
        assert loaded_stats["imu"].mean.tobytes() == stats["imu"].mean.tobytes()
