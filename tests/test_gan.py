import json
import math
import zlib

import numpy as np
import pytest

import vimu.gan
from vimu.errors import ConfigError, DataError, FormatError, StatsMismatchError
from vimu.gan import (
    DiscriminatorConfig,
    GanTrainConfig,
    GeneratorBundle,
    GeneratorConfig,
    build_discriminator,
    build_generator,
    data_fingerprint,
    discriminator_forward,
    discriminator_layers,
    gan_value,
    generate_virtual,
    generator_forward,
    generator_layers,
    load_discriminator,
    load_generator_bundle,
    save_generator_bundle,
    train_gan,
)
from vimu.nn import backprop, stack_output_shape
from vimu.nn.layers import ParamSet
from vimu.nn.losses import bce_loss
from vimu.nn.optim import AdamState, adam_step
from vimu.nn.tensor import Tensor, add
from vimu.sigproc import fit_stats


def params_checksum(params: ParamSet) -> int:
    crc = 0
    for name, p in params.trainable():
        crc = zlib.crc32(p.data.tobytes(), crc)
    return crc


def state_checksum(params: ParamSet) -> int:
    crc = 0
    for name, arr in params.state_dict().items():
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc


def make_pairs(n=96, k=10, c1=4, c2=3, seed=0):
    rng = np.random.default_rng(seed)
    env = rng.random((n, k, 1))
    patterns = rng.random((1, 1, c1))
    semg = (env * patterns + 0.05 * rng.standard_normal((n, k, c1))).astype(np.float32)
    mix = rng.standard_normal((c1, c2)) / np.sqrt(c1)
    imu = np.tanh(semg @ mix).astype(np.float32)
    return semg, imu


# Table I geometries: (semg_channels, imu_channels) with k = 20 everywhere.
TABLE_GEOMETRIES = {
    "femg_vpf": (8, 3),
    "ninapro_db2": (12, 36),
    "ninapro_db3": (12, 36),
    "ninapro_db5": (16, 3),
    "ninapro_db7": (12, 36),
    "siem": (8, 3),
}


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(TABLE_GEOMETRIES))
    def test_generator_shapes_for_all_geometries(self, name):
        c1, c2 = TABLE_GEOMETRIES[name]
        cfg = GeneratorConfig(20, c1, c2)
        shape = (1, 20, c1)
        widths = []
        from vimu.nn.layers import layer_output_shape

        for spec in generator_layers(cfg):
            shape = layer_output_shape(spec, shape)
            if spec.kind == "tconv2d":
                widths.append(shape)
        assert widths == [(32, 20, 2 * c1), (16, 20, 4 * c1), (1, 20, 8 * c1)]
        assert shape == (20 * c2,)

    def test_db2_dense_parameter_count(self):
        cfg = GeneratorConfig(20, 12, 36)
        params = build_generator(cfg, seed=0)
        flat = 20 * 12 * 8
        assert params["head.w"].data.shape == (flat, 720)
        dense_total = params["head.w"].data.size + params["head.b"].data.size
        assert dense_total == flat * 720 + 720

    def test_femg_dense_output(self):
        cfg = GeneratorConfig(20, 8, 3)
        assert cfg.dense_units == 60

    @pytest.mark.parametrize("name", sorted(TABLE_GEOMETRIES))
    def test_discriminator_shapes_for_all_geometries(self, name):
        _, c2 = TABLE_GEOMETRIES[name]
        cfg = DiscriminatorConfig(20, c2)
        expect_h = (20 - 3) // 3 + 1
        expect_w = (c2 - 3) // 3 + 1
        shape = stack_output_shape(discriminator_layers(cfg)[:1], (1, 20, c2))
        assert shape == (16, expect_h, expect_w)

    def test_db2_discriminator_flatten(self):
        cfg = DiscriminatorConfig(20, 36)
        shape = stack_output_shape(discriminator_layers(cfg)[:5], (1, 20, 36))
        assert shape == (16 * 6 * 12,)

    def test_geometry_too_small_rejected(self):
        with pytest.raises(ConfigError):
            DiscriminatorConfig(2, 3)

    def test_discriminator_output_in_unit_interval(self):
        cfg = DiscriminatorConfig(10, 3)
        params = build_discriminator(cfg, seed=0)
        x = 100.0 * np.random.default_rng(0).standard_normal((5, 1, 10, 3)).astype(np.float32)
        out = discriminator_forward(cfg, params, x, mode="eval")
        assert np.all(out.data > 0) and np.all(out.data < 1)


class TestGanValue:
    def test_at_one_half(self):
        assert gan_value([0.5, 0.5], [0.5]) == pytest.approx(-2.0 * math.log(2.0), abs=1e-9)

    def test_limit_toward_zero(self):
        prev = gan_value([1 - 1e-3], [1e-3])
        for eps in (1e-4, 1e-5, 1e-6):
            val = gan_value([1 - eps], [eps])
            assert prev < val < 0
            prev = val

    def test_direct_arithmetic(self):
        expected = (math.log(0.9) + math.log(0.8)) / 2 + math.log(1 - 0.1)
        assert gan_value([0.9, 0.8], [0.1]) == pytest.approx(expected, rel=1e-12)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(0)
        dr, df = rng.random(32), rng.random(16)
        assert gan_value(dr, df) == pytest.approx(gan_value(dr[::-1], df[::-1]), rel=1e-12)


class TestTraining:
    def test_zero_epochs_returns_initialized_params(self):
        semg, imu = make_pairs()
        cfg = GanTrainConfig(epochs=0, batch_size=8, generator_maps=(4, 2, 1), seed=5)
        gen, disc, history = train_gan(semg, imu, cfg)
        # same spawn path as train_gan uses internally
        root = np.random.SeedSequence(5)
        s_gen, s_disc, _, _ = root.spawn(4)
        fresh = build_generator(GeneratorConfig(10, 4, 3, tconv_maps=(4, 2, 1)),
                                int(s_gen.generate_state(1, dtype=np.uint64)[0]))
        assert state_checksum(gen) == state_checksum(fresh)
        assert history["d_loss"] == []

    def test_seeded_run_reproducible(self):
        semg, imu = make_pairs()
        cfg = GanTrainConfig(epochs=2, batch_size=16, generator_maps=(4, 2, 1), seed=3)
        a = train_gan(semg, imu, cfg)
        b = train_gan(semg, imu, cfg)
        assert state_checksum(a[0]) == state_checksum(b[0])
        assert state_checksum(a[1]) == state_checksum(b[1])
        assert a[2] == b[2]

    def test_insufficient_pairs_rejected(self):
        semg, imu = make_pairs(n=8)
        with pytest.raises(DataError, match="batch"):
            train_gan(semg, imu, GanTrainConfig(epochs=1, batch_size=64))

    def test_history_keys_and_length(self):
        semg, imu = make_pairs()
        cfg = GanTrainConfig(epochs=3, batch_size=32, generator_maps=(4, 2, 1), seed=0)
        _, _, history = train_gan(semg, imu, cfg)
        for key in ("d_loss", "g_loss", "d_real", "d_fake"):
            assert len(history[key]) == 3

    def test_discriminator_step_leaves_generator_untouched(self):
        # one full batch iteration moves both nets, but the cross-checksums
        # are taken around each step individually
        semg, imu = make_pairs(n=32)
        cfg = GeneratorConfig(10, 4, 3, tconv_maps=(4, 2, 1))
        dcfg = DiscriminatorConfig(10, 3)
        gen = build_generator(cfg, seed=0)
        disc = build_discriminator(dcfg, seed=1)
        adam_d = AdamState()
        rng = np.random.default_rng(0)
        gen_before = state_checksum(gen)
        from vimu.nn.tensor import no_grad

        with no_grad():
            fake = generator_forward(cfg, gen, semg[:16], mode="train", update_stats=False).data
        d_real = discriminator_forward(dcfg, disc, imu[:16][:, None], mode="train", rng=rng)
        d_fake = discriminator_forward(dcfg, disc, Tensor(fake), mode="train", rng=rng)
        loss = add(bce_loss(d_real, np.ones_like(d_real.data)),
                   bce_loss(d_fake, np.zeros_like(d_fake.data)))
        backprop(loss, disc)
        adam_step(adam_d, disc)
        assert state_checksum(gen) == gen_before

    def test_generator_step_leaves_discriminator_untouched(self):
        semg, imu = make_pairs(n=32)
        cfg = GeneratorConfig(10, 4, 3, tconv_maps=(4, 2, 1))
        dcfg = DiscriminatorConfig(10, 3)
        gen = build_generator(cfg, seed=0)
        disc = build_discriminator(dcfg, seed=1)
        adam_g = AdamState()
        rng = np.random.default_rng(0)
        disc_before = state_checksum(disc)
        fake = generator_forward(cfg, gen, semg[:16], mode="train")
        d_on_fake = discriminator_forward(dcfg, disc, fake, mode="train", rng=rng,
                                          update_stats=False)
        loss = bce_loss(d_on_fake, np.ones_like(d_on_fake.data))
        backprop(loss, gen)
        adam_step(adam_g, gen)
        assert state_checksum(disc) == disc_before

    def test_discriminator_improves_on_separable_batches(self):
        # frozen generator output vs real windows, fixed dropout masks:
        # ten optimization steps monotonically raise the adversarial value
        rng = np.random.default_rng(7)
        k, c2, n = 10, 3, 32
        real = np.clip(0.6 + 0.1 * rng.standard_normal((n, k, c2)), -1, 1).astype(np.float32)
        fake = np.clip(-0.6 + 0.1 * rng.standard_normal((n, k, c2)), -1, 1).astype(np.float32)
        dcfg = DiscriminatorConfig(k, c2)
        disc = build_discriminator(dcfg, seed=2)
        adam = AdamState(learning_rate=2e-4)

        def value():
            mask_rng = np.random.default_rng(99)
            dr = discriminator_forward(dcfg, disc, real, mode="train", rng=mask_rng,
                                       update_stats=False)
            df = discriminator_forward(dcfg, disc, fake, mode="train", rng=mask_rng,
                                       update_stats=False)
            return dr, df

        values = []
        for _ in range(10):
            dr, df = value()
            values.append(gan_value(dr.data, df.data))
            loss = add(bce_loss(dr, np.ones_like(dr.data)),
                       bce_loss(df, np.zeros_like(df.data)))
            backprop(loss, disc)
            adam_step(adam, disc)
        dr, df = value()
        values.append(gan_value(dr.data, df.data))
        assert all(b > a for a, b in zip(values, values[1:])), values

    def test_trained_critic_judges_pairs(self):
        # The critic train_gan returns sees the muscle window: its verdict on
        # a batch changes when the muscle windows are permuted against their
        # motion windows. It also changes non-additively: a critic whose logit
        # is a sum of per-window terms would give a zero interaction below.
        # float64 keeps rounding far under the thresholds.
        semg, imu = make_pairs(n=64)
        cfg = GanTrainConfig(epochs=2, batch_size=16, generator_maps=(4, 2, 1), seed=0)
        _, disc, history = train_gan(semg, imu, cfg)
        dcfg = DiscriminatorConfig.from_dict(history["discriminator"])
        assert dcfg.semg_channels == 4
        disc = disc.astype(np.float64)

        def logits(muscle):
            p = discriminator_forward(dcfg, disc, imu.astype(np.float64), mode="eval",
                                      semg_windows=muscle.astype(np.float64)).data[:, 0]
            return np.log(p) - np.log1p(-p)

        paired = logits(semg)
        shuffled = logits(semg[np.random.default_rng(0).permutation(len(semg))])
        assert np.abs(paired - shuffled).max() > 1e-6
        swapped = logits(semg[::-1])  # row i judged beside muscle window n-1-i
        interaction = paired + paired[::-1] - swapped - swapped[::-1]
        assert np.abs(interaction).max() > 1e-6

    def test_critic_inputs_checked(self):
        semg, imu = make_pairs(n=32)
        pair_cfg = DiscriminatorConfig(10, 3, semg_channels=4)
        motion_cfg = DiscriminatorConfig(10, 3)
        pair = build_discriminator(pair_cfg, seed=0)
        out = discriminator_forward(pair_cfg, pair, imu, mode="eval", semg_windows=semg)
        assert out.data.shape == (32, 1)
        with pytest.raises(DataError):
            discriminator_forward(pair_cfg, pair, imu, mode="eval")
        with pytest.raises(DataError):
            discriminator_forward(pair_cfg, pair, imu, mode="eval", semg_windows=semg[:16])
        with pytest.raises(ConfigError):
            discriminator_forward(motion_cfg, build_discriminator(motion_cfg, seed=0), imu,
                                  mode="eval", semg_windows=semg)

    def test_divergent_loss_raises_with_epoch(self):
        semg, imu = make_pairs()
        cfg = GanTrainConfig(epochs=2, batch_size=32, learning_rate=1e30,
                             generator_maps=(4, 2, 1), seed=0)
        from vimu.errors import DivergenceError

        old = np.seterr(all="ignore")
        try:
            with pytest.raises(DivergenceError, match="epoch"):
                train_gan(semg, imu, cfg)
        finally:
            np.seterr(**old)


class TestGenerateVirtual:
    def _bundle(self, seed=0):
        semg, imu = make_pairs(n=64)
        cfg = GeneratorConfig(10, 4, 3, tconv_maps=(4, 2, 1))
        gen = build_generator(cfg, seed=seed)
        semg_stats = fit_stats(semg.reshape(-1, 4))
        imu_stats = fit_stats(imu.reshape(-1, 3))
        return GeneratorBundle(cfg, gen, semg_stats, imu_stats), semg, imu

    def test_output_shape_law(self):
        bundle, semg, _ = self._bundle()
        for n in (1, 5, 64):
            out = generate_virtual(bundle, semg[:n])
            assert out.shape == (n, 10, 3)
            assert np.all(np.isfinite(out))

    def test_tanh_range_before_denormalization(self):
        bundle, semg, _ = self._bundle()
        from vimu.nn.tensor import no_grad

        with no_grad():
            raw = generator_forward(bundle.cfg, bundle.params, semg[:8], mode="eval")
        assert np.all(raw.data >= -1.0) and np.all(raw.data <= 1.0)

    def test_deterministic(self):
        bundle, semg, _ = self._bundle()
        a = generate_virtual(bundle, semg[:16])
        b = generate_virtual(bundle, semg[:16])
        assert np.array_equal(a, b)

    def test_db2_geometry_window_shapes(self):
        cfg = GeneratorConfig(20, 12, 36, tconv_maps=(4, 2, 1))
        gen = build_generator(cfg, seed=0)
        rng = np.random.default_rng(0)
        stats12 = fit_stats(rng.standard_normal((100, 12)))
        stats36 = fit_stats(rng.standard_normal((100, 36)))
        bundle = GeneratorBundle(cfg, gen, stats12, stats36)
        out = generate_virtual(bundle, rng.standard_normal((3, 20, 12)).astype(np.float32))
        assert out.shape == (3, 20, 36)

    def test_wrong_geometry_rejected(self):
        bundle, semg, _ = self._bundle()
        with pytest.raises(StatsMismatchError):
            generate_virtual(bundle, np.zeros((2, 10, 5), dtype=np.float32))

    def test_default_chunks_equal_one_batch(self, monkeypatch):
        # 640 windows are two and a half default chunks; eval mode keeps no
        # batch statistics, so the chunking moves no output bit.
        bundle, _, _ = self._bundle()
        semg = np.random.default_rng(5).standard_normal((640, 10, 4)).astype(np.float32)
        chunked = generate_virtual(bundle, semg)
        monkeypatch.setattr(vimu.gan, "EVAL_BATCH", len(semg))
        whole = generate_virtual(bundle, semg)
        assert chunked.tobytes() == whole.tobytes()


class TestBundleIO:
    def test_round_trip(self, tmp_path):
        semg, imu = make_pairs(n=64)
        cfg = GanTrainConfig(epochs=1, batch_size=32, generator_maps=(4, 2, 1), seed=0)
        gen, disc, history = train_gan(semg, imu, cfg)
        bundle = GeneratorBundle(
            GeneratorConfig(10, 4, 3, tconv_maps=(4, 2, 1)), gen,
            fit_stats(semg.reshape(-1, 4)), fit_stats(imu.reshape(-1, 3)),
            seed=0, data_fingerprint=data_fingerprint(semg, imu),
        )
        dcfg = DiscriminatorConfig.from_dict(history["discriminator"])
        save_generator_bundle(tmp_path, bundle, disc, dcfg)
        loaded = load_generator_bundle(tmp_path)
        assert loaded.data_fingerprint == bundle.data_fingerprint
        a = generate_virtual(bundle, semg[:4])
        b = generate_virtual(loaded, semg[:4])
        assert np.allclose(a, b, atol=1e-6)

        # the recorded critic config rebuilds the critic the checkpoint holds
        saved_cfg, critic = load_discriminator(tmp_path)
        assert saved_cfg == dcfg
        assert state_checksum(critic) == state_checksum(disc)
        d_a = discriminator_forward(dcfg, disc, imu[:8], mode="eval", semg_windows=semg[:8])
        d_b = discriminator_forward(saved_cfg, critic, imu[:8], mode="eval", semg_windows=semg[:8])
        assert np.array_equal(d_a.data, d_b.data)

    def test_sidecar_without_critic_record_is_format_error(self, tmp_path):
        semg, imu = make_pairs(n=32)
        gen, disc, history = train_gan(semg, imu, GanTrainConfig(epochs=0, batch_size=16, generator_maps=(4, 2, 1)))
        bundle = GeneratorBundle(GeneratorConfig(10, 4, 3, tconv_maps=(4, 2, 1)), gen,
                                 fit_stats(semg.reshape(-1, 4)), fit_stats(imu.reshape(-1, 3)))
        save_generator_bundle(tmp_path, bundle, disc, DiscriminatorConfig.from_dict(history["discriminator"]))
        # a sidecar written before the critic's config was recorded lacks the key
        sidecar = tmp_path / "generator.json"
        meta = json.loads(sidecar.read_text())
        del meta["discriminator"]
        sidecar.write_text(json.dumps(meta))
        assert load_generator_bundle(tmp_path).data_fingerprint == bundle.data_fingerprint
        with pytest.raises(FormatError, match="discriminator"):
            load_discriminator(tmp_path)
