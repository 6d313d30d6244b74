"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
two training-based criteria (cross-modal fidelity, end-to-end ordering)
dominate the runtime; everything else is seconds.
"""
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vimu.data import PROFILES, SplitPlan, SynthConfig, make_split, manifest_for_profile, synth_generate
from vimu.errors import LeakageError
from vimu.fusion import stream_layers, StreamConfig
from vimu.gan import (
    DiscriminatorConfig,
    GanTrainConfig,
    GeneratorBundle,
    GeneratorConfig,
    build_discriminator,
    discriminator_forward,
    discriminator_layers,
    gan_value,
    generate_virtual,
    generator_layers,
    train_gan,
)
from vimu.nn import LayerSpec, SgdState, grad_check, init_stack_params, stack_output_shape
from vimu.nn.checkpoint import load_tensors, save_tensors
from vimu.nn.layers import backprop, layer_output_shape
from vimu.nn.losses import bce_loss
from vimu.nn.optim import AdamState, adam_step
from vimu.nn.tensor import Tensor, add


def _pass(name, detail=""):
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# shared fixtures

@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_ds")
    synth_generate(SynthConfig(seed=0), root)
    return root


# ---------------------------------------------------------------------------
# criterion: gradient correctness

def _random_configs(kind, rng):
    """Small random stacks ending in a scalar-friendly head for one kind."""
    batch = int(rng.integers(2, 5))
    if kind in ("conv2d", "locally_connected", "tconv2d", "batchnorm4d", "dropout"):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(3, 7))
        w = int(rng.integers(3, 7))
        in_shape = (c, h, w)
    else:
        in_shape = (int(rng.integers(2, 8)),)
    if kind == "conv2d":
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        layers = [LayerSpec("conv2d", "l", maps=int(rng.integers(1, 4)), kernel=(3, 3),
                            stride=stride, padding=(1, 1))]
    elif kind == "tconv2d":
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        outpad = (int(rng.integers(0, stride[0])), int(rng.integers(0, stride[1])))
        layers = [LayerSpec("tconv2d", "l", maps=int(rng.integers(1, 4)), kernel=(3, 3),
                            stride=stride, padding=(1, 1), output_padding=outpad)]
    elif kind == "locally_connected":
        k = int(rng.integers(1, 3))
        layers = [LayerSpec("locally_connected", "l", maps=int(rng.integers(1, 4)),
                            kernel=(k, k), stride=(1, 1))]
    elif kind == "dense":
        layers = [LayerSpec("dense", "l", units=int(rng.integers(1, 6)))]
    elif kind == "batchnorm4d":
        layers = [LayerSpec("batchnorm", "l")]
    elif kind == "batchnorm2d":
        layers = [LayerSpec("batchnorm", "l")]
    elif kind == "dropout":
        layers = [LayerSpec("dropout", "l", rate=float(rng.uniform(0.1, 0.6))),
                  LayerSpec("flatten", "f"), LayerSpec("dense", "d", units=3)]
    elif kind == "softmax":
        layers = [LayerSpec("dense", "d", units=int(rng.integers(2, 6))),
                  LayerSpec("softmax", "l")]
    elif kind in ("relu", "leaky_relu", "tanh", "sigmoid"):
        layers = [LayerSpec(kind, "l", slope=0.2)]
    elif kind == "flatten":
        layers = [LayerSpec("flatten", "l")]
    else:
        raise AssertionError(kind)
    return layers, in_shape, batch


LAYER_KINDS_TO_CHECK = (
    "conv2d", "tconv2d", "locally_connected", "dense", "batchnorm4d", "batchnorm2d",
    "dropout", "relu", "leaky_relu", "tanh", "sigmoid", "softmax", "flatten",
)


def test_gradient_correctness_sweep():
    start = time.time()
    rng = np.random.default_rng(2024)
    configs_per_kind = 20
    worst = 0.0
    for kind in LAYER_KINDS_TO_CHECK:
        for _ in range(configs_per_kind):
            layers, in_shape, batch = _random_configs(kind, rng)
            params = init_stack_params(layers, in_shape, seed=int(rng.integers(1 << 30)),
                                       dtype=np.float64)
            if params.total_parameters() > 500:
                continue
            x = rng.standard_normal((batch,) + tuple(in_shape))
            report = grad_check(layers, params, x, tolerance=1e-4)
            worst = max(worst, report.worst())
            assert report.passed, (kind, report.max_rel_error)
    # losses: binary cross-entropy and softmax cross-entropy
    from vimu.nn import finite_difference_check
    from vimu.nn import tensor as T
    from vimu.nn.losses import cross_entropy_loss

    for i in range(configs_per_kind):
        logits = Tensor(rng.standard_normal((int(rng.integers(2, 7)), 1)), requires_grad=True)
        target = (rng.random(logits.data.shape[0]) > 0.5).astype(float)[:, None]
        rep = finite_difference_check(lambda: bce_loss(T.sigmoid_act(logits), target),
                                      {"logits": logits})
        worst = max(worst, rep.worst())
        assert rep.passed
        logits2 = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=4)
        rep2 = finite_difference_check(
            lambda: cross_entropy_loss(T.softmax_rows(logits2), labels), {"logits": logits2}
        )
        worst = max(worst, rep2.worst())
        assert rep2.passed
    elapsed = time.time() - start
    assert elapsed < 120.0, f"gradient sweep took {elapsed:.0f}s"
    _pass("gradient correctness",
          f"{configs_per_kind} configs x {len(LAYER_KINDS_TO_CHECK)} kinds + losses, "
          f"worst rel err {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion: builder shape laws for every database geometry

TABLE_GEOMETRIES = {
    "femg_vpf": (8, 3),
    "ninapro_db2": (12, 36),
    "ninapro_db3": (12, 36),
    "ninapro_db5": (16, 3),
    "ninapro_db7": (12, 36),
    "siem": (8, 3),
}


def test_shape_laws_all_geometries():
    k = 20
    for name, (c1, c2) in TABLE_GEOMETRIES.items():
        gen_cfg = GeneratorConfig(k, c1, c2)
        shape = (1, k, c1)
        widths = []
        for spec in generator_layers(gen_cfg):
            shape = layer_output_shape(spec, shape)
            if spec.kind == "tconv2d":
                widths.append(shape)
        assert widths == [(32, k, 2 * c1), (16, k, 4 * c1), (1, k, 8 * c1)], name
        assert shape == (k * c2,), name

        disc_cfg = DiscriminatorConfig(k, c2)
        conv_shape = stack_output_shape(discriminator_layers(disc_cfg)[:1], (1, k, c2))
        assert conv_shape == (16, (k - 3) // 3 + 1, (c2 - 3) // 3 + 1), name
        head = stack_output_shape(discriminator_layers(disc_cfg), (1, k, c2))
        assert head == (1,), name

        for channels in (c1, c2):
            stream = StreamConfig(k, channels)
            body = stack_output_shape(stream_layers(stream)[:-3], (1, k, channels))
            assert body == (64, k, channels), (name, channels)
    _pass("shape laws", f"{len(TABLE_GEOMETRIES)} geometries, generator + discriminator + streams")


# ---------------------------------------------------------------------------
# criterion: adversarial objective sanity

def test_gan_objective_sanity():
    assert abs(gan_value([0.5], [0.5]) - (-2.0 * math.log(2.0))) < 1e-9

    rng = np.random.default_rng(7)
    k, c2, n = 10, 3, 32
    real = np.clip(0.6 + 0.1 * rng.standard_normal((n, k, c2)), -1, 1).astype(np.float32)
    fake = np.clip(-0.6 + 0.1 * rng.standard_normal((n, k, c2)), -1, 1).astype(np.float32)
    dcfg = DiscriminatorConfig(k, c2)
    disc = build_discriminator(dcfg, seed=2)
    adam = AdamState(learning_rate=2e-4)

    def outputs():
        mask_rng = np.random.default_rng(99)
        dr = discriminator_forward(dcfg, disc, real, mode="train", rng=mask_rng, update_stats=False)
        df = discriminator_forward(dcfg, disc, fake, mode="train", rng=mask_rng, update_stats=False)
        return dr, df

    values = []
    for _ in range(10):
        dr, df = outputs()
        values.append(gan_value(dr.data, df.data))
        loss = add(bce_loss(dr, np.ones_like(dr.data)), bce_loss(df, np.zeros_like(df.data)))
        backprop(loss, disc)
        adam_step(adam, disc)
    dr, df = outputs()
    values.append(gan_value(dr.data, df.data))
    assert all(b > a for a, b in zip(values, values[1:])), values
    _pass("adversarial objective sanity",
          f"value at D=1/2 exact; 10 critic steps monotone ({values[0]:.3f} -> {values[-1]:.3f})")


# ---------------------------------------------------------------------------
# criterion: signal chain identities

def test_signal_chain_identities():
    from vimu.sigproc import MultichannelSeries, butter_lowpass1, decimate, moving_average, moving_rms, segment

    start = time.time()
    const = MultichannelSeries(np.full((400, 3), 5.0), 200.0, "semg")
    assert np.allclose(moving_rms(const, 100.0).data, 5.0)
    assert np.allclose(moving_average(MultichannelSeries(np.full((400, 2), -1.25), 200.0, "acc"),
                                      100.0).data, -1.25)

    ones = MultichannelSeries(np.ones((4000, 1)), 200.0, "semg")
    assert abs(butter_lowpass1(ones, 1.0).data[-1, 0] - 1.0) < 1e-6

    dec = decimate(MultichannelSeries(np.zeros((2040, 4)), 2040.0, "semg"), 20)
    assert dec.frames == 102 and dec.sample_rate_hz == pytest.approx(102.0)

    wins = segment(MultichannelSeries(np.zeros((600, 2)), 1000.0, "semg"), 20.0, 1.0)
    assert len(wins) == 581
    elapsed = time.time() - start
    assert elapsed < 10.0
    _pass("signal chain identities", f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion: split fidelity vs the protocol tables

EXPECTED = {
    ("femg_vpf", "exp1"): (14, 14, (1, 2, 3, 4), (1, 3), (2, 4)),
    ("femg_vpf", "exp2"): (28, 28, (1, 3), (1, 3), (2, 4)),
    ("ninapro_db2", "exp1"): (20, 20, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
    ("ninapro_db2", "exp2"): (40, 40, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
    ("ninapro_db3", "exp1"): (3, 3, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
    ("ninapro_db3", "exp2"): (6, 6, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
    ("ninapro_db5", "exp1"): (5, 5, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
    ("ninapro_db5", "exp2"): (10, 10, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
    ("ninapro_db7", "exp1"): (10, 10, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
    ("ninapro_db7", "exp2"): (20, 20, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
    ("siem", "exp1"): (10, 10, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
    ("siem", "exp2"): (20, 20, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
}


def test_split_fidelity_and_leakage_guard():
    from vimu.pipeline import assert_no_leakage, validate_plan

    for (name, experiment), row in EXPECTED.items():
        profile = PROFILES[name]
        plan = make_split(manifest_for_profile(profile), experiment, profile)
        gan_n, rec_n, gan_trials, train, test = row
        assert len(plan.gan_subjects) == gan_n, (name, experiment)
        assert len(plan.recognition_subjects) == rec_n, (name, experiment)
        assert tuple(plan.gan_train_trials) == gan_trials, (name, experiment)
        assert tuple(plan.clf_train_trials) == train, (name, experiment)
        assert tuple(plan.clf_test_trials) == test, (name, experiment)
        assert not set(plan.clf_train_trials) & set(plan.clf_test_trials)

    corrupted = SplitPlan(gan_subjects=[1], recognition_subjects=[1],
                          gan_train_trials=[1], clf_train_trials=[1, 2], clf_test_trials=[2])
    with pytest.raises(LeakageError):
        validate_plan(corrupted)
    plan = make_split(manifest_for_profile(PROFILES["femg_vpf"]), "exp1", PROFILES["femg_vpf"])
    with pytest.raises(LeakageError):
        assert_no_leakage(plan, np.array([plan.recognition_subjects[0]]),
                          np.array([plan.clf_test_trials[0]]), "clf_train")
    _pass("split fidelity", "12 table rows; corrupted plan and leaking tags both rejected")


# ---------------------------------------------------------------------------
# criterion: persistence round trips

def test_persistence_round_trips(tmp_path):
    from vimu.data import TrialRecord, read_trial, write_trial
    from vimu.errors import FormatError
    from vimu.sigproc import MultichannelSeries

    rng = np.random.default_rng(0)
    rec = TrialRecord(
        semg=MultichannelSeries(rng.standard_normal((50, 4)), 200.0, "semg"),
        imu=MultichannelSeries(rng.standard_normal((50, 3)), 200.0, "acc"),
        gesture_id=1, subject_id=2, trial_id=3,
    )
    trial_path = tmp_path / "t.gst"
    write_trial(trial_path, rec)
    loaded = read_trial(trial_path, 200.0, 1, 2, 3)
    again = tmp_path / "t2.gst"
    write_trial(again, loaded)
    assert trial_path.read_bytes() == again.read_bytes()

    blob = bytearray(trial_path.read_bytes())
    blob[20] ^= 0x01
    (tmp_path / "bad.gst").write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_trial(tmp_path / "bad.gst", 200.0)
    (tmp_path / "trunc.gst").write_bytes(trial_path.read_bytes()[:-7])
    with pytest.raises(FormatError):
        read_trial(tmp_path / "trunc.gst", 200.0)

    tensors = {"a.w": rng.standard_normal((3, 4)).astype(np.float32),
               "a.b": np.zeros(4, dtype=np.float32)}
    ckpt = tmp_path / "m.ckpt"
    save_tensors(ckpt, tensors)
    ckpt2 = tmp_path / "m2.ckpt"
    save_tensors(ckpt2, load_tensors(ckpt))
    assert ckpt.read_bytes() == ckpt2.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(ckpt.read_bytes()[:-2])
    with pytest.raises(FormatError):
        load_tensors(tmp_path / "trunc.ckpt")
    _pass("persistence", "trial binary + checkpoint round trips bit-exact; CRC and truncation rejected")


# ---------------------------------------------------------------------------
# criterion: SGD schedule

def test_sgd_schedule_trace():
    sched = SgdState()
    trace = [sched.learning_rate(e) for e in range(28)]
    assert trace == [0.1] * 16 + [0.01] * 8 + [0.001] * 4
    _pass("SGD schedule", "16 x 0.1, 8 x 0.01, 4 x 0.001 exactly")


# ---------------------------------------------------------------------------
# criterion: determinism of the full CLI run

def test_cli_run_determinism(desk_dataset, tmp_path):
    cfg = {
        "dataset": str(desk_dataset),
        "out_dir": "PLACEHOLDER",
        "arms": ["unimodal", "virtual_multimodal"],
        "seed": 5,
        "preproc": {"window_ms": 200.0, "step_ms": 200.0, "decimation": 4,
                    "rms_ms": 100.0, "mavg_ms": 100.0, "butter_cutoff_hz": 1.0},
        "gan": {"epochs": 4, "batch_size": 16, "max_pairs": 64,
                "generator_maps": [4, 2, 1], "snapshot_every": 2},
        "classifier": {"batch_size": 32, "epochs": 2, "decay_epochs": [1], "seed": 5},
        "network": {"conv_maps": 2, "lc_maps": 2, "dense_units": 8, "fusion_hidden": 8,
                    "dropout": 0.5},
    }
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg["out_dir"] = str(out)
        cfg_path = tmp_path / f"cfg_{run}.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run([sys.executable, "-m", "vimu.cli", "run", "--config", str(cfg_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    compared = 0
    for rel in ("report.json", "gan/generator.ckpt", "gan/discriminator.ckpt",
                "classifiers/unimodal/subject_01/classifier.ckpt"):
        a = (outputs[0] / rel).read_bytes()
        b = (outputs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared += 1
    _pass("determinism", f"two `vimu run` invocations byte-identical across {compared} artifacts")


# ---------------------------------------------------------------------------
# criterion: cross-modal fidelity (one desk-scale training run)

def test_cross_modal_fidelity(desk_dataset):
    from vimu.data import Dataset, synthetic_profile
    from vimu.pipeline import extract_windows
    from vimu.sigproc import PreprocSpec, apply_norm, fit_stats

    start = time.time()
    ds = Dataset(desk_dataset)
    profile = synthetic_profile(ds.manifest)
    plan = make_split(ds.manifest, "exp2", profile)
    spec = PreprocSpec(window_ms=200.0, step_ms=100.0, decimation=4)
    table = extract_windows(ds, profile, spec)
    train_mask = np.isin(table.subjects, plan.gan_subjects) & np.isin(table.trials, plan.gan_train_trials)
    held_mask = np.isin(table.trials, plan.clf_test_trials)
    semg_stats = fit_stats(table.semg_gan[train_mask])
    imu_stats = fit_stats(table.imu[train_mask])
    semg_norm = apply_norm(table.semg_gan[train_mask], semg_stats, "zscore").astype(np.float32)
    imu_norm = apply_norm(table.imu[train_mask], imu_stats, "minmax_pm1").astype(np.float32)
    cohort = extract_windows(ds, profile, spec, subjects=plan.gan_subjects,
                             trials=plan.gan_train_trials)
    assert semg_norm.shape[0] == len(cohort), (semg_norm.shape[0], len(cohort))

    cfg = GanTrainConfig(epochs=600, batch_size=16, max_pairs=384, generator_maps=(8, 4, 1),
                         snapshot_every=5, seed=0)
    gen, _, history = train_gan(semg_norm, imu_norm, cfg)
    k, c1 = table.semg_gan.shape[1:]
    bundle = GeneratorBundle(
        GeneratorConfig(k, c1, table.imu.shape[2], tconv_maps=cfg.generator_maps),
        gen, semg_stats, imu_stats,
    )
    held_norm = apply_norm(table.semg_gan[held_mask], semg_stats, "zscore").astype(np.float32)
    virtual = generate_virtual(bundle, held_norm)
    real = table.imu[held_mask]
    corrs = [float(np.corrcoef(virtual[:, :, c].ravel(), real[:, :, c].ravel())[0, 1])
             for c in range(real.shape[2])]
    mean_corr = float(np.mean(corrs))
    elapsed = time.time() - start
    assert mean_corr > 0.5, f"held-out mean correlation {mean_corr:.3f} (per channel {corrs})"
    _pass("cross-modal fidelity",
          f"held-out mean corr {mean_corr:.3f} (cohort {len(cohort)} windows, chosen epoch "
          f"{history['selection']['chosen_epoch']}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion: end-to-end accuracy ordering over five seeds

def test_end_to_end_ordering(desk_dataset, tmp_path):
    from vimu.pipeline import desk_config, run_experiment

    start = time.time()
    means = {"unimodal": [], "virtual_multimodal": [], "real_multimodal": []}
    for seed in range(5):
        cfg = desk_config(str(desk_dataset), out_dir=str(tmp_path / f"s{seed}"), seed=seed)
        report = run_experiment(cfg)
        for arm in means:
            means[arm].append(report.arm_summary[arm]["mean"])
    elapsed = time.time() - start
    uni = float(np.mean(means["unimodal"]))
    virt = float(np.mean(means["virtual_multimodal"]))
    real = float(np.mean(means["real_multimodal"]))
    assert virt - uni >= 0.02, f"virtual {virt:.3f} vs unimodal {uni:.3f} over 5 seeds"
    assert real >= virt - 0.02, f"real {real:.3f} vs virtual {virt:.3f} over 5 seeds"
    assert elapsed < 600.0, f"end-to-end ordering took {elapsed:.0f}s"
    _pass("end-to-end ordering",
          f"unimodal {uni:.3f} < virtual {virt:.3f} (+{(virt-uni)*100:.1f} pts), "
          f"real {real:.3f}, {elapsed:.0f}s")
