"""Adversarial generator: muscle windows in, virtual motion windows out.

The generator upsamples the channel axis with three transposed convolutions
(stride (1, 2) doubles the width per layer, the time axis stays put) and a
tanh dense head sized to the target window. The discriminator is a pair
critic: a single strided convolution over the motion window, whose features
join the flattened muscle window and pass a small dense head, so it judges
(muscle, motion) pairs. Training alternates one discriminator step and one
generator step per batch; the generator loss is purely adversarial.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import DictCodec, read_json, write_json
from .errors import ConfigError, DataError, DivergenceError, FormatError, StatsMismatchError
from .nn import checkpoint
from .nn.layers import (
    EVAL_BATCH,
    LayerSpec,
    ParamSet,
    backprop,
    init_stack_params,
    run_stack,
    seed_of,
    stack_output_shape,
)
from .nn.losses import CLAMP_EPS, bce_loss
from .nn.optim import AdamState, adam_step
from .nn.tensor import Tensor, add, concat, no_grad, reshape
from .sigproc import ChannelStats, apply_norm, invert_norm


@dataclass(frozen=True)
class GeneratorConfig(DictCodec):
    """Geometry of the window-to-window generator.

    ``tconv_maps`` defaults to the full-scale stack (32, 16, 1); smaller
    desk-scale runs may narrow the first two stages, the final stage is
    always a single map. The dense head always has
    ``window_frames * imu_channels`` units.
    """

    window_frames: int
    semg_channels: int
    imu_channels: int
    tconv_maps: tuple[int, ...] = (32, 16, 1)

    def __post_init__(self):
        # a tuple keeps the config hashable, so its layer list is built once
        object.__setattr__(self, "tconv_maps", tuple(self.tconv_maps))
        if min(self.window_frames, self.semg_channels, self.imu_channels) < 1:
            raise ConfigError("generator geometry fields must be >= 1")
        if len(self.tconv_maps) != 3 or self.tconv_maps[-1] != 1 or min(self.tconv_maps) < 1:
            raise ConfigError("tconv_maps must be three positive widths ending in 1")

    @property
    def dense_units(self) -> int:
        return self.window_frames * self.imu_channels


@functools.cache
def generator_layers(cfg: GeneratorConfig) -> tuple:
    layers = []
    for i, maps in enumerate(cfg.tconv_maps, start=1):
        layers.append(
            LayerSpec(
                "tconv2d", f"up{i}", maps=maps, kernel=(3, 3), stride=(1, 2),
                padding=(1, 1), output_padding=(0, 1),
            )
        )
        layers.append(LayerSpec("batchnorm", f"bn{i}"))
        layers.append(LayerSpec("relu", f"relu{i}"))
    layers.append(LayerSpec("flatten", "flatten"))
    layers.append(LayerSpec("dense", "head", units=cfg.dense_units))
    layers.append(LayerSpec("tanh", "out"))
    return tuple(layers)


def build_generator(cfg: GeneratorConfig, seed: int) -> ParamSet:
    """Initialize generator parameters (weights ~ N(0, 0.02))."""
    return init_stack_params(
        generator_layers(cfg), (1, cfg.window_frames, cfg.semg_channels),
        seed=seed, scheme="normal002",
    )


PAIR_HIDDEN_UNITS = 32


@dataclass(frozen=True)
class DiscriminatorConfig(DictCodec):
    """Geometry of the critic that judges (muscle, motion) pairs.

    The motion window passes one 3x3 stride-3 valid convolution (batchnorm,
    leaky ReLU, dropout, flatten); the features join the flattened muscle
    window of ``semg_channels`` channels and pass a dense layer of
    ``PAIR_HIDDEN_UNITS``, leaky ReLU and a sigmoid unit. The hidden layer
    matters: a linear head on the joined vector scores each window
    separately (the logit is a sum of per-window terms), so it cannot tell
    a matched pair from a mismatched one.

    ``semg_channels`` defaults to 0 only so that the config perfbench's
    ``_train_generator`` saves as a record still constructs; building a
    critic from it raises ``ConfigError``. The default goes once perfbench
    saves the config ``train_gan`` records instead.
    """

    window_frames: int
    imu_channels: int
    conv_maps: int = 16
    dropout: float = 0.2
    leaky_slope: float = 0.2
    semg_channels: int = 0

    def __post_init__(self):
        if (self.window_frames - 3) // 3 + 1 < 1 or (self.imu_channels - 3) // 3 + 1 < 1:
            raise ConfigError(
                f"window {self.window_frames}x{self.imu_channels} too small for a "
                "3x3 stride-3 valid convolution"
            )


@functools.cache
def _critic_body(cfg: DiscriminatorConfig) -> tuple:
    return (
        LayerSpec("conv2d", "conv", maps=cfg.conv_maps, kernel=(3, 3), stride=(3, 3), padding=(0, 0)),
        LayerSpec("batchnorm", "bn"),
        LayerSpec("leaky_relu", "lrelu", slope=cfg.leaky_slope),
        LayerSpec("dropout", "drop", rate=cfg.dropout),
        LayerSpec("flatten", "flatten"),
    )


@functools.cache
def _critic_head(cfg: DiscriminatorConfig) -> tuple:
    return (
        LayerSpec("dense", "hidden", units=PAIR_HIDDEN_UNITS),
        LayerSpec("leaky_relu", "hidden_lrelu", slope=cfg.leaky_slope),
        LayerSpec("dense", "head", units=1),
        LayerSpec("sigmoid", "out"),
    )


def build_discriminator(cfg: DiscriminatorConfig, seed: int) -> ParamSet:
    """Initialize critic parameters (weights ~ N(0, 0.02)).

    The head, whose input is the motion features plus the flattened muscle
    window, draws from a second seed derived from ``seed``.
    """
    if cfg.semg_channels < 1:
        raise ConfigError("the critic judges (muscle, motion) pairs: semg_channels must be >= 1")
    in_shape = (1, cfg.window_frames, cfg.imu_channels)
    body = _critic_body(cfg)
    params = init_stack_params(body, in_shape, seed=seed, scheme="normal002")
    width = stack_output_shape(body, in_shape)[0] + cfg.window_frames * cfg.semg_channels
    init_stack_params(_critic_head(cfg), (width,), seed=seed_of(np.random.SeedSequence(seed)),
                      scheme="normal002", prefix="pair.", into=params)
    return params


def generator_forward(cfg: GeneratorConfig, params: ParamSet, windows, mode: str,
                      update_stats: bool = True) -> Tensor:
    """(n, k, c1) or (n, 1, k, c1) windows -> (n, 1, k, c2) tensor in [-1, 1]."""
    x = np.asarray(windows)
    if x.ndim == 3:
        x = x[:, None, :, :]
    if x.shape[2:] != (cfg.window_frames, cfg.semg_channels):
        raise DataError(f"generator expects k x c1 = {cfg.window_frames} x {cfg.semg_channels} windows")
    out = run_stack(generator_layers(cfg), params, x, mode=mode, update_stats=update_stats)
    return reshape(out, (x.shape[0], 1, cfg.window_frames, cfg.imu_channels))


def discriminator_forward(cfg: DiscriminatorConfig, params: ParamSet, windows, mode: str,
                          rng=None, update_stats: bool = True, semg_windows=None) -> Tensor:
    """(n, k, c2) or (n, 1, k, c2) motion windows -> (n, 1) probabilities.

    ``semg_windows`` are the muscle windows paired row by row with
    ``windows``, as (n, k, c1) or (n, 1, k, c1); the critic needs them.
    """
    x = windows if isinstance(windows, Tensor) else Tensor(np.asarray(windows))
    if x.data.ndim == 3:
        x = reshape(x, (x.data.shape[0], 1, x.data.shape[1], x.data.shape[2]))
    if semg_windows is None:
        raise DataError("the critic needs the muscle windows paired with the motion windows")
    n = x.data.shape[0]
    cond = np.asarray(semg_windows, dtype=x.data.dtype)
    if cond.shape[0] != n or cond.shape[-2:] != (cfg.window_frames, cfg.semg_channels):
        raise DataError(
            f"the critic expects {n} muscle windows of {cfg.window_frames} x {cfg.semg_channels}"
        )
    feats = run_stack(_critic_body(cfg), params, x, mode=mode, rng=rng, update_stats=update_stats)
    joined = concat([feats, Tensor(cond.reshape(n, -1))], axis=1)
    return run_stack(_critic_head(cfg), params, joined, mode=mode, rng=rng,
                     update_stats=update_stats, prefix="pair.")


def gan_value(d_real, d_fake) -> float:
    """Mean log D(real) + mean log(1 - D(fake)), probabilities clamped."""
    dr = np.clip(np.asarray(d_real, dtype=np.float64), CLAMP_EPS, 1.0 - CLAMP_EPS)
    df = np.clip(np.asarray(d_fake, dtype=np.float64), CLAMP_EPS, 1.0 - CLAMP_EPS)
    return float(np.mean(np.log(dr)) + np.mean(np.log1p(-df)))


@dataclass
class GanTrainConfig(DictCodec):
    """Adversarial training hyperparameters.

    ``max_pairs`` optionally subsamples the training pairs (desk-scale runs);
    the full-scale default uses every pair for 10000 epochs.

    The critic judges (muscle, motion) pairs (see ``DiscriminatorConfig``),
    so the adversarial objective constrains the pairing of generated and
    muscle windows, not only the distribution of generated windows; a
    motion-only critic leaves the map free up to any rearrangement that
    preserves that distribution, and training drifts through misaligned
    maps. ``discriminator_maps`` and ``dropout`` size the critic's body.

    ``snapshot_every`` enables generator iterate selection: the loop keeps a
    snapshot every N epochs and returns the one whose outputs best correlate
    with the paired training targets (never test data). Off by default,
    matching plain final-iterate training.
    """

    epochs: int = 10000
    batch_size: int = 64
    learning_rate: float = 2e-4
    dropout: float = 0.2
    seed: int = 0
    max_pairs: int | None = None
    generator_maps: tuple[int, ...] = (32, 16, 1)
    discriminator_maps: int = 16
    snapshot_every: int | None = None

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (batchnorm needs batch statistics)")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1 when set")


def train_gan(semg_windows, imu_windows, cfg: GanTrainConfig):
    """Alternating adversarial training on normalized window pairs.

    Inputs must already be normalized (muscle windows z-scored, motion
    windows in [-1, 1]). The critic is a pair critic: it sees each motion
    window, real or generated, beside the muscle window of its pair. Per
    batch it maximizes the adversarial value via cross-entropy on real
    (label 1) and generated (label 0) pairs, then the generator takes one
    step on the non-saturating loss -mean log D(fake). A step of one
    network never touches the other's parameters or running statistics.
    Both geometries follow from the window pairs and ``cfg``. Returns (generator
    params, discriminator params, history); ``history["discriminator"]``
    records the critic's config, which rebuilds the returned critic.
    """
    semg = np.asarray(semg_windows, dtype=np.float32)
    imu = np.asarray(imu_windows, dtype=np.float32)
    if semg.ndim != 3 or imu.ndim != 3 or semg.shape[0] != imu.shape[0] or semg.shape[1] != imu.shape[1]:
        raise DataError("paired windows must share (count, frames) and be (n, k, C) arrays")
    n, k, c1 = semg.shape
    c2 = imu.shape[2]
    gen_cfg = GeneratorConfig(k, c1, c2, tconv_maps=cfg.generator_maps)
    disc_cfg = DiscriminatorConfig(k, c2, conv_maps=cfg.discriminator_maps,
                                   dropout=cfg.dropout, semg_channels=c1)

    root = np.random.SeedSequence(cfg.seed)
    s_gen, s_disc, s_shuffle, s_dropout = root.spawn(4)
    gen = build_generator(gen_cfg, seed_of(s_gen))
    disc = build_discriminator(disc_cfg, seed_of(s_disc))
    shuffle_rng = np.random.default_rng(s_shuffle)
    dropout_rng = np.random.default_rng(s_dropout)

    if cfg.max_pairs is not None and n > cfg.max_pairs:
        keep = shuffle_rng.choice(n, size=cfg.max_pairs, replace=False)
        semg, imu = semg[keep], imu[keep]
        n = cfg.max_pairs
    if n < cfg.batch_size:
        raise DataError(f"{n} training pairs but batch size {cfg.batch_size}")

    adam_g = AdamState(cfg.learning_rate)
    adam_d = AdamState(cfg.learning_rate)
    history = {"d_loss": [], "g_loss": [], "d_real": [], "d_fake": [], "value": [],
               "discriminator": disc_cfg.to_dict()}
    snapshots = []

    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(5)
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            real = imu[idx][:, None, :, :]
            cond = semg[idx][:, None, :, :]

            # One generator forward serves both steps: the critic step never
            # touches the generator, so its parameters are the same for both.
            fake = generator_forward(gen_cfg, gen, cond, mode="train", update_stats=True)

            # Discriminator step on real (1) and detached generated (0) pairs.
            d_real = discriminator_forward(disc_cfg, disc, real, mode="train",
                                           rng=dropout_rng, update_stats=True, semg_windows=cond)
            d_fake = discriminator_forward(disc_cfg, disc, Tensor(fake.data), mode="train",
                                           rng=dropout_rng, update_stats=True, semg_windows=cond)
            d_loss = add(bce_loss(d_real, np.ones_like(d_real.data)),
                         bce_loss(d_fake, np.zeros_like(d_fake.data)))
            backprop(d_loss, disc)
            adam_step(adam_d, disc)

            # Generator step through a fresh discriminator pass. The frozen
            # critic passes gradients on to the generator without computing
            # its own, which this step would not use.
            with disc.frozen():
                d_on_fake = discriminator_forward(disc_cfg, disc, fake, mode="train",
                                                  rng=dropout_rng, update_stats=False,
                                                  semg_windows=cond)
                g_loss = bce_loss(d_on_fake, np.ones_like(d_on_fake.data))
                backprop(g_loss, gen)
            adam_step(adam_g, gen)

            sums += (
                float(d_loss.data),
                float(g_loss.data),
                float(d_real.data.mean()),
                float(d_fake.data.mean()),
                gan_value(d_real.data, d_fake.data),
            )
            batches += 1
        if batches == 0:
            raise DataError("no usable batches (need at least 2 pairs per batch)")
        means = sums / batches
        if not np.all(np.isfinite(means)):
            raise DivergenceError(f"non-finite adversarial loss at epoch {epoch}")
        for key, value in zip(("d_loss", "g_loss", "d_real", "d_fake", "value"), means):
            history[key].append(float(value))
        done = epoch + 1
        if cfg.snapshot_every is not None and (done % cfg.snapshot_every == 0 or done == cfg.epochs):
            snapshots.append((done, {k: v.copy() for k, v in gen.state_dict().items()}))

    if snapshots:
        chosen, log = _select_generator_iterate(gen_cfg, gen, snapshots, semg, imu)
        gen.load_state_dict(chosen)
        history["selection"] = log
    return gen, disc, history


def _eval_outputs(cfg: GeneratorConfig, params: ParamSet, windows):
    """Eval-mode generator outputs, (n, k, c2), for (n, k, c1) windows, ``EVAL_BATCH`` at a time."""
    outs = []
    with no_grad():
        for start in range(0, windows.shape[0], EVAL_BATCH):
            out = generator_forward(cfg, params, windows[start : start + EVAL_BATCH], mode="eval")
            outs.append(out.data[:, 0])
    return np.concatenate(outs, axis=0)


def _training_pair_correlation(gen_cfg, params, semg, imu) -> float:
    """Mean per-channel correlation of eval-mode outputs vs paired targets."""
    virt = _eval_outputs(gen_cfg, params, semg)
    corrs = []
    for c in range(imu.shape[2]):
        a = virt[:, :, c].ravel().astype(np.float64)
        b = imu[:, :, c].ravel().astype(np.float64)
        if a.std() == 0 or b.std() == 0:
            corrs.append(0.0)
        else:
            corrs.append(float(np.corrcoef(a, b)[0, 1]))
    return float(np.mean(corrs))


def _select_generator_iterate(gen_cfg, gen, snapshots, semg, imu):
    """The best-scoring snapshot state and the selection log; scoring leaves ``gen`` at the last snapshot."""
    best_state, best_epoch, best_corr = None, -1, -np.inf
    epochs, corrs = [], []
    for epoch, state in snapshots:
        gen.load_state_dict(state)
        corr = _training_pair_correlation(gen_cfg, gen, semg, imu)
        epochs.append(epoch)
        corrs.append(corr)
        if corr > best_corr:
            best_state, best_epoch, best_corr = state, epoch, corr
    log = {"epochs": epochs, "train_corr": corrs,
           "chosen_epoch": int(best_epoch), "chosen_corr": float(best_corr)}
    return best_state, log


# ---------------------------------------------------------------------------
# trained-generator bundle: parameters + the stats they were trained with

@dataclass
class GeneratorBundle:
    """Everything needed to synthesize motion windows from muscle windows."""

    cfg: GeneratorConfig
    params: ParamSet
    semg_stats: ChannelStats
    imu_stats: ChannelStats
    seed: int = 0
    data_fingerprint: str = ""
    extra: dict = field(default_factory=dict)


def data_fingerprint(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype="<f8")
        digest.update(str(a.shape).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def normalize_generator_inputs(bundle: GeneratorBundle, semg_windows) -> np.ndarray:
    return apply_norm(np.asarray(semg_windows), bundle.semg_stats, "zscore")


def generate_virtual(bundle: GeneratorBundle, semg_windows) -> np.ndarray:
    """Synthesize physical-unit motion windows from normalized muscle windows.

    ``semg_windows`` must be (n, k, c1) windows already normalized with the
    bundle's training stats; the tanh output is mapped back through the
    stored motion-channel min/max. Runs the generator in eval mode, so the
    result is deterministic.
    """
    x = np.asarray(semg_windows, dtype=np.float32)
    if x.ndim != 3:
        raise DataError("expected (n, k, c1) muscle windows")
    if x.shape[1] != bundle.cfg.window_frames or x.shape[2] != bundle.cfg.semg_channels:
        raise StatsMismatchError(
            f"windows of shape {x.shape[1:]} do not match the generator's "
            f"{bundle.cfg.window_frames} x {bundle.cfg.semg_channels} training geometry"
        )
    if bundle.imu_stats.channels != bundle.cfg.imu_channels:
        raise StatsMismatchError("stored motion stats do not match the generator geometry")
    normalized = _eval_outputs(bundle.cfg, bundle.params, x)
    return invert_norm(normalized, bundle.imu_stats, "minmax_pm1")


@dataclass
class GeneratorSidecar(DictCodec):
    """``generator.json``: the generator's geometry and stats, provenance, and the critic's config.

    Every bundle written records ``discriminator``; a sidecar written
    before the critic's config was recorded lacks the key and reads as None.
    """

    generator: GeneratorConfig
    semg_stats: ChannelStats
    imu_stats: ChannelStats
    seed: int
    data_fingerprint: str
    init_record: dict
    extra: dict
    discriminator: DiscriminatorConfig | None = None


def save_generator_bundle(directory, bundle: GeneratorBundle, disc_params: ParamSet,
                          disc_cfg: DiscriminatorConfig):
    """Write the generator and discriminator checkpoints and the sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    checkpoint.save_tensors(directory / "generator.ckpt", bundle.params.state_dict())
    checkpoint.save_tensors(directory / "discriminator.ckpt", disc_params.state_dict())
    meta = GeneratorSidecar(bundle.cfg, bundle.semg_stats, bundle.imu_stats, bundle.seed,
                            bundle.data_fingerprint, bundle.params.init_record, bundle.extra, disc_cfg)
    write_json(directory / "generator.json", meta.to_dict())


def load_discriminator(directory):
    """Rebuild the critic a bundle saved: (its recorded config, params)."""
    directory = Path(directory)
    cfg = read_json(directory / "generator.json", GeneratorSidecar).discriminator
    if cfg is None:
        raise FormatError(f"{directory / 'generator.json'} records no discriminator")
    params = build_discriminator(cfg, seed=0)
    params.load_state_dict(checkpoint.load_tensors(directory / "discriminator.ckpt"))
    return cfg, params


def load_generator_bundle(directory) -> GeneratorBundle:
    directory = Path(directory)
    meta = read_json(directory / "generator.json", GeneratorSidecar)
    params = build_generator(meta.generator, seed=0)
    params.load_state_dict(checkpoint.load_tensors(directory / "generator.ckpt"))
    params.init_record = meta.init_record
    return GeneratorBundle(meta.generator, params, meta.semg_stats, meta.imu_stats,
                           meta.seed, meta.data_fingerprint, meta.extra)
