"""Recognition models: per-modality CNN streams plus a fusion head.

Each stream normalizes its raw window with a leading batchnorm, applies two
same-padded convolutions and two 1x1 locally connected layers (all with
batchnorm and ReLU), then flattens into a dense feature vector with dropout.
The fusion head concatenates the stream features, applies ReLU, a hidden
dense layer with batchnorm and ReLU, and a softmax output. The unimodal
variant is the same network with a single stream.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import DictCodec, sidecar
from .errors import ConfigError, DataError, DivergenceError
from .nn import checkpoint
from .nn.layers import LayerSpec, ParamSet, backprop, init_stack_params, run_stack, stack_output_shape
from .nn.losses import cross_entropy_loss
from .nn.optim import SgdState, sgd_step
from .nn.tensor import Tensor, concat, no_grad
from .sigproc import ChannelStats


@dataclass(frozen=True)
class StreamConfig(DictCodec):
    """One modality stream. Defaults follow the full-scale architecture."""

    window_frames: int
    channels: int
    conv_maps: int = 64
    lc_maps: int = 64
    dense_units: int = 512
    dropout: float = 0.5

    def __post_init__(self):
        if min(self.window_frames, self.channels, self.conv_maps, self.lc_maps, self.dense_units) < 1:
            raise ConfigError("stream dimensions must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("stream dropout must be in [0, 1)")


@dataclass(frozen=True)
class FusionConfig(DictCodec):
    """Fusion head: hidden width and the number of gesture classes."""

    classes: int
    hidden_units: int = 512

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("need at least 2 gesture classes")
        if self.hidden_units < 1:
            raise ConfigError("fusion hidden width must be >= 1")


def stream_layers(cfg: StreamConfig) -> list:
    return [
        LayerSpec("batchnorm", "bn_in"),
        LayerSpec("conv2d", "conv1", maps=cfg.conv_maps, kernel=(3, 3), stride=(1, 1), padding="same"),
        LayerSpec("batchnorm", "bn1"),
        LayerSpec("relu", "relu1"),
        LayerSpec("conv2d", "conv2", maps=cfg.conv_maps, kernel=(3, 3), stride=(1, 1), padding="same"),
        LayerSpec("batchnorm", "bn2"),
        LayerSpec("relu", "relu2"),
        LayerSpec("locally_connected", "lc1", maps=cfg.lc_maps, kernel=(1, 1), stride=(1, 1)),
        LayerSpec("batchnorm", "bn3"),
        LayerSpec("relu", "relu3"),
        LayerSpec("locally_connected", "lc2", maps=cfg.lc_maps, kernel=(1, 1), stride=(1, 1)),
        LayerSpec("batchnorm", "bn4"),
        LayerSpec("relu", "relu4"),
        LayerSpec("flatten", "flatten"),
        LayerSpec("dense", "fc", units=cfg.dense_units),
        LayerSpec("dropout", "drop", rate=cfg.dropout),
    ]


def fusion_layers(cfg: FusionConfig) -> list:
    # ReLU ahead of the hidden dense layer, batchnorm + ReLU after it.
    return [
        LayerSpec("relu", "pre_relu"),
        LayerSpec("dense", "fc", units=cfg.hidden_units),
        LayerSpec("batchnorm", "bn"),
        LayerSpec("relu", "post_relu"),
        LayerSpec("dense", "out", units=cfg.classes),
        LayerSpec("softmax", "softmax"),
    ]


class FusionModel:
    """Stream stacks joined by concatenation into a shared fusion head."""

    def __init__(self, stream_cfgs: dict, fusion_cfg: FusionConfig, params: ParamSet):
        self.stream_cfgs = dict(stream_cfgs)
        self.fusion_cfg = fusion_cfg
        self.params = params

    @property
    def stream_names(self) -> list:
        return list(self.stream_cfgs)

    def forward(self, stream_inputs, mode: str = "train", rng=None,
                update_stats: bool = True) -> Tensor:
        """Per-stream (n, k, C) window arrays -> class probabilities (n, G)."""
        if len(stream_inputs) != len(self.stream_cfgs):
            raise DataError(
                f"model has {len(self.stream_cfgs)} streams, got {len(stream_inputs)} inputs"
            )
        feats = []
        for (name, cfg), windows in zip(self.stream_cfgs.items(), stream_inputs):
            x = np.asarray(windows)
            if x.ndim == 3:
                x = x[:, None, :, :]
            if x.shape[2:] != (cfg.window_frames, cfg.channels):
                raise DataError(
                    f"stream {name!r} expects {cfg.window_frames} x {cfg.channels} windows, "
                    f"got {x.shape[2:]}"
                )
            feats.append(
                run_stack(stream_layers(cfg), self.params, x, mode=mode, rng=rng,
                          update_stats=update_stats, prefix=f"{name}.")
            )
        joined = feats[0] if len(feats) == 1 else concat(feats, axis=1)
        return run_stack(fusion_layers(self.fusion_cfg), self.params, joined, mode=mode,
                         rng=rng, update_stats=update_stats, prefix="fusion.")

    def clone(self) -> "FusionModel":
        return FusionModel(self.stream_cfgs, self.fusion_cfg, self.params.copy())


def _spawned_seeds(seed: int, n: int = 3):
    return [int(s.generate_state(1, dtype=np.uint64)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def build_multimodal(semg_cfg: StreamConfig, imu_cfg: StreamConfig,
                     fusion_cfg: FusionConfig, seed: int) -> FusionModel:
    """Two independent streams feeding the shared fusion head."""
    if semg_cfg.window_frames != imu_cfg.window_frames:
        raise ConfigError("both streams must share the window length")
    s_semg, s_imu, s_fusion = _spawned_seeds(seed)
    params = ParamSet()
    init_stack_params(stream_layers(semg_cfg), (1, semg_cfg.window_frames, semg_cfg.channels),
                      seed=s_semg, scheme="he", prefix="semg.", into=params)
    init_stack_params(stream_layers(imu_cfg), (1, imu_cfg.window_frames, imu_cfg.channels),
                      seed=s_imu, scheme="he", prefix="imu.", into=params)
    width = semg_cfg.dense_units + imu_cfg.dense_units
    init_stack_params(fusion_layers(fusion_cfg), (width,), seed=s_fusion, scheme="he",
                      prefix="fusion.", into=params)
    return FusionModel({"semg": semg_cfg, "imu": imu_cfg}, fusion_cfg, params)


def build_unimodal(semg_cfg: StreamConfig, fusion_cfg: FusionConfig, seed: int) -> FusionModel:
    """Single-stream variant; the concatenation degenerates to the identity.

    Uses the same per-stream seed derivation as the multimodal builder, so
    identical seeds give identical muscle-stream initial weights.
    """
    s_semg, _, s_fusion = _spawned_seeds(seed)
    params = ParamSet()
    init_stack_params(stream_layers(semg_cfg), (1, semg_cfg.window_frames, semg_cfg.channels),
                      seed=s_semg, scheme="he", prefix="semg.", into=params)
    init_stack_params(fusion_layers(fusion_cfg), (semg_cfg.dense_units,), seed=s_fusion,
                      scheme="he", prefix="fusion.", into=params)
    return FusionModel({"semg": semg_cfg}, fusion_cfg, params)


def stream_spatial_shape(cfg: StreamConfig) -> tuple:
    """Shape after the conv/LC body (before flatten); spatial dims must hold."""
    body = stream_layers(cfg)[:-3]
    return stack_output_shape(body, (1, cfg.window_frames, cfg.channels))


@dataclass
class ClfTrainConfig(DictCodec):
    """Step-decayed SGD schedule for the recognition models."""

    batch_size: int = 64
    epochs: int = 28
    initial_lr: float = 0.1
    decay_epochs: tuple[int, ...] = (16, 24)
    lr_divisor: float = 10.0
    pretrain: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 2:
            raise ConfigError("need epochs >= 0 and batch size >= 2")
        if any(d >= self.epochs for d in self.decay_epochs) and self.epochs > 0:
            raise ConfigError("decay epochs must lie before the final epoch")


def train_classifier(model: FusionModel, stream_arrays, labels, cfg: ClfTrainConfig):
    """SGD with the stated learning-rate schedule over shuffled batches.

    ``stream_arrays`` holds one (n, k, C) array per model stream; ``labels``
    integer gestures below the configured class count. Returns the mutated
    parameter set and a history dict with per-epoch loss, accuracy, and
    learning rate.
    """
    arrays = [np.asarray(a, dtype=np.float32) for a in stream_arrays]
    y = np.asarray(labels)
    if len(arrays) != len(model.stream_cfgs):
        raise DataError("one window array per stream is required")
    n = y.shape[0]
    if n == 0:
        raise DataError("empty training set")
    if any(a.shape[0] != n for a in arrays):
        raise DataError("stream arrays and labels must align")
    if y.min() < 0 or y.max() >= model.fusion_cfg.classes:
        raise ValueError(f"label out of range [0, {model.fusion_cfg.classes})")

    s_shuffle, s_dropout = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(s_shuffle)
    dropout_rng = np.random.default_rng(s_dropout)
    sgd = SgdState(cfg.initial_lr, tuple(cfg.decay_epochs), cfg.lr_divisor)
    history = {"loss": [], "accuracy": [], "lr": []}

    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        seen = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            probs = model.forward([a[idx] for a in arrays], mode="train", rng=dropout_rng)
            loss = cross_entropy_loss(probs, y[idx])
            backprop(loss, model.params)
            sgd_step(sgd, model.params, epoch)
            loss_sum += float(loss.data) * idx.size
            correct += int((probs.data.argmax(axis=1) == y[idx]).sum())
            seen += idx.size
        if seen == 0:
            raise DataError("no usable batches (need at least 2 examples per batch)")
        mean_loss = loss_sum / seen
        if not np.isfinite(mean_loss):
            raise DivergenceError(f"non-finite classifier loss at epoch {epoch}")
        history["loss"].append(mean_loss)
        history["accuracy"].append(correct / seen)
        history["lr"].append(sgd.learning_rate(epoch))
    return model.params, history


def pretrain_then_finetune(model: FusionModel, pooled_streams, pooled_labels,
                           subject_streams, subject_labels, cfg: ClfTrainConfig):
    """Full schedule on the amalgamated cohort, then again on one subject.

    With ``cfg.pretrain`` unset this reduces to plain training on the
    subject data.
    """
    if cfg.pretrain:
        train_classifier(model, pooled_streams, pooled_labels, cfg)
    return train_classifier(model, subject_streams, subject_labels, cfg)


def predict(model: FusionModel, stream_arrays, batch_size: int = 1024):
    """Eval-mode class predictions; ties break toward the lowest index.

    Returns (labels, probabilities).
    """
    arrays = [np.asarray(a, dtype=np.float32) for a in stream_arrays]
    n = arrays[0].shape[0]
    probs = []
    with no_grad():
        for start in range(0, n, batch_size):
            out = model.forward([a[start : start + batch_size] for a in arrays], mode="eval")
            probs.append(out.data)
    probs = np.concatenate(probs, axis=0)
    return probs.argmax(axis=1), probs


# ---------------------------------------------------------------------------
# classifier bundle persistence

def save_classifier_bundle(directory, model: FusionModel, stream_stats: dict, seed: int,
                           extra: dict | None = None):
    """Checkpoint plus sidecar (architecture, input stats, provenance)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    checkpoint.save_tensors(directory / "classifier.ckpt", model.params.state_dict())
    meta = {
        "streams": {name: cfg.to_dict() for name, cfg in model.stream_cfgs.items()},
        "fusion": model.fusion_cfg.to_dict(),
        "stream_stats": {name: stats.to_dict() for name, stats in stream_stats.items()},
        "seed": seed,
        "init_record": model.params.init_record,
        "extra": extra or {},
    }
    with open(directory / "classifier.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_classifier_bundle(directory):
    """Rebuild a model (and its input stats) from a saved bundle."""
    directory = Path(directory)
    with sidecar(directory / "classifier.json") as meta:
        for key in ("streams", "stream_stats"):
            if not isinstance(meta[key], dict):
                raise ConfigError(f"{key!r} must be a JSON object, got {type(meta[key]).__name__}")
        stream_cfgs = {name: StreamConfig.from_dict(d) for name, d in meta["streams"].items()}
        fusion_cfg = FusionConfig.from_dict(meta["fusion"])
        stats = {name: ChannelStats.from_dict(d) for name, d in meta["stream_stats"].items()}
    names = list(stream_cfgs)
    if names == ["semg"]:
        model = build_unimodal(stream_cfgs["semg"], fusion_cfg, seed=0)
    elif names == ["semg", "imu"]:
        model = build_multimodal(stream_cfgs["semg"], stream_cfgs["imu"], fusion_cfg, seed=0)
    else:
        raise DataError(f"unsupported stream layout {names}")
    model.params.load_state_dict(checkpoint.load_tensors(directory / "classifier.ckpt"))
    model.params.init_record = meta.get("init_record", {})
    return model, stats, meta
