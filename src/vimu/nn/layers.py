"""Layer specifications, parameter sets, and stack execution.

A network is a list of :class:`LayerSpec` plus a :class:`ParamSet` holding
the named parameter tensors and batchnorm running statistics. Stacks are
strictly sequential; multi-stream models compose several stacks and join
them with :func:`vimu.nn.tensor.concat`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, StatsMismatchError
from . import tensor as T
from .tensor import Tensor

LAYER_KINDS = (
    "conv2d",
    "tconv2d",
    "locally_connected",
    "dense",
    "batchnorm",
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "softmax",
    "dropout",
    "flatten",
)


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a sequential stack.

    Only the fields relevant to ``kind`` are read; the rest keep defaults.
    ``padding`` is either an explicit (ph, pw) pair or the string "same"
    (stride 1, odd kernels only).
    """

    kind: str
    name: str
    maps: int = 0
    units: int = 0
    kernel: tuple = (3, 3)
    stride: tuple = (1, 1)
    padding: object = (0, 0)
    output_padding: tuple = (0, 0)
    rate: float = 0.0
    slope: float = 0.2
    momentum: float = 0.9
    eps: float = 1e-5

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if not self.name:
            raise ConfigError("layer needs a name")
        if self.kind in ("conv2d", "tconv2d", "locally_connected"):
            if self.maps < 1:
                raise ConfigError(f"layer {self.name!r}: maps must be >= 1")
            if min(self.kernel) < 1 or min(self.stride) < 1:
                raise ConfigError(f"layer {self.name!r}: kernel and stride must be >= 1")
        if self.kind == "tconv2d":
            if self.output_padding[0] >= self.stride[0] or self.output_padding[1] >= self.stride[1]:
                raise ConfigError(f"layer {self.name!r}: output_padding must be < stride")
        if self.kind == "dense" and self.units < 1:
            raise ConfigError(f"layer {self.name!r}: units must be >= 1")
        if self.kind == "dropout" and not (0.0 <= self.rate < 1.0):
            raise ConfigError(f"layer {self.name!r}: dropout rate must be in [0, 1)")


def _resolve_padding(spec: LayerSpec):
    if spec.padding == "same":
        if spec.stride != (1, 1):
            raise ConfigError(f"layer {spec.name!r}: 'same' padding requires stride 1")
        kh, kw = spec.kernel
        if kh % 2 == 0 or kw % 2 == 0:
            raise ConfigError(f"layer {spec.name!r}: 'same' padding requires odd kernels")
        return (kh - 1) // 2, (kw - 1) // 2
    ph, pw = spec.padding
    return int(ph), int(pw)


class ParamSet:
    """Named trainable tensors, batchnorm buffers, and init provenance."""

    def __init__(self, init_record=None):
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.init_record: dict = dict(init_record or {})

    def add_param(self, name: str, value: np.ndarray):
        if name in self.params or name in self.buffers:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self.params[name] = Tensor(value, requires_grad=True)

    def add_buffer(self, name: str, value: np.ndarray):
        if name in self.params or name in self.buffers:
            raise ConfigError(f"duplicate buffer name {name!r}")
        self.buffers[name] = value

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self.params[name]
        except KeyError:
            raise ConfigError(f"missing parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def trainable(self):
        return self.params.items()

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def fill_missing_grads(self):
        # Parameters untouched by the loss graph get explicit zero gradients.
        for p in self.params.values():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)

    def state_dict(self) -> dict:
        out = {name: p.data for name, p in self.params.items()}
        out.update(self.buffers)
        return out

    def load_state_dict(self, state: dict):
        names = set(self.params) | set(self.buffers)
        if set(state) != names:
            missing = sorted(names - set(state))
            extra = sorted(set(state) - names)
            raise StatsMismatchError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in self.params.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise StatsMismatchError(f"shape mismatch for {name!r}: {arr.shape} vs {p.data.shape}")
            p.data = arr.astype(p.data.dtype)
        for name in self.buffers:
            arr = np.asarray(state[name])
            if arr.shape != self.buffers[name].shape:
                raise StatsMismatchError(f"shape mismatch for {name!r}")
            self.buffers[name] = arr.astype(self.buffers[name].dtype)

    def copy(self) -> "ParamSet":
        dup = ParamSet(self.init_record)
        for name, p in self.params.items():
            dup.params[name] = Tensor(p.data.copy(), requires_grad=True)
        for name, buf in self.buffers.items():
            dup.buffers[name] = buf.copy()
        return dup

    def total_parameters(self) -> int:
        return int(sum(p.data.size for p in self.params.values()))

    def astype(self, dtype) -> "ParamSet":
        dup = ParamSet(self.init_record)
        for name, p in self.params.items():
            dup.params[name] = Tensor(p.data.astype(dtype), requires_grad=True)
        for name, buf in self.buffers.items():
            dup.buffers[name] = buf.astype(dtype)
        return dup


def backprop(loss: Tensor, params: ParamSet):
    """Run reverse mode from a scalar loss; every trainable gets a gradient."""
    if loss.data.size != 1:
        raise ValueError("loss must be scalar")
    params.zero_grads()
    loss.backward()
    params.fill_missing_grads()


# ---------------------------------------------------------------------------
# shape propagation and initialization

def layer_output_shape(spec: LayerSpec, in_shape: tuple) -> tuple:
    """Propagate a (maps, h, w) or (features,) shape through one layer."""
    kind = spec.kind
    if kind in ("conv2d", "locally_connected"):
        if len(in_shape) != 3:
            raise ConfigError(f"layer {spec.name!r}: expected (maps, h, w) input, got {in_shape}")
        _, h, w = in_shape
        ph, pw = _resolve_padding(spec) if kind == "conv2d" else (0, 0)
        oh = T.conv_output_size(h, spec.kernel[0], spec.stride[0], ph)
        ow = T.conv_output_size(w, spec.kernel[1], spec.stride[1], pw)
        if oh < 1 or ow < 1:
            raise ConfigError(f"layer {spec.name!r}: output collapses to {oh}x{ow}")
        return (spec.maps, oh, ow)
    if kind == "tconv2d":
        if len(in_shape) != 3:
            raise ConfigError(f"layer {spec.name!r}: expected (maps, h, w) input, got {in_shape}")
        _, h, w = in_shape
        ph, pw = _resolve_padding(spec)
        oh = T.tconv_output_size(h, spec.kernel[0], spec.stride[0], ph, spec.output_padding[0])
        ow = T.tconv_output_size(w, spec.kernel[1], spec.stride[1], pw, spec.output_padding[1])
        if oh < 1 or ow < 1:
            raise ConfigError(f"layer {spec.name!r}: output collapses to {oh}x{ow}")
        return (spec.maps, oh, ow)
    if kind == "dense":
        if len(in_shape) != 1:
            raise ConfigError(f"layer {spec.name!r}: dense expects flat input, got {in_shape}")
        return (spec.units,)
    if kind == "flatten":
        return (int(np.prod(in_shape)),)
    return in_shape


def stack_output_shape(layers, in_shape: tuple) -> tuple:
    shape = tuple(in_shape)
    for spec in layers:
        shape = layer_output_shape(spec, shape)
    return shape


def _weight_std(scheme: str, fan_in: int) -> float:
    if scheme == "normal002":
        return 0.02
    if scheme == "he":
        return float(np.sqrt(2.0 / fan_in))
    raise ConfigError(f"unknown init scheme {scheme!r}")


def init_stack_params(
    layers,
    in_shape: tuple,
    seed: int,
    scheme: str = "he",
    dtype=np.float32,
    prefix: str = "",
    into: ParamSet | None = None,
) -> ParamSet:
    """Create parameters for a stack, drawing weights layer by layer."""
    rng = np.random.default_rng(seed)
    params = into if into is not None else ParamSet()
    params.init_record[prefix or "stack"] = {"scheme": scheme, "seed": int(seed)}
    seen = set()
    shape = tuple(in_shape)
    for spec in layers:
        if spec.name in seen:
            raise ConfigError(f"duplicate layer name {spec.name!r}")
        seen.add(spec.name)
        key = prefix + spec.name
        if spec.kind == "conv2d":
            ci = shape[0]
            kh, kw = spec.kernel
            std = _weight_std(scheme, ci * kh * kw)
            params.add_param(key + ".w", rng.normal(0.0, std, (spec.maps, ci, kh, kw)).astype(dtype))
            params.add_param(key + ".b", np.zeros(spec.maps, dtype=dtype))
        elif spec.kind == "tconv2d":
            ci = shape[0]
            kh, kw = spec.kernel
            std = _weight_std(scheme, ci * kh * kw)
            params.add_param(key + ".w", rng.normal(0.0, std, (ci, spec.maps, kh, kw)).astype(dtype))
            params.add_param(key + ".b", np.zeros(spec.maps, dtype=dtype))
        elif spec.kind == "locally_connected":
            ci = shape[0]
            out_shape = layer_output_shape(spec, shape)
            kh, kw = spec.kernel
            std = _weight_std(scheme, ci * kh * kw)
            oh, ow = out_shape[1], out_shape[2]
            params.add_param(
                key + ".w", rng.normal(0.0, std, (oh, ow, spec.maps, ci, kh, kw)).astype(dtype)
            )
            params.add_param(key + ".b", np.zeros((spec.maps, oh, ow), dtype=dtype))
        elif spec.kind == "dense":
            fan_in = shape[0]
            std = _weight_std(scheme, fan_in)
            params.add_param(key + ".w", rng.normal(0.0, std, (fan_in, spec.units)).astype(dtype))
            params.add_param(key + ".b", np.zeros(spec.units, dtype=dtype))
        elif spec.kind == "batchnorm":
            feats = shape[0]
            params.add_param(key + ".gamma", np.ones(feats, dtype=dtype))
            params.add_param(key + ".beta", np.zeros(feats, dtype=dtype))
            params.add_buffer(key + ".mean", np.zeros(feats, dtype=dtype))
            params.add_buffer(key + ".var", np.ones(feats, dtype=dtype))
        shape = layer_output_shape(spec, shape)
    return params


# ---------------------------------------------------------------------------
# execution

def run_stack(
    layers,
    params: ParamSet,
    x,
    mode: str = "train",
    rng: np.random.Generator | None = None,
    update_stats: bool = True,
    prefix: str = "",
) -> Tensor:
    """Run a sequential stack. ``mode`` governs dropout and batchnorm.

    Train mode uses batch statistics (and, when ``update_stats`` is set,
    refreshes the running buffers); eval mode uses the stored running
    statistics and turns dropout into the identity.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    for spec in layers:
        t = _apply(spec, params, t, mode, rng, update_stats, prefix)
    return t


def _need_ndim(spec, t, ndim):
    if t.data.ndim != ndim:
        raise ConfigError(
            f"layer {spec.name!r}: expected {ndim}D input, got shape {t.data.shape}"
        )


def _apply(spec, params, t, mode, rng, update_stats, prefix):
    kind = spec.kind
    key = prefix + spec.name
    if kind == "conv2d":
        _need_ndim(spec, t, 4)
        w = params[key + ".w"]
        if w.data.shape[1] != t.data.shape[1]:
            raise ConfigError(
                f"layer {spec.name!r}: weight expects {w.data.shape[1]} maps, input has {t.data.shape[1]}"
            )
        return T.conv2d(t, w, params[key + ".b"], spec.stride, _resolve_padding(spec))
    if kind == "tconv2d":
        _need_ndim(spec, t, 4)
        w = params[key + ".w"]
        if w.data.shape[0] != t.data.shape[1]:
            raise ConfigError(
                f"layer {spec.name!r}: weight expects {w.data.shape[0]} maps, input has {t.data.shape[1]}"
            )
        return T.tconv2d(t, w, params[key + ".b"], spec.stride, _resolve_padding(spec), spec.output_padding)
    if kind == "locally_connected":
        _need_ndim(spec, t, 4)
        w = params[key + ".w"]
        if w.data.shape[3] != t.data.shape[1]:
            raise ConfigError(
                f"layer {spec.name!r}: weight expects {w.data.shape[3]} maps, input has {t.data.shape[1]}"
            )
        return T.local2d(t, w, params[key + ".b"], spec.stride)
    if kind == "dense":
        _need_ndim(spec, t, 2)
        w = params[key + ".w"]
        if w.data.shape[0] != t.data.shape[1]:
            raise ConfigError(
                f"layer {spec.name!r}: weight expects {w.data.shape[0]} features, input has {t.data.shape[1]}"
            )
        return T.dense(t, w, params[key + ".b"])
    if kind == "batchnorm":
        gamma = params[key + ".gamma"]
        if t.data.ndim not in (2, 4) or t.data.shape[1] != gamma.data.shape[0]:
            raise ConfigError(
                f"layer {spec.name!r}: batchnorm over {gamma.data.shape[0]} features, input shape {t.data.shape}"
            )
        if mode == "train":
            out, mu, var = T.batchnorm_train(t, gamma, params[key + ".beta"], spec.eps)
            if update_stats:
                dtype = params.buffers[key + ".mean"].dtype
                params.buffers[key + ".mean"] = (
                    spec.momentum * params.buffers[key + ".mean"] + (1.0 - spec.momentum) * mu
                ).astype(dtype)
                params.buffers[key + ".var"] = (
                    spec.momentum * params.buffers[key + ".var"] + (1.0 - spec.momentum) * var
                ).astype(dtype)
            return out
        return T.batchnorm_eval(
            t, gamma, params[key + ".beta"],
            params.buffers[key + ".mean"], params.buffers[key + ".var"], spec.eps,
        )
    if kind == "relu":
        return T.relu(t)
    if kind == "leaky_relu":
        return T.leaky_relu(t, spec.slope)
    if kind == "tanh":
        return T.tanh_act(t)
    if kind == "sigmoid":
        return T.sigmoid_act(t)
    if kind == "softmax":
        _need_ndim(spec, t, 2)
        return T.softmax_rows(t)
    if kind == "dropout":
        if mode == "eval" or spec.rate == 0.0:
            return t
        if rng is None:
            raise ConfigError(f"layer {spec.name!r}: dropout in train mode needs an rng")
        keep = 1.0 - spec.rate
        mask = ((rng.random(t.data.shape) >= spec.rate) / keep).astype(t.data.dtype)
        return T.dropout_mask(t, mask)
    if kind == "flatten":
        if t.data.ndim < 2:
            raise ConfigError(f"layer {spec.name!r}: flatten expects batched input")
        return T.reshape(t, (t.data.shape[0], -1))
    raise ConfigError(f"layer {spec.name!r}: {kind} cannot run inside a sequential stack")
