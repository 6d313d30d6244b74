"""Layer specifications, parameter sets, and stack execution.

A network is a list of :class:`LayerSpec` plus a :class:`ParamSet` holding
the named parameter tensors and batchnorm running statistics. Stacks are
strictly sequential; multi-stream models compose several stacks and join
them with :func:`vimu.nn.tensor.concat`.

A layer kind is one entry of :data:`KINDS` (the input ranks it takes, its
output shape, the parameters and buffers it reads, its forward) plus its op
in :mod:`vimu.nn.tensor`. Shape propagation, initialization and execution
all read that entry.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ConfigError, StatsMismatchError
from . import tensor as T
from .tensor import Tensor

# Default chunk of eval-mode forwards (synthesis, prediction, snapshot
# scoring). With 16 muscle channels, 10-frame windows and the desk widths,
# the widest im2col or transposed-conv column matrix is 12 MB at 256 windows
# and 47 MB at 1024, where every layer streams it through memory.
EVAL_BATCH = 256

# batchnorm's running-statistics momentum and variance guard
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a sequential stack.

    ``kind`` is a key of :data:`KINDS`. Only the fields relevant to it are
    read; the rest keep defaults. ``padding`` is either an explicit (ph, pw)
    pair or the string "same" (stride 1, odd kernels only). The first run at
    a new batch shape plans the layer, checking that shape, and every run
    checks each parameter and buffer it reads against the plan.
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

    def __post_init__(self):
        if self.kind not in KINDS:
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
        if self.kind in ("conv2d", "tconv2d"):
            pad, (kh, kw) = self.padding, self.kernel
            if pad == "same":
                if self.stride != (1, 1) or kh % 2 == 0 or kw % 2 == 0:
                    raise ConfigError(f"layer {self.name!r}: 'same' padding requires stride 1 and odd kernels")
                pad = ((kh - 1) // 2, (kw - 1) // 2)
            object.__setattr__(self, "_pad", (int(pad[0]), int(pad[1])))
        # the batch shape the layer last ran at, its forward and what it reads there (see run_stack)
        object.__setattr__(self, "_plan", (None, None, ()))

    def __reduce__(self):
        # pickled by its fields; the padding and the plan are worked out again
        return LayerSpec, tuple(getattr(self, name) for name in self.__dataclass_fields__)


class ParamSet:
    """Named trainable tensors, batchnorm buffers, and init provenance.

    Each parameter's ``data`` is an array of its own, so a caller may update
    it in place or bind a new array to it.
    """

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

    @contextmanager
    def frozen(self):
        """Within the block the parameters require no gradient.

        A backward pass through them still reaches their inputs but skips
        the weight and bias products.
        """
        for p in self.params.values():
            p.requires_grad = False
        try:
            yield
        finally:
            for p in self.params.values():
                p.requires_grad = True

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
            np.copyto(p.data, arr, casting="unsafe")
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
# layer kinds
#
# Shapes are one sample's: (maps, h, w) or (features,). A kind takes inputs
# of the ``ranks`` it lists (None: any); ``needs`` gives the (suffix, shape)
# of each parameter and buffer (suffixes in ``_BUFFERS``) in creation order.
# A forward looks its op up through ``T`` on every call.

_BUFFERS = (".mean", ".var")


class _Kind(NamedTuple):
    ranks: tuple | None
    shape: Callable  # (spec, in_shape) -> out_shape
    needs: Callable  # (spec, in_shape) -> ((suffix, shape), ...)
    forward: Callable  # (spec, t, found, (mode, rng, update_stats, params, prefix)) -> Tensor


def _conv_shape(spec, s, pad):
    (kh, kw), (sh, sw) = spec.kernel, spec.stride
    return (spec.maps, T.conv_output_size(s[1], kh, sh, pad[0]), T.conv_output_size(s[2], kw, sw, pad[1]))


def _tconv_shape(spec, s):
    (kh, kw), (sh, sw), (ph, pw), (oph, opw) = spec.kernel, spec.stride, spec._pad, spec.output_padding
    return (spec.maps, T.tconv_output_size(s[1], kh, sh, ph, oph), T.tconv_output_size(s[2], kw, sw, pw, opw))


def _local_needs(spec, s):
    _, oh, ow = _conv_shape(spec, s, (0, 0))
    return ((".w", (oh, ow, spec.maps, s[0], *spec.kernel)), (".b", (spec.maps, oh, ow)))


def _batchnorm(spec, t, found, run):
    gamma, beta, mean, var = found
    mode, _, update_stats, params, prefix = run
    if mode == "eval":
        return T.batchnorm_eval(t, gamma, beta, mean, var, BN_EPS)
    out, batch_mean, batch_var = T.batchnorm_train(t, gamma, beta, BN_EPS)
    if update_stats:
        m, key = BN_MOMENTUM, prefix + spec.name
        params.buffers[key + ".mean"] = (m * mean + (1.0 - m) * batch_mean).astype(mean.dtype, copy=False)
        params.buffers[key + ".var"] = (m * var + (1.0 - m) * batch_var).astype(mean.dtype, copy=False)
    return out


def _dropout(spec, t, found, run):
    mode, rng = run[:2]
    if mode == "eval" or spec.rate == 0.0:
        return t
    if rng is None:
        raise ConfigError(f"layer {spec.name!r}: dropout in train mode needs an rng")
    mask = ((rng.random(t.data.shape) >= spec.rate) / (1.0 - spec.rate)).astype(t.data.dtype)
    return T.dropout_mask(t, mask)


def _same(spec, s):
    return s


def _nothing(spec, s):
    return ()


KINDS = {
    "conv2d": _Kind((3,), lambda spec, s: _conv_shape(spec, s, spec._pad),
                    lambda spec, s: ((".w", (spec.maps, s[0], *spec.kernel)), (".b", (spec.maps,))),
                    lambda spec, t, found, run: T.conv2d(t, found[0], found[1], spec.stride, spec._pad)),
    "tconv2d": _Kind((3,), _tconv_shape,
                     lambda spec, s: ((".w", (s[0], spec.maps, *spec.kernel)), (".b", (spec.maps,))),
                     lambda spec, t, found, run: T.tconv2d(t, found[0], found[1], spec.stride, spec._pad,
                                                           spec.output_padding)),
    "locally_connected": _Kind((3,), lambda spec, s: _conv_shape(spec, s, (0, 0)), _local_needs,
                               lambda spec, t, found, run: T.local2d(t, found[0], found[1], spec.stride)),
    "dense": _Kind((1,), lambda spec, s: (spec.units,),
                   lambda spec, s: ((".w", (s[0], spec.units)), (".b", (spec.units,))),
                   lambda spec, t, found, run: T.dense(t, found[0], found[1])),
    "batchnorm": _Kind((1, 3), _same,
                       lambda spec, s: tuple((sfx, s[:1]) for sfx in (".gamma", ".beta") + _BUFFERS), _batchnorm),
    "relu": _Kind(None, _same, _nothing, lambda spec, t, found, run: T.relu(t)),
    "leaky_relu": _Kind(None, _same, _nothing, lambda spec, t, found, run: T.leaky_relu(t, spec.slope)),
    "tanh": _Kind(None, _same, _nothing, lambda spec, t, found, run: T.tanh_act(t)),
    "sigmoid": _Kind(None, _same, _nothing, lambda spec, t, found, run: T.sigmoid_act(t)),
    "softmax": _Kind((1,), _same, _nothing, lambda spec, t, found, run: T.softmax_rows(t)),
    "dropout": _Kind(None, _same, _nothing, _dropout),
    "flatten": _Kind((1, 2, 3), lambda spec, s: (int(np.prod(s)),), _nothing,
                     lambda spec, t, found, run: T.reshape(t, (t.data.shape[0], -1))),
}


# ---------------------------------------------------------------------------
# shape propagation and initialization

def layer_output_shape(spec: LayerSpec, in_shape: tuple) -> tuple:
    """Propagate a (maps, h, w) or (features,) shape through one layer."""
    kind, in_shape = KINDS[spec.kind], tuple(in_shape)
    if kind.ranks and len(in_shape) not in kind.ranks:
        ranks = " or ".join(map(str, kind.ranks))
        raise ConfigError(f"layer {spec.name!r}: {spec.kind} takes rank {ranks} input, got {in_shape}")
    out_shape = kind.shape(spec, in_shape)
    if min(out_shape, default=1) < 1:
        raise ConfigError(f"layer {spec.name!r}: output collapses to {out_shape}")
    return out_shape


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


def seed_of(seq: np.random.SeedSequence) -> int:
    """The integer seed ``seq`` stands for, as :func:`init_stack_params` takes it."""
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def init_stack_params(
    layers,
    in_shape: tuple,
    seed: int,
    scheme: str = "he",
    dtype=np.float32,
    prefix: str = "",
    into: ParamSet | None = None,
) -> ParamSet:
    """Create each layer's parameters and buffers, drawing weights layer by layer.

    ``.w`` draws from N(0, std(fan-in)); ``.gamma`` and ``.var`` start at one, the rest at zero.
    """
    rng = np.random.default_rng(seed)
    params = into if into is not None else ParamSet()
    params.init_record[prefix or "stack"] = {"scheme": scheme, "seed": int(seed)}
    seen = set()
    shape = tuple(in_shape)
    for spec in layers:
        if spec.name in seen:
            raise ConfigError(f"duplicate layer name {spec.name!r}")
        seen.add(spec.name)
        out_shape = layer_output_shape(spec, shape)
        for suffix, need in KINDS[spec.kind].needs(spec, shape):
            if suffix == ".w":
                fan_in = shape[0] * (spec.kernel[0] * spec.kernel[1] if len(shape) == 3 else 1)
                value = rng.normal(0.0, _weight_std(scheme, fan_in), need).astype(dtype)
            else:
                value = (np.ones if suffix in (".gamma", ".var") else np.zeros)(need, dtype=dtype)
            add = params.add_buffer if suffix in _BUFFERS else params.add_param
            add(prefix + spec.name + suffix, value)
        shape = out_shape
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
    statistics and turns dropout into the identity. A layer whose input
    shape does not fit it, or whose parameters and buffers are missing or
    not of the shapes it needs at that input, raises :class:`ConfigError`.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    run = (mode, rng, update_stats, params, prefix)
    tensors, buffers = params.params, params.buffers
    for spec in layers:
        shape, forward, needs = spec._plan
        if shape != t.data.shape:
            shape, forward, needs = _plan(spec, t.data.shape)
        found = []
        for name, want, buffer in needs:
            value = (buffers if buffer else tensors).get(prefix + name)
            if value is None or (value if buffer else value.data).shape != want:
                have = "none" if value is None else (value if buffer else value.data).shape
                raise ConfigError(f"layer {spec.name!r}: input {shape} needs {prefix + name!r} "
                                  f"of shape {want}, found {have}")
            found.append(value)
        t = forward(spec, t, found, run)
    return t


def _plan(spec, batch_shape):
    """Check that ``spec`` takes ``batch_shape``; its forward and (name, shape, is buffer) needs there."""
    in_shape, kind = batch_shape[1:], KINDS[spec.kind]
    layer_output_shape(spec, in_shape)
    needs = tuple((spec.name + sfx, want, sfx in _BUFFERS) for sfx, want in kind.needs(spec, in_shape))
    object.__setattr__(spec, "_plan", (batch_shape, kind.forward, needs))
    return spec._plan
