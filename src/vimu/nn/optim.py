"""Adam and step-decayed SGD over :class:`ParamSet` gradients."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import ParamSet


@dataclass
class AdamState:
    """Adam with bias correction. beta1 defaults to the DCGAN convention.

    ``m`` and ``v`` hold the moments as one vector per dtype, aligned with
    :meth:`ParamSet.flat`.
    """

    learning_rate: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: ParamSet):
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for values, grads in params.flat():
        moments = _moments(state, values)
        # values -= lr * (m / c1) / (sqrt(v / c2) + eps), after the moment
        # updates, op for op, through two scratch blocks
        for x, g, m, v, a, b in _blocks(values, grads, *moments, scratch=2):
            m *= state.beta1
            np.multiply(g, 1.0 - state.beta1, out=a)
            m += a
            v *= state.beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - state.beta2
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += state.eps
            np.divide(m, c1, out=b)
            b *= state.learning_rate
            b /= a
            x -= b


# The updates walk their arrays in blocks of at most this many values, so the
# scratch stays in cache and a large network gets no full-size temporary.
_BLOCK = 1 << 16


def _blocks(*vectors, scratch):
    """Aligned slices of ``vectors`` plus ``scratch`` work arrays of the same length."""
    n = vectors[0].size
    work = [np.empty(min(n, _BLOCK), dtype=vectors[0].dtype) for _ in range(scratch)]
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        yield *(vec[start:stop] for vec in vectors), *(w[: stop - start] for w in work)


def _moments(state: AdamState, values):
    key = values.dtype.str
    m, v = state.m.get(key), state.v.get(key)
    if m is None or m.size != values.size:
        # Parameters added since the last step start from zero moments.
        grown_m, grown_v = np.zeros_like(values), np.zeros_like(values)
        if m is not None:
            grown_m[: m.size], grown_v[: v.size] = m, v
        m, v = state.m[key], state.v[key] = grown_m, grown_v
    return m, v


@dataclass
class SgdState:
    """Plain SGD whose learning rate drops by ``divisor`` at each decay epoch."""

    initial_lr: float = 0.1
    decay_epochs: tuple = (16, 24)
    divisor: float = 10.0

    def learning_rate(self, epoch: int) -> float:
        drops = sum(1 for d in self.decay_epochs if epoch >= d)
        return self.initial_lr / self.divisor**drops


def sgd_step(state: SgdState, params: ParamSet, epoch: int):
    lr = state.learning_rate(epoch)
    # Each parameter moves by its own gradient, a block of rows at a time: the
    # flat vector would first need a copy of every gradient. A parameter
    # without a gradient stays as it is: p - lr * 0 is p, bit for bit.
    for _, p in params.trainable():
        x, g = p.data, p.grad
        if g is None:
            continue
        rows = max(1, _BLOCK // max(1, x[:1].size))
        for start in range(0, len(x), rows):
            x[start : start + rows] -= np.multiply(g[start : start + rows], lr)
