"""Adam and step-decayed SGD over :class:`ParamSet` gradients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import ParamSet

ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam with bias correction; :data:`ADAM_BETA1` follows the DCGAN convention.

    ``m`` and ``v`` hold the moments as one vector each, over the parameters
    in parameter order. The first step sizes them; a later step on a
    parameter set of another size or dtype is a ``ValueError``.
    """

    learning_rate: float = 2e-4
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: ParamSet):
    tensors = [p for _, p in params.trainable()]
    dtypes = {p.data.dtype for p in tensors}
    if len(dtypes) != 1:
        raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
    # every gradient in parameter order; a parameter without one gets zeros
    steps = np.concatenate([(p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
                            for p in tensors], dtype=dtypes.pop())
    if state.m is None:
        state.m, state.v = np.zeros_like(steps), np.zeros_like(steps)
    elif state.m.shape != steps.shape or state.m.dtype != steps.dtype:
        raise ValueError(f"Adam's moments hold {state.m.size} {state.m.dtype} values, "
                         f"the parameters {steps.size} {steps.dtype}")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    # step = lr * (m / c1) / (sqrt(v / c2) + eps), after the moment updates,
    # op for op, written over each gradient once the moments have read it
    for g, m, v, a in _blocks(steps, state.m, state.v):
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        v += a
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, c1, out=g)
        g *= state.learning_rate
        g /= a
    start = 0
    for p in tensors:
        stop = start + p.data.size
        p.data -= steps[start:stop].reshape(p.data.shape)
        start = stop


# The updates walk their arrays in blocks of at most this many values, so the
# scratch stays in cache and SGD makes no full-size temporary.
_BLOCK = 1 << 16


def _blocks(*vectors):
    """Aligned slices of ``vectors`` plus a work array of the same length."""
    n = vectors[0].size
    work = np.empty(min(n, _BLOCK), dtype=vectors[0].dtype)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        yield *(vec[start:stop] for vec in vectors), work[: stop - start]


SGD_INITIAL_LR = 0.1
SGD_DIVISOR = 10.0


@dataclass
class SgdState:
    """Plain SGD at :data:`SGD_INITIAL_LR`, divided by :data:`SGD_DIVISOR` at each decay epoch."""

    decay_epochs: tuple = (16, 24)

    def learning_rate(self, epoch: int) -> float:
        drops = sum(1 for d in self.decay_epochs if epoch >= d)
        return SGD_INITIAL_LR / SGD_DIVISOR**drops


def sgd_step(state: SgdState, params: ParamSet, epoch: int):
    lr = state.learning_rate(epoch)
    # Each parameter moves by its own gradient, a block of rows at a time. A
    # parameter without a gradient stays as it is: p - lr * 0 is p, bit for bit.
    for _, p in params.trainable():
        x, g = p.data, p.grad
        if g is None:
            continue
        rows = max(1, _BLOCK // max(1, x[:1].size))
        for start in range(0, len(x), rows):
            x[start : start + rows] -= np.multiply(g[start : start + rows], lr)
