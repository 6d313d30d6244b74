"""Training losses with numerically clamped log terms."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor, _accum

CLAMP_EPS = 1e-7


def bce_loss(pred: Tensor, target) -> Tensor:
    """Binary cross-entropy, mean over all elements.

    ``target`` holds 0/1 values broadcastable to ``pred``. Predictions are
    clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before the logs; coordinates that
    hit the clamp get zero gradient (the true subgradient of the clamped
    function).
    """
    t = np.broadcast_to(np.asarray(target, dtype=pred.data.dtype), pred.data.shape)
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("bce target values must be 0 or 1")
    p = pred.data
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    val = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc)).mean()

    def bwd(g):
        inside = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
        dp = np.where(inside, (pc - t) / (pc * (1.0 - pc)), 0.0)
        _accum(pred, (dp * (float(g) / p.size)).astype(p.dtype))

    return Tensor(np.asarray(val, dtype=pred.data.dtype), parents=(pred,), backward_fn=bwd)


def cross_entropy_loss(probs: Tensor, labels) -> Tensor:
    """Negative log-likelihood of the true class, mean over the batch.

    ``probs`` are softmax outputs of shape (n, classes); ``labels`` integer
    class indices in [0, classes).
    """
    y = np.asarray(labels)
    if probs.data.ndim != 2:
        raise ValueError("cross entropy expects (batch, classes) probabilities")
    n, classes = probs.data.shape
    if y.shape != (n,):
        raise ValueError("labels must be one index per row")
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise ValueError(f"label out of range [0, {classes})")
    picked = probs.data[np.arange(n), y]
    pc = np.clip(picked, CLAMP_EPS, 1.0)
    val = -np.log(pc).mean()

    def bwd(g):
        dp = np.zeros_like(probs.data)
        inside = picked > CLAMP_EPS
        dp[np.arange(n), y] = np.where(inside, -1.0 / pc, 0.0) * (float(g) / n)
        _accum(probs, dp)

    return Tensor(np.asarray(val, dtype=probs.data.dtype), parents=(probs,), backward_fn=bwd)

