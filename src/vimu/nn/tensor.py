"""Reverse-mode automatic differentiation over numpy arrays.

Deliberately small: only the operations needed by the window networks are
implemented, each with an explicit backward closure. Gradients accumulate
into ``Tensor.grad``; ``backward()`` walks the recorded graph in reverse
topological order. Arrays keep whatever dtype they were given, so the same
code runs in float32 for training and float64 for gradient checking.
"""
from __future__ import annotations

import numpy as np

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (plain forward math)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A value in the computation graph plus its gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        if backward_fn is None:
            # Leaf: requires_grad is honored regardless of the no_grad context.
            self.requires_grad = bool(requires_grad)
            self._parents = ()
            self._backward_fn = None
        else:
            track = _grad_enabled and (requires_grad or any(p.requires_grad for p in parents))
            self.requires_grad = track
            self._parents = tuple(parents) if track else ()
            self._backward_fn = backward_fn if track else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self):
        """Backpropagate from a scalar node, accumulating into leaf ``.grad``."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar value")
        if self._backward_fn is None and not self.requires_grad:
            raise ValueError("backward() on a node with no recorded forward graph")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={'set' if self.grad is not None else 'none'})"


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


# ---------------------------------------------------------------------------
# convolution primitives (shared by conv2d, tconv2d and their gradients)

def _pad2d(x, ph, pw):
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def _windows(xp, oh, ow, kh, kw, sh, sw):
    b, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (b, c, oh, ow, kh, kw), (s0, s1, s2 * sh, s3 * sw, s2, s3), writeable=False
    )


def conv_output_size(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


def tconv_output_size(n, k, stride, pad, out_pad):
    return (n - 1) * stride + k - 2 * pad + out_pad


# einsum contraction paths are cached per (equation, shapes); the windows
# involved are small and re-planned paths dominate the cost otherwise
_EINSUM_PATHS: dict = {}


def _einsum(eq, *operands):
    key = (eq, tuple(op.shape for op in operands))
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(eq, *operands, optimize="optimal")[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(eq, *operands, optimize=path)


def _conv_fwd(x, w, sh, sw, ph, pw):
    _, _, h, wd = x.shape
    _, _, kh, kw = w.shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(wd, kw, sw, pw)
    win = _windows(_pad2d(x, ph, pw), oh, ow, kh, kw, sh, sw)
    return _einsum("bchwpq,ocpq->bohw", win, w)


def _conv_dw(x, dy, kh, kw, sh, sw, ph, pw):
    _, _, oh, ow = dy.shape
    win = _windows(_pad2d(x, ph, pw), oh, ow, kh, kw, sh, sw)
    return _einsum("bchwpq,bohw->ocpq", win, dy)


def _conv_dx(dy, w, x_shape, sh, sw, ph, pw):
    b, co, oh, ow = dy.shape
    _, ci, kh, kw = w.shape
    _, _, h, wd = x_shape
    # one GEMM for all kernel offsets, then strided scatter-adds of views
    lhs = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(b * oh * ow, co)
    contrib = (lhs @ w.reshape(co, ci * kh * kw)).reshape(b, oh, ow, ci, kh, kw)
    buf = np.zeros((b, ci, h + 2 * ph, wd + 2 * pw), dtype=dy.dtype)
    for p in range(kh):
        for q in range(kw):
            buf[:, :, p : p + sh * oh : sh, q : q + sw * ow : sw] += contrib[
                :, :, :, :, p, q
            ].transpose(0, 3, 1, 2)
    return buf[:, :, ph : ph + h, pw : pw + wd]


def _lc_fwd(x, w, sh, sw):
    oh, ow = w.shape[0], w.shape[1]
    kh, kw = w.shape[4], w.shape[5]
    win = _windows(x, oh, ow, kh, kw, sh, sw)
    return _einsum("bchwpq,hwocpq->bohw", win, w)


def _lc_dw(x, dy, w_shape, sh, sw):
    oh, ow = w_shape[0], w_shape[1]
    kh, kw = w_shape[4], w_shape[5]
    win = _windows(x, oh, ow, kh, kw, sh, sw)
    return _einsum("bchwpq,bohw->hwocpq", win, dy)


def _lc_dx(dy, w, x_shape, sh, sw):
    b, _, oh, ow = dy.shape
    kh, kw = w.shape[4], w.shape[5]
    contrib = _einsum("bohw,hwocpq->bpqchw", dy, w)
    buf = np.zeros(x_shape, dtype=dy.dtype)
    for p in range(kh):
        for q in range(kw):
            buf[:, :, p : p + sh * oh : sh, q : q + sw * ow : sw] += contrib[:, p, q]
    return buf


# ---------------------------------------------------------------------------
# differentiable operations

def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    y = x.data @ w.data + b.data

    def bwd(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return Tensor(y, parents=(x, w, b), backward_fn=bwd)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride, padding) -> Tensor:
    sh, sw = stride
    ph, pw = padding
    y = _conv_fwd(x.data, w.data, sh, sw, ph, pw) + b.data[None, :, None, None]

    def bwd(g):
        _accum(x, _conv_dx(g, w.data, x.data.shape, sh, sw, ph, pw))
        _accum(w, _conv_dw(x.data, g, w.data.shape[2], w.data.shape[3], sh, sw, ph, pw))
        _accum(b, g.sum(axis=(0, 2, 3)))

    return Tensor(y, parents=(x, w, b), backward_fn=bwd)


def tconv2d(x: Tensor, w: Tensor, b: Tensor, stride, padding, output_padding) -> Tensor:
    # Weight layout (in_maps, out_maps, kh, kw); the forward pass is the
    # adjoint of a convolution with the same stride/padding, so the three
    # directions all reuse the conv primitives with roles swapped.
    sh, sw = stride
    ph, pw = padding
    oph, opw = output_padding
    bsz, _, h, wd = x.data.shape
    co = w.data.shape[1]
    oh = tconv_output_size(h, w.data.shape[2], sh, ph, oph)
    ow = tconv_output_size(wd, w.data.shape[3], sw, pw, opw)
    y = _conv_dx(x.data, w.data, (bsz, co, oh, ow), sh, sw, ph, pw)
    y = y + b.data[None, :, None, None]

    def bwd(g):
        _accum(x, _conv_fwd(g, w.data, sh, sw, ph, pw))
        _accum(w, _conv_dw(g, x.data, w.data.shape[2], w.data.shape[3], sh, sw, ph, pw))
        _accum(b, g.sum(axis=(0, 2, 3)))

    return Tensor(y, parents=(x, w, b), backward_fn=bwd)


def local2d(x: Tensor, w: Tensor, b: Tensor, stride) -> Tensor:
    # Per-position filters, no weight sharing; valid padding only.
    # Bias has shape (maps, oh, ow): one offset per output position.
    sh, sw = stride
    y = _lc_fwd(x.data, w.data, sh, sw) + b.data[None]

    def bwd(g):
        _accum(x, _lc_dx(g, w.data, x.data.shape, sh, sw))
        _accum(w, _lc_dw(x.data, g, w.data.shape, sh, sw))
        _accum(b, g.sum(axis=0))

    return Tensor(y, parents=(x, w, b), backward_fn=bwd)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0)

    def bwd(g):
        _accum(x, g * (x.data > 0))

    return Tensor(y, parents=(x,), backward_fn=bwd)


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    y = np.where(x.data > 0, x.data, slope * x.data)

    def bwd(g):
        _accum(x, g * np.where(x.data > 0, 1.0, slope).astype(x.data.dtype))

    return Tensor(y, parents=(x,), backward_fn=bwd)


def tanh_act(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def bwd(g):
        _accum(x, g * (1.0 - y * y))

    return Tensor(y, parents=(x,), backward_fn=bwd)


def _sigmoid(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid_act(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)

    def bwd(g):
        _accum(x, g * y * (1.0 - y))

    return Tensor(y, parents=(x,), backward_fn=bwd)


def softmax_rows(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        _accum(x, y * (g - (g * y).sum(axis=1, keepdims=True)))

    return Tensor(y, parents=(x,), backward_fn=bwd)


def dropout_mask(x: Tensor, mask: np.ndarray) -> Tensor:
    y = x.data * mask

    def bwd(g):
        _accum(x, g * mask)

    return Tensor(y, parents=(x,), backward_fn=bwd)


def reshape(x: Tensor, shape) -> Tensor:
    y = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    return Tensor(y, parents=(x,), backward_fn=bwd)


def concat(parts, axis=1) -> Tensor:
    y = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bwd(g):
        offset = 0
        for p, size in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            _accum(p, g[tuple(sl)])
            offset += size

    return Tensor(y, parents=tuple(parts), backward_fn=bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    y = a.data + b.data
    if a.data.shape != b.data.shape:
        raise ValueError("add() requires matching shapes")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return Tensor(y, parents=(a, b), backward_fn=bwd)


def sum_all(x: Tensor) -> Tensor:
    y = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def bwd(g):
        _accum(x, np.full_like(x.data, float(g)))

    return Tensor(y, parents=(x,), backward_fn=bwd)


def batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """Batch-statistics normalization. Returns (out, batch_mean, batch_var).

    4D input normalizes per feature map over (batch, h, w); 2D input per
    feature over the batch. Variance is the population form.
    """
    if x.data.ndim == 4:
        axes = (0, 2, 3)
        bshape = (1, -1, 1, 1)
    elif x.data.ndim == 2:
        axes = (0,)
        bshape = (1, -1)
    else:
        raise ValueError("batchnorm expects 2D or 4D input")
    m = x.data.size // x.data.shape[1]
    if m < 2:
        raise ValueError("batchnorm needs at least 2 values per feature")
    mu = x.data.mean(axis=axes)
    var = x.data.var(axis=axes)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(bshape)) * ivar.reshape(bshape)
    y = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    def bwd(g):
        dbeta = g.sum(axis=axes)
        dgamma = (g * xhat).sum(axis=axes)
        gr = gamma.data.reshape(bshape)
        dx = (gr * ivar.reshape(bshape) / m) * (
            m * g - dbeta.reshape(bshape) - xhat * dgamma.reshape(bshape)
        )
        _accum(x, dx.astype(x.data.dtype))
        _accum(gamma, dgamma)
        _accum(beta, dbeta)

    return Tensor(y, parents=(x, gamma, beta), backward_fn=bwd), mu, var


def batchnorm_eval(x: Tensor, gamma: Tensor, beta: Tensor, run_mean, run_var, eps: float) -> Tensor:
    if x.data.ndim == 4:
        bshape = (1, -1, 1, 1)
        axes = (0, 2, 3)
    elif x.data.ndim == 2:
        bshape = (1, -1)
        axes = (0,)
    else:
        raise ValueError("batchnorm expects 2D or 4D input")
    ivar = 1.0 / np.sqrt(run_var + eps)
    xhat = (x.data - run_mean.reshape(bshape)) * ivar.reshape(bshape)
    y = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    def bwd(g):
        _accum(x, (g * gamma.data.reshape(bshape) * ivar.reshape(bshape)).astype(x.data.dtype))
        _accum(gamma, (g * xhat).sum(axis=axes))
        _accum(beta, g.sum(axis=axes))

    return Tensor(y, parents=(x, gamma, beta), backward_fn=bwd)
