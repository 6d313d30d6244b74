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
# convolution core: one im2col/col2im pair, every direction a plain matmul
#
# Columns are laid out maps first, (c*kh*kw, b*oh*ow), so a conv forward is
# W @ cols with the weight reshaped as it is stored. col2im is the adjoint of
# im2col, which makes a transposed conv the same three products as a conv
# with the roles of input and output swapped. The (b, c, h, w) results are
# views that keep the maps axis outermost in memory: batchnorm's per-map
# reductions read that order about twice as fast as batch-outermost, and a
# gradient in that order is already the maps-first matrix of the next GEMM.

def conv_output_size(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


def tconv_output_size(n, k, stride, pad, out_pad):
    return (n - 1) * stride + k - 2 * pad + out_pad


def _im2col(x, kh, kw, sh, sw, ph, pw):
    """The (kh, kw) windows of ``x`` (b, c, h, w) as a (c*kh*kw, b*oh*ow) matrix."""
    b, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        xp = np.zeros((c, b, h + 2 * ph, w + 2 * pw), dtype=x.dtype).transpose(1, 0, 2, 3)
        xp[:, :, ph : ph + h, pw : pw + w] = x
        x = xp
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (c, kh, kw, b, oh, ow), (s1, s2, s3, s0, s2 * sh, s3 * sw), writeable=False
    )
    return win.reshape(c * kh * kw, b * oh * ow)


def _col2im(cols, shape, kh, kw, sh, sw, ph, pw):
    """Adjoint of ``_im2col``: scatter-add the columns back onto a (b, c, h, w) image."""
    b, c, h, w = shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    cols = cols.reshape(c, kh, kw, b, oh, ow)
    buf = np.zeros((c, b, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for p in range(kh):
        for q in range(kw):
            buf[:, :, p : p + sh * oh : sh, q : q + sw * ow : sw] += cols[:, p, q]
    return buf[:, :, ph : ph + h, pw : pw + w].transpose(1, 0, 2, 3)


def _maps_first(x):
    """(b, c, h, w) -> (c, b*h*w), the columns of a 1x1 window; no copy in maps-first order."""
    return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)


def _images(m, b, h, w):
    """The (b, c, h, w) view of a maps-first (c, b*h*w) matrix."""
    return m.reshape(-1, b, h, w).transpose(1, 0, 2, 3)


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
    bsz, _, h, wd = x.data.shape
    co, _, kh, kw = w.data.shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(wd, kw, sw, pw)
    wm = w.data.reshape(co, -1)
    cols = _im2col(x.data, kh, kw, sh, sw, ph, pw)
    y = _images(wm @ cols, bsz, oh, ow) + b.data[None, :, None, None]

    def bwd(g):
        gm = _maps_first(g)
        if x.requires_grad:
            _accum(x, _col2im(wm.T @ gm, x.data.shape, kh, kw, sh, sw, ph, pw))
        _accum(w, (gm @ cols.T).reshape(w.data.shape))
        _accum(b, g.sum(axis=(0, 2, 3)))

    return Tensor(y, parents=(x, w, b), backward_fn=bwd)


def tconv2d(x: Tensor, w: Tensor, b: Tensor, stride, padding, output_padding) -> Tensor:
    # Weight layout (in_maps, out_maps, kh, kw): the adjoint of a conv2d from
    # the output maps to the input maps with the same stride and padding.
    sh, sw = stride
    ph, pw = padding
    bsz, ci, h, wd = x.data.shape
    _, co, kh, kw = w.data.shape
    oh = tconv_output_size(h, kh, sh, ph, output_padding[0])
    ow = tconv_output_size(wd, kw, sw, pw, output_padding[1])
    wm = w.data.reshape(ci, -1)
    xm = _maps_first(x.data)
    y = _col2im(wm.T @ xm, (bsz, co, oh, ow), kh, kw, sh, sw, ph, pw) + b.data[None, :, None, None]

    def bwd(g):
        cols = _im2col(g, kh, kw, sh, sw, ph, pw)
        if x.requires_grad:
            _accum(x, _images(wm @ cols, bsz, h, wd))
        _accum(w, (xm @ cols.T).reshape(w.data.shape))
        _accum(b, g.sum(axis=(0, 2, 3)))

    return Tensor(y, parents=(x, w, b), backward_fn=bwd)


def local2d(x: Tensor, w: Tensor, b: Tensor, stride) -> Tensor:
    # Per-position filters, no weight sharing; valid padding only. Weight
    # layout (oh, ow, out_maps, in_maps, kh, kw); bias (out_maps, oh, ow).
    # One matmul batched over the oh*ow output positions; the result is
    # copied to (maps, positions, batch) order to keep maps outermost.
    sh, sw = stride
    bsz = x.data.shape[0]
    oh, ow, co, _, kh, kw = w.data.shape
    wp = w.data.reshape(oh * ow, co, -1)
    cols = _im2col(x.data, kh, kw, sh, sw, 0, 0)
    cp = np.ascontiguousarray(cols.reshape(-1, bsz, oh * ow).transpose(2, 0, 1))
    ym = np.ascontiguousarray((wp @ cp).transpose(1, 0, 2))
    y = ym.transpose(2, 0, 1).reshape(bsz, co, oh, ow) + b.data[None]

    def bwd(g):
        gp = np.ascontiguousarray(g.reshape(bsz, co, oh * ow).transpose(2, 1, 0))
        if x.requires_grad:
            dcols = (wp.transpose(0, 2, 1) @ gp).transpose(1, 2, 0)
            _accum(x, _col2im(dcols, x.data.shape, kh, kw, sh, sw, 0, 0))
        _accum(w, (gp @ cp.transpose(0, 2, 1)).reshape(w.data.shape))
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
        if x.requires_grad:
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
