"""Reverse-mode automatic differentiation over numpy arrays.

Deliberately small: only the operations needed by the window networks are
implemented, each with an explicit backward closure. Gradients accumulate
into ``Tensor.grad``; ``backward()`` runs the closures of every node it can
reach, newest first. Arrays keep whatever dtype they were given, so the same
code runs in float32 for training and float64 for gradient checking.
"""
from __future__ import annotations

import itertools
from operator import attrgetter

import numpy as np

_grad_enabled = True
_next_seq = itertools.count().__next__
_by_seq = attrgetter("_seq")


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
    """A value in the computation graph plus its gradient slot.

    ``_seq`` numbers tensors in creation order. A node is always made after
    its parents, so visiting nodes from the highest number down is a reverse
    topological order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self._seq = _next_seq()
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
        reached = {id(self): self}
        stack = [self]
        while stack:
            for parent in stack.pop()._parents:
                if parent.requires_grad and id(parent) not in reached:
                    reached[id(parent)] = parent
                    stack.append(parent)
        self.grad = np.ones_like(self.data)
        for node in sorted(reached.values(), key=_by_seq, reverse=True):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={'set' if self.grad is not None else 'none'})"


def _accum(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t.grad``; see "gradient ownership" below."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))
        return
    d = t.data
    if g.dtype == d.dtype and g.shape == d.shape and g.strides == d.strides:
        t.grad = g
    else:
        t.grad = np.empty_like(d)
        np.copyto(t.grad, g)


# ---------------------------------------------------------------------------
# convolution core: one im2col/col2im pair, every direction a plain matmul
#
# conv2d, tconv2d, local2d and 4D batchnorm return (b, c, h, w) views over
# maps-first, batch-innermost (c, h, w, b) memory, and columns keep that
# order, (c*kh*kw, oh*ow*b): a conv forward is W @ cols with the weight as
# stored, and the product is the next activation. At stride 1 the window
# copies of im2col move runs of ow*b values, not ow. col2im is the adjoint
# of im2col, so a transposed conv is the same three products as a conv with
# input and output swapped. Batchnorm reduces each map over one contiguous
# row. Other memory orders give the same values, more slowly: windows are
# read through ``x.strides``.
#
# col2im scatters into phase-major planes (c, sh, sw, hp/sh, wp/sw, b):
# padded pixel (i, j) lives in plane (i % sh, j % sw) at (i // sh, j // sw).
# The columns it scatters are a product whose right operand (a conv's output
# gradient, a transposed conv's input) has every image row padded with zero
# columns to the planes' row length. Each kernel offset (p, q) then adds one
# contiguous run per map into its plane, where a plain padded buffer takes
# runs of ow*b values at stride 1 and of b values at stride sw > 1. The zero
# columns add +-0 to pixels of the next row or past the plane's end, which
# leaves a sum that started from +0 as it was (the weights are finite). One
# strided copy per phase interleaves the planes into the image, and the bias
# is added to the contiguous result. Each pixel still sums its offsets in
# (p, q) order from +0, so the values are the bits of the direct scatter. A
# 1x1 stride-1 window needs no scatter: col2im is 0 + cols.
#
# The generator's first transposed conv has one input map, so its column
# product ``wm.T @ xm`` has K = 1: it is an outer product, and the
# broadcast ``wm.T * xm`` gives the same bits without an sgemm call that
# costs several times more at these shapes.
#
# Gradient ownership: the first contribution to a node's gradient is kept
# as it is when its dtype, shape and strides match the node's value (a
# transposed gradient would slow every elementwise op that reads it), and
# copied once otherwise. Later contributions are out-of-place adds. No
# gradient is ever written in place, so pass-through backward closures
# (add, reshape, concat) may hand the same array to several nodes.

def conv_output_size(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


def tconv_output_size(n, k, stride, pad, out_pad):
    return (n - 1) * stride + k - 2 * pad + out_pad


def _im2col(x, kh, kw, sh, sw, ph, pw):
    """The (kh, kw) windows of ``x`` (b, c, h, w) as a (c*kh*kw, oh*ow*b) matrix."""
    b, c, h, w = x.shape
    oh, ow = conv_output_size(h, kh, sh, ph), conv_output_size(w, kw, sw, pw)
    if ph or pw:
        xp = np.zeros((c, h + 2 * ph, w + 2 * pw, b), dtype=x.dtype).transpose(3, 0, 1, 2)
        xp[:, :, ph : ph + h, pw : pw + w] = x
        x = xp
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (c, kh, kw, oh, ow, b), (s1, s2, s3, s2 * sh, s3 * sw, s0), writeable=False
    )
    return win.reshape(c * kh * kw, oh * ow * b)


def _plane_width(w, sw, pw):
    """Row length of col2im's phase planes for an image ``w`` wide."""
    return -(-(w + 2 * pw) // sw)


def _col2im(cols, shape, kh, kw, sh, sw, ph, pw, bias=None):
    """Adjoint of ``_im2col``: scatter-add the columns back onto a (b, c, h, w) image.

    ``cols`` is (c*kh*kw, oh*row*b): ``_im2col``'s layout with row = ow, or
    with every window row padded by zero columns to the planes' row length
    (``_plane_width``), the layout the scatter works in. ``bias`` (c,), if
    given, is added to every pixel of its map.
    """
    b, c, h, w = shape
    oh, ow = conv_output_size(h, kh, sh, ph), conv_output_size(w, kw, sw, pw)
    if kh == kw == sh == sw == 1 and not (ph or pw):
        img = cols.reshape(c, h, w, b) + cols.dtype.type(0)
        if bias is not None:
            img += bias[:, None, None, None]
        return img.transpose(3, 0, 1, 2)
    hq, wq = -(-(h + 2 * ph) // sh), _plane_width(w, sw, pw)
    plane, run = hq * wq * b, oh * wq * b
    if cols.size != c * kh * kw * run:
        padded = np.zeros((c * kh * kw, oh, wq, b), dtype=cols.dtype)
        padded[:, :, :ow] = cols.reshape(-1, oh, ow, b)
        cols = padded
    cols = cols.reshape(c, kh, kw, run)
    # A run may reach (kw - 1) // sw pixels past its plane: only the zero
    # columns of the last window row land there.
    buf = np.zeros((c, sh, sw, plane + (kw - 1) // sw * b), dtype=cols.dtype)
    for p in range(kh):
        for q in range(kw):
            start = ((p // sh) * wq + q // sw) * b
            buf[:, p % sh, q % sw, start : start + run] += cols[:, p, q]
    planes = buf[..., :plane].reshape(c, sh, sw, hq, wq, b)
    if sh == sw == 1 and bias is None:
        return planes[:, 0, 0, ph : ph + h, pw : pw + w].transpose(3, 0, 1, 2)
    out = np.empty((c, h, w, b), dtype=cols.dtype if bias is None else np.result_type(cols, bias))
    for r in range(sh):
        for s in range(sw):
            # first image row and column that fall in phase plane (r, s)
            i0, j0 = (r - ph) % sh, (s - pw) % sw
            dst = out[:, i0::sh, j0::sw]
            i, j = (i0 + ph) // sh, (j0 + pw) // sw
            np.copyto(dst, planes[:, r, s, i : i + dst.shape[1], j : j + dst.shape[2]])
    if bias is not None:
        # strided copies are cheap and strided adds are not: add on the whole image
        out = out.reshape(c, -1)
        out += bias[:, None]
    return _images(out, b, h, w)


def _rows_padded(x, row):
    """(b, c, h, w) -> maps-first (c, h*row*b), each image row padded with zero columns to ``row``."""
    b, c, h, w = x.shape
    if row == w:
        return _maps_first(x)
    out = np.empty((c, h, row, b), dtype=x.dtype)
    out[:, :, w:] = 0
    out[:, :, :w] = x.transpose(1, 2, 3, 0)
    return out.reshape(c, -1)


def _maps_first(x):
    """(b, c, h, w) -> (c, h*w*b), the columns of a 1x1 window; no copy in maps-first order."""
    return x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)


def _images(m, b, h, w):
    """The (b, c, h, w) view of a maps-first (c, h*w*b) matrix."""
    return m.reshape(-1, h, w, b).transpose(3, 0, 1, 2)


def _by_position(a, m):
    """(p, r, k) @ (p, k, b) batched over positions p, stored maps-first as (r, p, b)."""
    out = np.empty((a.shape[1], a.shape[0], m.shape[2]), dtype=np.result_type(a, m))
    np.matmul(a, m, out=out.transpose(1, 0, 2))
    return out


# ---------------------------------------------------------------------------
# differentiable operations

def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    y = x.data @ w.data + b.data

    def bwd(g):
        _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return Tensor(y, parents=(x, w, b), backward_fn=bwd)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride, padding) -> Tensor:
    sh, sw = stride
    ph, pw = padding
    bsz, _, h, wd = x.data.shape
    co, _, kh, kw = w.data.shape
    oh, ow = conv_output_size(h, kh, sh, ph), conv_output_size(wd, kw, sw, pw)
    wm = w.data.reshape(co, -1)
    cols = _im2col(x.data, kh, kw, sh, sw, ph, pw)
    y = wm @ cols
    y += b.data[:, None]
    y = _images(y, bsz, oh, ow)

    def bwd(g):
        gm = _maps_first(g)
        if x.requires_grad:
            gp = _rows_padded(g, _plane_width(wd, sw, pw))
            _accum(x, _col2im(wm.T @ gp, x.data.shape, kh, kw, sh, sw, ph, pw))
        if w.requires_grad:
            # (cols @ gm.T).T gives the bits of gm @ cols.T in about half the
            # time when both are C-contiguous. Other strides reach BLAS with
            # other transpose flags or take numpy's own loop, and the bits
            # then depend on the operand order.
            if cols.flags.c_contiguous and gm.flags.c_contiguous:
                dw = (cols @ gm.T).T
            else:
                dw = gm @ cols.T
            _accum(w, dw.reshape(w.data.shape))
        if b.requires_grad:
            _accum(b, gm.sum(axis=1))

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
    xp = _rows_padded(x.data, _plane_width(ow, sw, pw))
    cols = wm.T * xp if ci == 1 else wm.T @ xp
    y = _col2im(cols, (bsz, co, oh, ow), kh, kw, sh, sw, ph, pw, bias=b.data)

    def bwd(g):
        cols = _im2col(g, kh, kw, sh, sw, ph, pw)
        if x.requires_grad:
            _accum(x, _images(wm @ cols, bsz, h, wd))
        if w.requires_grad:
            _accum(w, (xm @ cols.T).reshape(w.data.shape))
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))

    return Tensor(y, parents=(x, w, b), backward_fn=bwd)


def local2d(x: Tensor, w: Tensor, b: Tensor, stride) -> Tensor:
    # Per-position filters, valid padding: weight (oh, ow, out_maps, in_maps,
    # kh, kw), bias (out_maps, oh, ow). One matmul batched over the positions.
    sh, sw = stride
    bsz = x.data.shape[0]
    oh, ow, co, _, kh, kw = w.data.shape
    wp = w.data.reshape(oh * ow, co, -1)
    cp = _im2col(x.data, kh, kw, sh, sw, 0, 0).reshape(-1, oh * ow, bsz).transpose(1, 0, 2)
    y = _by_position(wp, cp)
    y += b.data.reshape(co, -1, 1)
    y = _images(y, bsz, oh, ow)

    def bwd(g):
        gp = _maps_first(g).reshape(co, oh * ow, bsz).transpose(1, 0, 2)
        if x.requires_grad:
            dcols = _by_position(wp.transpose(0, 2, 1), gp)
            _accum(x, _col2im(dcols, x.data.shape, kh, kw, sh, sw, 0, 0))
        if w.requires_grad:
            _accum(w, (gp @ cp.transpose(0, 2, 1)).reshape(w.data.shape))
        if b.requires_grad:
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


def _per_map(x):
    """(b, c, h, w) or (b, c) -> (c, n), one row per map; no copy in maps-first order."""
    if x.ndim not in (2, 4):
        raise ValueError("batchnorm expects 2D or 4D input")
    return _maps_first(x) if x.ndim == 4 else x.T


def _from_maps(m, shape):
    """Inverse of ``_per_map`` for a batch of ``shape``."""
    return _images(m, shape[0], *shape[2:]) if len(shape) == 4 else m.T


def batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """Batch-statistics normalization. Returns (out, batch_mean, batch_var).

    4D input normalizes per feature map over (batch, h, w); 2D input per
    feature over the batch. Variance is the population form; the centred
    input serves the variance, the output and the backward pass.
    """
    xm = _per_map(x.data)
    m = xm.shape[1]
    if m < 2:
        raise ValueError("batchnorm needs at least 2 values per feature")
    mu = xm.sum(axis=1) / m
    xc = xm - mu[:, None]
    var = np.vecdot(xc, xc) / m
    ivar = 1.0 / np.sqrt(var + eps)
    scale = gamma.data * ivar
    y = xc * scale[:, None]
    y += beta.data[:, None]
    y = _from_maps(y, x.data.shape)

    def bwd(g):
        gm = _per_map(g)
        dbeta = gm.sum(axis=1)
        dgamma = np.vecdot(gm, xc) * ivar
        if x.requires_grad:
            # scale * (gm - (dbeta + xc * (ivar * dgamma)) / m), one temporary
            dx = xc * (ivar * dgamma)[:, None]
            dx += dbeta[:, None]
            dx /= m
            np.subtract(gm, dx, out=dx)
            dx *= scale[:, None]
            _accum(x, _from_maps(dx, x.data.shape))
        _accum(gamma, dgamma)
        _accum(beta, dbeta)

    return Tensor(y, parents=(x, gamma, beta), backward_fn=bwd), mu, var


def batchnorm_eval(x: Tensor, gamma: Tensor, beta: Tensor, run_mean, run_var, eps: float) -> Tensor:
    ivar = 1.0 / np.sqrt(run_var + eps)
    xhat = _per_map(x.data) - run_mean[:, None]
    xhat *= ivar[:, None]
    if _grad_enabled:
        y = xhat * gamma.data[:, None]
    else:  # no graph keeps xhat, so the output may take its memory
        y = xhat
        y *= gamma.data[:, None]
    y += beta.data[:, None]
    y = _from_maps(y, x.data.shape)

    def bwd(g):
        gm = _per_map(g)
        _accum(x, _from_maps(gm * (gamma.data * ivar)[:, None], x.data.shape))
        _accum(gamma, np.vecdot(gm, xhat))
        _accum(beta, gm.sum(axis=1))

    return Tensor(y, parents=(x, gamma, beta), backward_fn=bwd)
