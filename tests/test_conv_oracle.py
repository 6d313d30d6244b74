"""The convolution ops against a plain reference implementation of the same math.

The reference below is the direct form of the convolution core: a padded
(c, h, w, b) buffer that every kernel offset scatter-adds into with the
stride as a step, the column products written as ``gm @ cols.T`` and
``wm.T @ xm``, and each gradient accumulated into a zero array. The ops in
``vimu.nn.tensor`` take faster routes (phase-major scatter of zero-padded
rows, other product orders, no GEMM at K = 1, owned gradients) that must
give the same float32 bits for the forward value and for the input, weight
and bias gradients. The one difference allowed is the sign of an exact zero
gradient, which a zero-initialised accumulator turns into +0. float64 is
held to allclose.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vimu.nn import tensor as T
from vimu.nn.tensor import Tensor

MEMORY_ORDERS = {
    "C": lambda a: a.copy(),
    "cbhw": lambda a: np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
    "chwb": lambda a: np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
}
STRIDES = [(1, 1), (1, 2), (3, 3)]


# --- reference -------------------------------------------------------------

def ref_im2col(x, kh, kw, sh, sw, ph, pw):
    b, c, h, w = x.shape
    oh, ow = T.conv_output_size(h, kh, sh, ph), T.conv_output_size(w, kw, sw, pw)
    if ph or pw:
        xp = np.zeros((c, h + 2 * ph, w + 2 * pw, b), dtype=x.dtype).transpose(3, 0, 1, 2)
        xp[:, :, ph : ph + h, pw : pw + w] = x
        x = xp
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (c, kh, kw, oh, ow, b), (s1, s2, s3, s2 * sh, s3 * sw, s0), writeable=False
    )
    return win.reshape(c * kh * kw, oh * ow * b)


def ref_col2im(cols, shape, kh, kw, sh, sw, ph, pw):
    b, c, h, w = shape
    oh, ow = T.conv_output_size(h, kh, sh, ph), T.conv_output_size(w, kw, sw, pw)
    cols = cols.reshape(c, kh, kw, oh, ow, b)
    buf = np.zeros((c, h + 2 * ph, w + 2 * pw, b), dtype=cols.dtype)
    for p in range(kh):
        for q in range(kw):
            buf[:, p : p + sh * oh : sh, q : q + sw * ow : sw] += cols[:, p, q]
    return buf[:, ph : ph + h, pw : pw + w].transpose(3, 0, 1, 2)


def maps_first(x):
    return x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)


def images(m, b, h, w):
    return m.reshape(-1, h, w, b).transpose(3, 0, 1, 2)


def accumulated(g, like):
    out = np.zeros_like(like)
    out += g
    return out


def ref_conv2d(x, w, b, g, stride, pad):
    (sh, sw), (ph, pw) = stride, pad
    bsz, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    oh, ow = T.conv_output_size(h, kh, sh, ph), T.conv_output_size(wd, kw, sw, pw)
    wm = w.reshape(co, -1)
    cols = ref_im2col(x, kh, kw, sh, sw, ph, pw)
    y = images(wm @ cols + b[:, None], bsz, oh, ow)
    gm = maps_first(g)
    dx = ref_col2im(wm.T @ gm, x.shape, kh, kw, sh, sw, ph, pw)
    return y, [accumulated(dx, x), accumulated((gm @ cols.T).reshape(w.shape), w),
               accumulated(gm.sum(axis=1), b)]


def ref_tconv2d(x, w, b, g, stride, pad, outpad):
    (sh, sw), (ph, pw) = stride, pad
    bsz, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    oh = T.tconv_output_size(h, kh, sh, ph, outpad[0])
    ow = T.tconv_output_size(wd, kw, sw, pw, outpad[1])
    wm = w.reshape(ci, -1)
    xm = maps_first(x)
    y = ref_col2im(wm.T @ xm, (bsz, co, oh, ow), kh, kw, sh, sw, ph, pw) + b[None, :, None, None]
    cols = ref_im2col(g, kh, kw, sh, sw, ph, pw)
    return y, [accumulated(images(wm @ cols, bsz, h, wd), x),
               accumulated((xm @ cols.T).reshape(w.shape), w),
               accumulated(g.sum(axis=(0, 2, 3)), b)]


def by_position(a, m):
    out = np.empty((a.shape[1], a.shape[0], m.shape[2]), dtype=np.result_type(a, m))
    np.matmul(a, m, out=out.transpose(1, 0, 2))
    return out


def ref_local2d(x, w, b, g, stride):
    sh, sw = stride
    bsz = x.shape[0]
    oh, ow, co, _, kh, kw = w.shape
    wp = w.reshape(oh * ow, co, -1)
    cp = ref_im2col(x, kh, kw, sh, sw, 0, 0).reshape(-1, oh * ow, bsz).transpose(1, 0, 2)
    y = images(by_position(wp, cp) + b.reshape(co, -1, 1), bsz, oh, ow)
    gp = maps_first(g).reshape(co, oh * ow, bsz).transpose(1, 0, 2)
    dcols = by_position(wp.transpose(0, 2, 1), gp)
    dx = ref_col2im(dcols, x.shape, kh, kw, sh, sw, 0, 0)
    return y, [accumulated(dx, x), accumulated((gp @ cp.transpose(0, 2, 1)).reshape(w.shape), w),
               accumulated(g.sum(axis=0), b)]


# --- comparison -------------------------------------------------------------

def run_op(op, x, w, b, g_of_shape, args):
    xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
    out = getattr(T, op)(xt, wt, bt, *args)
    g = g_of_shape(out.data.shape)
    out._backward_fn(g)
    return out.data, g, [xt.grad, wt.grad, bt.grad]


def assert_same(dtype, want, got, what):
    assert got.shape == want.shape and got.dtype == want.dtype, what
    if dtype == np.float32:
        zero = got.dtype.type(0)
        assert np.ascontiguousarray(got + zero).tobytes() == np.ascontiguousarray(want).tobytes(), what
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), what


geometry = dict(
    batch=st.integers(1, 64),
    maps=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    kernel=st.sampled_from([1, 3]),
    stride=st.sampled_from(STRIDES),
    size=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    orders=st.tuples(st.sampled_from(sorted(MEMORY_ORDERS)), st.sampled_from(sorted(MEMORY_ORDERS))),
    dtype=st.sampled_from([np.float32, np.float32, np.float64]),
    data=st.data(),
)


def draw_inputs(data, dtype, orders, x_shape, w_shape, b_shape):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = MEMORY_ORDERS[orders[0]](rng.standard_normal(x_shape).astype(dtype))
    w = rng.standard_normal(w_shape).astype(dtype)
    b = rng.standard_normal(b_shape).astype(dtype)
    return x, w, b, lambda shape: MEMORY_ORDERS[orders[1]](rng.standard_normal(shape).astype(dtype))


def check(dtype, op, ref, x, w, b, g_of_shape, args):
    y, g, grads = run_op(op, x, w, b, g_of_shape, args)
    want_y, want_grads = ref(x, w, b, g, *args)
    assert_same(dtype, want_y, y, "forward")
    for what, want, got in zip(("dx", "dw", "db"), want_grads, grads):
        assert_same(dtype, want, got, what)


@settings(max_examples=40, deadline=None, database=None)
@given(**geometry)
def test_conv2d_matches_reference(batch, maps, kernel, stride, size, orders, dtype, data):
    pad = (data.draw(st.integers(0, kernel)), data.draw(st.integers(0, kernel)))
    assume(min(T.conv_output_size(n, kernel, s, p) for n, s, p in zip(size, stride, pad)) >= 1)
    ci, co = maps
    x, w, b, g_of_shape = draw_inputs(data, dtype, orders, (batch, ci, *size),
                                      (co, ci, kernel, kernel), (co,))
    check(dtype, "conv2d", ref_conv2d, x, w, b, g_of_shape, (stride, pad))


@settings(max_examples=40, deadline=None, database=None)
@given(**geometry)
def test_tconv2d_matches_reference(batch, maps, kernel, stride, size, orders, dtype, data):
    pad = (data.draw(st.integers(0, kernel - 1)), data.draw(st.integers(0, kernel - 1)))
    outpad = (data.draw(st.integers(0, stride[0] - 1)), data.draw(st.integers(0, stride[1] - 1)))
    assume(min(T.tconv_output_size(n, kernel, s, p, q)
               for n, s, p, q in zip(size, stride, pad, outpad)) >= 1)
    ci, co = maps
    x, w, b, g_of_shape = draw_inputs(data, dtype, orders, (batch, ci, *size),
                                      (ci, co, kernel, kernel), (co,))
    check(dtype, "tconv2d", ref_tconv2d, x, w, b, g_of_shape, (stride, pad, outpad))


@settings(max_examples=30, deadline=None, database=None)
@given(**geometry)
def test_local2d_matches_reference(batch, maps, kernel, stride, size, orders, dtype, data):
    oh, ow = (T.conv_output_size(n, kernel, s, 0) for n, s in zip(size, stride))
    assume(min(oh, ow) >= 1)
    ci, co = maps
    x, w, b, g_of_shape = draw_inputs(data, dtype, orders, (batch, ci, *size),
                                      (oh, ow, co, ci, kernel, kernel), (co, oh, ow))
    check(dtype, "local2d", ref_local2d, x, w, b, g_of_shape, (stride,))


@pytest.mark.parametrize("batch", [16, 64, 256])
def test_desk_geometries_match_reference(batch):
    # the desk networks' layers: the generator's transposed convs (one input
    # map, then eight), the critic's stride-3 conv, the classifier's same
    # convs and its 1x1 locally connected layer
    rng = np.random.default_rng(batch)
    chwb = MEMORY_ORDERS["chwb"]

    def arrays(*shapes):
        return [(0.1 * rng.standard_normal(s)).astype(np.float32) for s in shapes]

    def upstream(shape):
        return chwb(rng.standard_normal(shape).astype(np.float32))

    for ci, co, width in ((1, 8, 8), (8, 4, 16)):
        x, w, b = arrays((batch, ci, 10, width), (ci, co, 3, 3), (co,))
        check(np.float32, "tconv2d", ref_tconv2d, chwb(x), w, b, upstream,
              ((1, 2), (1, 1), (0, 1)))
    x, w, b = arrays((batch, 1, 10, 3), (16, 1, 3, 3), (16,))
    check(np.float32, "conv2d", ref_conv2d, x, w, b, upstream, ((3, 3), (0, 0)))
    for ci, width in ((1, 8), (8, 8), (8, 3)):
        x, w, b = arrays((batch, ci, 10, width), (8, ci, 3, 3), (8,))
        check(np.float32, "conv2d", ref_conv2d, chwb(x), w, b, upstream, ((1, 1), (1, 1)))
    x, w, b = arrays((batch, 8, 10, 8), (10, 8, 8, 8, 1, 1), (8, 10, 8))
    check(np.float32, "local2d", ref_local2d, chwb(x), w, b, upstream, ((1, 1),))
