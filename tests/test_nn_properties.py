import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vimu.nn import tensor as T
from vimu.nn.tensor import Tensor


@settings(max_examples=60, deadline=None, database=None)
@given(
    kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    size=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    maps=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    batch=st.integers(1, 4),
    data=st.data(),
)
def test_tconv2d_is_the_adjoint_of_conv2d_for_any_geometry(kernel, stride, size, maps, batch, data):
    # <conv(x), y> == <x, tconv(y)>, for every padding and output padding the geometry allows
    pad = tuple(data.draw(st.integers(0, k - 1)) for k in kernel)
    outpad = tuple(data.draw(st.integers(0, s - 1)) for s in stride)
    out_size = [T.tconv_output_size(n, k, s, p, q)
                for n, k, s, p, q in zip(size, kernel, stride, pad, outpad)]
    assume(min(out_size) >= 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weight = Tensor(rng.standard_normal((maps[0], maps[1], *kernel)))
    y = rng.standard_normal((batch, maps[0], *size))
    ty = T.tconv2d(Tensor(y), weight, Tensor(np.zeros(maps[1])), stride, pad, outpad).data
    assert ty.shape == (batch, maps[1], *out_size)
    x = rng.standard_normal(ty.shape)
    cx = T.conv2d(Tensor(x), weight, Tensor(np.zeros(maps[0])), stride, pad).data
    assert cx.shape == y.shape
    assert np.isclose(np.vdot(cx, y), np.vdot(x, ty), rtol=1e-10, atol=1e-10)
