import numpy as np
import pytest

from vimu.errors import ConfigError
from vimu.nn import LayerSpec, ParamSet, init_stack_params, run_stack, stack_output_shape
from vimu.nn import tensor as T
from vimu.nn.tensor import Tensor


def test_identity_kernel_conv_preserves_input():
    # single 3x3 kernel = Kronecker delta at center, same padding, stride 1
    layers = [LayerSpec("conv2d", "c", maps=1, kernel=(3, 3), stride=(1, 1), padding="same")]
    params = init_stack_params(layers, (1, 6, 5), seed=0)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    params["c.w"].data = w
    x = np.random.default_rng(0).standard_normal((2, 1, 6, 5)).astype(np.float32)
    out = run_stack(layers, params, x, mode="eval")
    assert np.allclose(out.data, x, atol=1e-6)


def test_softmax_uniform_on_zero_vector():
    for g in (2, 5, 11):
        out = T.softmax_rows(Tensor(np.zeros((1, g))))
        assert np.allclose(out.data, 1.0 / g)


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(1)
    out = T.softmax_rows(Tensor(rng.standard_normal((20, 7)) * 5))
    assert np.all(out.data > 0)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


TCONV_SHAPE_CASES = [
    (4, 5, (1, 2), (1, 1), (0, 1)), (3, 3, (2, 2), (1, 1), (1, 1)), (6, 2, (1, 3), (0, 0), (0, 2)),
]


@pytest.mark.parametrize("h,w,stride,pad,outpad", TCONV_SHAPE_CASES)
def test_tconv_output_shape_law(h, w, stride, pad, outpad):
    spec = LayerSpec("tconv2d", "t", maps=2, kernel=(3, 3), stride=stride,
                     padding=pad, output_padding=outpad)
    out = stack_output_shape([spec], (1, h, w))
    expect_h = (h - 1) * stride[0] + 3 - 2 * pad[0] + outpad[0]
    expect_w = (w - 1) * stride[1] + 3 - 2 * pad[1] + outpad[1]
    assert out == (2, expect_h, expect_w)


def test_tconv_spec_example_doubles_width():
    spec = LayerSpec("tconv2d", "t", maps=8, kernel=(3, 3), stride=(1, 2),
                     padding=(1, 1), output_padding=(0, 1))
    for h, w in ((20, 12), (20, 8), (7, 5)):
        assert stack_output_shape([spec], (1, h, w)) == (8, h, 2 * w)


def test_batchnorm_normalizes_batch_statistics():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((16, 3, 4, 5)) * 3 + 7)
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3), requires_grad=True)
    out, mu, var = T.batchnorm_train(x, gamma, beta, eps=1e-9)
    assert np.all(np.abs(out.data.mean(axis=(0, 2, 3))) < 1e-6)
    assert np.all(np.abs(out.data.var(axis=(0, 2, 3)) - 1.0) < 1e-5)


def test_batchnorm_eval_uses_running_stats():
    layers = [LayerSpec("batchnorm", "bn")]
    params = init_stack_params(layers, (3,), seed=0)
    params.buffers["bn.mean"] = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    params.buffers["bn.var"] = np.array([4.0, 4.0, 4.0], dtype=np.float32)
    x = np.array([[3.0, 4.0, 5.0]], dtype=np.float32)
    out = run_stack(layers, params, x, mode="eval")
    assert np.allclose(out.data, [[1.0, 1.0, 1.0]], atol=1e-3)


def test_batchnorm_running_stats_update_only_when_asked():
    layers = [LayerSpec("batchnorm", "bn", momentum=0.9)]
    params = init_stack_params(layers, (2,), seed=0)
    x = np.random.default_rng(3).standard_normal((8, 2)).astype(np.float32)
    before = params.buffers["bn.mean"].copy()
    run_stack(layers, params, x, mode="train", update_stats=False)
    assert np.array_equal(params.buffers["bn.mean"], before)
    run_stack(layers, params, x, mode="train", update_stats=True)
    expected = 0.9 * before + 0.1 * x.mean(axis=0)
    assert np.allclose(params.buffers["bn.mean"], expected, atol=1e-6)


def test_dropout_eval_identity_and_train_expectation():
    layers = [LayerSpec("dropout", "d", rate=0.4)]
    params = ParamSet()
    x = np.ones((4, 10), dtype=np.float64)
    out_eval = run_stack(layers, params, x, mode="eval")
    assert np.array_equal(out_eval.data, x)
    # inverted dropout: the expected output equals the input
    rng = np.random.default_rng(4)
    acc = np.zeros_like(x)
    trials = 4000
    for _ in range(trials):
        acc += run_stack(layers, params, x, mode="train", rng=rng).data
    assert np.allclose(acc / trials, x, atol=0.05)


def test_dropout_requires_rng_in_train_mode():
    layers = [LayerSpec("dropout", "d", rate=0.2)]
    with pytest.raises(ConfigError):
        run_stack(layers, ParamSet(), np.ones((2, 2)), mode="train")


def test_conv_same_and_lc_1x1_preserve_spatial_dims():
    conv = LayerSpec("conv2d", "c", maps=4, kernel=(3, 3), stride=(1, 1), padding="same")
    lc = LayerSpec("locally_connected", "l", maps=4, kernel=(1, 1), stride=(1, 1))
    for shape in ((1, 20, 12), (1, 20, 3), (2, 9, 5)):
        assert stack_output_shape([conv], shape)[1:] == shape[1:]
        assert stack_output_shape([lc], shape)[1:] == shape[1:]


def test_locally_connected_has_position_specific_weights():
    layers = [LayerSpec("locally_connected", "l", maps=1, kernel=(1, 1), stride=(1, 1))]
    params = init_stack_params(layers, (1, 2, 2), seed=0, dtype=np.float64)
    # weight (oh, ow, out, in, kh, kw): give each position a distinct gain
    params["l.w"].data = np.arange(1.0, 5.0).reshape(2, 2, 1, 1, 1, 1)
    params["l.b"].data = np.zeros((1, 2, 2))
    x = np.ones((1, 1, 2, 2))
    out = run_stack(layers, params, x, mode="eval")
    assert np.allclose(out.data[0, 0], [[1.0, 2.0], [3.0, 4.0]])


def _conv_reference(x, w, b, stride, pad):
    # direct sum over the kernel window at every output position
    (sh, sw), (ph, pw) = stride, pad
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    kh, kw = w.shape[2:]
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    out = np.empty((x.shape[0], w.shape[0], oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
            out[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3])) + b
    return out


@pytest.mark.parametrize("stride", [(1, 1), (2, 1), (3, 3)])
@pytest.mark.parametrize("pad", [(0, 0), (1, 1)])
def test_conv2d_matches_direct_sum(stride, pad):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 8, 7))
    w = rng.standard_normal((4, 3, 3, 2))
    b = rng.standard_normal(4)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad)
    assert np.allclose(out.data, _conv_reference(x, w, b, stride, pad), atol=1e-12)


@pytest.mark.parametrize("h,w,stride,pad,outpad", TCONV_SHAPE_CASES)
def test_tconv2d_is_the_adjoint_of_conv2d(h, w, stride, pad, outpad):
    # <conv(x), y> == <x, tconv(y)> for the same (in_maps, out_maps, kh, kw) weights
    rng = np.random.default_rng(7)
    weight = Tensor(rng.standard_normal((2, 3, 3, 3)))
    y = rng.standard_normal((2, 2, h, w))
    ty = T.tconv2d(Tensor(y), weight, Tensor(np.zeros(3)), stride, pad, outpad).data
    x = rng.standard_normal(ty.shape)
    cx = T.conv2d(Tensor(x), weight, Tensor(np.zeros(2)), stride, pad).data
    assert cx.shape == y.shape
    assert np.isclose(np.vdot(cx, y), np.vdot(x, ty), rtol=1e-12)


@pytest.mark.parametrize("kernel", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_local2d_matches_per_position_reference(kernel, stride):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 2, 7, 6))
    oh = (7 - kernel) // stride + 1
    ow = (6 - kernel) // stride + 1
    w = rng.standard_normal((oh, ow, 4, 2, kernel, kernel))
    b = rng.standard_normal((4, oh, ow))
    out = T.local2d(Tensor(x), Tensor(w), Tensor(b), (stride, stride))
    expect = np.empty((3, 4, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = x[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            expect[:, :, i, j] = np.tensordot(patch, w[i, j], axes=([1, 2, 3], [1, 2, 3])) + b[:, i, j]
    assert np.allclose(out.data, expect, atol=1e-12)


@pytest.mark.parametrize("op", ["conv2d", "tconv2d", "local2d", "batchnorm_train"])
def test_frozen_input_leaves_parameter_gradients_unchanged(op):
    # the input gradient is skipped when the input needs none; nothing else moves
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 2, 5, 4))
    shapes, args = {
        "conv2d": ([(2, 2, 3, 3), (2,)], ((1, 1), (1, 1))),
        "tconv2d": ([(2, 2, 3, 3), (2,)], ((1, 1), (1, 1), (0, 0))),
        "local2d": ([(5, 4, 2, 2, 1, 1), (2, 5, 4)], ((1, 1),)),
        "batchnorm_train": ([(2,), (2,)], (1e-5,)),
    }[op]
    values = [rng.standard_normal(s) for s in shapes]

    def grads(x_requires_grad):
        xt = Tensor(x, requires_grad=x_requires_grad)
        params = [Tensor(v, requires_grad=True) for v in values]
        out = getattr(T, op)(xt, *params, *args)
        T.sum_all(T.tanh_act(out[0] if isinstance(out, tuple) else out)).backward()
        return xt.grad, [p.grad for p in params]

    dx, with_dx = grads(True)
    no_dx, without_dx = grads(False)
    assert dx is not None and no_dx is None
    for a, b in zip(with_dx, without_dx):
        assert np.array_equal(a, b)


def test_flatten_and_dense_shapes():
    layers = [
        LayerSpec("flatten", "f"),
        LayerSpec("dense", "d", units=7),
    ]
    params = init_stack_params(layers, (3, 4, 5), seed=0)
    x = np.random.default_rng(5).standard_normal((2, 3, 4, 5)).astype(np.float32)
    out = run_stack(layers, params, x, mode="eval")
    assert out.data.shape == (2, 7)


def test_shape_mismatch_names_the_layer():
    layers = [LayerSpec("dense", "final", units=3)]
    params = init_stack_params(layers, (5,), seed=0)
    with pytest.raises(ConfigError, match="final"):
        run_stack(layers, params, np.ones((2, 6), dtype=np.float32), mode="eval")


def test_concat_joins_and_splits_gradients():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(2 * np.ones((2, 2)), requires_grad=True)
    joined = T.concat([a, b], axis=1)
    assert joined.data.shape == (2, 5)
    T.sum_all(joined).backward()
    assert np.allclose(a.grad, 1.0) and np.allclose(b.grad, 1.0)


def test_concat_rejected_inside_stack():
    with pytest.raises(ConfigError):
        run_stack([LayerSpec("concat", "cat")], ParamSet(), np.ones((2, 2)))


def test_relu_blocks_gradient_below_zero():
    x = Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
    T.sum_all(T.relu(x)).backward()
    assert np.allclose(x.grad, [[0.0, 1.0]])


def test_dense_linear_gradient_is_outer_product():
    # y = x @ W, loss = sum(y) -> dW = outer(x, ones)
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    w = Tensor(np.zeros((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    T.sum_all(T.dense(x, w, b)).backward()
    assert np.allclose(w.grad, np.outer([1.0, 2.0, 3.0], [1.0, 1.0]))
    assert np.allclose(b.grad, [1.0, 1.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = T.relu(x)
    with pytest.raises(ValueError):
        y.backward()


def test_backward_without_graph_is_an_error():
    t = Tensor(np.array(1.0))
    with pytest.raises(ValueError):
        t.backward()


def test_untouched_parameters_get_zero_gradients():
    from vimu.nn import backprop

    params = ParamSet()
    params.add_param("used", np.ones(3))
    params.add_param("unused", np.ones(2))
    loss = T.sum_all(T.relu(params["used"]))
    backprop(loss, params)
    assert np.allclose(params["used"].grad, 1.0)
    assert np.array_equal(params["unused"].grad, np.zeros(2))


def test_no_grad_context_detaches():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.relu(x)
    assert not y.requires_grad


def test_layer_spec_validation():
    with pytest.raises(ConfigError):
        LayerSpec("conv2d", "c")  # missing maps
    with pytest.raises(ConfigError):
        LayerSpec("dropout", "d", rate=1.0)
    with pytest.raises(ConfigError):
        LayerSpec("tconv2d", "t", maps=1, stride=(1, 1), output_padding=(0, 1))
    with pytest.raises(ConfigError):
        LayerSpec("nonsense", "x")


def test_state_dict_round_trip():
    layers = [
        LayerSpec("conv2d", "c", maps=2, kernel=(3, 3), padding="same"),
        LayerSpec("batchnorm", "bn"),
    ]
    params = init_stack_params(layers, (1, 4, 4), seed=0)
    state = params.state_dict()
    clone = init_stack_params(layers, (1, 4, 4), seed=99)
    clone.load_state_dict(state)
    for name in state:
        got = clone.params[name].data if name in clone.params else clone.buffers[name]
        assert np.array_equal(got, state[name])
