"""Finite-difference spot checks per layer kind (the acceptance module runs
the full randomized sweep)."""
import contextlib

import numpy as np
import pytest

from vimu.nn import LayerSpec, ParamSet, Tensor, finite_difference_check, grad_check, init_stack_params
from vimu.nn.losses import bce_loss, cross_entropy_loss
from vimu.nn import tensor as T


def _check_stack(layers, in_shape, batch=3, seed=0, mode="train"):
    params = init_stack_params(layers, in_shape, seed=seed, dtype=np.float64)
    x = np.random.default_rng(seed + 100).standard_normal((batch,) + tuple(in_shape))
    report = grad_check(layers, params, x, mode=mode)
    assert report.passed, report.max_rel_error
    return report


def test_conv2d_gradients():
    _check_stack([LayerSpec("conv2d", "c", maps=3, kernel=(3, 3), stride=(1, 1), padding="same")], (2, 5, 4))
    _check_stack([LayerSpec("conv2d", "c", maps=2, kernel=(3, 3), stride=(3, 3))], (1, 7, 9))


def test_tconv2d_gradients():
    _check_stack(
        [LayerSpec("tconv2d", "t", maps=3, kernel=(3, 3), stride=(1, 2), padding=(1, 1), output_padding=(0, 1))],
        (2, 4, 3),
    )


def test_locally_connected_gradients():
    _check_stack([LayerSpec("locally_connected", "l", maps=2, kernel=(1, 1), stride=(1, 1))], (3, 3, 4))
    _check_stack([LayerSpec("locally_connected", "l", maps=2, kernel=(2, 2), stride=(2, 2))], (2, 4, 4))


def test_dense_gradients():
    _check_stack([LayerSpec("flatten", "f"), LayerSpec("dense", "d", units=5)], (2, 3, 3))


def test_batchnorm_train_mode_gradients():
    _check_stack([LayerSpec("batchnorm", "bn")], (3, 4, 2), batch=4)
    _check_stack([LayerSpec("flatten", "f"), LayerSpec("batchnorm", "bn")], (5,), batch=6)


def test_dropout_frozen_mask_gradients():
    _check_stack(
        [LayerSpec("dropout", "d", rate=0.35), LayerSpec("flatten", "f"), LayerSpec("dense", "fc", units=3)],
        (2, 3, 3),
    )


def test_activation_gradients():
    for kind in ("relu", "leaky_relu", "tanh", "sigmoid"):
        _check_stack([LayerSpec(kind, "a"), LayerSpec("flatten", "f")], (2, 3, 2))
    _check_stack([LayerSpec("flatten", "f"), LayerSpec("dense", "d", units=4), LayerSpec("softmax", "s")], (3, 2, 2))


def test_bce_loss_gradients():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.standard_normal((6, 1)), requires_grad=True)
    target = (rng.random(6) > 0.5).astype(float)[:, None]

    def make_loss():
        return bce_loss(T.sigmoid_act(logits), target)

    report = finite_difference_check(make_loss, {"logits": logits})
    assert report.passed, report.max_rel_error


def test_cross_entropy_gradients():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=5)

    def make_loss():
        return cross_entropy_loss(T.softmax_rows(logits), labels)

    report = finite_difference_check(make_loss, {"logits": logits})
    assert report.passed, report.max_rel_error


def test_nonsaturating_generator_loss_gradients():
    # the generator's loss: cross-entropy of its critic scores against the real label
    rng = np.random.default_rng(9)
    logits = Tensor(rng.standard_normal((6, 1)), requires_grad=True)

    def make_loss():
        return bce_loss(T.sigmoid_act(logits), np.ones((6, 1)))

    report = finite_difference_check(make_loss, {"logits": logits})
    assert report.passed, report.max_rel_error


def test_concat_input_gradients():
    rng = np.random.default_rng(10)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)

    def make_loss():
        return T.sum_all(T.tanh_act(T.concat([a, b], axis=1)))

    report = finite_difference_check(make_loss, {"a": a, "b": b})
    assert report.passed, report.max_rel_error


def test_identity_network_has_zero_error():
    layers = [LayerSpec("flatten", "f")]
    params = init_stack_params(layers, (2, 2), seed=0, dtype=np.float64)
    x = np.random.default_rng(11).standard_normal((2, 2, 2))
    report = grad_check(layers, params, x)
    assert report.worst() == pytest.approx(0.0, abs=1e-9)


def test_gradcheck_catches_wrong_gradients(monkeypatch):
    # sanity of the oracle itself: corrupt one backward rule and expect a failure
    original = T.tanh_act

    def broken(x):
        y = np.tanh(x.data)

        def bwd(g):
            T._accum(x, g * (1.0 - y * y) * 1.5)

        return Tensor(y, parents=(x,), backward_fn=bwd)

    monkeypatch.setattr(T, "tanh_act", broken)
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

    def make_loss():
        return T.sum_all(T.tanh_act(x))

    report = finite_difference_check(make_loss, {"x": x})
    monkeypatch.setattr(T, "tanh_act", original)
    assert not report.passed


FROZEN_OPS = {
    # op, then the x, w and b shapes
    "dense": (T.dense, (4, 6), (6, 3), (3,)),
    "conv2d": (lambda x, w, b: T.conv2d(x, w, b, (1, 2), (1, 1)), (2, 3, 5, 4), (4, 3, 3, 3), (4,)),
    "tconv2d": (lambda x, w, b: T.tconv2d(x, w, b, (1, 2), (1, 1), (0, 1)), (2, 3, 4, 3), (3, 2, 3, 3), (2,)),
    "local2d": (lambda x, w, b: T.local2d(x, w, b, (1, 1)), (2, 3, 4, 4), (3, 3, 2, 3, 2, 2), (2, 3, 3)),
}


@pytest.mark.parametrize("name", sorted(FROZEN_OPS))
def test_frozen_weights_get_no_gradient_and_leave_the_input_gradient_alone(name):
    op, *shapes = FROZEN_OPS[name]
    rng = np.random.default_rng(3)
    x_data, w_data, b_data = (rng.standard_normal(s).astype(np.float32) for s in shapes)

    def run(params, frozen):
        x = Tensor(x_data.copy(), requires_grad=True)
        with params.frozen() if frozen else contextlib.nullcontext():
            T.sum_all(T.tanh_act(op(x, params["w"], params["b"]))).backward()
        return x.grad

    live, frozen = ParamSet(), ParamSet()
    for params in (live, frozen):
        params.add_param("w", w_data.copy())
        params.add_param("b", b_data.copy())
    want = run(live, frozen=False)
    got = run(frozen, frozen=True)
    assert live["w"].grad is not None and live["b"].grad is not None
    assert frozen["w"].grad is None and frozen["b"].grad is None
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert frozen["w"].requires_grad and frozen["b"].requires_grad


def test_frozen_block_restores_requires_grad_after_an_error():
    params = ParamSet()
    params.add_param("w", np.ones((2, 2)))
    with pytest.raises(RuntimeError), params.frozen():
        assert not params["w"].requires_grad
        raise RuntimeError("inside the block")
    assert params["w"].requires_grad
