import math

import numpy as np
import pytest

from vimu.nn import AdamState, ParamSet, SgdState, adam_step, sgd_step
from vimu.nn.losses import bce_loss, cross_entropy_loss
from vimu.nn.tensor import Tensor


class TestBce:
    def test_half_probability(self):
        loss = bce_loss(Tensor(np.array([0.5])), np.array([1.0]))
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-9)

    def test_point_nine(self):
        loss = bce_loss(Tensor(np.array([0.9])), np.array([1.0]))
        assert float(loss.data) == pytest.approx(-math.log(0.9), rel=1e-9)

    def test_symmetric_on_zero_target(self):
        loss = bce_loss(Tensor(np.array([0.1])), np.array([0.0]))
        assert float(loss.data) == pytest.approx(-math.log(0.9), rel=1e-9)

    def test_clamped_at_extremes(self):
        loss = bce_loss(Tensor(np.array([0.0])), np.array([1.0]))
        assert np.isfinite(float(loss.data))

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.array([0.5])), np.array([0.3]))


class TestCrossEntropy:
    def test_uniform_is_log_classes(self):
        for g in (2, 4, 9):
            probs = Tensor(np.full((3, g), 1.0 / g))
            loss = cross_entropy_loss(probs, np.array([0, 1, g - 1]))
            assert float(loss.data) == pytest.approx(math.log(g), rel=1e-6)

    def test_label_out_of_range(self):
        probs = Tensor(np.full((2, 3), 1.0 / 3))
        with pytest.raises(ValueError):
            cross_entropy_loss(probs, np.array([0, 3]))

    def test_confident_correct_is_small(self):
        probs = Tensor(np.array([[0.999, 0.0005, 0.0005]]))
        loss = cross_entropy_loss(probs, np.array([0]))
        assert float(loss.data) == pytest.approx(-math.log(0.999), rel=1e-6)


class TestSgdSchedule:
    def test_decay_points(self):
        sched = SgdState()
        assert sched.learning_rate(0) == 0.1
        assert sched.learning_rate(15) == 0.1
        assert sched.learning_rate(16) == 0.01
        assert sched.learning_rate(23) == 0.01
        assert sched.learning_rate(24) == 0.001
        assert sched.learning_rate(27) == 0.001

    def test_full_trace(self):
        sched = SgdState()
        trace = [sched.learning_rate(e) for e in range(28)]
        assert trace == [0.1] * 16 + [0.01] * 8 + [0.001] * 4

    def test_zero_grad_no_motion(self):
        params = ParamSet()
        params.add_param("w", np.ones(3))
        params["w"].grad = np.zeros(3)
        sgd_step(SgdState(), params, epoch=0)
        assert np.array_equal(params["w"].data, np.ones(3))


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # single scalar, grad 1: bias-corrected first update is lr / (1 + eps)
        params = ParamSet()
        params.add_param("w", np.array([1.0]))
        params["w"].grad = np.array([1.0])
        state = AdamState(learning_rate=2e-4)
        adam_step(state, params)
        assert float(params["w"].data[0]) == pytest.approx(1.0 - 2e-4, abs=1e-8)

    def test_zero_grad_zero_moments_no_motion(self):
        params = ParamSet()
        params.add_param("w", np.array([3.0, -2.0]))
        params["w"].grad = np.zeros(2)
        adam_step(AdamState(), params)
        assert np.array_equal(params["w"].data, [3.0, -2.0])

    def test_descends_a_quadratic(self):
        params = ParamSet()
        params.add_param("w", np.array([5.0]))
        state = AdamState(learning_rate=0.1)
        for _ in range(200):
            params["w"].grad = 2.0 * params["w"].data
            adam_step(state, params)
        assert abs(float(params["w"].data[0])) < 0.5

    def test_state_tracks_step_count(self):
        params = ParamSet()
        params.add_param("w", np.ones(1))
        params["w"].grad = np.ones(1)
        state = AdamState()
        adam_step(state, params)
        adam_step(state, params)
        assert state.step_count == 2


# --- updates of a whole parameter set ---------------------------------------

# "f" alone is longer than one block of the optimizers' walk over the vector
SHAPES = {"a": (3, 4), "b": (5,), "c": (2, 3, 2), "d": (1,), "f": (300, 250), "e": (4, 1, 2)}


def mixed_params(seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    params = ParamSet()
    for name, shape in SHAPES.items():
        params.add_param(name, rng.standard_normal(shape).astype(dtype))
    return params


def reference_adam(values, grads_per_step, lr=2e-4, beta1=0.5, beta2=0.999, eps=1e-8):
    # the update written tensor by tensor
    values = {k: v.copy() for k, v in values.items()}
    m = {k: np.zeros_like(v) for k, v in values.items()}
    s = {k: np.zeros_like(v) for k, v in values.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
        for k, g in grads.items():
            m[k] *= beta1
            m[k] += (1.0 - beta1) * g
            s[k] *= beta2
            s[k] += (1.0 - beta2) * (g * g)
            values[k] -= lr * (m[k] / c1) / (np.sqrt(s[k] / c2) + eps)
    return values


def random_grads(rng, steps, dtype=np.float32):
    return [{k: rng.standard_normal(s).astype(dtype) for k, s in SHAPES.items()} for _ in range(steps)]


def assert_bytes_equal(got: dict, want: dict):
    assert list(got) == list(want)
    for k in want:
        assert got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes(), k


class TestFlatVectors:
    def test_twenty_adam_steps_match_the_per_tensor_update(self):
        params = mixed_params()
        start = {k: v.copy() for k, v in params.state_dict().items()}
        grads = random_grads(np.random.default_rng(1), 20)
        state = AdamState(learning_rate=2e-4)
        for step in grads:
            for k, g in step.items():
                params[k].grad = g
            adam_step(state, params)
        assert_bytes_equal(params.state_dict(), reference_adam(start, grads))

    def test_twenty_sgd_steps_match_the_per_tensor_update(self):
        params = mixed_params()
        want = {k: v.copy() for k, v in params.state_dict().items()}
        rng = np.random.default_rng(2)
        sched = SgdState(decay_epochs=(8, 14))
        for epoch in range(20):
            for k, s in SHAPES.items():
                # some parameters get no gradient; they must not move
                g = rng.standard_normal(s).astype(np.float32) if (epoch + len(k)) % 3 else None
                params[k].grad = g
                if g is not None:
                    want[k] -= sched.learning_rate(epoch) * g
            sgd_step(sched, params, epoch)
        assert_bytes_equal(params.state_dict(), want)

    @pytest.mark.parametrize("how", ["load_state_dict", "copy", "astype", "rebind", "rebind_after_step"])
    def test_updates_reach_the_parameters(self, how):
        source = mixed_params(seed=3)
        params = mixed_params(seed=4)
        if how in ("load_state_dict", "rebind_after_step"):
            params.load_state_dict(source.state_dict())
        elif how == "copy":
            params = source.copy()
        elif how == "astype":
            params = source.astype(np.float64).astype(np.float32)
        else:  # a caller that assigns new arrays to .data
            for k, p in params.params.items():
                p.data = source[k].data.copy()
        # same names, order and bytes as the source, and independent of it
        assert_bytes_equal(params.state_dict(), source.state_dict())
        if how != "load_state_dict":
            assert not any(np.shares_memory(params[k].data, source[k].data) for k in SHAPES)
        start = {k: v.copy() for k, v in params.state_dict().items()}
        grads = random_grads(np.random.default_rng(5), 3)
        state = AdamState(learning_rate=1e-2)
        for i, step in enumerate(grads):
            if how == "rebind_after_step" and i == 1:
                for p in params.params.values():
                    p.data = p.data.copy()
            for k, g in step.items():
                params[k].grad = g
            adam_step(state, params)
        assert_bytes_equal(params.state_dict(), reference_adam(start, grads, lr=1e-2))
        assert_bytes_equal(source.state_dict(), mixed_params(seed=3).state_dict())

    def test_a_parameter_without_a_gradient_moves_as_if_it_were_zero(self):
        params = mixed_params()
        start = {k: v.copy() for k, v in params.state_dict().items()}
        grads = random_grads(np.random.default_rng(6), 3)
        state = AdamState(learning_rate=1e-2)
        for i, step in enumerate(grads):
            for k, g in step.items():
                # "c" has a gradient at the first step only; its moments then decay
                params[k].grad = None if k == "c" and i else g
            adam_step(state, params)
        for step in grads[1:]:
            step["c"] = np.zeros(SHAPES["c"], dtype=np.float32)
        assert_bytes_equal(params.state_dict(), reference_adam(start, grads, lr=1e-2))

    def test_a_grown_parameter_set_raises(self):
        params = mixed_params()
        state = AdamState(learning_rate=1e-2)
        adam_step(state, params)
        params.add_param("z", np.ones(3, dtype=np.float32))
        before = {k: v.copy() for k, v in params.state_dict().items()}
        with pytest.raises(ValueError, match="moments hold"):
            adam_step(state, params)
        assert state.step_count == 1
        assert_bytes_equal(params.state_dict(), before)

    def test_mixed_dtypes_raise(self):
        params = mixed_params()
        params.add_param("z", np.ones(3, dtype=np.float64))
        state = AdamState()
        with pytest.raises(ValueError, match="one dtype"):
            adam_step(state, params)
        assert state.step_count == 0 and state.m is None
