import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vimu import sigproc
from vimu.sigproc import MultichannelSeries, PreprocSpec

CHAINS = {
    "gan_chain_semg": (sigproc.gan_chain_semg, "semg"),
    "hgr_chain_semg": (sigproc.hgr_chain_semg, "semg"),
    "imu_chain": (sigproc.imu_chain, "acc"),
}


@st.composite
def chain_case(draw):
    """A rate, a chain spec valid at that rate, and a frame count the chain accepts."""
    rate = draw(st.sampled_from([50.0, 100.0, 200.0, 1000.0, 2000.0, 2040.0]))
    decimation = draw(st.integers(1, 6))
    # windows of 1 to 40 samples, written in milliseconds as a config would
    rms_ms, mavg_ms = (1000.0 * draw(st.integers(1, 40)) / rate for _ in range(2))
    cutoff = draw(st.floats(0.001, 0.45)) * rate
    spec = PreprocSpec(decimation=decimation, rms_ms=rms_ms, mavg_ms=mavg_ms, butter_cutoff_hz=cutoff)
    frames = draw(st.integers(decimation, 300))
    return rate, spec, frames


@settings(max_examples=60, deadline=None, database=None)
@given(case=chain_case(), name=st.sampled_from(sorted(CHAINS)),
       widths=st.tuples(st.integers(1, 4), st.integers(1, 4)), seed=st.integers(0, 2**32 - 1))
def test_chain_on_series_side_by_side_equals_chains_apart(case, name, widths, seed):
    # extract_windows runs each chain once over many trials placed side by
    # side; that is exact only because every stage works column by column.
    rate, spec, frames = case
    chain, modality = CHAINS[name]
    rng = np.random.default_rng(seed)
    parts = [MultichannelSeries(3.0 * rng.standard_normal((frames, c)), rate, modality) for c in widths]
    joined = chain(MultichannelSeries(np.concatenate([p.data for p in parts], axis=1), rate, modality),
                   spec)
    apart = [chain(p, spec) for p in parts]
    assert joined.sample_rate_hz == apart[0].sample_rate_hz
    assert joined.data.tobytes() == np.concatenate([a.data for a in apart], axis=1).tobytes()


@settings(max_examples=40, deadline=None, database=None)
@given(frames=st.integers(1, 50), channels=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_rectification_is_idempotent(frames, channels, seed):
    s = MultichannelSeries(np.random.default_rng(seed).standard_normal((frames, channels)), 200.0, "semg")
    once = sigproc.rectify(s)
    assert np.array_equal(sigproc.rectify(once).data, once.data)
    assert np.all(once.data >= 0)


@settings(max_examples=40, deadline=None, database=None)
@given(value=st.floats(-1e3, 1e3), frames=st.integers(1, 200), width=st.integers(1, 60),
       channels=st.integers(1, 4))
def test_moving_average_of_a_constant_is_that_constant(value, frames, width, channels):
    s = MultichannelSeries(np.full((frames, channels), value), 100.0, "acc")
    out = sigproc.moving_average(s, 1000.0 * width / 100.0).data
    assert np.allclose(out, value, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None, database=None)
@given(value=st.floats(-1e3, 1e3), ratio=st.floats(0.01, 0.45), rate=st.sampled_from([100.0, 2000.0]))
def test_butterworth_dc_gain_is_one(value, ratio, rate):
    k = math.tan(math.pi * ratio)
    a1 = (k - 1.0) / (k + 1.0)
    # the step response settles as |a1|^n: run until that is below 1e-12
    frames = 2 + int(math.log(1e-12) / math.log(max(abs(a1), 1e-12)))
    s = MultichannelSeries(np.full((frames, 2), value), rate, "semg")
    out = sigproc.butter_lowpass1(s, ratio * rate).data
    assert np.allclose(out[-1], value, rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None, database=None)
@given(frames=st.integers(1, 500), factor=st.integers(1, 12), rate=st.floats(1.0, 5000.0))
def test_decimation_keeps_ceil_n_over_f_frames(frames, factor, rate):
    assume(frames >= factor)
    out = sigproc.decimate(MultichannelSeries(np.zeros((frames, 2)), rate, "acc"), factor)
    assert out.frames == -(-frames // factor)
    assert out.sample_rate_hz == rate / factor


@settings(max_examples=40, deadline=None, database=None)
@given(frames=st.integers(1, 60), channels=st.sampled_from([1, 3, 63, 64, 300]),
       width=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_trailing_window_sums_equal_the_cumsum_reference(frames, channels, width, seed):
    # large arrays take a row loop instead of np.cumsum(axis=0); by either
    # route the bytes must be those of the cumsum reference, also when the
    # window covers every frame
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((frames, channels)) * 10.0 ** rng.uniform(-3, 3, channels)
    csum = np.cumsum(values, axis=0)
    want = csum.copy()
    if width < frames:
        want[width:] = csum[width:] - csum[:-width]
    for min_bytes in (0, sigproc._ROW_LOOP_MIN_BYTES):
        with mock.patch.object(sigproc, "_ROW_LOOP_MIN_BYTES", min_bytes):
            sums, counts = sigproc._trailing_window_sums(values, width)
        assert sums.dtype == want.dtype and sums.tobytes() == want.tobytes()
        assert np.array_equal(counts[:, 0], np.minimum(np.arange(1, frames + 1), width))


@settings(max_examples=80, deadline=None, database=None)
@given(rate=st.sampled_from([50.0, 200.0, 2000.0, 2040.0]), decimation=st.integers(1, 6),
       frames=st.integers(1, 120), channels=st.sampled_from([1, 3, 64, 70]),
       width=st.integers(1, 160), ratio=st.floats(0.001, 0.45), row_loop=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_filters_that_decimate_equal_filter_then_decimate(rate, decimation, frames, channels, width,
                                                          ratio, row_loop, seed):
    # the filters keep only every d-th frame themselves; the frames kept, their
    # bytes and the rate must be those of the full-rate filter then decimate,
    # by either running-sum route and also when the window covers every frame
    assume(frames >= decimation)
    rng = np.random.default_rng(seed)
    s = MultichannelSeries(3.0 * rng.standard_normal((frames, channels)), rate, "semg")
    window_ms = 1000.0 * width / rate
    filters = {
        "moving_rms": lambda d: sigproc.moving_rms(s, window_ms, d),
        "moving_average": lambda d: sigproc.moving_average(s, window_ms, d),
        "butter_lowpass1": lambda d: sigproc.butter_lowpass1(s, ratio * rate, d),
    }
    before = s.data.tobytes()
    with mock.patch.object(sigproc, "_ROW_LOOP_MIN_BYTES", 0 if row_loop else sigproc._ROW_LOOP_MIN_BYTES):
        for name, run in filters.items():
            fused, composed = run(decimation), sigproc.decimate(run(1), decimation)
            assert fused.sample_rate_hz == composed.sample_rate_hz, name
            assert fused.data.shape == composed.data.shape, name
            assert fused.data.tobytes() == composed.data.tobytes(), name
    assert s.data.tobytes() == before


@pytest.mark.parametrize("frames", [1, 5])
def test_filters_reject_a_series_shorter_than_the_decimation(frames):
    s = MultichannelSeries(np.ones((frames, 2)), 200.0, "semg")
    for run in (lambda: sigproc.moving_rms(s, 50.0, 6), lambda: sigproc.moving_average(s, 50.0, 6),
                lambda: sigproc.butter_lowpass1(s, 10.0, 6), lambda: sigproc.decimate(s, 6)):
        with pytest.raises(ValueError, match=f"series of {frames} frames is shorter than factor 6"):
            run()


def _reference_norm(data, stats, mode):
    """The whole-array expressions apply_norm computed before it worked in place."""
    arr = np.asarray(data, dtype=np.float64)
    if mode == "minmax_pm1":
        span = stats.maximum - stats.minimum
        safe = np.where(span == 0, 1.0, span)
        return np.where(span == 0, 0.0, 2.0 * (arr - stats.minimum) / safe - 1.0)
    safe = np.where(stats.std == 0, 1.0, stats.std)
    return np.where(stats.std == 0, 0.0, (arr - stats.mean) / safe)


def _reference_inverse(arr, stats, mode):
    """The whole-array expressions invert_norm computed before it worked in place."""
    arr = np.asarray(arr, dtype=np.float64)
    if mode == "minmax_pm1":
        return (arr + 1.0) / 2.0 * (stats.maximum - stats.minimum) + stats.minimum
    return arr * stats.std + stats.mean


@settings(max_examples=80, deadline=None, database=None)
@given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3), channels=st.integers(1, 5),
       dtype=st.sampled_from([np.float32, np.float64]), mode=st.sampled_from(["zscore", "minmax_pm1"]),
       constant=st.lists(st.booleans(), min_size=5, max_size=5), seed=st.integers(0, 2**32 - 1))
def test_in_place_normalization_equals_the_whole_array_expressions(shape, channels, dtype, mode,
                                                                  constant, seed):
    # Fitted on data whose constant channels are degenerate, applied to
    # fresh data: every byte of both directions matches the reference.
    rng = np.random.default_rng(seed)
    fit = (5.0 * rng.standard_normal((*shape, channels))).astype(dtype)
    fit[..., np.array(constant[:channels])] = dtype(1.5)
    stats = sigproc.fit_stats(fit)
    data = (5.0 * rng.standard_normal((*shape, channels))).astype(dtype)
    before = data.copy()
    out = sigproc.apply_norm(data, stats, mode)
    assert out.dtype == np.float64
    assert out.tobytes() == _reference_norm(data, stats, mode).tobytes()
    back = sigproc.invert_norm(out.astype(dtype), stats, mode)
    assert back.dtype == np.float64
    assert back.tobytes() == _reference_inverse(out.astype(dtype), stats, mode).tobytes()
    assert data.tobytes() == before.tobytes()  # the input is left as it was
