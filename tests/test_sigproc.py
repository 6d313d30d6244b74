import math

import numpy as np
import pytest

from vimu.errors import DataError, ModalityError, StatsMismatchError
from vimu.sigproc import (
    ChannelStats,
    MultichannelSeries,
    PreprocSpec,
    apply_norm,
    butter_lowpass1,
    decimate,
    fit_stats,
    gan_chain_semg,
    hgr_chain_semg,
    invert_norm,
    moving_average,
    moving_rms,
    rectify,
    segment,
    stack_windows,
    window_samples,
)


def series(data, rate=100.0, modality="semg"):
    return MultichannelSeries(np.asarray(data, dtype=np.float64), rate, modality)


# Brute-force oracles: literal loops over the definitions.

def brute_rms(x, width):
    out = np.empty_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        lo = max(0, i - width + 1)
        out[i] = np.sqrt(np.mean(x[lo : i + 1] ** 2, axis=0))
    return out


def brute_mean(x, width):
    out = np.empty_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        lo = max(0, i - width + 1)
        out[i] = np.mean(x[lo : i + 1], axis=0)
    return out


class TestRectify:
    def test_absolute_value(self):
        s = series([[-1, 2], [3, -4]])
        assert np.array_equal(rectify(s).data, [[1, 2], [3, 4]])

    def test_zero_identity(self):
        s = series(np.zeros((5, 3)))
        assert np.array_equal(rectify(s).data, np.zeros((5, 3)))

    def test_nonnegative_identity(self):
        s = series(np.full((4, 2), 2.5))
        assert np.array_equal(rectify(s).data, s.data)

    def test_wrong_modality(self):
        with pytest.raises(ModalityError):
            rectify(series(np.ones((3, 2)), modality="acc"))


class TestMovingRms:
    def test_constant(self):
        s = series(np.full((50, 2), 5.0))
        for window_ms in (10.0, 70.0, 500.0):
            assert np.allclose(moving_rms(s, window_ms).data, 5.0)

    def test_two_sample_window(self):
        # sqrt((9 + 16) / 2) at the second frame
        s = series([[3.0], [-4.0]])
        out = moving_rms(s, 20.0)  # 20 ms at 100 Hz -> 2 samples
        assert out.data[0, 0] == pytest.approx(3.0)
        assert out.data[1, 0] == pytest.approx(math.sqrt(12.5))

    def test_width_one_is_abs(self):
        s = series([[-2.0], [3.0], [-5.0]])
        assert np.allclose(moving_rms(s, 10.0).data, np.abs(s.data))

    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((37, 3))
        s = series(x)
        for width in (1, 2, 5, 37, 60):
            out = moving_rms(s, width * 10.0)
            assert np.allclose(out.data, brute_rms(x, min(width, 60)), atol=1e-12)

    def test_nonnegative_and_rectify_invariant(self):
        rng = np.random.default_rng(1)
        s = series(rng.standard_normal((30, 2)))
        out = moving_rms(s, 50.0)
        assert np.all(out.data >= 0)
        assert np.allclose(out.data, moving_rms(rectify(s), 50.0).data)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            moving_rms(series(np.ones((5, 1))), 1.0)  # 0.1 samples -> floor 0


class TestMovingAverage:
    def test_constant_identity(self):
        s = series(np.full((20, 2), 3.25), modality="acc")
        assert np.allclose(moving_average(s, 100.0).data, 3.25)

    def test_two_point_mean(self):
        s = series([[0.0], [10.0]], modality="acc")
        assert moving_average(s, 20.0).data[1, 0] == pytest.approx(5.0)

    def test_width_one_identity(self):
        s = series([[1.0], [-7.0], [2.0]], modality="acc")
        assert np.array_equal(moving_average(s, 10.0).data, s.data)

    def test_against_brute_force(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((29, 4))
        s = series(x, modality="euler")
        for width in (1, 3, 7, 29):
            assert np.allclose(moving_average(s, width * 10.0).data, brute_mean(x, width))


class TestButterworth:
    def test_dc_gain_unity(self):
        s = series(np.ones((3000, 2)), rate=200.0)
        out = butter_lowpass1(s, 1.0)
        assert abs(out.data[-1, 0] - 1.0) < 1e-6

    def test_zero_in_zero_out(self):
        s = series(np.zeros((100, 1)), rate=200.0)
        assert np.array_equal(butter_lowpass1(s, 1.0).data, np.zeros((100, 1)))

    def test_impulse_first_sample_is_b0(self):
        # bilinear transform coefficient: b0 = K / (K + 1), K = tan(pi fc / fs)
        x = np.zeros((10, 1))
        x[0, 0] = 1.0
        out = butter_lowpass1(series(x, rate=200.0), 1.0)
        k = math.tan(math.pi * 1.0 / 200.0)
        assert out.data[0, 0] == pytest.approx(k / (k + 1.0), rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 2))
        y = rng.standard_normal((200, 2))
        a, b = 1.7, -0.4
        fx = butter_lowpass1(series(x, rate=500.0), 5.0).data
        fy = butter_lowpass1(series(y, rate=500.0), 5.0).data
        fmix = butter_lowpass1(series(a * x + b * y, rate=500.0), 5.0).data
        assert np.allclose(fmix, a * fx + b * fy, rtol=1e-9, atol=1e-12)

    def test_cutoff_at_nyquist_rejected(self):
        s = series(np.ones((10, 1)), rate=200.0)
        with pytest.raises(ValueError):
            butter_lowpass1(s, 100.0)


class TestDecimate:
    def test_table_geometry(self):
        # 2040 frames at 2040 Hz decimated by 20 -> 102 frames at 102 Hz
        s = series(np.ones((2040, 3)), rate=2040.0)
        out = decimate(s, 20)
        assert out.frames == 102
        assert out.sample_rate_hz == pytest.approx(102.0)

    def test_factor_one_identity(self):
        s = series(np.arange(10.0)[:, None])
        out = decimate(s, 1)
        assert np.array_equal(out.data, s.data)
        assert out.sample_rate_hz == s.sample_rate_hz

    def test_index_selection(self):
        s = series(np.arange(10.0)[:, None])
        assert np.array_equal(decimate(s, 3).data[:, 0], [0, 3, 6, 9])

    def test_bad_factor(self):
        s = series(np.ones((5, 1)))
        with pytest.raises(ValueError):
            decimate(s, 0)


class TestSegment:
    def test_window_count_formula(self):
        s = series(np.zeros((600, 2)), rate=1000.0)
        wins = segment(s, 20.0, 1.0)  # k=20, st=1
        assert len(wins) == 581

    def test_paper_rates(self):
        # 2000 Hz / 20 = 100 Hz effective; 200 ms -> 20 frames, 10 ms -> 1 frame
        assert window_samples(200.0, 100.0) == 20
        assert window_samples(10.0, 100.0) == 1
        s = series(np.zeros((100, 1)), rate=100.0)
        wins = segment(s, 200.0, 10.0)
        assert wins[0].data.shape == (20, 1)
        assert [w.origin_frame for w in wins[:3]] == [0, 1, 2]

    def test_exact_fit_single_window(self):
        s = series(np.arange(20.0)[:, None], rate=100.0)
        wins = segment(s, 200.0, 10.0)
        assert len(wins) == 1 and wins[0].origin_frame == 0

    def test_origin_reconstruction(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((57, 2))
        s = series(x, rate=100.0)
        for w in segment(s, 100.0, 30.0):
            assert np.array_equal(w.data, x[w.origin_frame : w.origin_frame + 10])

    def test_too_short(self):
        s = series(np.zeros((5, 1)), rate=100.0)
        with pytest.raises(ValueError):
            segment(s, 200.0, 10.0)


class TestNormalization:
    def test_minmax_midpoint(self):
        stats = fit_stats(np.array([[2.0], [6.0]]))
        assert apply_norm(np.array([[4.0]]), stats, "minmax_pm1")[0, 0] == pytest.approx(0.0)

    def test_constant_channel_maps_to_zero(self):
        stats = fit_stats(np.full((10, 2), 3.0))
        for mode in ("minmax_pm1", "zscore"):
            assert np.allclose(apply_norm(np.full((4, 2), 3.0), stats, mode), 0.0)

    def test_zscore_population_std(self):
        stats = fit_stats(np.array([[1.0], [3.0]]))
        out = apply_norm(np.array([[1.0], [3.0]]), stats, "zscore")
        assert np.allclose(out[:, 0], [-1.0, 1.0])

    def test_training_data_in_range(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((100, 4)) * 7 + 2
        stats = fit_stats(x)
        out = apply_norm(x, stats, "minmax_pm1")
        assert out.min() >= -1.0 - 1e-12 and out.max() <= 1.0 + 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 3))
        stats = fit_stats(x)
        for mode in ("minmax_pm1", "zscore"):
            assert np.allclose(invert_norm(apply_norm(x, stats, mode), stats, mode), x)

    def test_channel_mismatch(self):
        stats = fit_stats(np.ones((5, 3)))
        with pytest.raises(StatsMismatchError):
            apply_norm(np.ones((5, 4)), stats, "zscore")

    def test_stats_dict_round_trip(self):
        stats = fit_stats(np.random.default_rng(7).standard_normal((20, 2)))
        again = ChannelStats.from_dict(stats.to_dict())
        assert np.allclose(again.mean, stats.mean)


class TestChains:
    def test_shape_preservation(self):
        rng = np.random.default_rng(8)
        spec = PreprocSpec(decimation=4)
        s = series(rng.standard_normal((800, 6)), rate=200.0)
        imu = series(rng.standard_normal((800, 3)), rate=200.0, modality="acc")
        for out in (gan_chain_semg(s, spec), hgr_chain_semg(s, spec)):
            assert out.frames == 200 and out.channel_count == 6
        from vimu.sigproc import imu_chain

        assert imu_chain(imu, spec).frames == 200

    def test_determinism(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((400, 4))
        spec = PreprocSpec(decimation=2)
        a = hgr_chain_semg(series(x, rate=200.0), spec).data
        b = hgr_chain_semg(series(x.copy(), rate=200.0), spec).data
        assert a.tobytes() == b.tobytes()

    def test_stack_windows(self):
        s = series(np.arange(40.0).reshape(20, 2), rate=100.0)
        wins = segment(s, 100.0, 50.0)
        stacked = stack_windows(wins)
        assert stacked.shape == (3, 10, 2)


class TestSeriesInvariants:
    def test_nan_rejected(self):
        with pytest.raises(DataError):
            series([[np.nan, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            MultichannelSeries(np.zeros((0, 2)), 100.0, "semg")

    def test_bad_rate(self):
        with pytest.raises(DataError):
            MultichannelSeries(np.zeros((2, 2)), 0.0, "semg")
