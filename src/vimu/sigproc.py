"""Deterministic preprocessing of raw multichannel series into windows.

The two preparation chains used downstream:

* generation chain (``gan_chain_semg`` / ``imu_chain``): moving RMS on the
  muscle signal, moving average on the motion signal, then decimation. This
  yields the low-frequency activation envelopes the generator learns from.
* recognition chain (``hgr_chain_semg``): rectification, first-order low-pass
  Butterworth, then decimation. This is the classifier's raw-signal input.

All filters run causally at the full rate, and decimation is plain sample
selection: frames 0, d, 2d, ... of the filter output. The chains pass the
factor to the filter, which computes its running sums or recurrence over
every frame but writes only those frames, the bits ``decimate`` would keep.
Windows in milliseconds convert to samples by floor. Every operation is a
pure function of its inputs.

Every chain stage works column by column: rectification, the trailing-window
sums, the Butterworth recurrence, decimation and ``segment`` never mix
channels. A chain run over several equal-length series placed side by side
therefore gives each series' columns exactly, bit for bit, what the chain
gives that series alone. ``pipeline.extract_windows`` relies on this to filter
a subject's trials in one call per chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import DictCodec
from .errors import DataError, ModalityError, StatsMismatchError

MODALITIES = ("semg", "acc", "euler")


@dataclass(frozen=True)
class MultichannelSeries:
    """Uniformly sampled frames x channels signal with a modality tag."""

    data: np.ndarray
    sample_rate_hz: float
    modality: str

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", arr)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError("series data must be a frames x channels matrix with >= 1 row")
        if not np.all(np.isfinite(arr)):
            raise DataError("series contains non-finite samples")
        if not self.sample_rate_hz > 0:
            raise DataError("sample rate must be positive")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def channel_count(self) -> int:
        return self.data.shape[1]

    def with_data(self, data, sample_rate_hz=None) -> "MultichannelSeries":
        return MultichannelSeries(
            data, self.sample_rate_hz if sample_rate_hz is None else sample_rate_hz, self.modality
        )


@dataclass(frozen=True)
class SignalWindow:
    """Fixed-length k x C segment of a series."""

    data: np.ndarray
    origin_frame: int
    modality: str

    def __post_init__(self):
        if self.origin_frame < 0:
            raise ValueError("origin_frame must be >= 0")


@dataclass(frozen=True)
class ChannelStats(DictCodec):
    """Per-channel statistics fitted on training data only: four equal-length vectors."""

    minimum: np.ndarray
    maximum: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        shapes = {name: np.shape(v) for name, v in vars(self).items()}
        if len(set(shapes.values())) != 1 or len(shapes["minimum"]) != 1:
            raise StatsMismatchError(f"ChannelStats needs four equal-length vectors, got shapes {shapes}")
        if not all(np.all(np.isfinite(v)) for v in vars(self).values()):
            raise DataError("ChannelStats holds non-finite values")

    @property
    def channels(self) -> int:
        return int(self.minimum.shape[0])


def window_samples(window_ms: float, sample_rate_hz: float) -> int:
    """Milliseconds to samples, floored (with a guard against float dust)."""
    return int(math.floor(window_ms * sample_rate_hz / 1000.0 + 1e-9))


def rectify(s: MultichannelSeries) -> MultichannelSeries:
    """Full-wave rectification of a muscle signal."""
    if s.modality != "semg":
        raise ModalityError(f"rectify expects an sEMG series, got {s.modality!r}")
    return s.with_data(np.abs(s.data))


# np.cumsum(axis=0) walks each column at the row stride, which is cheap while
# the array fits in cache and slow beyond it; a loop of whole-row adds pays a
# fixed cost per row instead. timeit on a 2-vCPU Xeon VM, float64, cumsum
# against the loop: 600 x 1,024 (4.7 MB) 9.5 against 2.1 ms; 600 x 128, the
# desk's stacked frames (0.6 MB), 0.33 against 0.83 ms; 10,000 x 64 (4.9 MB)
# 11.7 against 8.6 ms. Both make the same sequential adds, so the bits agree.
_ROW_LOOP_MIN_BYTES = 2 << 20
_ROW_LOOP_MIN_CHANNELS = 64


def _running_sums(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.cumsum(values, axis=0, out=out)``, the same bits, by whichever route is faster.

    ``out`` may be ``values`` itself: both routes then sum in place.
    """
    if (values.ndim != 2 or values.shape[1] < _ROW_LOOP_MIN_CHANNELS
            or values.nbytes < _ROW_LOOP_MIN_BYTES):
        return np.cumsum(values, axis=0, out=out)
    csum = np.empty_like(values) if out is None else out
    csum[0] = values[0]
    for i in range(1, values.shape[0]):
        np.add(csum[i - 1], values[i], out=csum[i])
    return csum


def _trailing_window_sums(values: np.ndarray, width: int, decimation: int = 1, in_place: bool = False):
    """Causal trailing-window sums with a shortened prefix (no zero padding).

    Returns the sums and window lengths at rows 0, d, 2d, ... for decimation
    d; the running sums still pass over every row. ``in_place`` overwrites
    ``values`` with its running sums instead of allocating a second buffer.
    """
    frames = values.shape[0]
    csum = _running_sums(values, out=values if in_place else None)
    sums = csum[::decimation].copy()
    first = -(-width // decimation)  # first kept row whose window lies wholly inside
    if first < sums.shape[0]:
        start = first * decimation
        np.subtract(csum[start::decimation], csum[start - width::decimation][: sums.shape[0] - first],
                    out=sums[first:])
    counts = np.minimum(np.arange(0, frames, decimation) + 1, width)
    return sums, counts[:, None]


def _decimation_factor(s: MultichannelSeries, factor) -> int:
    """``factor`` as an int, checked to be positive and to fit in ``s``."""
    if int(factor) != factor or factor < 1:
        raise ValueError(f"decimation factor must be a positive integer, got {factor}")
    factor = int(factor)
    if s.frames < factor:
        raise ValueError(f"series of {s.frames} frames is shorter than factor {factor}")
    return factor


def moving_rms(s: MultichannelSeries, window_ms: float, decimation: int = 1) -> MultichannelSeries:
    """Moving RMS over a trailing window of ``window_ms`` milliseconds.

    Each output frame is the root mean square of the samples in the window
    ending at that frame; the window is shortened at the start of the series.
    Only every ``decimation``-th frame is kept, as ``decimate`` would keep it.
    """
    width = window_samples(window_ms, s.sample_rate_hz)
    if width < 1:
        raise ValueError(f"window of {window_ms} ms is shorter than one sample")
    decimation = _decimation_factor(s, decimation)
    sums, counts = _trailing_window_sums(s.data**2, width, decimation, in_place=True)
    return s.with_data(np.sqrt(sums / counts), sample_rate_hz=s.sample_rate_hz / decimation)


def moving_average(s: MultichannelSeries, window_ms: float, decimation: int = 1) -> MultichannelSeries:
    """Moving arithmetic mean over a trailing window of ``window_ms``.

    Only every ``decimation``-th frame is kept, as ``decimate`` would keep it.
    """
    width = window_samples(window_ms, s.sample_rate_hz)
    if width < 1:
        raise ValueError(f"window of {window_ms} ms is shorter than one sample")
    decimation = _decimation_factor(s, decimation)
    sums, counts = _trailing_window_sums(s.data, width, decimation)
    return s.with_data(sums / counts, sample_rate_hz=s.sample_rate_hz / decimation)


def butter_lowpass1(s: MultichannelSeries, cutoff_hz: float, decimation: int = 1) -> MultichannelSeries:
    """First-order low-pass Butterworth, single causal pass, zero initial state.

    Coefficients come from the bilinear transform of H(s) = wc / (s + wc):
    with K = tan(pi * fc / fs), b0 = b1 = K / (K + 1) and a1 = (K - 1) / (K + 1),
    so the difference equation is y[n] = b0 x[n] + b1 x[n-1] - a1 y[n-1].
    The recurrence runs over every frame; only every ``decimation``-th
    output frame is kept, as ``decimate`` would keep it.
    """
    if not 0 < cutoff_hz < s.sample_rate_hz / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie strictly below the Nyquist rate "
            f"{s.sample_rate_hz / 2} Hz"
        )
    decimation = _decimation_factor(s, decimation)
    k = math.tan(math.pi * cutoff_hz / s.sample_rate_hz)
    b0 = b1 = k / (k + 1.0)
    a1 = (k - 1.0) / (k + 1.0)
    x = s.data
    y = np.empty(((x.shape[0] - 1) // decimation + 1, x.shape[1]))
    row = y[0] = b0 * x[0]
    for i in range(1, x.shape[0]):
        row = b0 * x[i] + b1 * x[i - 1] - a1 * row
        if not i % decimation:
            y[i // decimation] = row
    return s.with_data(y, sample_rate_hz=s.sample_rate_hz / decimation)


def decimate(s: MultichannelSeries, factor: int) -> MultichannelSeries:
    """Keep every ``factor``-th frame; the rate divides accordingly.

    Pure sample selection: the smoothing stages ahead of it in both chains
    are treated as the anti-aliasing step. The three filters take the same
    factor and keep the same frames without writing the others.
    """
    factor = _decimation_factor(s, factor)
    return s.with_data(s.data[::factor].copy(), sample_rate_hz=s.sample_rate_hz / factor)


def segment(s: MultichannelSeries, window_ms: float, step_ms: float) -> list:
    """Slice a series into overlapping windows of ``window_ms`` every ``step_ms``.

    Windows start at frames 0, st, 2 st, ...; the count is
    floor((frames - k) / st) + 1. Each window records its origin frame.
    """
    k = window_samples(window_ms, s.sample_rate_hz)
    st = window_samples(step_ms, s.sample_rate_hz)
    if k < 1:
        raise ValueError(f"window of {window_ms} ms is shorter than one sample")
    if st < 1:
        raise ValueError(f"step of {step_ms} ms is shorter than one sample")
    if s.frames < k:
        raise ValueError(f"series of {s.frames} frames cannot hold a {k}-frame window")
    count = (s.frames - k) // st + 1
    return [
        SignalWindow(s.data[i * st : i * st + k], origin_frame=i * st, modality=s.modality)
        for i in range(count)
    ]


def stack_windows(windows) -> np.ndarray:
    """Stack a window list into an (n, k, C) array."""
    return np.stack([w.data for w in windows], axis=0)


def fit_stats(data: np.ndarray) -> ChannelStats:
    """Fit per-channel min/max/mean/std (population std) on training data.

    ``data`` is any array whose last axis is channels; every other axis is
    pooled. Never fit these on test data.
    """
    pooled = np.ascontiguousarray(data, dtype=np.float64).reshape(-1, data.shape[-1])
    return ChannelStats(
        minimum=pooled.min(axis=0),
        maximum=pooled.max(axis=0),
        mean=pooled.mean(axis=0),
        std=pooled.std(axis=0),
    )


def _check_channels(stats: ChannelStats, channels: int):
    if stats.channels != channels:
        raise StatsMismatchError(
            f"stats fitted on {stats.channels} channels applied to {channels}-channel data"
        )


def apply_norm(data, stats: ChannelStats, mode: str) -> np.ndarray:
    """Normalize per channel: ``minmax_pm1`` to [-1, 1] or ``zscore``.

    Degenerate channels (max == min, or std == 0) map to zero. ``data`` is
    any array whose last axis is channels; returns a new float64 array.
    """
    out = np.array(data, dtype=np.float64)
    _check_channels(stats, out.shape[-1])
    if mode == "minmax_pm1":
        scale = stats.maximum - stats.minimum
        out -= stats.minimum
        out *= 2.0
        out /= np.where(scale == 0, 1.0, scale)
        out -= 1.0
    elif mode == "zscore":
        scale = stats.std
        out -= stats.mean
        out /= np.where(scale == 0, 1.0, scale)
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if np.any(scale == 0):
        out[..., scale == 0] = 0.0
    return out


def invert_norm(arr: np.ndarray, stats: ChannelStats, mode: str) -> np.ndarray:
    """Map normalized values back to physical units (degenerate -> mean/min); a new float64 array."""
    out = np.array(arr, dtype=np.float64)
    _check_channels(stats, out.shape[-1])
    if mode == "minmax_pm1":
        out += 1.0
        out /= 2.0
        out *= stats.maximum - stats.minimum
        out += stats.minimum
    elif mode == "zscore":
        out *= stats.std
        out += stats.mean
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return out


# ---------------------------------------------------------------------------
# named preprocessing presets

@dataclass(frozen=True)
class PreprocSpec(DictCodec):
    """Window, step, decimation, and filter parameters for both chains."""

    window_ms: float = 200.0
    step_ms: float = 10.0
    decimation: int = 20
    rms_ms: float = 100.0
    mavg_ms: float = 100.0
    butter_cutoff_hz: float = 1.0


def gan_chain_semg(s: MultichannelSeries, spec: PreprocSpec) -> MultichannelSeries:
    """Generation-chain sEMG: moving RMS envelope, decimated."""
    return moving_rms(s, spec.rms_ms, spec.decimation)


def hgr_chain_semg(s: MultichannelSeries, spec: PreprocSpec) -> MultichannelSeries:
    """Recognition-chain sEMG: rectify, low-pass Butterworth, decimate.

    Kept separate from the generation chain on purpose; the two are not
    merged and a caller picks the one matching its role.
    """
    return butter_lowpass1(rectify(s), spec.butter_cutoff_hz, spec.decimation)


def imu_chain(s: MultichannelSeries, spec: PreprocSpec) -> MultichannelSeries:
    """Motion-signal chain: moving average, decimated."""
    return moving_average(s, spec.mavg_ms, spec.decimation)


def segment_series(s: MultichannelSeries, spec: PreprocSpec) -> list:
    return segment(s, spec.window_ms, spec.step_ms)
