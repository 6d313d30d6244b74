"""Property tests for the two binary formats: `.gst` trials and tensor checkpoints."""
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vimu.data import TrialRecord, read_trial, write_trial
from vimu.errors import FormatError
from vimu.nn.checkpoint import load_tensors, save_tensors
from vimu.sigproc import MultichannelSeries

FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
RATE = 200.0


@st.composite
def trials(draw):
    """A trial of 1-64 frames, 1-16 muscle and 0-8 motion channels of finite float32 values."""
    frames = draw(st.integers(1, 64))
    semg = draw(arrays(np.float32, (frames, draw(st.integers(1, 16))), elements=FLOAT32))
    motion_channels = draw(st.integers(0, 8))
    imu = None
    if motion_channels:
        kind = draw(st.sampled_from(["acc", "euler"]))
        imu = MultichannelSeries(draw(arrays(np.float32, (frames, motion_channels), elements=FLOAT32)),
                                 RATE, kind)
    return TrialRecord(MultichannelSeries(semg, RATE, "semg"), imu, gesture_id=1, subject_id=2, trial_id=3)


def _f32(series) -> bytes:
    return series.data.astype(np.float32).tobytes()


@settings(max_examples=25, deadline=None, database=None)
@given(record=trials())
def test_trial_round_trips_and_every_prefix_is_rejected(record):
    with tempfile.TemporaryDirectory() as tmp:
        path, again, cut = Path(tmp, "t.gst"), Path(tmp, "again.gst"), Path(tmp, "cut.gst")
        write_trial(path, record)
        back = read_trial(path, RATE, gesture_id=1, subject_id=2, trial_id=3)
        assert back.semg.data.shape == record.semg.data.shape
        assert _f32(back.semg) == _f32(record.semg)
        if record.imu is None:
            assert back.imu is None
        else:
            assert back.imu.modality == record.imu.modality
            assert back.imu.data.shape == record.imu.data.shape
            assert _f32(back.imu) == _f32(record.imu)
        write_trial(again, back)
        raw = path.read_bytes()
        assert again.read_bytes() == raw
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(FormatError):
                read_trial(cut, RATE)


tensors = st.dictionaries(
    st.text(max_size=12),
    arrays(np.float32, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4), elements=FLOAT32),
    max_size=5,
)


def _record_ends(tensors: dict) -> list:
    """Byte offset just past the header and past each record, in file order."""
    ends = [6]  # magic + version
    for name, arr in tensors.items():
        ends.append(ends[-1] + 4 + len(name.encode("utf-8")) + 4 + 4 * arr.ndim + 4 * arr.size)
    return ends


def _same(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a)


@settings(max_examples=40, deadline=None, database=None)
@given(tensors=tensors)
def test_checkpoint_round_trips_and_cuts(tensors):
    with tempfile.TemporaryDirectory() as tmp:
        path, again, cut = Path(tmp, "a.ckpt"), Path(tmp, "b.ckpt"), Path(tmp, "cut.ckpt")
        save_tensors(path, tensors)
        back = load_tensors(path)
        assert _same(back, tensors)
        save_tensors(again, back)
        raw = path.read_bytes()
        assert again.read_bytes() == raw
        ends = _record_ends(tensors)
        assert ends[-1] == len(raw)
        names = list(tensors)
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            if n in ends:
                # a cut between records is a valid, shorter checkpoint
                kept = names[:ends.index(n)]
                assert _same(load_tensors(cut), {k: tensors[k] for k in kept})
            else:
                with pytest.raises(FormatError):
                    load_tensors(cut)
