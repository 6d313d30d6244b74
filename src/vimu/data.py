"""Dataset model and persistence.

A dataset is a directory holding one binary file per recorded trial plus a
JSON manifest indexing them. Trial binary layout (little-endian):

    magic    4 bytes  b"GST1"
    flags    u8       bit0 muscle payload present, bit1 motion payload
                      present, bit2 motion payload is Euler angles
    frames   u32      shared by both payloads (synchronous recording)
    channels u32 per present payload, muscle first
    payloads float32 row-major, in the same order
    crc      u32      CRC32 of every preceding byte

Sample rate and the (subject, gesture, trial) identity live in the manifest,
not in the trial file. ``synth_generate`` writes synthetic trials through a
pool of one thread per CPU.
"""
from __future__ import annotations

import functools
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import DictCodec, read_json, write_json
from .errors import ConfigError, DataError, FormatError
from .sigproc import MultichannelSeries

TRIAL_MAGIC = b"GST1"
MANIFEST_VERSION = 1
_FLAG_SEMG = 1
_FLAG_IMU = 2
_FLAG_EULER = 4


@dataclass
class TrialRecord:
    """One recorded gesture execution: muscle signal plus optional motion signal."""

    semg: MultichannelSeries
    imu: MultichannelSeries | None
    gesture_id: int
    subject_id: int
    trial_id: int

    def __post_init__(self):
        if self.imu is not None:
            if self.imu.frames != self.semg.frames:
                raise DataError("muscle and motion payloads must cover the same frames")
            if self.imu.sample_rate_hz != self.semg.sample_rate_hz:
                raise DataError("muscle and motion payloads must share a sample rate")


def write_trial(path, record: TrialRecord):
    """Serialize a trial; rejects empty payloads before touching the file."""
    if record.semg.frames < 1:
        raise DataError("refusing to write a zero-frame trial")
    flags = _FLAG_SEMG
    if record.imu is not None:
        flags |= _FLAG_IMU
        if record.imu.modality == "euler":
            flags |= _FLAG_EULER
    body = bytearray()
    body += TRIAL_MAGIC
    body += struct.pack("<B", flags)
    body += struct.pack("<I", record.semg.frames)
    body += struct.pack("<I", record.semg.channel_count)
    if record.imu is not None:
        body += struct.pack("<I", record.imu.channel_count)
    body += np.ascontiguousarray(record.semg.data, dtype="<f4").tobytes()
    if record.imu is not None:
        body += np.ascontiguousarray(record.imu.data, dtype="<f4").tobytes()
    body += struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(body)


def read_trial(path, sample_rate_hz: float, gesture_id: int = 0, subject_id: int = 0,
               trial_id: int = 0) -> TrialRecord:
    """Read a trial file; identity and rate come from the caller (the manifest).

    Raises :class:`FormatError` on bad magic, truncation, or CRC mismatch;
    no partial record is ever returned.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != TRIAL_MAGIC:
        raise FormatError(f"bad trial magic in {path}")
    if len(raw) < 4 + 1 + 4 + 4 + 4:
        raise FormatError(f"truncated trial file {path}")
    flags = raw[4]
    if not flags & _FLAG_SEMG:
        raise FormatError(f"trial file {path} lacks a muscle payload")
    (frames,) = struct.unpack_from("<I", raw, 5)
    offset = 9
    (semg_channels,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    imu_channels = 0
    if flags & _FLAG_IMU:
        if len(raw) < offset + 4:
            raise FormatError(f"truncated trial file {path}")
        (imu_channels,) = struct.unpack_from("<I", raw, offset)
        offset += 4
    if frames == 0 or semg_channels == 0 or frames > 1 << 30 or semg_channels > 1 << 20:
        raise FormatError(f"implausible trial dimensions in {path}")
    expected = offset + 4 * frames * (semg_channels + imu_channels) + 4
    if len(raw) != expected:
        raise FormatError(
            f"trial file {path} has {len(raw)} bytes, expected {expected} (truncated or padded)"
        )
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise FormatError(f"CRC mismatch in trial file {path}")
    semg_count = frames * semg_channels
    semg = np.frombuffer(raw, dtype="<f4", count=semg_count, offset=offset)
    semg = semg.reshape(frames, semg_channels).astype(np.float64)
    imu_series = None
    if flags & _FLAG_IMU:
        imu = np.frombuffer(raw, dtype="<f4", count=frames * imu_channels,
                            offset=offset + 4 * semg_count)
        kind = "euler" if flags & _FLAG_EULER else "acc"
        imu_series = MultichannelSeries(imu.reshape(frames, imu_channels).astype(np.float64),
                                        sample_rate_hz, kind)
    return TrialRecord(
        semg=MultichannelSeries(semg, sample_rate_hz, "semg"),
        imu=imu_series,
        gesture_id=gesture_id,
        subject_id=subject_id,
        trial_id=trial_id,
    )


# ---------------------------------------------------------------------------
# CSV import adapter

@dataclass(frozen=True)
class CsvTrialMeta:
    """Identity and geometry for a trial imported from exported CSV files."""

    sample_rate_hz: float
    semg_channels: int
    imu_channels: int = 0
    imu_kind: str = "acc"
    gesture_id: int = 0
    subject_id: int = 0
    trial_id: int = 0


def _parse_csv_matrix(path, expected_columns: int, what: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = [c.strip().replace("−", "-") for c in line.split(",")]
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if line_no == 1:
                    continue  # optional header row
                raise DataError(f"{what} csv line {line_no}: non-numeric cell") from None
            rows.append(values)
    if not rows:
        raise DataError(f"{what} csv holds no numeric rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{what} csv has ragged rows (widths {sorted(widths)})")
    width = widths.pop()
    if width != expected_columns:
        raise DataError(f"{what} csv has {width} columns, manifest expects {expected_columns}")
    return np.asarray(rows, dtype=np.float64)


def import_csv(semg_csv, imu_csv, meta: CsvTrialMeta) -> TrialRecord:
    """Build a trial from one-row-per-frame CSV exports.

    Channel counts are validated against ``meta``; a header line is allowed.
    """
    semg = _parse_csv_matrix(semg_csv, meta.semg_channels, "muscle")
    imu_series = None
    if imu_csv is not None:
        if meta.imu_channels < 1:
            raise DataError("motion csv supplied but manifest declares no motion channels")
        imu = _parse_csv_matrix(imu_csv, meta.imu_channels, "motion")
        if imu.shape[0] != semg.shape[0]:
            raise DataError(
                f"muscle ({semg.shape[0]}) and motion ({imu.shape[0]}) frame counts differ"
            )
        imu_series = MultichannelSeries(imu, meta.sample_rate_hz, meta.imu_kind)
    return TrialRecord(
        semg=MultichannelSeries(semg, meta.sample_rate_hz, "semg"),
        imu=imu_series,
        gesture_id=meta.gesture_id,
        subject_id=meta.subject_id,
        trial_id=meta.trial_id,
    )


# ---------------------------------------------------------------------------
# trial trimming

@dataclass(frozen=True)
class TrimSpec:
    rest_lead_s: float = 1.0
    action_s: float = 3.0


SYNTH_TRIM = TrimSpec(1.0, 3.0)


def _frames(seconds: float, rate: float) -> int:
    """Whole frames in ``seconds`` at ``rate``; the trim and the synthesizer share this rule."""
    return int(math.floor(seconds * rate + 1e-9))


def trim_trial(record: TrialRecord, rest_lead_s: float = 1.0, action_s: float = 3.0) -> TrialRecord:
    """Cut a trial down to its stable action slice.

    The action covers [rest_lead_s, rest_lead_s + action_s). Frame counts
    are exact for any rate; a too-short trial raises.
    """
    rate = record.semg.sample_rate_hz
    lead = _frames(rest_lead_s, rate)
    action = _frames(action_s, rate)
    if record.semg.frames < lead + action:
        raise DataError(
            f"trial of {record.semg.frames} frames is shorter than lead+action "
            f"({lead + action} frames)"
        )

    def _slice(series):
        return MultichannelSeries(series.data[lead : lead + action].copy(), series.sample_rate_hz,
                                  series.modality)

    return TrialRecord(
        semg=_slice(record.semg),
        imu=_slice(record.imu) if record.imu is not None else None,
        gesture_id=record.gesture_id,
        subject_id=record.subject_id,
        trial_id=record.trial_id,
    )


# ---------------------------------------------------------------------------
# manifest and dataset directory

@dataclass
class ManifestEntry(DictCodec):
    subject: int
    gesture: int
    trial: int
    path: str


@dataclass
class DatasetManifest(DictCodec):
    """Dataset geometry plus the (subject, gesture, trial) -> file index."""

    name: str
    subjects: tuple[int, ...]
    gesture_labels: tuple[str, ...]
    trials_per_gesture: int
    sample_rate_hz: float
    semg_channels: int
    imu_channels: int
    imu_kind: str
    index: tuple[ManifestEntry, ...]
    gst_version: int = MANIFEST_VERSION

    def __post_init__(self):
        if self.semg_channels < 1:
            raise DataError("manifest needs >= 1 muscle channel")
        # The index is never mutated after construction, so the lookup table
        # built here stays in step with it.
        self._by_key = {(e.subject, e.gesture, e.trial): e for e in self.index}
        if len(self._by_key) != len(self.index):
            raise DataError("manifest index holds duplicate (subject, gesture, trial) entries")

    @classmethod
    def from_dict(cls, d) -> "DatasetManifest":
        if isinstance(d, dict) and d.get("gst_version") != MANIFEST_VERSION:
            raise FormatError(f"unsupported manifest version {d.get('gst_version')!r}")
        return super().from_dict(d)

    @property
    def gestures(self) -> int:
        return len(self.gesture_labels)

    def entry(self, subject: int, gesture: int, trial: int) -> ManifestEntry:
        try:
            return self._by_key[(subject, gesture, trial)]
        except KeyError:
            raise DataError(
                f"no trial indexed for subject {subject}, gesture {gesture}, trial {trial}"
            ) from None


@contextmanager
def dataset_write_lock(directory):
    """Exclusive lock for writers of one dataset directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lock_path = directory / ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise DataError(f"dataset directory {directory} is locked by another writer") from None
    try:
        os.close(fd)
        yield
    finally:
        lock_path.unlink(missing_ok=True)


class Dataset:
    """Manifest plus trial files under one directory."""

    def __init__(self, directory):
        self.directory = Path(directory)
        manifest_path = self.directory / "manifest.json"
        if not manifest_path.exists():
            raise DataError(f"no manifest.json under {self.directory}")
        self.manifest = read_json(manifest_path, DatasetManifest)

    def load_trial(self, subject: int, gesture: int, trial: int) -> TrialRecord:
        """Read one indexed trial; its channel counts and motion kind must match the manifest."""
        m = self.manifest
        e = m.entry(subject, gesture, trial)
        record = read_trial(
            self.directory / e.path,
            sample_rate_hz=m.sample_rate_hz,
            gesture_id=gesture,
            subject_id=subject,
            trial_id=trial,
        )
        imu = record.imu
        c1 = record.semg.channel_count
        c2 = 0 if imu is None else imu.channel_count
        problem = None
        if c1 != m.semg_channels:
            problem = f"{c1} muscle channels, manifest declares {m.semg_channels}"
        elif c2 != m.imu_channels:
            problem = f"{c2} motion channels, manifest declares {m.imu_channels}"
        elif imu is not None and imu.modality != m.imu_kind:
            problem = f"motion kind {imu.modality!r}, manifest declares {m.imu_kind!r}"
        if problem is not None:
            raise DataError(f"subject {subject}, gesture {gesture}, trial {trial} ({e.path}): "
                            f"trial holds {problem}")
        return record

    def validate_files(self):
        """Every index entry resolves and every trial file is indexed."""
        indexed = set()
        for e in self.manifest.index:
            p = self.directory / e.path
            if not p.exists():
                raise DataError(f"manifest entry {e.path} does not resolve")
            indexed.add(p.resolve())
        for p in self.directory.rglob("*.gst"):
            if p.resolve() not in indexed:
                raise DataError(f"orphan trial file {p}")


# ---------------------------------------------------------------------------
# database profiles and experiment splits

@dataclass(frozen=True)
class DatabaseProfile:
    """Geometry and protocol columns for one supported database."""

    name: str
    subjects: int
    gestures: int
    semg_channels: int
    imu_channels: int
    imu_kind: str
    sample_rate_hz: float
    trials_total: int
    usable_trials: tuple
    clf_train_trials: tuple
    clf_test_trials: tuple
    trim: TrimSpec | None = None


PROFILES = {
    "femg_vpf": DatabaseProfile(
        name="femg_vpf", subjects=28, gestures=38, semg_channels=8, imu_channels=3,
        imu_kind="euler", sample_rate_hz=2040.0, trials_total=6,
        usable_trials=(1, 2, 3, 4),
        clf_train_trials=(1, 3), clf_test_trials=(2, 4),
        trim=TrimSpec(1.0, 3.0),
    ),
    "ninapro_db2": DatabaseProfile(
        name="ninapro_db2", subjects=40, gestures=50, semg_channels=12, imu_channels=36,
        imu_kind="acc", sample_rate_hz=2000.0, trials_total=6,
        usable_trials=(1, 2, 3, 4, 5, 6),
        clf_train_trials=(1, 3, 4, 6), clf_test_trials=(2, 5),
    ),
    "ninapro_db3": DatabaseProfile(
        name="ninapro_db3", subjects=6, gestures=50, semg_channels=12, imu_channels=36,
        imu_kind="acc", sample_rate_hz=2000.0, trials_total=6,
        usable_trials=(1, 2, 3, 4, 5, 6),
        clf_train_trials=(1, 3, 4, 6), clf_test_trials=(2, 5),
    ),
    "ninapro_db5": DatabaseProfile(
        name="ninapro_db5", subjects=10, gestures=53, semg_channels=16, imu_channels=3,
        imu_kind="acc", sample_rate_hz=200.0, trials_total=6,
        usable_trials=(1, 2, 3, 4, 5, 6),
        clf_train_trials=(1, 3, 4, 6), clf_test_trials=(2, 5),
    ),
    "ninapro_db7": DatabaseProfile(
        name="ninapro_db7", subjects=20, gestures=41, semg_channels=12, imu_channels=36,
        imu_kind="acc", sample_rate_hz=2000.0, trials_total=6,
        usable_trials=(1, 2, 3, 4, 5, 6),
        clf_train_trials=(1, 3, 4, 6), clf_test_trials=(2, 5),
    ),
    "siem": DatabaseProfile(
        name="siem", subjects=20, gestures=12, semg_channels=8, imu_channels=3,
        imu_kind="euler", sample_rate_hz=2040.0, trials_total=18,
        usable_trials=(1, 2, 3, 4, 5, 6),
        clf_train_trials=(1, 3, 4, 6), clf_test_trials=(2, 5),
    ),
}


def synthetic_profile(manifest: DatasetManifest) -> DatabaseProfile:
    """Derive a split profile from a synthetic dataset's manifest; it trims to :data:`SYNTH_TRIM`.

    Odd trials train, even trials test; the second-experiment generator
    cohort sees only the training trials.
    """
    trials = tuple(range(1, manifest.trials_per_gesture + 1))
    train = tuple(t for t in trials if t % 2 == 1)
    test = tuple(t for t in trials if t % 2 == 0)
    if not train or not test:
        raise ConfigError("synthetic profile needs at least 2 trials per gesture")
    return DatabaseProfile(
        name="synthetic",
        subjects=len(manifest.subjects),
        gestures=manifest.gestures,
        semg_channels=manifest.semg_channels,
        imu_channels=manifest.imu_channels,
        imu_kind=manifest.imu_kind,
        sample_rate_hz=manifest.sample_rate_hz,
        trials_total=manifest.trials_per_gesture,
        usable_trials=trials,
        clf_train_trials=train,
        clf_test_trials=test,
        trim=SYNTH_TRIM,
    )


def resolve_profile(name: str, manifest: DatasetManifest | None = None) -> DatabaseProfile:
    if name == "synthetic":
        if manifest is None:
            raise ConfigError("the synthetic profile is derived from a manifest")
        return synthetic_profile(manifest)
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown database profile {name!r}") from None


@dataclass
class SplitPlan:
    """Subject cohorts and trial lists for one experiment."""

    gan_subjects: list
    recognition_subjects: list
    gan_train_trials: list
    clf_train_trials: list
    clf_test_trials: list


def make_split(manifest: DatasetManifest, experiment: str, profile: DatabaseProfile) -> SplitPlan:
    """Build the cohort/trial plan for "exp1" or "exp2".

    exp1: the first half of the sorted subjects (ceil on odd counts) trains
    the generator on every usable trial; the rest are recognition subjects.
    exp2: every subject serves both roles and the generator sees only the
    recognition training trials.
    """
    if experiment not in ("exp1", "exp2"):
        raise ConfigError(f"unknown experiment {experiment!r}")
    subjects = sorted(manifest.subjects)
    if len(subjects) != profile.subjects:
        raise DataError(
            f"manifest has {len(subjects)} subjects, profile {profile.name!r} expects {profile.subjects}"
        )
    if manifest.semg_channels != profile.semg_channels or manifest.imu_channels != profile.imu_channels:
        raise DataError(f"manifest channel counts do not match profile {profile.name!r}")
    if experiment == "exp1":
        half = (len(subjects) + 1) // 2
        plan = SplitPlan(
            gan_subjects=subjects[:half],
            recognition_subjects=subjects[half:],
            gan_train_trials=list(profile.usable_trials),
            clf_train_trials=list(profile.clf_train_trials),
            clf_test_trials=list(profile.clf_test_trials),
        )
    else:
        plan = SplitPlan(
            gan_subjects=list(subjects),
            recognition_subjects=list(subjects),
            gan_train_trials=list(profile.clf_train_trials),
            clf_train_trials=list(profile.clf_train_trials),
            clf_test_trials=list(profile.clf_test_trials),
        )
    if set(plan.clf_train_trials) & set(plan.clf_test_trials):
        raise DataError("profile yields overlapping train/test trials")
    return plan


def manifest_for_profile(profile: DatabaseProfile) -> DatasetManifest:
    """Geometry-only manifest matching a profile (no trial files)."""
    return DatasetManifest(
        name=profile.name,
        subjects=tuple(range(1, profile.subjects + 1)),
        gesture_labels=tuple(f"g{i:02d}" for i in range(profile.gestures)),
        trials_per_gesture=profile.trials_total,
        sample_rate_hz=profile.sample_rate_hz,
        semg_channels=profile.semg_channels,
        imu_channels=profile.imu_channels,
        imu_kind=profile.imu_kind,
        index=(),
    )


# ---------------------------------------------------------------------------
# synthetic correlated dataset (the desk-scale oracle)

@dataclass(frozen=True)
class SynthConfig(DictCodec):
    """Seeded generator of correlated muscle/motion trials.

    Per gesture there is a smooth latent envelope; motion channels are a
    fixed linear map of the per-channel muscle activation pattern driven by
    that envelope (plus an orientation offset and Gaussian noise), while the
    muscle channels are the envelope-modulated magnitude of broadband noise.
    The muscle-to-motion map is therefore deterministic up to noise.
    """

    subjects: int = 4
    gestures: int = 4
    trials: int = 4
    sample_rate_hz: float = 200.0
    semg_channels: int = 8
    imu_channels: int = 3
    imu_kind: str = "acc"
    trial_seconds: float = 6.0
    semg_noise: float = 0.3
    imu_noise: float = 0.02
    subject_gain_jitter: float = 0.15
    trial_jitter: float = 0.15
    semg_pattern_jitter: float = 0.25
    envelope_depth: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("subjects", "gestures", "trials", "semg_channels", "imu_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"synthetic config field {name} must be >= 1")
        if not self.sample_rate_hz > 0:
            raise ConfigError(
                f"synthetic config field sample_rate_hz must be > 0, got {self.sample_rate_hz:g}"
            )
        if self.trial_seconds < SYNTH_TRIM.rest_lead_s + SYNTH_TRIM.action_s:
            raise ConfigError(
                f"synthetic config field trial_seconds must be >= the rest lead plus the action = "
                f"{SYNTH_TRIM.rest_lead_s + SYNTH_TRIM.action_s:g} s, got {self.trial_seconds:g}"
            )


def _synth_rng(cfg: SynthConfig, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(cfg.seed), spawn_key=tuple(key)))


def synth_latents(cfg: SynthConfig):
    """Gesture activation patterns, the mixing map, and channel offsets.

    Patterns share a broad base activation (overlapping synergies) plus a
    gesture-specific bump, so motion channels co-vary with overall level
    across gestures while staying class-separable.
    """
    rng = _synth_rng(cfg, 0)
    c1, c2, g = cfg.semg_channels, cfg.imu_channels, cfg.gestures
    centers = np.arange(g) * c1 / g
    chan = np.arange(c1)
    dist = np.minimum(np.abs(chan[None, :] - centers[:, None]),
                      c1 - np.abs(chan[None, :] - centers[:, None]))
    patterns = 0.5 + 0.5 * np.exp(-((dist / (0.22 * c1)) ** 2))
    patterns = patterns * (1.0 + 0.1 * rng.standard_normal((g, c1)))
    patterns = np.abs(patterns)
    mixing = rng.standard_normal((c2, c1)) / np.sqrt(c1)
    offsets = 0.5 * rng.standard_normal(c2)
    return patterns, mixing, offsets


@functools.lru_cache(maxsize=4)
def _action_curve(action: int):
    """The phase in [0, 1) and the bump of an ``action``-frame action; read-only, shared by every trial."""
    tau = np.linspace(0.0, 1.0, action, endpoint=False)
    bump = np.sin(np.pi * tau) ** 2
    tau.flags.writeable = bump.flags.writeable = False
    return tau, bump


def synth_envelope(cfg: SynthConfig, gesture: int, subject: int, trial: int) -> np.ndarray:
    """Smooth per-frame activation envelope for one trial, zero outside the :data:`SYNTH_TRIM` action.

    Gestures carry distinct peak amplitudes and wobble frequencies on top of
    distinct channel patterns, so a motion window's level and texture jointly
    identify the gesture that produced it.
    """
    rate = cfg.sample_rate_hz
    frames = int(round(cfg.trial_seconds * rate))
    lead = _frames(SYNTH_TRIM.rest_lead_s, rate)
    action = _frames(SYNTH_TRIM.action_s, rate)
    rng = _synth_rng(cfg, 1, subject, gesture, trial)
    base_amp = 0.55 + 0.9 * (gesture + 1) / cfg.gestures
    amp = base_amp * (1.0 + cfg.trial_jitter * rng.standard_normal())
    phase = 2.0 * np.pi * gesture / cfg.gestures + cfg.trial_jitter * rng.standard_normal()
    freq = 1.0 + 0.6 * gesture
    tau, bump = _action_curve(action)
    wobble = 1.0 + cfg.envelope_depth * np.sin(2.0 * np.pi * freq * tau + phase)
    env = np.zeros(frames)
    env[lead : lead + action] = np.abs(amp) * bump * wobble
    return env


def _subject_gain(cfg: SynthConfig, subject: int) -> float:
    return 1.0 + cfg.subject_gain_jitter * _synth_rng(cfg, 2, subject).standard_normal()


def _trial_arrays(cfg: SynthConfig, latents, gain: float, subject: int, gesture: int, trial: int):
    """One trial's arrays from the dataset's latents and the subject's gain."""
    patterns, mixing, offsets = latents
    env = synth_envelope(cfg, gesture, subject, trial)
    rng = _synth_rng(cfg, 3, subject, gesture, trial)
    observed = patterns[gesture] * (
        1.0 + cfg.semg_pattern_jitter * rng.standard_normal(cfg.semg_channels)
    )
    semg = env[:, None] * np.abs(observed)[None, :]
    semg *= gain
    noise = rng.standard_normal(semg.shape)
    semg *= np.abs(noise, out=noise)
    rng.standard_normal(out=noise)
    noise *= cfg.semg_noise
    semg += noise
    imu = np.multiply(env[:, None], patterns[gesture][None, :], out=noise) @ mixing.T
    imu += offsets[None, :]
    imu += cfg.imu_noise * rng.standard_normal(imu.shape)
    return semg, imu, env


def synth_trial_arrays(cfg: SynthConfig, subject: int, gesture: int, trial: int):
    """Raw muscle/motion arrays plus the latent envelope for one trial.

    The muscle observation of the activation pattern wobbles per trial
    (electrode-shift-like nonstationarity); the motion channels derive from
    the stable latent pattern, so they generalize across trials better than
    the muscle signal alone.
    """
    return _trial_arrays(cfg, synth_latents(cfg), _subject_gain(cfg, subject),
                         subject, gesture, trial)


def _synth_workers(trials: int) -> int:
    """Threads for writing ``trials`` trials: one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, trials)


def _synth_trial_name(subject: int, gesture: int, trial: int) -> str:
    return f"s{subject:02d}_g{gesture:02d}_t{trial:02d}.gst"


def _write_synth_trials(cfg: SynthConfig, out_dir: Path, keys: list):
    """Write the trial file of every (subject, gesture, trial) in ``keys``, on every CPU.

    The arrays come from numpy's random fills and ufuncs, and the bytes are
    checksummed and written, all outside the interpreter lock, so the pool's
    threads run side by side; a file's bytes depend on its key alone. The
    first failing key's error is raised, as a loop over ``keys`` would, and
    the keys not yet started are cancelled. All threads have ended on return.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging, which `import vimu` leaves out

    latents = synth_latents(cfg)
    gains = {s: _subject_gain(cfg, s) for s in range(1, cfg.subjects + 1)}

    def write(key):
        subject, gesture, trial = key
        semg, imu, _ = _trial_arrays(cfg, latents, gains[subject], subject, gesture, trial)
        write_trial(out_dir / _synth_trial_name(subject, gesture, trial), TrialRecord(
            semg=MultichannelSeries(semg, cfg.sample_rate_hz, "semg"),
            imu=MultichannelSeries(imu, cfg.sample_rate_hz, cfg.imu_kind),
            gesture_id=gesture,
            subject_id=subject,
            trial_id=trial,
        ))

    with ThreadPoolExecutor(_synth_workers(len(keys))) as pool:
        for _ in pool.map(write, keys):
            pass


def synth_generate(cfg: SynthConfig, out_dir) -> DatasetManifest:
    """Write a full synthetic dataset (trial files plus manifest) to disk.

    Trials are written on every CPU the process may run on; the bytes
    written do not depend on how many.
    """
    out_dir = Path(out_dir)
    keys = [(subject, gesture, trial) for subject in range(1, cfg.subjects + 1)
            for gesture in range(cfg.gestures) for trial in range(1, cfg.trials + 1)]
    with dataset_write_lock(out_dir):
        _write_synth_trials(cfg, out_dir, keys)
        manifest = DatasetManifest(
            name="synthetic",
            subjects=tuple(range(1, cfg.subjects + 1)),
            gesture_labels=tuple(f"g{i:02d}" for i in range(cfg.gestures)),
            trials_per_gesture=cfg.trials,
            sample_rate_hz=cfg.sample_rate_hz,
            semg_channels=cfg.semg_channels,
            imu_channels=cfg.imu_channels,
            imu_kind=cfg.imu_kind,
            index=tuple(ManifestEntry(*key, _synth_trial_name(*key)) for key in keys),
        )
        write_json(out_dir / "manifest.json", manifest.to_dict())
        write_json(out_dir / "synth_config.json", cfg.to_dict())
    return manifest
