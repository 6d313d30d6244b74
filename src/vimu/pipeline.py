"""Experiment orchestration: preprocessing, splits, training, and reports.

``run_experiment`` drives the full comparison on one dataset: preprocess
every usable trial through both signal chains, build the experiment split,
train the adversarial generator on its cohort, synthesize virtual motion
windows for the recognition subjects, then train and evaluate the requested
arms (muscle-only, muscle + virtual motion, muscle + real motion) per
subject. The arms that need no generator train in a forked helper process
while the generator trains; with OpenBLAS on one thread per process a
second helper, forked once the virtual windows exist, trains the later half
of the virtual arm's subjects while this process trains the first half.
A leakage guard checks every training batch's (subject, trial) tags
against the split plan.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import signal
import traceback
import zipfile
import zlib
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import sigproc
from .codec import DictCodec, write_json
from .data import Dataset, DatabaseProfile, DatasetManifest, SplitPlan, make_split, resolve_profile
from .errors import ConfigError, DataError, FormatError, LeakageError
# build_unimodal/build_multimodal go unused here; perfbench's tracer wraps them on this module.
from .fusion import (
    ClfTrainConfig,
    FusionConfig,
    StreamConfig,
    build_model,
    build_multimodal,
    build_unimodal,
    predict,
    save_classifier_bundle,
    train_classifier,
)
from .gan import (
    DiscriminatorConfig,
    GanTrainConfig,
    GeneratorBundle,
    GeneratorConfig,
    data_fingerprint,
    generate_virtual,
    normalize_generator_inputs,
    save_generator_bundle,
    train_gan,
)
from .nn.layers import seed_of
from .sigproc import PreprocSpec, apply_norm, fit_stats

ARMS = ("unimodal", "virtual_multimodal", "real_multimodal")


def derive_seed(base: int, *parts) -> int:
    """Stable child seed from a base seed and a role path."""
    key = tuple(zlib.crc32(str(p).encode("utf-8")) for p in parts)
    return seed_of(np.random.SeedSequence(entropy=int(base), spawn_key=key))


@dataclass
class ClassifierSpec(DictCodec):
    """Network widths for the recognition models (full scale by default)."""

    conv_maps: int = 64
    lc_maps: int = 64
    dense_units: int = 512
    fusion_hidden: int = 512
    dropout: float = 0.5

    def stream(self, window_frames: int, channels: int) -> StreamConfig:
        return StreamConfig(window_frames, channels, self.conv_maps, self.lc_maps,
                            self.dense_units, self.dropout)

    def model(self, streams: dict, classes: int, seed: int):
        """A fresh model whose streams take the (n, k, C) shapes of the named window arrays."""
        cfgs = {name: self.stream(arr.shape[1], arr.shape[2]) for name, arr in streams.items()}
        return build_model(cfgs, FusionConfig(classes=classes, hidden_units=self.fusion_hidden), seed)


@dataclass
class ExperimentConfig(DictCodec):
    """Everything one ``run`` needs; serializable to a JSON document.

    ``run_experiment`` derives every seed it uses from ``seed``: the
    generator's from ``derive_seed(seed, "gan")`` and each classifier's from
    the arm and subject. It reads neither ``gan.seed`` nor
    ``classifier.seed``; only the staged ``train-gan`` and ``train-clf``
    do. Both still enter ``fingerprint``.
    """

    dataset: str
    out_dir: str = "out"
    profile: str = "synthetic"
    experiment: str = "exp2"
    arms: tuple[str, ...] = ARMS
    seed: int = 0
    preproc: PreprocSpec = field(default_factory=PreprocSpec)
    gan: GanTrainConfig = field(default_factory=GanTrainConfig)
    classifier: ClfTrainConfig = field(default_factory=ClfTrainConfig)
    network: ClassifierSpec = field(default_factory=ClassifierSpec)

    def __post_init__(self):
        if not self.arms:
            raise ConfigError("at least one arm is required")
        for arm in self.arms:
            if arm not in ARMS:
                raise ConfigError(f"unknown arm {arm!r}")
        if self.experiment not in ("exp1", "exp2"):
            raise ConfigError(f"unknown experiment {self.experiment!r}")

    def fingerprint(self, manifest: DatasetManifest) -> str:
        # Neither where the dataset lies nor where outputs go defines the
        # experiment; the dataset's manifest does.
        d = self.to_dict()
        d.pop("out_dir")
        d["dataset"] = manifest.to_dict()
        blob = json.dumps(d, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def desk_config(dataset: str, out_dir: str = "out", seed: int = 0,
                arms: tuple = ARMS) -> ExperimentConfig:
    """Desk-scale defaults sized for the seeded synthetic dataset.

    Slimmer network widths and a shorter generator schedule keep a full
    three-arm run within a single-core budget of a couple of minutes: the
    generator trains 300 epochs (full scale: 10,000) on 384 pairs drawn from
    its 928-window cohort (full scale: every pair). The split rules and the
    classifier schedule are the full-scale ones.
    """
    return ExperimentConfig(
        dataset=dataset,
        out_dir=out_dir,
        arms=tuple(arms),
        seed=seed,
        preproc=PreprocSpec(window_ms=200.0, step_ms=100.0, decimation=4),
        gan=GanTrainConfig(epochs=300, batch_size=16, max_pairs=384,
                           generator_maps=(8, 4, 1), snapshot_every=10, seed=seed),
        classifier=ClfTrainConfig(seed=seed),
        network=ClassifierSpec(conv_maps=8, lc_maps=8, dense_units=32, fusion_hidden=32),
    )


# ---------------------------------------------------------------------------
# window extraction

# WindowTable's per-window arrays besides the optional motion windows, in file order
_TABLE_ARRAYS = ("semg_gan", "semg_hgr", "labels", "subjects", "trials", "origins")


@dataclass
class WindowTable:
    """All windows of a dataset, both chains, with (subject, trial) tags."""

    semg_gan: np.ndarray        # (n, k, c1) generation-chain muscle windows
    semg_hgr: np.ndarray        # (n, k, c1) recognition-chain muscle windows
    imu: np.ndarray | None      # (n, k, c2) motion windows, if recorded
    labels: np.ndarray
    subjects: np.ndarray
    trials: np.ndarray
    origins: np.ndarray
    meta: dict = field(default_factory=dict)

    def select(self, mask: np.ndarray) -> "WindowTable":
        return WindowTable(imu=self.imu[mask] if self.imu is not None else None, meta=self.meta,
                           **{name: getattr(self, name)[mask] for name in _TABLE_ARRAYS})

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def _geometry(record) -> tuple:
    imu = record.imu
    return (record.semg.frames, record.semg.sample_rate_hz, record.semg.channel_count,
            None if imu is None else (imu.channel_count, imu.modality))


def _side_by_side(series) -> sigproc.MultichannelSeries:
    """Equal-geometry series joined along the channel axis, record by record."""
    return series[0].with_data(np.concatenate([s.data for s in series], axis=1))


def _chain_side_by_side(joined, records: int, chain, spec: PreprocSpec):
    """Run ``chain`` once over ``records`` equal-geometry series joined side by side.

    Returns (windows, origins): windows is float32 (records * n, k, c),
    record by record, and origins the n window start frames every record
    shares. Every chain stage works column by column, so each record's
    windows equal those of the chain run on that record alone, bit for bit.
    Besides ``joined`` this holds at once one full-rate buffer of the chain's
    own (the squares, the rectified signal or the running sums), then the
    decimated output and its float64 and float32 windows.
    """
    windows = sigproc.segment_series(chain(joined, spec), spec)
    stacked = sigproc.stack_windows(windows)
    n, k, columns = stacked.shape
    c = columns // records
    per_record = np.empty((records, n, k, c), dtype=np.float32)
    per_record[...] = stacked.reshape(n, k, records, c).transpose(2, 0, 1, 3)
    return per_record.reshape(records * n, k, c), [w.origin_frame for w in windows]


def extract_windows(dataset: Dataset, profile: DatabaseProfile, spec: PreprocSpec,
                    subjects=None, trials=None) -> WindowTable:
    """Trim, filter, decimate, and segment every requested trial.

    One subject's trials are loaded at a time, in (gesture, trial) order, and
    split into runs of consecutive trials with the same geometry. Each run's
    muscle and motion trials are joined side by side once, the per-trial
    records are dropped, and each chain then runs once per run instead of
    once per trial. At full rate a subject's extraction therefore holds its
    joined arrays plus one chain buffer at a time; the filters write only
    the decimated frames.
    """
    from .data import trim_trial

    manifest = dataset.manifest
    subjects = sorted(manifest.subjects) if subjects is None else sorted(subjects)
    trials = list(profile.usable_trials) if trials is None else list(trials)
    gan_parts, hgr_parts, imu_parts = [], [], []
    labels, subj_tags, trial_tags, origins = [], [], [], []
    for subject in subjects:
        records = []
        for gesture in range(manifest.gestures):
            for trial in trials:
                record = dataset.load_trial(subject, gesture, trial)
                if profile.trim is not None:
                    record = trim_trial(record, profile.trim.rest_lead_s, profile.trim.action_s)
                records.append(record)
        runs = [(_side_by_side([r.semg for r in run]),
                 None if run[0].imu is None else _side_by_side([r.imu for r in run]),
                 [(r.gesture_id, r.trial_id) for r in run])
                for run in (list(group) for _, group in itertools.groupby(records, key=_geometry))]
        del records
        while runs:
            semg, imu, tags = runs.pop(0)
            semg_gan, starts = _chain_side_by_side(semg, len(tags), sigproc.gan_chain_semg, spec)
            semg_hgr, hgr_starts = _chain_side_by_side(semg, len(tags), sigproc.hgr_chain_semg, spec)
            del semg
            if len(hgr_starts) != len(starts):
                raise DataError("chain window counts diverged")
            gan_parts.append(semg_gan)
            hgr_parts.append(semg_hgr)
            if imu is not None:
                imu_windows, imu_starts = _chain_side_by_side(imu, len(tags), sigproc.imu_chain, spec)
                if len(imu_starts) != len(starts):
                    raise DataError("motion window count diverged from muscle windows")
                imu_parts.append(imu_windows)
            count = len(starts)
            for gesture_id, trial_id in tags:
                labels.extend([gesture_id] * count)
                subj_tags.extend([subject] * count)
                trial_tags.extend([trial_id] * count)
                origins.extend(starts)
    if not labels:
        raise DataError("no windows extracted")
    return WindowTable(
        semg_gan=np.concatenate(gan_parts, axis=0),
        semg_hgr=np.concatenate(hgr_parts, axis=0),
        imu=np.concatenate(imu_parts, axis=0) if imu_parts else None,
        labels=np.asarray(labels, dtype=np.int32),
        subjects=np.asarray(subj_tags, dtype=np.int32),
        trials=np.asarray(trial_tags, dtype=np.int32),
        origins=np.asarray(origins, dtype=np.int64),
        meta={"preproc": spec.to_dict(), "dataset": manifest.name, "profile": profile.name},
    )


def save_window_table(path, table: WindowTable):
    arrays = {name: getattr(table, name) for name in _TABLE_ARRAYS}
    arrays["meta_json"] = np.str_(json.dumps(table.meta, sort_keys=True))
    if table.imu is not None:
        arrays["imu"] = table.imu
    np.savez(path, **arrays)


def load_arrays(path, names, optional=()) -> dict:
    """Named arrays of the ``.npz`` archive at ``path``; those in ``optional`` may be absent.

    A file that is not a readable ``.npz`` archive, or lacks one of
    ``names``, is a :class:`FormatError` naming the file.
    """
    try:
        archive = np.load(path, allow_pickle=False)
        if isinstance(archive, np.lib.npyio.NpzFile):
            with archive:
                for name in names:
                    if name not in archive.files:
                        raise FormatError(f"{path} holds no {name} array")
                return {name: archive[name] for name in (*names, *optional) if name in archive.files}
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error):
        pass
    raise FormatError(f"{path} is not a readable .npz archive")


def load_window_table(path) -> WindowTable:
    arrays = load_arrays(path, (*_TABLE_ARRAYS, "meta_json"), optional=("imu",))
    try:
        meta = json.loads(str(arrays.pop("meta_json")))
    except ValueError as exc:
        raise FormatError(f"{path}: meta_json is not JSON ({exc})") from None
    return WindowTable(imu=arrays.pop("imu", None), meta=meta, **arrays)


# ---------------------------------------------------------------------------
# arm inputs

def arm_streams(arm: str, table: WindowTable, virtual=None) -> dict:
    """Raw window arrays that feed ``arm``, by stream name, muscle first."""
    if arm == "unimodal":
        return {"semg": table.semg_hgr}
    if arm == "virtual_multimodal":
        if virtual is None:
            raise DataError("the virtual_multimodal arm needs virtual motion windows (--virtual)")
        if np.ndim(virtual) != 3 or virtual.shape[:2] != table.semg_hgr.shape[:2]:
            raise DataError(f"virtual motion windows of shape {np.shape(virtual)} do not match the "
                            f"table's {table.semg_hgr.shape[:2]} windows")
        return {"semg": table.semg_hgr, "imu": virtual}
    if arm == "real_multimodal":
        if table.imu is None:
            raise DataError("the real_multimodal arm needs motion windows, the table has none")
        return {"semg": table.semg_hgr, "imu": table.imu}
    raise DataError(f"unknown arm {arm!r}")


def zscore_streams(streams: dict, stats: dict | None = None, fit_rows=slice(None)):
    """(float32 z-scored arrays, stats); stats not given are fitted on each array's ``fit_rows``."""
    if stats is None:
        stats = {name: fit_stats(arr[fit_rows]) for name, arr in streams.items()}
    normalized = {name: apply_norm(arr, stats[name], "zscore").astype(np.float32)
                  for name, arr in streams.items()}
    return normalized, stats


# ---------------------------------------------------------------------------
# leakage guard

def validate_plan(plan: SplitPlan):
    if set(plan.clf_train_trials) & set(plan.clf_test_trials):
        raise LeakageError("split plan has overlapping train and test trials")


def assert_no_leakage(plan: SplitPlan, subjects: np.ndarray, trials: np.ndarray, role: str):
    """Check window tags against the plan before a training or eval step."""
    validate_plan(plan)
    pairs = set(zip(subjects.tolist(), trials.tolist()))
    test_pairs = {
        (s, t) for s in plan.recognition_subjects for t in plan.clf_test_trials
    }
    if role == "gan":
        allowed = {(s, t) for s in plan.gan_subjects for t in plan.gan_train_trials}
        if not pairs <= allowed:
            raise LeakageError(f"generator training touches out-of-plan trials: {sorted(pairs - allowed)[:4]}")
        if pairs & test_pairs:
            raise LeakageError("generator training touches recognition test trials")
    elif role == "clf_train":
        allowed = {(s, t) for s in plan.recognition_subjects for t in plan.clf_train_trials}
        if not pairs <= allowed:
            raise LeakageError(f"classifier training touches out-of-plan trials: {sorted(pairs - allowed)[:4]}")
    elif role == "clf_test":
        if not pairs <= test_pairs:
            raise LeakageError("evaluation touches non-test trials")
    else:
        raise ConfigError(f"unknown leakage role {role!r}")


# ---------------------------------------------------------------------------
# metrics

def compute_accuracy(predictions, labels) -> float:
    """Fraction of windows whose predicted class matches the truth."""
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape or p.size == 0:
        raise DataError("predictions and labels must be equal-length and non-empty")
    return float(np.mean(p == y))


def trial_majority_accuracy(predictions, labels, trials) -> float:
    """Majority vote over each recorded (gesture label, trial); ties go to the lowest class."""
    votes = {}
    for label, trial, pred in zip(np.asarray(labels).tolist(), np.asarray(trials).tolist(),
                                  np.asarray(predictions).tolist()):
        votes.setdefault((label, trial), []).append(pred)
    correct = sum(int(np.bincount(preds).argmax() == label) for (label, _), preds in votes.items())
    return correct / len(votes)


def aggregate(values) -> tuple:
    """Mean and sample standard deviation (n - 1); std is 0 for one value."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise DataError("nothing to aggregate")
    mean = float(arr.mean())
    std = 0.0 if arr.size == 1 else float(arr.std(ddof=1))
    return mean, std


@dataclass
class MetricsReport(DictCodec):
    """Per-subject accuracies, per-arm summaries, and arm deltas."""

    per_subject: dict
    arm_summary: dict
    deltas: dict
    config_fingerprint: str
    seed: int
    dataset: str
    profile: str
    experiment: str
    vimu_report: int = 1

    @classmethod
    def from_dict(cls, d) -> "MetricsReport":
        if isinstance(d, dict) and d.get("vimu_report") != 1:
            raise DataError(f"unsupported report version {d.get('vimu_report')!r}")
        return super().from_dict(d)


def _summarize(per_subject: dict) -> dict:
    summary = {}
    for arm, rows in per_subject.items():
        mean, std = aggregate([r["window_accuracy"] for r in rows.values()])
        summary[arm] = {"mean": mean, "std": std}
    return summary


def _deltas(summary: dict) -> dict:
    deltas = {}
    if "virtual_multimodal" in summary and "unimodal" in summary:
        deltas["virtual_minus_unimodal"] = summary["virtual_multimodal"]["mean"] - summary["unimodal"]["mean"]
    if "real_multimodal" in summary and "virtual_multimodal" in summary:
        deltas["real_minus_virtual"] = summary["real_multimodal"]["mean"] - summary["virtual_multimodal"]["mean"]
    return deltas


# ---------------------------------------------------------------------------
# report emission

def emit_report(report: MetricsReport, out_dir, formats=("json", "csv", "svg")) -> list:
    """Write the report as JSON, CSV rows, and/or a grouped-bar SVG chart."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "json":
            path = out_dir / "report.json"
            write_json(path, report.to_dict())
        elif fmt == "csv":
            path = out_dir / "report.csv"
            lines = ["arm,subject,window_accuracy,trial_majority_accuracy"]
            for arm in sorted(report.per_subject):
                for subject in sorted(report.per_subject[arm], key=int):
                    row = report.per_subject[arm][subject]
                    lines.append(
                        f"{arm},{subject},{row['window_accuracy']:.6f},{row['trial_majority_accuracy']:.6f}"
                    )
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        elif fmt == "svg":
            path = out_dir / "report.svg"
            path.write_text(render_report_svg(report), encoding="utf-8")
        else:
            raise ConfigError(f"unknown report format {fmt!r}")
        written.append(path)
    return written


def render_report_svg(report: MetricsReport) -> str:
    """Static grouped bars with std whiskers and a real-motion reference line."""
    arms = [a for a in ARMS if a in report.arm_summary]
    width, height = 480, 300
    left, bottom, top = 60, 40, 20
    plot_w, plot_h = width - left - 20, height - bottom - top
    bar_w = plot_w / max(len(arms), 1) * 0.6
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{left}" y="14" font-size="12">{report.dataset} / {report.experiment} '
        f'window accuracy (mean +/- std over subjects)</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + plot_h * (1.0 - frac)
        parts.append(f'<text x="{left - 38}" y="{y + 4}" font-size="10">{frac:.2f}</text>')
        parts.append(f'<line x1="{left - 4}" y1="{y}" x2="{left}" y2="{y}" stroke="black"/>')
    for i, arm in enumerate(arms):
        stats = report.arm_summary[arm]
        cx = left + plot_w * (i + 0.5) / len(arms)
        x = cx - bar_w / 2
        h = plot_h * stats["mean"]
        y = top + plot_h - h
        parts.append(f'<g class="bar-group" id="{arm}">')
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="#5b8db8"/>')
        lo = top + plot_h * (1.0 - max(stats["mean"] - stats["std"], 0.0))
        hi = top + plot_h * (1.0 - min(stats["mean"] + stats["std"], 1.0))
        parts.append(f'<line x1="{cx:.1f}" y1="{lo:.1f}" x2="{cx:.1f}" y2="{hi:.1f}" stroke="black"/>')
        parts.append(f'<text x="{cx:.1f}" y="{height - 22}" font-size="10" text-anchor="middle">{arm}</text>')
        parts.append(f'<text x="{cx:.1f}" y="{y - 4:.1f}" font-size="10" text-anchor="middle">{stats["mean"]:.3f}</text>')
        parts.append("</g>")
    if "real_multimodal" in report.arm_summary:
        ref = report.arm_summary["real_multimodal"]["mean"]
        y = top + plot_h * (1.0 - ref)
        parts.append(
            f'<line class="reference" x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="red" stroke-dasharray="6,3"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# the full pipeline

def train_generator_bundle(semg_windows: np.ndarray, imu_windows: np.ndarray,
                           cfg: GanTrainConfig, out_dir):
    """Train the generator on one cohort's raw (muscle, motion) window pairs.

    Fits the cohort's channel stats, z-scores the muscle windows, scales the
    motion windows to [-1, 1] and runs ``train_gan``. The bundle records the
    stats, the seed, the data fingerprint and the epochs/pairs provenance.
    It writes the bundle, the trained critic with its recorded config, and
    ``history.json`` under ``out_dir``. Returns (bundle, discriminator
    params, history).
    """
    semg_stats = fit_stats(semg_windows)
    imu_stats = fit_stats(imu_windows)
    semg_norm = apply_norm(semg_windows, semg_stats, "zscore").astype(np.float32)
    imu_norm = apply_norm(imu_windows, imu_stats, "minmax_pm1").astype(np.float32)
    gen_params, disc_params, history = train_gan(semg_norm, imu_norm, cfg)
    n, k, c1 = semg_norm.shape
    bundle = GeneratorBundle(
        cfg=GeneratorConfig(k, c1, imu_norm.shape[2], tconv_maps=cfg.generator_maps),
        params=gen_params,
        semg_stats=semg_stats,
        imu_stats=imu_stats,
        seed=cfg.seed,
        data_fingerprint=data_fingerprint(semg_norm, imu_norm),
        extra={"epochs": cfg.epochs, "pairs": n},
    )
    save_generator_bundle(out_dir, bundle, disc_params,
                          DiscriminatorConfig.from_dict(history["discriminator"]))
    write_json(Path(out_dir, "history.json"), history)
    return bundle, disc_params, history


class _ArmHelper:
    """A forked child process that trains ``units`` in order through ``train_arm``.

    A unit is (arm, recognition subjects). The child gets every array it
    trains on through the fork, pickles one (rows, error) message per unit
    through a pipe, whatever the earlier units raised, and ends with
    ``os._exit``. ``rows(arm)`` reads the next message, which is that arm's
    when the units are asked for in order, and raises the error it carries;
    ``close()`` kills the child if it still runs and reaps it.
    """

    def __init__(self, units, train_arm):
        self.arms = tuple(arm for arm, _ in units)
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            _serve_arms(units, train_arm, write_fd)
        os.close(write_fd)
        self._pipe = os.fdopen(read_fd, "rb")

    def rows(self, arm: str) -> dict:
        try:
            rows, error = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"the arm helper process ended with {self._reap()} "
                                    f"before reporting the {arm} arm") from None
        if error is not None:
            raise error
        return rows

    def close(self):
        self._pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> str:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        return f"exit status {code}" + (f" (killed by signal {-code})" if code < 0 else "")


def _serve_arms(units, train_arm, fd):
    """The helper's body: one pickled (rows, error) per unit; never returns."""
    code = 1
    try:
        with os.fdopen(fd, "wb") as pipe:
            for arm, subjects in units:
                rows = error = None
                try:
                    rows = train_arm(arm, subjects=subjects)
                except Exception as exc:
                    error = exc
                    if hasattr(error, "add_note"):  # Python 3.11+: the traceback goes along
                        error.add_note("raised in the arm helper process:\n"
                                       + "".join(traceback.format_exception(error)))
                pickle.dump((rows, error), pipe)
                pipe.flush()
        code = 0
    finally:
        os._exit(code)


def _one_blas_thread() -> bool:
    """Whether OpenBLAS is set to one thread per process, read from its variables in its order.

    Without one of them set to a positive count, OpenBLAS starts a thread
    per core in each process. Two such pools on the same cores slow each
    other down: on a two-core machine the desk virtual arm took about 5.5 s
    split between two processes against 2.5 s in one.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


def _train_arm(arm: str, cfg: ExperimentConfig, plan: SplitPlan, table: WindowTable, classes: int,
               classifiers_dir: Path, virtual=None, subjects=None) -> dict:
    """Train and evaluate one classifier per subject on ``arm``; its per-subject rows.

    ``subjects`` defaults to every recognition subject. The arm's
    preparation (the input z-score fitted on all its recognition subjects'
    training windows and, with ``classifier.pretrain``, the pooled model)
    does not depend on ``subjects``, and each subject's classifier has seeds
    of its own, so any share of the subjects gets the rows and bundles the
    whole arm gives those subjects. Each subject's bundle is written under
    ``classifiers_dir/arm``.
    """
    rec_mask = np.isin(table.subjects, plan.recognition_subjects)
    train_mask = rec_mask & np.isin(table.trials, plan.clf_train_trials)
    test_mask = rec_mask & np.isin(table.trials, plan.clf_test_trials)

    # Per-arm input normalization, fitted on the training cohort only.
    normalized, stream_stats = zscore_streams(arm_streams(arm, table, virtual), fit_rows=train_mask)
    arrays = list(normalized.values())

    pretrained = None
    if cfg.classifier.pretrain:
        assert_no_leakage(plan, table.subjects[train_mask], table.trials[train_mask], "clf_train")
        pretrained = cfg.network.model(normalized, classes, derive_seed(cfg.seed, arm, "pretrain"))
        pool_cfg = replace(cfg.classifier, seed=derive_seed(cfg.seed, arm, "pretrain", "sgd"))
        train_classifier(pretrained, [a[train_mask] for a in arrays], table.labels[train_mask],
                         pool_cfg)

    arm_rows = {}
    for subject in plan.recognition_subjects if subjects is None else subjects:
        s_train = train_mask & (table.subjects == subject)
        s_test = test_mask & (table.subjects == subject)
        assert_no_leakage(plan, table.subjects[s_train], table.trials[s_train], "clf_train")
        assert_no_leakage(plan, table.subjects[s_test], table.trials[s_test], "clf_test")
        seed = derive_seed(cfg.seed, arm, "subject", subject)
        if pretrained is not None:
            model = pretrained.clone()
        else:
            model = cfg.network.model(normalized, classes, seed)
        subj_cfg = replace(cfg.classifier, seed=derive_seed(cfg.seed, arm, "sgd", subject))
        train_classifier(model, [a[s_train] for a in arrays], table.labels[s_train], subj_cfg)
        preds, _ = predict(model, [a[s_test] for a in arrays])
        arm_rows[str(subject)] = {
            "window_accuracy": compute_accuracy(preds, table.labels[s_test]),
            "trial_majority_accuracy": trial_majority_accuracy(preds, table.labels[s_test],
                                                               table.trials[s_test]),
        }
        save_classifier_bundle(
            classifiers_dir / arm / f"subject_{subject:02d}",
            model, stream_stats, seed,
            extra={"arm": arm, "subject": subject},
        )
    return arm_rows


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run the requested arms end to end and write every output under ``cfg.out_dir``; returns the report.

    Only the virtual arm needs the generator. When it is requested with
    other arms, a forked helper process trains those while this process
    trains the generator and synthesizes virtual motion. With more than one
    recognition subject and OpenBLAS set to one thread per process, this
    process then forks a second helper, which gets the virtual windows
    through the fork, and the two split the virtual arm: this process
    trains the first half of the subjects (rounded up), the helper the
    rest. Each repeats the arm's deterministic preparation. Where
    ``os.fork`` does not exist every arm runs here. Every arm's work and
    outputs are those of the serial run, and rows and errors are taken in
    ``cfg.arms`` order, then subject order, so a run raises the error the
    serial order would have raised first.
    """
    dataset = Dataset(cfg.dataset)
    profile = resolve_profile(cfg.profile, dataset.manifest)
    plan = make_split(dataset.manifest, cfg.experiment, profile)
    validate_plan(plan)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    need_real = "real_multimodal" in cfg.arms
    need_virtual = "virtual_multimodal" in cfg.arms
    if (need_real or need_virtual) and dataset.manifest.imu_channels < 1:
        raise DataError("the requested arms need motion channels, dataset has none")

    table = extract_windows(dataset, profile, cfg.preproc)
    if table.imu is None and (need_real or need_virtual):
        raise DataError("motion windows missing for the requested arms")

    train_arm = partial(_train_arm, cfg=cfg, plan=plan, table=table, classes=dataset.manifest.gestures,
                        classifiers_dir=out_dir / "classifiers")
    subjects = plan.recognition_subjects
    half = (len(subjects) + 1) // 2  # the virtual arm's subjects this process trains when it splits
    split = need_virtual and half < len(subjects) and hasattr(os, "fork") and _one_blas_thread()
    units = [(arm, None) for arm in cfg.arms if arm != "virtual_multimodal"]
    helpers = []
    per_subject = {}
    try:
        if need_virtual and units and hasattr(os, "fork"):
            helpers.append(_ArmHelper(units, train_arm))
        # Generator training on its cohort, then virtual-window synthesis.
        virtual = None
        if need_virtual:
            gan_mask = np.isin(table.subjects, plan.gan_subjects) & np.isin(table.trials, plan.gan_train_trials)
            gan_table = table.select(gan_mask)
            assert_no_leakage(plan, gan_table.subjects, gan_table.trials, "gan")
            gan_cfg = replace(cfg.gan, seed=derive_seed(cfg.seed, "gan"))
            bundle, _, _ = train_generator_bundle(gan_table.semg_gan, gan_table.imu, gan_cfg, out_dir / "gan")
            semg_for_generator = normalize_generator_inputs(bundle, table.semg_gan).astype(np.float32)
            virtual = generate_virtual(bundle, semg_for_generator).astype(np.float32)
            if split:
                helpers.append(_ArmHelper([("virtual_multimodal", subjects[half:])],
                                          partial(train_arm, virtual=virtual)))

        for arm in cfg.arms:
            helper = next((h for h in helpers if arm in h.arms), None)
            if helper is None:
                per_subject[arm] = train_arm(arm, virtual=virtual)
            elif arm == "virtual_multimodal":
                per_subject[arm] = train_arm(arm, virtual=virtual, subjects=subjects[:half])
                per_subject[arm].update(helper.rows(arm))
            else:
                per_subject[arm] = helper.rows(arm)
    finally:
        for helper in helpers:
            helper.close()

    summary = _summarize(per_subject)
    report = MetricsReport(
        per_subject=per_subject,
        arm_summary=summary,
        deltas=_deltas(summary),
        config_fingerprint=cfg.fingerprint(dataset.manifest),
        seed=cfg.seed,
        dataset=dataset.manifest.name,
        profile=profile.name,
        experiment=cfg.experiment,
    )
    emit_report(report, out_dir)
    return report
