import json
import os
import struct
import threading
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

from vimu import data as vdata
from vimu.data import (
    CsvTrialMeta,
    Dataset,
    DatasetManifest,
    ManifestEntry,
    PROFILES,
    SynthConfig,
    TrialRecord,
    dataset_write_lock,
    import_csv,
    make_split,
    manifest_for_profile,
    read_trial,
    resolve_profile,
    synth_generate,
    synth_latents,
    synth_trial_arrays,
    synthetic_profile,
    trim_trial,
    write_trial,
)
from vimu.errors import ConfigError, DataError, FormatError
from vimu.sigproc import MultichannelSeries


def make_record(frames=100, semg_ch=4, imu_ch=3, rate=200.0, with_imu=True, seed=0):
    rng = np.random.default_rng(seed)
    semg = MultichannelSeries(rng.standard_normal((frames, semg_ch)), rate, "semg")
    imu = MultichannelSeries(rng.standard_normal((frames, imu_ch)), rate, "acc") if with_imu else None
    return TrialRecord(semg=semg, imu=imu, gesture_id=2, subject_id=1, trial_id=3)


class TestTrialBinary:
    def test_round_trip_bit_exact(self, tmp_path):
        rec = make_record()
        path = tmp_path / "t.gst"
        write_trial(path, rec)
        loaded = read_trial(path, 200.0, gesture_id=2, subject_id=1, trial_id=3)
        # float32 storage: loaded data equals the float32 projection
        assert np.array_equal(loaded.semg.data, rec.semg.data.astype(np.float32).astype(np.float64))
        path2 = tmp_path / "t2.gst"
        write_trial(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_semg_only_trial(self, tmp_path):
        rec = make_record(with_imu=False)
        path = tmp_path / "t.gst"
        write_trial(path, rec)
        loaded = read_trial(path, 200.0)
        assert loaded.imu is None

    def test_euler_flag_round_trips(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = TrialRecord(
            semg=MultichannelSeries(rng.standard_normal((10, 2)), 100.0, "semg"),
            imu=MultichannelSeries(rng.standard_normal((10, 3)), 100.0, "euler"),
            gesture_id=0, subject_id=0, trial_id=1,
        )
        path = tmp_path / "e.gst"
        write_trial(path, rec)
        assert read_trial(path, 100.0).imu.modality == "euler"

    @pytest.mark.parametrize("cut", [3, 8, 14, -5, -1])
    def test_truncation_rejected(self, tmp_path, cut):
        path = tmp_path / "t.gst"
        write_trial(path, make_record(frames=20))
        blob = path.read_bytes()
        bad = tmp_path / "bad.gst"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            read_trial(bad, 200.0)

    def test_crc_corruption_rejected(self, tmp_path):
        path = tmp_path / "t.gst"
        write_trial(path, make_record(frames=20))
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        bad = tmp_path / "bad.gst"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="CRC"):
            read_trial(bad, 200.0)

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.gst"
        bad.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            read_trial(bad, 200.0)

    @pytest.mark.parametrize("stream", ["semg", "imu"])
    def test_sample_beyond_float32_rejected_at_write(self, tmp_path, stream):
        rec = make_record(frames=20)
        series = getattr(rec, stream)
        data = series.data.copy()
        data[5, 1] = -1e39  # finite in float64, inf in float32
        path = tmp_path / "t.gst"
        with pytest.raises(DataError, match="float32 range"):
            write_trial(path, replace(rec, **{stream: series.with_data(data)}))
        assert not path.exists()

    def test_zero_frame_trial_rejected_at_write(self, tmp_path):
        with pytest.raises(DataError):
            MultichannelSeries(np.zeros((0, 2)), 100.0, "semg")

    def test_nan_sample_in_crc_valid_trial_rejected(self, tmp_path):
        path = tmp_path / "t.gst"
        write_trial(path, make_record(frames=20))
        blob = bytearray(path.read_bytes()[:-4])
        blob[17:21] = struct.pack("<f", float("nan"))  # first muscle sample
        path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(bytes(blob))))
        with pytest.raises(DataError, match="non-finite"):
            read_trial(path, 200.0)


class TestCsvImport:
    def _write(self, path, rows, header=None):
        lines = ([header] if header else []) + [",".join(str(v) for v in r) for r in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_db2_geometry_accepted(self, tmp_path):
        semg = tmp_path / "semg.csv"
        self._write(semg, [[0.1 * c for c in range(12)] for _ in range(50)], header=",".join(f"ch{c}" for c in range(12)))
        meta = CsvTrialMeta(sample_rate_hz=2000.0, semg_channels=12)
        rec = import_csv(semg, None, meta)
        assert rec.semg.channel_count == 12 and rec.semg.frames == 50

    def test_wrong_channel_count_rejected(self, tmp_path):
        semg = tmp_path / "semg.csv"
        self._write(semg, [[1.0] * 11 for _ in range(5)])
        with pytest.raises(DataError, match="11 columns"):
            import_csv(semg, None, CsvTrialMeta(sample_rate_hz=2000.0, semg_channels=12))

    def test_scientific_notation_parses(self, tmp_path):
        semg = tmp_path / "semg.csv"
        semg.write_text("3.0e-1,2\n1,2\n", encoding="utf-8")
        rec = import_csv(semg, None, CsvTrialMeta(sample_rate_hz=100.0, semg_channels=2))
        assert rec.semg.data[0, 0] == pytest.approx(0.3)

    def test_ragged_rows_rejected(self, tmp_path):
        semg = tmp_path / "semg.csv"
        semg.write_text("1,2\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataError, match="ragged"):
            import_csv(semg, None, CsvTrialMeta(sample_rate_hz=100.0, semg_channels=2))

    def test_non_numeric_cell_rejected(self, tmp_path):
        semg = tmp_path / "semg.csv"
        semg.write_text("1,2\n1,banana\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-numeric"):
            import_csv(semg, None, CsvTrialMeta(sample_rate_hz=100.0, semg_channels=2))

    def test_paired_motion_csv(self, tmp_path):
        semg = tmp_path / "s.csv"
        imu = tmp_path / "i.csv"
        self._write(semg, [[1.0, 2.0]] * 8)
        self._write(imu, [[0.1, 0.2, 0.3]] * 8)
        meta = CsvTrialMeta(sample_rate_hz=100.0, semg_channels=2, imu_channels=3, imu_kind="euler")
        rec = import_csv(semg, imu, meta)
        assert rec.imu.modality == "euler" and rec.imu.frames == 8


class TestTrim:
    def test_full_rate_arithmetic(self):
        # 6 s at 2040 Hz: action slice is 6120 frames starting at frame 2040
        rec = make_record(frames=6 * 2040, semg_ch=2, imu_ch=3, rate=2040.0)
        action = trim_trial(rec)
        assert action.semg.frames == 6120
        assert np.array_equal(action.semg.data[0], rec.semg.data[2040])

    def test_too_short_rejected(self):
        rec = make_record(frames=100, rate=200.0)  # needs 800 frames
        with pytest.raises(DataError):
            trim_trial(rec)


class TestSplits:
    # Subject counts and trial lists for every profile row, both experiments.
    EXPECTED_EXP1 = {
        "femg_vpf": (14, (1, 2, 3, 4), (1, 3), (2, 4)),
        "ninapro_db2": (20, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
        "ninapro_db3": (3, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
        "ninapro_db5": (5, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
        "ninapro_db7": (10, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
        "siem": (10, (1, 2, 3, 4, 5, 6), (1, 3, 4, 6), (2, 5)),
    }
    EXPECTED_EXP2 = {
        "femg_vpf": (28, (1, 3), (1, 3), (2, 4)),
        "ninapro_db2": (40, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
        "ninapro_db3": (6, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
        "ninapro_db5": (10, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
        "ninapro_db7": (20, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
        "siem": (20, (1, 3, 4, 6), (1, 3, 4, 6), (2, 5)),
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_exp1_rows(self, name):
        profile = PROFILES[name]
        plan = make_split(manifest_for_profile(profile), "exp1", profile)
        gan_n, gan_trials, train, test = self.EXPECTED_EXP1[name]
        assert len(plan.gan_subjects) == gan_n
        assert len(plan.recognition_subjects) == profile.subjects - gan_n
        assert not set(plan.gan_subjects) & set(plan.recognition_subjects)
        assert tuple(plan.gan_train_trials) == gan_trials
        assert tuple(plan.clf_train_trials) == train
        assert tuple(plan.clf_test_trials) == test

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_exp2_rows(self, name):
        profile = PROFILES[name]
        plan = make_split(manifest_for_profile(profile), "exp2", profile)
        n, gan_trials, train, test = self.EXPECTED_EXP2[name]
        assert len(plan.gan_subjects) == n and len(plan.recognition_subjects) == n
        assert tuple(plan.gan_train_trials) == gan_trials
        assert tuple(plan.clf_train_trials) == train
        assert tuple(plan.clf_test_trials) == test
        assert not set(plan.clf_train_trials) & set(plan.clf_test_trials)

    def test_split_is_pure(self):
        profile = PROFILES["ninapro_db2"]
        manifest = manifest_for_profile(profile)
        a = make_split(manifest, "exp1", profile)
        b = make_split(manifest, "exp1", profile)
        assert a == b

    def test_subject_count_mismatch_rejected(self):
        profile = PROFILES["ninapro_db5"]
        manifest = manifest_for_profile(profile)
        manifest.subjects = manifest.subjects[:-1]
        with pytest.raises(DataError):
            make_split(manifest, "exp1", profile)

    def test_unknown_experiment(self):
        profile = PROFILES["siem"]
        with pytest.raises(ConfigError):
            make_split(manifest_for_profile(profile), "exp3", profile)

    def test_synthetic_profile_rules(self):
        cfg = SynthConfig()
        manifest = DatasetManifest(
            name="synthetic", subjects=[1, 2, 3, 4], gesture_labels=["a", "b", "c", "d"],
            trials_per_gesture=4, sample_rate_hz=200.0, semg_channels=8,
            imu_channels=3, imu_kind="acc", index=(),
        )
        profile = synthetic_profile(manifest)
        assert profile.clf_train_trials == (1, 3)
        assert profile.clf_test_trials == (2, 4)
        plan = make_split(manifest, "exp1", profile)
        assert plan.gan_subjects == [1, 2] and plan.recognition_subjects == [3, 4]


class TestSynthetic:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(subjects=1, gestures=2, trials=1, trial_seconds=5.0)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth_generate(cfg, d1)
        synth_generate(cfg, d2)
        for p1 in sorted(d1.glob("*.gst")):
            p2 = d2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_default_desk_bookkeeping(self, tmp_path):
        manifest = synth_generate(SynthConfig(), tmp_path / "ds")
        assert len(manifest.index) == 4 * 4 * 4
        ds = Dataset(tmp_path / "ds")
        ds.validate_files()

    def test_noise_free_motion_is_exactly_linear(self):
        cfg = SynthConfig(semg_noise=0.0, imu_noise=0.0, subject_gain_jitter=0.0)
        patterns, mixing, offsets = synth_latents(cfg)
        for gesture in range(cfg.gestures):
            semg, imu, env = synth_trial_arrays(cfg, subject=1, gesture=gesture, trial=1)
            target_direction = mixing @ patterns[gesture]
            expected = env[:, None] * target_direction[None, :] + offsets[None, :]
            assert np.allclose(imu, expected, atol=1e-12)
            # a least-squares estimator recovers the per-gesture direction
            active = env > 1e-9
            recovered = np.linalg.lstsq(
                env[active][:, None], imu[active] - offsets[None, :], rcond=None
            )[0][0]
            assert np.allclose(recovered, target_direction, atol=1e-9)

    @pytest.mark.parametrize("rate", [200.0, 500.0])
    def test_synthetic_profile_trims_at_the_action(self, tmp_path, rate):
        cfg = SynthConfig(subjects=1, gestures=2, trials=2, sample_rate_hz=rate, trial_seconds=5.0)
        trim = synthetic_profile(synth_generate(cfg, tmp_path / "ds")).trim
        for gesture in range(cfg.gestures):
            env = vdata.synth_envelope(cfg, gesture, subject=1, trial=1)
            t = np.arange(len(env)) / rate
            action = (t >= trim.rest_lead_s) & (t < trim.rest_lead_s + trim.action_s)
            assert np.all(env[~action] == 0.0)
            # the action's first frame is sin(0) = 0; every later one is active
            assert env[action][0] == 0.0 and np.all(env[action][1:] > 0.0)

    @pytest.mark.parametrize("rate", [333.3, 200.5])
    def test_the_trim_keeps_the_whole_action_at_a_non_integer_rate(self, tmp_path, rate):
        # Each frame's value is its index, so the trim returns the indices it keeps.
        cfg = SynthConfig(subjects=1, gestures=2, trials=2, sample_rate_hz=rate)
        trim = synthetic_profile(synth_generate(cfg, tmp_path / "ds")).trim
        for gesture in range(cfg.gestures):
            env = vdata.synth_envelope(cfg, gesture, subject=1, trial=1)
            indices = MultichannelSeries(np.arange(len(env), dtype=np.float64)[:, None], rate, "semg")
            record = TrialRecord(semg=indices, imu=None, gesture_id=gesture, subject_id=1, trial_id=1)
            kept = trim_trial(record, trim.rest_lead_s, trim.action_s).semg.data[:, 0].astype(int)
            # the action's first frame is sin(0) = 0
            assert env[kept[0]] == 0.0
            assert np.array_equal(np.flatnonzero(env), kept[1:])

    def test_class_conditional_motion_means_differ(self):
        cfg = SynthConfig()
        patterns, mixing, _ = synth_latents(cfg)
        directions = patterns @ mixing.T
        for i in range(cfg.gestures):
            for j in range(i + 1, cfg.gestures):
                assert np.linalg.norm(directions[i] - directions[j]) > 1e-3

    def test_orphan_file_detected(self, tmp_path):
        synth_generate(SynthConfig(subjects=1, gestures=1, trials=1), tmp_path / "ds")
        (tmp_path / "ds" / "stray.gst").write_bytes(b"GST1junk")
        with pytest.raises(DataError, match="orphan"):
            Dataset(tmp_path / "ds").validate_files()

    def test_missing_file_detected(self, tmp_path):
        synth_generate(SynthConfig(subjects=1, gestures=1, trials=2), tmp_path / "ds")
        ds = Dataset(tmp_path / "ds")
        (tmp_path / "ds" / ds.manifest.index[0].path).unlink()
        with pytest.raises(DataError, match="resolve"):
            ds.validate_files()

    def test_write_lock_is_exclusive(self, tmp_path):
        with dataset_write_lock(tmp_path / "ds"):
            with pytest.raises(DataError, match="locked"):
                with dataset_write_lock(tmp_path / "ds"):
                    pass


# 2 x 2 x 2 = 8 trials: more than one for each of three writer threads
THREADED = SynthConfig(subjects=2, gestures=2, trials=2, trial_seconds=4.0, seed=4)


def _cpus(monkeypatch, n):
    """Make the process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


class TestThreadedWriter:
    def test_worker_count_does_not_change_a_byte(self, tmp_path, monkeypatch):
        write = vdata.write_trial
        files = {}
        for workers in (1, 3):
            writers = set()

            def recording(path, record):
                writers.add(threading.current_thread().name)
                # The pool starts a thread per key submitted while none is
                # idle; a write that takes a while keeps every thread in use.
                time.sleep(0.05)
                write(path, record)

            _cpus(monkeypatch, workers)
            monkeypatch.setattr(vdata, "write_trial", recording)
            out = tmp_path / f"w{workers}"
            synth_generate(THREADED, out)
            assert len(writers) == workers
            files[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(files[1]) == 8 + 2  # trials, manifest.json, synth_config.json
        assert files[3] == files[1]
        index = json.loads(files[3]["manifest.json"])["index"]
        keys = [(e["subject"], e["gesture"], e["trial"]) for e in index]
        assert keys == sorted(keys) and len(keys) == 8

    @pytest.mark.parametrize("slow", ["s01_g00_t02.gst", "s01_g01_t01.gst"],
                             ids=["first_key_fails_last", "first_key_fails_first"])
    def test_first_failing_trial_wins_and_nothing_is_left_behind(self, slow, tmp_path, monkeypatch):
        # Keys 1 and 2 (s01_g00_t02, s01_g01_t01) both fail; the one named
        # ``slow`` fails a moment after the other.
        write = vdata.write_trial
        messages = {"s01_g00_t02.gst": "key 1 failed", "s01_g01_t01.gst": "key 2 failed"}

        def failing(path, record):
            if path.name in messages:
                if path.name == slow:
                    time.sleep(0.1)
                raise DataError(messages[path.name])
            write(path, record)

        _cpus(monkeypatch, 3)
        threads_before = threading.active_count()
        out = tmp_path / "ds"
        with monkeypatch.context() as m:
            m.setattr(vdata, "write_trial", failing)
            with pytest.raises(DataError, match="key 1 failed"):
                synth_generate(THREADED, out)
        assert threading.active_count() == threads_before
        assert not (out / "manifest.json").exists()
        # the lock is gone: a second writer into the same directory succeeds
        manifest = synth_generate(THREADED, out)
        assert len(manifest.index) == 8
        Dataset(out).validate_files()


class TestManifest:
    def test_duplicate_index_entry_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            DatasetManifest(
                name="x", subjects=[1], gesture_labels=["a"], trials_per_gesture=1,
                sample_rate_hz=100.0, semg_channels=2, imu_channels=0, imu_kind="none",
                index=[ManifestEntry(1, 0, 1, "a.gst"), ManifestEntry(1, 0, 1, "b.gst")],
            )

    def test_manifest_json_round_trip(self, tmp_path):
        manifest = synth_generate(SynthConfig(subjects=1, gestures=1, trials=1), tmp_path / "ds")
        raw = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        again = DatasetManifest.from_dict(raw)
        assert again.to_dict() == manifest.to_dict()

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            resolve_profile("not_a_db")
