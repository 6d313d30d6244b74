"""Tests of the benchmark's own code (not part of the library's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the default ``test_*.py`` collection.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import vimu.data  # noqa: E402
import vimu.fusion  # noqa: E402
import vimu.gan  # noqa: E402
import vimu.pipeline  # noqa: E402
from report import layer_metrics, stage_metrics, stage_work, throughput  # noqa: E402
from tracer import END, NAME, PARENT, START, Patch, Tracer, install, self_times  # noqa: E402
from workloads import DeskRun, FullScaleTrain, IngestInfer  # noqa: E402


def _spans(rows):
    """(name, start, end, parent) rows in the tracer's list layout."""
    return [[name, start, end, parent, None] for name, start, end, parent in rows]


def test_self_time_subtracts_union_of_children():
    spans = _spans([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),       # overlaps a: union 1..5 covers 4
        ("a.child", 1.5, 2.5, 1),  # grandchild: counts against a, not root
        ("c", 9.0, 12.0, 0),      # clipped to the parent's end: covers 1
    ])
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_tracer_nests_spans_and_rejects_out_of_order_close():
    tr = Tracer(7)
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    assert tr.spans[inner][PARENT] == outer and tr.spans[outer][PARENT] == -1
    assert tr.spans[outer][START] <= tr.spans[inner][START] <= tr.spans[inner][END] <= tr.spans[outer][END]
    assert tr.records()[1]["run"] == 7
    a, b = tr.open("a"), tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)
    assert b == a + 1


def _attributes(patch_owner_pairs):
    return {(id(owner), attr): (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            for owner, attr in patch_owner_pairs}


@pytest.mark.parametrize("level", ["stages", "full"])
def test_install_wraps_and_restore_puts_originals_back(level):
    tracer = Tracer(0)
    patch = install(tracer, level)
    replaced = list(patch._saved)
    assert replaced
    wrapped = _attributes((owner, attr) for owner, attr, _ in replaced)
    for owner, attr, original in replaced:
        assert wrapped[(id(owner), attr)] is not original
        assert wrapped[(id(owner), attr)].__wrapped__ is original
    patch.restore()
    for owner, attr, original in replaced:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original
    assert not hasattr(vimu.data.DatasetManifest.__dict__["entry"], "__wrapped__")
    assert not hasattr(vimu.pipeline.train_gan, "__wrapped__")


def test_patch_restores_in_reverse_order_when_one_owner_is_patched_twice():
    class Owner:
        @staticmethod
        def f():
            return "original"

    patch = Patch()
    original = Owner.__dict__["f"]
    patch.replace(Owner, "f", lambda fn: staticmethod(lambda: "first"))
    patch.replace(Owner, "f", lambda fn: staticmethod(lambda: "second"))
    assert Owner.f() == "second"
    patch.restore()
    assert Owner.__dict__["f"] is original


def test_traced_ops_time_forward_and_backward():
    import vimu.nn.tensor as T
    from vimu.nn.layers import LayerSpec, backprop, init_stack_params, run_stack
    from vimu.nn.losses import cross_entropy_loss

    layers = [LayerSpec("conv2d", "c", maps=2, kernel=(3, 3), padding="same"),
              LayerSpec("relu", "r"), LayerSpec("flatten", "f"),
              LayerSpec("dense", "d", units=3), LayerSpec("softmax", "s")]
    params = init_stack_params(layers, (1, 4, 4), seed=0)
    tracer = Tracer(0)
    root = tracer.open("run")
    patch = install(tracer, "full")
    try:
        probs = run_stack(layers, params, np.ones((2, 1, 4, 4), dtype=np.float32))
        backprop(cross_entropy_loss(probs, np.array([0, 1])), params)
    finally:
        patch.restore()
        tracer.close(root)
    names = [s[NAME] for s in tracer.spans]
    for kind in ("conv2d", "dense", "act"):
        assert f"nn.{kind}.fwd" in names and f"nn.{kind}.bwd" in names
    assert T.conv2d.__name__ == "conv2d"
    table = layer_metrics([tracer])
    assert table["nn.conv2d.calls"] == (1.0, "count")
    assert table["nn.act.calls"] == (2.0, "count")
    assert 0.0 <= table["trace.unspanned_share"][0] <= 1.0


def test_stage_work_and_throughput_over_iterations():
    spans = _spans([("run", 0.0, 4.0, -1), ("gan.train_gan", 0.0, 1.0, 0),
                    ("fusion.train_classifier", 1.0, 2.0, 0), ("pipeline.extract", 2.0, 2.5, 0),
                    ("gan.generate_virtual", 2.5, 3.0, 0), ("fusion.predict", 3.0, 3.5, 0)])
    for s, attrs in zip(spans[1:], ({"steps": 10}, {"samples": 64}, {"trials": 5},
                                    {"windows": 100}, {"windows": 50})):
        s[4] = attrs
    work = stage_work(spans)
    assert work["infer_windows_per_s"] == [150, pytest.approx(1.0)]
    slower = {key: [w, 3 * b] for key, (w, b) in work.items()}
    rates = throughput([work, slower])
    assert rates == pytest.approx({"gan_steps_per_s": 20 / 4, "clf_samples_per_s": 128 / 4,
                                   "preprocess_trials_per_s": 10 / 2, "infer_windows_per_s": 300 / 4})
    assert stage_metrics([work, slower])["stage.gan_steps_per_s"] == (pytest.approx(20 / 4), "1/s")
    with pytest.raises(RuntimeError):
        stage_work(spans[:3])


# --- output checks fail on corrupted outputs --------------------------------

def _write_report(out: Path, accuracy):
    out.mkdir(parents=True)
    rows = {"1": {"window_accuracy": accuracy, "trial_majority_accuracy": 0.5}}
    (out / "report.json").write_text(json.dumps({
        "per_subject": {"unimodal": rows}, "arm_summary": {"unimodal": {"mean": 0.5, "std": 0.0}},
        "deltas": {}}))


def _desk(tmp_path, monkeypatch, accuracy, digests):
    tmp_path.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(tmp_path)
    w = DeskRun(ROOT, seed=0)
    w.work = tmp_path / "work"
    _write_report(w.work / "run0", accuracy)
    w.config = w.work / "config.json"
    w.config.write_text("{}")
    w.digests = digests
    return w.checks()


def _digests(report="r", ckpt="c"):
    files = {"report.json": report, "gan/generator.ckpt": ckpt, "gan/discriminator.ckpt": ckpt}
    files.update({f"classifiers/a{a}/subject_0{s}/classifier.ckpt": ckpt
                  for a in range(3) for s in range(1, 5)})
    return files


def test_desk_checks_pass_then_fail_on_corruption(tmp_path, monkeypatch):
    good = _desk(tmp_path / "good", monkeypatch, 0.75, [_digests(), _digests()])
    assert all(good.values()), good
    changed = _desk(tmp_path / "changed", monkeypatch, 0.75, [_digests(), _digests(ckpt="other")])
    assert not changed["outputs_identical_across_iterations"]
    for bad in (1.5, -0.1, float("nan")):
        result = _desk(tmp_path / f"acc{bad}", monkeypatch, bad, [_digests()])
        assert not result["accuracies_finite_in_unit_interval"]
    missing = dict(_digests())
    missing.pop("gan/discriminator.ckpt")
    assert not _desk(tmp_path / "missing", monkeypatch, 0.75, [missing])["outputs_written"]


def test_desk_checks_compare_against_digests_of_earlier_processes(tmp_path, monkeypatch):
    first = _desk(tmp_path, monkeypatch, 0.75, [_digests()])
    assert first["outputs_identical_across_processes"]
    w = DeskRun(ROOT, seed=0)
    w.work = tmp_path / "work"
    w.config = w.work / "config.json"
    w.digests = [_digests(report="differs")]
    assert not w.checks()["outputs_identical_across_processes"]
    w.config.write_text('{"seed": 1}')
    assert w.checks()["outputs_identical_across_processes"]


def test_fullscale_checks_fail_on_nonfinite_loss_and_untrained_weights(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = FullScaleTrain(ROOT, seed=3)
    w.GAN = dict(epochs=1, batch_size=16, max_pairs=32)
    w.CLF_TRAIN, w.CLF_TEST, w.CLF_BATCH = 16, 8, 8
    w.setup()
    w.network = vimu.pipeline.ClassifierSpec(conv_maps=2, lc_maps=2, dense_units=4, fusion_hidden=4)
    w.iterate(0, Tracer(0))
    assert all(w.checks().values())

    gan_hist, clf_hist, preds = w.histories[0]
    w.histories[0] = ({**gan_hist, "g_loss": [float("nan")]}, clf_hist, preds)
    assert not w.checks()["losses_finite"]
    w.histories[0] = (gan_hist, clf_hist, preds + 100)
    assert not w.checks()["predictions_in_class_range"]

    last = w.last
    gen0, disc0, _ = vimu.gan.train_gan(last["semg_n"], last["imu_n"],
                                        vimu.gan.GanTrainConfig(**{**w.GAN, "epochs": 0}, seed=w.seed))
    w.last = {**last, "gen": gen0, "disc": disc0}
    checks = w.checks()
    assert not checks["generator_weights_changed"] and not checks["discriminator_weights_changed"]
    w.cleanup()


def test_ingest_checks_fail_on_wrong_counts_and_changed_predictions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = IngestInfer(ROOT, seed=1)
    w.SYNTH = {**w.SYNTH, "subjects": 2, "gestures": 3, "trials": 2}
    w.TRIAL_PAIRS = ((1, 2),)
    w.CLF_TRAIN, w.SUBSET = 32, 20
    w.setup()
    w.iterate(0, Tracer(0))
    assert w.window_counts == [3 * 2 * 29] == [w.expected_windows()]
    assert all(w.checks().values())

    w.window_counts.append(w.expected_windows() - 1)
    assert not w.checks()["window_count_matches_geometry"]
    w.window_counts.pop()

    labels, probs = w.first["uni_out"]
    w.first["uni_out"] = ((labels + 1) % 3, probs)
    checks = w.checks()
    assert not checks["predictions_identical_between_repeats"]
    assert not checks["subset_predict_matches_full_batch"]
    w.cleanup()
