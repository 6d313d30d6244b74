"""Command-line interface.

Subcommands: synth, preprocess, train-gan, generate-imu, train-clf,
evaluate, run, report. Exit codes: 0 success, 1 usage error, 2 data error,
3 training divergence. The VIMU_SEED environment variable overrides the
configured seed of ``vimu run``; the other subcommands ignore it.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as vdata
from . import fusion, gan, pipeline, sigproc
from .codec import read_json
from .errors import ConfigError, DataError, DivergenceError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _given(args, cls) -> dict:
    """The flags given on the command line that name a field of ``cls``, by field name."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name in args}


def int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def str_list(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="vimu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag with no default of its own is absent from the parsed arguments
    # unless given, so the config field it sets keeps its class default.
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--subjects", type=int)
    p.add_argument("--gestures", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--rate", type=float, dest="sample_rate_hz")
    p.add_argument("--semg-channels", type=int)
    p.add_argument("--imu-channels", type=int)
    p.add_argument("--imu-kind", choices=("acc", "euler"))
    p.add_argument("--trial-seconds", type=float)

    p = command("preprocess", help="extract windows through both chains")
    p.add_argument("--dataset", required=True)
    p.add_argument("--profile", default="synthetic")
    p.add_argument("--out", required=True, help="output .npz window table")
    p.add_argument("--window-ms", type=float)
    p.add_argument("--step-ms", type=float)
    p.add_argument("--decimation", type=int)
    p.add_argument("--rms-ms", type=float)
    p.add_argument("--mavg-ms", type=float)
    p.add_argument("--butter-cutoff-hz", type=float)

    p = command("train-gan", help="train the virtual-motion generator")
    p.add_argument("--windows", required=True, help="window table from preprocess")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--max-pairs", type=int)
    p.add_argument("--generator-maps", type=int_list)
    p.add_argument("--snapshot-every", type=int,
                   help="keep a generator snapshot every N epochs and return the best")
    p.add_argument("--seed", type=int)

    p = command("generate-imu", help="synthesize virtual motion windows")
    p.add_argument("--generator", required=True, help="bundle directory from train-gan")
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True, help="output .npz with a virtual_imu array")

    p = command("train-clf", help="train a recognition model")
    p.add_argument("--windows", required=True)
    p.add_argument("--virtual", default=None, help="optional virtual windows .npz")
    p.add_argument("--stream", choices=("semg", "semg+imu", "semg+virtual"), default="semg")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--conv-maps", type=int)
    p.add_argument("--lc-maps", type=int)
    p.add_argument("--dense-units", type=int)
    p.add_argument("--fusion-hidden", type=int)
    p.add_argument("--seed", type=int)

    p = command("evaluate", help="predict windows and emit a CSV")
    p.add_argument("--model", required=True, help="bundle directory from train-clf")
    p.add_argument("--windows", required=True)
    p.add_argument("--virtual", default=None)
    p.add_argument("--out", required=True, help="output predictions CSV")

    p = command("run", help="full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--arms", type=str_list, help="comma-separated arm list")
    p.add_argument("--experiment", choices=("exp1", "exp2"))

    p = command("report", help="re-emit formats from a report JSON")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--formats", type=str_list)
    return parser


def _cmd_synth(args) -> int:
    manifest = vdata.synth_generate(vdata.SynthConfig(**_given(args, vdata.SynthConfig)), args.out)
    print(f"wrote {len(manifest.index)} trials to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    dataset = vdata.Dataset(args.dataset)
    profile = vdata.resolve_profile(args.profile, dataset.manifest)
    spec = sigproc.PreprocSpec(**_given(args, sigproc.PreprocSpec))
    table = pipeline.extract_windows(dataset, profile, spec)
    pipeline.save_window_table(args.out, table)
    print(f"wrote {len(table)} windows to {args.out}")
    return 0


def _cmd_train_gan(args) -> int:
    table = pipeline.load_window_table(args.windows)
    if table.imu is None:
        raise DataError("generator training needs motion windows in the table")
    cfg = gan.GanTrainConfig(**_given(args, gan.GanTrainConfig))
    bundle, _, _ = pipeline.train_generator_bundle(table.semg_gan, table.imu, cfg, args.out)
    print(f"trained generator on {bundle.extra['pairs']} pairs; bundle in {args.out}")
    return 0


def _cmd_generate_imu(args) -> int:
    bundle = gan.load_generator_bundle(args.generator)
    table = pipeline.load_window_table(args.windows)
    semg_norm = gan.normalize_generator_inputs(bundle, table.semg_gan)
    virtual = gan.generate_virtual(bundle, semg_norm.astype(np.float32))
    np.savez(args.out, virtual_imu=virtual.astype(np.float32))
    print(f"wrote {virtual.shape[0]} virtual windows to {args.out}")
    return 0


def _load_virtual(path) -> np.ndarray | None:
    return None if path is None else pipeline.load_arrays(path, ("virtual_imu",))["virtual_imu"]


# train-clf's --stream layouts by the arm they train
_STREAM_ARMS = {"semg": "unimodal", "semg+imu": "real_multimodal", "semg+virtual": "virtual_multimodal"}


def _cmd_train_clf(args) -> int:
    table = pipeline.load_window_table(args.windows)
    arm = _STREAM_ARMS[args.stream]
    normalized, stats = pipeline.zscore_streams(
        pipeline.arm_streams(arm, table, _load_virtual(args.virtual)))
    classes = int(table.labels.max()) + 1
    given = _given(args, fusion.ClfTrainConfig)
    # a shortened schedule keeps only the decay epochs before its end
    epochs = given.get("epochs", fusion.ClfTrainConfig.epochs)
    cfg = fusion.ClfTrainConfig(
        **given, decay_epochs=tuple(d for d in fusion.ClfTrainConfig.decay_epochs if d < epochs))
    spec = pipeline.ClassifierSpec(**_given(args, pipeline.ClassifierSpec))
    model = spec.model(normalized, classes, cfg.seed)
    _, history = fusion.train_classifier(model, list(normalized.values()), table.labels, cfg)
    fusion.save_classifier_bundle(args.out, model, stats, cfg.seed, extra={
        "arm": arm, "train_accuracy": history["accuracy"][-1] if history["accuracy"] else None})
    print(f"trained classifier ({len(normalized)} stream(s), {classes} classes); bundle in {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    model, stats, meta = fusion.load_classifier_bundle(args.model)
    table = pipeline.load_window_table(args.windows)
    virtual = _load_virtual(args.virtual)
    # A bundle that records no arm is scored on what its layout and --virtual name.
    arm = meta.extra.get("arm") or ("unimodal" if len(model.stream_cfgs) == 1 else
                                    "real_multimodal" if virtual is None else "virtual_multimodal")
    streams = pipeline.arm_streams(arm, table, virtual)
    if set(streams) != set(model.stream_cfgs):
        raise DataError(f"bundle arm {arm!r} does not match its streams {sorted(model.stream_cfgs)}")
    normalized, _ = pipeline.zscore_streams(streams, stats)
    preds, probs = fusion.predict(model, list(normalized.values()))
    lines = ["window_id,true_label,predicted_label,max_prob"]
    for i in range(len(preds)):
        wid = f"s{table.subjects[i]}_g{table.labels[i]}_t{table.trials[i]}_o{table.origins[i]}"
        lines.append(f"{wid},{table.labels[i]},{preds[i]},{probs[i].max():.6f}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    acc = pipeline.compute_accuracy(preds, table.labels)
    print(f"accuracy {acc:.4f} over {len(preds)} windows; predictions in {args.out}")
    return 0


def _cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config} must hold a JSON object, got {type(raw).__name__}")
    raw.update(_given(args, pipeline.ExperimentConfig))
    if "VIMU_SEED" in os.environ:
        raw["seed"] = int(os.environ["VIMU_SEED"])
    cfg = pipeline.ExperimentConfig.from_dict(raw)
    report = pipeline.run_experiment(cfg)
    for arm, stats in sorted(report.arm_summary.items()):
        print(f"{arm}: mean {stats['mean']:.4f} std {stats['std']:.4f}")
    print(f"report written under {cfg.out_dir}")
    return 0


def _cmd_report(args) -> int:
    report = read_json(args.report, pipeline.MetricsReport)
    formats = {"formats": args.formats} if "formats" in args else {}
    written = pipeline.emit_report(report, args.out, **formats)
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "train-gan": _cmd_train_gan,
    "generate-imu": _cmd_generate_imu,
    "train-clf": _cmd_train_clf,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ConfigError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
