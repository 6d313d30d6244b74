"""sha256 of every file `vimu run` and the staged commands write, and of their datasets.

Synthesizes three datasets (tiny, desk, and a small one at the ingest
geometry: 16 muscle and 3 acceleration channels at 200 Hz, 4 s trials,
3 x 5 x 3 = 45 trials, a count that splits unevenly across writer
threads), runs the CLI's `run` command on
the tiny config (all three arms), on the tiny config with cohort
pretraining and generator snapshots, and on `desk_config` at seed 0. It
also runs every staged command that writes a file on the tiny set:
`preprocess` with the tiny config's preprocessing flags, `train-clf
--stream semg+imu` and `evaluate`; then `train-gan` with the tiny config's
generator schedule, `generate-imu`, `train-clf --stream semg+virtual` and
`evaluate --virtual`; and `report` on the tiny run's `report.json`. It
then writes a JSON object mapping `<run>/<path inside out_dir>`,
`staged/<path>` (the window table, the generator bundle, the virtual
motion, both classifier bundles, both predictions CSVs and the re-emitted
report) and `<dataset>/<file>` (`manifest.json`,
`synth_config.json` and every `.gst` trial) to the file's sha256. Comparing
two such tables shows whether a change moved any output byte.

    PYTHONPATH=src python tools/output_digests.py --work digests_work --out digests.json

With ``--compare PARENT.json`` it also prints every path that is missing,
extra or different against that earlier table, and exits 1 if there is any.

Only a run with OpenBLAS at one thread (``OPENBLAS_NUM_THREADS=1``) splits
the virtual arm between this process and a forked helper; with it unset
every virtual subject trains here. Run the tool both ways to show that a
change keeps the outputs of both paths.
"""
import argparse
import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

from vimu.cli import main
from vimu.data import SynthConfig, synth_generate
from vimu.fusion import ClfTrainConfig
from vimu.gan import GanTrainConfig
from vimu.pipeline import ClassifierSpec, ExperimentConfig, desk_config
from vimu.sigproc import PreprocSpec


DATASETS = ("tiny_data", "desk_data", "ingest_data")


def configs() -> dict:
    """Write the synthetic datasets into the current directory; returns the configs by run name."""
    tiny_data, desk_data, ingest_data = map(Path, DATASETS)
    synth_generate(SynthConfig(subjects=2, gestures=2, trials=4, trial_seconds=5.0, seed=11), tiny_data)
    synth_generate(SynthConfig(seed=0), desk_data)
    # the other fields keep SynthConfig's defaults: 3 acceleration channels at 200 Hz
    synth_generate(SynthConfig(subjects=3, gestures=5, trials=3, semg_channels=16, trial_seconds=4.0,
                               seed=7), ingest_data)
    tiny = ExperimentConfig(
        dataset=str(tiny_data), preproc=PreprocSpec(window_ms=200.0, step_ms=200.0, decimation=4),
        gan=GanTrainConfig(epochs=4, batch_size=8, generator_maps=(4, 2, 1), max_pairs=64),
        classifier=ClfTrainConfig(batch_size=16, epochs=3, decay_epochs=(2,)),
        network=ClassifierSpec(conv_maps=2, lc_maps=2, dense_units=8, fusion_hidden=8),
    )
    return {
        "tiny": tiny,
        "tiny_pretrain_snapshots": replace(tiny, gan=replace(tiny.gan, snapshot_every=2),
                                           classifier=replace(tiny.classifier, pretrain=True)),
        "desk": desk_config(str(desk_data), seed=0),
    }


def _digest_tree(directory: Path, digests: dict):
    for f in sorted(p for p in directory.rglob("*") if p.is_file()):
        digests[f"{directory.name}/{f.relative_to(directory).as_posix()}"] = \
            hashlib.sha256(f.read_bytes()).hexdigest()


def staged_commands(tiny: ExperimentConfig) -> list:
    """argv of every staged command on the tiny set, in the order they run, after the tiny run."""
    p, g, net, clf = tiny.preproc, tiny.gan, tiny.network, tiny.classifier
    windows, virtual = "staged/windows.npz", "staged/virtual.npz"
    train_clf = ["train-clf", "--windows", windows, "--epochs", str(clf.epochs),
                 "--batch-size", str(clf.batch_size), "--conv-maps", str(net.conv_maps),
                 "--lc-maps", str(net.lc_maps), "--dense-units", str(net.dense_units),
                 "--fusion-hidden", str(net.fusion_hidden), "--seed", str(tiny.seed)]
    return [
        ["preprocess", "--dataset", tiny.dataset, "--out", windows,
         "--window-ms", str(p.window_ms), "--step-ms", str(p.step_ms),
         "--decimation", str(p.decimation), "--rms-ms", str(p.rms_ms),
         "--mavg-ms", str(p.mavg_ms), "--butter-cutoff-hz", str(p.butter_cutoff_hz)],
        [*train_clf, "--stream", "semg+imu", "--out", "staged/classifier"],
        ["evaluate", "--model", "staged/classifier", "--windows", windows,
         "--out", "staged/predictions.csv"],
        ["train-gan", "--windows", windows, "--out", "staged/generator", "--epochs", str(g.epochs),
         "--batch-size", str(g.batch_size), "--learning-rate", str(g.learning_rate),
         "--dropout", str(g.dropout), "--max-pairs", str(g.max_pairs),
         "--generator-maps", ",".join(map(str, g.generator_maps)), "--seed", str(tiny.seed)],
        ["generate-imu", "--generator", "staged/generator", "--windows", windows, "--out", virtual],
        [*train_clf, "--stream", "semg+virtual", "--virtual", virtual, "--out", "staged/virtual_classifier"],
        ["evaluate", "--model", "staged/virtual_classifier", "--windows", windows, "--virtual", virtual,
         "--out", "staged/virtual_predictions.csv"],
        ["report", "--report", "tiny/report.json", "--out", "staged/report"],
    ]


def run_digests() -> dict:
    """Build the datasets and run every config from the current directory; returns {path: sha256}."""
    digests = {}
    runs = configs()
    for name, cfg in runs.items():
        path = Path(f"{name}.json")
        path.write_text(json.dumps(replace(cfg, out_dir=name).to_dict()), encoding="utf-8")
        if main(["run", "--config", str(path)]) != 0:
            raise SystemExit(f"vimu run failed on {name}")
        _digest_tree(Path(name), digests)
    Path("staged").mkdir()
    for argv in staged_commands(runs["tiny"]):
        if main(argv) != 0:
            raise SystemExit(f"vimu {argv[0]} failed on the staged path")
    _digest_tree(Path("staged"), digests)
    for dataset in DATASETS:
        _digest_tree(Path(dataset), digests)
    return digests


def compare(parent: dict, table: dict) -> list:
    """One line per path that is missing, extra or different in ``table``."""
    lines = []
    for path in sorted(parent.keys() | table.keys()):
        if path not in table:
            lines.append(f"missing   {path}")
        elif path not in parent:
            lines.append(f"extra     {path}")
        elif parent[path] != table[path]:
            lines.append(f"different {path}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, help="new directory for datasets and run outputs")
    parser.add_argument("--out", required=True, help="where to write the JSON table")
    parser.add_argument("--compare", metavar="PARENT.json", default=None,
                        help="earlier table to compare against; exit 1 on any difference")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    parent = None
    if args.compare is not None:
        parent = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    Path(args.work).mkdir(parents=True)
    os.chdir(args.work)
    table = run_digests()
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if parent is not None:
        lines = compare(parent, table)
        print("\n".join(lines) if lines else f"all {len(table)} files identical")
        raise SystemExit(1 if lines else 0)
