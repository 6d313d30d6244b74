"""vimu benchmark: one workload per process, closed loop, results as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload desk_run --seed 0 --seconds 50 --trace 0

The workload's inputs are made from ``--seed``. After a timed set-up
(repeated, median reported) the workload runs back to back, one iteration
after the other, while the next one is expected to end within ``--seconds``.
Its outputs are then checked. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
``setup_s``, ``run_s`` and ``peak_rss_mb``, and prints the stage throughputs
beside them. ``run_s`` is the mean time of the iterations after the first,
which is warm-up: the machine's speed drifts in spells of tens of seconds,
and a mean weighs every spell of the run by its length where a median takes
whichever spell holds the middle iteration.
Only the five stage entry points are timed, a few calls per iteration.
``--trace 1`` alternates untraced iterations with traced ones, in which
every layer's public functions are wrapped. It reports the per-layer metrics
of BENCHMARK.json: the stage throughputs (work done inside each stage over
the time spent there, summed over the untraced iterations after warm-up),
the traced layers, the tracing overhead (traced against untraced run time)
and the share of traced time that no span covers, and prints the whole
per-layer table. Results, the environment record and the spans go to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy loads: one BLAS thread keeps runs steady on a shared
# machine and stays within nproc.
BLAS_THREADS = 1
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure(workload, seconds: float, trace: bool):
    """Closed loop of iterations; traced runs alternate untraced and traced ones."""
    from tracer import END, START, Tracer, install
    from report import stage_work

    untraced, traced = [], []   # per iteration: {"run_s": ..., "work": stage_work(...)}
    tracers = []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        full = trace and i % 2 == 1
        gc.collect()
        tracer = Tracer(i)
        patch = install(tracer, "full" if full else "stages")
        ok = True
        try:
            root_span = tracer.open("run")
            try:
                workload.iterate(i, tracer)
            finally:
                tracer.close(root_span)
        except Exception:
            traceback.print_exc()
            ok = False
        finally:
            patch.restore()
        attempted += 1
        last = tracer.spans[0][END] - tracer.spans[0][START]
        if ok:
            try:
                workload.after_iteration(i)
                record = {"run_s": last, "work": stage_work(tracer.spans)}
            except Exception:
                traceback.print_exc()
                ok = False
        if ok:
            (traced if full else untraced).append(record)
            if full:
                tracers.append(tracer)
        else:
            failed += 1
        i += 1
        # Every run needs an untraced iteration after the first (warm-up) one,
        # and a traced run a traced one as well.
        needs_more = (len(untraced) < 2 or (trace and not tracers)) and failed == 0
        if not needs_more and time.perf_counter() - start + last > seconds:
            break
    return untraced, traced, tracers, attempted, failed


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    bench = root / "BENCHMARK.json"
    if not (root / "src" / "vimu" / "__init__.py").is_file() or not bench.is_file():
        print("perfbench: run from the repository root (needs src/vimu and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text(encoding="utf-8"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import vimu  # noqa: F401  (the import is part of set-up time)
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t_start
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    from envinfo import environment
    from report import END_TO_END_UNITS, format_table, layer_metrics, stage_metrics, summarize

    workload = WORKLOADS[args.workload](root, args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    # Written datasets would otherwise be flushed to disk during the measurement.
    os.sync()

    try:
        untraced, traced, tracers, attempted, failed = measure(
            workload, args.seconds, bool(args.trace))
        checks = {}
        quality = None
        if untraced or traced:
            try:
                checks = workload.checks()
                quality = workload.quality()
            except Exception:
                traceback.print_exc()
                checks = {"checks_ran": False}
    finally:
        workload.cleanup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = bool(checks) and all(checks.values()) and failed == 0

    env = environment(root, int(os.environ["OPENBLAS_NUM_THREADS"]))
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "checks": checks, "quality": quality,
              "attempted": attempted, "failed": failed,
              "setup_times_s": setup_times, "import_s": import_s}
    print("env " + json.dumps(env, sort_keys=True))
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if quality is not None:
        print("quality " + json.dumps(quality, sort_keys=True))

    metrics = {}
    # The first iteration is warm-up: checked, but left out of every timing.
    timed = untraced[1:]
    if not timed or (args.trace and not tracers):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    detail["per_iteration_rates"] = {key: [w / b for w, b in (r["work"][key] for r in untraced)]
                                     for key in untraced[0]["work"]}
    if not args.trace:
        run_s = summarize([r["run_s"] for r in timed])
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "run_s": run_s["mean"]}
        detail["run_s"] = {**run_s, "values": [r["run_s"] for r in timed],
                           "warmup": untraced[0]["run_s"]}
        for m in spec["end_to_end"]:
            name, unit = m["name"], m["unit"]
            if END_TO_END_UNITS.get(name) != unit:
                raise SystemExit(f"BENCHMARK.json metric {name} ({unit}) is not one this benchmark makes")
            metrics[name] = {"value": values[name], "unit": unit}
            note = (f" (mean of {run_s['n']} iterations after warm-up; median {run_s['median']:.6g},"
                    f" max {run_s['max']:.6g})" if name == "run_s" else "")
            print(f"{name}: {values[name]:.6g} {unit}{note}")
        # The stage throughputs are per-layer rows; they are printed here too,
        # but only the end-to-end metrics go into the result line.
        for name, (value, unit) in stage_metrics([r["work"] for r in timed]).items():
            print(f"{name}: {value:.6g} {unit} (per-layer)")
    else:
        layers = {**stage_metrics([r["work"] for r in timed]), **layer_metrics(tracers)}
        overhead = (statistics.median(r["run_s"] for r in traced)
                    / statistics.median(r["run_s"] for r in timed) - 1.0)
        layers["trace.overhead"] = (overhead, "ratio")
        detail["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        detail["traced_run_s"] = [r["run_s"] for r in traced]
        detail["untraced_run_s"] = [r["run_s"] for r in untraced]
        print(format_table(f"per-layer table: {args.workload} (seed {args.seed}, "
                           f"{len(tracers)} traced / {len(untraced)} untraced iterations)", layers))
        for m in spec["per_layer"]:
            value, unit = layers[m["name"]]
            if unit != m["unit"]:
                raise SystemExit(f"BENCHMARK.json metric {m['name']} has unit {m['unit']}, made {unit}")
            metrics[m["name"]] = {"value": value, "unit": unit}
        spans_dir = Path("perfbench", "out", "spans")
        spans_dir.mkdir(parents=True, exist_ok=True)
        with gzip.open(spans_dir / f"{args.workload}-seed{args.seed}.jsonl.gz", "wt",
                       encoding="utf-8") as fh:
            for tr in tracers:
                for record in tr.records():
                    fh.write(json.dumps(record) + "\n")

    results_dir = Path("perfbench", "out", "results")
    results_dir.mkdir(parents=True, exist_ok=True)
    detail["metrics"] = metrics
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
