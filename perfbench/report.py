"""Metrics from recorded spans: end-to-end rates per iteration, the per-layer table."""
from __future__ import annotations

import statistics

from tracer import ATTRS, END, NAME, OP_KINDS, PARENT, START, self_times

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

ARMS = ("unimodal", "virtual_multimodal", "real_multimodal")


def _dur(span) -> float:
    return span[END] - span[START]


def _attr(span, key, default=0):
    return (span[ATTRS] or {}).get(key, default)


STAGES = {
    "gan.train_gan": ("gan_steps_per_s", "steps"),
    "fusion.train_classifier": ("clf_samples_per_s", "samples"),
    "pipeline.extract": ("preprocess_trials_per_s", "trials"),
    "gan.generate_virtual": ("infer_windows_per_s", "windows"),
    "fusion.predict": ("infer_windows_per_s", "windows"),
}
THROUGHPUTS = ("gan_steps_per_s", "clf_samples_per_s", "preprocess_trials_per_s",
               "infer_windows_per_s")


def stage_work(spans) -> dict:
    """Work done and seconds spent per throughput metric in one iteration's stage spans."""
    totals = {key: [0, 0.0] for key in THROUGHPUTS}
    for s in spans[1:]:
        if s[NAME] in STAGES:
            key, attr = STAGES[s[NAME]]
            totals[key][0] += _attr(s, attr)
            totals[key][1] += _dur(s)
    for key, (work, busy) in totals.items():
        if work <= 0 or busy <= 0.0:
            raise RuntimeError(f"iteration did no measurable work for {key}")
    return totals


def throughput(iterations) -> dict:
    """Work completed per second inside each stage, over all iterations of a run."""
    return {key: sum(it[key][0] for it in iterations) / sum(it[key][1] for it in iterations)
            for key in THROUGHPUTS}


def stage_metrics(iterations) -> dict:
    """The stage throughputs as per-layer rows: ``stage.<name>`` -> (value, "1/s")."""
    return {f"stage.{key}": (rate, "1/s") for key, rate in throughput(iterations).items()}


def summarize(values) -> dict:
    """Mean, median and maximum with the sample count (too few samples for a tail percentile)."""
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "max": max(values), "min": min(values), "n": len(values)}


def _has_ancestor(spans, idx, name) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


class _Acc:
    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0

    def add(self, dur, self_dur):
        self.calls += 1
        self.total += dur
        self.self_total += self_dur

    def mean(self, scale=1.0) -> float:
        return self.total / self.calls * scale if self.calls else 0.0


def layer_metrics(tracers) -> dict:
    """Per-layer figures over the traced iterations: name -> (value, unit).

    Times per call are means over every call; totals, counts and bytes are
    per iteration.
    """
    runs = len(tracers)
    wall = 0.0
    acc = {}
    attrs = {}
    extra = {k: _Acc() for k in ("select", "clf_fwd", "clf_bwd", "sgd")}
    arm_time = {arm: 0.0 for arm in ARMS}
    nn_self = 0.0
    unspanned = 0.0
    steps = {"d": [], "g": []}

    def add_attr(key, value):
        attrs[key] = attrs.get(key, 0) + value

    for tr in tracers:
        spans = tr.spans
        selfs = self_times(spans)
        wall += _dur(spans[0])
        unspanned += selfs[0]
        steps["d"] += tr.steps["d"]
        steps["g"] += tr.steps["g"]
        for i, s in enumerate(spans[1:], start=1):
            name, dur = s[NAME], _dur(s)
            acc.setdefault(name, _Acc()).add(dur, selfs[i])
            if name.startswith("nn."):
                nn_self += selfs[i]
            if name == "gan.generator_forward" and _attr(s, "mode") == "eval" \
                    and _has_ancestor(spans, i, "gan.train_gan"):
                extra["select"].add(dur, selfs[i])
            elif name == "fusion.forward" and _attr(s, "mode") == "train":
                extra["clf_fwd"].add(dur, selfs[i])
            elif name == "nn.backprop" and _attr(s, "net") == "clf":
                extra["clf_bwd"].add(dur, selfs[i])
            elif name == "nn.optim" and _attr(s, "opt") == "sgd":
                extra["sgd"].add(dur, selfs[i])
            elif name == "fusion.train_classifier":
                arm = _attr(s, "arm", None)
                if arm in arm_time:
                    arm_time[arm] += dur
            for key in ("steps", "snapshots", "windows", "frames", "bytes"):
                if key in (s[ATTRS] or {}):
                    add_attr(f"{name}.{key}", s[ATTRS][key])

    def per_run_s(name):
        return acc[name].total / runs if name in acc else 0.0

    def mean(name, scale):
        return acc[name].mean(scale) if name in acc else 0.0

    def count(name):
        return acc[name].calls / runs if name in acc else 0.0

    out = {}
    for kind in OP_KINDS:
        out[f"nn.{kind}.fwd_us"] = (mean(f"nn.{kind}.fwd", 1e6), "us")
        out[f"nn.{kind}.bwd_us"] = (mean(f"nn.{kind}.bwd", 1e6), "us")
        out[f"nn.{kind}.calls"] = (count(f"nn.{kind}.fwd"), "count")
    backprop = acc.get("nn.backprop")
    out["nn.graph_us"] = (backprop.self_total / backprop.calls * 1e6 if backprop else 0.0, "us")
    out["nn.optim_us"] = (mean("nn.optim", 1e6), "us")
    out["nn.ckpt_write_s"] = (per_run_s("nn.ckpt_write"), "s")
    out["nn.ckpt_bytes"] = (attrs.get("nn.ckpt_write.bytes", 0) / runs, "bytes")
    out["nn.share"] = (nn_self / wall, "ratio")

    out["gan.train_s"] = (per_run_s("gan.train_gan"), "s")
    out["gan.steps"] = (attrs.get("gan.train_gan.steps", 0) / runs, "count")
    out["gan.d_step_ms"] = (statistics.fmean(steps["d"]) * 1e3 if steps["d"] else 0.0, "ms")
    out["gan.g_step_ms"] = (statistics.fmean(steps["g"]) * 1e3 if steps["g"] else 0.0, "ms")
    out["gan.select_s"] = (extra["select"].total / runs, "s")
    out["gan.snapshots"] = (attrs.get("gan.train_gan.snapshots", 0) / runs, "count")
    out["gan.synth_s"] = (per_run_s("gan.generate_virtual"), "s")
    out["gan.synth_windows"] = (attrs.get("gan.generate_virtual.windows", 0) / runs, "count")

    out["fusion.build_ms"] = (mean("fusion.build", 1e3), "ms")
    out["fusion.train_s"] = (per_run_s("fusion.train_classifier"), "s")
    for arm in ARMS:
        out[f"fusion.train_s.{arm}"] = (arm_time[arm] / runs, "s")
    out["fusion.steps"] = (extra["sgd"].calls / runs, "count")
    out["fusion.fwd_ms"] = (extra["clf_fwd"].mean(1e3), "ms")
    out["fusion.bwd_ms"] = (extra["clf_bwd"].mean(1e3), "ms")
    out["fusion.sgd_ms"] = (extra["sgd"].mean(1e3), "ms")
    out["fusion.predict_s"] = (per_run_s("fusion.predict"), "s")
    out["fusion.predict_windows"] = (attrs.get("fusion.predict.windows", 0) / runs, "count")

    for short, name in (("butter", "sigproc.butter"), ("rms", "sigproc.rms"),
                        ("mavg", "sigproc.mavg"), ("segment", "sigproc.segment"),
                        ("norm", "sigproc.norm")):
        out[f"sigproc.{short}_s"] = (per_run_s(name), "s")
    frames = sum(attrs.get(f"sigproc.{k}.frames", 0) for k in ("butter", "rms", "mavg"))
    out["sigproc.frames"] = (frames / runs, "count")

    out["data.read_s"] = (per_run_s("data.read"), "s")
    out["data.trials_read"] = (count("data.read"), "count")
    out["data.bytes_read"] = (attrs.get("data.read.bytes", 0) / runs, "bytes")
    out["data.lookup_s"] = (per_run_s("data.lookup"), "s")
    out["data.trim_s"] = (per_run_s("data.trim"), "s")

    out["pipeline.extract_s"] = (per_run_s("pipeline.extract"), "s")
    out["pipeline.guard_s"] = (per_run_s("pipeline.guard"), "s")
    out["pipeline.guard_checks"] = (count("pipeline.guard"), "count")
    out["pipeline.report_s"] = (per_run_s("pipeline.report"), "s")
    run_exp = acc.get("pipeline.run_experiment")
    out["pipeline.self_s"] = (run_exp.self_total / runs if run_exp else 0.0, "s")
    cli = acc.get("cli.main")
    out["cli.self_s"] = (cli.self_total / runs if cli else 0.0, "s")
    out["trace.unspanned_share"] = (unspanned / wall, "ratio")
    return out


def format_table(title: str, rows: dict) -> str:
    """Plain-text table of name -> (value, unit), grouped by layer prefix."""
    lines = [title]
    group = None
    for name, (value, unit) in rows.items():
        prefix = name.split(".", 1)[0]
        if prefix != group:
            lines.append(f"  [{prefix}]")
            group = prefix
        lines.append(f"    {name:<34} {value:>16.6g} {unit}")
    return "\n".join(lines)
