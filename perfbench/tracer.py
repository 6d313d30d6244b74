"""Spans recorded around calls into vimu, from outside the library.

A :class:`Tracer` keeps spans in memory: name, start, end, parent and
attributes. One tracer covers one benchmark iteration, so its spans share a
run id. :func:`install` replaces public vimu functions with timing wrappers
at the names their callers look up (``vimu.pipeline.train_gan`` is the name
``run_experiment`` calls, ``vimu.nn.tensor.conv2d`` the one ``run_stack``
calls) and returns a :class:`Patch` that puts the originals back.

Two levels exist. ``"stages"`` wraps only the five stage entry points the
stage throughputs need (extraction, generator training, synthesis,
classifier training, prediction): a handful of calls per iteration.
``"full"`` adds every layer the per-layer table reports, down to each
autodiff op and its backward closure.
"""
from __future__ import annotations

import os
import time

NAME, START, END, PARENT, ATTRS = range(5)

OP_KINDS = {
    "conv2d": ("conv2d",),
    "tconv2d": ("tconv2d",),
    "local2d": ("local2d",),
    "dense": ("dense",),
    "batchnorm": ("batchnorm_train", "batchnorm_eval"),
    "act": ("relu", "leaky_relu", "tanh_act", "sigmoid_act", "softmax_rows"),
}


class Tracer:
    """In-memory spans of one iteration; span 0 is the iteration itself."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        # generator-training step attribution: ParamSet ids -> "d" / "g"
        self.nets = {}
        self.step_mark = None
        self.steps = {"d": [], "g": []}
        # classifier-training spans waiting for the arm their bundle names
        self.arm_hint = None
        self._unassigned = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]!r} closed out of order")
        self._stack.pop()

    def set(self, idx: int, **attrs):
        span = self.spans[idx]
        if span[ATTRS] is None:
            span[ATTRS] = {}
        span[ATTRS].update(attrs)

    def records(self) -> list:
        """Spans as dicts with the run id, ready to be written out."""
        return [
            {"run": self.run_id, "id": i, "name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], **({"attrs": s[ATTRS]} if s[ATTRS] else {})}
            for i, s in enumerate(self.spans)
        ]


def self_times(spans) -> list:
    """Each span's duration minus the union of the intervals its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            start = max(spans[c][START], s[START])
            end = min(spans[c][END], s[END])
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s[END] - s[START]) - covered)
    return out


class Patch:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make_wrapper):
        # Class attributes are read from __dict__ so the plain function, not a
        # bound method, is what gets wrapped and later restored.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(tracer, name, post=None):
    """Wrapper factory: time each call as a span, then let ``post`` add attributes."""

    def make(fn):
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(tracer, idx, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def _op(tracer, kind):
    """Forward span per op call; the returned tensor's backward closure gets its own."""
    fwd_name, bwd_name = f"nn.{kind}.fwd", f"nn.{kind}.bwd"

    def make(fn):
        def wrapper(*args, **kwargs):
            idx = tracer.open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tensor = out[0] if isinstance(out, tuple) else out
            backward = tensor._backward_fn
            if backward is not None:
                def timed_backward(g, _backward=backward):
                    j = tracer.open(bwd_name)
                    try:
                        _backward(g)
                    finally:
                        tracer.close(j)

                tensor._backward_fn = timed_backward
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# --- attribute hooks (run after the span closed, so outside its time) ------

def _gan_steps(n_pairs, cfg) -> int:
    n = n_pairs if cfg.max_pairs is None else min(n_pairs, cfg.max_pairs)
    batches = -(-n // cfg.batch_size)
    if n % cfg.batch_size == 1:
        batches -= 1
    return batches * cfg.epochs


def _post_train_gan(tracer, idx, args, kwargs, out):
    semg = _arg(args, kwargs, 0, "semg_windows")
    cfg = _arg(args, kwargs, 2, "cfg")
    history = out[2]
    tracer.set(idx, steps=_gan_steps(len(semg), cfg),
               snapshots=len(history.get("selection", {}).get("epochs", [])))
    tracer.step_mark = None


def _post_train_clf(tracer, idx, args, kwargs, out):
    labels = _arg(args, kwargs, 2, "labels")
    cfg = _arg(args, kwargs, 3, "cfg")
    n = len(labels)
    per_epoch = n - (1 if n % cfg.batch_size == 1 else 0)
    tracer.set(idx, samples=per_epoch * cfg.epochs, arm=tracer.arm_hint)
    if tracer.arm_hint is None:
        tracer._unassigned.append(idx)


def _post_virtual(tracer, idx, args, kwargs, out):
    tracer.set(idx, windows=len(_arg(args, kwargs, 1, "semg_windows")))


def _post_predict(tracer, idx, args, kwargs, out):
    tracer.set(idx, windows=len(_arg(args, kwargs, 1, "stream_arrays")[0]))


def _post_extract(tracer, idx, args, kwargs, out):
    dataset = _arg(args, kwargs, 0, "dataset")
    profile = _arg(args, kwargs, 1, "profile")
    subjects = _arg(args, kwargs, 3, "subjects")
    trials = _arg(args, kwargs, 4, "trials")
    n_subjects = len(dataset.manifest.subjects if subjects is None else subjects)
    n_trials = len(profile.usable_trials if trials is None else trials)
    tracer.set(idx, trials=n_subjects * dataset.manifest.gestures * n_trials)


def _post_frames(tracer, idx, args, kwargs, out):
    tracer.set(idx, frames=args[0].frames)


def _post_read(tracer, idx, args, kwargs, out):
    # Size of the trial file: header, one u32 per payload's channel count,
    # float32 payloads and the CRC (the format vimu.data documents).
    c1 = out.semg.channel_count
    c2 = out.imu.channel_count if out.imu is not None else 0
    payloads = 1 + (out.imu is not None)
    tracer.set(idx, bytes=9 + 4 * payloads + 4 * out.semg.frames * (c1 + c2) + 4)


def _post_ckpt(tracer, idx, args, kwargs, out):
    tracer.set(idx, bytes=os.path.getsize(_arg(args, kwargs, 0, "path")))


def _post_build_net(role):
    def post(tracer, idx, args, kwargs, out):
        tracer.nets[id(out)] = role
    return post


def _post_generator_forward(tracer, idx, args, kwargs, out):
    tracer.set(idx, mode=_arg(args, kwargs, 3, "mode"))


def _post_fusion_forward(tracer, idx, args, kwargs, out):
    tracer.set(idx, mode=_arg(args, kwargs, 2, "mode", "train"))


def _post_save_clf(tracer, idx, args, kwargs, out):
    extra = _arg(args, kwargs, 4, "extra") or {}
    arm = extra.get("arm")
    for j in tracer._unassigned:
        tracer.spans[j][ATTRS]["arm"] = arm
    tracer._unassigned = []


def _adam_step(tracer):
    """Optimizer span; also closes the D or G step that this update ends."""

    def make(fn):
        def wrapper(state, params):
            idx = tracer.open("nn.optim")
            try:
                out = fn(state, params)
            finally:
                tracer.close(idx)
            now = tracer.spans[idx][END]
            role = tracer.nets.get(id(params))
            tracer.set(idx, opt="adam", net=role)
            if role is not None and tracer.step_mark is not None:
                tracer.steps[role].append(now - tracer.step_mark)
            tracer.step_mark = now
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def _sgd_step(tracer):
    return _spanned(tracer, "nn.optim", lambda t, i, a, k, o: t.set(i, opt="sgd"))


def _backprop(tracer):
    def post(t, i, args, kwargs, out):
        t.set(i, net=t.nets.get(id(_arg(args, kwargs, 1, "params")), "clf"))
    return _spanned(tracer, "nn.backprop", post)


def _train_gan(tracer):
    inner = _spanned(tracer, "gan.train_gan", _post_train_gan)

    def make(fn):
        wrapped = inner(fn)

        def wrapper(*args, **kwargs):
            tracer.step_mark = time.perf_counter()
            return wrapped(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def install(tracer: Tracer, level: str) -> Patch:
    """Wrap vimu's public entry points for ``tracer``; ``level`` is stages or full."""
    import vimu.cli
    import vimu.data
    import vimu.fusion
    import vimu.gan
    import vimu.nn.checkpoint
    import vimu.nn.tensor
    import vimu.pipeline
    import vimu.sigproc

    if level not in ("stages", "full"):
        raise ValueError(f"unknown trace level {level!r}")
    pl, gan, fusion, sig, data = vimu.pipeline, vimu.gan, vimu.fusion, vimu.sigproc, vimu.data
    patch = Patch()
    points = [
        ((pl, gan), "train_gan", _train_gan(tracer)),
        ((pl, fusion), "train_classifier", _spanned(tracer, "fusion.train_classifier", _post_train_clf)),
        ((pl,), "extract_windows", _spanned(tracer, "pipeline.extract", _post_extract)),
        ((pl, gan), "generate_virtual", _spanned(tracer, "gan.generate_virtual", _post_virtual)),
        ((pl, fusion), "predict", _spanned(tracer, "fusion.predict", _post_predict)),
    ]
    if level == "full":
        points += [
            ((vimu.cli,), "main", _spanned(tracer, "cli.main")),
            ((pl,), "run_experiment", _spanned(tracer, "pipeline.run_experiment")),
            ((pl,), "assert_no_leakage", _spanned(tracer, "pipeline.guard")),
            ((pl,), "emit_report", _spanned(tracer, "pipeline.report")),
            ((pl, fusion), "build_unimodal", _spanned(tracer, "fusion.build")),
            ((pl, fusion), "build_multimodal", _spanned(tracer, "fusion.build")),
            ((pl,), "save_classifier_bundle", _spanned(tracer, "fusion.save_bundle", _post_save_clf)),
            ((fusion.FusionModel,), "forward", _spanned(tracer, "fusion.forward", _post_fusion_forward)),
            ((gan,), "generator_forward", _spanned(tracer, "gan.generator_forward", _post_generator_forward)),
            ((gan,), "build_generator", _spanned(tracer, "gan.build", _post_build_net("g"))),
            ((gan,), "build_discriminator", _spanned(tracer, "gan.build", _post_build_net("d"))),
            ((gan, fusion), "backprop", _backprop(tracer)),
            ((gan,), "adam_step", _adam_step(tracer)),
            ((fusion,), "sgd_step", _sgd_step(tracer)),
            ((vimu.nn.checkpoint,), "save_tensors", _spanned(tracer, "nn.ckpt_write", _post_ckpt)),
            ((sig,), "butter_lowpass1", _spanned(tracer, "sigproc.butter", _post_frames)),
            ((sig,), "moving_rms", _spanned(tracer, "sigproc.rms", _post_frames)),
            ((sig,), "moving_average", _spanned(tracer, "sigproc.mavg", _post_frames)),
            ((sig,), "segment", _spanned(tracer, "sigproc.segment")),
            ((sig,), "stack_windows", _spanned(tracer, "sigproc.segment")),
            ((sig, pl, gan), "apply_norm", _spanned(tracer, "sigproc.norm")),
            ((sig, pl), "fit_stats", _spanned(tracer, "sigproc.norm")),
            ((sig, gan), "invert_norm", _spanned(tracer, "sigproc.norm")),
            ((data,), "read_trial", _spanned(tracer, "data.read", _post_read)),
            ((data.DatasetManifest,), "entry", _spanned(tracer, "data.lookup")),
            ((data,), "trim_trial", _spanned(tracer, "data.trim")),
        ]
        for kind, names in OP_KINDS.items():
            points += [((vimu.nn.tensor,), name, _op(tracer, kind)) for name in names]
    try:
        for owners, attr, make in points:
            for owner in owners:
                patch.replace(owner, attr, make)
    except BaseException:
        patch.restore()
        raise
    return patch
