"""Span tracing for the benchmark's traced runs.

The library itself records nothing. A traced run replaces library
functions with wrappers at the name each caller looks them up under
(``decoding`` imports ``_encode_batch`` by name, so the wrapper goes on
``decoding._encode_batch`` as well as on ``model._encode_batch``). Each
call becomes one span: name, start, end and parent. Spans stay in memory
and are written out when the run ends. A wrap point that no longer
exists is reported as absent; it never stops the run.

This module does not import primcount at load time, so ``run.py`` can
use the metric rules without the library.
"""

from __future__ import annotations

import importlib
import os
import resource
import time
import traceback

# Layers are the modules of src/primcount/. A span belongs to the layer
# of the function it times; "bench" is the benchmark's own code.
LAYERS = ("cli", "dataset", "preprocess", "model", "decoding", "evaluation", "baseline")


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name's suffix."""
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("_share", "ratio"), ("_gflop", "GFLOP")):
        if name.endswith(suffix):
            return unit
    return "count"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Counters computed from argument and result shapes, never from timing,
# so they repeat exactly across runs with one seed.
COMPUTED_FROM_SHAPES = ("model.gru_gflop", "preprocess.window_mb", "evaluation.dp_cells")


def _gru_forward_flop(args, kwargs, result):
    _, xs, h0 = args[:3]
    T, B, D = xs.shape
    H = h0.shape[-1]
    return {"gru_flop": 2 * T * B * 3 * H * (D + H)}


def _gru_backward_flop(args, kwargs, result):
    cache, dhs, want_dx = args[1], args[2], args[3] if len(args) > 3 else kwargs["want_dx"]
    T, B, D = cache.xs.shape
    H = dhs.shape[-1]
    # weight grads (D+H), recurrent input grad (H), optional input grad (D)
    flop = 2 * T * B * 3 * H * (D + H) + 2 * T * B * 3 * H * H
    if want_dx:
        flop += 2 * T * B * 3 * H * D
    return {"gru_flop": flop}


def _decoded_tokens(args, kwargs, result):
    return {"tokens": sum(len(p.tokens) for p in result)}


def _window_bytes(args, kwargs, result):
    recording, spec = args[0], args[1]
    return {"window_bytes": len(result) * spec.window_frames * recording.n_channels * 8}


def _dp_cells(args, kwargs, result):
    gt, pred = args[0], args[1]
    return {"dp_cells": (len(gt) + 1) * (len(pred) + 1)}


def _csv_bytes(args, kwargs, result):
    return {"csv_bytes": os.path.getsize(args[0])}


# (module, attribute path, span name, counter). One row per place a
# caller looks the function up. Span names are "<layer>.<function>".
WRAP_POINTS = (
    # cli: stages run through the COMMANDS table; cmd_* use cli globals
    ("cli", "COMMANDS[synth]", "cli.synth", None),
    ("cli", "COMMANDS[train]", "cli.train", None),
    ("cli", "COMMANDS[predict]", "cli.predict", None),
    ("cli", "COMMANDS[count]", "cli.count", None),
    ("cli", "COMMANDS[eval]", "cli.eval", None),
    ("cli", "stream_replay", "cli.stream_replay", None),
    ("cli", "synthesize_dataset", "dataset.synthesize_dataset", None),
    ("cli", "save_dataset", "dataset.save_dataset", None),
    ("cli", "load_dataset", "dataset.load_dataset", None),
    ("cli", "train_ensemble", "model.train_ensemble", None),
    ("cli", "save_ensemble", "model.save_ensemble", None),
    ("cli", "load_ensemble", "model.load_ensemble", None),
    ("cli", "make_windows", "preprocess.make_windows", _window_bytes),
    ("cli", "decode_windows", "decoding.decode_windows", _decoded_tokens),
    ("cli", "stitch_windows", "decoding.stitch_windows", None),
    ("cli", "count", "decoding.count", None),
    ("cli", "counting_error", "decoding.counting_error", None),
    ("cli", "align", "evaluation.align", _dp_cells),
    ("cli", "tally", "evaluation.tally", None),
    ("cli", "aggregate", "evaluation.aggregate", None),
    ("cli", "confusion_matrix", "evaluation.confusion_matrix", None),
    ("cli", "train_pointwise", "baseline.train_pointwise", None),
    ("cli", "smooth", "baseline.smooth", None),
    ("cli", "collapse_windows", "baseline.collapse_windows", None),
    # dataset: the benchmark calls these through the module; load_dataset
    # reaches _load_frames through dataset globals
    ("dataset", "synthesize_dataset", "dataset.synthesize_dataset", None),
    ("dataset", "save_dataset", "dataset.save_dataset", None),
    ("dataset", "load_dataset", "dataset.load_dataset", None),
    ("dataset", "_load_frames", "dataset._load_frames", _csv_bytes),
    # preprocess
    ("preprocess", "make_windows", "preprocess.make_windows", _window_bytes),
    ("preprocess", "normalize_frames", "preprocess.normalize_frames", None),
    ("preprocess", "fit_normalization", "preprocess.fit_normalization", None),
    # model: training internals, looked up in model globals
    ("model", "train_member", "model.train_member", None),
    ("model", "make_windows", "preprocess.make_windows", _window_bytes),
    ("model", "fit_normalization", "preprocess.fit_normalization", None),
    ("model", "apply_normalization", "preprocess.apply_normalization", None),
    ("model", "_batch_forward_backward", "model._batch_forward_backward", None),
    ("model", "_encode_batch", "model._encode_batch", None),
    ("model", "_gru_forward", "model._gru_forward", _gru_forward_flop),
    ("model", "_gru_backward", "model._gru_backward", _gru_backward_flop),
    ("model", "Adam.step", "model.Adam.step", None),
    ("model", "_validation_metrics", "model._validation_metrics", None),
    ("model", "load_ensemble", "model.load_ensemble", None),
    ("model", "save_ensemble", "model.save_ensemble", None),
    # decoding: imports model and preprocess functions by name
    ("decoding", "decode_window", "decoding.decode_window", None),
    ("decoding", "decode_windows", "decoding.decode_windows", _decoded_tokens),
    ("decoding", "_encode_batch", "model._encode_batch", None),
    ("decoding", "decode_step_batch", "model.decode_step_batch", None),
    ("decoding", "normalize_frames", "preprocess.normalize_frames", None),
    ("decoding", "stitch_windows", "decoding.stitch_windows", None),
    ("decoding", "count", "decoding.count", None),
    # evaluation: _validation_metrics imports align/tally at call time
    ("evaluation", "align", "evaluation.align", _dp_cells),
    ("evaluation", "tally", "evaluation.tally", None),
    ("evaluation", "aggregate", "evaluation.aggregate", None),
    # baseline
    ("baseline", "train_pointwise", "baseline.train_pointwise", None),
    ("baseline", "extract_feature_matrix", "baseline.extract_feature_matrix", None),
    ("baseline", "LogisticPointwise.track", "baseline.LogisticPointwise.track", None),
    ("baseline", "smooth", "baseline.smooth", None),
)


def _lookup(module_name: str, path: str):
    """(current value, setter) of "Class.attr", "attr" or "TABLE[key]"."""
    try:
        owner = importlib.import_module(f"primcount.{module_name}")
    except ImportError:
        return None, None
    if path.endswith("]"):  # an entry of a dict, as in COMMANDS[train]
        table, key = path[:-1].split("[")
        entries = getattr(owner, table, None)
        if not isinstance(entries, dict):
            return None, None
        return entries.get(key), lambda value: entries.__setitem__(key, value)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return getattr(owner, leaf, None), lambda value: setattr(owner, leaf, value)


class Tracer:
    """In-memory span recorder that installs and removes its wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.counter_errors: list[str] = []
        self.rss_before_decode_mb: float | None = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            if name == "decoding.decode_windows" and tracer.rss_before_decode_mb is None:
                tracer.rss_before_decode_mb = peak_rss_mb()
            result = tracer.span(name, fn, *args, **kwargs)
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + value
                except Exception:  # a changed signature must not stop the run
                    tracer.counter_errors.append(f"{name}: {traceback.format_exc(limit=1)}")
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, counter in WRAP_POINTS:
            fn, put = _lookup(module_name, path)
            if not callable(fn):
                self.absent.append(f"primcount.{module_name}.{path}")
                continue
            put(self._wrapper(fn, name, counter))
            self._undo.append((put, fn))

    def uninstall(self) -> None:
        for put, fn in reversed(self._undo):
            put(fn)
        self._undo.clear()

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "absent": self.absent,
            "counter_errors": self.counter_errors,
            "rss_before_decode_mb": self.rss_before_decode_mb,
        }


# ---------------------------------------------------------------------------
# Per-layer metrics from recorded spans
# ---------------------------------------------------------------------------


def _matching(spans, name, parent=None):
    """Spans called name, made by a call from a span called parent."""
    for s in spans:
        if s[0] == name and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent)):
            yield s


def per_layer_metrics(phase: dict, setup: dict, untraced_wall_s: float) -> dict:
    """Per-layer numbers from one traced phase and one traced set-up.

    Times named after a function are inclusive: the span plus everything
    it called. Layer self times subtract every wrapped child, so they add
    up to the traced wall time together with the benchmark's own share.
    """
    spans = phase["trace"]["spans"]
    counts = phase["trace"]["counts"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def incl(name, parent=None, source=spans):
        return sum(s[2] - s[1] for s in _matching(source, name, parent))

    def n_spans(name, parent=None):
        return sum(1 for _ in _matching(spans, name, parent))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, child):
        layer_self[s[0].split(".")[0]] += s[2] - s[1] - c

    wall = phase["wall_s"]
    setup_spans = setup["trace"]["spans"]
    load_s = incl("dataset.load_dataset")
    csv_s = incl("dataset._load_frames")
    m = {
        "cli.train_s": incl("cli.train"),
        "cli.predict_s": incl("cli.predict"),
        "cli.count_s": incl("cli.count"),
        "cli.eval_s": incl("cli.eval"),
        "dataset.synth_s": incl("dataset.synthesize_dataset", source=setup_spans),
        "dataset.save_s": incl("dataset.save_dataset", source=setup_spans),
        "dataset.load_s": load_s,
        "dataset.csv_mb_per_s": (counts.get("csv_bytes", 0) / 1e6 / csv_s) if csv_s > 0 else 0.0,
        "preprocess.make_windows_s": incl("preprocess.make_windows"),
        "preprocess.normalize_s": incl("preprocess.normalize_frames"),
        "preprocess.window_mb": counts.get("window_bytes", 0) / 1e6,
        "model.enc_fwd_s": incl("model._encode_batch", parent="model._batch_forward_backward"),
        "model.dec_fwd_s": incl("model._gru_forward", parent="model._batch_forward_backward"),
        "model.bptt_s": incl("model._gru_backward"),
        "model.adam_s": incl("model.Adam.step", parent="model.train_member"),
        "model.val_decode_s": incl("model._validation_metrics"),
        "model.epochs": n_spans("model._validation_metrics"),
        "model.train_batches": n_spans("model._batch_forward_backward", parent="model.train_member"),
        "model.gru_gflop": counts.get("gru_flop", 0) / 1e9,
        "decoding.decode_s": incl("decoding.decode_windows"),
        "decoding.encode_s": incl("model._encode_batch", parent="decoding.decode_windows"),
        "decoding.decode_step_s": incl("model.decode_step_batch"),
        "decoding.stitch_s": incl("decoding.stitch_windows"),
        "decoding.count_s": incl("decoding.count"),
        "decoding.decode_steps": n_spans("model.decode_step_batch"),
        "decoding.tokens": counts.get("tokens", 0),
        "evaluation.align_s": incl("evaluation.align"),
        "evaluation.aggregate_s": incl("evaluation.aggregate"),
        "evaluation.dp_cells": counts.get("dp_cells", 0),
        "baseline.train_s": incl("baseline.train_pointwise"),
        "baseline.track_s": incl("baseline.LogisticPointwise.track"),
        "baseline.smooth_s": incl("baseline.smooth"),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = layer_self[layer]
    named = sum(layer_self.values())
    m["self.bench_s"] = wall - named  # the benchmark's own code between calls
    m["trace.named_share"] = named / wall if wall > 0 else 0.0
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall_s
    m["trace.spans"] = len(spans)
    m["trace.absent"] = len(phase["trace"]["absent"])
    m["trace.peak_rss_mb"] = phase["peak_rss_mb"]
    m["trace.rss_before_decode_mb"] = phase["trace"]["rss_before_decode_mb"] or 0.0
    return m

