"""Command-line pipeline around the library.

Subcommands cover the full workflow: synthesize a dataset, train the
fold ensemble, predict stitched sequences, count primitives, evaluate
against labels, and replay a recording on a real-time clock. Every
non-timing output is a pure function of (config, seed, data), so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import (
    KaiserSmoother,
    PointwiseTrainConfig,
    collapse_windows,
    smooth,
    train_pointwise,
)
from .dataset import (
    CLASSES,
    DataError,
    LabeledRecording,
    PrimitiveClass,
    SynthSpec,
    SyntheticDataset,
    _by_subject,
    _read_json,
    _stream_rng,
    _write_csv,
    _write_json,
    _write_jsonl,
    load_dataset,
    save_dataset,
    synthesize_dataset,
)
from .decoding import (
    PrimitiveCounts,
    SessionPrediction,
    count,
    counting_error,
    decode_windows,
    stitch_append,
    stitch_windows,
)
from .evaluation import (
    AlignmentRecord,
    OutcomeTallies,
    aggregate,
    align,
    confusion_matrix,
    tally,
)
from .model import (
    EnsembleModel,
    ModelConfig,
    TrainConfig,
    TrainingData,
    TrainingError,
    ensemble_paths,
    load_ensemble,
    save_ensemble,
    train_ensemble,
)
from .preprocess import WindowSpec, make_windows

GROUPINGS = ("overall", "subject", "activity", "primitive_class")


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 2."""


# RunConfig field annotation -> JSON value types it accepts
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs beyond the data itself.

    Serializes losslessly to JSON; the hash of that JSON identifies the
    configuration in reports.
    """

    data_root: str = "data"
    out_dir: str = "out"
    seed: int = 0
    # synthesis
    n_subjects: int = SynthSpec.n_subjects
    trials_per_subject: int = SynthSpec.trials_per_subject
    duration_s: float = SynthSpec.duration_s
    sample_rate_hz: float = SynthSpec.sample_rate_hz
    n_channels: int = SynthSpec.n_channels
    # windowing
    window_s: float = WindowSpec.window_s
    core_s: float = WindowSpec.core_s
    train_slide_s: float = WindowSpec.train_slide_s
    # model
    hidden_dim: int = ModelConfig.hidden_dim
    embed_dim: int = ModelConfig.embed_dim
    # training
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    n_folds: int = 4
    test_fraction: float = 0.25
    # baseline comparison
    with_baseline: bool = False
    smoother_length: int = 21
    smoother_beta: float = 4.0
    baseline_context_frames: int = PointwiseTrainConfig.context_frames

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"config seed must be non-negative, got {self.seed}")
        if not 0 < self.test_fraction < 1:  # NaN fails too
            raise ConfigError(f"config test_fraction must lie in (0, 1), got {self.test_fraction}")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config is not a JSON object")
        annotations = {f.name: f.type for f in fields(cls)}
        annotations["test_slide_s"] = "float"  # retired: test windows slide by the core
        unknown = set(obj) - set(annotations)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in obj.items():
            legal = _JSON_TYPES[annotations[key]]
            # bool is an int subclass, but legal in bool fields only
            if not isinstance(value, legal) or (
                isinstance(value, bool) and bool not in legal
            ):
                raise ConfigError(
                    f"config {key} must be of type {annotations[key]}, got {value!r}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"config {key} must be finite, got {value!r}")
        cfg = cls(**{k: v for k, v in obj.items() if k != "test_slide_s"})
        slide = obj.get("test_slide_s", cfg.core_s)  # older configs carry it with that value
        if slide != cfg.core_s:
            rule = ("is shorter than one frame" if slide * cfg.sample_rate_hz < 1
                    else f"must equal core_s = {cfg.core_s} s")
            raise DataError(f"test_slide_s = {slide} s {rule}")
        return cfg

    def config_hash(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def window_spec(self) -> WindowSpec:
        return WindowSpec(
            sample_rate_hz=self.sample_rate_hz,
            window_s=self.window_s,
            core_s=self.core_s,
            train_slide_s=self.train_slide_s,
        )

    def model_config(self, input_dim: int) -> ModelConfig:
        return ModelConfig(
            input_dim=input_dim, hidden_dim=self.hidden_dim, embed_dim=self.embed_dim
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            patience=self.patience,
            seed=self.seed,
        )

    def smoother(self) -> KaiserSmoother:
        return KaiserSmoother(self.smoother_length, self.smoother_beta)


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    if path is None:
        cfg = RunConfig()
    else:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            obj = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{p}: invalid JSON ({e})") from e
        cfg = RunConfig.from_json(obj)
    live = {k: v for k, v in overrides.items() if v is not None}
    if live:
        cfg = replace(cfg, **live)
    return cfg


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def holdout_split(subject_ids, fraction: float, seed: int) -> tuple[list[str], list[str]]:
    """Deterministic subject holdout: (pool, test)."""
    ids = sorted(subject_ids)
    if len(ids) < 2:
        raise DataError("need at least two subjects to hold any out")
    n_test = max(1, round(fraction * len(ids)))
    if n_test >= len(ids):
        raise DataError("holdout fraction leaves no training subjects")
    order = np.array(ids, dtype=object)
    _stream_rng(seed, 0x7E57).shuffle(order)
    test = sorted(order[:n_test].tolist())
    pool = sorted(order[n_test:].tolist())
    return pool, test


def _require_dataset(cfg: RunConfig) -> SyntheticDataset:
    root = Path(cfg.data_root)
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    dataset = load_dataset(root)
    for labeled in dataset.recordings:
        rec = labeled.recording
        if rec.sample_rate_hz != cfg.sample_rate_hz:
            raise DataError(
                f"{rec.recording_id} is sampled at {rec.sample_rate_hz} Hz, "
                f"config sample_rate_hz is {cfg.sample_rate_hz}"
            )
    return dataset


def _read_split(out_dir: Path) -> dict:
    """The subject split that train wrote: pool and test subject lists."""
    path = out_dir / "split.json"
    split = _read_json(path)
    for key in ("pool_subjects", "test_subjects"):
        if not (isinstance(split, dict) and isinstance(split.get(key), list)
                and all(isinstance(s, str) for s in split[key])):
            raise DataError(f'{path}: expected a "{key}" list of subject ids')
    return split


def _record_timing(out_dir: Path, stage: str, seconds: float) -> dict:
    """Add one stage's seconds to timings.json; returns every stage's."""
    path = out_dir / "timings.json"
    timings = _read_json(path) if path.is_file() else {}
    if not isinstance(timings, dict):
        raise DataError(f"{path}: expected a JSON object of stage timings")
    timings[stage] = seconds
    _write_json(path, timings)
    return timings


def _held_out(dataset: SyntheticDataset, out_dir: Path) -> list[LabeledRecording]:
    held_out = _by_subject(dataset.recordings, _read_split(out_dir)["test_subjects"])
    if not held_out:
        raise DataError("no recordings for held-out subjects")
    return held_out


def predict_sessions(
    ensemble: EnsembleModel, recordings, spec: WindowSpec
) -> list[SessionPrediction]:
    sessions = []
    for labeled in sorted(recordings, key=lambda r: r.recording.recording_id):
        windows = make_windows(labeled.recording, spec, mode="test")
        preds = decode_windows(ensemble, windows)
        sessions.append(stitch_windows(preds))
    return sessions


def _load_sequences(
    out_dir: Path, dataset: SyntheticDataset
) -> list[tuple[SessionPrediction, LabeledRecording]]:
    """(prediction, labels) for each held-out recording, in sequences.jsonl order."""
    path = out_dir / "sequences.jsonl"
    if not path.is_file():
        raise DataError(f"predictions not found: {path} (run predict first)")
    by_id = {r.recording.recording_id: r for r in _held_out(dataset, out_dir)}
    pairs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON ({e})") from None
            if not (
                isinstance(obj, dict)
                and isinstance(obj.get("recording"), str)
                and isinstance(obj.get("sequence"), list)
            ):
                raise DataError(
                    f'{path}:{lineno}: expected an object with a "recording" string '
                    'and a "sequence" list'
                )
            recording_id, labels = obj["recording"], obj["sequence"]
            if recording_id not in by_id:
                raise DataError(f"{path}:{lineno}: {recording_id} is not a held-out recording")
            if recording_id in pairs:
                raise DataError(f"{path}:{lineno}: second prediction for {recording_id}")
            tokens = tuple(PrimitiveClass.from_label(t) for t in labels)
            pairs[recording_id] = (SessionPrediction(recording_id, tokens), by_id[recording_id])
    missing = sorted(by_id.keys() - pairs.keys())
    if missing:
        raise DataError(f"{path}: no prediction for {missing[0]}")
    return list(pairs.values())


def _score(labeled: LabeledRecording, tokens) -> AlignmentRecord:
    """Align a predicted sequence to the labels and tally the outcomes."""
    rec = labeled.recording
    ops = align(labeled.class_sequence(), tokens)
    return AlignmentRecord(rec.subject_id, rec.activity, tally(ops))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, args) -> int:
    """Write a synthetic dataset to the data directory."""
    spec = SynthSpec(
        n_subjects=cfg.n_subjects,
        trials_per_subject=cfg.trials_per_subject,
        duration_s=cfg.duration_s,
        sample_rate_hz=cfg.sample_rate_hz,
        n_channels=cfg.n_channels,
    )
    t0 = time.perf_counter()
    dataset = synthesize_dataset(spec, seed=cfg.seed)
    save_dataset(dataset, cfg.data_root)
    _record_timing(Path(cfg.out_dir), "synth", time.perf_counter() - t0)
    n_segs = sum(len(r.segments) for r in dataset.recordings)
    print(
        f"wrote {len(dataset.recordings)} recordings "
        f"({n_segs} segments, {cfg.n_subjects} subjects) to {cfg.data_root}"
    )
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    """Train the fold ensemble on the non-held-out subjects."""
    dataset = _require_dataset(cfg)
    recorded = {r.recording.subject_id for r in dataset.recordings}
    pool, test = holdout_split(recorded, cfg.test_fraction, cfg.seed)
    pool_recordings = _by_subject(dataset.recordings, pool)
    data = TrainingData(pool_recordings, cfg.window_spec())
    model_cfg = cfg.model_config(input_dim=dataset.manifest.channel_count)
    t0 = time.perf_counter()
    ensemble, logs = train_ensemble(
        data, model_cfg, cfg.train_config(), n_folds=cfg.n_folds, seed=cfg.seed
    )
    elapsed = time.perf_counter() - t0
    out_dir = Path(cfg.out_dir)
    paths = save_ensemble(out_dir, ensemble)
    _write_json(
        out_dir / "split.json",
        {"pool_subjects": pool, "test_subjects": test},
    )
    _write_json(
        out_dir / "train_log.json",
        [[s.to_json() for s in log] for log in logs],
    )
    _record_timing(out_dir, "train", elapsed)
    print(f"trained {len(paths)} members on {len(pool)} subjects, held out {test}")
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    """Decode the held-out recordings into sequences.jsonl."""
    dataset = _require_dataset(cfg)
    out_dir = Path(cfg.out_dir)
    ensemble = load_ensemble(ensemble_paths(out_dir))
    test_recordings = _held_out(dataset, out_dir)
    t0 = time.perf_counter()
    sessions = predict_sessions(ensemble, test_recordings, cfg.window_spec())
    _write_jsonl(out_dir / "sequences.jsonl", [s.to_json() for s in sessions])
    _record_timing(out_dir, "predict", time.perf_counter() - t0)
    print(f"decoded {len(sessions)} recordings -> {out_dir / 'sequences.jsonl'}")
    return 0


def _count_rows(pairs) -> tuple[list[list], list[dict]]:
    """counts.csv rows and counts.json entries for (session, labels) pairs."""
    rows = []
    report_rows = []
    for session, labeled in pairs:
        predicted = count(session)
        true = labeled.true_counts()
        err = counting_error(true, predicted)
        rid = session.recording_id
        rows += [[rid, c.label, true[c], predicted[c], repr(err.per_class[c])] for c in CLASSES]
        rows.append([rid, "all", sum(true.values()), predicted.total, repr(err.pooled)])
        report_rows.append(
            {
                "recording": session.recording_id,
                "true": {c.label: true[c] for c in CLASSES},
                "predicted": predicted.to_json(),
                "error_pct": err.to_json(),
            }
        )
    return rows, report_rows


def cmd_count(cfg: RunConfig, args) -> int:
    """Count each held-out recording's primitives into counts.csv."""
    dataset = _require_dataset(cfg)
    out_dir = Path(cfg.out_dir)
    pairs = _load_sequences(out_dir, dataset)
    t0 = time.perf_counter()
    rows, report_rows = _count_rows(pairs)
    _write_csv(out_dir / "counts.csv", ["recording", "class", "true", "predicted", "error_pct"],
               rows)
    _write_json(out_dir / "counts.json", report_rows)
    _record_timing(out_dir, "count", time.perf_counter() - t0)
    print(f"counted {len(pairs)} recordings -> {out_dir / 'counts.csv'}")
    return 0


def _metric_row(group: str, gm) -> list:
    m = gm.micro
    return [group, gm.group, gm.n_records, gm.n_subjects,
            *map(repr, (m.sensitivity, m.fdr, m.f1, m.aer))]


def _baseline_block(cfg: RunConfig, dataset, pool, test_recordings) -> dict:
    train_recs = _by_subject(dataset.recordings, pool)
    ptc = PointwiseTrainConfig(
        context_frames=cfg.baseline_context_frames, seed=cfg.seed
    )
    clf = train_pointwise(train_recs, ptc)
    smoother = cfg.smoother()
    spec = cfg.window_spec()
    records = []
    for labeled in test_recordings:
        windows = make_windows(labeled.recording, spec, mode="test")
        track = smooth(clf.track(labeled.recording), smoother)
        session = stitch_windows(collapse_windows(track, windows))
        records.append(_score(labeled, session.tokens))
    overall = aggregate(records, group_by="overall")["overall"]
    return {
        "smoother": smoother.to_json(),
        "overall": overall.to_json(),
    }


def cmd_eval(cfg: RunConfig, args) -> int:
    """Score the sequences, and the baseline, into report.json."""
    dataset = _require_dataset(cfg)
    out_dir = Path(cfg.out_dir)
    pairs = _load_sequences(out_dir, dataset)
    t0 = time.perf_counter()
    records = [_score(labeled, session.tokens) for session, labeled in pairs]
    groups = {g: aggregate(records, group_by=g) for g in GROUPINGS}
    pooled = sum((r.tallies for r in records), OutcomeTallies())
    _write_csv(
        out_dir / "metrics.csv",
        ["group_by", "group", "n_records", "n_subjects", "sensitivity", "fdr", "f1", "aer"],
        [_metric_row(name, gm) for name in GROUPINGS for gm in groups[name].values()],
    )

    _, counting = _count_rows(pairs)
    split = _read_split(out_dir)
    baseline = None
    if cfg.with_baseline:
        test_recordings = [labeled for _, labeled in pairs]
        baseline = _baseline_block(cfg, dataset, split["pool_subjects"], test_recordings)
    elapsed = time.perf_counter() - t0
    timings = _record_timing(out_dir, "eval", elapsed)
    report = {
        "config_hash": cfg.config_hash(),
        "config": cfg.to_json(),
        "versions": {
            "primcount": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "split": split,
        "metrics": {
            name: {key: gm.to_json() for key, gm in groups[name].items()}
            for name in GROUPINGS
        },
        "confusion": confusion_matrix(pooled).to_json(),
        "counting": counting,
        "baseline": baseline,
        "timing": timings,
    }
    _write_json(out_dir / "report.json", report)
    overall = groups["overall"]["overall"].micro
    print(
        f"sensitivity {overall.sensitivity:.3f}  fdr {overall.fdr:.3f}  "
        f"f1 {overall.f1:.3f}  aer {overall.aer:.3f} -> {out_dir / 'report.json'}"
    )
    return 0


# ---------------------------------------------------------------------------
# Streaming replay
# ---------------------------------------------------------------------------


@dataclass
class StreamResult:
    session: SessionPrediction
    counts: PrimitiveCounts
    events: list[dict]

    @property
    def max_lag_s(self) -> float:
        return max((e["lag_s"] for e in self.events), default=0.0)


def stream_replay(
    recording, ensemble: EnsembleModel, speed: float = 1.0,
    *, spec: WindowSpec | None = None,
) -> StreamResult:
    """Replay a recording on a scaled real-time clock and decode live.

    A window is released when its trailing flank arrives: frame
    min(n, core_end + flank) of the clock, or at once at speed=inf.
    Each turn waits for the next undecoded window and decodes every
    window released by then in one decode_windows call (at speed=inf,
    the one call predict makes), then stitches them with stitch_append,
    the rule stitch_windows folds with, counting the tokens each adds.
    `spec` falls back to the default geometry at the recording's rate.
    A window's compute_s is its share of its call; its lag is emit time
    minus when its core ended.
    """
    if not speed > 0:  # also true for nan
        raise DataError("speed must be positive")
    spec = spec or WindowSpec(sample_rate_hz=recording.sample_rate_hz)
    windows = make_windows(recording, spec, mode="test")
    n = recording.n_frames
    fs = recording.sample_rate_hz
    releases = [min(n, w.abs_core_end + spec.flank_frames) / fs / speed for w in windows]
    if releases and releases[-1] >= 1e9:  # time.sleep overflows near 9.2e9 s
        raise DataError(f"speed {speed:g} is too slow: the replay would take {releases[-1]:.3g} s")

    stitched: list[PrimitiveClass] = []
    running = Counter()  # the counts of stitched
    events = []
    t0 = time.monotonic()
    while len(events) < len(windows):
        first = len(events)
        time.sleep(max(0.0, t0 + releases[first] - time.monotonic()))
        ready = time.monotonic()
        group = windows[first : max(first + 1, bisect_right(releases, ready - t0))]
        preds = decode_windows(ensemble, group)
        compute_s = (time.monotonic() - ready) / len(group)
        for i, (window, pred) in enumerate(zip(group, preds), first):
            before = len(stitched)
            stitch_append(stitched, pred.tokens)
            running.update(stitched[before:])
            emit = time.monotonic()
            events.append(
                {
                    "window": i,
                    "core_start_s": window.abs_core_start / fs,
                    "core_end_s": window.abs_core_end / fs,
                    "tokens": [t.label for t in pred.tokens],
                    "counts": PrimitiveCounts(running).to_json(),
                    "emit_monotonic_s": emit - t0,
                    "compute_s": compute_s,
                    "lag_s": (emit - t0) - window.abs_core_end / fs / speed,
                }
            )
    session = SessionPrediction(recording.recording_id, tuple(stitched))
    return StreamResult(session, count(session), events)


def cmd_stream(cfg: RunConfig, args) -> int:
    """Replay one recording window by window, as if live."""
    dataset = _require_dataset(cfg)
    out_dir = Path(cfg.out_dir)
    ensemble = load_ensemble(ensemble_paths(out_dir))
    by_id = {r.recording.recording_id: r for r in dataset.recordings}
    if args.recording is not None:
        if args.recording not in by_id:
            raise DataError(f"recording not found: {args.recording}")
        target = by_id[args.recording]
    else:
        split = (out_dir / "split.json").is_file()
        candidates = _held_out(dataset, out_dir) if split else dataset.recordings
        target = sorted(candidates, key=lambda r: r.recording.recording_id)[0]
    speed = args.speed if args.speed is not None else 1.0
    shown = "inf" if not math.isfinite(speed) else speed
    result = stream_replay(target.recording, ensemble, speed=speed, spec=cfg.window_spec())
    _write_jsonl(out_dir / "stream_events.jsonl", result.events)
    _write_json(
        out_dir / "stream_report.json",
        {
            "recording": target.recording.recording_id,
            "speed": shown,
            "n_windows": len(result.events),
            "max_lag_s": result.max_lag_s,
            "counts": result.counts.to_json(),
            "sequence": [t.label for t in result.session.tokens],
        },
    )
    print(
        f"streamed {target.recording.recording_id} at speed {shown}: "
        f"{len(result.events)} windows, max lag {result.max_lag_s:.3f} s"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primcount",
        description="Primitive counting pipeline for multi-channel inertial recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="path to a run config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--data", help="override the dataset directory")
        if name == "stream":
            p.add_argument("--speed", type=float, help="replay speed, inf = unthrottled")
            p.add_argument("--recording", help="recording id to replay")
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "count": cmd_count,
    "eval": cmd_eval,
    "stream": cmd_stream,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "data_root": args.data,
    }
    try:
        cfg = load_run_config(args.config, overrides)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataError, TrainingError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
