"""Pointwise-classification baseline with Kaiser smoothing.

The comparison path predicts a class at every frame from windowed
statistical features, smooths the per-frame probabilities with a Kaiser
window, and collapses runs of equal labels into token sequences. Those
sequences feed the same stitching and scoring machinery as the sequence
model, so the two routes are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_CLASSES, DataError, IMURecording, PrimitiveClass
from .decoding import WindowPrediction
from .model import Adam, TrainingError, _softmax
from .preprocess import NormalizationStats, Window, column_stats, normalize_frames

_CHUNK_BYTES = 1 << 20  # sliding-view bytes reduced at once; bounds the reductions' temporaries


def _stats(a: np.ndarray, axis: int) -> np.ndarray:
    """Mean, max, min, std and rms along ``axis``, stat-major on the last axis."""
    return np.concatenate(
        [a.mean(axis=axis), a.max(axis=axis), a.min(axis=axis), a.std(axis=axis),
         np.sqrt((a**2).mean(axis=axis))],
        axis=-1,
    )


def extract_feature_matrix(recording, context_frames: int = 100) -> np.ndarray:
    """Per-frame feature vectors for a whole recording, (n, 5*channels).

    Frame t is described by the mean, max, min, std and rms of each
    channel over the context [t - context_frames//2, t - context_frames//2
    + context_frames), stat-major: all means, then all maxima, and so on.
    Interior frames, whose context fits the recording, are reduced over a
    sliding view, about _CHUNK_BYTES of it at a time; each edge frame
    reduces its context clamped to the recording.
    """
    frames = np.asarray(getattr(recording, "frames", recording), dtype=np.float64)
    n, C = frames.shape
    out = np.empty((n, 5 * C))
    half = context_frames // 2
    if context_frames <= n:
        lo, hi = half, n - context_frames + half + 1
        view = np.lib.stride_tricks.sliding_window_view(frames, context_frames, axis=0)
        rows = max(1, _CHUNK_BYTES // max(1, C * context_frames * 8))
        for r in range(0, hi - lo, rows):  # view: (n - context + 1, C, context)
            out[lo:hi][r : r + rows] = _stats(view[r : r + rows], axis=2)
    else:
        lo = hi = n
    for t in [*range(lo), *range(hi, n)]:
        out[t] = _stats(frames[max(0, t - half) : t - half + context_frames], axis=0)
    return out


# ---------------------------------------------------------------------------
# Kaiser smoothing
# ---------------------------------------------------------------------------


def kaiser_weights(window_length: int, beta: float) -> np.ndarray:
    """Normalized Kaiser window of odd length."""
    if window_length < 1 or window_length % 2 == 0:
        raise DataError(f"window length must be odd and positive, got {window_length}")
    if not 0 <= beta < np.inf:  # also false for nan
        raise DataError(f"beta must be finite and non-negative, got {beta}")
    if window_length == 1:
        return np.array([1.0])
    w = np.kaiser(window_length, beta)
    return w / w.sum()


@dataclass
class KaiserSmoother:
    window_length: int
    beta: float

    def __post_init__(self):
        self.weights = kaiser_weights(self.window_length, self.beta)

    def to_json(self) -> dict:
        return {"window_length": self.window_length, "beta": self.beta}


@dataclass
class PointwiseTrack:
    """Per-frame class probabilities for one recording."""

    recording_id: str
    probs: np.ndarray  # (n_frames, 5)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[1] != N_CLASSES:
            raise DataError("track must be (frames, 5)")
        if np.any(self.probs < 0):
            raise DataError("negative probability in track")
        if np.abs(self.probs.sum(axis=1) - 1.0).max() > 1e-9:
            raise DataError("track rows must sum to 1")

    @property
    def n_frames(self) -> int:
        return self.probs.shape[0]

    def labels(self) -> np.ndarray:
        """Per-frame argmax labels; ties go to the lowest class code."""
        return np.argmax(self.probs, axis=1)


def smooth(track: PointwiseTrack, smoother: KaiserSmoother) -> PointwiseTrack:
    """Weighted running average of each class channel.

    Near the edges, and anywhere on a track shorter than the window, the
    window sticks out of the recording; the missing taps are dropped and
    the remaining ones renormalized, which the ones-vector denominator
    implements exactly. Rows are renormalized to sum to 1 afterwards.
    """
    w = smoother.weights
    n, half = track.n_frames, len(w) // 2
    cover = np.convolve(np.ones(n), w)[half : half + n]
    out = np.empty_like(track.probs)
    for c in range(N_CLASSES):
        out[:, c] = np.convolve(track.probs[:, c], w)[half : half + n] / cover
    out /= out.sum(axis=1, keepdims=True)
    return PointwiseTrack(track.recording_id, out)


def _run_length_collapse(labels: np.ndarray) -> tuple[PrimitiveClass, ...]:
    firsts = labels[np.diff(labels, prepend=-1) != 0]  # each run's first label
    return tuple(map(PrimitiveClass, firsts.tolist()))


def collapse(
    track: PointwiseTrack, core_ranges: list[tuple[int, int]]
) -> list[tuple[PrimitiveClass, ...]]:
    """Token sequence per core range: argmax labels, duplicates collapsed."""
    labels = track.labels()
    out = []
    for lo, hi in core_ranges:
        if not 0 <= lo < hi <= track.n_frames:
            raise DataError(f"core range [{lo}, {hi}) outside track")
        out.append(_run_length_collapse(labels[lo:hi]))
    return out


def collapse_windows(
    track: PointwiseTrack, windows: list[Window]
) -> list[WindowPrediction]:
    """Collapse onto a window tiling, yielding stitchable predictions."""
    ranges = [(w.abs_core_start, w.abs_core_end) for w in windows]
    sequences = collapse(track, ranges)
    return [
        WindowPrediction(w.recording_id, w.abs_core_start, seq)
        for w, seq in zip(windows, sequences)
    ]


# ---------------------------------------------------------------------------
# Reference pointwise classifier
# ---------------------------------------------------------------------------


LEARNING_RATE = 0.05
BATCH_SIZE = 512


@dataclass(frozen=True)
class PointwiseTrainConfig:
    context_frames: int = 100
    max_epochs: int = 60
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise DataError("invalid pointwise training config")
        if self.context_frames < 1:
            raise DataError("context must be at least one frame")


@dataclass
class LogisticPointwise:
    """Multinomial logistic regression over standardized frame features.

    Any object with predict_proba(features) -> (n, 5) row-stochastic
    probabilities can stand in for this reference model.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    W: np.ndarray  # (n_features, 5)
    b: np.ndarray  # (5,)
    context_frames: int

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        z = normalize_frames(features, NormalizationStats(self.feature_mean, self.feature_std))
        return _softmax(z @ self.W + self.b)

    def track(self, recording: IMURecording) -> PointwiseTrack:
        features = extract_feature_matrix(recording, self.context_frames)
        return PointwiseTrack(recording.recording_id, self.predict_proba(features))


def frame_labels(labeled) -> np.ndarray:
    """Per-frame class codes from a recording's segment tiling."""
    labels = np.empty(labeled.recording.n_frames, dtype=np.int64)
    for seg in labeled.segments:
        labels[seg.start : seg.end] = int(seg.cls)
    return labels


def train_pointwise(
    train_data, config: PointwiseTrainConfig = PointwiseTrainConfig()
) -> LogisticPointwise:
    """Fit the reference classifier on frame-labeled recordings.

    Features are standardized by the model's z-score rule (column_stats,
    normalize_frames) with training-set statistics; the softmax
    cross-entropy is minimized by seeded mini-batch Adam from a zero
    initialization.
    """
    if not train_data:
        raise DataError("no training recordings")
    feats = np.concatenate(
        [extract_feature_matrix(r.recording, config.context_frames) for r in train_data]
    )
    labels = np.concatenate([frame_labels(r) for r in train_data])
    stats = column_stats(feats)
    z = normalize_frames(feats, stats)
    n, F = z.shape

    W = np.zeros((F, N_CLASSES))
    b = np.zeros(N_CLASSES)
    arrays = {"W": W, "b": b}
    opt = Adam(lr=LEARNING_RATE)
    rng = np.random.default_rng(config.seed)
    onehot_rows = np.eye(N_CLASSES)[labels]
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, BATCH_SIZE):
            idx = order[lo : lo + BATCH_SIZE]
            zb = z[idx]
            probs = _softmax(zb @ W + b)
            if not np.isfinite(probs).all():
                raise TrainingError(f"pointwise training diverged at epoch {epoch}")
            d = (probs - onehot_rows[idx]) / len(idx)
            opt.step(arrays, {"W": zb.T @ d, "b": d.sum(axis=0)})
    return LogisticPointwise(stats.mean, stats.std, W, b, config.context_frames)
