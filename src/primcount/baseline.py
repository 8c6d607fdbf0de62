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
from .preprocess import Window

STAT_NAMES = ("mean", "maximum", "minimum", "std", "rms")


@dataclass
class StatFeatures:
    """Five summary statistics per channel over one context window."""

    mean: np.ndarray
    maximum: np.ndarray
    minimum: np.ndarray
    std: np.ndarray
    rms: np.ndarray

    def __post_init__(self):
        if np.any(self.minimum > self.mean) or np.any(self.mean > self.maximum):
            raise DataError("feature invariant violated: min <= mean <= max")
        if np.any(self.std < 0) or np.any(self.rms < 0):
            raise DataError("std and rms must be non-negative")

    def as_vector(self) -> np.ndarray:
        """Stat-major flattening: all means, then maxima, and so on."""
        return np.concatenate([self.mean, self.maximum, self.minimum,
                               self.std, self.rms])


def _context_span(t: int, n: int, context_frames: int) -> tuple[int, int]:
    half = context_frames // 2
    lo = max(0, t - half)
    hi = min(n, t - half + context_frames)
    return lo, hi


def extract_features(recording, t: int, context_frames: int = 100) -> StatFeatures:
    """Channel statistics over a centered context window, clamped at edges."""
    frames = np.asarray(getattr(recording, "frames", recording), dtype=np.float64)
    n = frames.shape[0]
    if not 0 <= t < n:
        raise DataError(f"frame {t} outside recording of {n} frames")
    lo, hi = _context_span(t, n, context_frames)
    chunk = frames[lo:hi]
    return StatFeatures(
        mean=chunk.mean(axis=0),
        maximum=chunk.max(axis=0),
        minimum=chunk.min(axis=0),
        std=chunk.std(axis=0),
        rms=np.sqrt((chunk**2).mean(axis=0)),
    )


def extract_feature_matrix(recording, context_frames: int = 100) -> np.ndarray:
    """Per-frame feature vectors for a whole recording, (n, 5*channels).

    Interior frames share a full-length window and are computed in bulk;
    the clamped edge frames fall back to the per-frame path.
    """
    frames = np.asarray(getattr(recording, "frames", recording), dtype=np.float64)
    n, C = frames.shape
    out = np.empty((n, 5 * C))
    half = context_frames // 2
    first_full = half
    last_full = n - (context_frames - half)  # inclusive
    if last_full >= first_full and context_frames <= n:
        view = np.lib.stride_tricks.sliding_window_view(frames, context_frames, axis=0)
        # view: (n - context + 1, C, context)
        sl = slice(first_full, last_full + 1)
        out[sl, 0:C] = view.mean(axis=2)
        out[sl, C : 2 * C] = view.max(axis=2)
        out[sl, 2 * C : 3 * C] = view.min(axis=2)
        out[sl, 3 * C : 4 * C] = view.std(axis=2)
        out[sl, 4 * C : 5 * C] = np.sqrt((view**2).mean(axis=2))
        edge_ts = list(range(first_full)) + list(range(last_full + 1, n))
    else:
        edge_ts = range(n)
    for t in edge_ts:
        out[t] = extract_features(frames, t, context_frames).as_vector()
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

    Near the edges the window sticks out of the recording; the missing
    taps are dropped and the remaining ones renormalized, which the
    ones-vector denominator implements exactly. Rows are renormalized to
    sum to 1 afterwards.
    """
    w = smoother.weights
    cover = np.convolve(np.ones(track.n_frames), w, mode="same")
    out = np.empty_like(track.probs)
    for c in range(N_CLASSES):
        out[:, c] = np.convolve(track.probs[:, c], w, mode="same") / cover
    out /= out.sum(axis=1, keepdims=True)
    return PointwiseTrack(track.recording_id, out)


def _run_length_collapse(labels: np.ndarray) -> tuple[PrimitiveClass, ...]:
    tokens = []
    prev = None
    for v in labels:
        if v != prev:
            tokens.append(PrimitiveClass(int(v)))
            prev = v
    return tuple(tokens)


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


@dataclass(frozen=True)
class PointwiseTrainConfig:
    context_frames: int = 100
    learning_rate: float = 0.05
    max_epochs: int = 60
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_epochs < 1 or self.batch_size < 1:
            raise DataError("invalid pointwise training config")
        if self.context_frames < 1:
            raise DataError("context must be at least one frame")


@dataclass
class LogisticPointwise:
    """Multinomial logistic regression over standardized StatFeatures.

    Any object with predict_proba(features) -> (n, 5) row-stochastic
    probabilities can stand in for this reference model.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    W: np.ndarray  # (n_features, 5)
    b: np.ndarray  # (5,)
    context_frames: int

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        z = (features - self.feature_mean) / self.feature_std
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

    Features are standardized with training-set statistics; the softmax
    cross-entropy is minimized by seeded mini-batch Adam from a zero
    initialization.
    """
    if not train_data:
        raise DataError("no training recordings")
    feats = np.concatenate(
        [extract_feature_matrix(r.recording, config.context_frames) for r in train_data]
    )
    labels = np.concatenate([frame_labels(r) for r in train_data])
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    z = (feats - mean) / std
    n, F = z.shape

    W = np.zeros((F, N_CLASSES))
    b = np.zeros(N_CLASSES)
    arrays = {"W": W, "b": b}
    opt = Adam(lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    onehot_rows = np.eye(N_CLASSES)[labels]
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            zb = z[idx]
            probs = _softmax(zb @ W + b)
            if not np.isfinite(probs).all():
                raise TrainingError(f"pointwise training diverged at epoch {epoch}")
            d = (probs - onehot_rows[idx]) / len(idx)
            opt.step(arrays, {"W": zb.T @ d, "b": d.sum(axis=0)})
    return LogisticPointwise(mean, std, W, b, config.context_frames)
