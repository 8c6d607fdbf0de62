"""Signal preprocessing: z-scoring, windowing, targets.

The model never sees raw recordings. Each loaded recording (whose
quaternion groups ``dataset.load_recording`` has already re-expressed
relative to the first frame) is z-scored with statistics pooled over
the training split, and cut into fixed-size windows whose central core
carries the prediction target while the flanks only provide context.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import (
    DataError,
    IMURecording,
    PrimitiveClass,
    PrimitiveSegment,
    _as_codes,
)


# ---------------------------------------------------------------------------
# Z-score normalization
# ---------------------------------------------------------------------------


@dataclass
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray
    source_split: str = "train"

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DataError("mean/std must be matching 1-D vectors")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise DataError("mean/std must be finite")
        if np.any(self.std <= 0):
            raise DataError("std must be positive")

    @property
    def channel_count(self) -> int:
        return self.mean.shape[0]

    def to_json(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "source_split": self.source_split,
        }

    @classmethod
    def from_json(cls, data: dict) -> "NormalizationStats":
        try:
            mean, std = (np.asarray(data[k], dtype=np.float64) for k in ("mean", "std"))
            source_split = data["source_split"]
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"unreadable field ({e!r})") from None
        return cls(mean, std, source_split)  # its own DataError names the reason


def column_stats(rows: np.ndarray) -> NormalizationStats:
    """Mean and population std of each column of a (n, D) matrix.

    Columns with std below 1e-8 (constant columns) get std clamped to 1
    so that z-scoring leaves them at zero instead of blowing up. The
    model's frames and the baseline's features are standardized by it.
    """
    std = rows.std(axis=0)
    return NormalizationStats(rows.mean(axis=0), np.where(std < 1e-8, 1.0, std))


def fit_normalization(recordings: list[IMURecording]) -> NormalizationStats:
    """Per-channel column_stats pooled over all frames of all recordings."""
    if not recordings:
        raise DataError("need at least one recording to fit normalization")
    return column_stats(np.concatenate([r.frames for r in recordings], axis=0))


def normalize_frames(frames: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """(frames - mean) / std, in one new array."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-1] != stats.channel_count:
        raise DataError(
            f"dimensionality mismatch: frames have {frames.shape[-1]} channels, "
            f"stats have {stats.channel_count}"
        )
    out = np.subtract(frames, stats.mean)
    return np.divide(out, stats.std, out=out)


def _normalized_stack(windows: list[Window], stats: NormalizationStats, dtype) -> np.ndarray:
    """Time-major (T, B, D) stack of the windows in ``dtype``, each
    normalized in float64 and cast once: the only way windows become
    encoder input (float64 training batches, float32 decoding)."""
    T, D = windows[0].frames.shape
    xs = np.empty((T, len(windows), D), dtype=dtype)
    for b, w in enumerate(windows):
        if w.frames.shape != (T, D):
            raise DataError(
                f"{w.recording_id}: window frames have shape {w.frames.shape}, "
                f"the first window's have {(T, D)}"
            )
        with np.errstate(over="ignore"):  # an overflow is reported below
            xs[:, b] = normalize_frames(w.frames, stats)
        if not np.isfinite(xs[:, b]).all():
            raise DataError(
                f"{w.recording_id}: the window at frame {w.start_frame} "
                f"normalizes beyond the {xs.dtype} range"
            )
    return xs


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry. All durations must be whole frame counts. Test
    windows slide by the core, so that test cores tile a recording."""

    sample_rate_hz: float
    window_s: float = 6.0
    core_s: float = 4.0
    train_slide_s: float = 0.5

    def __post_init__(self):
        if not 0 < self.sample_rate_hz <= sys.float_info.max:  # NaN fails too
            raise DataError(f"sample rate must be finite and positive, got {self.sample_rate_hz}")
        if self.core_s > self.window_s:
            raise DataError("core cannot exceed window")
        for name in ("window_s", "core_s", "train_slide_s"):
            if self._frames(getattr(self, name), name) < 1:
                raise DataError(f"{name} = {getattr(self, name)} s is shorter than one frame")
        # flanks must split evenly
        self._frames((self.window_s - self.core_s) / 2.0, "flank")

    def _frames(self, seconds: float, name: str) -> int:
        frames = seconds * self.sample_rate_hz
        rounded = round(frames) if math.isfinite(frames) else -1  # nan, inf: no count
        if abs(frames - rounded) > 1e-9 or rounded < 0:
            raise DataError(
                f"{name} = {seconds} s is not a whole frame count "
                f"at {self.sample_rate_hz} Hz"
            )
        return int(rounded)

    @property
    def window_frames(self) -> int:
        return self._frames(self.window_s, "window_s")

    @property
    def core_frames(self) -> int:
        return self._frames(self.core_s, "core_s")

    @property
    def flank_frames(self) -> int:
        return self._frames((self.window_s - self.core_s) / 2.0, "flank")

    @property
    def train_slide_frames(self) -> int:
        return self._frames(self.train_slide_s, "train_slide_s")

    @property
    def test_slide_frames(self) -> int:
        return self.core_frames


@dataclass
class Window:
    """One model input: full-context frames plus the core span they carry.

    core_start/core_end index into this window's frames; start_frame is
    the absolute recording frame the window begins at and is negative
    for windows that reach into the virtual left pad. Windows that
    make_windows cuts inside the recording are read-only views of its
    frames and keep them alive while held; only edge windows own a copy.
    """

    recording_id: str
    start_frame: int
    core_start: int
    core_end: int
    frames: np.ndarray

    def __post_init__(self):
        if not 0 <= self.core_start < self.core_end <= self.frames.shape[0]:
            raise DataError("core span outside window frames")

    @property
    def abs_core_start(self) -> int:
        return self.start_frame + self.core_start

    @property
    def abs_core_end(self) -> int:
        return self.start_frame + self.core_end


def _core_starts(n_frames: int, core: int, slide: int, mode: str) -> list[int]:
    if mode == "test":
        return list(range(0, n_frames, slide))
    if mode == "train":
        if n_frames <= core:
            return [0]
        # slide until a core reaches the end, but start no core at or past it
        return list(range(0, min(n_frames, n_frames - core + slide), slide))
    raise DataError(f"unknown windowing mode {mode!r}")


def make_windows(
    recording: IMURecording, spec: WindowSpec, mode: str = "test"
) -> list[Window]:
    """Cut a recording into fixed-length windows.

    The recording is virtually padded by one flank on each side (boundary
    frame repeated) so the first core starts at absolute frame 0. In test
    mode the cores exactly tile [0, n_frames); the final core is truncated
    at the recording end but its window still has full length, tail-padded
    with the last frame. Train mode slides cores by train_slide_s instead.
    A window inside [0, n_frames) is a read-only view of the recording's
    frames, so a held window keeps them alive; only edge windows that
    reach into the virtual pad copy their frames.
    """
    n = recording.n_frames
    if n < 1:
        raise DataError("recording is empty")
    if spec.sample_rate_hz != recording.sample_rate_hz:
        raise DataError(f"{recording.recording_id} is sampled at {recording.sample_rate_hz} Hz, "
                        f"the window spec at {spec.sample_rate_hz} Hz")
    core = spec.core_frames
    flank = spec.flank_frames
    window_len = spec.window_frames
    slide = spec.test_slide_frames if mode == "test" else spec.train_slide_frames
    windows = []
    for core_abs_start in _core_starts(n, core, slide, mode):
        core_abs_end = min(core_abs_start + core, n)
        win_start = core_abs_start - flank
        if 0 <= win_start <= n - window_len:
            frames = recording.frames[win_start : win_start + window_len]
            frames.flags.writeable = False
        else:
            idx = np.clip(np.arange(win_start, win_start + window_len), 0, n - 1)
            frames = recording.frames[idx]
        windows.append(
            Window(
                recording_id=recording.recording_id,
                start_frame=win_start,
                core_start=flank,
                core_end=flank + (core_abs_end - core_abs_start),
                frames=frames,
            )
        )
    return windows


# ---------------------------------------------------------------------------
# Ground-truth targets
# ---------------------------------------------------------------------------

MIN_OVERLAP_FRAMES = 5
MAX_TOKENS = 16


@dataclass(frozen=True)
class TargetSequence:
    """Ordered primitive tokens a window's core is expected to produce."""

    tokens: tuple[PrimitiveClass, ...]

    def __post_init__(self):
        if not self.tokens:
            raise DataError("target sequence is empty")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]

    def codes(self) -> np.ndarray:
        return _as_codes(self.tokens)


def derive_target_sequence(segments: list[PrimitiveSegment], window: Window) -> TargetSequence:
    """Tokens of segments overlapping the window core, in temporal order.

    Segments whose core overlap falls below MIN_OVERLAP_FRAMES are
    dropped; distinct adjacent segments of the same class still emit one
    token each. If thresholding removes everything, the single segment
    with maximum overlap is emitted so the target is never empty. At
    most MAX_TOKENS are kept.
    """
    lo, hi = window.abs_core_start, window.abs_core_end
    tokens: list[PrimitiveClass] = []
    best_cls = None
    best_overlap = 0
    for seg in segments:
        if seg.end <= lo:
            continue
        if seg.start >= hi:
            break
        overlap = min(seg.end, hi) - max(seg.start, lo)
        if overlap > best_overlap:
            best_overlap = overlap
            best_cls = seg.cls
        if overlap >= MIN_OVERLAP_FRAMES:
            tokens.append(seg.cls)
    if not tokens:
        if best_cls is None:
            raise DataError("window core overlaps no segment")
        tokens = [best_cls]
    return TargetSequence(tuple(tokens[:MAX_TOKENS]))
