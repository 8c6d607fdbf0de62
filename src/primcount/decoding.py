"""Ensemble greedy decoding, window stitching, and primitive counting.

Each window decodes to a short primitive sequence. Consecutive windows
share their boundary frames, so a primitive straddling a core boundary
appears at the tail of one window and the head of the next; stitching
drops that duplicate before counting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import CLASSES, DataError, PrimitiveClass
from .model import EOS_TOKEN, SOS_TOKEN, EnsembleModel, _encode_batch, decode_step_batch
from .parallel import _fork_map
from .preprocess import TargetSequence, Window, _normalized_stack


@dataclass(frozen=True)
class WindowPrediction:
    """Decoded primitive tokens for one window's core."""

    recording_id: str
    core_start: int
    tokens: tuple[PrimitiveClass, ...]

    def __post_init__(self):
        for t in self.tokens:
            if not isinstance(t, PrimitiveClass):
                raise DataError(f"non-primitive token {t!r} in window prediction")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class SessionPrediction:
    """Stitched primitive sequence for one whole recording."""

    recording_id: str
    tokens: tuple[PrimitiveClass, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def to_json(self) -> dict:
        return {
            "recording": self.recording_id,
            "sequence": [t.label for t in self.tokens],
        }


@dataclass(frozen=True)
class PrimitiveCounts:
    """Per-class primitive totals for one recording."""

    counts: dict[PrimitiveClass, int]

    def __post_init__(self):
        full = {c: int(self.counts.get(c, 0)) for c in CLASSES}
        if any(v < 0 for v in full.values()):
            raise DataError("negative primitive count")
        object.__setattr__(self, "counts", full)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, cls: PrimitiveClass) -> int:
        return self.counts[cls]

    def to_json(self) -> dict:
        return {c.label: self.counts[c] for c in CLASSES}


def from_target(window: Window, target: TargetSequence) -> WindowPrediction:
    """Wrap a ground-truth target as a prediction (oracle decoding path)."""
    return WindowPrediction(window.recording_id, window.abs_core_start,
                            tuple(target.tokens))


def decode_windows(
    ensemble: EnsembleModel, windows: list[Window]
) -> list[WindowPrediction]:
    """Greedy ensemble decoding of many windows at once, in float32.

    Each member's parameters are cast to float32 once per call; one that
    overflows float32 raises DataError naming the member. Every member
    normalizes the windows with its own stats (in float64, then rounded to
    float32) and encodes them independently, in up to min(members, usable
    CPUs) forked workers, each running a round-robin share (`_fork_map`; a
    one-member ensemble encodes in the calling process); at each step the
    members' token distributions are averaged, the argmax (lowest code on
    ties, SOS excluded) is the shared prediction, EOS stops a window, and
    the shared token feeds back into every member's decoder. Windows of
    different shapes, or frames whose z-scores overflow float32, raise
    DataError naming the recording. An encoding worker that dies, killed
    for memory say, raises ChildProcessError.
    A lone window is decoded as two copies of its row: at one row the
    BLAS takes another kernel, whose bits differ from any larger batch's.
    """
    if not windows:
        return []
    rows = windows * 2 if len(windows) == 1 else windows
    B = len(rows)
    max_tokens = ensemble.config.max_decode_len - 1
    members = [(params.float32(), stats) for params, stats in ensemble.members]
    for i, (params, _) in enumerate(members):
        if params is None:
            raise DataError(f"member {i} (model.{i}.bin) has parameters beyond the float32 range")
    states = _fork_map(
        lambda params, stats: _encode_batch(
            params, _normalized_stack(rows, stats, np.float32))[0],
        members,
    )

    prev = np.full(B, SOS_TOKEN, dtype=np.int64)
    done = np.zeros(B, dtype=bool)
    out_tokens = np.zeros((B, max_tokens), dtype=np.int64)
    lengths = np.zeros(B, dtype=np.int64)
    for _ in range(ensemble.config.max_decode_len):
        avg = None
        for i, (params, _) in enumerate(members):
            probs, states[i] = decode_step_batch(params, states[i], prev)
            avg = probs if avg is None else avg + probs
        avg /= len(ensemble.members)
        avg[:, SOS_TOKEN] = -1.0  # SOS is never a legal prediction
        tok = np.argmax(avg, axis=1)
        done |= tok == EOS_TOKEN
        active = ~done
        out_tokens[active, lengths[active]] = tok[active]
        lengths[active] += 1
        prev = tok
        done |= lengths >= max_tokens
        if done.all():
            break

    return [
        WindowPrediction(
            w.recording_id,
            w.abs_core_start,
            tuple(PrimitiveClass(int(c)) for c in out_tokens[b, : lengths[b]]),
        )
        for b, w in enumerate(windows)
    ]


def stitch_append(stitched: list[PrimitiveClass], tokens) -> None:
    """Append one window's tokens to a running sequence, in place.

    When the sequence ends with the class the window starts with, that
    first token is dropped (one primitive spanning the boundary).
    """
    if tokens and stitched and stitched[-1] == tokens[0]:
        tokens = tokens[1:]
    stitched.extend(tokens)


def stitch_windows(predictions: list[WindowPrediction]) -> SessionPrediction:
    """Concatenate window sequences, merging duplicates at boundaries.

    Left fold of stitch_append over the windows in core-start order.
    """
    if not predictions:
        raise DataError("no window predictions to stitch")
    rec_ids = {p.recording_id for p in predictions}
    if len(rec_ids) != 1:
        raise DataError(f"predictions from multiple recordings: {sorted(rec_ids)}")
    starts = [p.core_start for p in predictions]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise DataError("window predictions not sorted by core start")
    stitched: list[PrimitiveClass] = []
    for pred in predictions:
        stitch_append(stitched, pred.tokens)
    return SessionPrediction(predictions[0].recording_id, tuple(stitched))


def count(session: SessionPrediction) -> PrimitiveCounts:
    """Per-class token totals of a stitched sequence."""
    return PrimitiveCounts(Counter(session.tokens))


@dataclass(frozen=True)
class CountingError:
    """Signed per-class and pooled counting errors, in percent.

    Positive = undercount (fewer predicted than true). Classes with a
    zero true count are NaN (undefined), not errors.
    """

    per_class: dict[PrimitiveClass, float]
    pooled: float

    def to_json(self) -> dict:
        def clean(v):
            return None if np.isnan(v) else v

        return {
            "per_class": {c.label: clean(self.per_class[c]) for c in CLASSES},
            "pooled": clean(self.pooled),
        }


def counting_error(true_counts, predicted_counts) -> CountingError:
    """error = 100 * (true - predicted) / true, per class and pooled."""
    true, pred = (c.counts if isinstance(c, PrimitiveCounts) else c
                  for c in (true_counts, predicted_counts))

    def error(t, p):
        return 100.0 * (t - p) / t if t > 0 else float("nan")

    per_class = {c: error(true.get(c, 0), pred.get(c, 0)) for c in CLASSES}
    pooled = error(sum(true.get(c, 0) for c in CLASSES), sum(pred.get(c, 0) for c in CLASSES))
    return CountingError(per_class, pooled)
