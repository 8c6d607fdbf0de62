"""Data model, file formats, and synthetic dataset generation.

A recording is a uniformly sampled multi-channel frame matrix plus an
ordered tiling of labeled primitive segments. Five primitive classes
exist; their integer codes are stable and are what appears in files and
confusion matrices. Synthetic datasets give every class a distinct noisy
channel signature so that downstream models have known ground truth.
Loading re-references quaternion groups to each recording's first frame.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .parallel import _fork_map, _usable_cpus


class DataError(ValueError):
    """Raised for malformed files or violated data invariants."""


class PrimitiveClass(enum.IntEnum):
    """The five functional primitive classes, coded 0..4."""

    REACH = 0
    REPOSITION = 1
    TRANSPORT = 2
    STABILIZE = 3
    IDLE = 4

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "PrimitiveClass":
        try:
            return cls[label.upper()]
        except (KeyError, AttributeError):  # AttributeError: not a string
            raise DataError(f"unknown primitive class {label!r}") from None


CLASSES = tuple(PrimitiveClass)
N_CLASSES = len(CLASSES)


def _as_codes(seq) -> np.ndarray:
    """int64 class codes of a token sequence; DataError outside the alphabet."""
    codes = np.asarray([int(t) for t in seq], dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= N_CLASSES):
        raise DataError("sequence token outside the 5-class alphabet")
    return codes

# Channel quantity kinds. Quaternion components always come in contiguous
# groups of four per sensor.
KIND_ACCELERATION = "acceleration"
KIND_QUATERNION = "quaternion-component"
KIND_JOINT_ANGLE = "joint-angle"
_KINDS = (KIND_ACCELERATION, KIND_QUATERNION, KIND_JOINT_ANGLE)


@dataclass(frozen=True)
class ChannelDescriptor:
    name: str
    sensor: str
    kind: str
    unit: str


@dataclass(frozen=True)
class ChannelManifest:
    """Describes the layout of the per-frame channel vector."""

    channels: tuple[ChannelDescriptor, ...]

    def __post_init__(self):
        for ch in self.channels:
            if ch.kind not in _KINDS:
                raise DataError(f"unknown channel kind {ch.kind!r}")
        for start, sensor, length in self._quaternion_runs():
            if length != 4:
                raise DataError(
                    f"quaternion channels for sensor {sensor!r} at column "
                    f"{start} form a group of {length}, expected 4"
                )

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(ch.name for ch in self.channels)

    def _quaternion_runs(self):
        runs = []
        i = 0
        n = len(self.channels)
        while i < n:
            ch = self.channels[i]
            if ch.kind == KIND_QUATERNION:
                j = i
                while (
                    j < n
                    and self.channels[j].kind == KIND_QUATERNION
                    and self.channels[j].sensor == ch.sensor
                ):
                    j += 1
                runs.append((i, ch.sensor, j - i))
                i = j
            else:
                i += 1
        return runs

    def quaternion_groups(self) -> tuple[int, ...]:
        """Start column of each 4-wide quaternion group."""
        return tuple(start for start, _, _ in self._quaternion_runs())

    def to_json(self) -> list[dict]:
        return [
            {"name": c.name, "sensor": c.sensor, "kind": c.kind, "unit": c.unit}
            for c in self.channels
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> "ChannelManifest":
        try:
            channels = tuple(
                ChannelDescriptor(d["name"], d["sensor"], d["kind"], d["unit"])
                for d in data
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed manifest entry: {exc}") from None
        return cls(channels)


def synthetic_manifest(n_channels: int) -> ChannelManifest:
    """All-acceleration manifest used for synthetic recordings."""
    channels = tuple(
        ChannelDescriptor(f"ch_{i:02d}", f"synth_{i // 3}", KIND_ACCELERATION, "g")
        for i in range(n_channels)
    )
    return ChannelManifest(channels)


@dataclass
class IMURecording:
    """Uniformly sampled multi-channel frames for one subject trial. The
    frames are a read-only copy of a writable array; a read-only float64
    array is kept as is, so nothing may write to its memory later."""

    subject_id: str
    activity: str
    trial: int
    sample_rate_hz: float
    frames: np.ndarray  # (n_frames, n_channels), float64

    def __post_init__(self):
        frames = self.frames
        if not (isinstance(frames, np.ndarray) and frames.dtype == np.float64
                and not frames.flags.writeable):
            self.frames = np.array(frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise DataError("frames must be a 2-D array")
        if not np.isfinite(self.frames).all():
            raise DataError("non-finite value in frames")
        if not 0 < self.sample_rate_hz <= sys.float_info.max:  # NaN fails too
            raise DataError("sample rate must be finite and positive")
        self.frames.setflags(write=False)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_channels(self) -> int:
        return self.frames.shape[1]

    @property
    def recording_id(self) -> str:
        return f"{self.subject_id}/{self.activity}/{self.trial}"

    def with_frames(self, frames: np.ndarray) -> "IMURecording":
        return IMURecording(
            self.subject_id, self.activity, self.trial, self.sample_rate_hz, frames
        )


def _unit(q: np.ndarray) -> np.ndarray:
    """Quaternions (w, x, y, z) along the last axis, scaled to unit norm."""
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm < 1e-12):
        raise DataError("zero-norm quaternion")
    return q / norm


def sensor_centric_transform(recording: IMURecording, manifest: ChannelManifest) -> IMURecording:
    """Each quaternion group q(t) becomes conj(q(0)) ⊗ q(t), both normalized; other
    channels pass through. Without quaternion groups, returns ``recording`` itself."""
    if recording.n_channels != manifest.channel_count:
        raise DataError(
            f"dimensionality mismatch: frames have {recording.n_channels} "
            f"channels, manifest declares {manifest.channel_count}"
        )
    groups = manifest.quaternion_groups()
    if not groups:
        return recording
    frames = np.array(recording.frames)
    for start in groups:
        q = _unit(frames[:, start : start + 4])
        w, x, y, z = q[0] * np.array([1.0, -1.0, -1.0, -1.0])  # conj(q(0))
        a, b, c, d = q.T
        frames[:, start : start + 4] = _unit(np.stack([  # Hamilton product
            w * a - x * b - y * c - z * d,
            w * b + x * a + y * d - z * c,
            w * c - x * d + y * a + z * b,
            w * d + x * c - y * b + z * a,
        ], axis=-1))
    frames.setflags(write=False)  # a fresh array: the recording takes it uncopied
    return recording.with_frames(frames)


@dataclass(frozen=True, order=True)
class PrimitiveSegment:
    """Half-open [start, end) frame span labeled with one class."""

    start: int
    end: int
    cls: PrimitiveClass

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise DataError(f"invalid segment span [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


def validate_tiling(segments: list[PrimitiveSegment], n_frames: int) -> None:
    """Segments must be sorted, non-overlapping, and tile [0, n_frames)."""
    if not segments:
        raise DataError("recording has no segments")
    if segments[0].start != 0:
        raise DataError(f"segments start at frame {segments[0].start}, expected 0")
    for prev, cur in zip(segments, segments[1:]):
        if cur.start < prev.end:
            raise DataError(
                f"overlapping segments at frames {cur.start} < {prev.end}"
            )
        if cur.start > prev.end:
            raise DataError(f"gap between segments at frames {prev.end}..{cur.start}")
    if segments[-1].end != n_frames:
        raise DataError(
            f"segments end at frame {segments[-1].end}, recording has {n_frames}"
        )


@dataclass
class LabeledRecording:
    recording: IMURecording
    segments: list[PrimitiveSegment]

    def __post_init__(self):
        self.segments = sorted(self.segments)
        validate_tiling(self.segments, self.recording.n_frames)

    @property
    def recording_id(self) -> str:
        return self.recording.recording_id

    def class_sequence(self) -> tuple[PrimitiveClass, ...]:
        """Ground-truth token sequence: one token per segment, in order."""
        return tuple(s.cls for s in self.segments)

    def true_counts(self) -> dict[PrimitiveClass, int]:
        counts = {c: 0 for c in CLASSES}
        for s in self.segments:
            counts[s.cls] += 1
        return counts


def _by_subject(recordings, subjects) -> list[LabeledRecording]:
    """The recordings of the given subjects, in their given order."""
    wanted = set(subjects)
    return [r for r in recordings if r.recording.subject_id in wanted]


@dataclass(frozen=True)
class SubjectInfo:
    subject_id: str
    paretic_side: str
    ue_fma_score: int

    def __post_init__(self):
        if self.paretic_side not in ("left", "right"):
            raise DataError(f"paretic side must be left or right, got {self.paretic_side!r}")
        if not 0 <= self.ue_fma_score <= 66:
            raise DataError(f"impairment score {self.ue_fma_score} outside 0..66")


@dataclass(frozen=True)
class DatasetSplit:
    train_subjects: frozenset[str]
    val_subjects: frozenset[str]
    test_subjects: frozenset[str] = frozenset()

    def __post_init__(self):
        if (
            self.train_subjects & self.val_subjects
            or self.train_subjects & self.test_subjects
            or self.val_subjects & self.test_subjects
        ):
            raise DataError("split subject sets overlap")


# ---------------------------------------------------------------------------
# File I/O
#
# A recording on disk is four files sharing a stem:
#   <stem>.csv          frames, header "t,<channel names>", one row per frame
#   <stem>.npy          the same frames as float64; read instead of the CSV
#                       only while both hash to the digests in the meta file
#   <stem>.labels.json  JSON array of {"class": ..., "start": ..., "end": ...}
#   <stem>.meta.json    {"subject_id": ..., "activity": ..., "trial": ...,
#                        "sample_rate_hz": ..., "frames_sidecar": {"csv_bytes":
#                        ..., "csv_sha256": ..., "npy_sha256": ...}}
# ---------------------------------------------------------------------------


def load_recording(
    frames_path: str | Path,
    labels_path: str | Path,
    manifest: ChannelManifest,
) -> LabeledRecording:
    """Load and validate one recording from its frames and labels files."""
    frames_path = Path(frames_path)
    labels_path = Path(labels_path)
    meta = _load_meta(labels_path)
    frames = _load_frames(frames_path, manifest, meta.get("frames_sidecar"))
    frames.setflags(write=False)  # a fresh array: the recording takes it uncopied
    segments = _load_segments(labels_path)
    recording = IMURecording(
        subject_id=meta["subject_id"],
        activity=meta["activity"],
        trial=meta["trial"],
        sample_rate_hz=float(meta["sample_rate_hz"]),
        frames=frames,
    )
    try:
        recording = sensor_centric_transform(recording, manifest)
    except DataError as exc:
        raise DataError(f"{frames_path}: {exc}") from None
    return LabeledRecording(recording, segments)


def _load_frames(path: Path, manifest: ChannelManifest, sidecar=None) -> np.ndarray:
    """Read a frames CSV, or its ``.npy`` sidecar when ``_load_sidecar`` accepts it.

    Otherwise the file is parsed with one bulk ``np.loadtxt`` pass;
    whatever that rejects, or parses into another shape than one row
    per data line, goes through the row loop, which names the offending
    line or accepts what only ``float()`` reads (quoted fields, ``1_0``).
    """
    expect = manifest.channel_count
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: parse failure: {exc}") from None
    _check_frames_header(path, header, expect)
    frames = _load_sidecar(path, sidecar, expect)
    if frames is None:
        n_rows = _count_lines(path) - 1
        table = None
        if n_rows > 0:
            try:
                with warnings.catch_warnings():
                    # every data line blank; the row loop names the first
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    table = np.loadtxt(
                        path, delimiter=",", skiprows=1, comments=None, ndmin=2, encoding="utf-8"
                    )
            except ValueError:  # UnicodeDecodeError too; the row loop names the fault
                pass
        # loadtxt skips blank lines, which the row loop rejects
        if table is None or table.shape != (n_rows, expect + 1):
            return _load_frames_by_row(path, expect)
        frames = np.ascontiguousarray(table[:, 1:])
    if not np.isfinite(frames).all():
        raise DataError(f"{path}: non-finite value in frames")
    return frames


def _load_sidecar(path: Path, sidecar, expect: int) -> np.ndarray | None:
    """Frames from ``<stem>.npy`` if it and the CSV hash as recorded, else None."""
    if not isinstance(sidecar, dict) or path.stat().st_size != sidecar.get("csv_bytes"):
        return None
    npy_path = path.with_suffix(".npy")
    try:
        for file, key in ((path, "csv_sha256"), (npy_path, "npy_sha256")):
            if _sha256(file) != sidecar.get(key):
                return None
        frames = np.load(npy_path, allow_pickle=False)
    except (OSError, ValueError, EOFError):  # no readable .npy, or digests over a non-.npy
        return None
    shape_ok = frames.ndim == 2 and frames.shape[1] == expect
    return frames if frames.dtype == np.float64 and shape_ok else None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()  # hashlib.file_digest needs Python 3.11
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _check_frames_header(path: Path, header: list[str] | None, expect: int) -> None:
    if header is None:
        raise DataError(f"{path}: empty frames file")
    if len(header) != expect + 1:
        raise DataError(
            f"{path}: dimensionality mismatch in header: {len(header) - 1} "
            f"channels, manifest declares {expect}"
        )
    if header[0] != "t":
        raise DataError(f"{path}: first header column must be 't', got {header[0]!r}")


def _count_lines(path: Path) -> int:
    """Lines in the file, counting a last line without its newline."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    return lines + (last != b"\n")


def _load_frames_by_row(path: Path, expect: int) -> np.ndarray:
    """Reference parser: one ``float()`` per value, errors name the line."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            _check_frames_header(path, next(reader, None), expect)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    raise DataError(f"{path}:{lineno}: blank line")
                if len(row) != expect + 1:
                    raise DataError(
                        f"{path}:{lineno}: dimensionality mismatch: row has "
                        f"{len(row) - 1} values, manifest declares {expect}"
                    )
                try:
                    _, *values = [float(v) for v in row]  # t is parsed, not kept
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: parse failure: {exc}") from None
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: parse failure: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no frames")
    frames = np.asarray(rows, dtype=np.float64)
    if frames.size and not np.isfinite(frames).all():
        raise DataError(f"{path}: non-finite value in frames")
    return frames


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: parse failure: {exc}") from None


def _write_json(path: Path, obj, sort_keys: bool = True) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_segments(path: Path) -> list[PrimitiveSegment]:
    data = _read_json(path)
    if not isinstance(data, list):
        raise DataError(f"{path}: labels file must hold a JSON array")
    segments = []
    for i, obj in enumerate(data):
        try:
            segments.append(
                PrimitiveSegment(
                    start=int(obj["start"]),
                    end=int(obj["end"]),
                    cls=PrimitiveClass.from_label(obj["class"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: malformed segment {i}: {exc}") from None
    return segments


def _load_meta(labels_path: Path) -> dict:
    meta_path = labels_path.with_suffix("").with_suffix(".meta.json")
    if not meta_path.exists():
        raise DataError(f"{meta_path}: missing metadata file")
    meta = _read_json(meta_path)
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: metadata file must hold a JSON object")
    for key in ("subject_id", "activity", "trial", "sample_rate_hz"):
        if key not in meta:
            raise DataError(f"{meta_path}: missing field {key!r}")
    try:
        meta["trial"] = int(meta["trial"])
    except (TypeError, ValueError):
        raise DataError(f"{meta_path}: trial {meta['trial']!r} is not an integer") from None
    rate = meta["sample_rate_hz"]
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        raise DataError(f"{meta_path}: sample_rate_hz {rate!r} is not a number")
    if not 0 < rate <= sys.float_info.max:  # NaN fails too
        raise DataError(f"{meta_path}: sample_rate_hz {rate!r} is not finite and positive")
    return meta


def save_recording(labeled: LabeledRecording, directory: str | Path, manifest: ChannelManifest) -> Path:
    """Write the four files for one recording; returns the frames path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rec = labeled.recording
    stem = f"{rec.subject_id}__{rec.activity}__{rec.trial}"
    frames_path = directory / f"{stem}.csv"
    npy_path = directory / f"{stem}.npy"
    fs = rec.sample_rate_hz
    with open(frames_path, "w", newline="", encoding="utf-8") as fh:
        # csv.writer quotes channel names; float reprs never need quoting
        csv.writer(fh, lineterminator="\n").writerow(["t", *manifest.names])
        for i, row in enumerate(rec.frames):
            fh.write(",".join(map(repr, (i / fs, *row.tolist()))) + "\n")
    np.save(npy_path, np.ascontiguousarray(rec.frames), allow_pickle=False)
    _write_json(
        directory / f"{stem}.labels.json",
        [{"class": s.cls.label, "start": s.start, "end": s.end} for s in labeled.segments],
        sort_keys=False,
    )
    _write_json(
        directory / f"{stem}.meta.json",
        {
            "subject_id": rec.subject_id,
            "activity": rec.activity,
            "trial": rec.trial,
            "sample_rate_hz": rec.sample_rate_hz,
            "frames_sidecar": {
                "csv_bytes": frames_path.stat().st_size,
                "csv_sha256": _sha256(frames_path),
                "npy_sha256": _sha256(npy_path),
            },
        },
    )
    return frames_path


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSignatureParams:
    """Shape of the per-class clean channel signature.

    Class c raises channels with index j satisfying j % 5 == c by
    offset_scale and rides a class-specific sinusoid on every channel, so
    the classes stay linearly separable as long as noise_std stays well
    below offset_scale.
    """

    offset_scale: float = 1.0
    amplitude: float = 0.5
    base_freq_hz: float = 0.5
    noise_std: float = 0.1


def _default_duration_ranges() -> dict[PrimitiveClass, tuple[float, float]]:
    return {
        PrimitiveClass.REACH: (0.5, 1.2),
        PrimitiveClass.REPOSITION: (0.5, 1.2),
        PrimitiveClass.TRANSPORT: (0.5, 1.5),
        PrimitiveClass.STABILIZE: (0.6, 1.6),
        PrimitiveClass.IDLE: (0.6, 2.0),
    }


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int = 8
    trials_per_subject: int = 2
    duration_s: float = 60.0
    sample_rate_hz: float = 100.0
    n_channels: int = 12
    signature: ClassSignatureParams = field(default_factory=ClassSignatureParams)
    duration_ranges_s: dict[PrimitiveClass, tuple[float, float]] = field(
        default_factory=_default_duration_ranges
    )
    activities: tuple[str, ...] = ("drill_a", "drill_b", "drill_c")


@dataclass
class SyntheticDataset:
    recordings: list[LabeledRecording]
    subjects: dict[str, SubjectInfo]
    manifest: ChannelManifest


def _stream_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def schedule_rng(seed: int, subject_idx: int, trial_idx: int) -> np.random.Generator:
    """RNG stream that drives the segment scheduler for one recording."""
    return _stream_rng(seed, subject_idx, trial_idx, 0)


def noise_rng(seed: int, subject_idx: int, trial_idx: int) -> np.random.Generator:
    """RNG stream that drives the additive channel noise for one recording."""
    return _stream_rng(seed, subject_idx, trial_idx, 1)


def schedule_segments(
    total_frames: int,
    ranges_frames: dict[PrimitiveClass, tuple[int, int]],
    rng: np.random.Generator,
) -> list[PrimitiveSegment]:
    """Draw a segment tiling of [0, total_frames).

    Adjacent segments never share a class. A tail remainder shorter than
    its class's minimum duration is absorbed into the previous segment
    instead of becoming a sliver, so every emitted segment (except a
    whole-recording one) respects its class minimum.
    """
    if total_frames <= 0:
        raise DataError("recording duration must be positive")
    segments: list[PrimitiveSegment] = []
    pos = 0
    prev: PrimitiveClass | None = None
    while pos < total_frames:
        candidates = [c for c in CLASSES if c != prev]
        cls = candidates[int(rng.integers(len(candidates)))]
        lo, hi = ranges_frames[cls]
        dur = int(rng.integers(lo, hi + 1))
        end = min(total_frames, pos + dur)
        if end - pos < lo and segments:
            last = segments.pop()
            segments.append(PrimitiveSegment(last.start, total_frames, last.cls))
            return segments
        segments.append(PrimitiveSegment(pos, end, cls))
        pos = end
        prev = cls
    return segments


def class_signature(
    cls: PrimitiveClass,
    n_frames: int,
    n_channels: int,
    sample_rate_hz: float,
    params: ClassSignatureParams,
) -> np.ndarray:
    """Clean (noise-free) frames a segment of this class emits.

    Frame index is local to the segment, so every segment of a class
    starts at the same phase.
    """
    t = np.arange(n_frames) / sample_rate_hz
    phase = 2.0 * np.pi * np.arange(n_channels) / n_channels
    freq = params.base_freq_hz * (int(cls) + 1)
    wave = params.amplitude * np.sin(
        2.0 * np.pi * freq * t[:, None] + phase[None, :]
    )
    offsets = np.where(
        np.arange(n_channels) % N_CLASSES == int(cls), params.offset_scale, 0.0
    )
    return offsets[None, :] + wave


def synthesize_dataset(spec: SynthSpec, seed: int) -> SyntheticDataset:
    """Deterministic desk-scale dataset with known ground truth."""
    if spec.n_subjects <= 0 or spec.trials_per_subject <= 0:
        raise DataError("need at least one subject and one trial")
    if spec.duration_s <= 0:
        raise DataError("recording duration must be positive")
    fs = spec.sample_rate_hz
    total_frames = int(round(spec.duration_s * fs))
    ranges_frames = {}
    for cls, (lo_s, hi_s) in spec.duration_ranges_s.items():
        if lo_s <= 0 or hi_s < lo_s:
            raise DataError(f"invalid duration range for {cls.label}")
        ranges_frames[cls] = (max(1, int(round(lo_s * fs))), int(round(hi_s * fs)))

    manifest = synthetic_manifest(spec.n_channels)
    recordings = []
    subjects = {}
    for si in range(spec.n_subjects):
        subject_id = f"s{si:02d}"
        info_rng = _stream_rng(seed, si)
        subjects[subject_id] = SubjectInfo(
            subject_id=subject_id,
            paretic_side="left" if si % 2 == 0 else "right",
            ue_fma_score=int(info_rng.integers(26, 67)),
        )
        for ti in range(spec.trials_per_subject):
            segments = schedule_segments(
                total_frames, ranges_frames, schedule_rng(seed, si, ti)
            )
            frames = np.empty((total_frames, spec.n_channels))
            for seg in segments:
                frames[seg.start : seg.end] = class_signature(
                    seg.cls, seg.length, spec.n_channels, fs, spec.signature
                )
            if spec.signature.noise_std > 0:
                frames += noise_rng(seed, si, ti).normal(
                    0.0, spec.signature.noise_std, size=frames.shape
                )
            recording = IMURecording(
                subject_id=subject_id,
                activity=spec.activities[ti % len(spec.activities)],
                trial=ti,
                sample_rate_hz=fs,
                frames=frames,
            )
            recordings.append(LabeledRecording(recording, segments))
    return SyntheticDataset(recordings, subjects, manifest)


def split_subjects(
    subjects: list[str] | set[str], n_folds: int = 4, seed: int = 0
) -> list[DatasetSplit]:
    """Cross-validation folds: each subject lands in exactly one validation set.

    Fold validation sizes differ by at most one (33 subjects over 4 folds
    gives 9, 8, 8, 8).
    """
    subjects = sorted(subjects)
    if n_folds < 2:
        raise DataError("need at least 2 folds")
    if len(subjects) < n_folds:
        raise DataError(f"too few subjects ({len(subjects)}) for {n_folds} folds")
    order = np.array(subjects, dtype=object)
    _stream_rng(seed, 0xF01D).shuffle(order)
    groups = np.array_split(order, n_folds)
    all_subjects = frozenset(subjects)
    splits = []
    for group in groups:
        val = frozenset(group.tolist())
        splits.append(DatasetSplit(train_subjects=all_subjects - val, val_subjects=val))
    return splits


# ---------------------------------------------------------------------------
# Dataset directory I/O
# ---------------------------------------------------------------------------


def save_dataset(dataset: SyntheticDataset, directory: str | Path) -> None:
    """Write the manifest, the subjects and every recording under `directory`.

    The recordings are split, in order, into min(recordings, usable CPUs)
    contiguous groups, and `save_recording` writes each group in a forked
    worker (`_fork_map`); the files are the same for any split. A writer
    that dies raises ChildProcessError.
    """
    directory = Path(directory)
    _write_json(directory / "manifest.json", dataset.manifest.to_json(), sort_keys=False)
    _write_json(
        directory / "subjects.json",
        {
            sid: {"paretic_side": s.paretic_side, "ue_fma_score": s.ue_fma_score}
            for sid, s in dataset.subjects.items()
        },
    )
    rec_dir = directory / "recordings"
    rec_dir.mkdir(parents=True, exist_ok=True)
    recs, n = dataset.recordings, min(len(dataset.recordings), _usable_cpus())
    _fork_map(
        lambda group: [save_recording(labeled, rec_dir, dataset.manifest) for labeled in group],
        [(recs[len(recs) * k // n : len(recs) * (k + 1) // n],) for k in range(n)],
    )


def load_dataset(directory: str | Path) -> SyntheticDataset:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    data = _read_json(manifest_path)
    if not isinstance(data, list):
        raise DataError(f"{manifest_path}: manifest file must hold a JSON array")
    try:
        manifest = ChannelManifest.from_json(data)
    except DataError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
    subjects_path = directory / "subjects.json"
    data = _read_json(subjects_path)
    if not isinstance(data, dict):
        raise DataError(f"{subjects_path}: subjects file must hold a JSON object")
    subjects = {}
    for sid, obj in data.items():
        try:
            subjects[sid] = SubjectInfo(sid, obj["paretic_side"], int(obj["ue_fma_score"]))
        except (KeyError, TypeError, ValueError) as exc:  # DataError is a ValueError
            raise DataError(f"{subjects_path}: malformed subject {sid!r}: {exc}") from None
    recordings = {}  # recording id -> (frames path, recording)
    rec_dir = directory / "recordings"
    for frames_path in sorted(rec_dir.glob("*.csv")):
        labeled = load_recording(frames_path, frames_path.with_suffix(".labels.json"), manifest)
        if labeled.recording.subject_id not in subjects:
            raise DataError(f"{subjects_path}: no entry for the subject of {labeled.recording_id}")
        if labeled.recording_id in recordings:
            raise DataError(f"{recordings[labeled.recording_id][0]} and {frames_path} "
                            f"both hold recording {labeled.recording_id}")
        recordings[labeled.recording_id] = (frames_path, labeled)
    if not recordings:
        raise DataError(f"{rec_dir}: no recordings found")
    return SyntheticDataset([r for _, r in recordings.values()], subjects, manifest)
