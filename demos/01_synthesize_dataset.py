"""Generate a labeled synthetic dataset and poke at what comes out.

Every recording is a schedule of primitive segments (reach, reposition,
transport, stabilize, idle) rendered into multi-channel signals with a
class-dependent signature, so a model trained on it has something real
to latch onto and the segment labels double as exact ground truth.
"""

import tempfile

import numpy as np

from primcount.dataset import (
    PrimitiveClass,
    SynthSpec,
    synthesize_dataset,
    save_dataset,
    load_dataset,
)

# ---- 1. describe the dataset ----

spec = SynthSpec(
    n_subjects=4,
    trials_per_subject=2,
    duration_s=30.0,
    sample_rate_hz=20.0,
    n_channels=12,
)
data = synthesize_dataset(spec, seed=42)

print(f"{len(data.recordings)} recordings, {len(data.subjects)} subjects")
print(f"channels: {data.manifest.channel_count}")

# ---- 2. look inside one recording ----

labeled = data.recordings[0]
rec = labeled.recording
print(f"\nrecording {rec.recording_id}: frames {rec.frames.shape}, "
      f"{rec.sample_rate_hz:g} Hz")
print(f"first 5 segments of {len(labeled.segments)}:")
for seg in labeled.segments[:5]:
    print(f"  [{seg.start:4d}, {seg.end:4d})  {seg.cls.label}")

# segments tile the recording exactly: no gaps, no overlap
edges = [labeled.segments[0].start] + [s.end for s in labeled.segments]
assert edges[0] == 0 and edges[-1] == rec.n_frames

# back-to-back segments never share a class, otherwise the two would
# count as one event
classes = [s.cls for s in labeled.segments]
assert all(a != b for a, b in zip(classes, classes[1:]))

# ---- 3. ground-truth counts per class ----

true = labeled.true_counts()
print("\ntrue counts:")
for cls in PrimitiveClass:
    print(f"  {cls.label:10s} {true[cls]}")
print(f"  total      {sum(true.values())}")

# ---- 4. round-trip through disk ----

with tempfile.TemporaryDirectory() as root:
    save_dataset(data, root)
    again = load_dataset(root)
same = all(
    np.array_equal(a.recording.frames, b.recording.frames)
    and a.segments == b.segments
    for a, b in zip(data.recordings, again.recordings)
)
print(f"\nsaved and reloaded: identical = {same}")
