"""Replaying a recording as a live stream.

A producer clock releases frames at the recording's sample rate (or a
multiple of it), and a window is released once its last flank frame
exists. Each turn decodes every window released by then in one call,
so an unthrottled replay decodes the recording in one call, as the
batch path does. Stitching happens incrementally with one token of
lookback, which is exactly what the batch path does, so the streamed
session is bitwise the batch session. Lag per window = wait for the
trailing flank (1 s) + the core length (4 s) + compute.
"""

import math

from primcount.cli import stream_replay
from primcount.dataset import (
    ClassSignatureParams,
    PrimitiveClass,
    SynthSpec,
    synthesize_dataset,
)
from primcount.decoding import count, decode_windows, stitch_windows
from primcount.model import ModelConfig, TrainConfig, TrainingData, train_ensemble
from primcount.preprocess import WindowSpec, make_windows

FS = 20.0

spec = SynthSpec(n_subjects=4, trials_per_subject=2, duration_s=30.0,
                 sample_rate_hz=FS, n_channels=12,
                 signature=ClassSignatureParams(offset_scale=2.0, noise_std=0.05),
                 duration_ranges_s={c: (2.0, 3.5) for c in PrimitiveClass})
data = synthesize_dataset(spec, seed=2)
ws = WindowSpec(sample_rate_hz=FS)

mc = ModelConfig(input_dim=12, hidden_dim=32, embed_dim=16)
tc = TrainConfig(learning_rate=2e-3, batch_size=32, max_epochs=20, patience=8)
ensemble, _ = train_ensemble(TrainingData(data.recordings, ws), mc, tc,
                             n_folds=2, seed=2)

rec = data.recordings[0].recording

# ---- unthrottled replay: same answer as the batch path ----

streamed = stream_replay(rec, ensemble, speed=math.inf)
batch = stitch_windows(decode_windows(ensemble, make_windows(rec, ws, mode="test")))

print(f"streamed tokens == batch tokens: {streamed.session.tokens == batch.tokens}")
print(f"streamed counts == batch counts: "
      f"{streamed.counts.counts == count(batch).counts}")

# ---- throttled replay at 8x real time ----

live = stream_replay(rec, ensemble, speed=8.0)
print(f"\nreplay at 8x: {len(live.events)} windows")
for e in live.events[:4]:
    print(f"  core ends {e['core_end_s']:5.1f} s  "
          f"emitted at {e['emit_monotonic_s']:5.2f} s  lag {e['lag_s']:.2f} s")
print(f"max lag {live.max_lag_s:.2f} s "
      f"(flank 1 s + core 4 s = 5 s of it is structural, scaled by 1/8)")
