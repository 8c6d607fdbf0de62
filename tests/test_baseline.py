import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import primcount.baseline as baseline_mod
from primcount.baseline import (
    KaiserSmoother,
    LogisticPointwise,
    PointwiseTrack,
    PointwiseTrainConfig,
    collapse,
    collapse_windows,
    extract_feature_matrix,
    frame_labels,
    kaiser_weights,
    smooth,
    train_pointwise,
)
from primcount.dataset import (
    DataError,
    IMURecording,
    LabeledRecording,
    PrimitiveClass,
    PrimitiveSegment,
    synthetic_manifest,
    synthesize_dataset,
    SynthSpec,
)
from primcount.preprocess import WindowSpec, make_windows

R = PrimitiveClass.REACH
P = PrimitiveClass.REPOSITION
T = PrimitiveClass.TRANSPORT
S = PrimitiveClass.STABILIZE
I = PrimitiveClass.IDLE


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def reference_stats(chunk):
    """Plain accumulation loops, one pass per statistic."""
    n, C = chunk.shape
    mean = [sum(chunk[t, j] for t in range(n)) / n for j in range(C)]
    mx = [max(chunk[t, j] for t in range(n)) for j in range(C)]
    mn = [min(chunk[t, j] for t in range(n)) for j in range(C)]
    var = [sum((chunk[t, j] - mean[j]) ** 2 for t in range(n)) / n for j in range(C)]
    rms = [math.sqrt(sum(chunk[t, j] ** 2 for t in range(n)) / n) for j in range(C)]
    return mean, mx, mn, [math.sqrt(v) for v in var], rms


def reference_features(frames, t, context):
    """Per-frame form: the five statistics over frame t's context, clamped
    to the recording, in stat-major order."""
    half = context // 2
    chunk = frames[max(0, t - half) : min(len(frames), t - half + context)]
    return np.concatenate([chunk.mean(axis=0), chunk.max(axis=0), chunk.min(axis=0),
                           chunk.std(axis=0), np.sqrt((chunk**2).mean(axis=0))])


def reference_i0(x, terms=50):
    total = 0.0
    for k in range(terms):
        total += (x * x / 4.0) ** k / math.factorial(k) ** 2
    return total


def reference_smooth(probs, weights):
    """Direct O(n L) truncated weighted average, then row renormalization."""
    n, C = probs.shape
    L = len(weights)
    half = L // 2
    out = np.zeros_like(probs)
    for t in range(n):
        num = np.zeros(C)
        den = 0.0
        for j in range(L):
            s = t + j - half
            if 0 <= s < n:
                num += weights[j] * probs[s]
                den += weights[j]
        out[t] = num / den
    return out / out.sum(axis=1, keepdims=True)


def rle_oracle(labels):
    return tuple(PrimitiveClass(int(k)) for k, _ in itertools.groupby(labels))


def random_track(rng, n):
    p = rng.random((n, 5)) + 1e-3
    return PointwiseTrack("s/a/0", p / p.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


def test_features_match_reference_stats():
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(40, 3))
    row = extract_feature_matrix(frames, context_frames=10)[20]
    mean, mx, mn, std, rms = reference_stats(frames[15:25])
    np.testing.assert_allclose(row[0:3], mean, atol=1e-12)
    np.testing.assert_allclose(row[3:6], mx, atol=0)
    np.testing.assert_allclose(row[6:9], mn, atol=0)
    np.testing.assert_allclose(row[9:12], std, atol=1e-12)
    np.testing.assert_allclose(row[12:15], rms, atol=1e-12)


def test_features_clamped_at_edges():
    rng = np.random.default_rng(1)
    frames = rng.normal(size=(60, 2))
    mat = extract_feature_matrix(frames, context_frames=100)
    np.testing.assert_array_equal(mat[0, :2], frames[0:50].mean(axis=0))
    np.testing.assert_array_equal(mat[59, :2], frames[9:60].mean(axis=0))


def test_feature_vector_order():
    frames = np.arange(12.0).reshape(6, 2)
    v = extract_feature_matrix(frames, context_frames=4)[3]
    chunk = frames[1:5]
    np.testing.assert_array_equal(v[:2], chunk.mean(axis=0))
    np.testing.assert_array_equal(v[2:4], chunk.max(axis=0))
    np.testing.assert_array_equal(v[4:6], chunk.min(axis=0))
    np.testing.assert_array_equal(v[6:8], chunk.std(axis=0))
    np.testing.assert_array_equal(v[8:10], np.sqrt((chunk**2).mean(axis=0)))


@pytest.mark.parametrize("context", [1, 9, 10, 100])
def test_feature_matrix_matches_per_frame(context):
    rng = np.random.default_rng(2)
    for n in (57, 5):
        frames = rng.normal(size=(n, 4))
        mat = extract_feature_matrix(frames, context)
        assert mat.shape == (n, 20)
        for t in range(n):
            np.testing.assert_allclose(
                mat[t], reference_features(frames, t, context), atol=1e-12
            )


@pytest.mark.parametrize("value", [0.1, 0.7, 1.1])
def test_feature_matrix_constant_channel_at_edges(value):
    # rounding can put the mean of a constant channel just past its
    # extremes; that must still give finite features, not an error
    mat = extract_feature_matrix(np.full((40, 2), value), 9)
    assert np.isfinite(mat).all()
    np.testing.assert_allclose(mat[:, :6], value, rtol=1e-12)
    np.testing.assert_allclose(mat[:, 6:8], 0.0, atol=1e-12)
    np.testing.assert_allclose(mat[:, 8:], value, rtol=1e-12)


@pytest.mark.parametrize("rows", [1, 7, 256, 1024])
def test_feature_matrix_bitwise_equal_across_row_chunks(monkeypatch, rows):
    # reducing the sliding view in chunks of rows changes no bit of a
    # reduction over the whole view
    rng = np.random.default_rng(4)
    for n, channels, context in [(3000, 5, 100), (1200, 3, 9), (300, 2, 1), (2100, 1, 64)]:
        frames = rng.normal(size=(n, channels))
        row_bytes = channels * context * 8
        monkeypatch.setattr(baseline_mod, "_CHUNK_BYTES", n * row_bytes)
        whole = extract_feature_matrix(frames, context)
        monkeypatch.setattr(baseline_mod, "_CHUNK_BYTES", rows * row_bytes)
        assert extract_feature_matrix(frames, context).tobytes() == whole.tobytes()


def test_feature_matrix_memory_bounded():
    # 6000 x 12 frames (0.58 MB) at context 100 give a 2.9 MB matrix; the
    # whole-view reduction peaked at 62.4 MB
    frames = np.random.default_rng(3).normal(size=(6000, 12))
    tracemalloc.start()
    try:
        extract_feature_matrix(frames, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak / 1e6


def test_feature_matrix_memory_bounded_at_paper_width():
    # a 2-min, 77-channel, 100-Hz recording at context 100: chunks of
    # 1024 rows peaked at 103 MB; beyond the 37 MB result, the reductions
    # now hold about one chunk of _CHUNK_BYTES
    frames = np.random.default_rng(0).normal(size=(12000, 77))
    tracemalloc.start()
    try:
        out = extract_feature_matrix(frames, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * baseline_mod._CHUNK_BYTES, peak / 1e6


def test_pointwise_memory_bounded_by_feature_matrix():
    # 77 channels at context 100: standardizing with normalize_frames keeps
    # one standardized copy beside the features; (x - mean) / std held two,
    # and both train_pointwise and track peaked at 3.0x their matrix
    spec = SynthSpec(n_subjects=2, trials_per_subject=1, duration_s=20.0,
                     sample_rate_hz=100.0, n_channels=77)
    recordings = synthesize_dataset(spec, seed=1).recordings
    rec = recordings[0].recording
    tracemalloc.start()
    try:
        clf = train_pointwise(recordings, PointwiseTrainConfig(context_frames=100, max_epochs=1))
        _, train_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        clf.track(rec)
        _, track_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = 5 * 77 * 8  # bytes of one frame's features
    train_matrix = row * sum(r.recording.n_frames for r in recordings)
    track_matrix = row * rec.n_frames
    assert train_peak < 2.5 * train_matrix, train_peak / train_matrix  # 2.3x
    assert track_peak - held < 2.5 * track_matrix, (track_peak - held) / track_matrix  # 2.1x


# sha256 of the feature matrix, smoothed probabilities and collapsed window
# tokens for one fixed tiny recording; any edit that changes a bit of the
# baseline's output changes one of these
PINNED_BASELINE_DIGESTS = {
    "features": "3f8dc9d30d121e31e0340d5880b82cc4ab8c0a0cfb865a8cbffd7243618ee42d",
    "probs": "aa6564507b67a086a45b9631386817a464a1a8d8c3100f35bc92c2fec784148d",
    "tokens": "6bec82a3a1ba6db536c12acf7716a6516d27a6f563accbcfc3de163faf1c0705",
}


def test_baseline_bytes_are_pinned():
    spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=8.0,
                     sample_rate_hz=10.0, n_channels=3)
    labeled = synthesize_dataset(spec, seed=7).recordings[0]
    rec = labeled.recording
    features = extract_feature_matrix(rec, 5)
    clf = train_pointwise([labeled], PointwiseTrainConfig(context_frames=5, max_epochs=3, seed=0))
    track = smooth(clf.track(rec), KaiserSmoother(5, 4.0))
    windows = make_windows(rec, WindowSpec(sample_rate_hz=10.0), mode="test")
    tokens = [[int(t) for t in p.tokens] for p in collapse_windows(track, windows)]
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in [("features", features.tobytes()), ("probs", track.probs.tobytes()),
                           ("tokens", json.dumps(tokens).encode())]
    }
    assert digests == PINNED_BASELINE_DIGESTS


# ---------------------------------------------------------------------------
# Kaiser weights
# ---------------------------------------------------------------------------


def test_kaiser_weights_reference_beta4():
    w = kaiser_weights(7, 4.0)
    ref = np.array(
        [
            reference_i0(4.0 * math.sqrt(1.0 - (2.0 * k / 6.0 - 1.0) ** 2))
            / reference_i0(4.0)
            for k in range(7)
        ]
    )
    ref /= ref.sum()
    np.testing.assert_allclose(w, ref, atol=1e-12)


def test_kaiser_weights_match_numpy_window():
    for L, beta in [(5, 0.0), (7, 4.0), (21, 8.5), (101, 2.0)]:
        ref = np.kaiser(L, beta)
        ref /= ref.sum()
        np.testing.assert_allclose(kaiser_weights(L, beta), ref, atol=1e-12)


def test_kaiser_weights_beta_zero_uniform():
    w = kaiser_weights(9, 0.0)
    np.testing.assert_array_equal(w, np.full(9, 1.0 / 9.0))


def test_kaiser_weights_symmetric_and_normalized():
    for L, beta in [(3, 1.0), (7, 4.0), (15, 6.3)]:
        w = kaiser_weights(L, beta)
        np.testing.assert_array_equal(w, w[::-1])
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)


def test_kaiser_weights_peak_at_center():
    w = kaiser_weights(11, 5.0)
    assert np.argmax(w) == 5


def test_kaiser_weights_validation():
    with pytest.raises(DataError, match="odd"):
        kaiser_weights(8, 2.0)
    with pytest.raises(DataError, match="odd"):
        kaiser_weights(0, 2.0)
    with pytest.raises(DataError, match="beta"):
        kaiser_weights(7, -1.0)
    np.testing.assert_array_equal(kaiser_weights(1, 3.0), [1.0])


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_kaiser_weights_rejects_non_finite_beta(beta):
    with pytest.raises(DataError, match="beta must be finite and non-negative"):
        kaiser_weights(7, beta)


def test_smoother_precomputes_weights():
    sm = KaiserSmoother(7, 4.0)
    np.testing.assert_array_equal(sm.weights, kaiser_weights(7, 4.0))
    assert sm.to_json() == {"window_length": 7, "beta": 4.0}


# ---------------------------------------------------------------------------
# Track and smoothing
# ---------------------------------------------------------------------------


def test_track_validation():
    with pytest.raises(DataError, match="sum to 1"):
        PointwiseTrack("s/a/0", np.full((4, 5), 0.3))
    with pytest.raises(DataError, match="negative"):
        PointwiseTrack("s/a/0", np.array([[1.2, -0.2, 0.0, 0.0, 0.0]]))
    with pytest.raises(DataError, match=r"\(frames, 5\)"):
        PointwiseTrack("s/a/0", np.full((4, 4), 0.25))


def test_smooth_matches_direct_convolution():
    rng = np.random.default_rng(3)
    track = random_track(rng, 40)
    for L, beta in [(5, 0.0), (9, 4.0), (15, 7.0)]:
        got = smooth(track, KaiserSmoother(L, beta))
        ref = reference_smooth(track.probs, kaiser_weights(L, beta))
        np.testing.assert_allclose(got.probs, ref, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_smooth_track_shorter_than_smoother(n):
    rng = np.random.default_rng(11)
    track = random_track(rng, n)
    for L, beta in [(9, 4.0), (21, 0.0)]:
        got = smooth(track, KaiserSmoother(L, beta))
        assert got.probs.shape == (n, 5)
        ref = reference_smooth(track.probs, kaiser_weights(L, beta))
        np.testing.assert_allclose(got.probs, ref, atol=1e-12)


def test_smooth_beta_zero_is_moving_average():
    rng = np.random.default_rng(4)
    track = random_track(rng, 60)
    got = smooth(track, KaiserSmoother(11, 0.0))
    for t in range(60):
        lo, hi = max(0, t - 5), min(60, t + 6)
        window_mean = track.probs[lo:hi].mean(axis=0)
        np.testing.assert_allclose(
            got.probs[t], window_mean / window_mean.sum(), atol=1e-12
        )


def test_smooth_constant_track_unchanged():
    p = np.tile(np.array([0.5, 0.2, 0.1, 0.1, 0.1]), (30, 1))
    got = smooth(PointwiseTrack("s/a/0", p), KaiserSmoother(9, 4.0))
    np.testing.assert_allclose(got.probs, p, atol=1e-12)


def test_smooth_rows_stay_stochastic():
    rng = np.random.default_rng(5)
    track = random_track(rng, 200)
    got = smooth(track, KaiserSmoother(31, 6.0))
    np.testing.assert_allclose(got.probs.sum(axis=1), 1.0, atol=1e-9)
    assert got.recording_id == track.recording_id


def test_smooth_pulls_isolated_spike_toward_neighbors():
    p = np.tile(np.array([1.0, 0.0, 0.0, 0.0, 0.0]), (21, 1))
    p[10] = [0.0, 1.0, 0.0, 0.0, 0.0]
    got = smooth(PointwiseTrack("s/a/0", p), KaiserSmoother(7, 0.0))
    assert got.labels()[10] == 0


# ---------------------------------------------------------------------------
# Collapse
# ---------------------------------------------------------------------------


def track_from_labels(labels):
    probs = np.full((len(labels), 5), 0.05)
    for t, c in enumerate(labels):
        probs[t, int(c)] = 0.8
    return PointwiseTrack("s/a/0", probs)


def test_collapse_runs():
    track = track_from_labels([R, R, R, I, I, R])
    assert collapse(track, [(0, 6)]) == [(R, I, R)]


def test_collapse_uniform_ties_to_lowest_code():
    track = PointwiseTrack("s/a/0", np.full((4, 5), 0.2))
    assert collapse(track, [(0, 4)]) == [(R,)]


def test_collapse_matches_rle_oracle():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 5, size=300)
    track = track_from_labels([PrimitiveClass(int(v)) for v in labels])
    assert collapse(track, [(0, 300)]) == [rle_oracle(labels)]


def test_collapse_is_idempotent():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 5, size=100)
    first = collapse(track_from_labels(labels), [(0, 100)])[0]
    again = collapse(track_from_labels(list(first)), [(0, len(first))])[0]
    assert again == first


def test_collapse_respects_core_ranges():
    track = track_from_labels([R, R, P, P, T, T])
    assert collapse(track, [(0, 2), (2, 4), (4, 6)]) == [(R,), (P,), (T,)]
    # a run crossing the cut shows up on both sides
    assert collapse(track, [(0, 3), (3, 6)]) == [(R, P), (P, T)]


def test_collapse_range_validation():
    track = track_from_labels([R, R])
    with pytest.raises(DataError, match="outside"):
        collapse(track, [(0, 3)])
    with pytest.raises(DataError, match="outside"):
        collapse(track, [(1, 1)])


def test_collapse_windows_adapter():
    fs = 20
    spec = WindowSpec(sample_rate_hz=fs)
    rec = IMURecording("s1", "task", 0, fs, np.zeros((240, 2)))
    windows = make_windows(rec, spec, mode="test")
    track = track_from_labels([R] * 100 + [T] * 140)
    preds = collapse_windows(track, windows)
    assert [p.core_start for p in preds] == [0, 80, 160]
    assert preds[0].recording_id == "s1/task/0"
    assert preds[0].tokens == (R,)
    assert preds[1].tokens == (R, T)
    assert preds[2].tokens == (T,)


# ---------------------------------------------------------------------------
# Pointwise training
# ---------------------------------------------------------------------------


def constant_classifier(n_features):
    return LogisticPointwise(
        feature_mean=np.zeros(n_features),
        feature_std=np.ones(n_features),
        W=np.zeros((n_features, 5)),
        b=np.zeros(5),
        context_frames=1,
    )


def test_zero_weights_give_uniform_and_ln5_loss():
    clf = constant_classifier(10)
    probs = clf.predict_proba(np.random.default_rng(8).normal(size=(20, 10)))
    np.testing.assert_array_equal(probs, np.full((20, 5), 0.2))
    nll = -np.log(probs[np.arange(20), np.zeros(20, dtype=int)])
    np.testing.assert_allclose(nll, math.log(5.0), atol=1e-12)


def one_hot_recording(labels, subject="s1", trial=0):
    frames = np.zeros((len(labels), 10))
    for t, c in enumerate(labels):
        frames[t, int(c)] = 1.0
        frames[t, 5 + int(c)] = -0.5
    rec = IMURecording(subject, "task", trial, 100.0, frames)
    segs = []
    start = 0
    for cls, group in itertools.groupby(labels):
        n = len(list(group))
        segs.append(PrimitiveSegment(start, start + n, cls))
        start += n
    return LabeledRecording(rec, segs)


def test_train_pointwise_separable_data():
    rng = np.random.default_rng(9)
    labels = [PrimitiveClass(int(v)) for v in rng.integers(0, 5, size=400)]
    labeled = one_hot_recording(labels)
    cfg = PointwiseTrainConfig(context_frames=1, max_epochs=40, seed=0)
    clf = train_pointwise([labeled], cfg)
    track = clf.track(labeled.recording)
    acc = np.mean(track.labels() == frame_labels(labeled))
    assert acc > 0.999


def test_train_pointwise_deterministic():
    labels = [PrimitiveClass(int(v)) for v in np.random.default_rng(10).integers(0, 5, 200)]
    labeled = one_hot_recording(labels)
    cfg = PointwiseTrainConfig(context_frames=1, max_epochs=10, seed=3)
    a = train_pointwise([labeled], cfg)
    b = train_pointwise([labeled], cfg)
    np.testing.assert_array_equal(a.W, b.W)
    np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(a.feature_mean, b.feature_mean)


def test_train_pointwise_on_synthetic_signals():
    spec = SynthSpec(
        n_subjects=2,
        trials_per_subject=1,
        duration_s=20.0,
        sample_rate_hz=100.0,
        n_channels=10,
    )
    data = synthesize_dataset(spec, seed=11)
    cfg = PointwiseTrainConfig(context_frames=25, max_epochs=30, seed=0)
    clf = train_pointwise(list(data.recordings), cfg)
    rec = data.recordings[0]
    acc = np.mean(clf.track(rec.recording).labels() == frame_labels(rec))
    assert acc > 0.9


def test_train_pointwise_empty():
    with pytest.raises(DataError, match="no training recordings"):
        train_pointwise([])


def test_train_config_validation():
    with pytest.raises(DataError):
        PointwiseTrainConfig(max_epochs=0)
    with pytest.raises(DataError):
        PointwiseTrainConfig(context_frames=0)


def test_frame_labels_cover_tiling():
    labeled = one_hot_recording([R, R, T, T, T, I])
    np.testing.assert_array_equal(frame_labels(labeled), [0, 0, 2, 2, 2, 4])

