import itertools
import math

import numpy as np
import pytest

from primcount.baseline import (
    KaiserSmoother,
    LogisticPointwise,
    PointwiseTrack,
    PointwiseTrainConfig,
    collapse,
    collapse_windows,
    extract_feature_matrix,
    extract_features,
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
    feats = extract_features(frames, 20, context_frames=10)
    mean, mx, mn, std, rms = reference_stats(frames[15:25])
    np.testing.assert_allclose(feats.mean, mean, atol=1e-12)
    np.testing.assert_allclose(feats.maximum, mx, atol=0)
    np.testing.assert_allclose(feats.minimum, mn, atol=0)
    np.testing.assert_allclose(feats.std, std, atol=1e-12)
    np.testing.assert_allclose(feats.rms, rms, atol=1e-12)


def test_features_clamped_at_edges():
    rng = np.random.default_rng(1)
    frames = rng.normal(size=(60, 2))
    first = extract_features(frames, 0, context_frames=100)
    np.testing.assert_array_equal(first.mean, frames[0:50].mean(axis=0))
    last = extract_features(frames, 59, context_frames=100)
    np.testing.assert_array_equal(last.mean, frames[9:60].mean(axis=0))


def test_features_out_of_range():
    frames = np.zeros((10, 2))
    with pytest.raises(DataError, match="outside"):
        extract_features(frames, 10)
    with pytest.raises(DataError, match="outside"):
        extract_features(frames, -1)


def test_feature_vector_order():
    frames = np.arange(12.0).reshape(6, 2)
    f = extract_features(frames, 3, context_frames=4)
    v = f.as_vector()
    np.testing.assert_array_equal(v[:2], f.mean)
    np.testing.assert_array_equal(v[2:4], f.maximum)
    np.testing.assert_array_equal(v[4:6], f.minimum)
    np.testing.assert_array_equal(v[6:8], f.std)
    np.testing.assert_array_equal(v[8:10], f.rms)


def test_feature_invariants_enforced():
    with pytest.raises(DataError, match="min <= mean <= max"):
        extract_features(np.zeros((5, 1)), 0).__class__(
            mean=np.array([2.0]),
            maximum=np.array([1.0]),
            minimum=np.array([0.0]),
            std=np.array([0.1]),
            rms=np.array([1.0]),
        )


@pytest.mark.parametrize("context", [1, 9, 10, 100])
def test_feature_matrix_matches_per_frame(context):
    rng = np.random.default_rng(2)
    frames = rng.normal(size=(57, 4))
    mat = extract_feature_matrix(frames, context)
    for t in range(57):
        np.testing.assert_allclose(
            mat[t], extract_features(frames, t, context).as_vector(), atol=1e-12
        )


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
        PointwiseTrainConfig(learning_rate=0.0)
    with pytest.raises(DataError):
        PointwiseTrainConfig(context_frames=0)


def test_frame_labels_cover_tiling():
    labeled = one_hot_recording([R, R, T, T, T, I])
    np.testing.assert_array_equal(frame_labels(labeled), [0, 0, 2, 2, 2, 4])

