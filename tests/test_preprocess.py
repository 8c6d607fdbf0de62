import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primcount.dataset import (
    ChannelManifest,
    DataError,
    IMURecording,
    PrimitiveClass,
    PrimitiveSegment,
    SynthSpec,
    sensor_centric_transform,
    synthesize_dataset,
    synthetic_manifest,
)
from primcount.preprocess import (
    MAX_TOKENS,
    NormalizationStats,
    TargetSequence,
    Window,
    WindowSpec,
    _normalized_stack,
    derive_target_sequence,
    fit_normalization,
    make_windows,
    normalize_frames,
)


def rotation_matrix(q):
    # independent representation used as the multiplication oracle
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def axis_angle_quat(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * axis])


def ref_quat_normalize(q):
    """Unit quaternions along the last axis (reference)."""
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm < 1e-12):
        raise DataError("zero-norm quaternion")
    return q / norm


def ref_quat_conjugate(q):
    return np.asarray(q, dtype=np.float64) * np.array([1.0, -1.0, -1.0, -1.0])


def ref_quat_multiply(a, b):
    """Hamilton product a ⊗ b, broadcasting over leading axes (reference)."""
    w1, x1, y1, z1 = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    w2, x2, y2, z2 = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def ref_sensor_centric_frames(frames, manifest):
    """The transform as a composition of the general helpers (reference)."""
    frames = np.array(frames)
    for start in manifest.quaternion_groups():
        q = ref_quat_normalize(frames[:, start : start + 4])
        frames[:, start : start + 4] = ref_quat_normalize(
            ref_quat_multiply(ref_quat_conjugate(q[0]), q)
        )
    return frames


class TestQuaternionAlgebra:
    def test_multiply_matches_rotation_composition(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = ref_quat_normalize(rng.normal(size=4))
            b = ref_quat_normalize(rng.normal(size=4))
            rel = sensor_centric_transform(quat_recording(np.stack([a, b])),
                                           one_sensor_manifest(0)).frames[1]
            # conj(a) ⊗ b rotates by b, then back by a, in the fixed frame
            np.testing.assert_allclose(
                rotation_matrix(rel),
                rotation_matrix(a).T @ rotation_matrix(b),
                atol=1e-12,
            )


def shipped_manifest():
    shipped = Path(__file__).resolve().parents[1] / "configs" / "manifest.json"
    return ChannelManifest.from_json(json.loads(shipped.read_text()))


def quat_recording(quats, extra=None, fs=100.0):
    """Recording with one quaternion group and optionally extra channels."""
    n = quats.shape[0]
    if extra is None:
        extra = np.zeros((n, 0))
    frames = np.concatenate([extra, quats], axis=1)
    return IMURecording("s00", "a", 0, fs, frames)


def one_sensor_manifest(n_extra):
    from primcount.dataset import ChannelDescriptor, ChannelManifest

    channels = [
        ChannelDescriptor(f"acc_{i}", "s", "acceleration", "g") for i in range(n_extra)
    ]
    channels += [
        ChannelDescriptor(f"q_{c}", "imu", "quaternion-component", "1")
        for c in "wxyz"
    ]
    return ChannelManifest(tuple(channels))


class TestSensorCentricTransform:
    def test_self_reference_gives_identity(self):
        rng = np.random.default_rng(1)
        expected = np.tile([1.0, 0.0, 0.0, 0.0], (20, 1))
        for _ in range(50):
            q = rng.normal(size=4) * rng.uniform(0.1, 10.0)  # not unit norm
            rec = quat_recording(np.tile(q, (20, 1)))
            out = sensor_centric_transform(rec, one_sensor_manifest(0))
            np.testing.assert_allclose(out.frames, expected, atol=1e-12)

    def test_identity_reference_passes_through(self):
        rng = np.random.default_rng(5)
        quats = ref_quat_normalize(rng.normal(size=(30, 4)))
        quats[0] = [1.0, 0.0, 0.0, 0.0]
        rec = quat_recording(quats)
        out = sensor_centric_transform(rec, one_sensor_manifest(0))
        np.testing.assert_allclose(out.frames, quats, atol=1e-12)

    def test_relative_rotation_against_oracle(self):
        ref = axis_angle_quat([0, 0, 1], math.pi / 2)
        obs = axis_angle_quat([0, 0, 1], math.pi)
        rec = quat_recording(np.stack([ref, obs]))
        out = sensor_centric_transform(rec, one_sensor_manifest(0))
        np.testing.assert_allclose(
            out.frames[1], axis_angle_quat([0, 0, 1], math.pi / 2), atol=1e-12
        )

    def test_non_quaternion_channels_untouched(self):
        rng = np.random.default_rng(6)
        quats = ref_quat_normalize(rng.normal(size=(25, 4)))
        extra = rng.normal(size=(25, 3))
        rec = quat_recording(quats, extra)
        out = sensor_centric_transform(rec, one_sensor_manifest(3))
        np.testing.assert_array_equal(out.frames[:, :3], extra)

    def test_outputs_stay_unit_norm(self):
        rng = np.random.default_rng(7)
        # deliberately un-normalized inputs
        quats = rng.normal(size=(40, 4)) * 3.0
        rec = quat_recording(quats)
        out = sensor_centric_transform(rec, one_sensor_manifest(0))
        norms = np.linalg.norm(out.frames, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_zero_norm_frame_rejected(self):
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (10, 1))
        quats[4] = 0.0
        rec = quat_recording(quats)
        with pytest.raises(DataError, match="zero-norm"):
            sensor_centric_transform(rec, one_sensor_manifest(0))

    def test_equals_reference_composition_bitwise(self):
        manifest = shipped_manifest()
        rng = np.random.default_rng(9)
        frames = rng.normal(size=(3000, manifest.channel_count)) * 3.0  # non-unit quaternions
        rec = IMURecording("s00", "a", 0, 100.0, frames)
        out = sensor_centric_transform(rec, manifest)
        np.testing.assert_array_equal(out.frames, ref_sensor_centric_frames(frames, manifest))
        assert not out.frames.flags.writeable
        np.testing.assert_array_equal(rec.frames, frames)  # the input is left as it was

    def test_without_quaternion_groups_returns_the_recording_itself(self):
        rec = IMURecording("s00", "a", 0, 100.0, np.ones((10, 6)))
        assert sensor_centric_transform(rec, synthetic_manifest(6)) is rec

    def test_default_manifest_all_groups_transformed(self):
        manifest = shipped_manifest()
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(15, manifest.channel_count))
        for start in manifest.quaternion_groups():
            frames[:, start : start + 4] = ref_quat_normalize(
                rng.normal(size=(15, 4))
            )
        rec = IMURecording("s00", "a", 0, 100.0, frames)
        out = sensor_centric_transform(rec, manifest)
        for start in manifest.quaternion_groups():
            first = out.frames[0, start : start + 4]
            np.testing.assert_allclose(first, [1, 0, 0, 0], atol=1e-9)


class TestNormalization:
    def test_constant_channel_clamped(self):
        rec = IMURecording("s00", "a", 0, 100.0, np.full((50, 3), 2.5))
        stats = fit_normalization([rec])
        np.testing.assert_allclose(stats.mean, 2.5)
        np.testing.assert_allclose(stats.std, 1.0)
        np.testing.assert_allclose(normalize_frames(rec.frames, stats), 0.0)

    def test_two_point_channel(self):
        frames = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        stats = fit_normalization([IMURecording("s", "a", 0, 10.0, frames)])
        np.testing.assert_allclose(stats.mean, [0.0])
        np.testing.assert_allclose(stats.std, [1.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(42)
        recs = [
            IMURecording("s", "a", i, 100.0, rng.normal(2.0, 3.0, size=(n, 4)))
            for i, n in enumerate([37, 80, 11])
        ]
        # oracle: explicit accumulation in two passes over the recordings
        total = sum(r.n_frames for r in recs)
        mean = np.zeros(4)
        for r in recs:
            mean += r.frames.sum(axis=0)
        mean /= total
        var = np.zeros(4)
        for r in recs:
            var += ((r.frames - mean) ** 2).sum(axis=0)
        var /= total
        stats = fit_normalization(recs)
        np.testing.assert_allclose(stats.mean, mean, atol=1e-12)
        np.testing.assert_allclose(stats.std, np.sqrt(var), atol=1e-12)

    def test_apply_then_fit_gives_standard_stats(self):
        rng = np.random.default_rng(9)
        recs = [
            IMURecording("s", "a", i, 100.0, rng.normal(-1.0, 5.0, size=(60, 3)))
            for i in range(3)
        ]
        stats = fit_normalization(recs)
        stacked = np.concatenate([normalize_frames(r.frames, stats) for r in recs])
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(stacked.var(axis=0), 1.0, atol=1e-6)

    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(10)
        rec = IMURecording("s", "a", 0, 10.0, rng.normal(3.0, 2.0, size=(40, 5)))
        stats = fit_normalization([rec])
        windows = make_windows(rec, WindowSpec(sample_rate_hz=10.0), mode="test")
        xs = _normalized_stack(windows, stats, np.float64)  # (T, B, D)
        recovered = xs * stats.std + stats.mean
        for b, w in enumerate(windows):
            np.testing.assert_allclose(recovered[:, b], w.frames, atol=1e-9)

    def test_float64_stack_rejects_mismatched_window_shapes(self):
        stats = NormalizationStats(np.zeros(3), np.ones(3))
        windows = [Window("rec/a/0", 0, 2, 8, np.zeros((10, 3))),
                   Window("rec/b/1", 10, 2, 8, np.zeros((11, 3)))]
        with pytest.raises(DataError, match=r"^rec/b/1: window frames have shape \(11, 3\), "
                                            r"the first window's have \(10, 3\)$"):
            _normalized_stack(windows, stats, np.float64)

    def test_stack_overflow_names_the_dtype_range(self):
        # 1e308 - (-1e308) is beyond float64
        stats = NormalizationStats(np.full(3, -1e308), np.ones(3))
        frames = np.zeros((10, 3))
        frames[4, 1] = 1e308
        windows = [Window("rec/a/0", 0, 2, 8, np.zeros((10, 3))),
                   Window("rec/b/1", 7, 2, 8, frames)]
        with pytest.raises(DataError, match="^rec/b/1: the window at frame 7 normalizes "
                                            "beyond the float64 range$"):
            _normalized_stack(windows, stats, np.float64)

    def test_dimension_mismatch_rejected(self):
        stats = NormalizationStats(np.zeros(3), np.ones(3))
        with pytest.raises(DataError, match="dimensionality mismatch"):
            normalize_frames(np.zeros((5, 4)), stats)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="at least one recording"):
            fit_normalization([])

    @pytest.mark.parametrize("field", ["mean", "std"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_stats_rejected(self, field, value):
        vectors = {"mean": np.zeros(3), "std": np.ones(3)}
        vectors[field][1] = value
        with pytest.raises(DataError, match="must be finite"):
            NormalizationStats(vectors["mean"], vectors["std"])

    @pytest.mark.parametrize("std, reason", [
        (math.nan, "mean/std must be finite"), (0.0, "std must be positive"),
    ])
    def test_from_json_raises_the_stats_own_error(self, std, reason):
        doc = NormalizationStats(np.zeros(2), np.ones(2)).to_json()
        doc["std"][1] = std
        with pytest.raises(DataError) as raised:
            NormalizationStats.from_json(doc)
        assert str(raised.value) == reason

    def test_json_round_trip(self):
        stats = NormalizationStats(np.array([1.0, 2.0]), np.array([0.5, 4.0]), "fold0")
        again = NormalizationStats.from_json(stats.to_json())
        np.testing.assert_array_equal(again.mean, stats.mean)
        np.testing.assert_array_equal(again.std, stats.std)
        assert again.source_split == "fold0"


class TestWindowSpec:
    def test_frame_counts(self):
        spec = WindowSpec(sample_rate_hz=100.0)
        assert spec.window_frames == 600
        assert spec.core_frames == 400
        assert spec.flank_frames == 100
        assert spec.train_slide_frames == 50
        assert spec.test_slide_frames == 400

    def test_non_integral_durations_rejected(self):
        with pytest.raises(DataError, match="whole frame count"):
            WindowSpec(sample_rate_hz=30.0, train_slide_s=0.05)

    def test_core_larger_than_window_rejected(self):
        with pytest.raises(DataError, match="core cannot exceed window"):
            WindowSpec(sample_rate_hz=100.0, window_s=4.0, core_s=6.0)

    def test_odd_flank_rejected(self):
        # window 5 s / core 4 s leaves 0.5 s per flank: fine at 100 Hz,
        # not a whole frame count at 11 Hz
        WindowSpec(sample_rate_hz=100.0, window_s=5.0, core_s=4.0)
        with pytest.raises(DataError):
            WindowSpec(sample_rate_hz=11.0, window_s=5.0, core_s=4.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"sample_rate_hz": math.nan}, "sample rate must be finite and positive"),
        ({"sample_rate_hz": math.inf}, "sample rate must be finite and positive"),
        ({"sample_rate_hz": 0.0}, "sample rate must be finite and positive"),
        ({"sample_rate_hz": 1e308}, "window_s = 6.0 s is not a whole frame count"),
        ({"window_s": math.nan}, "window_s = nan s is not a whole frame count"),
        ({"window_s": 0.0, "core_s": 0.0}, "window_s = 0.0 s is shorter than one frame"),
        ({"train_slide_s": 0.0}, "train_slide_s = 0.0 s is shorter than one frame"),
    ], ids=["nan-rate", "inf-rate", "zero-rate", "overflowing-rate", "nan-window",
            "zero-window", "zero-train-slide"])
    def test_uncuttable_geometry_rejected(self, kwargs, message):
        with pytest.raises(DataError, match=message):
            WindowSpec(**{"sample_rate_hz": 100.0, **kwargs})


def toy_recording(n, n_channels=2, fs=100.0):
    # frame index encoded in every channel so padding is easy to spot
    frames = np.tile(np.arange(n, dtype=float)[:, None], (1, n_channels))
    return IMURecording("s00", "a", 0, fs, frames)


class TestMakeWindows:
    def test_test_mode_100s_recording(self):
        spec = WindowSpec(sample_rate_hz=100.0)
        windows = make_windows(toy_recording(10000), spec, mode="test")
        assert len(windows) == 25
        for k, w in enumerate(windows):
            assert w.abs_core_start == 400 * k
            assert w.abs_core_end == 400 * k + 400
            assert w.frames.shape == (600, 2)
            assert w.core_start == 100
            assert w.core_end == 500

    def test_train_mode_100s_recording(self):
        spec = WindowSpec(sample_rate_hz=100.0)
        windows = make_windows(toy_recording(10000), spec, mode="train")
        assert len(windows) == 1 + math.ceil((10000 - 400) / 50)
        assert len(windows) == 193
        starts = [w.abs_core_start for w in windows]
        assert starts == [50 * k for k in range(193)]
        assert windows[-1].abs_core_end == 10000

    def test_train_slide_beyond_core(self):
        # 5 s slide, 4 s core: k * 500 < 1000 keeps two cores, the third
        # would start at the recording's end with an empty core
        spec = WindowSpec(sample_rate_hz=100.0, train_slide_s=5.0)
        windows = make_windows(toy_recording(1000), spec, mode="train")
        assert [(w.abs_core_start, w.abs_core_end) for w in windows] == [(0, 400), (500, 900)]

    def test_truncated_tail_window(self):
        spec = WindowSpec(sample_rate_hz=100.0)
        windows = make_windows(toy_recording(630), spec, mode="test")
        assert len(windows) == 2
        last = windows[-1]
        assert last.abs_core_start == 400
        assert last.abs_core_end == 630
        assert last.core_end - last.core_start == 230
        assert last.frames.shape == (600, 2)
        # tail beyond frame 629 is padded with the last frame
        np.testing.assert_array_equal(last.frames[330:], 629.0)

    def test_left_flank_padding(self):
        spec = WindowSpec(sample_rate_hz=100.0)
        windows = make_windows(toy_recording(800), spec, mode="test")
        first = windows[0]
        assert first.start_frame == -100
        np.testing.assert_array_equal(first.frames[:100], 0.0)
        np.testing.assert_array_equal(first.frames[100:600, 0], np.arange(500))

    def test_cores_tile_recording_exactly(self):
        spec = WindowSpec(sample_rate_hz=100.0)
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 2500))
            windows = make_windows(toy_recording(n), spec, mode="test")
            covered = np.concatenate(
                [np.arange(w.abs_core_start, w.abs_core_end) for w in windows]
            )
            np.testing.assert_array_equal(covered, np.arange(n))

    def test_single_frame_recording(self):
        spec = WindowSpec(sample_rate_hz=100.0)
        for mode in ("test", "train"):
            windows = make_windows(toy_recording(1), spec, mode=mode)
            assert len(windows) == 1
            assert windows[0].abs_core_end == 1
            np.testing.assert_array_equal(windows[0].frames, 0.0)

    def test_sample_rate_mismatch_rejected(self):
        # a 100-Hz spec would cut 30 s of a 20-Hz recording into each window
        spec = WindowSpec(sample_rate_hz=100.0)
        with pytest.raises(DataError, match="s00/a/0 is sampled at 20.0 Hz, "
                                            "the window spec at 100.0 Hz"):
            make_windows(toy_recording(1200, fs=20.0), spec, mode="test")

    def test_core_frames_view(self):
        spec = WindowSpec(sample_rate_hz=100.0)
        windows = make_windows(toy_recording(1200), spec, mode="test")
        w = windows[1]
        np.testing.assert_array_equal(w.frames[w.core_start : w.core_end, 0],
                                      np.arange(400, 800))


@settings(max_examples=60, deadline=None)
@given(rate=st.integers(1, 30), core=st.integers(1, 12), flank=st.integers(0, 5),
       slide=st.integers(1, 12), n=st.integers(1, 80), mode=st.sampled_from(["test", "train"]))
def test_windows_are_read_only_views_or_padded_copies(rate, core, flank, slide, n, mode):
    spec = WindowSpec(sample_rate_hz=float(rate), window_s=(core + 2 * flank) / rate,
                      core_s=core / rate, train_slide_s=slide / rate)
    assert (spec.core_frames, spec.flank_frames, spec.train_slide_frames) == (core, flank, slide)
    frames = np.random.default_rng(n).normal(size=(n, 3))
    recording = IMURecording("s0", "a", 0, float(rate), frames)
    before = recording.frames.copy()
    length = core + 2 * flank
    for w in make_windows(recording, spec, mode=mode):
        start = w.start_frame
        expected = recording.frames[np.clip(np.arange(start, start + length), 0, n - 1)]
        assert w.frames.shape == expected.shape and w.frames.tobytes() == expected.tobytes()
        if 0 <= start and start + length <= n:
            assert np.shares_memory(w.frames, recording.frames)
            assert not w.frames.flags.writeable
            with pytest.raises(ValueError):
                w.frames[0, 0] = 1.0
        else:
            assert w.frames.flags.owndata
    assert recording.frames.tobytes() == before.tobytes()


def seg(start, end, cls):
    return PrimitiveSegment(start, end, cls)


def window_for_core(lo, hi, flank=100):
    n = hi - lo + 2 * flank
    frames = np.zeros((n, 1))
    return Window("r", lo - flank, flank, flank + (hi - lo), frames)


class TestDeriveTargetSequence:
    R, T, I = PrimitiveClass.REACH, PrimitiveClass.TRANSPORT, PrimitiveClass.IDLE

    def test_core_inside_one_segment(self):
        segments = [seg(0, 1000, self.R)]
        target = derive_target_sequence(segments, window_for_core(200, 600))
        assert target.tokens == (self.R,)

    def test_three_segments_in_order(self):
        segments = [seg(0, 200, self.I), seg(200, 350, self.R), seg(350, 400, self.T)]
        target = derive_target_sequence(segments, window_for_core(0, 400))
        assert target.tokens == (self.I, self.R, self.T)

    def test_sliver_below_threshold_dropped(self):
        segments = [seg(0, 398, self.R), seg(398, 500, self.I)]
        target = derive_target_sequence(segments, window_for_core(0, 400))
        assert target.tokens == (self.R,)

    def test_exact_threshold_kept(self):
        segments = [seg(0, 395, self.R), seg(395, 500, self.I)]
        target = derive_target_sequence(segments, window_for_core(0, 400))
        assert target.tokens == (self.R, self.I)

    def test_rescue_when_everything_thresholded(self):
        # 4-frame truncated core, both overlaps below 5
        segments = [seg(0, 1001, self.R), seg(1001, 1004, self.I)]
        target = derive_target_sequence(segments, window_for_core(1000, 1004))
        assert target.tokens == (self.I,)

    def test_same_class_distinct_segments_both_emit(self):
        segments = [
            seg(0, 150, self.R),
            seg(150, 250, self.I),
            seg(250, 400, self.R),
        ]
        target = derive_target_sequence(segments, window_for_core(0, 400))
        assert target.tokens == (self.R, self.I, self.R)

    def test_max_tokens_truncation(self):
        segments = []
        pos = 0
        classes = [self.R, self.I]
        for i in range(40):
            segments.append(seg(pos, pos + 10, classes[i % 2]))
            pos += 10
        target = derive_target_sequence(segments, window_for_core(0, 400))
        assert len(target) == MAX_TOKENS == 16

    def test_matches_synthetic_labels(self):
        spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=30.0,
                         sample_rate_hz=100.0, n_channels=6)
        ds = synthesize_dataset(spec, seed=2)
        labeled = ds.recordings[0]
        wspec = WindowSpec(sample_rate_hz=100.0)
        windows = make_windows(labeled.recording, wspec, mode="test")
        for w in windows:
            target = derive_target_sequence(labeled.segments, w)
            # every token's segment really does overlap the core
            lo, hi = w.abs_core_start, w.abs_core_end
            overlapping = [
                s.cls for s in labeled.segments
                if min(s.end, hi) - max(s.start, lo) >= 5
            ]
            assert list(target.tokens) == overlapping


class TestTargetSequence:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            TargetSequence(())

    def test_codes(self):
        t = TargetSequence((PrimitiveClass.IDLE, PrimitiveClass.REACH))
        np.testing.assert_array_equal(t.codes(), [4, 0])
        assert len(t) == 2
        assert t[0] is PrimitiveClass.IDLE
