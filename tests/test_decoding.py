import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from primcount.dataset import (
    CLASSES,
    DataError,
    PrimitiveClass,
    SynthSpec,
    synthesize_dataset,
)
from primcount.decoding import (
    CountingError,
    PrimitiveCounts,
    SessionPrediction,
    WindowPrediction,
    count,
    counting_error,
    decode_windows,
    from_target,
    stitch_windows,
)
from primcount.model import (
    EOS_TOKEN,
    SOS_TOKEN,
    EnsembleModel,
    ModelConfig,
    _encode_batch,
    decode_step_batch,
    init_params,
    load_ensemble,
    zero_params,
)
from primcount.preprocess import (
    NormalizationStats,
    Window,
    WindowSpec,
    derive_target_sequence,
    make_windows,
    normalize_frames,
)

R = PrimitiveClass.REACH
T = PrimitiveClass.TRANSPORT
S = PrimitiveClass.STABILIZE
I = PrimitiveClass.IDLE

CFG = ModelConfig(input_dim=4, hidden_dim=6, embed_dim=5, max_decode_len=4)


def ident_stats(n=4):
    return NormalizationStats(np.zeros(n), np.ones(n))


def constant_member(probs5_and_special, cfg=CFG):
    """Member whose output distribution is constant: softmax of log-probs."""
    params = zero_params(cfg)
    params.out_b[:] = [math.log(p) if p > 0 else -40.0 for p in probs5_and_special]
    return params, ident_stats(cfg.input_dim)


def member_index(members, params):
    """Index of the member whose float32 copy `params` is (decode_windows
    encodes with copies, not with the members' own params)."""
    return next(i for i, (p, _) in enumerate(members)
                if np.array_equal(p.vector.astype(np.float32), params.vector))


def ref_decode_windows_f64(ensemble, windows):
    """Greedy ensemble decode in float64, in this process (reference):
    the members' own params, one normalized time-major stack each."""
    raw = np.stack([w.frames for w in windows], axis=1)  # (T, B, D)
    states = [_encode_batch(params, normalize_frames(raw, stats))[0]
              for params, stats in ensemble.members]
    B = len(windows)
    prev = np.full(B, SOS_TOKEN)
    done = np.zeros(B, dtype=bool)
    tokens = [[] for _ in windows]
    for _ in range(ensemble.config.max_decode_len):
        avg = 0.0
        for i, (params, _) in enumerate(ensemble.members):
            probs, states[i] = decode_step_batch(params, states[i], prev)
            avg = avg + probs
        avg = avg / len(ensemble.members)
        avg[:, SOS_TOKEN] = -1.0
        prev = np.argmax(avg, axis=1)
        for b in range(B):
            if done[b] or prev[b] == EOS_TOKEN:
                done[b] = True
            else:
                tokens[b].append(PrimitiveClass(int(prev[b])))
                done[b] = len(tokens[b]) >= ensemble.config.max_decode_len - 1
    return [tuple(t) for t in tokens]


def toy_windows(n, cfg=CFG, seed=0):
    rng = np.random.default_rng(seed)
    flank = 2
    core = 6
    return [
        Window(
            "rec/a/0",
            k * core - flank,
            flank,
            flank + core,
            rng.normal(size=(core + 2 * flank, cfg.input_dim)),
        )
        for k in range(n)
    ]


class TestDecodeWindow:
    def test_hand_averaged_distributions(self):
        # member A: reach 0.6 / idle 0.4; member B: reach 0.2 / idle 0.8
        a = constant_member([0.6, 0, 0, 0, 0.4, 0, 0])
        b = constant_member([0.2, 0, 0, 0, 0.8, 0, 0])
        ensemble = EnsembleModel(CFG, [a, b])
        pred = decode_windows(ensemble, toy_windows(1))[0]
        # averaged: reach 0.4, idle 0.6 -> idle wins every step until the cap
        assert pred.tokens == (I, I, I)

    def test_eos_immediately_gives_empty_prediction(self):
        member = constant_member([0, 0, 0, 0, 0, 0, 1.0])
        ensemble = EnsembleModel(CFG, [member])
        pred = decode_windows(ensemble, toy_windows(1))[0]
        assert pred.tokens == ()

    def test_tie_breaks_to_lowest_code(self):
        # idle and EOS get identical probability mass
        member = constant_member([0, 0, 0, 0, 0.5, 0, 0.5])
        ensemble = EnsembleModel(CFG, [member])
        pred = decode_windows(ensemble, toy_windows(1))[0]
        assert pred.tokens == (I, I, I)

    def test_sos_never_predicted(self):
        # SOS gets overwhelming probability; the decode must ignore it
        member = constant_member([0.01, 0, 0, 0, 0, 0.98, 0.01])
        ensemble = EnsembleModel(CFG, [member])
        pred = decode_windows(ensemble, toy_windows(1))[0]
        assert all(t == R for t in pred.tokens)

    def test_identical_members_match_single(self):
        params = init_params(CFG, 3)
        stats = ident_stats()
        one = EnsembleModel(CFG, [(params, stats)])
        four = EnsembleModel(CFG, [(params, stats)] * 4)
        for w in toy_windows(50, seed=7):
            assert decode_windows(four, [w])[0].tokens == decode_windows(one, [w])[0].tokens

    def test_batched_matches_single(self):
        members = [(init_params(CFG, s), ident_stats()) for s in (1, 2, 3)]
        ensemble = EnsembleModel(CFG, members)
        windows = toy_windows(40, seed=11)
        batched = decode_windows(ensemble, windows)
        for w, p in zip(windows, batched):
            assert decode_windows(ensemble, [w])[0].tokens == p.tokens
            assert p.core_start == w.abs_core_start

    def test_member_normalization_applied(self, tmp_path, monkeypatch):
        # each member encodes (raw - mean) / std built from its own stats;
        # members encode in forked workers, so the stub records to files
        import primcount.decoding as decoding_mod

        windows = toy_windows(2, seed=2)
        rng = np.random.default_rng(3)
        ensemble = EnsembleModel(CFG, [
            (init_params(CFG, seed), NormalizationStats(rng.normal(size=4), rng.uniform(0.5, 2.0, 4)))
            for seed in (1, 2)
        ])
        encode = decoding_mod._encode_batch

        def recording_encode(params, xs):
            i = member_index(ensemble.members, params)
            np.save(tmp_path / f"member{i}.npy", xs)
            return encode(params, xs)

        monkeypatch.setattr(decoding_mod, "_encode_batch", recording_encode)
        decode_windows(ensemble, windows)
        raw = np.stack([w.frames for w in windows], axis=1)
        for i, (_, stats) in enumerate(ensemble.members):
            # normalized in float64, rounded to float32 once
            expected = ((raw - stats.mean) / stats.std).astype(np.float32)
            assert np.load(tmp_path / f"member{i}.npy").tobytes() == expected.tobytes()

    def test_length_cap(self):
        member = constant_member([1.0, 0, 0, 0, 0, 0, 0])
        ensemble = EnsembleModel(CFG, [member])
        pred = decode_windows(ensemble, toy_windows(1))[0]
        assert len(pred) == CFG.max_decode_len - 1

    def test_memory_bounded_by_window_frames(self):
        # paper geometry: 6 s windows at 100 Hz, 77 channels, H=64; the
        # decode holds one float32 normalized stack (half the frames' bytes)
        # and no per-step state
        cfg = ModelConfig(input_dim=77, hidden_dim=64, embed_dim=32)
        ensemble = EnsembleModel(cfg, [(init_params(cfg, 0), ident_stats(77))])
        rng = np.random.default_rng(0)
        windows = [Window("rec/a/0", 400 * k - 100, 100, 500, rng.normal(size=(600, 77)))
                   for k in range(10)]
        frame_bytes = sum(w.frames.nbytes for w in windows)
        tracemalloc.start()
        try:
            decode_windows(ensemble, windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * frame_bytes, peak / frame_bytes

    @pytest.mark.parametrize("n_members", [1, 2])
    def test_float32_overflow_names_the_recording(self, n_members):
        # z = 1e39 is finite in float64 and infinite in float32
        members = [(init_params(CFG, s), ident_stats()) for s in range(n_members)]
        windows = toy_windows(3)
        frames = windows[1].frames.copy()
        frames[4, 2] = 1e39
        windows[1] = Window("rec/b/1", windows[1].start_frame, 2, 8, frames)
        with pytest.raises(DataError, match="^rec/b/1: the window at frame 4 normalizes "
                                            "beyond the float32 range$"):
            decode_windows(EnsembleModel(CFG, members), windows)

    @pytest.mark.parametrize("n_members", [1, 2])
    def test_window_shape_mismatch_names_the_recording(self, n_members):
        windows = toy_windows(2)
        windows.append(Window("rec/b/1", 12, 2, 8, np.zeros((11, CFG.input_dim))))
        members = [(init_params(CFG, s), ident_stats()) for s in range(n_members)]
        ensemble = EnsembleModel(CFG, members)
        with pytest.raises(DataError, match=r"^rec/b/1: window frames have shape \(11, 4\), "
                                            r"the first window's have \(10, 4\)$"):
            decode_windows(ensemble, windows)


def test_float32_decode_matches_float64_reference_on_smoke_model(tmp_path):
    # every test window of the smoke dataset, decoded by the smoke-trained
    # ensemble: the float32 tokens equal the float64 reference's
    from primcount.cli import main
    from primcount.dataset import load_dataset

    config = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"
    for command in ["synth", "train"]:
        assert main([command, "--config", str(config), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")]) == 0
    ensemble = load_ensemble(sorted((tmp_path / "out").glob("model.*.bin")))
    spec = WindowSpec(sample_rate_hz=20.0)
    n_windows = 0
    for labeled in load_dataset(tmp_path / "data").recordings:
        windows = make_windows(labeled.recording, spec, mode="test")
        assert ([p.tokens for p in decode_windows(ensemble, windows)]
                == ref_decode_windows_f64(ensemble, windows))
        n_windows += len(windows)
    assert n_windows == 6 * 8


class TestEncodingWorkers:
    def members(self):
        return [(init_params(CFG, s), ident_stats()) for s in (1, 2, 3, 4)]

    def test_member_error_reaches_the_caller(self, monkeypatch):
        import multiprocessing

        import primcount.decoding as decoding_mod

        members = self.members()
        original = decoding_mod._encode_batch

        def member_2_fails(params, xs):
            if member_index(members, params) == 2:
                raise DataError("member 2 cannot encode")
            return original(params, xs)

        monkeypatch.setattr(decoding_mod, "_encode_batch", member_2_fails)
        with pytest.raises(DataError, match="^member 2 cannot encode$"):
            decode_windows(EnsembleModel(CFG, members), toy_windows(3))
        assert multiprocessing.active_children() == []

    def test_killed_worker_names_member_and_exit_code(self, monkeypatch):
        import multiprocessing
        import os
        import signal

        import primcount.decoding as decoding_mod

        members = self.members()
        original = decoding_mod._encode_batch

        def member_1_killed(params, xs):
            if member_index(members, params) == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(params, xs)

        monkeypatch.setattr(decoding_mod, "_encode_batch", member_1_killed)
        with pytest.raises(ChildProcessError, match="job 1 worker exited with code -9"):
            decode_windows(EnsembleModel(CFG, members), toy_windows(3))
        assert multiprocessing.active_children() == []

    def test_single_member_starts_no_process(self, monkeypatch):
        import multiprocessing

        def no_process(*args, **kwargs):
            raise AssertionError("decode started a process")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", no_process)
        ensemble = EnsembleModel(CFG, self.members()[:1])
        assert len(decode_windows(ensemble, toy_windows(3))) == 3


class TestBatchIndependence:
    def test_window_bits_do_not_depend_on_the_batch(self, monkeypatch):
        # Equal bits at any batch size rest on the BLAS choosing the same
        # kernel for every batch of two or more rows; on a platform where
        # it does not, this test fails rather than the outputs drifting.
        import primcount.decoding as decoding_mod

        cfg = ModelConfig(input_dim=77, hidden_dim=64, embed_dim=32)  # paper width
        rng = np.random.default_rng(8)
        windows = [Window("rec/a/0", 400 * k - 100, 100, 500, rng.normal(size=(600, 77)))
                   for k in range(30)]
        target, others = windows[0], windows[1:]
        ensemble = EnsembleModel(cfg, [(init_params(cfg, 2), ident_stats(77))])
        seen = {}

        def encode(params, xs):
            seen["rows"] = xs.shape[1]
            ctx, _ = _encode_batch(params, xs)
            seen["ctx"], seen["probs"] = ctx, []
            return ctx, None

        def step(params, states, prev):
            probs, states = decode_step_batch(params, states, prev)
            seen["probs"].append(probs)
            return probs, states

        monkeypatch.setattr(decoding_mod, "_encode_batch", encode)
        monkeypatch.setattr(decoding_mod, "decode_step_batch", step)

        def bits(batch, at):
            """The target's context and per-step probabilities in `batch`."""
            decode_windows(ensemble, batch)
            return seen["ctx"][at].tobytes(), [p[at].tobytes() for p in seen["probs"]]

        ctx, probs = bits([target], 0)
        assert seen["rows"] == 2  # one window encodes as two copies of its row
        for size in (2, 7, 30):
            for at in (0, 1, size - 1):
                batch = [*others[:at], target, *others[at : size - 1]]
                batch_ctx, batch_probs = bits(batch, at)
                assert seen["rows"] == size
                assert batch_ctx == ctx, (size, at)
                # a batch runs until its last window stops, so at least as long
                assert batch_probs[: len(probs)] == probs, (size, at)


class TestWindowPrediction:
    def test_rejects_non_primitive_tokens(self):
        with pytest.raises(DataError, match="non-primitive token"):
            WindowPrediction("r", 0, (R, SOS_TOKEN))
        with pytest.raises(DataError, match="non-primitive token"):
            WindowPrediction("r", 0, (EOS_TOKEN,))


def wp(start, *tokens):
    return WindowPrediction("rec/a/0", start, tokens)


class TestStitchWindows:
    def test_boundary_merge(self):
        session = stitch_windows([wp(0, R, T), wp(6, T, S)])
        assert session.tokens == (R, T, S)

    def test_primitive_spanning_three_windows(self):
        session = stitch_windows([wp(0, R), wp(6, R), wp(12, R)])
        assert session.tokens == (R,)

    def test_no_merge_when_classes_differ(self):
        session = stitch_windows([wp(0, R, I), wp(6, T)])
        assert session.tokens == (R, I, T)

    def test_empty_windows_skipped(self):
        session = stitch_windows([wp(0, R), wp(6), wp(12, T)])
        assert session.tokens == (R, T)

    def test_merge_count_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            preds = []
            total = 0
            for k in range(int(rng.integers(1, 8))):
                toks = tuple(
                    PrimitiveClass(int(c)) for c in rng.integers(0, 5, rng.integers(0, 4))
                )
                preds.append(wp(k * 6, *toks))
                total += len(toks)
            session = stitch_windows(preds)
            merges = total - len(session.tokens)
            assert 0 <= merges <= len(preds) - 1

    def test_unsorted_rejected(self):
        with pytest.raises(DataError, match="not sorted"):
            stitch_windows([wp(6, R), wp(0, T)])

    def test_mixed_recordings_rejected(self):
        with pytest.raises(DataError, match="multiple recordings"):
            stitch_windows(
                [wp(0, R), WindowPrediction("other/b/1", 6, (T,))]
            )

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="no window predictions"):
            stitch_windows([])


class TestCount:
    def test_examples(self):
        session = SessionPrediction("r", (R, T, R))
        counts = count(session)
        assert counts[R] == 2
        assert counts[T] == 1
        assert counts[I] == 0
        assert counts.total == 3

    def test_empty(self):
        counts = count(SessionPrediction("r", ()))
        assert counts.total == 0

    def test_recount_oracle(self):
        rng = np.random.default_rng(42)
        tokens = tuple(PrimitiveClass(int(c)) for c in rng.integers(0, 5, 1000))
        counts = count(SessionPrediction("r", tokens))
        oracle = Counter(tokens)
        for c in CLASSES:
            assert counts[c] == oracle.get(c, 0)
        assert counts.total == 1000

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError, match="negative"):
            PrimitiveCounts({R: -1})


class TestCountingError:
    def test_sign_convention(self):
        true = PrimitiveCounts({R: 100})
        assert counting_error(true, PrimitiveCounts({R: 92})).per_class[R] == 8.0
        assert counting_error(true, PrimitiveCounts({R: 109})).per_class[R] == -9.0
        assert counting_error(true, PrimitiveCounts({R: 100})).per_class[R] == 0.0

    def test_pooled(self):
        true = PrimitiveCounts({R: 50, T: 50})
        pred = PrimitiveCounts({R: 40, T: 70})
        err = counting_error(true, pred)
        assert err.pooled == -10.0
        assert err.per_class[R] == 20.0
        assert err.per_class[T] == -40.0

    def test_zero_true_count_undefined(self):
        err = counting_error(PrimitiveCounts({R: 10}), PrimitiveCounts({T: 3}))
        assert math.isnan(err.per_class[T])
        assert err.per_class[R] == 100.0

    def test_json(self):
        err = counting_error(PrimitiveCounts({R: 10}), PrimitiveCounts({R: 8}))
        doc = err.to_json()
        assert doc["per_class"]["reach"] == 20.0
        assert doc["per_class"]["idle"] is None


class TestGroundTruthRoundTrip:
    def test_counts_and_sequence_exact(self):
        # oracle decoding: per-window ground truth, stitched, must rebuild
        # the recording's segment sequence and per-class counts exactly
        spec = SynthSpec(n_subjects=3, trials_per_subject=2, duration_s=60.0,
                         sample_rate_hz=100.0, n_channels=6)
        ds = synthesize_dataset(spec, seed=13)
        wspec = WindowSpec(sample_rate_hz=100.0)
        for labeled in ds.recordings:
            windows = make_windows(labeled.recording, wspec, mode="test")
            preds = [
                from_target(w, derive_target_sequence(labeled.segments, w))
                for w in windows
            ]
            session = stitch_windows(preds)
            assert session.tokens == labeled.class_sequence()
            counts = count(session)
            assert counts.counts == labeled.true_counts()

    def test_exact_at_20hz(self):
        spec = SynthSpec(n_subjects=2, trials_per_subject=2, duration_s=45.0,
                         sample_rate_hz=20.0, n_channels=5)
        ds = synthesize_dataset(spec, seed=29)
        wspec = WindowSpec(sample_rate_hz=20.0)
        for labeled in ds.recordings:
            windows = make_windows(labeled.recording, wspec, mode="test")
            preds = [
                from_target(w, derive_target_sequence(labeled.segments, w))
                for w in windows
            ]
            session = stitch_windows(preds)
            assert session.tokens == labeled.class_sequence()

