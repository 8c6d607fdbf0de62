import hashlib
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

import primcount.model
from primcount.dataset import (
    DataError,
    DatasetSplit,
    SynthSpec,
    split_subjects,
    synthesize_dataset,
)
from primcount.model import (
    EOS_TOKEN,
    SOS_TOKEN,
    VOCAB_SIZE,
    Adam,
    EnsembleModel,
    ModelConfig,
    ModelParams,
    TrainConfig,
    TrainingData,
    TrainingError,
    _batch_forward_backward,
    _encode_batch,
    _encode_array,
    _encode_backward,
    _fork_map,
    _gru_backward,
    _gru_forward,
    _layout,
    _sigmoid,
    decode_step_batch,
    ensemble_paths,
    grad_check,
    init_params,
    load_member,
    member_seed,
    save_ensemble,
    save_member,
    train_ensemble,
    train_member,
    zero_params,
)
from primcount.preprocess import NormalizationStats, WindowSpec, make_windows


def scalar_gru_step(p, x, h):
    """Per-unit python re-implementation of one recurrent step (oracle)."""
    D, H = p.Wr.shape

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def dot_x(W, j):
        return sum(float(x[i]) * float(W[i, j]) for i in range(D))

    def dot_h(U, j):
        return sum(float(h[k]) * float(U[k, j]) for k in range(H))

    out = []
    for j in range(H):
        r = sig(dot_x(p.Wr, j) + dot_h(p.Ur, j) + float(p.br[j]))
        z = sig(dot_x(p.Wz, j) + dot_h(p.Uz, j) + float(p.bz[j]))
        n = math.tanh(dot_x(p.Wn, j) + r * dot_h(p.Un, j) + float(p.bn[j]))
        out.append((1.0 - z) * n + z * float(h[j]))
    return out


def scalar_encode(params, frames):
    """Oracle for the encoder: explicit loops, no shared code with the model."""
    T = frames.shape[0]
    H = params.config.hidden_dim
    h_f = [0.0] * H
    for t in range(T):
        h_f = scalar_gru_step(params.enc_fwd, frames[t], h_f)
    h_b = [0.0] * H
    for t in reversed(range(T)):
        h_b = scalar_gru_step(params.enc_bwd, frames[t], h_b)
    cat = h_f + h_b
    ctx = []
    for j in range(H):
        pre = sum(cat[i] * float(params.ctx_W[i, j]) for i in range(2 * H))
        ctx.append(math.tanh(pre + float(params.ctx_b[j])))
    return np.array(ctx)


def encode_one(params, frames):
    """Context vector of one window (T, D) through the encoder."""
    return _encode_batch(params, frames[:, None])[0][0]  # time-major, B=1


def ref_sigmoid(x):
    """The logistic with a per-element np.where on the sign (reference)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def ref_gru_step(p, x, h):
    """One step of one layer, one GEMM per gate (reference)."""
    r = _sigmoid(x @ p.Wr + h @ p.Ur + p.br)
    z = _sigmoid(x @ p.Wz + h @ p.Uz + p.bz)
    hn = h @ p.Un
    n = np.tanh(x @ p.Wn + r * hn + p.bn)
    return (1.0 - z) * n + z * h, (r, z, n, hn)


def ref_gru_forward(p, xs, h0):
    """One layer over xs (T, B, D) -> hs (T, B, H) and per-step gates."""
    hs = np.empty((xs.shape[0],) + h0.shape)
    gates = []
    h = h0
    for t, x in enumerate(xs):
        h, g = ref_gru_step(p, x, h)
        gates.append(g)
        hs[t] = h
    return hs, gates


def ref_gru_backward(p, xs, h0, hs, gates, dhs, g):
    """Per-gate backprop through time of one layer (reference): adds the
    parameter gradients into g, returns (dxs, dh0)."""
    dxs = np.zeros_like(xs)
    dh_next = np.zeros_like(dhs[0])
    for t in reversed(range(xs.shape[0])):
        dh = dhs[t] + dh_next
        x = xs[t]
        h_prev = hs[t - 1] if t else h0
        r, z, n, hn = gates[t]
        dz = dh * (h_prev - n) * z * (1.0 - z)
        dn = dh * (1.0 - z) * (1.0 - n * n)
        dh_prev = dh * z
        g.Wn += x.T @ dn
        g.bn += dn.sum(axis=0)
        d_hn = dn * r
        g.Un += h_prev.T @ d_hn
        dh_prev += d_hn @ p.Un.T
        dr = dn * hn * r * (1.0 - r)
        g.Wr += x.T @ dr
        g.br += dr.sum(axis=0)
        g.Ur += h_prev.T @ dr
        dh_prev += dr @ p.Ur.T
        g.Wz += x.T @ dz
        g.bz += dz.sum(axis=0)
        g.Uz += h_prev.T @ dz
        dh_prev += dz @ p.Uz.T
        dxs[t] = dn @ p.Wn.T + dr @ p.Wr.T + dz @ p.Wz.T
        dh_next = dh_prev
    return dxs, dh_next


def fused_run(params, xs, h0, dhs, want_dx):
    """The encoder's two directions as one stack, forward and backward:
    (hs, loss sum(dhs * hs), gradient arrays by name, dxs, dh0)."""
    grads = zero_params(params.config)
    layers = (params.enc_fwd, params.enc_bwd)
    h, tape = _gru_forward(layers, xs, h0)
    np.testing.assert_array_equal(h, tape.hs[:, -1])
    dxs, dh0 = _gru_backward(layers, tape, dhs, want_dx, (grads.enc_fwd, grads.enc_bwd))
    return tape.hs, float((dhs * tape.hs).sum()), grads.arrays(), dxs, dh0


def assert_close(actual, expected, rel=1e-12):
    """Agree within rel of the largest magnitude in expected."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


TINY = ModelConfig(input_dim=3, hidden_dim=4, embed_dim=5, max_decode_len=6)


class TestParams:
    def test_init_matches_draws_one_array_at_a_time(self):
        params = init_params(TINY, 3)
        rng = np.random.default_rng(3)
        scale = 1.0 / math.sqrt(TINY.hidden_dim)
        arrays = params.arrays()
        assert list(arrays) == [name for name, _ in _layout(TINY)]
        for name, shape in _layout(TINY):
            np.testing.assert_array_equal(arrays[name], rng.uniform(-scale, scale, size=shape))

    def test_arrays_are_views_of_one_vector(self):
        params = zero_params(TINY)
        params.dec.Wn[1, 2] = 3.0
        params.arrays()["out_b"][0] = 4.0
        assert params.vector.sum() == 7.0
        assert params.arrays()["dec.Wn"][1, 2] == 3.0 and params.out_b[0] == 4.0
        twin = params.copy()
        twin.out_b[0] = 0.0
        assert params.out_b[0] == 4.0 and twin.vector.sum() == 3.0

    def test_pickle_keeps_views_into_the_vector(self):
        params = init_params(TINY, 5)
        blob = pickle.dumps(params)
        twin = pickle.loads(blob)
        assert twin.config == params.config
        np.testing.assert_array_equal(twin.vector, params.vector)
        for name, arr in twin.arrays().items():
            assert np.shares_memory(twin.vector, arr), name
            np.testing.assert_array_equal(arr, params.arrays()[name])
        twin.enc_fwd.Wr[0, 0] = 9.0
        assert 9.0 in twin.vector
        assert len(blob) < 1.2 * params.vector.nbytes + 1024


class TestSigmoid:
    def test_bitwise_equal_to_both_reference_forms(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.normal(scale=10.0, size=1000),
            [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324],
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            positive = 1.0 / (1.0 + np.exp(-x))
            negative = np.exp(x) / (1.0 + np.exp(x))
        reference = np.where(x >= 0, positive, negative)
        np.testing.assert_array_equal(_sigmoid(x), reference)
        np.testing.assert_array_equal(_sigmoid(x[x >= 0]), positive[x >= 0])
        np.testing.assert_array_equal(_sigmoid(x[x < 0]), negative[x < 0])


class TestBranchFreeSigmoid:
    """_sigmoid keeps the bits of ref_sigmoid, NaN signs included, so no
    context, token, loss or gradient moves."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_where_form(self, dtype):
        rng = np.random.default_rng(1)
        band = np.linspace(87.0, 104.0, 2001)  # where float32 exp(-|x|) underflows
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                 1e-45, -1e-45, 800.0, -800.0]
        x = np.concatenate([rng.normal(scale=10.0, size=10_000), edges,
                            band, -band]).astype(dtype)
        with np.errstate(invalid="ignore"):
            got, want = _sigmoid(x), ref_sigmoid(x)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_float32_in_float32_out(self):
        x = np.random.default_rng(2).normal(size=(2, 30, 128)).astype(np.float32)
        assert _sigmoid(x).dtype == np.float32

    @staticmethod
    def _patch_reference(monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return ref_sigmoid(x)

        monkeypatch.setattr(primcount.model, "_sigmoid", counted)
        return calls

    def test_paper_shape_float32_contexts_bitwise_equal(self, monkeypatch):
        cfg = ModelConfig(input_dim=77, hidden_dim=64, embed_dim=32)
        params = ModelParams(cfg, init_params(cfg, 2).vector.astype(np.float32))
        xs = np.random.default_rng(5).normal(size=(600, 30, 77)).astype(np.float32)
        ctx, _ = _encode_batch(params, xs)
        calls = self._patch_reference(monkeypatch)
        assert ctx.tobytes() == _encode_batch(params, xs)[0].tobytes()
        assert len(calls) == 600

    def test_fit_small_shape_loss_and_gradients_bitwise_equal(self, monkeypatch):
        cfg = ModelConfig(input_dim=10, hidden_dim=16, embed_dim=16)
        params = init_params(cfg, 3)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(32, 120, 10))
        targets = [rng.integers(0, 5, size=rng.integers(1, 10)) for _ in range(32)]
        loss, grads = _batch_forward_backward(params, X, targets)
        calls = self._patch_reference(monkeypatch)
        ref_loss, ref_grads = _batch_forward_backward(params, X, targets)
        assert calls
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert list(grads) == list(ref_grads)
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name


class TestEncode:
    def test_zero_params_give_zero_context(self):
        params = zero_params(TINY)
        rng = np.random.default_rng(42)
        ctx = encode_one(params, rng.normal(size=(12, 3)))
        np.testing.assert_array_equal(ctx, 0.0)

    def test_deterministic(self):
        params = init_params(TINY, 3)
        frames = np.random.default_rng(4).normal(size=(15, 3))
        a = encode_one(params, frames)
        b = encode_one(params, frames)
        np.testing.assert_array_equal(a, b)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for seed in range(5):
            params = init_params(TINY, seed)
            frames = rng.normal(size=(7, 3))
            np.testing.assert_allclose(
                encode_one(params, frames), scalar_encode(params, frames), atol=1e-12
            )

    def test_shape_mismatch_rejected(self):
        params = init_params(TINY, 0)
        with pytest.raises(DataError, match="channels"):
            _encode_batch(params, np.zeros((10, 1, 5)))

    def test_backward_allocates_less_than_the_state_tape(self):
        # the context reads only the last states, so the gradient on the
        # other T - 1 steps is never stored
        cfg = ModelConfig(input_dim=5, hidden_dim=16, embed_dim=4)
        params = init_params(cfg, 0)
        ctx, tapes = _encode_batch(
            params, np.random.default_rng(0).normal(size=(300, 32, 5)), keep_tape=True)
        dctx = np.random.default_rng(1).normal(size=ctx.shape)
        grads = zero_params(cfg)
        tracemalloc.start()
        try:
            _encode_backward(params, ctx, tapes, dctx, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tapes[0].hs.nbytes, (peak, tapes[0].hs.nbytes)


class TestDecodeStep:
    def test_uniform_at_zero_params(self):
        params = zero_params(TINY)
        probs, state = decode_step_batch(params, np.zeros((1, 4)), np.array([SOS_TOKEN]))
        assert probs.shape == (1, VOCAB_SIZE)
        np.testing.assert_allclose(probs, 1.0 / VOCAB_SIZE, atol=1e-12)
        np.testing.assert_array_equal(state, 0.0)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(42)
        for seed in range(10):
            params = init_params(TINY, seed)
            state = rng.normal(size=(1, 4))
            token = rng.integers(0, VOCAB_SIZE, size=1)
            probs, _ = decode_step_batch(params, state, token)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert (probs > 0).all() and (probs < 1).all()

    def test_dominant_logit_against_softmax_oracle(self):
        params = zero_params(TINY)
        params.out_b[2] = 20.0
        probs, _ = decode_step_batch(params, np.zeros((1, 4)), np.array([SOS_TOKEN]))
        logits = np.array([0.0, 0.0, 20.0, 0.0, 0.0, 0.0, 0.0])
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(probs[0], expected, atol=1e-12)
        assert probs[0, 2] > 0.999


class TestFusedCell:
    """The stacked, gate-fused cell against the per-gate reference."""

    @staticmethod
    def case(T, B, D, H, seed=0):
        rng = np.random.default_rng(seed)
        params = init_params(ModelConfig(input_dim=D, hidden_dim=H, embed_dim=4), seed)
        xs = rng.normal(size=(T, B, D))
        h0 = rng.uniform(-0.9, 0.9, size=(2, B, H))
        dhs = rng.normal(size=(2, T, B, H))
        return params, xs, h0, dhs

    @pytest.mark.parametrize("want_dx", [True, False])
    @pytest.mark.parametrize("shape", [(120, 32, 10, 16), (7, 5, 77, 64)],
                             ids=["fit_small", "paper"])
    def test_matches_per_gate_reference(self, shape, want_dx):
        params, xs, h0, dhs = self.case(*shape)
        hs, loss, grads, dxs, dh0 = fused_run(params, xs, h0, dhs, want_dx)
        ref_grads = zero_params(params.config)
        ref_loss = 0.0
        # layer 1 of the stack reads the input back to front
        for s, (name, seq) in enumerate((("enc_fwd", xs), ("enc_bwd", xs[::-1]))):
            p, g = getattr(params, name), getattr(ref_grads, name)
            ref_hs, gates = ref_gru_forward(p, seq, h0[s])
            ref_dxs, ref_dh0 = ref_gru_backward(p, seq, h0[s], ref_hs, gates, dhs[s], g)
            assert_close(hs[s], ref_hs)
            assert_close(dh0[s], ref_dh0)
            if want_dx:
                assert_close(dxs[s], ref_dxs)
            ref_loss += float((dhs[s] * ref_hs).sum())
        assert (dxs is None) == (not want_dx)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, ref in ref_grads.arrays().items():
            assert_close(grads[name], ref)

    @pytest.mark.parametrize("shape", [(120, 32, 10, 16), (7, 5, 77, 64)],
                             ids=["fit_small", "paper"])
    def test_stacked_directions_equal_each_direction_alone(self, shape):
        params, xs, h0, dhs = self.case(*shape, seed=1)
        hs, _, grads, dxs, dh0 = fused_run(params, xs, h0, dhs, True)
        for s, (name, seq) in enumerate((("enc_fwd", xs), ("enc_bwd", xs[::-1].copy()))):
            layer, alone = getattr(params, name), zero_params(params.config)
            h, tape = _gru_forward([layer], seq, h0[s : s + 1])
            alone_dxs, alone_dh0 = _gru_backward([layer], tape, dhs[s : s + 1], True,
                                                 [getattr(alone, name)])
            assert hs[s].tobytes() == tape.hs[0].tobytes()
            assert dxs[s].tobytes() == alone_dxs[0].tobytes()
            assert dh0[s].tobytes() == alone_dh0[0].tobytes()
            for key, arr in alone.arrays().items():
                if key.startswith(name + "."):
                    assert arr.tobytes() == grads[key].tobytes(), key


class TestSequenceLoss:
    def test_uniform_loss_is_ln7(self):
        params = zero_params(TINY)
        frames = np.random.default_rng(0).normal(size=(10, 3))
        loss, _ = _batch_forward_backward(params, frames[None], [np.array([0, 2, 4])])
        assert abs(loss - math.log(7)) < 1e-12

    def test_matches_unrolled_public_api(self):
        # hand-unroll teacher forcing through _encode_batch + decode_step_batch
        params = init_params(TINY, 11)
        frames = np.random.default_rng(12).normal(size=(9, 3))
        target = [1, 3]
        state, _ = _encode_batch(params, frames[:, None])
        total = 0.0
        for prev, sup in zip([SOS_TOKEN, 1, 3], [1, 3, EOS_TOKEN]):
            probs, state = decode_step_batch(params, state, np.array([prev]))
            total += -math.log(probs[0, sup])
        expected = total / 3.0
        loss, _ = _batch_forward_backward(params, frames[None], [np.array(target)])
        assert abs(loss - expected) < 1e-12

    def test_saturated_correct_model_has_zero_loss_and_gradient(self):
        # decoder reacts only to the previous token: SOS -> class 2 -> EOS
        cfg = ModelConfig(input_dim=3, hidden_dim=2, embed_dim=VOCAB_SIZE,
                          max_decode_len=6)
        params = zero_params(cfg)
        params.embed[:] = np.eye(VOCAB_SIZE) * 10.0
        params.dec.Wn[SOS_TOKEN, 0] = 10.0
        params.dec.Wn[2, 1] = 10.0
        params.out_W[0, 2] = 160.0
        params.out_W[1, EOS_TOKEN] = 160.0
        frames = np.random.default_rng(1).normal(size=(8, 3))
        loss, grads = _batch_forward_backward(params, frames[None], [np.array([2])])
        assert loss < 1e-12
        norm = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        assert norm < 1e-6

    def test_empty_target_rejected(self):
        params = init_params(TINY, 0)
        with pytest.raises(DataError, match="empty target"):
            grad_check(params, np.zeros((5, 3)), [])

    def test_batch_loss_is_mean_of_window_losses(self):
        params = init_params(TINY, 7)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(3, 10, 3))
        targets = [np.array([0]), np.array([1, 2, 3]), np.array([4, 4])]
        batch_loss, _ = _batch_forward_backward(params, X, targets)
        singles = [
            _batch_forward_backward(params, X[i : i + 1], [targets[i]])[0] for i in range(3)
        ]
        assert abs(batch_loss - np.mean(singles)) < 1e-12


class TestGradCheck:
    def test_small_model_passes(self):
        params = init_params(TINY, 42)
        frames = np.random.default_rng(1).normal(size=(11, 3))
        err = grad_check(params, frames, [0, 3, 1], n_samples=250, seed=2)
        assert err < 1e-4

    def test_deterministic(self):
        params = init_params(TINY, 5)
        frames = np.random.default_rng(2).normal(size=(8, 3))
        a = grad_check(params, frames, [2], n_samples=50, seed=9)
        b = grad_check(params, frames, [2], n_samples=50, seed=9)
        assert a == b


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta = {"a": np.array([1.0]), "b": np.array([2.0])}
        grads = {"a": np.array([0.5]), "b": np.array([-1.0])}
        opt = Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        opt.step(theta, grads)
        for name, g in (("a", 0.5), ("b", -1.0)):
            m = (1 - b1) * g
            v = (1 - b2) * g * g
            m_hat = m / (1 - b1)
            v_hat = v / (1 - b2)
            expected = {"a": 1.0, "b": 2.0}[name] - lr * m_hat / (
                math.sqrt(v_hat) + eps
            )
            assert abs(float(theta[name][0]) - expected) < 1e-12

    def test_two_steps_track_moments(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta = {"w": np.array([0.3])}
        opt = Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        # independent scalar tracker
        w, m, v = 0.3, 0.0, 0.0
        for t, g in enumerate([0.2, -0.7], start=1):
            opt.step(theta, {"w": np.array([g])})
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        assert abs(float(theta["w"][0]) - w) < 1e-12


def tiny_dataset(n_subjects=4, seed=5):
    spec = SynthSpec(
        n_subjects=n_subjects,
        trials_per_subject=1,
        duration_s=20.0,
        sample_rate_hz=20.0,
        n_channels=6,
    )
    ds = synthesize_dataset(spec, seed=seed)
    return TrainingData(tuple(ds.recordings), WindowSpec(sample_rate_hz=20.0))


TINY_TRAIN = ModelConfig(input_dim=6, hidden_dim=8, embed_dim=4)


# sha256 of what train_member returns and of the tokens its member
# decodes, for one tiny synthetic fold
PINNED_TRAINING_DIGESTS = {
    "params": "018d9565968d5e40f050a63c8970547282669704e83e028a8faa9d9a8e5421ea",
    "stats": "7291475c8ad334e1363c450b7d5f2f8d4d324b27a032dd1939d1a5fec2be1082",
    "log": "8a1508b69aacb31a75e036d01e8a79d8bd14eeee74d1eaf63b940763f0a7db4f",
    "tokens": "923138bf849fdba5ce9c2dbe60c48d8b87ea0918eea8dc4bdbdc275d886bc10c",
}


class TestTrainMember:
    def test_trained_bytes_are_pinned(self):
        # 12-s recordings at 10 Hz: train windows are views and padded edge
        # copies; validation and decoding run the float32 decode
        from primcount.decoding import decode_windows

        spec = SynthSpec(n_subjects=3, trials_per_subject=1, duration_s=12.0,
                         sample_rate_hz=10.0, n_channels=3)
        ds = synthesize_dataset(spec, seed=7)
        data = TrainingData(tuple(ds.recordings), WindowSpec(sample_rate_hz=10.0))
        fold = DatasetSplit(frozenset({"s00", "s01"}), frozenset({"s02"}))
        cfg = ModelConfig(input_dim=3, hidden_dim=4, embed_dim=3, max_decode_len=5)
        params, stats, log = train_member(
            fold, data, cfg,
            TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=3, patience=3, seed=7))
        windows = [w for r in ds.recordings for w in make_windows(r.recording, data.window_spec)]
        preds = decode_windows(EnsembleModel(cfg, [(params, stats)]), windows)
        tokens = [[int(t) for t in p.tokens] for p in preds]
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in [("params", params.vector.tobytes()),
                               ("stats", json.dumps(stats.to_json()).encode()),
                               ("log", json.dumps([e.to_json() for e in log]).encode()),
                               ("tokens", json.dumps(tokens).encode())]
        }
        assert digests == PINNED_TRAINING_DIGESTS

    def test_patience_stops_training(self):
        data = tiny_dataset()
        fold = DatasetSplit(frozenset({"s00", "s01", "s02"}), frozenset({"s03"}))
        # learning rate too small to move the validation AER
        cfg = TrainConfig(learning_rate=1e-30, max_epochs=50, patience=1,
                          batch_size=8, seed=3)
        _, _, log = train_member(fold, data, TINY_TRAIN, cfg)
        assert len(log) == 2
        assert log[0].val_aer == log[1].val_aer

    def test_deterministic(self):
        data = tiny_dataset()
        fold = DatasetSplit(frozenset({"s00", "s01", "s02"}), frozenset({"s03"}))
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=8, seed=17)
        p1, s1, log1 = train_member(fold, data, TINY_TRAIN, cfg)
        p2, s2, log2 = train_member(fold, data, TINY_TRAIN, cfg)
        for name, arr in p1.arrays().items():
            np.testing.assert_array_equal(arr, p2.arrays()[name])
        np.testing.assert_array_equal(s1.mean, s2.mean)
        assert [e.to_json() for e in log1] == [e.to_json() for e in log2]

    def test_loss_decreases(self):
        data = tiny_dataset()
        fold = DatasetSplit(frozenset({"s00", "s01", "s02"}), frozenset({"s03"}))
        cfg = TrainConfig(learning_rate=3e-3, max_epochs=6, patience=6,
                          batch_size=8, seed=1)
        _, _, log = train_member(fold, data, TINY_TRAIN, cfg)
        assert log[-1].train_loss < log[0].train_loss

    def test_memory_bounded_by_recording_frames(self):
        # paper width and rate: 77 channels at 100 Hz, one 2-min recording
        # to train on and one to validate. The 233 train windows hold 12x
        # the train frames; batches are stacked from window views one at a
        # time, so the peak stays a small multiple of the recordings' bytes
        spec = SynthSpec(n_subjects=2, trials_per_subject=1, duration_s=120.0,
                         sample_rate_hz=100.0, n_channels=77)
        ds = synthesize_dataset(spec, seed=0)
        data = TrainingData(tuple(ds.recordings), WindowSpec(sample_rate_hz=100.0))
        fold = DatasetSplit(frozenset({"s00"}), frozenset({"s01"}))
        frame_bytes = sum(r.recording.frames.nbytes for r in ds.recordings)
        tracemalloc.start()
        try:
            train_member(fold, data, ModelConfig(input_dim=77, hidden_dim=4, embed_dim=4),
                         TrainConfig(max_epochs=1, batch_size=32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * frame_bytes, peak / frame_bytes

    def test_empty_fold_side_rejected(self):
        data = tiny_dataset()
        fold = DatasetSplit(frozenset({"s00"}), frozenset({"s99"}))
        with pytest.raises(DataError, match="empty train or validation"):
            train_member(fold, data, TINY_TRAIN, TrainConfig())

    def test_divergence_aborts(self, monkeypatch):
        import primcount.model as model_mod

        data = tiny_dataset()
        fold = DatasetSplit(frozenset({"s00", "s01", "s02"}), frozenset({"s03"}))
        original = model_mod.init_params

        def poisoned(config, seed):
            params = original(config, seed)
            params.out_b[0] = np.nan
            return params

        monkeypatch.setattr(model_mod, "init_params", poisoned)
        with pytest.raises(TrainingError, match="diverged"):
            train_member(fold, data, TINY_TRAIN, TrainConfig(batch_size=8))


    def test_non_finite_gradient_aborts(self, monkeypatch):
        import primcount.model as model_mod

        data = tiny_dataset()
        fold = DatasetSplit(frozenset({"s00", "s01", "s02"}), frozenset({"s03"}))
        original = model_mod._batch_forward_backward
        calls = []

        def nan_gradient(params, X, targets, want_grads=True):
            loss, grads = original(params, X, targets, want_grads)
            calls.append(loss)
            if len(calls) == 2:  # finite loss, one NaN gradient entry
                grads["dec.Wn"][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(model_mod, "_batch_forward_backward", nan_gradient)
        with pytest.raises(TrainingError, match="epoch 1: non-finite gradient"):
            train_member(fold, data, TINY_TRAIN, TrainConfig(batch_size=8, seed=2))
        assert len(calls) == 2 and math.isfinite(calls[-1])

class TestTrainEnsemble:
    def test_members_independent_of_order(self):
        data = tiny_dataset()
        cfg = TrainConfig(max_epochs=2, patience=2, batch_size=8, seed=0)
        ensemble, logs = train_ensemble(data, TINY_TRAIN, cfg, n_folds=4, seed=9)
        assert ensemble.n_members == 4
        assert len(logs) == 4
        # member 2 trained on its own, with nothing before it
        subjects = sorted({r.recording.subject_id for r in data.recordings})
        folds = split_subjects(subjects, n_folds=4, seed=9)
        from dataclasses import replace

        solo_cfg = replace(cfg, seed=member_seed(9, 2))
        solo_params, solo_stats, _ = train_member(folds[2], data, TINY_TRAIN, solo_cfg)
        ens_params, ens_stats = ensemble.members[2]
        for name, arr in solo_params.arrays().items():
            np.testing.assert_array_equal(arr, ens_params.arrays()[name])
        np.testing.assert_array_equal(solo_stats.mean, ens_stats.mean)

    def test_traced_train_member_runs_in_the_workers(self, monkeypatch):
        # what a span tracer installs: a closure, which cannot be pickled
        import primcount.model as model_mod

        data = tiny_dataset()
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8, seed=0)
        plain, plain_logs = train_ensemble(data, TINY_TRAIN, cfg, n_folds=2, seed=4)
        original = model_mod.train_member

        def traced(*args, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(model_mod, "train_member", traced)
        wrapped, wrapped_logs = train_ensemble(data, TINY_TRAIN, cfg, n_folds=2, seed=4)
        for (p1, s1), (p2, s2) in zip(plain.members, wrapped.members):
            np.testing.assert_array_equal(p1.vector, p2.vector)
            np.testing.assert_array_equal(s1.std, s2.std)
        assert ([[e.to_json() for e in log] for log in plain_logs]
                == [[e.to_json() for e in log] for log in wrapped_logs])

    def test_member_divergence_reaches_the_caller(self, monkeypatch):
        import primcount.model as model_mod

        original = model_mod.init_params

        def poisoned(config, seed):
            params = original(config, seed)
            params.out_b[0] = np.nan
            return params

        monkeypatch.setattr(model_mod, "init_params", poisoned)
        cfg = TrainConfig(max_epochs=2, patience=2, batch_size=8, seed=0)
        with pytest.raises(TrainingError, match="diverged"):
            train_ensemble(tiny_dataset(), TINY_TRAIN, cfg, n_folds=2, seed=4)

    def test_first_failure_stops_the_other_members(self, monkeypatch):
        import multiprocessing
        import time

        import primcount.model as model_mod

        def fold_zero_fails(fold, data, model_config, train_config):
            if train_config.seed == member_seed(4, 0):
                raise TrainingError("fold 0 diverged")
            time.sleep(30)

        monkeypatch.setattr(model_mod, "train_member", fold_zero_fails)
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8, seed=0)
        start = time.monotonic()
        with pytest.raises(TrainingError, match="fold 0 diverged"):
            train_ensemble(tiny_dataset(), TINY_TRAIN, cfg, n_folds=2, seed=4)
        assert time.monotonic() - start < 5.0
        assert multiprocessing.active_children() == []

    def test_killed_worker_is_a_training_error(self, monkeypatch):
        import multiprocessing
        import os
        import signal

        import primcount.model as model_mod

        def killed(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(model_mod, "train_member", killed)
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8, seed=0)
        with pytest.raises(TrainingError, match="job 0 worker exited with code -9"):
            train_ensemble(tiny_dataset(), TINY_TRAIN, cfg, n_folds=2, seed=4)
        assert multiprocessing.active_children() == []

    def test_validation_fold_sizes_over_33_subjects(self):
        folds = split_subjects([f"p{i:02d}" for i in range(33)], n_folds=4, seed=1)
        assert sorted(len(f.val_subjects) for f in folds) == [8, 8, 8, 9]

    def test_config_mismatch_rejected(self):
        p1 = init_params(TINY, 0)
        p2 = init_params(ModelConfig(input_dim=3, hidden_dim=5, embed_dim=5), 0)
        stats = NormalizationStats(np.zeros(3), np.ones(3))
        with pytest.raises(DataError, match="config mismatch"):
            EnsembleModel(TINY, [(p1, stats), (p2, stats)])


class TestFloat32Inference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encode_context_returns_the_dtype_it_was_given(self, dtype):
        params = ModelParams(TINY, init_params(TINY, 4).vector.astype(dtype))
        xs = np.random.default_rng(0).normal(size=(7, 2, 3)).astype(dtype)
        assert _encode_batch(params, xs)[0].dtype == dtype

    def test_paper_shape_contexts_match_float64(self):
        # T=600, B=30, D=77, H=64; the float32 encoder stays within 1e-5
        # of the float64 one (2.2e-7 measured)
        cfg = ModelConfig(input_dim=77, hidden_dim=64, embed_dim=32)
        params = init_params(cfg, 2)
        xs = np.random.default_rng(5).normal(size=(600, 30, 77))
        ctx64, _ = _encode_batch(params, xs)
        ctx32, _ = _encode_batch(ModelParams(cfg, params.vector.astype(np.float32)),
                                 xs.astype(np.float32))
        np.testing.assert_allclose(ctx32, ctx64, rtol=0, atol=1e-5)


class TestForkMap:
    def test_paper_shape_contexts_bitwise_equal_in_process(self):
        cfg = ModelConfig(input_dim=77, hidden_dim=64, embed_dim=32)
        rng = np.random.default_rng(3)
        jobs = [(init_params(cfg, s), rng.normal(size=(600, 8, 77))) for s in range(4)]
        forked = _fork_map(_encode_batch, jobs)
        assert len(forked) == 4
        for (params, xs), (ctx, _) in zip(jobs, forked):
            assert ctx.tobytes() == _encode_batch(params, xs)[0].tobytes()

    def test_closures_run_in_workers_and_return_in_job_order(self):
        import os

        parent = os.getpid()
        results = _fork_map(lambda i: (i, os.getpid()), [(i,) for i in range(5)])
        assert [i for i, _ in results] == list(range(5))
        assert parent not in {pid for _, pid in results}

    def test_single_job_runs_in_this_process(self):
        import os

        assert _fork_map(lambda: os.getpid(), [()]) == [os.getpid()]
        assert _fork_map(len, []) == []

    def test_one_worker_per_cpu_runs_a_round_robin_share(self, monkeypatch):
        import multiprocessing
        import os

        import primcount.parallel

        ctx = multiprocessing.get_context("fork")
        started = []

        class Counted(ctx.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(ctx, "Process", Counted)
        monkeypatch.setattr(primcount.parallel, "_usable_cpus", lambda: 2)
        results = _fork_map(lambda i: (i, os.getpid()), [(i,) for i in range(5)])
        assert len(started) == 2
        assert [i for i, _ in results] == list(range(5))
        pids = [pid for _, pid in results]
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert all(pid == pids[i % 2] for i, pid in enumerate(pids))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failure_stops_a_sleeping_worker(self, monkeypatch, cpus):
        # job 3 shares job 1's worker at 2 CPUs and runs beside it at 3
        import multiprocessing
        import time

        import primcount.parallel

        def job(i):
            if i == 1:
                raise KeyError("job 1")
            if i == 3:
                time.sleep(30)
            return i

        monkeypatch.setattr(primcount.parallel, "_usable_cpus", lambda: cpus)
        start = time.monotonic()
        with pytest.raises(KeyError, match="job 1"):
            _fork_map(job, [(i,) for i in range(4)])
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []

    def test_worker_killed_in_its_second_job_names_that_job(self, monkeypatch):
        import multiprocessing
        import os
        import signal

        import primcount.parallel

        class Died(Exception):
            pass

        def job(i):
            if i == 3:  # the second job of worker 1 of 2
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        monkeypatch.setattr(primcount.parallel, "_usable_cpus", lambda: 2)
        with pytest.raises(Died, match=r"^job 3 worker exited with code -9$"):
            _fork_map(job, [(i,) for i in range(4)], died=Died)
        assert multiprocessing.active_children() == []


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        params = init_params(TINY, 21)
        stats = NormalizationStats(
            np.random.default_rng(1).normal(size=3), np.ones(3) * 2.0, "fold1"
        )
        path = tmp_path / "member.bin"
        save_member(path, params, stats)
        loaded, loaded_stats = load_member(path)
        assert loaded.config == params.config
        for name, arr in params.arrays().items():
            np.testing.assert_array_equal(arr, loaded.arrays()[name])
        np.testing.assert_array_equal(loaded_stats.mean, stats.mean)
        assert loaded_stats.source_split == "fold1"

    def test_save_ensemble_deletes_only_stale_member_files(self, tmp_path):
        stats = NormalizationStats(np.zeros(3), np.ones(3))
        members = [(init_params(TINY, seed), stats) for seed in range(3)]
        save_ensemble(tmp_path, EnsembleModel(TINY, members))
        (tmp_path / "model.10.bin").write_text("stale")
        (tmp_path / "notes.bin").write_text("kept")
        paths = save_ensemble(tmp_path, EnsembleModel(TINY, members[:2]))
        assert ensemble_paths(tmp_path) == paths == [tmp_path / "model.0.bin", tmp_path / "model.1.bin"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.0.bin", "model.1.bin", "notes.bin"]
        save_ensemble(tmp_path, EnsembleModel(TINY, members[:1]))
        assert not (tmp_path / "model.1.bin").exists()
        for stray in ["model.best.bin", "model.01.bin"]:  # 01 would be a second member 1
            (tmp_path / stray).write_text("kept")
            save_ensemble(tmp_path, EnsembleModel(TINY, members[:1]))
            assert (tmp_path / stray).is_file()
            with pytest.raises(DataError, match=f"{stray}: not a model file name"):
                ensemble_paths(tmp_path)
            (tmp_path / stray).unlink()

    def test_two_saves_byte_identical(self, tmp_path):
        params = init_params(TINY, 2)
        stats = NormalizationStats(np.zeros(3), np.ones(3))
        save_member(tmp_path / "a.bin", params, stats)
        save_member(tmp_path / "b.bin", params, stats)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_version_guard(self, tmp_path):
        import json

        params = init_params(TINY, 2)
        stats = NormalizationStats(np.zeros(3), np.ones(3))
        path = tmp_path / "m.bin"
        save_member(path, params, stats)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="format version"):
            load_member(path)

    def _saved_doc(self, tmp_path):
        path = tmp_path / "m.bin"
        save_member(path, init_params(TINY, 2), NormalizationStats(np.zeros(3), np.ones(3)))
        return path, json.loads(path.read_text())

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_text("not a model\n")
        with pytest.raises(DataError, match="not a model file"):
            load_member(path)

    def test_missing_top_level_key_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        del doc["normalization"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="normalization"):
            load_member(path)

    def test_unknown_model_config_key_rejected(self, tmp_path):
        # cell_type and attention were retired keys; they are unknown now
        for key, value in [("dropout", 0.1), ("cell_type", "gru"), ("attention", False)]:
            path, doc = self._saved_doc(tmp_path)
            doc["model_config"][key] = value
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError, match=rf"m\.bin: unknown model_config keys: \['{key}'\]"):
                load_member(path)

    @pytest.mark.parametrize("case", [
        "array_without_data", "data_size_not_shape", "bad_base64",
        "normalization_without_std", "normalization_without_mean",
        "model_config_not_object", "hidden_dim_string",
    ])
    def test_malformed_content_rejected(self, tmp_path, case):
        path, doc = self._saved_doc(tmp_path)
        arrays = doc["arrays"]
        if case == "array_without_data":
            del arrays["out_b"]["data"]
        elif case == "data_size_not_shape":
            arrays["out_b"]["data"] = arrays["ctx_b"]["data"]  # 4 values, shape [7]
        elif case == "bad_base64":
            arrays["out_b"]["data"] = "not base64!"
        elif case == "normalization_without_std":
            del doc["normalization"]["std"]
        elif case == "normalization_without_mean":
            del doc["normalization"]["mean"]
        elif case == "model_config_not_object":
            doc["model_config"] = [3, 4, 5, 6]
        elif case == "hidden_dim_string":
            doc["model_config"]["hidden_dim"] = "4"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: ")):
            load_member(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_array_rejected(self, tmp_path, value):
        path, doc = self._saved_doc(tmp_path)
        params = init_params(TINY, 2)
        params.dec.Un[1, 2] = value
        doc["arrays"]["dec.Un"] = _encode_array(params.dec.Un)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"m\.bin: array dec\.Un holds non-finite"):
            load_member(path)

    def test_non_finite_normalization_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["normalization"]["std"][0] = math.nan
        doc["normalization"]["mean"][1] = math.inf
        path.write_text(json.dumps(doc))  # written as NaN and Infinity
        assert "NaN" in path.read_text() and "Infinity" in path.read_text()
        with pytest.raises(DataError, match="malformed normalization.*finite"):
            load_member(path)

    @pytest.mark.parametrize("std, reason", [
        (math.nan, "mean/std must be finite"), (0.0, "std must be positive"),
    ])
    def test_bad_normalization_names_the_file_and_reason(self, tmp_path, std, reason):
        path, doc = self._saved_doc(tmp_path)
        doc["normalization"]["std"][0] = std
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as raised:
            load_member(path)
        assert str(raised.value) == f"{path}: malformed normalization: {reason}"
        assert "DataError(" not in str(raised.value)

    def test_version_error_names_the_file(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError,
                           match=re.escape(f"{path}: unsupported model format version 99")):
            load_member(path)

    def test_array_set_error_names_the_file(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        del doc["arrays"]["out_b"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(
                f"{path}: model file arrays do not match the architecture")):
            load_member(path)

    def test_array_shape_error_names_the_file(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["arrays"]["out_b"] = _encode_array(np.zeros(8))
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(
                f"{path}: array out_b has shape (8,), expected (7,)")):
            load_member(path)

    def test_normalization_width_must_match_input_dim(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["normalization"]["mean"] = [0.0] * 4
        doc["normalization"]["std"] = [1.0] * 4
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="normalization covers 4 channels"):
            load_member(path)


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            ModelConfig(hidden_dim=0)
        assert ModelConfig().vocab_size == 7
        assert ModelConfig().max_decode_len == 17

    @pytest.mark.parametrize("field", ["input_dim", "hidden_dim", "embed_dim", "max_decode_len"])
    def test_bool_dimension_rejected(self, field):
        with pytest.raises(DataError, match=f"model {field} must be an integer"):
            ModelConfig(**{field: True})

    def test_json_round_trip(self):
        cfg = ModelConfig(input_dim=12, hidden_dim=32, embed_dim=8)
        assert ModelConfig.from_json(cfg.to_json()) == cfg


class TestTrainConfig:
    @pytest.mark.parametrize("rate", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(DataError, match="learning rate"):
            TrainConfig(learning_rate=rate)
