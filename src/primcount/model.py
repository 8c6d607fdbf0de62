"""Encoder-decoder sequence model, trained from scratch in numpy.

A bidirectional gated recurrent encoder compresses one window into a
single context vector; a unidirectional gated recurrent decoder expands
that vector into a primitive token sequence. Training is float64 and
hand-differentiated, which keeps the model small, deterministic, and
checkable against finite differences; model files hold float64 too.
Inference runs the same code on a float32 copy of the parameters: the
encoder and decoder compute in the dtype they are given. Windows reach
the encoder only through `preprocess._normalized_stack`, raw window
views z-scored with the member's own statistics: float64 for training
batches, float32 for decoding.

Vocabulary: the 5 primitive classes (codes 0..4) plus SOS=5 and EOS=6.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .dataset import (
    DataError, DatasetSplit, LabeledRecording, _as_codes, _by_subject, _write_json, split_subjects,
)
from .parallel import _fork_map
from .preprocess import (
    MAX_TOKENS,
    NormalizationStats,
    TargetSequence,
    Window,
    WindowSpec,
    _normalized_stack,
    derive_target_sequence,
    fit_normalization,
    make_windows,
)

SOS_TOKEN = 5
EOS_TOKEN = 6
VOCAB_SIZE = 7

MODEL_FORMAT_VERSION = 1


class TrainingError(RuntimeError):
    """Raised when optimization produces non-finite values."""


# ---------------------------------------------------------------------------
# Configuration and parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 77
    hidden_dim: int = 64
    embed_dim: int = 32
    max_decode_len: int = MAX_TOKENS + 1  # max target tokens + EOS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DataError(f"model {f.name} must be an integer")
        if self.hidden_dim < 1 or self.input_dim < 1 or self.embed_dim < 1:
            raise DataError("model dimensions must be positive")
        if self.max_decode_len < 2:
            raise DataError("max_decode_len must allow at least one token plus EOS")

    @property
    def vocab_size(self) -> int:
        return VOCAB_SIZE

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ModelConfig":
        """Inverse of to_json."""
        if not isinstance(data, dict):
            raise DataError("model_config is not an object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise DataError(f"unknown model_config keys: {sorted(unknown)}")
        return cls(**data)


def _layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter array, in initialization order.

    A recurrent layer's arrays are named "<layer>.<gate array>": input
    weights W, recurrent weights U and biases b of the reset gate r,
    update gate z and candidate n.
    """
    D, H, E, V = config.input_dim, config.hidden_dim, config.embed_dim, VOCAB_SIZE

    def gru(layer, d):
        return ([(f"{layer}.W{g}", (d, H)) for g in "rzn"]
                + [(f"{layer}.U{g}", (H, H)) for g in "rzn"]
                + [(f"{layer}.b{g}", (H,)) for g in "rzn"])

    return [
        *gru("enc_fwd", D),
        *gru("enc_bwd", D),
        ("ctx_W", (2 * H, H)),
        ("ctx_b", (H,)),
        ("embed", (V, E)),
        *gru("dec", E),  # input is the token embedding
        ("out_W", (H, V)),
        ("out_b", (V,)),
    ]


class ModelParams:
    """Every parameter in one flat vector, float64 unless given another.

    Each array of the layout is a view into the vector: ``ctx_W``,
    ``embed``, ... directly, and the recurrent layers as ``enc_fwd.Wr``,
    ``dec.bn``, ... (a namespace of views per layer). Writing to a view
    writes to the vector. ``vector`` (float64 zeros when omitted) becomes
    the storage itself, not a copy of it.
    """

    def __init__(self, config: ModelConfig, vector: np.ndarray | None = None):
        layout = _layout(config)
        self.config = config
        size = sum(math.prod(shape) for _, shape in layout)
        self.vector = np.zeros(size) if vector is None else vector
        self._arrays: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in layout:
            size = math.prod(shape)
            view = self.vector[offset : offset + size].reshape(shape)
            offset += size
            self._arrays[name] = view
            layer, _, field = name.rpartition(".")
            owner = vars(self).setdefault(layer, SimpleNamespace()) if layer else self
            setattr(owner, field, view)

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> live array references, in layout order."""
        return dict(self._arrays)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.vector.copy())

    def __reduce__(self):
        # pickle the config and the vector only; unpickling rebuilds the views
        return ModelParams, (self.config, self.vector)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Uniform init in [-1/sqrt(hidden), +1/sqrt(hidden)], seeded."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(config.hidden_dim)
    params = ModelParams(config)
    params.vector[:] = rng.uniform(-scale, scale, size=params.vector.size)
    return params


def zero_params(config: ModelConfig) -> ModelParams:
    return ModelParams(config)


# ---------------------------------------------------------------------------
# Recurrent cell forward/backward
#
# One recurrence runs a stack of S layers over a leading axis: the decoder
# is a stack of one, the encoder its two directions. With a layer's gates
# side by side (r|z|n), a step makes one input and one recurrent GEMM per
# layer. GEMMs stay per step: one over all T*B rows runs on several BLAS
# threads, which slow the other forked workers (see README).
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(fmin(x, 0)) is 1 for x >= 0 or NaN and exp(-|x|) below: no exp overflows, and the
    # bits equal np.where(x >= 0, 1, exp(-|x|)) without its per-element branch on the sign
    return np.exp(np.fmin(x, 0)) / (1.0 + np.exp(-np.abs(x)))


def _fuse(layers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack of layers' arrays, gates side by side in r|z|n order:
    W (S, D, 3H), U (S, H, 3H) and b (S, 1, 3H)."""
    def joined(kind):
        return np.stack([np.concatenate([getattr(p, kind + g) for g in "rzn"], axis=-1)
                         for p in layers])

    return joined("W"), joined("U"), joined("b")[:, None]


def _gru_step(W, U, b, x: np.ndarray, h: np.ndarray):
    """One step of a stack of cells. x: (S, B, D), h: (S, B, H).

    Returns (h', rz, n, hn): the reset|update gates, the candidate and its
    recurrent term before the reset gate.
    """
    H = h.shape[-1]
    xw = x @ W
    hu = h @ U
    # (x@W + h@U) + b, the per-gate order, keeps states bitwise as before
    pre = xw[..., : 2 * H] + hu[..., : 2 * H]
    pre += b[..., : 2 * H]
    rz = _sigmoid(pre)
    r, z = rz[..., :H], rz[..., H:]
    hn = hu[..., 2 * H :]
    n = np.tanh(xw[..., 2 * H :] + r * hn + b[..., 2 * H :])
    return (1.0 - z) * n + z * h, rz, n, hn


class _GRUTape(NamedTuple):
    """What backprop needs from a forward run over time."""

    xs: np.ndarray  # (T, B, D), read by every layer of the stack
    rows: np.ndarray  # (T, S), the row of xs each layer reads at each step
    h0: np.ndarray  # (S, B, H)
    # each step's state and the gates _gru_step returned with it
    hs: np.ndarray  # (S, T, B, H)
    rz: np.ndarray  # (S, T, B, 2H)
    n: np.ndarray  # (S, T, B, H)
    hn: np.ndarray  # (S, T, B, H)


def _gru_forward(layers, xs: np.ndarray, h0: np.ndarray, keep_tape: bool = True):
    """Run a stack of layers over xs (T, B, D) from h0 (S, B, H); layer 0
    reads xs forward in time, layer 1 backward. Returns the final states
    (S, B, H) and the tape for _gru_backward (None without keep_tape)."""
    W, U, b = _fuse(layers)
    S, B, H = h0.shape
    T = xs.shape[0]
    rows = np.stack((np.arange(T), np.arange(T)[::-1]), axis=1)[:, :S]
    tape = None
    if keep_tape:
        tape = _GRUTape(xs, rows, h0, *(np.empty((S, T, B, k * H)) for k in (1, 2, 1, 1)))
    h = h0
    for t in range(T):
        h, rz, n, hn = _gru_step(W, U, b, xs.take(rows[t], axis=0), h)
        if tape is not None:
            tape.hs[:, t], tape.rz[:, t], tape.n[:, t], tape.hn[:, t] = h, rz, n, hn
    return h, tape


def _gru_backward(layers, tape: _GRUTape, dhs: np.ndarray, want_dx: bool, grads,
                  dh_last: np.ndarray | None = None):
    """Backprop through time. dhs (S, T, B, H): upstream gradient on every
    state; dh_last (S, B, H), if given, is added to the last state's. Adds
    the parameter gradients into grads, one namespace of views per layer.

    Returns (dxs or None, dh0): dxs (S, T, B, D) holds the gradient on the
    input each layer read at each step, dh0 (S, B, H) the one on h0.
    """
    W, U, _ = _fuse(layers)
    S, T, B, H = dhs.shape
    WT, UT = (np.ascontiguousarray(a.transpose(0, 2, 1)) for a in (W, U))
    gW, gU, gb = np.zeros_like(W), np.zeros_like(U), np.zeros((S, 3 * H))
    dxs = np.empty((S, T, B, W.shape[1])) if want_dx else None
    dh_next = np.zeros((S, B, H)) if dh_last is None else dh_last
    for t in reversed(range(T)):
        dh = dhs[:, t] + dh_next
        x = tape.xs.take(tape.rows[t], axis=0)
        h_prev = tape.hs[:, t - 1] if t else tape.h0
        r, z = tape.rz[:, t, :, :H], tape.rz[:, t, :, H:]
        n, hn = tape.n[:, t], tape.hn[:, t]

        dz = dh * (h_prev - n) * z * (1.0 - z)
        dn = dh * (1.0 - z) * (1.0 - n * n)
        dh_prev = dh * z
        d_hn = dn * r
        dr = dn * hn * r * (1.0 - r)

        G = np.concatenate((dr, dz, dn), axis=-1)  # on the input pre-activations
        R = np.concatenate((dr, dz, d_hn), axis=-1)  # on the recurrent terms
        gW += x.transpose(0, 2, 1) @ G
        gU += h_prev.transpose(0, 2, 1) @ R
        gb += G.sum(axis=1)
        dh_prev += R @ UT
        if want_dx:
            dxs[:, t] = G @ WT
        dh_next = dh_prev
    for g, *fused in zip(grads, gW, gU, gb):
        for kind, grad in zip("WUb", fused):
            for i, gate in enumerate("rzn"):
                getattr(g, kind + gate)[...] += grad[..., i * H : (i + 1) * H]
    return dxs, dh_next


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def _encode_batch(params: ModelParams, xs: np.ndarray, keep_tape: bool = False):
    """xs: (T, B, D), time-major -> (context (B, H) in the dtype of xs,
    what backprop needs with keep_tape, else None)."""
    if xs.ndim != 3 or xs.shape[2] != params.config.input_dim:
        raise DataError(
            f"encoder input has {xs.shape[-1]} channels, "
            f"model expects {params.config.input_dim}"
        )
    h0 = np.zeros((2, xs.shape[1], params.config.hidden_dim), dtype=xs.dtype)
    h, tape = _gru_forward((params.enc_fwd, params.enc_bwd), xs, h0, keep_tape)
    cat = np.concatenate((h[0], h[1]), axis=1)  # final states of both directions
    ctx = np.tanh(cat @ params.ctx_W + params.ctx_b)
    return ctx, ((tape, cat) if keep_tape else None)


def _encode_backward(
    params: ModelParams, ctx: np.ndarray, tapes, dctx: np.ndarray, grads: ModelParams
):
    tape, cat = tapes
    H = params.config.hidden_dim
    dpre = dctx * (1.0 - ctx * ctx)
    grads.ctx_W += cat.T @ dpre
    grads.ctx_b += dpre.sum(axis=0)
    dcat = dpre @ params.ctx_W.T
    # only the last states reach the context; 0 + dh has the bits of dh + 0
    dhs = np.broadcast_to(tape.hs.dtype.type(0), tape.hs.shape)
    _gru_backward((params.enc_fwd, params.enc_bwd), tape, dhs, False,
                  (grads.enc_fwd, grads.enc_bwd), np.stack((dcat[:, :H], dcat[:, H:])))


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def decode_step_batch(
    params: ModelParams, states: np.ndarray, prev_tokens: np.ndarray
):
    """One greedy-decoding step for a batch of independent windows.

    states: (B, H); prev_tokens: (B,) token ids. Returns (probabilities
    over the vocabulary (B, VOCAB), new states (B, H)).
    """
    h, *_ = _gru_step(*_fuse((params.dec,)), params.embed[prev_tokens][None], states[None])
    new_states = h[0]  # the decoder runs as a stack of one
    probs = _softmax(new_states @ params.out_W + params.out_b)
    return probs, new_states


# ---------------------------------------------------------------------------
# Loss and gradients (teacher forcing)
# ---------------------------------------------------------------------------


def _teacher_arrays(targets: list[np.ndarray]):
    """Pack variable-length targets into (in_tokens, sup_tokens, mask)."""
    B = len(targets)
    K = max(len(t) for t in targets) + 1  # plus the EOS step
    in_tokens = np.full((B, K), EOS_TOKEN, dtype=np.int64)
    sup = np.full((B, K), EOS_TOKEN, dtype=np.int64)
    mask = np.zeros((B, K))
    in_tokens[:, 0] = SOS_TOKEN
    for b, t in enumerate(targets):
        L = len(t)
        in_tokens[b, 1 : L + 1] = t
        sup[b, :L] = t
        mask[b, : L + 1] = 1.0
    return in_tokens, sup, mask


def _batch_forward_backward(
    params: ModelParams,
    X: np.ndarray,
    targets: list[np.ndarray],
    want_grads: bool = True,
):
    """Mean per-window teacher-forced cross-entropy and its gradients.

    Decoder inputs are SOS followed by the target tokens; supervision is
    the target tokens followed by EOS. Gradients come back as a name ->
    array dict over the layout.
    """
    B = X.shape[0]
    in_tokens, sup, mask = _teacher_arrays(targets)
    K = in_tokens.shape[1]
    # no copy when X is a transposed time-major stack, as train_member passes
    ctx, enc_tapes = _encode_batch(params, np.ascontiguousarray(X.transpose(1, 0, 2)),
                                   keep_tape=True)
    xs = np.ascontiguousarray(params.embed[in_tokens].transpose(1, 0, 2))
    _, dec_tape = _gru_forward((params.dec,), xs, ctx[None])
    hs = dec_tape.hs[0]  # (K, B, H)
    logits = hs @ params.out_W + params.out_b  # (K, B, V)
    probs = _softmax(logits)
    kk, bb = np.meshgrid(np.arange(K), np.arange(B), indexing="ij")
    p_correct = probs[kk, bb, sup.T]
    nll = -np.log(np.maximum(p_correct, 1e-300)) * mask.T  # (K, B)
    lengths = mask.sum(axis=1)
    per_window = nll.sum(axis=0) / lengths
    loss = float(per_window.mean())
    if not want_grads:
        return loss, None

    weights = (mask / lengths[:, None] / B).T  # (K, B)
    dlogits = probs.copy()
    dlogits[kk, bb, sup.T] -= 1.0
    dlogits *= weights[:, :, None]

    grads = zero_params(params.config)
    grads.out_W += np.tensordot(hs, dlogits, axes=([0, 1], [0, 1]))
    grads.out_b += dlogits.sum(axis=(0, 1))
    dhs = dlogits @ params.out_W.T
    dxs, dctx = _gru_backward((params.dec,), dec_tape, dhs[None], True, (grads.dec,))
    np.add.at(
        grads.embed,
        in_tokens.T.reshape(-1),
        dxs[0].reshape(-1, params.config.embed_dim),
    )
    _encode_backward(params, ctx, enc_tapes, dctx[0], grads)
    return loss, grads.arrays()


def grad_check(
    params: ModelParams,
    window,
    target,
    epsilon: float = 3e-5,
    n_samples: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Samples n_samples parameter coordinates (all of them if the model is
    smaller than that) and perturbs each by +-epsilon. The default step
    balances truncation against float64 cancellation; much below 1e-5
    the difference quotient turns noisy on small-gradient coordinates.
    """
    frames = np.asarray(getattr(window, "frames", window), dtype=np.float64)
    codes = _as_codes(target)
    if codes.size == 0:
        raise DataError("empty target sequence")
    _, grads = _batch_forward_backward(params, frames[None], [codes])
    analytic = np.concatenate([g.ravel() for g in grads.values()])  # layout order
    theta = params.vector
    rng = np.random.default_rng(seed)
    if n_samples >= theta.size:
        flat_idx = np.arange(theta.size)
    else:
        flat_idx = rng.choice(theta.size, size=n_samples, replace=False)

    def loss_only():
        loss, _ = _batch_forward_backward(
            params, frames[None], [codes], want_grads=False
        )
        return loss

    worst = 0.0
    for i in sorted(int(i) for i in flat_idx):
        orig = theta[i]
        theta[i] = orig + epsilon
        loss_plus = loss_only()
        theta[i] = orig - epsilon
        loss_minus = loss_only()
        theta[i] = orig
        fd = (loss_plus - loss_minus) / (2.0 * epsilon)
        an = analytic[i]
        denom = max(abs(fd) + abs(an), 1e-8)
        worst = max(worst, abs(fd - an) / denom)
    return worst


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction, updating arrays in place."""

    def __init__(self, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, arr in arrays.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(arr)
                self.v[name] = np.zeros_like(arr)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:  # also false for nan
            raise DataError("learning rate must be positive and finite")
        if self.patience < 1:
            raise DataError("patience must be at least 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise DataError("batch size and max epochs must be positive")


@dataclass(frozen=True)
class TrainingData:
    """Recordings plus the window geometry used to cut them."""

    recordings: tuple[LabeledRecording, ...]
    window_spec: WindowSpec

    def __post_init__(self):
        object.__setattr__(self, "recordings", tuple(self.recordings))
        if not self.recordings:
            raise DataError("no recordings")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_aer: float
    val_sensitivity: float
    val_fdr: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class EnsembleModel:
    """Per-fold (params, normalization) pairs sharing one architecture."""

    config: ModelConfig
    members: list[tuple[ModelParams, NormalizationStats]]

    def __post_init__(self):
        if not self.members:
            raise DataError("ensemble needs at least one member")
        for params, _ in self.members:
            if params.config != self.config:
                raise DataError("ensemble member config mismatch")

    @property
    def n_members(self) -> int:
        return len(self.members)


def windows_and_targets(
    recordings, window_spec: WindowSpec, mode: str
) -> list[tuple[Window, TargetSequence]]:
    """Cut every recording and derive the per-window ground truth."""
    pairs = []
    for labeled in recordings:
        for w in make_windows(labeled.recording, window_spec, mode=mode):
            pairs.append((w, derive_target_sequence(labeled.segments, w)))
    return pairs


def _validation_metrics(member: EnsembleModel, val_pairs) -> tuple[float, float, float]:
    # local import: decoding builds on this module
    from .decoding import decode_windows
    from .evaluation import OutcomeTallies, align, metrics, tally

    preds = decode_windows(member, [w for w, _ in val_pairs])
    total = OutcomeTallies()
    for (_, target), pred in zip(val_pairs, preds):
        total = total + tally(align(target.tokens, pred.tokens))
    m = metrics(total)
    aer = m.aer if not math.isnan(m.aer) else float("inf")
    return aer, m.sensitivity, m.fdr


def train_member(
    fold: DatasetSplit,
    data: TrainingData,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[ModelParams, NormalizationStats, list[EpochStats]]:
    """Train one ensemble member on a subject fold.

    Minimizes teacher-forced cross-entropy with Adam; after each epoch
    decodes the validation windows and scores their AER; keeps the
    parameters of the best epoch and stops once patience epochs pass
    without improvement.
    """
    train_recs = _by_subject(data.recordings, fold.train_subjects)
    val_recs = _by_subject(data.recordings, fold.val_subjects)
    if not train_recs or not val_recs:
        raise DataError("fold has an empty train or validation side")

    stats = fit_normalization([r.recording for r in train_recs])
    # windows are raw views; each batch, like decode_windows, normalizes its own
    train_pairs = windows_and_targets(train_recs, data.window_spec, mode="train")
    val_pairs = windows_and_targets(val_recs, data.window_spec, mode="test")
    windows = [w for w, _ in train_pairs]
    targets = [t.codes() for _, t in train_pairs]
    n = len(train_pairs)

    params = init_params(model_config, train_config.seed)
    arrays = params.arrays()
    opt = Adam(lr=train_config.learning_rate)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence((train_config.seed, 0x51))
    )

    best_aer = float("inf")
    best_params = params.copy()
    epochs_since_improve = 0
    log: list[EpochStats] = []

    for epoch in range(1, train_config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, train_config.batch_size):
            idx = order[lo : lo + train_config.batch_size]
            xs = _normalized_stack([windows[i] for i in idx], stats, np.float64)
            batch_loss, grads = _batch_forward_backward(
                params, xs.transpose(1, 0, 2), [targets[i] for i in idx]
            )
            if not math.isfinite(batch_loss):
                raise TrainingError(
                    f"training diverged at epoch {epoch}: loss={batch_loss}"
                )
            if not all(np.isfinite(g).all() for g in grads.values()):
                raise TrainingError(
                    f"training diverged at epoch {epoch}: non-finite gradient"
                )
            opt.step(arrays, grads)
            loss_sum += batch_loss * len(idx)
        epoch_loss = loss_sum / n

        member = EnsembleModel(model_config, [(params, stats)])
        val_aer, val_sens, val_fdr = _validation_metrics(member, val_pairs)
        log.append(EpochStats(epoch, epoch_loss, val_aer, val_sens, val_fdr))

        if val_aer < best_aer:
            best_aer = val_aer
            best_params = params.copy()
            epochs_since_improve = 0
        else:
            epochs_since_improve += 1
            if epochs_since_improve >= train_config.patience:
                break
    return best_params, stats, log


def member_seed(seed: int, fold_index: int) -> int:
    """Per-member training seed, a function of the run seed and fold only."""
    state = np.random.SeedSequence((seed, fold_index)).generate_state(1, np.uint64)
    return int(state[0] % (2**63))


def train_ensemble(
    data: TrainingData,
    model_config: ModelConfig,
    train_config: TrainConfig,
    n_folds: int = 4,
    seed: int = 0,
) -> tuple[EnsembleModel, list[list[EpochStats]]]:
    """One member per validation fold; members are fully independent.

    Each member's seed derives only from (seed, fold index), so training
    them in any order, or separately, produces identical parameters.
    The members train in forked worker processes through `_fork_map`;
    a worker that dies raises TrainingError.
    """
    subjects = sorted({r.recording.subject_id for r in data.recordings})
    folds = split_subjects(subjects, n_folds=n_folds, seed=seed)
    jobs = [
        (fold, data, model_config, replace(train_config, seed=member_seed(seed, i)))
        for i, fold in enumerate(folds)
    ]
    results = _fork_map(train_member, jobs, died=TrainingError)
    members = [(params, stats) for params, stats, _ in results]
    logs = [log for _, _, log in results]
    return EnsembleModel(model_config, members), logs


# ---------------------------------------------------------------------------
# Persistence
#
# One member per file: JSON with float64 little-endian arrays in base64.
# JSON-with-base64 (rather than an archive format) keeps files byte-stable
# across runs; archives embed timestamps.
# ---------------------------------------------------------------------------


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(
            np.ascontiguousarray(arr, dtype="<f8").tobytes()
        ).decode("ascii"),
    }


def _decode_array(name: str, obj: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(obj["data"], validate=True)
        return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).astype(np.float64)
    except (KeyError, TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise DataError(f"array {name} is malformed ({e!r})") from None


def save_member(
    path: str | Path, params: ModelParams, stats: NormalizationStats
) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "model_config": params.config.to_json(),
        "normalization": stats.to_json(),
        "arrays": {name: _encode_array(arr) for name, arr in params.arrays().items()},
    }
    _write_json(Path(path), doc)


def load_member(path: str | Path) -> tuple[ModelParams, NormalizationStats]:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: not a model file ({e})") from e
    try:
        return _member_of(doc)
    except DataError as e:  # every content error names the file
        raise DataError(f"{path}: {e}") from None


def _member_of(doc) -> tuple[ModelParams, NormalizationStats]:
    if not isinstance(doc, dict):
        raise DataError("not a model file (top level is not an object)")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    missing = [k for k in ("model_config", "normalization", "arrays") if k not in doc]
    if missing:
        raise DataError(f"model file lacks {missing}")
    config = ModelConfig.from_json(doc["model_config"])
    params = zero_params(config)
    arrays = params.arrays()
    stored = doc["arrays"]
    if not isinstance(stored, dict) or set(stored) != set(arrays):
        raise DataError("model file arrays do not match the architecture")
    for name, arr in arrays.items():
        loaded = _decode_array(name, stored[name])
        if loaded.shape != arr.shape:
            raise DataError(f"array {name} has shape {loaded.shape}, expected {arr.shape}")
        if not np.isfinite(loaded).all():
            raise DataError(f"array {name} holds non-finite values")
        arr[...] = loaded
    try:
        stats = NormalizationStats.from_json(doc["normalization"])
    except DataError as e:
        raise DataError(f"malformed normalization: {e}") from None
    if stats.channel_count != config.input_dim:
        raise DataError(f"normalization covers {stats.channel_count} channels, "
                        f"model input_dim is {config.input_dim}")
    return params, stats


def _member_index(path: Path) -> int | None:
    """i for a member file name ``model.<i>.bin`` (i as ``str(i)`` writes it), else None."""
    index = path.name[len("model.") : -len(".bin")]
    return int(index) if index.isdecimal() and str(int(index)) == index else None


def save_ensemble(directory: str | Path, ensemble: EnsembleModel) -> list[Path]:
    """Write member i to ``model.<i>.bin`` and delete other members' files."""
    directory = Path(directory)
    paths = [directory / f"model.{i}.bin" for i in range(len(ensemble.members))]
    for path, (params, stats) in zip(paths, ensemble.members):
        save_member(path, params, stats)
    for path in directory.glob("model.*.bin"):
        if path not in paths and _member_index(path) is not None:
            path.unlink()
    return paths


def ensemble_paths(directory: str | Path) -> list[Path]:
    """Every ``model.<i>.bin`` under ``directory``, in member order."""
    members = {}
    for path in Path(directory).glob("model.*.bin"):
        members[path] = _member_index(path)
        if members[path] is None:
            raise DataError(f"{path}: not a model file name (expected model.<member>.bin)")
    if not members:
        raise DataError(f"no model files under {directory}")
    return sorted(members, key=members.get)


def load_ensemble(paths: list[str | Path]) -> EnsembleModel:
    if not paths:
        raise DataError("no model files given")
    members = [load_member(p) for p in paths]
    return EnsembleModel(members[0][0].config, members)
