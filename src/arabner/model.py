"""Embedding -> LSTM/GRU -> dense+ReLU -> LogSoftmax tagger, forward and backward.

Gradients are hand-derived backpropagation through time; no autodiff.
The backward pass mirrors the forward caches step by step, so every
formula here has a finite-difference check in the test suite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import affine, log_softmax, relu, sigmoid, tanh

LSTM = "lstm"
GRU = "gru"

# Gate blocks of each cell, in the order they are stacked in CellParams.  The
# sigmoid gates come first and the tanh candidate last, so a step applies one
# sigmoid to a contiguous slice.
GATES = {LSTM: ("i", "f", "o", "c"), GRU: ("r", "z", "n")}


@dataclass
class ModelConfig:
    cell_kind: str
    vocab_size: int
    embed_dim: int = 50
    hidden_dim: int = 50
    num_classes: int = 37
    seed: int = 0
    relu_head: bool = True  # ReLU on the class logits before LogSoftmax

    def __post_init__(self):
        if self.cell_kind not in (LSTM, GRU):
            raise ValueError(f"cell_kind must be {LSTM!r} or {GRU!r}, got {self.cell_kind!r}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2 (PAD and UNK)")
        if min(self.embed_dim, self.hidden_dim, self.num_classes) < 1:
            raise ValueError("embed_dim, hidden_dim and num_classes must be >= 1")


@dataclass
class CellParams:
    """Input weights W (G*H x E), recurrent weights R (G*H x H) and bias b
    (G*H) of a G-gate cell, one H-row block per gate in GATES order."""

    W: np.ndarray
    R: np.ndarray
    b: np.ndarray

    def named_tensors(self):
        yield "W", self.W
        yield "R", self.R
        yield "b", self.b


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: np.ndarray  # V x E, row 0 (PAD) kept at zero
    cell: CellParams
    dense_w: np.ndarray  # K x H
    dense_b: np.ndarray  # K

    def named_tensors(self):
        """(name, array) pairs in the fixed checkpoint/optimizer order."""
        yield "embedding", self.embedding
        for name, arr in self.cell.named_tensors():
            yield f"cell.{name}", arr
        yield "dense_w", self.dense_w
        yield "dense_b", self.dense_b


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray
    cache: dict | None = field(default=None, repr=False)


@dataclass
class GruState:
    c: np.ndarray
    cache: dict | None = field(default=None, repr=False)

    @property
    def h(self):
        # the GRU exposes its single state vector as the cell output
        return self.c


def zero_state(cfg: ModelConfig):
    H = cfg.hidden_dim
    if cfg.cell_kind == LSTM:
        return LstmState(np.zeros(H), np.zeros(H))
    return GruState(np.zeros(H))


def _glorot(rng, rows, cols):
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_params(cfg: ModelConfig) -> ModelParams:
    """Seeded Glorot-uniform weights, zero gate biases, zero PAD embedding row.

    The draw order is fixed (embedding, cell input weights, cell recurrent
    weights, dense head), so identical seeds give bit-identical parameters.

    The head bias starts at +1 so every class logit clears the ReLU at
    initialization; otherwise a class whose pre-activations start negative
    at all of its gold positions receives no gradient and can never be
    learned.  With the ReLU head disabled the offset is a harmless shift
    (log-softmax is shift-invariant).
    """
    rng = np.random.default_rng(cfg.seed)
    V, E, H, K = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim, cfg.num_classes
    G = len(GATES[cfg.cell_kind])
    embedding = _glorot(rng, V, E)
    embedding[0, :] = 0.0
    # one draw per gate block, so each block keeps its own Glorot bound
    W = np.vstack([_glorot(rng, H, E) for _ in range(G)])
    R = np.vstack([_glorot(rng, H, H) for _ in range(G)])
    cell = CellParams(W, R, np.zeros(G * H))
    dense_w = _glorot(rng, K, H)
    dense_b = np.ones(K)
    return ModelParams(cfg, embedding, cell, dense_w, dense_b)


def zero_params(cfg: ModelConfig) -> ModelParams:
    """All-zero parameters of the configured shapes."""
    V, E, H, K = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim, cfg.num_classes
    GH = len(GATES[cfg.cell_kind]) * H
    cell = CellParams(np.zeros((GH, E)), np.zeros((GH, H)), np.zeros(GH))
    return ModelParams(cfg, np.zeros((V, E)), cell, np.zeros((K, H)), np.zeros(K))


def count_params(cfg: ModelConfig) -> int:
    """Closed-form trainable-parameter count for the configured model."""
    gates = len(GATES[cfg.cell_kind])
    V, E, H, K = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim, cfg.num_classes
    return V * E + gates * (H * E + H * H + H) + (K * H + K)


def lstm_step(p: CellParams, x_t: np.ndarray, prev: LstmState) -> LstmState:
    """One LSTM update: gated blend of the previous cell state and a tanh
    candidate, with the hidden output gated by o."""
    H = prev.h.shape[0]
    a = affine(p.W, x_t, p.R, prev.h, p.b)
    i, f, o = sigmoid(a[: 3 * H]).reshape(3, H)
    g = tanh(a[3 * H :])
    c = f * prev.c + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = dict(x=x_t, h_prev=prev.h, c_prev=prev.c, i=i, f=f, o=o, g=g, tanh_c=tanh_c)
    return LstmState(h, c, cache)


def gru_step(p: CellParams, x_t: np.ndarray, prev: GruState) -> GruState:
    """One GRU update; the reset gate scales the previous state before the
    recurrent matrix of the candidate, so r and z share one affine map and
    n takes its own."""
    H = prev.c.shape[0]
    r, z = sigmoid(affine(p.W[: 2 * H], x_t, p.R[: 2 * H], prev.c, p.b[: 2 * H])).reshape(2, H)
    rc = r * prev.c
    n = tanh(affine(p.W[2 * H :], x_t, p.R[2 * H :], rc, p.b[2 * H :]))
    c = (1.0 - z) * n + z * prev.c
    cache = dict(x=x_t, c_prev=prev.c, r=r, z=z, rc=rc, n=n)
    return GruState(c, cache)


def model_forward(params: ModelParams, token_ids, mask=None):
    """Run the full tagger over one sequence.

    Returns (log_probs[T, K], caches); caches hold everything the backward
    pass needs.  Padding rows still produce log_probs; the mask only
    matters to the loss and to model_backward.
    """
    cfg = params.config
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"token_ids must be one-dimensional, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ValueError(f"token id out of range [0, {cfg.vocab_size})")
    T = ids.size
    if mask is None:
        mask = np.ones(T, dtype=np.float64)
    else:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (T,):
            raise ValueError(f"mask shape {mask.shape} does not match {T} tokens")

    log_probs = np.zeros((T, cfg.num_classes))
    steps = []
    state = zero_state(cfg)
    for t in range(T):
        x = params.embedding[ids[t]]
        if cfg.cell_kind == LSTM:
            state = lstm_step(params.cell, x, state)
        else:
            state = gru_step(params.cell, x, state)
        out = state.h
        pre = params.dense_w @ out + params.dense_b
        act = relu(pre) if cfg.relu_head else pre
        lp = log_softmax(act)
        log_probs[t] = lp
        steps.append(dict(cell=state.cache, out=out, pre=pre, probs=np.exp(lp)))
    caches = dict(kind=cfg.cell_kind, relu_head=cfg.relu_head, token_ids=ids, mask=mask, steps=steps)
    return log_probs, caches


def zero_gradients(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.named_tensors()}


def model_backward(params: ModelParams, caches, d_log_probs: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagation through time; returns d(loss)/d(tensor) keyed like
    ModelParams.named_tensors().  Mask-0 positions contribute nothing."""
    cfg = params.config
    if caches["kind"] != cfg.cell_kind:
        raise ValueError(
            f"cache from a {caches['kind']} forward pass does not match {cfg.cell_kind} params"
        )
    steps = caches["steps"]
    T = len(steps)
    if d_log_probs.shape != (T, cfg.num_classes):
        raise ValueError(
            f"d_log_probs shape {d_log_probs.shape} does not match ({T}, {cfg.num_classes})"
        )
    ids = caches["token_ids"]
    mask = caches["mask"]
    grads = zero_gradients(params)
    if cfg.cell_kind == LSTM:
        _lstm_backward(params, grads, steps, ids, mask, d_log_probs, caches["relu_head"])
    else:
        _gru_backward(params, grads, steps, ids, mask, d_log_probs, caches["relu_head"])
    return grads


def _head_backward(params, grads, step, u, relu_head):
    """Shared dense+ReLU+LogSoftmax backward; returns d(loss)/d(cell output)."""
    d_act = u - step["probs"] * u.sum()
    # ReLU subgradient: 0 at pre == 0
    d_pre = d_act * (step["pre"] > 0) if relu_head else d_act
    grads["dense_w"] += np.outer(d_pre, step["out"])
    grads["dense_b"] += d_pre
    return params.dense_w.T @ d_pre


def _lstm_backward(params, grads, steps, ids, mask, d_log_probs, relu_head):
    p = params.cell
    H = params.config.hidden_dim
    dW, dR, db = grads["cell.W"], grads["cell.R"], grads["cell.b"]
    dh_rec = np.zeros(H)
    dc_rec = np.zeros(H)
    for t in range(len(steps) - 1, -1, -1):
        step = steps[t]
        cc = step["cell"]
        u = d_log_probs[t] * mask[t]
        dh = _head_backward(params, grads, step, u, relu_head) + dh_rec
        i, f, o, g, tanh_c = cc["i"], cc["f"], cc["o"], cc["g"], cc["tanh_c"]
        da_o = dh * tanh_c * o * (1.0 - o)
        dc = dh * o * (1.0 - tanh_c**2) + dc_rec
        da_f = dc * cc["c_prev"] * f * (1.0 - f)
        da_i = dc * g * i * (1.0 - i)
        da_c = dc * i * (1.0 - g**2)
        dc_rec = dc * f
        da = np.concatenate((da_i, da_f, da_o, da_c))
        dh_rec = p.R.T @ da
        dW += np.outer(da, cc["x"])
        dR += np.outer(da, cc["h_prev"])
        db += da
        grads["embedding"][ids[t]] += p.W.T @ da


def _gru_backward(params, grads, steps, ids, mask, d_log_probs, relu_head):
    p = params.cell
    H = params.config.hidden_dim
    R_rz, R_n = p.R[: 2 * H], p.R[2 * H :]
    dW, db = grads["cell.W"], grads["cell.b"]
    dR_rz, dR_n = grads["cell.R"][: 2 * H], grads["cell.R"][2 * H :]
    dc_rec = np.zeros(H)
    for t in range(len(steps) - 1, -1, -1):
        step = steps[t]
        cc = step["cell"]
        u = d_log_probs[t] * mask[t]
        dc = _head_backward(params, grads, step, u, relu_head) + dc_rec
        r, z, n, c_prev, rc = cc["r"], cc["z"], cc["n"], cc["c_prev"], cc["rc"]
        da_z = dc * (c_prev - n) * z * (1.0 - z)
        da_n = dc * (1.0 - z) * (1.0 - n**2)
        d_rc = R_n.T @ da_n
        da_r = d_rc * c_prev * r * (1.0 - r)
        da = np.concatenate((da_r, da_z, da_n))
        dc_rec = dc * z + d_rc * r + R_rz.T @ da[: 2 * H]
        dW += np.outer(da, cc["x"])
        dR_rz += np.outer(da[: 2 * H], c_prev)
        dR_n += np.outer(da_n, rc)
        db += da
        grads["embedding"][ids[t]] += p.W.T @ da
