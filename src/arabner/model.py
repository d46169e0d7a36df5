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


def zero_state(cfg: ModelConfig, batch: tuple[int, ...] = ()):
    """Initial state of one sequence, or of a batch of the given shape."""
    shape = (*batch, cfg.hidden_dim)
    if cfg.cell_kind == LSTM:
        return LstmState(np.zeros(shape), np.zeros(shape))
    return GruState(np.zeros(shape))


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
    candidate, with the hidden output gated by o.  x_t and the state may
    carry leading batch axes."""
    H = prev.h.shape[-1]
    a = affine(p.W, x_t, p.R, prev.h, p.b)
    s = sigmoid(a[..., : 3 * H])
    i, f, o = s[..., :H], s[..., H : 2 * H], s[..., 2 * H :]
    g = tanh(a[..., 3 * H :])
    c = f * prev.c + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = dict(x=x_t, h_prev=prev.h, c_prev=prev.c, i=i, f=f, o=o, g=g, tanh_c=tanh_c)
    return LstmState(h, c, cache)


def gru_step(p: CellParams, x_t: np.ndarray, prev: GruState) -> GruState:
    """One GRU update; the reset gate scales the previous state before the
    recurrent matrix of the candidate, so r and z share one affine map and
    n takes its own.  x_t and the state may carry leading batch axes."""
    H = prev.c.shape[-1]
    s = sigmoid(affine(p.W[: 2 * H], x_t, p.R[: 2 * H], prev.c, p.b[: 2 * H]))
    r, z = s[..., :H], s[..., H:]
    rc = r * prev.c
    n = tanh(affine(p.W[2 * H :], x_t, p.R[2 * H :], rc, p.b[2 * H :]))
    c = (1.0 - z) * n + z * prev.c
    cache = dict(x=x_t, c_prev=prev.c, r=r, z=z, rc=rc, n=n)
    return GruState(c, cache)


def model_forward(params: ModelParams, token_ids, mask=None):
    """Run the full tagger over one sequence (T,) or a batch (..., T).

    Returns (log_probs[..., T, K], caches); caches hold everything the
    backward pass needs, each per-step cell value stacked with time on
    axis -2.  Padding positions still produce log_probs; the mask only
    matters to the loss and to model_backward.
    """
    cfg = params.config
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim == 0 or ids.size == 0:
        raise ValueError(f"token_ids must hold at least one position, got shape {ids.shape}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id out of range [0, {cfg.vocab_size})")
    mask = np.ones(ids.shape) if mask is None else np.asarray(mask, dtype=np.float64)
    if mask.shape != ids.shape:
        raise ValueError(f"mask shape {mask.shape} does not match token_ids shape {ids.shape}")

    step = lstm_step if cfg.cell_kind == LSTM else gru_step
    x = params.embedding[ids]
    state = zero_state(cfg, ids.shape[:-1])
    states = []
    for t in range(ids.shape[-1]):
        state = step(params.cell, x[..., t, :], state)
        states.append(state)
    out = _stack_time([s.h for s in states])
    pre = out @ params.dense_w.T + params.dense_b
    log_probs = log_softmax(relu(pre) if cfg.relu_head else pre)
    cell = {k: _stack_time([s.cache[k] for s in states]) for k in state.cache}
    caches = dict(kind=cfg.cell_kind, relu_head=cfg.relu_head, token_ids=ids, mask=mask)
    caches.update(cell=cell, out=out, pre=pre, probs=np.exp(log_probs))
    return log_probs, caches


def _stack_time(steps: list[np.ndarray]) -> np.ndarray:
    """Per-step arrays (..., H) as one (..., T, H) array."""
    a = np.array(steps)  # time on axis 0; np.stack costs several times more
    return a.transpose((*range(1, a.ndim - 1), 0, a.ndim - 1))


def zero_gradients(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.named_tensors()}


def _sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of the outer products a[..., :] x b[..., :] over every leading axis."""
    lead = list(range(a.ndim - 1))
    return np.tensordot(a, b, (lead, lead))


def model_backward(params: ModelParams, caches, d_log_probs: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagation through time; returns d(loss)/d(tensor) keyed like
    ModelParams.named_tensors().  Mask-0 positions contribute nothing."""
    cfg = params.config
    if caches["kind"] != cfg.cell_kind:
        raise ValueError(
            f"cache from a {caches['kind']} forward pass does not match {cfg.cell_kind} params"
        )
    probs = caches["probs"]
    if d_log_probs.shape != probs.shape:
        raise ValueError(f"d_log_probs shape {d_log_probs.shape} does not match {probs.shape}")
    # head: dense, ReLU (subgradient 0 at pre == 0) and LogSoftmax
    u = d_log_probs * caches["mask"][..., None]
    d_pre = u - probs * u.sum(axis=-1, keepdims=True)
    if caches["relu_head"]:
        d_pre *= caches["pre"] > 0
    cell = caches["cell"]
    backward = _lstm_backward if cfg.cell_kind == LSTM else _gru_backward
    da, dR = backward(params.cell, cell, d_pre @ params.dense_w)

    lead = tuple(range(da.ndim - 1))
    grads = zero_gradients(params)
    np.add.at(grads["embedding"], caches["token_ids"], da @ params.cell.W)
    grads["cell.W"] = _sum_outer(da, cell["x"])
    grads["cell.R"] = dR
    grads["cell.b"] = da.sum(axis=lead)
    grads["dense_w"] = _sum_outer(d_pre, caches["out"])
    grads["dense_b"] = d_pre.sum(axis=lead)
    return grads


def _lstm_backward(p: CellParams, cc, dout):
    """Stacked gate gradients da[..., T, 4H] and d(loss)/dR, given the
    gradient dout reaching each step's hidden output from the head."""
    H = dout.shape[-1]
    da = np.empty((*dout.shape[:-1], 4 * H))
    dh_rec = dc_rec = 0.0
    for t in range(dout.shape[-2] - 1, -1, -1):
        i, f, o, g, tanh_c, c_prev = (
            cc[k][..., t, :] for k in ("i", "f", "o", "g", "tanh_c", "c_prev")
        )
        dh = dout[..., t, :] + dh_rec
        dc = dh * o * (1.0 - tanh_c**2) + dc_rec
        da_i, da_f = dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f)
        da_o, da_c = dh * tanh_c * o * (1.0 - o), dc * i * (1.0 - g**2)
        da[..., t, :] = np.concatenate((da_i, da_f, da_o, da_c), axis=-1)
        dc_rec = dc * f
        dh_rec = da[..., t, :] @ p.R
    return da, _sum_outer(da, cc["h_prev"])


def _gru_backward(p: CellParams, cc, dout):
    """Stacked gate gradients da[..., T, 3H] and d(loss)/dR, given the
    gradient dout reaching each step's state from the head."""
    H = dout.shape[-1]
    R_rz, R_n = p.R[: 2 * H], p.R[2 * H :]
    da = np.empty((*dout.shape[:-1], 3 * H))
    dc_rec = 0.0
    for t in range(dout.shape[-2] - 1, -1, -1):
        r, z, n, c_prev = (cc[k][..., t, :] for k in ("r", "z", "n", "c_prev"))
        dc = dout[..., t, :] + dc_rec
        da_n = dc * (1.0 - z) * (1.0 - n**2)
        d_rc = da_n @ R_n
        da_r, da_z = d_rc * c_prev * r * (1.0 - r), dc * (c_prev - n) * z * (1.0 - z)
        da[..., t, :] = np.concatenate((da_r, da_z, da_n), axis=-1)
        dc_rec = dc * z + d_rc * r + da[..., t, : 2 * H] @ R_rz
    # rows of R_n multiply the reset-scaled state, the others the plain state
    dR_rz, dR_n = _sum_outer(da[..., : 2 * H], cc["c_prev"]), _sum_outer(da[..., 2 * H :], cc["rc"])
    return da, np.vstack((dR_rz, dR_n))
