"""Embedding -> LSTM/GRU -> dense+ReLU -> LogSoftmax tagger, forward and backward.

Gradients are hand-derived backpropagation through time; no autodiff.
Each cell's math is one update function that model_forward and the
lstm_step/gru_step API share, so every formula here has a
finite-difference check in the test suite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import affine  # unused here; the traced benchmark patches it under this module
from .numerics import _check_shape, log_softmax, relu, sigmoid, tanh

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


def _lstm_update(p: CellParams, xw, h_prev, c_prev):
    """One LSTM update of the projected input xw = x @ W.T: a gated blend of the
    previous cell state and a tanh candidate, output gated by o; returns (h, c, gates)."""
    H = h_prev.shape[-1]
    a = xw + h_prev @ p.R.T + p.b
    a[..., : 3 * H] = sigmoid(a[..., : 3 * H])
    a[..., 3 * H :] = tanh(a[..., 3 * H :])
    i, f, o, g = a[..., :H], a[..., H : 2 * H], a[..., 2 * H : 3 * H], a[..., 3 * H :]
    c = f * c_prev + i * g
    return o * np.tanh(c), c, a


def _gru_update(p: CellParams, xw, c_prev):
    """One GRU update of the projected input xw = x @ W.T; returns (c, gates).
    The reset gate scales the previous state before the candidate's R[2H:]."""
    H = c_prev.shape[-1]
    a = np.empty(xw.shape)
    a[..., : 2 * H] = sigmoid(xw[..., : 2 * H] + c_prev @ p.R[: 2 * H].T + p.b[: 2 * H])
    r, z = a[..., :H], a[..., H : 2 * H]
    a[..., 2 * H :] = tanh(xw[..., 2 * H :] + (r * c_prev) @ p.R[2 * H :].T + p.b[2 * H :])
    return (1.0 - z) * a[..., 2 * H :] + z * c_prev, a


def lstm_step(p: CellParams, x_t: np.ndarray, prev: LstmState) -> LstmState:
    """One LSTM update of x_t; x_t and the state may carry leading batch axes."""
    _check_shape("lstm_step: x_t", x_t, (*prev.h.shape[:-1], p.W.shape[1]))
    h, c, a = _lstm_update(p, x_t @ p.W.T, prev.h, prev.c)
    return LstmState(h, c, dict(zip(("i", "f", "o", "g"), np.split(a, 4, axis=-1))))


def gru_step(p: CellParams, x_t: np.ndarray, prev: GruState) -> GruState:
    """One GRU update of x_t; x_t and the state may carry leading batch axes."""
    _check_shape("gru_step: x_t", x_t, (*prev.c.shape[:-1], p.W.shape[1]))
    c, a = _gru_update(p, x_t @ p.W.T, prev.c)
    return GruState(c, dict(zip(GATES[GRU], np.split(a, 3, axis=-1))))


def model_forward(params: ModelParams, token_ids, mask=None):
    """Run the full tagger over one sequence (T,) or a batch (..., T).

    Returns (log_probs[..., T, K], caches).  x @ W.T is one product over
    every position; each step adds only the recurrent term.  The caches are
    time-first and hold each value once: the inputs x[T, ..., E], the states
    h (LSTM only) and c[T+1, ..., H] from the zero state at row 0, the gates
    [T, ..., G*H] in GATES order, and the head's pre and log_probs[T, ..., K].
    Padding positions still produce log_probs; the mask only matters to
    the loss and to model_backward.
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

    p = params.cell
    x = params.embedding[np.moveaxis(ids, -1, 0)]
    xw = x @ p.W.T
    caches = dict(kind=cfg.cell_kind, relu_head=cfg.relu_head, token_ids=ids, mask=mask, x=x)
    gates = caches["gates"] = np.empty(xw.shape)
    c = caches["c"] = np.zeros((len(x) + 1, *x.shape[1:-1], cfg.hidden_dim))
    if cfg.cell_kind == LSTM:
        h = caches["h"] = np.zeros(c.shape)
        for t in range(len(x)):
            h[t + 1], c[t + 1], gates[t] = _lstm_update(p, xw[t], h[t], c[t])
    else:
        h = c  # the GRU's output is its state
        for t in range(len(x)):
            c[t + 1], gates[t] = _gru_update(p, xw[t], c[t])
    pre = caches["pre"] = h[1:] @ params.dense_w.T + params.dense_b
    log_probs = caches["log_probs"] = log_softmax(relu(pre) if cfg.relu_head else pre)
    return np.moveaxis(log_probs, 0, -2), caches


# no caller in the package; kept because the traced benchmark patches it by name
def zero_gradients(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.named_tensors()}


@dataclass
class RowGrad:
    """Gradient of a `shape` tensor that is zero outside its rows `rows`
    (sorted, unique): row rows[k] holds values[k].  np.asarray gives the
    dense array."""

    rows: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype or self.values.dtype)
        dense[self.rows] = self.values
        return dense


def _sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of the outer products a[..., :] x b[..., :] over every leading axis."""
    lead = list(range(a.ndim - 1))
    return np.tensordot(a, b, (lead, lead))


def model_backward(params: ModelParams, caches, d_log_probs: np.ndarray) -> dict:
    """Backpropagation through time; returns d(loss)/d(tensor) keyed like
    ModelParams.named_tensors().  Mask-0 positions contribute nothing.

    The embedding gradient is a RowGrad over the token ids of the batch;
    every other gradient is a dense array."""
    cfg = params.config
    if caches["kind"] != cfg.cell_kind:
        raise ValueError(
            f"cache from a {caches['kind']} forward pass does not match {cfg.cell_kind} params"
        )
    log_probs = caches["log_probs"]
    shape = np.moveaxis(log_probs, 0, -2).shape
    if d_log_probs.shape != shape:
        raise ValueError(f"d_log_probs shape {d_log_probs.shape} does not match {shape}")
    # head: dense, ReLU (subgradient 0 at pre == 0) and LogSoftmax, time-first
    u = np.moveaxis(d_log_probs * caches["mask"][..., None], -2, 0)
    d_pre = u - np.exp(log_probs) * u.sum(axis=-1, keepdims=True)
    if caches["relu_head"]:
        d_pre *= caches["pre"] > 0
    backward = _lstm_backward if cfg.cell_kind == LSTM else _gru_backward
    da, dR = backward(params.cell, caches, d_pre @ params.dense_w)

    lead = tuple(range(da.ndim - 1))
    # time-first, as da, so each row sums its positions in the order a dense
    # V x E scatter would; flat ids give a flat inverse on every numpy
    ids = np.moveaxis(caches["token_ids"], -1, 0).reshape(-1)
    rows, where = np.unique(ids, return_inverse=True)
    values = np.zeros((len(rows), cfg.embed_dim))
    np.add.at(values, where, (da @ params.cell.W).reshape(-1, cfg.embed_dim))
    return {
        "embedding": RowGrad(rows, values, params.embedding.shape),
        "cell.W": _sum_outer(da, caches["x"]),
        "cell.R": dR,
        "cell.b": da.sum(axis=lead),
        "dense_w": _sum_outer(d_pre, caches.get("h", caches["c"])[1:]),
        "dense_b": d_pre.sum(axis=lead),
    }


def _lstm_backward(p: CellParams, cc, dout):
    """Stacked gate gradients da[T, ..., 4H] and d(loss)/dR, given the
    gradient dout reaching each step's hidden output from the head."""
    gates, c = cc["gates"], cc["c"]
    tanh_c = np.tanh(c[1:])
    # one contiguous array per gate: a step's ops run slower on slices of the stack
    i_, f_, o_, g_ = np.moveaxis(gates.reshape(*dout.shape[:-1], 4, -1), -2, 0).copy()
    da = np.empty(gates.shape)
    dh_rec = dc_rec = 0.0
    for t in range(len(dout) - 1, -1, -1):
        i, f, o, g = i_[t], f_[t], o_[t], g_[t]
        dh = dout[t] + dh_rec
        dc = dh * o * (1.0 - tanh_c[t] ** 2) + dc_rec
        da_i, da_f = dc * g * i * (1.0 - i), dc * c[t] * f * (1.0 - f)
        da_o, da_c = dh * tanh_c[t] * o * (1.0 - o), dc * i * (1.0 - g**2)
        da[t] = np.concatenate((da_i, da_f, da_o, da_c), axis=-1)
        dc_rec = dc * f
        dh_rec = da[t] @ p.R
    return da, _sum_outer(da, cc["h"][:-1])


def _gru_backward(p: CellParams, cc, dout):
    """Stacked gate gradients da[T, ..., 3H] and d(loss)/dR, given the
    gradient dout reaching each step's state from the head."""
    H, gates, c = dout.shape[-1], cc["gates"], cc["c"]
    R_rz, R_n = p.R[: 2 * H], p.R[2 * H :]
    r_, z_, n_ = np.moveaxis(gates.reshape(*dout.shape[:-1], 3, -1), -2, 0).copy()
    rc = r_ * c[:-1]  # the reset-scaled state R_n acted on
    da = np.empty(gates.shape)
    dc_rec = 0.0
    for t in range(len(dout) - 1, -1, -1):
        r, z, n = r_[t], z_[t], n_[t]
        dc = dout[t] + dc_rec
        da_n = dc * (1.0 - z) * (1.0 - n**2)
        d_rc = da_n @ R_n
        da_r, da_z = d_rc * c[t] * r * (1.0 - r), dc * (c[t] - n) * z * (1.0 - z)
        da[t] = np.concatenate((da_r, da_z, da_n), axis=-1)
        dc_rec = dc * z + d_rc * r + da[t, ..., : 2 * H] @ R_rz
    # rows of R_n multiply the reset-scaled state, the others the plain state
    dR_rz, dR_n = _sum_outer(da[..., : 2 * H], c[:-1]), _sum_outer(da[..., 2 * H :], rc)
    return da, np.vstack((dR_rz, dR_n))
