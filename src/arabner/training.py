"""Cross-entropy loss, token accuracy, Adam, training/eval loops, checkpoints."""

import contextlib
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bioes import (
    ALL_TAGS,
    CATEGORIES,
    EntitySpan,
    InvalidTagSequenceError,
    Tag,
    decode_spans,
    id_to_tag,
    tag_strings,
    validate_sequence,  # unused here; the traced benchmark patches it under this module
)
from .corpus import TaggedSentence, Vocabulary, build_vocab, encode_sentence
from .model import (
    GATES,
    LSTM,
    ModelConfig,
    ModelParams,
    RowGrad,
    count_params,
    init_params,
    model_backward,
    model_forward,
    zero_gradients,
    zero_params,
)
from .textnorm import normalize_text

CHECKPOINT_VERSION = 1
# Elements of one tensor that adam_step's weight update handles per pass:
# its scratch buffers (256 KiB each) stay in cache, where tensor-sized
# temporaries of the 587k-entry embedding would not.
ADAM_BLOCK = 32768
# Adam's decay rates and epsilon: the defaults of Kingma & Ba (arXiv
# 1412.6980), under which the step factor sqrt(1-BETA2**t)/(1-BETA1**t)
# stays at or below 1 for every t.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
# Share of a tensor's rows up to which adam_step updates only its live rows
# (those whose moments may be non-zero); past it the tensor takes the dense
# pass for good.  At the crossover: one GRU adam_step with an 11737 x 50
# embedding, median of 60 calls on a shared 2-CPU host, takes 2.1-2.5 ms
# dense and, by live share of the embedding's rows, 0.44 ms at 1%, 0.82 at
# 5%, 0.97-1.27 at 10%, 1.26-1.72 at 15%, 1.62-2.19 at 20%, 1.91-2.59 at
# 25% and 2.2-3.0 at 30%.
ADAM_LIVE_SHARE = 0.2
# Padded positions of one inference batch; enough rows to amortize the
# per-timestep numpy calls, few enough that the caches stay small.
INFERENCE_POSITIONS = 512


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    iterations: int = 500
    batch_size: int = 8
    max_len: int | None = None  # None: longest training sentence
    seed: int = 0
    eval_every: int = 50

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:  # also False for NaN
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError(f"max_len must be None or >= 1, got {self.max_len}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


class NonFiniteGradientError(ValueError):
    """A gradient tensor contains NaN or infinity; training must not proceed."""

    def __init__(self, tensor_name: str):
        super().__init__(f"non-finite gradient in tensor {tensor_name!r}")
        self.tensor_name = tensor_name


class NonFiniteOutputError(RuntimeError):
    """The model's log-probs hold NaN or infinity: its weights have diverged,
    and no tag or metric read from them would mean anything."""

    def __init__(self):
        super().__init__("the model's log-probs are not finite (its weights have diverged)")


class TrainingDivergedError(RuntimeError):
    """Loss, gradients or validation log-probs became non-finite; carries
    the run's result so far: the last good checkpoint, the metric records
    and the count of truncated training sentences."""

    def __init__(self, step: int, reason: str, result: "TrainResult"):
        super().__init__(f"training diverged at step {step}: {reason}")
        self.step = step
        self.result = result

    @property
    def checkpoint(self) -> "Checkpoint":
        return self.result.checkpoint


def cross_entropy_loss(log_probs: np.ndarray, gold: np.ndarray, mask: np.ndarray):
    """Masked mean negative log-likelihood and its gradient w.r.t. log_probs.

    loss = -(sum_t mask_t * log_probs[t, gold_t]) / sum_t mask_t, where t
    runs over every position of log_probs[..., T, K], batch axes included.
    The gradient is -mask_t / sum(mask) at each gold index, zero elsewhere,
    so masked positions contribute nothing to either output.
    """
    K = log_probs.shape[-1]
    gold = np.asarray(gold, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    total = mask.sum()
    if total == 0:
        raise ValueError("empty sentence: mask selects no positions")
    live = mask > 0
    if gold[live].min() < 0 or gold[live].max() >= K:
        raise ValueError(f"gold tag id outside [0, {K}) at a masked-in position")
    gold_index = np.where(live, gold, 0)[..., None]
    loss = -(mask * np.take_along_axis(log_probs, gold_index, axis=-1)[..., 0]).sum() / total
    d_log_probs = np.zeros_like(log_probs)
    np.put_along_axis(d_log_probs, gold_index, -mask[..., None] / total, axis=-1)
    return loss, d_log_probs


def token_accuracy(log_probs: np.ndarray, gold: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of masked positions, batch axes included, whose argmax
    class equals gold.

    np.argmax takes the first maximum, so ties break toward the lowest
    class id.
    """
    gold = np.asarray(gold, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    total = mask.sum()
    if total == 0:
        raise ValueError("empty sentence: mask selects no positions")
    pred = np.argmax(log_probs, axis=-1)
    correct = ((pred == gold) & (mask > 0)).sum()
    return float(correct) / float(total)


@dataclass
class AdamState:
    """Adam's moments and step count, with the rows each moment may hold.

    Invariant: for every name in ``live``, m[name] and v[name] are exactly
    +0.0 outside the sorted rows live[name].  A tensor absent from ``live``
    may have non-zero moments on any row, so adam_step updates all of its
    rows.  Only for_params starts tracking, since only there are the moments
    known to be zero; a state built from its moments (a loaded checkpoint,
    ``AdamState(m, v, t)``) tracks nothing.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    live: dict[str, np.ndarray] = dataclasses.field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        """Zero moments and no live rows.  A tensor one of whose rows does
        not fit a quarter of ADAM_BLOCK is left untracked, since adam_step
        gathers live rows into quarters of a block-sized buffer."""
        m = zero_gradients(params)
        live = {name: np.empty(0, np.int64) for name, a in m.items() if 4 * a[0].size <= ADAM_BLOCK}
        return cls(m, zero_gradients(params), live=live)


def adam_step(params: ModelParams, grads: dict, state: AdamState, cfg: TrainConfig):
    """One Adam update, in place, over every parameter tensor.

    A gradient is a dense array or a RowGrad, which is zero outside its
    rows; a dense array counts as a RowGrad over all rows.  All gradients
    are checked finite before any tensor is touched, so a failure leaves
    params and state exactly as they were.  The moments take the textbook
    operations in their order,

        m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,

    adding the gradient terms only on the gradient's rows (elsewhere they
    are + 0.0, which changes no bit).  The weights take the textbook step
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps) in the order of Kingma & Ba
    (arXiv 1412.6980, section 2), one sqrt and one divide per weight:

        c = sqrt(bc2),  p -= (lr*(c/bc1)) * (m / (sqrt(v) + eps*c)),

    which is the same value in exact arithmetic and agrees with the
    textbook form to a few ulps.  With b1, b2, eps = BETA1, BETA2, EPSILON,
    c/bc1 is at most 1 and eps*c at least eps*sqrt(1-b2), so the factor
    lr*(c/bc1) is finite whenever lr is, and a row with m = v = 0 moves by
    exactly 0.

    That is why the rows outside state.live[name] (see AdamState) are
    skipped: their m, v and p would keep every bit.  A tracked tensor adds
    its gradient's rows to its live rows; it leaves tracking for good on a
    dense gradient or once its live rows pass ADAM_LIVE_SHARE of its rows.
    Both paths run one in-place update, whose weights move ADAM_BLOCK at a
    time through a scratch buffer: on a whole untracked tensor, or on a
    tracked tensor's live rows, gathered into quarters of that buffer.
    """
    sparse = {name: _rows_and_values(grads[name]) for name, _ in params.named_tensors()}
    for name, (_, g) in sparse.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(name)
    state.t += 1
    t = state.t
    bc1 = 1.0 - BETA1**t
    c = math.sqrt(1.0 - BETA2**t)
    eps_hat = EPSILON * c
    step = cfg.learning_rate * (c / bc1)
    scratch = np.empty(ADAM_BLOCK)

    def update(p, m, v, rows, g, buf):
        m *= BETA1
        m[rows] += g * (1.0 - BETA1)
        v *= BETA2
        v[rows] += (g * (1.0 - BETA2)) * g
        flat = [x.reshape(-1, copy=False) for x in (p, m, v)]
        for lo in range(0, p.size, ADAM_BLOCK):
            p, m, v = (x[lo : lo + ADAM_BLOCK] for x in flat)
            b = buf[: p.size]
            np.sqrt(v, out=b)
            b += eps_hat
            np.divide(m, b, out=b)
            b *= step
            p -= b

    for name, arr in params.named_tensors():
        rows, g = sparse[name]
        m_all, v_all = state.m[name], state.v[name]
        live = state.live.pop(name, None)
        if live is not None and not isinstance(rows, slice):
            # return_counts keeps np.unique off its numpy.ma check
            live = np.unique(np.concatenate((live, rows)), return_counts=True)[0]
            if live.size <= ADAM_LIVE_SHARE * len(arr):
                state.live[name] = live
        if name not in state.live:
            update(arr, m_all, v_all, rows, g, scratch)
            continue
        n = ADAM_BLOCK // (4 * arr[0].size)  # live rows per block
        quarters = scratch[: 4 * n * arr[0].size].reshape(4, n, *arr.shape[1:])
        at = np.searchsorted(live, rows)  # the gradient's rows within live
        for lo in range(0, live.size, n):
            r = live[lo : lo + n]
            p, m, v, b = (q[: r.size] for q in quarters)
            for src, dst in ((arr, p), (m_all, m), (v_all, v)):
                np.take(src, r, axis=0, out=dst, mode="clip")  # "raise" would buffer
            i, j = np.searchsorted(at, (lo, lo + r.size))
            update(p, m, v, at[i:j] - lo, g[i:j], b.reshape(-1))
            arr[r], m_all[r], v_all[r] = p, m, v
    return params, state


def _rows_and_values(grad):
    """(rows, values) of a RowGrad; a dense gradient covers all rows."""
    if isinstance(grad, RowGrad):
        return grad.rows, grad.values
    return slice(None), np.asarray(grad)


@dataclass
class Checkpoint:
    """Weights with their config, vocabulary and optimizer state; a saved
    file adds the codec's tag ordering."""

    params: ModelParams
    vocab: Vocabulary
    adam: AdamState | None = None
    iterations: int = 0
    seed: int = 0

    @property
    def config(self) -> ModelConfig:
        return self.params.config


def tag_ordering_fingerprint(ordering: list[str]) -> str:
    return hashlib.sha256("\n".join(ordering).encode("utf-8")).hexdigest()


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def _v1_layout(params: ModelParams, adam: AdamState | None):
    """(file name, in-memory tensor, row slice, shape) of every tensor of a
    v1 checkpoint, in file order.

    A v1 file keeps one tensor per gate (``cell.w_i``, ``cell.u_r``, ...),
    so each stacked cell tensor contributes one H-row block per gate.
    """
    cfg = params.config
    H = cfg.hidden_dim
    prefix = {"cell.W": "w", "cell.R": "r" if cfg.cell_kind == LSTM else "u", "cell.b": "b"}
    tensors = dict(params.named_tensors())
    base = []  # (file name, in-memory name, rows)
    for name in tensors:
        if name in prefix:
            for k, gate in enumerate(GATES[cfg.cell_kind]):
                base.append((f"cell.{prefix[name]}_{gate}", name, slice(k * H, (k + 1) * H)))
        else:
            base.append((name, name, slice(None)))
    for file_name, name, rows in base:
        yield file_name, tensors[name], rows, tensors[name][rows].shape
    if adam is not None:
        for file_name, name, rows in base:
            shape = tensors[name][rows].shape
            yield f"adam.m.{file_name}", adam.m[name], rows, shape
            yield f"adam.v.{file_name}", adam.v[name], rows, shape


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write manifest line + raw little-endian float64 payloads.

    The manifest is a single JSON line holding the format version, model
    config, tag ordering, vocabulary, and a tensor directory (name, shape,
    byte offset into the payload, in payload order).  Tensors follow as
    C-order float64 bytes, so save/load round-trips bit-exactly.

    The file is written through replace_atomically, so a save that fails
    part way leaves any existing checkpoint untouched.
    """
    layout = list(_v1_layout(ckpt.params, ckpt.adam))
    directory = []
    offset = 0
    for name, _, _, shape in layout:
        directory.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    ordering = tag_strings()
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model": dataclasses.asdict(ckpt.config),
        "tag_ordering": ordering,
        "tag_fingerprint": tag_ordering_fingerprint(ordering),
        "vocab": ckpt.vocab.id_to_token[2:],
        "tensors": directory,
        "optimizer": {"step": ckpt.adam.t} if ckpt.adam is not None else None,
        "meta": {"iterations": ckpt.iterations, "seed": ckpt.seed},
    }
    header = json.dumps(manifest, ensure_ascii=False).encode("utf-8") + b"\n"
    blocks = (np.ascontiguousarray(arr[rows], dtype="<f8") for _, arr, rows, _ in layout)
    replace_atomically(path, itertools.chain([header], blocks))


def replace_atomically(path: str | Path, chunks) -> None:
    """Write the byte chunks to a temporary file beside ``path``, sync it
    and rename it over ``path``, so a write that fails part way leaves any
    existing file at ``path`` untouched and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a checkpoint; every integrity failure, malformed
    manifest field and non-finite tensor raises CheckpointError.

    Each tensor block is read from the file straight into the rows of the
    buffer it fills; the file is never held in memory as a whole.
    """
    with open(path, "rb") as fh:
        return _read_checkpoint(fh, path)


def _read_checkpoint(fh, path) -> Checkpoint:
    def require(ok, problem):
        if not ok:
            raise CheckpointError(f"{path}: {problem}")

    line = fh.readline()
    size = os.fstat(fh.fileno()).st_size
    require(line.endswith(b"\n"), "missing manifest line")
    try:
        manifest = json.loads(line[:-1].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest ({exc})") from None
    require(isinstance(manifest, dict), "manifest is not a JSON object")
    version = manifest.get("format_version")
    require(
        version == CHECKPOINT_VERSION,
        f"format version {version!r} not supported (expected {CHECKPOINT_VERSION})",
    )
    try:
        cfg = ModelConfig(**manifest["model"])
    except (TypeError, ValueError, KeyError) as exc:
        raise CheckpointError(f"{path}: bad model config ({exc})") from None
    wrong = [f.name for f in dataclasses.fields(cfg) if type(getattr(cfg, f.name)) is not f.type]
    require(not wrong, f"bad model config (wrong type of {', '.join(wrong)})")

    ordering = manifest.get("tag_ordering")
    require(
        ordering == tag_strings()
        and manifest.get("tag_fingerprint") == tag_ordering_fingerprint(tag_strings()),
        "tag ordering fingerprint mismatch",
    )
    require(cfg.num_classes == len(ordering), f"{cfg.num_classes} classes for {len(ordering)} tags")

    tokens = manifest.get("vocab")
    require(isinstance(tokens, list), "vocabulary is not a list")
    try:
        vocab = Vocabulary(tokens)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    require(
        len(vocab) == cfg.vocab_size,
        f"vocabulary size {len(vocab)} does not match config {cfg.vocab_size}",
    )

    optimizer = manifest.get("optimizer")
    step = optimizer.get("step") if isinstance(optimizer, dict) else None
    require(optimizer is None or (type(step) is int and step >= 0), f"bad optimizer {optimizer!r}")
    meta = manifest.get("meta", {})
    require(isinstance(meta, dict), "meta is not a JSON object")
    iterations, seed = meta.get("iterations", 0), meta.get("seed", 0)
    require(type(iterations) is int and iterations >= 0 and type(seed) is int, f"bad meta {meta!r}")
    directory = manifest.get("tensors")
    require(
        isinstance(directory, list)
        and all(isinstance(e, dict) and isinstance(e.get("name"), str) for e in directory),
        "malformed tensor directory",
    )

    base = len(line)  # payload start
    # checked before allocating, so a hand-edited config cannot ask for more
    # memory than the file holds
    require(size - base >= 8 * count_params(cfg), "truncated payload")
    params = zero_params(cfg)
    adam = None
    if optimizer is not None:  # untracked: the file's moments may be non-zero on any row
        adam = AdamState(zero_gradients(params), zero_gradients(params))
    slots = {name: (arr, rows, shape) for name, arr, rows, shape in _v1_layout(params, adam)}
    require(
        sorted(e["name"] for e in directory) == sorted(slots),
        f"tensor directory does not match a {cfg.cell_kind} model config",
    )
    offset = 0
    for entry in directory:
        name = entry["name"]
        arr, rows, shape = slots[name]
        require(
            entry.get("shape") == list(shape),
            f"tensor {name!r} shape {entry.get('shape')} does not match config shape {shape}",
        )
        require(
            entry.get("offset") == offset,
            f"tensor {name!r} offset {entry.get('offset')!r} inconsistent (expected {offset})",
        )
        block = arr[rows]  # a contiguous run of rows: a view into the buffer
        require(fh.readinto(block) == block.nbytes, f"truncated payload at tensor {name!r}")
        if sys.byteorder == "big":  # the payload is little-endian
            block.byteswap(inplace=True)
        require(np.isfinite(block).all(), f"tensor {name!r} holds non-finite values")
        offset += block.nbytes
    require(base + offset == size, f"{size - base - offset} trailing payload bytes")

    if adam is not None:
        adam.t = step
    return Checkpoint(params, vocab, adam=adam, iterations=iterations, seed=seed)


@dataclass
class MetricRecord:
    step: int
    split: str
    loss: float
    accuracy: float

    def to_line(self) -> str:
        return (
            f"step={self.step} split={self.split} "
            f"loss={self.loss:.10g} accuracy={self.accuracy:.10g}"
        )


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    records: list[MetricRecord]
    truncated_sentences: int = 0

    @property
    def valid_records(self):
        return [r for r in self.records if r.split == "valid"]

    def summary_lines(self) -> list[str]:
        lines = []
        valids = self.valid_records
        if valids:
            best = max(valids, key=lambda r: r.accuracy)
            last = valids[-1]
            lines.append(
                f"summary=valid best_accuracy={best.accuracy:.10g} best_step={best.step} "
                f"final_accuracy={last.accuracy:.10g} final_step={last.step}"
            )
        if self.truncated_sentences:
            lines.append(f"summary=train truncated_sentences={self.truncated_sentences}")
        return lines


def _shuffled_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Endless deterministic batch index stream, reshuffling every epoch."""
    queue: list[int] = []
    while True:
        while len(queue) < batch_size:
            queue.extend(rng.permutation(n).tolist())
        yield queue[:batch_size]
        del queue[:batch_size]


def _split_metrics(params: ModelParams, encoded) -> tuple[float, float]:
    """Mean-per-token loss and accuracy over a whole encoded split."""
    token_ids, tag_ids = zip(*encoded)
    order, log_probs = zip(*_batched_log_probs(params, token_ids))
    gold = np.concatenate([tag_ids[i] for i in order])
    log_probs = np.concatenate(log_probs)
    mask = np.ones(len(gold))
    loss, _ = cross_entropy_loss(log_probs, gold, mask)
    return loss, token_accuracy(log_probs, gold, mask)


def _pad(rows):
    """Stack id rows of different lengths into a (B, T) int64 array, T the
    longest row, each row padded at its end with 0; the float mask is 1.0
    on the real positions and 0.0 on the padding."""
    lengths = [len(row) for row in rows]
    out = np.zeros((len(rows), max(lengths)), dtype=np.int64)
    mask = np.zeros(out.shape)
    for b, (row, n) in enumerate(zip(rows, lengths)):
        out[b, :n] = row
        mask[b, :n] = 1.0
    return out, mask


def _batched_log_probs(params: ModelParams, rows):
    """Yield (i, log_probs[len(rows[i]), K]) for every non-empty id row,
    batch by batch.

    The rows run through model_forward in batches of similar length: sorted
    by length, a batch takes the next rows while their count times the
    longest one stays within INFERENCE_POSITIONS (a longer row runs alone).
    Shorter rows are padded at the end, after their last real position, so
    the padding does not change their values.  A batch with a non-finite
    log-prob raises NonFiniteOutputError.  Only one batch is held at a
    time, so a caller that reduces each row as it comes keeps the memory of
    one batch, not of every row.
    """
    lengths = [len(row) for row in rows]
    order = sorted((i for i, n in enumerate(lengths) if n), key=lengths.__getitem__)
    start = 0
    while start < len(order):
        stop = start + 1  # the rows are sorted, so order[stop - 1] is the batch's longest
        while stop < len(order) and (stop + 1 - start) * lengths[order[stop]] <= INFERENCE_POSITIONS:
            stop += 1
        batch = order[start:stop]
        ids, mask = _pad([rows[i] for i in batch])
        with np.errstate(over="ignore", invalid="ignore"):  # reported once below, not as warnings
            log_probs, _ = model_forward(params, ids, mask)
        if not np.isfinite(log_probs).all():
            raise NonFiniteOutputError()
        for b, i in enumerate(batch):
            yield i, log_probs[b, : lengths[i]]
        start = stop


def train(
    train_split: list[TaggedSentence],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    valid_split: list[TaggedSentence] | None = None,
) -> TrainResult:
    """Run `iterations` Adam steps over shuffled batches of the training split.

    The vocabulary is built from the training split; model_cfg.vocab_size
    is replaced by the real vocabulary size.  Sentences are cut to max_len
    tokens, and each batch is padded to its longest (cut) sentence.  Batch
    loss is the mean over masked tokens of the whole batch.  Validation
    loss/accuracy are recorded every eval_every steps.  Non-finite loss,
    gradients or validation log-probs abort with TrainingDivergedError
    carrying the records so far and the last good checkpoint: the state
    before a step whose gradient is non-finite, else the state after the
    last validation that passed, else the initial state.
    """
    if not train_split:
        raise ValueError("training split is empty")
    vocab = build_vocab(train_split)
    max_len = train_cfg.max_len or max(len(s) for s in train_split)
    cfg = dataclasses.replace(model_cfg, vocab_size=len(vocab))
    params = init_params(cfg)
    state = Checkpoint(params, vocab, AdamState.for_params(params), seed=train_cfg.seed)

    encoded = [encode_sentence(s, vocab, max_len) for s in train_split]
    truncated = sum(1 for s in train_split if len(s) > max_len)
    encoded_valid = (
        [encode_sentence(s, vocab, len(s)) for s in valid_split] if valid_split else []
    )

    rng = np.random.default_rng(train_cfg.seed)
    batches = _shuffled_batches(len(encoded), train_cfg.batch_size, rng)
    records: list[MetricRecord] = []
    good = None  # a copy of the state after the last validation that passed

    def diverged(reason, fallback):
        """The error for this step, carrying fallback or else the initial state."""
        if fallback is None:
            initial = init_params(cfg)  # bit-identical to the state before step 1
            fallback = Checkpoint(initial, vocab, AdamState.for_params(initial), seed=train_cfg.seed)
        return TrainingDivergedError(step, reason, TrainResult(fallback, records, truncated))

    for step in range(1, train_cfg.iterations + 1):
        batch = next(batches)
        ids, m = _pad([encoded[i][0] for i in batch])
        gold, _ = _pad([encoded[i][1] for i in batch])
        with np.errstate(over="ignore", invalid="ignore"):  # reported once below, not as warnings
            log_probs, caches = model_forward(params, ids, m)
            batch_loss, d_log_probs = cross_entropy_loss(log_probs, gold, m)
        if not np.isfinite(batch_loss):
            raise diverged("non-finite loss", good)
        records.append(MetricRecord(step, "train", batch_loss, token_accuracy(log_probs, gold, m)))
        grads = model_backward(params, caches, d_log_probs)
        try:
            adam_step(params, grads, state.adam, train_cfg)
        except NonFiniteGradientError as exc:  # state is still the one after step - 1
            raise diverged(str(exc), state) from exc
        state.iterations = step
        if encoded_valid and step % train_cfg.eval_every == 0:
            try:
                vloss, vacc = _split_metrics(params, encoded_valid)
            except NonFiniteOutputError as exc:
                raise diverged(str(exc), good) from exc
            records.append(MetricRecord(step, "valid", vloss, vacc))
            good = None  # free the old copy first: at most one is held beside the live state
            good = dataclasses.replace(
                state, params=copy.deepcopy(params), adam=copy.deepcopy(state.adam)
            )

    return TrainResult(state, records, truncated)


@dataclass
class CategoryScore:
    gold: int = 0
    predicted: int = 0
    matched: int = 0

    @property
    def precision(self) -> float:
        return self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.matched / self.gold if self.gold else 0.0


@dataclass
class EvalResult:
    token_accuracy: float
    category_scores: dict[str, CategoryScore]
    confusion: np.ndarray  # [gold tag id, predicted tag id] counts

    def top_confusions(self):
        """The five largest off-diagonal confusion cells as (gold, predicted, count)."""
        off = self.confusion * (1 - np.eye(len(self.confusion), dtype=np.int64))
        cells = [(str(id_to_tag(g)), str(id_to_tag(p)), int(off[g, p])) for g, p in zip(*off.nonzero())]
        return sorted(cells, key=lambda c: (-c[2], c[0], c[1]))[:5]


def _spans_lenient(tags) -> list[EntitySpan]:
    """Spans from a possibly ill-formed sequence: a strict decode when the
    grammar holds, otherwise each maximal same-category run is one span."""
    with contextlib.suppress(InvalidTagSequenceError):
        return decode_spans(tags)
    spans, start = [], 0
    for category, run in itertools.groupby(tags, key=lambda tag: tag.category):
        n = len(list(run))
        if category is not None:
            spans.append(EntitySpan(start, start + n - 1, category))
        start += n
    return spans


def evaluate(ckpt: Checkpoint, sentences: list[TaggedSentence]) -> EvalResult:
    """Token accuracy, per-category span precision/recall, confusion counts.

    Token accuracy is micro-averaged over every token of the split.  Span
    scores compare exact (start, end, category) triples; predictions are
    decoded leniently since the model may emit ill-formed transitions.
    """
    if not sentences:
        raise ValueError("evaluation split is empty")
    K = ckpt.config.num_classes
    confusion = np.zeros((K, K), dtype=np.int64)
    scores = {c: CategoryScore() for c in CATEGORIES}
    encoded = [encode_sentence(s, ckpt.vocab, len(s)) for s in sentences]
    for k, log_probs in _batched_log_probs(ckpt.params, [token_ids for token_ids, _ in encoded]):
        s, tag_ids = sentences[k], encoded[k][1]
        pred_ids = np.argmax(log_probs, axis=1)
        np.add.at(confusion, (tag_ids, pred_ids), 1)
        pred_tags = [ALL_TAGS[i] for i in pred_ids.tolist()]
        gold_spans = set(_spans_lenient(s.tags))
        pred_spans = set(_spans_lenient(pred_tags))
        for span in gold_spans:
            scores[span.category].gold += 1
        for span in pred_spans:
            scores[span.category].predicted += 1
            if span in gold_spans:
                scores[span.category].matched += 1
    return EvalResult(float(np.trace(confusion) / confusion.sum()), scores, confusion)


def predict_lines(ckpt: Checkpoint, lines: list[list[str]]) -> list[list[Tag]]:
    """Tag pre-tokenized sentences, all through batched forward passes;
    tokens are normalized before lookup, and an empty sentence gets no tags."""
    rows = [[ckpt.vocab.lookup(normalize_text(t)) for t in tokens] for tokens in lines]
    tags = [[] for _ in lines]
    for i, log_probs in _batched_log_probs(ckpt.params, rows):
        tags[i] = [ALL_TAGS[k] for k in np.argmax(log_probs, axis=1).tolist()]
    return tags


def predict_tags(ckpt: Checkpoint, raw_tokens: list[str]) -> list[Tag]:
    """Tag one pre-tokenized sentence; tokens are normalized before lookup."""
    return predict_lines(ckpt, [raw_tokens])[0]
