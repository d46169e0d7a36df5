"""Hooks around arabner's public functions, installed where callers look
the names up (``training`` imports ``model_forward`` by name, ``cli``
imports ``predict_tags`` by name, and so on).

Untraced runs install only the step clock: ``train`` entry, the first
``model_forward`` of each ``train`` call (the end of set-up) and the end of
every ``adam_step`` (the end of a step).  That costs a few microseconds per
step of about 100 ms.

Traced runs add one span per wrapped call (name, start, end, parent) and
count, without timing, the per-timestep kernels.  The parent of a span is
the innermost open span: a synthetic ``training.step`` span for work inside
a train step, otherwise the evaluate, predict or checkpoint call that made
it.  Spans stay in memory until ``write_spans``.
"""

import gzip
import json
import statistics
import time
from collections import Counter, defaultdict

from arabner import bioes, cli, corpus, model, training

STEP = "training.step"

# span name -> (defining module, attribute, modules where callers look it up)
TIMED = {
    "textnorm.normalize_text": ("normalize_text", [corpus, training, cli]),
    "corpus.read_corpus": ("read_corpus", [corpus, cli]),
    "corpus.build_vocab": ("build_vocab", [corpus, training]),
    "corpus.encode_sentence": ("encode_sentence", [corpus, training]),
    "bioes.validate_sequence": ("validate_sequence", [bioes, corpus, training]),
    "model.init_params": ("init_params", [model, training]),
    "model.model_backward": ("model_backward", [model, training]),
    "model.zero_gradients": ("zero_gradients", [model, training]),
    "training.cross_entropy_loss": ("cross_entropy_loss", [training]),
    "training.token_accuracy": ("token_accuracy", [training]),
    "training.evaluate": ("evaluate", [training, cli]),
    "training.save_checkpoint": ("save_checkpoint", [training, cli]),
    "training.load_checkpoint": ("load_checkpoint", [training, cli]),
    "training.predict_tags": ("predict_tags", [training, cli]),
    "cli.predict": ("cmd_predict", [cli]),
}
# called tens of thousands of times per step: counted only, never timed
COUNTED = {
    "numerics.affine": ("affine", [model]),
    "numerics.sigmoid": ("sigmoid", [model]),
    "numerics.tanh": ("tanh", [model]),
    "numerics.log_softmax": ("log_softmax", [model]),
    "model.lstm_step": ("lstm_step", [model]),
    "model.gru_step": ("gru_step", [model]),
}


class SetupDone(Exception):
    """Raised from the first forward pass of a set-up probe to stop ``train``."""


class Tracer:
    """Installs the hooks on enter and restores every original on exit."""

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.step_counts = Counter()  # counted calls made inside train steps
        self.steps: list[tuple[float, float, float, int]] = []  # start, end, real tokens, positions
        self.stop_after_setup = False
        self.first_forward_at = None
        self._in_train = False
        self._step_start = None
        self._step_span = None
        self._tokens = 0.0
        self._positions = 0
        self._saved = []

    # -- installation -------------------------------------------------

    def __enter__(self):
        self._patch("model_forward", [training], self._forward_hook(self._timed("model.model_forward", training.model_forward)))
        self._patch("adam_step", [training], self._adam_hook(self._timed("training.adam_step", training.adam_step)))
        self._patch("train", [training], self._train_hook(self._timed("training.train", training.train)))
        if self.full:
            for name, (attr, modules) in TIMED.items():
                self._patch(attr, modules, self._timed(name, getattr(modules[0], attr)))
            for name, (attr, modules) in COUNTED.items():
                self._patch(attr, modules, self._counted(name, getattr(modules[0], attr)))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, attr, modules, wrapper):
        for m in modules:
            self._saved.append((m, attr, getattr(m, attr)))
            setattr(m, attr, wrapper)

    # -- spans --------------------------------------------------------

    def _open(self, name, start):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, None, parent])
        self.stack.append(len(self.spans) - 1)

    def _close(self, end):
        self.spans[self.stack.pop()][2] = end

    def _timed(self, name, fn):
        if not self.full:
            return fn

        def wrapper(*args, **kwargs):
            self._open(name, time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(time.perf_counter())

        return wrapper

    def _counted(self, name, fn):
        counts = self.step_counts

        def wrapper(*args, **kwargs):
            if self._step_span is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- step clock ---------------------------------------------------

    def _train_hook(self, fn):
        def wrapper(*args, **kwargs):
            self._in_train = True
            self._step_start = None
            self.first_forward_at = None
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_train = False

        return wrapper

    def _forward_hook(self, fn):
        def wrapper(params, token_ids, mask=None):
            if self._in_train:
                if self._step_start is None:
                    self.first_forward_at = self._step_start = time.perf_counter()
                    if self.stop_after_setup:
                        raise SetupDone
                    self._tokens, self._positions = 0.0, 0
                if self.full and self._step_span is None:
                    self._open(STEP, self._step_start)
                    self._step_span = self.stack[-1]
                self._tokens += float(mask.sum())
                self._positions += len(token_ids)
            return fn(params, token_ids, mask)

        return wrapper

    def _adam_hook(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._in_train:
                end = time.perf_counter()
                self.steps.append((self._step_start, end, self._tokens, self._positions))
                if self._step_span is not None:
                    self._close(end)
                    self._step_span = None
                self._step_start = end
                self._tokens, self._positions = 0.0, 0
            return out

        return wrapper

    # -- results ------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON line per span, ``[index, name, start, end, parent]``, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")

    def layer_metrics(self, rounds: int, rounds_start: float, read_rows: int) -> dict[str, float]:
        """Per-layer figures from the spans; only those with samples.

        Per-step figures cover spans under a ``training.step`` span and are
        divided by the number of steps.  Per-round figures cover spans that
        start at or after ``rounds_start`` and are divided by the number of
        rounds; every round runs the same operations.
        """
        spans = self.spans
        n = len(spans)
        dur = [(e - s) * 1e3 for _, s, e, _ in spans]
        child = [0.0] * n
        step_of = [-1] * n
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
                step_of[i] = step_of[parent]
            if name == STEP:
                step_of[i] = i
        self_ms = [d - c for d, c in zip(dur, child)]

        calls = defaultdict(list)  # name -> span indexes
        for i, span in enumerate(spans):
            calls[span[0]].append(i)
        steps = len(calls[STEP])
        out = {}

        def per_call_median(key, name, values=None):
            idx = calls[name]
            if idx:
                out[key] = statistics.median(values(i) for i in idx) if values else statistics.median(dur[i] for i in idx)

        per_call_median("corpus.read_corpus.ms", "corpus.read_corpus")
        per_call_median("corpus.read_corpus.rows_per_s", "corpus.read_corpus", lambda i: read_rows / (dur[i] / 1e3))
        per_call_median("corpus.build_vocab.ms", "corpus.build_vocab")
        per_call_median("model.init_params.ms", "model.init_params")
        per_call_median("training.evaluate.self_ms", "training.evaluate", lambda i: self_ms[i])
        per_call_median("training.save_checkpoint.ms", "training.save_checkpoint")
        per_call_median("training.load_checkpoint.ms", "training.load_checkpoint")
        per_call_median("cli.predict.self_ms", "cli.predict", lambda i: self_ms[i])

        # encode time of each train() prologue (its direct encode_sentence children)
        prologue = defaultdict(float)
        for i in calls["corpus.encode_sentence"]:
            parent = spans[i][3]
            if parent >= 0 and spans[parent][0] == "training.train":
                prologue[parent] += dur[i]
        if prologue:
            out["corpus.encode_sentence.ms"] = statistics.median(prologue.values())

        for name in ("textnorm.normalize_text", "bioes.validate_sequence"):
            idx = [i for i in calls[name] if spans[i][1] >= rounds_start]
            if idx:
                out[f"{name}.calls"] = len(idx) / rounds
                out[f"{name}.self_ms"] = sum(self_ms[i] for i in idx) / rounds

        idx = calls["training.predict_tags"]
        if idx:
            out["training.predict_tags.self_ms_per_sentence"] = sum(self_ms[i] for i in idx) / len(idx)

        if steps:
            def in_steps(name, values):
                return sum(values[i] for i in calls[name] if step_of[i] >= 0) / steps

            def calls_in_steps(name):
                return sum(1 for i in calls[name] if step_of[i] >= 0) / steps

            out["training.train.self_ms_per_step"] = sum(self_ms[i] for i in calls[STEP]) / steps
            out["model.model_forward.calls_per_step"] = calls_in_steps("model.model_forward")
            out["model.model_forward.self_ms_per_step"] = in_steps("model.model_forward", self_ms)
            out["model.model_backward.self_ms_per_step"] = in_steps("model.model_backward", self_ms)
            out["model.zero_gradients.calls_per_step"] = calls_in_steps("model.zero_gradients")
            out["model.zero_gradients.ms_per_step"] = in_steps("model.zero_gradients", dur)
            for name in ("cross_entropy_loss", "token_accuracy", "adam_step"):
                out[f"training.{name}.ms_per_step"] = in_steps(f"training.{name}", dur)
            for name in COUNTED:
                key = f"{name}.calls_per_step"
                out[key] = self.step_counts[name] / steps
            positions = sum(p for _, _, _, p in self.steps)
            out["model.positions_per_step"] = positions / len(self.steps)
            out["model.useful_position_ratio"] = sum(t for _, _, t, _ in self.steps) / positions
        return out
