"""Operations of the three workloads and the metrics computed from them.

A run performs a prologue (the long training that gives the model and its
final loss), then repeats whole rounds until ``--seconds`` have passed since
the corpus was written, and at least ``min_rounds`` rounds ran.  Every round
performs the same operations, so per-round counts repeat exactly.  Each
reported time is a median over many samples spread across the run: the
host's speed changes from one second to the next, so the short operations
of a round run in ``SLICES`` slices placed between its long operations
rather than in one block.
"""

import contextlib
import functools
import gc
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from arabner import cli, corpus, model, training
from arabner.bioes import parse_tag, validate_sequence  # unwrapped: checks stay out of the trace

import reference
import synth
from reference import check
from tracer import SetupDone, Tracer


@dataclass(frozen=True)
class Plan:
    cell: str
    spec: str  # synth.SPECS key of the training corpus
    held_out: int  # evaluation sentences, one ``evaluate`` call on a quarter of them per slice
    predict: int  # non-empty lines of the predict input file
    train_steps: int  # Adam steps of the one long train() call that gives train_loss_final
    loss_window: int  # last steps of that call whose batch losses are averaged
    round_steps: int  # Adam steps of the short train() call in every round
    singles: int  # predict_tags calls per slice, on successive lines of the predict file
    min_rounds: int
    prepared: bool = False  # train and save in a separate preparation process


OOV_SHARE = 0.1
SLICES = 4  # slices per round; each saves once (train workloads), loads once, evaluates and tags
PREPARE_SETUPS = 12  # set-ups of the preparation process, each followed by a save

PLANS = {
    # reference configuration at paper scale; the recurrent loop dominates
    "train-lstm-paper": Plan(
        cell="lstm", spec="paper", held_out=100, predict=100, train_steps=100, loss_window=50, round_steps=8,
        singles=32, min_rounds=8,
    ),
    # short sentences: V x E gradient buffers and Adam dominate
    "train-gru-short": Plan(
        cell="gru", spec="short", held_out=300, predict=300, train_steps=400, loss_window=170, round_steps=20,
        singles=43, min_rounds=6,
    ),
    # forward-only path on a checkpoint trained by a preparation process
    "tag-file": Plan(
        cell="lstm", spec="paper", held_out=200, predict=2000, train_steps=100, loss_window=50, round_steps=0,
        singles=63, min_rounds=4, prepared=True,
    ),
}
SMOKE_PLANS = {
    name: Plan(
        cell=p.cell, spec="tiny", held_out=12, predict=10, train_steps=80, loss_window=10, round_steps=2,
        singles=5, min_rounds=1, prepared=p.prepared,
    )
    for name, p in PLANS.items()
}


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Session:
    """One process's share of a run: its operations, samples and checks."""

    def __init__(self, plan: Plan, gen: synth.Generated, held_out, work: Path, seed: int, tracer: Tracer):
        self.plan = plan
        self.gen = gen
        self.held_out = held_out  # TaggedSentences read before tracing starts
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.ckpt_path = work / "model.ckpt"
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.ckpt = None
        self.loss = None
        self.first_output = None
        self.predicted_tags = None
        self.invalid_predicted = None
        self.ckpt_bytes = None
        self.accuracies = []  # (sentences, evaluate accuracy) of the first round, checked by final_checks
        self.spans_checked = False
        self.rounds_start = 0.0
        self.read_rows = sum(len(s.words) for s in gen.train)
        self.entropy = synth.tag_entropy(gen.train)
        self.predict_tokens = sum(len(t) for t in gen.predict or [])

    def add(self, key, value):
        self.samples.setdefault(key, []).append(value)

    # -- operations ------------------------------------------------------

    def set_up(self, iterations=1):
        """Read the corpus and run train() up to its first forward pass."""
        start = time.perf_counter()
        sentences, report = corpus.read_corpus(self.gen.corpus_dir)
        check(report.clean, f"generated corpus has load issues: {report.issues[:3]}")
        self.tracer.stop_after_setup = iterations == 1
        try:
            result = training.train(
                sentences,
                model.ModelConfig(self.plan.cell, vocab_size=2, seed=self.seed),
                training.TrainConfig(iterations=iterations, seed=self.seed),
            )
        except SetupDone:
            result = None
        finally:
            self.tracer.stop_after_setup = False
        self.add("setup_s", self.tracer.first_forward_at - start)
        if not self.spans_checked:
            self._check_spans(sentences)
            self.spans_checked = True
        return result

    def _check_spans(self, sentences):
        got = Counter(tag.category for s in sentences for tag in s.tags if tag.prefix in ("B", "S"))
        check(got == synth.span_counts(self.gen.train), "gold span counts differ from the generator's")

    def _timed_steps(self, iterations):
        before = len(self.tracer.steps)
        result = self.set_up(iterations)
        steps = self.tracer.steps[before:]
        check(len(steps) == iterations, f"{len(steps)} steps timed for {iterations} iterations")
        for s, e, tokens, _ in steps:
            self.add("step_ms", (e - s) * 1e3)
            self.add("step_tokens", tokens)
        return result

    def train_long(self):
        """The trained model every later operation uses, and its final loss."""
        result = self._timed_steps(self.plan.train_steps)
        losses = [r.loss for r in result.records if r.split == "train"]
        self.loss = float(np.mean(losses[-self.plan.loss_window :]))
        check(self.loss < self.entropy, f"final loss {self.loss:.4f} not below the tag entropy {self.entropy:.4f}")
        self.ckpt = result.checkpoint

    def train_short(self):
        self._timed_steps(self.plan.round_steps)

    def save(self, part=0):  # a slice passes its index to every short operation; saves ignore it
        start = time.perf_counter()
        training.save_checkpoint(self.ckpt, self.ckpt_path)
        self.add("save_ms", (time.perf_counter() - start) * 1e3)
        self.ckpt_bytes = self.ckpt_path.stat().st_size

    def load(self, part):
        start = time.perf_counter()
        loaded = training.load_checkpoint(self.ckpt_path)
        self.add("load_ms", (time.perf_counter() - start) * 1e3)
        # Every load sees the same allocator state: the model in use stays,
        # and the previous load's copy has been freed.
        if self.ckpt is None:  # prepared checkpoint: the first load is the model in use
            self.ckpt = loaded
        elif part == 0:
            self._check_round_trip(loaded)

    def _check_round_trip(self, loaded):
        pairs = list(zip(self.ckpt.params.named_tensors(), loaded.params.named_tensors()))
        adam = self.ckpt.adam
        for name in adam.m:
            pairs.append(((name, adam.m[name]), (name, loaded.adam.m[name])))
            pairs.append(((name, adam.v[name]), (name, loaded.adam.v[name])))
        for (name, a), (name2, b) in pairs:
            check(name == name2 and a.shape == b.shape and a.tobytes() == b.tobytes(), f"tensor {name} changed in a save/load round trip")
        check(loaded.vocab == self.ckpt.vocab and loaded.adam.t == adam.t, "vocabulary or optimizer step changed in a round trip")

    def evaluate(self, part):
        size = math.ceil(len(self.held_out) / SLICES)
        chunk = self.held_out[part * size : (part + 1) * size]
        start = time.perf_counter()
        result = training.evaluate(self.ckpt, chunk)
        self.add("eval_s", time.perf_counter() - start)
        self.add("eval_tokens", sum(len(s) for s in chunk))
        if self.rounds == 0:
            self.accuracies.append((chunk, result.token_accuracy))

    def predict_file(self):
        out_path = self.work / "predict.out"
        with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main(["predict", "--ckpt", str(self.ckpt_path), "--input", str(self.gen.predict_path)])
            elapsed = time.perf_counter() - start
        check(code == 0, f"arabner predict exited {code}")
        self.add("predict_file_s", elapsed)
        self.add("predict_file_tokens", self.predict_tokens)
        text = out_path.read_text(encoding="utf-8")
        if self.first_output is not None:
            check(text == self.first_output, "predict output changed between identical calls")
            return
        tags = reference.parse_predict_output(text, self.gen.predict)
        self.invalid_predicted = sum(validate_sequence([parse_tag(t) for t in row]) is not None for row in tags)
        self.first_output = text
        self.predicted_tags = tags

    def final_checks(self):
        """Checks against the reference forward pass, run after the timed
        rounds so its copy of the checkpoint stays out of ``peak_rss_mb``.
        Every save writes the same model, so the file on disk is the one
        the first round evaluated and tagged with."""
        ref = reference.Reference(self.ckpt_path)
        for chunk, accuracy in self.accuracies:
            correct, total = ref.correct_tokens(chunk)
            check(abs(accuracy - correct / total) < 1e-12, f"evaluate accuracy {accuracy} != reference {correct}/{total}")
        tags = self.predicted_tags or []
        for i in range(0, len(tags), max(1, len(tags) // 40)):
            check(ref.agrees(self.gen.predict[i], tags[i]), f"predict line {i} disagrees with the reference forward pass")

    def singles(self, part):
        raw = self.gen.predict
        for i in range(part * self.plan.singles, (part + 1) * self.plan.singles):
            k = i % len(raw)
            start = time.perf_counter()
            tags = training.predict_tags(self.ckpt, raw[k])
            self.add("predict_ms", (time.perf_counter() - start) * 1e3)
            check([str(t) for t in tags] == self.predicted_tags[k], f"predict_tags disagrees with arabner predict on line {k}")

    # -- rounds ---------------------------------------------------------

    def round_ops(self):
        """The long operations, each followed by a slice of the short ones;
        ``predict_file`` comes first, since ``singles`` checks against its output."""
        if self.plan.prepared:
            long, short = [self.predict_file], [self.load, self.evaluate, self.singles]
        else:
            long, short = [self.predict_file, self.set_up, self.train_short], [self.save, self.load, self.evaluate, self.singles]
        ops = []
        for part in range(SLICES):
            ops += long[part : part + 1] + [functools.partial(op, part) for op in short]
        return ops

    def prologue_ops(self):
        if self.plan.prepared:
            return []
        return [self.train_long, self.save]

    def prepare_ops(self):
        return [self.train_long] + [self.set_up, self.save] * PREPARE_SETUPS

    def run_ops(self, ops) -> None:
        """Run ``ops`` in order; an operation that raises fails itself and the rest."""
        planned = [self._op_count(op) for op in ops]
        self.attempted += sum(planned)
        gc.collect()  # every round starts from the same collector state
        for i, op in enumerate(ops):
            try:
                op()
            except reference.CheckFailed:
                raise
            except Exception:  # an operation of the program failed; count it
                traceback.print_exc(file=sys.stderr)
                self.failed += sum(planned[i:])
                break

    def _op_count(self, op):
        p = self.plan
        counts = {
            "set_up": 1, "train_long": p.train_steps + 1, "train_short": p.round_steps + 1,
            "save": 1, "load": 1, "evaluate": 1, "predict_file": 1, "singles": p.singles,
        }
        return counts[getattr(op, "func", op).__name__]

    def run_rounds(self, deadline: float) -> None:
        """Prologue, then whole rounds until ``deadline`` (a perf_counter time)."""
        self.run_ops(self.prologue_ops())
        self.rounds_start = time.perf_counter()
        while self.rounds < self.plan.min_rounds or time.perf_counter() < deadline:
            self.run_ops(self.round_ops())
            self.rounds += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(samples: dict[str, list[float]], loss: float, peak_mb: float) -> dict[str, float]:
    """Times are medians or percentiles of the samples; rates are total work
    over total time, as a user waiting for all of it sees them."""
    s = samples
    return {
        "setup_s": statistics.median(s["setup_s"]),
        "train_tokens_per_s": sum(s["step_tokens"]) / (sum(s["step_ms"]) / 1e3),
        "train_step_ms.p50": statistics.median(s["step_ms"]),
        "train_step_ms.p90": percentile(s["step_ms"], 90),
        "train_loss_final": loss,
        "eval_tokens_per_s": sum(s["eval_tokens"]) / sum(s["eval_s"]),
        "ckpt_save_ms.p50": statistics.median(s["save_ms"]),
        "ckpt_load_ms.p50": statistics.median(s["load_ms"]),
        "predict_file_tokens_per_s": sum(s["predict_file_tokens"]) / sum(s["predict_file_s"]),
        "predict_ms.p50": statistics.median(s["predict_ms"]),
        "predict_ms.p99": percentile(s["predict_ms"], 99),
        "peak_rss_mb": peak_mb,
    }
