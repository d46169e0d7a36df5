"""Seeded synthetic Arabic NER corpus in arabner's CSV layout.

Words and tags are drawn from a generator seeded with the caller's seed,
diacritics from one seeded with ``[seed, 1]`` and sentence lengths from one
seeded with ``LENGTH_SEED``, so the same seed writes byte-identical files.
The program under test only ever sees the files this module writes.

Make-up of a corpus (see README.md for the realized figures):

- Words are random strings of Arabic letters (U+0621..U+063A,
  U+0641..U+064A).  Each occurrence is written with random Tashkil and
  Tanween marks (U+064B..U+0652), so ``normalize_text`` has real work and
  several spellings share one vocabulary entry.
- The lexicon splits into one general list for ``O`` tokens and one list
  per entity category.  Every lexicon word occurs at least once in the
  training split, so the normalized training vocabulary has exactly
  ``spec.vocab`` entries; the remaining slots draw Zipf-distributed words.
- Entities of all nine categories are single-token (``S-``) or two to
  four tokens long (``B- I- E-``).
- Sentence lengths follow the spec's distribution and are nudged so the
  token total is exact and the longest sentence is exactly ``max_len``.
  They are drawn from a fixed stream, the same for every seed.
"""

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATEGORIES = ("PER", "GPE", "LOC", "ORG", "TIM", "PRO", "MISC", "DIS", "GEO")
LETTERS = [chr(c) for c in range(0x0621, 0x063B)] + [chr(c) for c in range(0x0641, 0x064B)]
MARKS = [chr(c) for c in range(0x064B, 0x0653)]

ENTITY_START_RATE = 0.06  # chance that an entity starts at a free position
SINGLE_SHARE = 0.4  # share of entities that are one token (S-)
ZIPF_EXPONENT = 1.0
MARK_RATE = 0.5  # chance that a letter carries a diacritic
# Sentence lengths come from this fixed stream, whatever the run's seed, so
# every run of a workload does the same amount of work.
LENGTH_SEED = 0


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one training split; lengths are gamma-distributed around the
    mean, clipped to [min_len, max_len] (gamma_shape=None: uniform)."""

    sentences: int
    tokens: int
    vocab: int  # normalized word types in the training split, PAD/UNK excluded
    category_words: int  # lexicon words per entity category, part of ``vocab``
    min_len: int
    max_len: int
    gamma_shape: float | None


SPECS = {
    # paper scale: ~2.1k sentences, 36k tokens, V = 11735 + PAD + UNK = 11737,
    # mean length ~17 with a tail to 34, so padding to 34 wastes about half
    "paper": CorpusSpec(2100, 36000, 11735, 250, 3, 34, 4.0),
    # same tokens and vocabulary, ~7k sentences of 2-8 tokens
    "short": CorpusSpec(7000, 36000, 11735, 250, 2, 8, None),
    # tiny corpus for --smoke
    "tiny": CorpusSpec(60, 600, 300, 1, 2, 16, 4.0),
}


@dataclass
class Sentence:
    words: list[str]  # base (undiacritized) words
    tags: list[str]


class Lexicon:
    """General and per-category word lists with Zipf sampling weights."""

    def __init__(self, rng: np.random.Generator, general: int, per_category: int, oov: int):
        words = _unique_words(rng, general + per_category * len(CATEGORIES) + oov)
        self.general = words[:general]
        self.category = {}
        at = general
        for c in CATEGORIES:
            self.category[c] = words[at : at + per_category]
            at += per_category
        self.oov = words[at:]

    def draw(self, rng, pool: list[str], n: int) -> list[str]:
        weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_EXPONENT
        idx = rng.choice(len(pool), size=n, p=weights / weights.sum())
        return [pool[i] for i in idx]


def _unique_words(rng, n: int) -> list[str]:
    seen = set()
    out = []
    while len(out) < n:
        length = int(rng.integers(2, 8))
        w = "".join(LETTERS[i] for i in rng.integers(0, len(LETTERS), size=length))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _lengths(rng, spec: CorpusSpec, sentences: int, tokens: int) -> list[int]:
    lo, hi = spec.min_len, spec.max_len
    mean = tokens / sentences
    if spec.gamma_shape is None:
        raw = rng.integers(lo, hi + 1, size=sentences)
    else:
        raw = np.rint(rng.gamma(spec.gamma_shape, (mean - lo) / spec.gamma_shape, size=sentences) + lo)
    lengths = np.clip(raw, lo, hi).astype(int)
    lengths[0] = hi  # the longest sentence, and so the padded length, is fixed
    diff = tokens - int(lengths.sum())
    while diff:
        i = int(rng.integers(1, sentences))
        step = 1 if diff > 0 else -1
        if lo <= lengths[i] + step <= hi:
            lengths[i] += step
            diff -= step
    order = rng.permutation(sentences)
    return [int(x) for x in lengths[order]]


def _tag_layout(rng, length: int) -> list[tuple[str, str | None]]:
    """(tag, category) per position; category None for O."""
    out = []
    i = 0
    while i < length:
        if rng.random() < ENTITY_START_RATE:
            cat = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
            span = 1 if rng.random() < SINGLE_SHARE else int(rng.integers(2, 5))
            span = min(span, length - i)
            if span == 1:
                out.append(("S-" + cat, cat))
            else:
                out.append(("B-" + cat, cat))
                out.extend(("I-" + cat, cat) for _ in range(span - 2))
                out.append(("E-" + cat, cat))
            i += span
        else:
            out.append(("O", None))
            i += 1
    return out


def _fill(rng, lex: Lexicon, layouts, cover: bool, oov_share: float) -> list[Sentence]:
    """Choose a word for every slot.  With ``cover`` every lexicon word is
    placed once first, so each appears in the split at least once."""
    slots: dict[str | None, list[tuple[int, int]]] = {}
    for si, layout in enumerate(layouts):
        for ti, (_, cat) in enumerate(layout):
            slots.setdefault(cat, []).append((si, ti))
    words = [[""] * len(layout) for layout in layouts]
    for cat, where in slots.items():
        pool = lex.general if cat is None else lex.category[cat]
        order = rng.permutation(len(where))
        forced = pool if cover else []
        if len(forced) > len(where):
            raise ValueError(f"category {cat}: {len(where)} slots cannot hold {len(forced)} words")
        drawn = lex.draw(rng, pool, len(where) - len(forced))
        for k, w in zip(order, list(forced) + drawn):
            si, ti = where[k]
            words[si][ti] = w
    if oov_share:
        for si, ws in enumerate(words):
            for ti in range(len(ws)):
                if rng.random() < oov_share:
                    ws[ti] = lex.oov[int(rng.integers(len(lex.oov)))]
    return [Sentence(ws, [t for t, _ in layout]) for ws, layout in zip(words, layouts)]


def diacritize(rng, word: str) -> str:
    """Insert random Tashkil/Tanween after letters; normalization undoes it."""
    out = []
    for ch in word:
        out.append(ch)
        if rng.random() < MARK_RATE:
            out.append(MARKS[int(rng.integers(len(MARKS)))])
    return "".join(out)


def make_split(rng, length_rng, lex, spec: CorpusSpec, sentences: int, tokens: int, cover: bool, oov_share=0.0):
    layouts = [_tag_layout(rng, n) for n in _lengths(length_rng, spec, sentences, tokens)]
    return _fill(rng, lex, layouts, cover, oov_share)


def span_counts(sentences: list[Sentence]) -> Counter:
    """Entities per category, counted from the generator's own tags."""
    return Counter(t[2:] for s in sentences for t in s.tags if t[0] in "BS")


def tag_entropy(sentences: list[Sentence]) -> float:
    """Entropy in nats of the unigram tag distribution."""
    counts = Counter(t for s in sentences for t in s.tags)
    total = sum(counts.values())
    return -sum(n / total * math.log(n / total) for n in counts.values())


def write_csv(rng, sentences: list[Sentence], path: Path, file_name: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["file_name", "sentence", "word", "tag"])
        for i, s in enumerate(sentences, 1):
            for word, tag in zip(s.words, s.tags):
                w.writerow([file_name, i, diacritize(rng, word), tag])


def write_raw(rng, sentences: list[Sentence], path: Path, blank_every: int = 50) -> list[list[str]]:
    """One whitespace-tokenized diacritized sentence per line, with a blank
    line (skipped by ``predict``) after every ``blank_every`` sentences.
    Returns the raw token lists in file order."""
    lines, raw = [], []
    for i, s in enumerate(sentences, 1):
        toks = [diacritize(rng, w) for w in s.words]
        raw.append(toks)
        lines.append(" ".join(toks))
        if i % blank_every == 0:
            lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return raw


@dataclass
class Generated:
    train: list[Sentence]
    held_out: list[Sentence]
    predict_sentences: list[Sentence]
    corpus_dir: Path
    held_out_dir: Path
    predict_path: Path
    predict: list[list[str]] | None = None  # raw tokens of each predict line, set by write()


def build(seed: int, spec_name: str, out: Path, held_out: int, predict: int, oov_share: float) -> Generated:
    """Draw the training, held-out and predict sentences.  Held-out and
    predict sentences follow the training length distribution; ``oov_share``
    of their tokens are words that never occur in training."""
    spec = SPECS[spec_name]
    rng = np.random.default_rng(seed)
    length_rng = np.random.default_rng(LENGTH_SEED)
    general = spec.vocab - spec.category_words * len(CATEGORIES)
    lex = Lexicon(rng, general, spec.category_words, oov=max(200, spec.vocab // 4))
    mean = spec.tokens / spec.sentences
    train = make_split(rng, length_rng, lex, spec, spec.sentences, spec.tokens, cover=True)
    held = make_split(rng, length_rng, lex, spec, held_out, round(held_out * mean), cover=False, oov_share=oov_share)
    pred = make_split(rng, length_rng, lex, spec, predict, round(predict * mean), cover=False, oov_share=oov_share)
    return Generated(train, held, pred, out / "train", out / "held_out", out / "predict.txt")


def write(gen: Generated, seed: int) -> None:
    """Write ``train/part1.csv``, ``held_out/part1.csv`` and ``predict.txt``
    with diacritics drawn from their own seeded stream."""
    rng = np.random.default_rng([seed, 1])
    write_csv(rng, gen.train, gen.corpus_dir / "part1.csv", "train")
    write_csv(rng, gen.held_out, gen.held_out_dir / "part1.csv", "held_out")
    gen.predict = write_raw(rng, gen.predict_sentences, gen.predict_path)
