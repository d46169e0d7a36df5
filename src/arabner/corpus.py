"""Four-column CSV corpus reader, vocabulary builder, id encoding, statistics.

The corpus layout is one or more UTF-8 CSV files with the header
``file_name,sentence,word,tag``.  Rows sharing the same (file_name,
sentence) pair form one tagged sentence; words are normalized at load
time so the rest of the pipeline only ever sees normalized tokens.
"""

import csv
import itertools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bioes import CATEGORIES, Tag, TagParseError, parse_tag, tag_to_id, validate_sequence
from .textnorm import normalize_text

EXPECTED_HEADER = ["file_name", "sentence", "word", "tag"]


class CorpusFormatError(ValueError):
    """Structurally unreadable corpus file (header, column count, encoding)."""


@dataclass
class TaggedSentence:
    """Parallel normalized tokens and parsed tags, plus source identifiers."""

    tokens: list[str]
    tags: list[Tag]
    file_name: str = ""
    sentence_id: int = 0

    def __post_init__(self):
        if len(self.tokens) != len(self.tags) or not self.tokens:
            raise ValueError(
                f"need equal, nonzero token/tag counts, got {len(self.tokens)}/{len(self.tags)}"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class LoadIssue:
    path: str
    line: int  # 1-based physical line in the CSV (0 for sentence-level issues)
    message: str

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: {self.message}"


@dataclass
class LoadReport:
    issues: list[LoadIssue] = field(default_factory=list)
    dropped_sentences: int = 0

    @property
    def clean(self) -> bool:
        return not self.issues

    def add(self, path, line, message):
        self.issues.append(LoadIssue(str(path), line, message))


class Vocabulary:
    """Token-to-id bijection with PAD=0 and UNK=1 reserved."""

    PAD_ID = 0
    UNK_ID = 1
    PAD_TOKEN = "<PAD>"
    UNK_TOKEN = "<UNK>"

    def __init__(self, tokens: list[str]):
        """``tokens`` are the non-reserved entries, already in id order; they
        must be distinct strings, or lookups would collapse onto one id."""
        self.id_to_token = [self.PAD_TOKEN, self.UNK_TOKEN] + list(tokens)
        if not all(isinstance(tok, str) for tok in tokens):
            raise ValueError("vocabulary tokens must be strings")
        self.token_to_id = {tok: i + 2 for i, tok in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise ValueError("vocabulary repeats a token")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, self.UNK_ID)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token


def build_vocab(sentences: list[TaggedSentence]) -> Vocabulary:
    """Collect every token of the sentences.

    Ids are deterministic: descending frequency, ties broken by codepoint
    order, starting at 2 (after PAD and UNK).
    """
    counts = Counter(tok for s in sentences for tok in s.tokens)
    return Vocabulary(sorted(counts, key=lambda t: (-counts[t], t)))


def _read_rows(path: Path):
    """Yield (line, (file_name, sentence id), word, tag) for each row of one
    CSV file, ``line`` being the physical line the row ends on; structural
    problems raise."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusFormatError(f"{path}:1: missing header row") from None
            if [h.strip() for h in header] != EXPECTED_HEADER:
                raise CorpusFormatError(
                    f"{path}:1: expected header {','.join(EXPECTED_HEADER)!r}, got {','.join(header)!r}"
                )
            for row in reader:
                line = reader.line_num
                if not row:
                    continue  # stray blank line
                if len(row) != 4:
                    raise CorpusFormatError(f"{path}:{line}: expected 4 columns, got {len(row)}")
                file_name, sentence, word, tag = row
                try:
                    sentence_id = int(sentence)
                except ValueError:
                    raise CorpusFormatError(
                        f"{path}:{line}: sentence id {sentence!r} is not an integer"
                    ) from None
                yield line, (file_name, sentence_id), word, tag
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not valid UTF-8 ({exc})") from None
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise CorpusFormatError(f"{path}:{reader.line_num}: {exc}") from None
    except OSError as exc:
        raise CorpusFormatError(f"{path}: unreadable ({exc})") from None


def _corpus_files(path: Path) -> list[Path]:
    if path.is_file():
        return [path]
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".csv" and p.is_file())
        if not files:
            raise CorpusFormatError(f"{path}: no .csv files found")
        return files
    raise CorpusFormatError(f"{path}: no such file or directory")


def read_corpus(path: str | Path) -> tuple[list[TaggedSentence], LoadReport]:
    """Load every sentence under ``path`` (a CSV file or a directory of them).

    Grouping happens within each physical file: a sentence is a maximal
    run of rows sharing the (file_name, sentence) column pair.  A pair
    whose rows are split by other rows is reported, and each run is kept
    as its own sentence.  Words are normalized; tags are parsed.  A
    sentence with any unparseable tag (each reported at its line) or a
    BIOES grammar violation (reported once) is dropped and counted in
    ``dropped_sentences``.
    """
    report = LoadReport()
    sentences: list[TaggedSentence] = []
    for file_path in _corpus_files(Path(path)):
        first_lines = {}  # (file_name, sentence) -> line of the pair's first row
        for key, rows in itertools.groupby(_read_rows(file_path), key=lambda row: row[1]):
            lines, _, words, raw_tags = zip(*rows)
            first = first_lines.setdefault(key, lines[0])
            if first != lines[0]:
                where = f"({key[0]}, {key[1]}) first appeared at line {first}"
                report.add(file_path, lines[0], f"sentence {where}; its rows are not contiguous")
            tags = []
            for line, raw in zip(lines, raw_tags):
                try:
                    tags.append(parse_tag(raw))
                except TagParseError as exc:
                    report.add(file_path, line, str(exc))
            if len(tags) < len(lines):  # an unparseable tag, reported above
                report.dropped_sentences += 1
                continue
            violation = validate_sequence(tags)
            if violation is not None:
                where = f"({key[0]}, {key[1]}) starting at line {lines[0]}"
                report.add(file_path, 0, f"sentence {where}: {violation}")
                report.dropped_sentences += 1
                continue
            sentences.append(TaggedSentence([normalize_text(w) for w in words], tags, *key))
    return sentences, report


def encode_sentence(s: TaggedSentence, v: Vocabulary, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(token_ids, tag_ids) int64 arrays of the first min(len(s), max_len)
    tokens; unknown tokens map to UNK.  Padding a batch is the caller's."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = min(len(s), max_len)
    token_ids = np.fromiter(map(v.lookup, s.tokens[:n]), dtype=np.int64, count=n)
    tag_ids = np.fromiter(map(tag_to_id, s.tags[:n]), dtype=np.int64, count=n)
    return token_ids, tag_ids


@dataclass
class SplitStats:
    files: int = 0
    sentences: int = 0
    words: int = 0
    category_tokens: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.category_tokens:
            self.category_tokens = {c: 0 for c in CATEGORIES}


@dataclass
class CorpusStats:
    splits: dict[str, SplitStats]
    total: SplitStats


def corpus_stats(splits: dict[str, list[TaggedSentence]]) -> CorpusStats:
    """Per-split file/sentence/word counts plus per-category entity-token counts.

    A token counts toward category X when its tag has category X under any
    prefix, mirroring the per-category word counts of the dataset tables.
    """
    per_split = {}
    total = SplitStats()
    for name, sentences in splits.items():
        st = SplitStats(
            files=len({s.file_name for s in sentences}),
            sentences=len(sentences),
            words=sum(len(s) for s in sentences),
        )
        for s in sentences:
            for tag in s.tags:
                if not tag.is_outside:
                    st.category_tokens[tag.category] += 1
        per_split[name] = st
        total.files += st.files
        total.sentences += st.sentences
        total.words += st.words
        for c in CATEGORIES:
            total.category_tokens[c] += st.category_tokens[c]
    return CorpusStats(per_split, total)
