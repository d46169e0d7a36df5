from pathlib import Path

import numpy as np
import pytest

from arabner.bioes import parse_tag, tag_to_id, validate_sequence
from arabner.corpus import (
    CorpusFormatError,
    TaggedSentence,
    Vocabulary,
    build_vocab,
    corpus_stats,
    encode_sentence,
    read_corpus,
)

DATA = Path(__file__).parent / "data"

HEADER = "file_name,sentence,word,tag\n"


def write_csv(path, body, header=HEADER):
    path.write_text(header + body, encoding="utf-8")
    return path


def test_figure1_fixture_loads_as_one_sentence():
    sentences, report = read_corpus(DATA / "figure1" / "figure1.csv")
    assert report.clean
    assert len(sentences) == 1
    s = sentences[0]
    assert len(s) == 10
    assert s.file_name == "31" and s.sentence_id == 1
    assert [str(t) for t in s.tags] == [
        "O", "O", "B-LOC", "E-LOC", "O", "B-LOC", "I-LOC", "I-LOC", "I-LOC", "E-LOC",
    ]


def test_words_normalized_at_load(tmp_path):
    p = write_csv(tmp_path / "a.csv", "f,1,الْعَيْونُ,O\nf,1,العيون,O\n")
    sentences, report = read_corpus(p)
    assert report.clean
    assert sentences[0].tokens == ["العيون", "العيون"]


def test_sentence_boundary_is_pair_change(tmp_path):
    body = (
        "f1,1,a,O\n"
        "f1,1,b,O\n"
        "f1,2,c,O\n"
        "f2,2,d,O\n"  # same sentence id, new file_name -> new sentence
        "f2,1,e,O\n"  # ids may restart or go backwards
    )
    sentences, _ = read_corpus(write_csv(tmp_path / "a.csv", body))
    assert [(s.file_name, s.sentence_id, s.tokens) for s in sentences] == [
        ("f1", 1, ["a", "b"]),
        ("f1", 2, ["c"]),
        ("f2", 2, ["d"]),
        ("f2", 1, ["e"]),
    ]


def test_non_contiguous_key_is_reported_and_kept(tmp_path):
    body = "f,1,a,O\nf,2,b,O\nf,1,c,O\n"  # (f, 1) resumes after (f, 2)
    sentences, report = read_corpus(write_csv(tmp_path / "a.csv", body))
    assert [s.tokens for s in sentences] == [["a"], ["b"], ["c"]]
    assert len(report.issues) == 1
    issue = report.issues[0]
    assert issue.line == 4
    assert "(f, 1)" in issue.message and "first appeared at line 2" in issue.message


def test_directory_load_sorted_and_new_file_starts_sentence(tmp_path):
    # written out of lexicographic order on purpose
    write_csv(tmp_path / "b.csv", "f,1,x,O\n")
    write_csv(tmp_path / "a.csv", "f,1,y,O\n")
    sentences, _ = read_corpus(tmp_path)
    # a.csv first; identical (file_name, sentence) across physical files stays split
    assert [s.tokens for s in sentences] == [["y"], ["x"]]


def test_empty_file_header_only(tmp_path):
    sentences, report = read_corpus(write_csv(tmp_path / "a.csv", ""))
    assert sentences == [] and report.clean


def test_unknown_tag_strict_drops_and_reports(tmp_path):
    body = "f,1,w1,O\nf,1,w2,B-XYZ\nf,2,w3,O\n"
    sentences, report = read_corpus(write_csv(tmp_path / "a.csv", body))
    assert len(sentences) == 1 and sentences[0].tokens == ["w3"]
    assert report.dropped_sentences == 1
    assert len(report.issues) == 1
    issue = report.issues[0]
    assert issue.line == 3 and "XYZ" in issue.message


def test_grammar_violation_drops_and_reports(tmp_path):
    body = "f,1,w1,I-PER\n"
    sentences, report = read_corpus(write_csv(tmp_path / "a.csv", body))
    assert sentences == [] and report.dropped_sentences == 1
    violation = validate_sequence([parse_tag("I-PER")])
    assert [(i.line, i.message) for i in report.issues] == [
        (0, f"sentence (f, 1) starting at line 2: {violation}")
    ]


def test_hard_errors(tmp_path):
    with pytest.raises(CorpusFormatError, match="header"):
        read_corpus(write_csv(tmp_path / "a.csv", "", header="file,sent,w,t\n"))
    with pytest.raises(CorpusFormatError, match="missing header"):
        read_corpus(write_csv(tmp_path / "b.csv", "", header=""))
    with pytest.raises(CorpusFormatError, match="4 columns"):
        read_corpus(write_csv(tmp_path / "c.csv", "f,1,w\n"))
    with pytest.raises(CorpusFormatError, match="not an integer"):
        read_corpus(write_csv(tmp_path / "d.csv", "f,x,w,O\n"))
    with pytest.raises(CorpusFormatError, match="no such file"):
        read_corpus(tmp_path / "missing.csv")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CorpusFormatError, match="no .csv files"):
        read_corpus(empty)
    bad = tmp_path / "e.csv"
    bad.write_bytes(b"file_name,sentence,word,tag\nf,1,\xff\xfe,O\n")
    with pytest.raises(CorpusFormatError, match="UTF-8"):
        read_corpus(bad)


def test_reader_edge_cases(tmp_path):
    p = tmp_path / "edge.csv"
    p.write_bytes(
        (
            "﻿file_name,sentence,word,tag\r\n"  # line 1: UTF-8 BOM before the header
            "f,01,كَلمة,B-PER\r\n"  # line 2: id 01 is the pair (f, 1)
            'f,1,"سَطر\nثان",I-PER\r\n'  # lines 3-4: one quoted word over two lines
            "\r\n"  # line 5: stray blank line
            "f,1,و,Q-PER\r\n"  # line 6: unknown tag
            "f,2,في,O\r\n"  # line 7
            "f,1,عاد,S-LOC\r\n"  # line 8: (f, 1) resumes
        ).encode("utf-8")
    )
    sentences, report = read_corpus(p)
    issues = [
        (6, "unknown prefix 'Q' in tag 'Q-PER'"),
        (8, "sentence (f, 1) first appeared at line 2; its rows are not contiguous"),
    ]
    kept = [(["في"], ["O"], "f", 2), (["عاد"], ["S-LOC"], "f", 1)]
    assert [(i.path, i.line, i.message) for i in report.issues] == [(str(p), *i) for i in issues]
    assert report.dropped_sentences == 1
    assert [(s.tokens, [str(t) for t in s.tags], s.file_name, s.sentence_id) for s in sentences] == kept


def sent(tokens, tags=None):
    tags = tags or ["O"] * len(tokens)
    return TaggedSentence(tokens, [parse_tag(t) for t in tags])


def test_build_vocab_ordering():
    v = build_vocab([sent(["a", "b"]), sent(["b", "c"])])
    assert len(v) == 5
    assert v.id_to_token == ["<PAD>", "<UNK>", "b", "a", "c"]
    assert v.lookup("b") == 2 and v.lookup("zzz") == Vocabulary.UNK_ID


def test_build_vocab_min_count_and_empty():
    # There is no frequency cut-off: a token seen once is kept, as it was
    # under the old default min_count=1.
    assert build_vocab([]).id_to_token == ["<PAD>", "<UNK>"]
    v = build_vocab([sent(["a", "b"]), sent(["b", "c"])])
    assert v.id_to_token == ["<PAD>", "<UNK>", "b", "a", "c"]
    with pytest.raises(TypeError):
        build_vocab([], min_count=2)


def test_vocab_determinism():
    sents = [sent(["x", "y", "z"]), sent(["y", "z"]), sent(["z"])]
    assert build_vocab(sents).id_to_token == build_vocab(sents).id_to_token
    assert build_vocab(sents).id_to_token == ["<PAD>", "<UNK>", "z", "y", "x"]


@pytest.mark.parametrize("n, max_len", [(1, 5), (3, 3), (6, 2)])
def test_encode_sentence_keeps_the_first_max_len_tokens(n, max_len):
    tokens = ["a", "b", "c", "a", "b", "c"][:n]
    s = sent(tokens, ["S-PER", "O", "B-LOC", "I-LOC", "E-LOC", "O"][:n])
    v = build_vocab([sent(["c", "c", "b"])])  # "a" is unknown
    ids, tag_ids = encode_sentence(s, v, max_len)
    kept = min(n, max_len)
    assert ids.dtype == tag_ids.dtype == np.int64
    assert ids.tolist() == [v.lookup(t) for t in tokens[:kept]]
    assert tag_ids.tolist() == [tag_to_id(t) for t in s.tags[:kept]]


def test_encode_sentence_unk_and_truncation():
    v = build_vocab([sent(["a"])])
    ids, _ = encode_sentence(sent(["a", "mystery"]), v, 2)
    assert ids[1] == Vocabulary.UNK_ID
    long = sent(list("abcdef"))
    ids, tag_ids = encode_sentence(long, v, 4)
    assert ids.shape == tag_ids.shape == (4,)
    with pytest.raises(ValueError):
        encode_sentence(long, v, 0)


def test_corpus_stats_figure1():
    sentences, _ = read_corpus(DATA / "figure1" / "figure1.csv")
    stats = corpus_stats({"train": sentences})
    st = stats.splits["train"]
    assert (st.files, st.sentences, st.words) == (1, 1, 10)
    assert st.category_tokens["LOC"] == 7
    assert sum(st.category_tokens.values()) == 7
    assert stats.total.words == 10


def test_corpus_stats_totals_and_empty_split():
    a = [sent(["x", "y"], ["S-PER", "O"])]
    b = [sent(["z"], ["S-GEO"])]
    stats = corpus_stats({"train": a, "valid": b, "test": []})
    assert stats.total.sentences == 2
    assert stats.total.words == 3
    assert stats.total.category_tokens["PER"] == 1
    assert stats.total.category_tokens["GEO"] == 1
    assert stats.splits["test"].words == 0


def test_load_determinism(tmp_path):
    body = "f,1,الْعَيْونُ,O\nf,2,ب,S-PER\n"
    p = write_csv(tmp_path / "a.csv", body)
    first, _ = read_corpus(p)
    second, _ = read_corpus(p)
    assert [(s.tokens, s.tags) for s in first] == [(s.tokens, s.tags) for s in second]
